"""The Python dialects of the nest lowering, ``exec``-compiled per module.

Kernels come in two Python dialects, both driven by the one walk in
:mod:`repro.runtime.kernels.nest`:

* **scalar** — index variables are Python ints; ``if`` lowers to a lazy
  conditional expression (reference semantics: the guarded branch is never
  touched) and array elements are read through range-checked, origin-shifted
  storage indexing (out-of-range subscripts raise ``ExecutionError`` exactly
  like the evaluator). Per-equation scalar kernels and ``"full"`` nest
  kernels speak it;
* **vector** — index variables may be contiguous NumPy aranges; ``if``
  lowers to ``np.where``, and array reads inside a branch (or the right
  operand of ``and`` / ``or``) clip into range — naming the conditions
  that select their lanes, so a selected clipped lane raises — while every
  other read is range-checked, exactly like the vector evaluator; affine
  subscripts (``I + c``) go through
  :func:`~repro.runtime.kernels.runtime.affine_gather`, which selects the
  same values via basic slices instead of fancy indexing. Per-equation
  vector kernels speak it.

Both dialects, and the C one, are hooks on the one expression walk
(:mod:`repro.codegen.exprlower`); ``repro compile --emit python``
(:mod:`repro.codegen.pygen`) lists the scalar dialect's kernels as this
module emits them. An equation the
emitter cannot specialize (module calls, record fields, partial-rank array
values, atomic multi-target equations) is *non-kernelizable*: the engine
keeps evaluating it on the reference tree-walking evaluator.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import partial

import numpy as np

from repro.codegen.exprlower import ExprLowerer
from repro.codegen.naming import py_name
from repro.errors import ExecutionError
from repro.ps.ast import (
    BinOp,
    Call,
    Expr,
    Index,
    IntLit,
    Name,
    UnOp,
    names_in,
    walk_expr,
)
from repro.ps.semantics import AnalyzedEquation, AnalyzedModule, is_builtin
from repro.ps.types import ArrayType
from repro.runtime.kernels import runtime as _rt
from repro.runtime.kernels.nest import (
    KernelError,
    lower_equation,
    lower_nest,
    static_windows,
)
from repro.schedule.flowchart import Flowchart, LoopDescriptor


def equation_affine_fast_path(
    eq: AnalyzedEquation,
    analyzed: AnalyzedModule,
    flowchart: Flowchart | None = None,
    use_windows: bool = False,
) -> bool:
    """True when every array reference of the equation rides the
    slice-based affine fast path in vector mode (each subscript either
    index-free or ``index ± const`` with a distinct index per dimension,
    and no index-carrying subscript on a *windowed* dimension — the exact
    rule of ``_VectorLowerer._affine_specs``). References off this path
    fall back to clipped fancy indexing, an order of magnitude slower per
    element — the cost model prices them as ``"gather"``. ``flowchart``
    supplies the window analysis; without it windows are assumed off."""
    dims = set(eq.index_names)

    def affine_ok(name: str, subscripts: list[Expr]) -> bool:
        wins = (
            static_windows(name, analyzed, flowchart, use_windows)
            if flowchart is not None
            else {}
        )
        used: set[str] = set()
        for d, s in enumerate(subscripts):
            c = classify_affine_subscript(s, dims)
            if c is None:
                return False
            kind, var, _off = c
            if kind == "const":
                continue
            if var in used or d in wins:
                return False
            used.add(var)
        return True

    for target in eq.targets:
        sym = analyzed.table.symbol(target.name)
        if sym is not None and isinstance(sym.type, ArrayType):
            if not affine_ok(target.name, target.subscripts):
                return False
    for node in walk_expr(eq.rhs):
        if isinstance(node, Index) and isinstance(node.base, Name):
            sym = analyzed.table.symbol(node.base.ident)
            if sym is not None and isinstance(sym.type, ArrayType):
                if not affine_ok(node.base.ident, node.subscripts):
                    return False
    return True


def classify_affine_subscript(
    sub: Expr, dims: set[str]
) -> tuple[str, str | None, tuple[str, Expr] | None] | None:
    """The affine-in-one-index shape of a subscript — THE rule both the
    vector lowerer's fast path and the cost model's gather pricing follow
    (one definition, so they cannot drift).

    Returns ``("const", None, None)`` for an index-free subscript,
    ``("affine", var, None)`` for a bare index, ``("affine", var, (sign,
    offset_expr))`` for ``var ± const`` / ``const + var``, and ``None``
    when the subscript is not affine in exactly one index (the generic
    clipped-fancy-indexing gather then runs)."""

    def mentions_dims(e: Expr) -> bool:
        return any(
            isinstance(n, Name) and n.ident in dims for n in walk_expr(e)
        )

    if not mentions_dims(sub):
        return ("const", None, None)
    if isinstance(sub, Name) and sub.ident in dims:
        return ("affine", sub.ident, None)
    if isinstance(sub, BinOp) and sub.op in ("+", "-"):
        left, right = sub.left, sub.right
        if (
            isinstance(left, Name)
            and left.ident in dims
            and not mentions_dims(right)
        ):
            return ("affine", left.ident, (sub.op, right))
        if (
            sub.op == "+"
            and isinstance(right, Name)
            and right.ident in dims
            and not mentions_dims(left)
        ):
            return ("affine", right.ident, ("+", left))
    return None


class _KernelLowerer(ExprLowerer):
    """Shared kernel dialect pieces: name hoisting and builtin calls."""

    error_type = KernelError

    def __init__(
        self,
        eq: AnalyzedEquation,
        analyzed: AnalyzedModule,
        flowchart: Flowchart,
        use_windows: bool,
    ):
        self.eq = eq
        self.analyzed = analyzed
        self.flowchart = flowchart
        self.use_windows = use_windows
        self.dims = set(eq.index_names)
        #: names hoisted from ``env`` / ``data`` in the kernel prologue
        self.env_names: set[str] = set()
        self.scalar_names: set[str] = set()
        #: array name -> static window dims
        self.arrays: dict[str, dict[int, int]] = {}
        #: builtin functions referenced (bound into the kernel namespace)
        self.builtins: set[str] = set()
        #: True when the kernel invokes a module call through the call box
        self.module_calls: bool = False
        #: fresh-temp counter for inline range checks
        self._tmp = 0

    def windows_of(self, name: str) -> dict[int, int]:
        return static_windows(name, self.analyzed, self.flowchart, self.use_windows)

    def register_array(self, name: str) -> dict[int, int]:
        wins = self.arrays.get(name)
        if wins is None:
            wins = self.windows_of(name)
            self.arrays[name] = wins
        return wins

    # Resolution order mirrors the evaluator: env (loop indices), then the
    # data environment (symbols), then enum ordinals.
    def lower_name(self, ident: str) -> str:
        if ident in self.dims:
            self.env_names.add(ident)
            return f"_v_{py_name(ident)}"
        sym = self.analyzed.table.symbol(ident)
        if sym is not None:
            if isinstance(sym.type, ArrayType):
                raise self.error(f"whole-array value {ident!r}")
            self.scalar_names.add(ident)
            return f"_v_{py_name(ident)}"
        if ident in self.analyzed.table.enum_members:
            _, ordinal = self.analyzed.table.enum_members[ident]
            return str(ordinal)
        raise self.error(f"unbound name {ident!r}")

    def lower_call(self, expr: Call) -> str:
        if not is_builtin(expr.func):
            index_names = set(self.eq.index_names)
            for a in expr.args:
                if names_in(a) & index_names:
                    raise self.error(f"index-dependent module call {expr.func!r}")
            self.module_calls = True
            args = ", ".join(self.lower(a) for a in expr.args)
            return f"_mc({expr.func!r}, [{args}])"
        self.builtins.add(expr.func)
        args = ", ".join(self.lower(a) for a in expr.args)
        return f"_bf_{expr.func}({args})"

    def lower_store(self, target) -> str:
        """The statement storing ``__v`` into ``target`` — called after the
        right-hand side is lowered."""
        sym = self.analyzed.symbol(target.name)
        if not isinstance(sym.type, ArrayType):
            return f"_store(data, {target.name!r}, __v)"
        if len(target.subscripts) != sym.type.rank:
            raise self.error(f"partial-rank target {target.name!r}")
        self.register_array(target.name)
        return self.lower_array_store(target.name, target.subscripts)

    # The evaluator dispatches these operators on the runtime value kind;
    # the helpers replicate those branches exactly in both variants.
    def lower_div(self, left: str, right: str) -> str:
        return f"_div({left}, {right})"

    def lower_floordiv(self, left: str, right: str) -> str:
        return f"_fdiv({left}, {right})"

    def lower_mod(self, left: str, right: str) -> str:
        return f"_mod({left}, {right})"

    def lower_not(self, operand: str) -> str:
        return f"_not({operand})"


class _ScalarLowerer(_KernelLowerer):
    """Scalar variant: range-checked storage indexing, lazy ``if``,
    short-circuit logicals — the reference semantics, minus the tree walk."""

    #: what one evaluation adds to the equation's element count
    count_code = "1"

    def subscript_code(self, name: str, d: int, s: Expr) -> str:
        """One storage-relative subscript, range-checked like the
        evaluator's ``RuntimeArray`` access, window modulo applied.

        The in-range fast path is an inline chained comparison — the
        ``_ck`` helper is reached only to raise the identical out-of-range
        error, so the common case costs no Python call. Per-element calls
        are the dominant tax of the scalar kernels (fused nest kernels
        loop over millions of elements), which makes this inline worth its
        ugliness."""
        pname = py_name(name)
        wins = self.arrays[name]
        tmp = f"_t{self._tmp}"
        self._tmp += 1
        code = (
            f"({tmp} - _o_{pname}_{d}"
            f" if _o_{pname}_{d} <= ({tmp} := ({self.lower(s)})) <= _h_{pname}_{d}"
            f" else _ck({tmp}, _o_{pname}_{d}, _h_{pname}_{d}, "
            f"{d}, {name!r}))"
        )
        if d in wins:
            code = f"({code}) % _w_{pname}_{d}"
        return code

    def lower_array_ref(self, name: str, subscripts: list[Expr]) -> str:
        self.register_array(name)
        parts = [
            self.subscript_code(name, d, s) for d, s in enumerate(subscripts)
        ]
        return f"_s_{py_name(name)}[{', '.join(parts)}]"

    def lower_array_store(self, name: str, subscripts: list[Expr]) -> str:
        return f"{self.lower_array_ref(name, subscripts)} = __v"

    def lower_logical(self, op: str, left: str, right: str) -> str:
        return f"(bool({left}) {op} bool({right}))"


class _VectorLowerer(_KernelLowerer):
    """Vector variant: NumPy ops with ``np.where`` clipping; affine
    subscripts go through the slice-based gather/scatter helpers."""

    count_code = "int(np.size(__v))"

    #: the ``if`` branches / lazy operands enclosing the walk's position,
    #: outermost first: ``(condition temp, selected)`` per branch. Reads
    #: there may be masked lanes, so they clip, passing these guards (the
    #: evaluator's, see :func:`repro.runtime.evaluator.guarded`)
    guards: tuple = ()

    def lower_array_ref(self, name: str, subscripts: list[Expr]) -> str:
        wins = self.register_array(name)
        pname = py_name(name)
        clip = ""
        if self.guards:
            pairs = "".join(f"({t}, {sel}), " for t, sel in self.guards)
            clip = f", clip=({pairs})"
        specs = self._affine_specs(subscripts, wins)
        if specs is not None:
            return f"_ag(_a_{pname}, ({', '.join(specs)},){clip})"
        codes = ", ".join(self.lower(s) for s in subscripts)
        return f"_a_{pname}.get([{codes}]{clip})"

    def _lower_guarded(self, expr: Expr, cond: str, selected: bool) -> str:
        outer = self.guards
        self.guards = (*outer, (cond, selected))
        try:
            return self.lower(expr)
        finally:
            self.guards = outer

    def _bind(self, expr: Expr) -> tuple[str, str]:
        """``(temp, code)``: ``code`` lowers ``expr`` and binds its value to
        ``temp``, for the guards of the branches it selects."""
        tmp = f"_g{self._tmp}"
        self._tmp += 1
        return tmp, f"({tmp} := {self.lower(expr)})"

    def lower_array_store(self, name: str, subscripts: list[Expr]) -> str:
        pname = py_name(name)
        specs = self._affine_specs(subscripts, self.arrays[name])
        if specs is not None:
            return f"_asc(_a_{pname}, ({', '.join(specs)},), __v)"
        codes = ", ".join(self.lower(s) for s in subscripts)
        return f"_a_{pname}.set([{codes}], __v)"

    def _affine_specs(
        self, subscripts: list[Expr], wins: dict[int, int]
    ) -> list[str] | None:
        """One ``(base, offset)`` spec per subscript, or None when any
        subscript is not affine-in-one-index (the generic gather then
        reproduces the evaluator's clipped fancy indexing verbatim)."""
        specs: list[str] = []
        used: set[str] = set()
        for d, s in enumerate(subscripts):
            c = self._classify(s)
            if c is None:
                return None
            kind, var, off = c
            if kind == "affine":
                if var in used or d in wins:
                    return None
                used.add(var)
                self.env_names.add(var)
                specs.append(f"(_v_{py_name(var)}, {off})")
            else:
                specs.append(f"({self.lower(s)}, 0)")
        return specs

    def _classify(self, sub: Expr) -> tuple[str, str | None, str] | None:
        c = classify_affine_subscript(sub, self.dims)
        if c is None:
            return None
        kind, var, off = c
        if kind == "const":
            return ("const", None, "0")
        if off is None:
            return ("affine", var, "0")
        sign, expr = off
        code = self.lower(expr)
        return ("affine", var, code if sign == "+" else f"-({code})")

    def lower_binop(self, expr: BinOp) -> str:
        if expr.op in ("and", "or"):
            fn = "np.logical_and" if expr.op == "and" else "np.logical_or"
            tmp, left = self._bind(expr.left)
            right = self._lower_guarded(expr.right, tmp, expr.op == "and")
            return f"{fn}({left}, {right})"
        return super().lower_binop(expr)

    def lower_if(self, expr) -> str:
        tmp, cond = self._bind(expr.cond)
        return (
            f"np.where({cond}, {self._lower_guarded(expr.then, tmp, True)}, "
            f"{self._lower_guarded(expr.orelse, tmp, False)})"
        )


class _BoundLowerer:
    """Subrange bounds -> Python ints read from the data environment.

    Bounds only ever reference integer parameters (``eval_bound`` evaluates
    them against the scalar environment, never loop indices), so the nest
    kernel hoists each referenced scalar once and computes the bound in the
    prologue."""

    def __init__(self, scalars: set[str]):
        self.scalars = scalars

    def lower(self, expr: Expr) -> str:
        if isinstance(expr, IntLit):
            return str(expr.value)
        if isinstance(expr, Name):
            self.scalars.add(expr.ident)
            return f"_v_{py_name(expr.ident)}"
        if isinstance(expr, UnOp):
            return f"({expr.op}{self.lower(expr.operand)})"
        if isinstance(expr, BinOp):
            ops = {"+": "+", "-": "-", "*": "*", "div": "//", "mod": "%"}
            if expr.op not in ops:
                raise KernelError(f"invalid bound operator {expr.op!r}")
            return f"({self.lower(expr.left)} {ops[expr.op]} {self.lower(expr.right)})"
        raise KernelError(f"invalid bound expression {type(expr).__name__}")


class _PyKernel:
    """One Python kernel under construction — what the nest walk drives.

    ``vector`` picks the dialect. ``nest_indices`` tells the two calling
    conventions apart: ``None`` is a per-equation kernel
    ``kernel(data, env) -> count``; a set is a nest kernel
    ``kernel(data, env, lo, hi) -> {label: count}`` that binds those loop
    indices itself and reads only the *enclosing* ones from ``env``.

    A nest kernel pays one prologue hoist and one call per *subrange* where
    the per-equation scalar kernel pays them per element. Semantics are
    identical to the serial walk: descriptors execute in order inside each
    iteration, subranges ascend, and every element store goes through the
    same range-checked, window-mapped indexing."""

    def __init__(
        self,
        analyzed: AnalyzedModule,
        flowchart: Flowchart,
        use_windows: bool,
        vector: bool,
        nest_indices: set[str] | None = None,
    ):
        self.analyzed = analyzed
        self.flowchart = flowchart
        self.use_windows = use_windows
        self.vector = vector
        self.lowerer_cls = _VectorLowerer if vector else _ScalarLowerer
        self.nest_indices = nest_indices
        #: array name -> static window dims, over every equation lowered
        self.arrays: dict[str, dict[int, int]] = {}
        self.scalar_names: set[str] = set()
        self.env_names: set[str] = set()
        self.builtins: set[str] = set()
        self.bounds = _BoundLowerer(self.scalar_names)
        self.counters: list[str] = []  # equation labels, emission order
        self.body: list[str] = []
        self.indent = 2  # inside ``def`` and ``with np.errstate``

    def line(self, text: str) -> None:
        self.body.append("    " * self.indent + text)

    def open_loop(self, d: LoopDescriptor, root: bool) -> None:
        if root:
            span = "_nlo, _nhi + 1"
        else:
            lo = self.bounds.lower(d.subrange.lo)
            hi = self.bounds.lower(d.subrange.hi)
            span = f"{lo}, {hi} + 1"
        self.line(f"for _v_{py_name(d.index)} in range({span}):")
        self.indent += 1

    def close_loop(self) -> None:
        self.indent -= 1

    def store(self, eq: AnalyzedEquation) -> None:
        low = self.lowerer_cls(
            eq, self.analyzed, self.flowchart, self.use_windows
        )
        self.line(f"__v = {low.lower(eq.rhs)}")
        self.line(low.lower_store(eq.targets[0]))
        if self.nest_indices is not None:
            self.line(f"_c{len(self.counters)} += {low.count_code}")
        self.counters.append(eq.label)
        self.arrays.update(low.arrays)
        self.scalar_names.update(low.scalar_names)
        self.env_names.update(low.env_names)
        self.builtins.update(low.builtins)

    def array_windows(self):
        return self.arrays.items()

    def assemble(self) -> tuple[str, set[str]]:
        """``(source, builtins_used)``: the hoist prologue, then the body
        under one ``np.errstate``."""
        nest = self.nest_indices is not None
        lines = [f"def _kernel(data, env{', _nlo, _nhi' if nest else ''}):"]
        for name in sorted(self.arrays):
            pname = py_name(name)
            lines.append(f"    _a_{pname} = data[{name!r}]")
            if self.vector:
                # The vector dialect addresses arrays through the
                # RuntimeArray helpers; no storage-relative hoists needed.
                continue
            lines.append(f"    _s_{pname} = _a_{pname}.storage")
            for d in range(self.analyzed.symbol(name).type.rank):
                lines.append(f"    _o_{pname}_{d} = _a_{pname}.los[{d}]")
                lines.append(f"    _h_{pname}_{d} = _a_{pname}.his[{d}]")
            for d in sorted(self.arrays[name]):
                lines.append(f"    _w_{pname}_{d} = _a_{pname}.windows[{d}]")
        for name in sorted(self.env_names - (self.nest_indices or set())):
            lines.append(f"    _v_{py_name(name)} = env[{name!r}]")
        for name in sorted(self.scalar_names):
            lines.append(f"    _v_{py_name(name)} = data[{name!r}]")
        if nest:
            lines.extend(f"    _c{i} = 0" for i in range(len(self.counters)))
        lines.append("    with np.errstate(invalid='ignore', divide='ignore'):")
        lines.extend(self.body)
        if nest:
            result = ", ".join(
                f"{label!r}: _c{i}" for i, label in enumerate(self.counters)
            )
            lines.append(f"    return {{{result}}}")
        else:
            lines.append(f"    return {self.lowerer_cls.count_code}")
        return "\n".join(lines) + "\n", self.builtins


def emit_kernel_source(
    eq: AnalyzedEquation,
    analyzed: AnalyzedModule,
    flowchart: Flowchart,
    vector: bool,
    use_windows: bool,
) -> tuple[str, set[str]]:
    """Emit the per-equation kernel source; ``(source, builtins_used)``.

    Raises :class:`KernelError` when the equation cannot be specialized.
    """
    out = _PyKernel(analyzed, flowchart, use_windows, vector)
    return lower_equation(out, eq, analyzed)


def emit_nest_kernel_source(
    desc: LoopDescriptor,
    analyzed: AnalyzedModule,
    flowchart: Flowchart,
    use_windows: bool,
) -> tuple[str, set[str]]:
    """Emit one kernel for the whole nest in the scalar dialect, over the
    root subrange ``[lo, hi]`` (in-order blocks when the root is a
    ``DO``); ``(source,
    builtins_used)``."""
    return lower_nest(
        lambda: _PyKernel(
            analyzed, flowchart, use_windows,
            vector=False, nest_indices=desc.nest_indices(),
        ),
        desc, analyzed,
    )


def _compile(
    emitted: tuple[str, set[str]],
    filename: str,
    call_box: list | None,
    vector: bool = False,
) -> Callable:
    """``compile()``/``exec`` one emitted kernel. ``call_box`` is the
    one-slot module-call box the kernel's ``_mc`` reads at call time (see
    :func:`repro.runtime.kernels.runtime.module_call`); a ``vector``
    kernel's ``div`` / ``mod`` treat every operand as a lane that may be
    masked."""
    source, builtins = emitted
    namespace: dict = {
        "np": np,
        "ExecutionError": ExecutionError,
        "_ag": _rt.affine_gather,
        "_asc": _rt.affine_scatter,
        "_ck": _rt.check_index,
        "_div": _rt.kdiv,
        "_fdiv": partial(_rt.floor_div_mod, "div", vector=vector),
        "_mc": _rt.make_module_call(call_box),
        "_mod": partial(_rt.floor_div_mod, "mod", vector=vector),
        "_not": _rt.knot,
        "_store": _rt.store_scalar,
    }
    for name in builtins:
        namespace[f"_bf_{name}"] = _rt.BUILTIN_FUNCS[name]
    exec(compile(source, filename, "exec"), namespace)
    fn = namespace["_kernel"]
    fn.__kernel_source__ = source
    return fn


def compile_kernel(
    eq: AnalyzedEquation,
    analyzed: AnalyzedModule,
    flowchart: Flowchart,
    vector: bool,
    use_windows: bool,
    call_box: list | None = None,
) -> Callable:
    """Emit and compile the per-equation kernel: ``kernel(data, env) ->
    int`` (the element count for the evaluation statistics), writing its
    target in place."""
    variant = "vector" if vector else "scalar"
    return _compile(
        emit_kernel_source(eq, analyzed, flowchart, vector, use_windows),
        f"<kernel:{analyzed.name}.{eq.label}:{variant}>",
        call_box,
        vector,
    )


def compile_nest_kernel(
    desc: LoopDescriptor,
    analyzed: AnalyzedModule,
    flowchart: Flowchart,
    use_windows: bool,
    call_box: list | None = None,
) -> Callable:
    """Emit and compile the nest kernel for ``desc``: ``kernel(data, env,
    lo, hi) -> dict[str, int]`` (per-equation element counts over the root
    subrange ``[lo, hi]``), writing its targets in place."""
    return _compile(
        emit_nest_kernel_source(desc, analyzed, flowchart, use_windows),
        f"<kernel:{analyzed.name}.nest-{desc.index}:full>",
        call_box,
    )
