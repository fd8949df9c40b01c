"""Native kernel tier: the C dialect of the nest lowering, loaded via cffi.

The NumPy kernel tier (:mod:`repro.runtime.kernels.emit`) removed the
per-element tree walk but still pays interpreter overhead per scalar
fallback and per dispatch. This module lets the same walk
(:mod:`repro.runtime.kernels.nest`) print C instead — the classic
restructuring-compiler endgame (PFC-style automatic translation; see
PAPERS.md) — compiles each kernel **once** with the system C compiler, and
loads the shared object through ``cffi``'s ABI mode. Kernels are built in
batches (:func:`build_kernels`): the functions of a whole execution plan, of
the warm set, or of one lazily requested nest share one translation unit,
one compiler process and one ``dlopen``. The result is
registered in :class:`~repro.runtime.kernels.cache.KernelCache` with the
same callable signature as the Python nest kernels (``kernel(data, env, lo,
hi) -> dict[label, count]``), so every backend dispatches through it
unchanged. Lookup order is **native -> NumPy kernel -> evaluator**.

Bit-exactness contract: the emitted C performs the identical IEEE-754
operation sequence the scalar reference evaluator performs (lazy ``if``,
short-circuit logicals, range-checked window-mapped indexing, floored
``div``/``mod``, NaN-propagating min/max), compiled with FP contraction
off. Equations that would not be bit-exact in C (module calls,
transcendental builtins) make the nest non-emittable and it stays on the
NumPy tier.

Range checks are made where they are cheapest. A subscript of the paper's
Figure-2 classes (*index ± integer expression*, or index-free) has its
range over the loop box decided by the box's endpoints, so the kernel
proves it **once per call**, at function entry, from the box refined by
the guards the reference sits under (:mod:`repro.runtime.kernels.ranges`;
the guards come from the lowerer's facts stack). Such a reference carries
no check in the loop and its storage-relative terms are computed in the
header of the loop that binds their index. A kernel whose proof fails
returns before its first store and the wrapper raises
:class:`RangeUnproven`; the backend reruns that one call a tier down
(the nest's Python dialect, or the strictly serial walk for a span or flat
chunk — code that checks every subscript), which is where the evaluator's
out-of-range error comes from. Every other subscript keeps a
compare-and-return per element, reporting through the error channel.

Compiled artifacts persist in an on-disk cache keyed by the SHA-256 of the
generated translation unit (``$REPRO_NATIVE_CACHE`` or
``~/.cache/repro/native``):
a second process — or a later session — dlopens the existing ``.so``
without invoking the compiler. The generated ``.c`` is kept next to it,
and :func:`persist_plan` stores execution plans beside the generated C for
offline builds. Everything degrades gracefully: no C compiler or no cffi
means :func:`native_supported` is False and the cache quietly serves the
NumPy tier.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from repro.codegen.clower import (
    C_FLAGS,
    C_PRELUDE,
    C_STORAGE_TYPES,
    CExprLowerer,
    kind_of_type,
)
from repro.codegen.naming import c_name
from repro.errors import ExecutionError
from repro.ps.ast import BinOp, Expr, IntLit, Name, UnOp
from repro.ps.printer import format_expression
from repro.ps.semantics import AnalyzedEquation, AnalyzedModule
from repro.ps.types import ArrayType
from repro.runtime.kernels.nest import (
    KernelError,
    lower_nest,
    span_is_full,
    static_windows,
)
from repro.runtime.kernels.ranges import UNPROVEN, RangeProof
from repro.schedule.flowchart import Flowchart, LoopDescriptor

# ---------------------------------------------------------------------------
# Toolchain discovery and the on-disk artifact cache
# ---------------------------------------------------------------------------

_compiler_cache: str | None | bool = False  # False: not probed yet


def find_compiler() -> str | None:
    """Path of the system C compiler, or None. Probed once per process
    (monkeypatch this to simulate a compiler-less platform)."""
    global _compiler_cache
    if _compiler_cache is False:
        _compiler_cache = next(
            (
                path
                for cc in ("cc", "gcc", "clang")
                if (path := shutil.which(cc)) is not None
            ),
            None,
        )
    return _compiler_cache


def _ffi_module():
    try:
        import cffi
    except ImportError:
        return None
    return cffi


def native_supported() -> bool:
    """True when the native tier can compile on this machine (cffi
    importable and a C compiler on PATH). Emittability of a given nest is
    a separate, machine-independent question — see :func:`native_emittable`.
    """
    return _ffi_module() is not None and find_compiler() is not None


def cache_dir() -> Path:
    """The on-disk artifact cache: ``$REPRO_NATIVE_CACHE`` or
    ``~/.cache/repro/native``. Created on demand."""
    root = os.environ.get("REPRO_NATIVE_CACHE")
    path = (
        Path(root)
        if root
        else Path(os.path.expanduser("~")) / ".cache" / "repro" / "native"
    )
    path.mkdir(parents=True, exist_ok=True)
    return path


def persist_plan(
    module_name: str, plan_text: str, specs: list[NativeKernelSpec]
) -> Path:
    """Store an execution plan next to the C it builds, for offline builds:
    ``plans/<module>-<hash>/plan.txt``, ``<module>.c`` — the plan's one
    translation unit, the very text :func:`build_kernels` hands to ``cc``
    for ``specs`` — and a ``build.sh`` recording the *mandatory*
    bit-exactness flags (an offline ``cc -O2`` without
    ``-ffp-contract=off``/``-fwrapv`` would contract FMAs and reintroduce
    signed-overflow UB). A plan that dispatches no native kernel saves no
    C. The hash keys the plan text, so re-saving an unchanged plan is
    idempotent."""
    digest = hashlib.sha256(plan_text.encode()).hexdigest()[:16]
    out = cache_dir() / "plans" / f"{module_name}-{digest}"
    out.mkdir(parents=True, exist_ok=True)
    (out / "plan.txt").write_text(plan_text)
    lines = ["#!/bin/sh", "# bit-exactness requires exactly these flags", "set -e"]
    if specs:
        (out / f"{module_name}.c").write_text(unit_source(specs))
        lines.append(
            f'cc {" ".join(C_FLAGS)} -shared -o "{module_name}.so" '
            f'"{module_name}.c" -lm'
        )
    (out / "build.sh").write_text("\n".join(lines) + "\n")
    return out


# ---------------------------------------------------------------------------
# Emission: the C dialect of the nest walk
# ---------------------------------------------------------------------------


@dataclass
class NativeKernelSpec:
    """Everything needed to compile and call one native nest kernel."""

    #: the C function alone (signature + body) — what a shared translation
    #: unit concatenates after one prelude
    function: str
    #: named by the hash of its own text, so equal functions share a name
    fn_name: str
    decl: str  # cffi declaration of the function
    #: ordered (array name, element kind) pairs — pointer args
    arrays: list[tuple[str, str]]
    #: per-array rank, same order (geometry layout)
    ranks: list[int]
    #: ordered (scalar name, kind) pairs hoisted from the data environment
    scalars: list[tuple[str, str]]
    #: ordered env names (enclosing loop indices outside the nest)
    env_names: list[str]
    #: equation labels in emission order (counts layout)
    counters: list[str]
    #: range checks the kernel's array subscripts need, and how many of
    #: them its entry proof discharges (the rest stay in the loop text)
    checks: int = 0
    proven: int = 0
    #: (reference, why) per subscript that keeps its per-element check
    inline: tuple[tuple[str, str], ...] = ()

    @property
    def source(self) -> str:
        """The kernel as a translation unit of its own (prelude +
        function): what ``tests/runtime/kernel_sources.json`` pins and
        ``repro plan --save`` writes out."""
        return C_PRELUDE + "\n" + self.function


def _is_int_scalar(t) -> bool:
    if isinstance(t, ArrayType):
        return False
    try:
        return kind_of_type(t) == "int"
    except ValueError:
        return False


class RangeUnproven(KernelError):
    """A native kernel's entry proof failed (see
    :mod:`repro.runtime.kernels.ranges`): it returned before its first
    store, and the call has to run one tier down — where, the obligations
    being exact, it raises the evaluator's out-of-range error."""


class _Header:
    """Subscript terms computed where their index is bound: one ``const``
    per distinct C text, declared at the top of a loop body (or at function
    entry). A header sits in the kernel's line list at its position and is
    flattened by :meth:`_NativeKernel.assemble`."""

    def __init__(self, indent: int):
        self.indent = indent
        self.terms: dict[str, str] = {}

    def lines(self) -> list[str]:
        pad = "    " * self.indent
        return [f"{pad}const i64 {n} = {t};" for t, n in self.terms.items()]


class _NativeKernel(CExprLowerer):
    """One C kernel under construction — what the nest walk drives. Loop
    indices and hoisted scalars are function parameters/locals, array
    references are window-mapped, row-major flattened reads of the raw
    storage pointers.

    Every subscript is range-checked exactly like the evaluator, in one of
    two places. A subscript of the form *index ± index-free integer
    expression* under guards the facts stack understands is checked **once
    per call**: :class:`~repro.runtime.kernels.ranges.RangeProof` turns the
    loop box, refined by those guards, into obligations at function entry,
    the check leaves the loop text, and the storage-relative term
    (``v_K - 1 - A_lo0``, modulo the literal window size where the storage
    turns out to be windowed) is computed in the header of the loop that
    binds its index. Everything else — two-index hyperplane subscripts,
    indirect subscripts, references below a guard like ``I mod 2 = 0`` —
    keeps the per-element compare-and-return it always had.

    **No-trap rule.** Entry obligations and hoisted terms run before
    guards and checks that used to precede them, so they contain nothing
    that traps or loads: integer ``+ - *`` over parameters and loop
    indices (wrapping, ``-fwrapv``), comparisons, and ``%`` by a positive
    literal — never ``%`` or ``/`` by a run-time value, never an array
    read."""

    error_type = KernelError

    def __init__(
        self,
        analyzed: AnalyzedModule,
        flowchart: Flowchart,
        use_windows: bool,
        nest_indices: set[str],
    ):
        super().__init__(analyzed, index_names=set())
        self.flowchart = flowchart
        self.use_windows = use_windows
        self.nest_indices = set(nest_indices)
        #: dims of the equation currently being lowered (enclosing loop
        #: indices outside the nest resolve through ``env``, like the
        #: Python nest kernels)
        self.current_dims: set[str] = set()
        #: every name that is an index where the walk stands (open loops +
        #: the dims of the equation being lowered)
        self.indices: set[str] = set()
        #: array name -> (ordinal, rank, element kind, windowed dims)
        self.arrays: dict[str, tuple[int, int, str, dict[int, int]]] = {}
        #: array name -> the windows ``RuntimeArray.allocate`` gives it
        #: when windows are on — asked in both modes
        self.window_sizes: dict[str, dict[int, int]] = {}
        self.scalar_names: set[str] = set()
        self.env_names: set[str] = set()
        self.counters: list[str] = []  # equation labels, emission order
        self.prologue: list[str] = []
        self.proof = RangeProof(self._offset, self.lower_name, self.fresh)
        #: hoisted subscript terms: function entry, then one header per
        #: open loop as (indices it binds, header), innermost last
        self.entry = _Header(1)
        self.headers: list[tuple[set[str], _Header]] = []
        self.checks = 0
        self.proven = 0
        self.inline: list[tuple[str, str]] = []

    def register_array(self, name: str) -> tuple[int, int, str, dict[int, int]]:
        entry = self.arrays.get(name)
        if entry is None:
            sym = self.analyzed.symbol(name)
            if not isinstance(sym.type, ArrayType):
                raise self.error(f"not an array: {name!r}")
            wins = static_windows(
                name, self.analyzed, self.flowchart, self.use_windows
            )
            entry = (len(self.arrays), sym.type.rank, kind_of_type(sym.type), wins)
            self.arrays[name] = entry
            self.window_sizes[name] = wins if self.use_windows else static_windows(
                name, self.analyzed, self.flowchart, True
            )
        return entry

    # -- name resolution ---------------------------------------------------

    def lower_name(self, ident: str) -> str:
        if ident in self.index_names or ident in self.current_dims:
            if ident not in self.index_names and ident not in self.nest_indices:
                # an enclosing loop index outside the nest: hoisted from env
                self.env_names.add(ident)
            return f"v_{c_name(ident)}"
        sym = self.analyzed.table.symbol(ident)
        if sym is not None:
            if isinstance(sym.type, ArrayType):
                raise self.error(f"whole-array value {ident!r}")
            self.scalar_names.add(ident)
            return f"v_{c_name(ident)}"
        if ident in self.analyzed.table.enum_members:
            _, ordinal = self.analyzed.table.enum_members[ident]
            return str(ordinal)
        raise self.error(f"unbound name {ident!r}")

    def kind(self, expr: Expr) -> str:
        if isinstance(expr, Name) and (
            expr.ident in self.index_names or expr.ident in self.current_dims
        ):
            return "int"
        return super().kind(expr)

    # -- array references --------------------------------------------------

    def push_fact(self, cond: Expr, truth: bool) -> None:
        self.proof.push_fact(cond, truth, self.indices)

    def pop_fact(self) -> None:
        self.proof.pop_fact()

    def _offset(self, expr: Expr) -> str | None:
        """C text of an index-free integer expression of the :meth:`bound`
        language, or None — what a range proof may add to an endpoint or
        compare one against. (Whatever scalar :meth:`bound` books before it
        refuses is booked anyway when the expression is lowered in full.)"""
        try:
            return self.bound(expr)
        except KernelError:
            return None

    def _hoist(self, index: str | None, text: str) -> str:
        """The variable holding ``text``, declared once in the header of
        the loop that binds ``index`` (function entry when nothing in the
        kernel does: a constant, or an index arriving through ``env``)."""
        header = self.entry
        for bound, candidate in reversed(self.headers):
            if index in bound:
                header = candidate
                break
        name = header.terms.get(text)
        if name is None:
            name = header.terms[text] = self.fresh("_s")
        return name

    def subscript_code(
        self, name: str, d: int, sub: Expr, subscripts: list[Expr]
    ) -> str:
        """One storage-relative subscript (``subscripts[d]`` of a reference
        to ``name``), range-checked exactly like the evaluator, window
        modulo applied: proven at entry and hoisted when the subscript is
        provable-form, else checked inline (error info reported through
        ``err``). May emit statements; returns C."""
        ordinal, _rank, _kind, wins = self.arrays[name]
        an = c_name(name)
        self.checks += 1
        why, index = self.proof.prove(
            sub, self.indices, f"{an}_lo{d}", f"{an}_hi{d}"
        )
        if why is None:
            self.proven += 1
            mapped = f"({self.lower(sub)} - {an}_lo{d})"
            size = self.window_sizes[name].get(d)
            if size:
                # The storage is either the window RuntimeArray.allocate
                # gives this dimension in window mode or the full extent;
                # which one is read from ``geom`` at entry, so one function
                # serves both modes (and a module run in both builds it
                # once). The modulo is by the literal size.
                self.proof.require(
                    f"({an}_n{d} == {size}) | "
                    f"({an}_n{d} == {an}_hi{d} - {an}_lo{d} + 1)"
                )
                windowed = self._hoist(None, f"({an}_n{d} == {size})")
                mapped = f"({windowed} ? {mapped} % {size} : {mapped})"
            return self._hoist(index, mapped)
        ref = f"{name}[{', '.join(format_expression(s) for s in subscripts)}]"
        self.inline.append((ref, why))
        raw = self.fresh("_i")
        self.stmt(f"i64 {raw} = (i64)({self.lower(sub)});")
        self.stmt(
            f"if ({raw} < {an}_lo{d} || {raw} > {an}_hi{d}) "
            f"{{ err[0] = {raw}; err[1] = {d}; err[2] = {ordinal}; "
            f"return 1; }}"
        )
        mapped = f"({raw} - {an}_lo{d})"
        if d in wins:
            mapped = f"({mapped} % {an}_n{d})"
        return mapped

    def lower_array_ref(self, name: str, subscripts: list[Expr]) -> str:
        _ordinal, rank, _kind, _wins = self.register_array(name)
        if len(subscripts) != rank:
            raise self.error(f"partial-rank reference to {name!r}")
        an = c_name(name)
        parts = [
            self.subscript_code(name, d, s, subscripts)
            for d, s in enumerate(subscripts)
        ]
        flat = parts[0]
        for d in range(1, rank):
            flat = f"({flat} * {an}_n{d} + {parts[d]})"
        return f"s_{an}[{flat}]"

    def lower_binop(self, expr) -> str:
        """Integer ``div``/``mod`` must guard the divisor before touching
        C's ``/``/``%``: a zero divisor (or INT64_MIN / -1) is *undefined
        behaviour* that SIGFPEs the whole interpreter, where the evaluator
        raises. The guard reports through the error channel and the
        wrapper re-raises the evaluator's exact exception."""
        if expr.op in ("div", "mod"):
            self._int_only(expr.op, expr.left, expr.right)
            tl = self.fresh("_d")
            tr = self.fresh("_d")
            self.stmt(f"i64 {tl} = (i64)({self.lower(expr.left)});")
            self.stmt(f"i64 {tr} = (i64)({self.lower(expr.right)});")
            self.stmt(
                f"if ({tr} == 0) {{ err[0] = 0; err[1] = -1; err[2] = -1; "
                f"return 2; }}"
            )
            self.stmt(
                f"if ({tr} == -1 && {tl} == INT64_MIN) "
                f"{{ err[0] = {tl}; err[1] = -1; err[2] = -1; return 3; }}"
            )
            helper = "ps_fdiv" if expr.op == "div" else "ps_mod"
            return f"{helper}({tl}, {tr})"
        return super().lower_binop(expr)

    # -- what the walk drives ----------------------------------------------

    def bound(self, expr: Expr) -> str:
        """Subrange bound -> C (integer parameters only, like the Python
        nest kernels' ``_BoundLowerer``). Bounds with ``div``/``mod`` are
        rejected: they evaluate in prologue initialisers where the
        zero-divisor guard cannot be emitted, so such nests stay on the
        NumPy tier."""
        if isinstance(expr, IntLit):
            return str(expr.value)
        if isinstance(expr, Name):
            sym = self.analyzed.table.symbol(expr.ident)
            if sym is None or not _is_int_scalar(sym.type):
                raise KernelError(f"non-integer bound name {expr.ident!r}")
            self.scalar_names.add(expr.ident)
            return f"v_{c_name(expr.ident)}"
        if isinstance(expr, UnOp):
            if expr.op not in ("-", "+"):
                raise KernelError(f"invalid bound operator {expr.op!r}")
            return f"({expr.op}{self.bound(expr.operand)})"
        if isinstance(expr, BinOp):
            if expr.op not in ("+", "-", "*"):
                raise KernelError(f"unguardable bound operator {expr.op!r}")
            return f"({self.bound(expr.left)} {expr.op} {self.bound(expr.right)})"
        raise KernelError(f"invalid bound expression {type(expr).__name__}")

    def open_loop(self, d: LoopDescriptor, root: bool) -> None:
        var = f"v_{c_name(d.index)}"
        self.index_names.add(d.index)
        lo, hi = (
            ("nlo", "nhi")
            if root
            else (self.bound(d.subrange.lo), self.bound(d.subrange.hi))
        )
        self.stmt(f"for (i64 {var} = {lo}; {var} <= {hi}; {var}++) {{")
        self.indent += 1
        self._open_header({d.index})
        self.proof.open_loops([(d.index, lo, hi)])

    def _open_header(self, indices: set[str]) -> None:
        header = _Header(self.indent)
        self.lines.append(header)
        self.headers.append((indices, header))

    def close_loop(self) -> None:
        self.headers.pop()
        self.proof.close_loops()
        self.indent -= 1
        self.stmt("}")

    def open_flat(self, chain: list[LoopDescriptor]) -> None:
        """One loop over the flat range ``[nlo, nhi]``, recovering the
        chain indices with a divmod cascade per element (row-major,
        innermost fastest — the exact iteration order of the reference
        ``exec_flat_walk``)."""
        for k, loop in enumerate(chain):
            self.prologue.append(
                f"    const i64 _clo{k} = {self.bound(loop.subrange.lo)};"
            )
            if k > 0:
                hi_c = self.bound(loop.subrange.hi)
                self.prologue.append(
                    f"    const i64 _cn{k} = ({hi_c}) - _clo{k} + 1;"
                )
        for loop in chain:
            self.index_names.add(loop.index)
        self.stmt("for (i64 _f = nlo; _f <= nhi; _f++) {")
        self.indent += 1
        self.stmt("i64 _r = _f;")
        for k in range(len(chain) - 1, 0, -1):
            var = f"v_{c_name(chain[k].index)}"
            self.stmt(f"i64 {var} = _r % _cn{k} + _clo{k};")
            self.stmt(f"_r /= _cn{k};")
        self.stmt(f"i64 v_{c_name(chain[0].index)} = _r + _clo0;")
        # The flat range is a slice of the chain's box; the proof is over
        # the whole box (exact for a call that covers it, conservative for
        # a chunk), empty when the flat range is.
        self._open_header({loop.index for loop in chain})
        self.proof.open_loops(
            [
                (loop.index, self.bound(loop.subrange.lo),
                 self.bound(loop.subrange.hi))
                for loop in chain
            ],
            empty="(nlo > nhi)",
        )

    def store(self, eq: AnalyzedEquation) -> None:
        """RHS, range-checked flattened target subscript, element-kind
        cast, and the per-label evaluation counter."""
        self.current_dims = set(eq.index_names)
        self.indices = self.index_names | self.current_dims
        target = eq.targets[0]
        kind = self.register_array(target.name)[2]
        value = self.lower(eq.rhs)
        element = self.lower_array_ref(target.name, target.subscripts)
        ctype = C_STORAGE_TYPES[kind]
        if kind == "bool":
            self.stmt(f"{element} = ({ctype})(({value}) != 0);")
        else:
            self.stmt(f"{element} = ({ctype})({value});")
        self.stmt(f"_c{len(self.counters)} += 1;")
        self.counters.append(eq.label)

    def array_windows(self):
        return ((name, entry[3]) for name, entry in self.arrays.items())

    def assemble(self) -> NativeKernelSpec:
        """The lowered body as a full translation unit with the shared
        parameter layout (array pointers, geometry, hoisted scalars, env
        names, subrange, counters, error channel)."""
        arrays = sorted(self.arrays.items(), key=lambda kv: kv[1][0])
        scalar_names = sorted(self.scalar_names)
        env_names = sorted(self.env_names - self.nest_indices)
        counters = self.counters
        params: list[str] = []
        for name, (_ordinal, _rank, kind, _wins) in arrays:
            params.append(f"{C_STORAGE_TYPES[kind]} *s_{c_name(name)}")
        params.append("const i64 *geom")
        scalar_kinds: list[tuple[str, str]] = []
        for name in scalar_names:
            kind = kind_of_type(self.analyzed.table.symbol(name).type)
            scalar_kinds.append((name, kind))
            ctype = "double" if kind == "real" else "i64"
            params.append(f"{ctype} v_{c_name(name)}")
        for name in env_names:
            params.append(f"i64 v_{c_name(name)}")
        params.extend(["i64 nlo", "i64 nhi", "i64 *counts", "i64 *err"])

        body: list[str] = []
        pos = 0
        for name, (_ordinal, rank, _kind, _wins) in arrays:
            an = c_name(name)
            for d in range(rank):
                body.append(f"    const i64 {an}_lo{d} = geom[{pos}];")
                body.append(f"    const i64 {an}_hi{d} = geom[{pos + 1}];")
                body.append(f"    const i64 {an}_n{d} = geom[{pos + 2}];")
                pos += 3
        body.extend(self.prologue)
        body.extend("    " + line for line in self.proof.lines())
        body.extend(self.entry.lines())
        for i in range(len(counters)):
            body.append(f"    i64 _c{i} = 0;")
        for line in self.lines:
            if isinstance(line, _Header):
                body.extend(line.lines())
            else:
                body.append(line)
        for i in range(len(counters)):
            body.append(f"    counts[{i}] = _c{i};")
        body.append("    return 0;")

        digest_src = "\n".join(body) + "|" + ", ".join(params)
        fn_name = "k_" + hashlib.sha256(digest_src.encode()).hexdigest()[:16]
        signature = f"int {fn_name}({', '.join(params)})"
        return NativeKernelSpec(
            function=signature + "\n{\n" + "\n".join(body) + "\n}\n",
            fn_name=fn_name,
            decl=signature.replace("const i64 *geom", "const int64_t *geom") + ";",
            arrays=[(name, entry[2]) for name, entry in arrays],
            ranks=[entry[1] for _name, entry in arrays],
            scalars=scalar_kinds,
            env_names=env_names,
            counters=counters,
            checks=self.checks,
            proven=self.proven,
            inline=tuple(dict.fromkeys(self.inline)),
        )


def native_specs(
    desc: LoopDescriptor,
    analyzed: AnalyzedModule,
    flowchart: Flowchart,
    use_windows: bool,
    shape: str = "full",
) -> list[NativeKernelSpec]:
    """Lower the nest rooted at ``desc`` to C in ``shape`` — one spec for
    ``"full"`` (the root subrange ``[nlo, nhi]``, inner loops at their
    declared bounds; in-order blocks when the root is a ``DO``) and
    ``"flat"`` (the inclusive flat range of the collapsed chain), one spec
    per equation for ``"span"``.

    Raises :class:`KernelError` when the nest is not natively emittable
    (module calls, transcendental builtins, non-rectangular chains, scalar
    targets — anything whose C translation would not be bit-exact).
    Whether this machine can *compile* the result is
    :func:`native_supported`; this answer is machine-independent.

    Memoized on the flowchart by (path, window mode, shape), refusals
    included: the ``auto`` planner asks "does it lower?" once per
    candidate backend and the kernel cache then asks for the same specs to
    compile, so one emission serves them all. (The span of a one-equation
    nest *is* its full kernel and is lowered as such — see
    :func:`~repro.runtime.kernels.nest.span_is_full`.)"""
    if shape == "span" and span_is_full(desc):
        shape = "full"
    memo = flowchart.__dict__.setdefault("_native_emit_memo", {})
    path = flowchart.path_of(desc)
    key = (path, bool(use_windows), shape)
    found = memo.get(key) if path is not None else None
    if found is None:
        try:
            found = lower_nest(
                lambda: _NativeKernel(
                    analyzed, flowchart, use_windows, desc.nest_indices()
                ),
                desc, analyzed, flowchart, use_windows, shape,
            )
        except KernelError as exc:
            found = str(exc)
        if path is not None:
            memo[key] = found
    if isinstance(found, str):
        raise KernelError(found)
    return found


def native_emittable(
    desc: LoopDescriptor,
    analyzed: AnalyzedModule,
    flowchart: Flowchart,
    use_windows: bool,
    shape: str = "full",
) -> bool:
    """Does :func:`native_specs` lower this nest? The planner's question."""
    try:
        native_specs(desc, analyzed, flowchart, use_windows, shape)
    except KernelError:
        return False
    return True


# ---------------------------------------------------------------------------
# Compilation and the Python-callable wrapper
# ---------------------------------------------------------------------------

#: what this process has dlopened: translation-unit digest -> (lib, ffi),
#: and kernel function name -> the (lib, ffi) of the unit defining it
_loaded: dict[str, tuple] = {}

#: serializes build+dlopen within this process. Request threads planning the
#: same module race to build the same kernels; without the lock they also
#: duplicated cc invocations for one digest.
_load_lock = threading.RLock()


def _compile_so(source: str, digest: str) -> tuple[Path, bool]:
    """Compile ``source`` into the on-disk cache (or reuse the cached
    ``.so``); returns the shared-object path and whether ``cc`` ran.

    Every file lands via ``os.replace`` from a unique temp name — including
    the ``.c``, and the compiler reads the *temp* copy. A concurrent
    compile of the same digest (another process sharing the cache) must
    never let cc read a half-written source: a truncated ``.c`` can still
    compile clean and produce a ``.so`` without the kernel symbol, which
    would then be dlopened and memoized while a later good compile silently
    fixes only the disk file."""
    out_dir = cache_dir()
    so_path = out_dir / f"{digest}.so"
    if so_path.exists():
        return so_path, False
    cc = find_compiler()
    if cc is None:
        raise KernelError("no C compiler available")
    fd, tmp_c = tempfile.mkstemp(dir=out_dir, suffix=".tmp.c")
    with os.fdopen(fd, "w") as f:
        f.write(source)
    with tempfile.NamedTemporaryFile(
        dir=out_dir, suffix=".so.tmp", delete=False
    ) as tmp:
        tmp_path = Path(tmp.name)
    try:
        proc = subprocess.run(
            [cc, *C_FLAGS, "-shared", "-o", str(tmp_path), tmp_c, "-lm"],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            raise KernelError(
                f"C compilation failed ({cc}): {proc.stderr.strip()[:500]}"
            )
        # atomic: concurrent compiles race safely, readers see whole files
        os.replace(tmp_c, out_dir / f"{digest}.c")
        os.replace(tmp_path, so_path)
    finally:
        if os.path.exists(tmp_c):
            os.unlink(tmp_c)
        if tmp_path.exists():
            tmp_path.unlink()
    return so_path, True


def load_library(
    source: str, cdef: str, counters: dict[str, int] | None = None
) -> tuple:
    """Compile (or reuse from cache) one C translation unit and dlopen it,
    returning ``(lib, ffi)`` — the one place a compiler process starts.
    Raises :class:`KernelError` when no compiler or cffi is available.
    ``counters`` (a :class:`KernelCache`'s) books the unit under ``"tus"``
    and a real compile under ``"cc_calls"``. Shared by :func:`build_kernels`
    and the static scan kernel library (:mod:`repro.runtime.kernels.scan`)."""
    # The flags are part of the artifact's semantics (-ffp-contract=off,
    # -fwrapv): a .so built under different flags must not be reused.
    key = source + "|" + " ".join(C_FLAGS)
    digest = hashlib.sha256(key.encode()).hexdigest()
    entry = _loaded.get(digest)
    if entry is None:
        with _load_lock:
            entry = _loaded.get(digest)
            if entry is None:
                cffi = _ffi_module()
                if cffi is None:
                    raise KernelError("cffi is not available")
                so_path, compiled = _compile_so(source, digest)
                ffi = cffi.FFI()
                ffi.cdef(cdef)
                lib = ffi.dlopen(str(so_path))
                entry = (lib, ffi)
                _loaded[digest] = entry
                if counters is not None:
                    counters["tus"] += 1
                    counters["cc_calls"] += compiled
    return entry


def unit_source(specs: list[NativeKernelSpec]) -> str:
    """The one translation unit holding ``specs``: the prelude once, each
    distinct function after it in name order."""
    functions = {s.fn_name: s.function for s in specs}
    return C_PRELUDE + "\n" + "\n".join(
        functions[name] for name in sorted(functions)
    )


def build_kernels(
    specs: list[NativeKernelSpec], counters: dict[str, int] | None = None
) -> None:
    """THE native build path, for a batch of any size: every function of
    ``specs`` this process has not loaded yet goes into **one** translation
    unit — the prelude once, the functions after it in name order, one
    ``cc``, one ``dlopen``, the digest over the set. A plan's kernels, the
    warm set and a lone lazily requested kernel are the same call with
    different batches. A unit of one is byte-for-byte ``spec.source``."""
    with _load_lock:
        missing = {
            s.fn_name: s for s in specs if s.fn_name not in _loaded
        }
        if not missing:
            return
        unit = [missing[name] for name in sorted(missing)]
        entry = load_library(
            unit_source(unit),
            "typedef int64_t i64; " + " ".join(s.decl for s in unit),
            counters,
        )
        for s in unit:
            _loaded[s.fn_name] = entry


def _wrap_spec(
    spec: NativeKernelSpec, on_proof: Callable[[bool], None] | None = None
) -> Callable:
    """Wrap one built spec as ``kernel(data, env, nlo, nhi) -> dict[label,
    count]``. The wrapper pins every storage buffer for the duration of the
    call (cffi's ABI mode releases the GIL around the C invocation, so a
    free-running thread must not let the arrays be collected mid-kernel),
    checks the error channel after, and re-raises the evaluator's exact
    exceptions — or :class:`RangeUnproven` when the entry proof failed.
    ``on_proof(held)`` hears the verdict of every call that had one."""
    lib, ffi = _loaded[spec.fn_name]
    fn = getattr(lib, spec.fn_name)
    array_names = [name for name, _kind in spec.arrays]
    ptr_types = [
        C_STORAGE_TYPES[kind] + " *" for _name, kind in spec.arrays
    ]
    geom_size = 3 * sum(spec.ranks)
    scalars = spec.scalars
    env_names = spec.env_names
    counters = spec.counters
    if not spec.proven:
        on_proof = None

    def _kernel(data, env, nlo, nhi):
        cargs = []
        geom = ffi.new("int64_t[]", geom_size)
        pos = 0
        holders = []
        for name, ptr_t in zip(array_names, ptr_types):
            arr = data[name]
            sto = arr.storage
            holders.append(sto)  # keep the buffer alive across the call
            cargs.append(ffi.cast(ptr_t, sto.ctypes.data))
            for d in range(sto.ndim):
                geom[pos] = arr.los[d]
                geom[pos + 1] = arr.his[d]
                geom[pos + 2] = sto.shape[d]
                pos += 3
        cargs.append(geom)
        for name, kind in scalars:
            v = data[name]
            cargs.append(float(v) if kind == "real" else int(v))
        for name in env_names:
            cargs.append(int(env[name]))
        counts = ffi.new("int64_t[]", max(1, len(counters)))
        err = ffi.new("int64_t[]", 4)
        rc = fn(*cargs, int(nlo), int(nhi), counts, err)
        if on_proof is not None:
            on_proof(rc != UNPROVEN)
        if rc == UNPROVEN:
            raise RangeUnproven(
                f"range proof of {spec.fn_name} failed over [{nlo}, {nhi}]"
            )
        if rc == 2:
            # the evaluator's exact exception for a zero divisor
            raise ZeroDivisionError("integer division or modulo by zero")
        if rc == 3:
            raise ExecutionError(
                f"integer overflow: {err[0]} div/mod -1 does not fit int64"
            )
        if rc != 0:
            name = array_names[err[2]]
            arr = data[name]
            d = err[1]
            raise ExecutionError(
                f"index {err[0]} out of range [{arr.los[d]}, {arr.his[d]}] "
                f"in dimension {d} of {name!r}"
            )
        return {label: counts[i] for i, label in enumerate(counters)}

    _kernel.__kernel_source__ = spec.source
    _kernel.__native__ = True
    return _kernel


def bind_kernel(
    specs: list[NativeKernelSpec],
    on_proof: Callable[[bool], None] | None = None,
) -> Callable:
    """The Python callable over the *built* ``specs`` of one nest (see
    :func:`build_kernels`), with the exact signature of the Python nest
    kernels — ``kernel(data, env, lo, hi) -> dict`` — raising the
    evaluator's out-of-range :class:`ExecutionError` when the C code
    reports one and :class:`RangeUnproven` when its entry proof fails.
    The several specs of a ``"span"`` become one composite callable that
    runs the per-equation kernels in emission order — the same
    distribution order as ``exec_vector_span`` — and merges their
    counters. When a later equation's proof fails the earlier ones have
    stored; rerunning the whole span a tier down recomputes the same
    values from the same inputs (every loop of a span is a ``DOALL``: no
    equation reads what its own pass wrote) and counts each element once,
    because a failed call returns no counts."""
    kernels = [_wrap_spec(spec, on_proof) for spec in specs]
    if len(kernels) == 1:
        return kernels[0]

    def _span_kernel(data, env, nlo, nhi):
        counts: dict[str, int] = {}
        for kern in kernels:
            for label, n in kern(data, env, nlo, nhi).items():
                counts[label] = counts.get(label, 0) + n
        return counts

    _span_kernel.__kernel_source__ = "\n".join(spec.source for spec in specs)
    _span_kernel.__native__ = True
    return _span_kernel


def compile_native_nest(
    desc: LoopDescriptor,
    analyzed: AnalyzedModule,
    flowchart: Flowchart,
    use_windows: bool,
    variant: str = "full",
) -> Callable:
    """Lower, build (a batch of one nest) and bind the native kernel of
    ``desc`` in shape ``variant``."""
    specs = native_specs(desc, analyzed, flowchart, use_windows, variant)
    build_kernels(specs)
    return bind_kernel(specs)
