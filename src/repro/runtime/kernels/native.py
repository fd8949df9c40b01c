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
hi) -> dict[label, count]``), so the engine dispatches through it
unchanged. Lookup order is **native -> NumPy kernel -> evaluator**.

Bit-exactness contract: the emitted C performs the identical IEEE-754
operation sequence the scalar reference evaluator performs (lazy ``if``,
short-circuit logicals, range-checked window-mapped indexing, floored
``div``/``mod``, NaN-propagating min/max), compiled with FP contraction
off. Equations that would not be bit-exact in C (module calls,
transcendental builtins) make the nest non-emittable and it stays on the
NumPy tier.

Range checks are made where they are cheapest. A subscript of the paper's
Figure-2 classes (*index ± integer expression*, or index-free) or linear
in several indices (the §4 hyperplane's ``Kp - 2 * Ip - Jp``) has its
range over the loop box decided by the box's endpoints, so the kernel
proves it **once per call**, at function entry, from the box refined by
the guards the reference sits under (:mod:`repro.runtime.kernels.ranges`;
the guards come from the lowerer's facts stack). A guard that compares
linear forms records an interval for its form and tightens, by one round
of interval propagation, every index with coefficient ±1 in it; the box
stays an over-approximation of what the loops reach, so a proof can fail
without a subscript being out of range (the call then merely runs a tier
down) but never hold for one that is. Such a reference carries no check
in the loop and its storage-relative terms are computed in the header of
the innermost loop that binds one of its indices. A kernel whose proof fails
returns before its first store and the wrapper raises
:class:`RangeUnproven`; the backend reruns that one call a tier down
(the nest's Python dialect — code that checks every subscript), which is
where the evaluator's out-of-range error comes from. Every other subscript
keeps a compare-and-return per element, reporting through the error
channel.

A ``DO`` over ``DOALL`` s may also be printed as a **team** kernel (shape
``"team"``): one ``#pragma omp parallel`` around the ``DO``, whose width
is the function's last argument, ``omp for schedule(static)`` on the
outermost ``DOALL`` of each body unit and ``omp single`` around the rest;
the implicit barrier of each construct is the wavefront join. Only a kernel
with no exit inside the region takes a team — every subscript proven at
entry, no ``div`` / ``mod`` guard — so a failed proof still returns before
the region and the first store. Team units are the only ones compiled with
``-fopenmp`` (when :func:`openmp_supported`). Every unit is loaded never to
be unloaded: libgomp's pool threads outlive the interpreter's teardown.
:func:`team_width` says how wide a call really runs.

A plan whose every top-level loop is a native nest also gets a **module
entry** in its unit (:func:`entry_spec`, :class:`ModuleEntry`):
``run_<module>`` evaluates each top-level loop's bounds, calls the loop's
function through its address and stores the equations outside the loops
inline, in flowchart order, so a warm run is one cffi call. It stops at
the first non-zero return, which the backend answers by walking the
flowchart from fresh storage.

Compiled artifacts persist in an on-disk cache keyed by the SHA-256 of the
generated translation unit (``$REPRO_NATIVE_CACHE`` or
``~/.cache/repro/native``):
a second process — or a later session — dlopens the existing ``.so``
without invoking the compiler. An index beside the ``.so`` s records which
unit holds each kernel function, so a function built in any batch — a
session's batch of tier-ups included, whose digest depends on what happened
to be pending together — is dlopened from that unit rather than compiled
again into another. The generated ``.c`` is kept next to each ``.so``,
and :func:`persist_plan` stores execution plans beside the generated C for
offline builds. Everything degrades gracefully: no C compiler or no cffi
means :func:`native_supported` is False and the cache quietly serves the
NumPy tier.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import subprocess
import tempfile
import threading
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.codegen.clower import (
    C_FLAGS,
    C_PRELUDE,
    C_STORAGE_TYPES,
    CExprLowerer,
    kind_of_type,
)
from repro.codegen.exprlower import INFIX_OPS
from repro.codegen.naming import c_name
from repro.errors import ExecutionError
from repro.ps.ast import BinOp, Expr, IntLit, Name, UnOp
from repro.ps.printer import format_expression
from repro.ps.semantics import AnalyzedEquation, AnalyzedModule
from repro.ps.types import ArrayType
from repro.runtime.kernels.nest import (
    KernelError,
    finish,
    kernelizable_reason,
    lower_nest,
    static_windows,
)
from repro.runtime.kernels.ranges import UNPROVEN, RangeProof
from repro.runtime.kernels.segments import (
    Atom,
    SegmentPlan,
    Side,
    merge_leaves,
    plan_segments,
)
from repro.schedule.flowchart import Flowchart, LoopDescriptor, NodeDescriptor

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
    a separate, machine-independent question — see :func:`native_refusal`.
    """
    return _ffi_module() is not None and find_compiler() is not None


#: what a unit holding a team kernel is compiled with on top of ``C_FLAGS``
OPENMP_FLAGS = ("-fopenmp",)

_openmp_cache: bool | None = None  # None: not probed yet

#: the probe: one function with one parallel region
_OPENMP_PROBE = 'void omp_probe(void) { _Pragma("omp parallel") { } }\n'


def openmp_supported() -> bool:
    """True when the native tier can also build team kernels: a one-line
    ``-fopenmp`` unit compiles and links here. Probed once per process,
    and the probe's ``.so`` is kept in :func:`cache_dir`, so a process
    over a warm cache starts no compiler for it (monkeypatch this to plan
    as a host with or without OpenMP would)."""
    global _openmp_cache
    if _openmp_cache is None:
        _openmp_cache = native_supported() and _probe_openmp()
    return _openmp_cache


def _probe_openmp() -> bool:
    flags = (*C_FLAGS, *OPENMP_FLAGS)
    digest = hashlib.sha256(
        (_OPENMP_PROBE + "|" + " ".join(flags)).encode()
    ).hexdigest()[:16]
    try:
        _compile_so(_OPENMP_PROBE, f"omp-probe-{digest}", flags)
    except (KernelError, OSError):
        return False
    return True


#: the first process that ran a team wider than one thread
_team_pid: int | None = None

#: per thread: the widest team its calls may run (unset: the plan's)
_team_cap = threading.local()


def cap_teams(width: int | None) -> None:
    """From now on, team kernels the calling thread calls run at most
    ``width`` threads wide (None: as wide as planned) — how a server
    running several requests at once keeps their teams from
    oversubscribing the cores. Plans are untouched: only the width argument
    of the call changes."""
    _team_cap.width = width


def team_width(planned: int) -> int:
    """How many threads a team kernel planned ``planned`` wide runs on when
    this thread calls it now: at most its :func:`cap_teams`, and 1
    in any process other than the first that ran a wider team — GNU
    libgomp is not fork-safe, so a child forked after its parent started
    the thread pool would wait forever on threads it does not have."""
    global _team_pid
    cap = getattr(_team_cap, "width", None)
    width = max(1, planned if cap is None else min(planned, cap))
    if width > 1:
        pid = os.getpid()
        if _team_pid is None:
            _team_pid = pid
        elif _team_pid != pid:
            return 1
    return width


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
            f'cc {" ".join(unit_flags(specs))} -shared -o "{module_name}.so" '
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
    #: a team kernel: the team's width is the last argument
    team: bool = False
    #: a module entry: the functions it calls, in ``fns`` order, and the
    #: scalars it returns in ``outs``
    calls: tuple[NativeKernelSpec, ...] = ()
    results: tuple[str, ...] = ()

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


@dataclass
class _Segment:
    """A segmented loop between its header and its leaves."""

    index: str
    plan: SegmentPlan
    leaf: str  # C variable: the segment's leaf
    end: str  # C variable: the segment's last index
    shared: bool
    #: how it was opened: the loop's bounds, and where its lines start at
    #: which indent (a loop whose leaves merge is printed again from there)
    opened: tuple[str, str, int, int]
    #: (equation, counter) in body order, lowered once per leaf
    equations: list[tuple[AnalyzedEquation, int]] = field(default_factory=list)


def _tree_c(tree, flags: dict[Atom, str]) -> str:
    """The leaf a segment's guard flags pick, as a C expression."""
    if isinstance(tree, int):
        return str(tree)
    atom, yes, no = tree
    return f"({flags[atom]} ? {_tree_c(yes, flags)} : {_tree_c(no, flags)})"


#: a C temporary (:meth:`CExprLowerer.fresh`) where it is declared
_DECLARED = re.compile(r"\b(?:i64|int64_t|uint64_t|double) (_[a-z]\d+)\b")


def _leaf_text(lines: list) -> str:
    """A leaf's lines as text to compare with another leaf's: the
    temporaries it declares numbered from zero, and a value cast twice to
    one type (``((double)(((double)(x))))``: a decided ``if`` inside
    another) cast once — both leave what the code computes unchanged."""
    text = "\n".join(
        "\n".join(line.lines()) if isinstance(line, _Header) else line
        for line in lines
    )
    names = {
        name: f"_{n}"
        for n, name in enumerate(dict.fromkeys(_DECLARED.findall(text)))
    }
    text = re.sub(r"\b_[a-z]\d+\b", lambda m: names.get(m[0], m[0]), text)
    for ctype in ("double", "int64_t"):
        cast = f"(({ctype})("
        while (at := text.find(cast + cast)) >= 0:
            inner = at + len(cast)
            end = _closing(text, inner)
            if text[end + 1:end + 3] != "))":
                break
            text = text[:inner] + text[inner + len(cast):end - 1] + text[end + 1:]
    return text


def _closing(text: str, at: int) -> int:
    """Where the parenthesis opened at ``text[at]`` closes."""
    depth = 0
    for i in range(at, len(text)):
        depth += {"(": 1, ")": -1}.get(text[i], 0)
        if depth == 0:
            return i
    raise ValueError("unbalanced parentheses")


class _NativeKernel(CExprLowerer):
    """One C kernel under construction — what the nest walk drives. Loop
    indices and hoisted scalars are function parameters/locals, array
    references are window-mapped, row-major flattened reads of the raw
    storage pointers.

    Every subscript is range-checked exactly like the evaluator, in one of
    two places. A subscript linear in the indices with integer literal
    coefficients and an index-free offset (``I - 1``, ``Kp - 2 * Ip -
    Jp``) under guards the facts stack understands is checked **once per
    call**: :class:`~repro.runtime.kernels.ranges.RangeProof` turns the
    loop box, refined by those guards, into obligations at function entry,
    the check leaves the loop text, and the storage-relative term
    (``v_K - 1 - A_lo0``, modulo the literal window size where the storage
    turns out to be windowed) is computed in the header of the innermost
    loop that binds one of its indices. Everything else — indirect
    subscripts, products of indices, references below a guard like ``I
    mod 2 = 0`` — keeps the per-element compare-and-return it always had.

    **Segmented loops.** An innermost loop whose equations branch on an
    affine index guard (:mod:`repro.runtime.kernels.segments`: ``J = 0``,
    ``Kp - 2 * Ip - Jp > M + 1``, or ``I = 0`` inside the ``J`` loop) is
    printed as a loop over segments. Each segment's header decides the
    guards at its first index, counts how many more indices keep every
    guard's truth (``uint64_t`` differences of ``int64`` values, taken
    only where they are exact; a guard side that would wrap ends the
    segment where it does), and picks the segment's leaf: the body lowered
    under that outcome (:attr:`decided`), the branches not taken never
    printed. Each element is still computed by its own expression, in
    iteration order, and stored once; the facts a decided condition would
    have pushed are pushed all the same, so the entry proof owes what it
    owed (:attr:`RangeProof.replay` makes a fact met again in another leaf
    the same box). A team's shared leaf loop divides whole pieces, one
    per thread, each segmented on its own. A loop without such a guard —
    or with more than :data:`~repro.runtime.kernels.segments.MAX_LEAVES`
    leaves — prints as it always did.

    **No-trap rule.** Entry obligations, hoisted terms and segment
    headers run before guards and checks that used to precede them, so
    they contain nothing that traps or loads: integer ``+ - *`` over
    parameters and loop indices (wrapping, ``-fwrapv``), comparisons, and
    ``%`` by a positive literal — never ``%`` or ``/`` by a run-time value,
    never an array read. (A segment header decides a guard the reference
    evaluates lazily, perhaps never; its sides are linear over indices and
    integer scalars, so deciding it early is harmless.)"""

    error_type = KernelError
    #: what the function's name starts with, and its last parameters
    prefix = "k_"
    tail = ("i64 nlo", "i64 nhi", "i64 *counts", "i64 *err")

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
        self.proof = RangeProof(self._offset, self.lower_name, self.fresh)
        #: hoisted subscript terms: function entry, then one header per
        #: open loop as (indices it binds, header), innermost last
        self.entry = _Header(1)
        self.headers: list[tuple[set[str], _Header]] = []
        self.checks = 0
        self.proven = 0
        self.inline: list[tuple[str, str]] = []
        #: div/mod divisor guards printed (each may return mid-loop)
        self.guards = 0
        #: the root loop runs on a team (see :meth:`open_region`)
        self.team = False
        #: the next loop opened is divided among the team (:meth:`share`)
        self._shared = False
        #: the open segmented loop, whose equations wait for its leaves
        self._segment: _Segment | None = None
        #: while a segmented loop prints its leaves: the subscripts counted
        #: already (each leaf lowers them again; each counts once)
        self._counted: set[int] | None = None
        #: a module entry's (:class:`_ModuleEntry`): the functions it calls,
        #: the real scalars it returns in ``outs``, and the geometry entries
        #: and counters of its calls so far
        self.calls: list[NativeKernelSpec] = []
        self.results: list[str] = []
        self._geom = self._counts = 0

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

    def _hoist(self, indices: set[str], text: str) -> str:
        """The variable holding ``text``, declared once in the header of
        the innermost loop that binds one of ``indices`` (function entry
        when nothing in the kernel does: a constant, or indices arriving
        through ``env``)."""
        header = self.entry
        for bound, candidate in reversed(self.headers):
            if bound & indices:
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
        first = self._counted is None or id(sub) not in self._counted
        if self._counted is not None:
            self._counted.add(id(sub))
        self.checks += first
        why, mentioned = self.proof.prove(
            sub, self.indices, f"{an}_lo{d}", f"{an}_hi{d}"
        )
        if why is None:
            self.proven += first
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
                windowed = self._hoist(set(), f"({an}_n{d} == {size})")
                mapped = f"({windowed} ? {mapped} % {size} : {mapped})"
            return self._hoist(mentioned, mapped)
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
            self.guards += 1
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
        rejected: they evaluate in loop headers, where the zero-divisor
        guard cannot be emitted, so such nests stay on the NumPy tier."""
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
        shared, self._shared = self._shared, False
        plan = self._plan_segments(d)
        if plan is None:
            self.stmt(f"for (i64 {var} = {lo}; {var} <= {hi}; {var}++) {{")
            self.indent += 1
            self._open_header({d.index})
        else:
            self._open_segments(d.index, plan, lo, hi, shared)
        self.proof.open_loop(d.index, lo, hi)

    # -- segmented leaf loops ------------------------------------------------

    def _plan_segments(self, d: LoopDescriptor) -> SegmentPlan | None:
        """How the leaf loop ``d`` splits
        (:func:`~repro.runtime.kernels.segments.plan_segments`): only a
        loop whose body is all equations, its guards read as the range
        proof reads linear forms (so their sides are in the ``bound()``
        language). A loop that splits points name resolution at its
        equations' indices for its segment header."""
        if not d.body or not all(isinstance(c, NodeDescriptor) for c in d.body):
            return None
        eqs = [c.node.equation for c in d.body]
        dims = set().union(*(eq.index_names for eq in eqs))
        indices = self.index_names | dims
        exprs = [e for eq in eqs for e in (eq.rhs, *eq.targets[0].subscripts)]
        plan = plan_segments(
            exprs, d.index, lambda e: self.proof.linear(e, indices)
        )
        if plan is not None:
            self.current_dims, self.indices = dims, indices
        return plan

    def _side(self, side: Side) -> str:
        """A guard side in C, in the ``int64`` arithmetic (wrapping) the
        per-element test computes it in: the same value modulo 2**64."""
        coeffs, offset = side
        terms = []
        for name, c in coeffs:
            v = self.lower_name(name)
            terms.append(v if c == 1 else f"-{v}" if c == -1 else f"{c} * {v}")
        if offset != "0" or not terms:
            terms.append(offset)
        text = terms[0]
        for t in terms[1:]:
            text += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return text if len(terms) == 1 else f"({text})"

    def _open_segments(
        self, index: str, plan: SegmentPlan, lo: str, hi: str, shared: bool
    ) -> None:
        """Open the loop over ``index`` as a loop over segments: each
        segment's header decides the guards at its first index, works out
        how many more elements keep every guard's truth, and picks the
        leaf; :meth:`_close_segments` prints the leaves. Lengths are
        ``uint64_t`` differences of ``int64`` values, exact where the
        difference is taken, so nothing wraps."""
        var = f"v_{c_name(index)}"
        opened = (lo, hi, len(self.lines), self.indent)
        if shared:
            # the omp for divides whole pieces, one per thread, each then
            # segmented on its own
            piece, size, part, extra, count, last = (
                self.fresh(p) for p in ("_p", "_n", "_q", "_x", "_m", "_h")
            )
            width = "(nthreads > 1 ? nthreads : 1)"
            self.stmt(f"for (i64 {piece} = 0; {piece} < {width}; {piece}++) {{")
            self.indent += 1
            self.stmt(
                f"const uint64_t {size} = {hi} < {lo} ? 0 : "
                f"(uint64_t){hi} - (uint64_t){lo} + 1;"
            )
            self.stmt(
                f"const uint64_t {part} = {size} / {width}, "
                f"{extra} = {size} % {width}, "
                f"{count} = {part} + ({piece} < {extra});"
            )
            first = (
                f"(uint64_t){lo} + {piece} * {part} + "
                f"({piece} < {extra} ? {piece} : {extra})"
            )
            self.stmt(f"const i64 {last} = (i64)({first} + {count} - 1);")
            self.stmt(
                f"for (i64 {var} = (i64)({first}); {count} && {var} <= {last}; ) {{"
            )
            hi = last
        else:
            self.stmt(f"for (i64 {var} = {lo}; {var} <= {hi}; ) {{")
        self.indent += 1
        run = None
        if any(a.x for a in plan.atoms):
            # the elements after this one the segment still takes
            run = self.fresh("_r")
            self.stmt(f"uint64_t {run} = (uint64_t){hi} - (uint64_t){var};")
        flags: dict[Atom, str] = {}
        moved: dict[str, str] = {}  # a guard side's text -> its variable
        for atom in plan.atoms:
            flag = flags[atom] = self.fresh("_a")
            left, right = self._side(atom.left), self._side(atom.right)
            if atom.x and left != var and left not in moved:
                # a side that moves with the index and is more than the
                # index: it moves by one per element until int64 wraps it
                moved[left] = self.fresh("_g")
                self.stmt(f"const i64 {moved[left]} = {left};")
                self._shorten(run, (
                    f"(uint64_t)INT64_MAX - (uint64_t){moved[left]}" if atom.x > 0
                    else f"(uint64_t){moved[left]} - (uint64_t)INT64_MIN"
                ))
            left = moved.get(left, left)
            self.stmt(f"const i64 {flag} = ({left} {INFIX_OPS[atom.op]} {right});")
            if atom.x:
                self._cut(left, atom.x, atom.op, right, run)
        end = hi
        if run is not None:
            end = self.fresh("_o")
            self.stmt(f"const i64 {end} = (i64)((uint64_t){var} + {run});")
        leaf = self.fresh("_k")
        self.stmt(f"const i64 {leaf} = {_tree_c(plan.tree, flags)};")
        self._segment = _Segment(index, plan, leaf, end, shared, opened)

    def _cut(self, s: str, step: int, op: str, c: str, run: str) -> None:
        """Shorten ``run`` to the elements over which ``s op c`` keeps the
        truth it has here, ``s`` moving by ``step`` (±1) per element:
        ``run = min(run, left)``, ``left`` all ones where the truth never
        turns (branch-free: each branch is more code for ``cc``)."""
        group = {"<": "<", ">=": "<", "<=": "<=", ">": "<=", "=": "=", "<>": "="}
        if step > 0:  # s rises: the truth turns where s reaches c
            gap = f"(uint64_t){c} - (uint64_t){s}"
            turns, left = {
                "<": ("<", f"{gap} - 1"), "<=": ("<=", gap), "=": ("<", f"{gap} - 1"),
            }[group[op]]
        else:
            gap = f"(uint64_t){s} - (uint64_t){c}"
            turns, left = {
                "<": (">=", gap), "<=": (">", f"{gap} - 1"), "=": (">", f"{gap} - 1"),
            }[group[op]]
        left = f"({left}) | -(uint64_t)!({s} {turns} {c})"
        if group[op] == "=":  # s == c: this element alone
            left = f"({left}) & -(uint64_t)({s} != {c})"
        self._shorten(run, left)

    def _shorten(self, run: str, left: str) -> None:
        name = self.fresh("_m")
        self.stmt(f"const uint64_t {name} = {left};")
        self.stmt(f"{run} = {name} < {run} ? {name} : {run};")

    def _close_segments(self) -> None:
        """Print each leaf of the open segmented loop: the segment's
        elements in order, the body lowered under the leaf's decided
        guards, then close the segment loop. Leaves that print the same
        body (:func:`~repro.runtime.kernels.segments.merge_leaves`) are
        made one and the loop is printed again from its header."""
        seg, self._segment = self._segment, None
        self.proof.replay, self._counted = {}, set()
        bodies = self._print_leaves(seg)
        merged = merge_leaves(seg.plan, [_leaf_text(b) for b in bodies])
        if merged is not None:
            lo, hi, mark, indent = seg.opened
            del self.lines[mark:]
            self.indent = indent
            self._open_segments(seg.index, merged, lo, hi, seg.shared)
            self._segment.equations, seg = seg.equations, self._segment
            self._segment = None
            self._print_leaves(seg)
        self.proof.replay, self._counted = None, None
        if seg.shared:
            self.indent -= 1
            self.stmt("}")

    def _print_leaves(self, seg: _Segment) -> list[list]:
        """The leaves of ``seg`` and the segment loop's close; returns
        each leaf's lines."""
        var = f"v_{c_name(seg.index)}"
        last = len(seg.plan.leaves) - 1
        bodies = []
        for k, decided in enumerate(seg.plan.leaves):
            if k == 0:
                self.stmt(f"if ({seg.leaf} == 0) {{")
            elif k == last:
                self.stmt("} else {")
            else:
                self.stmt(f"}} else if ({seg.leaf} == {k}) {{")
            self.indent += 1
            start = len(self.lines)
            self.stmt(f"for (; {var} <= {seg.end}; {var}++) {{")
            self.indent += 1
            self._open_header({seg.index})
            self.decided = decided
            for eq, counter in seg.equations:
                self._store(eq, counter)
            self.decided = {}
            self.headers.pop()
            self.indent -= 1
            self.stmt("}")
            self.indent -= 1
            bodies.append(self.lines[start:])
        self.stmt("}")
        return bodies

    def _open_header(self, indices: set[str]) -> None:
        header = _Header(self.indent)
        self.lines.append(header)
        self.headers.append((indices, header))

    def close_loop(self) -> None:
        if self._segment is not None:
            self._close_segments()
        else:
            self.headers.pop()
        self.proof.close_loop()
        self.indent -= 1
        self.stmt("}")

    # -- the team axis -------------------------------------------------------

    def open_region(self) -> None:
        """The root loop runs on every thread of a team
        (:meth:`assemble` prints the ``parallel`` construct before it)."""
        self.team = True

    def share(self) -> None:
        """Divide the loop that opens next among the team; its implicit
        barrier is the join."""
        self.stmt("#pragma omp for schedule(static)")
        self._shared = True

    def open_single(self) -> None:
        self.stmt("#pragma omp single")
        self.stmt("{")
        self.indent += 1

    def close_single(self) -> None:
        self.indent -= 1
        self.stmt("}")

    def store(self, eq: AnalyzedEquation) -> None:
        """RHS, range-checked flattened target subscript, element-kind
        cast, and the per-label evaluation counter — in a segmented loop,
        once per leaf when the loop closes."""
        if self._segment is not None:
            self._segment.equations.append((eq, len(self.counters)))
        else:
            self._store(eq, len(self.counters))
        self.counters.append(eq.label)

    def _store(self, eq: AnalyzedEquation, counter: int) -> None:
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
        self.stmt(f"_c{counter} += 1;")

    def array_windows(self):
        return ((name, entry[3]) for name, entry in self.arrays.items())

    def assemble(self) -> NativeKernelSpec:
        """The lowered body as a full translation unit with the shared
        parameter layout (array pointers, geometry, hoisted scalars, env
        names, then :attr:`tail`: subrange, counters, error channel)."""
        arrays = sorted(self.arrays.items(), key=lambda kv: kv[1][0])
        scalar_names = sorted(self.scalar_names - set(self.results))
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
        params.extend(self.tail)
        if self.team:
            # Nothing may leave a parallel region early: the entry proof,
            # which runs before it, must be the only return.
            if self.proven < self.checks:
                ref, why = self.inline[0]
                raise KernelError(
                    f"in-loop range checks: {self.proven} of {self.checks} "
                    f"proven at entry ({ref}: {why})"
                )
            if self.guards:
                raise KernelError("a div/mod guard may return inside the loop")
            params.append("i64 nthreads")

        body: list[str] = []
        pos = self._geom  # a module entry's own geometry follows its calls'
        for name, (_ordinal, rank, _kind, _wins) in arrays:
            an = c_name(name)
            for d in range(rank):
                body.append(f"    const i64 {an}_lo{d} = geom[{pos}];")
                body.append(f"    const i64 {an}_hi{d} = geom[{pos + 1}];")
                body.append(f"    const i64 {an}_n{d} = geom[{pos + 2}];")
                pos += 3
        body.extend("    " + line for line in self.proof.lines())
        body.extend(self.entry.lines())
        for i in range(len(counters)):
            body.append(f"    i64 _c{i} = 0;")
        if self._counts:  # a loop the entry does not call counts 0
            body.append(f"    for (i64 _i = 0; _i < {self._counts}; _i++) counts[_i] = 0;")
        if self.team:
            sums = ", ".join(f"_c{i}" for i in range(len(counters)))
            body.append(
                "    #pragma omp parallel num_threads(nthreads) "
                f"if(nthreads > 1) reduction(+: {sums})"
            )
        for line in self.lines:
            if isinstance(line, _Header):
                body.extend(line.lines())
            else:
                body.append(line)
        for i in range(len(counters)):
            body.append(f"    counts[{self._counts + i}] = _c{i};")
        for j, name in enumerate(self.results):
            body.append(f"    outs[{j}] = v_{c_name(name)};")
        body.append("    return 0;")

        digest_src = "\n".join(body) + "|" + ", ".join(params)
        fn_name = self.prefix + hashlib.sha256(digest_src.encode()).hexdigest()[:16]
        signature = f"int {fn_name}({', '.join(params)})"
        return NativeKernelSpec(
            function=signature + "\n{\n" + "\n".join(body) + "\n}\n",
            fn_name=fn_name,
            # no parameter names: fewer tokens for cffi's C parser
            decl=re.sub(r"\s*\b\w+(?=[,)])", "", signature) + ";",
            arrays=[(name, entry[2]) for name, entry in arrays],
            ranks=[entry[1] for _name, entry in arrays],
            scalars=scalar_kinds,
            env_names=env_names,
            counters=[*(label for c in self.calls for label in c.counters), *counters],
            checks=self.checks,
            proven=self.proven,
            inline=tuple(dict.fromkeys(self.inline)),
            team=self.team,
            calls=tuple(self.calls),
            results=tuple(self.results),
        )


class _ModuleEntry(_NativeKernel):
    """``run_<module>``: the flowchart's top level in order — each loop's
    bounds evaluated and, over a range that is not empty, its function
    called through its address in ``fns``, each equation stored inline —
    returning the first non-zero code a call or its own entry proof
    returns, ``err[3]`` naming the loop. ``geom`` and ``counts`` hold each
    call's segment in call order, then the entry's own. A real scalar an
    equation assigns is a local that later calls read and ``outs``
    returns; an integer or boolean one might be a later bound: refused."""

    tail = ("const i64 *fns", "i64 nthreads", "i64 *counts", "double *outs", "i64 *err")

    def __init__(self, analyzed, flowchart, use_windows):
        super().__init__(analyzed, flowchart, use_windows, set())
        self.prefix = f"run_{c_name(analyzed.name)}_"

    def lower_name(self, ident: str) -> str:
        if ident in self.results:
            return f"v_{c_name(ident)}"
        return super().lower_name(ident)

    def call(self, desc: LoopDescriptor, spec: NativeKernelSpec) -> None:
        lo, hi, rc = self.fresh("_lo"), self.fresh("_hi"), self.fresh("_rc")
        self.stmt(f"const i64 {lo} = {self.bound(desc.subrange.lo)};")
        self.stmt(f"const i64 {hi} = {self.bound(desc.subrange.hi)};")
        args = []
        for name, _kind in spec.arrays:
            self.register_array(name)
            args.append(f"s_{c_name(name)}")
        args.append(f"geom + {self._geom}")
        args += [self.lower_name(name) for name, _kind in spec.scalars]
        args += [lo, hi, f"counts + {self._counts}", "err"]
        if spec.team:
            args.append("nthreads")
        pointer = spec.function.split("\n", 1)[0].replace(
            f" {spec.fn_name}(", " (*)(", 1
        )
        k = len(self.calls)
        self.stmt(f"if ({lo} <= {hi}) {{  /* {desc.keyword} {desc.index}: {spec.fn_name} */")
        self.stmt(
            f"    const int {rc} = (({pointer})(intptr_t)fns[{k}])({', '.join(args)});"
        )
        self.stmt(f"    if ({rc}) {{ err[3] = {k}; return {rc}; }}")
        self.stmt("}")
        self.calls.append(spec)
        self._geom += 3 * sum(spec.ranks)
        self._counts += len(spec.counters)

    def store(self, eq: AnalyzedEquation) -> None:
        target = eq.targets[0]
        sym = self.analyzed.symbol(target.name)
        if isinstance(sym.type, ArrayType):
            super().store(eq)
            return
        self.current_dims, self.indices = set(), set()
        value = self.lower(eq.rhs)
        self.stmt(f"const double v_{c_name(target.name)} = (double)({value});")
        self.stmt(f"_c{len(self.counters)} += 1;")
        self.counters.append(eq.label)
        self.results.append(target.name)


def entry_spec(
    analyzed: AnalyzedModule,
    flowchart: Flowchart,
    use_windows: bool,
    loops: list[NativeKernelSpec],
) -> NativeKernelSpec:
    """``run_<module>`` (:class:`_ModuleEntry`) over ``loops``, the C
    functions of the flowchart's top-level loops in order. Raises
    :class:`KernelError` when an equation outside the loops does not
    lower to C."""
    out = _ModuleEntry(analyzed, flowchart, use_windows)
    functions = iter(loops)
    for d in flowchart.descriptors:
        if isinstance(d, LoopDescriptor):
            out.call(d, next(functions))
        elif d.node.is_equation:
            why = entry_refusal(d.node.equation, analyzed)
            if why is not None:
                raise KernelError(why)
            out.store(d.node.equation)
    return finish(out, analyzed)


def entry_refusal(eq: AnalyzedEquation, analyzed: AnalyzedModule) -> str | None:
    """Why ``run_<module>`` cannot store ``eq``, an equation outside the
    loops, inline — None when it can."""
    why = kernelizable_reason(eq, analyzed)
    if why is not None:
        return f"{eq.label}: {why}"
    target = eq.targets[0]
    t = analyzed.symbol(target.name).type
    if not isinstance(t, ArrayType) and kind_of_type(t) != "real":
        return (
            f"{eq.label} assigns the {kind_of_type(t)} scalar {target.name}, "
            f"which a later bound may read"
        )
    return None


def native_spec(
    desc: LoopDescriptor,
    analyzed: AnalyzedModule,
    flowchart: Flowchart,
    use_windows: bool,
    shape: str = "full",
) -> NativeKernelSpec:
    """Lower the nest rooted at ``desc`` to C in ``shape``: ``"full"`` (the
    root subrange ``[nlo, nhi]``, inner loops at their declared bounds;
    in-order blocks when the root is a ``DO``; a chunk of a ``DOALL`` is
    this function over a smaller range) or ``"team"`` (the same over a team
    of threads).

    Raises :class:`KernelError` when the nest is not natively emittable
    (module calls, transcendental builtins, scalar targets — anything whose
    C translation would not be bit-exact).
    Whether this machine can *compile* the result is
    :func:`native_supported`; this answer is machine-independent.

    Memoized on the flowchart by (path, window mode, shape), refusals
    included: the ``auto`` planner asks "does it lower?" once per
    candidate backend and the kernel cache then asks for the same spec to
    compile, so one emission serves them all."""
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
                desc, analyzed, shape,
            )
        except KernelError as exc:
            found = str(exc)
        if path is not None:
            memo[key] = found
    if isinstance(found, str):
        raise KernelError(found)
    return found


def native_refusal(
    desc: LoopDescriptor,
    analyzed: AnalyzedModule,
    flowchart: Flowchart,
    use_windows: bool,
    shape: str = "full",
) -> str | None:
    """Why :func:`native_spec` does not lower this nest in ``shape`` —
    None when it does. The planner's question."""
    try:
        native_spec(desc, analyzed, flowchart, use_windows, shape)
    except KernelError as exc:
        return str(exc)
    return None


# ---------------------------------------------------------------------------
# Compilation and the Python-callable wrapper
# ---------------------------------------------------------------------------

#: what this process has dlopened: translation-unit digest -> (lib, ffi),
#: and kernel function name -> the (lib, ffi) of the unit defining it
_loaded: dict[str, tuple] = {}

#: guards ``_loaded`` and ``_building`` only — never held across ``cc``, so
#: a foreground build never queues behind a background one
_load_lock = threading.Lock()

#: translation-unit digest -> the lock its one in-process compile holds:
#: request threads planning the same module race to build the same unit,
#: and without it they duplicated ``cc`` runs for one digest
_building: dict[str, threading.Lock] = {}


def _idle_priority() -> None:
    """Run in the forked compiler before ``exec``: lowest CPU priority, so
    a background build only takes cycles foreground work leaves over."""
    os.nice(19)


def _compile_so(
    source: str, digest: str, flags: tuple[str, ...] = C_FLAGS,
    idle: bool = False,
) -> tuple[Path, bool]:
    """Compile ``source`` with ``flags`` into the on-disk cache (or reuse
    the cached ``.so``); returns the shared-object path and whether ``cc``
    ran. ``idle`` runs the compiler at the lowest CPU priority.

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
        try:
            proc = subprocess.run(
                [cc, *flags, "-shared", "-o", str(tmp_path), tmp_c, "-lm"],
                capture_output=True,
                text=True,
                preexec_fn=_idle_priority if idle else None,
            )
        except OSError as exc:  # the compiler went away since the probe
            raise KernelError(f"C compiler {cc} did not start: {exc}") from exc
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


#: the one FFI every unit is opened through: a declaration or a type it
#: parsed once serves every later unit (a parse costs ~0.3 ms)
_ffi: list = []


def _dlopen(so_path: Path, cdef: str) -> tuple:
    cffi = _ffi_module()
    if cffi is None:
        raise KernelError("cffi is not available")
    with _load_lock:
        if not _ffi:
            _ffi.append(cffi.FFI())
            _ffi[0].cdef("typedef int64_t i64;")
    ffi = _ffi[0]
    # a function another unit holds too is declared again, identically
    ffi.cdef(cdef, override=True)
    # Never unloaded: libgomp's pool threads may still be spinning in a
    # team kernel when the interpreter tears the library object down at
    # exit.
    return ffi.dlopen(str(so_path), ffi.RTLD_NOW | ffi.RTLD_NODELETE), ffi


def _unit_digest(source: str, flags: tuple[str, ...]) -> str:
    # The flags are part of the artifact's semantics (-ffp-contract=off,
    # -fwrapv): a .so built under different flags must not be reused.
    return hashlib.sha256((source + "|" + " ".join(flags)).encode()).hexdigest()


def load_library(
    source: str, cdef: str, counters: dict[str, int] | None = None,
    flags: tuple[str, ...] = C_FLAGS, idle: bool = False,
) -> tuple:
    """Compile (or reuse from cache) one C translation unit and dlopen it,
    returning ``(lib, ffi)`` — the one place a compiler process starts.
    Raises :class:`KernelError` when no compiler or cffi is available.
    ``counters`` (a :class:`KernelCache`'s) books the unit under ``"tus"``
    and a real compile under ``"cc_calls"``; ``idle`` compiles at the
    lowest CPU priority."""
    digest = _unit_digest(source, flags)
    with _load_lock:
        entry = _loaded.get(digest)
        if entry is not None:
            return entry
        building = _building.setdefault(digest, threading.Lock())
    with building:  # one compile per digest; other units build meanwhile
        entry = _loaded.get(digest)
        if entry is None:
            if _ffi_module() is None:
                raise KernelError("cffi is not available")
            so_path, compiled = _compile_so(source, digest, flags, idle)
            entry = _dlopen(so_path, cdef)
            with _load_lock:
                _loaded[digest] = entry
            if counters is not None:
                counters["tus"] += 1
                counters["cc_calls"] += compiled
    return entry


def _index_path() -> Path:
    """Which cached unit holds each kernel function, for units built with
    this prelude and these flags (a function's name hashes its own text
    only, so a unit under another prelude must not be reused for it)."""
    tag = hashlib.sha256(
        (C_PRELUDE + "|" + " ".join(C_FLAGS)).encode()
    ).hexdigest()[:12]
    return cache_dir() / f"units-{tag}.json"


def _read_index() -> dict[str, str]:
    try:
        return json.loads(_index_path().read_text())
    except (OSError, ValueError):
        return {}


def _record_units(digest: str, names: list[str]) -> None:
    """Add ``names`` -> ``digest`` to the unit index, landed by atomic
    rename. Two processes updating it at once may each drop the other's
    new entries; that costs a later ``cc``, never a wrong kernel."""
    index = _read_index()
    index.update(dict.fromkeys(names, digest))
    path = _index_path()
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".json.tmp")
    with os.fdopen(fd, "w") as f:
        json.dump(index, f)
    os.replace(tmp, path)


def _load_cached_units(
    missing: dict[str, NativeKernelSpec], counters: dict[str, int] | None
) -> None:
    """dlopen the units on disk — any process's, any batch's — that
    already hold functions of ``missing``, and drop those from it."""
    held: dict[str, list[str]] = {}
    for name, digest in _read_index().items():
        if name in missing:
            held.setdefault(digest, []).append(name)
    for digest, names in held.items():
        so_path = cache_dir() / f"{digest}.so"
        if not so_path.exists():
            continue
        entry = _dlopen(
            so_path,
            " ".join(missing[n].decl for n in names),
        )
        with _load_lock:
            for name in names:
                _loaded[name] = entry
        for name in names:
            del missing[name]
        if counters is not None:
            counters["tus"] += 1


def unit_source(specs: list[NativeKernelSpec]) -> str:
    """The one translation unit holding ``specs``: the prelude once, each
    distinct function after it in name order."""
    functions = {s.fn_name: s.function for s in specs}
    return C_PRELUDE + "\n" + "\n".join(
        functions[name] for name in sorted(functions)
    )


def unit_flags(specs: list[NativeKernelSpec]) -> tuple[str, ...]:
    """The ``cc`` flags of the unit holding ``specs``: OpenMP only when it
    holds a team kernel, so every other unit builds exactly as before."""
    if any(s.team for s in specs):
        return (*C_FLAGS, *OPENMP_FLAGS)
    return C_FLAGS


def build_kernels(
    specs: list[NativeKernelSpec], counters: dict[str, int] | None = None,
    idle: bool = False,
) -> None:
    """THE native build path, for a batch of any size: every function of
    ``specs`` this process has not loaded yet goes into **one** translation
    unit — the prelude once, the functions after it in name order, one
    ``cc``, one ``dlopen``, the digest over the set. When no ``.so`` of
    that digest is on disk, the functions some cached unit already holds
    (the index beside the ``.so`` s says which) are dlopened from it first,
    and only the rest is compiled. A plan's kernels, the warm set, a lone
    lazily requested kernel and a session's batch of tier-ups (``idle``:
    ``cc`` at the lowest CPU priority) are the same call with different
    batches. A unit of one is byte-for-byte ``spec.source``."""
    with _load_lock:
        missing = {
            s.fn_name: s for s in specs if s.fn_name not in _loaded
        }
    if not missing:
        return
    unit = [missing[name] for name in sorted(missing)]
    source, flags = unit_source(unit), unit_flags(unit)
    digest = _unit_digest(source, flags)
    cached = (cache_dir() / f"{digest}.so").exists()
    if not cached:
        _load_cached_units(missing, counters)
        if not missing:
            return
        unit = [missing[name] for name in sorted(missing)]
        source, flags = unit_source(unit), unit_flags(unit)
        digest = _unit_digest(source, flags)
    entry = load_library(
        source,
        " ".join(s.decl for s in unit),
        counters,
        flags,
        idle,
    )
    if not cached:
        _record_units(digest, sorted(missing))
    with _load_lock:
        for name in missing:
            _loaded[name] = entry


def bind_kernel(
    spec: NativeKernelSpec, on_proof: Callable[[bool], None] | None = None
) -> Callable:
    """The Python callable over one *built* spec (see
    :func:`build_kernels`), with the exact signature of the Python nest
    kernels — ``kernel(data, env, nlo, nhi) -> dict[label, count]`` (a team
    kernel takes its width as a fifth argument). The wrapper pins every
    storage buffer for the duration of the call (cffi's ABI mode releases
    the GIL around the C invocation, so a free-running thread must not let
    the arrays be collected mid-kernel), checks the error channel after,
    and re-raises the evaluator's exact exceptions — or
    :class:`RangeUnproven` when the entry proof failed. ``on_proof(held)``
    hears the verdict of every call that had one."""
    lib, ffi = _loaded[spec.fn_name]
    fn = getattr(lib, spec.fn_name)
    array_names = [name for name, _kind in spec.arrays]
    # parsed once: ffi.new / from_buffer on a C type string reparse it
    buffer_types = [
        ffi.typeof(C_STORAGE_TYPES[kind] + "[]") for _name, kind in spec.arrays
    ]
    i64s = ffi.typeof("int64_t[]")
    geom_size = 3 * sum(spec.ranks)
    scalars = spec.scalars
    env_names = spec.env_names
    counters = spec.counters
    team = spec.team
    if not spec.proven:
        on_proof = None

    def _kernel(data, env, nlo, nhi, width=1):
        cargs = []
        geom = ffi.new(i64s, geom_size)
        pos = 0
        for name, buffer_t in zip(array_names, buffer_types):
            arr = data[name]
            sto = arr.storage
            # the cdata holds the buffer alive across the call, and refuses
            # one that is not C-contiguous, which the geometry assumes
            cargs.append(ffi.from_buffer(buffer_t, sto))
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
        counts = ffi.new(i64s, max(1, len(counters)))
        err = ffi.new(i64s, 4)
        cargs += [int(nlo), int(nhi), counts, err]
        if team:
            cargs.append(int(width))
        rc = fn(*cargs)
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
        # an equation whose loop ran no iteration was not evaluated: the
        # walk books nothing for it either
        return {label: counts[i] for i, label in enumerate(counters) if counts[i]}

    _kernel.__kernel_source__ = spec.source
    _kernel.__native__ = True
    _kernel.__team__ = team
    return _kernel


class ModuleEntry:
    """A built ``run_<module>`` (:class:`_ModuleEntry`) as Python calls it:
    ``fn``, the cffi function, once per run over every array's storage,
    the scalars, the loop functions' addresses and the team width."""

    def __init__(self, spec: NativeKernelSpec, on_proof=None):
        if any(c.fn_name not in _loaded for c in spec.calls):
            raise KernelError("a loop function of the module entry did not load")
        lib, ffi = _loaded[spec.fn_name]
        self.spec, self.fn, self._ffi = spec, getattr(lib, spec.fn_name), ffi
        # the types the unit's loop functions parsed: a new one costs a parse
        self._i64s = ffi.typeof("int64_t[]")
        self._fns = ffi.new(self._i64s, [
            int(ffi.cast(self._i64s.item, getattr(_loaded[c.fn_name][0], c.fn_name)))
            for c in spec.calls
        ] or [0])
        self._buffers = [
            (name, ffi.typeof(C_STORAGE_TYPES[kind] + "[]"))
            for name, kind in spec.arrays
        ]
        self._scalars = [
            (name, float if kind == "real" else int) for name, kind in spec.scalars
        ]
        self._outs = ffi.typeof("double[]") if spec.results else None
        self._local = threading.local()
        self._geometry = [  # each segment's arrays, in vector order
            name for c in (*spec.calls, spec) for name, _kind in c.arrays
        ]
        self._on_proof = on_proof

    def geometry(self, layouts: dict):
        """``(lo, hi, extent)`` per dimension of each segment's arrays as
        ``layouts`` (name -> :class:`~repro.runtime.values.Layout`) store
        them; None when one is missing."""
        values: list[int] = []
        for name in self._geometry:
            layout = layouts.get(name)
            if layout is None:
                return None
            for dim in zip(layout.los, layout.his, layout.shape):
                values += dim
        return self._ffi.new(self._i64s, values or [0])

    def __call__(self, data, geom, width: int, proofs: int, counts: dict) -> bool:
        """Run the module over ``data``: book its evaluation counts into
        ``counts`` (zero ones dropped, as the walk books none) and store the
        scalars the equations assign into ``data``. False for a non-zero
        return: the C stopped at the first failure. ``proofs`` of its calls
        prove their ranges at entry, booked when it succeeds."""
        ffi, spec = self._ffi, self.spec
        try:
            booked, outs, err = self._local.buffers
        except AttributeError:  # one set per thread: the C zeroes the counts
            booked, outs, err = self._local.buffers = (
                ffi.new(self._i64s, len(spec.counters) or 1),
                ffi.new(self._outs, len(spec.results)) if spec.results else ffi.NULL,
                ffi.new(self._i64s, 4),
            )
        from_buffer = ffi.from_buffer
        cargs = [from_buffer(t, data[name].storage) for name, t in self._buffers]
        cargs.append(geom)
        cargs += [convert(data[name]) for name, convert in self._scalars]
        if self.fn(*cargs, self._fns, width, booked, outs, err):
            return False
        if proofs and self._on_proof is not None:
            self._on_proof(True, proofs)
        for label, n in zip(spec.counters, ffi.unpack(booked, len(spec.counters))):
            if n:
                counts[label] = counts.get(label, 0) + n
        for j, name in enumerate(spec.results):
            data[name] = np.float64(outs[j])
        return True


def compile_native_nest(
    desc: LoopDescriptor,
    analyzed: AnalyzedModule,
    flowchart: Flowchart,
    use_windows: bool,
    variant: str = "full",
) -> Callable:
    """Lower, build (a batch of one nest) and bind the native kernel of
    ``desc`` in shape ``variant``."""
    spec = native_spec(desc, analyzed, flowchart, use_windows, variant)
    build_kernels([spec])
    return bind_kernel(spec)
