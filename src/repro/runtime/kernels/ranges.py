"""Range proofs: what a C kernel checked once per element, decided once per
call.

The paper's Figure 2 sorts every subscript into ``I``, ``I - constant`` or
"other" (:mod:`repro.graph.labels`), and the scheduler only accepts the
first two in a scheduled dimension. Those are exactly the subscripts whose
range over a *box* of index values is decided by the box's two endpoints:
``I + c`` stays inside ``[A_lo, A_hi]`` for every ``I`` in ``[lo, hi]``
iff ``lo + c >= A_lo`` and ``hi + c <= A_hi``. So while the nest walk
prints a kernel, a :class:`RangeProof` follows it and keeps the box every
array reference is evaluated over:

* the **loop box** — one interval per open loop (``nlo..nhi`` at the root,
  the declared bounds inside, the chain bounds of a ``"flat"`` kernel) and
  a point for every enclosing index that arrives through ``env``;
* **refined by the guards the reference sits under** — the facts stack of
  :class:`repro.codegen.clower.CExprLowerer` reports each ``if`` / ``and``
  / ``or`` operand it lowers under a condition, and a comparison of an
  index against an index-free integer expression becomes endpoint
  arithmetic (``I <> e``: ``lo' = lo + (lo == e)``, ``hi' = hi - (hi ==
  e)``). A disjunction is a *list* of boxes; a reference under it owes one
  obligation per box. A guard that is not such a comparison (``I mod 2 =
  0``, ``A[I] > 0``, ``I = J``) is *not understood*: everything below it
  keeps its per-element check.

Everything is C text evaluated at run time at function entry: straight-line
integer code over the kernel's scalar parameters, no loads, nothing that
traps. A failed obligation returns :data:`UNPROVEN` before the kernel's
first store and the call runs one tier down.

Soundness rules, each with a test in ``tests/runtime/test_native_kernels``:

* every box carries an *empty* flag, and a non-empty box has ``lo <= hi``
  on every index (each refinement below sets the flag exactly when it would
  break that, which is also what keeps its ``± 1`` from wrapping). An empty
  box owes nothing: the reference is never evaluated;
* an offset is added with wraparound (``-fwrapv``), so an obligation also
  requires ``lo + c <= hi + c``: if exactly one end wrapped the call is
  unproven, and if both did the in-loop subscripts wrapped the same way and
  lie between them;
* offsets and guard constants come from the ``bound()`` language (integer
  literals and scalars under ``+ - *``) — no ``div`` / ``mod``.

Obligations are exact wherever the guards describe a box: the endpoints of
a non-empty box are values the loops really reach, so a failed obligation
is a subscript the evaluator would have rejected. (The one inexact corner
is a chain like ``I <> 1 and I <> 0`` met in that order, where the second
refinement exposes an endpoint the first already excluded; such a call is
unproven without being wrong and merely runs a tier down.)
"""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass

from repro.ps.ast import BinOp, BoolLit, Expr, Index, Name, UnOp, walk_expr
from repro.runtime.kernels.emit import classify_affine_subscript

#: the return code of a kernel whose entry proof failed (0 = ran, 1 = an
#: inline range check fired, 2 / 3 = the integer div/mod guards)
UNPROVEN = 4

#: a disjunction of guards multiplies boxes; past this many the guard
#: counts as not understood
MAX_BOXES = 8

_NEGATED = {"=": "<>", "<>": "=", "<": ">=", ">=": "<", ">": "<=", "<=": ">"}
_MIRRORED = {"=": "=", "<>": "<>", "<": ">", ">": "<", "<=": ">=", ">=": "<="}
_C_OPS = {"=": "==", "<>": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}


#: C text that needs no variable of its own: a name or an integer literal
_SIMPLE = re.compile(r"-?\w+\Z")
_INT = re.compile(r"-?\d+\Z")


def _compare(a: str, op: str, b: str) -> str:
    """``(a op b)`` in C — or ``"0"`` / ``"1"`` where the text decides it."""
    if _INT.match(a) and _INT.match(b):
        x, y = int(a), int(b)
        return str(int({
            "==": x == y, "!=": x != y, "<": x < y, "<=": x <= y,
            ">": x > y, ">=": x >= y,
        }[op]))
    if a == b:
        return "1" if op in ("==", "<=", ">=") else "0"
    return f"({a} {op} {b})"


def _either(a: str, b: str) -> str:
    if "1" in (a, b):
        return "1"
    return " | ".join(t for t in (a, b) if t != "0") or "0"


def _both(a: str, b: str) -> str:
    if "0" in (a, b):
        return "0"
    terms = [t for t in (a, b) if t != "1"]
    return f"({a} & {b})" if len(terms) == 2 else terms[0] if terms else "1"


def _shift(x: str, sign: str, by: str) -> str:
    """``x ± by`` for a 0/1 ``by``."""
    if by == "0":
        return x
    if by == "1" and _INT.match(x):
        return str(int(x) + (1 if sign == "+" else -1))
    return f"{x} {sign} {by}"


@dataclass(eq=False)
class _Box:
    """A product of integer intervals, as C text. ``lines`` declare the
    variables this box introduced; they reach the kernel only when an
    obligation needs them (:meth:`RangeProof.lines`)."""

    parent: _Box | None
    lines: list[str]
    #: C expression, true when the box holds no point
    empty: str
    #: index name -> (lo, hi) C expressions
    intervals: dict[str, tuple[str, str]]


class RangeProof:
    """The entry proof of one kernel under construction.

    ``offset(expr)`` lowers an index-free integer expression of the
    ``bound()`` language to C, or returns None; ``index_var(name)`` is the
    C variable of an index (and books an ``env`` index as a parameter);
    ``fresh(prefix)`` names a temporary. Which subscripts are affine in one
    index is :func:`repro.runtime.kernels.emit.classify_affine_subscript`,
    the one affine rule of the kernel package.
    """

    def __init__(
        self,
        offset: Callable[[Expr], str | None],
        index_var: Callable[[str], str],
        fresh: Callable[[str], str],
    ):
        self._offset = offset
        self._index_var = index_var
        self._fresh = fresh
        #: what is owed -> (box owing it, its failure condition in C)
        self._owed: dict[tuple, list[tuple[_Box | None, str]]] = {}
        #: what is known where the walk stands: a list of boxes (their
        #: union), or None below a guard that was not understood
        self._known: list[list[_Box] | None] = [[_Box(None, [], "0", {})]]

    # -- the loop box --------------------------------------------------------

    def open_loops(self, loops: list[tuple[str, str, str]], empty: str = "0") -> None:
        """Enter loops binding ``(index, lo, hi)`` each; ``empty`` is a
        further C condition under which none of their bodies runs."""
        known = self._known[-1]
        # Loops are statements: never below an expression guard.
        assert known is not None and len(known) == 1
        box = known[0]
        intervals = dict(box.intervals)
        gone = _either(box.empty, empty)
        for index, lo, hi in loops:
            intervals[index] = (lo, hi)
            gone = _either(gone, _compare(lo, ">", hi))
        flag = self._fresh("_e")
        line = f"const i64 {flag} = {gone};"
        self._known.append([_Box(box, [line], flag, intervals)])

    def close_loops(self) -> None:
        self._known.pop()

    def _interval(self, box: _Box, index: str) -> tuple[str, str]:
        found = box.intervals.get(index)
        if found is None:
            # an enclosing index outside the nest: one value per call
            v = self._index_var(index)
            found = (v, v)
        return found

    # -- guards --------------------------------------------------------------

    def push_fact(self, cond: Expr, truth: bool, indices: set[str]) -> None:
        self._known.append(self._assume(self._known[-1], cond, truth, indices))

    def pop_fact(self) -> None:
        self._known.pop()

    def _assume(self, known, cond: Expr, truth: bool, indices: set[str]):
        if known is None:
            return None
        if isinstance(cond, BoolLit):
            return known if cond.value == truth else []
        if isinstance(cond, UnOp) and cond.op == "not":
            return self._assume(known, cond.operand, not truth, indices)
        if isinstance(cond, BinOp) and cond.op in ("and", "or"):
            if (cond.op == "and") == truth:
                left = self._assume(known, cond.left, truth, indices)
                return self._assume(left, cond.right, truth, indices)
            left = self._assume(known, cond.left, truth, indices)
            right = self._assume(known, cond.right, truth, indices)
            if left is None or right is None or len(left) + len(right) > MAX_BOXES:
                return None
            return left + right
        if isinstance(cond, BinOp) and cond.op in _NEGATED:
            atom = self._atom(cond, indices)
            if atom is not None:
                index, op, e = atom
                if not truth:
                    op = _NEGATED[op]
                return [self._refine(box, index, op, e) for box in known]
        return None

    def _atom(self, cond: BinOp, indices: set[str]):
        """``(index | C text, op, C text)`` for ``index op e`` / ``e op
        index`` / ``e1 op e2`` with every ``e`` index-free; else None."""

        def side(expr: Expr):
            if isinstance(expr, Name) and expr.ident in indices:
                return ("index", expr.ident)
            if any(
                isinstance(n, Name) and n.ident in indices
                for n in walk_expr(expr)
            ):
                return None
            text = self._offset(expr)
            return None if text is None else ("free", text)

        left, right = side(cond.left), side(cond.right)
        if left is None or right is None:
            return None
        if left[0] == "index" and right[0] == "free":
            return (left[1], cond.op, right[1])
        if left[0] == "free" and right[0] == "index":
            return (right[1], _MIRRORED[cond.op], left[1])
        if left[0] == "free" and right[0] == "free":
            return (None, cond.op, (left[1], right[1]))
        return None  # index against index

    def _refine(self, box: _Box, index: str | None, op: str, e) -> _Box:
        """``box`` where ``index op e`` holds. Relies on, and keeps, the
        invariant that a non-empty box has ``lo <= hi`` everywhere.
        Comparisons the text already decides (``0 == 0``) are folded here:
        the C compiler would fold them too, but every line it has to read
        is cold-start time."""
        n = self._fresh("_e")
        if index is None:
            a, b = e
            gone, new = _compare(a, _C_OPS[_NEGATED[op]], b), None
        else:
            lo, hi = self._interval(box, index)
            if op == "=":
                gone = _either(_compare(e, "<", lo), _compare(e, ">", hi))
                new = (e, e)
            elif op == "<>":
                at_lo, at_hi = _compare(lo, "==", e), _compare(hi, "==", e)
                gone = _both(at_lo, at_hi)
                new = (_shift(lo, "+", at_lo), _shift(hi, "-", at_hi))
            elif op == "<":
                gone = _compare(e, "<=", lo)
                new = (lo, f"({hi} < {e} ? {hi} : {e} - 1)")
            elif op == "<=":
                gone = _compare(e, "<", lo)
                new = (lo, f"({hi} < {e} ? {hi} : {e})")
            elif op == ">":
                gone = _compare(e, ">=", hi)
                new = (f"({lo} > {e} ? {lo} : {e} + 1)", hi)
            else:  # ">="
                gone = _compare(e, ">", hi)
                new = (f"({lo} > {e} ? {lo} : {e})", hi)
        lines = [f"const i64 {n} = {_either(box.empty, gone)};"]
        intervals = box.intervals
        if new is not None:
            named: dict[str, str] = {}
            for end, text in zip("lh", new):
                if text not in named and not _SIMPLE.match(text):
                    named[text] = f"_{end}{n[2:]}"
                    lines.append(f"const i64 {named[text]} = {text};")
            intervals = {
                **intervals, index: tuple(named.get(t, t) for t in new)
            }
        return _Box(box, lines, n, intervals)

    # -- obligations ---------------------------------------------------------

    def _owe(self, box: _Box | None, what: tuple, bad: str) -> None:
        """The call is unproven when ``bad`` holds and ``box`` is not empty
        (``None``: whatever the boxes). ``what`` names the obligation apart
        from the box — the same subscript form against the same bounds."""
        self._owed.setdefault(what, []).append((box, bad))

    def require(self, condition: str) -> None:
        """An obligation that holds or fails for the whole call."""
        self._owe(None, (condition,), f"!({condition})")

    def lines(self) -> list[str]:
        """The proof as C statements: the variables of the boxes that owe
        something, then **one** test. An obligation a box owes is dropped
        when an enclosing box owes the same one (a refinement only
        shrinks intervals, so the outer proof covers it); the rest are
        grouped by failure condition and by the boxes owing it —
        ``!(every such box is empty) & (condition | condition ...)`` — and
        joined with ``|``. Non-short-circuit on purpose: the proof is one
        basic block to the C compiler, and compile time is what a cold
        start pays for it."""
        owing: dict[str, list[_Box | None]] = {}
        for owers in self._owed.values():
            boxes = [box for box, _bad in owers]
            for box, bad in owers:
                outer = box.parent if box is not None else None
                while outer is not None and outer not in boxes:
                    outer = outer.parent
                if outer is None and box not in owing.setdefault(bad, []):
                    owing[bad].append(box)
        if not owing:
            return []
        out: list[str] = []
        declared: set[int] = set()

        def declare(box: _Box | None) -> None:
            if box is not None and id(box) not in declared:
                declare(box.parent)
                out.extend(box.lines)
                declared.add(id(box))

        groups: dict[str, list[str]] = {}
        for bad, boxes in owing.items():
            flags = []
            for box in boxes:
                declare(box)
                flags.append("0" if box is None else box.empty)
            live = "1" if "0" in flags else f"!({' & '.join(flags)})"
            groups.setdefault(live, []).append(bad)
        terms = [
            " | ".join(bads) if live == "1"
            else f"({live} & ({' | '.join(bads)}))"
            for live, bads in groups.items()
        ]
        out.append(
            "if (" + "\n        | ".join(terms) + f") return {UNPROVEN};"
        )
        return out

    def prove(
        self, sub: Expr, indices: set[str], lo_name: str, hi_name: str
    ) -> tuple[str | None, str | None]:
        """Discharge the range check of subscript ``sub`` against
        ``[lo_name, hi_name]`` at function entry. Returns ``(why_not,
        index)``: ``why_not`` is None when the obligations were emitted —
        the per-element check may then be dropped — else the reason the
        subscript keeps it; ``index`` is the one index the subscript
        mentions (None: it is constant over the call)."""
        known = self._known[-1]
        if known is None:
            return "under a guard the proof does not read", None
        shape = classify_affine_subscript(sub, indices)
        if shape is None:
            return _why_not_affine(sub, indices), None
        _kind, index, delta = shape
        if index is None:
            text = self._offset(sub)
            if text is None:
                return _why_not_affine(sub, indices), None
            ends = [(text, text)] * len(known)
        else:
            shift = ""
            if delta is not None:
                off = self._offset(delta[1])
                if off is None:
                    return "offset is not an integer + - * expression", None
                shift = f" {delta[0]} {off}"
            ends = [
                tuple(end + shift for end in self._interval(box, index))
                for box in known
            ]
        what = (index, shift if index is not None else text, lo_name, hi_name)
        for box, (mn, mx) in zip(known, ends):
            if mn == mx:
                bad = f"({mn} < {lo_name}) | ({mn} > {hi_name})"
            else:
                bad = f"({mn} < {lo_name}) | ({mx} > {hi_name})"
                if delta is not None:
                    bad = f"({mn} > {mx}) | {bad}"
            self._owe(box, what, bad)
        return None, index


def _why_not_affine(sub: Expr, indices: set[str]) -> str:
    mentioned = {
        n.ident for n in walk_expr(sub)
        if isinstance(n, Name) and n.ident in indices
    }
    if any(isinstance(n, Index) for n in walk_expr(sub)):
        return "indirect subscript"
    if len(mentioned) > 1:
        return "two-index subscript"
    return "not index ± integer expression"
