"""Range proofs: what a C kernel checked once per element, decided once per
call.

The paper's Figure 2 sorts every subscript into ``I``, ``I - constant`` or
"other" (:mod:`repro.graph.labels`), and the scheduler only accepts the
first two in a scheduled dimension. Those are exactly the subscripts whose
range over a *box* of index values is decided by the box's two endpoints:
``I + c`` stays inside ``[A_lo, A_hi]`` for every ``I`` in ``[lo, hi]``
iff ``lo + c >= A_lo`` and ``hi + c <= A_hi``. The §4 hyperplane rewrite
adds subscripts and guards that are *linear* in several indices (``Kp - 2
* Ip - Jp``, ``Ip - Jp``); their range over a box is decided the same way,
by interval arithmetic on the coefficients' signs. So while the nest walk
prints a kernel, a :class:`RangeProof` follows it and keeps the box every
array reference is evaluated over:

* the **loop box** — one interval per open loop (``nlo..nhi`` at the root,
  the declared bounds inside) and a point for every enclosing index that
  arrives through ``env``;
* **refined by the guards the reference sits under** — the facts stack of
  :class:`repro.codegen.clower.CExprLowerer` reports each ``if`` / ``and``
  / ``or`` operand it lowers under a condition. A comparison of an index
  against an index-free integer expression becomes endpoint arithmetic
  (``I <> e``: ``lo' = lo + (lo == e)``, ``hi' = hi - (hi == e)``). A
  disjunction is a *list* of boxes; a reference under it owes one
  obligation per box;
* **and by linear facts** — a comparison ``L op R`` whose difference is a
  linear form ``P + c`` in the indices (integer literal coefficients, an
  index-free offset ``c``; ``I = J``, ``Kp - 2 * Ip - Jp > M + 1``) records
  an interval for ``P`` — the same endpoint arithmetic, on ``P``'s
  interval over the box. Every index with coefficient ±1 in a recorded
  form is tightened from it by one round of interval propagation (``P =
  Kp + R`` with ``P`` in ``[p, q]`` puts ``Kp`` in ``[p - max R, q - min
  R]``, ``R`` over the box as it stands), computed where a subscript of
  that index is proven, so later index facts narrow ``R`` too. A
  subscript that is a linear form is proven from the box by the same
  interval arithmetic, intersected with the recorded interval of its form.

A guard that is none of these (``I mod 2 = 0``, ``A[I] > 0``, ``I * J >
3``) is *not understood*: everything below it keeps its per-element check.

Everything is C text evaluated at run time at function entry: straight-line
integer code over the kernel's scalar parameters, no loads, nothing that
traps. A failed obligation returns :data:`UNPROVEN` before the kernel's
first store and the call runs one tier down.

Soundness rules, each with a test in ``tests/runtime/test_native_kernels``:

* **over-approximation** — a box holds every index value the loops can
  reach under its guards, and possibly more. Propagation may only widen
  what the proof assumes is reached: a fact the proof cannot use leaves the
  enclosing box in place, or (as for an unread guard) stops the proof. A
  false alarm costs a call one tier down, never a wrong answer;
* every box carries an *empty* flag, and a non-empty box has ``lo <= hi``
  on every index (each refinement below sets the flag exactly when it would
  break that, which is also what keeps its ``± 1`` from wrapping). An empty
  box owes nothing: the reference is never evaluated;
* an offset is added with wraparound (``-fwrapv``), so an obligation on
  ``index ± c`` also requires ``lo + c <= hi + c``: if exactly one end
  wrapped the call is unproven, and if both did the in-loop subscripts
  wrapped the same way and lie between them;
* linear forms are summed in ``__int128`` — coefficients are at most
  2**31, so coefficient × endpoint sums cannot wrap — and their obligations
  compare exact values, so a subscript that wraps in the loop is unproven.
  A linear fact holds only where each side of its comparison evaluates in
  ``int64`` without wrapping; the call owes that too, over the box the
  guard is evaluated in, as soon as anything below the fact is owed;
* offsets and guard constants come from the ``bound()`` language (integer
  literals and scalars under ``+ - *``) — no ``div`` / ``mod``.

Obligations are exact wherever the guards describe a box: the endpoints of
a non-empty box are values the loops really reach, so a failed obligation
is a subscript the evaluator would have rejected. They are
over-approximations where linear facts cut a box that is not a product of
intervals — the corner of ``Ip - Jp >= 0`` that no loop reaches — and
where a chain of refinements exposes an endpoint an earlier one already
excluded (``I <> 1 and I <> 0`` met in that order); such a call is
unproven without being wrong and merely runs a tier down.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.ps.ast import BinOp, BoolLit, Expr, Index, Name, UnOp, walk_expr
from repro.runtime.kernels.emit import classify_affine_subscript

#: the return code of a kernel whose entry proof failed (0 = ran, 1 = an
#: inline range check fired, 2 / 3 = the integer div/mod guards)
UNPROVEN = 4

#: a disjunction of guards multiplies boxes; past this many the guard
#: counts as not understood
MAX_BOXES = 8

#: the largest coefficient magnitude a linear form may have: sums of
#: coefficient x int64 endpoint then stay far inside ``__int128``
MAX_COEFFICIENT = 2**31

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


def _wide(x: str) -> str:
    """``x`` as an ``__int128`` C operand."""
    return x if _INT.match(x) else f"(__int128){x}"


def _times(c: int, x: str) -> str:
    """``c * x`` in ``__int128``."""
    if _INT.match(x):
        return str(c * int(x))
    if c == 1:
        return f"(__int128){x}"
    return f"-(__int128){x}" if c == -1 else f"{c} * (__int128){x}"


def _sum(terms: list[str]) -> str:
    """The C sum of ``terms`` (``__int128`` operands), constants folded."""
    const = sum(int(t) for t in terms if _INT.match(t))
    rest = [t for t in terms if not _INT.match(t)]
    if const or not rest:
        rest.append(str(const))
    text = rest[0]
    for t in rest[1:]:
        text += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return text if len(rest) == 1 else f"({text})"


def _minus(a: str, b: str) -> str:
    """``a - b`` over ``__int128`` operands."""
    if _INT.match(b):
        return _sum([a, str(-int(b))])
    return _sum([a, b[1:] if b.startswith("-") else f"-{b}"])


#: a linear form: ((index, coefficient), ...) sorted by index, the first
#: coefficient positive
Form = tuple[tuple[str, int], ...]


def _normalized(coeffs: dict[str, int]) -> tuple[Form, int]:
    """The form of ``sum(c * index)`` and the sign it was multiplied by."""
    key = tuple(sorted(coeffs.items()))
    sign = -1 if key[0][1] < 0 else 1
    return tuple((i, sign * c) for i, c in key), sign


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
    #: linear form -> its recorded (lo, hi), ``__int128`` C expressions
    forms: dict[Form, tuple[str, str]] = field(default_factory=dict)
    #: the sides ``(coefficients, offset)`` of the linear fact that made
    #: this box: it holds only where they evaluate without wrapping, which
    #: the *parent* box owes once anything in this one is owed
    needs: list[tuple[dict[str, int], str]] = field(default_factory=list)
    needs_owed: bool = False
    #: linear form -> its (lo, hi) over this box's intervals, as variables
    spans: dict[Form, tuple[str, str]] = field(default_factory=dict)
    #: (form, index) -> the interval that form's record implies for index
    derived: dict[tuple[Form, str], tuple[str, str]] = field(
        default_factory=dict
    )


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
        #: id(expression) -> (expression, its linear form or None)
        self._linear_memo: dict[int, tuple] = {}

    # -- the loop box --------------------------------------------------------

    def open_loop(self, index: str, lo: str, hi: str) -> None:
        """Enter a loop binding ``index`` over ``lo .. hi``."""
        known = self._known[-1]
        # Loops are statements: never below an expression guard.
        assert known is not None and len(known) == 1
        box = known[0]
        intervals = {**box.intervals, index: (lo, hi)}
        gone = _either(box.empty, _compare(lo, ">", hi))
        flag = self._fresh("_e")
        line = f"const i64 {flag} = {gone};"
        self._known.append([_Box(box, [line], flag, intervals)])

    def close_loop(self) -> None:
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
            fact = self._linear_fact(cond, indices)
            if fact is not None:
                form, sign, e, sides = fact
                op = cond.op if truth else _NEGATED[cond.op]
                if sign < 0:
                    op = _MIRRORED[op]
                return [
                    self._refine_form(box, form, op, e, sides) for box in known
                ]
        return None

    def _atom(self, cond: BinOp, indices: set[str]):
        """``(index | C text, op, C text)`` for ``index op e`` / ``e op
        index`` / ``e1 op e2`` with every ``e`` index-free; else None."""

        def side(expr: Expr):
            if isinstance(expr, Name) and expr.ident in indices:
                return ("index", expr.ident)
            if _mentions(expr, indices):
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
        return None  # a linear fact, if anything

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
            gone, new = _cut(*self._interval(box, index), op, e)
        lines = [f"const i64 {n} = {_either(box.empty, gone)};"]
        intervals = box.intervals
        if new is not None:
            new = _named(lines, "i64", n, new)
            intervals = {**intervals, index: new}
        return _Box(box, lines, n, intervals, box.forms)

    # -- linear facts --------------------------------------------------------

    def _linear(self, expr: Expr, indices: set[str]):
        """``(coefficients, offset)`` of ``expr`` as ``sum(c * index) +
        offset``: integer literal coefficients (at most
        :data:`MAX_COEFFICIENT`), the offset C text in the ``bound()``
        language (``"0"`` for none); None when it is not such a form.
        Memoized per expression: the facts stack reports one guard once
        per operand it brackets."""
        key = id(expr)
        if key not in self._linear_memo:
            self._linear_memo[key] = (expr, self._linear_of(expr, indices))
        return self._linear_memo[key][1]

    def _linear_of(self, expr: Expr, indices: set[str]):
        if isinstance(expr, Name) and expr.ident in indices:
            return {expr.ident: 1}, "0"
        if isinstance(expr, UnOp) and expr.op in ("+", "-"):
            inner = self._linear(expr.operand, indices)
            if inner is None or expr.op == "+":
                return inner
            return _scaled(inner, -1)
        if isinstance(expr, BinOp) and expr.op in ("+", "-"):
            left = self._linear(expr.left, indices)
            right = self._linear(expr.right, indices)
            if left is None or right is None:
                return None
            if expr.op == "-":
                right = _scaled(right, -1)
            coeffs = dict(left[0])
            for index, c in right[0].items():
                coeffs[index] = coeffs.get(index, 0) + c
            return (
                {i: c for i, c in coeffs.items() if c},
                _plus(left[1], right[1]),
            )
        if isinstance(expr, BinOp) and expr.op == "*":
            left = self._linear(expr.left, indices)
            right = self._linear(expr.right, indices)
            if left is None or right is None:
                return None
            if not left[0] and not right[0]:
                return {}, f"({left[1]} * {right[1]})"
            for k, inner in ((left, right), (right, left)):
                if not k[0] and _INT.match(k[1]):
                    scaled = _scaled(inner, int(k[1]))
                    if any(abs(v) > MAX_COEFFICIENT for v in scaled[0].values()):
                        return None
                    return scaled
            return None
        text = self._offset(expr)
        return None if text is None else ({}, text)

    def _linear_fact(self, cond: BinOp, indices: set[str]):
        """``(form, sign, e, sides)`` for a comparison ``L op R`` whose
        difference is ``sign * form + offset``: the fact is ``form op' e``
        (``op`` mirrored when ``sign`` is negative), ``e`` an ``__int128``
        C expression; ``sides`` are the sides' linear forms that mention an
        index (what must not wrap). None when not linear."""
        left = self._linear(cond.left, indices)
        right = self._linear(cond.right, indices)
        if left is None or right is None:
            return None
        coeffs = dict(left[0])
        for index, c in right[0].items():
            coeffs[index] = coeffs.get(index, 0) - c
        coeffs = {i: c for i, c in coeffs.items() if c}
        if not coeffs:
            return None
        form, sign = _normalized(coeffs)
        e = _minus(_wide(right[1]), _wide(left[1]))
        if sign < 0:
            e = _minus("0", e)
        return form, sign, e, [side for side in (left, right) if side[0]]

    def _extent(self, box: _Box, coeffs) -> tuple[str, str]:
        """``sum(c * index)``'s (lo, hi) over ``box``'s index intervals —
        interval arithmetic by coefficient sign, in ``__int128``."""
        los, his = [], []
        for index, c in coeffs:
            lo, hi = self._interval(box, index)
            if c < 0:
                lo, hi = hi, lo
            los.append(_times(c, lo))
            his.append(_times(c, hi))
        return _sum(los), _sum(his)

    def _bounds(self, box: _Box, form: Form) -> list[tuple[str, str]]:
        """Intervals ``form`` lies in over ``box``: its span over the
        box's index intervals, and the interval a fact recorded for it."""
        home = _home(box, [i for i, _c in form], [])
        span = home.spans.get(form)
        if span is None:
            span = home.spans[form] = _named(
                home.lines, "__int128", self._fresh("_f"),
                self._extent(home, form),
            )
        recorded = box.forms.get(form)
        return [span] if recorded is None else [span, recorded]

    def _derived(self, box: _Box, index: str) -> list[tuple[str, str]]:
        """Intervals for ``index`` that the forms recorded in ``box``
        imply — one round of interval propagation: ``form = c * index +
        rest`` with ``c = ±1`` and ``form`` in ``[lo, hi]`` puts ``index``
        in ``[lo - max rest, hi - min rest]`` (mirrored for ``c = -1``).
        ``__int128`` C expressions, declared once, in the outermost box
        that knows the same record and the same intervals for ``rest``."""
        found = []
        for form, (lo, hi) in box.forms.items():
            c = dict(form).get(index)
            if c not in (1, -1):
                continue
            rest = [t for t in form if t[0] != index]
            home = _home(box, [i for i, _c in rest], [form])
            ends = home.derived.get((form, index))
            if ends is None:
                rest_lo, rest_hi = self._extent(home, rest)
                ends = home.derived[form, index] = _named(
                    home.lines, "__int128", self._fresh("_q"),
                    (_minus(lo, rest_hi), _minus(hi, rest_lo)) if c == 1
                    else (_minus(rest_lo, hi), _minus(rest_hi, lo)),
                )
            found.append(ends)
        return found

    def _outside(self, box, coeffs, off, lo_name: str, hi_name: str) -> str:
        """C condition: ``sum(c * index) + off`` may leave ``[lo_name,
        hi_name]`` over ``box`` — exact ``__int128`` values, every
        interval the box knows for the form intersected."""
        form, sign = _normalized(coeffs)
        los, his = [], []
        for lo, hi in self._bounds(box, form):
            if sign < 0:
                lo, hi = _minus("0", hi), _minus("0", lo)
            los.append(_sum([lo, _wide(off)]))
            his.append(_sum([hi, _wide(off)]))
        return _beyond(los, his, lo_name, hi_name)

    def _refine_form(self, box: _Box, form: Form, op: str, e: str, sides) -> _Box:
        """``box`` where ``form op e`` holds: ``form``'s interval over
        ``box`` cut and recorded. The fact holds only where no side of the
        comparison wraps in ``int64``; ``box`` owes that once anything
        below the fact is owed."""
        n = self._fresh("_e")
        # the last interval known for the form: what an earlier fact
        # recorded, else the span
        gone, new = _cut(*self._bounds(box, form)[-1], op, e)
        lines = [f"const i64 {n} = {_either(box.empty, gone)};"]
        new = _named(lines, "__int128", n, new)
        return _Box(
            box, lines, n, box.intervals, {**box.forms, form: new}, sides
        )

    # -- obligations ---------------------------------------------------------

    def _owe(self, box: _Box | None, what: tuple, bad: str) -> None:
        """The call is unproven when ``bad`` holds and ``box`` is not empty
        (``None``: whatever the boxes). ``what`` names the obligation apart
        from the box — the same subscript form against the same bounds.
        Whatever the facts behind ``box`` need is owed with it."""
        self._owed.setdefault(what, []).append((box, bad))
        chain = []
        while box is not None:
            chain.append(box)
            box = box.parent
        for box in reversed(chain):
            if box.needs_owed:
                continue
            box.needs_owed = True
            for coeffs, off in box.needs:
                what = ("no wrap", tuple(sorted(coeffs.items())), off)
                if not self._owes(box.parent, what):
                    self._owe(box.parent, what, self._outside(
                        box.parent, coeffs, off, "INT64_MIN", "INT64_MAX"
                    ))

    def _owes(self, box: _Box, what: tuple) -> bool:
        """Whether ``box`` or a box enclosing it owes ``what`` already."""
        owers = [b for b, _bad in self._owed.get(what, ())]
        while box is not None and box not in owers:
            box = box.parent
        return box is not None

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
    ) -> tuple[str | None, set[str]]:
        """Discharge the range check of subscript ``sub`` against
        ``[lo_name, hi_name]`` at function entry. Returns ``(why_not,
        mentioned)``: ``why_not`` is None when the obligations were emitted
        — the per-element check may then be dropped — else the reason the
        subscript keeps it; ``mentioned`` are the indices the subscript
        mentions (none: it is constant over the call)."""
        known = self._known[-1]
        if known is None:
            return "under a guard the proof does not read", set()
        shape = classify_affine_subscript(sub, indices)
        if shape is None:
            return self._prove_linear(sub, indices, known, lo_name, hi_name)
        _kind, index, delta = shape
        if index is None:
            text = self._offset(sub)
            if text is None:
                return _why_not_affine(sub, indices), set()
            ends = [(text, text)] * len(known)
        else:
            shift = ""
            if delta is not None:
                off = self._offset(delta[1])
                if off is None:
                    return "offset is not an integer + - * expression", set()
                shift = f" {delta[0]} {off}"
            ends = [
                tuple(end + shift for end in self._interval(box, index))
                for box in known
            ]
        what = (index, shift if index is not None else text, lo_name, hi_name)
        for box, (mn, mx) in zip(known, ends):
            derived = self._derived(box, index) if index is not None else []
            if derived:
                los, his = zip(*[
                    (_wide(lo) + shift, _wide(hi) + shift)
                    for lo, hi in [self._interval(box, index), *derived]
                ])
                self._owe(box, what, _beyond(los, his, lo_name, hi_name))
                continue
            if mn == mx:
                bad = f"({mn} < {lo_name}) | ({mn} > {hi_name})"
            else:
                bad = f"({mn} < {lo_name}) | ({mx} > {hi_name})"
                if delta is not None:
                    bad = f"({mn} > {mx}) | {bad}"
            self._owe(box, what, bad)
        return None, set() if index is None else {index}

    def _prove_linear(self, sub, indices, known, lo_name, hi_name):
        """:meth:`prove` for a subscript linear in several indices (or
        scaled): exact ``__int128`` ends over each box, so a subscript that
        would wrap is unproven."""
        linear = self._linear(sub, indices)
        if linear is None or not linear[0]:
            return _why_not_affine(sub, indices), set()
        coeffs, off = linear
        what = (tuple(sorted(coeffs.items())), off, lo_name, hi_name)
        for box in known:
            self._owe(box, what, self._outside(box, coeffs, off, lo_name, hi_name))
        return None, set(coeffs)


def _cut(lo: str, hi: str, op: str, e: str) -> tuple[str, tuple[str, str]]:
    """``(gone, (lo', hi'))``: the interval ``[lo, hi]`` where ``x op e``
    holds, and the C condition under which none of it does."""
    if op == "=":
        return _either(_compare(e, "<", lo), _compare(e, ">", hi)), (e, e)
    if op == "<>":
        at_lo, at_hi = _compare(lo, "==", e), _compare(hi, "==", e)
        return _both(at_lo, at_hi), (
            _shift(lo, "+", at_lo), _shift(hi, "-", at_hi)
        )
    if op == "<":
        return _compare(e, "<=", lo), (lo, f"({hi} < {e} ? {hi} : {e} - 1)")
    if op == "<=":
        return _compare(e, "<", lo), (lo, f"({hi} < {e} ? {hi} : {e})")
    if op == ">":
        return _compare(e, ">=", hi), (f"({lo} > {e} ? {lo} : {e} + 1)", hi)
    # ">="
    return _compare(e, ">", hi), (f"({lo} > {e} ? {lo} : {e})", hi)


def _home(box: _Box, indices: list[str], forms: list[Form]) -> _Box:
    """The outermost box enclosing ``box`` that knows the same intervals
    for ``indices`` and ``forms``: what is computed from them is declared
    there once, for every box below."""
    while box.parent is not None and all(
        box.parent.intervals.get(i) == box.intervals.get(i) for i in indices
    ) and all(box.parent.forms.get(f) == box.forms.get(f) for f in forms):
        box = box.parent
    return box


def _beyond(los, his, lo_name: str, hi_name: str) -> str:
    """C condition: a value known to lie in each interval ``(los[k],
    his[k])`` may leave ``[lo_name, hi_name]`` — every lower end below it,
    or every upper end above it."""
    below = " & ".join(f"({lo} < {lo_name})" for lo in los)
    above = " & ".join(f"({hi} > {hi_name})" for hi in his)
    if len(los) > 1:
        below, above = f"({below})", f"({above})"
    return f"{below} | {above}"


def _named(lines: list[str], ctype: str, n: str, ends: tuple[str, str]):
    """``ends`` with each compound text declared once in ``lines`` as
    ``_l<n>`` / ``_h<n>`` (``n`` a fresh name, its two-letter prefix
    dropped)."""
    named: dict[str, str] = {}
    for end, text in zip("lh", ends):
        if text not in named and not _SIMPLE.match(text):
            named[text] = f"_{end}{n[2:]}"
            lines.append(f"const {ctype} {named[text]} = {text};")
    return tuple(named.get(t, t) for t in ends)


def _mentions(expr: Expr, indices: set[str]) -> bool:
    return any(
        isinstance(n, Name) and n.ident in indices for n in walk_expr(expr)
    )


def _plus(a: str, b: str) -> str:
    """``a + b`` over ``int64`` offset texts."""
    if a == "0" or b == "0":
        return b if a == "0" else a
    return f"({a} + {b})"


def _scaled(linear, k: int):
    """``k`` times a linear form; an integer literal offset stays one while
    it fits ``int64`` comfortably."""
    coeffs, off = linear
    if _INT.match(off) and abs(k * int(off)) < 2**62:
        off = str(k * int(off))
    elif k != 1:
        off = f"(-{off})" if k == -1 else f"({k} * {off})"
    return {i: k * c for i, c in coeffs.items()}, off


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
