"""Single-assignment / definition-domain checks.

PS is a single-assignment language: "a value is never changed. Rather a new
value is generated from a computation involving the old value" (paper,
footnote in section 2). A variable may nevertheless be defined by *several*
equations as long as their definition domains are disjoint — the paper's
``A[1] = InitialA`` together with ``A[K,I,J] = ...`` over ``K = 2..maxK``.

Whether two domains overlap is generally undecidable with symbolic bounds, so
the checker is split into:

* **errors** for definite violations (same constant subscript twice, two
  full-range definitions of the same dimension, a scalar defined twice);
* **warnings** for situations it cannot decide (symbolic bounds).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CoverageError
from repro.ps.ast import Expr, Name
from repro.ps.symbols import SymbolKind


@dataclass
class _DimDomain:
    """What one equation covers in one dimension of a target."""

    kind: str  # "const" | "range"
    const: int | None = None  # literal constant, when decidable
    lo: int | None = None  # literal range bounds, when decidable
    hi: int | None = None
    symbolic: bool = False  # True when bounds are not integer literals
    #: the ``(lo, hi)`` expressions the literals were folded from (a "const"
    #: is the point ``(subscript, subscript)``), for evaluation at run time
    exprs: tuple[Expr, Expr] | None = None


def _literal_value(expr: Expr) -> int | None:
    """Evaluate an expression to an int when it folds to a constant
    (literals combined with +, -, *, unary sign)."""
    from repro.graph.labels import _literal_int

    return _literal_int(expr)


def _domains_disjoint(a: _DimDomain, b: _DimDomain) -> bool | None:
    """True/False when decidable, None when unknown."""
    if a.kind == "const" and b.kind == "const":
        if a.const is not None and b.const is not None:
            return a.const != b.const
        return None
    if a.kind == "const" and b.kind == "range":
        return _const_vs_range(a, b)
    if a.kind == "range" and b.kind == "const":
        return _const_vs_range(b, a)
    # range vs range: disjoint iff one ends before the other starts.
    if None not in (a.lo, a.hi, b.lo, b.hi):
        return a.hi < b.lo or b.hi < a.lo  # type: ignore[operator]
    return None


def _const_vs_range(c: _DimDomain, r: _DimDomain) -> bool | None:
    if c.const is None:
        return None
    if r.lo is not None and c.const < r.lo:
        return True
    if r.hi is not None and c.const > r.hi:
        return True
    if r.lo is not None and r.hi is not None:
        return not (r.lo <= c.const <= r.hi)
    return None


def definition_domains(analyzed) -> dict[str, list[tuple]]:
    """Per defined name, ``(equation, [_DimDomain per target dimension])``
    for every equation that defines it."""
    defs: dict[str, list[tuple]] = {}
    for eq in analyzed.equations:
        index_ranges = {d.index: d.subrange for d in eq.dims}
        for target in eq.targets:
            dims: list[_DimDomain] = []
            for sub in target.subscripts:
                if isinstance(sub, Name) and sub.ident in index_ranges:
                    sr = index_ranges[sub.ident]
                    lo = _literal_value(sr.lo)
                    hi = _literal_value(sr.hi)
                    dims.append(
                        _DimDomain(
                            "range",
                            lo=lo,
                            hi=hi,
                            symbolic=(lo is None or hi is None),
                            exprs=(sr.lo, sr.hi),
                        )
                    )
                else:
                    c = _literal_value(sub)
                    dims.append(
                        _DimDomain("const", const=c, symbolic=c is None, exprs=(sub, sub))
                    )
            defs.setdefault(target.name, []).append((eq, dims))
    return defs


def definition_boxes(analyzed) -> dict[str, list]:
    """Per array the equations define element-wise, the box each defining
    equation covers: one ``(lo, hi)`` expression pair per dimension, to be
    evaluated with a run's sizes. A target subscript is an index of its own
    or index-free (semantic analysis rejects ``A[I+1]`` and ``A[I, I]``), so
    every definition domain is a box. Arrays a module call assigns wholesale
    are left out: no storage is allocated for them."""
    return {
        name: [[d.exprs for d in dims] for _eq, dims in entries]
        for name, entries in definition_domains(analyzed).items()
        if entries[0][1] and not any(eq.atomic for eq, _dims in entries)
    }


def check_coverage(analyzed) -> None:
    """Raise :class:`CoverageError` on definite overlap; append warnings to
    ``analyzed.warnings`` for undecidable cases. Also verifies that every
    result and local variable has at least one defining equation."""
    table = analyzed.table
    defs = {
        name: [(eq.label, dims) for eq, dims in entries]
        for name, entries in definition_domains(analyzed).items()
    }

    # Pairwise overlap check per target.
    for name, entries in defs.items():
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                la, da = entries[i]
                lb, db = entries[j]
                verdicts = [
                    _domains_disjoint(x, y) for x, y in zip(da, db)
                ]
                if not verdicts:  # scalar target defined twice
                    raise CoverageError(
                        f"{name!r} is defined by both {la} and {lb}"
                    )
                if any(v is True for v in verdicts):
                    continue  # provably disjoint in some dimension
                if all(v is False for v in verdicts):
                    raise CoverageError(
                        f"definitions of {name!r} in {la} and {lb} overlap"
                    )
                analyzed.warnings.append(
                    f"cannot prove definitions of {name!r} in {la} and {lb} "
                    f"are disjoint (symbolic bounds)"
                )

    # Every non-input must be defined; inputs must not be.
    for sym in table.symbols.values():
        if sym.kind is SymbolKind.PARAM:
            continue
        if sym.name not in defs:
            raise CoverageError(
                f"{sym.kind.value} {sym.name!r} has no defining equation"
            )
