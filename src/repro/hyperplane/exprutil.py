"""Symbolic expression helpers for the hyperplane rewrite.

These build and simplify the small class of ASTs the transformation needs:
linear combinations of index variables (``Kp - 2*Ip - Jp``) and offset
subscripts (``Kp - 1``).
Constant folding keeps the generated PS source readable — the paper writes
``K' - 2I' - J'``, not ``1*Kp + -2*Ip + -1*Jp + 0``.
"""

from __future__ import annotations

from repro.ps.ast import BinOp, Expr, IntLit, Name, UnOp


def _fold_int(expr: Expr) -> int | None:
    if isinstance(expr, IntLit):
        return expr.value
    if isinstance(expr, UnOp) and expr.op == "-":
        v = _fold_int(expr.operand)
        return -v if v is not None else None
    return None


def add(a: Expr, b: Expr) -> Expr:
    av, bv = _fold_int(a), _fold_int(b)
    if av is not None and bv is not None:
        return IntLit(av + bv)
    if av == 0:
        return b
    if bv == 0:
        return a
    if bv is not None and bv < 0:
        return BinOp("-", a, IntLit(-bv))
    return BinOp("+", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    av, bv = _fold_int(a), _fold_int(b)
    if av is not None and bv is not None:
        return IntLit(av - bv)
    if bv == 0:
        return a
    if bv is not None and bv < 0:
        return BinOp("+", a, IntLit(-bv))
    return BinOp("-", a, b)


def mul(c: int, e: Expr) -> Expr:
    ev = _fold_int(e)
    if ev is not None:
        return IntLit(c * ev)
    if c == 0:
        return IntLit(0)
    if c == 1:
        return e
    if c == -1:
        return UnOp("-", e)
    return BinOp("*", IntLit(c), e)


def linear_combination(coeffs: list[int], exprs: list[Expr], constant: int = 0) -> Expr:
    """``sum(coeffs[i] * exprs[i]) + constant``, folded and ordered with
    positive terms first."""
    result: Expr | None = None
    negatives: list[Expr] = []
    for c, e in zip(coeffs, exprs):
        if c == 0:
            continue
        if c > 0:
            term = mul(c, e)
            result = term if result is None else add(result, term)
        else:
            negatives.append(mul(-c, e))
    if result is None:
        result = IntLit(0)
    for term in negatives:
        result = sub(result, term)
    if constant:
        result = add(result, IntLit(constant)) if constant > 0 else sub(
            result, IntLit(-constant)
        )
    return result


def offset(var: str, delta: int) -> Expr:
    """``var + delta`` folded (``var`` for delta 0, ``var - 2`` for -2)."""
    base: Expr = Name(var)
    if delta == 0:
        return base
    if delta > 0:
        return BinOp("+", base, IntLit(delta))
    return BinOp("-", base, IntLit(-delta))


def conjoin(conds: list[Expr]) -> Expr | None:
    """``c1 and c2 and ...`` or None for an empty list."""
    result: Expr | None = None
    for c in conds:
        result = c if result is None else BinOp("and", result, c)
    return result
