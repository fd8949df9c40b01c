"""Expression evaluator over normalised PS expressions.

Two modes share one code path:

* **scalar** — index variables are Python ints; ``if`` evaluates lazily
  (reference semantics: the guarded branch is never touched, so boundary
  equations never read out of range);
* **vector** — some index variables are NumPy arrays; ``if`` becomes
  ``np.where`` with *both* branches evaluated, so array reads inside a
  branch (or the right operand of ``and`` / ``or``) clip indices into range
  (masked lanes are discarded by the `where`). A clipped lane the branch
  *selects* raises :class:`~repro.runtime.values.SelectedLaneClipped`, and
  the caller reruns the span on the scalar walk, which raises the exact
  out-of-range error; an integer zero divisor of ``div`` / ``mod`` on any
  lane takes the same rerun (:func:`floor_div_mod`). Every other read is
  live on every lane and range-checked, as in scalar mode. This is how
  DOALL dimensions execute as single NumPy operations — the guides' "vectorize
  your loops" applied to the paper's concurrent loops.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

import numpy as np

from repro.errors import ExecutionError
from repro.ps.ast import (
    BinOp,
    BoolLit,
    Call,
    Expr,
    FieldRef,
    IfExpr,
    Index,
    IntLit,
    Name,
    RealLit,
    UnOp,
)
from repro.runtime.values import RuntimeArray, SelectedLaneClipped

_BUILTIN_FUNCS: dict[str, Callable] = {
    "abs": np.abs,
    "sqrt": np.sqrt,
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "ln": np.log,
    "log": np.log,
    "min": np.minimum,
    "max": np.maximum,
    "floor": lambda x: np.floor(x).astype(np.int64),
    "ceil": lambda x: np.ceil(x).astype(np.int64),
    "trunc": lambda x: np.trunc(x).astype(np.int64),
    "round": lambda x: np.round(x).astype(np.int64),
}


def guarded(vector, cond, selected: bool) -> tuple:
    """The ``vector`` mode of a subexpression whose lanes may be masked —
    an ``if`` branch or the right operand of ``and`` / ``or``, which scalar
    mode evaluates lazily: its guards, the enclosing ones plus ``(cond,
    selected)`` (see :func:`repro.runtime.values.check_clipped`)."""
    outer = vector if isinstance(vector, tuple) else ()
    return (*outer, (cond, selected))


def _is_vector(v: Any) -> bool:
    return isinstance(v, np.ndarray) and v.ndim > 0


def divide(left, right):
    """PS ``/``: IEEE division, except that a zero divisor yields +inf for
    a dividend >= 0 and -inf otherwise (NaN included), on scalars and
    vectors alike — ``np.divide`` alone would give NaN for ``0 / 0`` and
    ``NaN / 0``, where the scalar rule and the C tier's ``ps_div`` give an
    infinity."""
    if not _is_vector(left) and not _is_vector(right):
        if right != 0:
            return left / right
        return float("inf") * (1 if left >= 0 else -1)
    quotient = np.divide(left, right)
    if not _is_vector(right) and right != 0:
        return quotient
    zero = np.equal(right, 0)
    if not zero.any():
        return quotient
    signed = np.where(np.greater_equal(left, 0), np.inf, -np.inf)
    return np.where(zero, signed, quotient)


def floor_div_mod(op: str, left, right, vector: bool | tuple = False):
    """PS ``div`` / ``mod`` (``op``): Python's ``//`` / ``%`` on scalars,
    NumPy's on vectors. An integer zero divisor raises the C tier's
    ``ZeroDivisionError`` in scalar mode — NumPy integers would give 0. In
    vector mode its lane may be masked, so it raises
    :class:`~repro.runtime.values.SelectedLaneClipped`, and the span reruns
    on the scalar walk, which raises only where the division is reached."""
    lanes = _is_vector(left) or _is_vector(right)
    if _is_vector(right):
        zero = right.dtype.kind in "iu" and not right.all()
    else:
        zero = isinstance(right, (int, np.integer)) and right == 0
    if zero:
        if vector or lanes:
            raise SelectedLaneClipped("a lane divides by an integer zero")
        raise ZeroDivisionError("integer division or modulo by zero")
    if lanes:
        return (np.floor_divide if op == "div" else np.mod)(left, right)
    return left // right if op == "div" else left % right


class Evaluator:
    """Evaluates normalised expressions against a data environment.

    ``data`` maps symbol names to scalars or :class:`RuntimeArray`;
    ``call_fn(name, args) -> value | tuple`` executes module calls;
    ``enums`` maps enum member names to ordinals.
    """

    def __init__(
        self,
        data: dict[str, Any],
        call_fn: Callable[[str, list[Any]], Any] | None = None,
        enums: dict[str, int] | None = None,
    ):
        self.data = data
        self.call_fn = call_fn
        self.enums = enums or {}

    def eval(self, expr: Expr, env: dict[str, Any], vector: bool | tuple = False) -> Any:
        method = getattr(self, f"_eval_{type(expr).__name__}", None)
        if method is None:
            raise ExecutionError(f"cannot evaluate {type(expr).__name__}")
        return method(expr, env, vector)

    # -- leaves ------------------------------------------------------------

    def _eval_IntLit(self, expr: IntLit, env, vector):
        return expr.value

    def _eval_RealLit(self, expr: RealLit, env, vector):
        return expr.value

    def _eval_BoolLit(self, expr: BoolLit, env, vector):
        return expr.value

    def _eval_Name(self, expr: Name, env, vector):
        if expr.ident in env:
            return env[expr.ident]
        if expr.ident in self.data:
            return self.data[expr.ident]
        if expr.ident in self.enums:
            return self.enums[expr.ident]
        raise ExecutionError(f"unbound name {expr.ident!r}")

    # -- structure ------------------------------------------------------------

    def _eval_Index(self, expr: Index, env, vector):
        base = self.eval(expr.base, env, vector)
        subs = [self.eval(s, env, vector) for s in expr.subscripts]
        if isinstance(base, RuntimeArray):
            return base.get(subs, clip=vector if isinstance(vector, tuple) else False)
        arr = np.asarray(base)
        if vector:
            subs = [
                np.clip(s, 0, dim - 1) for s, dim in zip(subs, arr.shape)
            ]
        return arr[tuple(subs)]

    def _eval_FieldRef(self, expr: FieldRef, env, vector):
        # Record references resolve through dotted data names.
        path = []
        node: Expr = expr
        while isinstance(node, FieldRef):
            path.append(node.fieldname)
            node = node.base
        if not isinstance(node, Name):
            raise ExecutionError("field access on a computed value")
        path.reverse()
        key = node.ident + "".join(f".{f}" for f in path)
        if key in self.data:
            return self.data[key]
        # Fallback: nested dicts.
        v = self.data.get(node.ident)
        for f in path:
            if not isinstance(v, dict) or f not in v:
                raise ExecutionError(f"unbound record field {key!r}")
            v = v[f]
        return v

    def _eval_Call(self, expr: Call, env, vector):
        args = [self.eval(a, env, vector) for a in expr.args]
        if expr.func in _BUILTIN_FUNCS:
            with np.errstate(invalid="ignore", divide="ignore"):
                return _BUILTIN_FUNCS[expr.func](*args)
        if self.call_fn is None:
            raise ExecutionError(f"no module-call handler for {expr.func!r}")
        if vector and any(_is_vector(a) for a in args):
            raise ExecutionError(
                f"module call {expr.func!r} cannot be vectorised"
            )
        converted = [
            a.to_numpy() if isinstance(a, RuntimeArray) else a for a in args
        ]
        return self.call_fn(expr.func, converted)

    # -- operators ------------------------------------------------------------

    def _eval_BinOp(self, expr: BinOp, env, vector):
        op = expr.op
        if op == "and":
            left = self.eval(expr.left, env, vector)
            if not vector and not _is_vector(left):
                return bool(left) and bool(self.eval(expr.right, env, vector))
            right = self.eval(expr.right, env, guarded(vector, left, True))
            return np.logical_and(left, right)
        if op == "or":
            left = self.eval(expr.left, env, vector)
            if not vector and not _is_vector(left):
                return bool(left) or bool(self.eval(expr.right, env, vector))
            right = self.eval(expr.right, env, guarded(vector, left, False))
            return np.logical_or(left, right)

        left = self.eval(expr.left, env, vector)
        right = self.eval(expr.right, env, vector)
        with np.errstate(invalid="ignore", divide="ignore"):
            if op == "+":
                return left + right
            if op == "-":
                return left - right
            if op == "*":
                return left * right
            if op == "/":
                return divide(left, right)
            if op in ("div", "mod"):
                return floor_div_mod(op, left, right, vector)
            if op == "=":
                return left == right
            if op == "<>":
                return left != right
            if op == "<":
                return left < right
            if op == "<=":
                return left <= right
            if op == ">":
                return left > right
            if op == ">=":
                return left >= right
        raise ExecutionError(f"unknown operator {op!r}")

    def _eval_UnOp(self, expr: UnOp, env, vector):
        v = self.eval(expr.operand, env, vector)
        if expr.op == "-":
            return -v
        if expr.op == "+":
            return v
        if expr.op == "not":
            return np.logical_not(v) if _is_vector(v) else not v
        raise ExecutionError(f"unknown unary operator {expr.op!r}")

    def _eval_IfExpr(self, expr: IfExpr, env, vector):
        cond = self.eval(expr.cond, env, vector)
        if not vector and not _is_vector(cond):
            # Lazy reference semantics.
            return (
                self.eval(expr.then, env, vector)
                if cond
                else self.eval(expr.orelse, env, vector)
            )
        then = self.eval(expr.then, env, guarded(vector, cond, True))
        orelse = self.eval(expr.orelse, env, guarded(vector, cond, False))
        return np.where(cond, then, orelse)
