"""Shared expression lowering: normalised PS expressions -> source text.

Every kernel dialect — the Python ones of :mod:`repro.runtime.kernels.emit`
and the C one of :mod:`repro.codegen.clower` — walks the same AST here and
agrees on the skeleton of the translation (literals, operator spellings,
parenthesisation). A dialect only supplies the *hooks*: name resolution,
array references, builtin calls, and the operators whose runtime semantics
differ between scalar Python, NumPy, C and the reference evaluator.
"""

from __future__ import annotations

from repro.errors import ReproError
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

#: Operators whose Python spelling is shared by every dialect.
INFIX_OPS = {
    "+": "+",
    "-": "-",
    "*": "*",
    "<": "<",
    "<=": "<=",
    ">": ">",
    ">=": ">=",
    "=": "==",
    "<>": "!=",
}


class ExprLowerer:
    """The shared walk. A dialect subclass provides the hooks the walk
    reaches for it: ``lower_name``, ``lower_array_ref``, ``lower_call``,
    ``lower_div``, ``lower_floordiv``, ``lower_mod``, ``lower_logical`` and
    ``lower_not`` (none for an operator it intercepts in ``lower_binop``
    or ``lower``). ``lower_if`` defaults to Python's lazy conditional
    expression, which the scalar kernels speak.
    """

    #: exception type raised on unsupported constructs
    error_type: type[ReproError] = ReproError

    def error(self, message: str) -> ReproError:
        return self.error_type(message)

    # -- the walk ----------------------------------------------------------

    def lower(self, expr: Expr) -> str:
        if isinstance(expr, IntLit):
            return str(expr.value)
        if isinstance(expr, RealLit):
            return repr(expr.value)
        if isinstance(expr, BoolLit):
            return "True" if expr.value else "False"
        if isinstance(expr, Name):
            return self.lower_name(expr.ident)
        if isinstance(expr, Index):
            if isinstance(expr.base, Name):
                return self.lower_array_ref(expr.base.ident, expr.subscripts)
            raise self.error("indexing of computed values is not supported")
        if isinstance(expr, BinOp):
            return self.lower_binop(expr)
        if isinstance(expr, UnOp):
            return self.lower_unop(expr)
        if isinstance(expr, IfExpr):
            return self.lower_if(expr)
        if isinstance(expr, Call):
            return self.lower_call(expr)
        if isinstance(expr, FieldRef):
            raise self.error("record fields are not supported")
        raise self.error(f"cannot lower {type(expr).__name__}")

    # -- the operators ----------------------------------------------------

    def lower_binop(self, expr: BinOp) -> str:
        left = self.lower(expr.left)
        right = self.lower(expr.right)
        op = expr.op
        if op == "/":
            return self.lower_div(left, right)
        if op == "div":
            return self.lower_floordiv(left, right)
        if op == "mod":
            return self.lower_mod(left, right)
        if op in ("and", "or"):
            return self.lower_logical(op, left, right)
        return f"({left} {INFIX_OPS[op]} {right})"

    def lower_unop(self, expr: UnOp) -> str:
        operand = self.lower(expr.operand)
        if expr.op == "not":
            return self.lower_not(operand)
        return f"({expr.op}{operand})"

    def lower_if(self, expr: IfExpr) -> str:
        return (
            f"({self.lower(expr.then)} if {self.lower(expr.cond)} "
            f"else {self.lower(expr.orelse)})"
        )
