"""Abstract syntax tree for PS programs.

The AST is intentionally close to the concrete syntax of the paper's
Figure 1 (the ``Relaxation`` module): a program is a list of modules; a
module has parameters, results, ``type``/``var`` sections, and a ``define``
section of equations; expressions include if-expressions, array indexing,
record field selection and module calls.

Every node carries a ``line``/``column`` position for diagnostics. Structural
equality of expressions (needed by the scheduler to recognise that a
subscript expression is the declared upper bound of a subrange, section 3.4
rule 2) is provided by :func:`expr_equal`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass
class Node:
    line: int = field(default=0, kw_only=True, compare=False)
    column: int = field(default=0, kw_only=True, compare=False)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Expr(Node):
    pass


@dataclass
class IntLit(Expr):
    value: int


@dataclass
class RealLit(Expr):
    value: float


@dataclass
class BoolLit(Expr):
    value: bool


@dataclass
class Name(Expr):
    """An identifier used in an expression: a variable, parameter, enum
    member, or a subrange type name used as an index variable (PS does not
    differentiate them syntactically)."""

    ident: str


@dataclass
class BinOp(Expr):
    """Binary operation. ``op`` is one of ``+ - * / div mod = <> < <= > >=
    and or``."""

    op: str
    left: Expr
    right: Expr


@dataclass
class UnOp(Expr):
    """Unary operation: ``-``, ``+`` or ``not``."""

    op: str
    operand: Expr


@dataclass
class IfExpr(Expr):
    """``if c then a else b`` — an expression, as PS has no statements."""

    cond: Expr
    then: Expr
    orelse: Expr


@dataclass
class Index(Expr):
    """Array indexing ``base[s1, s2, ...]``. Partial indexing is allowed:
    indexing a rank-3 array with one subscript yields a rank-2 value (the
    paper's ``A[1]`` and ``A[maxK]``)."""

    base: Expr
    subscripts: list[Expr]


@dataclass
class FieldRef(Expr):
    """Record field selection ``base.field``."""

    base: Expr
    fieldname: str


@dataclass
class Call(Expr):
    """Module or builtin function invocation ``name(args)``."""

    func: str
    args: list[Expr]


# ---------------------------------------------------------------------------
# Type expressions (syntax of types, resolved by semantic analysis)
# ---------------------------------------------------------------------------


@dataclass
class TypeExpr(Node):
    pass


@dataclass
class NamedTypeExpr(TypeExpr):
    """A reference to a declared type or a primitive: ``int``, ``real``,
    ``bool``, or an identifier."""

    name: str


@dataclass
class RangeTypeExpr(TypeExpr):
    """An anonymous subrange ``lo .. hi`` with expression bounds (the
    paper's ``array [1 .. maxK] of ...``)."""

    lo: Expr
    hi: Expr


@dataclass
class ArrayTypeExpr(TypeExpr):
    """``array [d1, d2, ...] of element``. Each dimension is a named
    subrange or an anonymous range."""

    dims: list[TypeExpr]
    element: TypeExpr


@dataclass
class RecordTypeExpr(TypeExpr):
    """``record f1: T1; f2: T2 end``."""

    fields: list[tuple[list[str], TypeExpr]]


@dataclass
class EnumTypeExpr(TypeExpr):
    """``(a, b, c)`` — Pascal-style enumeration."""

    members: list[str]


# ---------------------------------------------------------------------------
# Declarations and module structure
# ---------------------------------------------------------------------------


@dataclass
class TypeDecl(Node):
    """``I, J = 0 .. M+1;`` — possibly several names per declaration."""

    names: list[str]
    typeexpr: TypeExpr


@dataclass
class VarDecl(Node):
    """``A: array [1..maxK] of array[I,J] of real;``"""

    names: list[str]
    typeexpr: TypeExpr


@dataclass
class Param(Node):
    """A module input parameter or result: ``InitialA: array[I,J] of real``."""

    name: str
    typeexpr: TypeExpr


@dataclass
class LhsItem(Node):
    """One target on the left-hand side of an equation, optionally
    subscripted: ``A[K,I,J]`` or ``newA``."""

    name: str
    subscripts: list[Expr]


@dataclass
class Equation(Node):
    """``lhs = rhs;`` where ``lhs`` is a list of targets (the paper allows a
    variable list whose arity matches the right-hand side)."""

    lhs: list[LhsItem]
    rhs: Expr
    label: str = ""  # "eq.1", "eq.2", ... assigned by source order


@dataclass
class Module(Node):
    """A PS module: a functional unit taking 0+ inputs and returning 1+
    results (paper section 2)."""

    name: str
    params: list[Param]
    results: list[Param]
    typedecls: list[TypeDecl]
    vardecls: list[VarDecl]
    equations: list[Equation]


@dataclass
class Program(Node):
    """One or more module descriptions."""

    modules: list[Module]


# ---------------------------------------------------------------------------
# Structural expression equality and traversal helpers
# ---------------------------------------------------------------------------


def expr_equal(a: Expr, b: Expr) -> bool:
    """Structural equality of expressions, ignoring source positions."""
    if type(a) is not type(b):
        return False
    if isinstance(a, IntLit):
        return a.value == b.value  # type: ignore[union-attr]
    if isinstance(a, RealLit):
        return a.value == b.value  # type: ignore[union-attr]
    if isinstance(a, BoolLit):
        return a.value == b.value  # type: ignore[union-attr]
    if isinstance(a, Name):
        return a.ident == b.ident  # type: ignore[union-attr]
    if isinstance(a, BinOp):
        assert isinstance(b, BinOp)
        return a.op == b.op and expr_equal(a.left, b.left) and expr_equal(a.right, b.right)
    if isinstance(a, UnOp):
        assert isinstance(b, UnOp)
        return a.op == b.op and expr_equal(a.operand, b.operand)
    if isinstance(a, IfExpr):
        assert isinstance(b, IfExpr)
        return (
            expr_equal(a.cond, b.cond)
            and expr_equal(a.then, b.then)
            and expr_equal(a.orelse, b.orelse)
        )
    if isinstance(a, Index):
        assert isinstance(b, Index)
        return (
            expr_equal(a.base, b.base)
            and len(a.subscripts) == len(b.subscripts)
            and all(expr_equal(x, y) for x, y in zip(a.subscripts, b.subscripts))
        )
    if isinstance(a, FieldRef):
        assert isinstance(b, FieldRef)
        return a.fieldname == b.fieldname and expr_equal(a.base, b.base)
    if isinstance(a, Call):
        assert isinstance(b, Call)
        return (
            a.func == b.func
            and len(a.args) == len(b.args)
            and all(expr_equal(x, y) for x, y in zip(a.args, b.args))
        )
    raise TypeError(f"unknown expression node {type(a).__name__}")


def walk_expr(expr: Expr):
    """Yield ``expr`` and every sub-expression, pre-order."""
    yield expr
    if isinstance(expr, BinOp):
        yield from walk_expr(expr.left)
        yield from walk_expr(expr.right)
    elif isinstance(expr, UnOp):
        yield from walk_expr(expr.operand)
    elif isinstance(expr, IfExpr):
        yield from walk_expr(expr.cond)
        yield from walk_expr(expr.then)
        yield from walk_expr(expr.orelse)
    elif isinstance(expr, Index):
        yield from walk_expr(expr.base)
        for s in expr.subscripts:
            yield from walk_expr(s)
    elif isinstance(expr, FieldRef):
        yield from walk_expr(expr.base)
    elif isinstance(expr, Call):
        for a in expr.args:
            yield from walk_expr(a)


def map_children(expr: Expr, fn) -> Expr:
    """``expr`` rebuilt with ``fn`` applied to each direct sub-expression,
    positions kept; a leaf comes back as is."""
    if isinstance(expr, BinOp):
        return replace(expr, left=fn(expr.left), right=fn(expr.right))
    if isinstance(expr, UnOp):
        return replace(expr, operand=fn(expr.operand))
    if isinstance(expr, IfExpr):
        return replace(
            expr, cond=fn(expr.cond), then=fn(expr.then), orelse=fn(expr.orelse)
        )
    if isinstance(expr, Index):
        return replace(
            expr, base=fn(expr.base), subscripts=[fn(s) for s in expr.subscripts]
        )
    if isinstance(expr, FieldRef):
        return replace(expr, base=fn(expr.base))
    if isinstance(expr, Call):
        return replace(expr, args=[fn(a) for a in expr.args])
    return expr


def names_in(expr: Expr) -> set[str]:
    """The set of identifiers appearing anywhere in ``expr``."""
    return {n.ident for n in walk_expr(expr) if isinstance(n, Name)}
