"""Shared C expression lowering: normalised PS expressions -> C statements.

The native kernel tier (:mod:`repro.runtime.kernels.native`) translates
PS expressions to C through :class:`CExprLowerer`, and ``repro compile
--emit c`` (:mod:`repro.codegen.cgen`) lists the functions it prints, so
there is one C printer. What lives here:

* :data:`C_PRELUDE` — the runtime helper functions every generated
  translation unit includes. ``ps_fdiv``/``ps_mod`` implement *floored*
  integer division and modulo (PS ``div``/``mod`` follow the reference
  evaluator, i.e. Python semantics — C's truncated ``/``/``%`` disagree on
  negative operands); ``ps_div`` replicates the scalar evaluator's
  division-by-zero rule (signed infinity); ``ps_min``/``ps_max`` propagate
  NaN exactly like ``np.minimum``/``np.maximum`` (C's ``fmin``/``fmax``
  *suppress* NaN instead).
* :class:`CExprLowerer` — a statement-emitting dialect of the shared
  expression walk (:class:`repro.codegen.exprlower.ExprLowerer`). Unlike
  the string-only dialects, this one may emit *statements* into the current
  block: a conditional lowers to a real ``if``/``else`` so the untaken
  branch is never evaluated (the reference evaluator's lazy semantics —
  a C ternary would do, but range-checked array reads need statements), and
  ``and``/``or`` short-circuit the same way. Because it is the walk that
  knows which operand runs under which condition, it also keeps the
  **facts stack**: every operand lowered under a guard is bracketed by
  :meth:`CExprLowerer.push_fact` / :meth:`CExprLowerer.pop_fact` (the
  branches of an ``if`` under its condition and its negation, the right
  side of ``and`` / ``or`` under the left). The native kernel's range
  proof (:mod:`repro.runtime.kernels.ranges`) listens there to learn the
  guards an array reference sits under; the hooks do nothing otherwise.

Bit-exactness ground rules baked in here: only operations whose IEEE-754
behaviour is identical between NumPy and C are emitted (add/sub/mul/div,
sqrt, fabs, floored div/mod, NaN-propagating min/max, floor/ceil/trunc and
half-even round via ``nearbyint``). Transcendental builtins (sin, cos, tan,
exp, ln/log) are rejected: NumPy's SIMD implementations are not guaranteed
to round identically to libm, and the native tier must agree with the
evaluator bit for bit. Compilations must disable FP contraction
(``-ffp-contract=off``) — see :data:`C_FLAGS`.
"""

from __future__ import annotations

from repro.codegen.exprlower import ExprLowerer
from repro.ps.ast import (
    BinOp,
    BoolLit,
    Call,
    Expr,
    IfExpr,
    Index,
    IntLit,
    Name,
    RealLit,
    UnOp,
)
from repro.ps.types import (
    ArrayType,
    BoolType,
    EnumType,
    IntType,
    RealType,
    SubrangeType,
)

#: compile flags any bit-exact build of generated C must use: no FMA
#: contraction, no fast-math reassociation, and defined two's-complement
#: wraparound for signed integers (``-fwrapv``) — NumPy int64 arithmetic
#: wraps, and without the flag signed overflow is undefined behaviour
C_FLAGS = ("-O2", "-fPIC", "-ffp-contract=off", "-fno-fast-math", "-fwrapv")

#: storage C types per PS element kind (NumPy dtypes: float64/int64/bool_)
C_STORAGE_TYPES = {"real": "double", "int": "int64_t", "bool": "uint8_t"}

#: computation C types per PS value kind
C_VALUE_TYPES = {"real": "double", "int": "int64_t", "bool": "int64_t"}

#: builtins the bit-exact C dialect supports, per operand kind; everything
#: else (transcendentals, whose NumPy SIMD rounding may differ from libm)
#: must stay on the Python tiers
NATIVE_BUILTINS = {
    "abs", "sqrt", "min", "max", "floor", "ceil", "trunc", "round",
}

C_PRELUDE = """\
#include <math.h>
#include <stdint.h>
typedef int64_t i64;

/* PS '/' with the scalar evaluator's semantics: IEEE division, except a
   zero divisor yields a signed infinity (sign taken from the dividend;
   NaN compares false against 0 and lands on -inf, like Python). */
static double ps_div(double a, double b) {
    if (b != 0.0) return a / b;
    return a >= 0.0 ? INFINITY : -INFINITY;
}
/* Floored integer division/modulo (Python semantics; C truncates). */
static i64 ps_fdiv(i64 a, i64 b) {
    i64 q = a / b;
    if ((a % b) != 0 && ((a < 0) != (b < 0))) q--;
    return q;
}
static i64 ps_mod(i64 a, i64 b) {
    i64 r = a % b;
    if (r != 0 && ((a < 0) != (b < 0))) r += b;
    return r;
}
/* NaN-propagating min/max (np.minimum/np.maximum; fmin/fmax suppress). */
static double ps_min(double a, double b) {
    if (a != a) return a;
    if (b != b) return b;
    return a < b ? a : b;
}
static double ps_max(double a, double b) {
    if (a != a) return a;
    if (b != b) return b;
    return a > b ? a : b;
}
static i64 ps_min_i(i64 a, i64 b) { return a < b ? a : b; }
static i64 ps_max_i(i64 a, i64 b) { return a > b ? a : b; }
static i64 ps_abs_i(i64 a) { return a < 0 ? -a : a; }
"""


def kind_of_type(t) -> str:
    """"real" | "int" | "bool" for a PS scalar type (arrays: element)."""
    if isinstance(t, ArrayType):
        t = t.element
    if t == RealType:
        return "real"
    if t == BoolType:
        return "bool"
    if t == IntType or isinstance(t, (SubrangeType, EnumType)):
        return "int"
    raise ValueError(f"no C kind for {t}")


class CExprLowerer(ExprLowerer):
    """Statement-emitting C dialect of the shared expression walk.

    ``lower(expr)`` returns a C rvalue string, possibly after appending
    statements to :attr:`lines` (array-reference range checks, ``if``/
    ``else`` blocks, short-circuit logicals). Subclasses supply symbol
    resolution via :meth:`lower_name` / :meth:`lower_array_ref` (which may
    call :meth:`stmt` and :meth:`fresh` themselves).

    The lowerer also *types* every expression (:meth:`kind`) so that C's
    static typing reproduces the evaluator's dynamic dispatch: integer
    ``div``/``mod`` pick the floored helpers, ``abs``/``min``/``max`` pick
    the width-correct variant, and conditionals declare a temp of the
    joined branch type.
    """

    def __init__(self, analyzed, index_names: set[str]):
        self.analyzed = analyzed
        self.index_names = set(index_names)
        self.lines: list[str] = []
        self.indent = 1
        self._tmp = 0

    # -- emission helpers --------------------------------------------------

    def stmt(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def fresh(self, prefix: str = "_t") -> str:
        self._tmp += 1
        return f"{prefix}{self._tmp}"

    def truth(self, code: str, expr: Expr) -> str:
        """A C condition with Python truthiness (NaN is truthy)."""
        if self.kind(expr) == "bool":
            return f"({code})"
        return f"(({code}) != 0)"

    # -- static typing -----------------------------------------------------

    def kind(self, expr: Expr) -> str:
        """"real" | "int" | "bool" — the value kind ``expr`` evaluates to."""
        if isinstance(expr, IntLit):
            return "int"
        if isinstance(expr, RealLit):
            return "real"
        if isinstance(expr, BoolLit):
            return "bool"
        if isinstance(expr, Name):
            if expr.ident in self.index_names:
                return "int"
            sym = self.analyzed.table.symbol(expr.ident)
            if sym is not None:
                return kind_of_type(sym.type)
            if expr.ident in self.analyzed.table.enum_members:
                return "int"
            raise self.error(f"unbound name {expr.ident!r}")
        if isinstance(expr, Index):
            if not isinstance(expr.base, Name):
                raise self.error("indexing of computed values")
            sym = self.analyzed.table.symbol(expr.base.ident)
            if sym is None or not isinstance(sym.type, ArrayType):
                raise self.error(f"not an array: {expr.base.ident!r}")
            return kind_of_type(sym.type)
        if isinstance(expr, BinOp):
            if expr.op in ("<", "<=", ">", ">=", "=", "<>", "and", "or"):
                return "bool"
            if expr.op == "/":
                return "real"
            if expr.op in ("div", "mod"):
                return self._join(expr.left, expr.right)
            return self._join(expr.left, expr.right)
        if isinstance(expr, UnOp):
            if expr.op == "not":
                return "bool"
            k = self.kind(expr.operand)
            return "int" if k == "bool" else k
        if isinstance(expr, IfExpr):
            a, b = self.kind(expr.then), self.kind(expr.orelse)
            if a == b:
                return a
            if {a, b} <= {"real", "int"}:
                return "real"
            return "real" if "real" in (a, b) else "int"
        if isinstance(expr, Call):
            return self.call_kind(expr)
        raise self.error(f"cannot type {type(expr).__name__}")

    def _join(self, left: Expr, right: Expr) -> str:
        a, b = self.kind(left), self.kind(right)
        if "real" in (a, b):
            return "real"
        return "int"

    def call_kind(self, expr: Call) -> str:
        fn = expr.func
        if fn in ("floor", "ceil", "trunc", "round"):
            return "int"
        if fn == "sqrt":
            return "real"
        if fn in ("abs", "min", "max"):
            ks = [self.kind(a) for a in expr.args]
            return "real" if "real" in ks else "int"
        raise self.error(f"builtin {fn!r} is not bit-exact in C")

    # -- dialect hooks -----------------------------------------------------

    def lower_div(self, left: str, right: str) -> str:
        return f"ps_div((double)({left}), (double)({right}))"

    def _int_only(self, op: str, expr_l, expr_r) -> None:
        if self.kind(expr_l) == "real" or self.kind(expr_r) == "real":
            raise self.error(f"{op!r} on real operands is not supported in C")

    def lower_binop(self, expr) -> str:
        # div/mod need operand *types*, which the string-level hooks cannot
        # see — intercept here and delegate everything else to the walk.
        if expr.op in ("div", "mod"):
            self._int_only(expr.op, expr.left, expr.right)
            left = self.lower(expr.left)
            right = self.lower(expr.right)
            helper = "ps_fdiv" if expr.op == "div" else "ps_mod"
            return f"{helper}({left}, {right})"
        return super().lower_binop(expr)

    # -- the facts stack ----------------------------------------------------
    #
    # Lazy constructs evaluate an operand only when a guard came out one
    # way: the right side of ``and`` / ``or`` under the left, each branch
    # of an ``if`` under its condition. The walk brackets exactly those
    # operands with push_fact / pop_fact, so a subclass that tracks what is
    # known at the point of emission (the native kernel's range proof) sees
    # every guard an array reference sits under. No-ops here.

    def push_fact(self, cond: Expr, truth: bool) -> None:
        """``cond`` evaluated to ``truth`` for everything lowered until the
        matching :meth:`pop_fact`."""

    def pop_fact(self) -> None:
        pass

    def lower_binop_logical(self, expr) -> str:
        tmp = self.fresh("_b")
        left = self.lower(expr.left)
        self.stmt(f"int64_t {tmp} = {self.truth(left, expr.left)};")
        opener = f"if ({tmp}) {{" if expr.op == "and" else f"if (!{tmp}) {{"
        self.stmt(opener)
        self.indent += 1
        self.push_fact(expr.left, expr.op == "and")
        right = self.lower(expr.right)
        self.pop_fact()
        self.stmt(f"{tmp} = {self.truth(right, expr.right)};")
        self.indent -= 1
        self.stmt("}")
        return tmp

    def lower(self, expr: Expr) -> str:
        if isinstance(expr, BinOp) and expr.op in ("and", "or"):
            return self.lower_binop_logical(expr)
        return super().lower(expr)

    def lower_not(self, operand: str) -> str:
        return f"(!({operand} != 0))"

    def lower_if(self, expr: IfExpr) -> str:
        """A real ``if``/``else`` block: the untaken branch (and its range
        checks) is never evaluated — the reference lazy semantics."""
        ctype = C_VALUE_TYPES[self.kind(expr)]
        tmp = self.fresh("_v")
        self.stmt(f"{ctype} {tmp};")
        cond = self.lower(expr.cond)
        self.stmt(f"if {self.truth(cond, expr.cond)} {{")
        self.indent += 1
        self.push_fact(expr.cond, True)
        then = self.lower(expr.then)
        self.pop_fact()
        self.stmt(f"{tmp} = ({ctype})({then});")
        self.indent -= 1
        self.stmt("} else {")
        self.indent += 1
        self.push_fact(expr.cond, False)
        orelse = self.lower(expr.orelse)
        self.pop_fact()
        self.stmt(f"{tmp} = ({ctype})({orelse});")
        self.indent -= 1
        self.stmt("}")
        return tmp

    def lower_call(self, expr: Call) -> str:
        from repro.ps.semantics import is_builtin

        fn = expr.func
        if not is_builtin(fn):
            raise self.error(f"module call {fn!r} cannot run natively")
        if fn not in NATIVE_BUILTINS:
            raise self.error(f"builtin {fn!r} is not bit-exact in C")
        args = [self.lower(a) for a in expr.args]
        kinds = [self.kind(a) for a in expr.args]
        if fn == "abs":
            if kinds[0] == "real":
                return f"fabs({args[0]})"
            return f"ps_abs_i({args[0]})"
        if fn == "sqrt":
            return f"sqrt((double)({args[0]}))"
        if fn in ("min", "max"):
            if "real" in kinds:
                helper = "ps_min" if fn == "min" else "ps_max"
                return (
                    f"{helper}((double)({args[0]}), (double)({args[1]}))"
                )
            helper = "ps_min_i" if fn == "min" else "ps_max_i"
            return f"{helper}({args[0]}, {args[1]})"
        # floor/ceil/trunc/round: NumPy computes in float64 then casts to
        # int64 — mirror the double round-trip exactly. nearbyint under the
        # default rounding mode is round-half-even, matching np.round.
        cfn = {"floor": "floor", "ceil": "ceil", "trunc": "trunc",
               "round": "nearbyint"}[fn]
        return f"(i64){cfn}((double)({args[0]}))"

    def lower_name(self, ident: str) -> str:  # pragma: no cover - abstract
        raise NotImplementedError

    def lower_array_ref(self, name, subscripts):  # pragma: no cover
        raise NotImplementedError
