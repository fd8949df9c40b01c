"""Semantic analysis for PS modules.

This stage turns the parse tree into the compiler's *internal form* (the
paper's "front end ... stores the entire program in an internal form"):

* declarations are resolved into semantic types (subranges keep symbolic
  bound expressions);
* every equation is given its **dimension list** — the index variables it is
  implicitly universally quantified over. Explicit dimensions come from index
  variables in the left-hand-side subscripts (``A[K,I,J]``); *implicit*
  dimensions arise when the target is still array-typed after explicit
  subscripting (``A[1] = InitialA`` is quantified over ``I`` and ``J``);
* the right-hand side is **normalised**: every reference to an array-valued
  item is completed with identity subscripts over the implicit dimensions, so
  downstream stages (dependency-graph construction, scheduling, evaluation,
  code generation) see fully-subscripted element-wise equations;
* every data reference (array or scalar) is collected for dependency-graph
  construction.

The analyzer enforces the single-assignment discipline of the language (each
non-input item defined, inputs never redefined) with the decidable-overlap
checks in :mod:`repro.ps.coverage`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace

from repro.errors import SemanticError
from repro.ps.ast import (
    ArrayTypeExpr,
    BinOp,
    BoolLit,
    Call,
    EnumTypeExpr,
    Equation,
    Expr,
    FieldRef,
    IfExpr,
    Index,
    IntLit,
    Module,
    Name,
    NamedTypeExpr,
    Program,
    RangeTypeExpr,
    RealLit,
    RecordTypeExpr,
    TypeExpr,
    UnOp,
    map_children,
    walk_expr,
)
from repro.ps.symbols import Symbol, SymbolKind, SymbolTable
from repro.ps.types import (
    ArrayType,
    BoolType,
    EnumType,
    IntType,
    RealType,
    RecordType,
    SubrangeType,
    TupleType,
    Type,
    is_integral,
    is_numeric,
    unify_numeric,
)

# ---------------------------------------------------------------------------
# Builtin functions
# ---------------------------------------------------------------------------

#: name -> (arity, kind) where kind selects the result-type rule:
#:   "real"   numeric args, real result
#:   "same"   numeric args, unified numeric result
#:   "int"    numeric args, int result
_BUILTINS: dict[str, tuple[int, str]] = {
    "abs": (1, "same"),
    "sqrt": (1, "real"),
    "sin": (1, "real"),
    "cos": (1, "real"),
    "tan": (1, "real"),
    "exp": (1, "real"),
    "ln": (1, "real"),
    "log": (1, "real"),
    "min": (2, "same"),
    "max": (2, "same"),
    "floor": (1, "int"),
    "ceil": (1, "int"),
    "trunc": (1, "int"),
    "round": (1, "int"),
}


def is_builtin(name: str) -> bool:
    return name in _BUILTINS


# ---------------------------------------------------------------------------
# Analyzed structures
# ---------------------------------------------------------------------------


@dataclass
class EquationDim:
    """One dimension an equation is quantified over."""

    index: str  # index variable name (the subrange's name, or synthetic)
    subrange: SubrangeType
    implicit: bool = False

    def __repr__(self) -> str:  # pragma: no cover
        tag = "~" if self.implicit else ""
        return f"{tag}{self.index}"


@dataclass
class Reference:
    """A reference to a data item inside an equation's right-hand side (or
    inside a subscript). ``subscripts`` are the normalised, full subscripts —
    empty for scalar references."""

    name: str
    subscripts: list[Expr]
    fieldpath: tuple[str, ...] = ()
    explicit: int = 0  # how many subscripts were written in the source


@dataclass
class AnalyzedTarget:
    """A left-hand-side target with normalised subscripts."""

    name: str
    subscripts: list[Expr]
    explicit: int = 0


@dataclass
class AnalyzedEquation:
    source: Equation
    label: str
    dims: list[EquationDim]
    targets: list[AnalyzedTarget]
    rhs: Expr  # normalised right-hand side
    refs: list[Reference]
    bound_uses: list[str]  # symbols referenced by the dims' subrange bounds
    calls: list[str]
    rhs_type: Type
    atomic: bool = False  # multi-target module-call equations execute wholesale
    #: cached vectorisation-safety verdict, filled at flowchart-build time
    #: (or lazily on first use) — see ``repro.schedule.flowchart``
    vector_safe: bool | None = None

    @property
    def index_names(self) -> list[str]:
        return [d.index for d in self.dims]


@dataclass
class AnalyzedModule:
    module: Module
    table: SymbolTable
    equations: list[AnalyzedEquation]
    warnings: list[str] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.module.name

    def symbol(self, name: str) -> Symbol:
        sym = self.table.symbol(name)
        if sym is None:
            raise KeyError(name)
        return sym

    @property
    def param_names(self) -> list[str]:
        return [p.name for p in self.module.params]

    @property
    def result_names(self) -> list[str]:
        return [r.name for r in self.module.results]


#: an inlinable module: (its parameter names, its one result as an
#: expression over them)
InlineBody = tuple[list[str], Expr]


@dataclass
class AnalyzedProgram:
    modules: dict[str, AnalyzedModule]
    #: module name -> what a call to it inlines to (:func:`inline_body`),
    #: None for a module whose calls stay calls
    inline: dict[str, InlineBody | None] = field(default_factory=dict)

    def __getitem__(self, name: str) -> AnalyzedModule:
        return self.modules[name]


# ---------------------------------------------------------------------------
# Type resolution
# ---------------------------------------------------------------------------


class _TypeResolver:
    def __init__(self, table: SymbolTable):
        self.table = table

    def resolve(self, te: TypeExpr, name_hint: str | None = None) -> Type:
        if isinstance(te, NamedTypeExpr):
            if te.name == "int":
                return IntType
            if te.name == "real":
                return RealType
            if te.name == "bool":
                return BoolType
            sub = self.table.subrange(te.name)
            if sub is not None:
                return sub
            if te.name in self.table.enums:
                return self.table.enums[te.name]  # type: ignore[return-value]
            if te.name in self.table.records:
                return self.table.records[te.name]
            raise SemanticError(f"unknown type {te.name!r}", te.line, te.column)
        if isinstance(te, RangeTypeExpr):
            if name_hint:
                return SubrangeType(name_hint, te.lo, te.hi)
            return SubrangeType.fresh(te.lo, te.hi)
        if isinstance(te, ArrayTypeExpr):
            dims = [self._resolve_dim(d) for d in te.dims]
            element = self.resolve(te.element)
            if isinstance(element, ArrayType):
                # Flatten: the paper's A has "dimensionality which is the sum
                # of subscripts and superscripts".
                dims = dims + element.dims
                element = element.element
            return ArrayType(dims, element)
        if isinstance(te, RecordTypeExpr):
            fields: dict[str, Type] = {}
            for names, fte in te.fields:
                ftype = self.resolve(fte)
                for n in names:
                    if n in fields:
                        raise SemanticError(f"duplicate record field {n!r}", te.line)
                    fields[n] = ftype
            return RecordType(name_hint or "$record", fields)
        if isinstance(te, EnumTypeExpr):
            return EnumType(name_hint or "$enum", list(te.members))
        raise SemanticError(f"unsupported type expression {type(te).__name__}", te.line)

    def _resolve_dim(self, te: TypeExpr) -> SubrangeType:
        t = self.resolve(te)
        if not isinstance(t, SubrangeType):
            raise SemanticError(
                f"array dimension must be a subrange, got {t}", te.line, te.column
            )
        return t


# ---------------------------------------------------------------------------
# Module analysis
# ---------------------------------------------------------------------------


class ModuleAnalyzer:
    def __init__(self, module: Module, signatures: dict[str, tuple[list[Type], list[Type]]]):
        self.module = module
        self.signatures = signatures
        self.table = SymbolTable()
        self.resolver = _TypeResolver(self.table)
        self.warnings: list[str] = []

    # -- declarations ---------------------------------------------------------

    def _declare_types(self) -> None:
        for decl in self.module.typedecls:
            te = decl.typeexpr
            if isinstance(te, RangeTypeExpr):
                for name in decl.names:
                    self.table.declare_subrange(
                        SubrangeType(name, te.lo, te.hi), decl.line
                    )
            elif isinstance(te, EnumTypeExpr):
                for name in decl.names:
                    self.table.declare_enum(
                        name, EnumType(name, list(te.members)), decl.line
                    )
            elif isinstance(te, RecordTypeExpr):
                for name in decl.names:
                    rec = self.resolver.resolve(te, name_hint=name)
                    self.table.declare_record(name, rec, decl.line)
            elif isinstance(te, NamedTypeExpr):
                # alias of an existing type
                resolved = self.resolver.resolve(te)
                for name in decl.names:
                    if isinstance(resolved, SubrangeType):
                        self.table.declare_subrange(
                            SubrangeType(name, resolved.lo, resolved.hi), decl.line
                        )
                    elif isinstance(resolved, EnumType):
                        self.table.declare_enum(name, resolved, decl.line)
                    else:
                        self.table.declare_record(name, resolved, decl.line)
            elif isinstance(te, ArrayTypeExpr):
                for name in decl.names:
                    self.table.declare_record(name, self.resolver.resolve(te), decl.line)
            else:
                raise SemanticError("unsupported type declaration", decl.line)

    def _declare_data(self) -> None:
        for p in self.module.params:
            self.table.declare_symbol(
                p.name, SymbolKind.PARAM, self.resolver.resolve(p.typeexpr), p.line
            )
        for r in self.module.results:
            self.table.declare_symbol(
                r.name, SymbolKind.RESULT, self.resolver.resolve(r.typeexpr), r.line
            )
        for decl in self.module.vardecls:
            t = self.resolver.resolve(decl.typeexpr)
            for name in decl.names:
                self.table.declare_symbol(name, SymbolKind.VAR, t, decl.line)

    def _validate_bounds(self) -> None:
        """Names inside subrange bounds must be integral data items."""
        seen: list[SubrangeType] = list(self.table.subranges.values())
        for sym in self.table.symbols.values():
            if isinstance(sym.type, ArrayType):
                seen.extend(sym.type.dims)
        for sub in seen:
            for bound in (sub.lo, sub.hi):
                for node in walk_expr(bound):
                    if isinstance(node, Name):
                        sym = self.table.symbol(node.ident)
                        if sym is None:
                            raise SemanticError(
                                f"unknown name {node.ident!r} in bound of subrange "
                                f"{sub.name!r}",
                                node.line,
                                node.column,
                            )
                        if not is_integral(sym.type):
                            raise SemanticError(
                                f"bound of subrange {sub.name!r} uses non-integer "
                                f"{node.ident!r}",
                                node.line,
                                node.column,
                            )

    # -- equations ------------------------------------------------------------

    def analyze(self) -> AnalyzedModule:
        self._declare_types()
        self._declare_data()
        self._validate_bounds()
        equations = [self._analyze_equation(eq) for eq in self.module.equations]
        analyzed = AnalyzedModule(self.module, self.table, equations, self.warnings)
        from repro.ps.coverage import check_coverage  # cycle-free local import

        check_coverage(analyzed)
        return analyzed

    def _analyze_equation(self, eq: Equation) -> AnalyzedEquation:
        if len(eq.lhs) > 1:
            return self._analyze_atomic_equation(eq)

        item = eq.lhs[0]
        sym = self._target_symbol(item.name, eq)
        dims: list[EquationDim] = []
        explicit_subs: list[Expr] = []
        used_index: set[str] = set()

        # Explicit subscripts: index variables or index-free expressions.
        arr_dims = sym.type.dims if isinstance(sym.type, ArrayType) else []
        if item.subscripts and not isinstance(sym.type, ArrayType):
            raise SemanticError(
                f"{item.name!r} is not an array but is subscripted", item.line
            )
        if len(item.subscripts) > len(arr_dims):
            raise SemanticError(
                f"too many subscripts for {item.name!r}", item.line
            )
        for sub in item.subscripts:
            if isinstance(sub, Name) and self.table.subrange(sub.ident) is not None:
                if sub.ident in used_index:
                    raise SemanticError(
                        f"index variable {sub.ident!r} appears twice on the "
                        f"left-hand side",
                        sub.line,
                    )
                used_index.add(sub.ident)
                dims.append(EquationDim(sub.ident, self.table.subrange(sub.ident)))
                explicit_subs.append(sub)
            else:
                # Must be an index-free integral expression (e.g. A[1], A[maxK]).
                self._check_constant_subscript(sub)
                explicit_subs.append(sub)

        # Implicit dimensions: whatever array extent remains.
        remaining: list[SubrangeType] = list(arr_dims[len(item.subscripts):])
        implicit_dims: list[EquationDim] = []
        for p, sub_t in enumerate(remaining):
            name = sub_t.name
            if sub_t.anonymous or name in used_index or any(d.index == name for d in dims):
                name = f"_i{len(item.subscripts) + p}"
            used_index.add(name)
            implicit_dims.append(EquationDim(name, sub_t, implicit=True))
        dims = dims + implicit_dims

        target_subs = explicit_subs + [
            Name(d.index, line=eq.line) for d in implicit_dims
        ]
        target = AnalyzedTarget(item.name, target_subs, explicit=len(item.subscripts))

        checker = _ExprChecker(self, dims)
        rhs_type, rhs = checker.check(eq.rhs)

        # The element type the RHS must produce.
        if isinstance(sym.type, ArrayType):
            expected: Type = sym.type.element
        else:
            expected = sym.type
        self._require_assignable(expected, rhs_type, eq)

        bound_uses = self._dim_bound_uses(dims)
        return AnalyzedEquation(
            source=eq,
            label=eq.label,
            dims=dims,
            targets=[target],
            rhs=rhs,
            refs=checker.refs,
            bound_uses=bound_uses,
            calls=checker.calls,
            rhs_type=rhs_type,
        )

    def _analyze_atomic_equation(self, eq: Equation) -> AnalyzedEquation:
        """Multi-target equations: ``x, y = SomeModule(...)``. Targets must be
        unsubscripted; the equation executes wholesale (no loops)."""
        targets: list[AnalyzedTarget] = []
        for item in eq.lhs:
            if item.subscripts:
                raise SemanticError(
                    "targets of a multi-variable equation must not be "
                    "subscripted",
                    item.line,
                )
            self._target_symbol(item.name, eq)
            targets.append(AnalyzedTarget(item.name, [], explicit=0))
        checker = _ExprChecker(self, dims=[], scalarize=False)
        rhs_type, rhs = checker.check(eq.rhs)
        if not isinstance(rhs_type, TupleType) or rhs_type.arity != len(targets):
            raise SemanticError(
                f"left-hand side has {len(eq.lhs)} targets but the right-hand "
                f"side has type {rhs_type}",
                eq.line,
            )
        for item, t in zip(eq.lhs, rhs_type.elements):
            sym = self.table.symbol(item.name)
            assert sym is not None
            self._require_assignable(sym.type, t, eq)
        return AnalyzedEquation(
            source=eq,
            label=eq.label,
            dims=[],
            targets=targets,
            rhs=rhs,
            refs=checker.refs,
            bound_uses=[],
            calls=checker.calls,
            rhs_type=rhs_type,
            atomic=True,
        )

    # -- helpers ----------------------------------------------------------------

    def _target_symbol(self, name: str, eq: Equation) -> Symbol:
        sym = self.table.symbol(name)
        if sym is None:
            raise SemanticError(f"undeclared target {name!r}", eq.line)
        if sym.kind is SymbolKind.PARAM:
            raise SemanticError(
                f"input parameter {name!r} cannot be defined (single "
                f"assignment)",
                eq.line,
            )
        return sym

    def _check_constant_subscript(self, sub: Expr) -> None:
        for node in walk_expr(sub):
            if isinstance(node, Name):
                if self.table.subrange(node.ident) is not None:
                    raise SemanticError(
                        f"left-hand-side subscript may be an index variable or "
                        f"an index-free expression; {node.ident!r} mixes both",
                        node.line,
                    )
                sym = self.table.symbol(node.ident)
                if sym is None or not is_integral(sym.type):
                    raise SemanticError(
                        f"invalid name {node.ident!r} in left-hand-side "
                        f"subscript",
                        node.line,
                    )

    def _require_assignable(self, expected: Type, actual: Type, eq: Equation) -> None:
        if expected == actual:
            return
        if expected == RealType and (actual == IntType or is_integral(actual)):
            return  # implicit int -> real widening
        raise SemanticError(
            f"type mismatch in {eq.label}: expected {expected}, got {actual}",
            eq.line,
        )

    def _dim_bound_uses(self, dims: list[EquationDim]) -> list[str]:
        uses: list[str] = []
        for d in dims:
            for bound in (d.subrange.lo, d.subrange.hi):
                for node in walk_expr(bound):
                    if isinstance(node, Name) and self.table.symbol(node.ident):
                        if node.ident not in uses:
                            uses.append(node.ident)
        return uses


# ---------------------------------------------------------------------------
# Expression checking + normalisation
# ---------------------------------------------------------------------------


class _ExprChecker:
    """Type-checks an expression and rewrites it into normalised form:
    array references gain identity subscripts over the equation's implicit
    dimensions so that every normalised expression is element-wise."""

    def __init__(self, owner: ModuleAnalyzer, dims: list[EquationDim], scalarize: bool = True):
        self.owner = owner
        self.table = owner.table
        self.dims = dims
        self.scalarize = scalarize
        self.refs: list[Reference] = []
        self.calls: list[str] = []

    def _dim(self, name: str) -> EquationDim | None:
        for d in self.dims:
            if d.index == name:
                return d
        return None

    def _implicit_dims(self) -> list[EquationDim]:
        return [d for d in self.dims if d.implicit]

    # The main entry: returns (type, normalised expression).
    def check(self, expr: Expr) -> tuple[Type, Expr]:
        t, e = self._check(expr)
        return t, e

    def _check(self, expr: Expr) -> tuple[Type, Expr]:
        if isinstance(expr, IntLit):
            return IntType, expr
        if isinstance(expr, RealLit):
            return RealType, expr
        if isinstance(expr, BoolLit):
            return BoolType, expr
        if isinstance(expr, Name):
            return self._check_name(expr)
        if isinstance(expr, Index):
            return self._check_index(expr)
        if isinstance(expr, FieldRef):
            return self._check_fieldref(expr, [])
        if isinstance(expr, Call):
            return self._check_call(expr)
        if isinstance(expr, BinOp):
            return self._check_binop(expr)
        if isinstance(expr, UnOp):
            return self._check_unop(expr)
        if isinstance(expr, IfExpr):
            return self._check_if(expr)
        raise SemanticError(f"unsupported expression {type(expr).__name__}", expr.line)

    # -- leaves -----------------------------------------------------------------

    def _check_name(self, expr: Name) -> tuple[Type, Expr]:
        d = self._dim(expr.ident)
        if d is not None:
            return d.subrange, expr
        sym = self.table.symbol(expr.ident)
        if sym is not None:
            return self._reference(sym, expr, [], ())
        if expr.ident in self.table.enum_members:
            enum_type, _ = self.table.enum_members[expr.ident]
            return enum_type, expr  # type: ignore[return-value]
        if self.table.subrange(expr.ident) is not None:
            raise SemanticError(
                f"index variable {expr.ident!r} is not bound by the left-hand "
                f"side of this equation",
                expr.line,
                expr.column,
            )
        raise SemanticError(f"undeclared name {expr.ident!r}", expr.line, expr.column)

    def _check_index(self, expr: Index) -> tuple[Type, Expr]:
        # Normalise subscripts first.
        checked_subs: list[Expr] = []
        for sub in expr.subscripts:
            st, se = self._check(sub)
            if not is_integral(st):
                raise SemanticError(
                    f"subscript must be integral, got {st}", sub.line, sub.column
                )
            checked_subs.append(se)

        base = expr.base
        if isinstance(base, Name):
            sym = self.table.symbol(base.ident)
            if sym is not None:
                return self._reference(sym, expr, checked_subs, ())
            raise SemanticError(
                f"cannot subscript {base.ident!r}", expr.line, expr.column
            )
        if isinstance(base, FieldRef):
            return self._check_fieldref(base, checked_subs)
        if isinstance(base, Call):
            ctype, cexpr = self._check_call(base)
            return self._index_value(ctype, cexpr, checked_subs, expr)
        raise SemanticError("unsupported indexing base", expr.line, expr.column)

    def _check_fieldref(self, expr: FieldRef, pending_subs: list[Expr]) -> tuple[Type, Expr]:
        # Walk down to the root name collecting the field path.
        path: list[str] = []
        node: Expr = expr
        while isinstance(node, FieldRef):
            path.append(node.fieldname)
            node = node.base
        path.reverse()
        if not isinstance(node, Name):
            raise SemanticError("field selection requires a named record", expr.line)
        sym = self.table.symbol(node.ident)
        if sym is None:
            raise SemanticError(f"undeclared name {node.ident!r}", node.line)
        t: Type = sym.type
        for f in path:
            if not isinstance(t, RecordType) or f not in t.fields:
                raise SemanticError(f"no field {f!r} in {t}", expr.line)
            t = t.fields[f]
        return self._reference(sym, expr, pending_subs, tuple(path), known_type=t)

    def _reference(
        self,
        sym: Symbol,
        node: Expr,
        subscripts: list[Expr],
        fieldpath: tuple[str, ...],
        known_type: Type | None = None,
    ) -> tuple[Type, Expr]:
        """Record a data reference, appending implicit identity subscripts if
        an array extent remains and scalarisation is on."""
        t = known_type if known_type is not None else sym.type
        if subscripts and not isinstance(t, ArrayType):
            raise SemanticError(f"{sym.name!r} is not an array", node.line)
        if isinstance(t, ArrayType):
            if len(subscripts) > t.rank:
                raise SemanticError(
                    f"too many subscripts for {sym.name!r}", node.line
                )
            result = t.drop_dims(len(subscripts))
        else:
            result = t

        norm_subs = list(subscripts)
        if self.scalarize and isinstance(result, ArrayType):
            implicit = self._implicit_dims()
            if len(implicit) != result.rank:
                raise SemanticError(
                    f"array-valued reference to {sym.name!r} has rank "
                    f"{result.rank} but the equation has {len(implicit)} "
                    f"implicit dimension(s)",
                    node.line,
                )
            for d, sub_t in zip(implicit, result.dims):
                if not d.subrange.bounds_equal(sub_t):
                    self.owner.warnings.append(
                        f"implicit dimension {d.index} and array "
                        f"{sym.name!r} dimension have different declared "
                        f"bounds"
                    )
                norm_subs.append(Name(d.index, line=node.line))
            result = (
                result.element if len(norm_subs) == t.rank else t.drop_dims(len(norm_subs))
            )

        # Build the normalised node.
        if isinstance(node, Index):
            base = node.base
        else:
            base = node
        norm: Expr
        if norm_subs:
            norm = Index(base, norm_subs, line=node.line, column=node.column)
        else:
            norm = base
        self.refs.append(
            Reference(
                sym.name,
                norm_subs,
                fieldpath=fieldpath,
                explicit=len(subscripts),
            )
        )
        return result, norm

    def _index_value(
        self, t: Type, value: Expr, subscripts: list[Expr], node: Index
    ) -> tuple[Type, Expr]:
        """Indexing a computed value (a call result)."""
        if not isinstance(t, ArrayType):
            raise SemanticError("cannot subscript a non-array value", node.line)
        if len(subscripts) > t.rank:
            raise SemanticError("too many subscripts", node.line)
        result = t.drop_dims(len(subscripts))
        norm_subs = list(subscripts)
        if self.scalarize and isinstance(result, ArrayType):
            implicit = self._implicit_dims()
            if len(implicit) != result.rank:
                raise SemanticError(
                    "array-valued call result does not match the equation's "
                    "implicit dimensions",
                    node.line,
                )
            for d in implicit:
                norm_subs.append(Name(d.index, line=node.line))
            result = t.drop_dims(len(norm_subs))
        return result, Index(value, norm_subs, line=node.line, column=node.column)

    # -- calls --------------------------------------------------------------------

    def _check_call(self, expr: Call) -> tuple[Type, Expr]:
        is_module_call = expr.func not in _BUILTINS
        args: list[Expr] = []
        arg_types: list[Type] = []
        for a in expr.args:
            if is_module_call:
                # Module arguments pass whole arrays — suppress the
                # element-wise rewriting while checking them.
                saved = self.scalarize
                self.scalarize = False
                try:
                    at, ae = self._check(a)
                finally:
                    self.scalarize = saved
            else:
                at, ae = self._check(a)
            arg_types.append(at)
            args.append(ae)
        norm = Call(expr.func, args, line=expr.line, column=expr.column)

        if expr.func in _BUILTINS:
            arity, kind = _BUILTINS[expr.func]
            if len(args) != arity:
                raise SemanticError(
                    f"builtin {expr.func!r} takes {arity} argument(s)", expr.line
                )
            for at in arg_types:
                if not is_numeric(at):
                    raise SemanticError(
                        f"builtin {expr.func!r} requires numeric arguments",
                        expr.line,
                    )
            if kind == "real":
                return RealType, norm
            if kind == "int":
                return IntType, norm
            out: Type = IntType
            for at in arg_types:
                u = unify_numeric(out, at)
                assert u is not None
                out = u
            return out, norm

        sig = self.owner.signatures.get(expr.func)
        if sig is None:
            raise SemanticError(f"unknown function or module {expr.func!r}", expr.line)
        param_types, result_types = sig
        if len(arg_types) != len(param_types):
            raise SemanticError(
                f"module {expr.func!r} takes {len(param_types)} argument(s), "
                f"got {len(arg_types)}",
                expr.line,
            )
        for i, (at, pt) in enumerate(zip(arg_types, param_types)):
            if not self._arg_compatible(pt, at):
                raise SemanticError(
                    f"argument {i + 1} of {expr.func!r}: expected {pt}, got {at}",
                    expr.line,
                )
        self.calls.append(expr.func)
        if len(result_types) == 1:
            rt = result_types[0]
            if self.scalarize and isinstance(rt, ArrayType):
                # An array-valued call result in element-wise context is
                # indexed over the equation's implicit dimensions.
                implicit = self._implicit_dims()
                if len(implicit) != rt.rank:
                    raise SemanticError(
                        f"array result of {expr.func!r} has rank {rt.rank} "
                        f"but the equation has {len(implicit)} implicit "
                        f"dimension(s)",
                        expr.line,
                    )
                subs: list[Expr] = [Name(d.index, line=expr.line) for d in implicit]
                return rt.element, Index(norm, subs, line=expr.line)
            return rt, norm
        return TupleType(list(result_types)), norm

    @staticmethod
    def _arg_compatible(expected: Type, actual: Type) -> bool:
        if expected == actual:
            return True
        if expected == RealType and (actual == IntType or is_integral(actual)):
            return True
        if isinstance(expected, ArrayType) and isinstance(actual, ArrayType):
            return expected.rank == actual.rank and expected.element == actual.element
        return False

    # -- operators ------------------------------------------------------------------

    def _check_binop(self, expr: BinOp) -> tuple[Type, Expr]:
        lt, le = self._check(expr.left)
        rt, re_ = self._check(expr.right)
        norm = BinOp(expr.op, le, re_, line=expr.line, column=expr.column)
        op = expr.op
        if op in ("+", "-", "*"):
            u = unify_numeric(lt, rt)
            if u is None:
                raise SemanticError(f"operator {op!r} requires numeric operands", expr.line)
            return u, norm
        if op == "/":
            if unify_numeric(lt, rt) is None:
                raise SemanticError("'/' requires numeric operands", expr.line)
            return RealType, norm
        if op in ("div", "mod"):
            if not (is_integral(lt) and is_integral(rt)):
                raise SemanticError(f"{op!r} requires integer operands", expr.line)
            return IntType, norm
        if op in ("=", "<>"):
            if unify_numeric(lt, rt) is None and lt != rt:
                raise SemanticError(
                    f"operands of {op!r} must be comparable ({lt} vs {rt})",
                    expr.line,
                )
            return BoolType, norm
        if op in ("<", "<=", ">", ">="):
            ok = unify_numeric(lt, rt) is not None or (
                isinstance(lt, EnumType) and lt == rt
            )
            if not ok:
                raise SemanticError(f"operands of {op!r} must be ordered", expr.line)
            return BoolType, norm
        if op in ("and", "or"):
            if lt != BoolType or rt != BoolType:
                raise SemanticError(f"operands of {op!r} must be bool", expr.line)
            return BoolType, norm
        raise SemanticError(f"unknown operator {op!r}", expr.line)

    def _check_unop(self, expr: UnOp) -> tuple[Type, Expr]:
        t, e = self._check(expr.operand)
        norm = UnOp(expr.op, e, line=expr.line, column=expr.column)
        if expr.op in ("-", "+"):
            if not is_numeric(t):
                raise SemanticError("unary sign requires a numeric operand", expr.line)
            return (IntType if is_integral(t) else RealType), norm
        if expr.op == "not":
            if t != BoolType:
                raise SemanticError("'not' requires a bool operand", expr.line)
            return BoolType, norm
        raise SemanticError(f"unknown unary operator {expr.op!r}", expr.line)

    def _check_if(self, expr: IfExpr) -> tuple[Type, Expr]:
        ct, ce = self._check(expr.cond)
        if ct != BoolType:
            raise SemanticError("'if' condition must be bool", expr.line)
        tt, te = self._check(expr.then)
        et, ee = self._check(expr.orelse)
        norm = IfExpr(ce, te, ee, line=expr.line, column=expr.column)
        if tt == et:
            return tt, norm
        u = unify_numeric(tt, et)
        if u is None:
            raise SemanticError(
                f"'if' branches have incompatible types ({tt} vs {et})", expr.line
            )
        return u, norm


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def _signature_of(analyzed: AnalyzedModule) -> tuple[list[Type], list[Type]]:
    params = [
        analyzed.table.symbol(p).type  # type: ignore[union-attr]
        for p in analyzed.param_names
    ]
    results = [
        analyzed.table.symbol(r).type  # type: ignore[union-attr]
        for r in analyzed.result_names
    ]
    return params, results


# ---------------------------------------------------------------------------
# Inlining loop-free scalar module calls
# ---------------------------------------------------------------------------

#: the data types an inlinable module may declare
_INLINE_TYPES = (IntType, RealType, BoolType)

#: the most expression nodes a module, or one call of it with its arguments
#: put in, may inline to: a local or parameter read twice doubles the
#: expression, so a chain of such locals or of nested calls must not
#: explode it
INLINE_MAX_NODES = 256


class _NotInlinable(Exception):
    pass


def _read_always(expr: Expr) -> set[str]:
    """The names ``expr`` reads on every evaluation: not those only inside
    an ``if`` branch or the short-circuited operand of ``and`` / ``or``."""
    if isinstance(expr, Name):
        return {expr.ident}
    if isinstance(expr, IfExpr):
        return _read_always(expr.cond)
    if isinstance(expr, BinOp):
        lazy = expr.op in ("and", "or")
        return _read_always(expr.left) | (set() if lazy else _read_always(expr.right))
    if isinstance(expr, UnOp):
        return _read_always(expr.operand)
    if isinstance(expr, Call):
        return set().union(*map(_read_always, expr.args))
    return set()


def inline_body(analyzed: AnalyzedModule) -> InlineBody | None:
    """What a call to ``analyzed`` is replaced with, or None when calls to
    it stay calls. A module qualifies when it has no loops; every
    parameter, result and local is an ``int``, ``real`` or ``bool``
    scalar; it has exactly one result; and that result reads every
    parameter and local on every evaluation (outside any ``if`` branch),
    so every argument is still evaluated on every call. Locals become
    their defining expressions; the module's own calls were inlined when
    it was analysed, so a call left in it is one that stays, and it does
    not qualify. A call binds scalar arguments and results without
    coercion, so the substituted expression computes the value the call
    returns."""
    if len(analyzed.result_names) != 1 or any(
        eq.atomic or eq.dims for eq in analyzed.equations
    ):
        return None
    if any(sym.type not in _INLINE_TYPES for sym in analyzed.table.symbols.values()):
        return None
    params = set(analyzed.param_names)
    defs = {eq.targets[0].name: eq.rhs for eq in analyzed.equations}
    result = analyzed.result_names[0]
    read: set[str] = set()
    pending = [defs[result]]
    while pending:
        for name in _read_always(pending.pop()) - read:
            read.add(name)
            if name in defs:
                pending.append(defs[name])
    if not set(analyzed.table.symbols) - {result} <= read:
        return None
    budget = [INLINE_MAX_NODES]

    def expand(expr: Expr) -> Expr:
        budget[0] -= 1
        if budget[0] < 0 or (isinstance(expr, Call) and not is_builtin(expr.func)):
            raise _NotInlinable
        if isinstance(expr, Name) and expr.ident not in params:
            if expr.ident not in defs:
                raise _NotInlinable  # an enum member
            return expand(defs[expr.ident])
        return map_children(expr, expand)

    try:
        return analyzed.param_names, expand(defs[result])
    except _NotInlinable:
        return None


def _size(expr: Expr) -> int:
    return sum(1 for _ in walk_expr(expr))


def _inline_calls(expr: Expr, inline: dict[str, InlineBody | None]) -> Expr:
    """``expr`` with every call of an inlinable module replaced by the
    module's result, its parameters bound to the call's arguments. An
    argument is pasted once per read of its parameter, so a call stays a
    call when that would run a kept module call more than once, or grow
    the expression past ``INLINE_MAX_NODES`` (a nest of calls that each
    read their parameter twice would double per level)."""
    expr = map_children(expr, lambda e: _inline_calls(e, inline))
    if not isinstance(expr, Call) or inline.get(expr.func) is None:
        return expr
    params, body = inline[expr.func]
    reads = Counter(e.ident for e in walk_expr(body) if isinstance(e, Name))
    size = _size(body)
    for param, arg in zip(params, expr.args):
        if reads[param] > 1 and any(
            isinstance(e, Call) and not is_builtin(e.func) for e in walk_expr(arg)
        ):
            return expr
        size += reads[param] * (_size(arg) - 1)
    if size > INLINE_MAX_NODES:
        return expr
    args = dict(zip(params, expr.args))

    def bind(e: Expr) -> Expr:
        return args[e.ident] if isinstance(e, Name) else map_children(e, bind)

    return bind(body)


def _analyze(
    module: Module,
    signatures: dict[str, tuple[list[Type], list[Type]]],
    inline: dict[str, InlineBody | None],
) -> AnalyzedModule:
    """Analyse ``module``; when it calls an inlinable module, analyse it
    again with those calls inlined. The first pass checks the program as
    written (a callee's declared types), the second is what runs."""
    analyzed = ModuleAnalyzer(module, signatures).analyze()
    if not any(inline.get(name) for eq in analyzed.equations for name in eq.calls):
        return analyzed
    equations = [
        replace(eq, rhs=_inline_calls(eq.rhs, inline)) for eq in module.equations
    ]
    return ModuleAnalyzer(replace(module, equations=equations), signatures).analyze()


def analyze_program(program: Program) -> AnalyzedProgram:
    """Analyze all modules. A module may call any module defined *before* it
    in the program (no forward references, no recursion between modules);
    a call of a loop-free scalar module is inlined (:func:`inline_body`)."""
    signatures: dict[str, tuple[list[Type], list[Type]]] = {}
    modules: dict[str, AnalyzedModule] = {}
    inline: dict[str, InlineBody | None] = {}
    for mod in program.modules:
        if mod.name in modules:
            raise SemanticError(f"duplicate module {mod.name!r}", mod.line)
        analyzed = _analyze(mod, signatures, inline)
        modules[mod.name] = analyzed
        signatures[mod.name] = _signature_of(analyzed)
        inline[mod.name] = inline_body(analyzed)
    return AnalyzedProgram(modules, inline)


def analyze_module(module: Module, program: AnalyzedProgram | None = None) -> AnalyzedModule:
    """Analyze a single module; ``program`` supplies callable modules (and
    inlines the calls it can, as :func:`analyze_program` does)."""
    if program is None:
        return ModuleAnalyzer(module, {}).analyze()
    signatures = {name: _signature_of(m) for name, m in program.modules.items()}
    return _analyze(module, signatures, program.inline)
