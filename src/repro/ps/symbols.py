"""Symbol table for PS modules.

Symbols are the module's data items: input parameters, results and local
variables. Type names (subranges, enums, records) live in a separate
namespace that shares the identifier space — PS resolves a name appearing in
an expression to either a data symbol, an enum member, or a subrange type
used as an index variable (section 2: "the superscripts and subscripts are
not differentiated").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import SemanticError
from repro.ps.types import SubrangeType, Type


class SymbolKind(enum.Enum):
    PARAM = "param"
    RESULT = "result"
    VAR = "var"


@dataclass
class Symbol:
    """A data item declared by a module."""

    name: str
    kind: SymbolKind
    type: Type
    order: int  # declaration order, used for deterministic graph layout


@dataclass
class SymbolTable:
    symbols: dict[str, Symbol] = field(default_factory=dict)
    subranges: dict[str, SubrangeType] = field(default_factory=dict)
    enums: dict[str, "object"] = field(default_factory=dict)  # name -> EnumType
    enum_members: dict[str, tuple[object, int]] = field(default_factory=dict)
    records: dict[str, Type] = field(default_factory=dict)
    _order: int = 0

    def declare_symbol(self, name: str, kind: SymbolKind, type_: Type, line: int = 0) -> Symbol:
        self._check_free(name, line)
        sym = Symbol(name, kind, type_, self._order)
        self._order += 1
        self.symbols[name] = sym
        return sym

    def declare_subrange(self, sub: SubrangeType, line: int = 0) -> None:
        self._check_free(sub.name, line)
        self.subranges[sub.name] = sub

    def declare_enum(self, name: str, enum_type, line: int = 0) -> None:
        self._check_free(name, line)
        self.enums[name] = enum_type
        for i, member in enumerate(enum_type.members):
            if member in self.enum_members:
                raise SemanticError(f"duplicate enum member {member!r}", line)
            self._check_free(member, line)
            self.enum_members[member] = (enum_type, i)

    def declare_record(self, name: str, rec_type: Type, line: int = 0) -> None:
        self._check_free(name, line)
        self.records[name] = rec_type

    def _check_free(self, name: str, line: int) -> None:
        if (
            name in self.symbols
            or name in self.subranges
            or name in self.enums
            or name in self.enum_members
            or name in self.records
        ):
            raise SemanticError(f"duplicate declaration of {name!r}", line)

    # -- lookups -------------------------------------------------------------

    def symbol(self, name: str) -> Symbol | None:
        return self.symbols.get(name)

    def subrange(self, name: str) -> SubrangeType | None:
        return self.subranges.get(name)
