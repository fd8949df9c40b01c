"""Exception hierarchy for the PS compiler reproduction.

Every stage of the pipeline raises a distinct subclass of :class:`ReproError`
so callers can discriminate front-end problems (bad source) from scheduling
problems (the paper's algorithm signalling "the equations cannot be scheduled
by this algorithm", step 2a of Schedule-Component) and from transformation
infeasibility (no strictly positive time vector exists).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class SourceError(ReproError):
    """A front-end error that carries a source location."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (at line {line}" + (
                f", column {column})" if column is not None else ")"
            )
        super().__init__(message)


class LexError(SourceError):
    """Invalid character or malformed token in PS source."""


class ParseError(SourceError):
    """PS source does not conform to the grammar."""


class SemanticError(SourceError):
    """Well-formed PS source with inconsistent meaning (types, arity,
    undeclared names, duplicate definitions, ...)."""


class CoverageError(SemanticError):
    """Single-assignment violation: a variable's definition domains overlap,
    or (when decidable) fail to cover the declared extent."""


class ScheduleError(ReproError):
    """Raised when Schedule-Component signals that no dimension can be
    scheduled for a multi-node component (paper step 2a)."""


class InconsistentPositionError(ScheduleError):
    """A subrange appears in inconsistent positions across the nodes of a
    component (paper step 3 and its footnote example
    ``A[I,J] = A[I,J-1] + A[J,I]``)."""


class TransformError(ReproError):
    """The hyperplane transformation does not apply (non-constant offsets,
    infeasible dependence inequalities, ...)."""


class InfeasibleScheduleError(TransformError):
    """No integer time vector satisfies the strict dependence inequalities
    (e.g. a dependence cycle with zero total distance)."""


class ExecutionError(ReproError):
    """Runtime failure while interpreting a flowchart (unbound variable,
    read of an element outside a window, ...)."""


class CodegenError(ReproError):
    """The code generator cannot emit a construct. The listings of
    ``repro compile`` never raise it: they name what does not lower."""


class SessionError(ReproError):
    """Misuse of the serve layer: a run on a closed
    :class:`~repro.serve.session.Session`, an unknown module name, a
    module-name collision between two loaded sources, ..."""


class ClientError(ReproError):
    """A serve-daemon request failed: the structured error the daemon
    returned (its ``type`` is in :attr:`kind`), or a transport failure
    talking to it."""

    def __init__(self, message: str, kind: str = "ClientError"):
        self.kind = kind
        super().__init__(message)
