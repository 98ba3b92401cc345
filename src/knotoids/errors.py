"""Exception hierarchy for the knotoids package."""


class KnotoidError(Exception):
    """Base class for all errors raised by this package."""


class CodeSyntaxError(KnotoidError):
    """Input text does not follow the Gauss-code grammar."""


class DuplicateRole(KnotoidError):
    """A crossing label occurs twice with the same O/U role."""


class SignMismatch(KnotoidError):
    """The two occurrences of a crossing label carry different signs."""


class OddOccurrence(KnotoidError):
    """A crossing label occurs once, or more than twice."""


class ShapeError(KnotoidError):
    """The diagram has the wrong component shape for the requested operation."""


class LimitExceeded(KnotoidError):
    """The crossing count exceeds the configured state-sum limit."""


class UnknownEntry(KnotoidError):
    """No bundled catalog entry has the requested id."""


class IncompleteChoice(KnotoidError):
    """A smoothing assignment does not cover every crossing."""


class InapplicableMove(KnotoidError):
    """A rewriting move was applied at a site that does not match its pattern."""


class ParityError(KnotoidError):
    """An internal parity consistency check failed (corrupt ribbon data)."""
