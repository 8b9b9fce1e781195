"""Exception types shared across the package."""


class WsectionsError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(WsectionsError, ValueError):
    """Malformed input: bad composition, out-of-range entry, non-neighboring pair."""


class InvalidStateError(WsectionsError, RuntimeError):
    """An operation was applied to a line set in the wrong stage."""


class P1ViolationError(WsectionsError):
    """No disjoint family of composite lines covers the rows between a pair."""


class P1UniquenessError(P1ViolationError):
    """More than one covering family of composite lines exists."""


class UndefinedGradingError(WsectionsError):
    """Top term requested for the zero polynomial."""


class SectionDefectError(WsectionsError):
    """A minor restricted to the section is not of the contractual shape."""


class NilfibreViolationError(WsectionsError):
    """An invariant failed to vanish where it must."""


class OutputError(WsectionsError):
    """A report or rendering could not be written to the requested place."""


class ResourceLimitError(WsectionsError):
    """A symbolic computation exceeded the configured size guard."""


class InternalError(WsectionsError):
    """An internal consistency check failed; indicates a bug."""
