"""Exception types shared across the package."""


class CcsymError(Exception):
    """Base class for all package errors."""


class SignatureMismatch(CcsymError):
    """Two operands live over different algebra signatures."""


class NotAUnit(CcsymError):
    """Inversion or a negative power was requested for a non-unit."""


class NotNilpotent(CcsymError):
    """An operation requiring an element of the maximal ideal got a unit."""


class NotInvertible(CcsymError):
    """A Laurent series or rational function has no invertible reduction."""


class InsufficientTruncation(CcsymError):
    """The truncation window is too short to determine the requested data;
    `missing`, when not 0, is the fewest orders it falls short by."""

    def __init__(self, message: str, missing: int = 0):
        super().__init__(message)
        self.missing = missing


class PathError(CcsymError):
    """Malformed path: segments do not chain, or base points disagree."""


class PoleOnPath(CcsymError):
    """An integration path hits or passes too close to a pole."""


class InputError(CcsymError):
    """Bad textual input (expression grammar, CLI flags)."""
