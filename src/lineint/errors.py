"""Domain errors with stable machine-readable codes.

Every failure mode of the library raises a subclass of :class:`CalculusError`.
The ``code`` attribute is the stable identifier surfaced by the command line
tool; messages are free text and may change.
"""

from __future__ import annotations


def _written(x, text=str):
    """text(x), or None if it has more digits than Python writes out."""
    try:
        return text(x)
    except ValueError:
        return None


def _named(noun, x, text=str, ends=False):
    """f"{noun} {text(x)}": how a refusal names a value.  A value too long
    to write leaves the noun alone or, if it ends the message, says so."""
    written = _written(x, text)
    if written is None:
        return f"{noun} a value too long to write" if ends else noun
    return f"{noun} {written}"


class CalculusError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "domain-error"

    def payload(self) -> dict:
        """Machine-readable form of the error."""
        return {"error": self.code, "message": str(self)}


class InvalidInputError(CalculusError):
    """A precondition on operation inputs was violated."""

    code = "invalid-input"


class NotIntegralError(CalculusError):
    """Reduction mod p was requested for a value outside the integer ring."""

    code = "not-integral"


class NonUnitError(CalculusError):
    """An operation needed a unit (invertible element) and did not get one."""

    code = "non-unit"


class IntegralObstructionError(CalculusError):
    """A form with nonzero residue has no series antiderivative.

    The offending residue is kept on the exception; the command line tool
    reports it inside the error object (null if too long to write).
    """

    code = "integral-obstruction"

    def __init__(self, message, residue):
        super().__init__(message)
        self.residue = residue

    def payload(self) -> dict:
        out = super().payload()
        out["residue"] = _written(self.residue)
        return out


class IntegralityError(CalculusError):
    """A coefficient left the integer ring where the target ring forbids it."""

    code = "integrality"


class InsufficientWindowError(CalculusError):
    """The known truncation window is too small to answer the question."""

    code = "insufficient-window"


class CannotDetermineDegreeError(CalculusError):
    """No coefficient of valuation zero is visible inside the window."""

    code = "cannot-determine-degree"


class NotFramedError(CalculusError):
    """A connection matrix is not strictly block upper triangular."""

    code = "not-framed"


class DisjointWindowsError(CalculusError):
    """Two series were compared on windows with no common degree."""

    code = "disjoint-windows"


class ParseError(CalculusError):
    """Input text does not match the series grammar."""

    code = "parse-error"

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at column {position + 1})"
        super().__init__(message)
        self.position = position
