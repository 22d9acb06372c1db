"""Exception hierarchy shared by all modules.

Every error raised on purpose by this package derives from CorecError, so
callers (and the command line driver) can distinguish "bad input" from
genuine bugs.
"""


class CorecError(Exception):
    """Base class for all errors raised by this package."""


class DuplicateSymbol(CorecError):
    """A signature declares the same operation symbol twice."""


class EmptySignature(CorecError):
    """A signature must contain at least one operation symbol."""


class ArityMismatch(CorecError):
    """An argument list does not match the symbol's declared arity."""


class SizeLimitExceeded(CorecError):
    """An enumeration would exceed the configured budget."""


class UnboundAtom(CorecError):
    """A substitution is not defined on some atom of the term."""


class SignatureMismatch(CorecError):
    """Two values that must share a signature do not."""


class ReservedParameter(CorecError):
    """The cut label is reserved and may not appear in user input."""


class MissingAssignment(CorecError):
    """A grafting assignment does not cover some parameter."""


class NonUnarySignature(CorecError):
    """The operation needs a signature whose symbols are all unary."""


class HasParameters(CorecError):
    """The tree has parameter leaves where a closed tree is required."""


class ParameterMismatch(CorecError):
    """Two systems being composed do not fit at their shared interface."""


class UnsupportedSystem(CorecError):
    """The equation system is outside the fragment the operation handles."""


class InvalidAnchor(CorecError):
    """The given map is not an anchor for the system and algebra."""


class NoLargeAritySymbol(CorecError):
    """The witness construction needs a symbol of arity at least two."""


class UndeclaredName(CorecError):
    """A name is used without being declared."""


class IncompleteTable(CorecError):
    """An operation table is missing at least one row."""


class ParseError(CorecError):
    """Malformed input text; carries a position when one is known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
