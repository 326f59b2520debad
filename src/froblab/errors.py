"""Exception types shared across the package."""


class FroblabError(Exception):
    """Base class for all errors raised by this package."""


class CapacityError(FroblabError):
    """A configured enumeration or degree cap would be exceeded."""


class UnsupportedInputError(FroblabError):
    """The input is outside the class this operation decides exactly."""


class InvalidParametersError(FroblabError):
    """The parameter sequence does not cut the quotient down to finite length."""


class OracleMismatchError(FroblabError):
    """Two independent computation routes disagreed; this is a bug detector."""


class ParseError(FroblabError):
    """Malformed textual input."""
