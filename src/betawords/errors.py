"""Exception hierarchy shared by all betawords modules."""


class BetawordsError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(BetawordsError):
    """Malformed or out-of-domain input (bad digits, negative x, non-factor)."""


class InvalidParamsError(InvalidInputError):
    """Parameter pair violates a-1 >= b >= 1."""


class DigitCountError(InvalidInputError):
    """Fewer digits asked of a beta-expansion than x has before the point."""


class UsageError(BetawordsError):
    """A command line the CLI cannot parse; `betawords` exits 2."""


class UnsupportedVariantError(BetawordsError):
    """Operation requested for a variant outside its domain.

    Raised e.g. for simple (finite) Renyi expansions where the canonical
    substitution is not defined here, or for the U/V towers on the Sturmian
    boundary b = a-1.
    """


class PrecisionError(BetawordsError):
    """Numeric result could not be classified at the working precision."""


class VerificationError(BetawordsError):
    """An identity that must hold was violated; carries a context dump."""

    def __init__(self, message, context=None):
        super().__init__(message)
        self.context = context or {}
