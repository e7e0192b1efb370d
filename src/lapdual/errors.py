"""Exception types shared across the package, and the property tags that
UnknownTag guards, kept here so the CLI help can list them without loading a
layer."""


class LapdualError(Exception):
    """Base class for all package-specific errors."""


class MalformedInput(LapdualError):
    """Input JSON or text does not match the documented schema."""


class NotSquare(LapdualError):
    pass


class NotSymmetric(LapdualError):
    pass


class NotUnimodular(LapdualError):
    pass


class ShapeMismatch(LapdualError):
    pass


class InvalidReductionSpec(LapdualError):
    pass


class NotMaximalForest(LapdualError):
    pass


class NotCotreeEdge(LapdualError):
    pass


class EmptyOrFullSet(LapdualError):
    pass


class BudgetExceeded(LapdualError):
    """A bounded search ran out of budget before reaching an answer."""


class UnknownTag(LapdualError):
    pass


# the tags `properties.verify_property` accepts, in the order of its checks
PROPERTY_TAGS = ("I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX", "X", "XI",
                 "I*", "II*", "IV*", "V*", "VI*", "VII*", "VIII*", "IX*")


class LoopCountMismatch(LapdualError):
    pass


class RowSumNonzero(LapdualError):
    pass


class TraceTooLarge(LapdualError):
    """Gram trace exceeds twice the nonzero-column count; carries the offending column."""

    def __init__(self, message, column=None):
        super().__init__(message)
        self.column = column


class NonplanarInput(LapdualError):
    pass
