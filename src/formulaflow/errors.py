"""Exception types shared across the package."""


class FormulaError(ValueError):
    pass


class FormulaSyntaxError(FormulaError):
    """Raised on malformed formula text; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ReadOnceError(FormulaError):
    """A variable labels more than one leaf."""


class AssignmentLengthError(ValueError):
    """Assignment length does not match the variable count."""


class PromiseMismatchError(ValueError):
    """No promise levels, or a level not and/or with int sizes 1 <= h <= N, N >= 2."""


class LabelCollisionError(ValueError):
    """Edge labels of composed networks are not disjoint."""


class NotSeriesParallelError(ValueError):
    """Series-parallel reduction stalled on a non-series-parallel input."""


class DisconnectedError(ValueError):
    """Operation requires connected terminals."""


class SearchBudgetError(RuntimeError):
    """Exhaustive search budget exceeded."""


class DomainTooLargeError(RuntimeError):
    """Domain enumeration would exceed the exhaustive-mode budget."""
