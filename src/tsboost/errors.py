"""Exception hierarchy shared across the package.

Configuration and usage problems derive from ``ConfigError``, which the CLI
maps to exit code 1; data errors (bad input files or malformed arrays)
derive from ``DataError``. The CLI maps every other ``TsboostError`` to
exit code 2.
"""


class TsboostError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(TsboostError):
    """Invalid configuration or usage."""


class DataError(TsboostError):
    """Invalid input data."""


# -- dataset validation -------------------------------------------------------

class NonFiniteValue(DataError):
    pass


class RaggedLengths(DataError):
    pass


class NonIncreasingDomain(DataError):
    pass


class TooFewSeries(DataError):
    pass


# -- spline fitting and smoothing-parameter selection --------------------------

class DomainTooShort(DataError):
    pass


class SingularSystem(TsboostError):
    pass


class LeverageOne(TsboostError):
    """A hat-matrix diagonal reached 1; the LOO-CV shortcut is undefined."""


class FlatCriterion(TsboostError):
    """Selection scores are constant across the grid (degenerate data)."""


# -- distances -----------------------------------------------------------------

class LengthMismatch(DataError):
    pass


class SeriesTooShort(DataError):
    pass


# -- clustering ----------------------------------------------------------------

class NegativeDistance(DataError):
    pass


class DegenerateBeta(TsboostError):
    """Loss reached 0: the partition is already perfect."""


class EmptyCluster(TsboostError):
    pass


# -- evaluation ----------------------------------------------------------------

class DimensionMismatch(DataError):
    pass


class SizeMismatch(DataError):
    pass


# -- I/O -----------------------------------------------------------------------

class ParseError(DataError):
    """Malformed input file; message carries the file and line location."""


class IoError(TsboostError):
    """An input file is missing or cannot be opened; the CLI exits with 2."""
