"""Exception hierarchy shared across the package.

Configuration and usage problems derive from ``ConfigError``, which the CLI
maps to exit code 1; data errors (bad input files or malformed arrays)
derive from ``DataError``. The CLI maps every other ``TsboostError`` to
exit code 2. Every class below the three bases is raised by the package;
one whose last raise is deleted is deleted with it.
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


# -- distances -----------------------------------------------------------------

class SeriesTooShort(DataError):
    pass


# -- clustering ----------------------------------------------------------------

class NegativeDistance(DataError):
    """A distance is negative or not finite, as when squared distances overflow."""


class EmptyCluster(TsboostError):
    pass


# -- evaluation ----------------------------------------------------------------

class SizeMismatch(DataError):
    pass


class TooFewLabels(DataError):
    """A reference labeling needs at least 2 distinct labels."""


class TooFewObjects(DataError):
    """A Rand index needs at least 2 objects, so that there is a pair."""


# -- I/O -----------------------------------------------------------------------

class ParseError(DataError):
    """Malformed input file; message carries the file and line location."""


class IoError(TsboostError):
    """An input file is missing or cannot be opened; the CLI exits with 2."""
