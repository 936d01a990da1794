"""Exception hierarchy shared by every droughtcast module.

Every error is one of three families, which the CLI maps onto process exit
codes: ``ConfigError`` 2, ``DataError`` 3 and ``NumericError`` 4.  A new
error type subclasses one of them rather than ``DroughtcastError`` itself or
a bare exception.  An ``OSError`` is not wrapped: the CLI exits 3 with its
message, which names the path.
"""


class DroughtcastError(Exception):
    """Base class for all library errors."""


class ConfigError(DroughtcastError):
    """Invalid configuration value or combination."""


class NumericError(DroughtcastError):
    """NaN/Inf encountered, or a numerically undefined request."""


class DataError(DroughtcastError):
    """Input data violates a contract (gaps, duplicates, missing fields)."""


class SchemaError(DataError):
    """An input file is missing required columns or is malformed."""


class FormatError(DataError):
    """A binary artifact (checkpoint, cache) failed magic/structure checks."""


class UndefinedMetricError(DataError):
    """A metric is undefined for the given inputs (e.g. single-class AUC)."""


class DegenerateTestError(DataError):
    """A statistical test has zero variance in its inputs."""
