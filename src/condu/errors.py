"""Exception types shared across the package."""


class ConduError(Exception):
    """Base class for all package-specific errors."""


class InvalidBandwidth(ConduError, ValueError):
    pass


class BandwidthOutOfRange(ConduError, ValueError):
    pass


class DimensionMismatch(ConduError, ValueError):
    pass


class DegenerateSample(ConduError, ValueError):
    pass


class BruteForceBudgetExceeded(ConduError, RuntimeError):
    """Complete enumeration would exceed the tuple budget; use the windowed
    or incomplete modes instead."""


class BudgetExceedsPopulation(ConduError, ValueError):
    pass


class PopulationTooLarge(ConduError, ValueError):
    """The tuple population is too large to rank with 64-bit integers."""


class UnsupportedOrder(ConduError, ValueError):
    """No evaluation path handles this U-statistic order."""


class NonFiniteSum(ConduError, ValueError):
    """The exact sum of a cell's terms is not finite (inf - inf or overflow)."""


class MeasureTooLarge(ConduError, RuntimeError):
    pass


class InvalidProjectionOrder(ConduError, ValueError):
    pass


class NoClosedFormConditional(ConduError, ValueError):
    pass


class ZeroDensityWindow(ConduError, ValueError):
    pass


class SampleTooSmall(ConduError, ValueError):
    pass


class EmptyBandwidthRange(ConduError, ValueError):
    pass


class BoundedClassHasNoRemainder(ConduError, ValueError):
    pass


class InputFileError(ConduError, OSError):
    """An input file (config, sample or kernel table) cannot be opened."""


class OutputFileError(ConduError, OSError):
    """An output file cannot be written; no partial file is left behind."""


class SchemaError(ConduError, ValueError):
    """Malformed input file or config; message carries the offending row
    or field."""
