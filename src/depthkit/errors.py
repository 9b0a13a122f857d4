"""Exception hierarchy with stable machine-readable codes.

Every error raised by the library carries a ``code`` attribute suitable for
scripting against (the CLI prints ``error: <code>: <message>`` and exits
nonzero).  Plain ``ValueError`` is reserved for programmer errors such as
malformed arguments that no documented failure mode covers.
"""

from __future__ import annotations


class DepthKitError(Exception):
    """Base class for all documented failure modes."""

    code = "ERROR"

    def __init__(self, message: str = ""):
        super().__init__(message)
        self.message = message

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.message or self.code


class DimensionMismatchError(DepthKitError):
    code = "DIMENSION_MISMATCH"


class SingularScatterError(DepthKitError):
    code = "SINGULAR_SCATTER"


class InvalidAlphaError(DepthKitError):
    code = "INVALID_ALPHA"


class NestingViolationError(DepthKitError):
    code = "NESTING_VIOLATION"


class ZeroMadError(DepthKitError):
    code = "ZERO_MAD"


class EnumerationTooLargeError(DepthKitError):
    code = "TOO_LARGE"


class IterationLimitError(DepthKitError):
    code = "ITERATION_LIMIT"


class UnknownDepthError(DepthKitError):
    code = "UNKNOWN_DEPTH"


class GridMismatchError(DepthKitError):
    code = "GRID_MISMATCH"


class EmptyRegionError(DepthKitError):
    code = "EMPTY_REGION"


class EmptyTimeSetError(DepthKitError):
    code = "EMPTY_T"


class InvalidTimeSetError(DepthKitError):
    code = "INVALID_T"


class NonlinearFunctionalError(DepthKitError):
    code = "NONLINEAR_FUNCTIONAL"


class UnsupportedLiftError(DepthKitError):
    code = "UNSUPPORTED"


class DatasetIOError(DepthKitError):
    code = "IO_ERROR"


class DatasetParseError(DepthKitError):
    code = "PARSE_ERROR"


class EmptyDatasetError(DepthKitError):
    code = "EMPTY_DATASET"
