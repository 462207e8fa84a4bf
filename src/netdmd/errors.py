"""Exception types shared across the package, and the typed read of a JSON field; all-zero data are no error."""


class NetdmdError(Exception):
    """Base class for all errors raised by this package."""


class NonFiniteEntry(NetdmdError):
    """A matrix contains NaN or infinite entries."""


class NotSquare(NetdmdError):
    """An eigendecomposition was requested for a non-square matrix."""


class ConvergenceFailure(NetdmdError):
    """A ``numpy.linalg`` factorization (QR, SVD, solve or eig) failed on pathological input."""


class DimensionMismatch(NetdmdError):
    """Operand shapes are inconsistent."""


class UnknownVertex(NetdmdError):
    """A vertex id does not belong to the topology."""


class RowRangeMismatch(NetdmdError):
    """Trajectory row ranges do not cover the topology's vertices."""


class EmptyNetwork(NetdmdError):
    """An operation requires at least one state vertex."""


class BadConfig(NetdmdError):
    """A configuration value violates its documented constraints."""


class Divergence(NetdmdError):
    """A simulated trajectory overflowed to non-finite values."""


def _json_value(value, kind: type):
    """``value`` if its type is exactly ``kind`` (for float, an int too, read as a float; no bool), else TypeError."""
    if type(value) is not kind and not (kind is float and type(value) is int):
        raise TypeError(f"expected a JSON {'number' if kind is float else kind.__name__}, got {value!r}")
    return kind(value)
