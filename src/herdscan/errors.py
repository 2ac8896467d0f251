"""Exception hierarchy.

Two broad branches matter for the CLI: ``ConfigError`` (bad flags, bad
config files: exit code 2) and ``DataError`` (defective input data or
infeasible computations on it: exit code 3).
"""

from __future__ import annotations


class HerdscanError(Exception):
    """Base class for all package errors."""


class ConfigError(HerdscanError):
    """Invalid configuration: flags, sector map, sub-period file, zones."""


class DataError(HerdscanError):
    """Defective input data, or a computation the data cannot support."""


# --- ingest ---------------------------------------------------------------

class MalformedRow(DataError):
    def __init__(self, line_no: int, detail: str = ""):
        self.line_no = line_no
        msg = f"malformed row at line {line_no}"
        super().__init__(f"{msg}: {detail}" if detail else msg)


class DuplicateTimestamp(DataError):
    def __init__(self, timestamp):
        self.timestamp = timestamp
        super().__init__(f"duplicate timestamp {timestamp}")


class NonPositivePrice(DataError):
    def __init__(self, timestamp):
        self.timestamp = timestamp
        super().__init__(f"non-positive close at {timestamp}")


class EmptyGrid(DataError):
    """No usable shared timestamp grid after windowing and quorum."""


class UnfillableAsset(DataError):
    def __init__(self, ticker: str):
        self.ticker = ticker
        super().__init__(f"asset {ticker} has no in-window observations")


class EmptySlice(DataError):
    """Sub-period does not retain enough panel timestamps."""


# --- econometrics ---------------------------------------------------------

class RankDeficient(DataError):
    def __init__(self, column: int):
        self.column = column
        super().__init__(f"design matrix is rank deficient at column {column}")


class TooFewObservations(DataError):
    pass


class DegenerateRegressor(DataError):
    """Market return has no variation; CSAD regressors collapse."""


class OneSidedSample(DataError):
    """One market regime has too few observations for the split model."""


class ModelMismatch(HerdscanError):
    """A fit of the wrong model kind was passed to the verdict."""


class ZeroVarianceProxy(DataError):
    pass


class EmptyInput(DataError):
    pass


# --- graph / community ----------------------------------------------------

class ZeroVarianceAsset(DataError):
    def __init__(self, ticker: str, first, last):
        self.ticker = ticker
        super().__init__(f"asset {ticker} has (near-)zero return variance"
                         f" from {first} to {last}")


class UncoveredNode(HerdscanError):
    def __init__(self, node):
        self.node = node
        super().__init__(f"node {node!r} is not assigned to any community")


# --- pipeline -------------------------------------------------------------

class EmptyCommunity(DataError):
    pass


class IoFailure(HerdscanError):
    def __init__(self, path, cause: Exception | None = None):
        self.path = path
        detail = f": {cause}" if cause is not None else ""
        super().__init__(f"cannot write {path}{detail}")
