"""Exception hierarchy for vulforge.

Every error raised by the library derives from VulforgeError so callers
(and the CLI exit-code mapping) can catch one base class.
"""

from __future__ import annotations


class VulforgeError(Exception):
    """Base class for all vulforge errors."""


# --- probability / core ---------------------------------------------------

class InvalidProbVector(VulforgeError):
    """``row`` is the index of the offending row of a validated matrix."""

    def __init__(self, message: str = "", row: int | None = None):
        self.row = row
        super().__init__(message)


class NegativeEntry(InvalidProbVector):
    pass


class SumOutOfTolerance(InvalidProbVector):
    pass


# --- ingest ---------------------------------------------------------------

class MalformedRecord(VulforgeError):
    def __init__(self, line_no: int, reason: str = ""):
        self.line_no = line_no
        super().__init__(f"malformed record at line {line_no}: {reason}")


class DuplicateId(VulforgeError):
    pass


class UnknownLabel(VulforgeError):
    pass


class ClassTooSmall(VulforgeError):
    def __init__(self, label: int, count: int, minimum: int):
        self.label = label
        super().__init__(f"class {label} has {count} samples, needs >= {minimum}")


class UnknownCwe(VulforgeError):
    pass


class UnsafeName(VulforgeError):
    """A name from the data that would become a path but is not a plain
    file name."""


# --- learners -------------------------------------------------------------

class EmptyTrainingSet(VulforgeError):
    pass


class WeightCoverageMismatch(VulforgeError):
    pass


class DimensionMismatch(VulforgeError):
    pass


class ProtocolOrderError(VulforgeError):
    pass


class MissingSample(VulforgeError):
    pass


class UnknownSample(VulforgeError):
    pass


class MalformedProbVector(VulforgeError):
    pass


class NonFiniteModel(VulforgeError):
    """A linear model's weights hold NaN or +-inf: its training diverged."""


# --- ensembles ------------------------------------------------------------

class MemberKMismatch(VulforgeError):
    pass


class NoRoundsRetained(VulforgeError):
    pass


class CoverageMismatch(VulforgeError):
    pass


class LayoutMismatch(VulforgeError):
    pass


# --- metamodels -----------------------------------------------------------

class WidthMismatch(VulforgeError):
    pass


class NonFiniteInput(VulforgeError):
    """``row`` is the index of the first input row holding NaN or +-inf."""

    def __init__(self, message: str = "", row: int | None = None):
        self.row = row
        super().__init__(message)


# --- metrics --------------------------------------------------------------

class LengthMismatch(VulforgeError):
    pass


class TooManySets(VulforgeError):
    pass


# --- cli ------------------------------------------------------------------

class ConfigError(VulforgeError):
    pass


class IoError(VulforgeError):
    pass
