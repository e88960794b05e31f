"""Exception hierarchy shared by all cardioprior modules.

Every error that a pipeline operator can trigger through bad inputs derives
from :class:`CardioPriorError`; the CLI maps those to exit code 1 and anything
else to exit code 2.
"""

from __future__ import annotations

import operator


class CardioPriorError(Exception):
    """Base class for all input/validation errors raised by this package."""


# volume I/O and label conventions
class MalformedHeader(CardioPriorError):
    pass


class SizeMismatch(CardioPriorError):
    pass


class UnsupportedElementType(CardioPriorError):
    pass


class InvalidLabelValue(CardioPriorError):
    pass


class IoFailure(CardioPriorError):
    pass


class InvalidParameter(CardioPriorError, ValueError):
    """A parameter outside its valid range, such as a grid size, an epoch count or a weight."""


def int_parameter(value, name: str) -> int:
    """``value`` as an int; a bool, a float, a string or another non-integer raises
    InvalidParameter. NumPy integers pass."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InvalidParameter(f"{name} must be an integer, got {value!r}")


# geometry / resampling
class InvalidSpacing(CardioPriorError):
    """Grid spacing that is not finite and positive, or an offset that is not finite."""


class EmptyForeground(CardioPriorError):
    pass


# landmark alignment
class InsufficientLandmarks(CardioPriorError):
    pass


class DegenerateConfiguration(CardioPriorError):
    pass


class InvalidAtlas(CardioPriorError):
    """An atlas.json that is not JSON, lacks a key or was built for another class roster."""


# soft shape descriptors
class VanishingMass(CardioPriorError):
    pass


class InvalidStats(CardioPriorError):
    """A stats file with an unknown schema, a missing key, a bad class entry, count or std."""


# losses
class ShapeMismatch(CardioPriorError):
    pass


class NotOneHot(CardioPriorError):
    """Ground truth that is not a uint8 label volume."""


class NoUsableStats(CardioPriorError):
    pass


class UnknownLoss(CardioPriorError):
    pass


class InvalidLossConfig(CardioPriorError):
    """A loss-config file with bad JSON, an unknown schema or key, or a bad weight."""


# metrics
class EmptySurface(CardioPriorError):
    pass


# method-comparison reports
class InvalidReport(CardioPriorError):
    """A run without report_*.json files, or a report that is not JSON with numeric macros."""


# phantom generation
class DegenerateSpec(CardioPriorError):
    pass


class UnknownMode(CardioPriorError):
    pass


# micro trainer
class GridMismatch(CardioPriorError):
    pass


class ArityMismatch(CardioPriorError):
    pass


class NonfiniteLoss(CardioPriorError):
    pass


class InvalidModel(CardioPriorError):
    """A model.json that is not JSON, has an unknown schema or lacks a key."""


# command line
class UsageError(CardioPriorError):
    pass
