"""Exception taxonomy shared across the toolkit, and the array-record files.

Pair files and checkpoints are record files: a sequence of float64 `.npy`
records, written by `np.save` and read by `np.load` without pickling.
"""

import zipfile

import numpy as np


class EpimatchError(Exception):
    """Base class for all toolkit errors."""


class DegenerateBaseline(EpimatchError):
    """Translation too small for an epipolar constraint (pure rotation)."""


class DegenerateLine(EpimatchError):
    """Line with vanishing (a, b) part; no perpendicular distance exists."""


class DegenerateConfiguration(EpimatchError):
    """Point configuration is rank-deficient for the requested solve."""


class AmbiguousCheirality(EpimatchError):
    """Two essential-matrix decompositions tie on the cheirality vote."""


class NotEnoughMatches(EpimatchError):
    """Fewer correspondences than the estimator's minimal sample."""


class NoValidHypothesis(EpimatchError):
    """Every RANSAC iteration produced a degenerate model."""


class NotEnoughReplayPairs(EpimatchError):
    """The replay set holds fewer source pairs than one batch draws."""


class EmptySupervision(EpimatchError):
    """A loss was evaluated with no supervised entries."""


class BadDimensions(EpimatchError):
    """Array shape incompatible with the configured grid."""


class NonFiniteGradient(EpimatchError):
    """An optimizer step received NaN/inf gradients."""


class NonFiniteLoss(EpimatchError):
    """A training loss evaluated to NaN/inf."""


class EmptyDatasetAfterFilter(EpimatchError):
    """Bootstrap filtering removed every training pair."""


class ZeroTranslation(EpimatchError):
    """Angular translation error undefined for a zero vector."""


class EmptyInput(EpimatchError):
    """Aggregate statistic requested over an empty collection."""


class DegeneratePose(EpimatchError):
    """Pose sampling failed to produce a usable camera pair."""


def write_arrays(path, arrays):
    """Write each array as one float64 `.npy` record, in order."""
    with open(path, "wb") as fh:
        for a in arrays:
            np.save(fh, np.asarray(a, dtype=np.float64))


def read_arrays(path, shapes):
    """Read the records `write_arrays` wrote, one per shape in `shapes`; a
    None axis takes any length. A file that holds anything else, or more or
    fewer records, raises ValueError naming it."""
    with open(path, "rb") as fh:
        try:
            arrays = [np.load(fh, allow_pickle=False) for _ in shapes]
        except (EOFError, ValueError, zipfile.BadZipFile) as exc:
            raise ValueError(f"{path}: not a file of {len(shapes)} array records: {exc}") from None
        if fh.read(1):
            raise ValueError(f"{path}: data after the last of {len(shapes)} array records")
    for i, (a, shape) in enumerate(zip(arrays, shapes)):
        if not (a.dtype == np.float64 and a.ndim == len(shape)
                and all(n in (None, m) for n, m in zip(shape, a.shape))):
            raise ValueError(f"{path}: record {i} is not a float64 array of shape {shape}")
    return arrays
