"""Exception taxonomy, the one count rule (`check_count`) and the file readers.

Pair files and checkpoints are record files: a sequence of float64 `.npy`
records, written by `np.save` and read by `np.load` without pickling. Pose,
match and dataset index files are text files of whitespace-separated rows,
each read through `read_rows`.
"""

import numbers
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
    """No training pair has a usable fundamental matrix."""


class ZeroTranslation(EpimatchError):
    """Angular translation error undefined for a zero vector."""


class EmptyInput(EpimatchError):
    """Aggregate statistic requested over an empty collection."""


class DegeneratePose(EpimatchError):
    """Pose sampling failed to produce a usable camera pair."""


def check_count(name, value, minimum):
    """ValueError naming `name` unless `value` is a non-bool whole number >= `minimum`."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= minimum):
        raise ValueError(f"{name} must be a whole number >= {minimum}, got {value!r}")


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


def read_rows(path, n_fields, kind, labels=0):
    """Yield (where, label fields, floats) per row of a text file, where is
    'path:lineno' and a row's first `labels` fields stay text. Blank lines
    and '#' lines are skipped. A row of other than n_fields fields, or with
    a field that is not a finite number, raises ValueError naming its line."""
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            fields = line.split()
            if not fields or fields[0].startswith("#"):
                continue
            where = f"{path}:{lineno}"
            if len(fields) != n_fields:
                raise ValueError(f"{where}: expected {n_fields} fields per {kind} line, got {len(fields)}")
            try:
                values = [float(v) for v in fields[labels:]]
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            if not np.all(np.isfinite(values)):
                raise ValueError(f"{where}: non-finite value in {kind} line")
            yield where, fields[:labels], values
