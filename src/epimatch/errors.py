"""Exception taxonomy shared across the toolkit, and the checked binary read."""


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


def read_exact(fh, n):
    """Read n bytes from a binary file; a short read raises ValueError naming
    the file and the bytes expected and read."""
    data = fh.read(n)
    if len(data) != n:
        raise ValueError(f"{fh.name}: truncated at byte {fh.tell()}: expected {n} bytes, read {len(data)}")
    return data
