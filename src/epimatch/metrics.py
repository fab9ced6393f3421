"""Relative-pose evaluation: angular errors, pose AUC, matching precision and
whole-dataset reports."""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import EmptyInput, EpimatchError, ZeroTranslation
from .estimation import MIN_SAMPLE, RansacConfig, estimate_relative_pose
from .geometry import (
    CameraIntrinsics,
    RelativePose,
    essential_from_pose,
    normalize_points,
    symmetric_epipolar_distance_sq,
)
from .matcher import MatcherConfig, MatcherParams, forward

AUC_THRESHOLDS = (5.0, 10.0, 20.0)
PRECISION_THRESHOLD_INDOOR = 5e-4
PRECISION_THRESHOLD_OUTDOOR = 1e-4


@dataclass
class PoseError:
    rotation_deg: float
    translation_deg: float

    @property
    def combined(self):
        return max(self.rotation_deg, self.translation_deg)


@dataclass
class EvalReport:
    auc5: float
    auc10: float
    auc20: float
    precision: float
    median_rot_deg: float
    median_trans_deg: float
    n_pairs: int
    n_failed: int
    mean_matches: float = 0.0
    # the AUCs of the rotation error alone and the translation error alone
    rot_auc5: float = 0.0
    rot_auc10: float = 0.0
    rot_auc20: float = 0.0
    trans_auc5: float = 0.0
    trans_auc10: float = 0.0
    trans_auc20: float = 0.0
    fine_dropped: int = 0  # coarse matches, over all pairs, that fail fine_in_bounds
    failures: dict = field(default_factory=dict)  # reason -> failed pairs; sums to n_failed

    def to_json(self):
        """Strict JSON: a non-finite value (a median over no pose) is null."""
        row = {k: None if isinstance(v, float) and not np.isfinite(v) else v for k, v in asdict(self).items()}
        return json.dumps(row, indent=2, sort_keys=True, allow_nan=False)

    def to_table(self):
        """Aligned text table mirroring the headline results layout."""
        header = f"{'Method':<16}{'AUC@5':>8}{'AUC@10':>8}{'AUC@20':>8}{'P (%)':>8}"
        row = (
            f"{'matcher':<16}{self.auc5:>8.1f}{self.auc10:>8.1f}"
            f"{self.auc20:>8.1f}{self.precision:>8.1f}"
        )
        split = (
            f"{'  rotation':<16}{self.rot_auc5:>8.1f}{self.rot_auc10:>8.1f}{self.rot_auc20:>8.1f}\n"
            f"{'  translation':<16}{self.trans_auc5:>8.1f}{self.trans_auc10:>8.1f}{self.trans_auc20:>8.1f}"
        )
        failed = ", ".join(f"{reason} {n}" for reason, n in self.failures.items())
        extra = (
            f"median rot {self.median_rot_deg:.2f} deg, median trans "
            f"{self.median_trans_deg:.2f} deg, pairs {self.n_pairs}, failed {self.n_failed}"
            f"{f' ({failed})' if failed else ''}, fine dropped {self.fine_dropped}"
        )
        return "\n".join([header, row, split, extra])


def rotation_error(R_gt, R_est):
    """Angular rotation error in degrees."""
    R_gt = np.asarray(R_gt, dtype=float)
    R_est = np.asarray(R_est, dtype=float)
    c = np.clip((np.trace(R_gt.T @ R_est) - 1.0) / 2.0, -1.0, 1.0)
    return float(np.degrees(np.arccos(c)))


def translation_error(t_gt, t_est):
    """Angular translation error in degrees; |dot| absorbs the sign ambiguity."""
    t_gt = np.asarray(t_gt, dtype=float).reshape(3)
    t_est = np.asarray(t_est, dtype=float).reshape(3)
    n1, n2 = np.linalg.norm(t_gt), np.linalg.norm(t_est)
    if n1 == 0.0 or n2 == 0.0:
        raise ZeroTranslation("translation error needs nonzero vectors")
    c = np.clip(abs(t_gt @ t_est) / (n1 * n2), 0.0, 1.0)
    return float(np.degrees(np.arccos(c)))


def pose_error(pose_gt: RelativePose, pose_est: RelativePose) -> PoseError:
    return PoseError(
        rotation_error(pose_gt.R, pose_est.R),
        translation_error(pose_gt.t, pose_est.t),
    )


def pose_auc(errors, thresholds=AUC_THRESHOLDS):
    """Exact area under the recall-vs-threshold curve, as percentages.

    The recall curve is a step function over the sorted errors, so the area
    over [0, T] is sum(max(0, T - e_i)) / (n * T). Failures enter as +inf.
    """
    errors = np.asarray(errors, dtype=float)
    if errors.size == 0:
        raise EmptyInput("pose_auc over an empty error list")
    out = []
    for T in thresholds:
        contrib = np.clip(T - errors, 0.0, None)
        contrib = np.where(np.isfinite(contrib), contrib, 0.0)
        out.append(float(100.0 * contrib.sum() / (errors.size * T)))
    return out


def gt_epipolar_distance_sq(pts1, pts2, pose: RelativePose, K1: CameraIntrinsics, K2: CameraIntrinsics):
    """Squared symmetric epipolar distance of each (N, 2) pixel match under
    E = [t]x R of the ground-truth pose, in normalized coordinates. Raises
    DegenerateBaseline for a pure-rotation pose."""
    x1n = normalize_points(K1, pts1)
    x2n = normalize_points(K2, pts2)
    return symmetric_epipolar_distance_sq(essential_from_pose(pose), x1n, x2n)


def matching_precision(pts1, pts2, pose: RelativePose, K1: CameraIntrinsics, K2: CameraIntrinsics,
                       threshold=PRECISION_THRESHOLD_INDOOR):
    """Percentage of matches whose squared symmetric epipolar distance under
    the ground-truth pose is below the threshold, in normalized coordinates.
    Empty match sets score 0."""
    if np.shape(pts1)[0] == 0:
        return 0.0
    d = gt_epipolar_distance_sq(pts1, pts2, pose, K1, K2)
    return float(100.0 * np.mean(d < threshold))


def evaluate(params: MatcherParams, dataset, ransac_cfg: RansacConfig, mcfg: MatcherConfig,
             precision_threshold=PRECISION_THRESHOLD_INDOOR) -> EvalReport:
    """Match every pair, estimate its relative pose and aggregate the report.

    Pairs with too few matches, a ground truth without an epipolar geometry
    (pure rotation) or failed estimation count as infinite pose error, in
    the rotation-only and translation-only AUCs too; the precision of a pair
    without matches or without an epipolar geometry contributes 0. Failed
    pairs count by reason: NoMatches, NotEnoughMatches or the exception's name.
    """
    rots, trans, reasons = [], [], []  # per pair; rot and trans are inf where the pair failed
    precisions = []
    n_matches = []
    fine_dropped = 0
    for pair in dataset:
        pred, _ = forward(pair.image1, pair.image2, params, mcfg)
        fine_dropped += pred.dropped
        M = pred.fine_x2.shape[0]
        n_matches.append(M)
        precision, rot, tran = 0.0, np.inf, np.inf
        reason = "NotEnoughMatches" if M else "NoMatches"
        try:
            if M:
                precision = matching_precision(pred.fine_x1, pred.fine_x2, pair.pose, pair.K, pair.K,
                                               precision_threshold)
            if M >= MIN_SAMPLE:
                est, _ = estimate_relative_pose(pred.fine_x1, pred.fine_x2, pair.K, pair.K, ransac_cfg)
                err = pose_error(pair.pose, est)
                rot, tran = err.rotation_deg, err.translation_deg
        except (EpimatchError, np.linalg.LinAlgError) as exc:
            reason = type(exc).__name__
        reasons.append(reason)
        precisions.append(precision)
        rots.append(rot)
        trans.append(tran)
    rots, trans = np.array(rots), np.array(trans)
    errors = np.maximum(rots, trans)  # PoseError.combined per pair
    ok = np.isfinite(errors)
    auc5, auc10, auc20 = pose_auc(errors)
    split = {f"{name}_auc{T:g}": auc for name, errs in (("rot", rots), ("trans", trans))
             for T, auc in zip(AUC_THRESHOLDS, pose_auc(errs))}
    return EvalReport(
        auc5=auc5,
        auc10=auc10,
        auc20=auc20,
        precision=float(np.mean(precisions)),
        median_rot_deg=float(np.median(rots[ok])) if ok.any() else float("inf"),
        median_trans_deg=float(np.median(trans[ok])) if ok.any() else float("inf"),
        n_pairs=len(dataset),
        n_failed=int(np.count_nonzero(~ok)),
        mean_matches=float(np.mean(n_matches)) if n_matches else 0.0,
        **split,
        fine_dropped=fine_dropped,
        failures=dict(sorted(Counter(r for r, good in zip(reasons, ok) if not good).items())),
    )
