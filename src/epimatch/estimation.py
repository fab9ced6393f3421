"""Fundamental-matrix estimation from putative matches.

Matches are passed as (N, 2) pixel coordinate arrays for each image, plus an
optional confidence vector. The match-file interchange format is one line per
correspondence: `u1 v1 u2 v2 conf`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateConfiguration,
    NotEnoughMatches,
    NoValidHypothesis,
)
from .geometry import (
    CameraIntrinsics,
    FundamentalMatrix,
    RelativePose,
    decompose_essential,
    fundamental_to_essential,
    normalize_points,
)

MIN_SAMPLE = 8


@dataclass
class RansacConfig:
    iterations: int = 500
    inlier_threshold: float = 1e-5  # squared symmetric epipolar distance, normalized units
    seed: int = 0
    min_sample: int = MIN_SAMPLE

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.inlier_threshold <= 0:
            raise ValueError("inlier_threshold must be positive")


@dataclass
class RansacResult:
    F: FundamentalMatrix
    inlier_mask: np.ndarray
    inlier_count: int
    num_input_matches: int
    no_consensus: bool = False
    best_iteration: int = -1

    def __post_init__(self):
        if self.inlier_count != int(np.sum(self.inlier_mask)):
            raise ValueError("inlier_count does not match inlier_mask")
        if self.inlier_count > self.num_input_matches:
            raise ValueError("inlier_count exceeds num_input_matches")


def _hartley_transform(pts):
    """Translate centroid to origin, scale mean distance to sqrt(2)."""
    centroid = pts.mean(axis=0)
    d = np.linalg.norm(pts - centroid, axis=1).mean()
    if d < 1e-12:
        raise DegenerateConfiguration("coincident points cannot be normalized")
    s = np.sqrt(2.0) / d
    T = np.array([[s, 0.0, -s * centroid[0]], [0.0, s, -s * centroid[1]], [0.0, 0.0, 1.0]])
    return (pts - centroid) * s, T


def eight_point(pts1, pts2) -> FundamentalMatrix:
    """Hartley-normalized 8-point solve with rank-2 enforcement."""
    pts1 = np.asarray(pts1, dtype=float)
    pts2 = np.asarray(pts2, dtype=float)
    n = pts1.shape[0]
    if n < MIN_SAMPLE:
        raise NotEnoughMatches(f"eight_point needs >= 8 matches, got {n}")
    if pts2.shape[0] != n:
        raise ValueError("match arrays disagree in length")
    q1, T1 = _hartley_transform(pts1)
    q2, T2 = _hartley_transform(pts2)
    u1, v1 = q1[:, 0], q1[:, 1]
    u2, v2 = q2[:, 0], q2[:, 1]
    A = np.column_stack(
        [u2 * u1, u2 * v1, u2, v2 * u1, v2 * v1, v2, u1, v1, np.ones(n)]
    )
    _, _, Vt = np.linalg.svd(A)
    Fn = Vt[-1].reshape(3, 3)
    U, sf, Vft = np.linalg.svd(Fn)
    # a planar scene leaves a solution family but every member is a valid F;
    # collinear/coincident configurations collapse to rank <= 1 and are rejected
    if sf[1] < 1e-10 * sf[0]:
        raise DegenerateConfiguration("solution collapses below rank 2")
    Fn = U @ np.diag([sf[0], sf[1], 0.0]) @ Vft
    F = T2.T @ Fn @ T1
    return FundamentalMatrix.from_matrix(F)


def _score_inliers(F, x1n, x2n, K1, K2, threshold):
    """Inlier mask by squared symmetric epipolar distance in normalized coords."""
    En = K2.matrix().T @ F.m @ K1.matrix()
    l2 = x1n @ En.T
    l1 = x2n @ En
    d2 = l2[:, 0] ** 2 + l2[:, 1] ** 2
    d1 = l1[:, 0] ** 2 + l1[:, 1] ** 2
    r = np.einsum("ij,ij->i", x2n, l2)
    with np.errstate(divide="ignore", invalid="ignore"):
        dist = r * r * (1.0 / d2 + 1.0 / d1)
    dist = np.where(np.isfinite(dist), dist, np.inf)
    return dist < threshold


def ransac_fundamental(pts1, pts2, K1: CameraIntrinsics, K2: CameraIntrinsics, cfg: RansacConfig) -> RansacResult:
    """Seeded RANSAC over 8-point hypotheses with a final all-inlier refit."""
    pts1 = np.asarray(pts1, dtype=float)
    pts2 = np.asarray(pts2, dtype=float)
    n = pts1.shape[0]
    if n < cfg.min_sample:
        raise NotEnoughMatches(f"RANSAC needs >= {cfg.min_sample} matches, got {n}")
    x1n = normalize_points(K1, pts1)
    x2n = normalize_points(K2, pts2)

    rng = np.random.default_rng(cfg.seed)
    best_count = -1
    best_mask = None
    best_F = None
    best_iter = -1
    for it in range(cfg.iterations):
        idx = rng.choice(n, size=cfg.min_sample, replace=False)
        try:
            F = eight_point(pts1[idx], pts2[idx])
        except DegenerateConfiguration:
            continue
        mask = _score_inliers(F, x1n, x2n, K1, K2, cfg.inlier_threshold)
        count = int(mask.sum())
        if count > best_count:
            best_count, best_mask, best_F, best_iter = count, mask, F, it
    if best_F is None:
        raise NoValidHypothesis("all RANSAC iterations were degenerate")

    # refit on the consensus set of the best hypothesis
    F_final, mask_final = best_F, best_mask
    if best_count >= cfg.min_sample:
        try:
            F_refit = eight_point(pts1[best_mask], pts2[best_mask])
            F_final = F_refit
            mask_final = _score_inliers(F_refit, x1n, x2n, K1, K2, cfg.inlier_threshold)
        except DegenerateConfiguration:
            pass
    count_final = int(mask_final.sum())
    return RansacResult(
        F=F_final,
        inlier_mask=mask_final,
        inlier_count=count_final,
        num_input_matches=n,
        no_consensus=count_final <= cfg.min_sample,
        best_iteration=best_iter,
    )


def estimate_relative_pose(pts1, pts2, K1, K2, cfg: RansacConfig):
    """Relative pose via RANSAC F -> E -> cheirality decomposition.

    Returns (RelativePose with unit-norm t, RansacResult).
    """
    result = ransac_fundamental(pts1, pts2, K1, K2, cfg)
    E = fundamental_to_essential(result.F, K1, K2)
    x1n = normalize_points(K1, np.asarray(pts1, dtype=float)[result.inlier_mask])
    x2n = normalize_points(K2, np.asarray(pts2, dtype=float)[result.inlier_mask])
    pose = decompose_essential(E, x1n, x2n)
    return pose, result


def write_match_file(path, pts1, pts2, conf=None):
    pts1 = np.asarray(pts1, dtype=float)
    pts2 = np.asarray(pts2, dtype=float)
    if conf is None:
        conf = np.ones(pts1.shape[0])
    with open(path, "w") as fh:
        for (u1, v1), (u2, v2), c in zip(pts1, pts2, conf):
            fh.write(f"{u1:.17g} {v1:.17g} {u2:.17g} {v2:.17g} {c:.17g}\n")


def read_match_file(path):
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            vals = [float(v) for v in line.split()]
            if len(vals) != 5:
                raise ValueError(f"expected 5 fields per match line, got {len(vals)}")
            rows.append(vals)
    arr = np.array(rows, dtype=float).reshape(-1, 5)
    return arr[:, 0:2], arr[:, 2:4], arr[:, 4]
