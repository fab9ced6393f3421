"""Fundamental-matrix estimation from putative matches.

Matches are passed as (N, 2) pixel coordinate arrays for each image, plus an
optional confidence vector. The match-file interchange format is one line per
correspondence: `u1 v1 u2 v2 conf`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConfiguration, NotEnoughMatches, NoValidHypothesis, check_count, read_rows
from .geometry import (
    CameraIntrinsics,
    canonicalize,
    decompose_essential,
    fundamental_to_essential,
    normalize_points,
    symmetric_epipolar_distance_sq,
)

MIN_SAMPLE = 8
# most (hypothesis, match) pairs scored at once: the scorer's temporaries
# stay near 3 MB, or hold one hypothesis beyond 2**15 matches
_SCORE_BLOCK = 1 << 15
# RANSAC stops once it has drawn an all-inlier sample of its best consensus
# with this probability; its first block of hypotheses is this large
_CONFIDENCE = 0.99
_FIRST_BLOCK = 64


@dataclass
class RansacConfig:
    iterations: int = 500  # most hypotheses solved; RANSAC stops earlier once confident
    inlier_threshold: float = 1e-5  # squared symmetric epipolar distance, normalized units
    seed: int = 0

    def __post_init__(self):
        check_count("iterations", self.iterations, 1)
        check_count("seed", self.seed, 0)
        if not 0 < self.inlier_threshold < np.inf:
            raise ValueError(f"inlier_threshold must be finite and positive, got {self.inlier_threshold!r}")

    @property
    def min_sample(self):
        """The minimal sample size; always MIN_SAMPLE, and read-only."""
        return MIN_SAMPLE


@dataclass
class RansacResult:
    F: np.ndarray  # (3, 3), canonicalized
    inlier_mask: np.ndarray  # (n,) bool, one entry per input match
    hypotheses: int  # minimal samples solved before the stopping rule held

    @property
    def inlier_count(self):
        return int(np.count_nonzero(self.inlier_mask))

    @property
    def num_input_matches(self):
        return self.inlier_mask.shape[0]

    @property
    def no_consensus(self):
        return self.inlier_count <= MIN_SAMPLE


def _hartley_transform(pts):
    """Per row of (H, n, 2): translate the centroid to the origin and scale
    the mean distance to sqrt(2). Returns (q, T, ok); ok is False where the
    points coincide, and such rows get a unit scale so they stay finite."""
    centroid = pts.mean(axis=1, keepdims=True)
    d = np.linalg.norm(pts - centroid, axis=2).mean(axis=1)
    ok = ~(d < 1e-12)
    s = np.sqrt(2.0) / np.where(ok, d, 1.0)
    T = np.zeros((pts.shape[0], 3, 3))
    T[:, 0, 0] = T[:, 1, 1] = s
    T[:, :2, 2] = -s[:, None] * centroid[:, 0]
    T[:, 2, 2] = 1.0
    return (pts - centroid) * s[:, None, None], T, ok


def _draw_samples(rng, n, iterations):
    """(iterations, MIN_SAMPLE) indices, each row MIN_SAMPLE distinct draws
    from range(n), uniform over subsets.

    Floyd's algorithm (Bentley & Floyd, CACM 1987) run on every row at once:
    column c draws t from [0, j] with j = n - MIN_SAMPLE + c and keeps t,
    or j where t already sits earlier in the row. No rejection, and
    O(iterations * MIN_SAMPLE) memory for any n.
    """
    idx = np.empty((iterations, MIN_SAMPLE), dtype=np.intp)
    for c in range(MIN_SAMPLE):
        j = n - MIN_SAMPLE + c
        t = rng.integers(0, j + 1, iterations)
        idx[:, c] = np.where((idx[:, :c] == t[:, None]).any(axis=1), j, t)
    return idx


def _eight_point_batch(pts1, pts2):
    """Hartley-normalized 8-point solves with rank-2 enforcement over the
    leading axis of (H, n, 2) samples.

    A minimal sample (n == MIN_SAMPLE) takes its null vector from the last
    column of the complete Q of A^T, the orthogonal complement of A's eight
    rows; that is several times faster than a full SVD. A taller system keeps the
    reduced SVD's last right singular vector, its least-squares solution.

    Returns canonicalized (H, 3, 3) F and an (H,) ok mask that is False where
    the points coincide or the solution collapses below rank 2 (a planar
    scene leaves a solution family, but every member is a valid F).
    """
    n = pts1.shape[1]
    if n < MIN_SAMPLE:
        raise NotEnoughMatches(f"eight_point needs >= 8 matches, got {n}")
    if pts2.shape != pts1.shape:
        raise ValueError(f"match arrays disagree in shape: {pts1.shape} and {pts2.shape}")
    q1, T1, ok1 = _hartley_transform(pts1)
    q2, T2, ok2 = _hartley_transform(pts2)
    u1, v1 = q1[..., 0], q1[..., 1]
    u2, v2 = q2[..., 0], q2[..., 1]
    A = np.stack([u2 * u1, u2 * v1, u2, v2 * u1, v2 * v1, v2, u1, v1, np.ones_like(u1)], axis=-1)
    if n == MIN_SAMPLE:
        f = np.linalg.qr(A.swapaxes(1, 2), mode="complete")[0][:, :, -1]
    else:
        f = np.linalg.svd(A, full_matrices=False)[2][:, -1]
    U, sf, Vft = np.linalg.svd(f.reshape(-1, 3, 3))
    ok = ok1 & ok2 & ~(sf[:, 1] < 1e-10 * sf[:, 0])
    D = np.zeros_like(U)
    D[:, 0, 0], D[:, 1, 1] = sf[:, 0], sf[:, 1]
    F = T2.transpose(0, 2, 1) @ (U @ D @ Vft) @ T1
    return canonicalize(F), ok


def eight_point(pts1, pts2):
    """Canonicalized (3, 3) F from a Hartley-normalized 8-point solve with
    rank-2 enforcement."""
    F, ok = _eight_point_batch(np.asarray(pts1, dtype=float)[None], np.asarray(pts2, dtype=float)[None])
    if not ok[0]:
        raise DegenerateConfiguration("coincident points or a solution below rank 2")
    return F[0]


def _needed(best_count, n, done, cap):
    """N(w) = ceil(log(1 - p) / log(1 - w^8)) with w = best_count / n and
    p = _CONFIDENCE: N draws hold a sample of eight inliers of the best
    consensus with probability p. `cap` while no match is an inlier (or w^8
    underflows) and at most `cap`; `done` once every match is an inlier."""
    w8 = (best_count / n) ** MIN_SAMPLE
    if w8 >= 1.0:
        return done
    if w8 == 0.0:
        return cap
    needed = math.log(1.0 - _CONFIDENCE) / math.log1p(-w8)
    return cap if needed >= cap else math.ceil(needed)


def ransac_fundamental(pts1, pts2, K1: CameraIntrinsics, K2: CameraIntrinsics, cfg: RansacConfig) -> RansacResult:
    """Seeded RANSAC over 8-point hypotheses that stops once it is confident,
    with a final all-inlier refit.

    Every minimal sample comes from one `_draw_samples` call of
    `cfg.iterations` rows, and the hypotheses are solved in stacked QRs (see
    `_eight_point_batch`) and scored in consecutive blocks. The first block
    holds _FIRST_BLOCK hypotheses. After each block, with w the best inlier
    share so far, RANSAC stops once the hypotheses done reach
    N(w) = ceil(log(1 - p) / log(1 - w^8)), p = _CONFIDENCE (Fischler &
    Bolles, CACM 1981; Hartley & Zisserman, MVG 4.7.1); `cfg.iterations`
    caps N. Otherwise the next block holds min(N - done, done) hypotheses,
    so a block never more than doubles the hypotheses done. A block replaces
    the best hypothesis only with strictly more inliers, so the first
    hypothesis with the most inliers wins, and the result is the same bits
    as a full scoring of the first `hypotheses` samples. The refit on the
    winner's consensus set is a least-squares SVD solve.

    Scoring bails out exactly within each block (after Capel, BMVC 2005):
    every valid hypothesis is scored on the first k = ceil(n/2) matches, and
    the one with the most inliers there is scored on the rest too. Its full
    count, and the best count so far plus one, are floors that a hypothesis
    must reach to win, so one whose partial count plus n - k falls below the
    larger is never scored on the rest. The distances of a match do not
    depend on which rows or hypotheses are scored with it, so the counts are
    the same bits as a full scoring's.
    """
    pts1 = np.asarray(pts1, dtype=float)
    pts2 = np.asarray(pts2, dtype=float)
    if pts1.ndim != 2 or pts1.shape[1] != 2 or pts2.shape != pts1.shape:
        raise ValueError(f"match arrays must both be (N, 2) with the same N, got {pts1.shape} and {pts2.shape}")
    n = pts1.shape[0]
    if n < MIN_SAMPLE:
        raise NotEnoughMatches(f"RANSAC needs >= {MIN_SAMPLE} matches, got {n}")
    # checked here, so a NaN fails the same way whichever solve would meet it first
    if not (np.isfinite(pts1).all() and np.isfinite(pts2).all()):
        raise ValueError("RANSAC needs finite match coordinates")
    x1n = normalize_points(K1, pts1)
    x2n = normalize_points(K2, pts2)

    def inliers(E, rows=slice(None)):
        # scored in normalized coordinates; a vanishing epipolar line is an outlier
        return symmetric_epipolar_distance_sq(E, x1n[rows], x2n[rows]) < cfg.inlier_threshold

    def counts(E, rows):
        block = max(1, _SCORE_BLOCK // (rows.stop - rows.start))
        return np.concatenate([inliers(E[b0:b0 + block], rows).sum(axis=1)
                               for b0 in range(0, len(E), block)])

    idx = _draw_samples(np.random.default_rng(cfg.seed), n, cfg.iterations)
    # a hypothesis can be dropped only while the floor exceeds the n - k
    # matches left unscored; the half split keeps that within reach of any
    # leader with more than half of the matches as inliers
    k = (n + 1) // 2
    head, tail = slice(0, k), slice(k, n)
    best_count, best_F, best_E = -1, None, None
    done, size = 0, min(_FIRST_BLOCK, cfg.iterations)
    while size > 0:
        F, ok = _eight_point_batch(pts1[idx[done:done + size]], pts2[idx[done:done + size]])
        done += size
        valid = np.flatnonzero(ok)
        if valid.size:
            E = fundamental_to_essential(F[valid], K1, K2)
            partial = counts(E, head)
            lead = int(np.argmax(partial))
            lead_count = partial[lead] + counts(E[lead:lead + 1], tail)[0]
            left = np.flatnonzero(partial + (n - k) >= max(lead_count, best_count + 1))
            if left.size:
                total = partial[left] + counts(E[left], tail)
                j = int(np.argmax(total))
                if total[j] > best_count:
                    best_count, best_F, best_E = int(total[j]), F[valid[left[j]]], E[left[j]]
        size = min(_needed(max(best_count, 0), n, done, cfg.iterations) - done, done)
    if best_F is None:
        raise NoValidHypothesis("all RANSAC iterations were degenerate")
    best_mask = inliers(best_E)

    # refit on the consensus set of the best hypothesis
    F_final, mask_final = best_F, best_mask
    if best_count >= MIN_SAMPLE:
        try:
            F_final = eight_point(pts1[best_mask], pts2[best_mask])
            mask_final = inliers(fundamental_to_essential(F_final, K1, K2))
        except DegenerateConfiguration:
            pass
    return RansacResult(F_final, mask_final, done)


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
    """Read `u1 v1 u2 v2 conf` lines into (pts1, pts2, conf) arrays."""
    rows = [values for _, _, values in read_rows(path, 5, "match")]
    arr = np.array(rows, dtype=float).reshape(-1, 5)
    return arr[:, 0:2], arr[:, 2:4], arr[:, 4]
