"""Supervision signals: ground-truth and epipolar classification/regression
losses with their analytic gradients.

The coarse loss is a sparse negative log-likelihood over the positive entries
of a binary mask; the fine loss is a linearly-scaled distance. In the
epipolar variants the mask positives are the per-row argmax of the confidence
matrix restricted to a thickened epipolar line set, and the distance is the
perpendicular pixel distance to the epipolar line.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLine, EmptySupervision
from .geometry import FundamentalMatrix
from .grid import GridSpec

CLAMP_EPS = 1e-12


@dataclass
class LossConfig:
    lam: float = 0.5  # fine-term weight in the total loss
    theta: float = float(np.sqrt(2.0))  # line thickness factor
    fine_supervision_fraction: float = 0.3

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lam must be in [0, 1]")
        if self.theta <= 0.0:
            raise ValueError("theta must be positive")
        if not 0.0 < self.fine_supervision_fraction <= 1.0:
            raise ValueError("fine_supervision_fraction must be in (0, 1]")


@dataclass
class EpipolarMask:
    values: np.ndarray  # (m1, m2) binary


def epipolar_line_set(F: FundamentalMatrix, grid1: GridSpec, grid2: GridSpec, theta):
    """Boolean (m1, m2) table: cell j of image 2 lies within theta*w/2 pixels
    of the epipolar line of cell i's centre. Epipole rows come back empty."""
    c1 = grid1.cell_centers()
    c2 = grid2.cell_centers()
    ones = np.ones((c1.shape[0], 1))
    lines = np.hstack([c1, ones]) @ F.m.T  # row i = F x1_i
    norms = np.hypot(lines[:, 0], lines[:, 1])
    ok = norms > 1e-12 * max(1.0, float(np.abs(lines).max(initial=0.0)))
    dist = np.abs(np.hstack([c2, np.ones((c2.shape[0], 1))]) @ lines.T)  # (m2, m1)
    with np.errstate(divide="ignore", invalid="ignore"):
        dist = dist.T / norms[:, None]
    band = theta * grid2.patch_width / 2.0
    sets = (dist <= band) & ok[:, None]
    return sets


def epipolar_classification_mask(C, line_sets) -> EpipolarMask:
    """One positive per non-empty row of the (m1, m2) confidence C, at the
    on-line argmax."""
    values = np.zeros_like(C)
    scores = np.where(line_sets, C, -np.inf)
    rows = np.flatnonzero(line_sets.any(axis=1))
    if rows.size:
        cols = np.argmax(scores[rows], axis=1)  # first max wins ties
        values[rows, cols] = 1.0
    return EpipolarMask(values)


def naive_epipolar_mask(line_sets) -> EpipolarMask:
    """Ablation: every on-line cell is a positive; row sums may exceed 1."""
    return EpipolarMask(np.asarray(line_sets).astype(float))


def gt_classification_mask(targets, m2) -> EpipolarMask:
    """One-hot mask from per-cell ground-truth target cells (-1 for none)."""
    targets = np.asarray(targets, dtype=int)
    values = np.zeros((targets.shape[0], m2))
    rows = np.where(targets >= 0)[0]
    values[rows, targets[rows]] = 1.0
    return EpipolarMask(values)


def coarse_loss_grad(C_values, mask: EpipolarMask):
    """(loss, dL/dC); the mask itself is treated as constant (stop-gradient)."""
    pos = mask.values > 0
    if not pos.any():
        raise EmptySupervision("classification mask has no positive entries")
    n = int(pos.sum())
    grad = np.zeros_like(C_values)
    inside = pos & (C_values > CLAMP_EPS) & (C_values < 1.0 - CLAMP_EPS)
    grad[inside] = -1.0 / (n * C_values[inside])
    c = np.clip(C_values[pos], CLAMP_EPS, 1.0 - CLAMP_EPS)
    return float(np.mean(-np.log(c))), grad


def d_epi(F: FundamentalMatrix, x1s, x2s):
    """Perpendicular pixel distance from each x2 to the line F x1, over (N, 2)
    pixel arrays, plus its gradient w.r.t. the (u, v) of x2; returns (d, grad)
    arrays. Subgradient 0 on the line."""
    x1s = np.asarray(x1s, dtype=float)
    x2s = np.asarray(x2s, dtype=float)
    ones = np.ones((x1s.shape[0], 1))
    lines = np.hstack([x1s, ones]) @ F.m.T
    n = np.hypot(lines[:, 0], lines[:, 1])
    if np.any(n == 0.0):
        raise DegenerateLine("epipolar line with vanishing (a, b)")
    r = np.einsum("ij,ij->i", np.hstack([x2s, ones]), lines)
    d = np.abs(r) / n
    grad = np.sign(r)[:, None] * lines[:, :2] / n[:, None]
    return d, grad


def fine_loss_grad(F: FundamentalMatrix, x1s, x2s):
    """(loss, dL/dx2) for the epipolar fine loss."""
    x1s = np.asarray(x1s, dtype=float)
    if x1s.shape[0] == 0:
        raise EmptySupervision("no fine matches to supervise")
    d, g = d_epi(F, x1s, x2s)
    return float(np.mean(d)), g / x1s.shape[0]


def gt_fine_loss_grad(x2s, gt_points):
    """(loss, dL/dx2); subgradient 0 at exact hits."""
    x2s = np.asarray(x2s, dtype=float)
    gt = np.asarray(gt_points, dtype=float)
    if x2s.shape[0] == 0:
        raise EmptySupervision("no fine matches to supervise")
    diff = x2s - gt
    dist = np.linalg.norm(diff, axis=1)
    grad = np.zeros_like(diff)
    nz = dist > 0
    grad[nz] = diff[nz] / dist[nz, None]
    return float(np.mean(dist)), grad / x2s.shape[0]
