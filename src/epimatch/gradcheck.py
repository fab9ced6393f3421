"""Finite-difference verification of every analytic gradient path."""

from __future__ import annotations

from dataclasses import replace
from functools import partial

import numpy as np

from .geometry import canonicalize
from .losses import d_epi
from .matcher import MatcherConfig, backward, forward, init_params

D_EPI_BOUND = 1e-5
MATCHER_BOUND = 1e-4

# the suite's matcher on its 32x32 instance, and the same with 8 px fine
# patches at stride 1 and 11 x 11 correlation windows; every pinned match
# is refined under both
SUITE_CFG = MatcherConfig(patch_width=8, fine_patch=4, fine_stride=2, d=8, d_fine=6,
                          window_radius=2, match_threshold=0.2)
WIDE_FINE_CFG = replace(SUITE_CFG, fine_patch=8, fine_stride=1, window_radius=5)


def d_epi_suite(seed=0, instances=1000, h=1e-6, min_resid=1e-2):
    """Max relative error of the d_epi gradient against central differences,
    over random matches under one random F, all evaluated at once."""
    rng = np.random.default_rng(seed)
    F = canonicalize(rng.normal(size=(3, 3)))
    x1, x2 = np.empty((0, 2)), np.empty((0, 2))
    while x1.shape[0] < instances:
        a, b = rng.uniform(0, 100, (2, instances, 2))
        # skip the measure-zero non-differentiable band around the line
        off_line = d_epi(F, a, b)[0] >= min_resid
        x1, x2 = np.vstack([x1, a[off_line]]), np.vstack([x2, b[off_line]])
    x1, x2 = x1[:instances], x2[:instances]
    _, g = d_epi(F, x1, x2)
    fd = np.empty_like(g)
    for k, step in enumerate(np.eye(2) * h):
        fd[:, k] = (d_epi(F, x1, x2 + step)[0] - d_epi(F, x1, x2 - step)[0]) / (2 * h)
    rel = np.linalg.norm(g - fd, axis=1) / np.maximum(np.linalg.norm(fd, axis=1), 1e-12)
    return float(rel.max())


def matcher_suite(seed=0, h=1e-5, cfg=SUITE_CFG):
    """Full-Jacobian check of the matcher backward on a 4x4-cell instance
    under cfg, with four pinned coarse matches that are all refined.
    Returns the worst relative errors of the coarse stage (W_coarse and
    tau_coarse entries) and of the fine stage (W_fine and tau_fine), each
    stage on its own."""
    rng = np.random.default_rng(seed)
    img1 = rng.uniform(0, 1, (32, 32))
    img2 = rng.uniform(0, 1, (32, 32))
    params = init_params(cfg, seed=seed)
    pins = (np.array([5, 6, 9, 10]), np.array([10, 9, 6, 5]))
    G = rng.normal(size=(16, 16))
    g = rng.normal(size=(4, 2))

    pred, cache = forward(img1, img2, params, cfg, coarse_override=pins)
    if pred.dropped:
        raise ValueError(f"{pred.dropped} pinned matches leave the fine grid under {cfg}")
    every = np.divmod(np.arange(G.size), G.shape[1])
    grads = backward(cache, dC=(*every, G.ravel()), dfine=g)

    def loss_with(p):
        pr, _ = forward(img1, img2, p, cfg, coarse_override=pins)
        return float(np.sum(G * pr.C)) + float(np.sum(g * pr.fine_x2))

    def rel_err(put, orig, analytic):
        put(orig + h)
        lp = loss_with(params)
        put(orig - h)
        lm = loss_with(params)
        put(orig)
        fd = (lp - lm) / (2 * h)
        return abs(analytic - fd) / max(abs(fd), abs(analytic), 1e-6)

    def worst(stage):
        arr, garr = getattr(params, f"W_{stage}"), getattr(grads, f"W_{stage}")
        tau = f"tau_{stage}"
        errs = [rel_err(partial(arr.__setitem__, idx), arr[idx], garr[idx]) for idx in np.ndindex(arr.shape)]
        return max(errs + [rel_err(partial(setattr, params, tau), getattr(params, tau), getattr(grads, tau))])

    return worst("coarse"), worst("fine")


def run_gradcheck(seed=0, d_epi_instances=1000, matcher_seeds=20):
    """Both suites, the matcher's at SUITE_CFG and WIDE_FINE_CFG; returns a
    report with per-component worst errors, the matcher's as one coarse-stage
    and one fine-stage row per config."""
    e1 = d_epi_suite(seed=seed, instances=d_epi_instances)
    components = [("epipolar-distance gradient", e1, D_EPI_BOUND)]
    for label, cfg in (("", SUITE_CFG), (", 8/1/5 fine stage", WIDE_FINE_CFG)):
        errs = [matcher_suite(seed=seed + s, cfg=cfg) for s in range(matcher_seeds)]
        for stage, stage_errs in zip(("coarse", "fine"), zip(*errs)):
            components.append((f"matcher {stage} backward jacobian{label}", max(stage_errs), MATCHER_BOUND))
    passed = all(err < bound for _, err, bound in components)
    return {"components": components, "passed": passed}
