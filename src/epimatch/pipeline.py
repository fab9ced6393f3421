"""Training regimes: correspondence-supervised pretraining, pose-supervised
epipolar finetuning, and bootstrapped finetuning from estimated fundamental
matrices. All regimes are bit-deterministic given their seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (DegenerateBaseline, EmptyDatasetAfterFilter, EmptyInput, EpimatchError,
                     NonFiniteLoss, NotEnoughReplayPairs, check_count)
from .estimation import RansacConfig, ransac_fundamental
from .geometry import RelativePose, fundamental_from_pose, rotation_from_axis_angle
from .grid import GridSpec
from .losses import (
    LossConfig,
    coarse_loss_grad,
    epipolar_classification_mask,
    epipolar_line_set,
    fine_loss_grad,
    gt_classification_mask,
    gt_fine_loss_grad,
    naive_epipolar_mask,
)
from .matcher import (
    MatcherConfig,
    MatcherParams,
    backward,
    confidence_matrix,
    extract_features,
    fine_in_bounds,
    forward,
    refine_fine,
    select_coarse,
    sgd_step,
)
from .synth import gt_correspondence_grid


@dataclass
class TrainConfig:
    lr: float = 0.05
    weight_decay: float = 0.01
    momentum: float = 0.9
    batch_size: int = 4
    epochs: int = 25
    loss: LossConfig = field(default_factory=LossConfig)
    seed: int = 0
    # temperatures move on their own scale; the coarse one is damped so the
    # selection stays sharp, the fine one may recalibrate freely
    tau_coarse_lr_scale: float = 0.2
    tau_fine_lr_scale: float = 3.0

    def __post_init__(self):
        check_count("batch_size", self.batch_size, 1)
        check_count("epochs", self.epochs, 0)
        if not 0 < self.lr < np.inf:
            raise ValueError(f"lr must be finite and positive, got {self.lr!r}")
        if not (0 <= self.weight_decay < np.inf and 0 <= self.momentum < 1):
            raise ValueError("weight_decay must be finite and non-negative, momentum in [0, 1)")
        if not (0 <= self.tau_coarse_lr_scale < np.inf and 0 <= self.tau_fine_lr_scale < np.inf):
            raise ValueError("tau_coarse_lr_scale and tau_fine_lr_scale must be finite and non-negative")


# pretraining wants a larger step and learns only the coarse temperature:
# the fine softmax stays sharp so the refinement head must really localize
PRETRAIN_DEFAULTS = dict(lr=0.3, weight_decay=0.001, batch_size=8, epochs=30,
                         tau_coarse_lr_scale=1.0, tau_fine_lr_scale=0.0)


def pretrain_config(**overrides) -> TrainConfig:
    kw = dict(PRETRAIN_DEFAULTS)
    kw.update(overrides)
    return TrainConfig(**kw)


@dataclass
class BootstrapConfig:
    min_matches: int = 30
    min_inliers: int = 12
    ransac: RansacConfig = field(default_factory=lambda: RansacConfig(iterations=400, inlier_threshold=5e-4, seed=7))

    def __post_init__(self):
        check_count("min_matches", self.min_matches, 0)
        check_count("min_inliers", self.min_inliers, 0)
        if self.min_inliers > self.min_matches:
            raise ValueError("min_inliers must not exceed min_matches")


# the published filter thresholds, usable on full-scale data
PAPER_BOOTSTRAP_FILTER = BootstrapConfig(min_matches=100, min_inliers=20)


def perturb_pose(pose: RelativePose, noise_deg, rng) -> RelativePose:
    """Perturb the rotation by a random-axis rotation of noise_deg degrees
    and tilt the translation direction by exactly noise_deg. A NaN, infinite
    or negative angle raises ValueError."""
    if not 0 <= noise_deg < np.inf:
        raise ValueError(f"pose noise must be a finite non-negative angle, got {noise_deg}")
    if noise_deg == 0.0:
        return pose
    R_delta = rotation_from_axis_angle(rng.normal(size=3), np.radians(noise_deg))
    t = pose.t
    if np.linalg.norm(t) > 0.0:
        # rotate about a random axis perpendicular to t: the direction moves
        # by the full requested angle
        axis = np.cross(t, rng.normal(size=3))
        while np.linalg.norm(axis) < 1e-12:
            axis = np.cross(t, rng.normal(size=3))
        t = rotation_from_axis_angle(axis, np.radians(noise_deg)) @ t
    return RelativePose(R_delta @ pose.R, t)


def pose_fundamentals(dataset, noise_deg, seed):
    """Per-pair F from each pair's pose, turned by perturb_pose(noise_deg)
    on the [seed, 101, i] stream; None where the baseline is degenerate. A
    NaN or negative angle raises ValueError."""
    fs = []
    for i, pair in enumerate(dataset):
        try:
            pose = perturb_pose(pair.pose, noise_deg, np.random.default_rng([seed, 101, i]))
            fs.append(fundamental_from_pose(pair.K, pair.K, pose))
        except DegenerateBaseline:
            fs.append(None)
    return fs


def _gt_grids(pairs, mcfg: MatcherConfig):
    return [gt_correspondence_grid(p, GridSpec.for_image(*p.image1.shape, mcfg.patch_width)) for p in pairs]


def _pair_grads(pair, target, params, mcfg, loss_cfg, rng_key):
    """Losses and gradients of one training pair; None when the classification
    mask has no positive (the caller counts the pair as skipped).

    target is either a (targets, points) ground-truth grid tuple
    (teacher-forced coarse matches, one-hot mask, distance to the GT point)
    or a (3, 3) F array (epipolar supervision: the line-set mask that
    loss_cfg.naive_mask picks, mutual-argmax coarse matches, distance to the
    epipolar line). The fine loss supervises a random fraction of the M
    coarse matches that pass fine_in_bounds, drawn from rng_key; only those
    rows are refined and back-propagated, so the coarse stage runs here
    rather than through `forward`.

    Returns (grads, loss, coarse loss, fine loss, dropped), where dropped
    counts the coarse matches that fail fine_in_bounds.
    """
    epipolar = not isinstance(target, tuple)
    f1 = extract_features(pair.image1, mcfg)
    f2 = extract_features(pair.image2, mcfg)
    C, ccache = confidence_matrix(f1, f2, params)
    if epipolar:
        sets = epipolar_line_set(target, f1.grid, f2.grid, loss_cfg.theta)
        mask = naive_epipolar_mask(sets) if loss_cfg.naive_mask else epipolar_classification_mask(C, sets)
        i_idx, j_idx, _ = select_coarse(C, mcfg.match_threshold)
    else:
        targets, points = target
        mask = gt_classification_mask(targets)
        i_idx, j_idx = mask.rows, mask.cols
    if not mask.values.any():
        return None
    rows = np.flatnonzero(fine_in_bounds(f1, f2, mcfg, i_idx, j_idx))
    lam = loss_cfg.lam
    lc, (c_rows, c_cols, dc) = coarse_loss_grad(C, mask)
    lf, dfine, fcache = 0.0, None, dict(M=0)
    M = rows.size
    if M:
        keep_n = max(1, int(round(loss_cfg.fine_supervision_fraction * M)))
        sub = rows[np.random.default_rng(rng_key).permutation(M)[:keep_n]]
        i_sub, j_sub = i_idx[sub], j_idx[sub]
        x1s, x2s, fcache = refine_fine(f1, f2, params, mcfg, i_sub, j_sub)
        if epipolar:
            lf, df = fine_loss_grad(target, x1s, x2s)
        else:
            lf, df = gt_fine_loss_grad(x2s, points[i_sub])
        dfine = lam * df
    cache = dict(params=params, coarse=ccache, fine=fcache)
    grads = backward(cache, dC=(c_rows, c_cols, (1.0 - lam) * dc), dfine=dfine)
    return grads, (1.0 - lam) * lc + lam * lf, lc, lf, len(i_idx) - M


def _train(pairs, targets, params0: MatcherParams, cfg: TrainConfig, mcfg: MatcherConfig, replay=None):
    """The epoch loop of every regime: targets[k] supervises pairs[k], and a
    None target skips the pair. No pairs raise EmptyInput, and targets (or
    replay gts) that do not pair up one to one raise ValueError.

    replay: optional (pairs, gts) source set; each batch then adds as many
    source pairs, drawn without replacement, as it has target pairs. Each
    step averages the gradients of the pairs that ran. History rows hold the
    mean losses over the target pairs that ran, `skipped_pairs` (targets
    that are None), `empty_mask_pairs`, the pairs of the epoch (replay
    included) skipped for a mask with no positive, and `fine_dropped`, the
    coarse matches of the pairs that ran (replay included) that fail
    fine_in_bounds.
    """
    if not len(pairs):
        raise EmptyInput("no training pairs")
    if len(targets) != len(pairs) or (replay is not None and len(replay[1]) != len(replay[0])):
        raise ValueError("every pair, replay pairs included, needs exactly one target")
    skipped = sum(1 for t in targets if t is None)
    params = params0.copy()
    velocity = params.zeros_like()
    rng = np.random.default_rng(cfg.seed)
    history = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(pairs))
        tot = tot_c = tot_f = 0.0
        n_logged = empty = fine_dropped = 0
        for s0 in range(0, len(order), cfg.batch_size):
            batch = order[s0:s0 + cfg.batch_size]
            steps = [(pairs[k], targets[k], k, [cfg.seed, epoch, int(k)]) for k in batch]
            if replay is not None:
                ridx = rng.choice(len(replay[0]), size=len(batch), replace=False)
                steps += [(replay[0][k], replay[1][k], k, [cfg.seed, 77, epoch, int(k)]) for k in ridx]
            acc = params.zeros_like()
            used = 0
            for i, (pair, target, k, rng_key) in enumerate(steps):
                if target is None:
                    continue
                out = _pair_grads(pair, target, params, mcfg, cfg.loss, rng_key)
                if out is None:
                    empty += 1
                    continue
                grads, loss, lc, lf, dropped = out
                if not np.isfinite(loss):
                    raise NonFiniteLoss(f"non-finite loss on pair {k}")
                acc.add_(grads)
                used += 1
                fine_dropped += dropped
                if i < len(batch):
                    tot += loss
                    tot_c += lc
                    tot_f += lf
                    n_logged += 1
            if used:
                g = acc.scaled(1.0 / used)
                g.tau_coarse *= cfg.tau_coarse_lr_scale
                g.tau_fine *= cfg.tau_fine_lr_scale
                sgd_step(params, g, velocity, lr=cfg.lr, momentum=cfg.momentum,
                         weight_decay=cfg.weight_decay)
        n = max(n_logged, 1)
        history.append({"epoch": epoch, "loss": tot / n, "coarse_loss": tot_c / n,
                        "fine_loss": tot_f / n, "skipped_pairs": skipped,
                        "empty_mask_pairs": empty, "fine_dropped": fine_dropped})
    return params, history


def pretrain(dataset_a, params0: MatcherParams, cfg: TrainConfig, mcfg: MatcherConfig, gts=None):
    """Correspondence-supervised training on ground-truth matches.

    Returns (params, history) where history rows carry per-epoch mean losses.
    """
    return _train(dataset_a, _gt_grids(dataset_a, mcfg) if gts is None else gts, params0, cfg, mcfg)


def finetune_pose_supervised(dataset_b, params0: MatcherParams, cfg: TrainConfig, mcfg: MatcherConfig,
                             fundamentals=None, replay_pairs=None, replay_gts=None):
    """Epipolar finetuning: fundamentals[k], a (3, 3) F or None to skip the
    pair, supervises dataset_b[k]. None takes each pair's exact pose F
    (pose_fundamentals at zero noise); noisy poses and bootstrap estimates
    come in as lists. With non-empty replay_pairs, each batch adds an equal
    count of source pairs trained with the original supervised losses; a
    replay set smaller than one batch raises NotEnoughReplayPairs.
    """
    if fundamentals is None:
        fundamentals = pose_fundamentals(dataset_b, 0.0, cfg.seed)
    if all(f is None for f in fundamentals):
        raise EmptyDatasetAfterFilter("no pair has a usable fundamental matrix")

    replay = None
    if replay_pairs is not None and len(replay_pairs) > 0:
        draw = min(cfg.batch_size, len(dataset_b))
        if len(replay_pairs) < draw:
            raise NotEnoughReplayPairs(
                f"each batch replays {draw} source pairs without replacement, "
                f"but the replay set holds {len(replay_pairs)}")
        replay = (replay_pairs, _gt_grids(replay_pairs, mcfg) if replay_gts is None else replay_gts)
    return _train(dataset_b, fundamentals, params0, cfg, mcfg, replay=replay)


def bootstrap_fundamentals(dataset_b, params: MatcherParams, bcfg: BootstrapConfig, mcfg: MatcherConfig):
    """Estimate a fundamental matrix per pair from the model's own matches.

    Returns (list of (3, 3) F arrays or None, report dict). Pairs failing
    the match-count or inlier-count filters yield None. The report counts
    the pairs by outcome and, as `fine_dropped`, the coarse matches over all
    pairs that fail fine_in_bounds.
    """
    f_list = []
    report = {"n_pairs": len(dataset_b), "kept": 0, "dropped_few_matches": 0,
              "dropped_few_inliers": 0, "dropped_estimation_failed": 0, "fine_dropped": 0}
    for pair in dataset_b:
        pred, _ = forward(pair.image1, pair.image2, params, mcfg)
        report["fine_dropped"] += pred.dropped
        if pred.fine_x2.shape[0] < bcfg.min_matches:
            f_list.append(None)
            report["dropped_few_matches"] += 1
            continue
        try:
            res = ransac_fundamental(pred.fine_x1, pred.fine_x2, pair.K, pair.K, bcfg.ransac)
        except (EpimatchError, np.linalg.LinAlgError):
            f_list.append(None)
            report["dropped_estimation_failed"] += 1
            continue
        if res.inlier_count < bcfg.min_inliers:
            f_list.append(None)
            report["dropped_few_inliers"] += 1
            continue
        f_list.append(res.F)
        report["kept"] += 1
    return f_list, report


def bootstrap_finetune(dataset_b, params0: MatcherParams, cfg: TrainConfig, bcfg: BootstrapConfig,
                       mcfg: MatcherConfig, replay_pairs=None, replay_gts=None):
    """Estimate F per pair once up-front, then finetune against those
    estimates."""
    f_list, report = bootstrap_fundamentals(dataset_b, params0, bcfg, mcfg)
    params, history = finetune_pose_supervised(
        dataset_b, params0, cfg, mcfg, replay_pairs=replay_pairs,
        replay_gts=replay_gts, fundamentals=f_list)
    return params, history, report

