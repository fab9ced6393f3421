"""Training regimes: correspondence-supervised pretraining, pose-supervised
epipolar finetuning, and bootstrapped finetuning from estimated fundamental
matrices. All regimes are bit-deterministic given their seeds.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (DegenerateBaseline, EmptyDatasetAfterFilter, EmptyInput, EpimatchError,
                     NonFiniteLoss, NotEnoughReplayPairs)
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
    save_checkpoint,
    select_coarse,
    sgd_step,
)
from .synth import RenderedPair, gt_correspondence_grid


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
        if not 0 < self.lr < np.inf or self.batch_size < 1 or self.epochs < 0:
            raise ValueError("lr, batch_size and epochs must be positive, lr finite")
        if not (0 <= self.weight_decay < np.inf and 0 <= self.momentum < 1):
            raise ValueError("weight_decay must be finite and non-negative, momentum in [0, 1)")


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
        if self.min_inliers > self.min_matches:
            raise ValueError("min_inliers must not exceed min_matches")


# the published filter thresholds, usable on full-scale data
PAPER_BOOTSTRAP_FILTER = BootstrapConfig(min_matches=100, min_inliers=20)


@dataclass
class PoseNoiseConfig:
    rotation_deg: float = 0.0
    translation_deg: float = 0.0

    def __post_init__(self):
        if not (self.rotation_deg >= 0 and self.translation_deg >= 0):
            raise ValueError("noise magnitudes must be non-negative")


def perturb_pose(pose: RelativePose, noise: PoseNoiseConfig, rng) -> RelativePose:
    """Perturb the rotation by a random-axis rotation of the given magnitude
    and tilt the translation direction by exactly the given angle."""
    if noise.rotation_deg == 0.0 and noise.translation_deg == 0.0:
        return pose
    R_delta = rotation_from_axis_angle(rng.normal(size=3), np.radians(noise.rotation_deg))
    t = pose.t
    if noise.translation_deg > 0.0 and np.linalg.norm(t) > 0.0:
        # rotate about a random axis perpendicular to t: the direction moves
        # by the full requested angle
        axis = np.cross(t, rng.normal(size=3))
        while np.linalg.norm(axis) < 1e-12:
            axis = np.cross(t, rng.normal(size=3))
        t = rotation_from_axis_angle(axis, np.radians(noise.translation_deg)) @ t
    return RelativePose(R_delta @ pose.R, t)


def _grid_of(pair: RenderedPair, mcfg: MatcherConfig) -> GridSpec:
    return GridSpec.for_image(*pair.image1.shape, mcfg.patch_width)


def _pair_grads(pair, target, params, mcfg, loss_cfg, naive_mask, rng_key):
    """Losses and gradients of one training pair; None when the classification
    mask has no positive (the caller counts the pair as skipped).

    target is either a (targets, points) ground-truth grid tuple
    (teacher-forced coarse matches, one-hot mask, distance to the GT point)
    or a (3, 3) F array (epipolar supervision: line-set mask, mutual-argmax
    coarse matches, distance to the epipolar line). The fine loss supervises a
    random fraction of the M coarse matches that pass fine_in_bounds, drawn
    from rng_key; only those rows are refined and back-propagated, so the
    coarse stage runs here rather than through `forward`.

    Returns (grads, loss, coarse loss, fine loss, dropped), where dropped
    counts the coarse matches that fail fine_in_bounds.
    """
    epipolar = not isinstance(target, tuple)
    f1 = extract_features(pair.image1, mcfg)
    f2 = extract_features(pair.image2, mcfg)
    C, ccache = confidence_matrix(f1, f2, params)
    if epipolar:
        sets = epipolar_line_set(target, f1.grid, f2.grid, loss_cfg.theta)
        mask = naive_epipolar_mask(sets) if naive_mask else epipolar_classification_mask(C, sets)
        i_idx, j_idx, _ = select_coarse(C, mcfg.match_threshold)
    else:
        targets, points = target
        mask = gt_classification_mask(targets)
        i_idx = np.flatnonzero(targets >= 0)
        j_idx = targets[i_idx]
    if not mask.values.any():
        return None
    rows = np.flatnonzero(fine_in_bounds(f1, f2, mcfg, i_idx, j_idx))
    lam = loss_cfg.lam
    lc, (c_rows, c_cols, dc) = coarse_loss_grad(C, mask)
    lf = 0.0
    dfine = None
    fcache = dict(M=0)
    M = rows.size
    if M:
        keep_n = max(1, int(round(loss_cfg.fine_supervision_fraction * M)))
        sub = rows[np.random.default_rng(rng_key).permutation(M)[:keep_n]]
        i_sub, j_sub = i_idx[sub], j_idx[sub]
        x1s, x2s, _, fcache, _ = refine_fine(f1, f2, params, mcfg, i_sub, j_sub, C[i_sub, j_sub])
        if epipolar:
            lf, df = fine_loss_grad(target, x1s, x2s)
        else:
            lf, df = gt_fine_loss_grad(x2s, points[i_sub])
        dfine = lam * df
    cache = dict(params=params, coarse=ccache, fine=fcache)
    grads = backward(cache, dC=(c_rows, c_cols, (1.0 - lam) * dc), dfine=dfine)
    return grads, (1.0 - lam) * lc + lam * lf, lc, lf, len(i_idx) - M


def _train(pairs, targets, params0: MatcherParams, cfg: TrainConfig, mcfg: MatcherConfig,
           naive_mask=False, replay=None):
    """The epoch loop of every regime: targets[k] supervises pairs[k], and a
    None target skips the pair. No pairs at all raise EmptyInput.

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
                out = _pair_grads(pair, target, params, mcfg, cfg.loss, naive_mask, rng_key)
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


def pretrain(dataset_a, params0: MatcherParams, cfg: TrainConfig,
             mcfg: MatcherConfig | None = None, gts=None):
    """Correspondence-supervised training on ground-truth matches.

    Returns (params, history) where history rows carry per-epoch mean losses.
    """
    mcfg = mcfg or MatcherConfig()
    if gts is None:
        gts = [gt_correspondence_grid(p, _grid_of(p, mcfg)) for p in dataset_a]
    return _train(dataset_a, gts, params0, cfg, mcfg)


def finetune_pose_supervised(dataset_b, params0: MatcherParams, cfg: TrainConfig,
                             noise: PoseNoiseConfig | None = None,
                             mcfg: MatcherConfig | None = None,
                             replay_pairs=None, replay_gts=None,
                             f_override=None, naive_mask=False):
    """Epipolar finetuning with F from (optionally perturbed) poses.

    f_override: optional per-pair list of (3, 3) F arrays (or None to skip
    the pair) replacing the pose-derived F; used by the bootstrap regime.
    With non-empty replay_pairs, each batch adds an equal count of source
    pairs trained with the original supervised losses; a replay set smaller
    than one batch raises NotEnoughReplayPairs.
    """
    mcfg = mcfg or MatcherConfig()
    noise = noise or PoseNoiseConfig()

    if f_override is not None:
        f_per_pair = list(f_override)
    else:
        f_per_pair = []
        for i, pair in enumerate(dataset_b):
            noise_rng = np.random.default_rng([cfg.seed, 101, i])
            try:
                pose = perturb_pose(pair.pose, noise, noise_rng)
                f_per_pair.append(fundamental_from_pose(pair.K, pair.K, pose))
            except DegenerateBaseline:
                f_per_pair.append(None)
    if all(f is None for f in f_per_pair):
        raise EmptyDatasetAfterFilter("no pair has a usable fundamental matrix")

    replay = None
    if replay_pairs is not None and len(replay_pairs) > 0:
        draw = min(cfg.batch_size, len(dataset_b))
        if len(replay_pairs) < draw:
            raise NotEnoughReplayPairs(
                f"each batch replays {draw} source pairs without replacement, "
                f"but the replay set holds {len(replay_pairs)}")
        if replay_gts is None:
            replay_gts = [gt_correspondence_grid(p, _grid_of(p, mcfg)) for p in replay_pairs]
        replay = (replay_pairs, replay_gts)
    return _train(dataset_b, f_per_pair, params0, cfg, mcfg, naive_mask=naive_mask, replay=replay)


def bootstrap_fundamentals(dataset_b, params: MatcherParams, bcfg: BootstrapConfig,
                           mcfg: MatcherConfig | None = None):
    """Estimate a fundamental matrix per pair from the model's own matches.

    Returns (list of (3, 3) F arrays or None, report dict). Pairs failing
    the match-count or inlier-count filters yield None.
    """
    mcfg = mcfg or MatcherConfig()
    f_list = []
    report = {"n_pairs": len(dataset_b), "kept": 0, "dropped_few_matches": 0,
              "dropped_few_inliers": 0, "dropped_estimation_failed": 0}
    for pair in dataset_b:
        pred, _ = forward(pair.image1, pair.image2, params, mcfg)
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


def bootstrap_finetune(dataset_b, params0: MatcherParams, cfg: TrainConfig,
                       bcfg: BootstrapConfig, mcfg: MatcherConfig | None = None,
                       replay_pairs=None, replay_gts=None):
    """Estimate F per pair once up-front, then finetune against those
    estimates."""
    mcfg = mcfg or MatcherConfig()
    f_list, report = bootstrap_fundamentals(dataset_b, params0, bcfg, mcfg)
    if report["kept"] == 0:
        raise EmptyDatasetAfterFilter("bootstrap filter removed every pair")
    params, history = finetune_pose_supervised(
        dataset_b, params0, cfg, mcfg=mcfg, replay_pairs=replay_pairs,
        replay_gts=replay_gts, f_override=f_list)
    return params, history, report


def write_run_outputs(run_dir, params, history, extra=None):
    """Persist a training run's outputs: metrics CSV, checkpoint, report."""
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    if history:
        with open(run_dir / "metrics.csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(history[0].keys()))
            writer.writeheader()
            writer.writerows(history)
    save_checkpoint(run_dir / "checkpoint.bin", params)
    if extra:
        with open(run_dir / "report.json", "w") as fh:
            json.dump(extra, fh, indent=2, sort_keys=True)
