from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from epimatch import errors, pipeline
from epimatch.estimation import RansacConfig
from epimatch.geometry import RelativePose, fundamental_from_pose, symmetric_epipolar_distance_sq
from epimatch.grid import GridSpec
from epimatch.losses import (
    LossConfig,
    coarse_loss_grad,
    epipolar_classification_mask,
    epipolar_line_set,
    fine_loss_grad,
    gt_classification_mask,
    gt_fine_loss_grad,
)
from epimatch.matcher import MatcherConfig, backward, extract_features, fine_in_bounds, forward, init_params
from epimatch.metrics import rotation_error, translation_error
from epimatch.pipeline import (
    BootstrapConfig,
    PAPER_BOOTSTRAP_FILTER,
    TrainConfig,
    bootstrap_finetune,
    bootstrap_fundamentals,
    finetune_pose_supervised,
    perturb_pose,
    pose_fundamentals,
    pretrain,
    pretrain_config,
)
from epimatch.synth import gt_correspondence_grid, load_dataset, make_domain, sample_pair, save_dataset

MCFG = MatcherConfig()
HISTORY_KEYS = {"epoch", "loss", "coarse_loss", "fine_loss", "skipped_pairs", "empty_mask_pairs",
                "fine_dropped"}


def off_image_f():
    """F whose epipolar line is v = -1000 for every point: no cell is on it."""
    return np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1000.0]])


@pytest.fixture(scope="module")
def tiny_data():
    a = [sample_pair(make_domain("A", seed=31), i) for i in range(6)]
    b = [sample_pair(make_domain("B", seed=32), i) for i in range(6)]
    return a, b


@pytest.fixture(scope="module")
def warm_params(tiny_data):
    a, _ = tiny_data
    cfg = pretrain_config(epochs=4, seed=5)
    params, _ = pretrain(a, init_params(MCFG, seed=5), cfg, MCFG)
    return params


class TestPretrain:
    def test_zero_epochs_leaves_params_unchanged(self, tiny_data):
        a, _ = tiny_data
        params0 = init_params(MCFG, seed=1)
        cfg = pretrain_config(epochs=0, seed=1)
        params, history = pretrain(a, params0, cfg, MCFG)
        assert np.array_equal(params.W_coarse, params0.W_coarse)
        assert np.array_equal(params.W_fine, params0.W_fine)
        assert history == []

    def test_no_pairs_raises(self):
        with pytest.raises(errors.EmptyInput):
            pretrain([], init_params(MCFG, seed=1), pretrain_config(epochs=1), MCFG)

    def test_deterministic(self, tiny_data):
        a, _ = tiny_data
        cfg = pretrain_config(epochs=2, seed=9)
        p1, h1 = pretrain(a, init_params(MCFG, seed=9), cfg, MCFG)
        p2, h2 = pretrain(a, init_params(MCFG, seed=9), cfg, MCFG)
        assert p1.W_coarse.tobytes() == p2.W_coarse.tobytes()
        assert p1.W_fine.tobytes() == p2.W_fine.tobytes()
        assert p1.tau_coarse == p2.tau_coarse and p1.tau_fine == p2.tau_fine
        assert h1 == h2

    def test_training_reduces_coarse_loss(self, tiny_data):
        a, _ = tiny_data
        cfg = pretrain_config(epochs=8, seed=3)
        _, history = pretrain(a, init_params(MCFG, seed=3), cfg, MCFG)
        assert history[-1]["coarse_loss"] < history[0]["coarse_loss"]

    def test_empty_gt_grid_skipped_and_counted(self, tiny_data):
        a, _ = tiny_data
        gts = [gt_correspondence_grid(p, GridSpec.for_image(*p.image1.shape, MCFG.patch_width))
               for p in a]
        gts[2] = (np.full_like(gts[2][0], -1), gts[2][1])
        cfg = pretrain_config(epochs=2, seed=1)
        _, history = pretrain(a, init_params(MCFG, seed=1), cfg, MCFG, gts=gts)
        assert [row["empty_mask_pairs"] for row in history] == [1, 1]
        assert all(set(row) == HISTORY_KEYS and row["skipped_pairs"] == 0 for row in history)


def full_row_pair_grads(pair, target, params, mcfg, loss_cfg, rng_key):
    """Reference training step over every row: `forward` refines all M
    in-bound coarse matches, the fine loss reads the same random subset of
    them, and backward gets a fine gradient that is zero off that subset."""
    grid = GridSpec.for_image(*pair.image1.shape, mcfg.patch_width)
    epipolar = not isinstance(target, tuple)
    if epipolar:
        pred, cache = forward(pair.image1, pair.image2, params, mcfg)
        mask = epipolar_classification_mask(pred.C, epipolar_line_set(target, grid, grid, loss_cfg.theta))
    else:
        targets, points = target
        valid = np.flatnonzero(targets >= 0)
        pred, cache = forward(pair.image1, pair.image2, params, mcfg, coarse_override=(valid, targets[valid]))
        ok = fine_in_bounds(extract_features(pair.image1, mcfg), extract_features(pair.image2, mcfg), mcfg,
                            valid, targets[valid])
        mask = gt_classification_mask(targets)
    lam = loss_cfg.lam
    lc, (rows, cols, dc) = coarse_loss_grad(pred.C, mask)
    lf, dfine = 0.0, None
    M = len(pred.fine_x2)
    if M:
        keep_n = max(1, int(round(loss_cfg.fine_supervision_fraction * M)))
        sub = np.random.default_rng(rng_key).permutation(M)[:keep_n]
        if epipolar:
            lf, df = fine_loss_grad(target, pred.fine_x1[sub], pred.fine_x2[sub])
        else:
            lf, df = gt_fine_loss_grad(pred.fine_x2[sub], points[valid][ok][sub])
        dfine = np.zeros_like(pred.fine_x2)
        dfine[sub] = lam * df
    grads = backward(cache, dC=(rows, cols, (1.0 - lam) * dc), dfine=dfine)
    return grads, (1.0 - lam) * lc + lam * lf, lc, lf, pred


class TestPairGrads:
    """The training step refines and back-propagates only the fine rows it
    supervises, and equals the step over every row."""

    # threshold 0 keeps every mutual nearest neighbour, so epipolar targets
    # have fine matches too
    MCFG = MatcherConfig(match_threshold=0.0)

    @staticmethod
    def target(pair, kind):
        if kind == "gt":
            return gt_correspondence_grid(pair, GridSpec.for_image(*pair.image1.shape, MCFG.patch_width))
        return fundamental_from_pose(pair.K, pair.K, pair.pose)

    @staticmethod
    def spy_refine_fine(monkeypatch):
        rows = []
        original = pipeline.refine_fine

        def spy(feats1, feats2, params, cfg, i_idx, j_idx):
            rows.append(len(i_idx))
            return original(feats1, feats2, params, cfg, i_idx, j_idx)

        monkeypatch.setattr(pipeline, "refine_fine", spy)
        return rows

    @pytest.mark.parametrize("kind, fraction", [("gt", 0.3), ("epipolar", 0.3), ("gt", 1.0), ("epipolar", 1.0)])
    def test_equals_full_row_reference(self, tiny_data, warm_params, kind, fraction):
        a, b = tiny_data
        loss_cfg = LossConfig(fine_supervision_fraction=fraction)
        for k, pair in enumerate((a if kind == "gt" else b)[:3]):
            target = self.target(pair, kind)
            key = [7, 0, k]
            grads, total, lc, lf, dropped = pipeline._pair_grads(pair, target, warm_params, self.MCFG,
                                                                 loss_cfg, key)
            ref, ref_total, ref_lc, ref_lf, pred = full_row_pair_grads(pair, target, warm_params, self.MCFG,
                                                                       loss_cfg, key)
            assert len(pred.fine_x2) > 0 and lf > 0.0
            assert (total, lc, lf) == (ref_total, ref_lc, ref_lf)
            assert dropped == pred.dropped
            assert grads.W_coarse.tobytes() == ref.W_coarse.tobytes()
            assert grads.tau_coarse == ref.tau_coarse
            # the skipped rows add exact zeros, but fewer rows change the
            # summation order: errors scale with the largest entry, not with
            # an entry that cancels to near zero
            scale = np.abs(ref.W_fine).max()
            np.testing.assert_allclose(grads.W_fine, ref.W_fine, rtol=1e-12, atol=1e-12 * scale)
            assert grads.tau_fine == pytest.approx(ref.tau_fine, rel=1e-12)

    def test_refines_only_the_supervised_rows(self, tiny_data, warm_params, monkeypatch):
        a, _ = tiny_data
        rows = self.spy_refine_fine(monkeypatch)
        for k, pair in enumerate(a[:3]):
            targets, _ = target = self.target(pair, "gt")
            valid = np.flatnonzero(targets >= 0)
            pred, _ = forward(pair.image1, pair.image2, warm_params, MCFG, coarse_override=(valid, targets[valid]))
            M = len(pred.fine_x2)
            pipeline._pair_grads(pair, target, warm_params, MCFG, LossConfig(), [k])
            assert rows[-1] == max(1, round(0.3 * M)) < M

    def test_no_in_bound_match_refines_nothing(self, tiny_data, warm_params, monkeypatch):
        # a correlation window wider than the fine grid: every match drops
        mcfg = MatcherConfig(window_radius=40)
        a, _ = tiny_data
        pair = a[0]
        target = self.target(pair, "gt")
        rows = self.spy_refine_fine(monkeypatch)
        grads, total, lc, lf, dropped = pipeline._pair_grads(pair, target, warm_params, mcfg, LossConfig(), [0])
        ref, ref_total, ref_lc, _, pred = full_row_pair_grads(pair, target, warm_params, mcfg, LossConfig(), [0])
        assert rows == [] and lf == 0.0
        assert dropped == pred.dropped == np.count_nonzero(target[0] >= 0) > 0
        assert not grads.W_fine.any() and grads.tau_fine == 0.0
        assert (total, lc) == (ref_total, ref_lc)
        assert grads.W_coarse.tobytes() == ref.W_coarse.tobytes() and grads.tau_coarse == ref.tau_coarse

    def test_history_counts_dropped_matches(self, tiny_data):
        a, _ = tiny_data
        gts = [self.target(p, "gt") for p in a]
        params0 = init_params(MCFG, seed=1)
        _, history = pretrain(a, params0, pretrain_config(epochs=2, seed=1), MCFG, gts=gts)
        drops = 0
        for pair, (targets, _) in zip(a, gts):
            valid = np.flatnonzero(targets >= 0)
            pred, _ = forward(pair.image1, pair.image2, params0, MCFG, coarse_override=(valid, targets[valid]))
            drops += pred.dropped
        # teacher-forced matches and the drop rule do not depend on the weights
        assert [row["fine_dropped"] for row in history] == [drops, drops]
        assert drops > 0


class TestPerturbPose:
    def test_zero_noise_is_identity(self, tiny_data):
        _, b = tiny_data
        rng = np.random.default_rng(0)
        pose = perturb_pose(b[0].pose, 0.0, rng)
        assert np.array_equal(pose.R, b[0].pose.R)

    def test_magnitudes_respected(self, tiny_data):
        _, b = tiny_data
        rng = np.random.default_rng(0)
        pose = perturb_pose(b[0].pose, 2.0, rng)
        assert rotation_error(np.eye(3), pose.R @ b[0].pose.R.T) == pytest.approx(2.0, abs=1e-9)
        assert translation_error(pose.t, b[0].pose.t) == pytest.approx(2.0, abs=1e-6)


class TestConfigRangeChecks:
    """NaN fails every range check: each is written so that NaN is out of range."""

    @pytest.mark.parametrize("make", [
        lambda x: LossConfig(theta=x),
        # one angle drives both perturbations: a pure rotation (t = 0) and a
        # pose whose translation direction is tilted as well
        lambda x: perturb_pose(RelativePose(np.eye(3), np.zeros(3)), x, np.random.default_rng(0)),
        lambda x: perturb_pose(RelativePose(np.eye(3), np.ones(3)), x, np.random.default_rng(0)),
        lambda x: TrainConfig(lr=x),
        lambda x: TrainConfig(weight_decay=x),
        lambda x: TrainConfig(tau_coarse_lr_scale=x),
        lambda x: TrainConfig(tau_fine_lr_scale=x),
        lambda x: RansacConfig(inlier_threshold=x),
    ], ids=["theta", "rotation_noise", "translation_noise", "lr", "weight_decay",
            "tau_coarse_lr_scale", "tau_fine_lr_scale", "inlier_threshold"])
    def test_nan_and_out_of_range_values_are_refused(self, make):
        for bad in (float("nan"), -1.0, float("inf")):
            with pytest.raises(ValueError):
                make(bad)
        make(1.0)

    @pytest.mark.parametrize("t", [np.zeros(3), np.ones(3)], ids=["rotation_noise", "translation_noise"])
    def test_infinite_pose_noise_is_refused(self, t):
        # an infinite angle would turn every R into NaN and empty every mask
        with pytest.raises(ValueError, match="finite non-negative angle"):
            perturb_pose(RelativePose(np.eye(3), t), float("inf"), np.random.default_rng(0))

    @pytest.mark.parametrize("field", ["lr", "weight_decay"])
    def test_infinite_step_setting_is_refused(self, field):
        with pytest.raises(ValueError):
            TrainConfig(**{field: float("inf")})

    def test_frozen_temperature_is_allowed(self):
        # a NaN scale would surface mid-run as NonFiniteGradient and a
        # negative one would move tau up its gradient; zero freezes tau
        with pytest.raises(ValueError, match="tau_coarse_lr_scale"):
            TrainConfig(tau_coarse_lr_scale=float("nan"), tau_fine_lr_scale=-3.0)
        assert pretrain_config().tau_fine_lr_scale == 0.0
        TrainConfig(tau_coarse_lr_scale=0.0, tau_fine_lr_scale=0.0)

    def test_momentum_outside_the_unit_interval_is_refused(self):
        for bad in (float("nan"), -0.1, 1.0):
            with pytest.raises(ValueError):
                TrainConfig(momentum=bad)
        TrainConfig(momentum=0.0)

    @pytest.mark.parametrize("field", ["epochs", "batch_size"])
    def test_fractional_or_nan_count_is_refused(self, field):
        # range() would raise TypeError on these only once training starts
        for bad in (2.5, 1.5, float("nan"), 2.0):
            with pytest.raises(ValueError, match=f"{field} must be a whole number >="):
                TrainConfig(**{field: bad})
        TrainConfig(**{field: np.int64(2)})

    @pytest.mark.parametrize("kwargs", [dict(batch_size=True), dict(epochs=False)])
    def test_bool_train_count_is_refused(self, kwargs):
        # True and False are ints to isinstance, but no count is a bool
        with pytest.raises(ValueError, match="whole number >="):
            TrainConfig(**kwargs)

    def test_bool_bootstrap_count_is_refused(self):
        with pytest.raises(ValueError, match="whole number >= 0"):
            BootstrapConfig(min_matches=True, min_inliers=False)

    @pytest.mark.parametrize("kwargs", [dict(min_matches=-5, min_inliers=-9), dict(min_inliers=-1),
                                        dict(min_matches=30.5), dict(min_inliers=1.5), dict(min_inliers=float("nan"))])
    def test_negative_or_fractional_bootstrap_count_is_refused(self, kwargs):
        with pytest.raises(ValueError, match="whole number >= 0"):
            BootstrapConfig(**kwargs)


class TestPoseFundamentals:
    NOISE = 5.0

    def test_entries_are_perturbed_pose_fs(self, tiny_data):
        _, b = tiny_data
        for i, F in enumerate(pose_fundamentals(b, self.NOISE, 9)):
            pose = perturb_pose(b[i].pose, self.NOISE, np.random.default_rng([9, 101, i]))
            assert F.tobytes() == fundamental_from_pose(b[i].K, b[i].K, pose).tobytes()

    def test_a_prefix_gets_the_same_fs(self, tiny_data):
        _, b = tiny_data
        prefix, full = pose_fundamentals(b[:2], self.NOISE, 9), pose_fundamentals(b, self.NOISE, 9)
        assert [F.tobytes() for F in prefix] == [F.tobytes() for F in full[:2]]

    def test_pure_rotation_gives_none(self, tiny_data):
        _, b = tiny_data
        rotation = SimpleNamespace(pose=RelativePose(b[0].pose.R, np.zeros(3)), K=b[0].K)
        fs = pose_fundamentals([b[0], rotation, b[1]], self.NOISE, 9)
        assert [F is None for F in fs] == [False, True, False]

    @pytest.mark.parametrize("bad", [float("nan"), -1.0])
    def test_nan_or_negative_angle_is_refused(self, tiny_data, bad):
        _, b = tiny_data
        with pytest.raises(ValueError, match="finite non-negative angle"):
            pose_fundamentals(b, bad, 9)


class TestTargetCounts:
    """Every training pair, replay pairs included, takes exactly one target:
    a list of another length is refused before any step."""

    @pytest.fixture(autouse=True)
    def no_step(self, monkeypatch):
        def step(*args, **kwargs):
            raise AssertionError("a training step ran")

        monkeypatch.setattr(pipeline, "_pair_grads", step)

    @staticmethod
    def resized(targets, how):
        # too long: the extra entries are Nones, which would count as skipped
        return targets[:-1] if how == "short" else targets + [None, None]

    @pytest.mark.parametrize("how", ["short", "long"])
    def test_pretrain_gts(self, tiny_data, how):
        a, _ = tiny_data
        gts = [TestPairGrads.target(p, "gt") for p in a[:3]]
        with pytest.raises(ValueError, match="exactly one target"):
            pretrain(a[:3], init_params(MCFG, seed=1), pretrain_config(epochs=1), MCFG, gts=self.resized(gts, how))

    @pytest.mark.parametrize("how", ["short", "long"])
    def test_finetune_fundamentals(self, tiny_data, warm_params, how):
        _, b = tiny_data
        fs = pose_fundamentals(b[:3], 0.0, 0)
        with pytest.raises(ValueError, match="exactly one target"):
            finetune_pose_supervised(b[:3], warm_params, TrainConfig(epochs=1), MCFG,
                                     fundamentals=self.resized(fs, how))

    @pytest.mark.parametrize("how", ["short", "long"])
    def test_replay_gts(self, tiny_data, warm_params, how):
        a, b = tiny_data
        gts = [TestPairGrads.target(p, "gt") for p in a]
        with pytest.raises(ValueError, match="exactly one target"):
            finetune_pose_supervised(b, warm_params, TrainConfig(epochs=1), MCFG, replay_pairs=a,
                                     replay_gts=self.resized(gts, how))


class TestFinetune:
    def test_zero_noise_equals_exact_f(self, tiny_data, warm_params):
        a, b = tiny_data
        cfg = TrainConfig(epochs=2, seed=4)
        exact_fs = [fundamental_from_pose(p.K, p.K, p.pose) for p in b]
        p1, h1 = finetune_pose_supervised(b, warm_params, cfg, MCFG,
                                          fundamentals=pose_fundamentals(b, 0.0, cfg.seed), replay_pairs=a)
        p2, h2 = finetune_pose_supervised(b, warm_params, cfg, MCFG, replay_pairs=a,
                                          fundamentals=exact_fs)
        assert p1.W_coarse.tobytes() == p2.W_coarse.tobytes()
        assert p1.W_fine.tobytes() == p2.W_fine.tobytes()
        assert h1 == h2

    def test_deterministic(self, tiny_data, warm_params):
        a, b = tiny_data
        cfg = TrainConfig(epochs=2, seed=4)
        p1, _ = finetune_pose_supervised(b, warm_params, cfg, MCFG, replay_pairs=a)
        p2, _ = finetune_pose_supervised(b, warm_params, cfg, MCFG, replay_pairs=a)
        assert p1.W_coarse.tobytes() == p2.W_coarse.tobytes()

    def test_full_batch_loss_non_increasing(self, tiny_data, warm_params):
        # full-batch sanity mode: zero pose noise, replay off, deterministic
        # fine supervision, momentum off, conservative step
        _, b = tiny_data
        cfg = TrainConfig(epochs=6, seed=2, batch_size=len(b), lr=1e-3, momentum=0.0,
                          weight_decay=0.0,
                          loss=LossConfig(fine_supervision_fraction=1.0))
        _, history = finetune_pose_supervised(b, warm_params, cfg, MCFG)
        losses = [row["loss"] for row in history]
        assert all(l2 <= l1 + 1e-9 for l1, l2 in zip(losses, losses[1:]))

    def test_replay_leaves_logged_target_losses_unchanged(self, tiny_data, warm_params):
        # one full batch: every B pair sees the initial parameters, so the
        # mean over the B pairs must not depend on the replayed source pairs
        a, b = tiny_data
        cfg = TrainConfig(epochs=1, seed=3, batch_size=len(b))
        _, with_replay = finetune_pose_supervised(b, warm_params, cfg, MCFG, replay_pairs=a)
        _, without = finetune_pose_supervised(
            b, warm_params, TrainConfig(epochs=1, seed=3, batch_size=len(b)), MCFG)
        for key in ("loss", "coarse_loss", "fine_loss"):
            assert with_replay[0][key] == without[0][key]

    def test_empty_epipolar_mask_skipped_and_counted(self, tiny_data, warm_params):
        a, b = tiny_data
        fs = [fundamental_from_pose(p.K, p.K, p.pose) for p in b]
        fs[0] = off_image_f()
        fs[1] = None
        cfg = TrainConfig(epochs=2, seed=4)
        _, history = finetune_pose_supervised(b, warm_params, cfg, MCFG, replay_pairs=a, fundamentals=fs)
        assert [row["empty_mask_pairs"] for row in history] == [1, 1]
        assert all(set(row) == HISTORY_KEYS and row["skipped_pairs"] == 1 for row in history)

    def test_replay_set_smaller_than_batch_raises(self, tiny_data, warm_params):
        a, b = tiny_data
        cfg = TrainConfig(epochs=1, seed=0, batch_size=4)
        with pytest.raises(errors.NotEnoughReplayPairs, match=r"replays 4 source pairs.*holds 2"):
            finetune_pose_supervised(b[:4], warm_params, cfg, MCFG, replay_pairs=a[:2])
        # a batch of 2 draws no more than the set holds
        cfg = TrainConfig(epochs=1, seed=0, batch_size=2)
        _, history = finetune_pose_supervised(b[:4], warm_params, cfg, MCFG, replay_pairs=a[:2])
        assert len(history) == 1

    def test_all_pairs_unusable_raises(self, tiny_data, warm_params):
        _, b = tiny_data
        cfg = TrainConfig(epochs=1, seed=0)
        with pytest.raises(errors.EmptyDatasetAfterFilter):
            finetune_pose_supervised(b, warm_params, cfg, MCFG, fundamentals=[None] * len(b))


class TestBootstrap:
    def test_filter_report_counts_sum(self, tiny_data, warm_params):
        _, b = tiny_data
        bcfg = BootstrapConfig(min_matches=5, min_inliers=5)
        f_list, report = bootstrap_fundamentals(b, warm_params, bcfg, MCFG)
        total = (report["kept"] + report["dropped_few_matches"]
                 + report["dropped_few_inliers"] + report["dropped_estimation_failed"])
        assert total == report["n_pairs"] == len(b)
        assert sum(f is not None for f in f_list) == report["kept"]

    def test_report_counts_the_matches_dropped_at_the_border(self, tiny_data, warm_params):
        # a wide fine window with no confidence threshold: coarse matches near
        # the border have no room for their window and are dropped
        _, b = tiny_data
        mcfg = replace(MCFG, window_radius=6, match_threshold=0.0)
        dropped = [forward(p.image1, p.image2, warm_params, mcfg)[0].dropped for p in b[:3]]
        _, report = bootstrap_fundamentals(b[:3], warm_params, BootstrapConfig(), mcfg)
        assert report["fine_dropped"] == sum(dropped) > 0
        outcomes = sum(v for k, v in report.items() if k.startswith("dropped_"))
        assert report["kept"] + outcomes == report["n_pairs"] == 3

    def test_min_matches_filter(self, tiny_data, warm_params):
        _, b = tiny_data
        bcfg = BootstrapConfig(min_matches=10_000, min_inliers=1)
        f_list, report = bootstrap_fundamentals(b, warm_params, bcfg, MCFG)
        assert report["kept"] == 0
        assert report["dropped_few_matches"] == len(b)

    def test_injected_gt_f_matches_pose_supervised(self, tiny_data, warm_params, monkeypatch):
        a, b = tiny_data
        cfg = TrainConfig(epochs=2, seed=4)
        exact_fs = [fundamental_from_pose(p.K, p.K, p.pose) for p in b]
        report = {"n_pairs": len(b), "kept": len(b)}
        monkeypatch.setattr(pipeline, "bootstrap_fundamentals", lambda *args, **kwargs: (exact_fs, report))
        p1, h1, r1 = bootstrap_finetune(b, warm_params, cfg, BootstrapConfig(), MCFG, replay_pairs=a)
        p2, h2 = finetune_pose_supervised(b, warm_params, cfg, MCFG, replay_pairs=a,
                                          fundamentals=exact_fs)
        assert r1 is report
        assert p1.W_coarse.tobytes() == p2.W_coarse.tobytes()
        assert p1.W_fine.tobytes() == p2.W_fine.tobytes()
        assert h1 == h2
        assert all(set(row) == HISTORY_KEYS for row in h1)

    def test_estimated_fs_are_kept_and_trained_on(self, tiny_data, warm_params, monkeypatch):
        # the matcher returns each pair's GT grid matches, which the pose
        # explains exactly; pair 0 keeps only 10 of them and fails min_matches
        _, b = tiny_data
        matches = {}
        for k, pair in enumerate(b):
            grid = GridSpec.for_image(*pair.image1.shape, MCFG.patch_width)
            targets, points = gt_correspondence_grid(pair, grid)
            valid = np.flatnonzero(targets >= 0)[:10 if k == 0 else None]
            matches[id(pair.image1)] = (grid.cell_centers()[valid], points[valid])
        monkeypatch.setattr(pipeline, "forward", lambda img1, *args: (
            SimpleNamespace(fine_x1=matches[id(img1)][0], fine_x2=matches[id(img1)][1], dropped=0), None))
        f_list, report = bootstrap_fundamentals(b, warm_params, BootstrapConfig(), MCFG)
        assert report["kept"] == len(b) - 1 and report["dropped_few_matches"] == 1
        assert f_list[0] is None
        for pair, F in zip(b[1:], f_list[1:]):
            assert isinstance(F, np.ndarray) and F.shape == (3, 3)
            x1, x2 = (np.column_stack([x, np.ones(len(x))]) for x in matches[id(pair.image1)])
            F_pose = fundamental_from_pose(pair.K, pair.K, pair.pose)
            assert np.max(symmetric_epipolar_distance_sq(F_pose, x1, x2)) < 1e-20
            assert np.max(symmetric_epipolar_distance_sq(F, x1, x2)) < 1e-20
        # training on the estimates skips pair 0 and otherwise follows the
        # pose-derived Fs they agree with
        cfg = TrainConfig(epochs=2, seed=4)
        pose_fs = [None] + [fundamental_from_pose(p.K, p.K, p.pose) for p in b[1:]]
        params, history = finetune_pose_supervised(b, warm_params, cfg, MCFG, fundamentals=f_list)
        _, reference = finetune_pose_supervised(b, warm_params, cfg, MCFG, fundamentals=pose_fs)
        assert not np.array_equal(params.W_coarse, warm_params.W_coarse)
        for row, ref in zip(history, reference):
            assert row["skipped_pairs"] == 1 and row["empty_mask_pairs"] == 0
            assert row["loss"] == pytest.approx(ref["loss"], rel=1e-9)

    @pytest.mark.parametrize("fine_x1, counted", [(np.zeros((5, 2)), True), ([[1j, 1j]] * 5, False)],
                             ids=["NotEnoughMatches", "TypeError"])
    def test_estimation_errors_counted_by_type(self, tiny_data, warm_params, monkeypatch,
                                               fine_x1, counted):
        # 5 matches pass min_matches = 5, then RANSAC raises NotEnoughMatches
        # (counted); complex coordinates raise TypeError, a defect that
        # propagates
        _, b = tiny_data
        pred = SimpleNamespace(fine_x1=fine_x1, fine_x2=np.zeros((5, 2)), dropped=0)
        monkeypatch.setattr(pipeline, "forward", lambda *args, **kwargs: (pred, None))
        bcfg = BootstrapConfig(min_matches=5, min_inliers=5)
        if counted:
            f_list, report = bootstrap_fundamentals(b[:2], warm_params, bcfg, MCFG)
            assert f_list == [None, None]
            assert report["dropped_estimation_failed"] == 2
        else:
            with pytest.raises(TypeError):
                bootstrap_fundamentals(b[:2], warm_params, bcfg, MCFG)

    def test_empty_after_filter_raises(self, tiny_data, warm_params):
        a, b = tiny_data
        cfg = TrainConfig(epochs=1, seed=0)
        bcfg = BootstrapConfig(min_matches=10_000, min_inliers=1)
        with pytest.raises(errors.EmptyDatasetAfterFilter, match="^no pair has a usable fundamental matrix$"):
            bootstrap_finetune(b, warm_params, cfg, bcfg, MCFG, replay_pairs=a)

    def test_paper_preset_values(self):
        assert PAPER_BOOTSTRAP_FILTER.min_matches == 100
        assert PAPER_BOOTSTRAP_FILTER.min_inliers == 20

    def test_invalid_filter(self):
        with pytest.raises(ValueError):
            BootstrapConfig(min_matches=5, min_inliers=10)


def test_dataset_from_disk_trains_like_its_renders(tmp_path, tiny_data, warm_params):
    a, b = tiny_data
    for name, seed in (("A", 31), ("B", 32)):
        save_dataset(make_domain(name, seed=seed), len(a), tmp_path / name)
    runs = [
        lambda a, b: pretrain(a, init_params(MCFG, seed=5), pretrain_config(epochs=2, seed=5), MCFG),
        lambda a, b: finetune_pose_supervised(b, warm_params, TrainConfig(epochs=2, seed=4), MCFG,
                                              replay_pairs=a),
    ]
    for run in runs:
        p1, h1 = run(a, b)
        p2, h2 = run(load_dataset(tmp_path / "A"), load_dataset(tmp_path / "B"))
        assert p1.W_coarse.tobytes() == p2.W_coarse.tobytes()
        assert p1.W_fine.tobytes() == p2.W_fine.tobytes()
        assert (p1.tau_coarse, p1.tau_fine) == (p2.tau_coarse, p2.tau_fine)
        assert h1 == h2


class TestRunOutputs:
    def test_run_directory_contents(self, tmp_path, warm_params):
        # a training run's outputs are written by the CLI, from what pipeline returns
        from epimatch.cli import _write_training_run
        from epimatch.matcher import load_checkpoint

        history = [{"epoch": 0, "loss": 1.0, "coarse_loss": 2.0, "fine_loss": 0.5}]
        _write_training_run(SimpleNamespace(out=tmp_path / "run"), warm_params, MCFG, history, report={"b": 2})
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == [
            "checkpoint.bin", "metrics.csv", "report.json"]
        assert (tmp_path / "run" / "checkpoint.bin").exists()
        assert (tmp_path / "run" / "report.json").exists()
        loaded, mcfg = load_checkpoint(tmp_path / "run" / "checkpoint.bin")
        assert np.array_equal(loaded.W_coarse, warm_params.W_coarse)
        assert mcfg == MCFG
