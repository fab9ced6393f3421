from types import SimpleNamespace

import numpy as np
import pytest

from epimatch import errors, pipeline
from epimatch.geometry import FundamentalMatrix, fundamental_from_pose
from epimatch.grid import GridSpec
from epimatch.losses import LossConfig
from epimatch.matcher import MatcherConfig, init_params
from epimatch.metrics import rotation_error, translation_error
from epimatch.pipeline import (
    BootstrapConfig,
    PAPER_BOOTSTRAP_FILTER,
    PoseNoiseConfig,
    TrainConfig,
    bootstrap_finetune,
    bootstrap_fundamentals,
    finetune_pose_supervised,
    perturb_pose,
    pretrain,
    pretrain_config,
    write_run_outputs,
)
from epimatch.synth import gt_correspondence_grid, make_domain, sample_pair

MCFG = MatcherConfig()
HISTORY_KEYS = {"epoch", "loss", "coarse_loss", "fine_loss", "skipped_pairs", "empty_mask_pairs"}


def off_image_f():
    """F whose epipolar line is v = -1000 for every point: no cell is on it."""
    return FundamentalMatrix(np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1000.0]]))


@pytest.fixture(scope="module")
def tiny_data():
    a = [sample_pair(make_domain("A", seed=31), i) for i in range(6)]
    b = [sample_pair(make_domain("B", seed=32), i) for i in range(6)]
    return a, b


@pytest.fixture(scope="module")
def warm_params(tiny_data):
    a, _ = tiny_data
    cfg = pretrain_config(epochs=4, seed=5)
    params, _ = pretrain(a, init_params(MCFG, seed=5), cfg)
    return params


class TestPretrain:
    def test_zero_epochs_leaves_params_unchanged(self, tiny_data):
        a, _ = tiny_data
        params0 = init_params(MCFG, seed=1)
        cfg = pretrain_config(epochs=0, seed=1)
        params, history = pretrain(a, params0, cfg)
        assert np.array_equal(params.W_coarse, params0.W_coarse)
        assert np.array_equal(params.W_fine, params0.W_fine)
        assert history == []

    def test_deterministic(self, tiny_data):
        a, _ = tiny_data
        cfg = pretrain_config(epochs=2, seed=9)
        p1, h1 = pretrain(a, init_params(MCFG, seed=9), cfg)
        p2, h2 = pretrain(a, init_params(MCFG, seed=9), cfg)
        assert p1.W_coarse.tobytes() == p2.W_coarse.tobytes()
        assert p1.W_fine.tobytes() == p2.W_fine.tobytes()
        assert p1.tau_coarse == p2.tau_coarse and p1.tau_fine == p2.tau_fine
        assert h1 == h2

    def test_training_reduces_coarse_loss(self, tiny_data):
        a, _ = tiny_data
        cfg = pretrain_config(epochs=8, seed=3)
        _, history = pretrain(a, init_params(MCFG, seed=3), cfg)
        assert history[-1]["coarse_loss"] < history[0]["coarse_loss"]

    def test_empty_gt_grid_skipped_and_counted(self, tiny_data):
        a, _ = tiny_data
        gts = [gt_correspondence_grid(p, GridSpec.for_image(*p.image1.shape, MCFG.patch_width))
               for p in a]
        gts[2] = (np.full_like(gts[2][0], -1), gts[2][1])
        cfg = pretrain_config(epochs=2, seed=1)
        _, history = pretrain(a, init_params(MCFG, seed=1), cfg, gts=gts)
        assert [row["empty_mask_pairs"] for row in history] == [1, 1]
        assert all(set(row) == HISTORY_KEYS and row["skipped_pairs"] == 0 for row in history)


class TestPerturbPose:
    def test_zero_noise_is_identity(self, tiny_data):
        _, b = tiny_data
        rng = np.random.default_rng(0)
        pose = perturb_pose(b[0].pose, PoseNoiseConfig(0.0, 0.0), rng)
        assert np.array_equal(pose.R, b[0].pose.R)

    def test_magnitudes_respected(self, tiny_data):
        _, b = tiny_data
        rng = np.random.default_rng(0)
        pose = perturb_pose(b[0].pose, PoseNoiseConfig(2.0, 2.0), rng)
        assert rotation_error(np.eye(3), pose.R @ b[0].pose.R.T) == pytest.approx(2.0, abs=1e-9)
        assert translation_error(pose.t, b[0].pose.t) == pytest.approx(2.0, abs=1e-6)


class TestFinetune:
    def test_zero_noise_equals_exact_f(self, tiny_data, warm_params):
        a, b = tiny_data
        cfg = TrainConfig(epochs=2, seed=4)
        exact_fs = [fundamental_from_pose(p.K, p.K, p.pose) for p in b]
        p1, h1 = finetune_pose_supervised(b, warm_params, cfg, noise=PoseNoiseConfig(0, 0),
                                          replay_pairs=a)
        p2, h2 = finetune_pose_supervised(b, warm_params, cfg, replay_pairs=a,
                                          f_override=exact_fs)
        assert p1.W_coarse.tobytes() == p2.W_coarse.tobytes()
        assert p1.W_fine.tobytes() == p2.W_fine.tobytes()
        assert h1 == h2

    def test_deterministic(self, tiny_data, warm_params):
        a, b = tiny_data
        cfg = TrainConfig(epochs=2, seed=4)
        p1, _ = finetune_pose_supervised(b, warm_params, cfg, replay_pairs=a)
        p2, _ = finetune_pose_supervised(b, warm_params, cfg, replay_pairs=a)
        assert p1.W_coarse.tobytes() == p2.W_coarse.tobytes()

    def test_full_batch_loss_non_increasing(self, tiny_data, warm_params):
        # full-batch sanity mode: zero pose noise, replay off, deterministic
        # fine supervision, momentum off, conservative step
        _, b = tiny_data
        cfg = TrainConfig(epochs=6, seed=2, batch_size=len(b), lr=1e-3, momentum=0.0,
                          weight_decay=0.0,
                          loss=LossConfig(fine_supervision_fraction=1.0))
        _, history = finetune_pose_supervised(b, warm_params, cfg)
        losses = [row["loss"] for row in history]
        assert all(l2 <= l1 + 1e-9 for l1, l2 in zip(losses, losses[1:]))

    def test_replay_leaves_logged_target_losses_unchanged(self, tiny_data, warm_params):
        # one full batch: every B pair sees the initial parameters, so the
        # mean over the B pairs must not depend on the replayed source pairs
        a, b = tiny_data
        cfg = TrainConfig(epochs=1, seed=3, batch_size=len(b))
        _, with_replay = finetune_pose_supervised(b, warm_params, cfg, replay_pairs=a)
        _, without = finetune_pose_supervised(
            b, warm_params, TrainConfig(epochs=1, seed=3, batch_size=len(b)))
        for key in ("loss", "coarse_loss", "fine_loss"):
            assert with_replay[0][key] == without[0][key]

    def test_empty_epipolar_mask_skipped_and_counted(self, tiny_data, warm_params):
        a, b = tiny_data
        fs = [fundamental_from_pose(p.K, p.K, p.pose) for p in b]
        fs[0] = off_image_f()
        fs[1] = None
        cfg = TrainConfig(epochs=2, seed=4)
        _, history = finetune_pose_supervised(b, warm_params, cfg, replay_pairs=a, f_override=fs)
        assert [row["empty_mask_pairs"] for row in history] == [1, 1]
        assert all(set(row) == HISTORY_KEYS and row["skipped_pairs"] == 1 for row in history)

    def test_replay_set_smaller_than_batch_raises(self, tiny_data, warm_params):
        a, b = tiny_data
        cfg = TrainConfig(epochs=1, seed=0, batch_size=4)
        with pytest.raises(errors.NotEnoughReplayPairs, match=r"replays 4 source pairs.*holds 2"):
            finetune_pose_supervised(b[:4], warm_params, cfg, replay_pairs=a[:2])
        # a batch of 2 draws no more than the set holds
        cfg = TrainConfig(epochs=1, seed=0, batch_size=2)
        _, history = finetune_pose_supervised(b[:4], warm_params, cfg, replay_pairs=a[:2])
        assert len(history) == 1

    def test_all_pairs_unusable_raises(self, tiny_data, warm_params):
        _, b = tiny_data
        cfg = TrainConfig(epochs=1, seed=0)
        with pytest.raises(errors.EmptyDatasetAfterFilter):
            finetune_pose_supervised(b, warm_params, cfg, f_override=[None] * len(b))


class TestBootstrap:
    def test_filter_report_counts_sum(self, tiny_data, warm_params):
        _, b = tiny_data
        bcfg = BootstrapConfig(min_matches=5, min_inliers=5)
        f_list, report = bootstrap_fundamentals(b, warm_params, bcfg)
        total = (report["kept"] + report["dropped_few_matches"]
                 + report["dropped_few_inliers"] + report["dropped_estimation_failed"])
        assert total == report["n_pairs"] == len(b)
        assert sum(f is not None for f in f_list) == report["kept"]

    def test_min_matches_filter(self, tiny_data, warm_params):
        _, b = tiny_data
        bcfg = BootstrapConfig(min_matches=10_000, min_inliers=1)
        f_list, report = bootstrap_fundamentals(b, warm_params, bcfg)
        assert report["kept"] == 0
        assert report["dropped_few_matches"] == len(b)

    def test_injected_gt_f_matches_pose_supervised(self, tiny_data, warm_params, monkeypatch):
        a, b = tiny_data
        cfg = TrainConfig(epochs=2, seed=4)
        exact_fs = [fundamental_from_pose(p.K, p.K, p.pose) for p in b]
        report = {"n_pairs": len(b), "kept": len(b)}
        monkeypatch.setattr(pipeline, "bootstrap_fundamentals", lambda *args, **kwargs: (exact_fs, report))
        p1, h1, r1 = bootstrap_finetune(b, warm_params, cfg, BootstrapConfig(), replay_pairs=a)
        p2, h2 = finetune_pose_supervised(b, warm_params, cfg, replay_pairs=a,
                                          f_override=exact_fs)
        assert r1 is report
        assert p1.W_coarse.tobytes() == p2.W_coarse.tobytes()
        assert p1.W_fine.tobytes() == p2.W_fine.tobytes()
        assert h1 == h2
        assert all(set(row) == HISTORY_KEYS for row in h1)

    @pytest.mark.parametrize("fine_x1, counted", [(np.zeros((5, 2)), True), ([[1j, 1j]] * 5, False)],
                             ids=["NotEnoughMatches", "TypeError"])
    def test_estimation_errors_counted_by_type(self, tiny_data, warm_params, monkeypatch,
                                               fine_x1, counted):
        # 5 matches pass min_matches = 5, then RANSAC raises NotEnoughMatches
        # (counted); complex coordinates raise TypeError, a defect that
        # propagates
        _, b = tiny_data
        pred = SimpleNamespace(fine_x1=fine_x1, fine_x2=np.zeros((5, 2)))
        monkeypatch.setattr(pipeline, "forward", lambda *args, **kwargs: (pred, None))
        bcfg = BootstrapConfig(min_matches=5, min_inliers=5)
        if counted:
            f_list, report = bootstrap_fundamentals(b[:2], warm_params, bcfg)
            assert f_list == [None, None]
            assert report["dropped_estimation_failed"] == 2
        else:
            with pytest.raises(TypeError):
                bootstrap_fundamentals(b[:2], warm_params, bcfg)

    def test_empty_after_filter_raises(self, tiny_data, warm_params):
        a, b = tiny_data
        cfg = TrainConfig(epochs=1, seed=0)
        bcfg = BootstrapConfig(min_matches=10_000, min_inliers=1)
        with pytest.raises(errors.EmptyDatasetAfterFilter):
            bootstrap_finetune(b, warm_params, cfg, bcfg, replay_pairs=a)

    def test_paper_preset_values(self):
        assert PAPER_BOOTSTRAP_FILTER.min_matches == 100
        assert PAPER_BOOTSTRAP_FILTER.min_inliers == 20

    def test_invalid_filter(self):
        with pytest.raises(ValueError):
            BootstrapConfig(min_matches=5, min_inliers=10)


class TestRunOutputs:
    def test_run_directory_contents(self, tmp_path, warm_params):
        history = [{"epoch": 0, "loss": 1.0, "coarse_loss": 2.0, "fine_loss": 0.5}]
        write_run_outputs(tmp_path / "run", warm_params, history, {"a": 1}, extra={"b": 2})
        assert (tmp_path / "run" / "config.json").exists()
        assert (tmp_path / "run" / "metrics.csv").exists()
        assert (tmp_path / "run" / "checkpoint.bin").exists()
        assert (tmp_path / "run" / "report.json").exists()
        from epimatch.matcher import load_checkpoint

        loaded = load_checkpoint(tmp_path / "run" / "checkpoint.bin")
        assert np.array_equal(loaded.W_coarse, warm_params.W_coarse)
