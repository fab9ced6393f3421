import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from epimatch.cli import EVAL_RANSAC, _train_config, build_parser, main
from epimatch.config import parse_config_file
from epimatch.geometry import RelativePose
from epimatch.grid import GridSpec
from epimatch.pipeline import BootstrapConfig, TrainConfig, pretrain_config
from epimatch.synth import gt_correspondence_grid, load_dataset, load_pair_file, save_pair_file


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    assert main(["synth", "--domain", "A", "--pairs", "3", "--seed", "7",
                 "--out", str(root / "dsA")]) == 0
    assert main(["pretrain", "--data", str(root / "dsA"), "--epochs", "2",
                 "--seed", "0", "--out", str(root / "runA")]) == 0
    return root


class TestSynth:
    def test_dataset_layout(self, workspace):
        assert (workspace / "dsA" / "index.txt").exists()
        assert len(list((workspace / "dsA" / "pairs").glob("*.bin"))) == 3
        assert (workspace / "dsA" / "run_manifest.json").exists()

    def test_rerun_bit_identical(self, workspace, tmp_path):
        assert main(["synth", "--domain", "A", "--pairs", "3", "--seed", "7",
                     "--out", str(tmp_path / "ds2")]) == 0
        for a, b in zip(sorted((workspace / "dsA" / "pairs").glob("*.bin")),
                        sorted((tmp_path / "ds2" / "pairs").glob("*.bin"))):
            assert a.read_bytes() == b.read_bytes()

    def test_invalid_domain_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--domain", "Q", "--pairs", "1", "--out", "/tmp/x"])
        assert exc.value.code == 2


class TestReplay:
    def test_manifest_replay_reproduces_outputs(self, workspace, tmp_path):
        manifest = workspace / "dsA" / "run_manifest.json"
        assert main(["replay", "--manifest", str(manifest), "--out", str(tmp_path / "ds3")]) == 0
        for a, b in zip(sorted((workspace / "dsA" / "pairs").glob("*.bin")),
                        sorted((tmp_path / "ds3" / "pairs").glob("*.bin"))):
            assert a.read_bytes() == b.read_bytes()
        assert (workspace / "dsA" / "index.txt").read_bytes() == (tmp_path / "ds3" / "index.txt").read_bytes()


class TestTrainCommands:
    def test_pretrain_outputs(self, workspace):
        run = workspace / "runA"
        assert (run / "checkpoint.bin").exists()
        assert (run / "metrics.csv").exists()
        assert (run / "run_manifest.json").exists()

    def test_finetune_and_overrides(self, workspace, tmp_path):
        out = tmp_path / "runF"
        assert main(["finetune", "--data", str(workspace / "dsA"),
                     "--checkpoint", str(workspace / "runA" / "checkpoint.bin"),
                     "--replay-data", str(workspace / "dsA"),
                     "--epochs", "1", "--seed", "1", "--lam", "0",
                     "--out", str(out)]) == 0
        assert (out / "checkpoint.bin").exists()

    def test_missing_checkpoint_is_clear_error(self, workspace, tmp_path, capsys):
        rc = main(["finetune", "--data", str(workspace / "dsA"),
                   "--checkpoint", str(tmp_path / "nope.bin"),
                   "--epochs", "1", "--out", str(tmp_path / "r")])
        assert rc == 1
        assert "error[" in capsys.readouterr().err


class TestMatchPoseEval:
    def test_match_writes_file_and_overlay(self, workspace, tmp_path):
        out = tmp_path / "m.txt"
        overlay = tmp_path / "ov.png"
        assert main(["match", "--checkpoint", str(workspace / "runA" / "checkpoint.bin"),
                     "--pair", str(workspace / "dsA" / "pairs" / "00000.bin"),
                     "--out", str(out), "--overlay", str(overlay)]) == 0
        assert out.exists()
        assert overlay.read_bytes().startswith(b"\x89PNG")

    def test_match_overlay_of_pure_rotation_pair(self, workspace, tmp_path):
        # same image twice under a zero-baseline pose: plenty of matches, no epipolar geometry
        pair = load_pair_file(workspace / "dsA" / "pairs" / "00000.bin")
        pair = replace(pair, image2=pair.image1, pose=RelativePose(np.eye(3), np.zeros(3)))
        save_pair_file(tmp_path / "rot.bin", pair)
        out, overlay = tmp_path / "m.txt", tmp_path / "ov.png"
        assert main(["match", "--checkpoint", str(workspace / "runA" / "checkpoint.bin"),
                     "--pair", str(tmp_path / "rot.bin"), "--out", str(out),
                     "--overlay", str(overlay)]) == 0
        assert len(out.read_text().splitlines()) > 0
        assert overlay.read_bytes().startswith(b"\x89PNG")
        assert (tmp_path / "run_manifest.json").exists()

    def test_pose_from_gt_matches(self, workspace, tmp_path):
        from epimatch.estimation import write_match_file

        pair = load_pair_file(workspace / "dsA" / "pairs" / "00000.bin")
        grid = GridSpec.for_image(*pair.image1.shape, 8)
        targets, pts = gt_correspondence_grid(pair, grid)
        valid = np.where(targets >= 0)[0]
        mpath = tmp_path / "gt.txt"
        write_match_file(mpath, grid.cell_centers()[valid], pts[valid])
        out = tmp_path / "pose.json"
        assert main(["pose", "--matches", str(mpath), "--fx", "110", "--fy", "110",
                     "--cx", "64", "--cy", "64", "--seed", "0", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["inlier_count"] > 0.9 * valid.size

    def test_pose_rejects_non_finite_match(self, tmp_path, capsys):
        from epimatch.estimation import write_match_file

        rng = np.random.default_rng(0)
        pts1, pts2 = rng.uniform(0, 128, (2, 50, 2))
        pts2[20, 0] = np.nan
        mpath = tmp_path / "nan.txt"
        write_match_file(mpath, pts1, pts2)
        rc = main(["pose", "--matches", str(mpath), "--fx", "110", "--fy", "110",
                   "--cx", "64", "--cy", "64", "--out", str(tmp_path / "pose.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error[ValueError]" in err and "nan.txt:21" in err

    def test_pose_replay_uses_the_seed_from_the_environment(self, workspace, tmp_path, monkeypatch):
        from epimatch.estimation import write_match_file

        pair = load_pair_file(workspace / "dsA" / "pairs" / "00000.bin")
        grid = GridSpec.for_image(*pair.image1.shape, 8)
        targets, pts = gt_correspondence_grid(pair, grid)
        valid = np.where(targets >= 0)[0]
        rng = np.random.default_rng(3)
        pts2 = pts[valid] + rng.normal(0.0, 1.0, (valid.size, 2))
        pts2[::4] = rng.uniform(0, 128, (pts2[::4].shape[0], 2))  # outliers
        mpath = tmp_path / "noisy.txt"
        write_match_file(mpath, grid.cell_centers()[valid], pts2)
        argv = ["pose", "--matches", str(mpath), "--fx", "110", "--fy", "110",
                "--cx", "64", "--cy", "64"]
        monkeypatch.setenv("EPIMATCH_SEED", "5")
        assert main(argv + ["--out", str(tmp_path / "s5" / "pose.json")]) == 0
        monkeypatch.delenv("EPIMATCH_SEED")
        manifest = tmp_path / "s5" / "run_manifest.json"
        assert json.loads(manifest.read_text())["config"]["seed"] == 5
        assert main(["replay", "--manifest", str(manifest),
                     "--out", str(tmp_path / "replay" / "pose.json")]) == 0
        assert main(argv + ["--out", str(tmp_path / "s0" / "pose.json")]) == 0
        seeded = (tmp_path / "s5" / "pose.json").read_bytes()
        assert (tmp_path / "replay" / "pose.json").read_bytes() == seeded
        assert (tmp_path / "s0" / "pose.json").read_bytes() != seeded

    def test_eval_manifest_records_the_seed_from_the_environment(self, workspace, tmp_path, monkeypatch):
        monkeypatch.setenv("EPIMATCH_SEED", "5")
        out = tmp_path / "ev"
        assert main(["eval", "--checkpoint", str(workspace / "runA" / "checkpoint.bin"),
                     "--data", str(workspace / "dsA"), "--overlays", "0", "--out", str(out)]) == 0
        assert json.loads((out / "run_manifest.json").read_text())["config"]["seed"] == 5

    def test_pose_names_the_line_of_a_short_match(self, tmp_path, capsys):
        mpath = tmp_path / "short.txt"
        mpath.write_text("1 2 3 4 1\n1 2 3 4\n")
        rc = main(["pose", "--matches", str(mpath), "--fx", "110", "--fy", "110",
                   "--cx", "64", "--cy", "64", "--out", str(tmp_path / "pose.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error[ValueError]" in err and "short.txt:2" in err

    def test_eval_json_and_table_agree(self, workspace, tmp_path):
        out = tmp_path / "ev"
        assert main(["eval", "--checkpoint", str(workspace / "runA" / "checkpoint.bin"),
                     "--data", str(workspace / "dsA"), "--overlays", "1",
                     "--seed", "0", "--out", str(out)]) == 0
        report = json.loads((out / "eval.json").read_text())
        table = (out / "eval.txt").read_text()
        assert f"{report['precision']:8.1f}".strip() in table
        # strict JSON: NaN and Infinity are not JSON values
        json.loads((out / "eval.json").read_text(),
                   parse_constant=lambda name: pytest.fail(f"eval.json holds {name}"))
        assert (out / "overlay_000.png").exists()


class TestConfigFile:
    def test_file_values_fill_defaults_flags_win(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[synth]\npairs = 2\nseed = 11\n")
        out = tmp_path / "ds"
        assert main(["synth", "--config", str(cfg), "--domain", "A",
                     "--seed", "7", "--out", str(out)]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["config"]["pairs"] == 2  # from file
        assert manifest["config"]["seed"] == 7  # flag overrides file
        assert len(load_dataset(out)) == 2

    def test_abbreviated_flag_is_refused(self, tmp_path, capsys):
        # an abbreviation would be recorded as typed, so the file would win
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 10\n")
        with pytest.raises(SystemExit) as exc:
            main(["pretrain", "--config", str(cfg), "--data", "d", "--epoch", "3", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "--epoch" in capsys.readouterr().err

    def test_parse_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("not a key value line\n")
        with pytest.raises(ValueError):
            parse_config_file(bad)


class TestParserDefaults:
    """Each flag's default is read from the library's config object."""

    def parse(self, *argv):
        return build_parser().parse_args([*argv, "--out", "o"])

    def test_bootstrap_defaults_are_bootstrap_config(self):
        args = self.parse("bootstrap", "--data", "d", "--checkpoint", "c")
        b = BootstrapConfig()
        assert (args.min_matches, args.min_inliers, args.ransac_iterations, args.ransac_threshold) == (
            b.min_matches, b.min_inliers, b.ransac.iterations, b.ransac.inlier_threshold)

    def test_training_defaults_are_train_configs(self, monkeypatch):
        monkeypatch.delenv("EPIMATCH_SEED", raising=False)
        pre = self.parse("pretrain", "--data", "d")
        assert _train_config(pre, for_pretrain=True) == pretrain_config()
        fine = self.parse("finetune", "--data", "d", "--checkpoint", "c")
        assert _train_config(fine) == TrainConfig()

    def test_pose_and_eval_share_ransac_defaults(self):
        for args in (self.parse("eval", "--checkpoint", "c", "--data", "d"),
                     self.parse("pose", "--matches", "m", "--fx", "1", "--fy", "1", "--cx", "0", "--cy", "0")):
            assert (args.ransac_iterations, args.ransac_threshold) == (
                EVAL_RANSAC.iterations, EVAL_RANSAC.inlier_threshold)


from epimatch.gradcheck import run_gradcheck as _full_gradcheck


def _small_gradcheck(seed=0, inject_fault=None):
    return _full_gradcheck(seed=seed, d_epi_instances=50, matcher_seeds=1,
                           inject_fault=inject_fault)


class TestGradcheckCommand:
    def test_passes_with_small_budget(self, monkeypatch):
        import epimatch.gradcheck as gc

        monkeypatch.setattr(gc, "run_gradcheck", _small_gradcheck)
        assert main(["gradcheck", "--seed", "0"]) == 0

    def test_injected_fault_fails(self, monkeypatch):
        import epimatch.gradcheck as gc

        monkeypatch.setattr(gc, "run_gradcheck", _small_gradcheck)
        assert main(["gradcheck", "--seed", "0", "--inject-fault", "sign-flip"]) == 1
