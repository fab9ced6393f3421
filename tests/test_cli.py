import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from epimatch import cli, pipeline
from epimatch.cli import EVAL_RANSAC, _train_config, build_parser, main
from epimatch.config import parse_config_file
from epimatch.errors import write_arrays
from epimatch.estimation import write_match_file
from epimatch.geometry import Camera, CameraIntrinsics, RelativePose, fundamental_from_pose
from epimatch.grid import GridSpec
from epimatch.matcher import load_checkpoint
from epimatch.pipeline import BootstrapConfig, TrainConfig, pretrain_config
from epimatch.synth import (gt_correspondence_grid, load_dataset, load_pair_file, make_domain, save_dataset,
                            save_pair_file)

from conftest import write_pose_file


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    assert main(["synth", "--domain", "A", "--pairs", "3", "--seed", "7",
                 "--out", str(root / "dsA")]) == 0
    assert main(["pretrain", "--data", str(root / "dsA"), "--epochs", "2",
                 "--seed", "0", "--out", str(root / "runA")]) == 0
    return root


def write_gt_matches(workspace, path, noisy=False):
    """Write the GT grid matches of the workspace's first pair, with 1 px
    noise and every fourth match an outlier if `noisy`; returns their count."""
    pair = load_pair_file(workspace / "dsA" / "pairs" / "00000.bin")
    grid = GridSpec.for_image(*pair.image1.shape, 8)
    targets, pts = gt_correspondence_grid(pair, grid)
    valid = np.where(targets >= 0)[0]
    pts2 = pts[valid]
    if noisy:
        rng = np.random.default_rng(3)
        pts2 = pts2 + rng.normal(0.0, 1.0, (valid.size, 2))
        pts2[::4] = rng.uniform(0, 128, (pts2[::4].shape[0], 2))
    write_match_file(path, grid.cell_centers()[valid], pts2)
    return valid.size


def pose_argv(matches):
    return ["pose", "--matches", str(matches), "--fx", "110", "--fy", "110", "--cx", "64", "--cy", "64"]


def write_loop_poses(path, n=8):
    """Poses of n cameras on a 1 m circle at 1.4 m height in a room, each
    looking along the circle and 0.2 rad down; returns their ids."""
    K = CameraIntrinsics(320.0, 320.0, 319.5, 239.5)
    cameras = []
    for k in range(n):
        a = 2.0 * np.pi * k / n
        ahead = np.array([-np.sin(a) * np.cos(0.2), np.cos(a) * np.cos(0.2), -np.sin(0.2)])
        right = np.cross(ahead, [0.0, 0.0, 1.0])
        right /= np.linalg.norm(right)
        R = np.vstack([right, np.cross(ahead, right), ahead])
        center = np.array([np.cos(a), np.sin(a), 1.4])
        cameras.append((f"loop{k}", Camera(K, RelativePose(R, -R @ center))))
    write_pose_file(path, cameras)
    return [cam_id for cam_id, _ in cameras]


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


@pytest.mark.parametrize("argv", [
    ["synth", "--domain", "A", "--pairs", "0"],
    ["synth", "--domain", "A", "--pairs", "-3"],
    ["pairs", "--poses", "p.txt", "--stride", "-1"],
    ["pairs", "--poses", "p.txt", "--image-width", "0"],
    ["pairs", "--poses", "p.txt", "--image-height", "0"],
    ["eval", "--checkpoint", "c.bin", "--data", "d", "--overlays", "-2"],
], ids=["pairs=0", "pairs=-3", "stride=-1", "image-width=0", "image-height=0", "overlays=-2"])
def test_count_below_its_minimum_is_a_usage_error(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert f"argument {argv[-2]}: must be at least" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


class TestReplay:
    def test_manifest_replay_reproduces_outputs(self, workspace, tmp_path):
        manifest = workspace / "dsA" / "run_manifest.json"
        assert main(["replay", "--manifest", str(manifest), "--out", str(tmp_path / "ds3")]) == 0
        for a, b in zip(sorted((workspace / "dsA" / "pairs").glob("*.bin")),
                        sorted((tmp_path / "ds3" / "pairs").glob("*.bin"))):
            assert a.read_bytes() == b.read_bytes()
        assert (workspace / "dsA" / "index.txt").read_bytes() == (tmp_path / "ds3" / "index.txt").read_bytes()

    def test_replayed_value_is_checked_like_a_flag(self, workspace, tmp_path):
        manifest = json.loads((workspace / "dsA" / "run_manifest.json").read_text())
        manifest["config"]["domain"] = "Q"
        edited = tmp_path / "run_manifest.json"
        edited.write_text(json.dumps(manifest))
        with pytest.raises(SystemExit) as exc:
            main(["replay", "--manifest", str(edited), "--out", str(tmp_path / "ds")])
        assert exc.value.code == 2
        assert not (tmp_path / "ds").exists()


class TestPairs:
    def test_mines_loop_neighbours_and_replays(self, tmp_path):
        ids = write_loop_poses(tmp_path / "poses.txt")
        out = tmp_path / "run"
        assert main(["pairs", "--poses", str(tmp_path / "poses.txt"), "--out", str(out)]) == 0
        rows = [line.split() for line in (out / "pairs.txt").read_text().splitlines()]
        # on the loop only consecutive views overlap by 0.3 to 0.8 in the room preset
        neighbours = {tuple(sorted((ids[k], ids[(k + 1) % len(ids)]))) for k in range(len(ids))}
        assert {(a, b) for a, b, _ in rows} == neighbours
        assert all(0.3 <= float(score) <= 0.8 for _, _, score in rows)
        config = json.loads((out / "run_manifest.json").read_text())["config"]
        assert (config["model"], config["out"], config["stride"]) == ("euroc-room", str(out), 1)
        again = tmp_path / "again"
        assert main(["replay", "--manifest", str(out / "run_manifest.json"), "--out", str(again)]) == 0
        assert (again / "pairs.txt").read_bytes() == (out / "pairs.txt").read_bytes()


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

    @pytest.mark.parametrize("flag", ["--theta", "--pose-noise-deg", "--lr", "--weight-decay"])
    def test_nan_setting_is_refused_before_training(self, workspace, tmp_path, capsys, flag):
        out = tmp_path / "r"
        rc = main(["finetune", "--data", str(workspace / "dsA"),
                   "--checkpoint", str(workspace / "runA" / "checkpoint.bin"),
                   "--epochs", "1", flag, "nan", "--out", str(out)])
        assert rc == 1
        assert "error[ValueError]" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_dataset_is_refused(self, tmp_path, capsys):
        save_dataset(make_domain("A", seed=0), 0, tmp_path / "empty")
        out = tmp_path / "r"
        assert main(["pretrain", "--data", str(tmp_path / "empty"), "--epochs", "1", "--out", str(out)]) == 1
        assert "error[EmptyInput]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_weights_are_not_saved(self, workspace, tmp_path, capsys):
        out = tmp_path / "r"
        assert main(["pretrain", "--data", str(workspace / "dsA"), "--epochs", "2",
                     "--lr", "1e300", "--out", str(out)]) == 1
        assert "checkpoint weights must be finite" in capsys.readouterr().err
        assert not (out / "checkpoint.bin").exists()

    def test_missing_checkpoint_is_clear_error(self, workspace, tmp_path, capsys):
        rc = main(["finetune", "--data", str(workspace / "dsA"),
                   "--checkpoint", str(tmp_path / "nope.bin"),
                   "--epochs", "1", "--out", str(tmp_path / "r")])
        assert rc == 1
        assert "error[" in capsys.readouterr().err


class TestMatchPoseEval:
    def test_match_writes_file_and_overlay(self, workspace, tmp_path):
        out = tmp_path / "m"
        assert main(["match", "--checkpoint", str(workspace / "runA" / "checkpoint.bin"),
                     "--pair", str(workspace / "dsA" / "pairs" / "00000.bin"),
                     "--out", str(out)]) == 0
        assert (out / "matches.txt").exists()
        assert (out / "overlay.png").read_bytes().startswith(b"\x89PNG")

    def test_match_refuses_a_pair_file_as_checkpoint(self, workspace, tmp_path, capsys):
        pair = workspace / "dsA" / "pairs" / "00000.bin"
        rc = main(["match", "--checkpoint", str(pair), "--pair", str(pair), "--out", str(tmp_path / "m")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error[ValueError]: {pair}: ")

    def test_match_refuses_a_checkpoint_holding_nan(self, workspace, tmp_path, capsys):
        params = load_checkpoint(workspace / "runA" / "checkpoint.bin")
        params.W_fine[0, 0] = np.nan
        path = tmp_path / "nan.bin"
        write_arrays(path, (params.W_coarse, params.W_fine, (params.tau_coarse, params.tau_fine)))
        rc = main(["match", "--checkpoint", str(path), "--pair", str(workspace / "dsA" / "pairs" / "00000.bin"),
                   "--out", str(tmp_path / "m")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error[ValueError]: {path}: ")
        assert not (tmp_path / "m").exists()

    def test_match_overlay_of_pure_rotation_pair(self, workspace, tmp_path):
        # same image twice under a zero-baseline pose: plenty of matches, no epipolar geometry
        pair = load_pair_file(workspace / "dsA" / "pairs" / "00000.bin")
        pair = replace(pair, image2=pair.image1, pose=RelativePose(np.eye(3), np.zeros(3)))
        save_pair_file(tmp_path / "rot.bin", pair)
        out = tmp_path / "m"
        assert main(["match", "--checkpoint", str(workspace / "runA" / "checkpoint.bin"),
                     "--pair", str(tmp_path / "rot.bin"), "--out", str(out)]) == 0
        assert len((out / "matches.txt").read_text().splitlines()) > 0
        assert (out / "overlay.png").read_bytes().startswith(b"\x89PNG")
        assert (out / "run_manifest.json").exists()

    def test_pose_from_gt_matches(self, workspace, tmp_path):
        n = write_gt_matches(workspace, tmp_path / "gt.txt")
        out = tmp_path / "pose"
        assert main([*pose_argv(tmp_path / "gt.txt"), "--seed", "0", "--out", str(out)]) == 0
        report = json.loads((out / "pose.json").read_text())
        assert report["inlier_count"] > 0.9 * n

    def test_pose_rejects_non_finite_match(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        pts1, pts2 = rng.uniform(0, 128, (2, 50, 2))
        pts2[20, 0] = np.nan
        mpath = tmp_path / "nan.txt"
        write_match_file(mpath, pts1, pts2)
        rc = main([*pose_argv(mpath), "--out", str(tmp_path / "pose")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error[ValueError]" in err and "nan.txt:21" in err

    def test_pose_replay_uses_the_seed_from_the_environment(self, workspace, tmp_path, monkeypatch):
        write_gt_matches(workspace, tmp_path / "noisy.txt", noisy=True)
        argv = pose_argv(tmp_path / "noisy.txt")
        monkeypatch.setenv("EPIMATCH_SEED", "5")
        assert main(argv + ["--out", str(tmp_path / "s5")]) == 0
        monkeypatch.delenv("EPIMATCH_SEED")
        manifest = tmp_path / "s5" / "run_manifest.json"
        assert json.loads(manifest.read_text())["config"]["seed"] == 5
        assert main(["replay", "--manifest", str(manifest), "--out", str(tmp_path / "replay")]) == 0
        assert main(argv + ["--out", str(tmp_path / "s0")]) == 0
        seeded = (tmp_path / "s5" / "pose.json").read_bytes()
        assert (tmp_path / "replay" / "pose.json").read_bytes() == seeded
        assert (tmp_path / "s0" / "pose.json").read_bytes() != seeded

    def test_sibling_pose_runs_keep_their_own_manifests(self, workspace, tmp_path):
        write_gt_matches(workspace, tmp_path / "noisy.txt", noisy=True)
        runs = {seed: tmp_path / "runs" / f"s{seed}" for seed in (1, 2)}
        for seed, run in runs.items():
            assert main([*pose_argv(tmp_path / "noisy.txt"), "--seed", str(seed), "--out", str(run)]) == 0
        for seed, run in runs.items():
            config = json.loads((run / "run_manifest.json").read_text())["config"]
            assert (config["seed"], config["out"]) == (seed, str(run))
            again = tmp_path / "again" / run.name
            assert main(["replay", "--manifest", str(run / "run_manifest.json"), "--out", str(again)]) == 0
            assert (again / "pose.json").read_bytes() == (run / "pose.json").read_bytes()

    def test_eval_manifest_records_the_seed_from_the_environment(self, workspace, tmp_path, monkeypatch):
        monkeypatch.setenv("EPIMATCH_SEED", "5")
        out = tmp_path / "ev"
        assert main(["eval", "--checkpoint", str(workspace / "runA" / "checkpoint.bin"),
                     "--data", str(workspace / "dsA"), "--overlays", "0", "--out", str(out)]) == 0
        assert json.loads((out / "run_manifest.json").read_text())["config"]["seed"] == 5

    def test_pose_names_the_line_of_a_short_match(self, tmp_path, capsys):
        mpath = tmp_path / "short.txt"
        mpath.write_text("1 2 3 4 1\n1 2 3 4\n")
        rc = main([*pose_argv(mpath), "--out", str(tmp_path / "pose")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error[ValueError]" in err and "short.txt:2" in err

    def test_eval_uses_the_given_threshold(self, workspace, tmp_path, monkeypatch):
        thresholds = []

        def recording_evaluate(*args, precision_threshold, **kwargs):
            thresholds.append(precision_threshold)
            return cli_evaluate(*args, precision_threshold=precision_threshold, **kwargs)

        cli_evaluate = cli.evaluate
        monkeypatch.setattr(cli, "evaluate", recording_evaluate)
        assert main(["eval", "--checkpoint", str(workspace / "runA" / "checkpoint.bin"),
                     "--data", str(workspace / "dsA"), "--threshold", "3e-4", "--overlays", "0",
                     "--out", str(tmp_path / "ev")]) == 0
        assert thresholds == [3e-4]

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
        # argparse would expand --epoch to --epochs; refusing prefixes means a
        # new flag can never change what an existing command line means
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

    def synth(self, out, *flags):
        return main(["synth", "--domain", "A", *flags, "--out", str(out)])

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        assert self.synth(tmp_path / "ds", "--config", str(tmp_path / "none.cfg")) == 1
        assert "error[FileNotFoundError]" in capsys.readouterr().err
        assert not (tmp_path / "ds").exists()

    def test_malformed_line_is_an_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("pairs 2\n")
        assert self.synth(tmp_path / "ds", "--config", str(cfg)) == 1
        assert "error[ValueError]" in (err := capsys.readouterr().err)
        assert "bad.cfg:1: expected 'key = value'" in err

    def test_value_is_converted_by_its_flag_type(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[pretrain]\nepochs = 3.5\n")
        with pytest.raises(SystemExit) as exc:
            main(["pretrain", "--config", str(cfg), "--data", "d", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "argument --epochs: invalid int value: '3.5'" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_value_outside_choices_is_a_usage_error(self, tmp_path, capsys, source):
        # a file value is checked as if typed, even where a typed flag wins
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[synth]\ndomain = C\n")
        flags = {"flag": ["--domain", "C"], "file": ["--config", str(cfg), "--domain", "A"]}[source]
        with pytest.raises(SystemExit) as exc:
            main(["synth", *flags, "--out", str(tmp_path / "ds")])
        assert exc.value.code == 2
        assert "argument --domain: invalid choice: 'C'" in capsys.readouterr().err
        assert not (tmp_path / "ds").exists()

    def test_keys_without_a_flag_are_ignored(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("func = x\ncommand = pretrain\nconfig = other.cfg\nepochs = 4\n[synth]\npairs = 1\n")
        assert self.synth(tmp_path / "ds", "--config", str(cfg)) == 0
        config = json.loads((tmp_path / "ds" / "run_manifest.json").read_text())["config"]
        assert config == {"domain": "A", "out": str(tmp_path / "ds"), "pairs": 1, "seed": 0}

    def test_file_seed_beats_the_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EPIMATCH_SEED", "5")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 11\n")
        assert self.synth(tmp_path / "ds", "--config", str(cfg), "--pairs", "1") == 0
        assert json.loads((tmp_path / "ds" / "run_manifest.json").read_text())["config"]["seed"] == 11

    @pytest.mark.parametrize("source", ["flag", "file", "environment"])
    def test_seed_source_does_not_change_the_run(self, workspace, tmp_path, monkeypatch, source):
        monkeypatch.delenv("EPIMATCH_SEED", raising=False)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[synth]\nseed = 7\n")
        flags = {"flag": ["--seed", "7"], "file": ["--config", str(cfg)], "environment": []}[source]
        if source == "environment":
            monkeypatch.setenv("EPIMATCH_SEED", "7")
        out = tmp_path / "ds"
        assert self.synth(out, "--pairs", "3", *flags) == 0
        assert (out / "index.txt").read_bytes() == (workspace / "dsA" / "index.txt").read_bytes()
        for a, b in zip(sorted((workspace / "dsA" / "pairs").glob("*.bin")),
                        sorted((out / "pairs").glob("*.bin")), strict=True):
            assert a.read_bytes() == b.read_bytes()

    @staticmethod
    def recorded_finetune(monkeypatch):
        """Patch the finetune command's training call to record its keyword
        arguments before it runs."""
        calls = []

        def recording_finetune(*args, **kwargs):
            calls.append(kwargs)
            return cli_finetune(*args, **kwargs)

        cli_finetune = cli.finetune_pose_supervised
        monkeypatch.setattr(cli, "finetune_pose_supervised", recording_finetune)
        return calls

    def finetune(self, workspace, out, *flags):
        return main(["finetune", "--data", str(workspace / "dsA"),
                     "--checkpoint", str(workspace / "runA" / "checkpoint.bin"),
                     "--epochs", "0", *flags, "--out", str(out)])

    @pytest.mark.parametrize("word, flags, naive", [("yes", [], True), ("no", [], False),
                                                    ("no", ["--naive-mask"], True)],
                             ids=["yes", "no", "flag_wins"])
    def test_store_true_flag_from_file(self, workspace, tmp_path, monkeypatch, word, flags, naive):
        calls = self.recorded_finetune(monkeypatch)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[finetune]\nnaive-mask = {word}\n")
        out = tmp_path / "ft"
        assert self.finetune(workspace, out, "--config", str(cfg), *flags) == 0
        assert json.loads((out / "run_manifest.json").read_text())["config"]["naive_mask"] is naive
        assert [c["naive_mask"] for c in calls] == [naive]

    def test_empty_flag_clears_a_file_value(self, workspace, tmp_path, monkeypatch):
        calls = self.recorded_finetune(monkeypatch)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[finetune]\nreplay-data = {workspace / 'dsA'}\n")
        assert self.finetune(workspace, tmp_path / "with", "--config", str(cfg)) == 0
        assert self.finetune(workspace, tmp_path / "without", "--config", str(cfg), "--replay-data=") == 0
        assert [c["replay_pairs"] is None for c in calls] == [False, True]

    def test_file_configured_run_replays_from_its_manifest(self, workspace, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 3\n[pretrain]\nepochs = 1\nlr = 0.1\nbatch-size = 2\n")
        run = tmp_path / "run"
        assert main(["pretrain", "--config", str(cfg), "--data", str(workspace / "dsA"),
                     "--out", str(run)]) == 0
        config = json.loads((run / "run_manifest.json").read_text())["config"]
        assert (config["seed"], config["epochs"], config["lr"], config["batch_size"]) == (3, 1, 0.1, 2)
        cfg.unlink()  # the manifest alone replays the run
        again = tmp_path / "again"
        assert main(["replay", "--manifest", str(run / "run_manifest.json"), "--out", str(again)]) == 0
        for name in ("checkpoint.bin", "metrics.csv"):
            assert (again / name).read_bytes() == (run / name).read_bytes()


def _commands():
    return re.search(r"\{(.+?)\}", build_parser().format_usage()).group(1).split(",")


@pytest.mark.parametrize("argv", [[], *([c] for c in _commands())],
                         ids=["epimatch", *_commands()])
def test_help_renders(argv, capsys):
    # argparse reports a bad help string only when it renders the help text
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(" ".join(["usage: epimatch", *argv]))


DOCUMENTED_FILES = {command: set(re.findall(r"[\w/]+\.\w+", files))
                    for command, files in re.findall(r"^  (\w+) +(.+)$", cli.__doc__, re.M)}


@pytest.mark.parametrize("command", [c for c in _commands() if c not in ("gradcheck", "replay")])
def test_run_directory_holds_the_documented_files(workspace, tmp_path, monkeypatch, command):
    data = ["--data", str(workspace / "dsA")]
    checkpoint = ["--checkpoint", str(workspace / "runA" / "checkpoint.bin")]
    write_loop_poses(tmp_path / "poses.txt")
    write_gt_matches(workspace, tmp_path / "gt.txt")
    if command == "bootstrap":
        # the workspace's matcher finds no matches, so keep every pair with its GT F
        fs = [fundamental_from_pose(p.K, p.K, p.pose) for p in load_dataset(workspace / "dsA")]
        monkeypatch.setattr(pipeline, "bootstrap_fundamentals",
                            lambda *args, **kwargs: (fs, {"n_pairs": len(fs), "kept": len(fs)}))
    argv = {
        "synth": ["synth", "--domain", "A", "--pairs", "2"],
        "pairs": ["pairs", "--poses", str(tmp_path / "poses.txt")],
        "pretrain": ["pretrain", *data, "--epochs", "1"],
        "finetune": ["finetune", *data, *checkpoint, "--epochs", "1"],
        "bootstrap": ["bootstrap", *data, *checkpoint, "--epochs", "1"],
        "match": ["match", *checkpoint, "--pair", str(workspace / "dsA" / "pairs" / "00000.bin")],
        "pose": pose_argv(tmp_path / "gt.txt"),
        "eval": ["eval", *data, *checkpoint, "--overlays", "2"],
    }[command]
    out = tmp_path / "run"
    assert main([*argv, "--out", str(out)]) == 0
    found = {re.sub(r"\d", "N", f.relative_to(out).as_posix()) for f in out.rglob("*") if f.is_file()}
    assert found == DOCUMENTED_FILES[command] | {"run_manifest.json"}


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


def _small_gradcheck(seed=0):
    return _full_gradcheck(seed=seed, d_epi_instances=50, matcher_seeds=1)


class TestGradcheckCommand:
    def test_passes_with_small_budget(self, monkeypatch):
        import epimatch.gradcheck as gc

        monkeypatch.setattr(gc, "run_gradcheck", _small_gradcheck)
        assert main(["gradcheck", "--seed", "0"]) == 0

    def test_injected_fault_fails(self, monkeypatch):
        import epimatch.gradcheck as gc

        backward = gc.backward

        def sign_flipped(*args, **kwargs):
            grads = backward(*args, **kwargs)
            grads.W_coarse = -grads.W_coarse
            return grads

        monkeypatch.setattr(gc, "run_gradcheck", _small_gradcheck)
        monkeypatch.setattr(gc, "backward", sign_flipped)
        assert main(["gradcheck", "--seed", "0"]) == 1
