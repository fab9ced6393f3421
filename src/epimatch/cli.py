"""Command-line entry points wiring the toolkit into reproducible runs.

A setting's value is its flag's, else the --config file's (keys before any
section, or in the command's [section]), else EPIMATCH_SEED's (--seed only),
else the flag's default (0 for --seed). Every command but gradcheck and
replay writes into the run directory --out, and once it succeeds adds
run_manifest.json there for `epimatch replay`. Each run directory holds:

  synth      index.txt, pairs/NNNNN.bin
  pairs      pairs.txt
  pretrain   checkpoint.bin, metrics.csv (one row per epoch)
  finetune   checkpoint.bin, metrics.csv
  bootstrap  checkpoint.bin, metrics.csv, report.json
  match      matches.txt, overlay.png
  pose       pose.json
  eval       eval.json, eval.txt, overlay_NNN.png (one per --overlays pair)
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from pathlib import Path

from . import __version__
from .config import parse_config_file, read_manifest, write_manifest
from .errors import EpimatchError
from .estimation import RansacConfig, estimate_relative_pose, read_match_file, write_match_file
from .geometry import CameraIntrinsics, read_pose_file
from .losses import LossConfig
from .matcher import MatcherConfig, forward, init_params, load_checkpoint
from .metrics import (
    PRECISION_THRESHOLD_INDOOR,
    PRECISION_THRESHOLD_OUTDOOR,
    evaluate,
)
from .pairgen import BoxModel, HemisphereModel, OverlapRange, PoseRecord, PRESETS, generate_pairs, write_pairs_file
from .pipeline import (
    BootstrapConfig,
    PoseNoiseConfig,
    TrainConfig,
    bootstrap_finetune,
    finetune_pose_supervised,
    pretrain,
    pretrain_config,
    write_run_outputs,
)
from .synth import load_dataset, make_domain, save_dataset
from .viz import match_overlay, write_png

# RANSAC defaults of the `pose` and `eval` commands
EVAL_RANSAC = RansacConfig(iterations=600, inlier_threshold=5e-4)


def _resolved(args, skip=("func", "config", "command")):
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _flags(settings):
    """Command-line tokens that give each dest in `settings` its value: a
    true store_true flag alone, a false or None one not at all."""
    argv = []
    for key, value in settings.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            argv += [flag] if value else []
        elif value is not None:
            argv.append(f"{flag}={value}")
    return argv


def _file_settings(args):
    """The values `args.config` gives `args.command`'s flags, keyed by dest.

    Keys the command has no flag for are ignored. Values stay strings for
    argparse to check as if typed; a store_true flag is set by 1, true, yes
    or on, and left unset by any other word."""
    settings = _resolved(args)
    values = {}
    for full_key, raw in parse_config_file(args.config).items():
        section, _, key = full_key.rpartition(".")
        key = key.replace("-", "_")
        if section in ("", args.command) and key in settings:
            switch = isinstance(settings[key], bool)
            values[key] = raw.lower() in ("1", "true", "yes", "on") if switch else raw
    return values


def _count(minimum):
    """An argparse type: an int no less than `minimum`."""
    def count(text):
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    return count


def _run_dir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _ransac(args):
    return RansacConfig(iterations=args.ransac_iterations,
                        inlier_threshold=args.ransac_threshold, seed=args.seed)


def _match(pair, params, threshold):
    """The matcher's prediction for one pair and its overlay image."""
    pred, _ = forward(pair.image1, pair.image2, params, MatcherConfig())
    canvas = match_overlay(pair.image1, pair.image2, pred.fine_x1, pred.fine_x2,
                           pair.pose, pair.K, threshold=threshold)
    return pred, canvas


def cmd_synth(args):
    spec = make_domain(args.domain, seed=args.seed)
    save_dataset(spec, args.pairs, args.out)
    print(f"wrote {args.pairs} pairs to {args.out}")
    return 0


def cmd_pairs(args):
    records = [
        PoseRecord(cam_id, cam) for cam_id, cam in read_pose_file(args.poses)
    ]
    if args.model in PRESETS:
        model = PRESETS[args.model]
    elif args.model == "hemisphere":
        model = HemisphereModel(z_plane=args.z_plane, r_sphere=args.r_sphere)
    elif args.model == "box":
        model = BoxModel(side=args.side, bottom=args.bottom, longitudinal=args.longitudinal)
    else:
        raise EpimatchError(f"unknown pseudo-depth model {args.model!r}")
    rng = OverlapRange(args.min_overlap, args.max_overlap)
    pairs = generate_pairs(records, model, rng, stride=args.stride,
                           image_size=(args.image_width, args.image_height))
    out = _run_dir(args) / "pairs.txt"
    write_pairs_file(out, pairs)
    print(f"wrote {len(pairs)} pairs to {out}")
    return 0


def _train_config(args, for_pretrain=False):
    return (pretrain_config if for_pretrain else TrainConfig)(
        lr=args.lr, weight_decay=args.weight_decay, batch_size=args.batch_size,
        epochs=args.epochs, seed=args.seed,
        loss=LossConfig(lam=args.lam, theta=args.theta,
                        fine_supervision_fraction=args.fine_fraction))


def cmd_pretrain(args):
    dataset = load_dataset(args.data)
    cfg = _train_config(args, for_pretrain=True)
    params0 = init_params(MatcherConfig(), seed=cfg.seed)
    params, history = pretrain(dataset, params0, cfg)
    write_run_outputs(args.out, params, history)
    print(f"pretrained for {cfg.epochs} epochs; run directory: {args.out}")
    return 0


def _load_replay(args):
    return load_dataset(args.replay_data) if args.replay_data else None


def cmd_finetune(args):
    dataset = load_dataset(args.data)
    cfg = _train_config(args)
    params0 = load_checkpoint(args.checkpoint)
    noise = PoseNoiseConfig(rotation_deg=args.pose_noise_deg,
                            translation_deg=args.pose_noise_deg)
    replay = _load_replay(args)
    params, history = finetune_pose_supervised(
        dataset, params0, cfg, noise=noise, replay_pairs=replay,
        naive_mask=args.naive_mask)
    write_run_outputs(args.out, params, history)
    print(f"finetuned for {cfg.epochs} epochs; run directory: {args.out}")
    return 0


def cmd_bootstrap(args):
    dataset = load_dataset(args.data)
    cfg = _train_config(args)
    params0 = load_checkpoint(args.checkpoint)
    bcfg = BootstrapConfig(min_matches=args.min_matches, min_inliers=args.min_inliers,
                           ransac=_ransac(args))
    replay = _load_replay(args)
    params, history, report = bootstrap_finetune(dataset, params0, cfg, bcfg,
                                                 replay_pairs=replay)
    write_run_outputs(args.out, params, history, extra=report)
    print(f"bootstrap-finetuned; kept {report['kept']}/{report['n_pairs']} pairs; run directory: {args.out}")
    return 0


def cmd_match(args):
    from .synth import load_pair_file

    params = load_checkpoint(args.checkpoint)
    pred, canvas = _match(load_pair_file(args.pair), params, args.threshold)
    out = _run_dir(args)
    write_match_file(out / "matches.txt", pred.fine_x1, pred.fine_x2, pred.fine_conf)
    write_png(out / "overlay.png", canvas)
    print(f"wrote {pred.fine_x2.shape[0]} matches to {out / 'matches.txt'}")
    return 0


def cmd_pose(args):
    pts1, pts2, _ = read_match_file(args.matches)
    K = CameraIntrinsics(args.fx, args.fy, args.cx, args.cy)
    pose, result = estimate_relative_pose(pts1, pts2, K, K, _ransac(args))
    report = {
        "rotation": pose.R.tolist(),
        "translation": pose.t.tolist(),
        "inlier_count": int(result.inlier_count),
        "num_matches": int(result.num_input_matches),
        "no_consensus": bool(result.no_consensus),
    }
    with open(_run_dir(args) / "pose.json", "w") as fh:
        json.dump(report, fh, indent=2)
    print(json.dumps(report, indent=2))
    return 0


def cmd_eval(args):
    params = load_checkpoint(args.checkpoint)
    dataset = load_dataset(args.data)
    report = evaluate(params, dataset, _ransac(args), precision_threshold=args.threshold)
    out = _run_dir(args)
    with open(out / "eval.json", "w") as fh:
        fh.write(report.to_json())
    with open(out / "eval.txt", "w") as fh:
        fh.write(report.to_table() + "\n")
    for i, pair in enumerate(dataset[: args.overlays]):
        write_png(out / f"overlay_{i:03d}.png", _match(pair, params, args.threshold)[1])
    print(report.to_table())
    return 0


def cmd_gradcheck(args):
    from .gradcheck import run_gradcheck

    report = run_gradcheck(seed=args.seed)
    for name, err, bound in report["components"]:
        status = "ok" if err < bound else "FAIL"
        print(f"{name:<28} max rel err {err:.3e}  (bound {bound:.0e})  {status}")
    print("gradcheck:", "pass" if report["passed"] else "fail")
    return 0 if report["passed"] else 1


def cmd_replay(args):
    manifest = read_manifest(args.manifest)
    config = dict(manifest["config"], out=args.out or manifest["config"]["out"])
    # every option is a flag, so a replay is the recorded command line again
    return main([manifest["command"], *_flags(config)])


def _add_common_train_flags(p, pretrain_mode=False):
    cfg = pretrain_config() if pretrain_mode else TrainConfig()
    p.add_argument("--epochs", type=int, default=cfg.epochs)
    p.add_argument("--lr", type=float, default=cfg.lr)
    p.add_argument("--weight-decay", type=float, default=cfg.weight_decay)
    p.add_argument("--batch-size", type=int, default=cfg.batch_size)
    p.add_argument("--lam", type=float, default=cfg.loss.lam, help="fine-term weight")
    p.add_argument("--theta", type=float, default=cfg.loss.theta)
    p.add_argument("--fine-fraction", type=float, default=cfg.loss.fine_supervision_fraction)
    _add_seed_flag(p)
    p.add_argument("--out", required=True, help="run directory")


def _add_seed_flag(p):
    p.add_argument("--seed", type=int, default=os.environ.get("EPIMATCH_SEED", "0"),
                   help="default: $EPIMATCH_SEED, else 0")


def _add_ransac_flags(p, cfg: RansacConfig):
    p.add_argument("--ransac-iterations", type=int, default=cfg.iterations)
    p.add_argument("--ransac-threshold", type=float, default=cfg.inlier_threshold)


def build_parser():
    """No parser expands an abbreviated flag, so a new flag cannot change
    what an existing command line means."""
    parser = argparse.ArgumentParser(prog="epimatch", description=__doc__, allow_abbrev=False,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=partial(argparse.ArgumentParser, allow_abbrev=False))
    configurable = argparse.ArgumentParser(add_help=False)
    configurable.add_argument("--config", help="flat key = value config file")
    add_command = partial(sub.add_parser, parents=[configurable])

    p = add_command("synth", help="generate a synthetic two-view dataset")
    p.add_argument("--domain", required=True, choices=["A", "B"])
    p.add_argument("--pairs", type=_count(1), default=50)
    _add_seed_flag(p)
    p.add_argument("--out", required=True, help="run directory")
    p.set_defaults(func=cmd_synth)

    p = add_command("pairs", help="mine image pairs from poses alone")
    p.add_argument("--poses", required=True)
    p.add_argument("--model", default="euroc-room",
                   help="preset name, 'hemisphere' or 'box'")
    p.add_argument("--z-plane", type=float, default=0.0)
    p.add_argument("--r-sphere", type=float, default=3.0)
    p.add_argument("--side", type=float, default=10.0)
    p.add_argument("--bottom", type=float, default=-2.0)
    p.add_argument("--longitudinal", type=float, default=25.0)
    p.add_argument("--min-overlap", type=float, default=0.3)
    p.add_argument("--max-overlap", type=float, default=0.8)
    p.add_argument("--stride", type=_count(1), default=1)
    p.add_argument("--image-width", type=_count(1), default=640)
    p.add_argument("--image-height", type=_count(1), default=480)
    p.add_argument("--out", required=True, help="run directory")
    p.set_defaults(func=cmd_pairs)

    p = add_command("pretrain", help="correspondence-supervised pretraining")
    p.add_argument("--data", required=True)
    _add_common_train_flags(p, pretrain_mode=True)
    p.set_defaults(func=cmd_pretrain)

    p = add_command("finetune", help="pose-supervised epipolar finetuning")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--replay-data", help="source-domain dataset for batch replay")
    p.add_argument("--pose-noise-deg", type=float, default=0.0)
    p.add_argument("--naive-mask", action="store_true",
                   help="ablation: all on-line cells positive (no argmax)")
    _add_common_train_flags(p)
    p.set_defaults(func=cmd_finetune)

    p = add_command("bootstrap", help="finetune against estimated F matrices")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--replay-data")
    bootstrap_defaults = BootstrapConfig()
    p.add_argument("--min-matches", type=int, default=bootstrap_defaults.min_matches)
    p.add_argument("--min-inliers", type=int, default=bootstrap_defaults.min_inliers)
    _add_ransac_flags(p, bootstrap_defaults.ransac)
    _add_common_train_flags(p)
    p.set_defaults(func=cmd_bootstrap)

    p = add_command("match", help="match one rendered pair")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--pair", required=True)
    p.add_argument("--out", required=True, help="run directory")
    p.add_argument("--threshold", type=float, default=PRECISION_THRESHOLD_INDOOR)
    p.set_defaults(func=cmd_match)

    p = add_command("pose", help="relative pose from a match file")
    p.add_argument("--matches", required=True)
    p.add_argument("--fx", type=float, required=True)
    p.add_argument("--fy", type=float, required=True)
    p.add_argument("--cx", type=float, required=True)
    p.add_argument("--cy", type=float, required=True)
    _add_ransac_flags(p, EVAL_RANSAC)
    _add_seed_flag(p)
    p.add_argument("--out", required=True, help="run directory")
    p.set_defaults(func=cmd_pose)

    p = add_command("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--threshold", type=float, default=PRECISION_THRESHOLD_INDOOR,
                   help=f"precision threshold; outdoor data takes {PRECISION_THRESHOLD_OUTDOOR:g}"
                        " (PRECISION_THRESHOLD_OUTDOOR)")
    _add_ransac_flags(p, EVAL_RANSAC)
    p.add_argument("--overlays", type=_count(0), default=4)
    _add_seed_flag(p)
    p.add_argument("--out", required=True, help="run directory")
    p.set_defaults(func=cmd_eval)

    p = add_command("gradcheck", help="finite-difference gradient suites")
    _add_seed_flag(p)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("replay", help="re-run a command from its manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", help="override the run directory")
    p.set_defaults(func=cmd_replay)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "config", None):
            # the file's values go in as flags ahead of the typed ones, so
            # argparse checks them and a typed flag still wins
            args = build_parser().parse_args([args.command, *_flags(_file_settings(args)), *argv[1:]])
        rc = args.func(args)
        if rc == 0 and args.command not in ("gradcheck", "replay"):
            write_manifest(args.out, args.command, _resolved(args), __version__)
        return rc
    except (EpimatchError, OSError, ValueError) as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
