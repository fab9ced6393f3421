"""Command-line entry points wiring the toolkit into reproducible runs.

A setting's value is its flag's, else the --config file's (keys before any
section, or in the command's [section]), else EPIMATCH_SEED's (--seed only),
else the flag's default (0 for --seed). Every command but gradcheck and
replay writes run_manifest.json for `epimatch replay`. The run directory of
pretrain, finetune and bootstrap adds metrics.csv (one row per epoch) and
checkpoint.bin, and bootstrap's adds report.json.
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


def _config_defaults(args):
    """The values `args.config` gives `args.command`'s flags, keyed by dest.

    Keys the command has no flag for are ignored. Values stay strings for
    argparse to convert with the flag's type; a store_true flag is set by
    1, true, yes or on, and cleared by any other word."""
    settings = _resolved(args)
    defaults = {}
    for full_key, raw in parse_config_file(args.config).items():
        section, _, key = full_key.rpartition(".")
        key = key.replace("-", "_")
        if section in ("", args.command) and key in settings:
            switch = isinstance(settings[key], bool)
            defaults[key] = raw.lower() in ("1", "true", "yes", "on") if switch else raw
    return defaults


def cmd_synth(args):
    spec = make_domain(args.domain, seed=args.seed)
    out = Path(args.out)
    write_manifest(out, "synth", _resolved(args), __version__)
    save_dataset(spec, args.pairs, out)
    print(f"wrote {args.pairs} pairs to {out}")
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
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_pairs_file(out, pairs)
    write_manifest(out.parent, "pairs", _resolved(args), __version__)
    print(f"wrote {len(pairs)} pairs to {out}")
    return 0


def _train_config(args, for_pretrain=False):
    loss = LossConfig(lam=args.lam, theta=args.theta,
                      fine_supervision_fraction=args.fine_fraction)
    if for_pretrain:
        return pretrain_config(epochs=args.epochs, lr=args.lr, seed=args.seed, loss=loss,
                               batch_size=args.batch_size, weight_decay=args.weight_decay)
    return TrainConfig(lr=args.lr, weight_decay=args.weight_decay,
                       batch_size=args.batch_size, epochs=args.epochs, loss=loss, seed=args.seed)


def cmd_pretrain(args):
    dataset = load_dataset(args.data)
    cfg = _train_config(args, for_pretrain=True)
    params0 = init_params(MatcherConfig(), seed=cfg.seed)
    params, history = pretrain(dataset, params0, cfg)
    out = Path(args.out)
    write_manifest(out, "pretrain", _resolved(args), __version__)
    write_run_outputs(out, params, history)
    print(f"pretrained for {cfg.epochs} epochs; run directory: {out}")
    return 0


def _load_replay(args):
    if args.no_replay or not args.replay_data:
        return None
    return load_dataset(args.replay_data)


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
    out = Path(args.out)
    write_manifest(out, "finetune", _resolved(args), __version__)
    write_run_outputs(out, params, history)
    print(f"finetuned for {cfg.epochs} epochs; run directory: {out}")
    return 0


def cmd_bootstrap(args):
    dataset = load_dataset(args.data)
    cfg = _train_config(args)
    params0 = load_checkpoint(args.checkpoint)
    bcfg = BootstrapConfig(
        min_matches=args.min_matches, min_inliers=args.min_inliers,
        ransac=RansacConfig(iterations=args.ransac_iterations,
                            inlier_threshold=args.ransac_threshold, seed=cfg.seed))
    replay = _load_replay(args)
    params, history, report = bootstrap_finetune(dataset, params0, cfg, bcfg,
                                                 replay_pairs=replay)
    out = Path(args.out)
    write_manifest(out, "bootstrap", _resolved(args), __version__)
    write_run_outputs(out, params, history, extra=report)
    print(f"bootstrap-finetuned; kept {report['kept']}/{report['n_pairs']} pairs; run directory: {out}")
    return 0


def cmd_match(args):
    from .synth import load_pair_file

    params = load_checkpoint(args.checkpoint)
    pair = load_pair_file(args.pair)
    pred, _ = forward(pair.image1, pair.image2, params, MatcherConfig())
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_match_file(out, pred.fine_x1, pred.fine_x2, pred.fine_conf)
    if args.overlay:
        canvas = match_overlay(pair.image1, pair.image2, pred.fine_x1, pred.fine_x2,
                               pair.pose, pair.K, threshold=args.threshold)
        write_png(args.overlay, canvas)
    write_manifest(out.parent, "match", _resolved(args), __version__)
    print(f"wrote {pred.fine_x2.shape[0]} matches to {out}")
    return 0


def cmd_pose(args):
    pts1, pts2, _ = read_match_file(args.matches)
    K = CameraIntrinsics(args.fx, args.fy, args.cx, args.cy)
    cfg = RansacConfig(iterations=args.ransac_iterations,
                       inlier_threshold=args.ransac_threshold, seed=args.seed)
    pose, result = estimate_relative_pose(pts1, pts2, K, K, cfg)
    report = {
        "rotation": pose.R.tolist(),
        "translation": pose.t.tolist(),
        "inlier_count": int(result.inlier_count),
        "num_matches": int(result.num_input_matches),
        "no_consensus": bool(result.no_consensus),
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2)
    write_manifest(out.parent, "pose", _resolved(args), __version__)
    print(json.dumps(report, indent=2))
    return 0


def cmd_eval(args):
    params = load_checkpoint(args.checkpoint)
    dataset = load_dataset(args.data)
    rcfg = RansacConfig(iterations=args.ransac_iterations,
                        inlier_threshold=args.ransac_threshold, seed=args.seed)
    threshold = PRECISION_THRESHOLD_OUTDOOR if args.outdoor else args.threshold
    report = evaluate(params, dataset, rcfg, precision_threshold=threshold)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "eval.json", "w") as fh:
        fh.write(report.to_json())
    with open(out / "eval.txt", "w") as fh:
        fh.write(report.to_table() + "\n")
    for i, pair in enumerate(dataset[: args.overlays]):
        pred, _ = forward(pair.image1, pair.image2, params, MatcherConfig())
        canvas = match_overlay(pair.image1, pair.image2, pred.fine_x1, pred.fine_x2,
                               pair.pose, pair.K, threshold=threshold)
        write_png(out / f"overlay_{i:03d}.png", canvas)
    write_manifest(out, "eval", _resolved(args), __version__)
    print(report.to_table())
    return 0


def cmd_gradcheck(args):
    from .gradcheck import run_gradcheck

    report = run_gradcheck(seed=args.seed, inject_fault=args.inject_fault)
    for name, err, bound in report["components"]:
        status = "ok" if err < bound else "FAIL"
        print(f"{name:<28} max rel err {err:.3e}  (bound {bound:.0e})  {status}")
    print("gradcheck:", "pass" if report["passed"] else "fail")
    return 0 if report["passed"] else 1


def cmd_replay(args):
    manifest = read_manifest(args.manifest)
    command = manifest["command"]
    config = dict(manifest["config"])
    if args.out:
        config["out"] = args.out
    argv = [command]
    for key, value in config.items():
        if value is None:
            continue
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            if value:
                argv.append(flag)
            continue
        argv.extend([flag, str(value)])
    # positional-less design: all options are flags, so replay is re-dispatch
    return main(argv)


def _add_common_train_flags(p, pretrain_mode=False):
    cfg = pretrain_config() if pretrain_mode else TrainConfig()
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--epochs", type=int, default=cfg.epochs)
    p.add_argument("--lr", type=float, default=cfg.lr)
    p.add_argument("--weight-decay", type=float, default=cfg.weight_decay)
    p.add_argument("--batch-size", type=int, default=cfg.batch_size)
    p.add_argument("--lam", type=float, default=cfg.loss.lam, help="fine-term weight")
    p.add_argument("--theta", type=float, default=cfg.loss.theta)
    p.add_argument("--fine-fraction", type=float, default=cfg.loss.fine_supervision_fraction)
    _add_seed_flag(p)
    p.add_argument("--out", required=True)


def _add_seed_flag(p):
    p.add_argument("--seed", type=int, default=os.environ.get("EPIMATCH_SEED", "0"),
                   help="default: $EPIMATCH_SEED, else 0")


def _add_ransac_flags(p, cfg: RansacConfig):
    p.add_argument("--ransac-iterations", type=int, default=cfg.iterations)
    p.add_argument("--ransac-threshold", type=float, default=cfg.inlier_threshold)


def build_parser(file_defaults=None):
    """`file_defaults` maps a command to its config file's flag defaults,
    {command: {dest: value}}. No parser expands an abbreviated flag, so a
    new flag cannot change what an existing command line means."""
    parser = argparse.ArgumentParser(prog="epimatch", description=__doc__, allow_abbrev=False,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=partial(argparse.ArgumentParser, allow_abbrev=False))

    p = sub.add_parser("synth", help="generate a synthetic two-view dataset")
    p.add_argument("--config")
    p.add_argument("--domain", required=True, choices=["A", "B"])
    p.add_argument("--pairs", type=int, default=50)
    _add_seed_flag(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("pairs", help="mine image pairs from poses alone")
    p.add_argument("--config")
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
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--image-width", type=int, default=640)
    p.add_argument("--image-height", type=int, default=480)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pairs)

    p = sub.add_parser("pretrain", help="correspondence-supervised pretraining")
    p.add_argument("--data", required=True)
    _add_common_train_flags(p, pretrain_mode=True)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", help="pose-supervised epipolar finetuning")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--replay-data", help="source-domain dataset for batch replay")
    p.add_argument("--no-replay", action="store_true")
    p.add_argument("--pose-noise-deg", type=float, default=0.0)
    p.add_argument("--naive-mask", action="store_true",
                   help="ablation: all on-line cells positive (no argmax)")
    _add_common_train_flags(p)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("bootstrap", help="finetune against estimated F matrices")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--replay-data")
    p.add_argument("--no-replay", action="store_true")
    bootstrap_defaults = BootstrapConfig()
    p.add_argument("--min-matches", type=int, default=bootstrap_defaults.min_matches)
    p.add_argument("--min-inliers", type=int, default=bootstrap_defaults.min_inliers)
    _add_ransac_flags(p, bootstrap_defaults.ransac)
    _add_common_train_flags(p)
    p.set_defaults(func=cmd_bootstrap)

    p = sub.add_parser("match", help="match one rendered pair")
    p.add_argument("--config")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--pair", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--overlay")
    p.add_argument("--threshold", type=float, default=PRECISION_THRESHOLD_INDOOR)
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("pose", help="relative pose from a match file")
    p.add_argument("--config")
    p.add_argument("--matches", required=True)
    p.add_argument("--fx", type=float, required=True)
    p.add_argument("--fy", type=float, required=True)
    p.add_argument("--cx", type=float, required=True)
    p.add_argument("--cy", type=float, required=True)
    _add_ransac_flags(p, EVAL_RANSAC)
    _add_seed_flag(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pose)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--config")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--threshold", type=float, default=PRECISION_THRESHOLD_INDOOR)
    p.add_argument("--outdoor", action="store_true",
                   help="use the outdoor precision threshold 1e-4")
    _add_ransac_flags(p, EVAL_RANSAC)
    p.add_argument("--overlays", type=int, default=4)
    _add_seed_flag(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suites")
    p.add_argument("--config")
    _add_seed_flag(p)
    p.add_argument("--inject-fault", choices=["sign-flip"], default=None,
                   help="test hook: corrupt one gradient to prove detection")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("replay", help="re-run a command from its manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", help="override the output directory")
    p.set_defaults(func=cmd_replay)

    for command, defaults in (file_defaults or {}).items():
        sub.choices[command].set_defaults(**defaults)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "config", None):
            # parse again with the file's values as defaults: flags still win
            args = build_parser({args.command: _config_defaults(args)}).parse_args(argv)
        return args.func(args)
    except (EpimatchError, OSError, ValueError) as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
