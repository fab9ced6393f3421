"""The four benchmark workloads.

Each workload builds its inputs from the seed in `setup`, does one fixed
amount of work in `unit`, and checks the outputs of that unit. The runner
repeats `unit` on the same state for the measured time; every repeat must
give the same digest. The program is always called through module
attributes (`pipeline.pretrain`, not a name bound at import) so that the
traced run sees every call.
"""

from __future__ import annotations

import hashlib
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from epimatch import estimation, matcher, metrics, pairgen, pipeline, synth
from epimatch.errors import EpimatchError, NonFiniteGradient, NonFiniteLoss
from epimatch.geometry import Camera, CameraIntrinsics, RelativePose
from epimatch.grid import GridSpec

from spec import OP_FAILURES
from tracing import Tracer

# errors an operation of the program may end with; anything else is a defect
# of the program or the benchmark and stops the run
CAUGHT = (EpimatchError, np.linalg.LinAlgError)
# a training step that produced a non-finite loss or gradient fails the
# correctness gate instead of counting as a failed operation
NON_FINITE = (NonFiniteLoss, NonFiniteGradient)

MCFG = matcher.MatcherConfig()
# pose_B: the matcher output the estimation layer was profiled on, 209
# matches of which 40 % are outliers
POSE_MATCHES = 209
OUTLIER_SHARE = 0.4
# pose_B: std of the Gaussian noise on image-2 points (px). RANSAC keeps the
# F of its best minimal sample, so the pose error grows with the noise; at
# 0.01 px the AUCs over 64 pairs vary across seeds by about a tenth, at 0.1 px
# by over a half
PIXEL_NOISE = 0.01
MINING_SIZE = (640, 480)  # mine_poses: image (W, H) of the mined views
MINING_K = CameraIntrinsics(400.0, 400.0, 319.5, 239.5)

SIZES = {
    "full": dict(train_pairs=32, train_epochs=1,
                 adapt_source_pairs=16, adapt_pretrain_epochs=3, adapt_pairs=16, adapt_eval_pairs=16,
                 adapt_epochs=1,
                 pose_pairs=64, pose_matches=POSE_MATCHES, ransac={},
                 loop_poses=6, street_poses=5),
    "tiny": dict(train_pairs=2, train_epochs=1,
                 adapt_source_pairs=4, adapt_pretrain_epochs=1, adapt_pairs=4, adapt_eval_pairs=2,
                 adapt_epochs=1,
                 pose_pairs=2, pose_matches=50, ransac=dict(iterations=30),
                 loop_poses=3, street_poses=3),
}


@dataclass
class Outcome:
    """What one unit of work did.

    seconds / work: per throughput metric, the seconds each timed item took
    and the work done. The runner takes each item's median over repeats, so
    a burst of load on the machine moves one sample, not the result.
    quality: deterministic end-to-end metrics; identical across repeats.
    digest: hash of the outputs; identical across repeats.
    problems: failed correctness checks.
    """

    seconds: dict
    work: dict
    attempted: int
    failures: Counter
    quality: dict = field(default_factory=dict)
    digest: str = ""
    problems: list = field(default_factory=list)
    detail: dict = field(default_factory=dict)


def reason(exc):
    name = type(exc).__name__
    return name if name in OP_FAILURES else "other"


def digest_arrays(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=float)
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _param_arrays(params):
    return params.W_coarse, params.W_fine, [params.tau_coarse, params.tau_fine]


def params_digest(params):
    return digest_arrays(*_param_arrays(params))


def finite_params(params):
    # the matcher zeroes non-finite features, so training from non-finite
    # weights keeps finite losses and gradients and is not stopped by the
    # program's own loss and gradient checks
    return all(np.all(np.isfinite(a)) for a in _param_arrays(params))


def _grid(pair):
    return GridSpec.for_image(*pair.image1.shape, MCFG.patch_width)


def probe(observers):
    """Install a Tracer that calls each observer (span name -> fn(args,
    kwargs, result or None, seconds)) on every call of the named function."""
    tracer = Tracer(observers)
    tracer.install([tuple(name.split(".")) for name in observers])
    return tracer


def _ticker(pace):
    """Samples the machine's speed between two timed items of a unit."""
    return pace.sample if pace is not None else (lambda: None)


def _render(domain, seed, start, n):
    spec = synth.make_domain(domain, seed=seed)
    return [synth.sample_pair(spec, i) for i in range(start, start + n)]


def _gt_grids(pairs):
    return [synth.gt_correspondence_grid(p, _grid(p)) for p in pairs]


class TrainA:
    """Correspondence-supervised pretraining on domain A from GT grids."""

    name = "train_A"

    def setup(self, seed, size):
        pairs = _render("A", seed, 0, size["train_pairs"])
        return dict(pairs=pairs, gts=_gt_grids(pairs), params0=matcher.init_params(MCFG, seed=seed),
                    cfg=pipeline.pretrain_config(epochs=size["train_epochs"], seed=seed))

    def unit(self, s, pace=None):
        failures, problems = Counter(), []
        steps = s["cfg"].epochs * len(s["pairs"])
        digest = ""
        t0 = time.perf_counter()
        try:
            params, _ = pipeline.pretrain(s["pairs"], s["params0"], s["cfg"], MCFG, gts=s["gts"])
        except NON_FINITE as exc:
            problems.append(f"train_A: {type(exc).__name__}: {exc}")
            steps = 0
        except CAUGHT as exc:
            failures[reason(exc)] += 1
            steps = 0
        else:
            digest = params_digest(params)
        seconds = time.perf_counter() - t0
        if digest and not finite_params(params):
            problems.append("train_A: trained parameters are not finite")
        return Outcome(seconds={"train_pairs_per_s": [seconds]}, work={"train_pairs_per_s": steps},
                       attempted=1, failures=failures, digest=digest, problems=problems)


class AdaptB:
    """Pose-supervised finetuning on B with replay, eval and bootstrapping."""

    name = "adapt_B"

    def setup(self, seed, size):
        source = _render("A", seed, 0, size["adapt_source_pairs"])
        source_gts = _gt_grids(source)
        params_pre, _ = pipeline.pretrain(source, matcher.init_params(MCFG, seed=seed),
                                          pipeline.pretrain_config(epochs=size["adapt_pretrain_epochs"],
                                                                   seed=seed),
                                          MCFG, gts=source_gts)
        train = _render("B", seed, 0, size["adapt_pairs"])
        held_out = _render("B", seed, size["adapt_pairs"], size["adapt_eval_pairs"])
        return dict(source=source, source_gts=source_gts, params_pre=params_pre, train=train,
                    held_out=held_out,
                    cfg=pipeline.TrainConfig(epochs=size["adapt_epochs"], seed=seed),
                    bcfg=pipeline.BootstrapConfig(
                        ransac=estimation.RansacConfig(iterations=400, inlier_threshold=5e-4, seed=seed)),
                    rcfg=estimation.RansacConfig(seed=seed))

    def _steps(self, s, n_with_f, empty_masks):
        # per epoch: one step per pair with an F, plus one replay step per
        # pair; the finetune skips a pair whose epipolar mask is empty
        return s["cfg"].epochs * (n_with_f + len(s["train"])) - empty_masks

    def unit(self, s, pace=None):
        failures, problems = Counter(), []
        attempted = 1 + len(s["held_out"]) + 1
        train_s, steps = [], 0
        empty = Counter()  # finetune call -> epipolar masks with no positive

        def count_empty(call):
            def observe(args, kwargs, result, seconds):
                if result is not None and not np.any(result.values):
                    empty[call] += 1
            return observe

        params = s["params_pre"]
        with probe({"losses.epipolar_classification_mask": count_empty("direct")}):
            t0 = time.perf_counter()
            try:
                params, history = pipeline.finetune_pose_supervised(
                    s["train"], s["params_pre"], s["cfg"], mcfg=MCFG,
                    replay_pairs=s["source"], replay_gts=s["source_gts"])
            except NON_FINITE as exc:
                problems.append(f"adapt_B: finetune: {type(exc).__name__}: {exc}")
            except CAUGHT as exc:
                failures[reason(exc)] += 1
            else:
                steps += self._steps(s, len(s["train"]) - history[-1]["skipped_pairs"], empty["direct"])
            train_s.append(time.perf_counter() - t0)
        if not finite_params(params):
            problems.append("adapt_B: finetuned parameters are not finite")
        tick = _ticker(pace)
        tick()

        # evaluate catches every estimation error itself; a probe on its two
        # per-pair calls recovers why each failed pair failed
        matches, ticked = [], []

        def count_matches(args, kwargs, result, seconds):
            if result is not None:
                matches.append(len(result[0].fine_x2))
            t = time.perf_counter()
            tick()
            ticked.append(time.perf_counter() - t)

        with probe({"metrics.forward": count_matches, "metrics.estimate_relative_pose": None}) as eval_probe:
            t0 = time.perf_counter()
            report = metrics.evaluate(params, s["held_out"], s["rcfg"], MCFG)
            eval_s = time.perf_counter() - t0 - sum(ticked)
        tick()
        eval_reasons = Counter("NoMatches" if m == 0 else "NotEnoughMatches"
                               for m in matches if m < s["rcfg"].min_sample)
        for name, exc, _ in eval_probe.errors:
            if name == "metrics.estimate_relative_pose":
                eval_reasons[exc if exc in OP_FAILURES else "other"] += 1
        failures.update(eval_reasons)
        if sum(eval_reasons.values()) != report.n_failed:
            problems.append(f"adapt_B: evaluate reports {report.n_failed} failed pairs, "
                            f"probe found {sum(eval_reasons.values())}")

        # bootstrap_finetune raises before returning its report when no pair
        # survives the filter, so the report is taken from its inner call
        reports, finetunes = [], []

        def keep_report(args, kwargs, result, seconds):
            if result is not None:
                reports.append(result[1])

        def time_finetune(args, kwargs, result, seconds):
            if result is not None:
                finetunes.append(seconds)

        with probe({"pipeline.bootstrap_fundamentals": keep_report,
                    "pipeline.finetune_pose_supervised": time_finetune,
                    "losses.epipolar_classification_mask": count_empty("bootstrap")}):
            try:
                pipeline.bootstrap_finetune(s["train"], s["params_pre"], s["cfg"], s["bcfg"], MCFG,
                                            replay_pairs=s["source"], replay_gts=s["source_gts"])
            except NON_FINITE as exc:
                problems.append(f"adapt_B: bootstrap_finetune: {type(exc).__name__}: {exc}")
            except CAUGHT as exc:
                failures[reason(exc)] += 1
        boot = reports[0] if reports else {"n_pairs": len(s["train"]), "kept": 0}
        if finetunes:
            train_s.append(finetunes[0])
            steps += self._steps(s, boot["kept"], empty["bootstrap"])
        dropped = sum(v for k, v in boot.items() if k.startswith("dropped_"))
        if boot["kept"] + dropped != boot["n_pairs"]:
            problems.append(f"adapt_B: bootstrap kept {boot['kept']} + dropped {dropped} "
                            f"!= {boot['n_pairs']} pairs")

        quality = dict(eval_auc5=report.auc5, eval_auc10=report.auc10, eval_auc20=report.auc20,
                       eval_precision=report.precision, eval_mean_matches=report.mean_matches,
                       bootstrap_kept_share=boot["kept"] / boot["n_pairs"])
        for key in ("eval_auc5", "eval_auc10", "eval_auc20", "eval_precision"):
            if not 0.0 <= quality[key] <= 100.0:
                problems.append(f"adapt_B: {key} = {quality[key]} outside [0, 100]")
        digest = hashlib.sha256((params_digest(params) + repr(sorted(quality.items()))
                                 + repr(sorted(boot.items()))).encode()).hexdigest()
        return Outcome(seconds={"train_pairs_per_s": train_s, "eval_pairs_per_s": [eval_s]},
                       work={"train_pairs_per_s": steps, "eval_pairs_per_s": len(s["held_out"])},
                       attempted=attempted, failures=failures, quality=quality, digest=digest,
                       problems=problems, detail={"bootstrap": boot, "eval_failed": report.n_failed})


class PoseB:
    """Relative pose from fixed noisy GT correspondences with outliers."""

    name = "pose_B"

    def setup(self, seed, size):
        pairs = _render("B", seed, 0, size["pose_pairs"])
        problems = []
        for i, (pair, (targets, points)) in enumerate(zip(pairs, _gt_grids(pairs))):
            rng = np.random.default_rng([seed, 17, i])
            valid = np.flatnonzero(targets >= 0)
            n_in = int(round((1.0 - OUTLIER_SHARE) * size["pose_matches"]))
            cells = rng.choice(valid, size=min(n_in, valid.size), replace=False)
            x1 = _grid(pair).cell_centers()[cells]
            x2 = points[cells] + rng.normal(0.0, PIXEL_NOISE, (cells.size, 2))
            n_out = int(round(size["pose_matches"] * cells.size / n_in)) - cells.size
            H, W = pair.image1.shape
            x1 = np.vstack([x1, _grid(pair).cell_centers()[rng.choice(valid, size=n_out)]])
            x2 = np.vstack([x2, rng.uniform((0.0, 0.0), (W - 1.0, H - 1.0), (n_out, 2))])
            order = rng.permutation(len(x1))
            problems.append((x1[order], x2[order], pair.K, pair.pose))
        return dict(problems=problems,
                    rcfg=estimation.RansacConfig(seed=seed, **size["ransac"]))

    def unit(self, s, pace=None):
        failures, problems = Counter(), []
        errors, outputs, seconds = [], [], []
        tick = _ticker(pace)
        for x1, x2, K, gt in s["problems"]:
            tick()
            t0 = time.perf_counter()
            try:
                pose, res = estimation.estimate_relative_pose(x1, x2, K, K, s["rcfg"])
            except CAUGHT as exc:
                failures[reason(exc)] += 1
                errors.append(np.inf)
                continue
            finally:
                seconds.append(time.perf_counter() - t0)
            errors.append(metrics.pose_error(gt, pose).combined)
            outputs.append((pose, res))
        for pose, res in outputs:
            R = pose.R
            if not (np.allclose(R.T @ R, np.eye(3), atol=1e-9) and abs(np.linalg.det(R) - 1.0) <= 1e-9):
                problems.append("pose_B: returned R is not a rotation")
            if res.inlier_count != int(np.count_nonzero(res.inlier_mask)) or \
                    res.inlier_count > res.num_input_matches:
                problems.append("pose_B: inlier_count disagrees with inlier_mask")
        auc5, auc10, auc20 = metrics.pose_auc(errors)
        digest = digest_arrays(errors, *[a for pose, res in outputs
                                         for a in (pose.R, pose.t, res.inlier_mask)])
        return Outcome(seconds={"pose_pairs_per_s": seconds}, work={"pose_pairs_per_s": len(s["problems"])},
                       attempted=len(s["problems"]), failures=failures,
                       quality=dict(pose_auc5=auc5, pose_auc10=auc10, pose_auc20=auc20),
                       digest=digest, problems=problems)


def _camera(center, yaw, pitch):
    """Camera at `center` looking along heading `yaw`, tilted down by `pitch`."""
    forward = np.array([np.cos(pitch) * np.cos(yaw), np.cos(pitch) * np.sin(yaw), -np.sin(pitch)])
    right = np.cross(forward, [0.0, 0.0, 1.0])
    right /= np.linalg.norm(right)
    R = np.vstack([right, np.cross(forward, right), forward])
    return Camera(MINING_K, RelativePose(R, -R @ np.asarray(center, dtype=float)))


def indoor_loop(seed, n):
    """Handheld loop of radius ~1 m inside a room, looking along the loop."""
    rng = np.random.default_rng([seed, 23])
    records = []
    for k in range(n):
        a = 2.0 * np.pi * k / n + rng.normal(0.0, 0.1)
        r = 1.0 + rng.normal(0.0, 0.1)
        center = (r * np.cos(a), r * np.sin(a), 1.4 + rng.normal(0.0, 0.1))
        cam = _camera(center, a + np.pi / 2 + rng.normal(0.0, 0.3), 0.2 + rng.normal(0.0, 0.05))
        records.append(pairgen.PoseRecord(f"loop{k:03d}", cam, float(k)))
    return records


def street_run(seed, n):
    """Straight drive along +x at ~2 m spacing, looking ahead."""
    rng = np.random.default_rng([seed, 29])
    records = []
    for k in range(n):
        center = (2.0 * k + rng.normal(0.0, 0.2), rng.normal(0.0, 0.3), 1.5)
        cam = _camera(center, rng.normal(0.0, 0.1), 0.1 + rng.normal(0.0, 0.02))
        records.append(pairgen.PoseRecord(f"street{k:03d}", cam, float(k)))
    return records


class MinePoses:
    """Pose-only pair mining with the hemisphere and box presets."""

    name = "mine_poses"

    def setup(self, seed, size):
        return dict(runs=((indoor_loop(seed, size["loop_poses"]), pairgen.PRESETS["euroc-room"]),
                          (street_run(seed, size["street_poses"]), pairgen.PRESETS["sf-street"])),
                    range=pairgen.OverlapRange())

    def unit(self, s, pace=None):
        failures, problems = Counter(), []
        accepted, candidates, seconds = [], 0, []
        tick = _ticker(pace)
        for records, model in s["runs"]:
            n = len(records) * (len(records) - 1) // 2
            candidates += n
            scored, ticked = [], []

            def score(args, kwargs, result, sec):
                scored.append(sec)
                t = time.perf_counter()
                tick()
                ticked.append(time.perf_counter() - t)

            with probe({"pairgen.pseudo_overlap": score}):
                t0 = time.perf_counter()
                try:
                    accepted += pairgen.generate_pairs(records, model, s["range"], image_size=MINING_SIZE)
                except CAUGHT as exc:
                    failures[reason(exc)] += n
                whole = time.perf_counter() - t0 - sum(ticked)
            # each scored candidate is its own timed item, so a burst of load
            # moves one candidate's sample; a program that no longer scores
            # one candidate per pseudo_overlap call is timed per run instead
            seconds += scored if len(scored) == n else [whole]
        lo, hi = s["range"].min, s["range"].max
        if any(not lo <= score <= hi for _, _, score in accepted):
            problems.append("mine_poses: accepted score outside the overlap range")
        digest = hashlib.sha256(repr(accepted).encode()).hexdigest()
        return Outcome(seconds={"mine_candidates_per_s": seconds}, work={"mine_candidates_per_s": candidates},
                       attempted=candidates, failures=failures, digest=digest, problems=problems,
                       detail={"accepted": len(accepted)})


WORKLOADS = {w.name: w for w in (TrainA(), AdaptB(), PoseB(), MinePoses())}

# pseudo_depth runs once per sample of each of the two directional scores
PSEUDO_DEPTH_PER_OVERLAP = 2 * pairgen.SAMPLE_GRID ** 2
