"""Names, units and directions of every metric the benchmark reports.

`BENCHMARK.json` at the repository root is this module rendered as JSON; a
test keeps the two identical.
"""

from __future__ import annotations

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 20

WORKLOADS = {
    "train_A": "correspondence-supervised pretrain on domain A with teacher forcing: matcher forward/backward "
               "and the GT losses do the work, estimation none",
    "adapt_B": "pose-supervised finetune on B with source replay, eval on held-out B and bootstrap: the only "
               "workload with inference-mode matching and epipolar losses",
    "pose_B": "relative pose from fixed noisy GT correspondences with outliers on domain B: estimation and "
              "geometry do the work, the matcher none",
    "mine_poses": "pose-only pair mining on an indoor loop (hemisphere preset) and a street run (box preset); "
                  "pairgen runs nowhere else",
}

# (name, unit, better, bound); bound is the share of the parent's median by
# which a metric may worsen before a change counts as a regression
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("failed_share", "failed/attempted", "lower", 0.1),
    ("train_pairs_per_s", "pair-steps/s", "higher", 0.25),
    ("eval_pairs_per_s", "pairs/s", "higher", 0.25),
    ("pose_pairs_per_s", "pairs/s", "higher", 0.25),
    ("mine_candidates_per_s", "candidates/s", "higher", 0.25),
    ("pose_auc5", "%", "higher", 0.25),
    ("pose_auc10", "%", "higher", 0.25),
    ("pose_auc20", "%", "higher", 0.25),
    ("eval_auc5", "%", "higher", 0.25),
    ("eval_auc10", "%", "higher", 0.25),
    ("eval_auc20", "%", "higher", 0.25),
    ("eval_precision", "%", "higher", 0.25),
    ("eval_mean_matches", "matches/pair", "higher", 0.25),
    ("bootstrap_kept_share", "kept/pairs", "higher", 0.25),
)

# module -> public functions the traced run wraps; True marks functions that
# run once per image pair (or candidate pair) and so also report percentiles
LAYER_FUNCTIONS = {
    "synth": (("sample_pair", True), ("gt_correspondence_grid", True)),
    "matcher": (("extract_features", False), ("confidence_matrix", True), ("select_coarse", True),
                ("refine_fine", True), ("forward", True), ("backward", True), ("sgd_step", False)),
    "losses": (("epipolar_line_set", True), ("epipolar_classification_mask", True),
               ("gt_classification_mask", True), ("coarse_loss_grad", True), ("fine_loss_grad", True),
               ("gt_fine_loss_grad", True)),
    "pipeline": (("pretrain", False), ("finetune_pose_supervised", False),
                 ("bootstrap_fundamentals", False), ("bootstrap_finetune", False)),
    "estimation": (("estimate_relative_pose", True), ("ransac_fundamental", True), ("eight_point", False)),
    "geometry": (("decompose_essential", True),),
    "metrics": (("evaluate", False), ("matching_precision", True), ("pose_error", True)),
    "pairgen": (("generate_pairs", False), ("pseudo_overlap", True)),
}

# layers that do work in some workload's set-up; each reports the self time
# of one traced set-up as setup.<module>.self_s
SETUP_LAYERS = ("synth", "matcher", "losses", "pipeline")

# failure reasons counted per operation; "other" is any further EpimatchError
# subclass or a LinAlgError. A non-finite loss or gradient is not a failed
# operation: it fails the correctness gate
OP_FAILURES = ("NoMatches", "NotEnoughMatches", "DegenerateConfiguration", "NoValidHypothesis",
               "AmbiguousCheirality", "EmptyDatasetAfterFilter", "other")
ESTIMATION_FAILURES = ("NotEnoughMatches", "DegenerateConfiguration", "NoValidHypothesis",
                       "AmbiguousCheirality", "other")

# counters derived from return values and arguments: (name, unit, better)
LAYER_COUNTERS = (
    ("synth.gt_valid_share", "share", "higher"),
    ("matcher.coarse_matches_per_pair", "matches/pair", "higher"),
    ("matcher.fine_dropped", "count", "lower"),
    ("matcher.fine_kept_share", "share", "higher"),
    ("losses.empty_masks", "count", "lower"),
    ("losses.mask_positives_per_pair", "positives/pair", "higher"),
    ("pipeline.epoch_s", "s", "lower"),
    ("pipeline.skipped_no_F", "count", "lower"),
    ("pipeline.bootstrap_dropped_few_matches", "count", "lower"),
    ("pipeline.bootstrap_dropped_few_inliers", "count", "lower"),
    ("pipeline.bootstrap_dropped_estimation_failed", "count", "lower"),
    ("estimation.eight_point_per_ransac", "calls/ransac", "lower"),
    ("estimation.inlier_share", "share", "higher"),
    *((f"estimation.failures.{name}", "count", "lower") for name in ESTIMATION_FAILURES),
    ("geometry.triangulate.calls", "count", "lower"),
    ("pairgen.accepted_share", "share", "higher"),
    ("pairgen.pseudo_depth.calls", "count", "lower"),
    ("ops.attempted", "count", "higher"),
    *((f"ops.failed.{name}", "count", "lower") for name in OP_FAILURES),
    ("trace_overhead", "ratio", "lower"),
)


def per_layer_specs():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for module, functions in LAYER_FUNCTIONS.items():
        for fn, per_pair in functions:
            out += [(f"{module}.{fn}.calls", "count", "lower"), (f"{module}.{fn}.self_s", "s", "lower")]
            if per_pair:
                out += [(f"{module}.{fn}.ms_p50", "ms", "lower"), (f"{module}.{fn}.ms_p90", "ms", "lower")]
    out += [(f"setup.{module}.self_s", "s", "lower") for module in SETUP_LAYERS]
    return out + list(LAYER_COUNTERS)


def benchmark_json():
    """The content of BENCHMARK.json."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in per_layer_specs()],
    }
