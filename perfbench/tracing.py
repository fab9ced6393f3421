"""Spans and counters for the traced run.

A `Tracer` replaces public functions of the loaded `epimatch` modules with
wrappers that record one span per call, and puts the originals back when it
is uninstalled. A function imported by name into another module (for example
`forward` into `pipeline` and `metrics`) is replaced there too, so calls
through every copy are seen. Spans live in memory; a span's self time is its
duration minus the durations of the spans it directly caused.

Functions that run once per pixel or per point (`pairgen.pseudo_depth`,
`geometry.triangulate`) are not wrapped: their call counts are derived from
the arguments of the per-pair functions that call them, so tracing does not
swamp the run.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

import numpy as np

from spec import ESTIMATION_FAILURES, LAYER_FUNCTIONS, OP_FAILURES, SETUP_LAYERS


class Tracer:
    def __init__(self, observers=None):
        self.spans = []  # [name, start, end, parent index or -1]
        self.errors = []  # (span name, exception type name, parent span name or None)
        self.observers = observers or {}  # span name -> fn(args, kwargs, result or None, seconds)
        self._stack = []
        self._replaced = []  # (module, attribute, original)

    def wrap(self, name, fn):
        spans, stack, errors = self.spans, self._stack, self.errors
        observe = self.observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            span = [name, time.perf_counter(), None, parent]
            spans.append(span)
            stack.append(index)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                errors.append((name, type(exc).__name__, spans[parent][0] if parent >= 0 else None))
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if observe is not None:
                    observe(args, kwargs, result, span[2] - span[1])

        traced.perfbench_span = name
        return traced

    def install(self, functions):
        """Wrap each (module, function name) pair, in every loaded epimatch
        module that holds the same function object."""
        for module_name, fn_name in functions:
            original = getattr(sys.modules[f"epimatch.{module_name}"], fn_name)
            wrapper = self.wrap(f"{module_name}.{fn_name}", original)
            for module in program_modules():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._replaced.append((module, attr, original))

    def uninstall(self):
        while self._replaced:
            module, attr, original = self._replaced.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def self_times(self):
        """Self seconds of every span, in span order."""
        own = np.array([end - start for _, start, end, _ in self.spans])
        self_s = own.copy()
        for (_, _, _, parent), duration in zip(self.spans, own):
            if parent >= 0:
                self_s[parent] -= duration
        return self_s

    def nesting_errors(self):
        """Spans that do not lie inside the span that caused them."""
        bad = []
        for i, (name, start, end, parent) in enumerate(self.spans):
            if end is None or end < start:
                bad.append(i)
            elif parent >= 0:
                _, p_start, p_end, _ = self.spans[parent]
                if not (p_start <= start and p_end is not None and end <= p_end):
                    bad.append(i)
        return bad

    def boundary_errors(self, prefixes):
        """Exceptions that left the outermost span of a layer, for example a
        RANSAC failure that propagated out of estimate_relative_pose but not
        the degenerate samples RANSAC itself absorbs."""
        return Counter(exc for name, exc, parent in self.errors
                       if name.startswith(prefixes) and not (parent or "").startswith(prefixes))


def program_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "epimatch" or n.startswith("epimatch."))]


def wrapped_attributes():
    """Module attributes that still hold a tracing wrapper."""
    return [f"{module.__name__}.{attr}" for module in program_modules()
            for attr, value in vars(module).items() if hasattr(value, "perfbench_span")]


def all_functions():
    return [(module, fn) for module, fns in LAYER_FUNCTIONS.items() for fn, _ in fns]


def layer_observers(counts, lists):
    """Observers that derive the per-layer counters from return values."""

    def gt_grid(args, kwargs, result, seconds):
        if result is not None:
            counts["gt_valid"] += int(np.count_nonzero(result[0] >= 0))
            counts["gt_cells"] += int(result[0].size)

    def forward(args, kwargs, result, seconds):
        if result is not None:
            pred = result[0]
            counts["forward"] += 1
            counts["coarse"] += len(pred.coarse_i)
            counts["fine_kept"] += len(pred.fine_x2)
            counts["fine_dropped"] += int(pred.dropped)

    def epipolar_mask(args, kwargs, result, seconds):
        if result is not None:
            positives = int(np.count_nonzero(result.values))
            counts["masks"] += 1
            counts["mask_positives"] += positives
            counts["empty_masks"] += positives == 0

    def training_loop(args, kwargs, result, seconds):
        cfg = kwargs.get("cfg", args[2] if len(args) > 2 else None)
        if result is not None and cfg is not None and cfg.epochs:
            lists["epoch_s"].append(seconds / cfg.epochs)

    def finetune(args, kwargs, result, seconds):
        training_loop(args, kwargs, result, seconds)
        if result is not None and result[1]:
            counts["skipped_no_F"] += result[1][-1]["skipped_pairs"]

    def bootstrap(args, kwargs, result, seconds):
        if result is not None:
            for key in ("dropped_few_matches", "dropped_few_inliers", "dropped_estimation_failed"):
                counts[key] += result[1][key]

    def ransac(args, kwargs, result, seconds):
        if result is not None:
            counts["inliers"] += int(result.inlier_count)
            counts["ransac_matches"] += int(result.num_input_matches)

    def decompose(args, kwargs, result, seconds):
        # one triangulation per correspondence for each of the four candidates
        x1n = kwargs.get("x1n", args[1] if len(args) > 1 else None)
        if x1n is not None:
            counts["triangulate"] += 4 * np.atleast_2d(np.asarray(x1n)).shape[0]

    def generate_pairs(args, kwargs, result, seconds):
        if result is not None:
            counts["accepted"] += len(result)

    return {
        "synth.gt_correspondence_grid": gt_grid,
        "matcher.forward": forward,
        "losses.epipolar_classification_mask": epipolar_mask,
        "pipeline.pretrain": training_loop,
        "pipeline.finetune_pose_supervised": finetune,
        "pipeline.bootstrap_fundamentals": bootstrap,
        "estimation.ransac_fundamental": ransac,
        "geometry.decompose_essential": decompose,
        "pairgen.generate_pairs": generate_pairs,
    }


def _share(num, den):
    return num / den if den else 0.0


def _by_function(tracer):
    """span name -> (calls, summed self seconds, durations)."""
    calls, self_total, durations = Counter(), defaultdict(float), defaultdict(list)
    for (name, start, end, _), own in zip(tracer.spans, tracer.self_times()):
        calls[name] += 1
        self_total[name] += own
        durations[name].append(end - start)
    return calls, self_total, durations


def layer_metrics(setup_tracer, setup_counts, tracer, counts, lists, units, ops,
                  pseudo_depth_per_overlap, trace_overhead):
    """Every per-layer metric of the traced run, by name.

    setup_tracer, setup_counts: spans and counters of the one traced set-up.
    tracer, counts, lists: spans, counters and epoch times of `units` traced
    units, which all do the same work. Counts and seconds are reported per
    unit; `setup.<module>.self_s` is the set-up's self time in each layer.
    Ratios are taken over one set-up plus one unit, and call percentiles over
    every traced call.
    ops: Counter over the traced units with "attempted" and one key per
    failure reason.
    pseudo_depth_per_overlap: pseudo_depth calls made by one pseudo_overlap.
    """
    calls, self_total, durations = _by_function(tracer)
    setup_calls, setup_self, setup_durations = _by_function(setup_tracer)
    out = {}
    for module, functions in LAYER_FUNCTIONS.items():
        for fn, per_pair in functions:
            name = f"{module}.{fn}"
            out[f"{name}.calls"] = calls[name] / units
            out[f"{name}.self_s"] = self_total[name] / units
            if per_pair:
                ms = np.asarray(setup_durations[name] + durations[name]) * 1e3
                out[f"{name}.ms_p50"] = float(np.percentile(ms, 50)) if ms.size else 0.0
                out[f"{name}.ms_p90"] = float(np.percentile(ms, 90)) if ms.size else 0.0
    for module in SETUP_LAYERS:
        out[f"setup.{module}.self_s"] = sum(v for name, v in setup_self.items() if name.startswith(module + "."))

    # one set-up plus one unit, for the ratios
    run = Counter({k: v / units for k, v in counts.items()})
    run.update(setup_counts)
    run_calls = Counter({k: v / units for k, v in calls.items()})
    run_calls.update(setup_calls)
    out["synth.gt_valid_share"] = _share(run["gt_valid"], run["gt_cells"])
    out["matcher.coarse_matches_per_pair"] = _share(run["coarse"], run["forward"])
    out["matcher.fine_dropped"] = counts["fine_dropped"] / units
    out["matcher.fine_kept_share"] = _share(run["fine_kept"], run["coarse"])
    out["losses.empty_masks"] = counts["empty_masks"] / units
    out["losses.mask_positives_per_pair"] = _share(run["mask_positives"], run["masks"])
    out["pipeline.epoch_s"] = float(np.median(lists["epoch_s"])) if lists["epoch_s"] else 0.0
    out["pipeline.skipped_no_F"] = counts["skipped_no_F"] / units
    for key in ("dropped_few_matches", "dropped_few_inliers", "dropped_estimation_failed"):
        out[f"pipeline.bootstrap_{key}"] = counts[key] / units
    out["estimation.eight_point_per_ransac"] = _share(run_calls["estimation.eight_point"],
                                                      run_calls["estimation.ransac_fundamental"])
    out["estimation.inlier_share"] = _share(run["inliers"], run["ransac_matches"])
    failures = tracer.boundary_errors(("estimation.", "geometry."))
    for reason in ESTIMATION_FAILURES[:-1]:
        out[f"estimation.failures.{reason}"] = failures[reason] / units
    out["estimation.failures.other"] = sum(n for exc, n in failures.items()
                                           if exc not in ESTIMATION_FAILURES) / units
    out["geometry.triangulate.calls"] = counts["triangulate"] / units
    out["pairgen.accepted_share"] = _share(run["accepted"], run_calls["pairgen.pseudo_overlap"])
    out["pairgen.pseudo_depth.calls"] = calls["pairgen.pseudo_overlap"] * pseudo_depth_per_overlap / units
    out["ops.attempted"] = ops["attempted"] / units
    for reason in OP_FAILURES:
        out[f"ops.failed.{reason}"] = ops[reason] / units
    out["trace_overhead"] = trace_overhead
    return out
