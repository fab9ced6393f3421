"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import run
import spec
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[2]
NAMES = list(spec.WORKLOADS)


def tiny(name, seed=3, trace=0):
    return run.run(name, seed, 0.0, trace, size="tiny")


@pytest.fixture(scope="module")
def plain_runs():
    return {name: tiny(name) for name in NAMES}


@pytest.fixture(scope="module")
def traced_runs():
    return {name: tiny(name, trace=1) for name in NAMES}


def test_benchmark_json_matches_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        assert json.load(fh) == spec.benchmark_json()


@pytest.mark.parametrize("name", NAMES)
def test_smoke_run_is_correct_and_reports_every_metric(plain_runs, name):
    result, detail = plain_runs[name]
    assert result["correct"], detail["problems"]
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {n for n, *_ in spec.END_TO_END}
    reasons = {k: n for k, n in detail["ops"].items() if k not in ("attempted", "failed")}
    assert detail["ops"]["failed"] == sum(reasons.values())
    formatted = run.format_result(result, {n: u for n, u, *_ in spec.END_TO_END})
    assert list(formatted) == ["correct", "attempted", "failed", "metrics"]
    for metric, unit, better, bound in spec.END_TO_END:
        assert formatted["metrics"][metric]["unit"] == unit
        assert better in ("higher", "lower") and 0 < bound <= 0.25


def test_each_workload_reports_its_own_stage(plain_runs):
    own = {"train_A": ["train_pairs_per_s"], "adapt_B": ["train_pairs_per_s", "eval_pairs_per_s"],
           "pose_B": ["pose_pairs_per_s"], "mine_poses": ["mine_candidates_per_s"]}
    for name, metrics in own.items():
        values = plain_runs[name][0]["metrics"]
        assert values["setup_s"] > 0 and values["peak_rss_mb"] > 0
        for metric in metrics:
            assert values[metric] > 0, (name, metric)


def test_times_are_scaled_to_the_machine_speed(plain_runs):
    result, detail = plain_runs["pose_B"]
    scaled, unscaled, scale = result["metrics"], detail["unscaled"], detail["pace"]
    assert scale["samples"] > 0 and scale["setup_scale"] > 0 and scale["unit_scale"] > 0
    assert scaled["setup_s"] == pytest.approx(unscaled["setup_s"] * scale["setup_scale"])
    assert scaled["pose_pairs_per_s"] == pytest.approx(unscaled["pose_pairs_per_s"] / scale["unit_scale"])
    assert scaled["pose_auc5"] == unscaled["pose_auc5"]


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reports_every_per_layer_metric(traced_runs, name):
    result, detail = traced_runs[name]
    assert result["correct"], detail["problems"]
    assert list(result["metrics"]) == [n for n, *_ in spec.per_layer_specs()]
    for metric, value in result["metrics"].items():
        if metric.endswith((".self_s", ".calls", ".ms_p50", ".ms_p90")):
            assert value >= 0, metric


def test_traced_run_counts_the_layers_it_uses(traced_runs):
    train = traced_runs["train_A"][0]["metrics"]
    assert train["matcher.refine_fine.calls"] > 0 and train["estimation.ransac_fundamental.calls"] == 0
    pose = traced_runs["pose_B"][0]["metrics"]
    assert pose["geometry.decompose_essential.calls"] > 0 and pose["matcher.forward.calls"] == 0
    assert pose["geometry.triangulate.calls"] > 0
    mine = traced_runs["mine_poses"][0]["metrics"]
    assert mine["pairgen.pseudo_depth.calls"] == 2 * 32 * 32 * mine["pairgen.pseudo_overlap.calls"]
    adapt_result, adapt_detail = traced_runs["adapt_B"]
    adapt = adapt_result["metrics"]
    assert adapt["losses.epipolar_classification_mask.calls"] > 0
    assert adapt["setup.matcher.self_s"] > 0 and adapt["setup.synth.self_s"] > 0
    per_unit = sum(v for k, v in adapt.items() if k.startswith("ops.failed."))
    assert per_unit * adapt_detail["units"] == pytest.approx(adapt_result["failed"])


def test_per_layer_counts_do_not_depend_on_run_length():
    short, _ = tiny("pose_B", trace=1)
    long, long_detail = run.run("pose_B", 3, 1.0, 1, size="tiny")
    assert long_detail["units"] > 2
    counted = [n for n, unit, _ in spec.per_layer_specs() if unit == "count"]
    assert {n: long["metrics"][n] for n in counted} == pytest.approx({n: short["metrics"][n] for n in counted})


def test_spans_nest_and_self_times_are_not_negative():
    tracer = tracing.Tracer()
    with tracer:
        tracer.install(tracing.all_functions())
        for name in ("adapt_B", "pose_B"):
            workload = workloads.WORKLOADS[name]
            workload.unit(workload.setup(5, workloads.SIZES["tiny"]))
    assert tracer.spans
    assert tracer.nesting_errors() == []
    assert min(tracer.self_times()) >= -1e-9
    nested = [s for s in tracer.spans if s[3] >= 0]
    assert nested, "no span was caused by another span"


def test_traced_run_restores_every_wrapped_attribute():
    before = {(m.__name__, attr): value for m in tracing.program_modules()
              for attr, value in vars(m).items() if callable(value)}
    result, detail = tiny("adapt_B", trace=1)
    assert result["correct"], detail["problems"]
    after = {(m.__name__, attr): value for m in tracing.program_modules()
             for attr, value in vars(m).items() if callable(value)}
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert tracing.wrapped_attributes() == []


def test_failures_are_counted_by_reason():
    tracer = tracing.Tracer()
    with tracer:
        tracer.install([("estimation", "estimate_relative_pose"), ("estimation", "ransac_fundamental")])
        state = workloads.WORKLOADS["pose_B"].setup(5, workloads.SIZES["tiny"])
        x1, x2, K, gt = state["problems"][0]
        state["problems"][0] = (x1[:5], x2[:5], K, gt)  # below the 8-point minimum
        outcome = workloads.WORKLOADS["pose_B"].unit(state)
    assert outcome.failures == Counter({"NotEnoughMatches": 1})
    assert tracer.boundary_errors(("estimation.",)) == Counter({"NotEnoughMatches": 1})


def _poison_train_a(monkeypatch, poison):
    train = workloads.WORKLOADS["train_A"]
    setup = train.setup

    def poisoned(seed, size):
        state = setup(seed, size)
        poison(state)
        return state

    monkeypatch.setattr(train, "setup", poisoned)
    result, detail = tiny("train_A")
    assert not result["correct"]
    return detail["problems"]


def test_non_finite_loss_fails_the_run(monkeypatch):
    def nan_target(state):
        state["gts"][0][1][:] = np.nan

    problems = _poison_train_a(monkeypatch, nan_target)
    assert any("NonFiniteLoss" in p for p in problems), problems


def test_non_finite_weights_fail_the_run(monkeypatch):
    def nan_weights(state):
        state["params0"].W_coarse[:] = np.nan

    problems = _poison_train_a(monkeypatch, nan_weights)
    assert any("parameters are not finite" in p for p in problems), problems


def test_adapt_steps_count_only_the_steps_that_ran(monkeypatch):
    from epimatch import losses, pipeline

    original = losses.epipolar_classification_mask
    calls = []

    def first_mask_empty(C, line_sets):
        mask = original(C, line_sets)
        calls.append(1)
        if len(calls) == 1:
            mask.values[:] = 0.0
        return mask

    monkeypatch.setattr(losses, "epipolar_classification_mask", first_mask_empty)
    monkeypatch.setattr(pipeline, "epipolar_classification_mask", first_mask_empty)
    adapt = workloads.WORKLOADS["adapt_B"]
    state = adapt.setup(3, workloads.SIZES["tiny"])
    backward_calls = []
    with workloads.probe({"matcher.backward": lambda *a: backward_calls.append(1)}):
        outcome = adapt.unit(state)
    assert outcome.work["train_pairs_per_s"] == len(backward_calls) > 0


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_same_digests_and_metrics(plain_runs, name):
    first, first_detail = plain_runs[name]
    again, again_detail = tiny(name)
    assert again_detail["digest"] == first_detail["digest"]
    timed = ("setup_s", "peak_rss_mb")
    deterministic = [n for n, *_ in spec.END_TO_END if n not in timed and not n.endswith("_per_s")]
    assert {k: again["metrics"][k] for k in deterministic} == {k: first["metrics"][k] for k in deterministic}


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pose_B", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
