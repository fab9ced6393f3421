"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train_A --seed 1 --seconds 12 --trace 0

Run from the repository root; the program is imported from `src/` next to
this directory. With `--trace 0` the run reports the end-to-end metrics; with
`--trace 1` it reports the per-layer metrics of a traced run. End-to-end
times are scaled to the machine's speed, measured by `pace.py`. The last line
of standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`; the line before it holds the details (environment,
failures by reason with their base, digests). The exit code is 0 when every
correctness check passed, 1 when one failed, and 2 when the program sources
are missing.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
for _path in (str(HERE), str(SRC)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from spec import END_TO_END, WORKLOADS, per_layer_specs  # noqa: E402

MIN_UNITS = 2  # repeats needed to check that a unit's outputs repeat
MIN_SETUPS = 3
SETUP_BUDGET_S = 0.5  # cheap set-ups repeat until they have run this long
MAX_SETUPS = 200


def import_program():
    """Import epimatch from this checkout's src/, never from elsewhere."""
    if not (SRC / "epimatch" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no epimatch sources under {SRC}\n")
        raise SystemExit(2)
    import epimatch

    if Path(epimatch.__file__).resolve().parent != (SRC / "epimatch").resolve():
        sys.stderr.write(f"perfbench: epimatch imported from {epimatch.__file__}, not {SRC}\n")
        raise SystemExit(2)


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        blas = "unknown"
    src = hashlib.sha256()
    for path in sorted((SRC / "epimatch").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "src_sha256": src.hexdigest(),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_units(workload, state, seconds, pace):
    """Repeat the workload's unit for `seconds`, and at least MIN_UNITS times.

    Returns the outcomes and the peak RSS after the first MIN_UNITS units:
    the number of units that fit in `seconds` depends on the machine's speed,
    and the peak can creep up with every further unit."""
    outcomes = []
    start = time.perf_counter()
    while len(outcomes) < MIN_UNITS or time.perf_counter() - start < seconds:
        pace.sample()
        outcomes.append(workload.unit(state, pace))
        if len(outcomes) == MIN_UNITS:
            rss = peak_rss_mb()
    pace.sample()
    return outcomes, rss


def check(outcomes):
    """Correctness problems of a series of units on the same state."""
    problems = [p for o in outcomes for p in o.problems]
    if len({o.digest for o in outcomes}) != 1:
        problems.append(f"outputs differ across {len(outcomes)} repeats with the same seed")
    if any(o.quality != outcomes[0].quality for o in outcomes):
        problems.append("quality metrics differ across repeats with the same seed")
    if any(o.work != outcomes[0].work for o in outcomes):
        problems.append("work done differs across repeats with the same seed")
    return problems


def op_counts(outcomes):
    ops = Counter()
    for o in outcomes:
        ops["attempted"] += o.attempted
        ops.update(o.failures)
    ops["failed"] = sum(n for o in outcomes for n in o.failures.values())
    return ops


def end_to_end(outcomes, setup_times, ops, rss, setup_scale=1.0, unit_scale=1.0):
    """Every end-to-end metric; a metric of a stage this workload does not
    run reads 0. Set-up and unit times are multiplied by their scale."""
    values = {name: 0.0 for name, *_ in END_TO_END}
    values["setup_s"] = statistics.median(setup_times) * setup_scale
    values["peak_rss_mb"] = rss
    values["failed_share"] = ops["failed"] / ops["attempted"]
    for key, work in outcomes[0].work.items():
        per_item = zip(*(o.seconds[key] for o in outcomes))
        values[key] = work / (sum(statistics.median(times) for times in per_item) * unit_scale)
    values.update(outcomes[0].quality)
    return values


def run(workload_name, seed, seconds, trace, size="full"):
    """Run one workload; returns (result dict, detail dict)."""
    import pace
    import workloads

    workload = workloads.WORKLOADS[workload_name]
    sizes = workloads.SIZES[size]
    detail = {"workload": workload_name, "seed": seed, "seconds": seconds, "trace": trace, "size": size}
    if trace:
        metrics, outcomes, problems = traced(workload, seed, sizes, seconds, detail)
    else:
        setup_pace, unit_pace = pace.Pace(), pace.Pace()
        setup_times = []
        while len(setup_times) < MIN_SETUPS or (sum(setup_times) < SETUP_BUDGET_S
                                                and len(setup_times) < MAX_SETUPS):
            setup_pace.sample()
            t0 = time.perf_counter()
            state = workload.setup(seed, sizes)
            setup_times.append(time.perf_counter() - t0)
        setup_pace.sample()
        outcomes, rss = run_units(workload, state, seconds, unit_pace)
        problems = check(outcomes)
        ops = op_counts(outcomes)
        metrics = end_to_end(outcomes, setup_times, ops, rss, setup_pace.scale(), unit_pace.scale())
        detail.update(setup_s_all=setup_times, unit_seconds=[o.seconds for o in outcomes],
                      peak_rss_mb_end=peak_rss_mb(), unscaled=end_to_end(outcomes, setup_times, ops, rss),
                      pace={"reference_s": pace.REFERENCE_S, "setup_scale": setup_pace.scale(),
                            "unit_scale": unit_pace.scale(), "samples": len(unit_pace.samples)})
    ops = op_counts(outcomes)
    detail.update(units=len(outcomes), digest=outcomes[0].digest, ops=dict(ops),
                  unit_detail=outcomes[0].detail, problems=problems, environment=environment())
    result = {"correct": not problems, "attempted": ops["attempted"], "failed": ops["failed"],
              "metrics": metrics}
    return result, detail


def traced(workload, seed, sizes, seconds, detail):
    """Per-layer metrics: one set-up under its own tracer, then units for
    `seconds`, alternating untraced and traced ones in the order ABBA so that
    a drift in machine speed cancels. Every traced unit does the same work,
    so the unit figures are reported per traced unit and do not depend on
    how many units fit in `seconds`. The tracing overhead compares the median
    unit wall times of the two kinds."""
    import tracing
    import workloads

    setup_counts, setup_lists = Counter(), {"epoch_s": []}
    setup_tracer = tracing.Tracer(tracing.layer_observers(setup_counts, setup_lists))
    with setup_tracer:
        setup_tracer.install(tracing.all_functions())
        state = workload.setup(seed, sizes)
    counts, lists = Counter(), {"epoch_s": []}
    tracer = tracing.Tracer(tracing.layer_observers(counts, lists))
    runs = {False: ([], []), True: ([], [])}  # traced? -> (outcomes, wall times)
    with tracer:
        start = time.perf_counter()
        rounds = 0
        while rounds < MIN_UNITS or time.perf_counter() - start < seconds:
            for traced_unit in ((False, True) if rounds % 2 == 0 else (True, False)):
                if traced_unit:
                    tracer.install(tracing.all_functions())
                t0 = time.perf_counter()
                runs[traced_unit][0].append(workload.unit(state))
                runs[traced_unit][1].append(time.perf_counter() - t0)
                tracer.uninstall()
            rounds += 1
    (plain, plain_walls), (outcomes, traced_walls) = runs[False], runs[True]
    overhead = statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0

    problems = check(plain + outcomes)
    leftover = tracing.wrapped_attributes()
    if leftover:
        problems.append(f"wrappers left installed: {leftover}")
    if setup_tracer.nesting_errors() or tracer.nesting_errors():
        problems.append("spans do not nest")
    metrics = tracing.layer_metrics(setup_tracer, setup_counts, tracer, counts, lists, len(outcomes),
                                    op_counts(outcomes), workloads.PSEUDO_DEPTH_PER_OVERLAP, overhead)
    detail.update(untraced_unit_s=plain_walls, traced_unit_s=traced_walls,
                  spans=len(setup_tracer.spans) + len(tracer.spans))
    return metrics, outcomes, problems


def format_result(result, units):
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    import_program()
    units = {name: unit for name, unit, *_ in (per_layer_specs() if args.trace else END_TO_END)}
    result, detail = run(args.workload, args.seed, args.seconds, args.trace)
    for name, value in result["metrics"].items():
        print(f"{name:<48} {value:>16.6g} {units[name]}")
    print(json.dumps({"detail": detail}, default=str))
    print(json.dumps(format_result(result, units)))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
