import ast
import importlib
import inspect
from pathlib import Path

import epimatch
from epimatch import metrics, pipeline


def test_matcher_config_is_required():
    # the caller owns the matcher config; no entry point makes one up
    entries = [pipeline.pretrain, pipeline.finetune_pose_supervised, pipeline.bootstrap_fundamentals,
               pipeline.bootstrap_finetune, metrics.evaluate]
    defaults = {f.__name__: inspect.signature(f).parameters["mcfg"].default for f in entries}
    assert defaults == dict.fromkeys(defaults, inspect.Parameter.empty)


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_function_names():
    """Every 'module.function' of epimatch that perfbench traces: the
    LAYER_FUNCTIONS of spec.py and the keys workloads.py passes to probe()."""
    spec = ast.parse((PERFBENCH / "spec.py").read_text())
    layers = next(node.value for node in spec.body if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "LAYER_FUNCTIONS" for t in node.targets))
    names = [f"{module}.{fn}" for module, functions in ast.literal_eval(layers).items() for fn, _ in functions]
    workloads = ast.parse((PERFBENCH / "workloads.py").read_text())
    for node in ast.walk(workloads):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "probe":
            names += [ast.literal_eval(key) for key in node.args[0].keys]
    return names


def test_every_function_perfbench_traces_exists():
    # a deletion that the benchmark still traces fails here, not in a benchmark run
    names = perfbench_function_names()
    assert "pairgen.pseudo_overlap" in names and "metrics.forward" in names
    missing = []
    for name in names:
        module, fn = name.split(".")
        if not callable(getattr(importlib.import_module(f"epimatch.{module}"), fn, None)):
            missing.append(name)
    assert missing == []


def test_only_the_cli_names_run_directory_files():
    # the run-directory layout is decided in one module
    src = Path(epimatch.__file__).resolve().parent
    naming = [path.name for path in sorted(src.glob("*.py"))
              if any(name in path.read_text() for name in ("run_manifest.json", "metrics.csv", "report.json"))]
    assert naming == ["cli.py"]
