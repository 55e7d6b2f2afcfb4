"""Every entry point that pyproject.toml declares must resolve, and so must
every function the benchmark's tracer wraps, every name a module exports
and every ``gdu.autodiff`` attribute a module reads; a training step calls
each traced per-step function once, the benchmark's gradient probe passes,
its set-up round-trips every model through checkpoint text, each
workload's result line holds every metric BENCHMARK.json declares and so
does the last line that a traced ``bench/run.py`` prints; every
function that takes a seed names a negative one; the exports of the
package and of each of its modules are pinned, and so are the fields of
its config and model dataclasses and the regularizers' parameters; the
package imports nothing beyond the standard library and numpy, and the
training path reduces short rows only through its column helpers."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import json
import math
import subprocess
import sys
import tomllib
from pathlib import Path

import numpy as np
import pytest

from gdu.checkpoint import model_to_text

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
BENCHMARK = ROOT / "BENCHMARK.json"
TRACER = ROOT / "bench" / "tracer.py"
WORKLOADS = ROOT / "bench" / "workloads.py"


def test_declared_scripts_import():
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module_name, _, attr = target.partition(":")
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr)), f"script {name!r} -> {target!r}"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _load_workloads():
    """``bench/workloads.py``, read as it is.

    It imports the tracer as ``tracer``, and its dataclasses look their
    module up in ``sys.modules``; both entries are there only while it loads.
    """
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    entries = {"tracer": _load_tracer(), spec.name: workloads}
    saved = {name: sys.modules.get(name) for name in entries}
    sys.modules.update(entries)
    try:
        spec.loader.exec_module(workloads)
    finally:
        for name, module in saved.items():
            if module is None:
                del sys.modules[name]
            else:
                sys.modules[name] = module
    return workloads


@pytest.mark.parametrize("mode", ["CS", "MMD", "PROJECTION"])
def test_benchmark_gradient_probe_passes(mode):
    # The benchmark checks gradients against central differences only after
    # its timed passes; a kernel rewrite that failed that check would lower
    # its ok_frac. Here the same check takes about a second.
    workloads = _load_workloads()
    assert workloads.gradient_probe(mode) < 1e-4


def _shrink(workloads, profile):
    """A workload's profile at the benchmark's own test sizes."""
    return dataclasses.replace(
        profile,
        data={**profile.data, "n_train": 40, "n_val": 20, "n_target": 50},
        num_bases=min(profile.num_bases, 3),
        basis_size=4,
        batch_size=16,
        epochs={m: 1 for m in workloads.MODES},
        serve_batch=32,
        select_seeds=1,
        select_range=(2, 3),
        configs=2,
        sigma_rows=100,
    )


@pytest.mark.parametrize("name", ["train-small", "train-wide", "select-serve"])
def test_benchmark_set_up_round_trips_every_model(name):
    # The benchmark's set-up writes every initial model to checkpoint text
    # and reads it back, and its warm pass checks that round trip on the
    # trained ones; a format change that broke either would lower its
    # ok_frac. Here the set-up and the warm pass take about two seconds.
    workloads = _load_workloads()
    profile = _shrink(workloads, workloads.PROFILES[name])
    inst = workloads.set_up(profile, 7)
    assert sorted(inst.models) == sorted(workloads.MODES)
    assert inst.checkpoint_bytes == sum(len(model_to_text(m)) for m in inst.models.values())
    xb = inst.target_x[: profile.serve_batch]
    for mode, model in inst.models.items():
        assert workloads._round_trip_exact(model, xb), mode
    tally = workloads.Tally()
    workloads.run_pass(profile, inst, workloads.MODES, tally, warm=True)
    assert tally.failed == 0, tally.errors
    assert all(tally.kinds[f"checkpoint round trip {mode}"] for mode in workloads.MODES)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", ["train-small", "train-wide", "select-serve"])
def test_benchmark_result_line_holds_every_declared_metric(name, trace):
    # A run whose last line is not a strict-JSON result with every metric
    # that BENCHMARK.json declares for its kind gives the benchmark nothing
    # to compare, even when it exits 0. Each shrunk run takes a few seconds.
    workloads = _load_workloads()
    kind = "per_layer" if trace else "end_to_end"
    declared = [m["name"] for m in json.loads(BENCHMARK.read_text())[kind]]
    result = workloads.measure(_shrink(workloads, workloads.PROFILES[name]), 1, 0.0, trace)
    assert result.correct, result.details["errors"]
    assert sorted(result.metrics) == sorted(declared)
    assert all(math.isfinite(value) for value, _ in result.metrics.values()), result.metrics
    if trace:
        # A refactor that stops calling a traced name empties its span
        # silently. kernel.gram is the one span that no training step runs.
        empty = [n for n, (v, _) in result.metrics.items() if n.endswith("_s.n") and v <= 0]
        assert empty == ["kernel.gram_s.n"], empty
    metrics = {n: {"value": v, "unit": u} for n, (v, u) in result.metrics.items()}
    json.dumps({"correct": result.correct, "attempted": result.attempted,
                "failed": result.failed, "metrics": metrics}, allow_nan=False)



def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def test_a_traced_bench_run_prints_every_per_layer_metric():
    # The in-process runs above use shrunk profiles. This one runs
    # bench/run.py itself at full size, print path included: a traced run
    # can exit 0 and still end on a line that is not the result. It takes a
    # few seconds and writes only under bench/out/.
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "train-small",
           "--seed", "1", "--seconds", "0", "--trace", "1"]
    run = subprocess.run(cmd, capture_output=True, text=True, timeout=300, check=False)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1], parse_constant=_reject_constant)
    declared = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    assert sorted(result["metrics"]) == sorted(declared)

def _negative_seed_calls():
    from gdu.datagen import make_benchmark
    from gdu.heuristics import kmeans, select_m
    from gdu.kernel import KernelConfig
    from gdu.layer import init_layer
    from gdu.training import init_erm_model, init_feature_extractor

    X = np.arange(12.0).reshape(6, 2)
    return {
        "make_benchmark": (lambda: make_benchmark(3, 2, 6, 3, seed=-1), "seed"),
        "init_layer": (lambda: init_layer(2, 3, 4, 2, -1, "CS", KernelConfig(1.0), 2.0), "seed"),
        "init_feature_extractor": (lambda: init_feature_extractor([3, 4], -1), "seed"),
        "init_erm_model": (lambda: init_erm_model([3, 4], 2, 1, -1), "seed"),
        "kmeans": (lambda: kmeans(X, 2, -1), "seed"),
        "select_m": (lambda: select_m(X, (2, 3), seeds=1, seed0=-1), "seed0"),
    }


@pytest.mark.parametrize("entry", sorted(_negative_seed_calls()))
def test_negative_seeds_are_named(entry):
    # np.random.default_rng rejects a negative seed with an unnamed
    # "expected non-negative integer".
    call, name = _negative_seed_calls()[entry]
    with pytest.raises(ValueError, match=f"^{name} must be nonnegative, got -1$"):
        call()


def test_traced_spans_resolve():
    # A renamed function would silently drop its per-layer metrics.
    tracer = _load_tracer()
    for span, module_name, attr in tracer.SPANS:
        target = importlib.import_module(module_name)
        for part in attr.split("."):
            target = getattr(target, part, None)
        assert callable(target), f"span {span!r} -> {module_name}.{attr}"


def test_traced_training_spans_run_once_per_step():
    # The benchmark divides its per-step counts by the objective builds. A
    # train loop that stopped calling a traced name on every step, or
    # changed what one step puts on the tape, would skew them silently.
    from gdu.kernel import KernelConfig
    from gdu.layer import init_layer
    from gdu.regularization import RegConfig
    from gdu.training import DatasetSplits, GduModel, TrainConfig, init_feature_extractor, train

    rng = np.random.default_rng(0)
    data = DatasetSplits(rng.normal(size=(40, 4)), rng.integers(0, 3, size=40),
                         rng.normal(size=(10, 4)), rng.integers(0, 3, size=10))
    # Seven parameter leaves per step, and operation nodes: the extractor,
    # the kernel statistics and its parts, the gate, the ensemble and the
    # loss; a step that reads the basis Gram gets a third part, the OLS term
    # and the weighted sum.
    for reg, nodes in ((RegConfig(), 14), (RegConfig(lambda_ols=0.5), 17)):
        model = GduModel(init_feature_extractor([4, 6, 4], 0),
                         init_layer(3, 5, 4, 3, 1, "CS", KernelConfig(2.0), 20.0))
        tracer = _load_tracer().Tracer()
        tracer.install()
        try:
            train(data, TrainConfig(max_epochs=2, patience=2, batch_size=16, reg=reg), model)
        finally:
            tracer.uninstall()
        steps = 2 * 3  # 2 epochs of 3 batches of at most 16 rows
        for span in ("training.build_objective", "autodiff.backward", "training.optimizer_step"):
            assert tracer.calls(span) == steps, (reg, span)
        assert tracer.counts["tape_nodes"] == nodes * steps, reg


def test_every_module_export_resolves():
    # A name left in ``__all__`` after its definition is gone breaks
    # ``from gdu.<module> import *``.
    import gdu

    modules = sorted(p.stem for p in Path(gdu.__file__).parent.glob("*.py"))
    modules.remove("__init__")
    assert len(modules) == 9
    for module_name in modules:
        module = importlib.import_module(f"gdu.{module_name}")
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"gdu.{module_name}.__all__ lists undefined {missing}"


def test_public_surface_is_pinned():
    # Any change to the package's exports has to show up here as a diff.
    # ``__all__`` lists every public name of the package namespace, so the
    # submodules that ``gdu/__init__.py`` imports are in it too.
    import gdu

    assert gdu.__all__ == [
        "DatasetSplits",
        "EmpiricalKme",
        "FeatureExtractor",
        "GduLayer",
        "GduModel",
        "KernelConfig",
        "LearningMachine",
        "RegConfig",
        "TrainConfig",
        "TrainTrace",
        "autodiff",
        "forward_batch",
        "gate_matrix",
        "gram",
        "init_layer",
        "kernel",
        "kme_inner",
        "kme_norm_sq",
        "layer",
        "median_heuristic",
        "mmd_sq",
        "omega_l1",
        "omega_ols",
        "omega_orth",
        "regularization",
        "rkhs",
        "rkhs_cosine",
        "train",
        "training",
    ]


MODULE_EXPORTS = {
    "autodiff": ["Tensor", "tensor", "value_of", "is_tensor"],
    "checkpoint": ["CheckpointError", "save_model", "load_model", "model_to_text", "model_from_text"],
    "datagen": [
        "ElementarySpec",
        "DomainSpec",
        "DomainSample",
        "SyntheticBenchmark",
        "sample_domain",
        "make_benchmark",
        "materialize",
        "bayes_accuracy",
    ],
    "heuristics": ["ClusteringResult", "ScoreRow", "kmeans", "davies_bouldin", "select_m"],
    "kernel": [
        "KernelConfig",
        "DimensionMismatchError",
        "DegenerateDataError",
        "gram",
        "median_heuristic",
    ],
    "layer": [
        "GATING_MODES",
        "UNIFORM",
        "GEOMETRY_MODES",
        "LearningMachine",
        "GduLayer",
        "gate_matrix",
        "forward_batch",
        "init_layer",
    ],
    "regularization": ["RegConfig", "omega_ols", "omega_orth", "omega_l1"],
    "rkhs": ["EmpiricalKme", "ConfigMismatchError", "kme_inner", "kme_norm_sq", "mmd_sq", "rkhs_cosine"],
    "training": [
        "FeatureExtractor",
        "GduModel",
        "DatasetSplits",
        "TrainConfig",
        "TraceRow",
        "TrainTrace",
        "TrainingDivergedError",
        "NonFiniteGradientError",
        "init_feature_extractor",
        "init_erm_model",
        "fe_forward",
        "objective",
        "gradients",
        "predict_logits",
        "accuracy",
        "train",
    ],
}


def test_module_exports_are_pinned():
    # A public name that leaves a module, or comes back, has to show up
    # here as a diff.
    import gdu

    modules = sorted(p.stem for p in Path(gdu.__file__).parent.glob("*.py"))
    modules.remove("__init__")
    assert modules == sorted(MODULE_EXPORTS)
    for module_name, exports in MODULE_EXPORTS.items():
        module = importlib.import_module(f"gdu.{module_name}")
        assert module.__all__ == exports, f"gdu.{module_name}.__all__"


OPTION_FIELDS = {
    "KernelConfig": ["sigma"],
    "RegConfig": ["lambda_ols", "lambda_orth", "lambda_l1"],
    "TrainConfig": ["mode", "learning_rate", "batch_size", "max_epochs", "patience", "seed", "reg"],
    "GduLayer": ["bases", "weights", "bias", "kernel", "mode", "kappa"],
    "FeatureExtractor": ["weights", "biases", "nonlinearity"],
}


def test_option_fields_are_pinned():
    # An option that comes back, or goes, has to show up here as a diff.
    import gdu

    for name, fields in OPTION_FIELDS.items():
        got = [f.name for f in dataclasses.fields(getattr(gdu, name))]
        assert got == fields, name


# The regularizers' parameters: each reads kernel statistics or gates, not features.
PARAMETERS = {
    "omega_ols": ["a", "k_bases", "beta"],
    "omega_orth": ["K"],
    "omega_l1": ["beta"],
}


def test_function_parameters_are_pinned():
    # A parameter that is renamed, added or dropped has to show up here as a diff.
    import gdu

    for name, params in PARAMETERS.items():
        assert list(inspect.signature(getattr(gdu, name)).parameters) == params, name


def test_autodiff_surface_is_pinned():
    # The tape only: every training term builds its own node. The generic
    # ops live in tests/oracles.py.
    from gdu import autodiff

    assert autodiff.__all__ == ["Tensor", "tensor", "value_of", "is_tensor"]


def _autodiff_reads(tree):
    """``(line, name)`` for every ``gdu.autodiff`` attribute a module reads."""
    aliases, reads = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in (None, "gdu"):
            aliases |= {a.asname or a.name for a in node.names if a.name == "autodiff"}
        elif isinstance(node, ast.ImportFrom) and node.module in ("autodiff", "gdu.autodiff"):
            reads += [(node.lineno, a.name) for a in node.names]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in aliases:
                reads.append((node.lineno, node.attr))
    return reads


def test_every_autodiff_name_a_module_reads_exists():
    # A path no test runs would otherwise fail only in use once an op it
    # reads has left gdu.autodiff.
    import gdu
    from gdu import autodiff

    for path in sorted(Path(gdu.__file__).parent.glob("*.py")):
        for line, name in _autodiff_reads(ast.parse(path.read_text())):
            assert hasattr(autodiff, name), f"{path.name}:{line} reads autodiff.{name}"
    reads = _autodiff_reads(ast.parse("from . import autodiff as ad\nad.exp(ad.Tensor)"))
    assert sorted(reads) == [(2, "Tensor"), (2, "exp")]


# Modules whose row reductions must go through the column helpers; kernel.py
# is left out, as its block sums must keep numpy's pairwise order.
ROW_REDUCING_MODULES = ("layer.py", "regularization.py", "training.py")
_ROW_HELPERS = ("_row_max", "_row_sum")
_ROW_AXES = {1, 2, -1}


def _row_reductions(tree):
    """``(line, call)`` for every ``max``/``sum`` call along axis 1, 2 or -1.

    Calls inside ``_row_max`` and ``_row_sum`` are skipped. An axis that is
    not a literal counts as a row axis.
    """
    inside = {
        id(n)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in _ROW_HELPERS
        for n in ast.walk(node)
    }
    found = []
    for node in ast.walk(tree):
        if id(node) in inside or not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr in ("max", "sum")):
            continue
        axis = [kw.value for kw in node.keywords if kw.arg == "axis"]
        # np.sum(a, 1) takes the axis second, a.sum(1) first.
        position = 1 if isinstance(func.value, ast.Name) and func.value.id in ("np", "numpy") else 0
        if not axis and len(node.args) > position:
            axis = [node.args[position]]
        if not axis:
            continue
        try:
            value = ast.literal_eval(axis[0])
        except ValueError:
            value = -1
        if set(value if isinstance(value, tuple) else (value,)) & _ROW_AXES:
            found.append((node.lineno, ast.unparse(func)))
    return found


def test_short_row_reductions_go_through_the_column_helpers():
    # numpy reduces a row of M gates or C classes 10-20 times slower than a
    # pass per column; a plain np.max(z, axis=1) in these modules would bring
    # that cost back unnoticed.
    import gdu

    root = Path(gdu.__file__).parent
    for name in ROW_REDUCING_MODULES:
        found = _row_reductions(ast.parse((root / name).read_text()))
        assert not found, f"{name} reduces rows with {found}; use _row_max or _row_sum"
    snippet = (
        "import numpy as np\n"
        "def _row_sum(a):\n    return np.sum(a, axis=-1)\n"
        "np.max(z, axis=1); z.sum(-1); np.sum(z, 2); x.max(axis=(0, 2)); z.sum(axis=k)\n"
        "np.sum(z, axis=0); z.max(0); np.max(z); np.sum(z)\n"
    )
    assert _row_reductions(ast.parse(snippet)) == [
        (4, "np.max"), (4, "z.sum"), (4, "np.sum"), (4, "x.max"), (4, "z.sum"),
    ]


def _foreign_imports(tree):
    """``(line, module)`` for every absolute import outside the stdlib, numpy and gdu."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "gdu"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in names if name.partition(".")[0] not in allowed]
    return found


def test_the_package_imports_only_the_stdlib_and_numpy():
    # gdu is numpy-only; scipy and the test tools being installed would
    # otherwise hide a slip until the package runs where they are not.
    import gdu

    for path in sorted(Path(gdu.__file__).parent.glob("*.py")):
        foreign = _foreign_imports(ast.parse(path.read_text()))
        assert not foreign, f"{path.name} imports {foreign}"
    snippet = "import os, scipy.linalg\nfrom numpy import linalg\nfrom . import kernel\n"
    snippet += "def f():\n    from hypothesis import given\n"
    assert _foreign_imports(ast.parse(snippet)) == [(1, "scipy.linalg"), (5, "hypothesis")]
