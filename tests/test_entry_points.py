"""Every entry point that pyproject.toml declares must resolve, and so must
every function the benchmark's tracer wraps and every name a module
exports; the package's exports are pinned."""

import importlib
import importlib.util
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
TRACER = ROOT / "bench" / "tracer.py"


def test_declared_scripts_import():
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module_name, _, attr = target.partition(":")
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr)), f"script {name!r} -> {target!r}"


def test_traced_spans_resolve():
    # A renamed function would silently drop its per-layer metrics.
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for span, module_name, attr in tracer.SPANS:
        target = importlib.import_module(module_name)
        for part in attr.split("."):
            target = getattr(target, part, None)
        assert callable(target), f"span {span!r} -> {module_name}.{attr}"


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
        "gaussian_kernel",
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
        "omega_total",
        "regularization",
        "rkhs",
        "rkhs_cosine",
        "train",
        "training",
    ]
