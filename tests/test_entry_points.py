"""Every entry point that pyproject.toml declares must resolve, and so must
every function the benchmark's tracer wraps, every name a module exports
and every ``gdu.autodiff`` attribute a module reads; the exports of the
package and of each of its modules are pinned, and the package imports
nothing beyond the standard library and numpy."""

import ast
import importlib
import importlib.util
import sys
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
    ],
    "heuristics": ["ClusteringResult", "ScoreRow", "kmeans", "davies_bouldin", "select_m"],
    "kernel": [
        "KernelConfig",
        "DimensionMismatchError",
        "DegenerateDataError",
        "gram",
        "gram_block_means",
        "gram_diagonal_block_means",
        "median_heuristic",
    ],
    "layer": [
        "GATING_MODES",
        "UNIFORM",
        "GEOMETRY_MODES",
        "ACTIVATIONS",
        "LearningMachine",
        "GduLayer",
        "gate_matrix",
        "forward_batch",
        "init_layer",
    ],
    "regularization": ["ORTH_VARIANTS", "RegConfig", "omega_ols", "omega_orth", "omega_l1", "omega_total"],
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
