"""The benchmark's own tests: tiny runs of every workload.

    python3 -m pytest -q bench/test_bench.py
"""

import dataclasses
import functools
import json
import os
import sys
from pathlib import Path

# As in run.py; has effect only if numpy is not imported yet.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import pytest  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import workloads  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
COUNTS = ("autodiff.tape_nodes_per_step", "kernel.gram_calls_per_step",
          "kernel.gram_entries_per_step", "regularization.omega_orth_calls")


def shrink(profile):
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


@functools.lru_cache(maxsize=None)
def tiny_run(name, trace, repeat=0):
    """A tiny run of a workload; ``repeat`` asks for a fresh run of the same inputs."""
    return workloads.measure(shrink(workloads.PROFILES[name]), 7, 0.0, trace)


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.PROFILES)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} == \
        workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == workloads.PER_LAYER


@pytest.mark.parametrize("name", list(workloads.PROFILES))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_reports_every_metric(name, trace):
    result = tiny_run(name, trace)
    assert result.correct, result.details["errors"]
    assert result.failed == 0 and result.attempted > 0
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == \
        {name: unit for name, (_, unit) in result.metrics.items()}


@pytest.mark.parametrize("name", list(workloads.PROFILES))
def test_counts_repeat_exactly(name):
    first, second = tiny_run(name, True), tiny_run(name, True, repeat=1)
    for metric in COUNTS:
        assert first.metrics[metric] == second.metrics[metric], metric


def test_missing_name_is_left_out(monkeypatch):
    from gdu import regularization

    # As after a refactor that removes the name from its defining module.
    monkeypatch.delattr(regularization, "omega_orth")
    result = tiny_run("train-small", True, repeat=2)
    assert result.correct, result.details["errors"]
    assert result.details["absent"] == ["gdu.regularization.omega_orth"]
    assert not [m for m in result.metrics if m.startswith("regularization.omega_orth")]
    assert "kernel.gram_s" in result.metrics


def test_one_failing_check_kind_shows_beyond_the_bound(monkeypatch):
    # As after a change that breaks the gradients: only the three probes fail.
    monkeypatch.setattr(workloads, "gradient_probe", lambda mode: 1.0)
    result = workloads.measure(shrink(workloads.PROFILES["train-small"]), 7, 0.0, False)
    assert not result.correct and result.failed == 3
    bound = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}["ok_frac"]
    assert 1.0 - result.metrics["ok_frac"][0] > bound
