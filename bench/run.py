"""Benchmark of the ``gdu`` package: one workload per run.

    python3 bench/run.py --workload train-small --seed 1 --seconds 20 --trace 0

prints every metric with its unit, then, as the last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0``
gives the end-to-end metrics of an untraced run; ``--trace 1`` gives the
per-layer metrics of a traced run. ``--workload all`` runs every workload,
each in its own process. A result file with the machine's numpy/BLAS
version, CPU model and CPU count is written under ``bench/out/``. The exit
code is 1 when any operation or output check failed.

The package is imported from ``src/`` of the checkout this file sits in; the
run fails when it is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# BLAS threads are fixed before numpy is first imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
WORKLOADS = ("train-small", "train-wide", "select-serve")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def _import_package():
    if not (SRC / "gdu" / "__init__.py").is_file():
        sys.exit(f"error: no gdu package under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import gdu

    if Path(gdu.__file__).resolve().parent != SRC / "gdu":
        sys.exit(f"error: imported gdu from {gdu.__file__}, not from {SRC}")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.machine()


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _run_all(args) -> int:
    import subprocess

    status = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status |= subprocess.run(cmd, check=False).returncode
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    _import_package()
    if args.workload == "all":
        return _run_all(args)
    import workloads

    result = workloads.measure(workloads.PROFILES[args.workload], args.seed,
                               args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if result.tracer is not None:
        result.tracer.write(stem.with_suffix(".spans.jsonl.gz"))
    for error in result.details["errors"]:
        print(f"failed: {error}", file=sys.stderr)
    for name in result.details.get("absent", []):
        print(f"absent: {name} no longer exists; its metrics are left out", file=sys.stderr)
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in result.metrics.items()}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": _environment(),
              "correct": result.correct, "attempted": result.attempted,
              "failed": result.failed, "metrics": metrics, "details": result.details}
    with open(stem.with_suffix(".json"), "w") as fh:
        json.dump(record, fh, indent=1)

    width = max(len(name) for name in metrics)
    for name, m in metrics.items():
        print(f"{name:<{width}}  {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": result.correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    # A failed operation or check fails the run, whatever the metrics say.
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
