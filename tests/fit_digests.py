"""Fit digests: one SHA-256 per fit over a fixed grid, to compare two trees bit for bit.

    python tests/fit_digests.py --out FILE [--match REGEX]

Each fit runs on ``make_benchmark(4, 3, 10, 3, seed=s, separation=3,
n_train=120, n_val=60, n_target=200)``. The grid is 3 seeds x a shallow
``[10, 32, 16]`` and a deep ``[10, 64, 32, 16]`` extractor x E2E and FT x
CS, MMD and PROJECTION with each of their four regularizer sets (168 fits
with ERM-1 and ERM-3). A GDU layer has M=4 bases of N=10 vectors, kappa=20
in CS and MMD, and sigma from the median heuristic on the extracted
training rows. Each model's biases are perturbed before it trains for 4
epochs at batch size 64 and learning rate 1e-2.

A fit's digest hashes, in this order: the ``objective`` value and the
bytes of every ``gradients()`` block on the first 64 training rows, then,
after ``train``, ``model_to_text``, the trace CSV and the bytes of
``predict_logits`` on the target rows. The output has one ``name digest``
line per fit; two trees fit alike where their files are equal. Pytest
does not collect this file.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import re
import sys
from pathlib import Path

# One BLAS thread, as the benchmark runs; has effect only if numpy is not imported yet.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from gdu import datagen, kernel, layer, training  # noqa: E402
from gdu.checkpoint import model_to_text  # noqa: E402
from gdu.regularization import RegConfig  # noqa: E402

SEEDS = (1, 2, 3)
EXTRACTORS = {"shallow": [10, 32, 16], "deep": [10, 64, 32, 16]}
TRAIN_MODES = ("E2E", "FT")
WEIGHT = 0.1
REGS = {
    "CS": ("", "ols", "l1", "ols+l1"),
    "MMD": ("", "ols", "l1", "ols+l1"),
    "PROJECTION": ("", "ols", "orth", "ols+orth"),
}
ERM_HEADS = (1, 3)
NUM_BASES, BASIS_SIZE, KAPPA = 4, 10, 20.0
EPOCHS, BATCH, LEARNING_RATE, BIAS_SCALE = 4, 64, 1e-2, 0.3


def fits():
    """``(name, seed, extractor, train_mode, mode, reg)`` for every fit of the grid.

    ``mode`` is a gating mode or ``ERM-K`` for K heads; ``reg`` names the
    nonzero weights, joined by ``+``.
    """
    for seed in SEEDS:
        for depth in EXTRACTORS:
            for train_mode in TRAIN_MODES:
                for mode, regs in REGS.items():
                    for reg in regs:
                        name = f"seed{seed}-{depth}-{train_mode}-{mode}-{reg or 'none'}"
                        yield name, seed, depth, train_mode, mode, reg
                for heads in ERM_HEADS:
                    yield (f"seed{seed}-{depth}-{train_mode}-ERM-{heads}", seed, depth,
                           train_mode, f"ERM-{heads}", "")


def _data(seed: int):
    bench = datagen.make_benchmark(4, 3, 10, 3, seed=seed, separation=3.0,
                                   n_train=120, n_val=60, n_target=200)
    samples = datagen.materialize(bench)

    def stack(role):
        picked = [s for s, d in zip(samples, bench.domains) if d.role == role]
        return np.concatenate([s.x for s in picked]), np.concatenate([s.y for s in picked])

    splits = training.DatasetSplits(*stack("source"), *stack("validation"))
    return splits, stack("target")[0]


def _model(seed: int, depth: str, mode: str, train_x):
    sizes = EXTRACTORS[depth]
    if mode.startswith("ERM-"):
        model = training.init_erm_model(sizes, 3, int(mode[4:]), seed)
    else:
        fe = training.init_feature_extractor(sizes, seed)
        sigma = kernel.median_heuristic(training.fe_forward(train_x, fe))
        kappa = None if mode == "PROJECTION" else KAPPA
        gdu_layer = layer.init_layer(NUM_BASES, BASIS_SIZE, sizes[-1], 3, seed + 1, mode,
                                     kernel.KernelConfig(sigma), kappa)
        model = training.GduModel(fe, gdu_layer)
    rng = np.random.default_rng(seed + 2)
    model.layer.bias += rng.normal(scale=BIAS_SCALE, size=model.layer.bias.shape)
    return model


def fit_digest(seed: int, depth: str, train_mode: str, mode: str, reg: str) -> str:
    """The SHA-256 hex digest of one fit (see the module docstring)."""
    splits, target_x = _data(seed)
    model = _model(seed, depth, mode, splits.train_x)
    weights = {f"lambda_{term}": WEIGHT for term in reg.split("+") if term}
    reg_config = RegConfig(**weights)
    batch = (splits.train_x[:BATCH], splits.train_y[:BATCH])
    digest = hashlib.sha256()
    digest.update(repr(training.objective(batch, model, reg_config)).encode())
    for name, block in training.gradients(batch, model, reg_config, train_mode).items():
        digest.update(name.encode())
        digest.update(block.tobytes())
    config = training.TrainConfig(mode=train_mode, learning_rate=LEARNING_RATE,
                                  batch_size=BATCH, max_epochs=EPOCHS, patience=EPOCHS,
                                  seed=seed, reg=reg_config)
    model, trace = training.train(splits, config, model)
    digest.update(model_to_text(model).encode())
    digest.update(trace.to_csv_text().encode())
    digest.update(training.predict_logits(model, target_x).tobytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="file for one 'name digest' line per fit")
    parser.add_argument("--match", default="", help="run only the fits whose name matches")
    args = parser.parse_args(argv)
    pattern = re.compile(args.match)
    lines = [f"{name} {fit_digest(*spec)}\n"
             for name, *spec in fits() if pattern.search(name)]
    Path(args.out).write_text("".join(lines))
    print(f"{len(lines)} fits digested into {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
