"""The benchmark's workloads, its timed loop and its output checks.

Every workload runs the same pipeline, at its own sizes:

    set-up   make_benchmark + materialize, (FT only) an extractor
             pretrained by E2E ERM, initial features, sigma by the median
             heuristic, initial models written to checkpoint text and
             read back;
    pass     train CS, MMD, PROJECTION and ERM (gating modes rotate between
             passes), serve the target rows in batches through
             ``predict_logits``, and run ``select_m`` over k in [2, 10].

A run sets up ``configs`` independent instances (sub-seeds of ``--seed``),
warms up, then runs passes over the instances in turn until the time is
up and each instance has had a pass. Timings are in reference seconds (see
``_timed``) and averaged over passes (see ``_end_to_end_metrics``); target
accuracy is the mean over instances of each instance's first pass, so it
repeats exactly for a given seed and thread count.

Where the sizes put the cost:

* ``train-small`` - the reference size (E2E, M=4, N=10, b=64): per-op tape
  overhead and the per-epoch SRIP power iteration dominate.
* ``train-wide`` - FT with a pretrained, frozen [20, 64, 64] extractor,
  M=10, N=50, b=256: the (256 x 500) and (500 x 500) kernel blocks and the
  M=10 SRIP dominate.
* ``select-serve`` - 20000 target rows served without the tape and
  ``select_m`` on 4000 feature rows dominate; training is one FT epoch per
  gating mode.
"""

from __future__ import annotations

import contextlib
import copy
import gc
import resource
import time
from dataclasses import dataclass, field

import numpy as np

from gdu import checkpoint, datagen, heuristics, kernel, layer, training
from gdu.regularization import RegConfig

import tracer as tracing

MODES = ("CS", "MMD", "PROJECTION", "ERM")
GEOMETRY = ("CS", "MMD")

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    **{f"train_samples_per_s.{m.lower()}": ("1/s", "higher") for m in MODES},
    **{f"target_acc.{m.lower()}": ("fraction", "higher") for m in MODES},
    "infer_rows_per_s": ("1/s", "higher"),
    "select_m_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_frac": ("fraction", "higher"),
}

PER_LAYER = {
    **{f"{span}_s{suffix}": unit
       for span in tracing.TIMED
       for suffix, unit in (("", "s"), (".tail", "s"), (".n", "count"))},
    "autodiff.tape_nodes_per_step": "count",
    "autodiff.backward_over_build": "ratio",
    "kernel.gram_calls_per_step": "count",
    "kernel.gram_entries_per_step": "count",
    "regularization.omega_orth_calls": "count",
    "heuristics.kmeans_calls": "count",
    "checkpoint.bytes": "bytes",
    "rkhs.calls_per_step": "count",
    "trace.overhead_frac": "fraction",
}

_SIMPLEX_TOL = 1e-9
_FD_STEP = 1e-5
_FD_FLOOR = 1e-6
_FD_REL_TOL = 1e-4
_MIN_TRACED_PASSES = 2
_KAPPA = 20.0
# FT workloads freeze an extractor pretrained by E2E ERM, as FT does in the
# paper; a frozen random one leaves every FT model near chance accuracy.
_PRETRAIN = dict(learning_rate=1e-2, batch_size=64, max_epochs=3, patience=3)

# Calibration loop: many tiny numpy calls (like the tape's per-op work) and
# a few kernel-block-sized ones. CAL_REF_S is its nominal duration.
CAL_REF_S = 0.015
_CAL_SMALL_OPS = 1500
_CAL_LARGE_OPS = 5
_CAL_V = np.linspace(0.0, 1.0, 64)
_CAL_A = np.linspace(-1.0, 1.0, 256 * 64).reshape(256, 64)
_CAL_B = np.linspace(-1.0, 1.0, 64 * 500).reshape(64, 500)


@dataclass(frozen=True)
class Profile:
    """Sizes and training settings of one workload."""

    data: dict  # make_benchmark arguments other than the seed
    extractor: tuple
    train_mode: str
    num_bases: int
    basis_size: int
    batch_size: int
    learning_rate: float
    regs: dict  # GDU mode -> RegConfig
    epochs: dict  # mode -> epochs per pass
    serve_batch: int
    select_seeds: int
    configs: int  # independent set-ups per run
    select_range: tuple = (2, 10)
    sigma_rows: int = 2000  # median heuristic on at most this many rows


PROFILES = {
    "train-small": Profile(
        data=dict(n_components=4, n_classes=3, input_dim=10, n_sources=3),
        extractor=(10, 32, 16),
        train_mode="E2E",
        num_bases=4,
        basis_size=10,
        batch_size=64,
        learning_rate=1e-2,
        regs={m: RegConfig() for m in MODES[:3]},
        epochs={"CS": 2, "MMD": 2, "PROJECTION": 2, "ERM": 4},
        serve_batch=600,
        select_seeds=2,
        configs=14,
    ),
    "train-wide": Profile(
        data=dict(n_components=10, n_classes=3, input_dim=20, n_sources=4, n_train=512),
        extractor=(20, 64, 64),
        train_mode="FT",
        num_bases=10,
        basis_size=50,
        batch_size=256,
        learning_rate=5e-2,
        regs={
            "CS": RegConfig(lambda_ols=0.1),
            "MMD": RegConfig(lambda_ols=0.1),
            "PROJECTION": RegConfig(lambda_ols=0.1, lambda_orth=0.1),
        },
        epochs={"CS": 1, "MMD": 1, "PROJECTION": 1, "ERM": 5},
        serve_batch=600,
        select_seeds=1,
        configs=10,
    ),
    "select-serve": Profile(
        data=dict(n_components=6, n_classes=3, input_dim=16, n_sources=4,
                  n_train=1000, n_target=20000),
        extractor=(16, 32, 16),
        train_mode="FT",
        num_bases=6,
        basis_size=16,
        batch_size=256,
        learning_rate=5e-2,
        regs={m: RegConfig() for m in MODES[:3]},
        epochs={"CS": 1, "MMD": 1, "PROJECTION": 1, "ERM": 10},
        serve_batch=1000,
        select_seeds=2,
        configs=14,
    ),
}


@dataclass
class Tally:
    """Operations attempted and failed: training runs, batches, checks.

    ``kinds`` maps each kind of operation (its label, e.g. ``"predict CS"``)
    to whether every attempt of it succeeded.
    """

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    kinds: dict = field(default_factory=dict)

    def call(self, what, fn, *args):
        """Run one operation; a raised exception counts as a failure."""
        try:
            result = fn(*args)
        except Exception as exc:  # the run goes on and reports the failure
            self._count(what, repr(exc))
            return None
        self._count(what, None)
        return result

    def verify(self, what, fn, *args):
        """One output check: ``fn`` returns whether it holds; raising fails it."""
        self.call(what, _holds, what, fn, *args)

    def ok_frac(self) -> float:
        """Share of operation kinds that never failed.

        One failing kind lowers it by 1/len(kinds) (about 4%), however
        many other operations the run attempted.
        """
        return sum(self.kinds.values()) / len(self.kinds)

    def _count(self, what, error):
        self.attempted += 1
        self.kinds[what] = self.kinds.get(what, True) and error is None
        if error is not None:
            self.failed += 1
            self.errors.append(f"{what}: {error}")


def _holds(what, fn, *args):
    if not fn(*args):
        raise AssertionError(f"{what} does not hold")


@dataclass
class Instance:
    """One set-up: data splits, features for selection, initial models."""

    seed: int
    splits: training.DatasetSplits
    target_x: np.ndarray
    target_y: np.ndarray
    select_feats: np.ndarray
    models: dict
    checkpoint_bytes: int


def _stack(samples, role, domains):
    picked = [s for s, d in zip(samples, domains) if d.role == role]
    return np.concatenate([s.x for s in picked]), np.concatenate([s.y for s in picked])


def set_up(profile: Profile, seed: int, untraced=contextlib.nullcontext) -> Instance:
    """One instance; ``untraced()`` keeps the pretraining out of a trace."""
    bench = datagen.make_benchmark(seed=seed, **profile.data)
    samples = datagen.materialize(bench)
    train_x, train_y = _stack(samples, "source", bench.domains)
    val_x, val_y = _stack(samples, "validation", bench.domains)
    target_x, target_y = _stack(samples, "target", bench.domains)
    splits = training.DatasetSplits(train_x, train_y, val_x, val_y)
    sizes, n_classes = list(profile.extractor), profile.data["n_classes"]
    fe = training.init_feature_extractor(sizes, seed)
    if profile.train_mode == "FT":
        pretrained = training.init_erm_model(sizes, n_classes, 1, seed)
        with untraced():
            training.train(splits, training.TrainConfig(mode="E2E", seed=seed, **_PRETRAIN),
                           pretrained)
        fe = pretrained.fe
    feats = np.asarray(training.fe_forward(train_x, fe))
    rows = np.random.default_rng(seed).permutation(len(feats))[: profile.sigma_rows]
    sigma = kernel.median_heuristic(feats[rows])
    models, nbytes = {}, 0
    for mode in MODES:
        if mode == "ERM":
            # An untrained head on the same extractor as the GDU models.
            model = training.init_erm_model(sizes, n_classes, 1, seed)
            model.fe = fe
        else:
            gdu_layer = layer.init_layer(
                profile.num_bases, profile.basis_size, profile.extractor[-1],
                n_classes, seed + 1, mode, kernel.KernelConfig(sigma),
                None if mode == "PROJECTION" else _KAPPA,
            )
            model = training.GduModel(fe, gdu_layer)
        # Reading the text back also gives each model its own extractor.
        text = checkpoint.model_to_text(model)
        nbytes += len(text)
        models[mode] = checkpoint.model_from_text(text)
    return Instance(seed, splits, target_x, target_y, feats, models, nbytes)


def _train_config(profile: Profile, mode: str, seed: int, epochs: int):
    return training.TrainConfig(
        mode=profile.train_mode,
        learning_rate=profile.learning_rate,
        batch_size=profile.batch_size,
        max_epochs=epochs,
        patience=epochs,
        seed=seed,
        reg=profile.regs.get(mode, RegConfig()),
    )


def calibration_s() -> float:
    """Wall time of a fixed mix of small and medium numpy work (~15 ms)."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(_CAL_SMALL_OPS):
        acc += float((_CAL_V * 1.5 + 0.5).sum())
    for _ in range(_CAL_LARGE_OPS):
        acc += float(np.exp(-(_CAL_A @ _CAL_B)).sum())
    return time.perf_counter() - t0


def _timed(fn, *args):
    """Run ``fn(*args)``; return (result, wall seconds, reference seconds).

    Reference seconds are wall seconds scaled by ``CAL_REF_S`` over the
    mean of two calibration loops run just before and just after the step,
    so that swings in the speed of a shared host cancel out.
    """
    gc.collect()
    before = calibration_s()
    t0 = time.perf_counter()
    result = fn(*args)
    wall = time.perf_counter() - t0
    return result, wall, wall * 2.0 * CAL_REF_S / (before + calibration_s())


def run_pass(profile, inst, order, tally, first=False, warm=False):
    """Train, serve and select once; return this pass's timings.

    Training and serving are kept per mode as ``(samples or rows, wall s,
    reference s)``, selection as ``(wall s, reference s)``. ``first`` adds
    the per-instance gate check and records accuracy; ``warm`` shortens
    everything to one epoch, one batch and k in [2, 3], and checks the
    checkpoint round trip of every trained model.
    """
    sample = {"train": {}, "serve": {}, "acc": {}}
    n_train = len(inst.splits.train_x)
    target_x = inst.target_x[: profile.serve_batch] if warm else inst.target_x
    target_y = inst.target_y[: len(target_x)]
    for mode in order:
        model = copy.deepcopy(inst.models[mode])
        epochs = 1 if warm else profile.epochs[mode]
        cfg = _train_config(profile, mode, inst.seed, epochs)
        result, wall, ref = _timed(tally.call, f"train {mode}", training.train,
                                   inst.splits, cfg, model)
        if result is None:
            continue
        model, trace = result
        sample["train"][mode] = (n_train * len(trace.rows), wall, ref)
        tally.verify(f"finite losses {mode}",
                     lambda: np.all(np.isfinite([r.loss for r in trace.rows])))

        batches, wall, ref = _timed(_serve, model, target_x, profile.serve_batch, tally, mode)
        correct = rows = 0
        for start, logits in zip(range(0, len(target_x), profile.serve_batch), batches):
            if logits is None:
                continue
            rows += len(logits)
            tally.verify(f"finite logits {mode}", lambda: np.all(np.isfinite(logits)))
            correct += int(np.sum(np.argmax(logits, axis=1) == target_y[start : start + len(logits)]))
        sample["serve"][mode] = (rows, wall, ref)
        xb = target_x[: profile.serve_batch]
        if warm:
            tally.verify(f"checkpoint round trip {mode}", _round_trip_exact, model, xb)
        if first:
            sample["acc"][mode] = correct / len(target_x)
            if mode in GEOMETRY:
                tally.verify(f"gate simplex {mode}", _gates_on_simplex, model, xb)

    select_range = (2, 3) if warm else profile.select_range
    chosen, wall, ref = _timed(tally.call, "select_m", heuristics.select_m,
                               inst.select_feats, select_range, profile.select_seeds, inst.seed)
    sample["select"] = (wall, ref)
    if chosen is not None:
        k, table = chosen
        tally.verify("select_m result", lambda: select_range[0] <= k <= select_range[1]
                     and all(np.isfinite(row.mean_db) for row in table))
    return sample


def _pass_ref_s(sample):
    """Reference seconds of a pass's timed steps: training, serving, selection."""
    steps = [*sample["train"].values(), *sample["serve"].values()]
    return sum(ref for *_, ref in steps) + sample["select"][1]


def _serve(model, x, batch, tally, mode):
    return [tally.call(f"predict {mode}", training.predict_logits, model, x[s : s + batch])
            for s in range(0, len(x), batch)]


def _round_trip_exact(model, xb):
    back = checkpoint.model_from_text(checkpoint.model_to_text(model))
    return np.array_equal(training.predict_logits(back, xb), training.predict_logits(model, xb))


def _gates_on_simplex(model, xb):
    beta = np.asarray(layer.gate_matrix(training.fe_forward(xb, model.fe), model.layer))
    return bool(np.all(beta >= 0.0) and np.all(np.abs(beta.sum(axis=1) - 1.0) <= _SIMPLEX_TOL))


def gradient_probe(mode: str) -> float:
    """Worst relative error of ``gradients`` against central differences.

    A fixed tiny model (e=4, M=2, N=3, C=3, b=5, tanh extractor) with every
    regularizer of the mode switched on; SRIP is the PROJECTION default.
    """
    rng = np.random.default_rng(3)
    fe = training.init_feature_extractor([4, 4], 4, "tanh")
    gdu_layer = layer.init_layer(2, 3, 4, 3, 5, mode, kernel.KernelConfig(1.5),
                                 2.0 if mode in GEOMETRY else None)
    for machine in gdu_layer.machines:
        machine.bias += rng.normal(scale=0.3, size=3)
    model = training.GduModel(fe, gdu_layer)
    batch = (rng.normal(size=(5, 4)), rng.integers(0, 3, size=5))
    if mode in GEOMETRY:
        reg = RegConfig(lambda_ols=0.5, lambda_l1=0.5)
    else:
        reg = RegConfig(lambda_ols=0.5, lambda_orth=0.5)
    analytic = training.gradients(batch, model, reg, "E2E")
    worst = 0.0
    for name, arr in training.trainable_arrays(model, "E2E").items():
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            arr[idx] = orig + _FD_STEP
            f_plus = training.objective(batch, model, reg)
            arr[idx] = orig - _FD_STEP
            f_minus = training.objective(batch, model, reg)
            arr[idx] = orig
            numeric = (f_plus - f_minus) / (2.0 * _FD_STEP)
            scale = max(abs(numeric), abs(analytic[name][idx]))
            if scale > _FD_FLOOR:
                worst = max(worst, abs(numeric - analytic[name][idx]) / scale)
    return worst


def _median(values):
    return float(np.median(values)) if len(values) else float("nan")


def _mean(values):
    return float(np.mean(values)) if len(values) else float("nan")


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict  # name -> (value, unit)
    details: dict
    tracer: tracing.Tracer | None = None


def measure(profile: Profile, seed: int, seconds: float, trace: bool) -> Result:
    """Run one workload; end-to-end metrics untraced, per-layer ones traced."""
    tally = Tally()
    tracer = tracing.Tracer() if trace else None
    sub_seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(profile.configs)]

    if tracer:
        tracer.install()
    setup_times, instances = [], []
    for sub in sub_seeds:
        inst, wall, ref = _timed(set_up, profile, sub,
                                 tracer.paused if tracer else contextlib.nullcontext)
        instances.append(inst)
        setup_times.append((wall, ref))
    if tracer:
        tracer.uninstall()

    run_pass(profile, instances[0], MODES, tally, warm=True)

    passes, overhead = [], []
    accuracy = {m: [] for m in MODES}
    # Accuracy needs one pass per instance; the traced counts are per pass.
    min_passes = _MIN_TRACED_PASSES if tracer else profile.configs
    start = time.perf_counter()
    p = 0
    while p < min_passes or time.perf_counter() - start < seconds:
        inst = instances[p % profile.configs]
        order = MODES[p % len(MODES):] + MODES[: p % len(MODES)]
        first = p < profile.configs
        if tracer:
            # An untraced and a traced pass of the same work; which runs
            # first alternates, so that warm caches favour neither.
            untraced_first = p % 2 == 0
            if untraced_first:
                untraced = run_pass(profile, inst, order, tally, first=first)
            tracer.install()
            sample = run_pass(profile, inst, order, tally, first=first)
            tracer.uninstall()
            if not untraced_first:
                untraced = run_pass(profile, inst, order, tally, first=first)
            overhead.append(_pass_ref_s(sample) / _pass_ref_s(untraced) - 1.0)
        else:
            sample = run_pass(profile, inst, order, tally, first=first)
        passes.append(sample)
        for mode, acc in sample["acc"].items():
            accuracy[mode].append(acc)
        p += 1
        if p == profile.configs:
            # Peak memory after a fixed amount of work: one pass per instance.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for mode in MODES[:3]:
        tally.verify(f"gradient probe {mode}", lambda m: gradient_probe(m) < _FD_REL_TOL, mode)

    details = {"passes": passes, "setup_s": setup_times,
               "errors": tally.errors, "sub_seeds": sub_seeds}
    if tracer:
        metrics = _layer_metrics(tracer, passes, instances, overhead, details)
    else:
        metrics = _end_to_end_metrics(setup_times, passes, accuracy, peak_rss_mb, tally)
    return Result(tally.failed == 0, tally.attempted, tally.failed, metrics, details, tracer)


def _end_to_end_metrics(setup_times, passes, accuracy, peak_rss_mb, tally):
    """Set-up time is the median over set-ups; pass figures are means over passes.

    Calibrated pass timings vary mostly because each pass runs another
    instance, and the cost of an instance is often bimodal (the SRIP power
    iteration converges fast or slowly). The mean over passes is steadier
    than the median there. All times are in reference seconds.
    """
    values = {"setup_s": _median([ref for _, ref in setup_times])}
    for mode in MODES:
        values[f"train_samples_per_s.{mode.lower()}"] = _mean(
            [n / ref for n, _, ref in (s["train"][mode] for s in passes if mode in s["train"])])
        values[f"target_acc.{mode.lower()}"] = _mean(accuracy[mode])
    values["infer_rows_per_s"] = _mean(
        [sum(r[0] for r in s["serve"].values()) / sum(r[2] for r in s["serve"].values())
         for s in passes if s["serve"]])
    values["select_m_s"] = _mean([ref for _, ref in (s["select"] for s in passes)])
    values["peak_rss_mb"] = peak_rss_mb
    values["ok_frac"] = tally.ok_frac()
    return {name: (values[name], unit) for name, (unit, _) in END_TO_END.items()}


def _layer_metrics(tracer, passes, instances, overhead, details):
    """Per-layer metrics; those whose wrapped names no longer exist are left out."""
    stats = tracer.stats()
    details["spans"] = stats
    details["absent"] = tracer.absent
    present = tracer.installed
    values = {}
    for span in tracing.TIMED:
        if span not in present:
            continue
        st = stats.get(span, {"n": 0, "self_median_s": 0.0, "self_tail_s": 0.0})
        values[f"{span}_s"] = st["self_median_s"]
        values[f"{span}_s.tail"] = st["self_tail_s"]
        values[f"{span}_s.n"] = st["n"]
    counts = tracer.counts
    steps = stats.get(tracing.BUILD, {}).get("n", 0)
    if steps:
        values["autodiff.tape_nodes_per_step"] = counts["tape_nodes"] / steps
        if "kernel.gram" in present:
            values["kernel.gram_calls_per_step"] = counts["gram_in_build"] / steps
            values["kernel.gram_entries_per_step"] = counts["gram_entries_in_build"] / steps
        if any(span.startswith("rkhs.") for span in present):
            values["rkhs.calls_per_step"] = counts["rkhs_in_build"] / steps
        if "autodiff.backward" in stats:
            values["autodiff.backward_over_build"] = (
                stats["autodiff.backward"]["incl_median_s"] / stats[tracing.BUILD]["incl_median_s"])
    for name, span in (("regularization.omega_orth_calls", "regularization.omega_orth"),
                       ("heuristics.kmeans_calls", "heuristics.kmeans")):
        if span in present:
            values[name] = tracer.calls(span) / len(passes)
    values["checkpoint.bytes"] = float(np.mean([i.checkpoint_bytes for i in instances]))
    values["trace.overhead_frac"] = _median(overhead)
    return {name: (values[name], unit) for name, unit in PER_LAYER.items() if name in values}
