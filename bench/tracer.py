"""Span tracing of the ``gdu`` layers from outside the package.

A :class:`Tracer` replaces chosen functions with timing wrappers. A name is
wrapped in every ``gdu`` module that binds it, not only where it is
defined: ``gdu.training`` imports ``forward_batch`` and ``omega_orth`` at
import time and ``gdu.layer`` imports ``gram``, so patching the defining
module alone would miss those calls. Methods (``Class.method``) are patched
on their class.

Spans are kept in memory as ``[name, start, end, parent, child_time]`` and
summarised (or written out) when the run ends. A span's self time is its
duration minus the time covered by its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import sys
import time

import numpy as np

# (span name, defining module, attribute). The span name is
# ``<module>.<function>`` with leading underscores dropped.
SPANS = (
    ("datagen.materialize", "gdu.datagen", "materialize"),
    ("kernel.median_heuristic", "gdu.kernel", "median_heuristic"),
    ("kernel.gram", "gdu.kernel", "gram"),
    ("layer.basis_inners", "gdu.layer", "_basis_inners"),
    ("layer.basis_gram_matrix", "gdu.layer", "basis_gram_matrix"),
    ("layer.gate_matrix", "gdu.layer", "gate_matrix"),
    ("layer.forward_batch", "gdu.layer", "forward_batch"),
    ("regularization.omega_orth", "gdu.regularization", "omega_orth"),
    ("training.build_objective", "gdu.training", "_build_objective"),
    ("training.fe_forward", "gdu.training", "fe_forward"),
    ("training.epoch_metrics", "gdu.training", "_epoch_metrics"),
    ("training.predict_logits", "gdu.training", "predict_logits"),
    ("training.optimizer_step", "gdu.training", "_Adam.step"),
    ("autodiff.backward", "gdu.autodiff", "Tensor.backward"),
    ("heuristics.kmeans", "gdu.heuristics", "kmeans"),
    ("heuristics.davies_bouldin", "gdu.heuristics", "davies_bouldin"),
    ("checkpoint.save", "gdu.checkpoint", "model_to_text"),
    ("checkpoint.load", "gdu.checkpoint", "model_from_text"),
    ("rkhs.kme_inner", "gdu.rkhs", "kme_inner"),
    ("rkhs.kme_norm_sq", "gdu.rkhs", "kme_norm_sq"),
    ("rkhs.mmd_sq", "gdu.rkhs", "mmd_sq"),
    ("rkhs.rkhs_cosine", "gdu.rkhs", "rkhs_cosine"),
)

TIMED = tuple(dict.fromkeys(name for name, _, _ in SPANS if not name.startswith("rkhs.")))
BUILD = "training.build_objective"

# Percentiles tried for the tail figure, highest first.
_TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
_TAIL_MIN_BEYOND = 10


def tail_percentile(count: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it.

    With fewer than 20 samples no percentile qualifies; the median is used.
    """
    for pct in _TAIL_LADDER:
        if count * (1.0 - pct / 100.0) >= _TAIL_MIN_BEYOND:
            return pct
    return 50.0


def tape_size(root) -> int:
    """Number of distinct tape nodes reachable from ``root`` via ``_parents``."""
    seen = {id(root)}
    todo = [root]
    while todo:
        for parent in todo.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                todo.append(parent)
    return len(seen)


def _shape_of(x):
    return getattr(x, "shape", None) or np.shape(x)


class Tracer:
    """Installs span wrappers and records spans and per-step counts."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {"tape_nodes": 0, "gram_in_build": 0,
                       "gram_entries_in_build": 0, "rkhs_in_build": 0}
        self.installed = set()
        self.absent = []
        self._patches = []

    # -- installation ---------------------------------------------------

    def install(self):
        """Wrap every name in :data:`SPANS`; missing names are recorded as absent."""
        self.installed, self.absent = set(), []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "gdu" or n.startswith("gdu."))]
        for span, modname, attr in SPANS:
            owner = sys.modules.get(modname)
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, meth, None) if owner is not None else None
            if not callable(original):
                self.absent.append(f"{modname}.{attr}")
                continue
            self.installed.add(span)
            wrapper = self._wrap(span, original)
            if cls_name:
                self._patch(owner, meth, original, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    @contextlib.contextmanager
    def paused(self):
        """Run a block untraced."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    def _patch(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def _wrap(self, name, fn):
        tracer = self
        spans, stack, counts = self.spans, self.stack, self.counts
        is_gram = name == "kernel.gram"
        is_rkhs = name.startswith("rkhs.")
        is_build = name == BUILD

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_gram or is_rkhs:
                tracer._count_in_build(is_gram, args)
            parent = stack[-1] if stack else -1
            record = [name, 0.0, 0.0, parent, 0.0]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = record[2] = time.perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][4] += end - record[1]
            if is_build:
                root = result[0] if isinstance(result, tuple) else result
                if hasattr(root, "_parents"):
                    counts["tape_nodes"] += tape_size(root)
            return result

        return wrapper

    def _count_in_build(self, is_gram, args):
        if not any(self.spans[i][0] == BUILD for i in self.stack):
            return
        if is_gram:
            self.counts["gram_in_build"] += 1
            rows, cols = _shape_of(args[0])[0], _shape_of(args[1])[0]
            self.counts["gram_entries_in_build"] += rows * cols
        else:
            self.counts["rkhs_in_build"] += 1

    # -- summaries --------------------------------------------------------

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def stats(self) -> dict:
        """Per span name: sample count, self-time median and tail, inclusive median."""
        self_times, incl_times = {}, {}
        for name, start, end, _, child in self.spans:
            self_times.setdefault(name, []).append(end - start - child)
            incl_times.setdefault(name, []).append(end - start)
        out = {}
        for name, values in self_times.items():
            arr = np.asarray(values)
            pct = tail_percentile(arr.size)
            out[name] = {
                "n": int(arr.size),
                "self_median_s": float(np.median(arr)),
                "self_tail_pct": pct,
                "self_tail_s": float(np.percentile(arr, pct)),
                "self_total_s": float(arr.sum()),
                "incl_median_s": float(np.median(incl_times[name])),
            }
        return out

    def write(self, path):
        """Write every span as one JSON line (gzip)."""
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, child in self.spans:
                fh.write(json.dumps([name, start, end, parent, end - start - child]) + "\n")
