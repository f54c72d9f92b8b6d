"""Span tracing from the lookup site, and the per-layer metrics derived from it.

deepself's modules import each other's functions by name (``from .dsp import
apply_iir`` in ``cli``, ``from .tensor import matmul`` in ``models``), so a
call is traced by replacing the attribute where it is looked up: every public
function found in a deepself module's namespace is wrapped there, whichever
module defined it.  The set is read from the module attributes at install
time, so ops that later changes add or remove stay traced without edits here.

A span is (id, name, start, end, parent, thread).  Ids are taken when a span
opens, so a parent's id is always smaller than its children's.  Spans are kept
in one flat in-memory array and written out when the run ends.  A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
import types
from array import array
from contextlib import contextmanager

import numpy as np

LAYER_MODULES = ("tensor", "models", "training", "evaluation", "dsp", "data", "config", "cli")
FIELDS = 6  # id, name code, start, end, parent id, native thread id


class Tracer:
    """Records spans for wrapped deepself functions and for the benchmark's own blocks."""

    def __init__(self):
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self._rows = array("d")
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: list = []

    def _code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn):
        code = self._code(f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}")
        ids, rows, stack_of = self._ids, self._rows, self._stack
        clock, thread_id = time.perf_counter, threading.get_native_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                # one extend per span keeps rows whole when worker threads record too
                rows.extend((sid, code, start, end, parent, thread_id()))

        return traced

    def install(self, package):
        """Wrap every public deepself function at each layer module's lookup site."""
        for layer in LAYER_MODULES:
            module = getattr(package, layer)
            for attr, value in list(vars(module).items()):
                if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                        and value.__module__.startswith(package.__name__ + ".")):
                    self._saved.append((module, attr, value))
                    setattr(module, attr, self._wrap(value))

    def uninstall(self):
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    @contextmanager
    def span(self, name: str):
        """A span for a block of the benchmark's own code."""
        code = self._code(name)
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self._rows.extend((sid, code, start, end, parent, threading.get_native_id()))

    def spans(self) -> np.ndarray:
        """[n x 6] spans ordered by id."""
        table = np.frombuffer(self._rows, dtype=np.float64).reshape(-1, FIELDS)
        return table[np.argsort(table[:, 0], kind="stable")]


class SpanTable:
    """Vectorised queries over a finished trace."""

    def __init__(self, spans: np.ndarray, names: list[str]):
        self.ids = spans[:, 0].astype(np.int64)
        if not np.array_equal(self.ids, np.arange(len(self.ids))):
            raise ValueError("trace has missing or duplicate span ids")
        self.names = list(names)
        self.code = spans[:, 1].astype(np.int64)
        self.start, self.end = spans[:, 2], spans[:, 3]
        self.parent = spans[:, 4].astype(np.int64)
        self.thread = spans[:, 5].astype(np.int64)
        self.dur = self.end - self.start
        has_parent = self.parent >= 0
        child_time = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                                 minlength=len(self.ids))
        self.self_time = self.dur - child_time
        self._layers = sorted({n.split(".", 1)[0] for n in self.names})
        layer_of_code = np.array([self._layers.index(n.split(".", 1)[0]) for n in self.names] or [0])
        self.layer_code = layer_of_code[self.code]
        parent_layer = np.where(has_parent, self.layer_code[np.maximum(self.parent, 0)], -1)
        # a call into the layer from outside it, not one of its own internal calls
        self.entry = self.layer_code != parent_layer

    def _codes(self, keep) -> np.ndarray:
        return np.isin(self.code, [i for i, n in enumerate(self.names) if keep(n)])

    def named(self, *names) -> np.ndarray:
        return self._codes(lambda n: n in names)

    def prefixed(self, prefix: str) -> np.ndarray:
        return self._codes(lambda n: n.startswith(prefix))

    def layer(self, name: str) -> np.ndarray:
        if name not in self._layers:
            return np.zeros(len(self.ids), dtype=bool)
        return self.layer_code == self._layers.index(name)

    def within(self, outer: np.ndarray) -> np.ndarray:
        """Spans lying inside one of the ``outer`` spans (same thread, by time)."""
        inside = np.zeros(len(self.ids), dtype=bool)
        for tid in np.unique(self.thread[outer]):
            box = outer & (self.thread == tid)
            starts, ends = self.start[box], self.end[box]
            order = np.argsort(starts)
            starts, ends = starts[order], ends[order]
            mine = self.thread == tid
            slot = np.searchsorted(starts, self.start[mine], side="right") - 1
            ok = slot >= 0
            ok[ok] &= self.end[mine][ok] <= ends[slot[ok]]
            inside[np.flatnonzero(mine)[ok]] = True
        return inside & ~outer


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if "_ms" in metric:
        return "ms"
    if metric.endswith("_s"):
        return "s"
    if "_bytes" in metric:
        return "bytes"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def _mean_ms(table, mask) -> float:
    return float(table.dur[mask].mean() * 1e3) if mask.any() else 0.0


def _median_ms(table, mask) -> float:
    return float(np.median(table.dur[mask]) * 1e3) if mask.any() else 0.0


def _cv_folds(t: SpanTable, jobs: int):
    """Per cross-validation run: the fold spans and the pool's busy ratio.

    A fold runs init_model -> train -> predict_batches -> uar_from_labels in
    one thread, called either from kfold_cross_validate itself (one job) or
    from a pool worker with nothing above it.
    """
    fold_s, busy = [], []
    for cv in np.flatnonzero(t.named("evaluation.kfold_cross_validate")):
        window = (t.start >= t.start[cv]) & (t.end <= t.end[cv])
        fold_level = window & ((t.parent == cv) | ((t.parent < 0) & (t.thread != t.thread[cv])))
        spans = []
        for tid in np.unique(t.thread[fold_level]):
            mine = fold_level & (t.thread == tid)
            starts = np.sort(t.start[mine & t.named("models.init_model")])
            ends = np.sort(t.end[mine & t.named("evaluation.uar_from_labels")])
            spans.extend(ends[: len(starts)] - starts[: len(ends)])
        fold_s.extend(spans)
        busy.append(sum(spans) / (t.dur[cv] * jobs))
    return fold_s, busy


def layer_metrics(t: SpanTable, counts: dict) -> dict:
    """Per-layer metrics, by the names the benchmark documents.

    ``counts`` carries what the benchmark counted itself: tape records seen
    before each traced step's backward, checkpoint and feature-map file sizes,
    the cross-validation job count and per-iteration CLI times.
    """
    steps = t.named("bench.step")
    n_steps = max(int(steps.sum()), 1)
    in_step = t.within(steps)
    in_cli = t.within(t.prefixed("bench.cli."))
    top = t.parent < 0
    tensor = in_step & t.layer("tensor")
    backward = t.named("tensor.backward")
    conv = t.named("tensor.conv_nd_batched", "tensor.convolve_nd")
    loss = t.named("tensor.softmax_cross_entropy")
    per_step_ms = 1e3 / n_steps
    lib_train = t.named("training.train") & top
    fold_s, busy = _cv_folds(t, counts["cv_jobs"])
    io = in_cli & t.named("evaluation.write_predictions", "evaluation.read_predictions")

    m = {
        "tensor.tape_records_per_step": float(np.mean(counts["tape_records"])) if counts["tape_records"] else 0.0,
        "tensor.op_calls_per_step": float((tensor & t.entry & ~backward).sum()) / n_steps,
        "tensor.backward_ms_per_step": float(t.dur[tensor & backward].sum()) * per_step_ms,
        "tensor.op_self_ms_per_step": float(t.self_time[tensor & ~backward & ~conv & ~loss].sum()) * per_step_ms,
        "tensor.conv_ms_per_step": float(t.dur[tensor & conv & t.entry].sum()) * per_step_ms,
        "tensor.loss_ms_per_step": float(t.dur[tensor & loss].sum()) * per_step_ms,
        "models.forward_ms_per_step": float(t.dur[in_step & t.named("models.forward")].sum()) * per_step_ms,
        "models.forward_self_ms_per_step": float(t.self_time[in_step & t.layer("models")].sum()) * per_step_ms,
        "models.init_ms": _median_ms(t, top & t.named("models.init_model")),
        "training.optimizer_ms_per_step": float(t.dur[in_step & t.named("training.adam_step", "training.sgd_step")].sum()) * per_step_ms,
        "training.dev_eval_ms_per_epoch": _mean_ms(t, t.named("training.evaluate_uar") & np.isin(t.parent, np.flatnonzero(lib_train))),
        "training.checkpoint_write_ms": _median_ms(t, top & t.named("training.save_checkpoint")),
        "training.checkpoint_read_ms": _median_ms(t, top & t.named("training.load_checkpoint")),
        "training.checkpoint_bytes": float(np.mean(counts["checkpoint_bytes"])),
        "evaluation.cv_fold_s": float(np.mean(fold_s)) if fold_s else 0.0,
        "evaluation.cv_pool_busy_ratio": float(np.median(busy)) if busy else 0.0,
        "evaluation.predictions_io_ms": float(t.dur[io].sum() * 1e3) / max(len(counts["cli_s"]), 1),
        "evaluation.fuse_ms": _mean_ms(t, in_cli & t.named("evaluation.fuse_predictions")),
        "dsp.iir_ms_per_file": _mean_ms(t, in_cli & t.named("dsp.apply_iir")),
        "dsp.logmel_ms_per_file": _mean_ms(t, in_cli & t.named("dsp.log_mel_spectrogram")),
        "dsp.scalogram_ms_per_file": _mean_ms(t, in_cli & t.named("dsp.scalogram")),
        "dsp.dsfm_write_ms_per_file": _mean_ms(t, in_cli & t.named("dsp.write_feature_map")),
        "dsp.dsfm_read_ms_per_file": _mean_ms(t, in_cli & t.named("dsp.read_feature_map")),
        "dsp.dsfm_bytes_per_file": float(np.mean(counts["dsfm_bytes"])),
        "data.signal_read_ms_per_file": _mean_ms(t, in_cli & t.named("data.load_csv_series")),
        "data.manifest_ms": _mean_ms(t, in_cli & t.named("data.load_manifest")),
        "data.assemble_ms": _mean_ms(t, in_cli & t.named("data.assemble_dataset")),
        "config.load_ms": _mean_ms(t, in_cli & t.named("config.load_config")),
    }
    for command in ("preprocess", "train", "evaluate", "cv", "predict", "fuse"):
        m[f"cli.{command}_s"] = float(np.median([it[command] for it in counts["cli_s"]]))
    return m
