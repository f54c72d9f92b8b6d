"""Confusion-matrix/UAR metrics, distributor-fold cross-validation, late fusion.

UAR averages per-class recall over the classes that actually appear in the
truth labels; classes with no true instances carry no defined recall and are
excluded.  Argmax ties break to the lowest class index everywhere.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, replace

import numpy as np

from . import workers
from .errors import (ConfigError, DataError, DeepSelfError, FormatError, MetricError, ShapeError, check_integer,
                     check_labels, check_whole)
from .files import read_csv, read_int, write_csv
from .models import init_model

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Confusion matrix and UAR
# ---------------------------------------------------------------------------


@dataclass
class ConfusionMatrix:
    n_classes: int
    counts: np.ndarray  # [true, predicted]

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def confusion_matrix(truth, pred, n_classes: int) -> ConfusionMatrix:
    truth = np.asarray(truth)
    pred = np.asarray(pred)
    if truth.shape != pred.shape or truth.ndim != 1 or truth.size < 1:
        raise ShapeError(
            f"truth and predictions must be equal-length non-empty vectors, "
            f"got {truth.shape} vs {pred.shape}"
        )
    n_classes = check_integer("n_classes", n_classes, 1)
    truth = check_labels("truth", truth, n_classes)
    pred = check_labels("prediction", pred, n_classes)
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(counts, (truth, pred), 1)
    return ConfusionMatrix(n_classes, counts)


def uar(cm: ConfusionMatrix) -> float:
    """100 * mean per-class recall over classes present in the truth."""
    row_sums = cm.counts.sum(axis=1)
    present = row_sums > 0
    if not present.any():
        raise MetricError("UAR is undefined: no class has any true instance")
    recalls = np.diag(cm.counts)[present] / row_sums[present]
    return float(100.0 * recalls.mean())


def uar_from_labels(truth, pred, n_classes: int) -> float:
    return uar(confusion_matrix(truth, pred, n_classes))


def format_confusion(cm: ConfusionMatrix) -> str:
    width = max(5, len(str(int(cm.counts.max(initial=0)))))
    header = "true\\pred " + " ".join(f"{c:>{width}}" for c in range(cm.n_classes))
    lines = [header]
    for t in range(cm.n_classes):
        lines.append(f"{t:>9} " + " ".join(f"{int(v):>{width}}" for v in cm.counts[t]))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Prediction sets and late fusion
# ---------------------------------------------------------------------------


@dataclass
class PredictionSet:
    ids: list[str]
    probabilities: np.ndarray  # [N x C]
    labels: np.ndarray         # [N], argmax with lowest-index tie break

    def __post_init__(self):
        self.probabilities = np.asarray(self.probabilities, dtype=np.float64)
        if self.probabilities.ndim != 2 or len(self.ids) != self.probabilities.shape[0]:
            raise ShapeError(
                f"need one probability row per id: {len(self.ids)} ids, "
                f"array {self.probabilities.shape}"
            )
        if np.shape(self.labels) != (len(self.ids),):
            raise ShapeError("need exactly one label per id")
        self.labels = check_labels("predicted", self.labels, self.n_classes, self.ids)
        # negated so that NaN, which fails every comparison, is caught too
        bad = np.argwhere(~((self.probabilities >= 0.0) & (self.probabilities <= 1.0)))
        if bad.size:
            i, j = bad[0]
            raise DataError(f"probability {float(self.probabilities[i, j])!r} of class {j} "
                            f"for id {self.ids[i]!r} is not a finite number in [0, 1]")
        sums = self.probabilities.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > 1e-6):
            worst = int(np.argmax(np.abs(sums - 1.0)))
            raise DataError(
                f"probability row for id {self.ids[worst]!r} sums to {sums[worst]:.8f}, not 1"
            )

    @property
    def n_classes(self) -> int:
        return self.probabilities.shape[1]

    @classmethod
    def from_probabilities(cls, ids, probabilities) -> "PredictionSet":
        probabilities = np.asarray(probabilities, dtype=np.float64)
        return cls(list(ids), probabilities, np.argmax(probabilities, axis=1))


def fuse_predictions(sets: list[PredictionSet], mode: str = "mean") -> PredictionSet:
    """mean: average probabilities, relabel; vote: majority label, tie -> lowest."""
    if not sets:
        raise ConfigError("fusion needs at least one prediction set")
    if mode not in ("mean", "vote"):
        raise ConfigError(f"fusion mode must be 'mean' or 'vote', got {mode!r}")
    first = sets[0]
    for other in sets[1:]:
        if other.n_classes != first.n_classes:
            raise DataError(
                f"prediction sets disagree on class count: {first.n_classes} vs {other.n_classes}"
            )
        if other.ids != first.ids:
            for a, b in zip(first.ids, other.ids):
                if a != b:
                    raise DataError(f"prediction sets disagree on instance id {a!r} vs {b!r}")
            raise DataError("prediction sets have different numbers of instances")
    mean_probs = np.mean([s.probabilities for s in sets], axis=0)
    if mode == "mean":
        return PredictionSet.from_probabilities(first.ids, mean_probs)
    votes = np.stack([s.labels for s in sets])  # [K x N]
    n, c = len(first.ids), first.n_classes
    tallies = np.zeros((n, c), dtype=np.int64)
    for k in range(votes.shape[0]):
        np.add.at(tallies, (np.arange(n), votes[k]), 1)
    labels = np.argmax(tallies, axis=1)  # argmax ties -> lowest index
    return PredictionSet(first.ids, mean_probs, labels)


def write_predictions(pset: PredictionSet, path):
    write_csv(path, ["id", "label"] + [f"prob_{c}" for c in range(pset.n_classes)],
              ([instance_id, int(label)] + [repr(float(v)) for v in probs]
               for instance_id, label, probs in zip(pset.ids, pset.labels, pset.probabilities)))


def read_predictions(path) -> PredictionSet:
    records = read_csv(path)
    try:
        header = next(records)[2]
    except StopIteration:
        raise FormatError(f"{path}: empty predictions file") from None
    if header[:2] != ["id", "label"] or not all(h == f"prob_{i}" for i, h in enumerate(header[2:])):
        raise FormatError(f"{path}: malformed predictions header {header!r}")
    n_classes = len(header) - 2
    if n_classes < 1:
        raise FormatError(f"{path}: no probability columns")
    ids, labels, probs = [], [], []
    for _, line, row in records:
        if len(row) != 2 + n_classes:
            raise FormatError(f"{path} line {line}: expected {2 + n_classes} fields")
        ids.append(row[0])
        labels.append(read_int(row[1].strip(), f"{path} line {line}: label"))
        try:
            probs.append([float(v) for v in row[2:]])
        except ValueError as exc:
            raise FormatError(f"{path} line {line}: {exc}") from None
    if not ids:
        raise FormatError(f"{path}: predictions file has no rows")
    return PredictionSet(ids, np.asarray(probs), np.asarray(labels))


# ---------------------------------------------------------------------------
# Cross-validation
# ---------------------------------------------------------------------------


@dataclass
class FoldReport:
    fold_ids: list[int]
    uars: list[float]
    test_indices: list[np.ndarray]  # instance rows tested in each fold

    @property
    def mean(self) -> float:
        return float(np.mean(self.uars))


def kfold_cross_validate(features, labels, folds, spec, config, jobs: int = 1) -> FoldReport:
    """Distributor folds: test = fold f, dev = next fold cyclically, train = rest.

    Fold i is seeded by seed + i, for initialization and shuffling, so its
    result depends neither on the other folds nor on ``jobs``, the process count
    of ``workers.fork_map``, which runs them; each fold's line is logged here.

    Every process brings its own OpenBLAS pool, so with ``jobs > 1`` give
    each one BLAS thread (``OPENBLAS_NUM_THREADS=1``).  On 2 vCPUs, 48 log-mel
    maps in 4 folds of 60 epochs took 697-839 ms at jobs=2 against 516-529 ms
    at jobs=1 with the default pools, and 366-369 ms against 603-676 ms with
    one BLAS thread (medians of 5, two rounds).  ``evaluate --cv --jobs 2``
    in the benchmark's in-process pipeline took 1.9 s with the default pools
    against 0.24 s with one thread; perfbench pins one BLAS thread, so its
    ``cv_s`` does not show this.
    """
    features = np.asarray(features)
    labels = np.asarray(labels, dtype=np.int64)
    folds = check_whole("fold id", folds)
    if folds.shape != labels.shape or features.shape[0] != labels.shape[0]:
        raise ShapeError("features, labels and folds must align on the instance axis")
    fold_ids = [int(f) for f in np.unique(folds)]
    if len(fold_ids) < 2:
        raise ConfigError(f"cross-validation needs at least 2 folds, got {len(fold_ids)}")
    n, jobs = len(fold_ids), check_integer("jobs", jobs, 1)
    uars, test_indices = [None] * n, [None] * n
    for i, w, (uars[i], test_indices[i], seconds) in workers.fork_map(
            lambda i: _fold(i, features, labels, folds, fold_ids, spec, config), fold_ids, jobs, "folds"):
        log.info("fold %d: test UAR %.2f, %.2f s, worker %d", fold_ids[i], uars[i], seconds, w)
    return FoldReport(fold_ids, uars, test_indices)


def _fold(i, features, labels, folds, fold_ids, spec, config):
    """Fold ``i``'s (test UAR, test rows, seconds); its DeepSelfError names the fold."""
    from .training import predict_batches, train  # local import: trainer depends on this module

    started = time.perf_counter()
    test_mask, dev_mask = folds == fold_ids[i], folds == fold_ids[(i + 1) % len(fold_ids)]
    train_mask = ~(test_mask | dev_mask)
    try:
        model = init_model(replace(spec, seed=spec.seed + i))
        best, _ = train(model, (features[train_mask], labels[train_mask]),
                        (features[dev_mask], labels[dev_mask]), replace(config, seed=config.seed + i))
        pred, _ = predict_batches(best, features[test_mask], config.batch_size)
        fold_uar = float(uar_from_labels(labels[test_mask], pred, spec.n_classes))
    except DeepSelfError as exc:
        raise type(exc)(f"fold {fold_ids[i]}: {exc}") from exc
    return fold_uar, np.flatnonzero(test_mask), time.perf_counter() - started


def write_fold_report(report: FoldReport, path):
    rows = [[fold_id, f"{value:.6f}"] for fold_id, value in zip(report.fold_ids, report.uars)]
    write_csv(path, ["fold", "test_uar"], rows + [["mean", f"{report.mean:.6f}"]])
