"""Confusion-matrix/UAR metrics, distributor-fold cross-validation, late fusion.

UAR averages per-class recall over the classes that actually appear in the
truth labels; classes with no true instances carry no defined recall and are
excluded.  Argmax ties break to the lowest class index everywhere.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace

import numpy as np

from .data import csv_records, read_text
from .errors import ConfigError, DataError, FormatError, MetricError, ShapeError, check_integer
from .files import atomic_write
from .models import init_model


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
    truth = np.asarray(truth, dtype=np.int64)
    pred = np.asarray(pred, dtype=np.int64)
    if truth.shape != pred.shape or truth.ndim != 1 or truth.size < 1:
        raise ShapeError(
            f"truth and predictions must be equal-length non-empty vectors, "
            f"got {truth.shape} vs {pred.shape}"
        )
    n_classes = check_integer("n_classes", n_classes, 1)
    for name, labels in (("truth", truth), ("prediction", pred)):
        bad = (labels < 0) | (labels >= n_classes)
        if bad.any():
            raise DataError(
                f"{name} label {labels[bad][0]} outside [0, {n_classes})"
            )
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
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.shape != (len(self.ids),):
            raise ShapeError("need exactly one label per id")
        bad = np.flatnonzero((self.labels < 0) | (self.labels >= self.n_classes))
        if bad.size:
            raise DataError(f"label {self.labels[bad[0]]} for id {self.ids[bad[0]]!r} "
                            f"is outside [0, {self.n_classes})")
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
    with atomic_write(path, text=True) as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "label"] + [f"prob_{c}" for c in range(pset.n_classes)])
        for i, instance_id in enumerate(pset.ids):
            row = [instance_id, int(pset.labels[i])]
            row += [repr(float(v)) for v in pset.probabilities[i]]
            writer.writerow(row)


def read_predictions(path) -> PredictionSet:
    with io.StringIO(read_text(path), newline="") as fh:
        reader = csv_records(fh, path)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{path}: empty predictions file") from None
        if header[:2] != ["id", "label"] or not all(
            h == f"prob_{i}" for i, h in enumerate(header[2:])
        ):
            raise FormatError(f"{path}: malformed predictions header {header!r}")
        n_classes = len(header) - 2
        if n_classes < 1:
            raise FormatError(f"{path}: no probability columns")
        ids, labels, probs = [], [], []
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2 + n_classes:
                raise FormatError(f"{path} line {row_no}: expected {2 + n_classes} fields")
            try:
                ids.append(row[0])
                labels.append(int(row[1]))
                probs.append([float(v) for v in row[2:]])
            except ValueError as exc:
                raise FormatError(f"{path} line {row_no}: {exc}") from None
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


def kfold_cross_validate(features, labels, folds, spec, config) -> FoldReport:
    """Distributor folds: test = fold f, dev = next fold cyclically, train = rest.

    Per-fold seeds are derived as seed + fold_index for both initialization
    and shuffling, so each fold's result does not depend on the others.
    """
    from .training import predict_batches, train  # local import: trainer depends on this module

    features = np.asarray(features)
    labels = np.asarray(labels, dtype=np.int64)
    folds = np.asarray(folds)
    if folds.shape != labels.shape or features.shape[0] != labels.shape[0]:
        raise ShapeError("features, labels and folds must align on the instance axis")
    fold_ids = sorted(int(f) for f in np.unique(folds))
    if len(fold_ids) < 2:
        raise ConfigError(f"cross-validation needs at least 2 folds, got {len(fold_ids)}")

    uars, test_indices = [], []
    for i, test_fold in enumerate(fold_ids):
        dev_fold = fold_ids[(i + 1) % len(fold_ids)]
        test_mask = folds == test_fold
        dev_mask = folds == dev_fold
        train_mask = ~(test_mask | dev_mask)
        if not train_mask.any():
            raise DataError(
                f"fold {test_fold}: no training instances remain after holding out "
                f"test fold {test_fold} and dev fold {dev_fold}"
            )
        fold_config = replace(config, seed=config.seed + i)
        model = init_model(replace(spec, seed=spec.seed + i))
        best, _ = train(model, (features[train_mask], labels[train_mask]),
                        (features[dev_mask], labels[dev_mask]), fold_config)
        pred, _ = predict_batches(best, features[test_mask], config.batch_size)
        uars.append(float(uar_from_labels(labels[test_mask], pred, spec.n_classes)))
        test_indices.append(np.flatnonzero(test_mask))
    return FoldReport(fold_ids, uars, test_indices)


def write_fold_report(report: FoldReport, path):
    with atomic_write(path, text=True) as fh:
        writer = csv.writer(fh)
        writer.writerow(["fold", "test_uar"])
        for fold_id, value in zip(report.fold_ids, report.uars):
            writer.writerow([fold_id, f"{value:.6f}"])
        writer.writerow(["mean", f"{report.mean:.6f}"])
