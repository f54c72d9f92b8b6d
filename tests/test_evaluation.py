"""Metric, fusion, and cross-validation tests.

The UAR oracle below recomputes per-class recall with explicit loops and no
shared code with the package, per the acceptance contract.
"""

import functools
import logging
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import textwrap
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import deepself
from deepself.errors import ConfigError, DataError, DeepSelfError, FormatError, MetricError, NumericError, ShapeError
from deepself.evaluation import (
    ConfusionMatrix,
    FoldReport,
    PredictionSet,
    confusion_matrix,
    format_confusion,
    fuse_predictions,
    kfold_cross_validate,
    read_predictions,
    uar,
    uar_from_labels,
    write_fold_report,
    write_predictions,
)
from deepself.models import Conv, Dense, ModelSpec, Recurrent
from deepself.training import TrainConfig


def oracle_uar(truth, pred):
    """Brute-force per-class recall average, loops only (100 * mean recall)."""
    classes = sorted(set(int(t) for t in truth))
    recalls = []
    for c in classes:
        hits = sum(1 for t, p in zip(truth, pred) if t == c and p == c)
        total = sum(1 for t in truth if t == c)
        recalls.append(hits / total)
    return 100.0 * (sum(recalls) / len(recalls))


class TestConfusionMatrix:
    def test_perfect_predictions_are_diagonal(self):
        cm = confusion_matrix([0, 1, 2, 1], [0, 1, 2, 1], 3)
        np.testing.assert_array_equal(cm.counts, np.diag([1, 2, 1]))

    def test_hand_counted_example(self):
        cm = confusion_matrix([0, 0, 1, 1, 1], [0, 1, 1, 1, 0], 2)
        np.testing.assert_array_equal(cm.counts, [[1, 1], [1, 2]])
        assert cm.total == 5

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            confusion_matrix([0, 1, 0], [0, 1, 0, 1], 2)

    def test_fractional_class_count_rejected(self):
        with pytest.raises(ConfigError, match="must be an integer"):
            confusion_matrix([0, 1], [0, 1], 2.5)

    def test_out_of_range_label_rejected(self):
        with pytest.raises(DataError):
            confusion_matrix([0, 2], [0, 1], 2)
        with pytest.raises(DataError):
            confusion_matrix([0, 1], [0, -1], 2)

    def test_format_confusion_mentions_every_count(self):
        text = format_confusion(confusion_matrix([0, 0, 1, 1, 1], [0, 1, 1, 1, 0], 2))
        assert "1" in text and "2" in text and "true" in text


class TestUar:
    def test_perfect_is_100(self):
        assert uar(confusion_matrix([0, 1, 2], [0, 1, 2], 3)) == 100.0

    def test_constant_predictor_on_balanced_classes(self):
        assert uar(confusion_matrix([0, 0, 1, 1], [0, 0, 0, 0], 2)) == 50.0

    def test_hand_worked_example(self):
        value = uar(ConfusionMatrix(2, np.array([[1, 1], [1, 2]])))
        assert value == pytest.approx(100.0 * (0.5 + 2.0 / 3.0) / 2.0)

    def test_absent_classes_excluded(self):
        # only class 0 appears in truth; its recall alone defines the metric
        assert uar(confusion_matrix([0, 0], [0, 1], 3)) == 50.0

    def test_all_classes_absent_is_an_error(self):
        with pytest.raises(MetricError):
            uar(ConfusionMatrix(2, np.zeros((2, 2), dtype=np.int64)))

    def test_oracle_equivalence_over_random_pairs(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            c = int(rng.integers(2, 7))
            n = int(rng.integers(1, 51))
            truth = rng.integers(0, c, size=n)
            pred = rng.integers(0, c, size=n)
            assert uar_from_labels(truth, pred, c) == oracle_uar(truth, pred)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(7)
        truth = rng.integers(0, 4, size=40)
        pred = rng.integers(0, 4, size=40)
        perm = rng.permutation(4)
        base = uar_from_labels(truth, pred, 4)
        permuted = uar_from_labels(perm[truth], perm[pred], 4)
        assert permuted == pytest.approx(base, abs=1e-12)

    def test_range_and_self_consistency(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            c = int(rng.integers(2, 5))
            truth = rng.integers(0, c, size=int(rng.integers(1, 30)))
            pred = rng.integers(0, c, size=truth.size)
            value = uar_from_labels(truth, pred, c)
            assert 0.0 <= value <= 100.0
            assert uar_from_labels(truth, truth, c) == 100.0


class TestPredictionSet:
    def test_argmax_tie_breaks_low(self):
        pset = PredictionSet.from_probabilities(["a", "b"], [[0.5, 0.5], [0.2, 0.8]])
        np.testing.assert_array_equal(pset.labels, [0, 1])

    def test_rows_must_sum_to_one(self):
        with pytest.raises(DataError, match="b"):
            PredictionSet(["a", "b"], np.array([[0.5, 0.5], [0.9, 0.3]]), np.array([0, 0]))

    def test_id_count_must_match(self):
        with pytest.raises(ShapeError):
            PredictionSet.from_probabilities(["a"], [[0.5, 0.5], [0.5, 0.5]])


class TestFusion:
    def _make(self, probs, ids=None):
        probs = np.asarray(probs, dtype=np.float64)
        ids = ids or [f"s{i}" for i in range(probs.shape[0])]
        return PredictionSet.from_probabilities(ids, probs)

    def test_identical_sets_are_a_fixed_point(self):
        base = self._make([[0.7, 0.3], [0.1, 0.9], [0.5, 0.5]])
        for mode in ("mean", "vote"):
            fused = fuse_predictions([base, base, base], mode)
            # probabilities agree up to summation order ((p+p+p)/3 is 1 ulp off p)
            np.testing.assert_allclose(fused.probabilities, base.probabilities, rtol=1e-12)
            np.testing.assert_array_equal(fused.labels, base.labels)
            assert fused.ids == base.ids

    def test_single_set_identity(self):
        base = self._make([[0.7, 0.3], [0.1, 0.9]])
        for mode in ("mean", "vote"):
            fused = fuse_predictions([base], mode)
            np.testing.assert_array_equal(fused.probabilities, base.probabilities)
            np.testing.assert_array_equal(fused.labels, base.labels)

    def test_mean_mode_arithmetic(self):
        fused = fuse_predictions([self._make([[0.8, 0.2]]), self._make([[0.4, 0.6]])], "mean")
        np.testing.assert_allclose(fused.probabilities, [[0.6, 0.4]])
        assert fused.labels[0] == 0

    def test_vote_tie_goes_to_lowest_class(self):
        a = self._make([[0.9, 0.1]])   # votes 0
        b = self._make([[0.2, 0.8]])   # votes 1
        fused = fuse_predictions([a, b], "vote")
        assert fused.labels[0] == 0

    def test_vote_majority_wins(self):
        a = self._make([[0.2, 0.8]])
        b = self._make([[0.3, 0.7]])
        c = self._make([[0.9, 0.1]])
        fused = fuse_predictions([a, b, c], "vote")
        assert fused.labels[0] == 1

    def test_fused_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        sets = []
        for _ in range(3):
            raw = rng.uniform(0.1, 1.0, size=(6, 4))
            sets.append(self._make(raw / raw.sum(axis=1, keepdims=True)))
        for mode in ("mean", "vote"):
            fused = fuse_predictions(sets, mode)
            np.testing.assert_allclose(fused.probabilities.sum(axis=1), 1.0, atol=1e-6)

    def test_mismatched_ids_rejected(self):
        a = self._make([[0.6, 0.4]], ids=["x"])
        b = self._make([[0.6, 0.4]], ids=["y"])
        with pytest.raises(DataError, match="x"):
            fuse_predictions([a, b], "mean")

    def test_mismatched_class_count_rejected(self):
        a = self._make([[0.6, 0.4]])
        b = self._make([[0.3, 0.3, 0.4]])
        with pytest.raises(DataError):
            fuse_predictions([a, b], "mean")

    def test_empty_and_bad_mode_rejected(self):
        with pytest.raises(ConfigError):
            fuse_predictions([], "mean")
        with pytest.raises(ConfigError):
            fuse_predictions([self._make([[1.0, 0.0]])], "blend")


class TestPredictionsCsv:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        raw = rng.uniform(0.05, 1.0, size=(7, 3))
        pset = PredictionSet.from_probabilities(
            [f"clip_{i}.wav" for i in range(7)], raw / raw.sum(axis=1, keepdims=True))
        path = tmp_path / "pred.csv"
        write_predictions(pset, path)
        back = read_predictions(path)
        assert back.ids == pset.ids
        np.testing.assert_array_equal(back.probabilities, pset.probabilities)
        np.testing.assert_array_equal(back.labels, pset.labels)

    def test_header_is_documented_shape(self, tmp_path):
        pset = PredictionSet.from_probabilities(["a"], [[0.25, 0.75]])
        path = tmp_path / "pred.csv"
        write_predictions(pset, path)
        assert path.read_text().splitlines()[0] == "id,label,prob_0,prob_1"

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,score,prob_0\nx,1,0.5\n")
        with pytest.raises(FormatError):
            read_predictions(path)

    def test_bad_cell_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,label,prob_0,prob_1\nx,1,0.5,oops\n")
        with pytest.raises(FormatError, match="line 2"):
            read_predictions(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(FormatError):
            read_predictions(path)

    def test_whitespace_only_row_is_skipped(self, tmp_path):
        path = tmp_path / "pred.csv"
        path.write_text("\nid,label,prob_0,prob_1\nx,0,1.0,0.0\n   \ny,1,0.0,1.0\n")
        back = read_predictions(path)
        assert back.ids == ["x", "y"]
        np.testing.assert_array_equal(back.labels, [0, 1])

    def test_error_after_an_id_spanning_two_lines_names_the_physical_line(self, tmp_path):
        path = tmp_path / "pred.csv"
        path.write_text('id,label,prob_0,prob_1\n"x\ny",0,1.0,0.0\nz,1,0.0\n')
        with pytest.raises(FormatError, match="line 4: expected 4 fields"):
            read_predictions(path)

    @pytest.mark.parametrize("label", ["+1", "1_0", "\u0660", "1.0", "9" * 5000],
                             ids=["+1", "1_0", "arabic-indic-zero", "1.0", "5000-digits"])
    def test_label_int_reads_but_is_not_ascii_digits_is_format_error(self, tmp_path, label):
        path = tmp_path / "pred.csv"
        path.write_text(f"id,label,prob_0,prob_1\nok,0,1.0,0.0\nx,{label},0.5,0.5\n", encoding="utf-8")
        with pytest.raises(FormatError, match=f"{re.escape(str(path))} line 3: label holds"):
            read_predictions(path)

    @pytest.mark.parametrize("row, match", [
        ("x,5,0.5,0.5", "label 5 for id 'x'"),
        ("x,2,0.5,0.5", "label 2 for id 'x'"),
        ("x,-1,0.5,0.5", "label -1 for id 'x'"),
        ("x,0,nan,0.5", "probability nan of class 0 for id 'x'"),
        ("x,0,1.5,-0.5", "probability 1.5 of class 0 for id 'x'"),
    ])
    def test_impossible_row_rejected(self, tmp_path, row, match):
        path = tmp_path / "bad.csv"
        path.write_text(f"id,label,prob_0,prob_1\nok,0,1.0,0.0\n{row}\n")
        with pytest.raises(DataError, match=match):
            read_predictions(path)


def _blob_dataset(rng, n):
    """Two linearly separable 2-D blobs."""
    labels = rng.integers(0, 2, size=n)
    centers = np.array([[-1.5, -1.5], [1.5, 1.5]])
    features = centers[labels] + 0.3 * rng.standard_normal((n, 2))
    return features.astype(np.float32), labels


# tiny models of each topology: (input shape, layers)
KFOLD_MODELS = {
    "fnn": ((2,), (Dense(8),)),
    "cnn1d": ((1, 12), (Conv(1, 3, (3,), (2,), (1,)), Dense(4))),
    "bigru": ((5, 2), (Recurrent("gru", 4, 1, "bi"),)),
}


def _kfold_inputs(model, n=24, k=4, epochs=2):
    """A noisy two-class set shaped for ``model`` (so each fold's UAR depends on its
    seeds), its folds, spec and config."""
    shape, layers = KFOLD_MODELS[model]
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 2, size=n)
    features = 0.3 * (labels[:, None] * 2.0 - 1.0) + rng.standard_normal((n, int(np.prod(shape))))
    spec = ModelSpec(shape, layers, 2, seed=1)
    config = TrainConfig(learning_rate=0.05, batch_size=8, epochs=epochs, optimizer="adam", seed=1)
    return features.reshape((n,) + shape).astype(np.float32), labels, np.arange(n) % k, spec, config


@functools.lru_cache(maxsize=None)
def _serial_report(model):
    return kfold_cross_validate(*_kfold_inputs(model))


def _run_script(tmp_path, code, **env):
    """The stdout words of ``code`` run as a script, with no ``__main__`` guard, in a new
    interpreter that imports deepself and this test module."""
    script = tmp_path / "script.py"
    script.write_text(textwrap.dedent(code))
    paths = [Path(deepself.__file__).resolve().parent.parent, Path(__file__).resolve().parent]
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(map(str, paths))}
    proc = subprocess.run([sys.executable, str(script)], env=env, capture_output=True, text=True,
                          timeout=120)  # a deadlocked worker fails the test instead of hanging it
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


@dataclass(frozen=True)
class FoldTrap(TrainConfig):
    """A TrainConfig that, once derived for fold index ``fold`` from the base seed 1 of
    ``_kfold_inputs``, raises ``NumericError`` or, with ``kill``, SIGKILLs its own process;
    derived for fold index ``slow``, it sleeps for 30 s."""
    fold: int = -1
    kill: bool = False
    slow: int = -1

    def __post_init__(self):
        super().__post_init__()
        if self.seed == 1 + self.slow:
            time.sleep(30)
        if self.seed == 1 + self.fold:
            if self.kill:
                os.kill(os.getpid(), signal.SIGKILL)
            raise NumericError("injected")


class TestKFold:
    def _run(self, n=36, k=4, epochs=3):
        rng = np.random.default_rng(0)
        features, labels = _blob_dataset(rng, n)
        folds = np.arange(n) % k
        spec = ModelSpec((2,), (Dense(8),), 2, seed=1)
        config = TrainConfig(learning_rate=0.05, batch_size=8, epochs=epochs,
                             optimizer="adam", seed=1)
        return n, kfold_cross_validate(features, labels, folds, spec, config)

    def test_reports_one_uar_per_fold_plus_mean(self):
        _, report = self._run()
        assert report.fold_ids == [0, 1, 2, 3]
        assert len(report.uars) == 4
        assert report.mean == pytest.approx(float(np.mean(report.uars)))

    def test_every_instance_tested_exactly_once(self):
        n, report = self._run()
        tested = np.concatenate(report.test_indices)
        assert len(tested) == n
        np.testing.assert_array_equal(np.sort(tested), np.arange(n))

    def test_learnable_task_reaches_high_uar(self):
        _, report = self._run(n=60, k=5, epochs=10)
        assert report.mean >= 95.0

    @pytest.mark.parametrize("jobs", [1, 2, 3, 5])  # 5 jobs for 4 folds
    @pytest.mark.parametrize("model", sorted(KFOLD_MODELS))
    def test_same_report_at_any_job_count(self, model, jobs):
        serial = _serial_report(model)
        report = kfold_cross_validate(*_kfold_inputs(model), jobs=jobs)
        assert report.fold_ids == serial.fold_ids
        assert np.array(report.uars).tobytes() == np.array(serial.uars).tobytes()
        for got, expected in zip(report.test_indices, serial.test_indices, strict=True):
            np.testing.assert_array_equal(got, expected)
        assert multiprocessing.active_children() == []

    def test_logs_one_line_per_fold(self, caplog):
        caplog.set_level(logging.INFO, logger="deepself.evaluation")
        kfold_cross_validate(*_kfold_inputs("fnn"), jobs=2)
        lines = [r.getMessage() for r in caplog.records if r.name == "deepself.evaluation"]
        assert [line.split(":")[0] for line in lines] == ["fold 0", "fold 2", "fold 1", "fold 3"]
        assert re.fullmatch(r"fold 1: test UAR \d+\.\d\d, \d+\.\d\d s, worker 1", lines[2])

    @pytest.mark.parametrize("fold, jobs", [(3, 2), (2, 2), (1, 1)])  # a worker's, the caller's, serial
    def test_fold_error_names_its_fold_and_keeps_its_class(self, fold, jobs):
        features, labels, folds, spec, config = _kfold_inputs("fnn")
        trap = FoldTrap(**vars(config), fold=fold)
        with pytest.raises(NumericError, match=rf"^fold {fold}: injected$"):
            kfold_cross_validate(features, labels, folds, spec, trap, jobs=jobs)
        assert multiprocessing.active_children() == []

    def test_killed_worker_names_its_folds(self):
        features, labels, folds, spec, config = _kfold_inputs("fnn")
        trap = FoldTrap(**vars(config), fold=1, kill=True)
        with pytest.raises(DeepSelfError, match=r"folds 1, 3 exited with code -9"):
            kfold_cross_validate(features, labels, folds, spec, trap, jobs=2)
        assert multiprocessing.active_children() == []

    def test_failed_fold_stops_a_worker_that_handles_sigterm(self):
        features, labels, folds, spec, config = _kfold_inputs("fnn")
        trap = FoldTrap(**vars(config), fold=2, slow=1)  # the caller's fold 2 fails, worker 1 sleeps
        previous = signal.signal(signal.SIGTERM, lambda signum, frame: None)  # a forked worker keeps it
        try:
            started = time.perf_counter()
            with pytest.raises(NumericError, match=r"^fold 2: injected$"):
                kfold_cross_validate(features, labels, folds, spec, trap, jobs=2)
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert time.perf_counter() - started < 10
        assert multiprocessing.active_children() == []

    def test_script_needs_no_main_guard(self, tmp_path):
        words = _run_script(tmp_path, """
            import numpy as np
            from deepself.evaluation import kfold_cross_validate
            from test_evaluation import _kfold_inputs
            print(np.array(kfold_cross_validate(*_kfold_inputs("fnn"), jobs=2).uars).tobytes().hex())
        """)
        assert words == [np.array(_serial_report("fnn").uars).tobytes().hex()]

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="OpenBLAS starts one thread per CPU at most")
    def test_fork_with_a_live_blas_pool(self, tmp_path):
        threads, serial, forked = _run_script(tmp_path, """
            import os
            import numpy as np
            from deepself.evaluation import kfold_cross_validate
            from test_evaluation import _kfold_inputs
            a = np.ones((1024, 1024))
            a @ a  # the BLAS pool's threads are now started and idle
            print(len(os.listdir("/proc/self/task")))
            for jobs in (1, 3):
                print(np.array(kfold_cross_validate(*_kfold_inputs("fnn"), jobs=jobs).uars).tobytes().hex())
        """, OPENBLAS_NUM_THREADS="2")
        assert threads == "2"
        assert forked == serial

    @pytest.mark.parametrize("folds, message", [
        ([0.5, 0.5, 1.5, 1.5, 2.5, 2.5], r"fold id 0\.5 at row 0 is not a whole number"),
        ([0, 0, 1, 1, 2, np.nan], r"fold id nan at row 5 is not a whole number"),
        ([0, 0, 1, 1, 2, np.inf], r"fold id inf at row 5 is not a whole number"),
        (["a", "a", "b", "b", "c", "c"], r"fold ids must be numbers"),
    ])
    def test_fold_ids_must_be_whole_numbers(self, folds, message):
        features, labels = _blob_dataset(np.random.default_rng(1), 6)
        spec = ModelSpec((2,), (Dense(4),), 2)
        with pytest.raises(DataError, match=message):
            kfold_cross_validate(features, labels, np.array(folds), spec, TrainConfig())

    def test_whole_float_fold_ids_match_integer_ones(self):
        features, labels, folds, spec, config = _kfold_inputs("fnn")
        report = kfold_cross_validate(features, labels, folds.astype(np.float64), spec, config)
        assert report.fold_ids == [0, 1, 2, 3]
        assert report.uars == _serial_report("fnn").uars

    def test_single_fold_rejected(self):
        rng = np.random.default_rng(1)
        features, labels = _blob_dataset(rng, 10)
        spec = ModelSpec((2,), (Dense(4),), 2)
        with pytest.raises(ConfigError):
            kfold_cross_validate(features, labels, np.zeros(10), spec, TrainConfig())

    def test_two_folds_leave_no_training_data(self):
        rng = np.random.default_rng(2)
        features, labels = _blob_dataset(rng, 10)
        spec = ModelSpec((2,), (Dense(4),), 2)
        with pytest.raises(DataError):
            kfold_cross_validate(features, labels, np.arange(10) % 2, spec, TrainConfig())


class TestFoldReportCsv:
    def test_layout(self, tmp_path):
        report = FoldReport([0, 1, 2], [80.0, 90.0, 85.0], [np.array([0]), np.array([1]), np.array([2])])
        path = tmp_path / "folds.csv"
        write_fold_report(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "fold,test_uar"
        assert lines[1].startswith("0,80.0")
        assert lines[-1].startswith("mean,85.0")
