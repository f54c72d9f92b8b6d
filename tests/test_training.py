"""Optimizer, training-loop, checkpoint, and fine-tuning tests."""

import logging
import math
import os
import struct
from dataclasses import replace

import numpy as np
import pytest

from deepself.errors import (
    ConfigError,
    DataError,
    FormatError,
    IntegrityError,
    NumericError,
    ShapeError,
    TruncatedFileError,
    VersionError,
)
from deepself.evaluation import PredictionSet, confusion_matrix
from deepself.models import Conv, Dense, ModelSpec, Recurrent, checkpoint_arrays, forward, init_model
from deepself import training
from deepself.tensor import Tensor, backward, softmax_cross_entropy
from deepself.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    AdamState,
    TrainConfig,
    adam_step,
    evaluate_uar,
    fine_tune,
    inference_blocks,
    load_checkpoint,
    predict_batches,
    read_checkpoint,
    save_checkpoint,
    sgd_step,
    train,
    train_step,
    write_history,
)
from predict_oracle import oracle_predict_batches


def blob_dataset(rng, n, spread=0.3):
    labels = rng.integers(0, 2, size=n)
    centers = np.array([[-1.5, -1.5], [1.5, 1.5]])
    features = centers[labels] + spread * rng.standard_normal((n, 2))
    return features.astype(np.float32), labels


def tiny_model():
    return init_model(ModelSpec((2,), (Dense(4),), 2))


# every site that takes class labels, called with four labels of a two-class problem
LABEL_SITES = {
    "train": lambda y: train(tiny_model(), (np.zeros((4, 2), np.float32), y),
                             (np.zeros((4, 2), np.float32), np.zeros(4, np.int64)), TrainConfig(epochs=1)),
    "train_step": lambda y: train_step(tiny_model(), AdamState(), np.zeros((4, 2), np.float32), y, TrainConfig()),
    "softmax_cross_entropy": lambda y: softmax_cross_entropy(Tensor(np.zeros((4, 2))), y),
    "confusion_matrix": lambda y: confusion_matrix(y, [0, 1, 0, 1], 2),
    "PredictionSet": lambda y: PredictionSet(list("abcd"), np.full((4, 2), 0.5), y),
}


@pytest.mark.parametrize("site", sorted(LABEL_SITES))
def test_labels_must_be_whole_class_indices(site):
    call = LABEL_SITES[site]
    call(np.array([0.0, 1.0, 1.0, 0.0]))  # whole numbers stored as floats load
    for labels, message in (
        ([0.5, 1.9, 0.1, 1.2], r"label 0\.5 (at row 0|for id 'a') is not a whole number"),
        ([0, 1, np.nan, 1], r"label nan (at row 2|for id 'c') is not a whole number"),
        ([0, 5, 0, 1], r"label 5 (at row 1|for id 'b') is outside \[0, 2\)"),
        ([0, 1, -1, 1], r"label -1 (at row 2|for id 'c') is outside \[0, 2\)"),
    ):
        with pytest.raises(DataError, match=message):
            call(labels)


class TestTrainConfig:
    def test_defaults_valid(self):
        cfg = TrainConfig()
        assert cfg.optimizer == "adam"

    def test_domain_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0)
        with pytest.raises(ConfigError, match="sgd"):
            TrainConfig(optimizer="nadam")

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
    def test_non_finite_learning_rate_rejected(self, lr):
        with pytest.raises(ConfigError, match="learning_rate"):
            TrainConfig(learning_rate=lr)

    @pytest.mark.parametrize("field", ["batch_size", "epochs", "seed"])
    def test_integer_fields_reject_fractions(self, field):
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            TrainConfig(**{field: 2.5})

    def test_numpy_integers_accepted(self):
        cfg = TrainConfig(batch_size=np.int64(4), epochs=np.int32(2), seed=np.uint8(3))
        assert (cfg.batch_size, cfg.epochs, cfg.seed) == (4, 2, 3)


class TestSgdStep:
    def test_definition(self):
        params = {"w": Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)}
        sgd_step(params, {"w": np.array([0.5], dtype=np.float32)}, 0.1)
        np.testing.assert_allclose(params["w"].data, [0.95], rtol=1e-6)

    def test_zero_learning_rate_is_identity(self):
        params = {"w": Tensor(np.array([1.0, -2.0]), requires_grad=True)}
        before = params["w"].data.copy()
        sgd_step(params, {"w": np.array([3.0, 4.0])}, 0.0)
        np.testing.assert_array_equal(params["w"].data, before)

    def test_zero_gradient_is_identity(self):
        params = {"w": Tensor(np.array([1.0, -2.0]), requires_grad=True)}
        before = params["w"].data.copy()
        sgd_step(params, {"w": np.zeros(2)}, 0.5)
        np.testing.assert_array_equal(params["w"].data, before)

    def test_shape_mismatch_rejected(self):
        params = {"w": Tensor(np.zeros(3), requires_grad=True)}
        with pytest.raises(ShapeError):
            sgd_step(params, {"w": np.zeros(4)}, 0.1)


class TestAdamStep:
    def test_first_step_magnitude_is_learning_rate(self):
        grads = np.array([0.5, -2.0, 0.01], dtype=np.float64)
        params = {"w": Tensor(np.zeros(3, dtype=np.float64), requires_grad=True)}
        adam_step(params, {"w": grads}, AdamState(), lr=0.001)
        # bias-corrected first step: lr * g / (|g| + eps) ~= lr * sign(g)
        np.testing.assert_allclose(np.abs(params["w"].data), 0.001, rtol=1e-4)
        np.testing.assert_array_equal(np.sign(params["w"].data), -np.sign(grads))

    def test_zero_gradient_and_state_is_identity(self):
        params = {"w": Tensor(np.array([5.0]), requires_grad=True)}
        adam_step(params, {"w": np.zeros(1)}, AdamState(), lr=0.1)
        np.testing.assert_array_equal(params["w"].data, [5.0])

    def test_monotone_decrease_on_constant_gradient(self):
        params = {"w": Tensor(np.array([1.0], dtype=np.float64), requires_grad=True)}
        state = AdamState()
        seen = [params["w"].data.item()]
        for _ in range(2):
            adam_step(params, {"w": np.ones(1)}, state, lr=0.001)
            seen.append(params["w"].data.item())
        assert seen[0] > seen[1] > seen[2]
        assert state.t == 2

    def test_updates_are_elementwise(self):
        rng = np.random.default_rng(4)
        theta = rng.standard_normal(6)
        grads = rng.standard_normal(6)
        perm = rng.permutation(6)

        direct = {"w": Tensor(theta.copy(), requires_grad=True)}
        adam_step(direct, {"w": grads.copy()}, AdamState(), lr=0.01)

        permuted = {"w": Tensor(theta[perm].copy(), requires_grad=True)}
        adam_step(permuted, {"w": grads[perm].copy()}, AdamState(), lr=0.01)
        np.testing.assert_allclose(direct["w"].data[perm], permuted["w"].data, rtol=1e-12)

    def test_shape_mismatch_rejected(self):
        params = {"w": Tensor(np.zeros(3), requires_grad=True)}
        with pytest.raises(ShapeError):
            adam_step(params, {"w": np.zeros((3, 1))}, AdamState(), lr=0.1)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_flat_pass_equals_per_parameter_loop(self, dtype):
        rng = np.random.default_rng(5)
        shapes = {"a.weight": (4, 3), "a.bias": (3,), "frozen": (2, 2), "b.weight": (3, 2, 2), "b.bias": (3,)}
        init = {name: rng.standard_normal(shape).astype(dtype) for name, shape in shapes.items()}
        params = {name: Tensor(arr.copy(), requires_grad=True) for name, arr in init.items()}
        ref = {name: arr.copy() for name, arr in init.items()}
        ref_m = {name: np.zeros_like(arr) for name, arr in init.items()}
        ref_v = {name: np.zeros_like(arr) for name, arr in init.items()}
        state = AdamState()
        for t in range(1, 6):
            grads = {name: rng.standard_normal(shape).astype(dtype)
                     for name, shape in shapes.items() if name != "frozen"}
            adam_step(params, grads, state, lr=0.01)
            # the per-parameter formula, in the same order of operations
            bc1, bc2 = 1.0 - ADAM_BETA1 ** t, 1.0 - ADAM_BETA2 ** t
            for name, grad in grads.items():
                m, v = ref_m[name], ref_v[name]
                m *= ADAM_BETA1
                m += (1.0 - ADAM_BETA1) * grad
                v *= ADAM_BETA2
                v += (1.0 - ADAM_BETA2) * np.square(grad)
                ref[name] -= (0.01 * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPSILON)).astype(dtype, copy=False)
        assert state.t == 5
        for name in shapes:
            assert params[name].data.dtype == dtype
            np.testing.assert_array_equal(params[name].data, ref[name])
        np.testing.assert_array_equal(params["frozen"].data, init["frozen"])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shapes", [{"w": (5,)}, {"a.weight": (4, 3), "a.bias": (3,), "b.weight": (3, 2, 2)}],
                             ids=["one", "several"])
    def test_gradients_passed_are_left_unchanged(self, shapes, dtype):
        rng = np.random.default_rng(6)
        params = {name: Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)
                  for name, shape in shapes.items()}
        state = AdamState()
        for _ in range(3):
            grads = {name: rng.standard_normal(shape).astype(dtype) for name, shape in shapes.items()}
            before = {name: grad.copy() for name, grad in grads.items()}
            adam_step(params, grads, state, lr=0.01)
            for name, grad in grads.items():
                assert grad.tobytes() == before[name].tobytes()

    def test_changed_gradient_names_rejected(self):
        params = {n: Tensor(np.zeros(2), requires_grad=True) for n in ("a", "b")}
        state = AdamState()
        adam_step(params, {"a": np.ones(2)}, state, lr=0.1)
        with pytest.raises(ConfigError, match="state covers"):
            adam_step(params, {"a": np.ones(2), "b": np.ones(2)}, state, lr=0.1)
        with pytest.raises(ConfigError):
            adam_step(params, {"b": np.ones(2)}, state, lr=0.1)

    def test_dtype_mismatch_rejected(self):
        params = {"a": Tensor(np.zeros(2, dtype=np.float32), requires_grad=True),
                  "b": Tensor(np.zeros(2, dtype=np.float64), requires_grad=True)}
        with pytest.raises(ShapeError, match="gradient for a has dtype float64"):
            adam_step(params, {"a": np.ones(2)}, AdamState(), lr=0.1)
        with pytest.raises(ShapeError, match="parameter b is float64"):
            adam_step(params, {"a": np.ones(2, dtype=np.float32), "b": np.ones(2)}, AdamState(), lr=0.1)


def optimizer_step(optimizer, params, grads):
    if optimizer == "sgd":
        sgd_step(params, grads, 0.1)
    else:
        adam_step(params, grads, AdamState(), 0.1)


@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
class TestOptimizerChecks:
    def test_gradient_for_unknown_parameter_is_config_error(self, optimizer):
        params = {"w": Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)}
        grads = {"w": np.ones(2, dtype=np.float32), "ghost": np.ones(2, dtype=np.float32)}
        with pytest.raises(ConfigError, match="ghost"):
            optimizer_step(optimizer, params, grads)
        np.testing.assert_array_equal(params["w"].data, [0.0, 0.0])

    def test_float64_gradient_on_float32_parameter_rejected(self, optimizer):
        params = {"w": Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)}
        with pytest.raises(ShapeError, match="gradient for w has dtype float64, parameter float32"):
            optimizer_step(optimizer, params, {"w": np.ones(2)})
        np.testing.assert_array_equal(params["w"].data, [0.0, 0.0])


class TestTrainLoop:
    def _train_blobs(self, seed=0, epochs=30, n_train=40, n_dev=20, lr=0.05):
        rng = np.random.default_rng(seed)
        train_set = blob_dataset(rng, n_train)
        dev_set = blob_dataset(rng, n_dev)
        model = init_model(ModelSpec((2,), (Dense(8),), 2, seed=seed))
        config = TrainConfig(learning_rate=lr, batch_size=8, epochs=epochs,
                             optimizer="adam", seed=seed)
        best, history = train(model, train_set, dev_set, config)
        return best, history, dev_set

    def test_learns_separable_blobs(self):
        best, history, dev_set = self._train_blobs()
        assert history[-1].train_loss < history[0].train_loss
        assert evaluate_uar(best, dev_set) == 100.0

    def test_returned_model_matches_best_history_entry(self):
        best, history, dev_set = self._train_blobs(seed=3, epochs=12)
        dev_uars = [rec.dev_uar for rec in history]
        assert evaluate_uar(best, dev_set) == dev_uars[dev_uars.index(max(dev_uars))]

    def test_restores_the_earliest_best_dev_epoch(self, monkeypatch):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        rng = np.random.default_rng(5)
        train_set, dev_set = blob_dataset(rng, 8), blob_dataset(rng, 4)
        config = TrainConfig(learning_rate=0.1, batch_size=4, epochs=1, optimizer="sgd")

        @hypothesis.settings(max_examples=40, deadline=None, database=None)
        @hypothesis.given(st.lists(st.integers(0, 4).map(lambda v: 25.0 * v), min_size=1, max_size=8))
        def check(dev_uars):
            seen = []  # each epoch's parameters, as the dev evaluation saw them

            def fake_evaluate_uar(model, dataset, batch_size):
                seen.append({name: p.data.copy() for name, p in model.params.items()})
                return dev_uars[len(seen) - 1]

            monkeypatch.setattr(training, "evaluate_uar", fake_evaluate_uar)
            model = init_model(ModelSpec((2,), (Dense(3),), 2))
            best, history = train(model, train_set, dev_set, replace(config, epochs=len(dev_uars)))
            assert [rec.dev_uar for rec in history] == dev_uars
            expected = seen[dev_uars.index(max(dev_uars))]
            assert {name: p.data.tobytes() for name, p in best.params.items()} == {
                name: arr.tobytes() for name, arr in expected.items()}

        check()

    def test_history_has_one_record_per_epoch(self):
        _, history, _ = self._train_blobs(epochs=7)
        assert [rec.epoch for rec in history] == list(range(1, 8))

    def test_deterministic_given_seed(self, tmp_path):
        paths = []
        for run in range(2):
            best, _, _ = self._train_blobs(seed=11, epochs=5)
            path = tmp_path / f"run{run}.ckpt"
            save_checkpoint(best, {"run": "x"}, path)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_loss_decreases_over_sgd_steps_on_fixed_batch(self):
        rng = np.random.default_rng(9)
        features, labels = blob_dataset(rng, 16)
        model = init_model(ModelSpec((2,), (Dense(8),), 2, seed=9))
        config = TrainConfig(learning_rate=1e-3, batch_size=16, epochs=10,
                             optimizer="sgd", seed=9)
        _, history = train(model, (features, labels), (features, labels), config)
        losses = [rec.train_loss for rec in history]
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_each_sgd_step_applies_only_its_own_batch_gradient(self):
        rng = np.random.default_rng(4)
        features = rng.standard_normal((8, 2))
        labels = np.array([0, 1, 1, 0, 1, 0, 0, 1])
        model = init_model(ModelSpec((2,), (Dense(3),), 2, seed=4), dtype=np.float64)
        p = {name: arr.copy() for name, arr in checkpoint_arrays(model)}
        lr = 0.5
        # train's one epoch of seed 0 visits the rows in this order
        order = np.random.default_rng(0).permutation(8)
        batches = (order[:4], order[4:])
        for rows in batches:
            # relu(x W0 + b0) W1 + b1, mean cross-entropy, gradients by hand
            x, y = features[rows], labels[rows]
            z = x @ p["layer0.weight"] + p["layer0.bias"]
            h = np.maximum(z, 0.0)
            logits = h @ p["head.weight"] + p["head.bias"]
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            d = (e / e.sum(axis=1, keepdims=True) - np.eye(2)[y]) / len(y)
            dz = (d @ p["head.weight"].T) * (z > 0)
            grads = {"head.weight": h.T @ d, "head.bias": d.sum(axis=0),
                     "layer0.weight": x.T @ dz, "layer0.bias": dz.sum(axis=0)}
            p = {name: p[name] - lr * grads[name] for name in p}
        config = TrainConfig(learning_rate=lr, batch_size=4, epochs=1, optimizer="sgd", seed=0)
        trained, _ = train(model, (features, labels), (features, labels), config)
        # the benchmark's step loop, which never clears a grad between steps
        stepped = init_model(ModelSpec((2,), (Dense(3),), 2, seed=4), dtype=np.float64)
        for rows in batches:
            logits, _ = forward(stepped, features[rows])
            loss, _ = softmax_cross_entropy(logits, labels[rows])
            backward(loss)
            sgd_step(stepped.params, {name: q.grad for name, q in stepped.params.items()}, lr)
        for got in (trained, stepped):
            for name, expected in p.items():
                np.testing.assert_allclose(got.params[name].data, expected, rtol=1e-12, atol=1e-12)

    def test_empty_dataset_rejected(self):
        model = init_model(ModelSpec((2,), (Dense(4),), 2))
        empty = (np.zeros((0, 2), dtype=np.float32), np.zeros(0, dtype=np.int64))
        good = (np.zeros((4, 2), dtype=np.float32), np.zeros(4, dtype=np.int64))
        with pytest.raises(DataError):
            train(model, empty, good, TrainConfig())
        with pytest.raises(DataError):
            train(model, good, empty, TrainConfig())

    def test_out_of_range_label_rejected(self):
        model = init_model(ModelSpec((2,), (Dense(4),), 2))
        bad = (np.zeros((4, 2), dtype=np.float32), np.array([0, 1, 2, 0]))
        good = (np.zeros((4, 2), dtype=np.float32), np.zeros(4, dtype=np.int64))
        with pytest.raises(DataError):
            train(model, bad, good, TrainConfig())

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_divergence_aborts_with_location(self):
        # non-separable labels: a huge step saturates the softmax the wrong
        # way for some sample, driving -ln(p) to infinity
        rng = np.random.default_rng(1)
        features = rng.standard_normal((32, 2)).astype(np.float32)
        labels = rng.integers(0, 2, size=32)
        model = init_model(ModelSpec((2,), (Dense(8),), 2, seed=1))
        config = TrainConfig(learning_rate=1e18, batch_size=8, epochs=3,
                             optimizer="sgd", seed=1)
        with pytest.raises(NumericError, match="epoch"):
            train(model, (features, labels), (features, labels), config)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_recurrent_divergence_names_cell_epoch_and_batch(self):
        model = init_model(ModelSpec((3, 2), (Recurrent("gru", 4),), 2, seed=1))
        model.params["layer0.l0.W"].data[..., 4:8] = 1e30  # the z gate's columns
        features = np.full((8, 3, 2), 1e10, dtype=np.float32)
        labels = np.zeros(8, dtype=np.int64)
        config = TrainConfig(batch_size=4, epochs=1, seed=1)
        with pytest.raises(NumericError, match="epoch 1, batch 1: gru produced non-finite"):
            train(model, (features, labels), (features, labels), config)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_conv_divergence_names_epoch_batch_and_stage(self):
        model = init_model(ModelSpec((1, 8), (Conv(1, 2, (3,), (1,), (0,)), Dense(4)), 2, seed=1))
        model.params["layer0.weight"].data[:] = 1e30
        features = np.full((8, 1, 8), 1e10, dtype=np.float32)
        labels = np.zeros(8, dtype=np.int64)
        config = TrainConfig(batch_size=4, epochs=1, seed=1)
        with pytest.raises(NumericError, match=r"epoch 1, batch 1: conv produced non-finite values "
                                               r"in stage 0 \(Conv\)$"):
            train(model, (features, labels), (features, labels), config)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_backward_divergence_names_epoch_batch_and_stage(self):
        # a finite forward whose head backward, g @ W.T, overflows float32
        model = init_model(ModelSpec((4,), (Dense(8),), 2))
        model.params["head.weight"].data[:, 0] = 3e38
        model.params["head.weight"].data[:, 1] = -3e38
        model.params["layer0.bias"].data[:] = 1e-30
        features = np.zeros((4, 4), dtype=np.float32)
        labels = np.ones(4, dtype=np.int64)
        config = TrainConfig(batch_size=1, epochs=1)
        with pytest.raises(NumericError, match=r"^non-finite value at epoch 1, batch 1: non-finite gradient "
                                               r"in backward of linear in stage 1 \(Dense\)$"):
            train(model, (features, labels), (features, labels), config)

    def test_logs_one_info_line_per_epoch(self, caplog):
        caplog.set_level(logging.INFO, logger="deepself")
        _, history, _ = self._train_blobs(epochs=3)
        lines = [r.getMessage() for r in caplog.records if r.name == "deepself.training"]
        assert len(lines) == 3
        for rec, line in zip(history, lines):
            assert line.startswith(f"epoch {rec.epoch}: train loss {rec.train_loss:.6f}, "
                                   f"train UAR {rec.train_uar:.2f}, dev UAR {rec.dev_uar:.2f}, ")
            assert line.endswith(" samples/s")

    def test_write_history(self, tmp_path):
        _, history, _ = self._train_blobs(epochs=3)
        path = tmp_path / "history.csv"
        write_history(history, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,train_uar,dev_uar"
        assert len(lines) == 4


class TestCheckpoint:
    def _model(self, seed=2):
        spec = ModelSpec((4, 3), (Recurrent("gru", 5, 1, "bi"), Dense(6)), 3, seed=seed)
        return init_model(spec)

    def test_round_trip_bit_exact_logits(self, tmp_path):
        model = self._model()
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, {"epoch": 3, "dev_uar": 88.5}, path)
        loaded, metadata = load_checkpoint(path)
        assert metadata == {"epoch": "3", "dev_uar": "88.5"}
        batch = np.random.default_rng(0).standard_normal((5, 4, 3)).astype(np.float32)
        a, _ = forward(model, batch)
        b, _ = forward(loaded, batch)
        np.testing.assert_array_equal(a.data, b.data)

    def test_parameters_bit_exact(self, tmp_path):
        model = self._model(seed=7)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, {}, path)
        ckpt = read_checkpoint(path)
        arrays = dict(checkpoint_arrays(model))
        assert set(ckpt.params) == set(arrays)
        for name, arr in arrays.items():
            np.testing.assert_array_equal(ckpt.params[name], arr)

    def test_corrupted_magic(self, tmp_path):
        model = self._model()
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, {}, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"WHAT"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        model = self._model()
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, {}, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionError):
            load_checkpoint(path)

    def test_truncated_file(self, tmp_path):
        model = self._model()
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, {}, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(TruncatedFileError):
            load_checkpoint(path)

    @pytest.mark.parametrize("field", ["model spec", "parameter name", "metadata"])
    def test_invalid_utf8_is_format_error_naming_the_field(self, tmp_path, field):
        model = self._model()
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, {"run": "x"}, path)
        blob = bytearray(path.read_bytes())
        spec_len = int.from_bytes(blob[8:12], "little")
        offset = {
            "model spec": 12,
            "parameter name": 12 + spec_len + 4 + 2,  # after the spec, the count and the name length
            "metadata": len(blob) - len(b"run=x\n"),
        }[field]
        blob[offset] = 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=f"{field} is not valid UTF-8") as info:
            read_checkpoint(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("dims, error, message", [
        ((0,), FormatError, "zero dimension"),
        ((0xFFFFFFFF, 0xFFFFFFFF), TruncatedFileError, "bytes early"),  # wraps in int64
    ], ids=["zero-dimension", "oversized-count"])
    def test_corrupt_shape_is_format_error(self, tmp_path, dims, error, message):
        path = tmp_path / "model.ckpt"
        save_checkpoint(self._model(), {}, path)
        blob = bytearray(path.read_bytes())
        spec_len = int.from_bytes(blob[8:12], "little")
        name_len = int.from_bytes(blob[16 + spec_len:18 + spec_len], "little")
        rank_at = 18 + spec_len + name_len  # the first parameter's rank byte, then its shape
        blob[rank_at] = len(dims)
        blob[rank_at + 1:rank_at + 1 + 4 * len(dims)] = b"".join(d.to_bytes(4, "little") for d in dims)
        path.write_bytes(bytes(blob))
        with pytest.raises(error, match=message):
            read_checkpoint(path)

    def test_bytes_after_metadata_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(self._model(), {"run": "x"}, path)
        path.write_bytes(path.read_bytes() + b"\0\0\0")
        with pytest.raises(FormatError, match="3 bytes after the metadata block"):
            read_checkpoint(path)

    def test_parameter_stored_twice_rejected(self, tmp_path, monkeypatch):
        model = self._model()
        first = next(checkpoint_arrays(model))
        monkeypatch.setattr(training, "checkpoint_arrays", lambda m: [*checkpoint_arrays(m), first])
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, {}, path)
        with pytest.raises(FormatError, match=f"parameter '{first[0]}' is stored twice"):
            read_checkpoint(path)

    def test_failed_save_keeps_previous_bytes_and_leaves_no_stray_file(self, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        save_checkpoint(self._model(seed=1), {"run": "old"}, path)
        before = path.read_bytes()
        pack = struct.pack

        def pack_until_rank(fmt, *values):
            if fmt == "<B":  # the first parameter's rank byte: the file is half written
                raise OSError("disk full")
            return pack(fmt, *values)

        monkeypatch.setattr(struct, "pack", pack_until_rank)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(self._model(seed=2), {"run": "new"}, path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["model.ckpt"]

    def test_save_over_existing_file_writes_the_same_bytes_as_a_new_one(self, tmp_path):
        model = self._model()
        fresh, over = tmp_path / "fresh.ckpt", tmp_path / "over.ckpt"
        over.write_bytes(bytes(100_000))
        save_checkpoint(model, {"run": "x"}, fresh)
        save_checkpoint(model, {"run": "x"}, over)
        assert over.read_bytes() == fresh.read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["fresh.ckpt", "over.ckpt"]

    def test_shape_mismatch_is_integrity_error(self, tmp_path):
        model = self._model()
        model.params["head.bias"] = Tensor(np.zeros(7), requires_grad=True)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, {}, path)
        with pytest.raises(IntegrityError, match="head.bias"):
            load_checkpoint(path)

    def test_missing_parameter_is_integrity_error(self, tmp_path):
        model = self._model()
        # the stored spec gains a layer whose parameters the file lacks
        model.spec = replace(model.spec, layers=model.spec.layers + (Dense(4),))
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, {}, path)
        with pytest.raises(IntegrityError, match="missing"):
            load_checkpoint(path)

    @pytest.mark.parametrize("recurrent", [False, True], ids=["dense", "recurrent"])
    def test_non_finite_parameter_is_integrity_error(self, tmp_path, recurrent):
        if recurrent:
            model, name = self._model(), "layer0.l0.bwd.U_r"
            model.params["layer0.l0.U"].data[1, 2, 3] = np.inf  # direction 1, gate r
        else:
            model, name = init_model(ModelSpec((3,), (Dense(2),), 2, seed=0)), "head.bias"
            model.params["head.bias"].data[0] = np.nan
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, {}, path)
        with pytest.raises(IntegrityError, match=f"parameter {name} holds non-finite values"):
            load_checkpoint(path)

    @pytest.mark.parametrize("metadata", [{"classes": "a\nb"}, {"note": "a\rb"}, {"a=b": "c"}],
                             ids=["newline", "carriage-return", "equals-in-key"])
    def test_metadata_a_line_cannot_hold_is_rejected_before_writing(self, tmp_path, metadata):
        path = tmp_path / "model.ckpt"
        with pytest.raises(FormatError, match="key=value line"):
            save_checkpoint(self._model(), metadata, path)
        assert not path.exists()

    def test_metadata_value_may_hold_equals(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(self._model(), {"expr": "a=b", "": "empty key"}, path)
        assert load_checkpoint(path)[1] == {"expr": "a=b", "": "empty key"}


# the backbones fine_tune must carry over or freeze: dense, conv and recurrent stages
FINE_TUNE_SPECS = {
    "dense": ModelSpec((2,), (Dense(8),), 2, seed=5),
    "cnn1d": ModelSpec((1, 24), (Conv(1, 4, (5,), (2,), (0,)), Dense(6)), 2, seed=5),
    "bigru2": ModelSpec((6, 3), (Recurrent("gru", 4, 2, "bi"),), 2, seed=5),
}
HEAD = {"head.weight", "head.bias"}


def spec_dataset(rng, spec, n, n_classes=2):
    """``n`` random samples of ``spec``'s input shape, labels in [0, n_classes)."""
    return rng.standard_normal((n, *spec.input_shape)).astype(np.float32), rng.integers(0, n_classes, size=n)


class TestFineTune:
    def _pretrain(self, tmp_path, name="dense"):
        spec = FINE_TUNE_SPECS[name]
        rng = np.random.default_rng(spec.seed)
        data, dev = spec_dataset(rng, spec, 40), spec_dataset(rng, spec, 20)
        config = TrainConfig(learning_rate=0.05, batch_size=8, epochs=10, seed=spec.seed)
        best, history = train(init_model(spec), data, dev, config)
        path = tmp_path / "pretrained.ckpt"
        save_checkpoint(best, {"dev_uar": history[-1].dev_uar}, path)
        return path

    @pytest.mark.parametrize("name", sorted(FINE_TUNE_SPECS))
    def test_freeze_backbone_keeps_non_head_parameters(self, tmp_path, name):
        path = self._pretrain(tmp_path, name)
        before, _ = load_checkpoint(path)
        frozen = {n: p.data.copy() for n, p in before.params.items() if n not in HEAD}
        data = spec_dataset(np.random.default_rng(6), FINE_TUNE_SPECS[name], 30)
        tuned, _ = fine_tune(path, data, data,
                             TrainConfig(learning_rate=0.05, batch_size=8, epochs=4, seed=6),
                             freeze_backbone=True)
        assert set(tuned.params) == set(frozen) | HEAD
        for n, arr in frozen.items():
            np.testing.assert_array_equal(tuned.params[n].data, arr)
        # the head must actually have moved
        assert not np.array_equal(tuned.params["head.weight"].data, before.params["head.weight"].data)

    def test_new_head_when_class_count_changes(self, tmp_path):
        path = self._pretrain(tmp_path)
        rng = np.random.default_rng(7)
        features = rng.standard_normal((24, 2)).astype(np.float32)
        labels = rng.integers(0, 3, size=24)
        tuned, _ = fine_tune(path, (features, labels), (features, labels),
                             TrainConfig(learning_rate=0.05, batch_size=8, epochs=2, seed=7),
                             new_n_classes=3)
        assert tuned.n_classes == 3
        assert tuned.params["head.weight"].shape == (8, 3)

    @pytest.mark.parametrize("name", sorted(FINE_TUNE_SPECS))
    def test_backbone_carried_over_when_head_swapped(self, tmp_path, name):
        path = self._pretrain(tmp_path, name)
        original, _ = load_checkpoint(path)
        data = spec_dataset(np.random.default_rng(8), FINE_TUNE_SPECS[name], 24, n_classes=3)
        tuned, _ = fine_tune(path, data, data,
                             TrainConfig(learning_rate=0.05, batch_size=8, epochs=1, seed=8),
                             new_n_classes=3, freeze_backbone=True)
        assert tuned.params["head.bias"].shape == (3,)
        assert set(tuned.params) == set(original.params)
        for n, p in original.params.items():
            if n not in HEAD:
                np.testing.assert_array_equal(tuned.params[n].data, p.data)

    def test_zero_epoch_budget_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)


# sizes at which OpenBLAS computes a row differently for another row count
INVARIANCE_SPECS = {
    "fnn": ModelSpec((64,), (Dense(64), Dense(64)), 3, seed=1),
    "cnn1d": ModelSpec((1, 256), (Conv(1, 8, (8,), (4,), (0,)), Conv(1, 16, (4,), (4,), (0,)), Dense(32)),
                       3, seed=2),
    "cnn2d": ModelSpec((2, 16, 16), (Conv(2, 8, (3, 3), (2, 2), (1, 1)), Conv(2, 8, (3, 3), (2, 2), (1, 1)),
                                     Dense(16)), 3, seed=3),
    "bigru": ModelSpec((16, 8), (Recurrent("gru", 16, 2, "bi"),), 3, seed=4),
    "cnn-bilstm": ModelSpec((1, 128), (Conv(1, 8, (8,), (4,), (0,)), Recurrent("lstm", 16, 1, "bi")),
                            3, seed=5),
}


class TestPredictBatches:
    @pytest.mark.parametrize("name", sorted(INVARIANCE_SPECS))
    def test_probabilities_do_not_depend_on_batch_company(self, name):
        # any subset, order and split into calls gives each sample the same probability bytes
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        spec = INVARIANCE_SPECS[name]
        model = init_model(spec)
        features = np.random.default_rng(9).standard_normal((40, *spec.input_shape)).astype(np.float32)
        _, reference = predict_batches(model, features, batch_size=16)

        @hypothesis.settings(max_examples=15, deadline=None, database=None)
        @hypothesis.given(st.permutations(range(40)), st.integers(1, 40),
                          st.lists(st.integers(1, 39), max_size=3))
        def check(order, size, cuts):
            rows = np.array(order[:size])
            bounds = [0, *sorted(c for c in set(cuts) if c < size), size]
            for lo, hi in zip(bounds, bounds[1:]):
                _, probs = predict_batches(model, features[rows[lo:hi]], batch_size=16)
                assert probs.tobytes() == reference[rows[lo:hi]].tobytes()

        check()

    @pytest.mark.parametrize("batch_size", [0, -3, 2.5])
    def test_batch_size_below_one_or_not_integer_rejected(self, batch_size):
        model = init_model(ModelSpec((3,), (Dense(5),), 4, seed=1))
        with pytest.raises(ConfigError, match="batch_size"):
            predict_batches(model, np.zeros((2, 3), np.float32), batch_size=batch_size)

    @pytest.mark.parametrize("name", ["fnn", "bigru"])
    def test_no_samples_give_empty_outputs(self, name):
        spec = INVARIANCE_SPECS[name]
        model = init_model(spec)
        labels, probs = predict_batches(model, np.zeros((0, *spec.input_shape), np.float32), batch_size=16)
        _, some = predict_batches(model, np.zeros((1, *spec.input_shape), np.float32), batch_size=16)
        assert labels.shape == (0,) and labels.dtype.kind == "i"
        assert probs.shape == (0, spec.n_classes) and probs.dtype == some.dtype

    def test_matches_single_batch_forward(self):
        model = init_model(ModelSpec((3,), (Dense(5),), 4, seed=1))
        rng = np.random.default_rng(2)
        features = rng.standard_normal((10, 3)).astype(np.float32)
        labels_a, probs_a = predict_batches(model, features, batch_size=3)
        labels_b, probs_b = predict_batches(model, features, batch_size=10)
        np.testing.assert_array_equal(labels_a, labels_b)
        np.testing.assert_array_equal(probs_a, probs_b)
        np.testing.assert_allclose(probs_a.sum(axis=1), 1.0, atol=1e-6)


def widest_batch_bytes(model, batch_size):
    """Bytes of one batch's widest stage output, the quantity the chunk rule bounds."""
    return max(math.prod(stage.out_shape) for stage in model.plan) * 4 * batch_size


class TestBlockedPrediction:
    @pytest.mark.parametrize("blocks", [2, 3])
    @pytest.mark.parametrize("batch_size", [1, 3, 16])
    @pytest.mark.parametrize("name", sorted(INVARIANCE_SPECS))
    def test_equals_one_forward_per_batch(self, name, batch_size, blocks, monkeypatch):
        # chunks of 2 or 3 batches per forward, so every model runs blocked products and a blocked scan
        spec = INVARIANCE_SPECS[name]
        model = init_model(spec)
        monkeypatch.setattr(training, "INFERENCE_CHUNK_BYTES", blocks * widest_batch_bytes(model, batch_size))
        assert inference_blocks(model, batch_size) == blocks
        forwards = []  # the rows of each forward predict_batches runs

        def counted(model, batch):
            forwards.append(len(batch))
            return forward(model, batch)

        monkeypatch.setattr(training, "forward", counted)
        rng = np.random.default_rng(11)
        features = rng.standard_normal((5 * batch_size, *spec.input_shape)).astype(np.float32)
        for size in sorted({0, 1, batch_size, 2 * batch_size + 1, 5 * batch_size - 1}):
            forwards.clear()
            labels, probs = predict_batches(model, features[:size], batch_size)
            want_labels, want_probs = oracle_predict_batches(model, features[:size], batch_size)
            assert labels.dtype == want_labels.dtype and labels.tobytes() == want_labels.tobytes()
            assert probs.dtype == want_probs.dtype and probs.tobytes() == want_probs.tobytes()
            batches = max(-(-size // batch_size), 1)
            assert forwards == [min(blocks, batches - k) * batch_size for k in range(0, batches, blocks)]

    @pytest.mark.parametrize("name", sorted(INVARIANCE_SPECS))
    def test_chunk_is_one_batch_past_half_the_constant(self, name, monkeypatch):
        model = init_model(INVARIANCE_SPECS[name])
        for constant in (1 << 10, 48 << 10, training.INFERENCE_CHUNK_BYTES):
            monkeypatch.setattr(training, "INFERENCE_CHUNK_BYTES", constant)
            for batch_size in range(1, 65):
                blocks, widest = inference_blocks(model, batch_size), widest_batch_bytes(model, batch_size)
                assert (blocks == 1) == (2 * widest > constant)
                assert blocks == 1 or blocks * widest <= constant < (blocks + 1) * widest

    def test_benchmark_models_chunk_by_their_widest_stage(self):
        # per sample: the bi-GRU 2x32 on [64 x 8] 16 KiB, the 1-D CNN on [1 x 4097] 32 KiB,
        # the 2-D CNN on [1 x 26 x 31] log-mel maps 5.6 KiB; at batch 16 only the last fits 4 batches
        specs = {
            ModelSpec((64, 8), (Recurrent("gru", 32, 2, "bi"),), 2): 1,
            ModelSpec((1, 4097), (Conv(1, 8, (8,), (4,), (0,)), Conv(1, 16, (4,), (4,), (0,)), Dense(32)), 2): 1,
            ModelSpec((1, 26, 31), (Conv(2, 8, (3, 3), (2, 2), (0, 0)), Conv(2, 16, (3, 3), (2, 2), (0, 0)),
                                    Dense(32)), 2): 4,
        }
        for spec, blocks in specs.items():
            assert inference_blocks(init_model(spec), 16) == blocks


class TestTrainStep:
    @pytest.mark.parametrize("name", ["fnn", "cnn1d", "bigru"])
    def test_equals_the_spelled_out_adam_step(self, name):
        # forward, loss, backward, the grads dict and adam_step: the step perfbench's loop spells out
        spec = INVARIANCE_SPECS[name]
        features, labels = spec_dataset(np.random.default_rng(3), spec, 5 * 16, spec.n_classes)
        config = TrainConfig(learning_rate=0.01)
        stepped, spelled = init_model(spec), init_model(spec)
        stepped_state, spelled_state = AdamState(), AdamState()
        for rows in np.split(np.arange(5 * 16), 5):
            xb, yb = features[rows], labels[rows]
            step_loss, step_probs = train_step(stepped, stepped_state, xb, yb, config)
            logits, _ = forward(spelled, xb)
            loss, probs = softmax_cross_entropy(logits, yb)
            backward(loss)
            grads = {n: p.grad for n, p in spelled.params.items() if p.requires_grad and p.grad is not None}
            adam_step(spelled.params, grads, spelled_state, config.learning_rate)
            assert step_loss == loss.item() and step_probs.tobytes() == probs.data.tobytes()
        assert stepped_state.t == spelled_state.t == 5
        for n, p in spelled.params.items():
            assert stepped.params[n].data.tobytes() == p.data.tobytes()

    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    def test_one_epoch_of_one_batch_is_one_step(self, optimizer):
        spec = INVARIANCE_SPECS["fnn"]
        n = 24
        features, labels = spec_dataset(np.random.default_rng(4), spec, n, spec.n_classes)
        config = TrainConfig(learning_rate=0.01, batch_size=n, epochs=1, optimizer=optimizer, seed=7)
        trained, history = train(init_model(spec), (features, labels), (features, labels), config)
        stepped = init_model(spec)
        order = np.random.default_rng(config.seed).permutation(n)  # train's shuffle of its one epoch
        loss, _ = train_step(stepped, AdamState(), features[order], labels[order], config)
        assert history[0].train_loss == pytest.approx(loss, rel=1e-15)
        for name, p in stepped.params.items():
            assert trained.params[name].data.tobytes() == p.data.tobytes()
