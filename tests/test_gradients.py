"""Backpropagation vs. central finite differences for every layer family.

All checks run in 64-bit with h=1e-5 on dimensions <= 8 (40 samples for the
k8 s4 + k4 s4 conv stack).  Relative error uses
max(|analytic|, |numeric|, 1e-6) as the denominator so near-zero gradients are
compared absolutely at the 1e-10 scale, which is within central-difference
truncation error for these losses.
"""

import numpy as np
import pytest

from deepself.models import (
    RECURRENT_CELLS,
    Conv,
    Dense,
    ModelSpec,
    Recurrent,
    forward,
    init_model,
)
from deepself.tensor import (
    RECURRENT_GATES,
    Tensor,
    active_tape,
    backward,
    finite_diff_grad,
    linear,
    recurrent,
    reshape,
    softmax_cross_entropy,
)

TOL = 1e-4
FLOOR = 1e-6


def dot(a, b):
    """Scalar sum of a * b over all elements, composed from linear and reshape."""
    return linear(reshape(a, (1, -1)), reshape(b, (-1, 1)), Tensor(np.zeros(1, dtype=a.dtype)))


def max_rel_error(analytic, numeric):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), FLOOR)
    return float(np.max(np.abs(analytic - numeric) / denom))


def check_spec(spec, batch_size=3, seed=0, check_input_grad=True):
    """Backprop every parameter (and optionally the input) against finite differences."""
    model = init_model(spec, dtype=np.float64)
    rng = np.random.default_rng(seed)
    batch = rng.standard_normal((batch_size, *spec.input_shape))
    targets = rng.integers(0, spec.n_classes, size=batch_size)

    def compute_loss(batch_tensor):
        logits, _ = forward(model, batch_tensor)
        loss, _ = softmax_cross_entropy(logits, targets)
        return loss

    batch_t = Tensor(batch, requires_grad=check_input_grad, dtype=np.float64)
    loss = compute_loss(batch_t)
    backward(loss)
    analytic = {name: p.grad.copy() for name, p in model.params.items()}

    worst = 0.0
    for name, p in model.params.items():
        def f(t, _p=p):
            saved = _p.data
            _p.data = t.data
            try:
                return compute_loss(Tensor(batch, dtype=np.float64))
            finally:
                _p.data = saved
        numeric = finite_diff_grad(f, p, h=1e-5)
        err = max_rel_error(analytic[name], numeric)
        assert err <= TOL, f"{name}: max relative error {err:.3e}"
        worst = max(worst, err)

    if check_input_grad:
        numeric = finite_diff_grad(lambda t: compute_loss(t), batch_t, h=1e-5)
        err = max_rel_error(batch_t.grad, numeric)
        assert err <= TOL, f"input: max relative error {err:.3e}"
        worst = max(worst, err)
    return worst


class TestDenseGradients:
    def test_two_hidden_relu(self):
        check_spec(ModelSpec((6,), (Dense(5), Dense(4)), 3, seed=1))

    def test_tanh_activation(self):
        check_spec(ModelSpec((5,), (Dense(6),), 2, activation="tanh", seed=2))

    def test_sigmoid_activation(self):
        check_spec(ModelSpec((5,), (Dense(6),), 2, activation="sigmoid", seed=3))


class TestConvGradients:
    def test_conv1d_stack_with_stride_and_padding(self):
        layers = (Conv(1, 3, (3,), (2,), (1,)), Conv(1, 2, (3,), (1,), (0,)))
        check_spec(ModelSpec((2, 8), layers, 2, seed=4))

    def test_conv2d(self):
        layers = (Conv(2, 3, (3, 3), (2, 1), (1, 0)),)
        check_spec(ModelSpec((2, 6, 7), layers, 3, seed=5))

    def test_conv3d(self):
        layers = (Conv(3, 2, (2, 3, 2), (1, 2, 1), (0, 1, 0)),)
        check_spec(ModelSpec((1, 4, 5, 4), layers, 2, seed=6))

    def test_stride_above_kernel_leaves_gaps(self):
        # k2 s3 over padded extents 12 and 9x10: every third position is in no window
        check_spec(ModelSpec((2, 10), (Conv(1, 3, (2,), (3,), (1,)),), 2, seed=7))
        check_spec(ModelSpec((1, 7, 8), (Conv(2, 2, (2, 2), (3, 3), (1, 1)),), 2, seed=8))

    def test_stride_equal_to_kernel_stack(self):
        # the k8 s4 + k4 s4 stack of the benchmark's 1-D CNN, on 40 samples
        layers = (Conv(1, 3, (8,), (4,), (0,)), Conv(1, 2, (4,), (4,), (0,)))
        check_spec(ModelSpec((1, 40), layers, 2, seed=9))

    def test_conv2d_stack_overlap_and_padding(self):
        layers = (Conv(2, 3, (3, 3), (2, 2), (1, 1)), Conv(2, 2, (3, 2), (1, 2), (1, 1)))
        check_spec(ModelSpec((2, 7, 8), layers, 3, seed=10))


class TestRecurrentGradients:
    def test_rnn_uni(self):
        check_spec(ModelSpec((5, 3), (Recurrent("rnn", 4),), 2, seed=7))

    def test_rnn_bi(self):
        check_spec(ModelSpec((5, 3), (Recurrent("rnn", 3, 1, "bi"),), 2, seed=8))

    def test_gru_uni(self):
        check_spec(ModelSpec((5, 3), (Recurrent("gru", 4),), 3, seed=9))

    def test_gru_bi_two_layers(self):
        check_spec(ModelSpec((4, 3), (Recurrent("gru", 3, 2, "bi"),), 2, seed=10))

    def test_lstm_uni(self):
        check_spec(ModelSpec((5, 3), (Recurrent("lstm", 4),), 2, seed=11))

    def test_lstm_bi(self):
        check_spec(ModelSpec((4, 3), (Recurrent("lstm", 3, 1, "bi"),), 2, seed=12))

    def test_lstm_bi_two_layers(self):
        check_spec(ModelSpec((4, 3), (Recurrent("lstm", 3, 2, "bi"),), 2, seed=18))

    def test_rnn_bi_two_layers(self):
        check_spec(ModelSpec((4, 3), (Recurrent("rnn", 3, 2, "bi"),), 2, seed=19))

    @pytest.mark.parametrize("cell", RECURRENT_CELLS)
    def test_single_step_sequence(self, cell):
        check_spec(ModelSpec((1, 3), (Recurrent(cell, 3, 1, "bi"),), 2, seed=20))

    @pytest.mark.parametrize("cell", RECURRENT_CELLS)
    def test_single_direction_op(self, cell):
        check_recurrent_op(cell, directions=1)

    @pytest.mark.parametrize("cell", RECURRENT_CELLS)
    def test_reversed_direction_op(self, cell):
        # direction 1 scans last to first beside direction 0
        check_recurrent_op(cell, directions=2)

    @pytest.mark.parametrize("cell", RECURRENT_CELLS)
    @pytest.mark.parametrize("directions", [1, 2])
    def test_input_grad_through_frozen_cell(self, cell, directions):
        # the op is recorded for x alone, so the scan keeps what backward reads
        check_recurrent_op(cell, directions, frozen_cell=True)


def check_recurrent_op(cell, directions, seed=21, frozen_cell=False):
    """The op alone, with an upstream gradient at every position rather than
    only at the head state a classifier reads; checks dx and every element
    of the fused W, U and b against finite differences.  With
    ``frozen_cell`` only x requires grad, and only dx is checked."""
    rng = np.random.default_rng(seed)
    width = 3 * len(RECURRENT_GATES[cell])
    names = ("x", "W", "U", "b")
    arrays = [rng.standard_normal((2, 4, 3)), 0.5 * rng.standard_normal((directions, 3, width)),
              0.5 * rng.standard_normal((directions, 3, width)), 0.1 * rng.standard_normal((directions, width))]
    upstream = Tensor(rng.standard_normal((2, 4, 3 * directions)))

    def loss(args):
        return dot(recurrent(*args, cell), upstream)

    inputs = [Tensor(a, requires_grad=k == 0 or not frozen_cell) for k, a in enumerate(arrays)]
    total = loss(inputs)
    assert cell in [rec.op for rec in active_tape()]
    backward(total)
    for k, (name, t) in enumerate(zip(names, inputs)):
        if not t.requires_grad:
            continue

        def f(v, _k=k):
            args = [Tensor(a) for a in arrays]
            args[_k] = v
            return loss(args)
        err = max_rel_error(t.grad, finite_diff_grad(f, t, h=1e-5))
        assert err <= TOL, f"{cell} {name}: max relative error {err:.3e}"


class TestStackedGradients:
    def test_cnn_to_gru(self):
        layers = (Conv(1, 2, (3,), (1,), (0,)), Recurrent("gru", 3))
        check_spec(ModelSpec((1, 8), layers, 2, seed=13))

    def test_cnn2d_to_bilstm(self):
        layers = (Conv(2, 2, (2, 2), (1, 1), (0, 0)), Recurrent("lstm", 3, 1, "bi"))
        check_spec(ModelSpec((1, 5, 6), layers, 2, seed=14))

    def test_cnn_to_rnn_to_dense(self):
        layers = (Conv(1, 2, (3,), (2,), (1,)), Recurrent("rnn", 4), Dense(5))
        check_spec(ModelSpec((2, 8), layers, 3, seed=15))


class TestLossGradients:
    def test_softmax_cross_entropy_matches_finite_differences(self):
        rng = np.random.default_rng(16)
        logits = Tensor(rng.standard_normal((4, 5)), requires_grad=True, dtype=np.float64)
        targets = rng.integers(0, 5, size=4)
        loss, _ = softmax_cross_entropy(logits, targets)
        backward(loss)

        def f(t):
            return softmax_cross_entropy(t, targets)[0]

        numeric = finite_diff_grad(f, logits, h=1e-5)
        assert max_rel_error(logits.grad, numeric) <= TOL

    def test_randomized_property_sweep(self):
        rng = np.random.default_rng(17)
        for trial in range(5):
            b, c = int(rng.integers(1, 6)), int(rng.integers(2, 7))
            logits = Tensor(rng.uniform(-5, 5, size=(b, c)), requires_grad=True,
                            dtype=np.float64)
            targets = rng.integers(0, c, size=b)
            loss, _ = softmax_cross_entropy(logits, targets)
            backward(loss)
            numeric = finite_diff_grad(
                lambda t: softmax_cross_entropy(t, targets)[0], logits, h=1e-5)
            assert max_rel_error(logits.grad, numeric) <= TOL
