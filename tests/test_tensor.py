"""Tensor arithmetic, tape mechanics, and the finite-difference oracle."""

import numpy as np
import pytest

from deepself.errors import ConfigError, DeepSelfError, NumericError, ShapeError
from deepself import tensor as T
from deepself.models import ModelSpec, Recurrent, forward, init_model
from deepself.tensor import Tensor


def naive_matmul(a, b):
    """Triple-loop matrix product, the independent oracle for matmul."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            for p in range(k):
                out[i, j] += a[i, p] * b[p, j]
    return out


class TestTensorBasics:
    def test_defaults_to_float32(self):
        t = Tensor([1.0, 2.0])
        assert t.dtype == np.float32

    def test_float64_preserved(self):
        t = Tensor(np.array([1.0], dtype=np.float64))
        assert t.dtype == np.float64

    def test_non_finite_rejected(self):
        with pytest.raises(NumericError):
            Tensor([1.0, np.nan])
        with pytest.raises(NumericError):
            Tensor([np.inf])

    def test_grad_shape_matches_data(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        loss = (x * x).sum()
        loss.backward()
        assert x.grad.shape == x.data.shape


class TestMatmul:
    def test_identity(self):
        eye = Tensor(np.eye(2))
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_allclose(T.matmul(eye, b).data, b.data)

    def test_against_triple_loop_oracle(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        expected = naive_matmul(a, b)
        np.testing.assert_allclose(expected, [[19.0, 22.0], [43.0, 50.0]])
        got = T.matmul(Tensor(a), Tensor(b)).data
        np.testing.assert_allclose(got, expected)

    def test_random_against_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m, k, n = rng.integers(1, 6, size=3)
            a = rng.standard_normal((m, k))
            b = rng.standard_normal((k, n))
            got = T.matmul(Tensor(a, dtype=np.float64), Tensor(b, dtype=np.float64)).data
            np.testing.assert_allclose(got, naive_matmul(a, b), rtol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        a = Tensor(np.zeros((2, 3)))
        b = Tensor(np.zeros((4, 5)))
        with pytest.raises(ShapeError) as err:
            T.matmul(a, b)
        assert "(2, 3)" in str(err.value) and "(4, 5)" in str(err.value)

    def test_associativity_random_chains(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a = Tensor(rng.standard_normal((4, 5)).astype(np.float32))
            b = Tensor(rng.standard_normal((5, 3)).astype(np.float32))
            c = Tensor(rng.standard_normal((3, 6)).astype(np.float32))
            left = T.matmul(T.matmul(a, b), c).data
            right = T.matmul(a, T.matmul(b, c)).data
            np.testing.assert_allclose(left, right, rtol=1e-4, atol=1e-5)


def convolve_one(x, kernels, stride=1, padding=0, bias=None):
    """Cross-correlate one [C_in, *sp] sample: conv_nd_batched on a batch of one."""
    batch = T.reshape(x, (1,) + x.shape)
    return T.conv_nd_batched(batch, kernels, stride, padding, bias=bias).data[0]


class TestConvolveNd:
    def test_identity_kernel_1d(self):
        x = Tensor([[1.0, 2.0, 3.0]])
        k = Tensor([[[1.0]]])
        out = convolve_one(x, k, stride=1, padding=0)
        np.testing.assert_allclose(out, [[1.0, 2.0, 3.0]])

    def test_sliding_window_sum(self):
        # oracle: out[j] = sum of the kernel-width window starting at j
        x = np.array([[1.0, 2.0, 3.0]])
        k = np.array([[[1.0, 1.0]]])
        expected = [[x[0, 0] + x[0, 1], x[0, 1] + x[0, 2]]]
        out = convolve_one(Tensor(x), Tensor(k), stride=1, padding=0)
        np.testing.assert_allclose(out, expected)
        np.testing.assert_allclose(out, [[3.0, 5.0]])

    def test_kernel_exceeding_input_is_config_error(self):
        x = Tensor(np.zeros((1, 3)))
        k = Tensor(np.zeros((1, 1, 5)))
        with pytest.raises(ConfigError) as err:
            convolve_one(x, k, stride=1, padding=0)
        assert "axis 0" in str(err.value)

    def test_identity_map_property(self):
        # stride 1, kernel extent 1, pad 0, 1->1 channels, kernel value 1, no bias
        rng = np.random.default_rng(3)
        for spatial in [(9,), (4, 5), (3, 4, 2)]:
            x = rng.standard_normal((1,) + spatial)
            k = np.ones((1, 1) + (1,) * len(spatial))
            out = convolve_one(Tensor(x, dtype=np.float64), Tensor(k, dtype=np.float64))
            np.testing.assert_allclose(out, x)

    def test_against_direct_2d_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 6, 5))
        k = rng.standard_normal((3, 2, 3, 2))
        bias = rng.standard_normal(3)
        stride, pad = (2, 1), (1, 1)
        out = convolve_one(
            Tensor(x, dtype=np.float64), Tensor(k, dtype=np.float64), stride=stride, padding=pad,
            bias=Tensor(bias, dtype=np.float64),
        )
        padded = np.pad(x, [(0, 0), (1, 1), (1, 1)])
        oh = (6 + 2 - 3) // 2 + 1
        ow = (5 + 2 - 2) // 1 + 1
        expected = np.zeros((3, oh, ow))
        for co in range(3):
            for i in range(oh):
                for j in range(ow):
                    window = padded[:, i * 2 : i * 2 + 3, j : j + 2]
                    expected[co, i, j] = (window * k[co]).sum() + bias[co]
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_stride_validation(self):
        x = Tensor(np.zeros((1, 4)))
        k = Tensor(np.zeros((1, 1, 2)))
        with pytest.raises(ConfigError):
            convolve_one(x, k, stride=0, padding=0)
        with pytest.raises(ConfigError):
            convolve_one(x, k, stride=1, padding=-1)


def scatter_conv_input_grad(g, kernels, spatial, stride, padding):
    """d loss / d x of a conv by the np.add.at scatter of every window gradient.

    The oracle for conv_nd_batched's col2im: the same matmul, then one
    unbuffered add per (batch, channel, window, offset) in C order.
    """
    batch, c_out, *out_sp = g.shape
    c_in, kernel_sp = kernels.shape[1], kernels.shape[2:]
    padded_sp = tuple(n + 2 * p for n, p in zip(spatial, padding))
    starts = np.indices(out_sp).reshape(len(out_sp), -1, 1) * np.reshape(stride, (-1, 1, 1))
    offsets = np.indices(kernel_sp).reshape(len(kernel_sp), 1, -1)
    win = np.ravel_multi_index(tuple(starts + offsets), padded_sp)  # [O, K]
    g2 = g.reshape(batch, c_out, -1).transpose(0, 2, 1).reshape(-1, c_out)
    d_pmat = g2 @ kernels.reshape(c_out, -1)
    d_patches = d_pmat.reshape(batch, win.shape[0], c_in, win.shape[1]).transpose(0, 2, 1, 3)
    d_padded = np.zeros((batch, c_in, int(np.prod(padded_sp))), dtype=g.dtype)
    np.add.at(
        d_padded,
        (np.arange(batch)[:, None, None, None], np.arange(c_in)[None, :, None, None], win[None, None]),
        d_patches,
    )
    unpad = tuple(slice(p, p + n) for p, n in zip(padding, spatial))
    return d_padded.reshape(batch, c_in, *padded_sp)[(slice(None), slice(None)) + unpad]


# [B, C_in, *sp], [C_out, C_in, *k], stride, padding
CONV_GEOMETRIES = {
    "1d-overlap-padded": ((3, 2, 29), (4, 2, 5), (2,), (2,)),
    "1d-k8s4-k4s4": ((2, 3, 40), (4, 3, 8), (4,), (0,)),
    "1d-gaps": ((2, 2, 17), (3, 2, 2), (3,), (1,)),
    "2d-overlap-padded": ((2, 3, 9, 10), (4, 3, 3, 3), (1, 2), (1, 1)),
    "3d-overlap-padded": ((2, 2, 5, 6, 5), (3, 2, 3, 2, 3), (1, 2, 1), (1, 0, 1)),
}


class TestConvBackward:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", sorted(CONV_GEOMETRIES))
    def test_input_grad_equals_add_at_scatter(self, name, dtype):
        x_shape, k_shape, stride, padding = CONV_GEOMETRIES[name]
        rng = np.random.default_rng(11)
        x = Tensor(rng.standard_normal(x_shape).astype(dtype), requires_grad=True)
        k = Tensor(rng.standard_normal(k_shape).astype(dtype), requires_grad=True)
        y = T.conv_nd_batched(x, k, stride, padding)
        upstream = rng.standard_normal(y.shape).astype(dtype)
        T.backward(T.tensor_sum(T.mul(y, Tensor(upstream))))
        expected = scatter_conv_input_grad(upstream, k.data, x_shape[2:], stride, padding)
        assert x.grad.dtype == expected.dtype
        np.testing.assert_array_equal(x.grad, expected)

    def test_input_without_grad_gets_none(self):
        rng = np.random.default_rng(12)
        x = Tensor(rng.standard_normal((2, 3, 11)))
        k = Tensor(rng.standard_normal((4, 3, 3)), requires_grad=True)
        tape = T.active_tape()
        tape.clear()
        y = T.conv_nd_batched(x, k, 2, 1)
        d_x, d_k, d_bias = tape[-1].backward_fn(np.ones(y.shape, dtype=y.dtype))
        assert d_x is None
        assert d_k.shape == k.shape and d_bias.shape == (4,)
        T.backward(y.sum())
        assert x.grad is None
        assert k.grad.shape == k.shape


class TestActivations:
    def test_relu_negative(self):
        assert T.activation(Tensor([-1.0]), "relu").data[0] == 0.0

    def test_sigmoid_zero(self):
        assert T.activation(Tensor([0.0]), "sigmoid").data[0] == pytest.approx(0.5)

    def test_tanh_zero(self):
        assert T.activation(Tensor([0.0]), "tanh").data[0] == 0.0

    def test_sigmoid_saturation_is_finite(self):
        out = T.activation(Tensor([-1000.0, 1000.0]), "sigmoid").data
        np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            T.activation(Tensor([0.0]), "gelu")


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        logits = Tensor(np.zeros((2, 4)))
        loss, probs = T.softmax_cross_entropy(logits, [0, 3])
        np.testing.assert_allclose(probs.data, 0.25, atol=1e-7)
        assert loss.item() == pytest.approx(np.log(4.0), rel=1e-6)

    def test_two_class_direct_evaluation(self):
        # oracle: -ln(1 / (1 + e^{-1}))
        loss, _ = T.softmax_cross_entropy(Tensor([[1.0, 2.0]]), [1])
        assert loss.item() == pytest.approx(-np.log(1.0 / (1.0 + np.exp(-1.0))), rel=1e-5)
        assert loss.item() == pytest.approx(0.3133, abs=5e-5)

    def test_saturated_correct_class(self):
        loss, _ = T.softmax_cross_entropy(Tensor([[0.0, 100.0]]), [1])
        assert loss.item() == pytest.approx(0.0, abs=1e-6)

    def test_target_out_of_range(self):
        with pytest.raises(IndexError):
            T.softmax_cross_entropy(Tensor([[0.0, 1.0]]), [2])

    def test_rows_sum_to_one_random(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            logits = rng.uniform(-50, 50, size=(4, 6))
            _, probs = T.softmax_cross_entropy(Tensor(logits), [0, 1, 2, 3])
            np.testing.assert_allclose(probs.data.sum(axis=1), 1.0, atol=1e-6)


class TestBackward:
    def test_sum_of_squares(self):
        x = Tensor([1.0, -2.0, 3.0], requires_grad=True, dtype=np.float64)
        loss = (x * x).sum()
        loss.backward()
        np.testing.assert_allclose(x.grad, [2.0, -4.0, 6.0], rtol=1e-12)

    def test_matches_finite_differences(self):
        x = Tensor([1.0, -2.0, 3.0], requires_grad=True, dtype=np.float64)
        loss = (x * x).sum()
        loss.backward()
        numeric = T.finite_diff_grad(lambda t: (t * t).sum(), x)
        np.testing.assert_allclose(x.grad, numeric, rtol=1e-6)

    def test_unused_tensor_gets_zero_grad(self):
        x = Tensor([1.0, 1.0], requires_grad=True)
        z = Tensor([3.0, 4.0], requires_grad=True)
        _ = x * Tensor([2.0, 2.0])  # on the tape, but not feeding the loss
        loss = (z * z).sum()
        loss.backward()
        np.testing.assert_allclose(x.grad, [0.0, 0.0])

    def test_each_call_gives_its_own_loss_gradient(self):
        # a grad left by an earlier backward is replaced, not added to
        x = Tensor([3.0], requires_grad=True, dtype=np.float64)
        grads = []
        for _ in range(3):
            (x * x).sum().backward()
            grads.append(x.grad.copy())
        np.testing.assert_array_equal(grads, [[6.0], [6.0], [6.0]])

    def test_reuse_accumulates(self):
        y = Tensor([1.0], requires_grad=True)
        loss = (y + y).sum()
        loss.backward()
        np.testing.assert_allclose(y.grad, [2.0])
        # add hands a and b one array; a's later contribution (from t) must not reach b
        a = Tensor([2.0], requires_grad=True, dtype=np.float64)
        b = Tensor([5.0], requires_grad=True, dtype=np.float64)
        t = a * Tensor([3.0], dtype=np.float64)
        ((a + b) * t).sum().backward()  # (a + b) * 3a
        np.testing.assert_allclose(a.grad, [27.0])  # 3 (2a + b)
        np.testing.assert_allclose(b.grad, [6.0])  # 3a

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x * x
        with pytest.raises(ShapeError):
            y.backward()

    def test_loss_not_on_tape_rejected(self):
        with pytest.raises(DeepSelfError):
            Tensor(1.0, requires_grad=True).backward()

    def test_tape_cleared_after_backward(self):
        x = Tensor([1.0], requires_grad=True)
        (x * x).sum().backward()
        assert len(T.active_tape()) == 0

    def test_no_grad_suspends_recording(self):
        x = Tensor([1.0], requires_grad=True)
        with T.no_grad():
            y = x * x
        assert not y.requires_grad
        assert len(T.active_tape()) == 0


class TestFiniteDiff:
    def test_sum_is_all_ones(self):
        x = Tensor(np.random.default_rng(0).standard_normal(5))
        g = T.finite_diff_grad(lambda t: t.sum(), x)
        np.testing.assert_allclose(g, 1.0, atol=1e-9)

    def test_square_at_three(self):
        g = T.finite_diff_grad(lambda t: (t * t).sum(), Tensor([3.0]), h=1e-5)
        assert abs(g[0] - 6.0) < 1e-6

    def test_constant_function(self):
        g = T.finite_diff_grad(lambda t: Tensor(2.5), Tensor([1.0, 2.0]))
        np.testing.assert_allclose(g, 0.0)

    def test_rejects_zero_step(self):
        with pytest.raises(ConfigError):
            T.finite_diff_grad(lambda t: t.sum(), Tensor([1.0]), h=0.0)


class TestShapeOps:
    def test_reshape_round_trip_gradient(self):
        x = Tensor(np.arange(6, dtype=np.float64), requires_grad=True)
        y = T.reshape(x, (2, 3))
        (y * y).sum().backward()
        np.testing.assert_allclose(x.grad, 2 * np.arange(6))

    def test_transpose_gradient(self):
        x = Tensor(np.arange(24, dtype=np.float64).reshape(2, 3, 4), requires_grad=True)
        y = T.transpose(x, (2, 0, 1))
        assert y.shape == (4, 2, 3)
        (y * y).sum().backward()
        np.testing.assert_allclose(x.grad, 2 * x.data)


def gate_params(cell, features, hidden, w=0.0):
    """One direction's (W, U, b) lists, one tensor per gate: W filled with ``w``, U and b zero."""
    n = len(T.RECURRENT_GATES[cell])
    return tuple([Tensor(np.full(shape, value, dtype=np.float32), requires_grad=True) for _ in range(n)]
                 for shape, value in (((features, hidden), w), ((hidden, hidden), 0.0), ((hidden,), 0.0)))


class TestRecurrent:
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("cell", ["rnn", "gru", "lstm"])
    def test_overflowing_preactivation_names_the_cell(self, cell):
        x = Tensor(np.full((2, 3, 2), 1e10, dtype=np.float32))
        with pytest.raises(NumericError, match=f"^{cell} produced non-finite values"):
            T.recurrent(x, [gate_params(cell, 2, 2, w=1e30)], cell)

    def test_shapes_checked(self):
        x = Tensor(np.zeros((2, 3, 4)))
        good = gate_params("gru", 4, 2)
        wrong_w = (good[0][:2] + [Tensor(np.zeros((4, 3)))], good[1], good[2])
        with pytest.raises(ShapeError, match="gru"):
            T.recurrent(x, [good, wrong_w], "gru")
        with pytest.raises(ShapeError, match="gru"):
            T.recurrent(x, [good] * 3, "gru")
        with pytest.raises(ShapeError):
            T.recurrent(x, [tuple(group[:2] for group in good)], "gru")
        with pytest.raises(ShapeError):
            T.recurrent(Tensor(np.zeros((2, 0, 4))), [gate_params("rnn", 4, 2)], "rnn")
        with pytest.raises(ConfigError):
            T.recurrent(x, [gate_params("rnn", 4, 2)], "conv")
        with pytest.raises(ShapeError):
            T.final_states(Tensor(np.zeros((2, 3, 6))), 3)

    def test_one_tape_record_per_layer(self):
        # a 2-layer bi-GRU: one record per sub-layer, both directions in it, and one for the head
        model = init_model(ModelSpec((5, 3), (Recurrent("gru", 4, 2, "bi"),), 2, seed=0))
        tape = T.active_tape()
        tape.clear()
        forward(model, np.ones((2, 5, 3), dtype=np.float32))
        assert [rec.op for rec in tape] == ["gru", "gru", "final_states", "matmul", "add_bias"]
        tape.clear()
