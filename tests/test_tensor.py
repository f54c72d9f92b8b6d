"""Tensor arithmetic, tape mechanics, and the finite-difference oracle."""

import numpy as np
import pytest

from deepself.errors import ConfigError, DeepSelfError, NumericError, ShapeError
from deepself import tensor as T
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

    def test_select_gradient_hits_one_slice(self):
        x = Tensor(np.ones((2, 3, 4)), requires_grad=True)
        y = T.select(x, 1, axis=1)
        assert y.shape == (2, 4)
        y.sum().backward()
        expected = np.zeros((2, 3, 4))
        expected[:, 1, :] = 1.0
        np.testing.assert_allclose(x.grad, expected)

    def test_concat_splits_gradient(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        out = T.concat([a, b], axis=1)
        assert out.shape == (2, 5)
        (out * out).sum().backward()
        assert a.grad.shape == (2, 2) and b.grad.shape == (2, 3)

    def test_transpose_gradient(self):
        x = Tensor(np.arange(24, dtype=np.float64).reshape(2, 3, 4), requires_grad=True)
        y = T.transpose(x, (2, 0, 1))
        assert y.shape == (4, 2, 3)
        (y * y).sum().backward()
        np.testing.assert_allclose(x.grad, 2 * x.data)


class TestRecurrent:
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("cell", ["rnn", "gru", "lstm"])
    def test_overflowing_preactivation_names_the_cell(self, cell):
        width = 2 * len(T.RECURRENT_GATES[cell])
        x = Tensor(np.full((2, 3, 2), 1e10, dtype=np.float32))
        w = Tensor(np.full((2, width), 1e30, dtype=np.float32), requires_grad=True)
        u = Tensor(np.zeros((2, width), dtype=np.float32), requires_grad=True)
        b = Tensor(np.zeros(width, dtype=np.float32), requires_grad=True)
        with pytest.raises(NumericError, match=f"^{cell} produced non-finite values"):
            T.recurrent(x, w, u, b, cell)

    def test_shapes_checked(self):
        x = Tensor(np.zeros((2, 3, 4)))
        with pytest.raises(ShapeError, match="gru"):
            T.recurrent(x, np.zeros((4, 5)), np.zeros((2, 6)), np.zeros(6), "gru")
        with pytest.raises(ShapeError):
            T.recurrent(Tensor(np.zeros((2, 0, 4))), np.zeros((4, 2)), np.zeros((2, 2)),
                        np.zeros(2), "rnn")
        with pytest.raises(ConfigError):
            T.recurrent(x, np.zeros((4, 2)), np.zeros((2, 2)), np.zeros(2), "conv")

    def test_one_tape_record_per_direction(self):
        x = Tensor(np.ones((2, 5, 3)), requires_grad=True)
        w, u, b = (Tensor(np.zeros(s), requires_grad=True) for s in ((3, 8), (2, 8), (8,)))
        tape = T.active_tape()
        tape.clear()
        out = T.recurrent(x, w, u, b, "lstm", reverse=True)
        assert out.shape == (2, 5, 2)
        assert [rec.op for rec in tape] == ["lstm"]
        tape.clear()
