"""Tensor arithmetic, tape mechanics, and the finite-difference oracle."""

import threading
import tracemalloc

import numpy as np
import pytest

from deepself.errors import ConfigError, DataError, DeepSelfError, NumericError, ShapeError
from deepself import tensor as T
from deepself.models import Conv, ModelSpec, Recurrent, forward, init_model, plan_shapes
from deepself.tensor import Tensor
from tape_ops import dot, reshape


def naive_matmul(a, b):
    """Triple-loop matrix product, the independent oracle for linear."""
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
        loss = dot(x, x)
        loss.backward()
        assert x.grad.shape == x.data.shape


def linear_nobias(a, b):
    return T.linear(a, b, Tensor(np.zeros(b.shape[1], dtype=b.dtype)))


class TestMatmul:
    """linear: its matrix product against a triple-loop oracle, its bias and its backward."""

    def test_identity(self):
        eye = Tensor(np.eye(2))
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_allclose(linear_nobias(eye, b).data, b.data)

    def test_against_triple_loop_oracle(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        expected = naive_matmul(a, b)
        np.testing.assert_allclose(expected, [[19.0, 22.0], [43.0, 50.0]])
        got = T.linear(Tensor(a), Tensor(b), Tensor([0.5, -1.0])).data
        np.testing.assert_allclose(got, expected + [0.5, -1.0])

    def test_random_against_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m, k, n = rng.integers(1, 6, size=3)
            a = rng.standard_normal((m, k))
            b = rng.standard_normal((k, n))
            bias = rng.standard_normal(n)
            got = T.linear(Tensor(a), Tensor(b), Tensor(bias)).data
            np.testing.assert_allclose(got, naive_matmul(a, b) + bias[None, :], rtol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        a = Tensor(np.zeros((2, 3)))
        b = Tensor(np.zeros((4, 5)))
        with pytest.raises(ShapeError) as err:
            T.linear(a, b, Tensor(np.zeros(5)))
        assert "(2, 3)" in str(err.value) and "(4, 5)" in str(err.value)
        with pytest.raises(ShapeError, match=r"\(4,\)"):
            T.linear(a, Tensor(np.zeros((3, 5))), Tensor(np.zeros(4)))

    def test_associativity_random_chains(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a = Tensor(rng.standard_normal((4, 5)).astype(np.float32))
            b = Tensor(rng.standard_normal((5, 3)).astype(np.float32))
            c = Tensor(rng.standard_normal((3, 6)).astype(np.float32))
            left = linear_nobias(linear_nobias(a, b), c).data
            right = linear_nobias(a, linear_nobias(b, c)).data
            np.testing.assert_allclose(left, right, rtol=1e-4, atol=1e-5)

    def test_backward_is_the_matmul_and_bias_rule(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        b = Tensor(rng.standard_normal(2), requires_grad=True)
        upstream = rng.standard_normal((4, 2))
        T.backward(dot(T.linear(x, w, b), Tensor(upstream)))
        np.testing.assert_array_equal(x.grad, upstream @ w.data.T)
        np.testing.assert_array_equal(w.grad, x.data.T @ upstream)
        np.testing.assert_array_equal(b.grad, upstream.sum(axis=0))


def zero_bias(kernels):
    return Tensor(np.zeros(kernels.shape[0], dtype=kernels.dtype))


def convolve_one(x, kernels, stride=1, padding=0, bias=None):
    """Cross-correlate one [C_in, *sp] sample: conv_nd_batched on a batch of one."""
    batch = (x.data if isinstance(x, Tensor) else x)[None]
    bias = zero_bias(kernels) if bias is None else bias
    return T.conv_nd_batched(batch, kernels, stride, padding, bias).data[0]


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

    def test_stride_none_is_config_error(self):
        x = Tensor(np.zeros((1, 1, 4)))
        k = Tensor(np.zeros((1, 1, 2)))
        with pytest.raises(ConfigError, match="stride must be a sequence"):
            T.conv_nd_batched(x, k, None, 0, zero_bias(k))


def window_indices(padded_sp, out_sp, kernel_sp, stride):
    """Flat index of each window's each offset in one padded spatial block, [O, K]."""
    starts = np.indices(out_sp).reshape(len(out_sp), -1, 1) * np.reshape(stride, (-1, 1, 1))
    offsets = np.indices(kernel_sp).reshape(len(kernel_sp), 1, -1)
    return np.ravel_multi_index(tuple(starts + offsets), padded_sp)


def scatter_conv_input_grad(g, kernels, spatial, stride, padding):
    """d loss / d x of a conv by the np.add.at scatter of every window gradient.

    The oracle for conv_nd_batched's col2im: the same matmul, then one
    unbuffered add per (batch, channel, window, offset) in C order.
    """
    batch, c_out, *out_sp = g.shape
    c_in, kernel_sp = kernels.shape[1], kernels.shape[2:]
    padded_sp = tuple(n + 2 * p for n, p in zip(spatial, padding))
    win = window_indices(padded_sp, tuple(out_sp), kernel_sp, stride)
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


def gather_conv_forward(x, kernels, bias, stride, padding):
    """A conv's output and patch matrix by the [:, :, win] gather of every window.

    The oracle for conv_nd_batched's one-take im2col: the gather into
    [B, C_in, O, K], a transpose copy to the [B*O, C_in*K] patch matrix, the
    same matmul, then the bias added to the transposed product.
    """
    batch, c_in, *spatial = x.shape
    c_out, kernel_sp = kernels.shape[0], kernels.shape[2:]
    padded = np.pad(x, [(0, 0), (0, 0)] + [(p, p) for p in padding])
    out_sp = tuple((n - k) // s + 1 for n, k, s in zip(padded.shape[2:], kernel_sp, stride))
    win = window_indices(padded.shape[2:], out_sp, kernel_sp, stride)
    patches = padded.reshape(batch, c_in, -1)[:, :, win]  # [B, C_in, O, K]
    # C order, like the op's: a Fortran-ordered pmat (one output position) takes another matmul path
    pmat = np.ascontiguousarray(patches.transpose(0, 2, 1, 3).reshape(batch * win.shape[0], c_in * win.shape[1]))
    out = (pmat @ kernels.reshape(c_out, -1).T).reshape(batch, win.shape[0], c_out).transpose(0, 2, 1)
    return (out + bias[None, :, None]).reshape(batch, c_out, *out_sp), pmat


# [B, C_in, *sp], [C_out, C_in, *k], stride, padding
CONV_GEOMETRIES = {
    "1d-overlap-padded": ((3, 2, 29), (4, 2, 5), (2,), (2,)),
    "1d-k8s4-k4s4": ((2, 3, 40), (4, 3, 8), (4,), (0,)),
    "1d-gaps": ((2, 2, 17), (3, 2, 2), (3,), (1,)),
    "2d-overlap-padded": ((2, 3, 9, 10), (4, 3, 3, 3), (1, 2), (1, 1)),
    "3d-overlap-padded": ((2, 2, 5, 6, 5), (3, 2, 3, 2, 3), (1, 2, 1), (1, 0, 1)),
}

# the conv layers of the benchmark's 1-D (cnn-train) and 2-D (cli-pipeline) CNNs
BENCHMARK_CONV_LAYERS = {
    "cnn-train-conv1": ((16, 1, 4097), (8, 1, 8), (4,), (0,)),
    "cnn-train-conv2": ((16, 8, 1023), (16, 8, 4), (4,), (0,)),
    "cli-pipeline-conv1": ((16, 1, 26, 31), (8, 1, 3, 3), (2, 2), (0, 0)),
    "cli-pipeline-conv2": ((16, 8, 12, 15), (16, 8, 3, 3), (2, 2), (0, 0)),
}


def check_conv_equals_gather(x_shape, k_shape, stride, padding, dtype, seed):
    """conv_nd_batched's output, d_kernels and d_bias are bit-equal to the gather oracle's."""
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal(x_shape).astype(dtype), requires_grad=True)
    k = Tensor(rng.standard_normal(k_shape).astype(dtype), requires_grad=True)
    bias = Tensor(rng.standard_normal(k_shape[0]).astype(dtype), requires_grad=True)
    y = T.conv_nd_batched(x, k, stride, padding, bias)
    expected, pmat = gather_conv_forward(x.data, k.data, bias.data, stride, padding)
    assert y.data.dtype == expected.dtype and y.data.flags.c_contiguous
    np.testing.assert_array_equal(y.data, expected)
    upstream = rng.standard_normal(y.shape).astype(dtype)
    T.backward(dot(y, Tensor(upstream)))
    g2 = upstream.reshape(x_shape[0], k_shape[0], -1).transpose(0, 2, 1).reshape(-1, k_shape[0])
    np.testing.assert_array_equal(k.grad, (g2.T @ pmat).reshape(k_shape))
    np.testing.assert_array_equal(bias.grad, g2.sum(axis=0))


class TestConvForward:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", sorted(CONV_GEOMETRIES) + sorted(BENCHMARK_CONV_LAYERS))
    def test_equals_gather_oracle(self, name, dtype):
        geometry = CONV_GEOMETRIES.get(name) or BENCHMARK_CONV_LAYERS[name]
        check_conv_equals_gather(*geometry, dtype, seed=15)

    def test_random_geometries_equal_gather_oracle(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def geometries(draw):
            rank, c_in, batch, c_out = (draw(st.integers(1, n)) for n in (3, 4, 3, 3))
            axes = st.lists(st.integers(1, 3), min_size=rank, max_size=rank)
            kernel, stride = draw(axes), draw(axes)
            padding = draw(st.lists(st.integers(0, 2), min_size=rank, max_size=rank))
            spatial = [draw(st.integers(max(1, k - 2 * p), k - 2 * p + 6)) for k, p in zip(kernel, padding)]
            return (batch, c_in, *spatial), (c_out, c_in, *kernel), tuple(stride), tuple(padding)

        @hypothesis.settings(max_examples=60, deadline=None, database=None)
        @hypothesis.given(geometries(), st.sampled_from([np.float32, np.float64]), st.integers(0, 2**32 - 1))
        @hypothesis.example(((2, 1, 2), (1, 1, 2), (1,), (0,)), np.float32, 1)  # one output position
        def check(geometry, dtype, seed):
            check_conv_equals_gather(*geometry, dtype, seed=seed)

        check()


class TestConvBackward:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", sorted(CONV_GEOMETRIES))
    def test_input_grad_equals_add_at_scatter(self, name, dtype):
        x_shape, k_shape, stride, padding = CONV_GEOMETRIES[name]
        rng = np.random.default_rng(11)
        x = Tensor(rng.standard_normal(x_shape).astype(dtype), requires_grad=True)
        k = Tensor(rng.standard_normal(k_shape).astype(dtype), requires_grad=True)
        y = T.conv_nd_batched(x, k, stride, padding, zero_bias(k))
        upstream = rng.standard_normal(y.shape).astype(dtype)
        T.backward(dot(y, Tensor(upstream)))
        expected = scatter_conv_input_grad(upstream, k.data, x_shape[2:], stride, padding)
        assert x.grad.dtype == expected.dtype
        np.testing.assert_array_equal(x.grad, expected)

    def test_input_without_grad_gets_none(self):
        rng = np.random.default_rng(12)
        x = Tensor(rng.standard_normal((2, 3, 11)))
        k = Tensor(rng.standard_normal((4, 3, 3)), requires_grad=True)
        tape = T.active_tape()
        tape.clear()
        y = T.conv_nd_batched(x, k, 2, 1, zero_bias(k))
        d_x, d_k, d_bias = tape[-1].backward_fn(np.ones(y.shape, dtype=y.dtype))
        assert d_x is None
        assert d_k.shape == k.shape and d_bias.shape == (4,)
        T.backward(dot(y, y))
        assert x.grad is None
        assert k.grad.shape == k.shape


class TestSumRows:
    def test_same_bytes_as_sum_over_rows(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def arrays(draw):
            lead = draw(st.sampled_from([(), (1,), (2,), (3,)]))
            rows, cols = draw(st.integers(1, 300)), draw(st.integers(1, 20))
            dtype = draw(st.sampled_from([np.float32, np.float64]))
            layout = draw(st.sampled_from(["c", "transposed", "row-sliced"]))
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            extent = 2 * rows if layout == "row-sliced" else rows
            shape = (*lead, cols, extent) if layout == "transposed" else (*lead, extent, cols)
            values = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, size=shape)
            values[rng.random(shape) < 0.1] = 0.0
            values[rng.random(shape) < 0.1] = -0.0
            a = values.astype(dtype)
            if layout == "transposed":
                return np.swapaxes(a, -1, -2)  # F-ordered for [N, C]
            return a[..., ::2, :] if layout == "row-sliced" else a

        @hypothesis.settings(max_examples=150, deadline=None, database=None)
        @hypothesis.given(arrays())
        def check(a):
            got, expected = T._sum_rows(a), a.sum(axis=-2)
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()
            assert not np.shares_memory(got, a)

        check()


def conv_geometries(st, invalid=False):
    """Hypothesis strategy for ``(c_in, spatial, kernel, stride, padding)`` of spatial rank 1 to 3.

    With ``invalid``, one axis's kernel is wider than its padded input, so
    that axis has no output position.
    """
    @st.composite
    def geometries(draw):
        rank, c_in = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        bad = draw(st.integers(0, rank - 1)) if invalid else None
        axes = []
        for axis in range(rank):
            stride, padding = draw(st.integers(1, 3)), draw(st.integers(0, 2))
            if axis == bad:
                kernel = draw(st.integers(2 * padding + 2, 2 * padding + 5))
                extent = draw(st.integers(1, kernel - 2 * padding - 1))
            else:
                kernel = draw(st.integers(1, 4))
                extent = draw(st.integers(max(1, kernel - 2 * padding), kernel - 2 * padding + 8))
            axes.append((extent, kernel, stride, padding))
        return (c_in, *map(tuple, zip(*axes)))

    return geometries()


def conv_zeros(batch, c_in, spatial, kernel, stride, padding):
    """``conv_nd_batched`` of a zero batch with two zero kernels of the given geometry."""
    k = Tensor(np.zeros((2, c_in, *kernel), dtype=np.float32))
    return T.conv_nd_batched(np.zeros((batch, c_in, *spatial), dtype=np.float32), k, stride, padding, zero_bias(k))


def conv_spec(c_in, spatial, kernel, stride, padding):
    return ModelSpec((c_in, *spatial), (Conv(len(spatial), 2, kernel, stride, padding),), 2)


class TestConvWindowCache:
    def test_cached_window_indices_are_read_only(self):
        geometry = T._conv_geometry(2, (8,), (3,), (2,), (1,))
        assert geometry is T._conv_geometry(2, (8,), (3,), (2,), (1,))
        out_sp, padded_sp, unpad, idx, windows = geometry
        assert (out_sp, padded_sp, unpad) == ((4,), (10,), (slice(None), slice(None), slice(1, 9)))
        with pytest.raises(ValueError):
            idx[0] = 1
        # [O, C_in, K] order: window o's offset k of channel c sits at 2*o + k + 10*c
        expected = [2 * o + k + 10 * c for o in range(4) for c in range(2) for k in range(3)]
        assert idx.dtype == np.int64 and idx.tolist() == expected
        # col2im: offset k's gradient slab lands on k, k + 2, ..., k + 6, last offset first
        assert windows == tuple(((Ellipsis, k), (slice(None), slice(None), slice(k, k + 7, 2))) for k in (2, 1, 0))
        other = T._conv_geometry(3, (8,), (3,), (2,), (1,))[3]
        assert other.tolist() == [2 * o + k + 10 * c for o in range(4) for c in range(3) for k in range(3)]

    def test_plan_op_and_per_axis_extents_agree(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=60, deadline=None, database=None)
        @hypothesis.given(conv_geometries(st), st.integers(1, 3))
        def check(geometry, batch):
            c_in, spatial, kernel, stride, padding = geometry
            per_axis = tuple(T.infer_conv_output_size(*axis) for axis in zip(spatial, kernel, stride, padding))
            assert plan_shapes(conv_spec(*geometry))[0].out_shape == (2, *per_axis)
            assert conv_zeros(batch, *geometry).shape == (batch, 2, *per_axis)

        check()

    def test_invalid_geometry_raises_one_error_from_plan_and_op(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=60, deadline=None, database=None)
        @hypothesis.given(conv_geometries(st, invalid=True))
        def check(geometry):
            c_in, spatial, kernel, stride, padding = geometry
            with pytest.raises(ConfigError) as per_axis:
                for axis, extents in enumerate(zip(spatial, kernel, stride, padding)):
                    T.infer_conv_output_size(*extents, axis=axis)
            with pytest.raises(ConfigError) as op:
                conv_zeros(1, *geometry)
            with pytest.raises(ConfigError) as plan:
                plan_shapes(conv_spec(*geometry))
            assert str(op.value) == str(per_axis.value)
            assert str(plan.value) == f"layer 0: {per_axis.value}"

        check()

    def test_same_geometry_other_batch_size_builds_nothing(self, monkeypatch):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        calls = []
        infer = T.infer_conv_output_size
        monkeypatch.setattr(T, "infer_conv_output_size", lambda *args, **kw: calls.append(args) or infer(*args, **kw))

        @hypothesis.settings(max_examples=60, deadline=None, database=None)
        @hypothesis.given(conv_geometries(st), st.integers(1, 3), st.integers(1, 3))
        def check(geometry, batch, other_batch):
            conv_zeros(batch, *geometry)
            before, calls[:] = T._conv_geometry.cache_info(), []
            conv_zeros(other_batch, *geometry)
            after = T._conv_geometry.cache_info()
            assert (after.hits - before.hits, after.misses - before.misses, calls) == (1, 0, [])

        check()

    def test_plan_warms_the_op_cache(self):
        geometry = (2, (9, 7), (3, 2), (2, 1), (1, 0))
        T._conv_geometry.cache_clear()
        plan_shapes(conv_spec(*geometry))
        conv_zeros(4, *geometry)
        assert T._conv_geometry.cache_info()[:2] == (1, 1)  # (hits, misses)

    def test_bool_extents_rejected_after_equal_ints_cached(self):
        # (True, True) == (1, 1) and both hash alike: only validated ints may key the cache
        conv_zeros(1, 1, (4, 4), (2, 2), (1, 1), (0, 0))
        with pytest.raises(ConfigError, match="stride must be an integer"):
            conv_zeros(1, 1, (4, 4), (2, 2), (True, True), (0, 0))
        with pytest.raises(ConfigError, match="padding must be an integer"):
            conv_zeros(1, 1, (4, 4), (2, 2), (1, 1), (False, False))
        with pytest.raises(ConfigError, match="Conv stride must be an integer"):
            Conv(2, 2, (2, 2), (True, True), (0, 0))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", sorted(CONV_GEOMETRIES))
    def test_padded_conv_equals_np_pad_reference(self, name, dtype):
        x_shape, k_shape, stride, padding = CONV_GEOMETRIES[name]
        rng = np.random.default_rng(13)
        x = Tensor(rng.standard_normal(x_shape).astype(dtype), requires_grad=True)
        k = Tensor(rng.standard_normal(k_shape).astype(dtype))
        bias = Tensor(rng.standard_normal(k_shape[0]).astype(dtype))
        # reference: pad with np.pad, then convolve unpadded
        padded = Tensor(np.pad(x.data, [(0, 0), (0, 0)] + [(p, p) for p in padding]), requires_grad=True)
        ref = T.conv_nd_batched(padded, k, stride, 0, bias)
        upstream = rng.standard_normal(ref.shape).astype(dtype)
        T.backward(dot(ref, Tensor(upstream)))
        y = T.conv_nd_batched(x, k, stride, padding, bias)
        np.testing.assert_array_equal(y.data, ref.data)
        T.backward(dot(y, Tensor(upstream)))
        unpad = tuple(slice(p, p + n) for p, n in zip(padding, x_shape[2:]))
        assert x.grad.dtype == dtype
        np.testing.assert_array_equal(x.grad, padded.grad[(slice(None), slice(None)) + unpad])

    def test_same_geometry_other_batch_size(self):
        # predict_batches' last, partial batch reuses the full batches' geometry
        rng = np.random.default_rng(14)
        x = rng.standard_normal((5, 2, 9, 8)).astype(np.float32)
        k = Tensor(rng.standard_normal((3, 2, 3, 3)).astype(np.float32))
        T._conv_geometry.cache_clear()
        bias = zero_bias(k)
        cold = T.conv_nd_batched(x[3:], k, (2, 1), (1, 1), bias).data
        T._conv_geometry.cache_clear()
        full = T.conv_nd_batched(x, k, (2, 1), (1, 1), bias).data
        warm = T.conv_nd_batched(x[3:], k, (2, 1), (1, 1), bias).data
        info = T._conv_geometry.cache_info()
        assert (info.misses, info.hits) == (1, 1)  # batch is not part of the index
        np.testing.assert_array_equal(warm, cold)
        for i in range(5):
            np.testing.assert_allclose(full[i], convolve_one(x[i], k, (2, 1), (1, 1)), rtol=1e-5, atol=1e-6)


def activated(values, kind):
    """``values`` through ``linear`` with an identity weight, a zero bias and activation ``kind``."""
    n = len(values)
    return T.linear(Tensor([values]), Tensor(np.eye(n)), Tensor(np.zeros(n)), kind).data[0]


class TestActivations:
    def test_relu_negative(self):
        assert activated([-1.0], "relu")[0] == 0.0

    def test_sigmoid_zero(self):
        assert activated([0.0], "sigmoid")[0] == pytest.approx(0.5)

    def test_tanh_zero(self):
        assert activated([0.0], "tanh")[0] == 0.0

    def test_sigmoid_saturation_is_finite(self):
        np.testing.assert_allclose(activated([-1000.0, 1000.0], "sigmoid"), [0.0, 1.0], atol=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            activated([0.0], "gelu")


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
        with pytest.raises(DataError, match="target label 2 at row 0"):
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
        loss = dot(x, x)
        loss.backward()
        np.testing.assert_allclose(x.grad, [2.0, -4.0, 6.0], rtol=1e-12)

    def test_matches_finite_differences(self):
        x = Tensor([1.0, -2.0, 3.0], requires_grad=True, dtype=np.float64)
        loss = dot(x, x)
        loss.backward()
        numeric = T.finite_diff_grad(lambda t: dot(t, t), x)
        np.testing.assert_allclose(x.grad, numeric, rtol=1e-6)

    def test_unused_tensor_gets_zero_grad(self):
        x = Tensor([1.0, 1.0], requires_grad=True)
        z = Tensor([3.0, 4.0], requires_grad=True)
        _ = reshape(x, (2, 1))  # on the tape, but not feeding the loss
        loss = dot(z, z)
        loss.backward()
        np.testing.assert_allclose(x.grad, [0.0, 0.0])

    def test_each_call_gives_its_own_loss_gradient(self):
        # a grad left by an earlier backward is replaced, not added to
        x = Tensor([3.0], requires_grad=True, dtype=np.float64)
        grads = []
        for _ in range(3):
            dot(x, x).backward()
            grads.append(x.grad.copy())
        np.testing.assert_array_equal(grads, [[6.0], [6.0], [6.0]])

    def test_reuse_accumulates(self):
        y = Tensor([1.0], requires_grad=True)
        loss = dot(y, y)
        loss.backward()
        np.testing.assert_allclose(y.grad, [2.0])

    def test_accumulating_leaves_a_shared_view_alone(self):
        # x's first gradient is a view of y's (reshape); its second must not reach y
        x = Tensor([1.0, 2.0, 3.0, 4.0], requires_grad=True, dtype=np.float64)
        row = reshape(x, (1, 4))
        y = reshape(x, (4, 1))
        T.linear(row, y, Tensor(np.zeros(1))).backward()  # x . x
        np.testing.assert_array_equal(x.grad, [2.0, 4.0, 6.0, 8.0])
        np.testing.assert_array_equal(y.grad, [[1.0], [2.0], [3.0], [4.0]])
        np.testing.assert_array_equal(row.grad, [[1.0, 2.0, 3.0, 4.0]])

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = reshape(x, (2, 1))
        with pytest.raises(ShapeError):
            y.backward()

    def test_loss_not_on_tape_rejected(self):
        with pytest.raises(DeepSelfError):
            Tensor(1.0, requires_grad=True).backward()

    def test_tape_cleared_after_backward(self):
        x = Tensor([1.0], requires_grad=True)
        dot(x, x).backward()
        assert len(T.active_tape()) == 0

    def test_no_grad_suspends_recording(self):
        x = Tensor([1.0], requires_grad=True)
        with T.no_grad():
            y = dot(x, x)
        assert not y.requires_grad
        assert len(T.active_tape()) == 0


class TestFiniteDiff:
    def test_sum_is_all_ones(self):
        x = Tensor(np.random.default_rng(0).standard_normal(5))
        g = T.finite_diff_grad(lambda t: dot(t, Tensor(np.ones(5))), x)
        np.testing.assert_allclose(g, 1.0, atol=1e-9)

    def test_square_at_three(self):
        g = T.finite_diff_grad(lambda t: dot(t, t), Tensor([3.0]), h=1e-5)
        assert abs(g[0] - 6.0) < 1e-6

    def test_constant_function(self):
        g = T.finite_diff_grad(lambda t: Tensor(2.5), Tensor([1.0, 2.0]))
        np.testing.assert_allclose(g, 0.0)

    def test_rejects_zero_step(self):
        with pytest.raises(ConfigError):
            T.finite_diff_grad(lambda t: dot(t, t), Tensor([1.0]), h=0.0)


class TestShapeOps:
    def test_cnn_to_rnn_reshape_gradient(self):
        # values only move: input [b, c, f, t] gets the upstream value of output [b, t, c*F + f]
        rng = np.random.default_rng(15)
        for shape in ((2, 3, 4), (2, 3, 2, 4)):
            freq = shape[2] if len(shape) == 4 else 1
            x = Tensor(rng.standard_normal(shape), requires_grad=True)
            upstream = rng.standard_normal((2, 4, 3 * freq))
            dot(T.cnn_to_rnn_reshape(x), Tensor(upstream)).backward()
            grad = x.grad.reshape(2, 3, freq, 4)
            for b, c, f, t in np.ndindex(grad.shape):
                assert grad[b, c, f, t] == upstream[b, t, c * freq + f]


def fused_params(cell, features, hidden, directions=1, w=0.0):
    """Fused W [D, F, G*H] filled with ``w``, and zero U [D, H, G*H] and b [D, G*H]."""
    width = len(T.RECURRENT_GATES[cell]) * hidden
    return tuple(Tensor(np.full(shape, value, dtype=np.float32), requires_grad=True)
                 for shape, value in (((directions, features, width), w), ((directions, hidden, width), 0.0),
                                      ((directions, width), 0.0)))


class TestRecurrent:
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("cell", ["rnn", "gru", "lstm"])
    def test_overflowing_preactivation_names_the_cell(self, cell):
        x = Tensor(np.full((2, 3, 2), 1e10, dtype=np.float32))
        with pytest.raises(NumericError, match=f"^{cell} produced non-finite values"):
            T.recurrent(x, *fused_params(cell, 2, 2, w=1e30), cell)

    def test_shapes_checked(self):
        x = Tensor(np.zeros((2, 3, 4)))
        w, u, b = fused_params("gru", 4, 2, directions=2)
        with pytest.raises(ShapeError, match="gru"):
            T.recurrent(x, Tensor(np.zeros((2, 4, 5))), u, b, "gru")  # W not 3 gates wide
        with pytest.raises(ShapeError, match="gru"):
            T.recurrent(x, w, u, Tensor(np.zeros((1, 6))), "gru")  # b for one direction of two
        with pytest.raises(ShapeError, match="gru"):
            T.recurrent(x, *fused_params("gru", 4, 2, directions=3), "gru")
        with pytest.raises(ShapeError):
            T.recurrent(x, w, Tensor(np.zeros((2, 6))), b, "gru")
        with pytest.raises(ShapeError):
            T.recurrent(Tensor(np.zeros((2, 0, 4))), *fused_params("rnn", 4, 2), "rnn")
        with pytest.raises(ConfigError):
            T.recurrent(x, *fused_params("rnn", 4, 2), "conv")
        with pytest.raises(ShapeError):
            T.final_states(Tensor(np.zeros((2, 3, 6))), 3)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("directions", [1, 2])
    @pytest.mark.parametrize("cell", ["rnn", "gru", "lstm"])
    def test_inference_scan_equals_recorded_scan(self, cell, directions, dtype):
        rng = np.random.default_rng(5)
        width = 4 * len(T.RECURRENT_GATES[cell])
        arrays = [(0.5 * rng.standard_normal(shape)).astype(dtype)
                  for shape in ((directions, 3, width), (directions, 4, width), (directions, width))]
        x = rng.standard_normal((5, 7, 3)).astype(dtype)

        def scan(requires_grad):
            return T.recurrent(Tensor(x), *(Tensor(a, requires_grad=requires_grad) for a in arrays), cell)

        tape = T.active_tape()
        tape.clear()
        recorded = scan(True)
        assert [rec.op for rec in tape] == [cell]
        assert len(tape[0].inputs) == 4
        tape.clear()
        with T.no_grad():
            inferred = scan(True)
        frozen = scan(False)
        assert not tape
        assert recorded.dtype == dtype
        np.testing.assert_array_equal(inferred.data, recorded.data)
        np.testing.assert_array_equal(frozen.data, recorded.data)

    def test_inference_scan_keeps_no_gate_history(self):
        # B=16, T=64, H=32: no-grad peak below the recorded one by at least a [D, T, B, 3H] buffer
        model = init_model(ModelSpec((64, 8), (Recurrent("gru", 32, 1, "bi"),), 2, seed=0))
        batch = np.random.default_rng(1).standard_normal((16, 64, 8)).astype(np.float32)

        def peak(record):
            tracemalloc.start()
            try:
                if record:
                    forward(model, batch)
                else:
                    with T.no_grad():
                        forward(model, batch)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                T.active_tape().clear()

        gate_buffer = 2 * 64 * 16 * 3 * 32 * np.dtype(np.float32).itemsize
        assert peak(False) <= peak(True) - gate_buffer

    def test_one_tape_record_per_layer(self):
        # a 2-layer bi-GRU: one record per sub-layer, both directions in it, and one for the head
        model = init_model(ModelSpec((5, 3), (Recurrent("gru", 4, 2, "bi"),), 2, seed=0))
        tape = T.active_tape()
        tape.clear()
        forward(model, np.ones((2, 5, 3), dtype=np.float32))
        assert [rec.op for rec in tape] == ["gru", "gru", "final_states", "linear"]
        tape.clear()


def blocked_equals_per_block(op, x, rows, blocks=3):
    """``op`` on ``blocks`` blocks of ``rows`` samples under no_grad(block_rows=rows), against
    the concatenation of ``op`` on each block alone, byte for byte."""
    assert len(x) == blocks * rows
    with T.no_grad(block_rows=rows):
        whole = op(x).data
    with T.no_grad():
        parts = [op(x[j:j + rows]).data for j in range(0, len(x), rows)]
    assert whole.dtype == parts[0].dtype
    assert whole.tobytes() == np.concatenate(parts).tobytes()


class TestRowBlocks:
    @pytest.mark.parametrize("rows", [1, 3, 16])
    def test_linear(self, rows):
        rng = np.random.default_rng(21)
        w, b = (Tensor(rng.standard_normal(shape).astype(np.float32)) for shape in ((64, 48), (48,)))
        x = rng.standard_normal((3 * rows, 4, 16)).astype(np.float32)
        blocked_equals_per_block(lambda part: T.linear(part, w, b, "tanh"), x, rows)

    @pytest.mark.parametrize("rows", [1, 3, 16])
    @pytest.mark.parametrize("x_shape, k_shape, stride, padding", [
        ((2, 40), (8, 2, 5), (2,), (1,)),
        ((2, 9, 8), (8, 2, 3, 3), (2, 1), (1, 1)),
        ((1, 5, 6, 7), (4, 1, 2, 3, 2), (1, 2, 1), (1, 0, 1)),
    ], ids=["1d", "2d", "3d"])
    def test_conv(self, x_shape, k_shape, stride, padding, rows):
        rng = np.random.default_rng(22)
        k, b = (Tensor(rng.standard_normal(shape).astype(np.float32)) for shape in (k_shape, k_shape[:1]))
        x = rng.standard_normal((3 * rows, *x_shape)).astype(np.float32)
        blocked_equals_per_block(lambda part: T.conv_nd_batched(part, k, stride, padding, b, "relu"), x, rows)

    @pytest.mark.parametrize("rows", [1, 3, 16])
    @pytest.mark.parametrize("directions", [1, 2])
    @pytest.mark.parametrize("cell", ["rnn", "gru", "lstm"])
    def test_unrecorded_scan(self, cell, directions, rows):
        rng = np.random.default_rng(23)
        width = 16 * len(T.RECURRENT_GATES[cell])
        arrays = [Tensor((0.3 * rng.standard_normal(shape)).astype(np.float32), requires_grad=True)
                  for shape in ((directions, 8, width), (directions, 16, width), (directions, width))]
        x = rng.standard_normal((3 * rows, 6, 8)).astype(np.float32)
        blocked_equals_per_block(lambda part: T.recurrent(part, *arrays, cell), x, rows)

    def test_only_whole_multiples_split_and_nesting_keeps_the_rows(self):
        with T.no_grad(block_rows=4):
            assert [T._row_blocks(n) for n in (4, 8, 12, 6, 3)] == [1, 2, 3, 1, 1]
            with T.no_grad():
                assert T._row_blocks(8) == 2 and not T._recording()
        assert T._row_blocks(8) == 1 and T._recording()

    @pytest.mark.parametrize("rows", [0, -1, 2.0, "4"])
    def test_block_rows_must_be_a_positive_integer(self, rows):
        with pytest.raises(ConfigError, match="block_rows"):
            T.no_grad(block_rows=rows)
        assert T._recording()


def recorded_scan(cell, directions, dtype, batch=5):
    """Output and the four gradients of one recorded scan and its backward, from fixed inputs."""
    rng = np.random.default_rng(9)
    width = 4 * len(T.RECURRENT_GATES[cell])
    inputs = [Tensor((0.5 * rng.standard_normal(shape)).astype(dtype), requires_grad=True)
              for shape in ((batch, 7, 3), (directions, 3, width), (directions, 4, width), (directions, width))]
    y = T.recurrent(*inputs, cell)
    T.backward(dot(y, Tensor(rng.standard_normal(y.shape).astype(dtype))))
    return [y.data] + [t.grad for t in inputs]


def bigru_step(model, batch, labels):
    logits, _ = forward(model, batch)
    T.backward(T.softmax_cross_entropy(logits, labels)[0])


class TestScanPool:
    @pytest.fixture(autouse=True)
    def empty_pool(self):
        T._state.scan_pool = []
        yield
        T._state.scan_pool = []

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("directions", [1, 2])
    @pytest.mark.parametrize("cell", ["rnn", "gru", "lstm"])
    def test_poisoned_pool_changes_no_bit(self, cell, directions, dtype):
        expected = recorded_scan(cell, directions, dtype)
        pooled = list(T._state.scan_pool)
        assert pooled
        for buffer in pooled:
            buffer.fill(np.nan)
        got = recorded_scan(cell, directions, dtype)
        assert sorted(map(id, T._state.scan_pool)) == sorted(map(id, pooled))  # the poisoned buffers served
        for g, e in zip(got, expected):
            assert g.dtype == e.dtype
            np.testing.assert_array_equal(g, e)

    @pytest.mark.parametrize("batch", [1, 4])  # with B = 1 the [T, B, F] -> [B, T, F] transpose is contiguous
    @pytest.mark.parametrize("cell", ["rnn", "gru", "lstm"])
    def test_results_alias_no_pooled_buffer(self, cell, batch):
        results = recorded_scan(cell, 1, np.float64, batch=batch)
        kept = [r.copy() for r in results]
        for buffer in T._state.scan_pool:
            buffer.fill(np.nan)
        for r, k in zip(results, kept):
            np.testing.assert_array_equal(r, k)

    def test_second_step_allocates_no_scan_buffer(self):
        # the rnn-train model: a 2-layer bi-GRU at B=16, T=64, H=32
        model = init_model(ModelSpec((64, 8), (Recurrent("gru", 32, 2, "bi"),), 2, seed=0))
        rng = np.random.default_rng(1)
        batch, labels = rng.standard_normal((16, 64, 8)).astype(np.float32), np.arange(16) % 2
        bigru_step(model, batch, labels)
        pooled = list(T._state.scan_pool)
        assert sum(a.shape[:3] == (64, 2, 16) for a in pooled) >= 2 * 5  # pre_h, pre_n, gates_h, gates_n, rh
        tracemalloc.start()
        try:
            bigru_step(model, batch, labels)
            traced = [a for a in T._state.scan_pool if tracemalloc.get_object_traceback(a) is not None]
        finally:
            tracemalloc.stop()
        assert not traced
        assert sorted(map(id, T._state.scan_pool)) == sorted(map(id, pooled))

    def test_bound_holds_across_shapes(self, monkeypatch):
        monkeypatch.setattr(T, "SCAN_POOL_BYTES", 1 << 18)  # below the buffers of one batch-39 scan
        for batch in range(1, 40):
            recorded_scan("lstm", 2, np.float64, batch=batch)
            assert 0 < sum(a.nbytes for a in T._state.scan_pool) <= T.SCAN_POOL_BYTES
        assert all(39 in a.shape or 7 * 39 in a.shape for a in T._state.scan_pool)  # the oldest went first

    def test_unrecorded_scan_leaves_pool_alone(self):
        recorded_scan("gru", 2, np.float32)
        pooled = list(T._state.scan_pool)
        x = Tensor(np.zeros((5, 7, 3), dtype=np.float32))
        with T.no_grad():
            T.recurrent(x, *fused_params("gru", 3, 4, directions=2), "gru")
        assert [id(a) for a in T._state.scan_pool] == [id(a) for a in pooled]

    def test_each_thread_has_its_own_pool(self):
        recorded_scan("gru", 2, np.float32)
        main = list(T._state.scan_pool)
        seen = {}

        def worker():
            recorded_scan("gru", 2, np.float32)
            seen["pool"] = list(T._state.scan_pool)

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert len(seen["pool"]) == len(main) and not set(map(id, seen["pool"])) & set(map(id, main))
        assert [id(a) for a in T._state.scan_pool] == [id(a) for a in main]
