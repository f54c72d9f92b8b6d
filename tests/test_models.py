"""Topology planning, initialization, cells, and forward-pass tests."""

import math

import numpy as np
import pytest

from deepself.errors import ConfigError, FormatError, ShapeError
from deepself.models import (
    CnnToRnnReshape,
    Conv,
    Dense,
    Flatten,
    ModelSpec,
    Recurrent,
    SequenceHead,
    checkpoint_arrays,
    cnn_to_rnn_reshape,
    forward,
    init_model,
    plan_shapes,
    run_recurrent_layer,
)
from deepself.tensor import RECURRENT_GATES, Tensor, final_states, infer_conv_output_size


def conv1d(channels, kernel, stride=1, padding=0):
    return Conv(1, channels, (kernel,), (stride,), (padding,))


class TestInferConvOutputSize:
    def test_same_padding_case(self):
        assert infer_conv_output_size(28, 3, 1, 1) == 28

    def test_kernel_covers_input(self):
        assert infer_conv_output_size(5, 5, 1, 0) == 1

    def test_kernel_exceeding_input_rejected(self):
        with pytest.raises(ConfigError):
            infer_conv_output_size(3, 5, 1, 0)

    def test_bad_arguments_rejected(self):
        with pytest.raises(ConfigError):
            infer_conv_output_size(8, 3, 0, 0)
        with pytest.raises(ConfigError):
            infer_conv_output_size(8, 3, 1, -1)
        with pytest.raises(ConfigError):
            infer_conv_output_size(0, 3, 1, 0)


class TestPlanShapes:
    def test_eeg_style_cnn_plan(self):
        # 4 convolutional stages and 2 fully connected stages overall
        spec = ModelSpec(
            input_shape=(1, 4096),
            layers=(conv1d(16, 8, 2), conv1d(16, 8, 2), conv1d(32, 8, 2), conv1d(32, 8, 2),
                    Dense(64)),
            n_classes=2,
        )
        plan = plan_shapes(spec)
        assert plan.output_shape == (2,)
        dense_stages = [s for s in plan.stages if isinstance(s.layer, Dense)]
        conv_stages = [s for s in plan.stages if isinstance(s.layer, Conv)]
        assert len(conv_stages) == 4
        assert len(dense_stages) == 2
        assert dense_stages[-1].is_head
        flattens = [s for s in plan.stages if isinstance(s.layer, Flatten)]
        assert len(flattens) == 1
        assert flattens[0].in_shape == conv_stages[-1].out_shape

    def test_shrinking_chain_errors_where_extent_collapses(self):
        layers = tuple(conv1d(1, 3, 2) for _ in range(3))
        plan = plan_shapes(ModelSpec((1, 17), layers, 2))
        conv_out = [s.out_shape for s in plan.stages if isinstance(s.layer, Conv)]
        assert conv_out == [(1, 8), (1, 3), (1, 1)]
        with pytest.raises(ConfigError, match="layer 3"):
            plan_shapes(ModelSpec((1, 17), layers + (conv1d(1, 3, 2),), 2))

    def test_empty_layer_list_rejected(self):
        with pytest.raises(ConfigError):
            plan_shapes(ModelSpec((8,), (), 2))

    def test_conv_after_recurrent_rejected(self):
        spec = ModelSpec((10, 4), (Recurrent("gru", 6), conv1d(4, 3)), 2)
        with pytest.raises(ConfigError, match="recurrent"):
            plan_shapes(spec)

    def test_recurrent_needs_sequence_input(self):
        with pytest.raises(ConfigError):
            plan_shapes(ModelSpec((2, 5, 7, 3), (Recurrent("rnn", 4),), 2))
        with pytest.raises(ConfigError):
            plan_shapes(ModelSpec((9,), (Flatten(), Recurrent("rnn", 4)), 2))

    def test_implicit_reshape_after_1d_conv(self):
        spec = ModelSpec((1, 64), (conv1d(8, 5, 2), Recurrent("gru", 12)), 3)
        plan = plan_shapes(spec)
        reshape_stages = [s for s in plan.stages if isinstance(s.layer, CnnToRnnReshape)]
        assert len(reshape_stages) == 1
        assert reshape_stages[0].in_shape == (8, 30)
        assert reshape_stages[0].out_shape == (30, 8)

    def test_implicit_reshape_after_2d_conv_keeps_time_axis(self):
        spec = ModelSpec(
            (1, 12, 20),
            (Conv(2, 4, (3, 3), (1, 1), (0, 0)), Recurrent("lstm", 5)),
            2,
        )
        plan = plan_shapes(spec)
        reshape_stage = next(s for s in plan.stages if isinstance(s.layer, CnnToRnnReshape))
        assert reshape_stage.in_shape == (4, 10, 18)
        assert reshape_stage.out_shape == (18, 40)

    def test_bidirectional_head_width(self):
        plan = plan_shapes(ModelSpec((10, 4), (Recurrent("gru", 6, 2, "bi"),), 3))
        head_in = next(s for s in plan.stages if isinstance(s.layer, SequenceHead))
        assert head_in.layer == SequenceHead(2)
        assert head_in.out_shape == (12,)
        assert plan.output_shape == (3,)

    def test_sequence_without_recurrent_layer_rejected(self):
        with pytest.raises(ConfigError, match="layer 1: CnnToRnnReshape"):
            init_model(ModelSpec((1, 8), (conv1d(2, 3), CnnToRnnReshape(), Dense(4)), 2))
        with pytest.raises(ConfigError, match="layer 1: CnnToRnnReshape"):
            plan_shapes(ModelSpec((1, 8), (conv1d(2, 3), CnnToRnnReshape()), 2))

    def test_dense_head_appended_to_hidden_layers(self):
        plan = plan_shapes(ModelSpec((8,), (Dense(5),), 4))
        assert [type(s.layer).__name__ for s in plan.stages] == ["Dense", "Dense"]
        assert plan.stages[-1].is_head
        assert plan.stages[-1].out_shape == (4,)


class TestInitModel:
    def test_same_seed_bit_identical(self):
        spec = ModelSpec((1, 32), (conv1d(4, 3), Recurrent("lstm", 5, 1, "bi")), 2, seed=11)
        a, b = init_model(spec), init_model(spec)
        assert set(a.params) == set(b.params)
        for name in a.params:
            np.testing.assert_array_equal(a.params[name].data, b.params[name].data)

    def test_glorot_bound_dense(self):
        model = init_model(ModelSpec((100,), (Dense(50),), 2, seed=3))
        w = model.params["layer0.weight"].data
        assert w.shape == (100, 50)
        assert np.max(np.abs(w)) < math.sqrt(6.0 / 150.0)

    def test_biases_zero_except_lstm_forget(self):
        spec = ModelSpec((6, 3), (Recurrent("lstm", 4), Dense(5)), 2, seed=0)
        model = init_model(spec)
        biases = {name: arr for name, arr in checkpoint_arrays(model) if arr.ndim == 1}
        assert len(biases) == 6  # 4 gates + hidden dense + head
        for name, arr in biases.items():
            np.testing.assert_array_equal(arr, 1.0 if name.endswith(".b_f") else 0.0)
        # the fused b holds the gates side by side in i, f, g, o order
        np.testing.assert_array_equal(model.params["layer0.l0.b"].data, [[0] * 4 + [1] * 4 + [0] * 8])

    def test_recurrent_sub_layer_is_three_fused_arrays(self):
        # the benchmark's 2-layer bi-GRU: W, U and b per sub-layer, plus the head
        model = init_model(ModelSpec((64, 8), (Recurrent("gru", 32, 2, "bi"),), 4, seed=0))
        assert {name: p.shape for name, p in model.params.items()} == {
            "layer0.l0.W": (2, 8, 96), "layer0.l0.U": (2, 32, 96), "layer0.l0.b": (2, 96),
            "layer0.l1.W": (2, 64, 96), "layer0.l1.U": (2, 32, 96), "layer0.l1.b": (2, 96),
            "head.weight": (64, 4), "head.bias": (4,),
        }
        views = dict(checkpoint_arrays(model))
        assert len(views) == 38
        assert views["layer0.l1.bwd.W_z"].shape == (64, 32)
        views["layer0.l1.bwd.U_n"][...] = 7.0
        np.testing.assert_array_equal(model.params["layer0.l1.U"].data[1, :, 64:], 7.0)

    def test_default_dtype_is_float32(self):
        model = init_model(ModelSpec((8,), (Dense(4),), 2))
        assert all(p.data.dtype == np.float32 for p in model.params.values())

    def test_float64_verification_mode(self):
        model = init_model(ModelSpec((8,), (Dense(4),), 2), dtype=np.float64)
        assert all(p.data.dtype == np.float64 for p in model.params.values())


class TestForward:
    def test_probability_rows_sum_to_one(self):
        spec = ModelSpec((1, 40), (conv1d(4, 5, 2), Recurrent("gru", 6, 1, "bi")), 3, seed=5)
        model = init_model(spec)
        rng = np.random.default_rng(0)
        _, probs = forward(model, rng.standard_normal((7, 1, 40)).astype(np.float32))
        assert probs.shape == (7, 3)
        np.testing.assert_allclose(probs.data.sum(axis=1), 1.0, atol=1e-6)

    def test_batch_size_preserved(self):
        model = init_model(ModelSpec((8,), (Dense(4),), 2, seed=1))
        logits, _ = forward(model, np.ones((7, 8), dtype=np.float32))
        assert logits.shape == (7, 2)

    def test_identity_network_passes_input_through(self):
        model = init_model(ModelSpec((3,), (Dense(3),), 3, seed=0))
        model.params["layer0.weight"].data = np.eye(3, dtype=np.float32)
        model.params["head.weight"].data = np.eye(3, dtype=np.float32)
        batch = np.array([[0.5, 1.0, 2.0], [3.0, 0.25, 1.5]], dtype=np.float32)
        logits, _ = forward(model, batch)
        np.testing.assert_array_equal(logits.data, batch)

    def test_shape_mismatch_names_expectation(self):
        model = init_model(ModelSpec((1, 40), (conv1d(4, 5),), 2, seed=1))
        with pytest.raises(ShapeError, match="1 x 40"):
            forward(model, np.ones((2, 1, 39), dtype=np.float32))

    def test_forward_deterministic(self):
        spec = ModelSpec((5, 3), (Recurrent("lstm", 4, 2, "bi"),), 2, seed=9)
        model = init_model(spec)
        batch = np.random.default_rng(2).standard_normal((4, 5, 3)).astype(np.float32)
        a, _ = forward(model, batch)
        b, _ = forward(model, batch)
        np.testing.assert_array_equal(a.data, b.data)

    def test_cnn_rnn_stack_runs(self):
        spec = ModelSpec(
            (1, 16, 30),
            (Conv(2, 3, (3, 5), (1, 2), (1, 0)), Recurrent("rnn", 7), Dense(6)),
            4, seed=2,
        )
        model = init_model(spec)
        logits, probs = forward(model, np.random.default_rng(1).standard_normal((2, 1, 16, 30)))
        assert logits.shape == (2, 4)
        np.testing.assert_allclose(probs.data.sum(axis=1), 1.0, atol=1e-6)


def _cell_params(cell, **values):
    """One uni-directional 1-in/1-hidden layer named ``c``; each gate's W, U and b
    (keyword ``W_n``, or ``W`` for the rnn cell) zero unless given."""
    def fused(kind, shape):
        return Tensor(np.array([values.get(kind + (f"_{g}" if g else ""), 0.0)
                                for g in RECURRENT_GATES[cell]]).reshape(shape))
    return {"c.l0.W": fused("W", (1, 1, -1)), "c.l0.U": fused("U", (1, 1, -1)), "c.l0.b": fused("b", (1, -1))}


def _run_cell(cell, params, inputs):
    """Hidden state after each step of a one-feature sequence, batch of one."""
    x = Tensor(np.array(inputs, dtype=np.float64).reshape(1, len(inputs), 1))
    out = run_recurrent_layer(x, params, "c", Recurrent(cell, 1))
    return out.data[0, :, 0]


# a first step driven only through W (its input is 1, the state before it 0)
# sets up the state the step under test starts from; a zero second input
# makes W irrelevant there, so that step runs on zero parameters
_SATURATED = 50.0  # sigmoid(-50) == 0 and sigmoid(50) == 1 in float64


class TestCells:
    def test_gru_all_zero_parameters_and_state(self):
        out = _run_cell("gru", _cell_params("gru"), [3.0])
        np.testing.assert_array_equal(out, 0.0)

    def test_gru_zero_params_halve_the_state(self):
        # step 1: z = 0, n = tanh(ln 3) = 0.8  ->  h = 0.8
        p = _cell_params("gru", W_n=math.log(3.0), W_z=-_SATURATED)
        out = _run_cell("gru", p, [1.0, 0.0])
        np.testing.assert_allclose(out[0], 0.8, rtol=1e-6)
        np.testing.assert_allclose(out[1], 0.4, rtol=1e-6)

    def test_gru_candidate_path(self):
        out = _run_cell("gru", _cell_params("gru", W_n=1.0), [1.0])
        np.testing.assert_allclose(out, [0.5 * math.tanh(1.0)], rtol=1e-6)

    def test_rnn_cell_equation(self):
        # step 1 sets h = tanh(atanh(0.1) - 0.5 + 0.5) = 0.1
        p = _cell_params("rnn", W=1.0, U=2.0, b=0.5)
        out = _run_cell("rnn", p, [math.atanh(0.1) - 0.5, 0.3])
        np.testing.assert_allclose(out[0], 0.1, rtol=1e-6)
        np.testing.assert_allclose(out[1], math.tanh(0.3 + 0.2 + 0.5), rtol=1e-6)

    def test_lstm_zero_params(self):
        # step 1: i = 1, o = 0.5, g = tanh(ln 2) = 0.6  ->  c = 0.6, h = 0.5*tanh(0.6)
        p = _cell_params("lstm", W_i=_SATURATED, W_g=math.log(2.0))
        out = _run_cell("lstm", p, [1.0, 0.0])
        np.testing.assert_allclose(out[0], 0.5 * math.tanh(0.6), rtol=1e-6)
        # step 2: i=f=o=0.5, g=0  ->  c' = 0.3, h' = 0.5*tanh(0.3); the op
        # returns hidden states only, so c' is checked through h'
        np.testing.assert_allclose(out[1], 0.5 * math.tanh(0.3), rtol=1e-6)


def _tied_bi_params(rng, features, hidden, cell="gru"):
    """Bidirectional parameter set whose two directions share values."""
    width = len(RECURRENT_GATES[cell]) * hidden
    shared = (rng.standard_normal((features, width)) * 0.4, rng.standard_normal((hidden, width)) * 0.4,
              rng.standard_normal(width) * 0.1)
    return {f"r.l0.{kind}": Tensor(np.stack([a, a])) for kind, a in zip("WUb", shared)}


class TestBidirectional:
    def test_output_width_doubles(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((3, 6, 5)))
        model = init_model(ModelSpec((6, 5), (Recurrent("gru", 7, 1, "bi"),), 2, seed=0),
                           dtype=np.float64)
        outputs = run_recurrent_layer(x, model.params, "layer0", Recurrent("gru", 7, 1, "bi"))
        assert outputs.shape == (3, 6, 14)
        assert final_states(outputs, 2).shape == (3, 14)

    def test_reversed_input_swaps_directions_under_tied_weights(self):
        rng = np.random.default_rng(8)
        layer = Recurrent("gru", 4, 1, "bi")
        params = _tied_bi_params(rng, 3, 4)
        x = rng.standard_normal((2, 5, 3))
        out_fwd_order = run_recurrent_layer(Tensor(x), params, "r", layer)
        out_rev_order = run_recurrent_layer(Tensor(x[:, ::-1]), params, "r", layer)
        for t in range(5):
            fwd_half_on_reversed = out_rev_order.data[:, t, :4]
            bwd_half_original = out_fwd_order.data[:, 4 - t, 4:]
            np.testing.assert_allclose(fwd_half_on_reversed, bwd_half_original, rtol=1e-12)

    def test_single_step_sequence(self):
        rng = np.random.default_rng(1)
        layer = Recurrent("rnn", 4, 1, "bi")
        params = _tied_bi_params(rng, 3, 4, cell="rnn")
        outputs = run_recurrent_layer(Tensor(rng.standard_normal((2, 1, 3))), params, "r", layer)
        assert outputs.shape[1] == 1
        head = final_states(outputs, 2)
        np.testing.assert_array_equal(head.data[:, :4], head.data[:, 4:])

    def test_unidirectional_causality(self):
        rng = np.random.default_rng(6)
        model = init_model(ModelSpec((8, 3), (Recurrent("rnn", 5),), 2, seed=7), dtype=np.float64)
        layer = Recurrent("rnn", 5)
        base = rng.standard_normal((8, 3))
        perturbed = base.copy()
        perturbed[4] += 10.0
        out_a = run_recurrent_layer(Tensor(base[None]), model.params, "layer0", layer)
        out_b = run_recurrent_layer(Tensor(perturbed[None]), model.params, "layer0", layer)
        for t in range(4):
            np.testing.assert_array_equal(out_a.data[:, t], out_b.data[:, t])
        assert not np.allclose(out_a.data[:, 4], out_b.data[:, 4])


class TestCnnToRnnReshape:
    def test_shape_and_ordering(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 8, 4, 10))
        out = cnn_to_rnn_reshape(Tensor(x))
        assert out.shape == (2, 10, 32)
        for b in (0, 1):
            for c in (0, 3, 7):
                for f in (0, 2):
                    for t in (0, 5, 9):
                        assert out.data[b, t, c * 4 + f] == x[b, c, f, t]

    def test_degenerate_identity(self):
        x = np.arange(12.0).reshape(2, 1, 1, 6)
        out = cnn_to_rnn_reshape(Tensor(x))
        np.testing.assert_array_equal(out.data[:, :, 0], x[:, 0, 0, :])

    def test_multiset_preserved(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((3, 5, 7, 11))
        out = cnn_to_rnn_reshape(Tensor(x))
        np.testing.assert_array_equal(np.sort(out.data.ravel()), np.sort(x.ravel()))

    def test_rank3_variant(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((2, 6, 9))
        out = cnn_to_rnn_reshape(Tensor(x))
        assert out.shape == (2, 9, 6)
        np.testing.assert_array_equal(out.data, np.transpose(x, (0, 2, 1)))

    def test_bad_rank(self):
        with pytest.raises(ShapeError):
            cnn_to_rnn_reshape(Tensor(np.zeros((2, 3))))


class TestModelSpecText:
    def test_round_trip(self):
        spec = ModelSpec(
            (1, 16, 30),
            (Conv(2, 3, (3, 5), (1, 2), (1, 0)), Recurrent("gru", 7, 2, "bi"),
             Flatten(), Dense(6)),
            4, activation="tanh", seed=42,
        )
        assert ModelSpec.from_text(spec.to_text()) == spec

    def test_bad_line_rejected(self):
        with pytest.raises(FormatError):
            ModelSpec.from_text("input_shape=4\nn_classes=2\nlayer=warp:speed=9\n")

    def test_missing_fields_rejected(self):
        with pytest.raises(FormatError):
            ModelSpec.from_text("layer=dense:nodes=4\n")

    def test_domain_validation(self):
        with pytest.raises(ConfigError):
            Recurrent("conv", 4)
        with pytest.raises(ConfigError):
            Recurrent("gru", 4, direction="both")
        with pytest.raises(ConfigError):
            Dense(0)
        with pytest.raises(ConfigError):
            Conv(4, 1, (3,), (1,), (0,))
        with pytest.raises(ConfigError):
            ModelSpec((8,), (Dense(4),), 2, activation="swish")
