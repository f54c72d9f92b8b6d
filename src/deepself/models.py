"""Declarative model topologies: shape planning, initialization, forward pass.

A ``ModelSpec`` lists the *hidden* layers; planning always appends the
classifier Dense producing ``n_classes`` logits.  The planner also inserts the
implicit glue stages: ``Flatten`` between a grid (conv) stage and a Dense,
``CnnToRnnReshape`` between a grid stage and a Recurrent (time stays the
sequence axis), and ``SequenceHead`` between the last Recurrent and the
classifier (last hidden state for uni-directional stacks, the concatenation
of each direction's final state for bi-directional ones).

Grid values are channels-first ``[B, C, *spatial]`` with time as the trailing
spatial axis; sequences are ``[B, T, F]`` tensors end to end.  Each
recurrent sub-layer, with both its directions, is one fused
``tensor.recurrent`` op, and the head state is one ``tensor.final_states``
op.

Stage ``layer{i}`` (the classifier: ``head``) owns ``layer{i}.weight`` and
``layer{i}.bias`` for Dense and Conv, and ``layer{i}.l{k}.W``, ``.U`` and
``.b`` for recurrent sub-layer k, each fused over directions and gates in
the layout ``tensor.recurrent`` reads.  Checkpoints name each gate's slice
apart; ``checkpoint_arrays`` is the one place that maps the two.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, FormatError, NumericError, ShapeError
from .tensor import (
    ACTIVATIONS,
    RECURRENT_GATES,
    Tensor,
    activation,
    conv_nd_batched,
    final_states,
    infer_conv_output_size,
    linear,
    recurrent,
    reshape,
    softmax,
    transpose,
    _per_axis,
)

RECURRENT_CELLS = ("rnn", "lstm", "gru")
DIRECTIONS = ("uni", "bi")

def _positive(value, name) -> int:
    value = int(value)
    if value < 1:
        raise ConfigError(f"{name} must be a positive integer, got {value}")
    return value


# ---------------------------------------------------------------------------
# Layer specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Dense:
    nodes: int

    def __post_init__(self):
        _positive(self.nodes, "Dense nodes")


@dataclass(frozen=True)
class Conv:
    rank: int
    out_channels: int
    kernel: tuple[int, ...]
    stride: tuple[int, ...]
    padding: tuple[int, ...]

    def __post_init__(self):
        if self.rank not in (1, 2, 3):
            raise ConfigError(f"Conv rank must be 1, 2 or 3, got {self.rank}")
        _positive(self.out_channels, "Conv out_channels")
        object.__setattr__(self, "kernel", _per_axis(self.kernel, self.rank, "kernel"))
        object.__setattr__(self, "stride", _per_axis(self.stride, self.rank, "stride"))
        object.__setattr__(self, "padding", _per_axis(self.padding, self.rank, "padding"))
        for k in self.kernel:
            _positive(k, "Conv kernel")
        for s in self.stride:
            _positive(s, "Conv stride")
        for p in self.padding:
            if p < 0:
                raise ConfigError(f"Conv padding must be non-negative, got {p}")


@dataclass(frozen=True)
class Recurrent:
    cell: str
    hidden_nodes: int
    layers: int = 1
    direction: str = "uni"

    def __post_init__(self):
        if self.cell not in RECURRENT_CELLS:
            raise ConfigError(f"recurrent cell must be one of {RECURRENT_CELLS}, got {self.cell!r}")
        if self.direction not in DIRECTIONS:
            raise ConfigError(f"direction must be one of {DIRECTIONS}, got {self.direction!r}")
        _positive(self.hidden_nodes, "Recurrent hidden_nodes")
        _positive(self.layers, "Recurrent layers")

    @property
    def directions(self) -> int:
        return 2 if self.direction == "bi" else 1


@dataclass(frozen=True)
class Flatten:
    pass


@dataclass(frozen=True)
class CnnToRnnReshape:
    pass


@dataclass(frozen=True)
class SequenceHead:
    """Implicit: reduce a sequence to the final state of each of its ``directions``."""

    directions: int


LayerSpec = Dense | Conv | Recurrent | Flatten | CnnToRnnReshape


@dataclass(frozen=True)
class ModelSpec:
    input_shape: tuple[int, ...]
    layers: tuple[LayerSpec, ...]
    n_classes: int
    activation: str = "relu"
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "input_shape", tuple(int(d) for d in self.input_shape))
        object.__setattr__(self, "layers", tuple(self.layers))
        for d in self.input_shape:
            _positive(d, "input dimension")
        if not self.input_shape:
            raise ConfigError("input_shape must not be empty")
        _positive(self.n_classes, "n_classes")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"activation must be one of {ACTIVATIONS}, got {self.activation!r}")

    # -- canonical text form (embedded in checkpoints / config round trip) --

    def to_text(self) -> str:
        lines = [
            "input_shape=" + ",".join(str(d) for d in self.input_shape),
            f"n_classes={self.n_classes}",
            f"activation={self.activation}",
            f"seed={self.seed}",
        ]
        for layer in self.layers:
            lines.append("layer=" + _layer_to_text(layer))
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "ModelSpec":
        fields = {}
        layers = []
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise FormatError(f"model spec line {line!r} is not key=value")
            key, value = line.split("=", 1)
            if key == "layer":
                layers.append(_layer_from_text(value))
            else:
                fields[key] = value
        try:
            input_shape = tuple(int(d) for d in fields["input_shape"].split(","))
            n_classes = int(fields["n_classes"])
            act = fields.get("activation", "relu")
            seed = int(fields.get("seed", "0"))
        except (KeyError, ValueError) as exc:
            raise FormatError(f"model spec text is missing or corrupt: {exc}") from exc
        return ModelSpec(input_shape, tuple(layers), n_classes, act, seed)


def _layer_to_text(layer: LayerSpec) -> str:
    if isinstance(layer, Dense):
        return f"dense:nodes={layer.nodes}"
    if isinstance(layer, Conv):
        return (
            f"conv:rank={layer.rank},channels={layer.out_channels},"
            f"kernel={'x'.join(map(str, layer.kernel))},"
            f"stride={'x'.join(map(str, layer.stride))},"
            f"padding={'x'.join(map(str, layer.padding))}"
        )
    if isinstance(layer, Recurrent):
        return (
            f"recurrent:cell={layer.cell},hidden={layer.hidden_nodes},"
            f"layers={layer.layers},direction={layer.direction}"
        )
    if isinstance(layer, Flatten):
        return "flatten"
    if isinstance(layer, CnnToRnnReshape):
        return "cnn_to_rnn"
    raise ConfigError(f"unknown layer {layer!r}")


def _layer_from_text(text: str) -> LayerSpec:
    kind, _, rest = text.partition(":")
    opts = {}
    if rest:
        for item in rest.split(","):
            k, _, v = item.partition("=")
            opts[k] = v
    try:
        if kind == "dense":
            return Dense(int(opts["nodes"]))
        if kind == "conv":
            return Conv(
                int(opts["rank"]),
                int(opts["channels"]),
                tuple(int(v) for v in opts["kernel"].split("x")),
                tuple(int(v) for v in opts["stride"].split("x")),
                tuple(int(v) for v in opts["padding"].split("x")),
            )
        if kind == "recurrent":
            return Recurrent(opts["cell"], int(opts["hidden"]),
                             int(opts.get("layers", "1")), opts.get("direction", "uni"))
        if kind == "flatten":
            return Flatten()
        if kind == "cnn_to_rnn":
            return CnnToRnnReshape()
    except (KeyError, ValueError) as exc:
        raise FormatError(f"bad layer description {text!r}: {exc}") from exc
    raise FormatError(f"unknown layer kind {kind!r}")


# ---------------------------------------------------------------------------
# Shape planning
# ---------------------------------------------------------------------------


def _sequence_shape(shape, context) -> tuple[int, int]:
    """CNN->RNN layout: [C, T] -> [T, C], [C, F, T] -> [T, C*F]; time stays the sequence axis."""
    if len(shape) == 2:
        return shape[1], shape[0]
    if len(shape) == 3:
        return shape[2], shape[0] * shape[1]
    raise ConfigError(f"{context}: a sequence needs a [C x T] or [C x F x T] input, got {shape}")


@dataclass(frozen=True)
class StagePlan:
    layer: object
    in_shape: tuple[int, ...]
    out_shape: tuple[int, ...]
    param_prefix: str | None = None
    is_head: bool = False


@dataclass(frozen=True)
class ShapePlan:
    spec: ModelSpec
    stages: tuple[StagePlan, ...]

    @property
    def output_shape(self) -> tuple[int, ...]:
        return self.stages[-1].out_shape


def plan_shapes(spec: ModelSpec) -> ShapePlan:
    """Resolve per-stage shapes, inserting the implicit glue stages."""
    if not spec.layers:
        raise ConfigError("model has no layers; at least one hidden layer is required")

    stages: list[StagePlan] = []
    shape = spec.input_shape
    kind = "input"  # input | grid | seq | flat

    def emit(layer, out_shape, prefix=None, is_head=False, new_kind=None):
        nonlocal shape, kind
        stages.append(StagePlan(layer, shape, tuple(out_shape), prefix, is_head))
        shape = tuple(out_shape)
        if new_kind:
            kind = new_kind

    def to_flat(i):
        """Flat features for spec layer ``i`` (the classifier when past the last)."""
        nonlocal kind
        if kind == "seq":
            last = stages[-1].layer  # a Recurrent or the CnnToRnnReshape at i - 1
            if not isinstance(last, Recurrent):
                raise ConfigError(f"layer {i - 1}: CnnToRnnReshape must be followed by a recurrent layer")
            emit(SequenceHead(last.directions), (shape[1],), new_kind="flat")
        elif len(shape) > 1:
            emit(Flatten(), (int(np.prod(shape)),), new_kind="flat")
        else:
            kind = "flat"

    for i, layer in enumerate(spec.layers):
        prefix = f"layer{i}"
        if isinstance(layer, Conv):
            if kind == "seq":
                raise ConfigError(
                    f"layer {i}: a convolution may not follow a recurrent layer "
                    "(only input-to-output CNN->RNN stacking is supported)"
                )
            if kind == "flat":
                raise ConfigError(f"layer {i}: convolution after Flatten is not defined")
            if len(shape) != layer.rank + 1:
                raise ConfigError(
                    f"layer {i}: rank-{layer.rank} convolution needs a "
                    f"[channels x {layer.rank} spatial] input, got shape {shape}"
                )
            try:
                out_spatial = [infer_conv_output_size(*geometry, axis=axis) for axis, geometry in
                               enumerate(zip(shape[1:], layer.kernel, layer.stride, layer.padding))]
            except ConfigError as exc:
                raise ConfigError(f"layer {i}: {exc}") from None
            emit(layer, (layer.out_channels, *out_spatial), prefix, new_kind="grid")
        elif isinstance(layer, Recurrent):
            if kind == "grid":
                emit(CnnToRnnReshape(), _sequence_shape(shape, f"layer {i}"), new_kind="seq")
            elif kind == "input":
                if len(shape) != 2:
                    raise ConfigError(
                        f"layer {i}: a recurrent layer needs a [time x features] input, "
                        f"got shape {shape}"
                    )
                kind = "seq"
            elif kind == "flat":
                raise ConfigError(f"layer {i}: a recurrent layer cannot consume flattened features")
            emit(layer, (shape[0], layer.hidden_nodes * layer.directions), prefix, new_kind="seq")
        elif isinstance(layer, Dense):
            to_flat(i)
            emit(layer, (layer.nodes,), prefix, new_kind="flat")
        elif isinstance(layer, Flatten):
            if kind == "seq":
                raise ConfigError(
                    f"layer {i}: a sequence feeds the classifier through its head state, "
                    "not through Flatten"
                )
            to_flat(i)
        elif isinstance(layer, CnnToRnnReshape):
            if kind == "seq":
                raise ConfigError(f"layer {i}: input is already a sequence")
            emit(layer, _sequence_shape(shape, f"layer {i}"), new_kind="seq")
        else:
            raise ConfigError(f"layer {i}: unknown layer specification {layer!r}")

    to_flat(len(spec.layers))  # classifier head
    emit(Dense(spec.n_classes), (spec.n_classes,), "head", is_head=True)
    return ShapePlan(spec, tuple(stages))


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------


@dataclass
class Model:
    spec: ModelSpec
    plan: ShapePlan
    params: dict[str, Tensor] = field(default_factory=dict)

    @property
    def n_classes(self) -> int:
        return self.spec.n_classes

    def clone_parameters(self) -> dict[str, np.ndarray]:
        """Copies of the parameter arrays, keyed by checkpoint name (see ``checkpoint_arrays``)."""
        return {name: arr.copy() for name, arr in checkpoint_arrays(self)}

    def load_parameters(self, arrays: dict[str, np.ndarray]):
        """Copy ``arrays``, keyed by checkpoint name, into the parameters."""
        views = dict(checkpoint_arrays(self))
        if set(arrays) != set(views):
            missing = sorted(set(views) - set(arrays))
            extra = sorted(set(arrays) - set(views))
            raise ShapeError(
                f"parameter set does not match the model spec (missing {missing}, unexpected {extra})"
            )
        for name, arr in arrays.items():
            target = views[name]
            if tuple(arr.shape) != target.shape:
                raise ShapeError(
                    f"parameter {name} has shape {tuple(arr.shape)}, spec needs {target.shape}"
                )
            if not np.isfinite(arr).all():
                raise NumericError(f"parameter {name} holds non-finite values")
            target[...] = arr


def _glorot(rng, fan_in, fan_out, shape, dtype):
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def init_model(spec: ModelSpec, dtype=np.float32) -> Model:
    """Glorot-uniform weights, zero biases (LSTM forget gate 1.0), seeded."""
    plan = plan_shapes(spec)
    shapes = {}
    for stage in plan.stages:
        layer, prefix = stage.layer, stage.param_prefix
        if isinstance(layer, Dense):
            shapes[f"{prefix}.weight"] = (stage.in_shape[0], layer.nodes)
            shapes[f"{prefix}.bias"] = (layer.nodes,)
        elif isinstance(layer, Conv):
            shapes[f"{prefix}.weight"] = (layer.out_channels, stage.in_shape[0], *layer.kernel)
            shapes[f"{prefix}.bias"] = (layer.out_channels,)
        elif isinstance(layer, Recurrent):
            dirs, hid, in_features = layer.directions, layer.hidden_nodes, stage.in_shape[1]
            width = len(RECURRENT_GATES[layer.cell]) * hid
            for sub in range(layer.layers):
                shapes[f"{prefix}.l{sub}.W"] = (dirs, in_features, width)
                shapes[f"{prefix}.l{sub}.U"] = (dirs, hid, width)
                shapes[f"{prefix}.l{sub}.b"] = (dirs, width)
                in_features = dirs * hid
    model = Model(spec, plan, {name: Tensor(np.zeros(shape, dtype), requires_grad=True)
                               for name, shape in shapes.items()})
    rng = np.random.default_rng(spec.seed)
    for name, view in checkpoint_arrays(model):
        if view.ndim == 2:  # a [fan_in, fan_out] matrix
            view[...] = _glorot(rng, *view.shape, view.shape, dtype)
        elif view.ndim > 2:  # a [C_out, C_in, *kernel] conv weight
            window = math.prod(view.shape[2:])
            view[...] = _glorot(rng, view.shape[1] * window, view.shape[0] * window, view.shape, dtype)
        elif name.endswith(".b_f"):  # the LSTM forget gate
            view[...] = 1.0
    return model


def checkpoint_arrays(model: Model):
    """Yield each parameter's checkpoint name and array, in initialization order.

    A recurrent sub-layer's fused W, U and b are yielded as [F, H], [H, H]
    and [H] views, one per direction and gate, named like
    ``layer0.l0.fwd.W_r`` (``bwd`` for direction 1, no gate suffix for rnn).
    """
    for stage in model.plan.stages:
        layer, prefix = stage.layer, stage.param_prefix
        if isinstance(layer, Recurrent):
            gates, hid = RECURRENT_GATES[layer.cell], layer.hidden_nodes
            for sub, d, k, kind in itertools.product(range(layer.layers), range(layer.directions),
                                                     range(len(gates)), "WUb"):
                name = f"{prefix}.l{sub}.{('fwd', 'bwd')[d]}.{kind}" + (f"_{gates[k]}" if gates[k] else "")
                yield name, model.params[f"{prefix}.l{sub}.{kind}"].data[d, ..., k * hid:(k + 1) * hid]
        elif prefix is not None:
            for kind in ("weight", "bias"):
                yield f"{prefix}.{kind}", model.params[f"{prefix}.{kind}"].data


# ---------------------------------------------------------------------------
# Recurrent layers
# ---------------------------------------------------------------------------


def run_recurrent_layer(x: Tensor, params, prefix, layer: Recurrent) -> Tensor:
    """Full sub-stack on a [B, T, F] tensor; returns its [B, T, width] outputs."""
    for sub in range(layer.layers):
        x = recurrent(x, *(params[f"{prefix}.l{sub}.{kind}"] for kind in "WUb"), layer.cell)
    return x


def cnn_to_rnn_reshape(x: Tensor) -> Tensor:
    """[B, C, T] -> [B, T, C] or [B, C, F, T] -> [B, T, C*F] (values permuted only)."""
    if x.data.ndim == 3:
        return transpose(x, (0, 2, 1))
    if x.data.ndim == 4:
        b, c, f, t = x.shape
        return reshape(transpose(x, (0, 3, 1, 2)), (b, t, c * f))
    raise ShapeError(f"cnn_to_rnn_reshape needs a [B,C,T] or [B,C,F,T] tensor, got {tuple(x.shape)}")


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------


def forward(model: Model, batch):
    """Run the planned stages; returns (logits Tensor [B x C], probabilities Tensor)."""
    x = batch if isinstance(batch, Tensor) else Tensor(batch)
    expected = model.spec.input_shape
    if tuple(x.shape[1:]) != expected:
        raise ShapeError(
            f"batch shape {tuple(x.shape)} does not match model input "
            f"[B x {' x '.join(str(d) for d in expected)}]"
        )
    params = model.params
    value = x
    try:
        for idx, stage in enumerate(model.plan.stages):
            layer = stage.layer
            if isinstance(layer, Dense):
                value = linear(value, params[f"{stage.param_prefix}.weight"],
                               params[f"{stage.param_prefix}.bias"])
                if not stage.is_head:
                    value = activation(value, model.spec.activation)
            elif isinstance(layer, Conv):
                value = conv_nd_batched(value, params[f"{stage.param_prefix}.weight"],
                                        layer.stride, layer.padding,
                                        params[f"{stage.param_prefix}.bias"])
                value = activation(value, model.spec.activation)
            elif isinstance(layer, Recurrent):
                value = run_recurrent_layer(value, params, stage.param_prefix, layer)
            elif isinstance(layer, SequenceHead):
                value = final_states(value, layer.directions)
            elif isinstance(layer, Flatten):
                value = reshape(value, (value.shape[0], int(np.prod(stage.out_shape))))
            elif isinstance(layer, CnnToRnnReshape):
                value = cnn_to_rnn_reshape(value)
            if tuple(value.shape[1:]) != tuple(stage.out_shape):
                raise ShapeError(
                    f"stage {idx} ({type(layer).__name__}) produced shape {tuple(value.shape[1:])}, "
                    f"plan expected {tuple(stage.out_shape)}"
                )
    except NumericError as exc:
        raise NumericError(f"{exc} in stage {idx} ({type(layer).__name__})") from exc
    logits = value
    return logits, softmax(logits)
