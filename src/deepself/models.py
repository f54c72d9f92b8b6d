"""Declarative model topologies: layer kinds, shape planning, initialization, forward pass.

A ``ModelSpec`` lists the *hidden* layers, written with ``Dense``, ``Conv``,
``Recurrent`` and ``CnnToRnnReshape``; planning always appends the classifier
Dense producing ``n_classes`` logits.  The planner also inserts the implicit
glue stages: ``CnnToRnnReshape`` between a conv stage and a Recurrent (time
stays the sequence axis), and ``SequenceHead`` between the last Recurrent and
the next Dense (last hidden state for uni-directional stacks, the
concatenation of each direction's final state for bi-directional ones).  A
Dense reads a grid (a conv stage or a multi-axis input) as flat features
itself, with no stage between.

Each layer kind is one frozen dataclass holding all of its facts: its text
fields (``TEXT``), its output shape and input checks (``plan``), the
``(name, shape)`` of each parameter its op takes, in argument order
(``params``), its op (``apply``: one tape record, the hidden layers'
activation included), and its checkpoint arrays (``views``: one per gate of
a fused recurrent array) and their initial values.

Grid values are channels-first ``[B, C, *spatial]`` with time as the trailing
spatial axis; sequences are ``[B, T, F]`` tensors end to end.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, FormatError, NumericError, ShapeError, check_integer, check_sequence
from .tensor import (
    ACTIVATIONS,
    RECURRENT_GATES,
    Tensor,
    active_tape,
    cnn_to_rnn_reshape,
    conv_nd_batched,
    final_states,
    linear,
    recurrent,
    softmax,
    _conv_geometry,
    _per_axis,
    _sequence_shape,
)

RECURRENT_CELLS = ("rnn", "lstm", "gru")
DIRECTIONS = ("uni", "bi")


# ---------------------------------------------------------------------------
# Layer kinds and their spec text
# ---------------------------------------------------------------------------

# the (parse, format) pair of a spec-text value
_INT = (int, str)
_NAME = (str, str)
_AXES = (lambda text: tuple(int(v) for v in text.split("x")), lambda axes: "x".join(map(str, axes)))
_SHAPE = (lambda text: tuple(int(v) for v in text.split(",")), lambda shape: ",".join(map(str, shape)))


def _write_fields(obj, table, sep) -> str:
    return sep.join(f"{key}={write(getattr(obj, attr))}" for key, attr, (_, write) in table)


def _read(cls, items, what, **values):
    """A ``cls`` from ``key=value`` items, read by its ``TEXT`` rows, and ``values``.

    An empty item, a key not in the table, a key given twice, a missing
    field and a value outside its domain raise FormatError.
    """
    rows = {key: (attr, parse) for key, attr, (parse, _) in cls.TEXT}
    for item in items:
        key, _, text = item.partition("=")
        if key not in rows:
            raise FormatError(f"{what}: " + (f"unknown key {key!r}" if item else "empty item"))
        attr, parse = rows[key]
        if attr in values:
            raise FormatError(f"{what}: key {key!r} given twice")
        try:
            values[attr] = parse(text)
        except ValueError as exc:
            raise FormatError(f"{what}: bad {key} value {text!r}") from exc
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{what}: {exc}") from exc


class _Layer:
    """What the layer kinds share; a kind without parameters keeps these defaults.

    ``KIND`` names a spec kind in the text.  ``READS`` and ``MAKES`` name the
    value a kind takes and gives (``grid``, ``seq`` or ``flat``);
    ``plan_shapes`` glues a stage to the next by them.
    """

    TEXT = ()  # (text key, field, (parse, format)) of each field, in text order

    def to_text(self) -> str:
        fields = _write_fields(self, self.TEXT, ",")
        return f"{self.KIND}:{fields}" if fields else self.KIND

    def params(self, in_shape, prefix) -> tuple[tuple[str, tuple[int, ...]], ...]:
        return ()

    def views(self, named):
        """The ``(checkpoint name, array)`` pairs of the stage's ``(parameter name, array)`` pairs."""
        return named

    def initialize(self, rng, named):
        """Set the initial values of the stage's ``(parameter name, array)`` pairs, allocated as zeros."""


def _glorot(rng, fan_in, fan_out, out):
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    out[...] = rng.uniform(-limit, limit, size=out.shape).astype(out.dtype)


@dataclass(frozen=True)
class Dense(_Layer):
    nodes: int

    KIND, READS, MAKES = "dense", "flat", "flat"
    TEXT = (("nodes", "nodes", _INT),)

    def __post_init__(self):
        check_integer("Dense nodes", self.nodes, 1)

    def plan(self, in_shape, where):
        return (self.nodes,)

    def params(self, in_shape, prefix):
        return (f"{prefix}.weight", (math.prod(in_shape), self.nodes)), (f"{prefix}.bias", (self.nodes,))

    def apply(self, x, arrays, act):
        return linear(x, *arrays, act)

    def initialize(self, rng, named):
        (_, weight), _ = named
        _glorot(rng, *weight.shape, weight)


@dataclass(frozen=True)
class Conv(_Layer):
    rank: int
    out_channels: int
    kernel: tuple[int, ...]
    stride: tuple[int, ...]
    padding: tuple[int, ...]

    KIND, READS, MAKES = "conv", "grid", "grid"
    TEXT = (("rank", "rank", _INT), ("channels", "out_channels", _INT),
            ("kernel", "kernel", _AXES), ("stride", "stride", _AXES), ("padding", "padding", _AXES))

    def __post_init__(self):
        if check_integer("Conv rank", self.rank) not in (1, 2, 3):
            raise ConfigError(f"Conv rank must be 1, 2 or 3, got {self.rank}")
        check_integer("Conv out_channels", self.out_channels, 1)
        for attr, least in (("kernel", 1), ("stride", 1), ("padding", 0)):
            axes = _per_axis(getattr(self, attr), self.rank, f"Conv {attr}")
            if min(axes) < least:
                raise ConfigError(f"Conv {attr} must be at least {least} on every axis, got {axes}")
            object.__setattr__(self, attr, axes)

    def plan(self, in_shape, where):
        if len(in_shape) != self.rank + 1:
            raise ConfigError(
                f"{where}: rank-{self.rank} convolution needs a "
                f"[channels x {self.rank} spatial] input, got shape {in_shape}"
            )
        try:
            out_sp = _conv_geometry(in_shape[0], in_shape[1:], self.kernel, self.stride, self.padding)[0]
        except ConfigError as exc:
            raise ConfigError(f"{where}: {exc}") from None
        return (self.out_channels, *out_sp)

    def params(self, in_shape, prefix):
        return ((f"{prefix}.weight", (self.out_channels, in_shape[0], *self.kernel)),
                (f"{prefix}.bias", (self.out_channels,)))

    def apply(self, x, arrays, act):
        weight, bias = arrays
        return conv_nd_batched(x, weight, self.stride, self.padding, bias, act)

    def initialize(self, rng, named):
        (_, weight), _ = named
        window = math.prod(self.kernel)
        _glorot(rng, weight.shape[1] * window, weight.shape[0] * window, weight)


@dataclass(frozen=True)
class Recurrent(_Layer):
    cell: str
    hidden_nodes: int
    layers: int = 1
    direction: str = "uni"

    KIND, READS, MAKES = "recurrent", "seq", "seq"
    TEXT = (("cell", "cell", _NAME), ("hidden", "hidden_nodes", _INT),
            ("layers", "layers", _INT), ("direction", "direction", _NAME))

    def __post_init__(self):
        if self.cell not in RECURRENT_CELLS:
            raise ConfigError(f"recurrent cell must be one of {RECURRENT_CELLS}, got {self.cell!r}")
        if self.direction not in DIRECTIONS:
            raise ConfigError(f"direction must be one of {DIRECTIONS}, got {self.direction!r}")
        check_integer("Recurrent hidden_nodes", self.hidden_nodes, 1)
        check_integer("Recurrent layers", self.layers, 1)

    @property
    def directions(self) -> int:
        return 2 if self.direction == "bi" else 1

    def plan(self, in_shape, where):
        if len(in_shape) != 2:
            raise ConfigError(
                f"{where}: a recurrent layer needs a [time x features] input, got shape {in_shape}")
        return in_shape[0], self.hidden_nodes * self.directions

    def params(self, in_shape, prefix):
        """Sub-layer k's ``{prefix}.l{k}.W``, ``.U`` and ``.b``, each fused over
        directions and gates in the layout ``tensor.recurrent`` reads."""
        dirs, hid = self.directions, self.hidden_nodes
        width = len(RECURRENT_GATES[self.cell]) * hid
        in_features = [in_shape[1]] + [dirs * hid] * (self.layers - 1)
        return tuple(pair for sub, features in enumerate(in_features) for pair in (
            (f"{prefix}.l{sub}.W", (dirs, features, width)),
            (f"{prefix}.l{sub}.U", (dirs, hid, width)),
            (f"{prefix}.l{sub}.b", (dirs, width)),
        ))

    def apply(self, x, arrays, act):
        for sub in range(0, len(arrays), 3):  # each sub-layer's W, U and b
            x = recurrent(x, *arrays[sub:sub + 3], self.cell)
        return x

    def views(self, named):
        """Each fused W, U and b as [F, H], [H, H] and [H] views, one per direction and gate,
        named like ``layer0.l0.fwd.W_r`` (``bwd`` for direction 1, no gate suffix for rnn)."""
        gates, hid = RECURRENT_GATES[self.cell], self.hidden_nodes
        for sub in range(0, len(named), 3):  # each sub-layer's W, U and b
            for d, k, (name, array) in itertools.product(range(self.directions), range(len(gates)),
                                                          named[sub:sub + 3]):
                base, _, kind = name.rpartition(".")
                yield (f"{base}.{('fwd', 'bwd')[d]}.{kind}" + (f"_{gates[k]}" if gates[k] else ""),
                       array[d, ..., k * hid:(k + 1) * hid])

    def initialize(self, rng, named):
        for _, view in self.views(named):
            if view.ndim == 2:  # a W or U matrix
                _glorot(rng, *view.shape, view)
        if self.cell == "lstm":  # the forget gate's bias starts at 1
            f = RECURRENT_GATES["lstm"].index("f") * self.hidden_nodes
            for _, bias in named[2::3]:
                bias[:, f:f + self.hidden_nodes] = 1.0


@dataclass(frozen=True)
class CnnToRnnReshape(_Layer):
    """A grid as a sequence; implicit between a conv stage and a Recurrent."""

    KIND, READS, MAKES = "cnn_to_rnn", "grid", "seq"

    def plan(self, in_shape, where):
        seq = _sequence_shape(in_shape)
        if seq is None:
            raise ConfigError(f"{where}: a sequence needs a [C x T] or [C x F x T] input, got {in_shape}")
        return seq

    def apply(self, x, arrays, act):
        return cnn_to_rnn_reshape(x)


@dataclass(frozen=True)
class SequenceHead(_Layer):
    """Implicit: reduce a sequence to the final state of each of its ``directions``."""

    directions: int

    def plan(self, in_shape, where):
        return (in_shape[1],)

    def apply(self, x, arrays, act):
        return final_states(x, self.directions)


SPEC_KINDS = (Dense, Conv, Recurrent, CnnToRnnReshape)


def _read_layer(text: str) -> _Layer:
    kind, colon, options = text.partition(":")
    if kind == "flatten":
        raise FormatError(
            "layer kind 'flatten' was removed: a Dense reads a grid as flat features itself; "
            "delete the line (each later layer's parameters are then named one index lower)"
        )
    for cls in SPEC_KINDS:
        if cls.KIND == kind:
            return _read(cls, options.split(",") if colon else (), f"layer {text!r}")
    raise FormatError(f"unknown layer kind {kind!r}")


@dataclass(frozen=True)
class ModelSpec:
    input_shape: tuple[int, ...]
    layers: tuple[_Layer, ...]
    n_classes: int
    activation: str = "relu"
    seed: int = 0

    TEXT = (("input_shape", "input_shape", _SHAPE), ("n_classes", "n_classes", _INT),
            ("activation", "activation", _NAME), ("seed", "seed", _INT))

    def __post_init__(self):
        shape = check_sequence("input_shape", self.input_shape)
        object.__setattr__(self, "input_shape", tuple(check_integer("input dimension", d, 1) for d in shape))
        object.__setattr__(self, "layers", check_sequence("layers", self.layers))
        if not self.input_shape:
            raise ConfigError("input_shape must not be empty")
        for i, layer in enumerate(self.layers):
            if not isinstance(layer, SPEC_KINDS):
                kinds = ", ".join(kind.__name__ for kind in SPEC_KINDS)
                raise ConfigError(f"layer {i}: {layer!r} is not a spec layer kind ({kinds})")
        check_integer("n_classes", self.n_classes, 1)
        check_integer("seed", self.seed, 0)
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"activation must be one of {ACTIVATIONS}, got {self.activation!r}")

    # -- canonical text form (embedded in checkpoints / config round trip) --

    def to_text(self) -> str:
        lines = [_write_fields(self, self.TEXT, "\n")]
        lines += ["layer=" + layer.to_text() for layer in self.layers]
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "ModelSpec":
        items, layers = [], []
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            if key == "layer":
                layers.append(_read_layer(value))
            else:
                items.append(line)
        return _read(ModelSpec, items, "model spec text", layers=tuple(layers))


# ---------------------------------------------------------------------------
# Shape planning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StagePlan:
    layer: object
    in_shape: tuple[int, ...]
    out_shape: tuple[int, ...]
    params: tuple[tuple[str, tuple[int, ...]], ...] = ()


def _glue(kind, layer, last, i):
    """The implicit stage between a ``kind`` value (from stage ``last``) and spec layer
    ``i``, or None; a ConfigError when nothing joins them."""
    reads = layer.READS
    if reads == kind or kind == "input" or (reads, kind) == ("flat", "grid"):
        return None  # a layer reading a raw input checks its rank itself; a Dense reads any grid
    if reads == "flat":  # after a sequence
        if not isinstance(last, Recurrent):
            raise ConfigError(f"layer {i - 1}: CnnToRnnReshape must be followed by a recurrent layer")
        return SequenceHead(last.directions)
    if kind == "grid":  # a Recurrent after a conv stage
        return CnnToRnnReshape()
    source = ("the sequence of a recurrent layer or CnnToRnnReshape (only input-to-output "
              "CNN->RNN stacking is supported)" if kind == "seq" else "the flat features of a Dense")
    raise ConfigError(f"layer {i}: {type(layer).__name__} cannot read {source}")


def plan_shapes(spec: ModelSpec) -> tuple[StagePlan, ...]:
    """Resolve per-stage shapes and parameters, inserting the implicit glue stages."""
    if not spec.layers:
        raise ConfigError("model has no layers; at least one hidden layer is required")

    stages: list[StagePlan] = []
    shape, kind = spec.input_shape, "input"  # input | grid | seq | flat

    def emit(layer, i, prefix=None):
        nonlocal shape
        out_shape = tuple(layer.plan(shape, f"layer {i}"))
        stages.append(StagePlan(layer, shape, out_shape, layer.params(shape, prefix)))
        shape = out_shape

    for i, layer in enumerate(spec.layers + (Dense(spec.n_classes),)):  # the classifier head last
        glue = _glue(kind, layer, stages[-1].layer if stages else None, i)
        if glue is not None:
            emit(glue, i)
        emit(layer, i, f"layer{i}" if i < len(spec.layers) else "head")
        kind = layer.MAKES
    return tuple(stages)


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------


@dataclass
class Model:
    spec: ModelSpec
    plan: tuple[StagePlan, ...]
    params: dict[str, Tensor] = field(default_factory=dict)

    @property
    def n_classes(self) -> int:
        return self.spec.n_classes

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


def init_model(spec: ModelSpec, dtype=np.float32) -> Model:
    """Glorot-uniform weights, zero biases (LSTM forget gate 1.0), seeded."""
    plan = plan_shapes(spec)
    model = Model(spec, plan, {name: Tensor(np.zeros(shape, dtype), requires_grad=True)
                               for stage in plan for name, shape in stage.params})
    rng = np.random.default_rng(spec.seed)
    for stage in plan:
        stage.layer.initialize(rng, [(name, model.params[name].data) for name, _ in stage.params])
    return model


def checkpoint_arrays(model: Model):
    """Yield each parameter's checkpoint name and array, in initialization order
    (a recurrent stage's per-gate views: see ``Recurrent.views``)."""
    for stage in model.plan:
        yield from stage.layer.views([(name, model.params[name].data) for name, _ in stage.params])


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
    params, last, tape = model.params, model.plan[-1], active_tape()
    value = x
    try:
        for idx, stage in enumerate(model.plan):
            layer, mark = stage.layer, len(tape)
            value = layer.apply(value, [params[name] for name, _ in stage.params],
                                None if stage is last else model.spec.activation)  # raw logits from the head
            for rec in tape[mark:]:  # backward names the stage of a record whose gradient diverges
                rec.stage = (idx, type(layer).__name__)
            if tuple(value.shape[1:]) != tuple(stage.out_shape):
                raise ShapeError(
                    f"stage {idx} ({type(layer).__name__}) produced shape {tuple(value.shape[1:])}, "
                    f"plan expected {tuple(stage.out_shape)}"
                )
    except NumericError as exc:
        raise NumericError(f"{exc} in stage {idx} ({type(layer).__name__})") from exc
    logits = value
    return logits, softmax(logits)
