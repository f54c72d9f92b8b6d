"""Mini-batch optimization, best-dev-model selection, checkpoints, fine-tuning.

Training keeps the parameter snapshot of the epoch with the highest dev UAR
(earliest epoch on ties) and restores it before returning.  All shuffling
comes from the config seed, so a run is bit-reproducible.  Checkpoints store
parameters as little-endian float32 and round-trip bit-exactly.
"""

from __future__ import annotations

import logging
import math
import numbers
import struct
import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    FormatError,
    IntegrityError,
    NumericError,
    ShapeError,
    TruncatedFileError,
    VersionError,
)
from .evaluation import uar_from_labels
from .models import Model, ModelSpec, checkpoint_arrays, forward, init_model
from .tensor import backward, no_grad, softmax_cross_entropy

OPTIMIZERS = ("sgd", "adam")
# Adam's moment decays and denominator floor: the defaults of Kingma & Ba (2015)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8

log = logging.getLogger(__name__)


def check_integer(name: str, value):
    """Raise ConfigError naming ``name`` unless ``value`` is an int or a NumPy integer."""
    if not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.001
    batch_size: int = 16
    epochs: int = 20
    optimizer: str = "adam"
    seed: int = 0

    def __post_init__(self):
        for name in ("batch_size", "epochs", "seed"):
            check_integer(name, getattr(self, name))
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be at least 1, got {self.epochs}")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    train_uar: float
    dev_uar: float


TrainHistory = list  # of EpochRecord


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------


def sgd_step(params: dict, grads: dict, lr: float):
    """theta <- theta - lr * g, elementwise over every named parameter."""
    for name, grad in grads.items():
        p = params[name]
        if grad.shape != p.data.shape:
            raise ShapeError(
                f"gradient for {name} has shape {grad.shape}, parameter {p.data.shape}"
            )
        p.data -= (lr * grad).astype(p.data.dtype, copy=False)


@dataclass
class AdamState:
    """Adam's moments as flat vectors over the gradients ``names`` lays out, in order."""

    m: np.ndarray | None = None
    v: np.ndarray | None = None
    t: int = 0
    names: tuple = ()


def adam_step(params: dict, grads: dict, state: AdamState, lr: float):
    """One Adam step (Kingma & Ba, 2015), one elementwise pass over all gradients.

    The first call fixes the gradient names the state covers; a later call
    must pass the same names.  The moments are kept in the parameters'
    dtype, which every parameter and gradient must share.
    """
    names = tuple(grads) if state.m is None else state.names
    if grads.keys() != set(names):
        raise ConfigError(f"adam_step got gradients for {sorted(grads)}, "
                          f"its state covers {sorted(names)}")
    if not names:
        state.t += 1
        return state
    dtype = params[names[0]].data.dtype
    flat = []
    for name in names:
        grad, p = grads[name], params[name].data
        if grad.shape != p.shape:
            raise ShapeError(f"gradient for {name} has shape {grad.shape}, parameter {p.shape}")
        if p.dtype != dtype:
            raise ShapeError(f"parameter {name} is {p.dtype}, {names[0]} is {dtype}; "
                             f"adam_step needs one dtype for all parameters")
        if grad.dtype != dtype:
            raise ShapeError(f"gradient for {name} has dtype {grad.dtype}, parameter {dtype}")
        flat.append(grad.reshape(-1))
    g = np.concatenate(flat)
    if state.m is None:
        state.m, state.v, state.names = np.zeros_like(g), np.zeros_like(g), names
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    m, v = state.m, state.v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * np.square(g)
    m_hat = m / bc1
    v_hat = v / bc2
    step = (lr * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)).astype(dtype, copy=False)
    start = 0
    for name in names:
        p = params[name].data
        p -= step[start:start + p.size].reshape(p.shape)
        start += p.size
    return state


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


def _check_dataset(name, data, n_classes, input_shape):
    features, labels = data
    features = np.asarray(features)
    labels = np.asarray(labels, dtype=np.int64)
    if features.shape[0] == 0:
        raise DataError(f"{name} dataset is empty")
    if features.shape[0] != labels.shape[0]:
        raise DataError(
            f"{name} dataset has {features.shape[0]} samples but {labels.shape[0]} labels"
        )
    if tuple(features.shape[1:]) != tuple(input_shape):
        raise ConfigError(
            f"{name} samples have shape {tuple(features.shape[1:])}, "
            f"model expects {tuple(input_shape)}"
        )
    if labels.min() < 0 or labels.max() >= n_classes:
        raise DataError(
            f"{name} labels must lie in [0, {n_classes}), found {labels.min()}..{labels.max()}"
        )
    return features, labels


def predict_batches(model: Model, features, batch_size: int = 64):
    """Labels and probabilities for ``features`` in inference mode.

    Every forward sees ``batch_size`` rows: the last, partial batch is
    padded with zero rows, cut off again afterwards.  BLAS may round a row
    differently for another row count, so this keeps each sample's
    probability bytes the same for any subset, order or split of a set
    into calls at one ``batch_size``.  No samples give ``(0,)`` labels and
    ``(0, C)`` probabilities.
    """
    check_integer("batch_size", batch_size)
    if batch_size < 1:
        raise ConfigError(f"batch_size must be at least 1, got {batch_size}")
    features = np.asarray(features)
    out_labels = []
    out_probs = []
    with no_grad():
        # no samples still run one all-padding batch, which checks their shape and fixes the dtypes
        for start in range(0, max(features.shape[0], 1), batch_size):
            batch = features[start:start + batch_size]
            rows = batch.shape[0]
            if rows < batch_size:
                batch = np.pad(batch, ((0, batch_size - rows),) + ((0, 0),) * (batch.ndim - 1))
            _, probs = forward(model, batch)
            out_probs.append(probs.data[:rows])
            out_labels.append(np.argmax(out_probs[-1], axis=1))
    return np.concatenate(out_labels), np.concatenate(out_probs)


def evaluate_uar(model: Model, dataset, batch_size: int = 64) -> float:
    features, labels = dataset
    pred, _ = predict_batches(model, features, batch_size)
    return uar_from_labels(labels, pred, model.n_classes)


def best_epoch_index(dev_uars) -> int:
    """Argmax over the dev-UAR history, first occurrence on ties."""
    values = list(dev_uars)
    if not values:
        raise ConfigError("history is empty; no best epoch exists")
    best = 0
    for i, value in enumerate(values):
        if value > values[best]:
            best = i
    return best


def train(model: Model, train_set, dev_set, config: TrainConfig):
    """Optimize ``model``; returns (model restored to its best epoch, history)."""
    x_train, y_train = _check_dataset("train", train_set, model.n_classes, model.spec.input_shape)
    x_dev, y_dev = _check_dataset("dev", dev_set, model.n_classes, model.spec.input_shape)

    rng = np.random.default_rng(config.seed)
    adam_state = AdamState()
    history: TrainHistory = []
    best_uar = -1.0
    best_params = None
    n = x_train.shape[0]

    for epoch in range(1, config.epochs + 1):
        started = time.perf_counter()
        order = rng.permutation(n)
        loss_sum = 0.0
        epoch_pred = np.empty(n, dtype=np.int64)
        epoch_true = np.empty(n, dtype=np.int64)
        cursor = 0
        for batch_no, start in enumerate(range(0, n, config.batch_size), start=1):
            rows = order[start:start + config.batch_size]
            xb, yb = x_train[rows], y_train[rows]
            try:
                logits, _ = forward(model, xb)
                loss, probs = softmax_cross_entropy(logits, yb)
                backward(loss)
            except NumericError as exc:
                raise NumericError(
                    f"non-finite value at epoch {epoch}, batch {batch_no}: {exc}"
                ) from exc
            grads = {name: p.grad for name, p in model.params.items()
                     if p.requires_grad and p.grad is not None}
            if config.optimizer == "sgd":
                sgd_step(model.params, grads, config.learning_rate)
            else:
                adam_step(model.params, grads, adam_state, config.learning_rate)
            loss_sum += loss.item() * len(rows)
            epoch_pred[cursor:cursor + len(rows)] = np.argmax(probs.data, axis=1)
            epoch_true[cursor:cursor + len(rows)] = yb
            cursor += len(rows)

        train_uar = uar_from_labels(epoch_true, epoch_pred, model.n_classes)
        dev_uar = evaluate_uar(model, (x_dev, y_dev), config.batch_size)
        history.append(EpochRecord(epoch, loss_sum / n, train_uar, dev_uar))
        seconds = time.perf_counter() - started  # includes the dev evaluation
        log.info("epoch %d: train loss %.6f, train UAR %.2f, dev UAR %.2f, %.2f s, %.1f samples/s",
                 epoch, loss_sum / n, train_uar, dev_uar, seconds, n / seconds)
        if dev_uar > best_uar:
            best_uar = dev_uar
            best_params = model.clone_parameters()

    model.load_parameters(best_params)
    return model, history


def write_history(history: TrainHistory, path):
    with open(path, "w") as fh:
        fh.write("epoch,train_loss,train_uar,dev_uar\n")
        for rec in history:
            fh.write(f"{rec.epoch},{rec.train_loss:.6f},{rec.train_uar:.4f},{rec.dev_uar:.4f}\n")


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"DSLF"
CHECKPOINT_VERSION = 1


@dataclass
class Checkpoint:
    version: int
    spec_text: str
    params: dict
    metadata: dict


def save_checkpoint(model: Model, metadata: dict, path):
    """Write ``model`` and ``metadata`` to ``path``, parameters under their checkpoint names.

    Each metadata item is stored as one ``key=value`` line, so a key may not
    hold ``=`` and neither may hold a line break; such an item is rejected
    before the file is opened.
    """
    spec_bytes = model.spec.to_text().encode("utf-8")
    for key, value in metadata.items():
        line = f"{key}={value}"
        if "=" in str(key) or line.splitlines() != [line]:
            raise FormatError(f"metadata item {key!r}={value!r} cannot be stored as one key=value line")
    meta_bytes = "".join(f"{k}={v}\n" for k, v in metadata.items()).encode("utf-8")
    arrays = sorted(checkpoint_arrays(model), key=lambda item: item[0])
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(spec_bytes)))
        fh.write(spec_bytes)
        fh.write(struct.pack("<I", len(arrays)))
        for name, arr in arrays:
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.astype("<f4", copy=False).tobytes())
        fh.write(struct.pack("<I", len(meta_bytes)))
        fh.write(meta_bytes)


class _Reader:
    def __init__(self, blob, path):
        self.blob = blob
        self.path = path
        self.pos = 0

    def take(self, count: int) -> bytes:
        if self.pos + count > len(self.blob):
            raise TruncatedFileError(
                f"{self.path}: file ends {self.pos + count - len(self.blob)} bytes early"
            )
        out = self.blob[self.pos:self.pos + count]
        self.pos += count
        return out

    def text(self, count: int, field: str) -> str:
        raw = self.take(count)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(
                f"{self.path}: {field} is not valid UTF-8 ({exc.reason} at byte {exc.start} of the field)"
            ) from None

    def u8(self):
        return self.take(1)[0]

    def u16(self):
        return struct.unpack("<H", self.take(2))[0]

    def u32(self):
        return struct.unpack("<I", self.take(4))[0]


def read_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4 or blob[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: not a checkpoint file (bad magic)")
    reader = _Reader(blob, path)
    reader.take(4)
    version = reader.u32()
    if version != CHECKPOINT_VERSION:
        raise VersionError(f"{path}: unsupported checkpoint version {version}")
    spec_text = reader.text(reader.u32(), "model spec")
    params = {}
    for _ in range(reader.u32()):
        name = reader.text(reader.u16(), "parameter name")
        rank = reader.u8()
        shape = struct.unpack(f"<{rank}I", reader.take(4 * rank))
        if 0 in shape:
            raise FormatError(f"{path}: parameter {name!r} has a zero dimension in shape {shape}")
        # math.prod, not np.prod: an int64 product can wrap to a count the file holds
        data = np.frombuffer(reader.take(4 * math.prod(shape)), dtype="<f4").reshape(shape)
        params[name] = data.copy()
    metadata = {}
    for line in reader.text(reader.u32(), "metadata").splitlines():
        if line:
            key, _, value = line.partition("=")
            metadata[key] = value
    return Checkpoint(version, spec_text, params, metadata)


def load_checkpoint(path) -> tuple[Model, dict]:
    """Rebuild the model from its embedded spec; validates names, shapes and finiteness."""
    ckpt = read_checkpoint(path)
    try:
        spec = ModelSpec.from_text(ckpt.spec_text)
        model = init_model(spec)
    except (FormatError, ConfigError) as exc:
        raise IntegrityError(f"{path}: embedded model spec is invalid: {exc}") from exc
    try:
        model.load_parameters(ckpt.params)
    except (ShapeError, NumericError) as exc:
        raise IntegrityError(f"{path}: {exc}") from exc
    return model, ckpt.metadata


# ---------------------------------------------------------------------------
# Fine-tuning
# ---------------------------------------------------------------------------


def fine_tune(checkpoint_path, new_train_set, new_dev_set, config: TrainConfig,
              new_n_classes: int | None = None, freeze_backbone: bool = False):
    """Continue training from a checkpoint, optionally with a fresh head."""
    model, _ = load_checkpoint(checkpoint_path)
    if new_n_classes is not None and new_n_classes != model.n_classes:
        new_spec = replace(model.spec, n_classes=int(new_n_classes), seed=config.seed)
        fresh = init_model(new_spec)
        for name, p in fresh.params.items():
            if not name.startswith("head."):
                p.data = model.params[name].data.copy()
        model = fresh
    if freeze_backbone:
        for name, p in model.params.items():
            if not name.startswith("head."):
                p.requires_grad = False
    return train(model, new_train_set, new_dev_set, config)
