"""Mini-batch optimization, best-dev-model selection, checkpoints, fine-tuning.

Training keeps the parameter snapshot of the epoch with the highest dev UAR
(earliest epoch on ties) and restores it before returning.  All shuffling
comes from the config seed, so a run is bit-reproducible.  Checkpoints store
parameters as little-endian float32 and round-trip bit-exactly.
"""

from __future__ import annotations

import logging
import math
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
    VersionError,
    check_integer,
    check_labels,
)
from .evaluation import uar_from_labels
from .files import Reader, atomic_write
from .models import Model, ModelSpec, checkpoint_arrays, forward, init_model
from .tensor import backward, no_grad, softmax_cross_entropy

OPTIMIZERS = ("sgd", "adam")
# Adam's moment decays and denominator floor: the defaults of Kingma & Ba (2015)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.001
    batch_size: int = 16
    epochs: int = 20
    optimizer: str = "adam"
    seed: int = 0

    def __post_init__(self):
        for name, least in (("batch_size", 1), ("epochs", 1), ("seed", 0)):
            check_integer(name, getattr(self, name), least)
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be positive and finite, got {self.learning_rate}")
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


def _descend(params: dict, grads: dict, names: tuple, step):
    """theta <- theta - step(g), with g the gradients of ``names`` in order as one flat vector.

    g is a new array that ``step`` may overwrite; the callers' gradients are never written.
    Every gradient must name a parameter and match its shape and dtype, and
    all parameters must share one dtype.  With no names, ``step`` is not called.
    """
    if not all(map(params.__contains__, names)):
        raise ConfigError(f"gradients for {sorted(set(names) - params.keys())} name no parameter")
    if not names:
        return
    dtype = params[names[0]].data.dtype
    flat = []
    for name in names:
        grad, p = grads[name], params[name].data
        if grad.shape != p.shape:
            raise ShapeError(f"gradient for {name} has shape {grad.shape}, parameter {p.shape}")
        if p.dtype != dtype:
            raise ShapeError(f"parameter {name} is {p.dtype}, {names[0]} is {dtype}; "
                             f"the optimizer needs one dtype for all parameters")
        if grad.dtype != dtype:
            raise ShapeError(f"gradient for {name} has dtype {grad.dtype}, parameter {dtype}")
        flat.append(grad.reshape(-1))
    delta = step(np.concatenate(flat)).astype(dtype, copy=False)
    start = 0
    for name in names:
        p = params[name].data
        p -= delta[start:start + p.size].reshape(p.shape)
        start += p.size


def sgd_step(params: dict, grads: dict, lr: float):
    """theta <- theta - lr * g, one elementwise pass over all gradients."""
    _descend(params, grads, tuple(grads), lambda g: lr * g)


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

    def moments(g):
        # g is _descend's own flat copy, so it and one scratch array hold every temporary of
        # lr * (m / bc1) / (sqrt(v / bc2) + eps), computed in that order
        if state.m is None:
            state.m, state.v, state.names = np.zeros_like(g), np.zeros_like(g), names
        state.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** state.t
        bc2 = 1.0 - ADAM_BETA2 ** state.t
        m, v, scratch = state.m, state.v, np.empty_like(g)
        m *= ADAM_BETA1
        m += np.multiply(1.0 - ADAM_BETA1, g, out=scratch)
        v *= ADAM_BETA2
        v += np.multiply(1.0 - ADAM_BETA2, np.square(g, out=g), out=g)
        step = np.multiply(lr, np.divide(m, bc1, out=scratch), out=scratch)
        denom = np.sqrt(np.divide(v, bc2, out=g), out=g)
        denom += ADAM_EPSILON
        return np.divide(step, denom, out=step)

    _descend(params, grads, names, moments)
    return state


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


def _check_dataset(name, data, n_classes, input_shape):
    features, labels = data
    features = np.asarray(features)
    labels = np.asarray(labels)
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
    return features, check_labels(name, labels, n_classes)


# bytes of the widest stage output of one no-grad forward in predict_batches; see inference_blocks
INFERENCE_CHUNK_BYTES = 384 << 10


def inference_blocks(model: Model, batch_size: int) -> int:
    """Batches of ``batch_size`` samples that ``predict_batches`` runs through one forward.

    As many as keep the widest stage output of the forward, by the model's
    plan, within ``INFERENCE_CHUNK_BYTES``, and at least one.  A larger
    forward pays NumPy's per-call cost once for more samples, but past the
    constant its whole-chunk arrays fault in fresh pages instead.
    """
    itemsize = max(p.data.itemsize for p in model.params.values())
    widest = max(math.prod(stage.out_shape) for stage in model.plan) * itemsize * batch_size
    return max(1, INFERENCE_CHUNK_BYTES // widest)


def predict_batches(model: Model, features, batch_size: int = 64):
    """Labels and probabilities for ``features`` in inference mode.

    The set is padded with zero rows to whole batches of ``batch_size``,
    cut off again afterwards, and runs in chunks of ``inference_blocks``
    batches, one no-grad forward per chunk.  Inside it each BLAS product is
    taken per batch (``no_grad(block_rows=batch_size)``), so every product
    has ``batch_size`` rows: BLAS may round a row differently for another
    row count, and this keeps each sample's probability bytes the same for
    any subset, order or split of a set into calls at one ``batch_size``,
    and the same as one forward per batch gives.  No samples give ``(0,)``
    labels and ``(0, C)`` probabilities.
    """
    check_integer("batch_size", batch_size, 1)
    features = np.asarray(features)
    chunk = inference_blocks(model, batch_size) * batch_size
    out_probs = []
    with no_grad(block_rows=batch_size):
        # no samples still run one all-padding batch, which checks their shape and fixes the dtypes
        for start in range(0, max(features.shape[0], 1), chunk):
            part = features[start:start + chunk]
            rows = part.shape[0]
            whole = max(-(-rows // batch_size), 1) * batch_size
            if rows < whole:
                part, unpadded = np.zeros((whole, *part.shape[1:]), part.dtype), part  # one allocation
                part[:rows] = unpadded
            _, probs = forward(model, part)
            out_probs.append(probs.data[:rows])
    probs = np.concatenate(out_probs)
    return np.argmax(probs, axis=1), probs


def evaluate_uar(model: Model, dataset, batch_size: int = 64) -> float:
    features, labels = dataset
    pred, _ = predict_batches(model, features, batch_size)
    return uar_from_labels(labels, pred, model.n_classes)


def train_step(model: Model, state: AdamState, xb, yb, config: TrainConfig):
    """One optimizer step on the batch ``(xb, yb)``; returns (mean loss, probabilities).

    Runs the forward, the loss, the backward and ``config.optimizer``'s
    update of every parameter that requires a gradient.  ``state`` is the
    run's Adam state; SGD leaves it untouched.
    """
    logits, _ = forward(model, xb)
    loss, probs = softmax_cross_entropy(logits, yb)
    backward(loss)
    grads = {name: p.grad for name, p in model.params.items()
             if p.requires_grad and p.grad is not None}
    if config.optimizer == "sgd":
        sgd_step(model.params, grads, config.learning_rate)
    else:
        adam_step(model.params, grads, state, config.learning_rate)
    return loss.item(), probs.data


def train(model: Model, train_set, dev_set, config: TrainConfig):
    """Optimize ``model``; returns (model restored to its best epoch, history)."""
    x_train, y_train = _check_dataset("train", train_set, model.n_classes, model.spec.input_shape)
    x_dev, y_dev = _check_dataset("dev", dev_set, model.n_classes, model.spec.input_shape)

    rng = np.random.default_rng(config.seed)
    adam_state = AdamState()
    history: TrainHistory = []
    n, best_uar = x_train.shape[0], -math.inf

    for epoch in range(1, config.epochs + 1):
        started = time.perf_counter()
        order = rng.permutation(n)
        loss_sum = 0.0
        epoch_pred = np.empty(n, dtype=np.int64)
        for batch_no, start in enumerate(range(0, n, config.batch_size), start=1):
            rows = order[start:start + config.batch_size]
            try:
                loss, probs = train_step(model, adam_state, x_train[rows], y_train[rows], config)
            except NumericError as exc:
                raise NumericError(
                    f"non-finite value at epoch {epoch}, batch {batch_no}: {exc}"
                ) from exc
            loss_sum += loss * len(rows)
            epoch_pred[start:start + len(rows)] = np.argmax(probs, axis=1)

        train_uar = uar_from_labels(y_train[order], epoch_pred, model.n_classes)
        dev_uar = evaluate_uar(model, (x_dev, y_dev), config.batch_size)
        history.append(EpochRecord(epoch, loss_sum / n, train_uar, dev_uar))
        seconds = time.perf_counter() - started  # includes the dev evaluation
        log.info("epoch %d: train loss %.6f, train UAR %.2f, dev UAR %.2f, %.2f s, %.1f samples/s",
                 epoch, loss_sum / n, train_uar, dev_uar, seconds, n / seconds)
        if dev_uar > best_uar:  # a tie keeps the earliest best epoch
            best_uar, best_params = dev_uar, {name: p.data.copy() for name, p in model.params.items()}

    for name, arr in best_params.items():
        model.params[name].data = arr
    return model, history


def write_history(history: TrainHistory, path):
    with atomic_write(path, text=True) as fh:
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

    The file is written through ``files.atomic_write``, so ``path`` holds
    either its old bytes or the new ones.
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
    with atomic_write(path) as fh:
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


def read_checkpoint(path) -> Checkpoint:
    reader = Reader(path)
    if reader.blob[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: not a checkpoint file (bad magic)")
    (version,) = reader.unpack("<4xI")
    if version != CHECKPOINT_VERSION:
        raise VersionError(f"{path}: unsupported checkpoint version {version}")
    spec_text = reader.text(*reader.unpack("<I"), "model spec")
    params = {}
    for _ in range(*reader.unpack("<I")):
        name = reader.text(*reader.unpack("<H"), "parameter name")
        if name in params:
            raise FormatError(f"{path}: parameter {name!r} is stored twice")
        (rank,) = reader.unpack("<B")
        shape = reader.unpack(f"<{rank}I")
        if 0 in shape:
            raise FormatError(f"{path}: parameter {name!r} has a zero dimension in shape {shape}")
        # math.prod, not np.prod: an int64 product can wrap to a count the file holds
        params[name] = reader.array("<f4", math.prod(shape)).reshape(shape)
    metadata = {}
    for line in reader.text(*reader.unpack("<I"), "metadata").splitlines():
        if line:
            key, _, value = line.partition("=")
            metadata[key] = value
    reader.finish("the metadata block")
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
    head = {name for name, _ in model.plan[-1].params}
    if new_n_classes is not None and new_n_classes != model.n_classes:
        new_spec = replace(model.spec, n_classes=int(new_n_classes), seed=config.seed)
        fresh = init_model(new_spec)
        for name, p in fresh.params.items():
            if name not in head:
                p.data = model.params[name].data.copy()
        model = fresh
    if freeze_backbone:
        for name, p in model.params.items():
            if name not in head:
                p.requires_grad = False
    return train(model, new_train_set, new_dev_set, config)
