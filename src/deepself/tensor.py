"""Reverse-mode automatic differentiation over dense n-dimensional arrays.

Every operation that touches a tensor with ``requires_grad`` appends a record
to a per-thread tape: the input/output tensors plus a closure mapping the
output gradient to input gradients.  ``backward`` replays the records
newest-first (execution order is already topological), accumulates gradients
by summation, and clears the tape, so a tape serves exactly one forward pass.

Arithmetic defaults to float32; verification code builds float64 tensors
instead.  There is no broadcasting beyond bias addition: elementwise
operations demand identical shapes, which keeps the correctness surface
small.  Convolution is cross-correlation (no kernel flip).
"""

from __future__ import annotations

import threading

import numpy as np

from .errors import ConfigError, DeepSelfError, NumericError, ShapeError

DEFAULT_DTYPE = np.float32

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class Tensor:
    """A dense array plus the bookkeeping needed for backpropagation."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad=False, dtype=None):
        if dtype is None:
            # keep explicit float64 arrays (verification mode); default the rest
            if isinstance(data, np.ndarray) and data.dtype in _FLOAT_DTYPES:
                dtype = data.dtype
            else:
                dtype = DEFAULT_DTYPE
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(DEFAULT_DTYPE)
        arr = np.ascontiguousarray(arr)
        if not np.all(np.isfinite(arr)):
            raise NumericError("tensor holds non-finite values")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def backward(self):
        backward(self)

    def __repr__(self):
        return f"Tensor(shape={tuple(self.shape)}, requires_grad={self.requires_grad})"

    # elementwise sugar; same-shape operands only
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return neg(self)

    def __pow__(self, exponent):
        return power(self, exponent)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self):
        return tensor_sum(self)

    def mean(self):
        return tensor_mean(self)

    def reshape(self, shape):
        return reshape(self, shape)


# ---------------------------------------------------------------------------
# Tape
# ---------------------------------------------------------------------------


class _TapeRecord:
    __slots__ = ("op", "inputs", "output", "backward_fn")

    def __init__(self, op, inputs, output, backward_fn):
        self.op = op
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn


class Tape:
    """Ordered log of recorded operations for one forward pass."""

    def __init__(self):
        self.records: list[_TapeRecord] = []

    def record(self, op, inputs, output, backward_fn):
        self.records.append(_TapeRecord(op, inputs, output, backward_fn))

    def clear(self):
        self.records.clear()

    def __len__(self):
        return len(self.records)


_state = threading.local()


def active_tape() -> Tape:
    tape = getattr(_state, "tape", None)
    if tape is None:
        tape = Tape()
        _state.tape = tape
    return tape


def clear_tape():
    active_tape().clear()


def _recording() -> bool:
    return getattr(_state, "grad_enabled", True)


class no_grad:
    """Context manager that suspends tape recording."""

    def __enter__(self):
        self._prev = _recording()
        _state.grad_enabled = False
        return self

    def __exit__(self, exc_type, exc, tb):
        _state.grad_enabled = self._prev
        return False


def _make_result(op, arr, inputs, backward_fn):
    """Wrap an op result, recording it on the tape when gradients are live."""
    out = Tensor.__new__(Tensor)
    arr = np.ascontiguousarray(arr)
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"{op} produced non-finite values")
    out.data = arr
    out.grad = None
    track = _recording() and any(t.requires_grad for t in inputs)
    out.requires_grad = track
    if track:
        active_tape().record(op, inputs, out, backward_fn)
    return out


# ---------------------------------------------------------------------------
# Backward pass
# ---------------------------------------------------------------------------


def backward(loss: Tensor):
    """Populate ``grad`` on every requires_grad tensor reachable on the tape.

    ``loss`` must be a scalar produced on the current tape.  Gradients of
    tensors used more than once accumulate by summation.  The tape is cleared
    afterwards whether or not the replay succeeds.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {tuple(loss.shape)}")
    tape = active_tape()
    try:
        records = tape.records
        if not any(rec.output is loss for rec in records):
            raise DeepSelfError("loss was not produced on the active tape")
        for rec in records:
            for t in rec.inputs:
                if t.requires_grad and t.grad is None:
                    t.grad = np.zeros_like(t.data)
            if rec.output.grad is None:
                rec.output.grad = np.zeros_like(rec.output.data)
        loss.grad = np.ones_like(loss.data)
        for rec in reversed(records):
            grads = rec.backward_fn(rec.output.grad)
            for t, g in zip(rec.inputs, grads):
                if g is None or not t.requires_grad:
                    continue
                if not np.all(np.isfinite(g)):
                    raise NumericError(f"non-finite gradient in backward of {rec.op}")
                t.grad += g
    finally:
        tape.clear()


# ---------------------------------------------------------------------------
# Elementwise operations (strict same-shape, no broadcasting)
# ---------------------------------------------------------------------------


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _check_same_shape(op, a, b):
    if a.shape != b.shape:
        raise ShapeError(f"{op}: operand shapes {tuple(a.shape)} and {tuple(b.shape)} differ")


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_same_shape("add", a, b)
    return _make_result("add", a.data + b.data, (a, b), lambda g: (g, g))


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_same_shape("sub", a, b)
    return _make_result("sub", a.data - b.data, (a, b), lambda g: (g, -g))


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_same_shape("mul", a, b)
    ad, bd = a.data, b.data
    return _make_result("mul", ad * bd, (a, b), lambda g: (g * bd, g * ad))


def neg(a) -> Tensor:
    a = _as_tensor(a)
    return _make_result("neg", -a.data, (a,), lambda g: (-g,))


def power(a, exponent) -> Tensor:
    a = _as_tensor(a)
    p = float(exponent)
    ad = a.data
    return _make_result("power", ad**p, (a,), lambda g: (g * p * ad ** (p - 1.0),))


def tensor_sum(a) -> Tensor:
    a = _as_tensor(a)
    out = np.asarray(a.data.sum(), dtype=a.dtype)
    return _make_result("sum", out, (a,), lambda g: (np.broadcast_to(g, a.shape).astype(a.dtype, copy=True),))


def tensor_mean(a) -> Tensor:
    a = _as_tensor(a)
    n = a.data.size
    out = np.asarray(a.data.mean(), dtype=a.dtype)
    return _make_result("mean", out, (a,), lambda g: ((np.broadcast_to(g, a.shape) / n).astype(a.dtype, copy=True),))


def add_bias(x, bias) -> Tensor:
    """Add a length-C bias vector to every row of a [B x C] tensor."""
    x, bias = _as_tensor(x), _as_tensor(bias)
    if x.data.ndim != 2 or bias.data.ndim != 1 or x.shape[1] != bias.shape[0]:
        raise ShapeError(f"add_bias: got x {tuple(x.shape)} and bias {tuple(bias.shape)}")
    return _make_result("add_bias", x.data + bias.data[None, :], (x, bias), lambda g: (g, g.sum(axis=0)))


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------

ACTIVATIONS = ("relu", "sigmoid", "tanh")


def activation(x, kind: str) -> Tensor:
    """Elementwise nonlinearity; ``kind`` is one of relu, sigmoid, tanh."""
    x = _as_tensor(x)
    xd = x.data
    if kind == "relu":
        out = np.maximum(xd, 0)
        return _make_result("relu", out, (x,), lambda g: (g * (xd > 0),))
    if kind == "sigmoid":
        # tanh form saturates instead of overflowing exp()
        s = 0.5 * (1.0 + np.tanh(0.5 * xd))
        return _make_result("sigmoid", s, (x,), lambda g: (g * s * (1.0 - s),))
    if kind == "tanh":
        t = np.tanh(xd)
        return _make_result("tanh", t, (x,), lambda g: (g * (1.0 - t * t),))
    raise ConfigError(f"unknown activation {kind!r}; choose one of {ACTIVATIONS}")


def relu(x):
    return activation(x, "relu")


def sigmoid(x):
    return activation(x, "sigmoid")


def tanh(x):
    return activation(x, "tanh")


# ---------------------------------------------------------------------------
# Shape manipulation
# ---------------------------------------------------------------------------


def reshape(x, shape) -> Tensor:
    x = _as_tensor(x)
    shape = tuple(int(s) for s in shape)
    in_shape = x.shape
    try:
        out = x.data.reshape(shape)
    except ValueError as exc:
        raise ShapeError(f"reshape: cannot view {tuple(in_shape)} as {shape}") from exc
    return _make_result("reshape", out, (x,), lambda g: (g.reshape(in_shape),))


def transpose(x, axes) -> Tensor:
    x = _as_tensor(x)
    axes = tuple(int(a) for a in axes)
    inverse = tuple(np.argsort(axes))
    return _make_result("transpose", np.transpose(x.data, axes), (x,), lambda g: (np.transpose(g, inverse),))


def concat(tensors, axis: int) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat needs at least one tensor")
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def _backward(g):
        return tuple(np.ascontiguousarray(piece) for piece in np.split(g, splits, axis=axis))

    return _make_result("concat", np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), _backward)


def select(x, index: int, axis: int) -> Tensor:
    """Take one slice along ``axis``, dropping that axis."""
    x = _as_tensor(x)
    index = int(index)
    in_shape = x.shape
    sel = [slice(None)] * x.data.ndim
    sel[axis] = index
    sel = tuple(sel)

    def _backward(g):
        full = np.zeros(in_shape, dtype=g.dtype)
        full[sel] = g
        return (full,)

    return _make_result("select", x.data[sel].copy(), (x,), _backward)


# ---------------------------------------------------------------------------
# Matrix multiplication
# ---------------------------------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul needs rank-2 operands, got {tuple(a.shape)} and {tuple(b.shape)}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions disagree for {tuple(a.shape)} x {tuple(b.shape)}")
    ad, bd = a.data, b.data
    return _make_result("matmul", ad @ bd, (a, b), lambda g: (g @ bd.T, ad.T @ g))


# ---------------------------------------------------------------------------
# Convolution (cross-correlation) over 1, 2, or 3 spatial axes
# ---------------------------------------------------------------------------


def _per_axis(value, rank, name) -> tuple[int, ...]:
    if np.isscalar(value):
        out = (int(value),) * rank
    else:
        out = tuple(int(v) for v in value)
    if len(out) != rank:
        raise ConfigError(f"{name} needs one entry per spatial axis (rank {rank}), got {out}")
    return out


def infer_conv_output_size(in_extent: int, kernel: int, stride: int, padding: int,
                           axis: int | None = None) -> int:
    """floor((in + 2*padding - kernel)/stride) + 1, rejected when below 1.

    ``axis`` only names the spatial axis in the error message.
    """
    in_extent, kernel = int(in_extent), int(kernel)
    stride, padding = int(stride), int(padding)
    where = "" if axis is None else f" on spatial axis {axis}"
    if in_extent < 1 or kernel < 1 or stride < 1 or padding < 0:
        raise ConfigError(
            f"conv size arguments out of range{where}: in={in_extent}, kernel={kernel}, "
            f"stride={stride}, padding={padding}"
        )
    out = (in_extent + 2 * padding - kernel) // stride + 1
    if out < 1:
        raise ConfigError(
            f"convolution output extent {out} < 1{where} "
            f"(input {in_extent}, kernel {kernel}, stride {stride}, padding {padding})"
        )
    return out


def _window_indices(padded_sp, out_sp, kernel_sp, stride):
    """Flat indices into the padded spatial block, shaped [n_windows, window_size]."""
    rank = len(padded_sp)
    sp_strides = np.ones(rank, dtype=np.int64)
    for i in range(rank - 2, -1, -1):
        sp_strides[i] = sp_strides[i + 1] * padded_sp[i + 1]
    idx = np.zeros((1,) * (2 * rank), dtype=np.int64)
    for i in range(rank):
        starts = np.arange(out_sp[i], dtype=np.int64) * stride[i]
        offs = np.arange(kernel_sp[i], dtype=np.int64)
        axis_idx = (starts[:, None] + offs[None, :]) * sp_strides[i]
        shape = [1] * (2 * rank)
        shape[i] = out_sp[i]
        shape[rank + i] = kernel_sp[i]
        idx = idx + axis_idx.reshape(shape)
    n_windows = int(np.prod(out_sp))
    window = int(np.prod(kernel_sp))
    return np.ascontiguousarray(np.broadcast_to(idx, tuple(out_sp) + tuple(kernel_sp)).reshape(n_windows, window))


def conv_nd_batched(x, kernels, stride, padding, bias=None) -> Tensor:
    """Batched cross-correlation: [B, C_in, *sp] with [C_out, C_in, *k].

    Zero padding, per-output-channel bias, spatial rank 1 to 3.
    """
    x, kernels = _as_tensor(x), _as_tensor(kernels)
    rank = x.data.ndim - 2
    if rank not in (1, 2, 3):
        raise ShapeError(f"conv input must be [B, C_in, 1..3 spatial axes], got shape {tuple(x.shape)}")
    if kernels.data.ndim != rank + 2:
        raise ShapeError(f"kernel rank {kernels.data.ndim} does not match input shape {tuple(x.shape)}")
    batch, c_in = x.shape[0], x.shape[1]
    c_out, kc_in = kernels.shape[0], kernels.shape[1]
    if kc_in != c_in:
        raise ShapeError(f"kernel expects {kc_in} input channels, input has {c_in}")
    spatial = x.shape[2:]
    kernel_sp = kernels.shape[2:]
    stride = _per_axis(stride, rank, "stride")
    padding = _per_axis(padding, rank, "padding")
    out_sp = tuple(infer_conv_output_size(*geometry, axis=axis)
                   for axis, geometry in enumerate(zip(spatial, kernel_sp, stride, padding)))

    if bias is None:
        bias = Tensor(np.zeros(c_out, dtype=x.dtype))
    else:
        bias = _as_tensor(bias)
        if bias.shape != (c_out,):
            raise ShapeError(f"bias must have shape ({c_out},), got {tuple(bias.shape)}")

    pad_spec = [(0, 0), (0, 0)] + [(p, p) for p in padding]
    padded = np.pad(x.data, pad_spec)
    padded_sp = padded.shape[2:]
    win = _window_indices(padded_sp, out_sp, kernel_sp, stride)  # [O, K]
    n_win, win_size = win.shape
    patches = padded.reshape(batch, c_in, -1)[:, :, win]  # [B, C_in, O, K]
    pmat = patches.transpose(0, 2, 1, 3).reshape(batch * n_win, c_in * win_size)
    kmat = kernels.data.reshape(c_out, c_in * win_size)
    out = pmat @ kmat.T  # [B*O, C_out]
    out = out.reshape(batch, n_win, c_out).transpose(0, 2, 1)
    out = out + bias.data[None, :, None]
    out = out.reshape(batch, c_out, *out_sp)

    def _backward(g):
        g2 = g.reshape(batch, c_out, n_win).transpose(0, 2, 1).reshape(batch * n_win, c_out)
        d_kernels = (g2.T @ pmat).reshape(kernels.shape)
        d_bias = g2.sum(axis=0)
        d_pmat = g2 @ kmat  # [B*O, C_in*K]
        d_patches = d_pmat.reshape(batch, n_win, c_in, win_size).transpose(0, 2, 1, 3)
        d_padded = np.zeros((batch, c_in, int(np.prod(padded_sp))), dtype=g.dtype)
        np.add.at(
            d_padded,
            (np.arange(batch)[:, None, None, None], np.arange(c_in)[None, :, None, None], win[None, None, :, :]),
            d_patches,
        )
        d_padded = d_padded.reshape(batch, c_in, *padded_sp)
        unpad = tuple(slice(p, p + n) for p, n in zip(padding, spatial))
        d_x = np.ascontiguousarray(d_padded[(slice(None), slice(None)) + unpad])
        return (d_x, d_kernels, d_bias)

    return _make_result("conv", out, (x, kernels, bias), _backward)


def convolve_nd(x, kernels, stride=1, padding=0, bias=None) -> Tensor:
    """Single-sample cross-correlation: [C_in, *sp] with [C_out, C_in, *k]."""
    x = _as_tensor(x)
    if x.data.ndim < 2 or x.data.ndim > 4:
        raise ShapeError(f"convolve_nd input must be [C_in, 1..3 spatial axes], got shape {tuple(x.shape)}")
    batched = reshape(x, (1,) + tuple(x.shape))
    out = conv_nd_batched(batched, kernels, stride, padding, bias=bias)
    return reshape(out, tuple(out.shape)[1:])


# ---------------------------------------------------------------------------
# Softmax cross-entropy
# ---------------------------------------------------------------------------


def softmax(logits) -> Tensor:
    """Row-wise softmax of a [B x C] tensor, computed with max subtraction.

    Returned probabilities are detached from the tape; training goes through
    :func:`softmax_cross_entropy`, whose backward rule is fused.
    """
    logits = _as_tensor(logits)
    if logits.data.ndim != 2:
        raise ShapeError(f"softmax needs [B x C] logits, got shape {tuple(logits.shape)}")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    exps = np.exp(shifted)
    probs = exps / exps.sum(axis=1, keepdims=True)
    return Tensor(probs)


def softmax_cross_entropy(logits, targets) -> tuple[Tensor, Tensor]:
    """Mean negative log-likelihood of integer ``targets`` under row softmax.

    Returns ``(loss, probabilities)``: a scalar tensor on the tape and the
    detached [B x C] probability rows.
    """
    logits = _as_tensor(logits)
    if logits.data.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy needs [B x C] logits, got shape {tuple(logits.shape)}")
    batch, n_classes = logits.shape
    if batch < 1:
        raise ShapeError("softmax_cross_entropy needs at least one row")
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != (batch,):
        raise ShapeError(f"targets must have shape ({batch},), got {tuple(targets.shape)}")
    bad = (targets < 0) | (targets >= n_classes)
    if bad.any():
        where = int(np.argmax(bad))
        raise IndexError(f"target {targets[where]} at row {where} is outside 0..{n_classes - 1}")

    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    exps = np.exp(shifted)
    total = exps.sum(axis=1, keepdims=True)
    probs = exps / total
    log_probs = shifted - np.log(total)
    rows = np.arange(batch)
    loss_val = np.asarray(-log_probs[rows, targets].mean(), dtype=logits.dtype)

    def _backward(g):
        d = probs.copy()
        d[rows, targets] -= 1.0
        return ((g * d / batch).astype(logits.dtype, copy=False),)

    loss = _make_result("softmax_cross_entropy", loss_val, (logits,), _backward)
    return loss, Tensor(probs)


# ---------------------------------------------------------------------------
# Finite-difference oracle
# ---------------------------------------------------------------------------


def finite_diff_grad(f, x: Tensor, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar-valued ``f`` at ``x``, in float64."""
    if h <= 0:
        raise ConfigError(f"finite difference step must be positive, got {h}")
    base = x.data.astype(np.float64).copy()
    grad = np.zeros_like(base)
    flat = base.reshape(-1)
    out = grad.reshape(-1)
    with no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = f(Tensor(base.copy(), dtype=np.float64))
            flat[i] = orig - h
            f_minus = f(Tensor(base.copy(), dtype=np.float64))
            flat[i] = orig
            f_plus = f_plus.item() if isinstance(f_plus, Tensor) else float(f_plus)
            f_minus = f_minus.item() if isinstance(f_minus, Tensor) else float(f_minus)
            out[i] = (f_plus - f_minus) / (2.0 * h)
    return grad
