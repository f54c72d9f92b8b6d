"""Reverse-mode automatic differentiation over dense n-dimensional arrays.

Every operation that touches a tensor with ``requires_grad`` appends a record
to a per-thread tape, a plain list: the input/output tensors plus a closure
mapping the output gradient to input gradients.  ``backward`` replays the
records newest-first (execution order is already topological) and clears the
tape, so a tape serves exactly one forward pass.  Each call gives every
requires_grad tensor on its tape exactly this loss's gradient: replay starts
from no gradient, so nothing carries over from an earlier call and callers
never clear ``grad`` themselves.

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

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data.reshape(()))

    def backward(self):
        backward(self)

    def __repr__(self):
        return f"Tensor(shape={tuple(self.shape)}, requires_grad={self.requires_grad})"

    # elementwise sugar; same-shape operands only
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def sum(self):
        return tensor_sum(self)


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


_state = threading.local()


def active_tape() -> list[_TapeRecord]:
    """This thread's tape: the records of the current forward pass, oldest first."""
    tape = getattr(_state, "tape", None)
    if tape is None:
        tape = _state.tape = []
    return tape


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
        active_tape().append(_TapeRecord(op, inputs, out, backward_fn))
    return out


# ---------------------------------------------------------------------------
# Backward pass
# ---------------------------------------------------------------------------


def backward(loss: Tensor):
    """Set ``grad`` on every requires_grad tensor on the tape to d loss / d tensor.

    ``loss`` must be a scalar produced on the current tape.  Each call gives
    every requires_grad tensor on its tape exactly this loss's gradient,
    whatever ``grad`` held before; contributions of a tensor used more than
    once are summed, and an input the loss does not depend on gets zeros.
    The tape is cleared afterwards whether or not the replay succeeds.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {tuple(loss.shape)}")
    tape = active_tape()
    try:
        if not any(rec.output is loss for rec in tape):
            raise DeepSelfError("loss was not produced on the active tape")
        for rec in tape:
            rec.output.grad = None
            for t in rec.inputs:
                t.grad = None
        loss.grad = np.ones_like(loss.data)
        for rec in reversed(tape):
            if rec.output.grad is None:
                continue  # the loss does not depend on this record
            grads = rec.backward_fn(rec.output.grad)
            for t, g in zip(rec.inputs, grads):
                if g is None or not t.requires_grad:
                    continue
                if not np.all(np.isfinite(g)):
                    raise NumericError(f"non-finite gradient in backward of {rec.op}")
                if t.grad is None:
                    # a C-ordered copy: an op may return one array for several inputs (add)
                    t.grad = np.array(g, dtype=t.data.dtype, order="C")
                else:
                    t.grad += g
        for rec in tape:
            for t in rec.inputs:
                if t.requires_grad and t.grad is None:
                    t.grad = np.zeros_like(t.data)
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


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_same_shape("mul", a, b)
    ad, bd = a.data, b.data
    return _make_result("mul", ad * bd, (a, b), lambda g: (g * bd, g * ad))


def tensor_sum(a) -> Tensor:
    a = _as_tensor(a)
    out = np.asarray(a.data.sum(), dtype=a.dtype)
    return _make_result("sum", out, (a,), lambda g: (np.broadcast_to(g, a.shape).astype(a.dtype, copy=True),))


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


def _sigmoid(x):
    # tanh form saturates instead of overflowing exp()
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def activation(x, kind: str) -> Tensor:
    """Elementwise nonlinearity; ``kind`` is one of relu, sigmoid, tanh."""
    x = _as_tensor(x)
    xd = x.data
    if kind == "relu":
        out = np.maximum(xd, 0)
        return _make_result("relu", out, (x,), lambda g: (g * (xd > 0),))
    if kind == "sigmoid":
        s = _sigmoid(xd)
        return _make_result("sigmoid", s, (x,), lambda g: (g * s * (1.0 - s),))
    if kind == "tanh":
        t = np.tanh(xd)
        return _make_result("tanh", t, (x,), lambda g: (g * (1.0 - t * t),))
    raise ConfigError(f"unknown activation {kind!r}; choose one of {ACTIVATIONS}")


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


# ---------------------------------------------------------------------------
# Recurrent layers: one tape record per direction
# ---------------------------------------------------------------------------

# gate order of the stacked W/U/b columns of each cell
RECURRENT_GATES = {
    "rnn": ("",),
    "gru": ("r", "z", "n"),
    "lstm": ("i", "f", "g", "o"),
}


def recurrent(x, w, u, b, cell: str, reverse: bool = False) -> Tensor:
    """Scan one recurrent direction over a [B, T, F] sequence; returns [B, T, H].

    ``w`` [F, G*H], ``u`` [H, G*H] and ``b`` [G*H] hold the G gates of
    ``RECURRENT_GATES[cell]`` side by side in that order.  The state starts
    at zero; ``reverse`` scans from the last position to the first, and the
    outputs stay in position order.  With sigmoid in its tanh form:

    * rnn:  h' = tanh(W x + U h + b)
    * gru:  r, z = sigmoid(W x + U h + b), n = tanh(W_n x + U_n (r*h) + b_n),
      h' = n + z*(h - n)
    * lstm: i, f, o = sigmoid(W x + U h + b), g = tanh(W_g x + U_g h + b_g),
      c' = f*c + i*g, h' = o*tanh(c')

    The input projection of all steps is one matmul and each step does one
    matmul on the state (gru two: its candidate reads r*h).  The backward
    pass is hand-written backpropagation through time.  All pre-activations
    are checked for finiteness once, after the scan.
    """
    if cell not in RECURRENT_GATES:
        raise ConfigError(f"unknown recurrent cell {cell!r}; choose one of {tuple(RECURRENT_GATES)}")
    x, w, u, b = _as_tensor(x), _as_tensor(w), _as_tensor(u), _as_tensor(b)
    hid = u.shape[0] if u.data.ndim == 2 else 0
    width = len(RECURRENT_GATES[cell]) * hid
    if (x.data.ndim != 3 or x.shape[1] < 1 or hid < 1
            or (w.shape, u.shape, b.shape) != ((x.shape[2], width), (hid, width), (width,))):
        raise ShapeError(f"{cell}: needs a non-empty [B, T, F] input, W [F, G*H], U [H, G*H] "
                         f"and b [G*H] with H >= 1; got {tuple(x.shape)}, {tuple(w.shape)}, "
                         f"{tuple(u.shape)} and {tuple(b.shape)}")
    batch, steps, features = x.shape
    order = -1 if reverse else 1
    dtype = np.result_type(x.data, w.data, u.data, b.data)
    # every buffer is indexed by scan step s; hs[s] and cs[s] are the states step s reads
    seq = np.ascontiguousarray(x.data.transpose(1, 0, 2)[::order], dtype=dtype)
    seq = seq.reshape(steps * batch, features)
    pre = (seq @ w.data).reshape(steps, batch, width)  # W x; U h and b are added per step
    act = np.empty_like(pre)
    hs = np.zeros((steps + 1, batch, hid), dtype)
    cs = np.zeros_like(hs)  # lstm only
    rh = np.empty((steps, batch, hid), dtype)  # gru only: r*h, what U_n reads
    n_h = 2 * hid if cell == "gru" else width  # gate columns fed by U h
    u_h, u_n = np.ascontiguousarray(u.data[:, :n_h]), np.ascontiguousarray(u.data[:, n_h:])
    for s in range(steps):
        h, a, gates = hs[s], pre[s], act[s]
        a_h = a[:, :n_h]
        a_h += h @ u_h
        a_h += b.data[:n_h]
        if cell == "rnn":
            np.tanh(a, out=hs[s + 1])
        elif cell == "gru":
            gates[:, :n_h] = _sigmoid(a_h)
            r, z, n = gates[:, :hid], gates[:, hid:n_h], gates[:, n_h:]
            np.multiply(r, h, out=rh[s])
            a_n = a[:, n_h:]
            a_n += rh[s] @ u_n
            a_n += b.data[n_h:]
            np.tanh(a_n, out=n)
            hs[s + 1] = n + z * (h - n)
        else:
            gates[...] = _sigmoid(a)
            i, f, g, o = (gates[:, k * hid:(k + 1) * hid] for k in range(4))
            np.tanh(a[:, 2 * hid:3 * hid], out=g)
            cs[s + 1] = f * cs[s] + i * g
            np.multiply(o, np.tanh(cs[s + 1]), out=hs[s + 1])
    if not np.all(np.isfinite(pre)):
        raise NumericError(f"{cell} produced non-finite values")

    def _backward(grad):
        d_out = grad.transpose(1, 0, 2)[::order]
        d_pre = np.empty((steps, batch, width), dtype)
        d_gates = d_pre.reshape(steps, batch, -1, hid)  # a view: d_pre is contiguous
        gate = act.reshape(steps, batch, -1, hid)
        h_in = hs[:-1]
        # the local derivatives that do not depend on the incoming gradient, all steps at once
        if cell == "rnn":
            fac = 1.0 - hs[1:] * hs[1:]
        elif cell == "gru":
            r, z, n = gate[:, :, 0], gate[:, :, 1], gate[:, :, 2]
            # times dL/d(r*h), dL/dh', dL/dh'
            fac = np.stack([h_in * r * (1.0 - r), (h_in - n) * z * (1.0 - z),
                            (1.0 - z) * (1.0 - n * n)], axis=2)
        else:
            i, f, g, o = (gate[:, :, k] for k in range(4))
            tanh_c = np.tanh(cs[1:])
            # times dL/dc for i, f and g, times dL/dh' for o
            fac = np.stack([g * i * (1.0 - i), cs[:-1] * f * (1.0 - f), i * (1.0 - g * g),
                            tanh_c * o * (1.0 - o)], axis=2)
            o_dtanh = o * (1.0 - tanh_c * tanh_c)
        carry = np.zeros((batch, hid), dtype)  # dL/dh from later steps
        dc = np.zeros((batch, hid), dtype)  # dL/dc from later steps (lstm)
        for s in range(steps - 1, -1, -1):
            dh, da = d_out[s] + carry, d_gates[s]
            if cell == "rnn":
                np.multiply(dh, fac[s], out=da[:, 0])
            elif cell == "gru":
                np.multiply(dh, fac[s, :, 2], out=da[:, 2])
                d_rh = da[:, 2] @ u_n.T
                np.multiply(d_rh, fac[s, :, 0], out=da[:, 0])
                np.multiply(dh, fac[s, :, 1], out=da[:, 1])
            else:
                dc += dh * o_dtanh[s]
                np.multiply(dc[:, None, :], fac[s, :, :3], out=da[:, :3])
                np.multiply(dh, fac[s, :, 3], out=da[:, 3])
                dc *= f[s]
            carry = d_pre[s, :, :n_h] @ u_h.T
            if cell == "gru":
                carry += dh * z[s] + d_rh * r[s]
        d_flat = d_pre.reshape(steps * batch, width)
        d_u = h_in.reshape(-1, hid).T @ d_flat[:, :n_h]
        if cell == "gru":
            d_u = np.concatenate([d_u, rh.reshape(-1, hid).T @ d_flat[:, n_h:]], axis=1)
        d_x = None
        if x.requires_grad:
            d_seq = (d_flat @ w.data.T).reshape(steps, batch, features)[::order]
            d_x = np.ascontiguousarray(d_seq.transpose(1, 0, 2))
        return d_x, seq.T @ d_flat, d_u, d_flat.sum(axis=0)

    return _make_result(cell, hs[1:][::order].transpose(1, 0, 2), (x, w, u, b), _backward)


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
