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
instead.  The ops are whole layers (``linear``, ``conv_nd_batched``,
``recurrent``), their activations and the shape moves between them: a layer
is one tape record, its activation another, and there is no general
elementwise algebra.  Convolution is cross-correlation (no kernel flip).
"""

from __future__ import annotations

import functools
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
        if not np.isfinite(arr).all():
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


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _tracked(inputs) -> bool:
    """Whether an op on ``inputs`` is recorded: recording is on and some input requires grad."""
    return _recording() and any(t.requires_grad for t in inputs)


def _make_result(op, arr, inputs, backward_fn):
    """Wrap an op result, recording it on the tape when gradients are live."""
    out = Tensor.__new__(Tensor)
    arr = np.ascontiguousarray(arr)
    if not np.isfinite(arr).all():
        raise NumericError(f"{op} produced non-finite values")
    out.data = arr
    out.grad = None
    track = _tracked(inputs)
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
                if not np.isfinite(g).all():
                    raise NumericError(f"non-finite gradient in backward of {rec.op}")
                # out of place: a grad may be a view of another tensor's grad (reshape)
                if t.grad is None:
                    t.grad = g.astype(t.data.dtype, copy=False)
                else:
                    t.grad = (t.grad + g).astype(t.data.dtype, copy=False)
        for rec in tape:
            for t in rec.inputs:
                if t.requires_grad and t.grad is None:
                    t.grad = np.zeros_like(t.data)
    finally:
        tape.clear()


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------

ACTIVATIONS = ("relu", "sigmoid", "tanh")


def _sigmoid(x, out=None):
    """0.5 * (1 + tanh(0.5 * x)), into ``out`` when given: the tanh form saturates instead of overflowing exp()."""
    out = np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


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


# ---------------------------------------------------------------------------
# Affine layer
# ---------------------------------------------------------------------------


def linear(x, weight, bias) -> Tensor:
    """x @ W + b for a [B x F] tensor, W [F x C] and a length-C bias."""
    x, weight, bias = _as_tensor(x), _as_tensor(weight), _as_tensor(bias)
    if (x.data.ndim != 2 or weight.data.ndim != 2 or x.shape[1] != weight.shape[0]
            or bias.shape != (weight.shape[1],)):
        raise ShapeError(f"linear: got x {tuple(x.shape)}, weight {tuple(weight.shape)} "
                         f"and bias {tuple(bias.shape)}")
    xd, wd = x.data, weight.data
    return _make_result("linear", xd @ wd + bias.data[None, :], (x, weight, bias),
                        lambda g: (g @ wd.T, xd.T @ g, g.sum(axis=0)))


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


@functools.lru_cache(maxsize=64)
def _window_indices(padded_sp, out_sp, kernel_sp, stride):
    """Flat indices into the padded spatial block, shaped [n_windows, window_size].

    Cached per geometry (all arguments are tuples), so the array is read-only.
    """
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
    idx = np.ascontiguousarray(np.broadcast_to(idx, out_sp + kernel_sp).reshape(n_windows, window))
    idx.flags.writeable = False
    return idx


def conv_nd_batched(x, kernels, stride, padding, bias) -> Tensor:
    """Batched cross-correlation: [B, C_in, *sp] with [C_out, C_in, *k].

    Zero padding, per-output-channel bias, spatial rank 1 to 3.
    """
    x, kernels, bias = _as_tensor(x), _as_tensor(kernels), _as_tensor(bias)
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

    if bias.shape != (c_out,):
        raise ShapeError(f"bias must have shape ({c_out},), got {tuple(bias.shape)}")

    unpad = (slice(None), slice(None)) + tuple(slice(p, p + n) for p, n in zip(padding, spatial))
    if any(padding):
        padded = np.zeros((batch, c_in) + tuple(n + 2 * p for n, p in zip(spatial, padding)), dtype=x.dtype)
        padded[unpad] = x.data
    else:
        padded = x.data
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
        if not x.requires_grad:
            return (None, d_kernels, d_bias)
        d_pmat = g2 @ kmat  # [B*O, C_in*K]
        # col2im: [B, C_in, *O] slab of kernel offset k lands on k + s*o of each axis
        d_cols = np.moveaxis(d_pmat.reshape(batch, *out_sp, c_in, *kernel_sp), rank + 1, 1)
        d_padded = np.zeros((batch, c_in, *padded_sp), dtype=g.dtype)
        # last offset first: each position sums its windows in ascending order, like np.add.at
        for k in reversed(list(np.ndindex(*kernel_sp))):
            window = tuple(slice(k_i, k_i + s * (n - 1) + 1, s) for k_i, s, n in zip(k, stride, out_sp))
            d_padded[(slice(None), slice(None)) + window] += d_cols[(Ellipsis,) + k]
        d_x = np.ascontiguousarray(d_padded[unpad])
        return (d_x, d_kernels, d_bias)

    return _make_result("conv", out, (x, kernels, bias), _backward)


# ---------------------------------------------------------------------------
# Recurrent layers: one tape record per layer, both directions in one scan
# ---------------------------------------------------------------------------

# gate order of each cell: the order of its gates' column blocks in a fused W, U or b
RECURRENT_GATES = {
    "rnn": ("",),
    "gru": ("r", "z", "n"),
    "lstm": ("i", "f", "g", "o"),
}


def _scan_views(a):
    """Each direction of a [B, T, D, H] array as a [T, B, H] view in its scan-step order."""
    return [a[:, ::1 - 2 * d, d].transpose(1, 0, 2) for d in range(a.shape[2])]


def recurrent(x, w, u, b, cell: str) -> Tensor:
    """Scan a recurrent layer over a [B, T, F] sequence; returns [B, T, D*H].

    ``w`` [D, F, G*H], ``u`` [D, H, G*H] and ``b`` [D, G*H] hold the weights
    of D directions, each direction's G gates side by side in the order of
    ``RECURRENT_GATES[cell]``: gate k is columns k*H to (k+1)*H.  Direction 0
    scans first to last and direction 1 (D = 2) last to first, both from a
    zero state, together as one scan on a [D, B, H] state.  The outputs are
    in position order, direction d in columns d*H to (d+1)*H.  With sigmoid
    in its tanh form:

    * rnn:  h' = tanh(W x + U h + b)
    * gru:  r, z = sigmoid(W x + U h + b), n = tanh(W_n x + U_n (r*h) + b_n),
      h' = n + z*(h - n)
    * lstm: i, f, o = sigmoid(W x + U h + b), g = tanh(W_g x + U_g h + b_g),
      c' = f*c + i*g, h' = o*tanh(c')

    The input projection of all steps is one matmul and each step does one
    on the state (gru two: its candidate reads r*h).  The hand-written
    backward pass returns one gradient per input.  All pre-activations are
    checked for finiteness once, after the scan.

    The scan's buffers are time-major, [T, D, B, .] indexed by scan step s,
    and the pre-activations and gates are split into the column groups a
    step updates as one unit: the U h columns (all gates but the GRU
    candidate) and the GRU candidate.  So every block a step reads or writes
    is one contiguous array: the state ``hs[s]``, ``pre_h[s]`` and
    ``pre_n[s]``, ``gates_h[s]`` and ``gates_n[s]``, ``rh[s]`` and ``cs[s]``.
    Backward writes its pre-activation gradient direction-major, [D, T, B, .],
    the rows the whole-sequence matmuls for dW, dU, db and dx read.

    Only backward reads the gates, the GRU's r*h and the LSTM's cell states
    of past steps.  When the op is not recorded (under ``no_grad``, or no
    input requires grad) the scan keeps one step of gates and r*h and two of
    cell state, the one read and the one written; the pre-activations and
    states stay whole.
    """
    if cell not in RECURRENT_GATES:
        raise ConfigError(f"unknown recurrent cell {cell!r}; choose one of {tuple(RECURRENT_GATES)}")
    inputs = tuple(_as_tensor(t) for t in (x, w, u, b))
    x, (w, u, b) = inputs[0], (t.data for t in inputs[1:])
    n_dirs, hid = u.shape[:2] if u.ndim == 3 else (0, 0)
    features = x.shape[2] if x.data.ndim == 3 else 0
    width = len(RECURRENT_GATES[cell]) * hid
    if (n_dirs not in (1, 2) or x.data.ndim != 3 or x.shape[1] < 1 or hid < 1
            or (w.shape, u.shape, b.shape) != ((n_dirs, features, width), (n_dirs, hid, width), (n_dirs, width))):
        raise ShapeError(f"{cell}: needs a non-empty [B, T, F] input, W [D, F, G*H], U [D, H, G*H] and "
                         f"b [D, G*H] with D = 1 or 2, G = {len(RECURRENT_GATES[cell])} and H >= 1; got "
                         f"{tuple(x.shape)}, {w.shape}, {u.shape} and {b.shape}")
    batch, steps, _ = x.shape
    dtype = np.result_type(x.data, w, u, b)
    n_h = 2 * hid if cell == "gru" else width  # gate columns fed by U h; the rest, gru's candidate, by U_n (r*h)
    xt = x.data.transpose(1, 0, 2)
    seq = np.stack([xt, xt[::-1]][:n_dirs]).astype(dtype, copy=False).reshape(n_dirs, -1, features)
    proj = (seq @ w).reshape(n_dirs, steps, batch, width).transpose(1, 0, 2, 3)  # W x; U h and b are added per step
    pre_h, pre_n = np.ascontiguousarray(proj[..., :n_h]), np.ascontiguousarray(proj[..., n_h:])
    del proj
    # unrecorded, the gates, rh and cs keep only the steps in flight, indexed modulo their extent
    kept = steps if _tracked(inputs) else 1
    gates_h = np.empty((kept, n_dirs, batch, n_h), dtype)  # gru and lstm
    gates_n = np.empty((kept, n_dirs, batch, width - n_h), dtype)  # gru only
    rh = np.empty((kept, n_dirs, batch, hid), dtype)  # gru only: r*h, what U_n reads
    hs = np.zeros((steps + 1, n_dirs, batch, hid), dtype)
    cs = np.zeros((kept + 1, n_dirs, batch, hid), dtype)  # lstm only
    u_h, u_n = np.ascontiguousarray(u[..., :n_h]), np.ascontiguousarray(u[..., n_h:])
    b_h, b_n = np.ascontiguousarray(b[:, None, :n_h]), np.ascontiguousarray(b[:, None, n_h:])
    for s in range(steps):
        slot, c_in, c_out = s % kept, s % (kept + 1), (s + 1) % (kept + 1)
        h, a_h, gates = hs[s], pre_h[s], gates_h[slot]
        a_h += h @ u_h
        a_h += b_h
        if cell == "rnn":
            np.tanh(a_h, out=hs[s + 1])
        elif cell == "gru":
            _sigmoid(a_h, out=gates)
            r, z, n, a_n = gates[..., :hid], gates[..., hid:], gates_n[slot], pre_n[s]
            np.multiply(r, h, out=rh[slot])
            a_n += rh[slot] @ u_n
            a_n += b_n
            np.tanh(a_n, out=n)
            h_next = np.subtract(h, n, out=hs[s + 1])
            h_next *= z
            h_next += n
        else:
            _sigmoid(a_h, out=gates)
            i, f, g, o = (gates[..., k * hid:(k + 1) * hid] for k in range(4))
            np.tanh(a_h[..., 2 * hid:3 * hid], out=g)
            c_next = np.multiply(f, cs[c_in], out=cs[c_out])
            c_next += i * g
            np.multiply(o, np.tanh(c_next), out=hs[s + 1])
    if not (np.isfinite(pre_h).all() and np.isfinite(pre_n).all()):
        raise NumericError(f"{cell} produced non-finite values")

    def _backward(grad):
        d_out = np.empty((steps, n_dirs, batch, hid), dtype)
        for d, view in enumerate(_scan_views(grad.reshape(batch, steps, n_dirs, hid))):
            d_out[:, d] = view
        d_pre = np.empty((n_dirs, steps, batch, width), dtype)  # direction-major: the matmuls' rows
        d_h, d_n = d_pre[..., :n_h], d_pre[..., n_h:]
        h_in = hs[:-1]
        # the local derivatives that do not depend on the incoming gradient, all steps at once
        if cell == "rnn":
            fac = 1.0 - hs[1:] * hs[1:]
        elif cell == "gru":
            r, z, n = gates_h[..., :hid], gates_h[..., hid:], gates_n
            # times dL/d(r*h), dL/dh', dL/dh'
            fac_r, fac_z, fac_n = h_in * r * (1.0 - r), (h_in - n) * z * (1.0 - z), (1.0 - z) * (1.0 - n * n)
        else:
            i, f, g, o = (gates_h[..., k * hid:(k + 1) * hid] for k in range(4))
            tanh_c = np.tanh(cs[1:])
            # times dL/dc for i, f and g, times dL/dh' for o
            fac = np.stack([g * i * (1.0 - i), cs[:-1] * f * (1.0 - f), i * (1.0 - g * g),
                            tanh_c * o * (1.0 - o)], axis=3)
            o_dtanh = o * (1.0 - tanh_c * tanh_c)
        carry = np.zeros((n_dirs, batch, hid), dtype)  # dL/dh from later steps
        dc = np.zeros((n_dirs, batch, hid), dtype)  # dL/dc from later steps (lstm)
        for s in range(steps - 1, -1, -1):
            dh, da = d_out[s] + carry, d_h[:, s]
            if cell == "rnn":
                np.multiply(dh, fac[s], out=da)
            elif cell == "gru":
                np.multiply(dh, fac_n[s], out=d_n[:, s])
                d_rh = d_n[:, s] @ u_n.transpose(0, 2, 1)
                np.multiply(d_rh, fac_r[s], out=da[..., :hid])
                np.multiply(dh, fac_z[s], out=da[..., hid:])
            else:
                dc += dh * o_dtanh[s]
                da_gates = da.reshape(n_dirs, batch, 4, hid)
                np.multiply(dc[..., None, :], fac[s, ..., :3, :], out=da_gates[..., :3, :])
                np.multiply(dh, fac[s, ..., 3, :], out=da_gates[..., 3, :])
                dc *= f[s]
            carry = da @ u_h.transpose(0, 2, 1)
            if cell == "gru":
                carry += dh * z[s] + d_rh * r[s]
        d_flat = d_pre.reshape(n_dirs, steps * batch, width)
        d_u = h_in.transpose(1, 0, 2, 3).reshape(n_dirs, -1, hid).transpose(0, 2, 1) @ d_flat[..., :n_h]
        if cell == "gru":
            d_u_n = rh.transpose(1, 0, 2, 3).reshape(n_dirs, -1, hid).transpose(0, 2, 1) @ d_flat[..., n_h:]
            d_u = np.concatenate([d_u, d_u_n], axis=2)
        d_x = None
        if x.requires_grad:
            d_seq = (d_flat @ w.transpose(0, 2, 1)).reshape(n_dirs, steps, batch, -1)
            d_x = d_seq[0] if n_dirs == 1 else d_seq[0] + d_seq[1, ::-1]
            d_x = np.ascontiguousarray(d_x.transpose(1, 0, 2))
        return (d_x, seq.transpose(0, 2, 1) @ d_flat, d_u, d_flat.sum(axis=1))

    out = np.empty((batch, steps, n_dirs, hid), dtype)
    for d, view in enumerate(_scan_views(out)):
        view[...] = hs[1:, d]
    return _make_result(cell, out.reshape(batch, steps, n_dirs * hid), inputs, _backward)


def final_states(x, directions: int) -> Tensor:
    """[B, D*H] head of a [B, T, D*H] ``recurrent`` output: each direction's final state.

    Direction 0 ends at the last position; direction 1, which scans from
    the last position to the first, ends at the first.
    """
    x = _as_tensor(x)
    if directions not in (1, 2) or x.data.ndim != 3 or x.shape[1] < 1 or x.shape[2] % directions:
        raise ShapeError(f"final_states needs a non-empty [B, T, D*H] sequence and D = 1 or 2, "
                         f"got {tuple(x.shape)} and D = {directions}")
    cols = np.arange(x.shape[2])
    rows = np.where(cols < x.shape[2] // directions, x.shape[1] - 1, 0)  # each column's final position

    def _backward(g):
        full = np.zeros(x.shape, dtype=g.dtype)
        full[:, rows, cols] = g
        return (full,)

    return _make_result("final_states", x.data[:, rows, cols], (x,), _backward)


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
