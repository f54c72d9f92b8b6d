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
``recurrent``, ``cnn_to_rnn_reshape``, ``final_states``) and the loss: a
layer is one tape record, its activation applied inside it, and there is no
general elementwise algebra.  Convolution is cross-correlation (no kernel
flip).  A recorded ``recurrent`` scan takes its whole-sequence buffers from
a per-thread pool beside the tape and its backward gives them back, so a
fixed-shape training step reuses the last step's buffers.  The conv and
recurrent bias gradients sum their rows through ``_sum_rows``, in row order,
with the bytes of ``sum(axis=-2)``.  Conv backward writes an activation's
derivative into its GEMM rows and gathers col2im from a cached index.  Under
``no_grad(block_rows=n)`` the ops take each BLAS product of a batch of k*n
samples as k products of n samples' rows, so one forward over k batches
gives every sample the bytes of a forward over its own batch.
"""

from __future__ import annotations

import functools
import math
import threading

import numpy as np

from .errors import ConfigError, DeepSelfError, NumericError, ShapeError, check_integer, check_labels, check_sequence

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
    __slots__ = ("op", "inputs", "output", "backward_fn", "stage")

    def __init__(self, op, inputs, output, backward_fn):
        self.op = op
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn
        self.stage = None  # (index, layer kind) of the model stage that ran the op, if any


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
    """Context manager that suspends tape recording.

    With ``block_rows``, the ops inside also take each BLAS product of a
    batch that is a whole multiple of ``block_rows`` samples as one product
    per block of ``block_rows`` samples (see ``_matmul``), so a forward over
    k batches gives each sample the bytes a forward over its own batch
    gives.  Without it, the enclosing block row count stays in force.
    """

    def __init__(self, block_rows: int | None = None):
        self.block_rows = None if block_rows is None else check_integer("block_rows", block_rows, 1)

    def __enter__(self):
        self._prev = _recording(), getattr(_state, "block_rows", None)
        _state.grad_enabled = False
        if self.block_rows is not None:
            _state.block_rows = self.block_rows
        return self

    def __exit__(self, exc_type, exc, tb):
        _state.grad_enabled, _state.block_rows = self._prev
        return False


def _row_blocks(batch: int) -> int:
    """How many blocks an unrecorded op splits a ``batch`` of samples into: 1 unless a
    ``no_grad(block_rows)`` is in force and ``batch`` is a whole multiple of it."""
    rows = getattr(_state, "block_rows", None)
    return batch // rows if rows and not batch % rows else 1


def _matmul(a, b, blocks: int = 1, out=None):
    """a @ b for a [..., M, K] stack, as ``blocks`` products of M / blocks consecutive rows.

    A stacked np.matmul calls one GEMM per matrix of the stack, so each
    block's bytes are those of its rows' product alone, whatever BLAS kernel
    runs: one GEMM over all M rows may round a row differently for another
    row count, and on some kernels for another row position.  ``b`` is one
    [K, N] matrix, or a stack that broadcasts against ``a``'s leading axes;
    ``out`` is a C-contiguous [..., M, N] array.
    """
    if blocks == 1:
        return np.matmul(a, b, out=out)
    *lead, rows, inner = a.shape
    shape = (*lead, blocks, rows // blocks)
    prod = np.matmul(a.reshape(*shape, inner), b[..., None, :, :],
                     out=None if out is None else out.reshape(*shape, b.shape[-1]))
    return prod.reshape(*lead, rows, b.shape[-1])


def _sum_rows(a):
    """``a.sum(axis=-2)``, bit for bit and as a new array: a bias gradient from gradient rows.

    On a C-contiguous array of at least 2 columns, ``sum`` and ``einsum``
    both add each column's rows one at a time in row order, but ``sum``
    calls its inner loop once per row and ``einsum`` runs once over all of
    them.  With one column, or a layout that is not row-major, ``sum``
    adds pairwise and ``einsum`` in its own unrolled order, so those take
    ``sum``.
    """
    if a.flags.c_contiguous and a.shape[-1] >= 2:
        return np.einsum("...ij->...j", a)
    return a.sum(axis=-2)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _tracked(inputs) -> bool:
    """Whether an op on ``inputs`` is recorded: recording is on and some input requires grad."""
    return _recording() and any(t.requires_grad for t in inputs)


def _make_result(op, arr, inputs, backward_fn, activation=None, grad_out=None):
    """Wrap an op result, recording it on the tape when gradients are live.

    With an ``activation`` kind, ``arr`` is the op's pre-activation: it is
    activated in place, and ``backward_fn`` receives its gradient, written
    into ``grad_out()`` when given: an empty array of ``arr``'s shape, which
    may be a view into the layout ``backward_fn`` reads, saving it a copy.
    """
    out = Tensor.__new__(Tensor)
    arr = np.ascontiguousarray(arr)
    if not np.isfinite(arr).all():  # an activation of finite values is finite
        raise NumericError(f"{op} produced non-finite values")
    if activation is not None:
        d_pre, layer_backward = _activate(activation, arr), backward_fn
        backward_fn = lambda g: layer_backward(d_pre(g, None if grad_out is None else grad_out()))
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
                    where = "" if rec.stage is None else " in stage %d (%s)" % rec.stage
                    raise NumericError(f"non-finite gradient in backward of {rec.op}{where}")
                # out of place: a grad may be a view of another tensor's grad (cnn_to_rnn_reshape)
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


def _activate(kind: str, a):
    """Apply ``kind`` to ``a`` in place; returns ``d_pre(g, out=None)``, the map from the
    gradient at ``a`` to its pre-activation's, g * f'(a), written into ``out`` when given."""
    if kind == "relu":
        np.maximum(a, 0, out=a)
        return lambda g, out=None: np.multiply(g, a > 0, out=out)
    if kind == "sigmoid":
        _sigmoid(a, out=a)
        return lambda g, out=None: np.multiply(np.multiply(g, a, out=out), 1.0 - a, out=out)
    if kind == "tanh":
        np.tanh(a, out=a)
        return lambda g, out=None: np.multiply(g, 1.0 - a * a, out=out)
    raise ConfigError(f"unknown activation {kind!r}; choose one of {ACTIVATIONS}")


# ---------------------------------------------------------------------------
# Shape manipulation
# ---------------------------------------------------------------------------


def _sequence_shape(grid) -> tuple | None:
    """[C, T] -> (T, C), [C, F, T] -> (T, C*F): time stays the sequence axis; None for any other rank."""
    return (grid[-1], math.prod(grid[:-1])) if len(grid) in (2, 3) else None


def cnn_to_rnn_reshape(x) -> Tensor:
    """[B, C, T] -> [B, T, C] or [B, C, F, T] -> [B, T, C*F] (``_sequence_shape``): time stays the sequence axis."""
    x = _as_tensor(x)
    seq = _sequence_shape(x.shape[1:])
    if seq is None:
        raise ShapeError(f"cnn_to_rnn_reshape needs a [B,C,T] or [B,C,F,T] tensor, got {tuple(x.shape)}")
    moved = np.moveaxis(x.data, -1, 1)
    out = moved.reshape(x.shape[0], *seq)
    return _make_result("cnn_to_rnn_reshape", out, (x,), lambda g: (np.moveaxis(g.reshape(moved.shape), 1, -1),))


# ---------------------------------------------------------------------------
# Affine layer
# ---------------------------------------------------------------------------


def linear(x, weight, bias, activation=None) -> Tensor:
    """activation(x @ W + b) for x [B, *F] read as [B, prod(F)], W [prod(F), C] and a length-C bias.

    ``activation`` is one of ``ACTIVATIONS``, or None for the affine map alone.
    """
    x, weight, bias = _as_tensor(x), _as_tensor(weight), _as_tensor(bias)
    if (x.data.ndim < 2 or weight.data.ndim != 2 or math.prod(x.shape[1:]) != weight.shape[0]
            or bias.shape != (weight.shape[1],)):
        raise ShapeError(f"linear: got x {tuple(x.shape)}, weight {tuple(weight.shape)} "
                         f"and bias {tuple(bias.shape)}")
    xd, wd = x.data.reshape(x.shape[0], weight.shape[0]), weight.data
    affine = _matmul(xd, wd, _row_blocks(x.shape[0])) + bias.data[None, :]
    return _make_result("linear", affine, (x, weight, bias),
                        lambda g: ((g @ wd.T).reshape(x.shape), xd.T @ g, g.sum(axis=0)), activation)


# ---------------------------------------------------------------------------
# Convolution (cross-correlation) over 1, 2, or 3 spatial axes
# ---------------------------------------------------------------------------


def _per_axis(value, rank, name) -> tuple[int, ...]:
    """``value`` as ``rank`` ints; a tuple of ``rank`` exact ints (as ``models.Conv`` keeps) returns as is."""
    if type(value) is tuple and len(value) == rank and all([type(v) is int for v in value]):
        return value
    out = (value,) * rank if np.isscalar(value) else check_sequence(name, value)
    if len(out) != rank:
        raise ConfigError(f"{name} needs one entry per spatial axis (rank {rank}), got {out}")
    return tuple(check_integer(name, v) for v in out)


def infer_conv_output_size(in_extent: int, kernel: int, stride: int, padding: int,
                           axis: int | None = None) -> int:
    """floor((in + 2*padding - kernel)/stride) + 1, rejected when below 1.

    ``axis`` only names the spatial axis in the error message.
    """
    in_extent, kernel, stride, padding = (check_integer(name, value) for name, value in (
        ("conv input extent", in_extent), ("kernel", kernel), ("stride", stride), ("padding", padding)))
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
def _conv_geometry(c_in, spatial, kernel_sp, stride, padding):
    """``(out_sp, padded_sp, unpad, idx, inv)`` of one conv geometry, for any batch size.

    Keyed only on validated ints (``_per_axis``): ``(True,)`` equals ``(1,)``.
    ``unpad`` selects the input in the padded [B, C_in, *padded_sp] array.
    ``idx`` (read-only) takes im2col's [B, O * C_in * K] values, patch order
    [O, C_in, K], from the padded batch read as [B, C_in * prod(padded_sp)].
    ``inv`` (read-only, [M, C_in * prod(spatial)]) is col2im's gather: row r
    holds, for every unpadded input position, the patch entry of the r-th of
    its M = prod(ceil(k / s)) possible windows in ascending window order, or
    O * C_in * K, the zero col2im appends, where that window does not exist.
    Its dtype is the smallest unsigned int that holds O * C_in * K.  Both
    indices are in range, so their takes use mode "wrap", which only skips
    the bounds check.
    """
    out_sp = tuple(infer_conv_output_size(*axis_geometry, axis=axis)
                   for axis, axis_geometry in enumerate(zip(spatial, kernel_sp, stride, padding)))
    padded_sp = tuple(n + 2 * p for n, p in zip(spatial, padding))
    unpad = (slice(None), slice(None)) + tuple(slice(p, p + n) for p, n in zip(padding, spatial))
    steps = np.reshape(stride, (-1, 1, 1))
    starts = np.indices(out_sp).reshape(len(out_sp), -1, 1) * steps
    offsets = np.indices(kernel_sp).reshape(len(kernel_sp), 1, -1)
    win = np.ravel_multi_index(tuple(starts + offsets), padded_sp)  # [O, K]
    idx = (win[:, None, :] + np.arange(c_in, dtype=np.int64)[None, :, None] * math.prod(padded_sp)).ravel()
    # a position's windows have distinct k // s per axis, descending as the window ascends
    overlap = tuple(-(-k // s) for k, s in zip(kernel_sp, stride))
    rank = np.ravel_multi_index(tuple(np.reshape(overlap, (-1, 1, 1)) - 1 - offsets // steps), overlap)  # [1, K]
    inv = np.full((math.prod(overlap), c_in, *padded_sp), idx.size)
    inv.reshape(len(inv), -1)[rank, idx.reshape(-1, rank.size)] = np.arange(idx.size).reshape(-1, rank.size)
    inv = inv[unpad].reshape(len(inv), -1).astype(np.min_scalar_type(idx.size))
    idx.flags.writeable = inv.flags.writeable = False
    return out_sp, padded_sp, unpad, idx, inv


def conv_nd_batched(x, kernels, stride, padding, bias, activation=None) -> Tensor:
    """Batched cross-correlation: [B, C_in, *sp] with [C_out, C_in, *k].

    Zero padding, per-output-channel bias, spatial rank 1 to 3, then
    ``activation`` (one of ``ACTIVATIONS``, or None for none).  Backward
    sums the bias gradient over the [B*O, C_out] gradient rows in row order
    (``_sum_rows``); above batch 1 an activation's derivative is written
    into those rows directly.  col2im is 0.0 + take(rank 0) + take(rank 1)
    + ... over ``_conv_geometry``'s inverse index: the ``np.add.at``
    scatter's sums, so its bytes.
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
    kernel_sp = kernels.shape[2:]
    stride, padding = _per_axis(stride, rank, "stride"), _per_axis(padding, rank, "padding")
    out_sp, padded_sp, unpad, idx, inv = _conv_geometry(c_in, x.shape[2:], kernel_sp, stride, padding)

    if bias.shape != (c_out,):
        raise ShapeError(f"bias must have shape ({c_out},), got {tuple(bias.shape)}")

    if any(padding):
        padded = np.zeros((batch, c_in, *padded_sp), dtype=x.dtype)
        padded[unpad] = x.data
    else:
        padded = x.data
    n_win, win_size = math.prod(out_sp), math.prod(kernel_sp)
    pmat = padded.reshape(batch, -1).take(idx, axis=1, mode="wrap").reshape(batch * n_win, c_in * win_size)
    kmat = kernels.data.reshape(c_out, c_in * win_size)
    prod = _matmul(pmat, kmat.T, _row_blocks(batch))  # [B*O, C_out], a product per block of samples
    prod = prod.reshape(batch, n_win, c_out).transpose(0, 2, 1)  # [B, C_out, O] view
    out = np.empty((batch, c_out, *out_sp), dtype=np.result_type(prod, bias.data))
    np.add(prod, bias.data[:, None], out=out.reshape(batch, c_out, n_win))

    def _backward(g):
        g2 = g.reshape(batch, c_out, n_win).transpose(0, 2, 1).reshape(batch * n_win, c_out)
        d_kernels = (g2.T @ pmat).reshape(kernels.shape)
        d_bias = _sum_rows(g2)  # at batch 1, g2 is a column-major view
        if not x.requires_grad:
            return (None, d_kernels, d_bias)
        d_pmat = np.empty((batch, idx.size + 1), np.result_type(g2, kmat))  # [B, O*C_in*K + 1]
        d_pmat[:, -1] = 0.0
        # 0.0 + entry: no -0.0 is left to start a sum, and from +0.0 on, -0.0 adds as +0.0
        np.add((g2 @ kmat).reshape(batch, -1), 0.0, out=d_pmat[:, :-1])
        d_x = d_pmat.take(inv[0], axis=1, mode="wrap")
        for entries in inv[1:]:
            d_x += d_pmat.take(entries, axis=1, mode="wrap")
        return (d_x.reshape(x.shape), d_kernels, d_bias)

    # at batch 1 the rows are a view of g already, one that _sum_rows adds pairwise
    rows = lambda: np.empty((batch, n_win, c_out), out.dtype).transpose(0, 2, 1).reshape(out.shape)
    return _make_result("conv", out, (x, kernels, bias), _backward, activation, None if batch == 1 else rows)


# ---------------------------------------------------------------------------
# Recurrent layers: one tape record per layer, both directions in one scan
# ---------------------------------------------------------------------------

# gate order of each cell: the order of its gates' column blocks in a fused W, U or b
RECURRENT_GATES = {
    "rnn": ("",),
    "gru": ("r", "z", "n"),
    "lstm": ("i", "f", "g", "o"),
}


# bytes of free recorded-scan buffers a thread keeps; past it, the oldest are dropped
SCAN_POOL_BYTES = 32 << 20


def _scan_buffer(shape, dtype, pooled):
    """An uninitialised array: with ``pooled``, the newest free one of that shape and dtype in this thread's pool."""
    pool = _state.__dict__.setdefault("scan_pool", []) if pooled else []  # oldest first
    match = [i for i, a in enumerate(pool) if a.shape == shape and a.dtype == dtype]
    return pool.pop(match[-1]) if match else np.empty(shape, dtype)


def _free_scan_buffers(arrays):
    """Put ``arrays`` in this thread's pool, then drop its oldest past ``SCAN_POOL_BYTES``."""
    pool = _state.__dict__.setdefault("scan_pool", [])
    pool += arrays
    while sum(a.nbytes for a in pool) > SCAN_POOL_BYTES:
        pool.pop(0)


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
    in its tanh form, 0.5 * (1 + tanh(0.5 * a)):

    * rnn:  h' = tanh(W x + U h + b)
    * gru:  r, z = sigmoid(W x + U h + b), n = tanh(W_n x + U_n (r*h) + b_n),
      h' = n + z*(h - n)
    * lstm: i, f, o = sigmoid(W x + U h + b), g = tanh(W_g x + U_g h + b_g),
      c' = f*c + i*g, h' = o*tanh(c')

    The input projection of all steps is one matmul and each step does one
    on the state (gru two: its candidate reads r*h).  The biases are
    repeated once per scan into contiguous [D, B, .] arrays, so each step's
    bias add is one pass, and backward sums db over the [T*B] rows of each
    direction in row order (``_sum_rows``).  The GRU's forward halves the r
    and z columns of W, U and b once, so a step's sigmoid is tanh, +1, *0.5
    (halving is exact unless a value is subnormal); the hand-written backward
    reads the unhalved weights and returns one gradient per input.  All
    pre-activations (the GRU's r and z halved) are checked once for finiteness,
    so a GRU gate saturates to 1.0 on an r or z pre-activation below twice the
    dtype's maximum where rnn and lstm raise NumericError.

    The scan's buffers are time-major, [T, D, B, .] indexed by scan step s,
    and the pre-activations and gates are split into the column groups a
    step updates as one unit: the U h columns (all gates but the GRU
    candidate) and the GRU candidate.  So every block a step reads or writes
    is one contiguous array: the state ``hs[s]``, ``pre_h[s]`` and
    ``pre_n[s]``, ``gates_h[s]`` and ``gates_n[s]``, ``rh[s]`` and ``cs[s]``.
    Backward writes its pre-activation gradient direction-major, [D, T, B, .],
    the rows the whole-sequence matmuls for dW, dU, db and dx read.

    Under ``no_grad(block_rows=n)`` a batch of B = K*n samples scans as K
    blocks of n side by side, with the bytes each block's own scan gives:
    W x is one product per direction and block, over the block's (t, b)
    rows, and a step's U h and U_n (r*h) one per direction and block,
    through a [D, K, n, H] view of the [D, B, H] state.

    Only backward reads the gates, the GRU's r*h and the LSTM's cell states
    of past steps.  When the op is not recorded (under ``no_grad``, or no
    input requires grad) the scan keeps one step of gates and r*h and two of
    cell state, the one read and the one written; the pre-activations and
    states stay whole.

    A recorded scan takes these buffers, ``seq``, W x and backward's
    ``d_out``, ``d_pre``, local derivatives and ``d_seq`` from this thread's
    pool (at most ``SCAN_POOL_BYTES``) when it holds their shape and dtype,
    and backward gives them back once its gradients, none of which aliases
    them, are computed.  A record never replayed leaves them to the garbage
    collector; an unrecorded scan allocates its own.
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
    recorded = _tracked(inputs)
    blocks = _row_blocks(batch)  # 1 when recorded: block rows are set only under no_grad
    rows = batch // blocks
    held = []  # the scan's whole-sequence arrays: recorded, they come from the pool and backward gives them back

    def buffer(shape):
        held.append(_scan_buffer(shape, dtype, recorded))
        return held[-1]

    xt = x.data.reshape(blocks, rows, steps, features).transpose(0, 2, 1, 3)  # each block time-major
    seq = buffer((n_dirs, blocks * steps, rows, features))
    np.stack([xt, xt[:, ::-1]][:n_dirs], out=seq.reshape(n_dirs, blocks, steps, rows, features))
    seq = seq.reshape(n_dirs, -1, features)
    u_h, u_n = np.ascontiguousarray(u[..., :n_h]), np.ascontiguousarray(u[..., n_h:])
    # each step adds the biases as one contiguous [D, B, .] pass, not one per sample
    b_h, b_n = np.repeat(b[:, None, :n_h], batch, axis=1), np.repeat(b[:, None, n_h:], batch, axis=1)
    w_x, u_x = w, u_h  # the weights the forward reads; backward reads w and u_h
    if cell == "gru":  # r and z's columns halved: each step's sigmoid is then 0.5 * (1 + tanh(a))
        w_x, u_x, b_h = np.concatenate([w[..., :n_h] * 0.5, w[..., n_h:]], axis=-1), u_h * 0.5, b_h * 0.5
    # W x over each block's (t, b) rows; U h and b are added per step
    flat = _matmul(seq, w_x, blocks, out=_scan_buffer((n_dirs, steps * batch, width), dtype, recorded))
    proj = flat.reshape(n_dirs, blocks, steps, rows, width).transpose(2, 0, 1, 3, 4)  # [T, D, K, n, G*H] view
    # unrecorded, the gates, rh and cs keep only the steps in flight, indexed modulo their extent
    kept = steps if recorded else 1
    pre_h, pre_n, gates_h, gates_n, rh, hs, cs = (buffer(shape) for shape in (
        (steps, n_dirs, batch, n_h), (steps, n_dirs, batch, width - n_h),
        (kept, n_dirs, batch, n_h * (cell != "rnn")),  # gates_h: gru and lstm
        (kept, n_dirs, batch, width - n_h),  # gates_n: gru only
        (kept, n_dirs, batch, hid * (cell == "gru")),  # rh: gru only, r*h, what U_n reads
        (steps + 1, n_dirs, batch, hid), (kept + 1, n_dirs, batch, hid * (cell == "lstm"))))  # hs; cs: lstm only
    pre_h.reshape(proj.shape[:-1] + (n_h,))[...] = proj[..., :n_h]  # through [T, D, K, n, .] views
    pre_n.reshape(proj.shape[:-1] + (width - n_h,))[...] = proj[..., n_h:]
    if recorded:
        _free_scan_buffers([flat])  # W x is spent
    del proj, flat
    hs[0], cs[0] = 0, 0  # every other element is written before it is read
    # a step's U h and U_n (r*h), per direction and block through a [D, K, n, H] view of the state
    step_matmul = np.matmul if blocks == 1 else functools.partial(_matmul, blocks=blocks)
    for s in range(steps):
        slot, c_in, c_out = s % kept, s % (kept + 1), (s + 1) % (kept + 1)
        h, a_h, gates = hs[s], pre_h[s], gates_h[slot]
        a_h += step_matmul(h, u_x)
        a_h += b_h
        if cell == "rnn":
            np.tanh(a_h, out=hs[s + 1])
        elif cell == "gru":
            np.tanh(a_h, out=gates)
            gates += 1.0
            gates *= 0.5
            r, z, n, a_n = gates[..., :hid], gates[..., hid:], gates_n[slot], pre_n[s]
            np.multiply(r, h, out=rh[slot])
            a_n += step_matmul(rh[slot], u_n)
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
        d_out = buffer((steps, n_dirs, batch, hid))
        for d, view in enumerate(_scan_views(grad.reshape(batch, steps, n_dirs, hid))):
            d_out[:, d] = view
        # direction-major, the rows of the matmuls; the shape of W x's buffer, which it takes again
        d_pre = buffer((n_dirs, steps * batch, width)).reshape(n_dirs, steps, batch, width)
        d_h, d_n = d_pre[..., :n_h], d_pre[..., n_h:]
        h_in = hs[:-1]
        # the local derivatives that do not depend on the incoming gradient, all steps at once,
        # each operand computed into a pooled buffer
        if cell == "rnn":
            fac = np.multiply(hs[1:], hs[1:], out=buffer(h_in.shape))
            np.subtract(1.0, fac, out=fac)  # 1 - h'^2
        elif cell == "gru":
            r, z, n = gates_h[..., :hid], gates_h[..., hid:], gates_n
            # times dL/d(r*h), dL/dh', dL/dh': h*r*(1-r), (h-n)*z*(1-z) and (1-z)*(1-n^2)
            fac_r, fac_z, fac_n, tmp = (buffer(h_in.shape) for _ in range(4))
            np.multiply(h_in, r, out=fac_r)
            fac_r *= np.subtract(1.0, r, out=tmp)
            np.subtract(h_in, n, out=fac_z)
            fac_z *= z
            fac_z *= np.subtract(1.0, z, out=fac_n)
            fac_n *= np.subtract(1.0, np.multiply(n, n, out=tmp), out=tmp)
        else:
            i, f, g, o = (gates_h[..., k * hid:(k + 1) * hid] for k in range(4))
            tanh_c = np.tanh(cs[1:], out=buffer(h_in.shape))
            tmp = buffer(h_in.shape)
            # times dL/dc for i, f and g, times dL/dh' for o:
            # g*i*(1-i), c*f*(1-f), i*(1-g^2) and tanh(c')*o*(1-o)
            fac = buffer((steps, n_dirs, batch, 4, hid))
            fac_i, fac_f, fac_g, fac_o = (fac[..., k, :] for k in range(4))
            np.multiply(g, i, out=fac_i)
            fac_i *= np.subtract(1.0, i, out=tmp)
            np.multiply(cs[:-1], f, out=fac_f)
            fac_f *= np.subtract(1.0, f, out=tmp)
            np.multiply(i, np.subtract(1.0, np.multiply(g, g, out=tmp), out=tmp), out=fac_g)
            np.multiply(tanh_c, o, out=fac_o)
            fac_o *= np.subtract(1.0, o, out=tmp)
            o_dtanh = np.subtract(1.0, np.multiply(tanh_c, tanh_c, out=tmp), out=buffer(h_in.shape))
            o_dtanh *= o  # o*(1 - tanh(c')^2)
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
            d_seq = buffer((n_dirs, steps, batch, features))
            np.matmul(d_flat, w.transpose(0, 2, 1), out=d_seq.reshape(n_dirs, -1, features))
            d_x = d_seq[0] if n_dirs == 1 else np.add(d_seq[0], d_seq[1, ::-1], out=d_seq[0])
            d_x = d_x.transpose(1, 0, 2).copy()
        grads = (d_x, seq.transpose(0, 2, 1) @ d_flat, d_u, _sum_rows(d_flat))
        _free_scan_buffers(held)
        return grads

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
    targets = np.asarray(targets)
    if targets.shape != (batch,):
        raise ShapeError(f"targets must have shape ({batch},), got {tuple(targets.shape)}")
    targets = check_labels("target", targets, n_classes)

    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    exps = np.exp(shifted)
    total = exps.sum(axis=1, keepdims=True)
    probs = exps / total
    log_probs = shifted - np.log(total)
    rows = np.arange(batch)
    # add.reduce / batch: the sum and quotient ndarray.mean computes, without its Python wrapper
    loss_val = np.asarray(-(np.add.reduce(log_probs[rows, targets]) / batch), dtype=logits.dtype)

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
