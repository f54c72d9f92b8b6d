"""The GRU scan of ``tensor.recurrent`` in its earlier form, kept as a test oracle.

Each step here takes the r and z gates' sigmoid as ``tensor._sigmoid`` does,
0.5 * (1 + tanh(0.5 * a)), on the unhalved pre-activation a.
``tensor.recurrent`` instead halves the r and z columns of W, U and b once
per scan and runs tanh, +1 and *0.5 on the halved pre-activation.  Scaling
by 0.5 is exact, so both give the same bytes, except where a product, a sum
or a halved weight is subnormal: halving one rounds away its lowest bit.
The tests therefore draw normal-range inputs.

The forward and backward below are the scan's float operations at one row
block (``no_grad()`` without ``block_rows``, or a recorded scan), without
its buffer pool or its unrecorded one-step gate buffers, neither of which
changes a byte.
"""

import numpy as np

from deepself.tensor import _sum_rows


def gru_scan(x, w, u, b):
    """The [B, T, D*H] output of a GRU scan of ``x`` [B, T, F] and its backward.

    ``w`` [D, F, 3H], ``u`` [D, H, 3H] and ``b`` [D, 3H] as in
    ``tensor.recurrent``.  Returns ``(out, backward)``, with ``backward(g)``
    the gradients (d_x, d_w, d_u, d_b) for an output gradient ``g``.
    """
    batch, steps, features = x.shape
    n_dirs, hid = u.shape[:2]
    n_h, width, dtype = 2 * hid, 3 * hid, np.result_type(x, w, u, b)
    xt = x.transpose(1, 0, 2)
    seq = np.stack([xt, xt[::-1]][:n_dirs]).reshape(n_dirs, -1, features)
    proj = np.matmul(seq, w).reshape(n_dirs, steps, batch, width).transpose(1, 0, 2, 3)
    pre_h, pre_n = proj[..., :n_h].copy(), proj[..., n_h:].copy()
    gates_h = np.empty((steps, n_dirs, batch, n_h), dtype)
    gates_n, rh = (np.empty((steps, n_dirs, batch, hid), dtype) for _ in range(2))
    hs = np.zeros((steps + 1, n_dirs, batch, hid), dtype)
    u_h, u_n = np.ascontiguousarray(u[..., :n_h]), np.ascontiguousarray(u[..., n_h:])
    b_h, b_n = np.repeat(b[:, None, :n_h], batch, axis=1), np.repeat(b[:, None, n_h:], batch, axis=1)
    for s in range(steps):
        h, a_h, a_n, n = hs[s], pre_h[s], pre_n[s], gates_n[s]
        a_h += np.matmul(h, u_h)
        a_h += b_h
        gates = np.multiply(a_h, 0.5, out=gates_h[s])  # _sigmoid: 0.5 * (1 + tanh(0.5 * a))
        np.tanh(gates, out=gates)
        gates += 1.0
        gates *= 0.5
        r, z = gates_h[s, ..., :hid], gates_h[s, ..., hid:]
        np.multiply(r, h, out=rh[s])
        a_n += np.matmul(rh[s], u_n)
        a_n += b_n
        np.tanh(a_n, out=n)
        h_next = np.subtract(h, n, out=hs[s + 1])
        h_next *= z
        h_next += n
    out = np.empty((batch, steps, n_dirs, hid), dtype)
    for d in range(n_dirs):
        out[:, ::1 - 2 * d, d] = hs[1:, d].transpose(1, 0, 2)

    def backward(grad):
        d_out = np.empty((steps, n_dirs, batch, hid), dtype)
        grad = grad.reshape(batch, steps, n_dirs, hid)
        for d in range(n_dirs):
            d_out[:, d] = grad[:, ::1 - 2 * d, d].transpose(1, 0, 2)
        d_pre = np.empty((n_dirs, steps, batch, width), dtype)
        d_h, d_n = d_pre[..., :n_h], d_pre[..., n_h:]
        h_in, r, z, n = hs[:-1], gates_h[..., :hid], gates_h[..., hid:], gates_n
        fac_r = h_in * r
        fac_r *= 1.0 - r
        fac_z = h_in - n
        fac_z *= z
        fac_z *= 1.0 - z
        fac_n = 1.0 - z
        fac_n *= 1.0 - n * n
        carry = np.zeros((n_dirs, batch, hid), dtype)
        for s in range(steps - 1, -1, -1):
            dh, da = d_out[s] + carry, d_h[:, s]
            np.multiply(dh, fac_n[s], out=d_n[:, s])
            d_rh = d_n[:, s] @ u_n.transpose(0, 2, 1)
            np.multiply(d_rh, fac_r[s], out=da[..., :hid])
            np.multiply(dh, fac_z[s], out=da[..., hid:])
            carry = da @ u_h.transpose(0, 2, 1)
            carry += dh * z[s] + d_rh * r[s]
        d_flat = d_pre.reshape(n_dirs, steps * batch, width)
        d_u = h_in.transpose(1, 0, 2, 3).reshape(n_dirs, -1, hid).transpose(0, 2, 1) @ d_flat[..., :n_h]
        d_u_n = rh.transpose(1, 0, 2, 3).reshape(n_dirs, -1, hid).transpose(0, 2, 1) @ d_flat[..., n_h:]
        d_seq = np.matmul(d_flat, w.transpose(0, 2, 1)).reshape(n_dirs, steps, batch, features)
        d_x = d_seq[0] if n_dirs == 1 else d_seq[0] + d_seq[1, ::-1]
        return (d_x.transpose(1, 0, 2).copy(), seq.transpose(0, 2, 1) @ d_flat,
                np.concatenate([d_u, d_u_n], axis=2), _sum_rows(d_flat))

    return out.reshape(batch, steps, n_dirs * hid), backward
