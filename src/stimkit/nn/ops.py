"""Differentiable array ops: convolution, pooling, dense layers.

Tensors are plain numpy arrays, row-major, float32 for training and
float64 for gradient verification. Layout is channels-last: images are
(N, H, W, C), conv kernels (k, k, Cin, Cout).

Convolution is same-padded cross-correlation with odd kernels, lowered
to im2col + matmul (forward, input gradient and weight gradient alike).
The forward and the weight gradient take the caller's patch matrix when
it holds one, instead of lowering the input again. Columns are copied
out of a sliding-window view of the padded input.

2x2 max pooling reads the four strided views ``x[:, i::2, j::2]`` of
the input and folds them with ``np.maximum``; no block copy is made.
The argmax that backward routes through is the first view equal to the
max, and is computed only when asked for. Backward writes each pooled
gradient at the flat offset of its argmax (block corner plus the
argmax's row and column step) in a zeroed input-shaped array.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import SizeError


def _check_conv_shapes(x, w, b):
    if x.ndim != 4 or w.ndim != 4 or b.ndim != 1:
        raise SizeError(f"conv2d expects x(N,H,W,Cin), w(k,k,Cin,Cout), b(Cout); got {x.shape}, {w.shape}, {b.shape}")
    k = w.shape[0]
    if k != w.shape[1] or k % 2 == 0:
        raise SizeError(f"conv kernel must be square with odd size, got {w.shape[:2]}")
    if x.shape[3] != w.shape[2]:
        raise SizeError(f"channel mismatch: input has {x.shape[3]}, kernel expects {w.shape[2]}")
    if b.shape[0] != w.shape[3]:
        raise SizeError(f"bias length {b.shape[0]} != output channels {w.shape[3]}")


def _pad_same(x, half):
    return np.pad(x, ((0, 0), (half, half), (half, half), (0, 0)))


def im2col(x, k):
    """Same-padded k x k patches of x (N, H, W, Cin) as an (N*H*W, k*k*Cin) matrix.

    Rows run over (n, h, w), columns over (di, dj, cin), matching
    ``w.reshape(k*k*Cin, Cout)``.
    """
    n, h, w, cin = x.shape
    xp = _pad_same(x, k // 2)
    # (N, H, W, Cin, k, k) view over the padded image
    patches = sliding_window_view(xp, (k, k), axis=(1, 2))
    return patches.transpose(0, 1, 2, 4, 5, 3).reshape(n * h * w, -1)


def conv2d_forward(x, w, b, cols=None):
    """Same-padded cross-correlation; returns y of shape (N, H, W, Cout).

    ``cols`` is ``im2col(x, k)`` when the caller already holds it.
    """
    _check_conv_shapes(x, w, b)
    w2d = w.reshape(-1, w.shape[3])
    y = (im2col(x, w.shape[0]) if cols is None else cols) @ w2d
    y += b
    return y.reshape(x.shape[:3] + (w.shape[3],)).astype(x.dtype, copy=False)


def conv2d_backward(x, w, dy, need_dx: bool = True, cols=None):
    """Gradients of conv2d_forward: returns (dx, dw, db).

    ``need_dx=False`` skips the input gradient (returns None for dx),
    which the first layer of a network never consumes. ``cols`` is the
    forward's ``im2col(x, k)``; without it the input is lowered again.
    """
    k = w.shape[0]
    if dy.shape != x.shape[:3] + (w.shape[3],):
        raise SizeError(f"conv2d gradient has shape {dy.shape}, forward output is {x.shape[:3] + (w.shape[3],)}")
    dx = None
    if need_dx:
        # input gradient: same-padded conv of dy with the rotated kernel
        wrot = np.ascontiguousarray(w[::-1, ::-1].transpose(0, 1, 3, 2))
        dx = (im2col(dy, k) @ wrot.reshape(-1, w.shape[2])).reshape(x.shape).astype(x.dtype, copy=False)
    if cols is None:
        cols = im2col(x, k)
    dw_flat = cols.T @ dy.reshape(-1, w.shape[3])
    dw = dw_flat.reshape(k, k, w.shape[2], w.shape[3]).astype(w.dtype, copy=False)
    # adds the (n, i, j) rows in order, as dy.sum(axis=(0, 1, 2)) does when
    # Cout > 1, in under half its time
    db = np.einsum("nijc->c", dy)
    return dx, dw, db


def maxpool2_forward(x, need_argmax: bool = True):
    """Non-overlapping 2x2 max pool; returns (y, argmax) with ties to the first.

    The argmax is int8 0..3 in row-major order within each 2x2 block.
    ``need_argmax=False`` skips it (returns None), as inference never
    routes a gradient back.
    """
    if x.ndim != 4 or x.shape[1] % 2 or x.shape[2] % 2:
        raise SizeError(f"maxpool2 needs (N, even H, even W, C), got {x.shape}")
    v0, v1, v2, v3 = (x[:, i::2, j::2] for i in (0, 1) for j in (0, 1))
    # np.maximum keeps its second operand on a tie (+0.0 vs -0.0 included),
    # so each later view goes first and the earliest maximal value survives
    y = np.maximum(v1, v0)
    np.maximum(v2, y, out=y)
    np.maximum(v3, y, out=y)
    if not need_argmax:
        return y, None
    # first view equal to the max: count the leading views that miss it
    past0 = v0 != y
    past1 = past0 & (v1 != y)
    past2 = past1 & (v2 != y)
    idx = past0.astype(np.int8)
    idx += past1
    idx += past2
    return y, idx


def maxpool2_backward(x_shape, idx, dy):
    """Route pooled gradients back to the argmax positions."""
    n, h, w, c = x_shape
    if dy.shape != (n, h // 2, w // 2, c) or idx.shape != dy.shape:
        raise SizeError(f"maxpool2 gradient {dy.shape} and argmax {idx.shape} must match the pooled shape "
                        f"{(n, h // 2, w // 2, c)} of input {tuple(x_shape)}")
    # flat offset in the (n, h, w, c) input: the argmax's row/column step,
    # plus its channel in the block's top-left corner, plus the frame
    off = np.array([0, c, w * c, w * c + c], dtype=np.intp)[idx]
    off += np.arange(0, h * w * c, 2 * w * c)[:, None, None] + np.arange(0, w * c, 2 * c)[:, None] + np.arange(c)
    off += np.arange(0, n * h * w * c, h * w * c)[:, None, None, None]
    dx = np.zeros(n * h * w * c, dtype=dy.dtype)
    dx[off.ravel()] = dy.ravel()
    return dx.reshape(n, h, w, c)


def relu(x):
    return np.maximum(x, 0)


def relu_backward(x, dy):
    return np.where(x > 0, dy, 0)


def sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def dense_forward(x, w, b, activation="none"):
    """Affine map plus activation ("relu" or "none"); x is (N, n), w (n, m), b (m)."""
    if x.shape[-1] != w.shape[0] or b.shape[0] != w.shape[1]:
        raise SizeError(f"dense shape mismatch: x{x.shape} w{w.shape} b{b.shape}")
    z = x @ w + b
    if activation == "relu":
        return relu(z), z
    if activation == "none":
        return z, z
    raise SizeError(f"unknown activation {activation!r}")


def dense_backward(x, w, z, dy, activation="none"):
    """Gradients of dense_forward: returns (dx, dw, db)."""
    dz = relu_backward(z, dy) if activation == "relu" else dy
    dx = dz @ w.T
    dw = x.T @ dz
    db = dz.sum(axis=0)
    return dx, dw, db
