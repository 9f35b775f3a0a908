"""Differentiable array ops: convolution, pooling, dense layers.

Tensors are plain numpy arrays, row-major, float32 for training and
float64 for gradient verification. Layout is channels-last: images are
(N, H, W, C), conv kernels (k, k, Cin, Cout).

Convolution is same-padded cross-correlation with odd kernels, lowered
to im2col + matmul (forward, input gradient and weight gradient alike).
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


def _im2col(xp, k):
    # (N, H, W, Cin, k, k) view over the padded image
    patches = sliding_window_view(xp, (k, k), axis=(1, 2))
    n, h, w = patches.shape[:3]
    # reorder to (N*H*W, k*k*Cin) matching w.reshape(k*k*Cin, Cout)
    return patches.transpose(0, 1, 2, 4, 5, 3).reshape(n * h * w, -1)


def conv2d_forward(x, w, b):
    """Same-padded cross-correlation; returns y of shape (N, H, W, Cout)."""
    _check_conv_shapes(x, w, b)
    k = w.shape[0]
    half = k // 2
    xp = _pad_same(x, half)
    cols = _im2col(xp, k)
    y = cols @ w.reshape(-1, w.shape[3]) + b
    return y.reshape(x.shape[:3] + (w.shape[3],)).astype(x.dtype, copy=False)


def conv2d_backward(x, w, dy, need_dx: bool = True):
    """Gradients of conv2d_forward: returns (dx, dw, db).

    ``need_dx=False`` skips the input gradient (returns None for dx),
    which the first layer of a network never consumes.
    """
    k = w.shape[0]
    half = k // 2
    xp = _pad_same(x, half)
    dx = None
    if need_dx:
        # input gradient: same-padded conv of dy with the rotated kernel
        wrot = np.ascontiguousarray(w[::-1, ::-1].transpose(0, 1, 3, 2))
        cols_dy = _im2col(_pad_same(dy, half), k)
        dx = (cols_dy @ wrot.reshape(-1, w.shape[2])).reshape(x.shape).astype(x.dtype, copy=False)
    cols_x = _im2col(xp, k)
    dw_flat = cols_x.T @ dy.reshape(-1, w.shape[3])
    dw = dw_flat.reshape(k, k, w.shape[2], w.shape[3]).astype(w.dtype, copy=False)
    db = dy.sum(axis=(0, 1, 2))
    return dx, dw, db


def maxpool2_forward(x):
    """Non-overlapping 2x2 max pool; returns (y, argmax) with ties to the first."""
    if x.ndim != 4 or x.shape[1] % 2 or x.shape[2] % 2:
        raise SizeError(f"maxpool2 needs (N, even H, even W, C), got {x.shape}")
    n, h, w, c = x.shape
    blocks = x.reshape(n, h // 2, 2, w // 2, 2, c).transpose(0, 1, 3, 2, 4, 5).reshape(n, h // 2, w // 2, 4, c)
    idx = blocks.argmax(axis=3).astype(np.int8)
    out = np.take_along_axis(blocks, idx[:, :, :, None, :], axis=3)[:, :, :, 0, :]
    return out, idx


def maxpool2_backward(x_shape, idx, dy):
    """Route pooled gradients back to the argmax positions."""
    n, h, w, c = x_shape
    dx4 = np.zeros((n, h // 2, w // 2, 4, c), dtype=dy.dtype)
    np.put_along_axis(dx4, idx[:, :, :, None, :].astype(np.intp), dy[:, :, :, None, :], axis=3)
    return dx4.reshape(n, h // 2, w // 2, 2, 2, c).transpose(0, 1, 3, 2, 4, 5).reshape(n, h, w, c)


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
    """Affine map plus activation; x is (N, n), w (n, m), b (m)."""
    if x.shape[-1] != w.shape[0] or b.shape[0] != w.shape[1]:
        raise SizeError(f"dense shape mismatch: x{x.shape} w{w.shape} b{b.shape}")
    z = x @ w + b
    if activation == "relu":
        return relu(z), z
    if activation == "sigmoid":
        return sigmoid(z), z
    if activation == "none":
        return z, z
    raise SizeError(f"unknown activation {activation!r}")


def dense_backward(x, w, z, dy, activation="none"):
    """Gradients of dense_forward: returns (dx, dw, db)."""
    if activation == "relu":
        dz = relu_backward(z, dy)
    elif activation == "sigmoid":
        s = sigmoid(z)
        dz = dy * s * (1 - s)
    else:
        dz = dy
    dx = dz @ w.T
    dw = x.T @ dz
    db = dz.sum(axis=0)
    return dx, dw, db
