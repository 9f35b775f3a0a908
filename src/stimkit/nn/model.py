"""The clip classifier: a shared per-frame CNN feeding an LSTM.

Every frame of a window passes through the same convolutional feature
extractor (one parameter set regardless of sequence length), the per-frame
embeddings run through an LSTM in time order, and the final hidden state
drives a single sigmoid unit. Probabilities are clipped to
[1e-7, 1 - 1e-7] so downstream log-losses stay finite.

The first conv block sees a skeleton raster that is almost all zeros.
Far from a lit pixel its conv output is exactly the bias, so each 2x2
pool block whose k x k reach holds no nonzero pixel pools the constant
``max(b, 0)`` with argmax 0. That block therefore runs only on the
touched pool blocks: for each it gathers the tile of the zero-padded
input under the pool block's reach (4 x 4 for a 3 x 3 kernel) and
lowers the tile's valid k x k windows, which are the patches of the
four positions the pool reads. The conv, ReLU and pool run on that
(M, 2, 2, Cout) batch, and every untouched pooled cell is filled with
``max(b, 0)``. Each of those patches is the one the full-frame conv
sees at that position, so the forward gives the same bytes. The block
takes this path at every density: a fully lit frame lowers one patch
per position, as the full-frame conv does, plus the gather of its tiles.

Backward reads two things of the gradient of that pooled output: its
rows at the touched sites, which the pool and conv backward route
through the same columns to the weight gradient (untouched patches are
all zero and add nothing), and its per-channel sum over the other cells,
which reaches only the bias (each such cell holds ``max(b, 0)``, so its
gradient passes where that is positive). So the second block computes
its input gradient only at those sites: it gathers the k x k
neighbourhood of its pre-activation gradient around each and multiplies
it by the rotated kernel, which gives the bytes of the full input
gradient's rows. The sum over the other cells comes from per-tap sums
of that pre-activation gradient in a wider float type, never from a
full-size input gradient. ``conv0_w`` regroups its sum and ``conv0_b``
adds its terms in the wider type, so both differ from the full-frame
gradients in the last bits (the numeric contract in docs/formats.md).
A one-block model hands block 0 the same two things, taken from the
dense gradient of its output. Every block makes one call of each conv
and pool op per forward and per backward.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import ConfigError, SizeError
from . import ops
from .lstm import lstm_backward, lstm_forward

PROB_EPS = 1e-7
# init_params draws every weight in float64 first; this bounds that draw at 80 MB
MAX_PARAMETERS = 10**7


@dataclass(frozen=True)
class ConvBlock:
    filters: int = 16
    kernel: int = 3
    pool: int = 2

    def __post_init__(self):
        if self.filters < 1:
            raise ConfigError("filters", f"must be >= 1, got {self.filters}")
        if self.kernel % 2 == 0 or self.kernel < 1:
            raise ConfigError("kernel", f"must be odd and >= 1, got {self.kernel}")
        if self.pool != 2:
            raise ConfigError("pool", f"only pool=2 supported, got {self.pool}")


@dataclass(frozen=True)
class ModelConfig:
    T: int = 7
    height: int = 64
    width: int = 64
    channels: int = 1
    conv_blocks: tuple[ConvBlock, ...] = (ConvBlock(16), ConvBlock(32))
    frame_embedding: int = 64
    lstm_hidden: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.T < 2:
            raise ConfigError("T", f"sequence length must be >= 2, got {self.T}")
        for name in ("height", "width", "channels", "frame_embedding", "lstm_hidden"):
            if getattr(self, name) < 1:
                raise ConfigError(name, f"must be >= 1, got {getattr(self, name)}")
        if not self.conv_blocks:
            raise ConfigError("conv_blocks", "at least one block required")
        shrink = 2 ** len(self.conv_blocks)
        if self.height % shrink or self.width % shrink:
            raise ConfigError(
                "conv_blocks",
                f"spatial dims {self.height}x{self.width} not divisible by pooling factor {shrink}",
            )
        count = sum(math.prod(shape) for shape in param_shapes(self).values())
        if count > MAX_PARAMETERS:
            raise ConfigError("parameters", f"{count} weights, more than the {MAX_PARAMETERS} allowed")

    @property
    def flat_features(self) -> int:
        shrink = 2 ** len(self.conv_blocks)
        return (self.height // shrink) * (self.width // shrink) * self.conv_blocks[-1].filters

    def to_dict(self):
        return asdict(self)


def _glorot(rng, shape, fan_in, fan_out, dtype):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name and shape of every parameter the config needs, in init order."""
    shapes: dict[str, tuple[int, ...]] = {}
    cin = config.channels
    for n, blk in enumerate(config.conv_blocks):
        shapes[f"conv{n}_w"] = (blk.kernel, blk.kernel, cin, blk.filters)
        shapes[f"conv{n}_b"] = (blk.filters,)
        cin = blk.filters
    emb, m = config.frame_embedding, config.lstm_hidden
    shapes.update(
        embed_w=(config.flat_features, emb), embed_b=(emb,), lstm_wx=(emb, 4 * m),
        lstm_wh=(m, 4 * m), lstm_b=(4 * m,), out_w=(m, 1), out_b=(1,),
    )
    return shapes


def init_params(config: ModelConfig, dtype=np.float32) -> dict[str, np.ndarray]:
    """Glorot-uniform weights from the config seed; biases are 0, the forget bias 1.

    A weight's fan-in is every axis but the last (kernel x kernel x input
    channels for a conv), its fan-out the kernel axes times the last.
    """
    rng = np.random.Generator(np.random.PCG64(config.seed))
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(config).items():
        if len(shape) == 1:
            params[name] = np.zeros(shape, dtype=dtype)
        else:
            params[name] = _glorot(rng, shape, math.prod(shape[:-1]), math.prod(shape[:-2]) * shape[-1], dtype)
    m = config.lstm_hidden
    params["lstm_b"][m : 2 * m] = 1.0
    return params


def parameter_count(params: dict[str, np.ndarray]) -> int:
    return int(sum(p.size for p in params.values()))


def _block_forward(x, w, b, need_cache):
    """Conv, ReLU and 2x2 pool over whole frames; returns (pooled, cache entry)."""
    # the weight gradient reuses these columns, so the training cache keeps
    # them; without a cache the conv lowers its input a few frames at a time
    cols = ops.im2col(x, w.shape[0]) if need_cache else None
    a = ops.conv2d_forward(x, w, b, cols=cols)
    np.maximum(a, 0, out=a)  # ReLU without a second full-size array
    pooled, idx = ops.maxpool2_forward(a, need_argmax=need_cache)
    return pooled, (x, cols, pooled, idx)


def _block_backward(w, entry, dcur, sites=None):
    """(dx, dw, db) of a block that ran over whole frames.

    With ``sites`` (block 0's), dx is only what block 0 reads of it: its
    rows at the sites and its per-channel sum over the other positions,
    in the wider type ``_wide`` gives.
    """
    x, cols, pooled, idx = entry
    # the pool gradient reaches only each block's argmax, where the
    # pre-activation is > 0 exactly when the pooled max is: so the ReLU
    # gradient is taken on the quarter-size pooled array
    dz = ops.maxpool2_backward(x.shape[:3] + (w.shape[3],), idx, ops.relu_backward(pooled, dcur))
    if sites is None:
        return ops.conv2d_backward(x, w, dz, cols=cols)
    _, dw, db = ops.conv2d_backward(x, w, dz, need_dx=False, cols=cols)
    return _input_grad_at(dz, w, sites), dw, db


def _wide(dtype):
    """A float type with more bits than ``dtype``, for sums whose terms largely cancel.

    float64 for float32 terms; for float64 terms numpy's long double (80-bit
    on x86, float64 again where the platform has nothing wider).
    """
    return np.float64 if np.dtype(dtype).itemsize < 8 else np.longdouble


def _input_grad_at(dz, w, sites):
    """``conv2d_backward``'s dx at ``sites`` (n, i, j), and dx's per-channel sum off them, without the full dx.

    A row is the k x k neighbourhood of ``dz`` around its site, taps off the
    frame zero as in the same-padded lowering, times the rotated kernel.
    Every dx position takes tap (a, c) from the one dz position shifted by
    (a - k//2, c - k//2). So the sum over the positions off the sites is,
    per tap, the sum of dz over the rows and columns that shift reaches
    inside the frame less the sites' gathered taps, times that tap's kernel
    slice. Those are sums of dz in a wider type (``_wide``), not of rounded
    dx rows, so a sum that cancels keeps its last bits.
    """
    k = w.shape[0]
    half = k // 2
    h, wd, cout = dz.shape[1:]
    n, i, j = sites
    m = len(n)
    wrot = np.ascontiguousarray(w[::-1, ::-1].transpose(0, 1, 3, 2)).reshape(-1, w.shape[2])
    taps = np.arange(k) - half
    r, c = i[:, None] + taps, j[:, None] + taps
    flat = (n[:, None, None] * h + np.clip(r, 0, h - 1)[:, :, None]) * wd + np.clip(c, 0, wd - 1)[:, None, :]
    # the product takes at least one frame's rows, as each product of the
    # full dx's chunked lowering does: fewer rows can take another BLAS
    # kernel (one row another routine) and round differently
    g = np.empty((max(m, h * wd), k, k, cout), dtype=dz.dtype)
    g[m:] = 0
    np.take(dz.reshape(-1, cout), flat, axis=0, out=g[:m], mode="clip")
    g[:m][((r < 0) | (r >= h))[:, :, None] | ((c < 0) | (c >= wd))[:, None, :]] = 0
    rows = (g.reshape(len(g), -1) @ wrot)[:m].astype(dz.dtype, copy=False)
    acc = _wide(dz.dtype)
    if m == dz[..., 0].size:
        return rows, np.zeros(w.shape[2], dtype=acc)  # no position is off the sites

    def reach(t, size):
        return slice(max(0, t), size + min(0, t))

    s = dz.sum(axis=0, dtype=acc)
    by_row = [s[reach(t, h)].sum(axis=0) for t in taps]
    per_tap = np.array([[part[reach(t, wd)].sum(axis=0) for t in taps] for part in by_row])
    per_tap -= g[:m].sum(axis=0, dtype=acc)
    return rows, per_tap.reshape(-1) @ wrot.astype(acc)


def _touched_blocks(x, k):
    """(N, H/2, W/2) mask of the 2x2 pool blocks with a nonzero pixel of x within a k x k patch's reach."""
    half = k // 2
    lit = np.pad((x != 0).any(axis=3), ((0, 0), (half, half), (half, half)))
    h, w = x.shape[1:3]
    # pool block (i, j) reaches padded rows 2i .. 2i + 2*half + 1, and columns alike
    rows = lit[:, 0:h:2].copy()
    for d in range(1, 2 + 2 * half):
        rows |= lit[:, d : d + h : 2]
    touched = rows[:, :, 0:w:2].copy()
    for d in range(1, 2 + 2 * half):
        touched |= rows[:, :, d : d + w : 2]
    return touched


def _tile_block_forward(x, w, b, touched, need_cache):
    """The block on the padded tiles under the touched pool blocks; returns (pooled, cache entry)."""
    k = w.shape[0]
    half = k // 2
    side = 2 + 2 * half
    sites = np.nonzero(touched)
    n, i, j = sites
    xp = np.pad(x, ((0, 0), (half, half), (half, half), (0, 0)))
    # (N, ., ., Cin, side, side) view; the index copies out one tile per site
    tiles = sliding_window_view(xp, (side, side), axis=(1, 2))[n, 2 * i, 2 * j]
    # a tile's valid k x k windows are the patches of its inner 2x2, rows
    # over (site, row, column) and columns over (di, dj, cin) as in im2col
    patches = sliding_window_view(tiles, (k, k), axis=(2, 3))
    cols = patches.transpose(0, 2, 3, 4, 5, 1).reshape(-1, k * k * x.shape[3])
    inner = tiles[:, :, half : half + 2, half : half + 2].transpose(0, 2, 3, 1)
    a = ops.conv2d_forward(inner, w, b, cols=cols)
    np.maximum(a, 0, out=a)
    tile_pooled, idx = ops.maxpool2_forward(a, need_argmax=need_cache)
    fill = np.maximum(b, 0)  # the conv of an all-zero patch is the bias
    pooled = np.empty(touched.shape + (w.shape[3],), dtype=x.dtype)
    pooled[...] = fill
    pooled[sites] = tile_pooled[:, 0, 0]
    return pooled, (inner, cols if need_cache else None, sites, tile_pooled, idx, fill)


def _at_sites(dpooled, sites):
    """A full-size gradient of block 0's pooled output as block 0 reads it: its rows at the sites, and the other cells' sum."""
    off = np.ones(dpooled.shape[:3], dtype=bool)
    off[sites] = False
    return dpooled[sites], dpooled[off].sum(axis=0, dtype=_wide(dpooled.dtype))


def _tile_block_backward(w, entry, drows, doff):
    """(dw, db) of a block that ran on tiles.

    ``drows`` is the gradient of its pooled output at the sites, ``doff``
    that gradient's per-channel sum over the pooled cells off the sites, in
    the wider type ``_wide`` gives. Each of those cells holds ``max(b, 0)``:
    its gradient reaches only the bias, and only where that fill is
    positive.
    """
    inner, cols, sites, tile_pooled, idx, fill = entry
    dpooled = ops.relu_backward(tile_pooled, drows[:, None, None])
    db = dpooled.sum(axis=(0, 1, 2), dtype=doff.dtype) + np.where(fill > 0, doff, 0)
    dz = ops.maxpool2_backward(inner.shape[:3] + (w.shape[3],), idx, dpooled)
    _, dw, _ = ops.conv2d_backward(inner, w, dz, need_dx=False, cols=cols)
    return dw, db.astype(w.dtype)


def forward_batch(params, config: ModelConfig, x, need_cache: bool = True):
    """Classify a batch of windows.

    ``x`` is (B, T, H, W, C); returns (p of shape (B,), cache for backward).
    ``need_cache=False`` is the inference path: it keeps no layer inputs
    and takes no pooling argmax, and returns None for the cache.
    """
    batch = x.shape[0]
    expected = (config.T, config.height, config.width, config.channels)
    if x.shape[1:] != expected:
        raise SizeError(f"input shape {x.shape[1:]} does not match config {expected}")
    frames = x.reshape((batch * config.T,) + expected[1:])

    conv_caches = []
    cur = frames
    for n, block in enumerate(config.conv_blocks):
        w, b = params[f"conv{n}_w"], params[f"conv{n}_b"]
        if n == 0:
            pooled, entry = _tile_block_forward(cur, w, b, _touched_blocks(cur, block.kernel), need_cache)
        else:
            pooled, entry = _block_forward(cur, w, b, need_cache)
        if need_cache:
            conv_caches.append(entry)
        cur = pooled

    flat = cur.reshape(batch * config.T, -1)
    emb, emb_z = ops.dense_forward(flat, params["embed_w"], params["embed_b"], "relu")
    seq = emb.reshape(batch, config.T, config.frame_embedding)
    h_last, lstm_caches = lstm_forward(seq, params["lstm_wx"], params["lstm_wh"], params["lstm_b"])
    logit, out_z = ops.dense_forward(h_last, params["out_w"], params["out_b"], "none")
    p = ops.sigmoid(logit[:, 0])
    p = np.clip(p, PROB_EPS, 1.0 - PROB_EPS)
    if not need_cache:
        return p, None
    cache = (x.shape, frames.shape, conv_caches, cur.shape, flat, emb_z, h_last, lstm_caches, out_z, p)
    return p, cache


def backward_batch(params, config: ModelConfig, cache, dp):
    """Gradients of forward_batch with respect to every parameter.

    ``dp`` is dLoss/dp per batch element; returns a dict keyed like params.
    The cache is used up: each conv block's entry (its columns, pooled
    output and argmax) is popped once that block's gradient is taken,
    which lowers a training step's peak memory.
    """
    (x_shape, frames_shape, conv_caches, pooled_shape, flat, emb_z, h_last, lstm_caches, out_z, p) = cache
    batch = x_shape[0]
    grads: dict[str, np.ndarray] = {}

    dlogit = (dp * p * (1.0 - p))[:, None]
    dh_last, grads["out_w"], grads["out_b"] = ops.dense_backward(
        h_last, params["out_w"], out_z, dlogit, "none"
    )
    dseq, grads["lstm_wx"], grads["lstm_wh"], grads["lstm_b"] = lstm_backward(
        dh_last, lstm_caches, params["lstm_wx"], params["lstm_wh"]
    )
    demb = dseq.reshape(batch * config.T, config.frame_embedding)
    dflat, grads["embed_w"], grads["embed_b"] = ops.dense_backward(
        flat, params["embed_w"], emb_z, demb, "relu"
    )
    dcur = dflat.reshape(pooled_shape)
    # block 0 reads its output gradient only at its tile sites, and as one
    # per-channel sum over the other cells; block 1 (or here, for one
    # block) reduces it to those
    sites = conv_caches[0][2]
    if len(config.conv_blocks) == 1:
        dcur = _at_sites(dcur, sites)
    for n in range(len(config.conv_blocks) - 1, 0, -1):
        # each block's entry is popped into its own backward call, so no
        # array of the block above outlives it here
        dcur, dw, db = _block_backward(params[f"conv{n}_w"], conv_caches.pop(), dcur, sites if n == 1 else None)
        grads[f"conv{n}_w"], grads[f"conv{n}_b"] = dw, db
    grads["conv0_w"], grads["conv0_b"] = _tile_block_backward(params["conv0_w"], conv_caches.pop(), *dcur)
    return grads
