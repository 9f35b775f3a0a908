"""The clip classifier: a shared per-frame CNN feeding an LSTM.

Every frame of a window passes through the same convolutional feature
extractor (one parameter set regardless of sequence length), the per-frame
embeddings run through an LSTM in time order, and the final hidden state
drives a single sigmoid unit. Probabilities are clipped to
[1e-7, 1 - 1e-7] so downstream log-losses stay finite.

Every conv block runs on the pool blocks its lit positions reach, over
a ground frame (Graham's ground state: "Spatially-sparse convolutional
neural networks", 2014). Block 0's lit positions are the nonzero pixels
and its ground frame is all zeros; each later block's lit positions are
the cells the block below reached, and its ground frame is the pooled
output of the block below's ground. Away from the lit positions a
block's input equals its ground frame, so a 2x2 pool block whose k x k
reach holds no lit position pools what the ground frame pools there.
One conv and one pool call run on tiles: for each reached pool block,
and for every pool block of the ground frame, the tile of the padded
input under its reach (4 x 4 for a 3 x 3 kernel), whose valid k x k
windows are the patches of the four positions the pool reads. Every
unreached cell copies the ground's pooled value. Each patch is the one
the whole-frame conv sees at that position, and the ground's tiles keep
the product above one frame's rows, where it takes the whole-frame
product's BLAS kernel at the model's shapes: the forward gives the
bytes of the whole-frame block.

Backward hands each block two things of the gradient of its pooled
output: its rows at the sites, and per cell its sum over the frames
where that cell is off the sites, in the wider type ``_wide`` gives.
The sums are the gradient of the ground's tiles, so one pool and one
conv backward route the rows and the sums to the weight gradient, which
sums in float64. A block hands the block below its input gradient in
the same form (``_input_grad_at``). The weight and bias gradients
regroup their sums, so they differ from the whole-frame gradients in
the last bits (the numeric contract in docs/formats.md).
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


def _wide(dtype):
    """A float type with more bits than ``dtype``, for sums whose terms largely cancel.

    float64 for float32 terms; for float64 terms numpy's long double (80-bit
    on x86, float64 again where the platform has nothing wider).
    """
    return np.float64 if np.dtype(dtype).itemsize < 8 else np.longdouble


def _reached(lit, k):
    """(N, H/2, W/2) mask of the 2x2 pool blocks with a position of ``lit`` (N, H, W) within a k x k patch's reach."""
    half = k // 2
    h, w = lit.shape[1:]
    lit = np.pad(lit, ((0, 0), (half, half), (half, half)))
    # pool block (i, j) reaches padded rows 2i .. 2i + 2*half + 1, and columns alike
    rows = lit[:, 0:h:2].copy()
    for d in range(1, 2 + 2 * half):
        rows |= lit[:, d : d + h : 2]
    reached = rows[:, :, 0:w:2].copy()
    for d in range(1, 2 + 2 * half):
        reached |= rows[:, :, d : d + w : 2]
    return reached


def _block_forward(x, ground, w, b, reached, need_cache):
    """The block on the tiles of the reached pool blocks and of all the ground frame's; returns (pooled, ground, entry).

    ``ground`` is the (1, H, W, Cin) frame that ``x`` equals off its lit
    positions; every unreached cell takes that frame's pooled value.
    """
    k = w.shape[0]
    half = k // 2
    side = 2 + 2 * half
    # one index over the batch and, as frame N, the ground: the sites come
    # first, and the ground's tiles keep the product above one frame's rows
    n, i, j = np.nonzero(np.concatenate([reached, np.ones((1,) + reached.shape[1:], dtype=bool)]))
    m = np.count_nonzero(reached)
    sites = n[:m], i[:m], j[:m]
    xp = np.pad(np.concatenate([x, ground]), ((0, 0), (half, half), (half, half), (0, 0)))
    # (N + 1, ., ., Cin, side, side) view; the index copies out one tile per pool block
    tiles = sliding_window_view(xp, (side, side), axis=(1, 2))[n, 2 * i, 2 * j]
    # a tile's valid k x k windows are the patches of its inner 2x2, rows
    # over (tile, row, column) and columns over (di, dj, cin) as in im2col
    patches = sliding_window_view(tiles, (k, k), axis=(2, 3))
    cols = patches.transpose(0, 2, 3, 4, 5, 1).reshape(-1, k * k * x.shape[3])
    inner = tiles[:, :, half : half + 2, half : half + 2].transpose(0, 2, 3, 1)
    a = ops.conv2d_forward(inner, w, b, cols=cols)
    np.maximum(a, 0, out=a)
    tile_pooled, idx = ops.maxpool2_forward(a, need_argmax=need_cache)
    ground = tile_pooled[m:, 0, 0].reshape((1,) + reached.shape[1:] + (w.shape[3],))
    pooled = np.repeat(ground, len(x), axis=0)
    pooled[sites] = tile_pooled[:m, 0, 0]
    return pooled, ground, (x.shape, inner, cols if need_cache else None, sites, tile_pooled, idx)


def _block_backward(w, entry, dcur, below):
    """(dw, db, input gradient) of a block.

    ``dcur`` is (the gradient of the pooled output at the sites, and per
    cell its sum over the frames where that cell is off the sites, in the
    wider type ``_wide`` gives). Those sums are the ground tiles' pooled
    gradient. The input gradient takes the same form for ``below``, the
    sites of the block underneath, or is None where there is none.
    """
    x_shape, inner, cols, sites, tile_pooled, idx = entry
    drows, doff = dcur
    cout = w.shape[3]
    # in the wider type, where the site rows are exact and the sums keep their bits
    dpooled = ops.relu_backward(tile_pooled, np.concatenate([drows, doff.reshape(-1, cout)])[:, None, None])
    db = dpooled.sum(axis=(0, 1, 2)).astype(w.dtype)
    dz = ops.maxpool2_backward(inner.shape[:3] + (cout,), idx, dpooled)
    # the weight gradient sums in float64, where float32 products are exact
    _, dw, _ = ops.conv2d_backward(inner, w, dz.astype(np.float64, copy=False), need_dx=False, cols=cols)
    if below is None:
        return dw, db, None
    n, h, wd, _ = x_shape
    m = len(sites[0])
    # the sites' tiles in place in N frames, and the ground's tiles as one frame
    frames = np.zeros((n, h // 2, 2, wd // 2, 2, cout), dtype=inner.dtype)
    frames[sites[0], sites[1], :, sites[2]] = dz[:m]
    ground = dz[m:].reshape(h // 2, wd // 2, 2, 2, cout).transpose(0, 2, 1, 3, 4).reshape(h, wd, cout)
    return dw, db, _input_grad_at(frames.reshape(n, h, wd, cout), ground, w, below)


def _input_grad_at(dz, ground, w, sites):
    """The input gradient at ``sites`` (n, i, j), and per position its sum over the frames off them.

    ``dz`` holds each frame's gradient inside its reached pool blocks and
    zero elsewhere, ``ground`` (H, W, Cout) the ground frame's, which is
    per cell the sum of the frames' gradient where that cell is unreached.
    A row is the k x k neighbourhood of ``dz`` around its site, taps off
    the frame zero as in the same-padded lowering, times the rotated
    kernel: every tap lies in a pool block the site reaches, so the row
    has the bytes of ``conv2d_backward``'s. The one-frame conv of ``dz``
    summed over the frames plus ``ground`` is dx summed over the frames,
    and less the site rows it is the sum off the sites. Both are taken in
    ``_wide``, so a sum that cancels keeps its last bits.
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
    # the product takes at least one frame's rows, as ``conv2d_backward``'s
    # whole-frame product does: fewer rows can take another BLAS kernel (one
    # row another routine) and round differently
    g = np.empty((max(m, h * wd), k, k, cout), dtype=dz.dtype)
    g[m:] = 0
    np.take(dz.reshape(-1, cout), flat, axis=0, out=g[:m], mode="clip")
    g[:m][((r < 0) | (r >= h))[:, :, None] | ((c < 0) | (c >= wd))[:, None, :]] = 0
    g = g.reshape(len(g), -1)
    rows = (g @ wrot)[:m].astype(dz.dtype, copy=False)
    acc = _wide(dz.dtype)
    wrot = wrot.astype(acc)
    total = ops.im2col((dz.sum(axis=0, dtype=acc) + ground)[None], k) @ wrot
    on = np.zeros((len(dz), h, wd), dtype=bool)
    on[sites] = True
    at_sites = np.zeros(on.shape + (w.shape[2],), dtype=acc)
    at_sites[sites] = g[:m].astype(acc) @ wrot
    off = total.reshape(h, wd, -1) - at_sites.sum(axis=0)
    off[on.all(axis=0)] = 0  # a position that is a site in every frame has no sum off them
    return rows, off


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
    cur, ground, lit = frames, np.zeros_like(frames[:1]), (frames != 0).any(axis=3)
    for n, block in enumerate(config.conv_blocks):
        lit = _reached(lit, block.kernel)
        cur, ground, entry = _block_forward(cur, ground, params[f"conv{n}_w"], params[f"conv{n}_b"], lit, need_cache)
        if need_cache:
            conv_caches.append(entry)

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
    The cache is used up: each conv block's entry (its tile columns,
    pooled tiles and argmax) is popped once that block's gradient is
    taken, which lowers a training step's peak memory.
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
    # the top block reads its output gradient at its sites, and per cell
    # as one sum over the frames where that cell is off them
    dcur = dflat.reshape(pooled_shape)
    sites = conv_caches[-1][3]
    drows = dcur[sites]
    dcur[sites] = 0
    dcur = (drows, dcur.sum(axis=0, dtype=_wide(dcur.dtype)))
    for n in range(len(config.conv_blocks) - 1, -1, -1):
        below = conv_caches[n - 1][3] if n else None
        # each block's entry is popped into its own backward call, so no
        # array of the block above outlives it here
        grads[f"conv{n}_w"], grads[f"conv{n}_b"], dcur = _block_backward(
            params[f"conv{n}_w"], conv_caches.pop(), dcur, below
        )
    return grads
