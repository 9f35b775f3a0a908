"""The clip classifier: a shared per-frame CNN feeding an LSTM.

Every frame of a window passes through the same convolutional feature
extractor (one parameter set regardless of sequence length), the per-frame
embeddings run through an LSTM in time order, and the final hidden state
drives a single sigmoid unit. Probabilities are clipped to
[1e-7, 1 - 1e-7] so downstream log-losses stay finite.

The conv blocks pass sparse activations (Graham's ground state, 2014,
in the submanifold form of Graham and van der Maaten, 2017): a
(1, H, W, C) ground frame that every frame equals off its sites, the
(m, C) rows at the sites, and the site index (n, i, j). Block 0's sites
are the nonzero pixels over a blank ground. A block's conv and pool run
once, on the patches of the pool blocks its sites reach (its output's
sites) and of every pool block of its ground, gathered through a map
from each padded input cell to its site row, its ground cell or a zero
row. The ground's patches keep the product above one frame's rows, on
the whole-frame BLAS kernel, so the forward has the whole-frame bytes.
Only the last block's output is made dense, for the embedding. Backward
takes each block's gradients in the same form, with per-cell sums over
the frames off the sites in the wider type ``_wide`` gives, summed from
tile and site rows alone; the weight and bias gradients regroup their
sums (the numeric contract in docs/formats.md).
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

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
    """A float type with more bits than ``dtype``, for sums whose terms largely cancel: float64 for
    float32 terms, numpy's long double for float64 (80-bit on x86, float64 where there is nothing wider)."""
    return np.float64 if np.dtype(dtype).itemsize < 8 else np.longdouble


def _sites(mask):
    """The index (n, i, j) of the True cells of an (N, H, W) mask, in row-major order."""
    q, j = np.divmod(np.flatnonzero(mask), mask.shape[2])
    n, i = np.divmod(q, mask.shape[1])
    return n, i, j


def _reached(sites, shape, k):
    """(N, H/2, W/2) mask of the 2x2 pool blocks with a site (n, i, j) of an (N, H, W) input within a k x k patch's reach."""
    n, i, j = sites
    frames, h, w = shape
    half = k // 2
    # pool block I reaches rows 2I - half .. 2I + 1 + half, so row i is reached from blocks
    # (i + half) // 2 - half .. (i + half) // 2, and columns alike; ``half`` blocks of margin
    hp, wp = h // 2 + 2 * half, w // 2 + 2 * half
    reached = np.zeros((frames, hp, wp), dtype=bool)
    last = (n * hp + (i + half) // 2 + half) * wp + (j + half) // 2 + half
    for di in range(half + 1):
        for dj in range(half + 1):
            reached.ravel()[last - di * wp - dj] = True
    return reached[:, half : half + h // 2, half : half + w // 2]


@functools.cache
def _frame_cells(h, wd, k):
    """An (H, W) frame's cell numbers, padded by k // 2 cells numbered H * W; the offsets of a pool
    block's 4 k^2 patch taps from its tile's corner, in im2col's (row, column, di, dj) order; and each pool block's taps."""
    half = k // 2
    cells = np.full((h + 2 * half, wd + 2 * half), h * wd, dtype=np.int32)
    cells[half : half + h, half : half + wd] = np.arange(h * wd).reshape(h, wd)
    step = np.arange(2)[:, None] + np.arange(k)
    offsets = (step[:, None, :, None] * cells.shape[1] + step[None, :, None, :]).ravel()
    i, j = np.divmod(np.arange(h // 2 * (wd // 2)), wd // 2)
    taps = cells.ravel()[(2 * i * cells.shape[1] + 2 * j)[:, None] + offsets].astype(np.intp)
    cells.flags.writeable = offsets.flags.writeable = taps.flags.writeable = False
    return cells, offsets, taps


def _block_forward(x, frames, w, b, need_cache):
    """The block on the tiles of the reached pool blocks and of all the ground frame's; returns (output, entry).

    ``x`` (over ``frames`` frames) and the output are each (ground, rows, sites).
    """
    ground, rows, lit = x
    _, h, wd, cin = ground.shape
    k, half = w.shape[0], w.shape[0] // 2
    n, i, j = sites = _sites(_reached(lit, (frames, h, wd), k))
    m = len(n)
    # each padded input cell's row of ``src``: its site row, its ground row, or the zero row
    src = np.concatenate([ground.reshape(-1, cin), np.zeros((1, cin), dtype=ground.dtype), rows])
    numbers, offsets, ground_taps = _frame_cells(h, wd, k)
    hp, wp = numbers.shape
    cells = np.tile(numbers, (frames, 1, 1)).ravel()
    cells[(lit[0] * hp + lit[1] + half) * wp + lit[2] + half] = np.arange(h * wd + 1, len(src))
    # rows over (tile, row, column) and columns over (di, dj, cin) as in im2col; the
    # sites' tiles come first, and the ground's keep the product above one frame's rows
    cols = np.empty((m + len(ground_taps), 4 * k * k, cin), dtype=ground.dtype)
    np.take(src, cells.take(((n * hp + 2 * i) * wp + 2 * j)[:, None] + offsets), axis=0, out=cols[:m], mode="clip")
    np.take(src, ground_taps, axis=0, out=cols[m:], mode="clip")
    inner = cols.reshape(-1, 2, 2, k, k, cin)[:, :, :, half, half]  # a patch's centre tap is its position's input
    cols = cols.reshape(-1, k * k * cin)
    a = ops.conv2d_forward(inner, w, b, cols=cols)
    np.maximum(a, 0, out=a)
    tile_pooled, idx = ops.maxpool2_forward(a, need_argmax=need_cache)
    out = tile_pooled[m:, 0, 0].reshape(1, h // 2, wd // 2, -1), tile_pooled[:m, 0, 0], sites
    return out, ((frames, h, wd), inner, cols if need_cache else None, sites, tile_pooled, idx)


def _block_backward(w, entry, dcur, below):
    """(dw, db, input gradient) of a block.

    ``dcur`` is the pooled output's gradient at the sites, and per cell its sum in ``_wide`` over the
    frames off them. The input gradient takes that form at ``below``, the sites of the block underneath.
    """
    shape, inner, cols, sites, tile_pooled, idx = entry
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
    m = len(sites[0])
    return dw, db, _input_grad_at(dz[:m].astype(inner.dtype), dz[m:], shape, sites, w, below)


def _cell_sums(cell, terms, acc):
    """Per distinct value of ``cell``: the value, the sum in ``acc`` of its ``terms`` rows in their order, and their count."""
    order = np.argsort(cell, kind="stable")
    cell = cell[order]
    starts = np.flatnonzero(np.diff(cell, prepend=-1))
    sums = np.add.reduceat(terms.astype(acc, copy=False)[order], starts, axis=0)
    return cell[starts], sums, np.diff(starts, append=len(cell))


def _input_grad_at(dz, ground, shape, tiles, w, sites):
    """The input gradient at ``sites`` (n, i, j), and per position its sum over the frames off them.

    ``dz`` (m, 2, 2, Cout) is the conv output's gradient on the reached pool blocks ``tiles`` (n, I, J)
    of an (N, H, W) input, and ``ground`` (H/2 * W/2, 2, 2, Cout), in ``_wide``'s type, per cell its sum
    over the frames where the cell is unreached. A row is ``dz``'s k x k neighbourhood of its site times
    the rotated kernel; every tap lies in a pool block the site reaches, so it has ``conv2d_backward``'s
    bytes. The one-frame conv of ``dz`` summed over the frames plus ``ground``, less the site rows, is the
    sum off the sites; both sums are in ``_wide``, so one that cancels keeps its last bits.
    """
    frames, h, wd = shape
    n, i, j = sites
    k, cout, half, m = w.shape[0], w.shape[3], w.shape[0] // 2, len(n)
    wrot = np.ascontiguousarray(w[::-1, ::-1].transpose(0, 1, 3, 2)).reshape(-1, w.shape[2])
    # each padded cell's row of ``dz``, four to a tile, or the zero row after them
    hp, wp = h + 2 * half, wd + 2 * half
    cells = np.full(frames * hp * wp, 4 * len(dz), dtype=np.int32)
    corner = (tiles[0] * hp + 2 * tiles[1] + half) * wp + 2 * tiles[2] + half
    cells[corner[:, None] + [0, 1, wp, wp + 1]] = np.arange(4 * len(dz)).reshape(-1, 4)
    tap_rows = np.concatenate([dz.reshape(-1, cout), np.zeros((1, cout), dtype=dz.dtype)])
    # at least one frame's rows, as the whole-frame product has: fewer can take
    # another BLAS kernel (one row another routine) and round differently
    g = np.empty((max(m, h * wd), k * k, cout), dtype=dz.dtype)
    g[m:] = 0
    taps = ((n * hp + i) * wp + j)[:, None] + (np.arange(k)[:, None] * wp + np.arange(k)).ravel()
    np.take(tap_rows, cells.take(taps), axis=0, out=g[:m], mode="clip")
    g = g.reshape(len(g), -1)
    rows = (g @ wrot)[:m].astype(dz.dtype, copy=False)
    acc = ground.dtype
    wrot = wrot.astype(acc)
    cell, sums, _ = _cell_sums(tiles[1] * (wd // 2) + tiles[2], dz, acc)
    total = ground.copy()
    total[cell] += sums
    total = total.reshape(h // 2, wd // 2, 2, 2, cout).transpose(0, 2, 1, 3, 4).reshape(1, h, wd, cout)
    off = ops.im2col(total, k) @ wrot
    cell, sums, count = _cell_sums(i * wd + j, g[:m].astype(acc) @ wrot, acc)
    off[cell] -= sums
    off[cell[count == frames]] = 0  # a position that is a site in every frame has no sum off them
    return rows, off.reshape(h, wd, -1)


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
    lit = _sites((frames != 0).any(axis=3))
    cur = (np.zeros((1,) + expected[1:], dtype=x.dtype), frames[lit], lit)
    for n in range(len(config.conv_blocks)):
        cur, entry = _block_forward(cur, len(frames), params[f"conv{n}_w"], params[f"conv{n}_b"], need_cache)
        if need_cache:
            conv_caches.append(entry)

    ground, rows, sites = cur
    pooled = np.repeat(ground, len(frames), axis=0)
    pooled[sites] = rows
    flat = pooled.reshape(len(frames), config.flat_features)
    emb, emb_z = ops.dense_forward(flat, params["embed_w"], params["embed_b"], "relu")
    seq = emb.reshape(batch, config.T, config.frame_embedding)
    h_last, lstm_caches = lstm_forward(seq, params["lstm_wx"], params["lstm_wh"], params["lstm_b"])
    logit, out_z = ops.dense_forward(h_last, params["out_w"], params["out_b"], "none")
    p = ops.sigmoid(logit[:, 0])
    p = np.clip(p, PROB_EPS, 1.0 - PROB_EPS)
    if not need_cache:
        return p, None
    cache = (x.shape, frames.shape, conv_caches, pooled.shape, flat, emb_z, h_last, lstm_caches, out_z, p)
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
    dh_last, grads["out_w"], grads["out_b"] = ops.dense_backward(h_last, params["out_w"], out_z, dlogit, "none")
    dseq, grads["lstm_wx"], grads["lstm_wh"], grads["lstm_b"] = lstm_backward(dh_last, lstm_caches, params["lstm_wx"],
                                                                              params["lstm_wh"])
    demb = dseq.reshape(batch * config.T, config.frame_embedding)
    dflat, grads["embed_w"], grads["embed_b"] = ops.dense_backward(flat, params["embed_w"], emb_z, demb, "relu")
    # the top block's output gradient at its sites, and per cell summed over the frames off them
    dcur = dflat.reshape(pooled_shape)
    sites = conv_caches[-1][3]
    drows = dcur[sites]
    dcur[sites] = 0
    dcur = (drows, dcur.sum(axis=0, dtype=_wide(dcur.dtype)))
    for n in range(len(config.conv_blocks) - 1, -1, -1):
        below = conv_caches[n - 1][3] if n else None
        # each entry is popped into its block's call, so no array of the block above outlives it
        grads[f"conv{n}_w"], grads[f"conv{n}_b"], dcur = _block_backward(params[f"conv{n}_w"], conv_caches.pop(),
                                                                          dcur, below)
    return grads
