"""The clip classifier: a shared per-frame CNN feeding an LSTM.

Every frame of a window passes through the same convolutional feature
extractor (one parameter set regardless of sequence length), the per-frame
embeddings run through an LSTM in time order, and the final hidden state
drives a single sigmoid unit. Probabilities are clipped to
[1e-7, 1 - 1e-7] so downstream log-losses stay finite.
"""

from __future__ import annotations

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
        # the weight gradient reuses these columns, so the training cache keeps
        # them; without a cache the conv lowers its input a few frames at a time
        cols = ops.im2col(cur, block.kernel) if need_cache else None
        a = ops.conv2d_forward(cur, params[f"conv{n}_w"], params[f"conv{n}_b"], cols=cols)
        np.maximum(a, 0, out=a)  # ReLU without a second full-size array
        pooled, idx = ops.maxpool2_forward(a, need_argmax=need_cache)
        if need_cache:
            conv_caches.append((cur, cols, a.shape, pooled, idx))
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
    for n in range(len(config.conv_blocks) - 1, -1, -1):
        cur_in, cols, a_shape, pooled, idx = conv_caches.pop()
        # the pool gradient reaches only each block's argmax, where the
        # pre-activation is > 0 exactly when the pooled max is: so the ReLU
        # gradient is taken on the quarter-size pooled array
        dz = ops.maxpool2_backward(a_shape, idx, ops.relu_backward(pooled, dcur))
        dcur, grads[f"conv{n}_w"], grads[f"conv{n}_b"] = ops.conv2d_backward(
            cur_in, params[f"conv{n}_w"], dz, need_dx=(n > 0), cols=cols
        )
    return grads
