"""Finite-difference verification of the analytic gradients.

Runs in float64: central differences at eps=1e-3 resolve gradients to
roughly 1e-7 relative there, far below the 1e-4 pass bar.
"""

from __future__ import annotations

import numpy as np

from .model import ConvBlock, ModelConfig, backward_batch, forward_batch, init_params
from .optim import bce_loss


def micro_config(seed: int = 0) -> ModelConfig:
    """A tiny configuration sized for exhaustive finite differences."""
    return ModelConfig(
        T=2,
        height=8,
        width=8,
        channels=1,
        conv_blocks=(ConvBlock(4),),
        frame_embedding=8,
        lstm_hidden=4,
        seed=seed,
    )


def _loss(params, config, x, y):
    p, _ = forward_batch(params, config, x, need_cache=False)
    losses, _ = bce_loss(p, y)
    return float(losses.sum())


def analytic_grads(params, config, x, y):
    p, cache = forward_batch(params, config, x)
    _, dp = bce_loss(p, y)
    return backward_batch(params, config, cache, dp)


def finite_difference_grads(params, config, x, y, epsilon: float = 1e-3):
    """Central-difference gradient of the summed loss for every parameter."""
    grads = {}
    for name, p in params.items():
        g = np.zeros_like(p)
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            up = _loss(params, config, x, y)
            flat[i] = orig - epsilon
            down = _loss(params, config, x, y)
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * epsilon)
        grads[name] = g
    return grads


def max_relative_error(analytic: dict, numeric: dict) -> tuple[float, dict]:
    """Worst |ga - gn| / max(|ga|, |gn|, 1e-8) over all parameters."""
    worst = 0.0
    per_param = {}
    for name in analytic:
        ga = analytic[name].reshape(-1)
        gn = numeric[name].reshape(-1)
        denom = np.maximum(np.maximum(np.abs(ga), np.abs(gn)), 1e-8)
        err = float(np.max(np.abs(ga - gn) / denom)) if ga.size else 0.0
        per_param[name] = err
        worst = max(worst, err)
    return worst, per_param


def grad_check(config: ModelConfig, clip_frames, label, epsilon: float = 1e-3):
    """End-to-end gradient check on one window; returns (max_err, per_param).

    Parameters are drawn in float64 from the config seed; the input window
    is cast to float64 as well.
    """
    params = init_params(config, dtype=np.float64)
    x = np.asarray(clip_frames, dtype=np.float64)
    if x.ndim == 3:
        x = x[:, :, :, None]
    x = x[None]
    y = np.asarray([label], dtype=np.float64)
    ga = analytic_grads(params, config, x, y)
    gn = finite_difference_grads(params, config, x, y, epsilon)
    return max_relative_error(ga, gn)
