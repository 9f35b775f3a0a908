"""Binary cross-entropy loss and the Adam parameter update."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..errors import ConfigError, SizeError

LOSS_EPS = 1e-7


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    batch_size: int = 8
    epochs: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate", f"must be > 0, got {self.learning_rate}")
        for name in ("beta1", "beta2"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ConfigError(name, f"must be in (0, 1), got {v}")
        if self.batch_size < 1:
            raise ConfigError("batch_size", f"must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ConfigError("epochs", f"must be >= 0, got {self.epochs}")

    def to_dict(self):
        return asdict(self)


def bce_loss(p, y):
    """Binary cross-entropy on probabilities; returns (loss, dloss/dp).

    Inputs may be scalars or arrays; p is clipped to [1e-7, 1 - 1e-7]
    before the logs, so the loss and gradient are always finite.
    """
    p = np.asarray(p)
    if p.dtype not in (np.float32, np.float64):
        p = p.astype(np.float64)
    p = np.clip(p, LOSS_EPS, 1.0 - LOSS_EPS)
    y = np.asarray(y, dtype=p.dtype)
    loss = -(y * np.log(p) + (1.0 - y) * np.log1p(-p))
    dp = (p - y) / (p * (1.0 - p))
    return loss, dp


def adam_init(params: dict[str, np.ndarray]) -> dict:
    """Zeroed first/second moment accumulators matching the parameter map."""
    return {
        "m": {k: np.zeros_like(v) for k, v in params.items()},
        "v": {k: np.zeros_like(v) for k, v in params.items()},
    }


def adam_step(params, grads, state, t, config: TrainConfig):
    """In-place Adam update with bias correction; t counts from 1."""
    if t < 1:
        raise ConfigError("adam.t", f"step index must be >= 1, got {t}")
    b1, b2 = config.beta1, config.beta2
    lr = config.learning_rate
    eps = config.epsilon
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise SizeError(f"gradient shape {g.shape} != parameter shape {p.shape} for {name!r}")
        m = state["m"][name]
        v = state["v"][name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
    return params, state
