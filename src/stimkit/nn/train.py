"""Mini-batch training loop over rasterized windows."""

from __future__ import annotations

import logging
import math

import numpy as np

from ..errors import ConfigError, NumericError
from .checkpoint import ModelCheckpoint
from .model import ModelConfig, backward_batch, forward_batch, init_params
from .optim import TrainConfig, adam_init, adam_step, bce_loss

log = logging.getLogger("stimkit.train")


def train(
    model_config: ModelConfig,
    train_set: list,
    train_config: TrainConfig,
    augmenter=None,
    allow_single_class: bool = False,
):
    """Fit the classifier on a list of RasterClips.

    Each epoch reshuffles the samples and, when an augmenter is given,
    re-renders every sample with a fresh random transform. Returns
    (ModelCheckpoint, history), where history maps "epoch_mean_loss" and
    "epoch_max_grad_norm" (the largest global gradient norm of an epoch's
    steps) to one value per epoch.
    All randomness comes from one generator seeded by the train config, so
    identical inputs give bit-identical results. A non-finite batch loss,
    gradient norm or updated parameter raises NumericError at that step.

    A single-class training set is a configuration error unless the
    caller opts in (cross-validation does, after warning, so degenerate
    folds still complete).
    """
    if not train_set:
        raise ConfigError("train_set", "training set is empty")
    labels = {clip.label for clip in train_set}
    if labels != {0, 1} and not allow_single_class:
        raise ConfigError("train_set", f"need both classes present, got labels {sorted(labels)}")

    params = init_params(model_config)
    state = adam_init(params)
    rng = np.random.Generator(np.random.PCG64(train_config.seed))
    n = len(train_set)
    t = 0
    history: dict[str, list[float]] = {"epoch_mean_loss": [], "epoch_max_grad_norm": []}

    for epoch in range(train_config.epochs):
        order = rng.permutation(n)
        loss_sum = 0.0
        max_grad_norm = 0.0
        for step, start in enumerate(range(0, n, train_config.batch_size)):
            batch_idx = order[start : start + train_config.batch_size]
            xs = []
            ys = []
            for i in batch_idx:
                clip = train_set[i]
                if augmenter is not None:
                    clip = augmenter(clip, rng)
                xs.append(clip.frames)
                ys.append(clip.label)
            x = np.stack(xs).astype(np.float32, copy=False)[:, :, :, :, None]
            y = np.asarray(ys, dtype=np.float32)

            p, cache = forward_batch(params, model_config, x)
            losses, dp = bce_loss(p, y)
            batch_loss = float(losses.sum())
            loss_sum += batch_loss
            grads = backward_batch(params, model_config, cache, dp / len(batch_idx))
            del cache  # free the rest of this step's cache before the next forward
            t += 1
            adam_step(params, grads, state, t, train_config)
            grad_norm = math.sqrt(sum(float(np.square(g, dtype=np.float64).sum()) for g in grads.values()))
            params_finite = all(np.isfinite(v).all() for v in params.values())
            if not (math.isfinite(batch_loss) and math.isfinite(grad_norm) and params_finite):
                finiteness = "finite" if params_finite else "non-finite"
                raise NumericError(f"training diverged: epoch {epoch} step {step}: batch loss {batch_loss}, "
                                   f"gradient norm {grad_norm}, {finiteness} parameters after the update")
            max_grad_norm = max(max_grad_norm, grad_norm)

        mean_loss = loss_sum / n
        history["epoch_mean_loss"].append(mean_loss)
        history["epoch_max_grad_norm"].append(max_grad_norm)
        log.debug("epoch %d: mean loss %.6f, largest gradient norm %.6f", epoch, mean_loss, max_grad_norm)

    checkpoint = ModelCheckpoint(
        config=model_config,
        parameters=params,
        training_metadata={
            "epochs_run": train_config.epochs,
            "final_loss": history["epoch_mean_loss"][-1] if history["epoch_mean_loss"] else None,
            "seed": train_config.seed,
        },
    )
    return checkpoint, history


def predict(checkpoint: ModelCheckpoint, clip_frames) -> float:
    """Probability that a (T, H, W) window shows the positive class."""
    x = np.asarray(clip_frames, dtype=np.float32)[None, ..., None]
    p, _ = forward_batch(checkpoint.parameters, checkpoint.config, x, need_cache=False)
    return float(p[0])


def classify(p: float) -> int:
    """Threshold at exactly 0.5; a tie counts as negative."""
    return 1 if p > 0.5 else 0
