"""Subject-disjoint cross-validation and the F1 metric stack.

Folds partition *subjects*, never clips: every clip (and so every window)
of a person lands in exactly one fold, which is the guarantee that keeps
a model from scoring by recognizing individuals. Fold F1 scores are
averaged arithmetically, never pooled through a merged confusion matrix.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .augment import AugmentSpec, make_training_augmenter
from .data import WindowDataset, WindowParams
from .errors import ConfigError
from .nn.model import ModelConfig
from .nn.optim import TrainConfig
from .nn.train import classify, predict, train
from .raster import RasterSpec, rasterize

log = logging.getLogger("stimkit.evaluate")


@dataclass(frozen=True)
class FoldPlan:
    k: int
    assignments: dict  # subject_id -> fold index
    seed: int

    def subjects_in(self, fold: int) -> list[str]:
        return sorted(s for s, f in self.assignments.items() if f == fold)


def mean_fold_f1(f1_scores) -> float:
    """The report's aggregation rule: plain arithmetic mean of fold F1s."""
    scores = list(f1_scores)
    return sum(scores) / len(scores)


def check_fold_count(k: int) -> None:
    """The one rule on k: a held-out split needs at least 2 folds."""
    if k < 2:
        raise ConfigError("cv.k", f"need at least 2 folds for a held-out split, got {k}")


def subject_disjoint_folds(records, k: int = 3, seed: int = 0, weights: Optional[dict] = None) -> FoldPlan:
    """Partition subjects into k folds balanced by window count.

    Subjects are shuffled by the seeded generator and taken heaviest
    first (the shuffle breaks weight ties); each goes to the fold holding
    the fewest windows so far (ties: fewest subjects, then lowest index).
    Heaviest-first keeps a dominant subject from piling onto a fold that
    already has others. All clips of a subject follow it into its fold.
    """
    check_fold_count(k)
    subjects = []
    for r in records:
        if r.subject_id not in subjects:
            subjects.append(r.subject_id)
    if len(subjects) < k:
        raise ConfigError("cv.k", f"{len(subjects)} subjects cannot fill {k} folds")
    if weights is None:
        weights = {s: 1 for s in subjects}

    rng = np.random.Generator(np.random.PCG64(seed))
    order = [subjects[i] for i in rng.permutation(len(subjects))]
    order.sort(key=lambda s: -int(weights.get(s, 0)))  # stable: ties keep shuffle order

    window_counts = [0] * k
    subject_counts = [0] * k
    assignments = {}
    for subj in order:
        fold = min(range(k), key=lambda f: (window_counts[f], subject_counts[f], f))
        assignments[subj] = fold
        window_counts[fold] += int(weights.get(subj, 0))
        subject_counts[fold] += 1
    return FoldPlan(k=k, assignments=assignments, seed=seed)


def metrics(predicted, labels) -> dict:
    """The report's fields for 0/1 predictions against 0/1 labels: confusion counts, P, R and F1.

    A 0/0 precision or recall is reported as 0, and so is the F1 of P = R = 0;
    each sets ``degenerate``. All three cases are exactly ``tp == 0``.
    """
    pairs = list(zip(predicted, labels, strict=True))
    tp = sum(1 for p, y in pairs if p and y)
    fp = sum(1 for p, y in pairs if p and not y)
    fn = sum(1 for p, y in pairs if y and not p)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return {
        "confusion": {"tp": tp, "fp": fp, "fn": fn, "tn": len(pairs) - tp - fp - fn},
        "precision": precision,
        "recall": recall,
        "f1": 2.0 * precision * recall / (precision + recall) if tp else 0.0,
        "degenerate": tp == 0,
    }


def config_fingerprint(*dicts) -> str:
    blob = json.dumps(list(dicts), sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _fold_seeds(seed: int, fold: int) -> tuple[int, int]:
    state = np.random.SeedSequence((seed, fold)).generate_state(2)
    return int(state[0]), int(state[1])


def fit(windows, model_config: ModelConfig, train_config: TrainConfig, augment_spec: Optional[AugmentSpec],
        raster_spec: RasterSpec, window_params: WindowParams, allow_single_class: bool = False):
    """Train one model on keypoint windows, augmented each epoch when a spec is given.

    The checkpoint records the window, raster and frame geometry that ``predict`` must serve with.
    """
    clips = [rasterize(w, raster_spec) for w in windows]
    augmenter = make_training_augmenter(augment_spec) if augment_spec else None
    checkpoint, history = train(model_config, clips, train_config, augmenter, allow_single_class=allow_single_class)
    checkpoint.training_metadata["raster"] = raster_spec.to_dict()
    checkpoint.training_metadata["window"] = window_params.to_dict()
    checkpoint.training_metadata["frame_size"] = windows[0].frame_size  # saved as [w, h]
    return checkpoint, history


def score(checkpoint, windows, raster_spec: RasterSpec) -> list[float]:
    """Positive-class probability of each window, rendered raw, one forward pass per window."""
    return [predict(checkpoint, rasterize(w, raster_spec).frames) for w in windows]


def cross_validate(
    dataset: WindowDataset,
    model_config: ModelConfig = ModelConfig(),
    train_config: TrainConfig = TrainConfig(),
    augment_spec: Optional[AugmentSpec] = AugmentSpec(),
    k: int = 3,
    seed: int = 0,
    raster_spec: RasterSpec = RasterSpec(),
) -> tuple[dict, list[tuple], list]:
    """Train and score one model per subject-disjoint fold.

    Training windows are augmented each epoch; held-out windows are
    evaluated raw. Each fold runs with seeds derived from (seed, fold),
    so folds are independent and the whole report is reproducible.

    Returns the ``report.json`` document, the ``predictions.csv`` rows
    (header first) and the fold checkpoints, in fold order.
    """
    windows = dataset.windows
    if not windows:
        raise ConfigError("dataset", "no windows to evaluate")
    plan = subject_disjoint_folds(
        dataset.manifest.clips, k=k, seed=seed, weights=dataset.subject_window_counts()
    )
    fingerprint = config_fingerprint(
        model_config.to_dict(),
        train_config.to_dict(),
        augment_spec.to_dict() if augment_spec else None,
        raster_spec.to_dict(),
        dataset.window_params.to_dict(),
        {"k": k, "seed": seed},
    )

    folds = []
    rows = [("fold", "clip_id", "subject_id", "origin_frame", "label", "probability", "predicted")]
    checkpoints = []
    for fold in range(k):
        test_subjects = set(plan.subjects_in(fold))
        train_windows = [w for w in windows if w.subject_id not in test_subjects]
        test_windows = [w for w in windows if w.subject_id in test_subjects]
        train_labels = {w.label for w in train_windows}
        single_class = train_labels != {"positive", "negative"}
        if single_class:
            log.warning("fold %d: training split has labels %s only", fold, sorted(train_labels))

        model_seed, train_seed = _fold_seeds(seed, fold)
        fold_model = replace(model_config, seed=model_seed)
        fold_train = replace(train_config, seed=train_seed)
        try:
            checkpoint, _ = fit(
                train_windows, fold_model, fold_train, augment_spec, raster_spec,
                dataset.window_params, allow_single_class=single_class,
            )
            probabilities = score(checkpoint, test_windows, raster_spec)
        except ConfigError as e:
            raise ConfigError(f"fold[{fold}].{e.field_path}", e.reason) from e

        labels = [int(w.label == "positive") for w in test_windows]
        predicted = [classify(p) for p in probabilities]
        votes = {}  # clip id -> (label, window predictions)
        for w, y, c, p in zip(test_windows, labels, predicted, probabilities):
            rows.append((fold, w.clip_id, w.subject_id, w.origin_frame, y, f"{p:.9f}", c))
            votes.setdefault(w.clip_id, (y, []))[1].append(c)
        clip = metrics([int(sum(v) * 2 > len(v)) for _, v in votes.values()], [y for y, _ in votes.values()])
        folds.append({"fold": fold, "test_subjects": sorted(test_subjects), **metrics(predicted, labels),
                      "clip_confusion": clip["confusion"], "clip_f1": clip["f1"]})
        checkpoints.append(checkpoint)

    report = {
        "folds": folds,
        "mean_f1": mean_fold_f1(f["f1"] for f in folds),
        "clip_mean_f1": mean_fold_f1(f["clip_f1"] for f in folds),
        "config_fingerprint": fingerprint,
        "seed": seed,
    }
    return report, rows, checkpoints
