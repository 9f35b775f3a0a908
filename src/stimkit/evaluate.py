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
from dataclasses import dataclass, field, replace
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


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    def __post_init__(self):
        for name in ("tp", "fp", "fn", "tn"):
            if getattr(self, name) < 0:
                raise ConfigError(f"confusion.{name}", "counts must be >= 0")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    def to_dict(self):
        return {"tp": self.tp, "fp": self.fp, "fn": self.fn, "tn": self.tn}


@dataclass(frozen=True)
class Metrics:
    precision: float
    recall: float
    f1: float
    degenerate: bool  # any 0/0 encountered; that ratio reported as 0


@dataclass
class FoldResult:
    fold: int
    test_subjects: list[str]
    confusion: ConfusionMatrix
    metrics: Metrics
    clip_confusion: ConfusionMatrix
    clip_metrics: Metrics
    predictions: list[dict] = field(default_factory=list, repr=False)
    checkpoint: object = field(default=None, repr=False)  # ModelCheckpoint, not serialized

    def to_dict(self):
        return {
            "fold": self.fold,
            "test_subjects": self.test_subjects,
            "confusion": self.confusion.to_dict(),
            "precision": self.metrics.precision,
            "recall": self.metrics.recall,
            "f1": self.metrics.f1,
            "degenerate": self.metrics.degenerate,
            "clip_confusion": self.clip_confusion.to_dict(),
            "clip_f1": self.clip_metrics.f1,
        }


@dataclass
class CvReport:
    per_fold: list[FoldResult]
    mean_f1: float
    clip_mean_f1: float
    config_fingerprint: str
    seed: int

    def to_dict(self):
        return {
            "folds": [f.to_dict() for f in self.per_fold],
            "mean_f1": self.mean_f1,
            "clip_mean_f1": self.clip_mean_f1,
            "config_fingerprint": self.config_fingerprint,
            "seed": self.seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=1) + "\n"

    def prediction_rows(self) -> list[tuple]:
        rows = [("fold", "clip_id", "subject_id", "origin_frame", "label", "probability", "predicted")]
        for fr in self.per_fold:
            for p in fr.predictions:
                rows.append(
                    (
                        fr.fold,
                        p["clip_id"],
                        p["subject_id"],
                        p["origin_frame"],
                        p["label"],
                        f"{p['probability']:.9f}",
                        p["predicted"],
                    )
                )
        return rows


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


def confusion(preds, labels) -> ConfusionMatrix:
    """Count outcomes, each probability thresholded by :func:`classify`."""
    preds = list(preds)
    labels = list(labels)
    if len(preds) != len(labels):
        raise ConfigError("confusion", f"{len(preds)} predictions vs {len(labels)} labels")
    tp = fp = fn = tn = 0
    for p, y in zip(preds, labels):
        predicted = classify(p)
        if predicted and y:
            tp += 1
        elif predicted and not y:
            fp += 1
        elif not predicted and y:
            fn += 1
        else:
            tn += 1
    return ConfusionMatrix(tp, fp, fn, tn)


def precision_recall_f1(cm: ConfusionMatrix) -> Metrics:
    """P, R and their harmonic mean; 0/0 ratios report 0 with a flag."""
    degenerate = False
    if cm.tp + cm.fp == 0:
        precision, degenerate = 0.0, True
    else:
        precision = cm.tp / (cm.tp + cm.fp)
    if cm.tp + cm.fn == 0:
        recall, degenerate = 0.0, True
    else:
        recall = cm.tp / (cm.tp + cm.fn)
    if precision + recall == 0:
        return Metrics(precision, recall, 0.0, True)
    return Metrics(precision, recall, 2.0 * precision * recall / (precision + recall), degenerate)


def config_fingerprint(*dicts) -> str:
    blob = json.dumps(list(dicts), sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _fold_seeds(seed: int, fold: int) -> tuple[int, int]:
    state = np.random.SeedSequence((seed, fold)).generate_state(2)
    return int(state[0]), int(state[1])


def _clip_vote(predictions) -> tuple[list, list]:
    by_clip: dict[str, list] = {}
    labels: dict[str, int] = {}
    for p in predictions:
        by_clip.setdefault(p["clip_id"], []).append(p["predicted"])
        labels[p["clip_id"]] = p["label"]
    votes = []
    truth = []
    for clip_id, preds in by_clip.items():
        votes.append(1.0 if sum(preds) * 2 > len(preds) else 0.0)
        truth.append(labels[clip_id])
    return votes, truth


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
) -> CvReport:
    """Train and score one model per subject-disjoint fold.

    Training windows are augmented each epoch; held-out windows are
    evaluated raw. Each fold runs with seeds derived from (seed, fold),
    so folds are independent and the whole report is reproducible.
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

    fold_results = []
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

        predictions = [
            {"clip_id": w.clip_id, "subject_id": w.subject_id, "origin_frame": w.origin_frame,
             "label": int(w.label == "positive"), "probability": p, "predicted": classify(p)}
            for w, p in zip(test_windows, probabilities)
        ]

        cm = confusion([p["probability"] for p in predictions], [p["label"] for p in predictions])
        votes, truth = _clip_vote(predictions)
        clip_cm = confusion(votes, truth)
        fold_results.append(
            FoldResult(
                fold=fold,
                test_subjects=sorted(test_subjects),
                confusion=cm,
                metrics=precision_recall_f1(cm),
                clip_confusion=clip_cm,
                clip_metrics=precision_recall_f1(clip_cm),
                predictions=predictions,
                checkpoint=checkpoint,
            )
        )

    return CvReport(
        per_fold=fold_results,
        mean_f1=mean_fold_f1(f.metrics.f1 for f in fold_results),
        clip_mean_f1=mean_fold_f1(f.clip_metrics.f1 for f in fold_results),
        config_fingerprint=fingerprint,
        seed=seed,
    )
