import json

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "stimkit",
    derandomize=True,
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("stimkit")


def make_pose_frame_json(keypoints, extra_people=()):
    """One per-frame keypoint document from a list of (x, y, c) triples."""
    flat = [v for kp in keypoints for v in kp]
    people = [{"pose_keypoints_2d": flat}]
    for person in extra_people:
        people.append({"pose_keypoints_2d": [v for kp in person for v in kp]})
    return json.dumps({"people": people}).encode()


def full_body_frame(confidence=0.9, base=(100.0, 80.0)):
    """25 keypoints, all present, spread on a grid."""
    return [(base[0] + 7.0 * i, base[1] + 3.0 * i, confidence) for i in range(25)]


@pytest.fixture(scope="session")
def mini_dataset(tmp_path_factory):
    """A small labeled synthetic dataset on disk, shared across tests."""
    from stimkit.synth import gen_dataset

    out = tmp_path_factory.mktemp("mini_ds")
    manifest_path = gen_dataset(out, n_subjects=6, clips_per_subject=2, seed=5)
    return manifest_path


@pytest.fixture()
def mini_run_config(mini_dataset, tmp_path):
    """A fast RunConfig JSON against the mini dataset."""
    cfg = {
        "manifest": str(mini_dataset),
        "output_dir": str(tmp_path / "out"),
        "seed": 3,
        "k": 3,
        "raster": {"width": 32, "height": 32},
        "model": {"conv_blocks": [{"filters": 4}, {"filters": 8}], "frame_embedding": 16, "lstm_hidden": 8},
        "train": {"epochs": 2, "batch_size": 8},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return path


def window_fixture(coords_per_frame, frame_size=(640, 480), label="positive", stride=5):
    """Build a KeypointSequence from per-frame keypoint coordinate lists.

    Each entry is a list of up to 6 (x, y) pairs; missing entries are
    absent points.
    """
    from stimkit.pose import KeypointSequence

    T = len(coords_per_frame)
    coords = np.zeros((T, 6, 2))
    present = np.zeros((T, 6), dtype=bool)
    for t, pts in enumerate(coords_per_frame):
        for slot, xy in enumerate(pts):
            if xy is not None:
                coords[t, slot] = xy
                present[t, slot] = True
    return KeypointSequence(
        clip_id="fixture",
        subject_id="subj",
        label=label,
        coords=coords,
        present=present,
        stride=stride,
        origin_frame=0,
        frame_size=frame_size,
    )


def reference_metrics(predicted, labels):
    """A report's confusion counts, precision, recall, F1 and 0/0 flag, written out apart from ``evaluate.metrics``.

    A 0/0 precision or recall counts as 0 and flags the result; so does an
    F1 whose precision and recall are both 0.
    """
    cm = {"tp": 0, "fp": 0, "fn": 0, "tn": 0}
    for p, y in zip(predicted, labels):
        cm[("t" if p == y else "f") + ("p" if p else "n")] += 1
    precision = cm["tp"] / (cm["tp"] + cm["fp"]) if cm["tp"] + cm["fp"] else 0.0
    recall = cm["tp"] / (cm["tp"] + cm["fn"]) if cm["tp"] + cm["fn"] else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    degenerate = cm["tp"] + cm["fp"] == 0 or cm["tp"] + cm["fn"] == 0 or precision + recall == 0
    return {"confusion": cm, "precision": precision, "recall": recall, "f1": f1, "degenerate": degenerate}
