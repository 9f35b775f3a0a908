import itertools

import numpy as np
import pytest

from stimkit.augment import AugmentSpec
from stimkit.data import build_dataset
from stimkit.errors import ConfigError
from stimkit.evaluate import cross_validate, mean_fold_f1, metrics, subject_disjoint_folds
from stimkit.nn.model import ConvBlock, ModelConfig
from stimkit.nn.optim import TrainConfig
from stimkit.nn.train import classify
from stimkit.pose import ClipRecord, load_manifest
from stimkit.raster import RasterSpec

from conftest import reference_metrics


def _records(subjects, n_frames=75):
    return [
        ClipRecord(
            clip_id=f"{s}_c{i}",
            subject_id=s,
            label="positive" if i % 2 == 0 else "negative",
            fps=30.0,
            keypoint_source=f"{s}_{i}.json",
            frame_range=(0, n_frames - 1),
        )
        for s in subjects
        for i in range(2)
    ]


class TestSubjectDisjointFolds:
    def test_six_subjects_three_folds_two_each(self):
        subjects = [f"s{i}" for i in range(6)]
        plan = subject_disjoint_folds(_records(subjects), k=3, seed=0, weights={s: 4 for s in subjects})
        sizes = [len(plan.subjects_in(f)) for f in range(3)]
        assert sizes == [2, 2, 2]
        all_assigned = set().union(*[plan.subjects_in(f) for f in range(3)])
        assert all_assigned == set(subjects)
        for f in range(3):
            test = set(plan.subjects_in(f))
            train = all_assigned - test
            assert test & train == set()

    def test_heavy_subject_sits_alone(self):
        subjects = [f"s{i}" for i in range(7)]
        weights = {s: 2 for s in subjects}
        weights["s3"] = 90
        plan = subject_disjoint_folds(_records(subjects), k=3, seed=1, weights=weights)
        heavy_fold = plan.assignments["s3"]
        assert plan.subjects_in(heavy_fold) == ["s3"]

    def test_k1_rejected(self):
        with pytest.raises(ConfigError, match="at least 2"):
            subject_disjoint_folds(_records(["a", "b"]), k=1, seed=0)

    def test_fewer_subjects_than_folds_rejected(self):
        with pytest.raises(ConfigError, match="cannot fill"):
            subject_disjoint_folds(_records(["a", "b"]), k=3, seed=0)

    def test_every_fold_nonempty_and_deterministic(self):
        subjects = [f"s{i}" for i in range(5)]
        a = subject_disjoint_folds(_records(subjects), k=3, seed=9)
        b = subject_disjoint_folds(_records(subjects), k=3, seed=9)
        assert a == b
        assert all(a.subjects_in(f) for f in range(3))


def _window_metrics(probabilities, labels):
    """``metrics`` of probabilities, each thresholded by ``classify`` as a fold's windows are."""
    return metrics([classify(p) for p in probabilities], labels)


def _pairs(tp=0, fp=0, fn=0, tn=0):
    """0/1 predictions and labels that make the given confusion counts."""
    return [1] * (tp + fp) + [0] * (fn + tn), [1] * tp + [0] * fp + [1] * fn + [0] * tn


class TestConfusion:
    def test_all_correct(self):
        cm = _window_metrics([0.9, 0.1, 0.8, 0.2], [1, 0, 1, 0])["confusion"]
        assert cm == {"tp": 2, "fp": 0, "fn": 0, "tn": 2}

    def test_documented_example(self):
        cm = _window_metrics([0.9, 0.9, 0.2, 0.6], [1, 1, 0, 0])["confusion"]
        assert (cm["tp"], cm["tn"], cm["fp"], cm["fn"]) == (2, 1, 1, 0)

    def test_empty_inputs_all_zero(self):
        cm = metrics([], [])["confusion"]
        assert cm == {"tp": 0, "fp": 0, "fn": 0, "tn": 0}

    def test_exact_threshold_counts_negative(self):
        cm = _window_metrics([0.5], [1])["confusion"]
        assert cm["fn"] == 1 and cm["tp"] == 0

    @pytest.mark.parametrize(
        "p,positive",
        [
            (0.0, False),
            (0.4999999, False),
            (0.5, False),
            (float(np.nextafter(0.5, 1.0)), True),
            (np.float32(0.5), False),
            (np.float32(np.nextafter(np.float32(0.5), np.float32(1.0))), True),
        ],
    )
    def test_counts_each_probability_as_classify_labels_it(self, p, positive):
        # one 0.5 rule for the report, predict and the CSV, float32 model outputs included
        assert classify(p) == int(positive)
        cm = _window_metrics([p], [1])["confusion"]
        assert (cm["tp"], cm["fn"]) == ((1, 0) if positive else (0, 1))

    def test_total_matches_input_count(self):
        preds = [0.1, 0.6, 0.5, 0.9, 0.3]
        cm = _window_metrics(preds, [0, 1, 1, 1, 0])["confusion"]
        assert sum(cm.values()) == len(preds)

    def test_lengths_must_match(self):
        with pytest.raises(ValueError):
            metrics([1, 0], [1])


class TestPrecisionRecallF1:
    def test_perfect(self):
        m = metrics(*_pairs(tp=3, fp=0, fn=0, tn=5))
        assert m["precision"] == m["recall"] == m["f1"] == 1.0
        assert not m["degenerate"]

    def test_formula_example(self):
        m = metrics(*_pairs(tp=2, fp=1, fn=1, tn=0))
        assert np.isclose(m["precision"], 2 / 3)
        assert np.isclose(m["recall"], 2 / 3)
        assert np.isclose(m["f1"], 2 / 3)

    def test_degenerate_zero_over_zero(self):
        m = metrics(*_pairs(tp=0, fp=0, fn=0, tn=4))
        assert m["f1"] == 0.0 and m["precision"] == 0.0 and m["recall"] == 0.0
        assert m["degenerate"]

    def test_paper_style_mean_aggregation(self):
        mean = mean_fold_f1([0.833, 0.890, 1.000])
        assert abs(mean - 0.9077) <= 0.00005


@pytest.fixture(scope="module")
def mini_cv_report(mini_dataset_module):
    manifest = load_manifest(mini_dataset_module)
    dataset = build_dataset(manifest)
    report = cross_validate(
        dataset,
        model_config=ModelConfig(
            height=32, width=32, conv_blocks=(ConvBlock(4), ConvBlock(8)), frame_embedding=16, lstm_hidden=8
        ),
        train_config=TrainConfig(epochs=2, batch_size=8),
        augment_spec=AugmentSpec(),
        k=3,
        seed=3,
        raster_spec=RasterSpec(width=32, height=32),
    )
    return dataset, report


@pytest.fixture(scope="module")
def mini_dataset_module(tmp_path_factory):
    from stimkit.synth import gen_dataset

    out = tmp_path_factory.mktemp("cv_ds")
    return gen_dataset(out, n_subjects=6, clips_per_subject=2, seed=5)


class TestCrossValidate:
    def test_fold_subjects_are_disjoint(self, mini_cv_report):
        _, (report, _, _) = mini_cv_report
        per_fold = [set(f["test_subjects"]) for f in report["folds"]]
        for i, a in enumerate(per_fold):
            for b in per_fold[i + 1 :]:
                assert a & b == set()

    def test_every_window_evaluated_exactly_once(self, mini_cv_report):
        dataset, (_, rows, _) = mini_cv_report
        evaluated = [(clip_id, origin) for _, clip_id, _, origin, *_ in rows[1:]]
        expected = [(w.clip_id, w.origin_frame) for w in dataset.windows]
        assert sorted(evaluated) == sorted(expected)

    def test_mean_f1_is_arithmetic_mean(self, mini_cv_report):
        _, (report, _, _) = mini_cv_report
        f1s = [f["f1"] for f in report["folds"]]
        assert abs(report["mean_f1"] - sum(f1s) / len(f1s)) < 1e-12

    def test_confusion_totals_match_window_counts(self, mini_cv_report):
        _, (report, rows, _) = mini_cv_report
        for f in report["folds"]:
            assert sum(f["confusion"].values()) == sum(1 for row in rows[1:] if row[0] == f["fold"])

    def test_report_serializes_with_fingerprint(self, mini_cv_report):
        _, (report, _, checkpoints) = mini_cv_report
        assert len(report["config_fingerprint"]) == 64
        assert report["seed"] == 3
        assert len(report["folds"]) == len(checkpoints) == 3

    def test_metrics_invariant_to_prediction_order(self):
        rng = np.random.default_rng(0)
        preds = rng.random(40)
        labels = rng.integers(0, 2, 40)
        base = _window_metrics(preds, labels)
        perm = rng.permutation(40)
        shuffled = _window_metrics(preds[perm], labels[perm])
        assert base == shuffled

    def test_metrics_match_the_reference_on_every_small_confusion(self):
        for counts in itertools.product(range(3), repeat=4):
            pairs = _pairs(*counts)
            assert metrics(*pairs) == reference_metrics(*pairs), counts


class TestBoundaryBehavior:
    def test_one_subject_per_class_k2_runs_with_warning(self, tmp_path, caplog):
        # two subjects, one all-positive and one all-negative: every
        # training split is single-class; the run completes but warns
        from stimkit.pose import write_keypoint_file, write_manifest
        from stimkit.synth import MotionParams, clip_rng, gen_clip, gen_profiles

        kp_dir = tmp_path / "keypoints"
        kp_dir.mkdir()
        clips = []
        profiles = gen_profiles(2, clip_rng(0, "profiles"))
        for i, (profile, label) in enumerate(zip(profiles, ("headbanging", "stable"))):
            params = MotionParams(label, camera_drift_sigma=1.0)
            frames, record = gen_clip(profile, params, 45, rng=clip_rng(0, f"c{i}"), clip_id=f"c{i}")
            write_keypoint_file(kp_dir / f"c{i}.json", frames)
            clips.append((record.clip_id, record.subject_id, record.label, 30.0, f"keypoints/c{i}.json", 0, 44))
        manifest_path = tmp_path / "manifest.json"
        write_manifest(manifest_path, (640, 480), clips)
        dataset = build_dataset(load_manifest(manifest_path))

        with caplog.at_level("WARNING", logger="stimkit.evaluate"):
            report = cross_validate(
                dataset,
                model_config=ModelConfig(
                    height=32, width=32, conv_blocks=(ConvBlock(4),), frame_embedding=8, lstm_hidden=4
                ),
                train_config=TrainConfig(epochs=1, batch_size=4),
                augment_spec=None,
                k=2,
                seed=0,
                raster_spec=RasterSpec(width=32, height=32),
            )
        assert len(report[0]["folds"]) == 2
        assert "training split has labels" in caplog.text
