import json
from pathlib import Path

import numpy as np
import pytest

from stimkit import imageio
from stimkit.cli import main


def run_cli(*argv):
    return main([str(a) for a in argv])


def _texture_png(path, shift=(0.0, 0.0), size=64):
    ys, xs = np.mgrid[0:size, 0:size].astype(np.float64)
    xs -= shift[0]
    ys -= shift[1]
    img = 0.5 + 0.5 * np.sin(2 * np.pi * xs / 16) * np.cos(2 * np.pi * ys / 12)
    imageio.write_png(path, (img * 255).astype(np.uint8))


class TestSynthCommand:
    def test_writes_dataset_and_is_deterministic(self, tmp_path, capsys):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert run_cli("synth", "-o", d1, "--subjects", 3, "--clips-per-subject", 2, "--seed", 4) == 0
        assert run_cli("synth", "-o", d2, "--subjects", 3, "--clips-per-subject", 2, "--seed", 4) == 0
        assert (d1 / "manifest.json").read_bytes() == (d2 / "manifest.json").read_bytes()
        for p in sorted((d1 / "keypoints").iterdir()):
            assert p.read_bytes() == (d2 / "keypoints" / p.name).read_bytes()


class TestImportCommand:
    def _make_clip_dir(self, root, name, n_frames=3):
        clip = root / name
        clip.mkdir(parents=True)
        for i in range(n_frames):
            flat = [0.0] * 75
            flat[0:3] = [100.0 + i, 50.0, 0.9]  # nose
            flat[3:6] = [100.0 + i, 90.0, 0.9]  # neck
            (clip / f"frame_{i:06d}.json").write_text(
                json.dumps({"people": [{"pose_keypoints_2d": flat}]})
            )

    def test_two_clips_make_unset_manifest(self, tmp_path, capsys):
        src = tmp_path / "src"
        self._make_clip_dir(src, "clip_a")
        self._make_clip_dir(src, "clip_b", n_frames=4)
        out = tmp_path / "out"
        assert run_cli("import", src, "-o", out) == 0
        printed = capsys.readouterr().out
        assert "clip_a: 3 frames" in printed and "clip_b: 4 frames" in printed
        doc = json.loads((out / "manifest.json").read_text())
        assert [c["label"] for c in doc["clips"]] == ["UNSET", "UNSET"]
        assert doc["clips"][0]["end_frame"] == 2

    def test_rerun_is_idempotent(self, tmp_path):
        src = tmp_path / "src"
        self._make_clip_dir(src, "clip_a")
        out = tmp_path / "out"
        run_cli("import", src, "-o", out)
        first = {p.name: p.read_bytes() for p in out.rglob("*.json")}
        run_cli("import", src, "-o", out)
        second = {p.name: p.read_bytes() for p in out.rglob("*.json")}
        assert first == second

    def test_empty_dir_exits_2(self, tmp_path, capsys):
        src = tmp_path / "empty"
        src.mkdir()
        assert run_cli("import", src, "-o", tmp_path / "out") == 2


class TestFlowvizCommand:
    def test_six_frames_make_five_pairs(self, tmp_path):
        frames = []
        for i in range(6):
            p = tmp_path / f"f{i}.png"
            _texture_png(p, shift=(0.5 * i, 0.0))
            frames.append(p)
        out = tmp_path / "viz"
        assert run_cli("flowviz", *frames, "--method", "dense", "-o", out) == 0
        assert len(list(out.glob("dense_hsv_*.png"))) == 5

    def test_identical_frames_render_black(self, tmp_path):
        a, b = tmp_path / "a.png", tmp_path / "b.png"
        _texture_png(a)
        _texture_png(b)
        out = tmp_path / "viz"
        assert run_cli("flowviz", a, b, "--method", "dense", "-o", out) == 0
        img = imageio.read_png(out / "dense_hsv_000.png")
        assert img.max() == 0

    def test_lk_lattice_matches_formula(self, tmp_path):
        a, b = tmp_path / "a.png", tmp_path / "b.png"
        _texture_png(a, size=100)
        _texture_png(b, shift=(1.0, 0.0), size=100)
        out = tmp_path / "viz"
        assert run_cli("flowviz", a, b, "--method", "lk", "-o", out, "--dump-flow") == 0
        dump = json.loads((out / "flow_lk_000.json").read_text())
        assert len(dump["points"]) == 10 * 10
        assert (out / "lk_overlay_000.png").exists()
        assert (out / "lk_isolated_000.png").exists()

    def test_single_frame_is_usage_error(self, tmp_path, capsys):
        a = tmp_path / "a.png"
        _texture_png(a)
        assert run_cli("flowviz", a, "-o", tmp_path / "viz") == 2


class TestTrainCommand:
    def test_train_writes_checkpoint_and_history(self, mini_run_config, tmp_path):
        assert run_cli("train", "-c", mini_run_config) == 0
        out = tmp_path / "out"
        assert (out / "checkpoint.ckpt").exists()
        history = json.loads((out / "history.json").read_text())
        assert len(history["epoch_mean_loss"]) == 2

    def test_invalid_zoom_range_exits_2_naming_field(self, mini_run_config, tmp_path, capsys):
        doc = json.loads(Path(mini_run_config).read_text())
        doc["augment"] = {"zoom_range": [0.5, 2.0]}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("train", "-c", bad) == 2
        assert "augment.zoom_range" in capsys.readouterr().err

    def test_same_config_and_seed_identical_checkpoint_bytes(self, mini_dataset, tmp_path):
        ckpts = []
        for name in ("r1", "r2"):
            cfg = {
                "manifest": str(mini_dataset),
                "output_dir": str(tmp_path / name),
                "seed": 8,
                "raster": {"width": 32, "height": 32},
                "model": {"conv_blocks": [{"filters": 4}], "frame_embedding": 8, "lstm_hidden": 4},
                "train": {"epochs": 1, "batch_size": 8},
            }
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(cfg))
            assert run_cli("train", "-c", path) == 0
            ckpts.append((tmp_path / name / "checkpoint.ckpt").read_bytes())
        assert ckpts[0] == ckpts[1]


class TestCvCommand:
    def test_cv_writes_report_and_fold_checkpoints(self, mini_run_config, tmp_path, capsys):
        manifest_path = Path(json.loads(Path(mini_run_config).read_text())["manifest"])
        before = {p: p.read_bytes() for p in sorted(manifest_path.parent.rglob("*.json"))}
        assert run_cli("cv", "-c", mini_run_config) == 0
        after = {p: p.read_bytes() for p in sorted(manifest_path.parent.rglob("*.json"))}
        assert before == after  # inputs never mutated
        out = tmp_path / "out"
        report = json.loads((out / "report.json").read_text())
        assert len(report["folds"]) == 3
        f1s = [f["f1"] for f in report["folds"]]
        assert abs(report["mean_f1"] - sum(f1s) / 3) < 1e-12
        assert (out / "predictions.csv").exists()
        for fold in range(3):
            assert (out / f"fold_{fold}.ckpt").exists()
        printed = capsys.readouterr().out
        assert "mean F1 (windows):" in printed


class TestPredictCommand:
    @pytest.fixture()
    def trained(self, mini_run_config, tmp_path):
        run_cli("train", "-c", mini_run_config)
        return tmp_path / "out" / "checkpoint.ckpt"

    def test_short_clip_warns_and_emits_nothing(self, trained, tmp_path, capsys):
        clip = tmp_path / "short.json"
        docs = []
        for i in range(10):
            flat = [0.0] * 75
            flat[0:3] = [50.0, 50.0, 0.9]
            flat[3:6] = [50.0, 80.0, 0.9]
            docs.append({"people": [{"pose_keypoints_2d": flat}]})
        clip.write_text(json.dumps(docs))
        assert run_cli("predict", "-m", trained, "-k", clip) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no windows" in captured.err

    def test_truncated_checkpoint_exits_2(self, trained, tmp_path, mini_dataset, capsys):
        cut = tmp_path / "cut.ckpt"
        blob = trained.read_bytes()
        cut.write_bytes(blob[: len(blob) - 100])
        kp = Path(mini_dataset).parent / "keypoints" / "synth_000_c00.json"
        assert run_cli("predict", "-m", cut, "-k", kp) == 2
        assert ": truncated checkpoint" in capsys.readouterr().err

    def test_zero_weight_checkpoint_gives_half(self, trained, tmp_path, mini_dataset, capsys):
        from stimkit.nn.checkpoint import load_checkpoint, save_checkpoint

        ckpt = load_checkpoint(trained)
        ckpt.parameters["out_w"][:] = 0.0
        ckpt.parameters["out_b"][:] = 0.0
        zeroed = tmp_path / "zero.ckpt"
        save_checkpoint(ckpt, zeroed)
        kp = Path(mini_dataset).parent / "keypoints" / "synth_000_c00.json"
        out_file = tmp_path / "preds.jsonl"
        assert run_cli(
            "predict", "-m", zeroed, "-k", kp, "--frame-width", 640, "--frame-height", 480,
            "-o", out_file,
        ) == 0
        lines = [json.loads(l) for l in out_file.read_text().splitlines()]
        assert lines
        assert all(l["probability"] == 0.5 for l in lines)
        assert all(l["predicted"] == "negative" for l in lines)

    def test_predictions_match_cv_fold_model(self, mini_run_config, tmp_path):
        assert run_cli("cv", "-c", mini_run_config) == 0
        out = tmp_path / "out"
        report = json.loads((out / "report.json").read_text())
        rows = (out / "predictions.csv").read_text().splitlines()[1:]
        by_clip = {}
        for row in rows:
            fold, clip_id, subject, origin, label, prob, pred = row.split(",")
            by_clip.setdefault((int(fold), clip_id), []).append((int(origin), float(prob)))

        (fold, clip_id), expected = sorted(by_clip.items())[0]
        manifest_doc = json.loads(Path(json.loads(Path(mini_run_config).read_text())["manifest"]).read_text())
        entry = next(c for c in manifest_doc["clips"] if c["id"] == clip_id)
        kp_path = Path(json.loads(Path(mini_run_config).read_text())["manifest"]).parent / entry["keypoints"]

        pred_file = tmp_path / "cross.jsonl"
        assert run_cli(
            "predict", "-m", out / f"fold_{fold}.ckpt", "-k", kp_path,
            "--frame-width", manifest_doc["frame_width"], "--frame-height", manifest_doc["frame_height"],
            "-o", pred_file,
        ) == 0
        got = {json.loads(l)["origin_frame"]: json.loads(l)["probability"] for l in pred_file.read_text().splitlines()}
        for origin, prob in expected:
            assert got[origin] == pytest.approx(prob, abs=1e-9)


class TestExitCodes:
    def test_numeric_failure_maps_to_exit_3(self, mini_run_config, monkeypatch):
        from stimkit import cli
        from stimkit.errors import NumericError

        def diverge(*args, **kwargs):
            raise NumericError("training diverged: epoch 0 mean loss nan")

        monkeypatch.setattr(cli, "train", diverge)
        assert run_cli("train", "-c", mini_run_config) == 3

    def test_missing_manifest_maps_to_exit_4(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"manifest": "nope.json", "output_dir": "o", "seed": 1}))
        assert run_cli("train", "-c", cfg) == 4

    def test_unknown_subcommand_exits_2(self, capsys):
        assert run_cli("frobnicate") == 2


class TestTrainHoldout:
    def test_holdout_subjects_excluded_and_scored(self, mini_dataset, tmp_path):
        cfg = {
            "manifest": str(mini_dataset),
            "output_dir": str(tmp_path / "out"),
            "seed": 2,
            "raster": {"width": 32, "height": 32},
            "model": {"conv_blocks": [{"filters": 4}], "frame_embedding": 8, "lstm_hidden": 4},
            "train": {"epochs": 1, "batch_size": 8},
            "holdout_subjects": ["synth_000", "synth_001"],
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("train", "-c", path) == 0
        history = json.loads((tmp_path / "out" / "history.json").read_text())
        assert history["holdout"]["subjects"] == ["synth_000", "synth_001"]
        assert history["holdout"]["windows"] > 0
        assert 0.0 <= history["holdout"]["f1"] <= 1.0

    def test_unknown_holdout_subject_exits_2(self, mini_dataset, tmp_path, capsys):
        cfg = {
            "manifest": str(mini_dataset),
            "output_dir": str(tmp_path / "out"),
            "seed": 2,
            "holdout_subjects": ["nobody"],
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("train", "-c", path) == 2
        assert "holdout_subjects" in capsys.readouterr().err
