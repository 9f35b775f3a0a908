import argparse
import contextlib
import csv
import io
import json
import logging
import math
import platform
import resource
import struct
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stimkit import cli, imageio
from stimkit.cli import main
from stimkit.errors import StimkitError
from stimkit.nn import ops
from stimkit.nn.checkpoint import MAGIC, ModelCheckpoint, save_checkpoint
from stimkit.nn.gradcheck import micro_config
from stimkit.nn.model import init_params
from stimkit.synth import flow_texture

from conftest import full_body_frame


def run_cli(*argv):
    return main([str(a) for a in argv])


def _micro_checkpoint(path, **metadata):
    """An untrained ``micro_config()`` (T=2, 8x8) checkpoint with the given training metadata."""
    save_checkpoint(ModelCheckpoint(micro_config(), init_params(micro_config()), training_metadata=metadata), path)
    return path


def _make_clip_dir(root, name, n_frames=3):
    clip = root / name
    clip.mkdir(parents=True)
    for i in range(n_frames):
        flat = [0.0] * 75
        flat[0:3] = [100.0 + i, 50.0, 0.9]  # nose
        flat[3:6] = [100.0 + i, 90.0, 0.9]  # neck
        (clip / f"frame_{i:06d}.json").write_text(json.dumps({"people": [{"pose_keypoints_2d": flat}]}))


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

    def test_largest_counts_are_accepted(self, tmp_path, capsys, monkeypatch):
        made = []
        monkeypatch.setattr(cli, "gen_dataset", lambda out, **kwargs: made.append(kwargs) or out)
        assert run_cli("synth", "-o", tmp_path / "d", "--subjects", 1000, "--clips-per-subject", 100, "--seed", 1) == 0
        assert made == [dict(n_subjects=1000, clips_per_subject=100, seed=1, camera_drift_sigma=1.5)]


class TestImportCommand:
    def test_two_clips_make_unset_manifest(self, tmp_path, capsys):
        src = tmp_path / "src"
        _make_clip_dir(src, "clip_a")
        _make_clip_dir(src, "clip_b", n_frames=4)
        out = tmp_path / "out"
        assert run_cli("import", src, "-o", out) == 0
        printed = capsys.readouterr().out
        assert "clip_a: 3 frames" in printed and "clip_b: 4 frames" in printed
        doc = json.loads((out / "manifest.json").read_text())
        assert [c["label"] for c in doc["clips"]] == ["UNSET", "UNSET"]
        assert doc["clips"][0]["end_frame"] == 2

    def test_rerun_is_idempotent(self, tmp_path):
        src = tmp_path / "src"
        _make_clip_dir(src, "clip_a")
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

    @pytest.mark.parametrize("scale", ["0", "-1"])
    def test_zero_and_negative_scale_are_accepted(self, tmp_path, scale):
        a, b = tmp_path / "a.png", tmp_path / "b.png"
        _texture_png(a)
        _texture_png(b, shift=(1.0, 0.0))
        assert run_cli("flowviz", a, b, "-o", tmp_path / "viz", f"--scale={scale}") == 0
        assert (tmp_path / "viz" / "lk_isolated_000.png").exists()

    def test_spacing_one_is_accepted(self, tmp_path):
        a, b = tmp_path / "a.png", tmp_path / "b.png"
        _texture_png(a, size=16)
        _texture_png(b, shift=(1.0, 0.0), size=16)
        assert run_cli("flowviz", a, b, "-o", tmp_path / "viz", "--spacing=1", "--dump-flow") == 0
        assert len(json.loads((tmp_path / "viz" / "flow_lk_000.json").read_text())["points"]) == 16 * 16


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the CLI tunes only glibc's malloc")
class TestParserReuse:
    def test_each_call_parses_its_own_flags_and_defaults(self, tmp_path, mini_dataset, capsys):
        # one parser serves every call of a process, so no call may see an earlier call's flags
        assert cli.build_parser() is cli.build_parser()
        ckpt = _micro_checkpoint(tmp_path / "micro.ckpt")
        kp = Path(mini_dataset).parent / "keypoints" / "synth_000_c00.json"
        size = ("--frame-width", 640, "--frame-height", 480)
        assert run_cli("predict", "-m", ckpt, "-k", kp, *size, "-o", tmp_path / "p.jsonl") == 0
        assert capsys.readouterr().out == ""
        assert run_cli("predict", "-m", ckpt, *size) == 2
        assert "the following arguments are required: -k/--keypoints" in capsys.readouterr().err
        a, b = tmp_path / "a.png", tmp_path / "b.png"
        _texture_png(a, size=100)
        _texture_png(b, shift=(1.0, 0.0), size=100)
        assert run_cli("flowviz", a, b, "-o", tmp_path / "viz") == 0
        assert capsys.readouterr().out.startswith("pair 0: method=lk valid=")  # --method's default
        assert sorted(p.name for p in (tmp_path / "viz").iterdir()) == ["lk_isolated_000.png", "lk_overlay_000.png"]
        assert run_cli("predict", "-m", ckpt, "-k", kp, *size) == 0  # -o's default: stdout
        assert capsys.readouterr().out.splitlines() == (tmp_path / "p.jsonl").read_text().splitlines()


class TestMallocThresholds:
    def _dense_argv(self, tmp_path):
        # 256x256 float64 temporaries are 512 KiB, above glibc's default 128 KiB mmap threshold
        a, b = tmp_path / "a.png", tmp_path / "b.png"
        imageio.write_png(a, (flow_texture(256) * 255).astype(np.uint8))
        imageio.write_png(b, (flow_texture(256, shift=(1.0, 0.5)) * 255).astype(np.uint8))
        return ("flowviz", a, b, "--method", "dense", "-o", tmp_path / "viz")

    def test_repeated_dense_calls_fault_in_no_fresh_pages(self, tmp_path):
        argv = self._dense_argv(tmp_path)
        assert run_cli(*argv) == 0
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert run_cli(*argv) == 0
        assert run_cli(*argv) == 0
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < 100, f"{faults} minor page faults in two repeated dense calls"

    def test_a_libc_that_cannot_be_loaded_is_skipped(self, tmp_path, monkeypatch):
        loads = []

        def no_libc(name):
            loads.append(name)
            raise OSError(f"{name}: cannot open shared object file")

        monkeypatch.setattr(cli, "_malloc_tuned", False)
        monkeypatch.setattr(cli.ctypes, "CDLL", no_libc)
        assert run_cli(*self._dense_argv(tmp_path)) == 0
        assert loads == ["libc.so.6"]


class TestTrainCommand:
    def test_train_writes_checkpoint_and_history(self, mini_run_config, tmp_path):
        assert run_cli("train", "-c", mini_run_config) == 0
        out = tmp_path / "out"
        assert (out / "checkpoint.ckpt").exists()
        history = json.loads((out / "history.json").read_text())
        assert len(history["epoch_mean_loss"]) == 2

    def test_history_records_each_epochs_largest_gradient_norm(self, mini_run_config, tmp_path):
        runs = []
        for _ in range(2):
            assert run_cli("train", "-c", mini_run_config) == 0
            runs.append((tmp_path / "out" / "history.json").read_bytes())
        assert runs[0] == runs[1]
        norms = json.loads(runs[0])["epoch_max_grad_norm"]
        assert len(norms) == 2 and all(math.isfinite(v) and v > 0 for v in norms)

    def test_invalid_zoom_range_exits_2_naming_field(self, mini_run_config, tmp_path, capsys):
        doc = json.loads(Path(mini_run_config).read_text())
        doc["augment"] = {"zoom_range": [0.5, 2.0]}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("train", "-c", bad) == 2
        assert "augment.zoom_range" in capsys.readouterr().err

    def test_negative_seed_exits_2_naming_field(self, mini_run_config, capsys):
        doc = json.loads(Path(mini_run_config).read_text())
        Path(mini_run_config).write_text(json.dumps({**doc, "seed": -1}))
        assert run_cli("train", "-c", mini_run_config) == 2
        assert "seed: must be >= 0" in capsys.readouterr().err

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

    def test_cv_and_predict_run_every_conv_on_tile_columns(self, mini_run_config, mini_dataset, tmp_path,
                                                           monkeypatch, capsys):
        # every block hands conv2d_forward its tile columns and takes no full
        # input gradient from conv2d_backward, so neither op lowers a frame itself
        calls = []
        real_forward, real_backward = ops.conv2d_forward, ops.conv2d_backward

        def conv2d_forward(x, w, b, cols=None):
            calls.append(("forward", cols is not None))
            return real_forward(x, w, b, cols=cols)

        def conv2d_backward(x, w, dy, need_dx=True, cols=None):
            calls.append(("backward", cols is not None and not need_dx))
            return real_backward(x, w, dy, need_dx, cols)

        monkeypatch.setattr(ops, "conv2d_forward", conv2d_forward)
        monkeypatch.setattr(ops, "conv2d_backward", conv2d_backward)
        assert run_cli("cv", "-c", mini_run_config) == 0
        kp = Path(mini_dataset).parent / "keypoints" / "synth_000_c00.json"
        assert run_cli("predict", "-m", tmp_path / "out" / "fold_0.ckpt", "-k", kp) == 0
        assert {kind for kind, _ in calls} == {"forward", "backward"}
        assert all(ok for _, ok in calls)

    def test_failed_checkpoint_write_leaves_no_report(self, mini_run_config, tmp_path, monkeypatch, capsys):
        from stimkit import cli

        real = cli.save_checkpoint

        def save_checkpoint(checkpoint, path):
            if Path(path).name == "fold_1.ckpt":
                raise OSError(28, "No space left on device", str(path))
            return real(checkpoint, path)

        monkeypatch.setattr(cli, "save_checkpoint", save_checkpoint)
        assert run_cli("cv", "-c", mini_run_config) == 4
        assert "No space left on device" in capsys.readouterr().err
        out = tmp_path / "out"
        assert (out / "fold_0.ckpt").exists()
        assert not (out / "report.json").exists()

    def test_predictions_csv_round_trips_any_clip_id(self, mini_run_config, mini_dataset, tmp_path, capsys):
        odd = 'a,"b\nc'
        doc = json.loads(Path(mini_dataset).read_text())
        doc["clips"][0]["id"] = odd
        for clip in doc["clips"]:
            clip["keypoints"] = str(Path(mini_dataset).parent / clip["keypoints"])
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(doc))
        cfg = json.loads(Path(mini_run_config).read_text())
        Path(mini_run_config).write_text(json.dumps({**cfg, "manifest": str(manifest), "train": {"epochs": 1}}))
        assert run_cli("cv", "-c", mini_run_config) == 0
        with open(tmp_path / "out" / "predictions.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert all(len(row) == 7 and None not in row.values() for row in rows)
        assert odd in {row["clip_id"] for row in rows}
        assert {row["clip_id"] for row in rows} <= {clip["id"] for clip in doc["clips"]}

    def test_k_below_2_exits_2_naming_cv_k(self, mini_run_config, capsys):
        doc = json.loads(Path(mini_run_config).read_text())
        Path(mini_run_config).write_text(json.dumps({**doc, "k": 1}))
        assert run_cli("cv", "-c", mini_run_config) == 2
        assert "cv.k: need at least 2 folds" in capsys.readouterr().err

    def test_negative_seed_exits_2_naming_field(self, mini_run_config, capsys):
        doc = json.loads(Path(mini_run_config).read_text())
        Path(mini_run_config).write_text(json.dumps({**doc, "seed": -1}))
        assert run_cli("cv", "-c", mini_run_config) == 2
        assert "seed: must be >= 0" in capsys.readouterr().err

    def test_k_below_2_exits_2_before_reading_keypoints(self, mini_dataset, tmp_path, capsys):
        # a copy of the manifest without its keypoint directory: every clip file is missing
        manifest = tmp_path / "manifest.json"
        manifest.write_bytes(Path(mini_dataset).read_bytes())
        cfg = {"manifest": str(manifest), "output_dir": str(tmp_path / "out"), "seed": 3}
        path = tmp_path / "run.json"
        path.write_text(json.dumps({**cfg, "k": 2}))
        assert run_cli("cv", "-c", path) == 4
        capsys.readouterr()
        path.write_text(json.dumps({**cfg, "k": 1}))
        assert run_cli("cv", "-c", path) == 2
        assert "cv.k: need at least 2 folds" in capsys.readouterr().err


class TestPredictCommand:
    @pytest.fixture()
    def trained(self, mini_run_config, tmp_path):
        run_cli("train", "-c", mini_run_config)
        return tmp_path / "out" / "checkpoint.ckpt"

    def test_short_clip_warns_and_emits_nothing(self, trained, tmp_path, capsys, caplog):
        clip = tmp_path / "short.json"
        docs = []
        for i in range(10):
            flat = [0.0] * 75
            flat[0:3] = [50.0, 50.0, 0.9]
            flat[3:6] = [50.0, 80.0, 0.9]
            docs.append({"people": [{"pose_keypoints_2d": flat}]})
        clip.write_text(json.dumps(docs))
        assert run_cli("predict", "-m", trained, "-k", clip) == 0
        # the warning says it once: the command once followed it with its own "no windows" line
        assert capsys.readouterr() == ("", "")
        assert [r.getMessage() for r in caplog.records] == [f"clip {clip}: 10 frames < window span 31; no windows"]

    def test_truncated_checkpoint_exits_2(self, trained, tmp_path, mini_dataset, capsys):
        cut = tmp_path / "cut.ckpt"
        blob = trained.read_bytes()
        cut.write_bytes(blob[: len(blob) - 100])
        kp = Path(mini_dataset).parent / "keypoints" / "synth_000_c00.json"
        assert run_cli("predict", "-m", cut, "-k", kp) == 2
        assert ": truncated checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--T", 2), ("--stride", 3)])
    def test_window_is_the_trained_window_only(self, tmp_path, mini_dataset, capsys, flag, value):
        # --stride once served windows at a sampling the model never saw; --T could only repeat config.T
        ckpt = _micro_checkpoint(tmp_path / "micro.ckpt", frame_size=[640, 480])
        kp = Path(mini_dataset).parent / "keypoints" / "synth_000_c00.json"
        assert run_cli("predict", "-m", ckpt, "-k", kp, flag, value) == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    def test_serves_a_micro_checkpoint_without_raster_metadata(self, tmp_path, mini_dataset, capsys):
        # the raster defaults to the model's 8x8 input, which once fell below a 16-pixel floor
        ckpt = _micro_checkpoint(tmp_path / "micro.ckpt")
        kp = Path(mini_dataset).parent / "keypoints" / "synth_000_c00.json"
        assert run_cli("predict", "-m", ckpt, "-k", kp, "--frame-width", 640, "--frame-height", 480) == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert lines and all(0.0 < line["probability"] < 1.0 for line in lines)

    def test_checkpoint_of_an_8x8_raster_is_servable(self, mini_dataset, tmp_path, capsys):
        cfg = {
            "manifest": str(mini_dataset),
            "output_dir": str(tmp_path / "out"),
            "seed": 2,
            "raster": {"width": 8, "height": 8},
            "model": {"conv_blocks": [{"filters": 4}], "frame_embedding": 8, "lstm_hidden": 4},
            "train": {"epochs": 1},
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("train", "-c", path) == 0
        kp = Path(mini_dataset).parent / "keypoints" / "synth_000_c00.json"
        capsys.readouterr()
        assert run_cli("predict", "-m", tmp_path / "out" / "checkpoint.ckpt", "-k", kp) == 0
        assert capsys.readouterr().out.count("probability") > 0

    def test_unknown_raster_metadata_key_exits_2(self, tmp_path, mini_dataset, capsys):
        ckpt = _micro_checkpoint(tmp_path / "micro.ckpt", raster={"bogus": 1})
        kp = Path(mini_dataset).parent / "keypoints" / "synth_000_c00.json"
        assert run_cli("predict", "-m", ckpt, "-k", kp) == 2
        err = capsys.readouterr().err
        assert "corrupt checkpoint raster metadata" in err and str(ckpt) in err

    def test_non_numeric_window_metadata_exits_2(self, tmp_path, mini_dataset, capsys):
        ckpt = _micro_checkpoint(tmp_path / "micro.ckpt", window={"T": "seven"})
        kp = Path(mini_dataset).parent / "keypoints" / "synth_000_c00.json"
        assert run_cli("predict", "-m", ckpt, "-k", kp) == 2
        err = capsys.readouterr().err
        assert "corrupt checkpoint window metadata: training_metadata.window.T" in err and str(ckpt) in err

    @pytest.mark.parametrize(
        "key, value, path",
        [("window", {"hop": 0}, "training_metadata.window.hop"),
         ("raster", {"center_mode": "median"}, "training_metadata.raster.center_mode"),
         ("raster", {"width": 16, "height": 16}, "training_metadata.raster: 16x16 is not the model's 8x8 input"),
         ("window", {"T": 3}, "training_metadata.window.T: 3 is not the model's sequence length 2")],
    )
    def test_metadata_rule_violation_exits_2(self, tmp_path, mini_dataset, capsys, key, value, path):
        # the metadata obeys the run config's rules, but is rejected as a corrupt checkpoint
        ckpt = _micro_checkpoint(tmp_path / "micro.ckpt", **{key: value})
        kp = Path(mini_dataset).parent / "keypoints" / "synth_000_c00.json"
        assert run_cli("predict", "-m", ckpt, "-k", kp) == 2
        err = capsys.readouterr().err
        assert f"{ckpt}: corrupt checkpoint {key} metadata: {path}" in err

    def test_non_positive_recorded_frame_size_is_corrupt_metadata(self, tmp_path, mini_dataset, capsys):
        # the flags are checked by their types; a recorded size is checked as checkpoint metadata
        ckpt = _micro_checkpoint(tmp_path / "micro.ckpt", frame_size=[0, 480])
        kp = Path(mini_dataset).parent / "keypoints" / "synth_000_c00.json"
        assert run_cli("predict", "-m", ckpt, "-k", kp) == 2
        assert (f"{ckpt}: corrupt checkpoint frame size metadata: training_metadata.frame_size: must be positive, "
                "got 0x480") in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [(), ("--frame-width", 640), ("--frame-height", 480)])
    def test_frame_size_needs_both_flags_or_a_recorded_size(self, tmp_path, mini_dataset, capsys, flags):
        # this checkpoint records no training frame size
        ckpt = _micro_checkpoint(tmp_path / "micro.ckpt")
        kp = Path(mini_dataset).parent / "keypoints" / "synth_000_c00.json"
        assert run_cli("predict", "-m", ckpt, "-k", kp, *flags) == 2
        err = capsys.readouterr().err
        assert "--frame-width" in err and "--frame-height" in err
        assert run_cli("predict", "-m", ckpt, "-k", kp, "--frame-width", 640, "--frame-height", 480) == 0

    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_non_finite_parameter_exits_2(self, tmp_path, mini_dataset, capsys, value):
        # a NaN output bias once made predict exit 0 printing "probability": NaN
        from stimkit.nn.checkpoint import load_checkpoint

        ckpt = load_checkpoint(_micro_checkpoint(tmp_path / "micro.ckpt", frame_size=[640, 480]))
        ckpt.parameters["out_b"][:] = value
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(ckpt, bad)
        kp = Path(mini_dataset).parent / "keypoints" / "synth_000_c00.json"
        assert run_cli("predict", "-m", bad, "-k", kp) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{bad}: corrupt checkpoint (parameter 'out_b' has non-finite values)" in captured.err

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

        flags = ("--frame-width", manifest_doc["frame_width"], "--frame-height", manifest_doc["frame_height"])
        # with the flags, and without them: the checkpoint records the frame size it was trained at
        for n, frame_flags in enumerate((flags, ())):
            pred_file = tmp_path / f"cross_{n}.jsonl"
            assert run_cli("predict", "-m", out / f"fold_{fold}.ckpt", "-k", kp_path, *frame_flags, "-o", pred_file) == 0
            lines = [json.loads(l) for l in pred_file.read_text().splitlines()]
            got = {line["origin_frame"]: line["probability"] for line in lines}
            for origin, prob in expected:
                assert got[origin] == pytest.approx(prob, abs=1e-9)


class TestExitCodes:
    def test_numeric_failure_maps_to_exit_3(self, mini_run_config, monkeypatch):
        from stimkit import evaluate
        from stimkit.errors import NumericError

        def diverge(*args, **kwargs):
            raise NumericError("training diverged: epoch 0 mean loss nan")

        monkeypatch.setattr(evaluate, "train", diverge)
        assert run_cli("train", "-c", mini_run_config) == 3

    def test_divergence_leaves_no_output_dir(self, mini_run_config, tmp_path, monkeypatch, capsys):
        from stimkit import evaluate
        from stimkit.errors import NumericError

        def diverge(*args, **kwargs):
            raise NumericError("training diverged: epoch 0 mean loss nan")

        monkeypatch.setattr(evaluate, "train", diverge)
        assert run_cli("train", "-c", mini_run_config) == 3
        assert "training diverged" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_divergence_on_the_last_step_exits_3(self, mini_run_config, tmp_path, monkeypatch, capsys):
        # an infinite gradient on the last step of the last epoch once let train exit 0,
        # writing a checkpoint of NaN parameters that predict rejects
        from stimkit.data import build_dataset
        from stimkit.nn import train as train_module
        from stimkit.pose import load_manifest

        doc = json.loads(Path(mini_run_config).read_text())
        windows = len(build_dataset(load_manifest(doc["manifest"])).windows)
        steps_per_epoch = -(-windows // doc["train"]["batch_size"])
        real = train_module.backward_batch
        calls = []

        def backward_batch(*args):
            grads = real(*args)
            calls.append(1)
            if len(calls) == doc["train"]["epochs"] * steps_per_epoch:
                grads["embed_w"][0, 0] = np.inf
            return grads

        monkeypatch.setattr(train_module, "backward_batch", backward_batch)
        assert run_cli("train", "-c", mini_run_config) == 3
        last = f"epoch {doc['train']['epochs'] - 1} step {steps_per_epoch - 1}: "
        assert last in capsys.readouterr().err
        assert not (tmp_path / "out" / "checkpoint.ckpt").exists()

    def test_missing_manifest_maps_to_exit_4(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"manifest": "nope.json", "output_dir": "o", "seed": 1}))
        assert run_cli("train", "-c", cfg) == 4

    def test_unknown_subcommand_exits_2(self, capsys):
        assert run_cli("frobnicate") == 2

    # the documented code of every package error class; a new class needs a row here
    CODES = {"StimkitError": 2, "KeypointParseError": 4, "KeypointFormatError": 2, "SchemaError": 2,
             "ConflictError": 2, "ValidationError": 2, "ConfigError": 2, "SizeError": 2,
             "InvalidSequenceError": 2, "NumericError": 3, "ImageFormatError": 4, "_UsageError": 2}

    def test_every_error_class_exits_with_its_documented_code(self, monkeypatch, capsys):
        classes, todo = [], [StimkitError]
        while todo:
            cls = todo.pop()
            classes.append(cls)
            todo.extend(cls.__subclasses__())
        assert sorted(c.__name__ for c in classes) == sorted(self.CODES)
        ctor_args = {"KeypointParseError": ("clip.json", 7, "bad"), "ConfigError": ("field", "bad")}
        for cls in classes:
            def raise_it(path, cls=cls):
                raise cls(*ctor_args.get(cls.__name__, ("bad",)))

            monkeypatch.setattr(cli, "load_run_config", raise_it)  # the first call of `stimkit train`
            assert run_cli("train", "-c", "run.json") == self.CODES[cls.__name__], cls
            assert "bad" in capsys.readouterr().err


BIG = str(2**64)
# every value is passed as `--flag=value`, so "-inf" is not taken for a flag
VOCAB = ("nan", "inf", "-inf", "0", "-1", BIG, "", "a\0b")
NAMES = frozenset(VOCAB[:6])  # any non-empty text without NUL names a path


class Row(NamedTuple):
    accepts: frozenset = frozenset()  # the values the flag's rule lets through; all other values exit 2
    code: int = 0  # the exit code of an accepted value: 4 for an input path that names no file
    rejects: tuple = ()  # values tried besides VOCAB and `accepts`


# one row per argument of every subcommand, keyed the way argparse names it in its errors
FLAG_TABLE = {
    ("stimkit", "-v/--verbose"): Row(),
    ("stimkit", "-q/--quiet"): Row(),
    ("import", "openpose_dir"): Row(NAMES, 4),
    ("import", "-o/--out"): Row(NAMES),
    ("import", "--fps"): Row(frozenset({BIG, "0.5"})),
    ("import", "--frame-width"): Row(frozenset({"0", "2147483647"}), rejects=("2147483648",)),
    ("import", "--frame-height"): Row(frozenset({"0", "2147483647"}), rejects=("2147483648",)),
    ("flowviz", "frames"): Row(NAMES, 4),
    ("flowviz", "--method"): Row(frozenset({"lk", "dense"})),
    ("flowviz", "-o/--out"): Row(NAMES),
    ("flowviz", "--spacing"): Row(frozenset({"1", "2147483647"}), rejects=("-3", str(2**63))),
    ("flowviz", "--scale"): Row(frozenset({"0", "-1", BIG})),
    ("flowviz", "--ppm"): Row(),
    ("flowviz", "--dump-flow"): Row(),
    ("synth", "-o/--out"): Row(NAMES),
    ("synth", "--subjects"): Row(frozenset({"1"}), rejects=("1001",)),
    ("synth", "--clips-per-subject"): Row(frozenset({"1"}), rejects=("-2", "101")),
    ("synth", "--seed"): Row(frozenset({"0", BIG})),
    ("synth", "--drift"): Row(frozenset({"0", "1000000"}), rejects=("1000000.5", "1e308")),
    ("train", "-c/--config"): Row(NAMES, 4),
    ("cv", "-c/--config"): Row(NAMES, 4),
    ("predict", "-m/--model"): Row(NAMES, 4),
    ("predict", "-k/--keypoints"): Row(NAMES, 4),
    ("predict", "--hop"): Row(frozenset({"1", "2147483647"}), rejects=("2147483648",)),
    ("predict", "--frame-width"): Row(frozenset({"1", "2147483647"}), rejects=("2147483648",)),
    ("predict", "--frame-height"): Row(frozenset({"1", "2147483647"}), rejects=("2147483648",)),
    ("predict", "-o/--out"): Row(NAMES),
}


def _arguments():
    """Every argument of ``build_parser()`` but -h, keyed by command and the name argparse gives it in errors."""
    parsers = {"stimkit": cli.build_parser()}
    for action in parsers["stimkit"]._actions:
        if isinstance(action, argparse._SubParsersAction):
            parsers.update(action.choices)
    return {(cmd, "/".join(a.option_strings) or a.dest): a for cmd, p in parsers.items() for a in p._actions
            if not isinstance(a, (argparse._HelpAction, argparse._SubParsersAction))}


@pytest.fixture(scope="module")
def valid_argv(tmp_path_factory, mini_dataset):
    """Per command, options and positionals that run it; every output path is relative."""
    root = tmp_path_factory.mktemp("flag_inputs")
    _make_clip_dir(root / "openpose", "clip_a")
    frames = [root / "a.png", root / "b.png"]
    _texture_png(frames[0], size=32)
    _texture_png(frames[1], shift=(1.0, 0.0), size=32)
    ckpt = _micro_checkpoint(root / "micro.ckpt", frame_size=[640, 480])
    kp = Path(mini_dataset).parent / "keypoints" / "synth_000_c00.json"
    config = root / "run.json"
    config.write_text(json.dumps({"manifest": str(mini_dataset), "output_dir": "out", "seed": 1}))
    return {
        "import": (["--out=out"], [root / "openpose"]),
        "flowviz": (["--out=out"], frames),
        "synth": (["--out=out", "--subjects=1", "--clips-per-subject=1", "--seed=1"], []),
        "train": ([f"--config={config}"], []),
        "cv": ([f"--config={config}"], []),
        "predict": ([f"--model={ckpt}", f"--keypoints={kp}", "--frame-width=640", "--frame-height=480",
                     "--out=out.jsonl"], []),
    }


def _run_with(valid_argv, key, value):
    """Run ``key``'s command on valid argv with ``key`` set to ``value``, in an empty working directory.

    Returns the exit code, stderr and the names the run left in that directory.
    """
    cmd, name = key
    action = _arguments()[key]
    options, positionals = valid_argv["synth" if cmd == "stimkit" else cmd]
    if action.option_strings:
        flag = f"{action.option_strings[-1]}={value}"
        argv = [flag, "synth", *options] if cmd == "stimkit" else [cmd, *options, flag]
    else:
        argv, positionals = [cmd, *options], [value, *positionals[1:]]
    if positionals:
        argv += ["--", *positionals]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as work, contextlib.chdir(work):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([str(a) for a in argv])
        return code, err.getvalue(), sorted(p.name for p in Path(work).iterdir())


def _flag_table_docs():
    """(command, argument) of each row of docs/formats.md's command-line flag table."""
    text = (Path(__file__).parents[1] / "docs" / "formats.md").read_text()
    section = text.split("## Command-line flags", 1)[1].split("\n## ", 1)[0]
    cells = [line.split("|")[1:3] for line in section.splitlines() if line.startswith("| `")]
    return {(cmd.strip().strip("`"), name.strip().strip("`")) for cmd, name in cells}


class TestFlagTable:
    """Each argument's rule is its argparse type: a value that breaks it exits 2 naming the argument, before
    the command runs, and every other value runs the command to exit 0 (or 4 for an input path naming no file)."""

    def test_every_argument_has_a_row(self):
        assert set(_arguments()) == set(FLAG_TABLE)

    def test_every_argument_has_a_docs_row(self):
        assert _flag_table_docs() == set(_arguments())

    @pytest.mark.parametrize("key", sorted(FLAG_TABLE), ids=" ".join)
    def test_each_value_exits_by_the_rule(self, valid_argv, key):
        row = FLAG_TABLE[key]
        for value in dict.fromkeys((*VOCAB, *sorted(row.accepts), *row.rejects)):
            code, err, left = _run_with(valid_argv, key, value)
            if value in row.accepts:
                assert code == row.code, (value, err)
            else:
                assert code == 2 and f"argument {key[1]}: " in err, (value, err)
            if code:
                assert left == [], (value, left)

    @given(data=st.data())
    def test_drawn_values_keep_the_contract(self, valid_argv, data):
        key = data.draw(st.sampled_from(sorted(FLAG_TABLE)))
        value = data.draw(st.sampled_from(VOCAB) | st.integers().map(str) | st.floats().map(repr)
                          | st.text("ab01-_.e+ \0", max_size=6).filter(lambda v: set(v) != {"."}))
        code, err, left = _run_with(valid_argv, key, value)
        assert code in (0, 2, FLAG_TABLE[key].code), (value, err)
        if code == 2:
            assert f"argument {key[1]}: " in err, (value, err)
        if code:
            assert left == [], (value, left)


_CLIP = {"id": "a", "subject": "s", "label": "positive", "fps": 30, "keypoints": "k.json",
         "start_frame": 0, "end_frame": 9}


def _manifest(clip):
    return json.dumps({"version": 1, "frame_width": 640, "frame_height": 480, "clips": [clip]}).encode()


def _people(person):
    return json.dumps([{"people": [person]}]).encode()


DEEP = b"[" * 100_000  # deeper than the decoder's recursion limit
NOT_UTF8 = b'["\xff"]'


@pytest.mark.parametrize(
    "reader, blob, code",
    [
        *((reader, blob, code) for reader, code in (("config", 2), ("manifest", 2), ("checkpoint", 2),
                                                     ("keypoints", 4), ("frames", 4))
          for blob in (DEEP, NOT_UTF8)),
        ("manifest", b"[]", 2),
        ("manifest", _manifest(5), 2),
        ("manifest", _manifest({**_CLIP, "fps": "x"}), 2),
        ("manifest", _manifest({**_CLIP, "fps": None}), 2),
        ("manifest", _manifest({**_CLIP, "start_frame": "x"}), 2),
        ("manifest", _manifest({**_CLIP, "start_frame": None}), 2),
        ("manifest", _manifest({**_CLIP, "start_frame": -3}), 2),
        ("manifest", _manifest({**_CLIP, "label": "UNSET"}), 2),
        ("keypoints", _people(5), 2),
        ("keypoints", _people({"pose_keypoints_2d": ["x"] * 75}), 2),
        ("keypoints", _people({"pose_keypoints_2d": [[0.0, 0.0, 0.0]] * 25}), 2),
        ("image", b"P5\nxx 2\n255\n" + bytes(4), 4),
        ("image", b"P5\n4 4\n255\n" + bytes(3), 4),
        ("image", imageio._PNG_SIG + b"\x00\x00\x00\x0dIHDR\x00\x00\x00\x10", 4),
    ],
    ids=[f"{reader}_{kind}" for reader in ("config", "manifest", "checkpoint", "keypoints", "frames")
         for kind in ("deep", "not_utf8")]
    + ["manifest_array", "clip_not_object", "fps_string", "fps_null", "start_string", "start_null",
         "start_negative", "label_unset",
         "person_not_object", "keypoints_non_numeric", "keypoints_nested",
         "ppm_header_xx", "ppm_short_payload", "png_truncated"],
)
def test_malformed_reader_input_exits_with_contract_code(tmp_path, capsys, reader, blob, code):
    path = tmp_path / "clip" / f"input.{'png' if reader == 'image' else 'json'}"  # in a per-frame directory
    path.parent.mkdir()
    if reader == "checkpoint":  # the blob is the header
        blob = MAGIC + struct.pack("<I", len(blob)) + blob
    path.write_bytes(blob)
    if reader == "config":
        argv = ("cv", "-c", path)
    elif reader == "manifest":
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"manifest": str(path), "output_dir": str(tmp_path / "out"), "seed": 1}))
        argv = ("train", "-c", cfg)
    elif reader == "checkpoint":
        argv = ("predict", "-m", path, "-k", tmp_path / "unread.json")
    elif reader in ("keypoints", "frames"):
        source = path if reader == "keypoints" else path.parent
        argv = ("predict", "-m", _micro_checkpoint(tmp_path / "micro.ckpt", frame_size=[640, 480]), "-k", source)
    else:
        argv = ("flowviz", path, path, "-o", tmp_path / "flow")
    assert run_cli(*argv) == code
    assert str(path) in capsys.readouterr().err


class TestTrainHoldout:
    def test_holdout_of_every_subject_exits_2_before_the_output_dir_is_made(self, mini_dataset, tmp_path, capsys):
        subjects = sorted({c["subject"] for c in json.loads(Path(mini_dataset).read_text())["clips"]})
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"manifest": str(mini_dataset), "output_dir": str(tmp_path / "out"), "seed": 2,
                                    "holdout_subjects": subjects}))
        assert run_cli("train", "-c", path) == 2
        assert "holdout leaves no training windows" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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


def _clip_with_a_gap(path, frames=60, valid=30):
    """A keypoint clip whose frames after ``valid`` hold no person, so the windows reaching them are dropped."""
    flat = [v for kp in full_body_frame() for v in kp]
    path.write_text(json.dumps([{"people": [{"pose_keypoints_2d": flat}] if i < valid else []}
                                for i in range(frames)]))
    return path


class TestLogging:
    @staticmethod
    def _predict(tmp_path, *flags, out="p.jsonl", **clip):
        ckpt = _micro_checkpoint(tmp_path / "micro.ckpt", frame_size=[640, 480])
        kp = _clip_with_a_gap(tmp_path / "clip.json", **clip)
        return run_cli(*flags, "predict", "-m", ckpt, "-k", kp, "-o", tmp_path / out)

    def test_verbose_shows_dropped_windows(self, tmp_path, capsys):
        assert self._predict(tmp_path, out="plain.jsonl") == 0
        assert capsys.readouterr().err == ""
        assert self._predict(tmp_path, "-v", out="verbose.jsonl") == 0
        assert "INFO stimkit.pose: clip " in capsys.readouterr().err
        assert (tmp_path / "plain.jsonl").read_bytes() == (tmp_path / "verbose.jsonl").read_bytes()

    def test_quiet_hides_warnings(self, tmp_path, capsys, caplog):
        assert self._predict(tmp_path, frames=4, valid=4) == 0
        assert [r.levelname for r in caplog.records] == ["WARNING"]
        caplog.clear()
        assert self._predict(tmp_path, "-q", frames=4, valid=4) == 0
        assert caplog.records == []
        # the warning is the only word on a short clip, so -q leaves none
        assert capsys.readouterr().err == ""

    def test_verbose_and_quiet_exclude_each_other(self, tmp_path, capsys):
        assert self._predict(tmp_path, "-v", "-q") == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_each_call_logs_to_the_stderr_of_its_moment_and_leaves_no_handler(self, tmp_path):
        logger = logging.getLogger("stimkit")
        before = (list(logger.handlers), logger.level)
        for _ in range(2):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                assert self._predict(tmp_path, "-v") == 0
            assert err.getvalue().count("dropped") == 1
            assert (logger.handlers, logger.level) == before

    def test_train_outputs_are_byte_identical_with_and_without_verbose(self, mini_run_config, tmp_path):
        doc = json.loads(Path(mini_run_config).read_text())
        doc["holdout_subjects"] = ["synth_000"]
        outputs = []
        for flags in ((), ("-v",)):
            doc["output_dir"] = str(tmp_path / f"out{len(flags)}")
            path = tmp_path / f"run{len(flags)}.json"
            path.write_text(json.dumps(doc))
            assert run_cli(*flags, "train", "-c", path) == 0
            outputs.append({p.name: p.read_bytes() for p in Path(doc["output_dir"]).iterdir()})
        assert sorted(outputs[0]) == ["checkpoint.ckpt", "history.json"]
        assert outputs[0] == outputs[1]
