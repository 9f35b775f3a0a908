"""Generate one workload's inputs from its seed.

    python3 perfbench/setup_inputs.py <workload> <seed> <out_dir>

Runs as its own process so that the set-up time the benchmark reports
includes interpreter start and the stimkit import. The same seed writes
byte-identical inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import numpy as np  # noqa: E402

from stimkit import imageio  # noqa: E402
from stimkit.cli import main as stimkit_main  # noqa: E402

# The repo's default synthetic dataset (12 subjects x 6 clips, 140 windows):
# a fixed input size, so cv and training cost does not vary with the seed.
DEFAULT_DATASET_SEED = 1
CV_EPOCHS = 1
PREDICT_TRAIN_SUBJECTS = 4  # the checkpoint's quality is not measured; keep set-up short
PREDICT_SUBJECTS = 20  # 120 clips: one pass holds >= 100 calls
FLOW_FRAMES = 3
FLOW_SIZE = (640, 480)


def cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = stimkit_main([str(a) for a in argv])
    if code != 0:
        raise SystemExit(f"stimkit {' '.join(map(str, argv))}: exit {code}")


def write_config(path: Path, manifest: str, output_dir: str, seed: int) -> None:
    doc = {"manifest": manifest, "output_dir": output_dir, "seed": seed, "train": {"epochs": CV_EPOCHS}}
    path.write_text(json.dumps(doc, sort_keys=True) + "\n")


def setup_cv(out: Path, seed: int) -> None:
    cli("synth", "-o", out / "data", "--seed", DEFAULT_DATASET_SEED)
    write_config(out / "cv.json", "data/manifest.json", "cv_out", seed)
    # a 3-subject dataset for the untimed warm-up run
    cli("synth", "-o", out / "warm", "--seed", DEFAULT_DATASET_SEED + 1, "--subjects", 3, "--clips-per-subject", 2)
    write_config(out / "warm.json", "warm/manifest.json", "warm_out", seed)


def setup_predict(out: Path, seed: int) -> None:
    cli("synth", "-o", out / "train_data", "--seed", DEFAULT_DATASET_SEED, "--subjects", PREDICT_TRAIN_SUBJECTS)
    write_config(out / "train.json", "train_data/manifest.json", "model", seed)
    cli("train", "-c", out / "train.json")
    # scored clips come from another draw than the checkpoint's training set; the draw is
    # fixed so the mix of 1-, 2- and 3-window clips (and the median's class) is too
    cli("synth", "-o", out / "clips", "--seed", DEFAULT_DATASET_SEED + 1, "--subjects", PREDICT_SUBJECTS)


def setup_flow(out: Path, seed: int) -> None:
    from bench_backends import _texture

    rng = np.random.default_rng(seed)
    angle = rng.uniform(0.0, 2.0 * np.pi)
    magnitude = rng.uniform(0.5, 1.5)
    shift = (magnitude * np.cos(angle), magnitude * np.sin(angle))
    origin = rng.uniform(0.0, 64.0, size=2)
    width, height = FLOW_SIZE
    frames = out / "frames"
    frames.mkdir(parents=True)
    for i in range(FLOW_FRAMES):
        img = _texture(width, shift=(origin[0] + i * shift[0], origin[1] + i * shift[1]))[:height]
        imageio.write_image(frames / f"frame_{i:02d}.png", np.clip(img * 255.0 + 0.5, 0, 255).astype(np.uint8))
    (out / "shift.json").write_text(json.dumps({"dx": shift[0], "dy": shift[1]}) + "\n")


SETUPS = {"cv-train": setup_cv, "predict-clips": setup_predict, "flow-pairs": setup_flow}

if __name__ == "__main__":
    workload, seed, out_dir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    out_dir.mkdir(parents=True, exist_ok=True)
    SETUPS[workload](out_dir, seed)
