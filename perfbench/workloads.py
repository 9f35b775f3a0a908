"""The three workloads: closed-loop stimkit CLI calls and their output checks.

Every call goes through ``stimkit.cli.main`` in this process, one caller
that waits for each reply. Reference values for the checks come from the
library, computed before the timed loop.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import statistics
import time
from pathlib import Path

import numpy as np

import stimkit.cli
from stimkit import imageio
from stimkit.cli import _to_u8
from stimkit.data import WindowParams, build_dataset
from stimkit.flow import farneback_dense, lucas_kanade_grid
from stimkit.flowviz import flow_to_hsv, render_arrows
from stimkit.nn.checkpoint import load_checkpoint
from stimkit.nn.model import PROB_EPS, ModelConfig
from stimkit.nn.optim import TrainConfig
from stimkit.nn.train import predict
from stimkit.pose import filter_head, load_clip_frames, load_manifest, sample_windows
from stimkit.raster import RasterSpec, rasterize

import tracer as tr

CV_MIN_RUNS = 3  # a cv run takes ~12 s; the median of three damps this machine's noise
PREDICT_MIN_CALLS = 100  # so the 90th percentile has >= 10 samples beyond it
PREDICT_SAMPLE = 10  # clips whose probabilities are recomputed through the library
PROB_TOL = 1e-6
SHIFT_TOL_PX = 0.1  # median flow vector vs the known camera shift, per component


class Tally:
    """Operations attempted and failed, with the reason of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def problem(self, message):
        self.problems.append(message)


def run_cli(*argv):
    """One stimkit command in-process: (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    argv = [str(a) for a in argv]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = stimkit.cli.main(argv)  # looked up per call, so a traced main is seen
        seconds = time.perf_counter() - t0
    return code, out.getvalue(), err.getvalue(), seconds


def closed_loop(op, seconds, min_ops):
    """Call ``op(i)`` (it returns its latency) back to back. A call starts
    only while it is expected to end within ``seconds``, or while fewer
    than ``min_ops`` calls have run."""
    latencies: list[float] = []
    start = time.perf_counter()
    while len(latencies) < min_ops or (
        time.perf_counter() - start + statistics.fmean(latencies) <= seconds
    ):
        latencies.append(op(len(latencies)))
    return latencies


def sha256_files(*paths):
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def latency_metrics(latencies):
    """End-to-end figures common to every workload, from per-op seconds."""
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": deciles[8] * 1e3,
        "ops_per_s": len(latencies) / math.fsum(latencies),
    }


# --- cv-train ----------------------------------------------------------------


class CvReference:
    """Window counts of the cv dataset, from the library."""

    def __init__(self, work: Path):
        manifest = load_manifest(work / "data" / "manifest.json")
        dataset = build_dataset(manifest, WindowParams())
        self.subjects = {c.subject_id for c in manifest.clips}
        self.per_subject = dataset.subject_window_counts()
        self.windows = len(dataset.windows)
        self.clips = len(manifest.clips)
        self.frames = sum(
            len(load_clip_frames(manifest.resolve_source(c), c.frame_range)) for c in manifest.clips
        )
        doc = json.loads((work / "cv.json").read_text())
        self.k = doc.get("k", 3)
        self.epochs = doc["train"]["epochs"]
        self.output = work / doc["output_dir"]


def check_cv(ref: CvReference):
    """Problems with the last cv run's report and predictions, and their digest."""
    report_path = ref.output / "report.json"
    pred_path = ref.output / "predictions.csv"
    report = json.loads(report_path.read_text())
    problems = []
    test_sets = [set(f["test_subjects"]) for f in report["folds"]]
    if len(test_sets) != ref.k:
        problems.append(f"cv: {len(test_sets)} folds, expected {ref.k}")
    if sum(len(s) for s in test_sets) != len(set().union(*test_sets)):
        problems.append("cv: folds share a subject")
    if set().union(*test_sets) != ref.subjects:
        problems.append("cv: folds do not cover every subject")
    with open(pred_path, newline="") as f:
        rows = list(csv.DictReader(f))
    if len(rows) != ref.windows:
        problems.append(f"cv: {len(rows)} prediction rows for {ref.windows} windows")
    probs = [float(r["probability"]) for r in rows]
    if probs and not (PROB_EPS <= min(probs) and max(probs) <= 1.0 - PROB_EPS):
        problems.append(f"cv: probability outside [{PROB_EPS}, 1-{PROB_EPS}]")
    return problems, sha256_files(report_path, pred_path), report


def run_cv(work: Path, ref: CvReference, tally: Tally, digests: set):
    code, _, err, seconds = run_cli("cv", "-c", work / "cv.json")
    if code != 0:
        tally.record([f"cv: exit {code}: {err.strip()[-300:]}"])
        return seconds, None
    problems, digest, report = check_cv(ref)
    digests.add(digest)
    if len(digests) > 1:
        problems.append("cv: report.json/predictions.csv differ between runs of one set")
    tally.record(problems)
    return seconds, report


def warm_up_cv(work: Path, tally: Tally):
    code, _, err, _ = run_cli("cv", "-c", work / "warm.json")
    if code != 0:
        tally.problem(f"cv warm-up: exit {code}: {err.strip()[-300:]}")


def measure_cv(work: Path, seed: int, seconds: float, tally: Tally):
    ref = CvReference(work)
    warm_up_cv(work, tally)
    digests: set = set()
    latencies = closed_loop(lambda i: run_cv(work, ref, tally, digests)[0], seconds, min_ops=CV_MIN_RUNS)
    return latencies, {"cv_wall_s": (statistics.median(latencies), "s")}


# --- predict-clips -------------------------------------------------------------


class PredictReference:
    """Per clip: window origins and frame count; on a fixed sample of clips,
    the probability of every window through ``stimkit.nn.train.predict``."""

    def __init__(self, work: Path):
        self.checkpoint_path = work / "model" / "checkpoint.ckpt"
        manifest = json.loads((work / "clips" / "manifest.json").read_text())
        self.frame_size = (manifest["frame_width"], manifest["frame_height"])
        self.clips = sorted((work / "clips" / "keypoints").glob("*.json"))
        checkpoint = load_checkpoint(self.checkpoint_path)
        window = checkpoint.training_metadata["window"]
        spec = RasterSpec(**checkpoint.training_metadata["raster"])
        self.origins, self.frames, self.probs = {}, {}, {}
        for n, clip in enumerate(self.clips):
            frames = load_clip_frames(clip)
            heads = [filter_head(f, window["confidence_threshold"]) for f in frames]
            windows = sample_windows(
                heads, T=window["T"], stride=window["stride"], hop=window["hop"],
                clip_id=str(clip), frame_size=self.frame_size,
            )
            self.frames[clip] = len(frames)
            self.origins[clip] = [w.origin_frame for w in windows]
            if n < PREDICT_SAMPLE:
                self.probs[clip] = [predict(checkpoint, rasterize(w, spec).frames) for w in windows]

    def argv(self, clip):
        return ("predict", "-m", self.checkpoint_path, "-k", clip,
                "--frame-width", self.frame_size[0], "--frame-height", self.frame_size[1])


def check_predict(ref: PredictReference, clip, stdout):
    lines = [json.loads(line) for line in stdout.splitlines()]
    origins = ref.origins[clip]
    if [line["origin_frame"] for line in lines] != origins:
        return [f"predict {clip.name}: {len(lines)} lines for {len(origins)} windows"]
    problems = []
    for n, line in enumerate(lines):
        p = line["probability"]
        if not PROB_EPS <= p <= 1.0 - PROB_EPS:
            problems.append(f"predict {clip.name}: probability {p} out of range")
        if line["predicted"] != ("positive" if p > 0.5 else "negative"):
            problems.append(f"predict {clip.name}: label {line['predicted']} for probability {p}")
        if clip in ref.probs and abs(p - ref.probs[clip][n]) > PROB_TOL:
            problems.append(f"predict {clip.name}: probability {p} != library {ref.probs[clip][n]}")
    return problems


def predict_order(ref: PredictReference, seed: int):
    rng = np.random.default_rng(seed)
    return [ref.clips[i] for i in rng.permutation(len(ref.clips))]


def run_predict(ref: PredictReference, clip, tally: Tally):
    code, out, err, seconds = run_cli(*ref.argv(clip))
    tally.record(check_predict(ref, clip, out) if code == 0 else [f"predict {clip.name}: exit {code}: {err.strip()[-300:]}"])
    return seconds


def measure_predict(work: Path, seed: int, seconds: float, tally: Tally):
    ref = PredictReference(work)
    order = predict_order(ref, seed)
    for clip in order[:3]:  # untimed warm-up
        code, _, err, _ = run_cli(*ref.argv(clip))
        if code != 0:
            tally.problem(f"predict warm-up: exit {code}: {err.strip()[-300:]}")
    latencies = closed_loop(
        lambda i: run_predict(ref, order[i % len(order)], tally), seconds, min_ops=PREDICT_MIN_CALLS
    )
    m = latency_metrics(latencies)
    return latencies, {
        "predict_clips_per_s": (m["ops_per_s"], "1/s"),
        "predict_clip_p50_ms": (m["op_p50_ms"], "ms"),
        "predict_clip_p90_ms": (m["op_p90_ms"], "ms"),
    }


# --- flow-pairs ----------------------------------------------------------------


class FlowReference:
    """Per frame pair, the digests of the images flowviz must write,
    rendered from library flow; the flow itself must recover the known
    camera shift."""

    def __init__(self, work: Path, tally: Tally):
        self.frames = sorted((work / "frames").glob("*.png"))
        self.out = {m: work / f"flow_{m}" for m in ("lk", "dense")}
        shift = json.loads((work / "shift.json").read_text())
        expected = np.array([shift["dx"], shift["dy"]])
        ref_dir = work / "flow_ref"
        ref_dir.mkdir(exist_ok=True)
        self.expected = []  # per pair: {method: {file name: sha256}}
        for prev_path, next_path in zip(self.frames, self.frames[1:]):
            prev = imageio.to_gray01(imageio.read_image(prev_path))
            nxt = imageio.to_gray01(imageio.read_image(next_path))
            lk = lucas_kanade_grid(prev, nxt)
            dense = farneback_dense(prev, nxt)
            for name, flow in (("lk", lk), ("dense", dense)):
                if not flow.valid.any():
                    tally.problem(f"flow {name}: no valid vector")
                    continue
                median = np.median(flow.vectors[flow.valid], axis=0)
                if np.abs(median - expected).max() > SHIFT_TOL_PX:
                    tally.problem(f"flow {name}: median vector {median} vs camera shift {expected}")
            images = {
                "lk": {
                    "lk_overlay_000.png": render_arrows(lk, background=prev),
                    "lk_isolated_000.png": render_arrows(lk, shape=prev.shape),
                },
                "dense": {"dense_hsv_000.png": flow_to_hsv(dense)},
            }
            pair = {}
            for method, files in images.items():
                pair[method] = {}
                for name, img in files.items():
                    imageio.write_image(ref_dir / name, _to_u8(img))
                    pair[method][name] = sha256_files(ref_dir / name)
            self.expected.append(pair)

    @property
    def pairs(self):
        return len(self.expected)

    def argv(self, pair, method):
        return ("flowviz", self.frames[pair], self.frames[pair + 1], "--method", method, "-o", self.out[method])


def run_flow_pair(ref: FlowReference, pair: int, tally: Tally, per_method: dict):
    total = 0.0
    for method in ("lk", "dense"):
        code, _, err, seconds = run_cli(*ref.argv(pair, method))
        total += seconds
        per_method[method].append(seconds)
        if code != 0:
            tally.record([f"flowviz {method}: exit {code}: {err.strip()[-300:]}"])
            continue
        ok = all(
            (ref.out[method] / name).exists() and sha256_files(ref.out[method] / name) == digest
            for name, digest in ref.expected[pair][method].items()
        )
        tally.record([] if ok else [f"flowviz {method} pair {pair}: output differs from library rendering"])
    return total


def measure_flow(work: Path, seed: int, seconds: float, tally: Tally):
    ref = FlowReference(work, tally)
    per_method = {"lk": [], "dense": []}
    latencies = closed_loop(lambda i: run_flow_pair(ref, i % ref.pairs, tally, per_method), seconds, min_ops=2)
    return latencies, {
        "flow_lk_pairs_per_s": (len(per_method["lk"]) / math.fsum(per_method["lk"]), "1/s"),
        "flow_dense_pairs_per_s": (len(per_method["dense"]) / math.fsum(per_method["dense"]), "1/s"),
    }


MEASURE = {"cv-train": measure_cv, "predict-clips": measure_predict, "flow-pairs": measure_flow}


# --- traced runs -----------------------------------------------------------------

# Per workload: the span names reported as <name>.calls and <name>.self_s.
CV_LAYERS = [
    "nn.ops.conv2d_forward", "nn.ops.conv2d_backward", "nn.ops.maxpool2_forward",
    "nn.ops.maxpool2_backward", "nn.ops.dense_forward", "nn.ops.dense_backward",
    "nn.lstm.lstm_forward", "nn.lstm.lstm_backward", "nn.optim.adam_step",
    "nn.model.forward_batch", "nn.model.backward_batch", "nn.train.train",
    "raster.rasterize", "augment.render_frames", "augment.augmenter",
    "pose.load_clip_frames", "pose.filter_head", "pose.sample_windows", "data.build_dataset",
    "nn.checkpoint.save_checkpoint", "evaluate.cross_validate", "cli.main",
]
PREDICT_LAYERS = [
    "nn.ops.conv2d_forward", "nn.ops.maxpool2_forward", "nn.ops.dense_forward",
    "nn.lstm.lstm_forward", "nn.model.forward_batch", "raster.rasterize",
    "pose.load_clip_frames", "pose.filter_head", "pose.sample_windows",
    "nn.checkpoint.load_checkpoint", "cli.main",
]
FLOW_LAYERS = [
    "flow.lucas_kanade_grid", "flow.polynomial_expansion", "flow.farneback_dense",
    "flowviz.flow_to_hsv", "flowviz.render_arrows", "imageio.read_image", "imageio.write_image",
    "cli.main",
]
CV_FOLDS = 3
PREDICT_TRACED_CALLS = 100
FLOW_TRACED_PAIRS = 2

NN_COUNTERS = [
    ("nn.ops.conv2d.flops", "flop_computed"),
    ("nn.ops.conv2d.im2col_bytes", "B_computed"),
    ("nn.model.forward_batch.windows_per_call", "windows/call"),
    ("pose.sample_windows.windows", "count"),
]


def per_layer_names():
    """Every per-layer metric the traced run prints: (name, unit)."""
    names = [("trace.span_cost_us", "us")]
    for prefix, layers, extra in (
        ("cv_train", CV_LAYERS, NN_COUNTERS + [("nn.checkpoint.save_checkpoint.bytes", "B")]
         + [(f"evaluate.fold.{f}.wall_s", "s") for f in range(CV_FOLDS)]),
        ("predict_clips", PREDICT_LAYERS, NN_COUNTERS),
        ("flow_pairs", FLOW_LAYERS, [("flow.lk.valid_ratio", "ratio"), ("imageio.write_image.bytes", "B")]),
    ):
        for layer in layers:
            names += [(f"{prefix}.{layer}.calls", "count"), (f"{prefix}.{layer}.self_s", "s")]
        names += [(f"{prefix}.{name}", unit) for name, unit in extra]
        names += [(f"{prefix}.trace.overhead_s", "s"), (f"{prefix}.trace.spans", "count")]
    return names


def layer_metrics(tracer: tr.Tracer, prefix: str, layers):
    totals = tracer.layer_totals()
    out = {}
    for layer in layers:
        calls, self_s = totals.get(layer, (0, 0.0))
        out[f"{prefix}.{layer}.calls"] = calls
        out[f"{prefix}.{layer}.self_s"] = self_s
    out[f"{prefix}.trace.spans"] = len(tracer.spans)
    return out


def nn_counter_metrics(tracer: tr.Tracer, prefix: str):
    totals = tracer.layer_totals()
    c = tracer.counts
    return {
        f"{prefix}.nn.ops.conv2d.flops": c["nn.ops.conv2d.flops"],
        f"{prefix}.nn.ops.conv2d.im2col_bytes": c["nn.ops.conv2d.im2col_bytes"],
        f"{prefix}.nn.model.forward_batch.windows_per_call":
            c["nn.model.forward_batch.windows"] / max(1, totals.get("nn.model.forward_batch", (0,))[0]),
        f"{prefix}.pose.sample_windows.windows": c["pose.sample_windows.windows"],
    }


def completeness(tracer: tr.Tracer, expected: dict, label: str):
    """Every traced count must equal the one derived from the workload."""
    totals = tracer.layer_totals()
    problems = []
    for name, want in expected.items():
        got = tracer.counts[name] if name in tracer.counts else totals.get(name, (0,))[0]
        if got != want:
            problems.append(f"{label} trace: {name} counted {got}, workload implies {want}")
    return problems


def traced(targets, fn):
    """Run ``fn`` with the targets traced; returns (tracer, result, seconds)."""
    tracer = tr.Tracer()
    tr.install(tracer, targets)
    try:
        t0 = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    return tracer, result, seconds


def trace_cv(work: Path, seed: int, tally: Tally):
    ref = CvReference(work)
    warm_up_cv(work, tally)
    digests: set = set()
    untraced_s, _ = run_cv(work, ref, tally, digests)
    tracer, (_, report), traced_s = traced(tr.NN_TARGETS, lambda: run_cv(work, ref, tally, digests))
    if report is None:
        return {}

    batch = TrainConfig().batch_size
    blocks = len(ModelConfig().conv_blocks)
    tests = [sum(ref.per_subject.get(s, 0) for s in f["test_subjects"]) for f in report["folds"]]
    trains = [ref.windows - n for n in tests]
    batches = sum(math.ceil(n / batch) for n in trains) * ref.epochs
    scored = sum(tests)
    augmented = sum(trains) * ref.epochs
    forwards = batches + scored
    tally.problems += completeness(tracer, {
        "cli.main": 1,
        "nn.ops.conv2d_forward": blocks * forwards,
        "nn.ops.conv2d_backward": blocks * batches,
        "nn.ops.maxpool2_forward": blocks * forwards,
        "nn.ops.maxpool2_backward": blocks * batches,
        "nn.ops.dense_forward": 2 * forwards,
        "nn.ops.dense_backward": 2 * batches,
        "nn.lstm.lstm_forward": forwards,
        "nn.lstm.lstm_backward": batches,
        "nn.optim.adam_step": batches,
        "nn.model.forward_batch": forwards,
        "nn.model.backward_batch": batches,
        "nn.model.forward_batch.windows": augmented + scored,
        "nn.train.train": ref.k,
        "raster.rasterize": sum(trains) + scored,
        "augment.augmenter": augmented,
        "augment.render_frames": augmented,
        "pose.load_clip_frames": ref.clips,
        "pose.filter_head": ref.frames,
        "pose.sample_windows": ref.clips,
        "pose.sample_windows.windows": ref.windows,
        "data.build_dataset": 1,
        "nn.checkpoint.load_checkpoint": 0,
        "nn.checkpoint.save_checkpoint": ref.k,
        "evaluate.cross_validate": 1,
        "evaluate._fold_seeds": ref.k,
    }, "cv-train")

    out = layer_metrics(tracer, "cv_train", CV_LAYERS)
    out.update(nn_counter_metrics(tracer, "cv_train"))
    out["cv_train.nn.checkpoint.save_checkpoint.bytes"] = tracer.counts["nn.checkpoint.save_checkpoint.bytes"]
    # a fold runs from its seed derivation to the next fold's (the last to cross_validate's return)
    cv_ends = [end for name, _, end, _ in tracer.spans if name == "evaluate.cross_validate"]
    starts = [t for name, _, t in tracer.marks if name == "evaluate.fold"] + cv_ends[-1:]
    for f in range(CV_FOLDS):
        out[f"cv_train.evaluate.fold.{f}.wall_s"] = starts[f + 1] - starts[f] if f + 1 < len(starts) else 0.0
    out["cv_train.trace.overhead_s"] = traced_s - untraced_s
    return out


def trace_predict(work: Path, seed: int, tally: Tally):
    ref = PredictReference(work)
    clips = predict_order(ref, seed)[:PREDICT_TRACED_CALLS]
    run_predict(ref, clips[0], tally)  # warm-up
    t0 = time.perf_counter()
    for clip in clips:
        run_predict(ref, clip, tally)
    untraced_s = time.perf_counter() - t0
    tracer, _, traced_s = traced(tr.NN_TARGETS, lambda: [run_predict(ref, clip, tally) for clip in clips])

    blocks = len(ModelConfig().conv_blocks)
    windows = sum(len(ref.origins[c]) for c in clips)
    n = len(clips)
    tally.problems += completeness(tracer, {
        "cli.main": n,
        "nn.checkpoint.load_checkpoint": n,
        "pose.load_clip_frames": n,
        "pose.filter_head": sum(ref.frames[c] for c in clips),
        "pose.sample_windows": n,
        "pose.sample_windows.windows": windows,
        "raster.rasterize": windows,
        "nn.model.forward_batch": windows,
        "nn.model.forward_batch.windows": windows,
        "nn.ops.conv2d_forward": blocks * windows,
        "nn.ops.maxpool2_forward": blocks * windows,
        "nn.ops.dense_forward": 2 * windows,
        "nn.lstm.lstm_forward": windows,
        "nn.ops.conv2d_backward": 0,
        "nn.model.backward_batch": 0,
        "nn.optim.adam_step": 0,
        "augment.augmenter": 0,
    }, "predict-clips")

    out = layer_metrics(tracer, "predict_clips", PREDICT_LAYERS)
    out.update(nn_counter_metrics(tracer, "predict_clips"))
    out["predict_clips.trace.overhead_s"] = traced_s - untraced_s
    return out


def trace_flow(work: Path, seed: int, tally: Tally):
    ref = FlowReference(work, tally)
    per_method = {"lk": [], "dense": []}
    pairs = [i % ref.pairs for i in range(FLOW_TRACED_PAIRS)]
    untraced_s = sum(run_flow_pair(ref, p, tally, per_method) for p in pairs)
    tracer, _, traced_s = traced(tr.FLOW_TARGETS, lambda: [run_flow_pair(ref, p, tally, per_method) for p in pairs])

    n = len(pairs)
    tally.problems += completeness(tracer, {
        "cli.main": 2 * n,
        "imageio.read_image": 4 * n,
        "flow.lucas_kanade_grid": n,
        "flowviz.render_arrows": 2 * n,
        "flow.farneback_dense": n,
        "flow.polynomial_expansion": 2 * n,
        "flowviz.flow_to_hsv": n,
        "imageio.write_image": 3 * n,
    }, "flow-pairs")

    out = layer_metrics(tracer, "flow_pairs", FLOW_LAYERS)
    out["flow_pairs.flow.lk.valid_ratio"] = tracer.counts["flow.lk.valid"] / max(1, tracer.counts["flow.lk.points"])
    out["flow_pairs.imageio.write_image.bytes"] = tracer.counts["imageio.write_image.bytes"]
    out["flow_pairs.trace.overhead_s"] = traced_s - untraced_s
    return out


TRACE = {"cv-train": trace_cv, "predict-clips": trace_predict, "flow-pairs": trace_flow}
