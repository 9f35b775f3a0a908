"""Command-line surface: import, flowviz, synth, train, cv, predict.

Exit codes are a stable contract: 0 success, 2 configuration or usage
problem, 3 numeric failure, 4 I/O failure. Every output file is written
through :func:`stimkit.spec.write_atomic` (a temp file renamed into place)
and all content is canonical, so identical inputs and seeds reproduce
identical bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import functools
import io
import json
import logging
import math
import platform
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import imageio
from .config import load_run_config
from .data import WindowParams, build_dataset, clip_windows
from .errors import ConfigError, KeypointParseError, NumericError, SchemaError, StimkitError
from .evaluate import check_fold_count, cross_validate, fit, metrics, score
from .flow import farneback_dense, lucas_kanade_grid
from .flowviz import flow_to_hsv, render_arrows
from .nn.checkpoint import load_checkpoint, save_checkpoint
from .nn.train import classify
from .pose import load_clip_frames, load_manifest, write_keypoint_file, write_manifest
from .raster import RasterSpec
from .spec import build_spec, json_value, write_atomic
from .synth import MAX_CLIPS_PER_SUBJECT, MAX_DRIFT, MAX_SUBJECTS, gen_dataset

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


# glibc mallopt parameters, and the values the CLI gives them
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20  # glibc's ceiling for its dynamic threshold; above every per-step array
_TRIM_THRESHOLD = 256 << 20

_malloc_tuned = False


class _UsageError(StimkitError):
    pass


def _keep_freed_memory() -> None:
    """Keep memory that numpy frees in this process's heap, once per process.

    By default glibc serves multi-MB arrays with mmap and gives freed heap
    tops back to the OS, so every call faults the same temporaries in again
    as fresh zeroed pages. Raised thresholds let the next window, step or
    call reuse them. Process-wide and glibc-only; only the CLI entry sets
    it, so importing stimkit leaves the caller's allocator alone.
    """
    global _malloc_tuned
    if _malloc_tuned:
        return
    _malloc_tuned = True
    if platform.libc_ver()[0] != "glibc":
        return
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


@contextlib.contextmanager
def _log_level(verbose: bool, quiet: bool):
    """``-v`` logs stimkit's INFO records to stderr, ``-q`` drops its warnings; for one command only.

    With neither flag logging is left as it is (warnings reach stderr through
    logging's last-resort handler). The handler is made for the call, on the
    ``sys.stderr`` of that moment, and removed with the level when the call
    ends, so repeated in-process calls never stack handlers.
    """
    if not (verbose or quiet):
        yield
        return
    logger = logging.getLogger("stimkit")
    level = logger.level
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    logger.setLevel(logging.INFO if verbose else logging.ERROR)
    if verbose:
        logger.addHandler(handler)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def _write_json(path: Path, obj) -> None:
    write_atomic(path, json.dumps(obj, sort_keys=True, indent=1) + "\n")


# ClipRecord validates labels on construction, so load_manifest already
# rejects UNSET placeholders left by `stimkit import`.


def cmd_import(args) -> int:
    src = Path(args.openpose_dir)
    clip_dirs = sorted(p for p in src.iterdir() if p.is_dir())
    if not clip_dirs:
        raise _UsageError(f"{src}: no clip subdirectories found")
    out = Path(args.out)
    (out / "keypoints").mkdir(parents=True, exist_ok=True)

    records = []
    max_x = max_y = 0.0
    for clip_dir in clip_dirs:
        frames = load_clip_frames(clip_dir)
        if not len(frames):
            print(f"{clip_dir.name}: 0 frames, skipped", file=sys.stderr)
            continue
        pts = frames[frames[:, :, 2] > 0]
        if len(pts):
            max_x = max(max_x, float(pts[:, 0].max()))
            max_y = max(max_y, float(pts[:, 1].max()))
        rel = f"keypoints/{clip_dir.name}.json"
        write_keypoint_file(out / rel, frames)
        records.append((clip_dir.name, "UNSET", "UNSET", args.fps, rel, 0, len(frames) - 1))
        print(f"{clip_dir.name}: {len(frames)} frames")

    if not records:
        raise _UsageError(f"{src}: no usable clips")
    frame_size = (args.frame_width or int(np.ceil(max_x)) + 1, args.frame_height or int(np.ceil(max_y)) + 1)
    write_manifest(out / "manifest.json", frame_size, records)
    print(f"wrote {out / 'manifest.json'} (fill in subject/label fields before training)")
    return EXIT_OK


def cmd_flowviz(args) -> int:
    images = [imageio.to_gray01(imageio.read_image(p)) for p in args.frames]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ext = "ppm" if args.ppm else "png"

    for n, (prev, nxt) in enumerate(zip(images, images[1:])):
        if args.method == "lk":
            flow = lucas_kanade_grid(prev, nxt, spacing=args.spacing)
            overlay = render_arrows(flow, background=prev, scale=args.scale)
            isolated = render_arrows(flow, shape=prev.shape, scale=args.scale)
            imageio.write_image(out / f"lk_overlay_{n:03d}.{ext}", _to_u8(overlay))
            imageio.write_image(out / f"lk_isolated_{n:03d}.{ext}", _to_u8(isolated))
        else:
            flow = farneback_dense(prev, nxt)
            imageio.write_image(out / f"dense_hsv_{n:03d}.{ext}", _to_u8(flow_to_hsv(flow)))
        if args.dump_flow:
            _write_json(out / f"flow_{args.method}_{n:03d}.json", flow.to_dict())
        print(f"pair {n}: method={args.method} valid={int(flow.valid.sum())}/{len(flow.valid)}")
    return EXIT_OK


def _to_u8(img01):
    return np.clip(np.asarray(img01) * 255.0 + 0.5, 0, 255).astype(np.uint8)


def cmd_synth(args) -> int:
    manifest = gen_dataset(
        args.out,
        n_subjects=args.subjects,
        clips_per_subject=args.clips_per_subject,
        seed=args.seed,
        camera_drift_sigma=args.drift,
    )
    print(f"wrote {manifest}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = load_run_config(args.config)
    manifest = load_manifest(cfg.manifest_path)
    dataset = build_dataset(manifest, cfg.window)
    if not dataset.windows:
        raise ConfigError("manifest", "dataset produced no windows")
    known = {c.subject_id for c in manifest.clips}
    for s in cfg.holdout_subjects:
        if s not in known:
            raise ConfigError("holdout_subjects", f"unknown subject {s!r}")

    holdout = set(cfg.holdout_subjects)
    train_windows = [w for w in dataset.windows if w.subject_id not in holdout]
    if not train_windows:
        raise ConfigError("holdout_subjects", "holdout leaves no training windows")
    checkpoint, history = fit(train_windows, cfg.model, cfg.train, cfg.augment, cfg.raster, cfg.window)

    # made only now, so a run that fails above leaves no directory behind
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    ckpt_path = cfg.output_dir / "checkpoint.ckpt"
    save_checkpoint(checkpoint, ckpt_path)
    summary = {**history, "windows": len(train_windows), "seed": cfg.seed}
    if holdout:
        held = [w for w in dataset.windows if w.subject_id in holdout]
        result = metrics([classify(p) for p in score(checkpoint, held, cfg.raster)],
                         [int(w.label == "positive") for w in held])
        del result["degenerate"]  # history.json's holdout block reports the confusion, P, R and F1 only
        summary["holdout"] = {"subjects": sorted(holdout), "windows": len(held), **result}
        print(f"holdout ({','.join(sorted(holdout))}): F1 {result['f1']:.4f} over {len(held)} windows")
    _write_json(cfg.output_dir / "history.json", summary)
    print(f"trained on {len(train_windows)} windows for {cfg.train.epochs} epochs")
    print(f"wrote {ckpt_path}")
    return EXIT_OK


def cmd_cv(args) -> int:
    cfg = load_run_config(args.config)
    check_fold_count(cfg.k)  # before any keypoint file is read
    manifest = load_manifest(cfg.manifest_path)
    dataset = build_dataset(manifest, cfg.window)
    report, rows, checkpoints = cross_validate(
        dataset,
        model_config=cfg.model,
        train_config=cfg.train,
        augment_spec=cfg.augment,
        k=cfg.k,
        seed=cfg.seed,
        raster_spec=cfg.raster,
    )
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    csv_text = io.StringIO()
    csv.writer(csv_text, lineterminator="\n").writerows(rows)
    write_atomic(cfg.output_dir / "predictions.csv", csv_text.getvalue())
    for fold, checkpoint in enumerate(checkpoints):
        save_checkpoint(checkpoint, cfg.output_dir / f"fold_{fold}.ckpt")
    # last, so a report is never left beside missing checkpoints
    _write_json(cfg.output_dir / "report.json", report)

    print(f"{'fold':<5} {'test subjects':<30} {'tp':>3} {'fp':>3} {'fn':>3} {'tn':>3} "
          f"{'precision':>9} {'recall':>7} {'f1':>7}")
    for f in report["folds"]:
        cm = f["confusion"]
        print(
            f"{f['fold']:<5} {','.join(f['test_subjects']):<30.30} {cm['tp']:>3} {cm['fp']:>3} {cm['fn']:>3} "
            f"{cm['tn']:>3} {f['precision']:>9.4f} {f['recall']:>7.4f} {f['f1']:>7.4f}"
        )
    print(f"mean F1 (windows): {report['mean_f1']:.4f}")
    print(f"mean F1 (clip majority vote): {report['clip_mean_f1']:.4f}")
    return EXIT_OK


def _metadata_spec(path, checkpoint, cls, key, **defaults):
    """``training_metadata[key]`` of the checkpoint as a ``cls``, keys absent there taken from ``defaults``."""
    doc = checkpoint.training_metadata.get(key, {})
    if isinstance(doc, dict):
        doc = {**defaults, **doc}
    try:
        return build_spec(cls, doc, f"training_metadata.{key}")
    except ConfigError as e:
        raise SchemaError(f"{path}: corrupt checkpoint {key} metadata: {e}") from e


def _frame_size(args, checkpoint) -> tuple:
    """The source frame size to render at: both flags, else the one training recorded."""
    flags = (args.frame_width, args.frame_height)
    if flags.count(None) == 1:
        raise _UsageError("--frame-width and --frame-height must be given together")
    if None not in flags:
        return (float(flags[0]), float(flags[1]))
    size = checkpoint.training_metadata.get("frame_size")
    if size is None:
        raise _UsageError(f"{args.model}: no training frame size recorded; pass --frame-width and --frame-height")
    try:
        size = json_value(size, (1.0, 1.0), "training_metadata.frame_size")  # a recorded size is any JSON value
        if min(size) <= 0:
            raise ConfigError("training_metadata.frame_size", f"must be positive, got {size[0]:g}x{size[1]:g}")
    except ConfigError as e:
        raise SchemaError(f"{args.model}: corrupt checkpoint frame size metadata: {e}") from e
    return size


def cmd_predict(args) -> int:
    checkpoint = load_checkpoint(args.model)
    config = checkpoint.config
    # the checkpoint's training metadata carries the window, raster and frame geometry it was
    # trained with; T and stride are always the trained ones, --hop only picks the windows scored
    params = _metadata_spec(args.model, checkpoint, WindowParams, "window", T=config.T)
    if params.T != config.T:
        raise SchemaError(f"{args.model}: corrupt checkpoint window metadata: training_metadata.window.T: "
                          f"{params.T} is not the model's sequence length {config.T}")
    if args.hop is not None:
        params = replace(params, hop=args.hop)
    spec = _metadata_spec(args.model, checkpoint, RasterSpec, "raster", width=config.width, height=config.height)
    if (spec.width, spec.height) != (config.width, config.height):
        raise SchemaError(f"{args.model}: corrupt checkpoint raster metadata: training_metadata.raster: "
                          f"{spec.width}x{spec.height} is not the model's {config.width}x{config.height} input")
    clip = str(args.keypoints)
    windows = clip_windows(args.keypoints, params, clip_id=clip, frame_size=_frame_size(args, checkpoint))
    if not windows:  # sample_windows has logged why
        return EXIT_OK

    lines = "".join(
        json.dumps({"clip": clip, "origin_frame": w.origin_frame, "probability": p,
                    "predicted": "positive" if classify(p) else "negative"}, sort_keys=True) + "\n"
        for w, p in zip(windows, score(checkpoint, windows, spec))
    )
    if args.out:
        write_atomic(args.out, lines)
    else:
        sys.stdout.write(lines)
    return EXIT_OK


def _rule(parse, ok, rule):
    """An argparse ``type=``: the ``parse``d text, rejected as "must be <rule>" unless ``ok`` holds."""
    def check(text):
        with contextlib.suppress(ValueError):
            value = parse(text)
            if ok(value):
                return value
        raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
    return check


def _int_in(low, high):
    return _rule(int, lambda v: low <= v <= high, f"an integer in {low}..{high}")


_MAX_SIDE = 2**31 - 1  # PNG's largest side
_PATH = _rule(str, lambda v: v and "\0" not in v, "a non-empty path without NUL")
_POSITIVE = _int_in(1, _MAX_SIDE)


class _Pairs(argparse.Action):
    """Two or more positional items, so that they make at least one consecutive pair."""
    def __call__(self, parser, namespace, values, option_string=None):
        if len(values) < 2:
            raise argparse.ArgumentError(self, f"must be 2 or more frames, got {len(values)}")
        setattr(namespace, self.dest, values)


@functools.cache  # parsing leaves the parser as it was, so one serves every call in a process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stimkit",
        description="Head-motion window classification from pose keypoints, with optical-flow baselines.",
    )
    verbosity = parser.add_mutually_exclusive_group()
    verbosity.add_argument("-v", "--verbose", action="store_true", help="also log INFO records, such as dropped windows")
    verbosity.add_argument("-q", "--quiet", action="store_true", help="log errors only, not warnings")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("import", help="consolidate per-frame keypoint JSON dirs into a dataset skeleton")
    p.add_argument("openpose_dir", type=_PATH, help="directory with one subdirectory of per-frame JSON files per clip")
    p.add_argument("-o", "--out", type=_PATH, required=True, help="output dataset directory")
    p.add_argument("--fps", type=_rule(float, lambda v: 0 < v < math.inf, "a finite number > 0"), default=30.0)
    p.add_argument("--frame-width", type=_int_in(0, _MAX_SIDE), default=0, help="source frame width (default: infer)")
    p.add_argument("--frame-height", type=_int_in(0, _MAX_SIDE), default=0, help="source frame height (default: infer)")
    p.set_defaults(func=cmd_import)

    p = sub.add_parser("flowviz", help="render optical flow for consecutive image frames")
    p.add_argument("frames", nargs="+", type=_PATH, action=_Pairs,
                   help="2+ image files (PNG/PPM/PGM), in temporal order")
    p.add_argument("--method", choices=("lk", "dense"), default="lk")
    p.add_argument("-o", "--out", type=_PATH, required=True)
    p.add_argument("--spacing", type=_POSITIVE, default=10, help="lattice spacing for lk")
    p.add_argument("--scale", type=_rule(float, math.isfinite, "a finite number"), default=1.0, help="arrow length multiplier")
    p.add_argument("--ppm", action="store_true", help="write PPM instead of PNG")
    p.add_argument("--dump-flow", action="store_true", help="also dump raw flow fields as JSON")
    p.set_defaults(func=cmd_flowviz)

    p = sub.add_parser("synth", help="generate the synthetic oracle dataset")
    p.add_argument("-o", "--out", type=_PATH, required=True)
    p.add_argument("--subjects", type=_int_in(1, MAX_SUBJECTS), default=12)
    p.add_argument("--clips-per-subject", type=_int_in(1, MAX_CLIPS_PER_SUBJECT), default=6)
    p.add_argument("--seed", type=_rule(int, lambda v: v >= 0, "an integer >= 0"), required=True)
    p.add_argument("--drift", type=_rule(float, lambda v: 0 <= v <= MAX_DRIFT, f"a number in 0..{MAX_DRIFT:g}"),
                   default=1.5, help="camera random-walk step sigma, px/frame")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train one model on every window of the dataset")
    p.add_argument("-c", "--config", type=_PATH, required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("cv", help="subject-disjoint k-fold cross-validation")
    p.add_argument("-c", "--config", type=_PATH, required=True)
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("predict", help="per-window probabilities for one clip")
    p.add_argument("-m", "--model", type=_PATH, required=True, help="checkpoint file")
    p.add_argument("-k", "--keypoints", type=_PATH, required=True, help="keypoint file or directory")
    p.add_argument("--hop", type=_POSITIVE, help="frames between window starts (default: from checkpoint)")
    p.add_argument("--frame-width", type=_POSITIVE, help="source frame width (default: from checkpoint)")
    p.add_argument("--frame-height", type=_POSITIVE, help="source frame height (default: from checkpoint)")
    p.add_argument("-o", "--out", type=_PATH, help="write JSON lines here instead of stdout")
    p.set_defaults(func=cmd_predict)

    return parser


def main(argv=None) -> int:
    _keep_freed_memory()
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_CONFIG if e.code not in (0, None) else EXIT_OK
    try:
        with _log_level(args.verbose, args.quiet):
            return args.func(args)
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, KeypointParseError, imageio.ImageFormatError) as e:
        print(f"i/o failure: {e}", file=sys.stderr)
        return EXIT_IO
    except StimkitError as e:  # every other package error is a configuration or usage problem
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
