#!/usr/bin/env python3
"""Time the hot numpy kernels on training-shaped inputs.

Prints the best-of-N wall time per kernel. Run from the repo root:

    python benchmarks/bench_backends.py           # full sizes
    python benchmarks/bench_backends.py --quick   # smaller, faster
"""

import argparse
import time

import numpy as np


def timeit(fn, reps):
    fn()  # warm-up
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _oscillating_window():
    from stimkit.pose import HeadPose, KeypointSequence

    base = np.array(
        [[300.0, 200.0], [300.0, 250.0], [290.0, 190.0], [310.0, 190.0], [280.0, 195.0], [320.0, 195.0]]
    )
    frames = []
    for t in range(7):
        coords = base + np.array([0.0, 20.0 * np.sin(np.pi * t / 3.0)])
        frames.append(HeadPose(5 * t, coords, np.ones(6, bool), np.full(6, 0.9)))
    return KeypointSequence(
        clip_id="bench", subject_id="b", label="positive",
        frames=frames, stride=5, origin_frame=0, frame_size=(640, 480),
    )


def build_cases(quick):
    from stimkit.flow import farneback_dense, lucas_kanade_grid
    from stimkit.nn import ops
    from stimkit.raster import RasterSpec, rasterize

    rng = np.random.default_rng(0)
    n = 16 if quick else 56
    side = 32 if quick else 64
    x1 = rng.random((n, side, side, 1), dtype=np.float32)
    w1 = rng.random((3, 3, 1, 16), dtype=np.float32)
    b1 = np.zeros(16, np.float32)
    dy1 = rng.random((n, side, side, 16), dtype=np.float32)
    x2 = rng.random((n, side // 2, side // 2, 16), dtype=np.float32)
    w2 = rng.random((3, 3, 16, 32), dtype=np.float32)
    b2 = np.zeros(32, np.float32)
    dy2 = rng.random((n, side // 2, side // 2, 32), dtype=np.float32)

    img_side = 128 if quick else 256
    prev = _texture(img_side)
    nxt = _texture(img_side, shift=(2.0, 1.0))

    seq = _oscillating_window()
    spec = RasterSpec()

    return [
        ("conv2d fw 1->16", lambda: ops.conv2d_forward(x1, w1, b1)),
        ("conv2d fw 16->32", lambda: ops.conv2d_forward(x2, w2, b2)),
        ("conv2d bw 1->16", lambda: ops.conv2d_backward(x1, w1, dy1, need_dx=False)),
        ("conv2d bw 16->32", lambda: ops.conv2d_backward(x2, w2, dy2)),
        ("maxpool fw+bw", lambda: _pool_roundtrip(ops, x1)),
        ("lucas-kanade grid", lambda: lucas_kanade_grid(prev, nxt)),
        ("farneback dense", lambda: farneback_dense(prev, nxt)),
        ("rasterize window", lambda: rasterize(seq, spec)),
    ]


def _pool_roundtrip(ops, x):
    y, idx = ops.maxpool2_forward(x)
    ops.maxpool2_backward(x.shape, idx, y)


def _texture(side, shift=(0.0, 0.0)):
    ys, xs = np.mgrid[0:side, 0:side].astype(np.float64)
    xs -= shift[0]
    ys -= shift[1]
    img = np.sin(2 * np.pi * xs / 32) * np.cos(2 * np.pi * ys / 24) + 0.5 * np.sin(2 * np.pi * (xs + ys) / 40)
    return (img - img.min()) / (img.max() - img.min())


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="smaller inputs, fewer reps")
    parser.add_argument("--reps", type=int, default=0, help="override repetition count")
    args = parser.parse_args()
    reps = args.reps or (3 if args.quick else 5)

    print(f"{'kernel':<22} {'best':>10}")
    print("-" * 33)
    for name, fn in build_cases(args.quick):
        print(f"{name:<22} {timeit(fn, reps) * 1e3:>8.2f}ms")


if __name__ == "__main__":
    main()
