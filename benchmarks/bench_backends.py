"""Helpers that perfbench imports: the best-of-N timer and the flow texture.

perfbench/run.py is the benchmark entry point; ``--trace 1`` reports the
self time of every kernel layer.
"""

import time

# perfbench/setup_inputs.py draws the flow-pairs frames through this name
from stimkit.synth import flow_texture as _texture  # noqa: F401


def timeit(fn, reps):
    fn()  # warm-up
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best
