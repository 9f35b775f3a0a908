"""Span tracer for the traced benchmark run.

Wraps public stimkit functions from outside the package: every module
attribute that is bound to the wrapped function object is replaced, so
names imported with ``from x import f`` (``stimkit.evaluate.rasterize``,
``stimkit.nn.model.lstm_forward``, ``stimkit.cli.cross_validate``, ...)
are traced too, not only the defining module's attribute. Spans live in
memory; per-layer metrics are computed from them after the run.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict


class Tracer:
    """Records spans (name, start, end, parent) and named counters."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self.marks: list[tuple[str, int, float]] = []  # (name, value, time)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, after=None):
        """Return ``fn`` wrapped in a span; ``after(tracer, args, kwargs, result)``
        runs once the span has closed, to record counters."""

        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = time.perf_counter()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def rebind(self, original, replacement, sites=None):
        """Point every stimkit module attribute bound to ``original`` (only
        in ``sites``, when given) at ``replacement``."""
        patched = 0
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "stimkit" and not mod_name.startswith("stimkit."):
                continue
            if sites is not None and mod_name not in sites:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, replacement)
                    patched += 1
        if not patched:
            raise RuntimeError(f"no binding of {original.__module__}.{original.__name__} found to trace")

    def mark(self, name, value):
        self.marks.append((name, value, time.perf_counter()))

    def uninstall(self):
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def layer_totals(self):
        """Per span name: [calls, self seconds].

        Self time is a span's duration minus the union of the intervals
        its direct children cover.
        """
        children = defaultdict(list)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        totals: dict[str, list] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            covered = 0.0
            cur_start = cur_end = None
            for c_start, c_end in sorted(children.get(i, ())):
                if cur_end is None or c_start > cur_end:
                    if cur_end is not None:
                        covered += cur_end - cur_start
                    cur_start, cur_end = c_start, c_end
                else:
                    cur_end = max(cur_end, c_end)
            if cur_end is not None:
                covered += cur_end - cur_start
            entry = totals.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += (end - start) - covered
        return totals


# --- counters recorded after a span closes ---------------------------------


def conv_forward_counts(tracer, args, kwargs, result):
    """im2col lowering of the forward pass: one (N*H*W, k*k*Cin) patch
    matrix times the (k*k*Cin, Cout) kernel."""
    x, w = args[0], args[1]
    patches = x.shape[0] * x.shape[1] * x.shape[2]
    depth = w.shape[0] * w.shape[1] * w.shape[2]
    tracer.counts["nn.ops.conv2d.flops"] += 2 * patches * depth * w.shape[3]
    tracer.counts["nn.ops.conv2d.im2col_bytes"] += patches * depth * x.dtype.itemsize


def conv_backward_counts(tracer, args, kwargs, result):
    """im2col lowering of the backward pass: the weight gradient always,
    the input gradient (patches of dy) unless ``need_dx`` is false."""
    x, w = args[0], args[1]
    need_dx = args[3] if len(args) > 3 else kwargs.get("need_dx", True)
    patches = x.shape[0] * x.shape[1] * x.shape[2]
    k2 = w.shape[0] * w.shape[1]
    cin, cout = w.shape[2], w.shape[3]
    tracer.counts["nn.ops.conv2d.flops"] += 2 * patches * k2 * cin * cout
    tracer.counts["nn.ops.conv2d.im2col_bytes"] += patches * k2 * cin * x.dtype.itemsize
    if need_dx:
        tracer.counts["nn.ops.conv2d.flops"] += 2 * patches * k2 * cout * cin
        tracer.counts["nn.ops.conv2d.im2col_bytes"] += patches * k2 * cout * x.dtype.itemsize


def forward_batch_counts(tracer, args, kwargs, result):
    tracer.counts["nn.model.forward_batch.windows"] += args[2].shape[0]


def sample_windows_counts(tracer, args, kwargs, result):
    tracer.counts["pose.sample_windows.windows"] += len(result)


def lk_counts(tracer, args, kwargs, result):
    tracer.counts["flow.lk.points"] += len(result.valid)
    tracer.counts["flow.lk.valid"] += int(result.valid.sum())


def save_checkpoint_counts(tracer, args, kwargs, result):
    tracer.counts["nn.checkpoint.save_checkpoint.bytes"] += os.path.getsize(args[1])


def write_image_counts(tracer, args, kwargs, result):
    tracer.counts["imageio.write_image.bytes"] += os.path.getsize(args[0])


def fold_mark(tracer, args, kwargs, result):
    tracer.mark("evaluate.fold", args[1])


# (module, attribute, span name, counter hook, restricted binding sites)
NN_TARGETS = [
    ("stimkit.cli", "main", "cli.main", None, None),
    ("stimkit.nn.ops", "conv2d_forward", "nn.ops.conv2d_forward", conv_forward_counts, None),
    ("stimkit.nn.ops", "conv2d_backward", "nn.ops.conv2d_backward", conv_backward_counts, None),
    ("stimkit.nn.ops", "maxpool2_forward", "nn.ops.maxpool2_forward", None, None),
    ("stimkit.nn.ops", "maxpool2_backward", "nn.ops.maxpool2_backward", None, None),
    ("stimkit.nn.ops", "dense_forward", "nn.ops.dense_forward", None, None),
    ("stimkit.nn.ops", "dense_backward", "nn.ops.dense_backward", None, None),
    ("stimkit.nn.lstm", "lstm_forward", "nn.lstm.lstm_forward", None, None),
    ("stimkit.nn.lstm", "lstm_backward", "nn.lstm.lstm_backward", None, None),
    ("stimkit.nn.optim", "adam_step", "nn.optim.adam_step", None, None),
    ("stimkit.nn.model", "forward_batch", "nn.model.forward_batch", forward_batch_counts, None),
    ("stimkit.nn.model", "backward_batch", "nn.model.backward_batch", None, None),
    ("stimkit.nn.train", "train", "nn.train.train", None, None),
    ("stimkit.raster", "rasterize", "raster.rasterize", None, None),
    # only the augmenter's binding: rasterize's own render stays inside raster.rasterize
    ("stimkit.augment", "render_frames", "augment.render_frames", None, {"stimkit.augment"}),
    ("stimkit.pose", "load_clip_frames", "pose.load_clip_frames", None, None),
    ("stimkit.pose", "filter_head", "pose.filter_head", None, None),
    ("stimkit.pose", "sample_windows", "pose.sample_windows", sample_windows_counts, None),
    ("stimkit.data", "build_dataset", "data.build_dataset", None, None),
    ("stimkit.nn.checkpoint", "load_checkpoint", "nn.checkpoint.load_checkpoint", None, None),
    ("stimkit.nn.checkpoint", "save_checkpoint", "nn.checkpoint.save_checkpoint", save_checkpoint_counts, None),
    ("stimkit.evaluate", "cross_validate", "evaluate.cross_validate", None, None),
    # first statement of every fold; marks fold boundaries inside cross_validate
    ("stimkit.evaluate", "_fold_seeds", "evaluate._fold_seeds", fold_mark, None),
]

FLOW_TARGETS = [
    ("stimkit.cli", "main", "cli.main", None, None),
    ("stimkit.flow", "lucas_kanade_grid", "flow.lucas_kanade_grid", lk_counts, None),
    ("stimkit.flow", "polynomial_expansion", "flow.polynomial_expansion", None, None),
    ("stimkit.flow", "farneback_dense", "flow.farneback_dense", None, None),
    ("stimkit.flowviz", "flow_to_hsv", "flowviz.flow_to_hsv", None, None),
    ("stimkit.flowviz", "render_arrows", "flowviz.render_arrows", None, None),
    ("stimkit.imageio", "read_image", "imageio.read_image", None, None),
    ("stimkit.imageio", "write_image", "imageio.write_image", write_image_counts, None),
]


def install(tracer, targets):
    """Trace every target; for the nn targets also the augmenter closures."""
    import stimkit.cli  # noqa: F401  loads every module whose bindings get patched

    for module_name, attr, name, after, sites in targets:
        original = getattr(sys.modules[module_name], attr)
        tracer.rebind(original, tracer.wrap(name, original, after), sites)
    if targets is NN_TARGETS:
        # the augmenter is a closure built per fold: trace the one the factory returns
        factory = sys.modules["stimkit.augment"].make_training_augmenter
        tracer.rebind(factory, lambda spec: tracer.wrap("augment.augmenter", factory(spec)))


def span_cost_seconds(reps=5, calls=2000):
    """Best-of-``reps`` cost of one traced call around a no-op, in seconds."""
    from bench_backends import timeit

    tracer = Tracer()
    noop = tracer.wrap("noop", lambda: None)

    def burst():
        for _ in range(calls):
            noop()
        tracer.spans.clear()

    return timeit(burst, reps) / calls
