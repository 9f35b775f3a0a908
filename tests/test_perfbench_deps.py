"""The stimkit names that perfbench binds to.

perfbench/ is the benchmark harness and changes only with the benchmark,
so a rename or removal in stimkit must fail here, not first in a traced
perfbench run.
"""

import importlib.util
import sys
from pathlib import Path

import stimkit.backend
import stimkit.cli  # noqa: F401  loads every module perfbench traces
import stimkit.synth

ROOT = Path(__file__).resolve().parent.parent


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, ROOT / path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    return {(name, key): value for name, module in list(sys.modules.items())
            if name == "stimkit" or name.startswith("stimkit.") for key, value in vars(module).items()}


def test_every_trace_target_binds_and_unbinds():
    tracer = _load("perfbench_tracer", "perfbench/tracer.py")
    before = _bindings()
    for targets in (tracer.NN_TARGETS, tracer.FLOW_TARGETS):
        t = tracer.Tracer()
        try:
            tracer.install(t, targets)  # raises if a target has lost its binding
            for module, attr, *_ in targets:
                assert hasattr(getattr(sys.modules[module], attr), "__wrapped__"), f"{module}.{attr}"
        finally:
            t.uninstall()
        after = _bindings()
        assert all(after[key] is value for key, value in before.items())


def test_timed_run_modules_import():
    # perfbench's untimed modules bind stimkit names at import (nn.train.predict, cli._to_u8,
    # pose.filter_head, ...), so loading them fails on a rename or removal
    path, modules = list(sys.path), set(sys.modules)
    try:
        sys.path.insert(0, str(ROOT / "perfbench"))
        workloads = _load("perfbench_workloads", "perfbench/workloads.py")
        setup_inputs = _load("perfbench_setup_inputs", "perfbench/setup_inputs.py")
    finally:
        sys.path[:] = path
        for name in set(sys.modules) - modules:  # perfbench's own modules, imported by their bare names
            if Path(getattr(sys.modules[name], "__file__", None) or "/").parent.name in ("perfbench", "benchmarks"):
                del sys.modules[name]
    assert callable(workloads.run_cli) and callable(setup_inputs.cli)
    assert set(setup_inputs.SETUPS) == {"cv-train", "predict-clips", "flow-pairs"}


def test_bench_helpers_and_backend_name():
    bench = _load("bench_backends", "benchmarks/bench_backends.py")
    assert callable(bench.timeit)
    assert bench._texture is stimkit.synth.flow_texture
    assert stimkit.backend.active_backend() == "numpy"
