import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_backends.py"


def test_quick_cases_run_once():
    # the benchmark scripts build inputs through the library API; a change
    # to that API must fail here, not only when someone runs the script
    spec = importlib.util.spec_from_file_location("bench_backends", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    cases = bench.build_cases(quick=True)
    assert cases
    for _, fn in cases:
        fn()
