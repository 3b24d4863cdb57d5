"""The benchmark harness's patch table resolves against the engine.

``benchmarks/harness/trace.py`` times the layers from outside: it swaps
each ``TARGETS`` row's callable in the dict of the module or class that
row names.  A callable moved to another class, or inherited instead of
defined, would crash the benchmark run while every engine test passes.
"""

import importlib.util
import pathlib

TRACE = (
    pathlib.Path(__file__).resolve().parent.parent
    / "benchmarks" / "harness" / "trace.py"
)


def test_every_trace_target_is_defined_where_the_harness_patches_it():
    spec = importlib.util.spec_from_file_location("harness_trace", TRACE)
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    missing = [
        f"{where} {attribute}"
        for where, attribute, _bucket, _kind in trace.TARGETS
        if attribute not in vars(trace.holder(where))
    ]
    assert trace.TARGETS and not missing, missing
