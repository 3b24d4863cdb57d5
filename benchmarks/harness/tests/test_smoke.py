"""Smoke test of the whole benchmark (``--quick``: one second per pass).

Run with ``PYTHONPATH=src python -m pytest benchmarks/harness/tests``;
outside the tier-1 ``testpaths`` because it runs every workload twice.
"""

import json
import re
import statistics
import subprocess
import sys
import time

import pytest

import dataset
import run
import workloads
from conftest import HARNESS
from trace import TARGETS, Tracer, holder

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def report():
    done = subprocess.run(
        [sys.executable, f"{HARNESS}/run.py", "--quick", "--seed", "3"],
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    with open(f"{run.WORK}/report.json", encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_json_matches_the_code():
    with open(run.BENCHMARK_JSON, encoding="utf-8") as handle:
        benchmark = json.load(handle)
    assert [w["name"] for w in benchmark["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in benchmark["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in benchmark["per_layer"]} == run.PER_LAYER
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in benchmark[key]]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert 2 <= len(benchmark["workloads"]) <= 8
    assert 1 <= len(benchmark["end_to_end"]) <= 16
    assert 1 <= len(benchmark["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in benchmark["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in benchmark["workloads"])


def test_every_metric_is_reported(report):
    assert report["claim"] is None
    assert set(report["workloads"]) == set(workloads.WORKLOADS)
    for name, entry in report["workloads"].items():
        assert set(entry["end_to_end"]) == set(run.END_TO_END), name
        assert all(value > 0 for value in entry["end_to_end"].values()), name
        assert set(entry["per_layer"]) == set(run.PER_LAYER), name
        assert entry["per_layer"]["failed_share"] == 0, name
        assert entry["per_layer"]["acked_lost"] == 0, name
        for verdict in (entry["end_to_end_verdict"], entry["per_layer_verdict"]):
            assert verdict["correct"] and verdict["failed"] == 0, name
        layers, op = entry["per_layer"]["trace.self_sum_ms"], entry["per_layer"]["trace.op_ms"]
        assert abs(layers - op) <= 0.10 * op, name


def test_layers_apply_where_the_table_says(report):
    layers = {name: entry["per_layer"] for name, entry in report["workloads"].items()}
    for name in ("flat_scan", "point_hot", "nav_cold", "conj_index", "write_commit"):
        assert layers[name]["server.self_ms"] == 0, name
        assert layers[name]["locks.requests"] == 0, name
    for name in ("wire_point", "wire_mix"):
        assert layers[name]["server.self_ms"] > 0, name
        assert layers[name]["server.requests"] > 0, name
    for name in ("write_commit", "wire_mix"):
        assert layers[name]["wal.fsyncs_per_commit"] >= 1, name
        assert layers[name]["write_amp"] > 1, name
    assert layers["write_commit"]["wal.recover_records"] > 0
    assert layers["nav_cold"]["storage.physical_reads"] > 0
    assert layers["point_hot"]["storage.physical_reads"] == 0
    assert layers["flat_scan"]["executor.columnar_chunks"] > 0
    assert layers["flat_scan"]["index.probes"] == 0


def test_wrappers_are_fully_uninstalled(tmp_path):
    from repro.database import Database

    originals = [vars(holder(where))[attr] for where, attr, _, _ in TARGETS]
    path = dataset.build(dataset.generate(3), str(tmp_path))
    db = Database(path, buffer_capacity=4096)
    spec = workloads.WORKLOADS["point_hot"]
    tape = workloads.tape(spec, 3)

    def ops_per_second() -> float:
        rates = []
        for _ in range(5):
            began = time.perf_counter()
            for _ in range(200):
                db.execute(next(tape).sql).to_plain()
            rates.append(200 / (time.perf_counter() - began))
        return statistics.median(rates)

    try:
        ops_per_second()  # warm-up
        before = ops_per_second()
        tracer = Tracer()
        tracer.install()
        with tracer.operation("probe", "harness"):
            db.execute(next(tape).sql)
        tracer.uninstall()
        after = ops_per_second()
    finally:
        db.close()
    assert tracer.spans
    assert [vars(holder(where))[attr] for where, attr, _, _ in TARGETS] == originals
    with open(run.BENCHMARK_JSON, encoding="utf-8") as handle:
        bounds = {m["name"]: m["bound"] for m in json.load(handle)["end_to_end"]}
    assert after >= before * (1 - bounds["ops_s"])
