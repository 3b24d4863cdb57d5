"""``--seed`` drives every tape: same seed, same statements and the same
exact-count metrics; another seed, another tape.

Run with ``PYTHONPATH=src python -m pytest benchmarks/harness/tests``
(outside the tier-1 ``testpaths``: the second test runs the benchmark).
"""

import json
import subprocess
import sys

import pytest

import workloads
from conftest import HARNESS

#: counts that must repeat exactly on a single-client workload
EXACT = {
    "nav_cold": (
        "storage.logical_reads", "storage.physical_reads", "storage.evictions",
        "storage.distinct_pages", "storage.data_subtuple_decodes",
        "storage.objects_opened", "index.probes", "index.btree_node_visits",
    ),
    "write_commit": (
        "wal.fsyncs_per_commit", "wal.bytes_per_commit", "wal.checkpoints",
        "write_amp", "storage.logical_reads", "acked_lost",
    ),
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tape_follows_the_seed(name):
    spec = workloads.WORKLOADS[name]
    assert workloads.tape_sha256(spec, 7) == workloads.tape_sha256(spec, 7)
    assert workloads.tape_sha256(spec, 7) != workloads.tape_sha256(spec, 8)


def traced(name: str, seed: int) -> dict:
    done = subprocess.run(
        [
            sys.executable, f"{HARNESS}/run.py", "--workload", name,
            "--seed", str(seed), "--seconds", "1", "--trace", "1",
        ],
        capture_output=True, text=True, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("name", sorted(EXACT))
def test_exact_counts_repeat(name):
    first, second = traced(name, 11), traced(name, 11)
    for metric in EXACT[name]:
        assert first[metric] == second[metric], metric
