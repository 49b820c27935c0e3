"""Deterministic fingerprint of the benchmark workloads.

For every workload at seed 0, the first pass of requests must reproduce
``fingerprint.json`` exactly: modularity, wire bytes, simulated BSP time,
levels and inner iterations per request.  Seed 1 must give different
inputs that still pass the output check, which shows the seed reaches the
generators.  Run from the repository root (about three minutes)::

    PYTHONPATH=src python -m pytest perfbench/test_fingerprint.py

After a change that alters clustering results on purpose, rewrite the
record with ``PYTHONPATH=src python perfbench/test_fingerprint.py``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import client  # noqa: E402
import workloads  # noqa: E402

RECORD = HERE / "fingerprint.json"
FIELDS = ("modularity", "wire_bytes", "sim_time_s", "levels", "iterations")


def first_pass(name: str, seed: int) -> list[dict]:
    wl = workloads.WORKLOADS[name]
    inputs = workloads.generate_inputs(name, seed)
    return [
        client.run_request(wl, inputs, i, traced=False)
        for i in range(len(inputs["req_graph"]))
    ]


def fingerprint(records: list[dict]) -> list[dict]:
    return [{f: r[f] for f in FIELDS} for r in records]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_0_repeats_recorded_fingerprint(name):
    records = first_pass(name, 0)
    assert [r["problems"] for r in records] == [[]] * len(records)
    assert fingerprint(records) == json.loads(RECORD.read_text())[name]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_1_changes_inputs_and_passes_check(name):
    records = first_pass(name, 1)
    assert [r["problems"] for r in records] == [[]] * len(records)
    assert fingerprint(records) != json.loads(RECORD.read_text())[name]


if __name__ == "__main__":
    RECORD.write_text(
        json.dumps(
            {name: fingerprint(first_pass(name, 0)) for name in sorted(workloads.WORKLOADS)},
            indent=1,
        )
        + "\n"
    )
