"""Every committed ``BENCH_*.json`` holds the ten alternating pairs a speed claim needs.

A BENCH file records one perfbench comparison of a change against its parent:
per workload, ten seeds, each run once per side, and per metric the ten runs
of each side, their medians and how many pairs the change won.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
PAIRS = 10
KEYS = ("label", "what", "command", "parent_commit", "method", "host", "workloads")


def test_bench_files_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=[path.name for path in BENCH_FILES])
def test_bench_file_holds_ten_alternating_pairs(path):
    bench = json.loads(path.read_text(encoding="utf-8"))
    assert [key for key in KEYS if key not in bench] == []
    assert bench["workloads"]
    for name, workload in bench["workloads"].items():
        assert len(workload["seeds"]) == PAIRS, name
        for side in ("parent", "change"):
            assert workload["failed_operations"][side] == [0] * PAIRS, (name, side)
        for metric, values in workload["metrics"].items():
            where = f"{name} {metric}"
            parent, change = values["parent_runs"], values["change_runs"]
            assert len(parent) == len(change) == PAIRS, where
            # the stored medians are rounded to 6 places
            assert values["parent"] == pytest.approx(statistics.median(parent), abs=1e-6), where
            assert values["change"] == pytest.approx(statistics.median(change), abs=1e-6), where
            lower = sum(c < p for p, c in zip(parent, change))
            assert values["pairs_change_lower"] == lower, where
