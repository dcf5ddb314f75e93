"""Self-tests of the benchmark's generator and span arithmetic.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import pytest

import gen
import tracing
from run import tree_digest


def _content(path):
    return tree_digest(path) if path.is_dir() else path.read_bytes()


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path, workload):
    first = gen.generate(workload, 5, tmp_path / "a")
    gen.generate(workload, 5, tmp_path / "b")
    gen.generate(workload, 6, tmp_path / "c")
    assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")
    parts = ["histories", "config.json"] + (["checkouts"] if first.shape.sources else [])
    for part in parts:
        assert _content(tmp_path / "a" / part) != _content(tmp_path / "c" / part)


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_shape_is_seed_independent(tmp_path, workload):
    shape = gen.WORKLOADS[workload]
    sheets = [gen.properties(gen.generate(workload, seed, tmp_path / str(seed))) for seed in (1, 2)]
    for sheet in sheets:
        assert sheet["cycles"] == shape.projects * shape.cycles
        assert shape.suite_min <= sheet["suite_size_quartiles"][0]
        assert sheet["suite_size_quartiles"][2] <= shape.suite_max
    assert sheets[0]["suite_size_quartiles"] == sheets[1]["suite_size_quartiles"]
    assert sheets[0]["failed_cycle_share"] == sheets[1]["failed_cycle_share"]


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    spans = [
        # name, start, end, parent
        ("cli.evaluate", 0.0, 10.0, -1),
        ("evaluation.evaluate_approach", 1.0, 9.0, 0),
        ("approaches.leaf.rank", 2.0, 5.0, 1),
        ("model.flatten", 3.0, 4.0, 2),
        ("approaches.leaf.observe", 6.0, 7.0, 1),
    ]
    for name, start, end, parent in spans:
        tracer.names.append(name)
        tracer.starts.append(start)
        tracer.ends.append(end)
        tracer.parents.append(parent)
        tracer.runs.append(1)
    tracer.tags[1] = "base"
    out = tracing.layer_metrics(tracer, ["base"], untraced_wall=8.0)
    assert out["evaluation.evaluate_approach_s"][0] == 4.0
    assert out["approaches.leaf.rank_s"][0] == 2.0
    assert out["model.flatten_s"][0] == 1.0
    assert out["replay.base.rank_s"][0] == 3.0
    assert out["replay.base.observe_s"][0] == 1.0
    assert out["evaluation.approach_cycles"][0] == 1
    assert out["trace.unaccounted_share"][0] == pytest.approx(0.2)
    assert out["trace.overhead"][0] == pytest.approx(0.25)
