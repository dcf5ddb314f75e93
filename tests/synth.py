"""Synthetic histories and replay helpers shared across test modules."""

from __future__ import annotations

import random
from typing import Iterable, Mapping, Sequence

from tcp_lab.combinators import PRESETS, build
from tcp_lab.model import (
    Approach,
    CycleRecord,
    ProjectHistory,
    RankedSuite,
    TestExecution,
    Verdict,
    validate_ranking,
)


def execution(case: str, duration: float = 1.0, failed: bool = False) -> TestExecution:
    return TestExecution(case, duration, Verdict.FAIL if failed else Verdict.PASS)


def cycle(
    index: int,
    cases: Sequence[str],
    failures: Iterable[str] = (),
    durations: Mapping[str, float] | None = None,
    job_id: str | None = None,
    commit_id: str = "c0",
    build_time: float | None = None,
) -> CycleRecord:
    failed = set(failures)
    durations = durations or {}
    return CycleRecord(
        index=index,
        job_id=job_id if job_id is not None else f"job-{index}",
        commit_id=commit_id,
        build_time=build_time,
        executions=tuple(
            execution(c, durations.get(c, 1.0), c in failed) for c in cases
        ),
    )


def random_history(
    rng: random.Random,
    n_cycles: int = 12,
    pool_size: int = 8,
    min_suite: int = 2,
    fail_rate: float = 0.3,
    project: str = "synthetic",
) -> ProjectHistory:
    """History with a drifting suite, random verdicts, and random durations."""
    pool = [f"t{i:02d}" for i in range(pool_size)]
    cycles = []
    for index in range(n_cycles):
        size = rng.randint(min_suite, pool_size)
        cases = rng.sample(pool, size)
        failures = {c for c in cases if rng.random() < fail_rate}
        durations = {c: round(rng.uniform(0.1, 9.9), 3) for c in cases}
        cycles.append(
            cycle(
                index,
                cases,
                failures,
                durations,
                build_time=round(rng.uniform(0.0, 30.0), 3),
            )
        )
    return ProjectHistory(project, tuple(cycles))


def example_sources(cases: Iterable[str]) -> dict[str, str]:
    """Distinct deterministic source texts for code-distance approaches."""
    texts = {}
    for i, case in enumerate(sorted(cases)):
        words = [f"token{j}" for j in range(i + 1)]
        texts[case] = f"class {case} {{ {' '.join(words * (i + 1))} }}"
    return texts


def shipped_approach_specs() -> dict[str, object]:
    """Every base approach plus all presets, as buildable specs."""
    specs: dict[str, object] = {
        "base": {"type": "base_order"},
        "random": {"type": "random_order", "seed": 7},
        "recentness": {"type": "recentness_order"},
        "fold_fails_sum": {"type": "fold_fails", "folder": "sum"},
        "fold_fails_smooth": {"type": "fold_fails", "folder": "exp_smooth", "alpha": 0.8},
        "exe_time": {"type": "exe_time", "alpha": 0.8},
        "fail_density": {"type": "fail_density"},
        "code_dist": {"type": "code_dist", "metric": "euclidean"},
        "code_dist_cosine": {"type": "code_dist", "metric": "cosine", "start": "first_case"},
    }
    specs.update(PRESETS)
    return specs


def replay(
    approach: Approach, history: ProjectHistory, validate: bool = True
) -> list[RankedSuite]:
    """Rank-then-observe every cycle, optionally validating each ranking."""
    rankings = []
    for record in history.cycles:
        suite = list(record.suite)
        ranking = approach.rank(suite)
        if validate:
            validate_ranking(suite, ranking)
        rankings.append(ranking)
        approach.observe(record.executions)
    return rankings


def build_all(history: ProjectHistory, master_seed: int = 0) -> dict[str, Approach]:
    return {
        name: build(spec, sources=history.sources, master_seed=master_seed)
        for name, spec in shipped_approach_specs().items()
    }
