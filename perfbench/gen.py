"""Seeded synthetic CI histories for the benchmark workloads.

``generate(workload, seed, root)`` writes, under ``root``:

- ``histories/<project>.csv`` in the canonical history format;
- ``checkouts/<project>/**/*.java`` source texts (source workloads only);
- ``config.json``, the ``evaluate`` config for the workload.

It returns the generated histories in memory so that the benchmark can
check the program's outputs against values it derives on its own. The same
workload and seed always give byte-identical files.

Every history has sparse failures: a quarter of the cycles fail, a failed
cycle has a few failing cases, and a small set of fragile cases draws most
of the failures, so some cases fail repeatedly. Durations are heavy-tailed
(log-normal per case, with per-run jitter) and every cycle has a build time.
Suite sizes follow a fixed multiset per workload that only the seed's
shuffle reorders, so the amount of work does not depend on the seed.
"""

from __future__ import annotations

import json
import math
import random
import statistics
from dataclasses import dataclass
from pathlib import Path

HEADER = "cycle,job_id,commit_id,build_time,position,test_name,duration,verdict"

LEAF_SPECS = {
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
PRESETS = ("P1.1", "P1.2", "P1.3", "P2", "P3.1", "P3.2")
HISTORY_LEAVES = (
    "base",
    "random",
    "recentness",
    "fold_fails_sum",
    "fold_fails_smooth",
    "exe_time",
    "fail_density",
)


@dataclass(frozen=True)
class Shape:
    """Size and content parameters of one workload."""

    projects: int
    cycles: int
    pool: int
    suite_min: int
    suite_max: int
    approaches: tuple[str, ...]
    sources: bool = False
    repetitions: int = 10
    max_failures: int = 4
    # Cases dropped from (and added back to) the previous suite per cycle,
    # as a share of the suite.
    churn: float = 0.1


WORKLOADS = {
    "small-suites": Shape(
        projects=4,
        cycles=200,
        pool=14,
        suite_min=6,
        suite_max=10,
        approaches=tuple(LEAF_SPECS) + PRESETS,
        max_failures=3,
        churn=0.3,
    ),
    "mid-suites-sources": Shape(
        projects=2,
        cycles=2,
        pool=140,
        suite_min=95,
        suite_max=105,
        approaches=("base", "code_dist", "code_dist_cosine", "P1.2", "P1.3", "P3.1", "P3.2"),
        sources=True,
    ),
    "large-suites": Shape(
        projects=2,
        cycles=12,
        pool=2000,
        suite_min=1200,
        suite_max=1800,
        approaches=HISTORY_LEAVES + ("P1.1", "P1.2", "P2", "P3.1"),
        repetitions=2,
    ),
}

FAILED_CYCLE_SHARE = 0.25
FRAGILE_SHARE = 0.1
FRAGILE_PICK = 0.6
VOCABULARY = 300
TOKENS_MIN = 50
TOKENS_MAX = 400


@dataclass(frozen=True)
class Cycle:
    index: int
    suite: tuple[str, ...]
    durations: tuple[float, ...]
    failed: tuple[bool, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    root: Path
    shape: Shape
    histories: dict[str, tuple[Cycle, ...]]
    # Token count of each case's source text, for source workloads.
    source_tokens: dict[str, dict[str, int]]


def _sizes(shape: Shape, rng: random.Random) -> list[int]:
    span = shape.suite_max - shape.suite_min
    steps = max(shape.cycles - 1, 1)
    sizes = [shape.suite_min + round(span * i / steps) for i in range(shape.cycles)]
    rng.shuffle(sizes)
    return sizes


def _suites(shape: Shape, sizes: list[int], rng: random.Random) -> list[list[int]]:
    """Pool indices of each cycle's suite, in execution (pool) order.

    Each suite keeps most of the previous one: a share of its cases drops
    out and cases from the rest of the pool fill it up to the cycle's size.
    """
    current = set(rng.sample(range(shape.pool), sizes[0]))
    suites = [sorted(current)]
    for size in sizes[1:]:
        drop = min(len(current), max(1, round(shape.churn * len(current))))
        current -= set(rng.sample(sorted(current), drop))
        outside = [i for i in range(shape.pool) if i not in current]
        if len(current) > size:
            current = set(rng.sample(sorted(current), size))
        else:
            current |= set(rng.sample(outside, size - len(current)))
        suites.append(sorted(current))
    return suites


def _failures(
    shape: Shape, suites: list[list[int]], fragile: set[int], rng: random.Random
) -> list[set[int]]:
    failed_count = max(1, round(FAILED_CYCLE_SHARE * shape.cycles))
    failed_cycles = set(rng.sample(range(shape.cycles), failed_count))
    result = []
    for position, suite in enumerate(suites):
        failing: set[int] = set()
        if position in failed_cycles:
            want = rng.randint(1, shape.max_failures)
            hot = [i for i in suite if i in fragile]
            while len(failing) < want:
                pool = hot if hot and rng.random() < FRAGILE_PICK else suite
                failing.add(rng.choice(pool))
        result.append(failing)
    return result


def _word(rng: random.Random) -> str:
    consonants = "bcdfghklmnprstvz"
    vowels = "aeiou"
    return "".join(
        rng.choice(consonants) + rng.choice(vowels) for _ in range(rng.randint(2, 4))
    )


def _vocabulary(rng: random.Random) -> list[str]:
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < VOCABULARY:
        word = _word(rng)
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def _source(case: str, words: list[str], weights: list[float], rng: random.Random) -> tuple[str, int]:
    """A Java-like source text and its number of body tokens."""
    package, _, name = case.rpartition(".")
    count = rng.randint(TOKENS_MIN, TOKENS_MAX)
    body = rng.choices(words, weights=weights, k=count)
    lines = [f"package {package};", "", f"public class {name} {{"]
    for start in range(0, count, 6):
        chunk = body[start : start + 6]
        lines.append(f"    {chunk[0]}({', '.join(chunk[1:])});")
    lines.append("}")
    return "\n".join(lines) + "\n", count


def _case_name(project: str, index: int) -> str:
    return f"com.example.{project}.pkg{index % 7}.Case{index:04d}Test"


def generate(workload: str, seed: int, root: Path | str) -> Workload:
    """Write one workload's histories, sources and config under ``root``."""
    shape = WORKLOADS[workload]
    root = Path(root)
    rng = random.Random(f"{workload}:{seed}")
    histories: dict[str, tuple[Cycle, ...]] = {}
    source_tokens: dict[str, dict[str, int]] = {}
    projects_cfg = []
    (root / "histories").mkdir(parents=True, exist_ok=True)
    vocabulary = _vocabulary(rng) if shape.sources else []
    zipf = [1.0 / (rank + 1) for rank in range(len(vocabulary))]
    for p in range(shape.projects):
        project = f"p{p}"
        names = [_case_name(project, i) for i in range(shape.pool)]
        base_duration = [math.exp(rng.gauss(-1.0, 1.5)) for _ in range(shape.pool)]
        fragile = set(rng.sample(range(shape.pool), max(1, round(FRAGILE_SHARE * shape.pool))))
        sizes = _sizes(shape, rng)
        suites = _suites(shape, sizes, rng)
        failures = _failures(shape, suites, fragile, rng)
        cycles = []
        lines = [HEADER]
        for position, (suite, failing) in enumerate(zip(suites, failures)):
            index = position + 1
            build_time = round(rng.uniform(60.0, 600.0), 3)
            commit = f"{rng.getrandbits(40):010x}"
            durations = tuple(
                max(0.001, round(base_duration[i] * math.exp(rng.gauss(0.0, 0.2)), 3))
                for i in suite
            )
            verdicts = tuple(i in failing for i in suite)
            for slot, (i, duration, failed) in enumerate(zip(suite, durations, verdicts)):
                lines.append(
                    f"{index},job-{index},{commit},{build_time!r},{slot},"
                    f"{names[i]},{duration!r},{'fail' if failed else 'pass'}"
                )
            cycles.append(
                Cycle(index, tuple(names[i] for i in suite), durations, verdicts)
            )
        histories[project] = tuple(cycles)
        history_path = root / "histories" / f"{project}.csv"
        history_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        entry = {"name": project, "history": f"histories/{project}.csv"}
        if shape.sources:
            checkout = root / "checkouts" / project
            tokens: dict[str, int] = {}
            for name in names:
                text, count = _source(name, vocabulary, zipf, rng)
                path = checkout / (name.replace(".", "/") + ".java")
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(text, encoding="utf-8")
                tokens[name] = count
            source_tokens[project] = tokens
            entry["sources_dir"] = f"checkouts/{project}"
        projects_cfg.append(entry)
    approaches = {
        name: (LEAF_SPECS[name] if name in LEAF_SPECS else name) for name in shape.approaches
    }
    config = {
        "projects": projects_cfg,
        "approaches": approaches,
        "seed": seed,
        "repetitions": shape.repetitions,
        "min_suite_size": 6,
        "tie_policy": "random",
        "metrics": ["apfd", "apfd_c", "rapfd", "rapfd_c", "ntr", "atr"],
    }
    (root / "config.json").write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return Workload(workload, seed, root, shape, histories, source_tokens)


def properties(workload: Workload) -> dict:
    """Input properties that the program's behaviour depends on.

    ``fold_fails_tie_group_ratio`` replays the total-failure score that
    ``fold_fails`` (folder ``sum``) ranks by: for each cycle, the number of
    distinct scores in the suite, summed and divided by the summed suite
    sizes. ``reused_share`` is the share of a cycle's cases that ran in the
    previous cycle too.
    """
    sizes = []
    cycles = failed_cycles = failing_cases = 0
    groups = cases = reused = later_cases = 0
    for history in workload.histories.values():
        fails: dict[str, int] = {}
        previous: set[str] = set()
        for position, cycle in enumerate(history):
            sizes.append(len(cycle.suite))
            cycles += 1
            failed = sum(cycle.failed)
            if failed:
                failed_cycles += 1
                failing_cases += failed
            groups += len({fails.get(case, 0) for case in cycle.suite})
            cases += len(cycle.suite)
            if position:
                reused += len(previous.intersection(cycle.suite))
                later_cases += len(cycle.suite)
            previous = set(cycle.suite)
            for case, flag in zip(cycle.suite, cycle.failed):
                fails[case] = fails.get(case, 0) + flag
    sheet = {
        "suite_size_quartiles": statistics.quantiles(sizes, n=4),
        "cycles": cycles,
        "failed_cycle_share": failed_cycles / cycles,
        "failing_cases_per_failed_cycle": failing_cases / failed_cycles,
        "fold_fails_tie_group_ratio": groups / cases,
        "reused_share": reused / later_cases if later_cases else 0.0,
    }
    tokens = [n for per_project in workload.source_tokens.values() for n in per_project.values()]
    if tokens:
        sheet["source_tokens_quartiles"] = statistics.quantiles(tokens, n=4)
        sheet["source_files"] = len(tokens)
    return sheet
