"""Replay harness: run approaches over CI histories and collect metrics.

One replay is three steps, each owned by one function:

1. :func:`replay` runs the rank/observe protocol and times each ``rank``
   call with a monotonic clock. It hands a cycle's results to ``observe``
   only when its consumer asks for the next cycle, so every cycle is scored
   before the approach sees its outcome.
2. :func:`score_cycle` flattens a ranking under the tie policy and scores
   the order against the cycle's verdicts and durations. Scoring checks that
   the order is exactly the suite; flattening neither adds nor drops a case,
   so that one check covers the ranking.
3. :func:`evaluate_approach` keeps one :class:`CycleRow` and one
   :class:`TimingRow` per cycle and repetition, and computes every aggregate
   from those rows alone: each repetition's in ``_repetition_aggregates``,
   then their mean over repetitions.

Determinism: everything except wall-clock prioritization times is a pure
function of the configuration and master seed. Raw metric values therefore
land in ``raw/`` (byte-identical across reruns) while measured timings land
in ``timing/``.
"""

from __future__ import annotations

import hashlib
import json
import platform
import random
import sys
import time
from collections import Counter
from contextlib import suppress
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from tcp_lab import metrics as metrics_mod
from tcp_lab.approaches import SourceVectors
from tcp_lab.combinators import InvalidSpecError, build, spec_is_randomized
from tcp_lab.dataset import (
    DEFAULT_MIN_SUITE_SIZE,
    PARSE_ERROR,
    DatasetError,
    attach_sources,
    filter_for_evaluation,
    read_canonical,
)
from tcp_lab.metrics import (
    CycleView,
    DegenerateBoundsError,
    MetricError,
    ScoredOrder,
    ZeroTotalTimeError,
    mean_median,
    testing_time,
)
from tcp_lab.model import (  # ConfigError is re-exported here too
    Approach,
    ConfigError,
    CycleRecord,
    FlattenPolicy,
    ProjectHistory,
    RankedSuite,
    flatten,
)

ALL_METRICS = ("apfd", "apfd_c", "rapfd", "rapfd_c", "ntr", "atr")
APFD_FAMILY = ("apfd", "apfd_c", "rapfd", "rapfd_c")

DEFAULT_REPETITIONS = 10

# Every metric sum stays finite while each cycle's total time times its suite
# size (the APFD_C numerator and denominator) and the total time over all
# cycles (NTR and ATR) stay under this; half the largest float leaves room for
# the other summation orders and for the prioritization times.
_MAX_TIME_SUM = sys.float_info.max / 2


def derive_seed(*parts: object) -> int:
    """Stable 63-bit seed from a master seed and context labels."""
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class ProjectConfig:
    name: str
    history_path: Path
    sources_dir: Path | None = None


@dataclass(frozen=True)
class EvaluationConfig:
    projects: tuple[ProjectConfig, ...]
    approaches: dict[str, Mapping | str]
    seed: int = 0
    repetitions: int = DEFAULT_REPETITIONS
    min_suite_size: int = DEFAULT_MIN_SUITE_SIZE
    tie_policy: FlattenPolicy = FlattenPolicy.RANDOM
    metric_names: tuple[str, ...] = ALL_METRICS

    @classmethod
    def from_dict(cls, raw: Mapping, base_dir: Path) -> "EvaluationConfig":
        """Check and resolve a parsed config; a bad field or spec is a ConfigError."""
        if not isinstance(raw, Mapping):
            raise ConfigError("config must be a JSON object")
        projects_raw = raw.get("projects")
        if not isinstance(projects_raw, list) or not projects_raw:
            raise ConfigError("config needs a non-empty 'projects' list")
        projects = []
        seen_names: set[str] = set()
        for entry in projects_raw:
            if not isinstance(entry, Mapping) or "name" not in entry or "history" not in entry:
                raise ConfigError("each project needs 'name' and 'history'")
            name = entry["name"]
            if not isinstance(name, str):
                raise ConfigError(
                    f"project name must be a JSON string, got {json.dumps(name, default=repr)}"
                )
            _path_component("project name", name)
            if name in seen_names:
                raise ConfigError(f"duplicate project name {name!r}")
            seen_names.add(name)
            history, sources = entry["history"], entry.get("sources_dir")
            if not isinstance(history, str) or not isinstance(sources, (str, type(None))):
                raise ConfigError(f"project {name!r}: history and sources_dir must be strings")
            projects.append(
                ProjectConfig(
                    name=name,
                    history_path=(base_dir / history).resolve(),
                    sources_dir=(base_dir / sources).resolve() if sources else None,
                )
            )
        approaches_raw = raw.get("approaches")
        if not isinstance(approaches_raw, Mapping) or not approaches_raw:
            raise ConfigError("config needs a non-empty 'approaches' mapping")
        for name, spec in approaches_raw.items():
            _path_component("approach name", str(name))
            try:
                build(spec, master_seed=0)
            except InvalidSpecError as error:
                raise ConfigError(f"approach {name!r}: {error}") from None
        metric_names = raw.get("metrics", ALL_METRICS)
        if not isinstance(metric_names, (list, tuple)):
            raise ConfigError(f"metrics must be a list of names, got {metric_names!r}")
        metric_names = tuple(metric_names)
        unknown = [m for m in metric_names if m not in ALL_METRICS]
        if unknown:
            raise ConfigError(f"unknown metrics {unknown}; choose from {ALL_METRICS}")
        tie_policy_raw = raw.get("tie_policy", FlattenPolicy.RANDOM.value)
        try:
            tie_policy = FlattenPolicy(tie_policy_raw)
        except ValueError:
            raise ConfigError(f"unknown tie policy {tie_policy_raw!r}") from None
        # type() and not isinstance(): JSON true and false are bools, an int subclass
        repetitions = raw.get("repetitions", DEFAULT_REPETITIONS)
        if type(repetitions) is not int or repetitions < 1:
            raise ConfigError("repetitions must be a positive integer")
        min_suite = raw.get("min_suite_size", DEFAULT_MIN_SUITE_SIZE)
        if type(min_suite) is not int or min_suite < 1:
            raise ConfigError("min_suite_size must be a positive integer")
        seed = raw.get("seed", 0)
        if type(seed) is not int:
            raise ConfigError("seed must be an integer")
        return cls(
            projects=tuple(projects),
            approaches={str(k): v for k, v in approaches_raw.items()},
            seed=seed,
            repetitions=repetitions,
            min_suite_size=min_suite,
            tie_policy=tie_policy,
            metric_names=metric_names,
        )


def _path_component(field: str, name: str) -> str:
    """``name`` if it is one plain path component (it names files under ``--out``)."""
    if name in ("", ".", "..") or "/" in name or "\\" in name:
        raise ConfigError(f"{field} {name!r} must be one plain path component")
    return name


@dataclass
class CycleRow:
    """Deterministic per-cycle metric values for one repetition."""

    repetition: int
    cycle_index: int
    suite_size: int
    fault_count: int
    values: dict[str, float | None]
    first_fault_time: float | None
    full_time: float


@dataclass
class TimingRow:
    """Wall-clock-dependent per-cycle values for one repetition."""

    repetition: int
    cycle_index: int
    prioritization: float
    build: float
    testing_time: float
    baseline_tt: float


@dataclass
class ApproachOutcome:
    approach: str
    repetitions: int
    rows: list[CycleRow]
    timing: list[TimingRow]
    aggregates: dict[str, float | None]
    no_data: list[str]
    exclusions: dict[str, int]


@dataclass
class ProjectOutcome:
    project: str
    cycles: int
    failed_cycles: int
    approaches: dict[str, ApproachOutcome] = field(default_factory=dict)
    error: str | None = None


def _baseline(history: ProjectHistory) -> list[CycleView]:
    """One view per cycle, shared by every approach and repetition.

    A history whose durations the metrics cannot add up in floats is a
    PARSE_ERROR naming its first such cycle; see ``_MAX_TIME_SUM``.
    """
    views = [CycleView(cycle) for cycle in history.cycles]
    running = 0.0
    for cycle, view in zip(history.cycles, views):
        running += view.full_time
        if not (view.full_time * len(view.suite) <= _MAX_TIME_SUM and running <= _MAX_TIME_SUM):
            raise DatasetError(
                PARSE_ERROR,
                f"project {history.project!r}, cycle {cycle.index}: durations too large "
                f"to sum (over {_MAX_TIME_SUM!r} s)",
            )
    return views


def load_project_history(
    project: ProjectConfig, min_suite_size: int
) -> ProjectHistory:
    history = read_canonical(project.history_path, project=project.name)
    if project.sources_dir is not None:
        history = attach_sources(history, project.sources_dir)
    return filter_for_evaluation(history, min_suite_size)


def evaluate_approach(
    history: ProjectHistory,
    name: str,
    spec: Mapping | str,
    config: EvaluationConfig,
    baseline: list[CycleView] | None = None,
    vectors: SourceVectors | None = None,
) -> ApproachOutcome:
    """Replay one approach over a (filtered) history, all repetitions.

    Callers replaying several approaches pass the project's cycle views
    (``baseline``) and source ``vectors`` in to share them.
    """
    if baseline is None:
        baseline = _baseline(history)
    if vectors is None:
        vectors = SourceVectors(history.sources)
    repetitions = config.repetitions if spec_is_randomized(spec) else 1
    family = [m for m in APFD_FAMILY if m in config.metric_names]
    rows: list[CycleRow] = []
    timing_rows: list[TimingRow] = []
    exclusions = Counter({"rapfd_degenerate": 0, "rapfd_c_degenerate": 0})
    per_rep: list[dict[str, float]] = []

    for rep in range(repetitions):
        approach = build(
            spec,
            sources=vectors,
            master_seed=derive_seed(config.seed, name, rep),
        )
        tie_seeds = random.Random(derive_seed(config.seed, name, rep, "ties"))
        first = len(rows)
        for (cycle, ranking, prioritization), view in zip(replay(approach, history), baseline):
            scored, values, excluded = score_cycle(
                view, ranking, config.tie_policy, tie_seeds.getrandbits(63), family
            )
            if rep == 0:
                exclusions.update(excluded)
            ff, full = scored.first_fault_time, scored.full_time
            rows.append(
                CycleRow(rep, cycle.index, len(view.suite), view.fault_count, values, ff, full)
            )
            tt = testing_time(prioritization, view.build, ff, full)
            timing_rows.append(
                TimingRow(rep, cycle.index, prioritization, view.build, tt, view.tt)
            )
        per_rep.append(_repetition_aggregates(rows[first:], timing_rows[first:], family))

    keys = [f"{m}_{s}" for m in family for s in ("mean", "median")]
    keys += [m for m in ("ntr", "atr") if m in config.metric_names]
    keys.append("total_pt")
    aggregates: dict[str, float | None] = {}
    for key in keys:
        series = [values[key] for values in per_rep if key in values]
        aggregates[key] = sum(series) / len(series) if series else None
    return ApproachOutcome(
        approach=name,
        repetitions=repetitions,
        rows=rows,
        timing=timing_rows,
        aggregates=aggregates,
        no_data=[key for key in keys if aggregates[key] is None],
        exclusions=dict(exclusions),
    )


def replay(
    approach: Approach, history: ProjectHistory
) -> Iterator[tuple[CycleRecord, RankedSuite, float]]:
    """Yield ``(cycle, ranking, prioritization_s)`` for each cycle, timing only ``rank``.

    A cycle's results reach ``observe`` only when the consumer asks for the
    next cycle, so every cycle is scored before the approach sees it.
    """
    for cycle in history.cycles:
        suite = list(cycle.suite)
        started = time.perf_counter()
        ranking = approach.rank(suite)
        prioritization = time.perf_counter() - started
        yield cycle, ranking, prioritization
        approach.observe(cycle.executions)


def score_cycle(
    view: CycleView, ranking: RankedSuite, policy: FlattenPolicy, tie_seed: int, family: list[str]
) -> tuple[ScoredOrder, dict[str, float | None], list[str]]:
    """Flatten and score one ranking: ``(scored order, values, exclusion keys)``.

    ``values`` holds the ``family`` values of a failed cycle (None where one
    is undefined, which adds its exclusion key) and is empty otherwise.
    """
    scored = view.score(flatten(ranking, policy, seed=tie_seed))
    if not view.failed:
        return scored, {}, []
    values: dict[str, float | None] = {}
    excluded: list[str] = []
    for metric_name in family:
        try:
            values[metric_name] = getattr(scored, metric_name)
        except DegenerateBoundsError:
            values[metric_name] = None
            excluded.append(f"{metric_name}_degenerate")
        except ZeroTotalTimeError:  # all durations zero: a cycle-level condition
            values[metric_name] = None
            excluded.append(f"{metric_name}_zero_time")
    return scored, values, excluded


def _repetition_aggregates(
    rows: Sequence[CycleRow], timing: Sequence[TimingRow], family: Sequence[str]
) -> dict[str, float]:
    """One repetition's aggregates from its rows; a key without data is left out."""
    failed = [row for row in rows if row.first_fault_time is not None]
    out: dict[str, float] = {}
    for metric_name in family:
        values = [v for row in failed if (v := row.values[metric_name]) is not None]
        if values:
            out[f"{metric_name}_mean"], out[f"{metric_name}_median"] = mean_median(values)
    with suppress(MetricError):
        out["ntr"] = metrics_mod.ntr([(row.full_time, row.first_fault_time) for row in failed])
    with suppress(MetricError):
        out["atr"] = metrics_mod.atr(
            [t.testing_time for t in timing], [t.baseline_tt for t in timing]
        )
    out["total_pt"] = reduce(add, (t.prioritization for t in timing), 0.0)
    return out


def evaluate_project(
    project: ProjectConfig, config: EvaluationConfig
) -> ProjectOutcome:
    """Evaluate every configured approach on one project; errors are captured."""
    try:
        history = load_project_history(project, config.min_suite_size)
        baseline = _baseline(history)
        # tokens and per-metric keys come from the first build that needs them
        vectors = SourceVectors(history.sources)
        outcome = ProjectOutcome(
            project=project.name,
            cycles=len(history.cycles),
            failed_cycles=len(history.failed_cycles),
        )
        for name, spec in config.approaches.items():
            outcome.approaches[name] = evaluate_approach(
                history, name, spec, config, baseline, vectors
            )
        return outcome
    except Exception as error:  # isolate failures per project
        return ProjectOutcome(project=project.name, cycles=0, failed_cycles=0, error=str(error))


def run_evaluation(config: EvaluationConfig, jobs: int = 1) -> list[ProjectOutcome]:
    if jobs > 1 and len(config.projects) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(config.projects))) as pool:
            return list(
                pool.map(evaluate_project, config.projects, [config] * len(config.projects))
            )
    return [evaluate_project(project, config) for project in config.projects]


# --- persistence -----------------------------------------------------------


def _csv_line(values: Sequence[object]) -> str:
    """One CSV line: None is an empty cell, any other value its ``repr``."""
    return ",".join(["" if value is None else repr(value) for value in values])


def write_outcomes(
    out_dir: Path, config: EvaluationConfig, outcomes: Sequence[ProjectOutcome]
) -> None:
    """Persist raw (deterministic) and timing (wall-clock) values plus a summary."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)  # also when every project failed
    metric_columns = [m for m in APFD_FAMILY if m in config.metric_names]
    summary: dict = {
        "seed": config.seed,
        "repetitions": config.repetitions,
        "min_suite_size": config.min_suite_size,
        "tie_policy": config.tie_policy.value,
        "metrics": list(config.metric_names),
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "projects": {},
    }
    for outcome in outcomes:
        entry: dict = {
            "status": "error" if outcome.error else "ok",
            "cycles": outcome.cycles,
            "failed_cycles": outcome.failed_cycles,
            "approaches": {},
        }
        summary["projects"][outcome.project] = entry
        if outcome.error:
            entry["error"] = outcome.error
            continue
        raw_dir = out_dir / "raw" / outcome.project
        timing_dir = out_dir / "timing" / outcome.project
        raw_dir.mkdir(parents=True, exist_ok=True)
        timing_dir.mkdir(parents=True, exist_ok=True)
        for name, result in outcome.approaches.items():
            entry["approaches"][name] = {
                "repetitions": result.repetitions,
                "aggregates": result.aggregates,
                "no_data": result.no_data,
                "exclusions": result.exclusions,
            }
            header = ["repetition", "cycle", "suite_size", "fault_count", *metric_columns]
            lines = [",".join(header + ["first_fault_time", "full_time"])]
            for row in result.rows:
                cells = [row.repetition, row.cycle_index, row.suite_size, row.fault_count]
                cells += [row.values.get(m) for m in metric_columns]
                lines.append(_csv_line(cells + [row.first_fault_time, row.full_time]))
            (raw_dir / f"{name}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
            lines = ["repetition,cycle,prioritization_s,build_s,testing_time_s,baseline_tt_s"]
            for trow in result.timing:
                times = [trow.prioritization, trow.build, trow.testing_time, trow.baseline_tt]
                lines.append(_csv_line([trow.repetition, trow.cycle_index, *times]))
            (timing_dir / f"{name}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (out_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
