"""Replay harness: run approaches over CI histories and collect metrics.

Replay protocol per cycle: rank the suite (timing just the rank call with a
monotonic clock), flatten the ranking to a total order, score that order
against the cycle's actual verdicts and durations, then hand the cycle's
results to the approach. Scoring checks that the order is exactly the suite;
flattening neither adds nor drops a case, so that one check covers the
ranking. Scoring strictly follows ranking, so an approach can never see the
outcome of the cycle it is prioritizing.

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
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from tcp_lab import metrics as metrics_mod
from tcp_lab.approaches import SourceVectors
from tcp_lab.combinators import InvalidSpecError, build, spec_is_randomized
from tcp_lab.dataset import attach_sources, filter_for_evaluation, read_canonical
from tcp_lab.metrics import (
    CycleTiming,
    CycleView,
    DegenerateBoundsError,
    MetricError,
    ZeroTotalTimeError,
    mean_median,
    testing_time,
)
from tcp_lab.model import (  # ConfigError is re-exported here too
    ConfigError,
    FlattenPolicy,
    ProjectHistory,
    flatten,
)

ALL_METRICS = ("apfd", "apfd_c", "rapfd", "rapfd_c", "ntr", "atr")
APFD_FAMILY = ("apfd", "apfd_c", "rapfd", "rapfd_c")

DEFAULT_REPETITIONS = 10


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
    min_suite_size: int = 6
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
            name = str(entry["name"])
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
        min_suite = raw.get("min_suite_size", 6)
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
    """One view per cycle, shared by every approach and repetition."""
    return [CycleView(cycle) for cycle in history.cycles]


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

    ``baseline`` and ``vectors`` are the project's cycle views and source
    vectors; callers replaying several approaches pass them in to share
    them.
    """
    if baseline is None:
        baseline = _baseline(history)
    if vectors is None:
        vectors = SourceVectors(history.sources)
    repetitions = config.repetitions if spec_is_randomized(spec) else 1
    wanted = config.metric_names
    family = [m for m in APFD_FAMILY if m in wanted]
    rows: list[CycleRow] = []
    timing_rows: list[TimingRow] = []
    exclusions = {"rapfd_degenerate": 0, "rapfd_c_degenerate": 0}
    per_rep: dict[str, list[float]] = {}

    for rep in range(repetitions):
        approach = build(
            spec,
            sources=vectors,
            master_seed=derive_seed(config.seed, name, rep),
        )
        flatten_seeds = None
        if config.tie_policy is FlattenPolicy.RANDOM:
            flatten_seeds = random.Random(derive_seed(config.seed, name, rep, "ties"))
        rep_values: dict[str, list[float]] = {m: [] for m in APFD_FAMILY}
        rep_tts: list[float] = []
        rep_pt = 0.0
        ntr_pairs: list[tuple[float, float]] = []

        for cycle, view in zip(history.cycles, baseline):
            suite = list(view.suite)
            started = time.perf_counter()
            ranking = approach.rank(suite)
            prioritization = time.perf_counter() - started
            tie_seed = flatten_seeds.getrandbits(63) if flatten_seeds else 0
            scored = view.score(flatten(ranking, config.tie_policy, seed=tie_seed))
            first_fault = scored.first_fault_time
            full = scored.full_time
            values: dict[str, float | None] = {}
            if view.failed:
                for metric_name in family:
                    try:
                        value = getattr(scored, metric_name)
                    except DegenerateBoundsError:
                        if rep == 0:
                            exclusions[f"{metric_name}_degenerate"] += 1
                        value = None
                    except ZeroTotalTimeError:
                        # cycle-level condition (all durations zero); count once per metric
                        if rep == 0:
                            key = f"{metric_name}_zero_time"
                            exclusions[key] = exclusions.get(key, 0) + 1
                        value = None
                    values[metric_name] = value
                    if value is not None:
                        rep_values[metric_name].append(value)
                ntr_pairs.append((full, first_fault if first_fault is not None else full))
            rows.append(
                CycleRow(
                    repetition=rep,
                    cycle_index=cycle.index,
                    suite_size=len(suite),
                    fault_count=view.fault_count,
                    values=values,
                    first_fault_time=first_fault,
                    full_time=full,
                )
            )
            tt = testing_time(CycleTiming(prioritization, view.build, first_fault, full))
            rep_tts.append(tt)
            rep_pt += prioritization
            timing_rows.append(
                TimingRow(rep, cycle.index, prioritization, view.build, tt, view.tt)
            )
            approach.observe(cycle.executions)

        for metric_name in family:
            if rep_values[metric_name]:
                mean, median = mean_median(rep_values[metric_name])
                per_rep.setdefault(f"{metric_name}_mean", []).append(mean)
                per_rep.setdefault(f"{metric_name}_median", []).append(median)
        if "ntr" in wanted:
            try:
                per_rep.setdefault("ntr", []).append(metrics_mod.ntr(ntr_pairs))
            except MetricError:
                pass
        if "atr" in wanted:
            try:
                per_rep.setdefault("atr", []).append(
                    metrics_mod.atr(rep_tts, [b.tt for b in baseline])
                )
            except MetricError:
                pass
        per_rep.setdefault("total_pt", []).append(rep_pt)

    aggregates: dict[str, float | None] = {}
    no_data: list[str] = []
    keys = [f"{m}_{s}" for m in family for s in ("mean", "median")]
    keys += [m for m in ("ntr", "atr") if m in wanted]
    keys.append("total_pt")
    for key in keys:
        series = per_rep.get(key, [])
        if series:
            aggregates[key] = sum(series) / len(series)
        else:
            aggregates[key] = None
            no_data.append(key)
    return ApproachOutcome(
        approach=name,
        repetitions=repetitions,
        rows=rows,
        timing=timing_rows,
        aggregates=aggregates,
        no_data=no_data,
        exclusions=exclusions,
    )


def evaluate_project(
    project: ProjectConfig, config: EvaluationConfig
) -> ProjectOutcome:
    """Evaluate every configured approach on one project; errors are captured."""
    try:
        history = load_project_history(project, config.min_suite_size)
        baseline = _baseline(history)
        # tokenized by the first build of a code-distance node, then shared
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

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(
                pool.map(evaluate_project, config.projects, [config] * len(config.projects))
            )
    return [evaluate_project(project, config) for project in config.projects]


# --- persistence -----------------------------------------------------------


def _format_value(value: float | None) -> str:
    return "" if value is None else repr(value)


def write_outcomes(
    out_dir: Path, config: EvaluationConfig, outcomes: Sequence[ProjectOutcome]
) -> None:
    """Persist raw (deterministic) and timing (wall-clock) values plus a summary."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)  # also when every project failed
    raw_root = out_dir / "raw"
    timing_root = out_dir / "timing"
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
        if outcome.error:
            entry["error"] = outcome.error
        summary["projects"][outcome.project] = entry
        if outcome.error:
            continue
        raw_dir = raw_root / outcome.project
        timing_dir = timing_root / outcome.project
        raw_dir.mkdir(parents=True, exist_ok=True)
        timing_dir.mkdir(parents=True, exist_ok=True)
        for name, result in outcome.approaches.items():
            entry["approaches"][name] = {
                "repetitions": result.repetitions,
                "aggregates": result.aggregates,
                "no_data": result.no_data,
                "exclusions": result.exclusions,
            }
            header = ["repetition", "cycle", "suite_size", "fault_count"]
            header += metric_columns
            header += ["first_fault_time", "full_time"]
            lines = [",".join(header)]
            for row in result.rows:
                cells = [
                    str(row.repetition),
                    str(row.cycle_index),
                    str(row.suite_size),
                    str(row.fault_count),
                ]
                cells += [_format_value(row.values.get(m)) for m in metric_columns]
                cells += [
                    _format_value(row.first_fault_time),
                    repr(row.full_time),
                ]
                lines.append(",".join(cells))
            (raw_dir / f"{name}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
            lines = ["repetition,cycle,prioritization_s,build_s,testing_time_s,baseline_tt_s"]
            for trow in result.timing:
                lines.append(
                    ",".join(
                        [
                            str(trow.repetition),
                            str(trow.cycle_index),
                            repr(trow.prioritization),
                            repr(trow.build),
                            repr(trow.testing_time),
                            repr(trow.baseline_tt),
                        ]
                    )
                )
            (timing_dir / f"{name}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (out_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
