"""Ingestion of CI build histories and evaluation filters.

External layouts are mapped onto the canonical field set via a
:class:`ColumnMapping`; the canonical on-disk format (see
:func:`write_canonical`) is a UTF-8 comma-separated file with header
``cycle,job_id,commit_id,build_time,position,test_name,duration,verdict``,
verdicts ``pass``/``fail``, durations in decimal seconds, and an empty
``build_time`` when unknown. Build times are joined from a two-column
``job_id,seconds`` table; source texts are attached from a VCS checkout by
package-path convention.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

from tcp_lab.model import (
    CycleRecord,
    ProjectHistory,
    TestCaseId,
    TestExecution,
    Verdict,
)

MISSING_COLUMN = "MISSING_COLUMN"
PARSE_ERROR = "PARSE_ERROR"
EMPTY_HISTORY = "EMPTY_HISTORY"
CHECKOUT_UNREADABLE = "CHECKOUT_UNREADABLE"

CANONICAL_HEADER = (
    "cycle",
    "job_id",
    "commit_id",
    "build_time",
    "position",
    "test_name",
    "duration",
    "verdict",
)

_PASS_TOKENS = {"pass", "passed", "p", "ok", "success", "succeeded", "true"}
_FAIL_TOKENS = {"fail", "failed", "f", "error", "errored", "failure", "broken", "false"}

DEFAULT_SOURCE_SUFFIXES = (".java",)
DEFAULT_SOURCE_ROOTS = ("", "src/test/java", "src/main/java")


class DatasetError(ValueError):
    def __init__(self, code: str, detail: str):
        self.code = code
        self.detail = detail
        super().__init__(f"{code}: {detail}")


@dataclass(frozen=True)
class ColumnMapping:
    """Maps canonical field names to source-file column identifiers.

    All six canonical fields are required; ``build_time`` may additionally
    be mapped when the source carries it (the canonical format does).
    """

    cycle_order: str
    job_id: str
    commit_id: str
    test_name: str
    duration: str
    verdict: str
    build_time: str | None = None

    REQUIRED = ("cycle_order", "job_id", "commit_id", "test_name", "duration", "verdict")

    @classmethod
    def from_dict(cls, raw: Mapping[str, str]) -> "ColumnMapping":
        missing = [field for field in cls.REQUIRED if not raw.get(field)]
        if missing:
            raise DatasetError(MISSING_COLUMN, f"mapping lacks {', '.join(missing)}")
        return cls(
            cycle_order=raw["cycle_order"],
            job_id=raw["job_id"],
            commit_id=raw["commit_id"],
            test_name=raw["test_name"],
            duration=raw["duration"],
            verdict=raw["verdict"],
            build_time=raw.get("build_time") or None,
        )


def canonical_mapping() -> ColumnMapping:
    return ColumnMapping(
        cycle_order="cycle",
        job_id="job_id",
        commit_id="commit_id",
        test_name="test_name",
        duration="duration",
        verdict="verdict",
        build_time="build_time",
    )


@dataclass(frozen=True)
class IngestResult:
    history: ProjectHistory
    rejected_rows: int


def _parse_verdict(token: str) -> Verdict | None:
    """Map an outcome token to a verdict; any non-pass outcome is a failure.

    Returns None for tokens that are not recognizable outcomes at all.
    """
    text = token.strip().lower()
    if text in _PASS_TOKENS:
        return Verdict.PASS
    if text in _FAIL_TOKENS:
        return Verdict.FAIL
    try:
        failures = int(text)
    except ValueError:
        return None
    return Verdict.PASS if failures == 0 else Verdict.FAIL


def _parse_duration(token: str) -> float | None:
    try:
        value = float(token)
    except ValueError:
        return None
    if not math.isfinite(value):
        return None
    return value


def _data_files(source: Path) -> list[Path]:
    if source.is_file():
        return [source]
    if source.is_dir():
        return sorted(
            p for p in source.iterdir() if p.is_file() and not p.name.startswith(".")
        )
    raise DatasetError(PARSE_ERROR, f"no such file or directory: {source}")


def ingest(
    source: Path | str,
    mapping: ColumnMapping,
    project: str,
    delimiter: str = ",",
) -> IngestResult:
    """Parse delimiter-separated execution records into a project history.

    ``source`` is a data file or a directory of them (read in name order).
    Rows whose duration or verdict cannot be interpreted (including
    non-finite durations and build times) are skipped and
    counted in ``rejected_rows``; structurally invalid rows (bad cycle
    ordinal, empty test name, negative duration, duplicate case within a
    cycle) abort with PARSE_ERROR naming the offending row.
    """
    source = Path(source)
    rejected = 0
    cycles: dict[int, dict] = {}
    for path in _data_files(source):
        with path.open(newline="", encoding="utf-8") as handle:
            reader = csv.DictReader(handle, delimiter=delimiter)
            header = reader.fieldnames or []
            for field in ColumnMapping.REQUIRED:
                column = getattr(mapping, field)
                if column not in header:
                    raise DatasetError(
                        MISSING_COLUMN, f"{path.name}: no column {column!r} for {field}"
                    )
            has_build_time = mapping.build_time is not None and mapping.build_time in header
            for row in reader:
                where = f"{path.name}:{reader.line_num}"
                try:
                    cycle_index = int(row[mapping.cycle_order])
                except (TypeError, ValueError):
                    raise DatasetError(
                        PARSE_ERROR, f"{where}: bad cycle ordinal {row[mapping.cycle_order]!r}"
                    ) from None
                name = (row[mapping.test_name] or "").strip()
                if not name:
                    raise DatasetError(PARSE_ERROR, f"{where}: empty test name")
                duration = _parse_duration(row[mapping.duration] or "")
                verdict = _parse_verdict(row[mapping.verdict] or "")
                if duration is None or verdict is None:
                    rejected += 1
                    continue
                if duration < 0:
                    raise DatasetError(
                        PARSE_ERROR, f"{where}: negative duration {duration}"
                    )
                build_time: float | None = None
                if has_build_time:
                    raw = (row[mapping.build_time] or "").strip()
                    if raw:
                        build_time = _parse_duration(raw)
                        if build_time is None:
                            rejected += 1
                            continue
                        if build_time < 0:
                            raise DatasetError(
                                PARSE_ERROR, f"{where}: negative build time {build_time}"
                            )
                cycle = cycles.setdefault(
                    cycle_index,
                    {
                        "job_id": (row[mapping.job_id] or "").strip(),
                        "commit_id": (row[mapping.commit_id] or "").strip(),
                        "build_time": build_time,
                        "executions": [],
                        "seen": set(),
                    },
                )
                if name in cycle["seen"]:
                    raise DatasetError(
                        PARSE_ERROR, f"{where}: duplicate test {name!r} in cycle {cycle_index}"
                    )
                cycle["seen"].add(name)
                if cycle["build_time"] is None and build_time is not None:
                    cycle["build_time"] = build_time
                cycle["executions"].append(TestExecution(name, duration, verdict))
    if not cycles:
        raise DatasetError(EMPTY_HISTORY, f"no usable execution rows under {source}")
    records = tuple(
        CycleRecord(
            index=index,
            job_id=data["job_id"],
            commit_id=data["commit_id"],
            build_time=data["build_time"],
            executions=tuple(data["executions"]),
        )
        for index, data in sorted(cycles.items())
    )
    return IngestResult(ProjectHistory(project, records), rejected)


def write_canonical(history: ProjectHistory, path: Path | str) -> None:
    """Write a history in the canonical on-disk format (round-trips exactly)."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(CANONICAL_HEADER)
        for cycle in history.cycles:
            for position, execution in enumerate(cycle.executions):
                writer.writerow(
                    [
                        cycle.index,
                        cycle.job_id,
                        cycle.commit_id,
                        "" if cycle.build_time is None else repr(cycle.build_time),
                        position,
                        execution.case,
                        repr(execution.duration),
                        execution.verdict.value,
                    ]
                )


def read_canonical(path: Path | str, project: str | None = None) -> ProjectHistory:
    """Read a canonical history file; rejects any unparseable row outright."""
    path = Path(path)
    result = ingest(path, canonical_mapping(), project or path.stem)
    if result.rejected_rows:
        raise DatasetError(
            PARSE_ERROR, f"{path.name}: {result.rejected_rows} unparseable rows"
        )
    return result.history


def read_build_times(path: Path | str) -> dict[str, float]:
    """Read a two-column ``job_id,seconds`` build-time table."""
    path = Path(path)
    table: dict[str, float] = {}
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if not reader.fieldnames or "job_id" not in reader.fieldnames or "seconds" not in reader.fieldnames:
            raise DatasetError(MISSING_COLUMN, f"{path.name}: need columns job_id, seconds")
        for row in reader:
            seconds = _parse_duration(row["seconds"] or "")
            if seconds is None or seconds < 0:
                raise DatasetError(
                    PARSE_ERROR, f"{path.name}:{reader.line_num}: bad seconds {row['seconds']!r}"
                )
            table[(row["job_id"] or "").strip()] = seconds
    return table


def join_build_times(
    history: ProjectHistory, table: Mapping[str, float]
) -> tuple[ProjectHistory, int]:
    """Set build times by job id; unmatched cycles stay as they are.

    Returns the joined history and the number of unmatched cycles.
    Executions and verdicts are never altered.
    """
    mismatches = 0
    cycles = []
    for cycle in history.cycles:
        if cycle.job_id in table:
            cycles.append(
                CycleRecord(
                    index=cycle.index,
                    job_id=cycle.job_id,
                    commit_id=cycle.commit_id,
                    build_time=table[cycle.job_id],
                    executions=cycle.executions,
                )
            )
        else:
            mismatches += 1
            cycles.append(cycle)
    return ProjectHistory(history.project, tuple(cycles), history.sources), mismatches


def package_path_candidates(
    case: TestCaseId,
    suffixes: Sequence[str] = DEFAULT_SOURCE_SUFFIXES,
    roots: Sequence[str] = DEFAULT_SOURCE_ROOTS,
) -> list[str]:
    """Relative paths a test class name may live at (dots become separators)."""
    stem = case.replace(".", "/")
    candidates = []
    for root in roots:
        for suffix in suffixes:
            candidates.append(f"{root}/{stem}{suffix}" if root else f"{stem}{suffix}")
    return candidates


def attach_sources(
    history: ProjectHistory,
    checkout_root: Path | str,
    commit_resolver: Callable[[str], Path | None] | None = None,
    suffixes: Sequence[str] = DEFAULT_SOURCE_SUFFIXES,
    roots: Sequence[str] = DEFAULT_SOURCE_ROOTS,
) -> ProjectHistory:
    """Attach source texts for cases resolvable in a VCS checkout.

    ``commit_resolver`` maps a commit id to the tree directory holding that
    revision (defaulting to the checkout root itself, i.e. a single working
    tree). Cases without a resolvable file are simply absent from the
    mapping; when several cycles resolve the same case the latest cycle
    wins.
    """
    checkout_root = Path(checkout_root)
    if not checkout_root.is_dir():
        raise DatasetError(CHECKOUT_UNREADABLE, f"not a readable directory: {checkout_root}")
    if commit_resolver is None:
        commit_resolver = lambda commit: checkout_root  # noqa: E731
    sources: dict[TestCaseId, str] = dict(history.sources)
    for cycle in history.cycles:
        tree = commit_resolver(cycle.commit_id)
        if tree is None:
            continue
        tree = Path(tree)
        for case in cycle.suite:
            for candidate in package_path_candidates(case, suffixes, roots):
                path = tree / candidate
                if path.is_file():
                    try:
                        sources[case] = path.read_text(encoding="utf-8", errors="replace")
                    except OSError:
                        continue
                    break
    return ProjectHistory(history.project, history.cycles, sources)


def filter_for_evaluation(
    history: ProjectHistory, min_suite_size: int = 6
) -> ProjectHistory:
    """Keep only cycles with at least ``min_suite_size`` test cases.

    Cycle order and indices are preserved (no renumbering); the result may
    be empty, in which case the metrics layer reports no data.
    """
    if min_suite_size < 1:
        raise ValueError("min_suite_size must be >= 1")
    kept = tuple(
        cycle for cycle in history.cycles if len(cycle.executions) >= min_suite_size
    )
    return ProjectHistory(history.project, kept, history.sources)
