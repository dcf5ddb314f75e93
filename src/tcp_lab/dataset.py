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
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping

from tcp_lab.model import (
    CycleRecord,
    InputError,
    ProjectHistory,
    TestCaseId,
    TestExecution,
    Verdict,
)

MISSING_COLUMN = "MISSING_COLUMN"
PARSE_ERROR = "PARSE_ERROR"
EMPTY_HISTORY = "EMPTY_HISTORY"
CHECKOUT_UNREADABLE = "CHECKOUT_UNREADABLE"

# evaluate's default min_suite_size, and the one prioritize applies to the cycles
# before its target
DEFAULT_MIN_SUITE_SIZE = 6

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


class DatasetError(InputError):
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
        if not isinstance(raw, Mapping):
            raise DatasetError(PARSE_ERROR, "mapping must be a JSON object")
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


def _row_error(path: Path, reader, detail: str) -> DatasetError:
    """PARSE_ERROR naming the row ``reader`` returned last."""
    return DatasetError(PARSE_ERROR, f"{path.name}:{reader.line_num}: {detail}")


@contextmanager
def _csv_rows(path: Path, delimiter: str = ","):
    """A ``csv.reader`` over UTF-8 ``path``; text that is not UTF-8 or a field
    over the ``csv`` size limit is a PARSE_ERROR naming the file and line."""
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        try:
            yield reader
        except csv.Error as error:
            raise _row_error(path, reader, str(error)) from None
        except UnicodeDecodeError:
            # decoding runs a block ahead of the reader: find the bad byte's line
            data = path.read_bytes()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as error:
                line = len(data[: error.start + 1].splitlines())
                detail = f"byte 0x{data[error.start]:02x} is not UTF-8 ({error.reason})"
                raise DatasetError(PARSE_ERROR, f"{path.name}:{line}: {detail}") from None
            raise


class _CycleRows:
    """One cycle's metadata and its executions by case, while parsing."""

    __slots__ = ("job_id", "commit_id", "build_time", "executions")

    def __init__(self, job_id: str, commit_id: str, build_time: float | None):
        self.job_id = job_id
        self.commit_id = commit_id
        self.build_time = build_time
        self.executions: dict[TestCaseId, TestExecution] = {}

    def merge(self, job_id: str, commit_id: str, build_time: float | None) -> str | None:
        """Take in a further row's metadata; describe its conflict, if any.

        An unknown (None) build time never conflicts, and a known one fills
        in the cycle's if that is still unknown.
        """
        if job_id != self.job_id:
            return f"job_id {job_id!r} differs from {self.job_id!r}"
        if commit_id != self.commit_id:
            return f"commit_id {commit_id!r} differs from {self.commit_id!r}"
        if build_time is not None:
            if self.build_time is None:
                self.build_time = build_time
            elif build_time != self.build_time:
                return f"build_time {build_time!r} differs from {self.build_time!r}"
        return None


def ingest(
    source: Path | str,
    mapping: ColumnMapping,
    project: str,
    delimiter: str = ",",
) -> IngestResult:
    """Parse delimiter-separated execution records into a project history.

    ``source`` is a data file or a directory of them (read in name order).
    Each file's first row is its header; a repeated column name refers to
    its last column, blank lines are skipped and missing trailing cells
    read as empty. Rows whose duration or verdict cannot be interpreted
    (including non-finite durations and build times) are skipped and
    counted in ``rejected_rows``; structurally invalid rows (bad cycle
    ordinal, empty test name, negative duration, duplicate case within a
    cycle, a job id, commit id or known build time differing from that of
    the cycle's earlier rows) abort with PARSE_ERROR naming the offending
    row. A ``delimiter`` that is not exactly one character is a PARSE_ERROR
    too.
    """
    if len(delimiter) != 1:
        raise DatasetError(PARSE_ERROR, f"delimiter must be one character, got {delimiter!r}")
    source = Path(source)
    rejected = 0
    cycles: dict[int, _CycleRows] = {}
    for path in _data_files(source):
        with _csv_rows(path, delimiter) as reader:
            header = next(reader, None) or []
            columns = {name: i for i, name in enumerate(header)}
            for field in ColumnMapping.REQUIRED:
                column = getattr(mapping, field)
                if column not in columns:
                    raise DatasetError(
                        MISSING_COLUMN, f"{path.name}: no column {column!r} for {field}"
                    )
            cycle_at, job_at, commit_at, name_at, duration_at, verdict_at = (
                columns[getattr(mapping, field)] for field in ColumnMapping.REQUIRED
            )
            build_at = columns.get(mapping.build_time)
            width = len(header)
            for row in reader:
                if not row:
                    continue
                if len(row) < width:
                    row += [None] * (width - len(row))
                try:
                    cycle_index = int(row[cycle_at])
                except (TypeError, ValueError):
                    raise _row_error(
                        path, reader, f"bad cycle ordinal {row[cycle_at]!r}"
                    ) from None
                name = (row[name_at] or "").strip()
                if not name:
                    raise _row_error(path, reader, "empty test name")
                duration = _parse_duration(row[duration_at] or "")
                verdict = _parse_verdict(row[verdict_at] or "")
                if duration is None or verdict is None:
                    rejected += 1
                    continue
                if duration < 0:
                    raise _row_error(path, reader, f"negative duration {duration}")
                build_time: float | None = None
                if build_at is not None:
                    raw = (row[build_at] or "").strip()
                    if raw:
                        build_time = _parse_duration(raw)
                        if build_time is None:
                            rejected += 1
                            continue
                        if build_time < 0:
                            raise _row_error(
                                path, reader, f"negative build time {build_time}"
                            )
                job_id = (row[job_at] or "").strip()
                commit_id = (row[commit_at] or "").strip()
                cycle = cycles.get(cycle_index)
                if cycle is None:
                    cycle = cycles[cycle_index] = _CycleRows(job_id, commit_id, build_time)
                else:
                    conflict = cycle.merge(job_id, commit_id, build_time)
                    if conflict is not None:
                        raise _row_error(path, reader, f"{conflict} in cycle {cycle_index}")
                if name in cycle.executions:
                    raise _row_error(
                        path, reader, f"duplicate test {name!r} in cycle {cycle_index}"
                    )
                cycle.executions[name] = TestExecution(name, duration, verdict)
    if not cycles:
        raise DatasetError(EMPTY_HISTORY, f"no usable execution rows under {source}")
    records = tuple(
        CycleRecord(
            index=index,
            job_id=cycle.job_id,
            commit_id=cycle.commit_id,
            build_time=cycle.build_time,
            executions=tuple(cycle.executions.values()),
        )
        for index, cycle in sorted(cycles.items())
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
    with _csv_rows(path) as reader:
        header = next(reader, None) or []
        columns = {name: i for i, name in enumerate(header)}
        if "job_id" not in columns or "seconds" not in columns:
            raise DatasetError(MISSING_COLUMN, f"{path.name}: need columns job_id, seconds")
        job_at = columns["job_id"]
        seconds_at = columns["seconds"]
        width = len(header)
        for row in reader:
            if not row:
                continue
            if len(row) < width:
                row += [None] * (width - len(row))
            seconds = _parse_duration(row[seconds_at] or "")
            if seconds is None or seconds < 0:
                raise _row_error(path, reader, f"bad seconds {row[seconds_at]!r}")
            table[(row[job_at] or "").strip()] = seconds
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


def package_path_candidates(case: TestCaseId) -> list[str]:
    """Relative paths a test class name may live at (dots become separators)."""
    stem = case.replace(".", "/")
    candidates = []
    for root in DEFAULT_SOURCE_ROOTS:
        for suffix in DEFAULT_SOURCE_SUFFIXES:
            candidates.append(f"{root}/{stem}{suffix}" if root else f"{stem}{suffix}")
    return candidates


def attach_sources(
    history: ProjectHistory,
    checkout_root: Path | str,
    commit_resolver: Callable[[str], Path | None] | None = None,
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
    resolved: set[TestCaseId] = set()
    tried: set[tuple[Path, TestCaseId]] = set()
    # The latest resolvable cycle wins, so walk back from the last cycle and
    # look each case up at most once per tree until it is found.
    for cycle in reversed(history.cycles):
        tree = commit_resolver(cycle.commit_id)
        if tree is None:
            continue
        tree = Path(tree)
        for case in cycle.suite:
            if case in resolved or (tree, case) in tried:
                continue
            tried.add((tree, case))
            for candidate in package_path_candidates(case):
                path = tree / candidate
                if path.is_file():
                    try:
                        sources[case] = path.read_text(encoding="utf-8", errors="replace")
                    except OSError:
                        continue
                    resolved.add(case)
                    break
    return ProjectHistory(history.project, history.cycles, sources)


def filter_for_evaluation(
    history: ProjectHistory, min_suite_size: int = DEFAULT_MIN_SUITE_SIZE
) -> ProjectHistory:
    """Keep only cycles with at least ``min_suite_size`` test cases.

    Approaches neither rank nor observe the cycles dropped here. Cycle order
    and indices are preserved (no renumbering); the result may be empty, in
    which case the metrics layer reports no data.
    """
    if min_suite_size < 1:
        raise ValueError("min_suite_size must be >= 1")
    kept = tuple(
        cycle for cycle in history.cycles if len(cycle.executions) >= min_suite_size
    )
    return ProjectHistory(history.project, kept, history.sources)
