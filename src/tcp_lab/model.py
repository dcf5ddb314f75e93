"""Core data model shared by every prioritization approach.

A test suite is prioritized into a :class:`RankedSuite`, an ordered partition
of the suite into tie groups. Approaches implement :class:`Approach` and obey
a strict replay protocol: ``rank`` sees only the case identifiers of the
cycle about to run (never its verdicts or durations), ``observe`` is called
exactly once per cycle after ranking, and each replay builds a new instance.
:func:`check_cases` is the one check that a sequence of cases is exactly a
suite: :func:`validate_ranking`, the mixers, the tiebreakers and the metrics
all call it. :func:`flatten` turns a ranking into an executable total order.
"""

from __future__ import annotations

import enum
import json
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import AbstractSet, Iterable, Mapping, Sequence

TestCaseId = str

DUPLICATE_CASE = "DUPLICATE_CASE"
MISSING_CASE = "MISSING_CASE"
FOREIGN_CASE = "FOREIGN_CASE"


class Verdict(enum.Enum):
    PASS = "pass"
    FAIL = "fail"


class FlattenPolicy(enum.Enum):
    STABLE = "stable"
    RANDOM = "random"


class InputError(ValueError):
    """Base of every error that bad user input raises.

    The CLI reports one as a single ``error:`` line and exits 2; any other
    exception is a program fault.
    """


class ConfigError(InputError):
    """Invalid evaluation configuration or command input."""


def read_json(path: Path | str, error: type[InputError] = ConfigError):
    """Parse a JSON file; any ``ValueError`` becomes ``error``.

    That covers bad JSON, text that is not UTF-8, and an integer literal over
    Python's int-to-str digit limit (a plain ``ValueError``).
    """
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as parse_error:
        raise error(str(parse_error)) from None


class RankingError(ValueError):
    """A ranking is not an exact partition of the suite it was built for."""

    def __init__(self, code: str, case: TestCaseId):
        self.code = code
        self.case = case
        super().__init__(f"{code}: {case!r}")


@dataclass(frozen=True)
class TestExecution:
    """One test case run within a cycle: identity, cost, and outcome."""

    __test__ = False  # domain type, not a pytest case

    case: TestCaseId
    duration: float
    verdict: Verdict
    # derived from verdict once, here, instead of on every read
    failed: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.case:
            raise ValueError("test case id must be non-empty")
        if not self.duration >= 0:
            raise ValueError(f"duration must be >= 0, got {self.duration}")
        object.__setattr__(self, "failed", self.verdict is Verdict.FAIL)


@dataclass(frozen=True)
class CycleRecord:
    """One CI build: the executed suite plus build metadata.

    ``build_time`` is the time spent on compilation and static analysis; it
    is ``None`` until joined from an external build-time table. ``executions``
    keeps the project's original execution order.
    """

    index: int
    job_id: str
    commit_id: str
    build_time: float | None
    executions: tuple[TestExecution, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "executions", tuple(self.executions))
        if not self.executions:
            raise ValueError(f"cycle {self.index} has no executions")
        if self.build_time is not None and not self.build_time >= 0:
            raise ValueError(f"build_time must be >= 0, got {self.build_time}")
        suite_set(self.suite)  # a case run twice is a DUPLICATE_CASE

    # cached_property stores into the instance __dict__, bypassing the frozen
    # __setattr__; the cached values take no part in equality, hash or repr
    @cached_property
    def suite(self) -> tuple[TestCaseId, ...]:
        """Case ids in original execution order."""
        return tuple(e.case for e in self.executions)

    @cached_property
    def failed(self) -> bool:
        """A cycle is failed iff at least one execution failed."""
        return any(e.failed for e in self.executions)


@dataclass(frozen=True)
class ProjectHistory:
    """Chronologically ordered cycles of one subject program.

    ``sources`` optionally maps a case id to the source text backing it, for
    code-distance approaches. Treat instances as immutable values; operations
    that change a history return a new one.
    """

    project: str
    cycles: tuple[CycleRecord, ...]
    sources: Mapping[TestCaseId, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "cycles", tuple(self.cycles))
        for previous, current in zip(self.cycles, self.cycles[1:]):
            if current.index <= previous.index:
                raise ValueError(
                    f"cycle indices must be strictly increasing: "
                    f"{previous.index} then {current.index}"
                )

    @property
    def failed_cycles(self) -> tuple[CycleRecord, ...]:
        return tuple(c for c in self.cycles if c.failed)


@dataclass(frozen=True)
class RankedSuite:
    """An ordered partition of a suite into tie groups.

    Groups are semantically sets; the internal tuple order of each group
    records the cycle's original case order so that STABLE flattening needs
    no extra context.
    """

    groups: tuple[tuple[TestCaseId, ...], ...]

    def __post_init__(self) -> None:
        groups = tuple(map(tuple, self.groups))
        object.__setattr__(self, "groups", groups)
        if not all(groups):
            raise ValueError("ranking groups must be non-empty")

    @classmethod
    def _trusted(cls, groups: tuple[tuple[TestCaseId, ...], ...]) -> RankedSuite:
        """A ranking over ``groups`` as given, skipping normalisation and checks.

        Only for the library's own builders, whose ``groups`` are already a
        tuple of non-empty tuples; whether they partition the suite is still
        checked where the ranking is used.
        """
        ranking = object.__new__(cls)
        object.__setattr__(ranking, "groups", groups)
        return ranking

    def cases(self) -> tuple[TestCaseId, ...]:
        """All cases in group order (within groups: original order)."""
        return tuple(chain.from_iterable(self.groups))


def ranked_from_scores(
    suite: Sequence[TestCaseId],
    score_of,
    *,
    descending: bool = False,
) -> RankedSuite:
    """Group a suite by score, preserving original order inside tie groups.

    ``score_of`` maps a case id to a totally ordered score (no NaN); equal
    scores form one tie group. Ascending by default (lower score first).
    Each score is computed once; cases are bucketed by score in original
    order and only the distinct scores are sorted.
    """
    buckets: dict[object, list[TestCaseId]] = {}
    for case in suite:
        buckets.setdefault(score_of(case), []).append(case)
    ordered = sorted(buckets, reverse=descending)
    return RankedSuite._trusted(tuple(map(tuple, map(buckets.__getitem__, ordered))))


def suite_set(suite: Iterable[TestCaseId]) -> set[TestCaseId]:
    """The set of ``suite``'s cases; a case held twice is a DUPLICATE_CASE."""
    cases = tuple(suite)
    members = set(cases)
    if len(members) != len(cases):
        check_cases(cases, members)
    return members


def check_cases(cases: Sequence[TestCaseId], suite: AbstractSet[TestCaseId]) -> None:
    """Check that ``cases`` holds each case of the set ``suite`` exactly once.

    Otherwise raises :class:`RankingError`: DUPLICATE_CASE or FOREIGN_CASE
    for the first case seen twice or not in the suite, else MISSING_CASE
    for the smallest case that ``cases`` lacks.
    """
    distinct = set(cases)
    if len(distinct) == len(cases) == len(suite) and distinct <= suite:
        return
    seen: set[TestCaseId] = set()
    for case in cases:
        if case in seen:
            raise RankingError(DUPLICATE_CASE, case)
        if case not in suite:
            raise RankingError(FOREIGN_CASE, case)
        seen.add(case)
    raise RankingError(MISSING_CASE, min(suite - seen))


def validate_ranking(suite: Iterable[TestCaseId], ranking: RankedSuite) -> None:
    """Check that ``ranking`` partitions ``suite`` exactly.

    Raises :class:`RankingError` with code DUPLICATE_CASE, FOREIGN_CASE, or
    MISSING_CASE naming the offending case id.
    """
    check_cases(ranking.cases(), suite_set(suite))


def flatten(
    ranking: RankedSuite,
    policy: FlattenPolicy = FlattenPolicy.STABLE,
    seed: int = 0,
) -> list[TestCaseId]:
    """Turn a ranking into a total order respecting group order.

    STABLE keeps each group's stored (original) order; RANDOM shuffles each
    group with one RNG seeded by ``seed``, so equal seeds give equal output.
    Shuffling a single case draws nothing from the RNG, so singleton groups
    are copied as they are and an all-singleton ranking creates no RNG.
    """
    if policy is FlattenPolicy.STABLE:
        return list(chain.from_iterable(ranking.groups))
    rng = None
    order: list[TestCaseId] = []
    for group in ranking.groups:
        if len(group) == 1:
            order.append(group[0])
            continue
        if rng is None:
            rng = random.Random(seed)
        members = list(group)
        rng.shuffle(members)
        order.extend(members)
    return order


class Approach(ABC):
    """Behavioral contract for every prioritization approach.

    ``rank`` receives the cycle's suite in original execution order and must
    return a valid :class:`RankedSuite`; the current cycle's verdicts and
    durations are not available to it by construction. ``observe`` is called
    exactly once per cycle, after ``rank``, with the cycle's full execution
    results. ``rank`` must be free of state changes so that repeated calls
    under the same observe history return the same ranking.

    Instances are stateful and live for a single replay sequence: a new
    replay, or a concurrent one, builds a new instance.
    """

    @abstractmethod
    def rank(self, suite: Sequence[TestCaseId]) -> RankedSuite:
        """Prioritize the given suite using only previously observed cycles."""

    def observe(self, executions: Sequence[TestExecution]) -> None:
        """Consume one cycle's execution results."""
