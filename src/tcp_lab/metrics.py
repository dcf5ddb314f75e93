"""Effectiveness and applicability metrics for prioritized cycles.

Fault model: CI histories carry no fault matrix, so each failing execution
counts as one distinct fault revealed by exactly that test; the rank of a
fault is the 1-based position of its failing test in the evaluated order.

The area-style metrics (weighted percentage of faults detected, with and
without cost awareness) are defined on failed cycles only. Their rectified
variants min-max normalize against the exact best and worst achievable
values over all permutations of the cycle, so 1 is always the optimal
ordering and 0 the worst; cycles whose bounds coincide (single test, or
every test failing with equal costs) are degenerate and excluded from
aggregation by callers.

One way to score an order: :class:`CycleView` holds a cycle's
order-independent facts (and the exact bounds) and turns an order into an
index permutation once; the :class:`ScoredOrder` that
``CycleView(cycle).score(order)`` returns yields every APFD-family value.
:func:`testing_time` is the one computation of a cycle's testing time.

Accumulation rule: a value summed with builtin ``sum`` stays summed with
``sum`` and a value accumulated left to right (a loop, ``reduce`` or
``accumulate`` over ``+``) stays accumulated that way. From Python 3.12 on,
``sum`` of floats is compensated and no longer equals the plain loop, so
swapping one for the other would change the written values in the last
bits.
"""

from __future__ import annotations

import math
import statistics
from functools import cached_property, reduce
from itertools import accumulate, compress, count
from operator import add
from typing import Sequence

from tcp_lab.model import CycleRecord, TestCaseId, check_cases

# Bounds closer than this are considered degenerate for rectification.
DEGENERATE_EPSILON = 1e-12


class MetricError(ValueError):
    """Base for metric preconditions that callers may handle."""


class NoFaultsError(MetricError):
    """Fault-detection metrics are undefined on passing cycles."""


class ZeroTotalTimeError(MetricError):
    """Cost-aware metrics are undefined when total execution time is 0."""


class DegenerateBoundsError(MetricError):
    """Min-max rectification is undefined when best and worst coincide."""


class NoFailingCyclesError(MetricError):
    """Time-reduction metrics need at least one failing cycle."""


class ZeroBaselineTimeError(MetricError):
    """Relative time reduction is undefined against a zero-time baseline."""


class NoDataError(MetricError):
    """Aggregation over an empty population; values are never imputed."""


class CycleView:
    """Order-independent facts of one cycle, computed once and shared.

    Holds the suite (also as a set), a case-to-index map, the durations and
    the fail mask in the cycle's original order, the fault count, the build
    time and the no-prioritization baseline (first-fault time, full time and
    testing time). The rectification bounds are computed on first use and kept.
    :meth:`score` evaluates one order of the suite; every APFD-family value
    comes from the :class:`ScoredOrder` it returns.
    """

    def __init__(self, cycle: CycleRecord):
        executions = cycle.executions
        self.suite = tuple(e.case for e in executions)
        self.position = {case: i for i, case in enumerate(self.suite)}
        # a set tests membership faster than the keys of ``position``
        self.members = frozenset(self.suite)
        self.durations = [e.duration for e in executions]
        self.fails = [e.failed for e in executions]
        self.fault_count = sum(self.fails)
        self.failed = self.fault_count > 0
        # the sum of non-negative durations is 0 in any order iff all are 0
        self.zero_time = not any(self.durations)
        self.build = cycle.build_time if cycle.build_time is not None else 0.0
        baseline = self._scored(range(len(self.suite)))
        self.first_fault_time = baseline.first_fault_time
        self.full_time = baseline.full_time
        self.tt = testing_time(0.0, self.build, self.first_fault_time, self.full_time)

    def score(self, order: Sequence[TestCaseId]) -> ScoredOrder:
        """Evaluate ``order``, which must hold each case of the suite once."""
        check_cases(order, self.members)
        return self._scored(list(map(self.position.__getitem__, order)))

    def _scored(self, permutation: Sequence[int]) -> ScoredOrder:
        durations = list(map(self.durations.__getitem__, permutation))
        ranks = list(compress(count(1), map(self.fails.__getitem__, permutation)))
        return ScoredOrder(self, durations, ranks)

    @cached_property
    def apfd_bounds(self) -> tuple[float, float]:
        """Exact (min, max) of APFD over all permutations of the suite.

        The maximum places all failing tests at ranks 1..m, the minimum at
        the last m ranks. With every test failing the bounds coincide; the
        rectified metric treats that as degenerate.
        """
        if not self.failed:
            raise NoFaultsError("cycle has no failing executions")
        n = len(self.suite)
        m = self.fault_count
        best_sum = m * (m + 1) // 2
        worst_sum = m * n - m * (m - 1) // 2
        low = 1.0 - worst_sum / (n * m) + 1.0 / (2 * n)
        high = 1.0 - best_sum / (n * m) + 1.0 / (2 * n)
        return low, high

    @cached_property
    def apfd_c_bounds(self) -> tuple[float, float]:
        """Exact (min, max) of APFD_C over all permutations of the suite.

        The optimum runs the failing tests first in ascending duration; the
        worst runs them last in descending duration. Passing-test order does
        not affect the value in either arrangement (adjacent-swap argument;
        also certified against a brute-force permutation oracle in the test
        suite).
        """
        everyone = range(len(self.suite))
        failing = sorted(
            (i for i in everyone if self.fails[i]), key=self.durations.__getitem__
        )
        passing = [i for i in everyone if not self.fails[i]]
        worst = self._scored(passing + failing[::-1]).apfd_c
        best = self._scored(failing + passing).apfd_c
        return worst, best


class ScoredOrder:
    """One order of a cycle's suite, evaluated in a single pass.

    ``durations`` are the durations in evaluated order and ``ranks`` the
    1-based positions of the failing tests. The first-fault time (None when
    nothing fails) and the full time are left-to-right running sums.
    """

    def __init__(self, view: CycleView, durations: list[float], ranks: list[int]):
        self.view = view
        self.durations = durations
        self.ranks = ranks
        if ranks:
            self.first_fault_time = reduce(add, durations[: ranks[0]], 0.0)
            self.full_time = reduce(add, durations[ranks[0] :], self.first_fault_time)
        else:
            self.first_fault_time = None
            self.full_time = reduce(add, durations, 0.0)

    @cached_property
    def apfd(self) -> float:
        ranks = self.ranks
        if not ranks:
            raise NoFaultsError("cycle has no failing executions")
        n = len(self.durations)
        m = len(ranks)
        return 1.0 - sum(ranks) / (n * m) + 1.0 / (2 * n)

    @cached_property
    def apfd_c(self) -> float:
        ranks = self.ranks
        if not ranks:
            raise NoFaultsError("cycle has no failing executions")
        if self.view.zero_time:
            raise ZeroTotalTimeError("total execution time is zero")
        durations = self.durations
        total = sum(durations)
        n = len(durations)
        # suffix[k]: the last k durations summed right to left; ranks are
        # never earlier than the first fault, so the scan stops there
        suffix = list(accumulate(reversed(durations[ranks[0] - 1 :]), initial=0.0))
        numerator = sum(suffix[n - r + 1] - durations[r - 1] / 2 for r in ranks)
        return numerator / (total * len(ranks))

    @property
    def rapfd(self) -> float:
        return _rectify(self.apfd, self.view.apfd_bounds)

    @property
    def rapfd_c(self) -> float:
        return _rectify(self.apfd_c, self.view.apfd_c_bounds)

    def napfd(self, executed_prefix_length: int) -> float:
        """Constrained-execution variant; faults outside the prefix go undetected.

        The detected fraction scales the value and undetected fault ranks count
        as zero. The suite size stays the full ``n`` under the prefix constraint.
        """
        ranks = self.ranks
        if not ranks:
            raise NoFaultsError("cycle has no failing executions")
        n = len(self.durations)
        if not 0 <= executed_prefix_length <= n:
            raise ValueError("executed prefix must be between 0 and the suite size")
        m = len(ranks)
        detected = [r for r in ranks if r <= executed_prefix_length]
        p = len(detected) / m
        return p - sum(detected) / (n * m) + p / (2 * n)


def _rectify(value: float, bounds: tuple[float, float]) -> float:
    low, high = bounds
    if not (math.isfinite(value) and math.isfinite(low) and math.isfinite(high)):
        # a NaN would otherwise pass the bounds check and clamp to 0 or 1
        raise ValueError(f"cannot rectify {value} between {low} and {high}: not finite")
    if high - low < DEGENERATE_EPSILON:
        raise DegenerateBoundsError("metric bounds coincide for this cycle")
    rectified = (value - low) / (high - low)
    return min(1.0, max(0.0, rectified))


def ntr(pairs: Sequence[tuple[float, float]]) -> float:
    """Normalized time reduction over failing cycles.

    Each pair is (full execution time, time to first fault); the value is
    the fraction of failing-cycle time saved by stopping at the first fault.
    """
    if not pairs:
        raise NoFailingCyclesError("no failing cycles to evaluate")
    for full, to_first in pairs:
        if to_first > full:
            raise ValueError("time to first fault exceeds full execution time")
    total_full = sum(full for full, _ in pairs)
    if total_full == 0:
        raise ZeroTotalTimeError("failing cycles have zero total time")
    saved = sum(full - to_first for full, to_first in pairs)
    return saved / total_full


def testing_time(
    prioritization: float,
    build: float,
    first_fault: float | None,
    full_execution: float,
) -> float:
    """Total testing time of a cycle: unhidden prioritization overhead plus
    execution until the first fault (or the whole suite when none fails).

    ``prioritization`` is the wall-clock cost of ranking (zero when no
    prioritization runs), ``build`` the compilation/static-analysis time the
    ranking can hide behind, ``first_fault`` the time until the end of the
    first failing test (None on passing cycles), and ``full_execution`` the
    time to run the whole suite.
    """
    for name, value in (
        ("prioritization", prioritization),
        ("build", build),
        ("full_execution", full_execution),
    ):
        if value < 0:
            raise ValueError(f"{name} must be >= 0")
    if first_fault is not None:
        if first_fault < 0:
            raise ValueError("first_fault must be >= 0")
        if first_fault > full_execution:
            raise ValueError("first_fault cannot exceed full_execution")
    overhead = max(prioritization - build, 0.0)
    return overhead + (first_fault if first_fault is not None else full_execution)


def atr(approach_tt: Sequence[float], baseline_tt: Sequence[float]) -> float:
    """Actual time reduction of an approach against the no-prioritization
    baseline over the same cycle population; negative values mean the
    approach would be harmful in practice."""
    if len(approach_tt) != len(baseline_tt):
        raise ValueError("approach and baseline must cover the same cycles")
    total_baseline = sum(baseline_tt)
    if total_baseline == 0:
        raise ZeroBaselineTimeError("baseline testing time is zero")
    return 1.0 - sum(approach_tt) / total_baseline


def mean_median(values: Sequence[float]) -> tuple[float, float]:
    if not values:
        raise NoDataError("empty population")
    return statistics.mean(values), statistics.median(values)
