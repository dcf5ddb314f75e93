"""Nonparametric comparison of approaches across subject programs.

The comparison protocol is an omnibus Friedman test over per-project scores
followed, only on rejection, by pairwise two-sided Wilcoxon signed-rank
tests with Holm adjustment. Groupings for critical-difference diagrams
connect approaches whose pairwise differences are all non-significant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

# Largest number of non-zero differences for which the exact Wilcoxon null
# distribution is enumerated; above this the normal approximation with
# continuity and tie corrections is used.
WILCOXON_EXACT_LIMIT = 20


class DegenerateMatrixError(ValueError):
    """Score matrix too small, ragged, or containing non-finite entries."""


@dataclass(frozen=True)
class ScoreMatrix:
    """Rows are subject programs, columns approaches, entries per-project means."""

    approaches: tuple[str, ...]
    projects: tuple[str, ...]
    values: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "approaches", tuple(self.approaches))
        object.__setattr__(self, "projects", tuple(self.projects))
        object.__setattr__(
            self, "values", tuple(tuple(row) for row in self.values)
        )
        if len(self.approaches) < 2:
            raise DegenerateMatrixError("need at least 2 approaches")
        if len(self.projects) < 2:
            raise DegenerateMatrixError("need at least 2 projects")
        if len(self.values) != len(self.projects):
            raise DegenerateMatrixError("one row per project required")
        for row in self.values:
            if len(row) != len(self.approaches):
                raise DegenerateMatrixError("ragged score matrix")
            for entry in row:
                if not math.isfinite(entry):
                    raise DegenerateMatrixError(f"non-finite entry {entry!r}")

    def column(self, approach: str) -> tuple[float, ...]:
        j = self.approaches.index(approach)
        return tuple(row[j] for row in self.values)


def _average_ranks(keys: Sequence[float]) -> list[float]:
    """Ranks of ``keys`` in ascending order, from 1; ties get their average."""
    n = len(keys)
    order = sorted(range(n), key=keys.__getitem__)
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and keys[order[j + 1]] == keys[order[i]]:
            j += 1
        average = (i + j) / 2 + 1
        for t in range(i, j + 1):
            ranks[order[t]] = average
        i = j + 1
    return ranks


@dataclass(frozen=True)
class FriedmanResult:
    statistic: float
    p_value: float
    mean_ranks: tuple[float, ...]


def friedman(matrix: ScoreMatrix) -> FriedmanResult:
    """Friedman test in the classic chi-square mean-rank form.

    Ranks are assigned within each project row (best score = rank 1, ties
    averaged); the statistic follows chi-square with k-1 degrees of freedom
    under the null of no difference between approaches.
    """
    k = len(matrix.approaches)
    n = len(matrix.projects)
    rank_sums = [0.0] * k
    for row in matrix.values:
        # the highest score gets rank 1
        for j, rank in enumerate(_average_ranks([-v for v in row])):
            rank_sums[j] += rank
    mean_ranks = tuple(total / n for total in rank_sums)
    center = (k + 1) / 2
    statistic = 12.0 * n / (k * (k + 1)) * sum(
        (rank - center) ** 2 for rank in mean_ranks
    )
    # the chi-square survival function, in closed form for integer degrees of
    # freedom: scipy.stats.chi2.sf within 1e-13 relative below 42 approaches,
    # within 5e-12 up to 2000 (see _chdtrc)
    p_value = _chdtrc(k - 1, statistic)
    return FriedmanResult(statistic, p_value, mean_ranks)


@dataclass(frozen=True)
class WilcoxonResult:
    """Two-sided signed-rank test outcome.

    ``all_zero`` flags the degenerate every-difference-zero input, reported
    as p = 1 by convention.
    """

    p_value: float
    n_nonzero: int
    all_zero: bool
    method: str


def _exact_two_sided(ranks: Sequence[float], w_plus: float) -> float:
    # Doubled ranks are integers even with tie-averaged half ranks, allowing
    # an exact subset-sum convolution of the null distribution.
    doubled = [int(round(2 * r)) for r in ranks]
    total = sum(doubled)
    counts = [0] * (total + 1)
    counts[0] = 1
    for r in doubled:
        for s in range(total, r - 1, -1):
            if counts[s - r]:
                counts[s] += counts[s - r]
    w2 = int(round(2 * w_plus))
    universe = 2 ** len(ranks)
    at_most = sum(counts[: w2 + 1]) / universe
    at_least = sum(counts[w2:]) / universe
    return min(1.0, 2.0 * min(at_most, at_least))


def _normal_two_sided(ranks: Sequence[float], w_plus: float) -> float:
    n = len(ranks)
    mean = n * (n + 1) / 4
    variance = n * (n + 1) * (2 * n + 1) / 24
    tie_sizes: dict[float, int] = {}
    for r in ranks:
        tie_sizes[r] = tie_sizes.get(r, 0) + 1
    variance -= sum(t**3 - t for t in tie_sizes.values()) / 48
    correction = 0.5 * (1 if w_plus > mean else -1 if w_plus < mean else 0)
    z = (w_plus - mean - correction) / math.sqrt(variance)
    return min(1.0, math.erfc(abs(z) / math.sqrt(2)))


def wilcoxon_signed_rank(pairs: Sequence[tuple[float, float]]) -> WilcoxonResult:
    """Two-sided Wilcoxon signed-rank test on paired samples.

    Zero differences are dropped (Wilcoxon convention). The null
    distribution is exact up to ``WILCOXON_EXACT_LIMIT`` non-zero
    differences and normally approximated above.
    """
    if not pairs:
        raise ValueError("at least one pair required")
    differences = [x - y for x, y in pairs]
    nonzero = [d for d in differences if d != 0]
    if not nonzero:
        return WilcoxonResult(1.0, 0, True, "all_zero")
    ranks = _average_ranks([abs(d) for d in nonzero])
    w_plus = sum(rank for rank, d in zip(ranks, nonzero) if d > 0)
    if len(nonzero) <= WILCOXON_EXACT_LIMIT:
        return WilcoxonResult(
            _exact_two_sided(ranks, w_plus), len(nonzero), False, "exact"
        )
    return WilcoxonResult(
        _normal_two_sided(ranks, w_plus), len(nonzero), False, "normal"
    )


def holm_adjust(p_values: Sequence[float]) -> list[float]:
    """Holm step-down adjustment, returned in the original order."""
    for p in p_values:
        if not 0 <= p <= 1:
            raise ValueError(f"p-value out of [0, 1]: {p}")
    m = len(p_values)
    order = sorted(range(m), key=lambda i: p_values[i])
    adjusted = [0.0] * m
    running = 0.0
    for position, index in enumerate(order):
        candidate = min((m - position) * p_values[index], 1.0)
        running = max(running, candidate)
        adjusted[index] = running
    return adjusted


@dataclass(frozen=True)
class CdGrouping:
    """Critical-difference data: mean ranks plus connected groups.

    Groups are ordered best-first by mean rank; an approach can appear in
    several overlapping groups, and together the groups cover all
    approaches. ``pairwise_p`` holds the Holm-adjusted p-values (empty when
    the omnibus test did not reject).
    """

    mean_ranks: dict[str, float]
    groups: tuple[tuple[str, ...], ...]
    friedman_statistic: float
    friedman_p: float
    pairwise_p: dict[tuple[str, str], float]


def cd_grouping(matrix: ScoreMatrix, alpha: float = 0.05) -> CdGrouping:
    """Group approaches with no pairwise significant differences.

    If the Friedman test does not reject at ``alpha``, a single group
    containing every approach is returned. Otherwise pairwise Wilcoxon tests
    on the per-project scores are Holm-adjusted and approaches are joined
    when no pair inside the group differs at ``alpha``; groups are maximal
    contiguous runs in mean-rank order.
    """
    omnibus = friedman(matrix)
    names = matrix.approaches
    mean_ranks = dict(zip(names, omnibus.mean_ranks))
    by_rank = sorted(names, key=lambda name: mean_ranks[name])
    if omnibus.p_value >= alpha:
        return CdGrouping(
            mean_ranks,
            (tuple(by_rank),),
            omnibus.statistic,
            omnibus.p_value,
            {},
        )
    pairs = [
        (names[a], names[b])
        for a in range(len(names))
        for b in range(a + 1, len(names))
    ]
    raw = [
        wilcoxon_signed_rank(
            list(zip(matrix.column(a), matrix.column(b)))
        ).p_value
        for a, b in pairs
    ]
    adjusted = dict(zip(pairs, holm_adjust(raw)))

    def differs(a: str, b: str) -> bool:
        p = adjusted.get((a, b), adjusted.get((b, a)))
        return p < alpha

    k = len(by_rank)
    groups: list[tuple[str, ...]] = []
    covered_up_to = -1
    for start in range(k):
        end = start
        while end + 1 < k and all(
            not differs(by_rank[end + 1], by_rank[i]) for i in range(start, end + 1)
        ):
            end += 1
        if end > covered_up_to:
            groups.append(tuple(by_rank[start : end + 1]))
            covered_up_to = end
    return CdGrouping(
        mean_ranks,
        tuple(groups),
        omnibus.statistic,
        omnibus.p_value,
        adjusted,
    )


# --- the chi-square tail ---------------------------------------------------
#
# A Friedman test over k approaches has k - 1 degrees of freedom, always an
# integer, and for an integer df the chi-square survival function is a finite
# sum (Abramowitz & Stegun 26.4.4-26.4.5). With h = x / 2:
#   even df = 2m:     Q = sum_{i<m} h**i e**-h / i!
#   odd df = 2m + 1:  Q = erfc(sqrt(h)) + sum_{i<m} h**(i + 1/2) e**-h / gamma(i + 3/2)
# Each term is one exp of its own logarithm, with its own lgamma: summing the
# logarithms term to term instead drifts to 5.5e-12 relative at df near 1900.
# Against scipy.special.chdtrc the result agrees within 1e-13 relative for
# df <= 40 (for p >= 1e-100; below that scipy's own error reaches 1e-13) and
# within 5e-12 for df up to 1999; README gives the measured figures.


def _chdtrc(df: int, x: float) -> float:
    """Chi-square survival function with integer ``df`` >= 1 degrees of freedom at finite x >= 0."""
    h = x / 2.0
    if h == 0:
        return 1.0
    log_h = math.log(h)
    m, odd = divmod(df, 2)
    shift = odd / 2
    terms = [math.erfc(math.sqrt(h))] if odd else []
    terms += [
        math.exp((i + shift) * log_h - h - math.lgamma(i + shift + 1)) for i in range(m)
    ]
    return min(1.0, math.fsum(terms))
