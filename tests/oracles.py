"""Independent brute-force evaluators used as oracles against the library.

The metric oracles recompute values from first principles over explicit
permutations, deliberately sharing no code with the library implementation.
The kernel oracles at the end are the plain-Python code-distance, Schulze
and tiebreak loops that the numpy kernels must reproduce exactly.
"""

from __future__ import annotations

from itertools import permutations
from typing import Callable, Mapping, Sequence

from tcp_lab.approaches import DistanceMetric, StartPolicy, safe_distance, tokenize
from tcp_lab.model import (
    CycleRecord,
    RankedSuite,
    TestCaseId,
    TestExecution,
    ranked_from_scores,
)


def apfd_of(ordered: Sequence[TestExecution]) -> float:
    n = len(ordered)
    ranks = [i + 1 for i, e in enumerate(ordered) if e.failed]
    return 1 - sum(ranks) / (n * len(ranks)) + 1 / (2 * n)


def apfd_c_of(ordered: Sequence[TestExecution]) -> float:
    n = len(ordered)
    total = sum(e.duration for e in ordered)
    numerator = 0.0
    for i, e in enumerate(ordered):
        if e.failed:
            numerator += sum(x.duration for x in ordered[i:]) - e.duration / 2
    m = sum(1 for e in ordered if e.failed)
    return numerator / (total * m)


def exhaustive_extrema(cycle: CycleRecord, value_of) -> tuple[float, float]:
    """(min, max) of a per-permutation metric over all n! orders."""
    values = [value_of(perm) for perm in permutations(cycle.executions)]
    return min(values), max(values)


def all_permutation_values(cycle: CycleRecord, value_of) -> list[tuple[tuple[str, ...], float]]:
    return [
        (tuple(e.case for e in perm), value_of(perm))
        for perm in permutations(cycle.executions)
    ]


def widest_path_oracle(d: Sequence[Sequence[float]], start: int, goal: int) -> float:
    """Max over all simple paths of the minimum edge weight, by enumeration."""
    n = len(d)
    best = 0.0
    others = [v for v in range(n) if v not in (start, goal)]
    for r in range(len(others) + 1):
        for middle in permutations(others, r):
            path = (start, *middle, goal)
            strength = min(d[a][b] for a, b in zip(path, path[1:]))
            best = max(best, strength)
    return best


def orderings_agree(
    first: Sequence[float], second: Sequence[float], tolerance: float = 1e-12
) -> bool:
    """True iff the two value sequences induce identical orderings.

    Zero inversions: after sorting by the first sequence, the second must be
    non-decreasing, with ties appearing in exactly the same places.
    """
    paired = sorted(zip(first, second))
    for (a0, b0), (a1, b1) in zip(paired, paired[1:]):
        if b1 < b0 - tolerance:
            return False
        tied_a = abs(a1 - a0) <= tolerance
        tied_b = abs(b1 - b0) <= tolerance
        if tied_a != tied_b:
            return False
    return True


# --- the element-by-element kernels the numpy implementations replaced ------
#
# Rankings from these must equal the library's exactly. Distances come from
# the scalar ``safe_distance`` over ``tokenize`` vectors.


def code_dist_chain_oracle(
    suite: Sequence[TestCaseId],
    sources: Mapping[TestCaseId, str],
    metric: DistanceMetric,
    start: StartPolicy,
) -> RankedSuite:
    vectors = {case: tokenize(sources.get(case, "")) for case in suite}

    def distance(a: TestCaseId, b: TestCaseId) -> float:
        return safe_distance(vectors[a], vectors[b], metric)

    if start is StartPolicy.FARTHEST_PAIR:
        first = farthest_pair_start_oracle(suite, distance)
    else:
        first = suite[0]
    position = {case: i for i, case in enumerate(suite)}
    remaining = [case for case in suite if case != first]
    chain = [first]
    while remaining:
        last = chain[-1]
        best = min(
            remaining,
            key=lambda case: (-distance(last, case), position[case]),
        )
        remaining.remove(best)
        chain.append(best)
    return RankedSuite(tuple((case,) for case in chain))


def farthest_pair_start_oracle(
    suite: Sequence[TestCaseId],
    distance: Callable[[TestCaseId, TestCaseId], float],
) -> TestCaseId:
    best_distance = -1.0
    best_start = suite[0]
    for i in range(len(suite)):
        for j in range(i + 1, len(suite)):
            d = distance(suite[i], suite[j])
            if d > best_distance:
                best_distance = d
                best_start = suite[i]
    return best_start


def break_ties_codedist_oracle(
    primary: RankedSuite,
    sources: Mapping[TestCaseId, str],
    metric: DistanceMetric,
) -> RankedSuite:
    vectors = {case: tokenize(sources.get(case, "")) for case in primary.cases()}

    def distance(a: TestCaseId, b: TestCaseId) -> float:
        return safe_distance(vectors[a], vectors[b], metric)

    picked: list[TestCaseId] = []
    min_dist: dict[TestCaseId, float] = {}
    pending = [list(group) for group in primary.groups]

    def pick(case: TestCaseId, group: list[TestCaseId]) -> None:
        group.remove(case)
        picked.append(case)
        for other_group in pending:
            for candidate in other_group:
                d = distance(candidate, case)
                if candidate not in min_dist or d < min_dist[candidate]:
                    min_dist[candidate] = d

    for group in pending:
        if not picked and group:
            pick(farthest_pair_start_oracle(list(group), distance), group)
        while group:
            best_index = max(
                range(len(group)),
                key=lambda i: (min_dist[group[i]], -i),
            )
            pick(group[best_index], group)
    return RankedSuite(tuple((case,) for case in picked))


def pairwise_preferences_oracle(
    rankings: Sequence[RankedSuite],
    weights: Sequence[float],
    suite: Sequence[TestCaseId],
) -> list[list[float]]:
    index = {case: i for i, case in enumerate(suite)}
    n = len(suite)
    d = [[0.0] * n for _ in range(n)]
    for ranking, weight in zip(rankings, weights):
        if weight == 0:
            continue
        above: list[TestCaseId] = []
        for group in ranking.groups:
            for earlier in above:
                for case in group:
                    d[index[earlier]][index[case]] += weight
            above.extend(group)
    return d


def strongest_paths_oracle(d: Sequence[Sequence[float]]) -> list[list[float]]:
    n = len(d)
    p = [list(row) for row in d]
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            pji = p[j][i]
            row_i = p[i]
            row_j = p[j]
            for k in range(n):
                if k == i or k == j:
                    continue
                strength = pji if pji < row_i[k] else row_i[k]
                if strength > row_j[k]:
                    row_j[k] = strength
    return p


def schulze_mix_oracle(
    rankings: Sequence[RankedSuite],
    weights: Sequence[float],
    suite: Sequence[TestCaseId],
) -> RankedSuite:
    n = len(suite)
    index = {case: i for i, case in enumerate(suite)}
    p = strongest_paths_oracle(pairwise_preferences_oracle(rankings, weights, suite))
    beats = [0] * n
    for x in range(n):
        for y in range(n):
            if x != y and p[x][y] > p[y][x]:
                beats[x] += 1
    return ranked_from_scores(suite, lambda case: beats[index[case]], descending=True)


def break_ties_oracle(primary: RankedSuite, secondary: RankedSuite) -> RankedSuite:
    groups: list[tuple[TestCaseId, ...]] = []
    for primary_group in primary.groups:
        members = set(primary_group)
        for secondary_group in secondary.groups:
            refined = tuple(case for case in secondary_group if case in members)
            if refined:
                groups.append(refined)
    return RankedSuite(tuple(groups))
