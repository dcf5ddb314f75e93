"""Independent brute-force evaluators used as oracles against the library.

The metric oracles recompute values from first principles over explicit
permutations, deliberately sharing no code with the library implementation.
The kernel oracles after them are the scalar code distance and the
plain-Python code-distance, Schulze and tiebreak loops that the numpy
kernels must reproduce exactly, followed by the two rank loops that
``stats._average_ranks`` replaces and the suite checks that
``model.check_cases`` replaces. The next section keeps the replay
harness's earlier per-cycle path (a case dict per cycle and metric, bounds
recomputed on every call) and the earlier
``ranked_from_scores``, ``flatten`` and ``random_mix``, which the lean
versions must also reproduce exactly. Then come the ``csv.DictReader``
history parser that the one-pass ``ingest`` replaces and the
``csv.DictReader`` build-time reader, and last the
``if``-chain spec builder and separate ``spec_is_randomized`` tree walk that
the node-type table replaces.
"""

from __future__ import annotations

import csv
import math
import random
from itertools import permutations
from pathlib import Path
from typing import Callable, Mapping, Sequence

from tcp_lab import metrics
from tcp_lab.approaches import (
    DEFAULT_ALPHA,
    BaseOrder,
    CodeDistOrder,
    DistanceMetric,
    ExeTimeOrder,
    FailDensityOrder,
    Folder,
    FoldFailsOrder,
    RandomOrder,
    RecentnessOrder,
    SourceVectors,
    StartPolicy,
    tokenize,
)
from tcp_lab.combinators import (
    PRESETS,
    BordaMixedOrder,
    CodeDistBrokenOrder,
    GenericBrokenOrder,
    InterpolatedOrder,
    InvalidSpecError,
    RandomMixedOrder,
    SchulzeMixedOrder,
    _check_weights,
    build,
    spec_is_randomized,
)
from tcp_lab.dataset import (
    EMPTY_HISTORY,
    MISSING_COLUMN,
    PARSE_ERROR,
    ColumnMapping,
    DatasetError,
    IngestResult,
    _data_files,
    _parse_duration,
    _parse_verdict,
)
from tcp_lab.evaluation import (
    APFD_FAMILY,
    ApproachOutcome,
    CycleRow,
    EvaluationConfig,
    TimingRow,
    derive_seed,
)
from tcp_lab.metrics import (
    DegenerateBoundsError,
    MetricError,
    NoFaultsError,
    ZeroTotalTimeError,
    mean_median,
    testing_time,
)
from tcp_lab.model import (
    DUPLICATE_CASE,
    FOREIGN_CASE,
    MISSING_CASE,
    Approach,
    CycleRecord,
    FlattenPolicy,
    ProjectHistory,
    RankedSuite,
    TestCaseId,
    TestExecution,
    ranked_from_scores,
    validate_ranking,
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

CodeVector = Mapping[str, int]


class ZeroVectorError(ValueError):
    """Cosine distance is undefined when both vectors are empty."""


def vector_distance(u: CodeVector, v: CodeVector, metric: DistanceMetric) -> float:
    """Distance between two sparse token-count vectors.

    Cosine distance is 1 - cosine similarity; it raises
    :class:`ZeroVectorError` when both vectors are empty, and an empty
    vector is at distance 1 from any non-empty one.
    """
    metric = DistanceMetric(metric)
    if metric is DistanceMetric.COSINE_DISTANCE:
        if not u and not v:
            raise ZeroVectorError("cosine distance undefined for two empty vectors")
        if not u or not v:
            return 1.0
        dot = sum(count * v.get(token, 0) for token, count in u.items())
        norm_u = math.sqrt(sum(count * count for count in u.values()))
        norm_v = math.sqrt(sum(count * count for count in v.values()))
        return max(0.0, 1.0 - dot / (norm_u * norm_v))
    keys = u.keys() | v.keys()
    diffs = (u.get(token, 0) - v.get(token, 0) for token in keys)
    if metric is DistanceMetric.MANHATTAN:
        return float(sum(abs(d) for d in diffs))
    return math.sqrt(sum(d * d for d in diffs))


def safe_distance(u: CodeVector, v: CodeVector, metric: DistanceMetric) -> float:
    """vector_distance with the two-empty-vectors cosine case mapped to 0."""
    try:
        return vector_distance(u, v, metric)
    except ZeroVectorError:
        return 0.0


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


# --- the two tie-averaging rank loops that ``stats._average_ranks`` replaced --


def descending_ranks_oracle(row: Sequence[float]) -> list[float]:
    """Within-row ranks: the highest value gets rank 1; ties average."""
    k = len(row)
    order = sorted(range(k), key=lambda j: -row[j])
    ranks = [0.0] * k
    i = 0
    while i < k:
        j = i
        while j + 1 < k and row[order[j + 1]] == row[order[i]]:
            j += 1
        average = (i + j) / 2 + 1
        for t in range(i, j + 1):
            ranks[order[t]] = average
        i = j + 1
    return ranks


def signed_ranks_oracle(differences: Sequence[float]) -> tuple[list[float], float]:
    """Average ranks of |d| (ascending) and the positive-rank sum."""
    n = len(differences)
    order = sorted(range(n), key=lambda i: abs(differences[i]))
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and abs(differences[order[j + 1]]) == abs(
            differences[order[i]]
        ):
            j += 1
        average = (i + j) / 2 + 1
        for t in range(i, j + 1):
            ranks[order[t]] = average
        i = j + 1
    w_plus = sum(rank for rank, d in zip(ranks, differences) if d > 0)
    return ranks, w_plus


# --- the partition checks that ``model.check_cases`` replaced -----------------
#
# The mixers and tiebreakers had their own suite check and ``CycleView.score``
# its own permutation test; both only accept or reject. The old
# ``validate_ranking`` loop also names the offending case, and with the
# suite's own repeat check in front it gives the (code, case) that every
# entry point must raise now.


def same_suite_oracle(
    orders: Sequence[Sequence[TestCaseId]], suite: Sequence[TestCaseId]
) -> None:
    """Each of ``orders`` (case sequences) must hold exactly the suite's cases."""
    expected = set(suite)
    if len(expected) != len(suite):
        raise ValueError("suite contains duplicate cases")
    for cases in orders:
        if len(cases) != len(suite) or set(cases) != expected:
            raise ValueError("ranking does not cover the expected suite")


def permutation_oracle(
    order: Sequence[TestCaseId], position: Mapping[TestCaseId, int]
) -> list[int]:
    """``order`` as indices into the suite that ``position`` numbers."""
    try:
        permutation = list(map(position.__getitem__, order))
    except KeyError:
        permutation = None
    if (
        permutation is None
        or len(permutation) != len(position)
        or len(set(permutation)) != len(permutation)
    ):
        raise ValueError("order is not a permutation of the cycle's suite")
    return permutation


def partition_error_oracle(
    suite: Sequence[TestCaseId], ranking: RankedSuite
) -> tuple[str, TestCaseId] | None:
    """The (code, case) a bad suite or ranking raises; None for a partition."""
    seen: set[TestCaseId] = set()
    for case in suite:
        if case in seen:
            return DUPLICATE_CASE, case
        seen.add(case)
    suite_set = set(suite)
    seen = set()
    for group in ranking.groups:
        for case in group:
            if case in seen:
                return DUPLICATE_CASE, case
            if case not in suite_set:
                return FOREIGN_CASE, case
            seen.add(case)
    missing = suite_set - seen
    if missing:
        return MISSING_CASE, min(missing)
    return None


# --- the per-cycle harness path the cycle view replaced ----------------------
#
# Metric values are computed here exactly as before: a {case: execution} dict
# per call, builtin ``sum`` where it was used and ``+=`` loops where they were.


def _ordered_executions(
    order: Sequence[TestCaseId], cycle: CycleRecord
) -> list[TestExecution]:
    by_case = {e.case: e for e in cycle.executions}
    if len(order) != len(by_case) or set(order) != set(by_case):
        raise ValueError("order is not a permutation of the cycle's suite")
    return [by_case[case] for case in order]


def _fault_ranks(executions: Sequence[TestExecution]) -> list[int]:
    return [i + 1 for i, e in enumerate(executions) if e.failed]


def apfd_oracle(order: Sequence[TestCaseId], cycle: CycleRecord) -> float:
    executions = _ordered_executions(order, cycle)
    ranks = _fault_ranks(executions)
    if not ranks:
        raise NoFaultsError("cycle has no failing executions")
    n = len(executions)
    m = len(ranks)
    return 1.0 - sum(ranks) / (n * m) + 1.0 / (2 * n)


def apfd_c_oracle(order: Sequence[TestCaseId], cycle: CycleRecord) -> float:
    executions = _ordered_executions(order, cycle)
    ranks = _fault_ranks(executions)
    if not ranks:
        raise NoFaultsError("cycle has no failing executions")
    durations = [e.duration for e in executions]
    total = sum(durations)
    if total == 0:
        raise ZeroTotalTimeError("total execution time is zero")
    n = len(durations)
    suffix = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + durations[i]
    numerator = sum(suffix[r - 1] - durations[r - 1] / 2 for r in ranks)
    return numerator / (total * len(ranks))


def napfd_oracle(
    order: Sequence[TestCaseId], cycle: CycleRecord, executed_prefix_length: int
) -> float:
    executions = _ordered_executions(order, cycle)
    ranks = _fault_ranks(executions)
    if not ranks:
        raise NoFaultsError("cycle has no failing executions")
    n = len(executions)
    if not 0 <= executed_prefix_length <= n:
        raise ValueError("executed prefix must be between 0 and the suite size")
    m = len(ranks)
    detected = [r for r in ranks if r <= executed_prefix_length]
    p = len(detected) / m
    return p - sum(detected) / (n * m) + p / (2 * n)


def apfd_bounds_oracle(cycle: CycleRecord) -> tuple[float, float]:
    ranks = _fault_ranks(cycle.executions)
    if not ranks:
        raise NoFaultsError("cycle has no failing executions")
    n = len(cycle.executions)
    m = len(ranks)
    best_sum = m * (m + 1) // 2
    worst_sum = m * n - m * (m - 1) // 2
    low = 1.0 - worst_sum / (n * m) + 1.0 / (2 * n)
    high = 1.0 - best_sum / (n * m) + 1.0 / (2 * n)
    return low, high


def apfd_c_bounds_oracle(cycle: CycleRecord) -> tuple[float, float]:
    failing = sorted((e for e in cycle.executions if e.failed), key=lambda e: e.duration)
    if not failing:
        raise NoFaultsError("cycle has no failing executions")
    passing = [e for e in cycle.executions if not e.failed]
    best = [e.case for e in failing] + [e.case for e in passing]
    worst = [e.case for e in passing] + [e.case for e in reversed(failing)]
    return apfd_c_oracle(worst, cycle), apfd_c_oracle(best, cycle)


def _rectify(value: float, bounds: tuple[float, float]) -> float:
    low, high = bounds
    if not (math.isfinite(value) and math.isfinite(low) and math.isfinite(high)):
        raise ValueError(f"cannot rectify {value} between {low} and {high}: not finite")
    if high - low < metrics.DEGENERATE_EPSILON:
        raise DegenerateBoundsError("metric bounds coincide for this cycle")
    return min(1.0, max(0.0, (value - low) / (high - low)))


def rapfd_oracle(order: Sequence[TestCaseId], cycle: CycleRecord) -> float:
    return _rectify(apfd_oracle(order, cycle), apfd_bounds_oracle(cycle))


def rapfd_c_oracle(order: Sequence[TestCaseId], cycle: CycleRecord) -> float:
    return _rectify(apfd_c_oracle(order, cycle), apfd_c_bounds_oracle(cycle))


METRIC_ORACLES = {
    "apfd": apfd_oracle,
    "apfd_c": apfd_c_oracle,
    "rapfd": rapfd_oracle,
    "rapfd_c": rapfd_c_oracle,
}


def _first_fault_and_full(order, cycle) -> tuple[float | None, float]:
    by_case = {e.case: e for e in cycle.executions}
    elapsed = 0.0
    first_fault = None
    for case in order:
        execution = by_case[case]
        elapsed += execution.duration
        if first_fault is None and execution.failed:
            first_fault = elapsed
    return first_fault, elapsed


def _apfd_family_value(metric_name, order, cycle, exclusions, first_rep):
    try:
        return METRIC_ORACLES[metric_name](order, cycle)
    except DegenerateBoundsError:
        if first_rep:
            exclusions[f"{metric_name}_degenerate"] += 1
        return None
    except ZeroTotalTimeError:
        if first_rep:
            key = f"{metric_name}_zero_time"
            exclusions[key] = exclusions.get(key, 0) + 1
        return None


def evaluate_approach_oracle(
    history: ProjectHistory,
    name: str,
    spec,
    config: EvaluationConfig,
    clock: Callable[[], float],
) -> ApproachOutcome:
    """The replay loop as it was before the per-cycle view, with ``clock``
    standing in for ``time.perf_counter``."""
    baseline = []
    for cycle in history.cycles:
        first_fault, full = _first_fault_and_full([e.case for e in cycle.executions], cycle)
        build_s = cycle.build_time if cycle.build_time is not None else 0.0
        baseline.append(
            (build_s, testing_time(0.0, build_s, first_fault, full))
        )
    repetitions = config.repetitions if spec_is_randomized(spec) else 1
    wanted = config.metric_names
    rows: list[CycleRow] = []
    timing_rows: list[TimingRow] = []
    exclusions = {"rapfd_degenerate": 0, "rapfd_c_degenerate": 0}
    per_rep: dict[str, list[float]] = {}
    for rep in range(repetitions):
        approach = build(
            spec, sources=history.sources, master_seed=derive_seed(config.seed, name, rep)
        )
        flatten_seeds = None
        if config.tie_policy is FlattenPolicy.RANDOM:
            flatten_seeds = random.Random(derive_seed(config.seed, name, rep, "ties"))
        rep_values: dict[str, list[float]] = {m: [] for m in APFD_FAMILY}
        rep_tts: list[float] = []
        rep_pt = 0.0
        ntr_pairs: list[tuple[float, float]] = []
        for cycle, (build_s, base_tt) in zip(history.cycles, baseline):
            suite = list(cycle.suite)
            started = clock()
            ranking = approach.rank(suite)
            prioritization = clock() - started
            validate_ranking(suite, ranking)
            tie_seed = flatten_seeds.getrandbits(63) if flatten_seeds else 0
            order = flatten_oracle(ranking, config.tie_policy, seed=tie_seed)
            first_fault, full = _first_fault_and_full(order, cycle)
            values: dict[str, float | None] = {}
            fault_count = sum(1 for e in cycle.executions if e.failed)
            if cycle.failed:
                for metric_name in APFD_FAMILY:
                    if metric_name in wanted:
                        values[metric_name] = _apfd_family_value(
                            metric_name, order, cycle, exclusions, rep == 0
                        )
                ntr_pairs.append((full, first_fault if first_fault is not None else full))
            rows.append(
                CycleRow(rep, cycle.index, len(suite), fault_count, values, first_fault, full)
            )
            tt = testing_time(prioritization, build_s, first_fault, full)
            rep_tts.append(tt)
            rep_pt += prioritization
            timing_rows.append(TimingRow(rep, cycle.index, prioritization, build_s, tt, base_tt))
            for metric_name, value in values.items():
                if value is not None:
                    rep_values[metric_name].append(value)
            approach.observe(cycle.executions)
        for metric_name in APFD_FAMILY:
            if metric_name in wanted and rep_values[metric_name]:
                mean, median = mean_median(rep_values[metric_name])
                per_rep.setdefault(f"{metric_name}_mean", []).append(mean)
                per_rep.setdefault(f"{metric_name}_median", []).append(median)
        if "ntr" in wanted:
            try:
                per_rep.setdefault("ntr", []).append(metrics.ntr(ntr_pairs))
            except MetricError:
                pass
        if "atr" in wanted:
            try:
                per_rep.setdefault("atr", []).append(
                    metrics.atr(rep_tts, [tt for _, tt in baseline])
                )
            except MetricError:
                pass
        per_rep.setdefault("total_pt", []).append(rep_pt)
    aggregates: dict[str, float | None] = {}
    no_data: list[str] = []
    keys = [f"{m}_{s}" for m in APFD_FAMILY if m in wanted for s in ("mean", "median")]
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
        name, repetitions, rows, timing_rows, aggregates, no_data, exclusions
    )


# --- the per-call rank path before it was made lean ---------------------------


def ranked_from_scores_oracle(
    suite: Sequence[TestCaseId], score_of, *, descending: bool = False
) -> RankedSuite:
    scored = [(score_of(case), position, case) for position, case in enumerate(suite)]
    scored.sort(key=lambda item: (-item[0] if descending else item[0], item[1]))
    groups: list[list[TestCaseId]] = []
    last_score: object = None
    for score, _, case in scored:
        if groups and score == last_score:
            groups[-1].append(case)
        else:
            groups.append([case])
            last_score = score
    return RankedSuite(tuple(tuple(g) for g in groups))


def flatten_oracle(
    ranking: RankedSuite, policy: FlattenPolicy = FlattenPolicy.STABLE, seed: int = 0
) -> list[TestCaseId]:
    if policy is FlattenPolicy.STABLE:
        return list(ranking.cases())
    rng = random.Random(seed)
    order: list[TestCaseId] = []
    for group in ranking.groups:
        members = list(group)
        rng.shuffle(members)
        order.extend(members)
    return order


def random_mix_oracle(
    queues: Sequence[Sequence[TestCaseId]], weights: Sequence[float], seed: int = 0
) -> RankedSuite:
    """Weighted random merge drawing each queue with ``Random.choices``.

    The suite check (a set per queue) is left to the library version.
    """
    if not queues:
        raise ValueError("at least one queue required")
    _check_weights(weights, len(queues))
    reference = list(queues[0])
    indices = [i for i in range(len(queues)) if weights[i] > 0]
    active_weights = [weights[i] for i in indices]
    pointers = [0] * len(queues)
    emitted: set[TestCaseId] = set()
    order: list[TestCaseId] = []
    rng = random.Random(seed)
    for _ in range(len(reference)):
        picked = rng.choices(indices, weights=active_weights)[0]
        queue = queues[picked]
        p = pointers[picked]
        while queue[p] in emitted:
            p += 1
        pointers[picked] = p + 1
        emitted.add(queue[p])
        order.append(queue[p])
    return RankedSuite(tuple((case,) for case in order))


# --- the history parser before the one-pass csv.reader version ----------------


def ingest_oracle(
    source: Path | str,
    mapping: ColumnMapping,
    project: str,
    delimiter: str = ",",
) -> IngestResult:
    """``ingest`` through ``csv.DictReader``, one dict per row.

    A cycle keeps the job and commit of its first row and its first known
    build time; later rows are not checked against them. Errors name the
    row's own line even after blank lines: reading ``fieldnames`` in
    ``DictReader.__next__`` resets ``line_num`` once the blanks are skipped.
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


def read_build_times_oracle(path: Path | str) -> dict[str, float]:
    """The ``csv.DictReader`` build-time reader before the guarded ``csv.reader``."""
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


# --- the spec-tree builder before the node-type table -------------------------


_ORACLE_ORDER_SUFFIX = "_order"

_ORACLE_LEAF_TYPES = {
    "base",
    "random",
    "recentness",
    "fold_fails",
    "exe_time",
    "fail_density",
    "code_dist",
}
_ORACLE_COMBINATOR_TYPES = {
    "random_mix",
    "borda_mix",
    "schulze_mix",
    "interpolated",
    "break_ties",
    "break_ties_codedist",
}

_ORACLE_COUNT_MODES = ("failed_cycles", "all_cycles")

_ORACLE_ALLOWED_KEYS = {
    "base": set(),
    "random": {"seed"},
    "recentness": set(),
    "fold_fails": {"folder", "alpha"},
    "exe_time": {"alpha"},
    "fail_density": {"alpha_fail", "alpha_time"},
    "code_dist": {"metric", "start"},
    "random_mix": {"children", "seed"},
    "borda_mix": {"children"},
    "schulze_mix": {"children"},
    "interpolated": {"before", "after", "cutoff", "count_mode"},
    "break_ties": {"primary", "secondary"},
    "break_ties_codedist": {"primary", "metric"},
}


def _oracle_canonical_type(raw: object) -> str:
    if not isinstance(raw, str) or not raw:
        raise InvalidSpecError(f"spec node needs a string 'type', got {raw!r}")
    name = raw
    stem = name[: -len(_ORACLE_ORDER_SUFFIX)]
    if name.endswith(_ORACLE_ORDER_SUFFIX) and stem in _ORACLE_LEAF_TYPES:
        name = stem
    if name not in _ORACLE_LEAF_TYPES and name not in _ORACLE_COMBINATOR_TYPES:
        raise InvalidSpecError(f"unknown approach type {raw!r}")
    return name


class _OracleSeedAllocator:
    """Deterministic per-node seeds for randomized specs without explicit ones."""

    def __init__(self, master_seed: int):
        self._rng = random.Random(master_seed)

    def seed_for(self, node: Mapping) -> int:
        explicit = node.get("seed")
        drawn = self._rng.getrandbits(63)
        if explicit is None:
            return drawn
        if not isinstance(explicit, int):
            raise InvalidSpecError(f"seed must be an integer, got {explicit!r}")
        return explicit


def _oracle_float_param(node: Mapping, key: str, default: float) -> float:
    value = node.get(key, default)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise InvalidSpecError(f"{key} must be a number, got {value!r}")
    return float(value)


def _oracle_build_children(
    node: Mapping, builder
) -> list[tuple[Approach, float]]:
    children = node.get("children")
    if not isinstance(children, list) or not children:
        raise InvalidSpecError("a mixer needs a non-empty 'children' list")
    built: list[tuple[Approach, float]] = []
    for entry in children:
        if not isinstance(entry, Mapping) or "spec" not in entry:
            raise InvalidSpecError(
                "each mixer child must be an object with 'weight' and 'spec'"
            )
        weight = entry.get("weight", 1)
        if not isinstance(weight, (int, float)) or isinstance(weight, bool) or weight < 0:
            raise InvalidSpecError(f"child weight must be >= 0, got {weight!r}")
        built.append((builder(entry["spec"]), float(weight)))
    if not any(weight > 0 for _, weight in built):
        raise InvalidSpecError("a mixer needs at least one child with weight > 0")
    return built


def build_oracle(
    spec: Mapping | str,
    *,
    sources: SourceVectors | Mapping[TestCaseId, str] | None = None,
    master_seed: int = 0,
) -> Approach:
    """Construct an approach from a spec tree or preset name.

    ``sources`` backs the code-distance nodes: a case-to-source mapping, or
    a :class:`SourceVectors` to share one tokenization across builds. All
    code-distance nodes of one tree share one. Randomized nodes without an
    explicit ``seed`` get one derived deterministically from ``master_seed``
    and their position in the tree.
    """
    seeds = _OracleSeedAllocator(master_seed)
    sources = SourceVectors.of(sources)

    def construct(node: Mapping | str) -> Approach:
        if isinstance(node, str):
            table = PRESETS
            if node not in table:
                raise InvalidSpecError(f"unknown preset {node!r}")
            return construct(table[node])
        if not isinstance(node, Mapping):
            raise InvalidSpecError(f"spec node must be an object, got {node!r}")
        kind = _oracle_canonical_type(node.get("type"))
        extra = set(node) - _ORACLE_ALLOWED_KEYS[kind] - {"type", "comment"}
        if extra:
            raise InvalidSpecError(
                f"unexpected keys {sorted(extra)} for type {kind!r}"
            )
        if kind == "base":
            return BaseOrder()
        if kind == "random":
            return RandomOrder(seed=seeds.seed_for(node))
        if kind == "recentness":
            return RecentnessOrder()
        if kind == "fold_fails":
            folder_raw = node.get("folder", "sum")
            try:
                folder = Folder(folder_raw)
            except ValueError:
                raise InvalidSpecError(f"unknown folder {folder_raw!r}") from None
            return FoldFailsOrder(folder, alpha=_oracle_float_param(node, "alpha", DEFAULT_ALPHA))
        if kind == "exe_time":
            return ExeTimeOrder(alpha=_oracle_float_param(node, "alpha", DEFAULT_ALPHA))
        if kind == "fail_density":
            return FailDensityOrder(
                alpha_fail=_oracle_float_param(node, "alpha_fail", DEFAULT_ALPHA),
                alpha_time=_oracle_float_param(node, "alpha_time", DEFAULT_ALPHA),
            )
        if kind == "code_dist":
            return CodeDistOrder(
                metric=_metric_param(node),
                start=_start_param(node),
                sources=sources,
            )
        if kind == "random_mix":
            seed = seeds.seed_for(node)
            return RandomMixedOrder(_oracle_build_children(node, construct), seed=seed)
        if kind == "borda_mix":
            return BordaMixedOrder(_oracle_build_children(node, construct))
        if kind == "schulze_mix":
            return SchulzeMixedOrder(_oracle_build_children(node, construct))
        if kind == "interpolated":
            for key in ("before", "after", "cutoff"):
                if key not in node:
                    raise InvalidSpecError(f"interpolated spec needs {key!r}")
            cutoff = node["cutoff"]
            if not isinstance(cutoff, int) or cutoff < 1:
                raise InvalidSpecError(f"cutoff must be a positive integer, got {cutoff!r}")
            count_mode = node.get("count_mode", "failed_cycles")
            if count_mode not in _ORACLE_COUNT_MODES:
                raise InvalidSpecError(f"unknown count_mode {count_mode!r}")
            return InterpolatedOrder(
                construct(node["before"]),
                construct(node["after"]),
                cutoff=cutoff,
                count_mode=count_mode,
            )
        if kind == "break_ties":
            for key in ("primary", "secondary"):
                if key not in node:
                    raise InvalidSpecError(f"break_ties spec needs {key!r}")
            return GenericBrokenOrder(
                construct(node["primary"]), construct(node["secondary"])
            )
        if kind == "break_ties_codedist":
            if "primary" not in node:
                raise InvalidSpecError("break_ties_codedist spec needs 'primary'")
            return CodeDistBrokenOrder(
                construct(node["primary"]),
                metric=_metric_param(node),
                sources=sources,
            )
        raise InvalidSpecError(f"unknown approach type {kind!r}")  # pragma: no cover

    def _metric_param(node: Mapping) -> DistanceMetric:
        raw = node.get("metric", DistanceMetric.EUCLIDEAN.value)
        try:
            return DistanceMetric(raw)
        except ValueError:
            raise InvalidSpecError(f"unknown metric {raw!r}") from None

    def _start_param(node: Mapping) -> StartPolicy:
        raw = node.get("start", StartPolicy.FARTHEST_PAIR.value)
        try:
            return StartPolicy(raw)
        except ValueError:
            raise InvalidSpecError(f"unknown start policy {raw!r}") from None

    return construct(spec)


def spec_is_randomized_oracle(spec: Mapping | str) -> bool:
    """True if the spec tree (or named preset) contains a randomized node."""
    if isinstance(spec, str):
        table = PRESETS
        if spec not in table:
            raise InvalidSpecError(f"unknown preset {spec!r}")
        return spec_is_randomized_oracle(table[spec])
    if not isinstance(spec, Mapping):
        raise InvalidSpecError(f"spec node must be an object, got {spec!r}")
    kind = _oracle_canonical_type(spec.get("type"))
    if kind in ("random", "random_mix"):
        return True
    nested: list[Mapping | str] = []
    for child in spec.get("children", []) or []:
        if isinstance(child, Mapping) and "spec" in child:
            nested.append(child["spec"])
    for key in ("before", "after", "primary", "secondary"):
        if key in spec:
            nested.append(spec[key])
    return any(spec_is_randomized_oracle(sub) for sub in nested)
