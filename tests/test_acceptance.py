"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. Criterion 9 needs the
full external dataset and is skipped by default (see its docstring).
"""

from __future__ import annotations

import itertools
import random
import time
from contextlib import contextmanager

import pytest

from oracles import orderings_agree, widest_path_oracle
from synth import cycle, example_sources, random_history, shipped_approach_specs
from tcp_lab.approaches import ExeTimeOrder, FailDensityOrder
from tcp_lab.combinators import (
    InterpolatedOrder,
    borda_mix,
    build,
    pairwise_preferences,
    random_mix,
    schulze_mix,
    strongest_paths,
)
from tcp_lab.metrics import CycleView, atr, ntr, testing_time as compute_testing_time
from tcp_lab.model import FlattenPolicy, RankedSuite, flatten, validate_ranking
from tcp_lab.stats import ScoreMatrix, friedman, holm_adjust, wilcoxon_signed_rank


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL", flush=True)
        raise
    print(f"ACCEPTANCE {name}: PASS", flush=True)


def random_failed_cycle(rng: random.Random, max_n: int = 7):
    n = rng.randint(2, max_n)
    m = rng.randint(1, n - 1)
    cases = [f"t{i}" for i in range(n)]
    failures = set(rng.sample(cases, m))
    durations = {c: round(rng.uniform(0.05, 9.95), 3) for c in cases}
    return cycle(0, cases, failures, durations)


def enumerate_metric_values(record):
    """(apfd, apfd_c) for every permutation, computed from first principles."""
    executions = record.executions
    values = []
    for perm in itertools.permutations(executions):
        n = len(perm)
        ranks = [i + 1 for i, e in enumerate(perm) if e.failed]
        m = len(ranks)
        apfd_value = 1 - sum(ranks) / (n * m) + 1 / (2 * n)
        suffix = 0.0
        numerator = 0.0
        for e in reversed(perm):
            suffix += e.duration
            if e.failed:
                numerator += suffix - e.duration / 2
        total = suffix
        values.append((perm, apfd_value, numerator / (total * m)))
    return values


class TestAcceptance:
    def test_criterion_1_and_2_bounds_oracle_and_monotonicity(self):
        """Criteria 1+2 share one exhaustive enumeration per cycle."""
        rng = random.Random(20240501)
        started = time.perf_counter()
        cycles = [random_failed_cycle(rng) for _ in range(200)]
        with criterion("criterion 1 (rectification bounds oracle, 200 cycles, n<=7)"):
            enumerations = []
            for record in cycles:
                values = enumerate_metric_values(record)
                enumerations.append(values)
                apfd_values = [v for _, v, _ in values]
                apfd_c_values = [v for _, _, v in values]
                view = CycleView(record)
                low, high = view.apfd_bounds
                assert abs(low - min(apfd_values)) <= 1e-9
                assert abs(high - max(apfd_values)) <= 1e-9
                low_c, high_c = view.apfd_c_bounds
                assert abs(low_c - min(apfd_c_values)) <= 1e-9
                assert abs(high_c - max(apfd_c_values)) <= 1e-9
            elapsed = time.perf_counter() - started
            assert elapsed < 30.0, f"bounds oracle took {elapsed:.1f}s"
        with criterion("criterion 2 (rAPFD/rAPFD_C monotonicity, zero inversions)"):
            for record, values in zip(cycles, enumerations):
                view = CycleView(record)
                low, high = view.apfd_bounds
                low_c, high_c = view.apfd_c_bounds
                apfd_values = [v for _, v, _ in values]
                apfd_c_values = [v for _, _, v in values]
                if high - low > 1e-12:
                    rect = [(v - low) / (high - low) for v in apfd_values]
                    assert orderings_agree(apfd_values, rect)
                if high_c - low_c > 1e-12:
                    rect_c = [(v - low_c) / (high_c - low_c) for v in apfd_c_values]
                    assert orderings_agree(apfd_c_values, rect_c)
                    # the affine rectification above is what the library
                    # computes; spot-check a few permutations against it
                    for perm, _, value in values[:: max(1, len(values) // 3)]:
                        order = [e.case for e in perm]
                        expected = min(1.0, max(0.0, (value - low_c) / (high_c - low_c)))
                        assert abs(view.score(order).rapfd_c - expected) <= 1e-12

    def test_criterion_3_voting_oracles(self):
        rng = random.Random(31337)

        def random_ranking(suite):
            perm = list(suite)
            rng.shuffle(perm)
            groups = []
            start = 0
            while start < len(perm):
                size = rng.randint(1, len(perm) - start)
                groups.append(tuple(sorted(perm[start : start + size], key=suite.index)))
                start += size
            return RankedSuite(tuple(groups))

        def borda_oracle(rankings, weights, suite):
            n = len(suite)
            positional = list(range(n - 1, -1, -1))
            scores = {c: 0.0 for c in suite}
            for ranking, weight in zip(rankings, weights):
                position = 0
                for group in ranking.groups:
                    size = len(group)
                    share = sum(positional[position : position + size]) / size
                    for case in group:
                        scores[case] += weight * share
                    position += size
            ordered = sorted(suite, key=lambda c: -scores[c])
            groups, current = [], []
            for case in ordered:
                if current and scores[case] != scores[current[-1]]:
                    groups.append(set(current))
                    current = []
                current.append(case)
            groups.append(set(current))
            return groups

        with criterion("criterion 3 (Borda + Schulze brute-force oracles, 500 instances)"):
            for _ in range(500):
                n = rng.randint(2, 5)
                suite = [f"t{i}" for i in range(n)]
                count = rng.randint(1, 3)
                rankings = [random_ranking(suite) for _ in range(count)]
                weights = [rng.choice([0.5, 1.0, 2.0, 3.0]) for _ in range(count)]
                if not any(weights):
                    weights[0] = 1.0
                out = borda_mix(rankings, weights, suite=suite)
                assert [set(g) for g in out.groups] == borda_oracle(
                    rankings, weights, suite
                )
                d = pairwise_preferences(rankings, weights, suite)
                p = strongest_paths(d)
                for x in range(n):
                    for y in range(n):
                        if x != y:
                            assert p[x][y] == widest_path_oracle(d, x, y)

    def test_criterion_4_mixer_degeneracies(self):
        rng = random.Random(77)
        with criterion("criterion 4 (mixer degeneracies + weighted-draw frequency)"):
            # weights (1, 0): output equals the first queue exactly
            for seed in range(50):
                suite = [f"t{i}" for i in range(rng.randint(2, 8))]
                queue_one = suite[:]
                rng.shuffle(queue_one)
                queue_two = suite[:]
                rng.shuffle(queue_two)
                out = random_mix([queue_one, queue_two], [1, 0], seed=seed)
                assert flatten(out, FlattenPolicy.STABLE) == queue_one
            # identical children reproduce the input, ties preserved
            tied = RankedSuite((("a", "c"), ("b",), ("d", "e")))
            for k in (1, 2, 5):
                for mixer in (borda_mix, schulze_mix):
                    out = mixer([tied] * k, [1.0] * k, suite=["a", "b", "c", "d", "e"])
                    assert [set(g) for g in out.groups] == [set(g) for g in tied.groups]
            # weighted first pick: 3-to-1 weights give 0.75 +- 0.02
            hits = 0
            trials = 10000
            for seed in range(trials):
                out = random_mix([["a", "b", "c"], ["b", "a", "c"]], [3, 1], seed=seed)
                if flatten(out, FlattenPolicy.STABLE)[0] == "a":
                    hits += 1
            assert abs(hits / trials - 0.75) <= 0.02

    def test_criterion_5_interpolator_gates(self):
        with criterion("criterion 5 (interpolator gates + after-child training)"):
            cutoff = 4
            cases = ["a", "b", "c", "d"]
            history = []
            for i in range(10):
                failures = [cases[i % 4]] if i % 2 else []
                durations = {c: 1.0 + ((i + j) % 4) for j, c in enumerate(cases)}
                history.append(cycle(i, cases, failures, durations))
            inter = InterpolatedOrder(
                ExeTimeOrder(), FailDensityOrder(), cutoff=cutoff
            )
            solo_before = ExeTimeOrder()
            solo_after = FailDensityOrder()
            for record in history:
                suite = list(record.suite)
                got = inter.rank(suite)
                if inter.progress == 0:
                    assert got == solo_before.rank(suite)
                if inter.progress >= cutoff:
                    assert got == solo_after.rank(suite)
                for approach in (inter, solo_before, solo_after):
                    approach.observe(record.executions)
                # the embedded after-child state tracks the solo run exactly
                assert inter.after._fails._values == solo_after._fails._values
                assert inter.after._times._values == solo_after._times._values
            assert inter.progress >= cutoff  # both gates actually exercised

    def test_criterion_6_metric_spot_values(self):
        with criterion("criterion 6 (hand-derived metric spot values, 1e-12)"):
            tol = 1e-12
            four = cycle(0, ["a", "b", "c", "d"], failures=["b", "c"])
            assert CycleView(four).score(["a", "b", "c", "d"]).apfd == pytest.approx(0.5, abs=tol)
            first_two = cycle(0, ["a", "b", "c", "d"], failures=["a", "b"])
            assert CycleView(first_two).score(["a", "b", "c", "d"]).apfd == pytest.approx(0.75, abs=tol)
            timed = cycle(0, ["f", "p"], failures=["f"], durations={"f": 2, "p": 2})
            assert CycleView(timed).score(["f", "p"]).apfd_c == pytest.approx(0.75, abs=tol)
            assert CycleView(timed).score(["p", "f"]).apfd_c == pytest.approx(0.25, abs=tol)
            constrained = cycle(0, ["a", "b", "c", "d"], failures=["a", "d"])
            assert CycleView(constrained).score(["a", "b", "c", "d"]).napfd(2) == pytest.approx(
                0.4375, abs=tol
            )
            assert ntr([(10, 2), (20, 5)]) == pytest.approx(23 / 30, abs=tol)
            assert compute_testing_time(3, 5, 4, 9) == pytest.approx(4.0, abs=tol)
            assert compute_testing_time(7, 5, None, 10) == pytest.approx(
                12.0, abs=tol
            )
            assert atr([1, 3], [4, 6]) == pytest.approx(0.6, abs=tol)

    def test_criterion_7_statistics(self):
        with criterion("criterion 7 (Friedman / Holm / exact Wilcoxon values)"):
            matrix = ScoreMatrix(
                approaches=("A", "B", "C"),
                projects=("p0", "p1", "p2", "p3"),
                values=tuple((3.0, 2.0, 1.0) for _ in range(4)),
            )
            result = friedman(matrix)
            assert result.statistic == pytest.approx(8.0, abs=1e-12)
            assert result.p_value == pytest.approx(0.0183, abs=1e-3)
            assert holm_adjust([0.01, 0.04]) == [
                pytest.approx(0.02),
                pytest.approx(0.04),
            ]
            pairs = [(float(x), float(x) + 2.5) for x in range(6)]
            assert wilcoxon_signed_rank(pairs).p_value == pytest.approx(0.03125)

    def test_criterion_8_framework_safety(self, monkeypatch):
        with criterion("criterion 8 (sentinel isolation + 1e6 validated rankings)"):
            # an approach's only input channel is observe(), and the harness
            # calls it strictly after rank: a sentinel that counts both and
            # demands rank-before-observe must replay without tripping
            from tcp_lab import evaluation
            from test_evaluation import SentinelApproach, small_config

            sentinel_history = random_history(random.Random(4242), n_cycles=50)
            sentinels: list[SentinelApproach] = []

            def plant_sentinel(spec, sources=None, master_seed=0):
                sentinels.append(SentinelApproach())
                return sentinels[-1]

            monkeypatch.setattr(evaluation, "build", plant_sentinel)
            evaluation.evaluate_approach(
                sentinel_history, "sentinel", {"type": "base_order"}, small_config()
            )
            monkeypatch.undo()
            assert sentinels and sentinels[0].ranked_cycles == 50

            # zero partition violations at scale
            specs = shipped_approach_specs()
            rng = random.Random(808)
            validations = 0
            target = 1_000_000
            per_history_cycles = 700
            while validations < target:
                pool_size = rng.randint(4, 8)
                history = random_history(
                    rng,
                    n_cycles=per_history_cycles,
                    pool_size=pool_size,
                    min_suite=2,
                )
                sources = example_sources(f"t{i:02d}" for i in range(pool_size))
                for name, spec in specs.items():
                    approach = build(
                        spec, sources=sources, master_seed=rng.getrandbits(32)
                    )
                    for record in history.cycles:
                        suite = list(record.suite)
                        ranking = approach.rank(suite)
                        validate_ranking(suite, ranking)
                        approach.observe(record.executions)
                        validations += 1
            assert validations >= target

    @pytest.mark.skip(
        reason="optional criterion: needs the external CI-history dataset "
        "(multi-GB download) and hours of replay time; the desk-scale "
        "criteria 1-8 above are the binding acceptance gate"
    )
    def test_criterion_9_full_dataset_reproduction(self):
        """Full-scale reproduction of the published per-project averages."""
