"""Metric formulas, rectification bounds, and timing measures."""

from __future__ import annotations

import random

import pytest

from oracles import apfd_c_of, apfd_of, exhaustive_extrema
from synth import cycle
from tcp_lab.metrics import (
    CycleView,
    DegenerateBoundsError,
    NoDataError,
    NoFailingCyclesError,
    NoFaultsError,
    ZeroBaselineTimeError,
    ZeroTotalTimeError,
    atr,
    mean_median,
    ntr,
    testing_time as compute_testing_time,
)


def random_failed_cycle(rng: random.Random, max_n: int = 6, all_fail_ok: bool = False):
    n = rng.randint(2, max_n)
    top = n if all_fail_ok else n - 1
    m = rng.randint(1, max(1, top))
    cases = [f"t{i}" for i in range(n)]
    failures = rng.sample(cases, m)
    durations = {c: round(rng.uniform(0.1, 9.9), 2) for c in cases}
    return cycle(0, cases, failures, durations)


class TestApfd:
    def test_hand_value_middle_faults(self):
        # n=4, failing tests end up at ranks 2 and 3
        record = cycle(0, ["a", "b", "c", "d"], failures=["b", "c"])
        assert CycleView(record).score(["a", "b", "c", "d"]).apfd == pytest.approx(0.5)

    def test_single_test_suite(self):
        record = cycle(0, ["only"], failures=["only"])
        assert CycleView(record).score(["only"]).apfd == pytest.approx(0.5)

    def test_failing_tests_first(self):
        record = cycle(0, ["a", "b", "c", "d"], failures=["a", "b"])
        assert CycleView(record).score(["a", "b", "c", "d"]).apfd == pytest.approx(0.75)

    def test_no_faults(self):
        record = cycle(0, ["a", "b"])
        with pytest.raises(NoFaultsError):
            CycleView(record).score(["a", "b"]).apfd

    def test_requires_permutation(self):
        record = cycle(0, ["a", "b"], failures=["a"])
        with pytest.raises(ValueError):
            CycleView(record).score(["a"]).apfd


class TestApfdC:
    def test_fault_first(self):
        record = cycle(0, ["f", "p"], failures=["f"], durations={"f": 2, "p": 2})
        assert CycleView(record).score(["f", "p"]).apfd_c == pytest.approx(0.75)

    def test_fault_second(self):
        record = cycle(0, ["f", "p"], failures=["f"], durations={"f": 2, "p": 2})
        assert CycleView(record).score(["p", "f"]).apfd_c == pytest.approx(0.25)

    def test_uniform_durations_reduce_to_apfd(self):
        rng = random.Random(1)
        for _ in range(50):
            record = random_failed_cycle(rng)
            uniform = cycle(
                0,
                record.suite,
                [e.case for e in record.executions if e.failed],
                {c: 3.5 for c in record.suite},
            )
            order = list(uniform.suite)
            rng.shuffle(order)
            scored = CycleView(uniform).score(order)
            assert scored.apfd_c == pytest.approx(scored.apfd, abs=1e-12)

    def test_zero_total_time(self):
        record = cycle(0, ["a", "b"], failures=["a"], durations={"a": 0, "b": 0})
        with pytest.raises(ZeroTotalTimeError):
            CycleView(record).score(["a", "b"]).apfd_c


class TestNapfd:
    def test_full_prefix_equals_apfd(self):
        record = cycle(0, ["a", "b", "c", "d"], failures=["b", "c"])
        order = ["a", "b", "c", "d"]
        scored = CycleView(record).score(order)
        assert scored.napfd(4) == pytest.approx(scored.apfd)

    def test_partial_prefix_hand_value(self):
        # n=4, m=2, prefix 2 detects only the fault at rank 1
        record = cycle(0, ["a", "b", "c", "d"], failures=["a", "d"])
        assert CycleView(record).score(["a", "b", "c", "d"]).napfd(2) == pytest.approx(0.4375)

    def test_empty_prefix_is_zero(self):
        record = cycle(0, ["a", "b", "c"], failures=["a"])
        assert CycleView(record).score(["a", "b", "c"]).napfd(0) == 0.0


class TestApfdBounds:
    def test_hand_values_single_fault(self):
        record = cycle(0, ["a", "b", "c"], failures=["a"])
        low, high = CycleView(record).apfd_bounds
        assert low == pytest.approx(1 / 6)
        assert high == pytest.approx(5 / 6)

    def test_all_fail_degenerate(self):
        record = cycle(0, ["a", "b"], failures=["a", "b"])
        low, high = CycleView(record).apfd_bounds
        assert low == pytest.approx(high)

    def test_matches_exhaustive_enumeration(self):
        rng = random.Random(2)
        for _ in range(40):
            record = random_failed_cycle(rng, max_n=6)
            low, high = CycleView(record).apfd_bounds
            exact_low, exact_high = exhaustive_extrema(record, apfd_of)
            assert low == pytest.approx(exact_low, abs=1e-9)
            assert high == pytest.approx(exact_high, abs=1e-9)


class TestApfdCBounds:
    def test_matches_exhaustive_enumeration(self):
        rng = random.Random(3)
        for _ in range(40):
            record = random_failed_cycle(rng, max_n=6, all_fail_ok=True)
            low, high = CycleView(record).apfd_c_bounds
            exact_low, exact_high = exhaustive_extrema(record, apfd_c_of)
            assert low == pytest.approx(exact_low, abs=1e-9)
            assert high == pytest.approx(exact_high, abs=1e-9)


class TestRectified:
    def test_optimal_is_one_worst_is_zero(self):
        record = cycle(
            0, ["a", "b", "c"], failures=["b"], durations={"a": 1, "b": 4, "c": 2}
        )
        assert CycleView(record).score(["b", "a", "c"]).rapfd == pytest.approx(1.0)
        assert CycleView(record).score(["a", "c", "b"]).rapfd == pytest.approx(0.0)
        # cost-aware optimum: failing first; passing order after is irrelevant
        assert CycleView(record).score(["b", "a", "c"]).rapfd_c == pytest.approx(1.0)
        assert CycleView(record).score(["a", "c", "b"]).rapfd_c == pytest.approx(0.0)

    def test_middle_fault_is_half(self):
        record = cycle(0, ["a", "b", "c"], failures=["b"])
        assert CycleView(record).score(["a", "b", "c"]).rapfd == pytest.approx(0.5)

    def test_degenerate_all_fail(self):
        record = cycle(0, ["a", "b"], failures=["a", "b"])
        with pytest.raises(DegenerateBoundsError):
            CycleView(record).score(["a", "b"]).rapfd

    def test_degenerate_single_test(self):
        record = cycle(0, ["a"], failures=["a"])
        with pytest.raises(DegenerateBoundsError):
            CycleView(record).score(["a"]).rapfd

    def test_non_finite_duration_raises_instead_of_clamping(self):
        # an infinite duration makes apfd_c NaN, which must not clamp to 0.0
        record = cycle(
            0, ["a", "b", "c"], failures=["b"], durations={"a": 1, "b": float("inf"), "c": 2}
        )
        with pytest.raises(ValueError, match="not finite"):
            CycleView(record).score(["a", "b", "c"]).rapfd_c

    def test_values_stay_in_unit_interval(self):
        rng = random.Random(4)
        for _ in range(30):
            record = random_failed_cycle(rng)
            order = list(record.suite)
            rng.shuffle(order)
            scored = CycleView(record).score(order)
            assert 0.0 <= scored.rapfd <= 1.0
            assert 0.0 <= scored.rapfd_c <= 1.0


class TestNtr:
    def test_hand_value(self):
        assert ntr([(10, 2), (20, 5)]) == pytest.approx(23 / 30)

    def test_no_savings(self):
        assert ntr([(10, 10), (20, 20)]) == 0.0

    def test_instant_detection(self):
        assert ntr([(10, 0), (20, 0)]) == 1.0

    def test_no_failing_cycles(self):
        with pytest.raises(NoFailingCyclesError):
            ntr([])

    def test_in_unit_interval(self):
        rng = random.Random(5)
        for _ in range(100):
            pairs = []
            for _ in range(rng.randint(1, 6)):
                full = rng.uniform(0.5, 50)
                pairs.append((full, rng.uniform(0, full)))
            assert 0.0 <= ntr(pairs) <= 1.0


class TestTestingTime:
    def test_prioritization_hidden_by_build(self):
        assert compute_testing_time(3, 5, 4, 9) == pytest.approx(4.0)

    def test_overhead_plus_full_execution(self):
        assert compute_testing_time(7, 5, None, 10) == pytest.approx(12.0)

    def test_no_prioritization_baseline(self):
        assert compute_testing_time(0, 5, None, 10) == pytest.approx(10.0)

    def test_monotone_in_prioritization_time(self):
        previous = -1.0
        for pt in (0.0, 1.0, 4.9, 5.0, 5.1, 9.0):
            value = compute_testing_time(pt, 5, None, 10)
            assert value >= previous
            previous = value

    def test_independent_of_build_once_hidden(self):
        for bt in (3.0, 5.0, 100.0):
            assert compute_testing_time(3, bt, 2, 9) == pytest.approx(2.0)

    def test_first_fault_capped_by_full(self):
        with pytest.raises(ValueError):
            compute_testing_time(0, 0, 11, 10)


class TestAtr:
    def test_hand_value(self):
        assert atr([1, 3], [4, 6]) == pytest.approx(0.6)

    def test_baseline_against_itself_is_exactly_zero(self):
        tts = [5.0, 7.25, 3.5]
        assert atr(tts, list(tts)) == 0.0

    def test_slower_approach_is_negative(self):
        assert atr([12], [10]) < 0

    def test_zero_baseline(self):
        with pytest.raises(ZeroBaselineTimeError):
            atr([1], [0])

    def test_population_mismatch(self):
        with pytest.raises(ValueError):
            atr([1, 2], [1])


class TestAggregate:
    def test_mean_median(self):
        assert mean_median([0.2, 0.8]) == (pytest.approx(0.5), pytest.approx(0.5))

    def test_empty_population_is_no_data(self):
        with pytest.raises(NoDataError):
            mean_median([])
