"""Core model: ranking validation, flattening, and data invariants."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from synth import build_all, random_history, replay
from tcp_lab.model import (
    DUPLICATE_CASE,
    FOREIGN_CASE,
    MISSING_CASE,
    CycleRecord,
    FlattenPolicy,
    ProjectHistory,
    RankedSuite,
    RankingError,
    TestExecution,
    Verdict,
    flatten,
    ranked_from_scores,
    validate_ranking,
)


class TestValidateRanking:
    def test_exact_partition_ok(self):
        validate_ranking({"a", "b"}, RankedSuite((("a",), ("b",))))

    def test_duplicate_case(self):
        with pytest.raises(RankingError) as err:
            validate_ranking({"a", "b"}, RankedSuite((("a",), ("a", "b"))))
        assert err.value.code == DUPLICATE_CASE
        assert err.value.case == "a"

    def test_missing_case(self):
        with pytest.raises(RankingError) as err:
            validate_ranking({"a", "b"}, RankedSuite((("a",),)))
        assert err.value.code == MISSING_CASE
        assert err.value.case == "b"

    def test_foreign_case(self):
        with pytest.raises(RankingError) as err:
            validate_ranking({"a", "b"}, RankedSuite((("a",), ("b", "z"))))
        assert err.value.code == FOREIGN_CASE
        assert err.value.case == "z"

    def test_suite_holding_a_case_twice(self):
        with pytest.raises(RankingError) as err:
            validate_ranking(["a", "b", "a"], RankedSuite((("a",), ("b",))))
        assert (err.value.code, err.value.case) == (DUPLICATE_CASE, "a")
        with pytest.raises(RankingError, match="^DUPLICATE_CASE: 'a'$"):
            validate_ranking(["a", "a"], RankedSuite((("a",),)))

    def test_empty_group_rejected_at_construction(self):
        with pytest.raises(ValueError):
            RankedSuite((("a",), ()))


class TestFlatten:
    def test_stable_singletons_identity(self):
        ranking = RankedSuite((("a",), ("b",), ("c",)))
        assert flatten(ranking, FlattenPolicy.STABLE) == ["a", "b", "c"]

    def test_stable_keeps_original_order_within_group(self):
        # group built from a cycle ordered a before b
        ranking = ranked_from_scores(["a", "b"], lambda case: 0)
        assert ranking.groups == (("a", "b"),)
        assert flatten(ranking, FlattenPolicy.STABLE) == ["a", "b"]

    def test_random_deterministic_per_seed(self):
        ranking = RankedSuite((("a", "b", "c"),))
        first = flatten(ranking, FlattenPolicy.RANDOM, seed=1234)
        second = flatten(ranking, FlattenPolicy.RANDOM, seed=1234)
        assert first == second
        assert sorted(first) == ["a", "b", "c"]

    def test_random_respects_group_order(self):
        ranking = RankedSuite((("a", "b"), ("c", "d")))
        order = flatten(ranking, FlattenPolicy.RANDOM, seed=9)
        assert set(order[:2]) == {"a", "b"}
        assert set(order[2:]) == {"c", "d"}

    @given(st.integers(min_value=0, max_value=2**32), st.integers(2, 8))
    def test_random_equal_seeds_equal_outputs(self, seed, size):
        ranking = RankedSuite(((tuple(f"t{i}" for i in range(size)),)))
        assert flatten(ranking, FlattenPolicy.RANDOM, seed=seed) == flatten(
            ranking, FlattenPolicy.RANDOM, seed=seed
        )


class TestDataInvariants:
    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            TestExecution("a", -1.0, Verdict.PASS)

    def test_empty_case_id_rejected(self):
        with pytest.raises(ValueError):
            TestExecution("", 1.0, Verdict.PASS)

    def test_duplicate_case_in_cycle_rejected(self):
        with pytest.raises(RankingError, match="^DUPLICATE_CASE: 'a'$"):
            CycleRecord(
                0,
                "j",
                "c",
                None,
                (
                    TestExecution("a", 1.0, Verdict.PASS),
                    TestExecution("a", 2.0, Verdict.FAIL),
                ),
            )

    def test_empty_cycle_rejected(self):
        with pytest.raises(ValueError):
            CycleRecord(0, "j", "c", None, ())

    def test_non_increasing_indices_rejected(self):
        one = CycleRecord(1, "j", "c", None, (TestExecution("a", 1.0, Verdict.PASS),))
        with pytest.raises(ValueError):
            ProjectHistory("p", (one, one))

    def test_failed_cycle_definition(self):
        passing = CycleRecord(
            0, "j", "c", None, (TestExecution("a", 1.0, Verdict.PASS),)
        )
        failing = CycleRecord(
            1, "j", "c", None, (TestExecution("a", 1.0, Verdict.FAIL),)
        )
        history = ProjectHistory("p", (passing, failing))
        assert not passing.failed
        assert failing.failed
        assert history.failed_cycles == (failing,)

    def test_suite_and_failed_are_computed_once(self):
        executions = (
            TestExecution("a", 1.0, Verdict.PASS),
            TestExecution("b", 2.0, Verdict.FAIL),
        )
        record = CycleRecord(0, "j", "c", None, executions)
        suite = record.suite
        assert suite == ("a", "b") and record.failed is True
        assert record.suite is suite
        # the cached values take no part in equality, hashing or repr
        fresh = CycleRecord(0, "j", "c", None, executions)
        assert record == fresh and hash(record) == hash(fresh)
        assert repr(record) == repr(fresh)


class TestRankedFromScores:
    def test_groups_equal_scores_preserving_order(self):
        scores = {"a": 2, "b": 1, "c": 2}
        ranking = ranked_from_scores(["a", "b", "c"], scores.__getitem__)
        assert ranking.groups == (("b",), ("a", "c"))

    def test_descending(self):
        scores = {"a": 2, "b": 1, "c": 2}
        ranking = ranked_from_scores(["a", "b", "c"], scores.__getitem__, descending=True)
        assert ranking.groups == (("a", "c"), ("b",))


class TestApproachContract:
    """Replay-level properties every shipped approach must satisfy."""

    def test_all_rankings_valid_on_synthetic_histories(self):
        rng = random.Random(42)
        for _ in range(5):
            history = random_history(rng)
            for name, approach in build_all(history).items():
                replay(approach, history, validate=True)

    def test_rank_repeatable_under_fixed_observe_history(self):
        rng = random.Random(7)
        history = random_history(rng, n_cycles=6)
        for name, approach in build_all(history).items():
            for record in history.cycles:
                suite = list(record.suite)
                assert approach.rank(suite) == approach.rank(suite), name
                approach.observe(record.executions)

    def test_equal_seeds_replay_identically(self):
        rng = random.Random(11)
        history = random_history(rng, n_cycles=6)
        first = {
            name: replay(approach, history, validate=False)
            for name, approach in build_all(history, master_seed=5).items()
        }
        second = {
            name: replay(approach, history, validate=False)
            for name, approach in build_all(history, master_seed=5).items()
        }
        assert first == second
