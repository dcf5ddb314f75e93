"""Base prioritizers: smoothing, orderings, tokenizing, code distances."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from synth import cycle, replay
from tcp_lab.approaches import (
    AlphaRangeError,
    BaseOrder,
    CodeDistOrder,
    DistanceMetric,
    ExeTimeOrder,
    FailDensityOrder,
    Folder,
    FoldFailsOrder,
    RandomOrder,
    RecentnessOrder,
    SmoothedSeries,
    SourceVectors,
    StartPolicy,
    tokenize,
)
from tcp_lab.model import FlattenPolicy, ProjectHistory, flatten


def first_case(ranking):
    return ranking.groups[0][0]


def order_of(ranking):
    return flatten(ranking, FlattenPolicy.STABLE)


class TestExpSmoothing:
    def test_step_from_zero(self):
        series = SmoothedSeries(0.5)
        series.update("x", 1.0)
        assert series.value("x") == 0.5

    def test_step_decay(self):
        series = SmoothedSeries(0.5)
        series.update("x", 1.0)
        series.update("x", 0.0)
        assert series.value("x") == 0.25

    def test_alpha_one_replaces(self):
        series = SmoothedSeries(1.0)
        series.update("x", 123.0)
        series.update("x", 7.0)
        assert series.value("x") == 7.0

    @pytest.mark.parametrize("alpha", [0.0, -0.1, 1.5])
    def test_alpha_out_of_range(self, alpha):
        with pytest.raises(AlphaRangeError):
            SmoothedSeries(alpha)

    def test_series_initializes_at_zero(self):
        series = SmoothedSeries(0.5)
        assert series.value("x") == 0.0
        series.update("x", 1.0)
        series.update("x", 0.0)
        assert series.value("x") == 0.25


class TestBaseOrder:
    def test_identity_on_order(self):
        ranking = BaseOrder().rank(["b", "a", "c"])
        assert ranking.groups == (("b",), ("a",), ("c",))

    def test_stateless_under_observe(self):
        approach = BaseOrder()
        before = approach.rank(["b", "a"])
        approach.observe(cycle(0, ["b", "a"], failures=["a"]).executions)
        assert approach.rank(["b", "a"]) == before


class TestRandomOrder:
    def test_deterministic_per_seed(self):
        history = ProjectHistory(
            "p", tuple(cycle(i, ["a", "b", "c", "d"]) for i in range(5))
        )
        runs = [replay(RandomOrder(seed=99), history) for _ in range(2)]
        assert runs[0] == runs[1]

    def test_singleton_suite(self):
        assert first_case(RandomOrder(seed=1).rank(["only"])) == "only"

    def test_first_position_roughly_uniform(self):
        # chi-square sanity over which case is ranked first, n=5 cases
        counts = Counter()
        suite = ["a", "b", "c", "d", "e"]
        for seed in range(10000):
            counts[first_case(RandomOrder(seed=seed).rank(suite))] += 1
        expected = 10000 / 5
        chi_square = sum(
            (counts[c] - expected) ** 2 / expected for c in suite
        )
        # 99.9% quantile of chi2 with 4 degrees of freedom is 18.47
        assert chi_square < 18.47

    def test_fresh_subseed_each_cycle(self):
        approach = RandomOrder(seed=5)
        suite = ["a", "b", "c", "d", "e", "f"]
        first = approach.rank(suite)
        approach.observe(cycle(0, suite).executions)
        second = approach.rank(suite)
        assert first != second  # overwhelmingly likely across 720 permutations


class TestRecentnessOrder:
    def test_no_history_single_tie_group(self):
        ranking = RecentnessOrder().rank(["a", "b", "c"])
        assert ranking.groups == (("a", "b", "c"),)

    def test_less_seen_case_first(self):
        approach = RecentnessOrder()
        approach.observe(cycle(0, ["x"]).executions)
        approach.observe(cycle(1, ["x"]).executions)
        approach.observe(cycle(2, ["x", "y"]).executions)
        ranking = approach.rank(["x", "y"])
        assert order_of(ranking) == ["y", "x"]

    def test_new_cases_share_tie_group(self):
        approach = RecentnessOrder()
        approach.observe(cycle(0, ["old"]).executions)
        ranking = approach.rank(["old", "new1", "new2"])
        assert ranking.groups == (("new1", "new2"), ("old",))


class TestFoldFails:
    def test_sum_more_failures_first(self):
        approach = FoldFailsOrder(Folder.SUM)
        approach.observe(cycle(0, ["a", "b"], failures=["a", "b"]).executions)
        approach.observe(cycle(1, ["a", "b"], failures=["a"]).executions)
        approach.observe(cycle(2, ["a", "b"]).executions)
        assert order_of(approach.rank(["b", "a"])) == ["a", "b"]

    def test_exp_smooth_recency_dominates(self):
        approach = FoldFailsOrder(Folder.EXP_SMOOTH, alpha=0.5)
        # a fails then passes; b passes then fails
        approach.observe(cycle(0, ["a", "b"], failures=["a"]).executions)
        approach.observe(cycle(1, ["a", "b"], failures=["b"]).executions)
        assert approach.score("a") == 0.25
        assert approach.score("b") == 0.5
        assert order_of(approach.rank(["a", "b"])) == ["b", "a"]

    def test_no_history_one_tie_group(self):
        ranking = FoldFailsOrder(Folder.SUM).rank(["a", "b", "c"])
        assert ranking.groups == (("a", "b", "c"),)

    def test_alpha_one_equals_failed_last_cycle_first(self):
        rng = random.Random(17)
        approach = FoldFailsOrder(Folder.EXP_SMOOTH, alpha=1.0)
        cases = ["a", "b", "c", "d"]
        last_failed: dict[str, float] = {}
        for index in range(20):
            failures = {c for c in cases if rng.random() < 0.4}
            ranking = approach.rank(cases)
            expected = sorted(
                range(len(cases)),
                key=lambda i: (-last_failed.get(cases[i], 0.0), i),
            )
            assert order_of(ranking) == [cases[i] for i in expected]
            approach.observe(cycle(index, cases, failures).executions)
            for c in cases:
                last_failed[c] = 1.0 if c in failures else 0.0

    def test_alpha_validated_for_smoothing(self):
        with pytest.raises(AlphaRangeError):
            FoldFailsOrder(Folder.EXP_SMOOTH, alpha=0.0)


class TestExeTime:
    def test_cheaper_case_first(self):
        approach = ExeTimeOrder(alpha=1.0)
        approach.observe(cycle(0, ["x", "y"], durations={"x": 10, "y": 2}).executions)
        assert order_of(approach.rank(["x", "y"])) == ["y", "x"]

    def test_smoothing_recurrence(self):
        approach = ExeTimeOrder(alpha=0.5)
        approach.observe(cycle(0, ["x"], durations={"x": 4}).executions)
        approach.observe(cycle(1, ["x"], durations={"x": 8}).executions)
        assert approach.score("x") == 5.0

    def test_unseen_case_leads(self):
        approach = ExeTimeOrder(alpha=0.5)
        approach.observe(cycle(0, ["x"], durations={"x": 4}).executions)
        ranking = approach.rank(["x", "fresh"])
        assert ranking.groups[0] == ("fresh",)

    def test_state_untouched_when_case_absent(self):
        approach = ExeTimeOrder(alpha=0.5)
        approach.observe(cycle(0, ["x"], durations={"x": 4}).executions)
        score = approach.score("x")
        approach.observe(cycle(1, ["other"], durations={"other": 99}).executions)
        assert approach.score("x") == score


class TestFailDensity:
    def test_cheaper_equal_failures_first(self):
        approach = FailDensityOrder(alpha_fail=1.0, alpha_time=1.0)
        approach.observe(
            cycle(0, ["a", "b"], failures=["a", "b"], durations={"a": 1, "b": 10}).executions
        )
        assert order_of(approach.rank(["b", "a"])) == ["a", "b"]

    def test_all_zero_failures_tie(self):
        approach = FailDensityOrder()
        approach.observe(cycle(0, ["a", "b"], durations={"a": 1, "b": 9}).executions)
        assert approach.rank(["a", "b"]).groups == (("a", "b"),)

    def test_hand_quotients(self):
        approach = FailDensityOrder(alpha_fail=1.0, alpha_time=1.0)
        approach.observe(
            cycle(0, ["A", "B"], failures=["A", "B"], durations={"A": 2, "B": 4}).executions
        )
        assert approach.score("A") == 0.5
        assert approach.score("B") == 0.25


class TestTokenize:
    def test_camel_case_and_counts(self):
        assert dict(tokenize("fooBar foo")) == {"foo": 2, "bar": 1}

    def test_empty_text(self):
        assert dict(tokenize("")) == {}

    def test_deterministic(self):
        text = "parseHTTPResponse2 via httpClient_parse!"
        assert tokenize(text) == tokenize(text)

    def test_splits_acronym_boundaries(self):
        assert dict(tokenize("XMLParser")) == {"xml": 1, "parser": 1}


def code_distance(text_u, text_v, metric):
    """The distance key of two cases with the given source texts."""
    vectors = SourceVectors({"u": text_u, "v": text_v})
    return vectors.distances(["u", "v"], metric)[0, 1]


class TestVectorDistance:
    @pytest.mark.parametrize("metric", list(DistanceMetric))
    def test_identical_vectors_zero(self, metric):
        assert code_distance("a", "a", metric) == 0.0

    def test_manhattan_hand_value(self):
        assert code_distance("a a a", "a b b", DistanceMetric.MANHATTAN) == 4.0

    def test_euclidean_hand_value(self):
        # the key is the squared distance: 2**2 + 2**2
        assert code_distance("a a a", "a b b", DistanceMetric.EUCLIDEAN) == 8.0

    def test_cosine_orthogonal(self):
        assert code_distance("a", "b", DistanceMetric.COSINE_DISTANCE) == 1.0

    def test_cosine_both_empty_is_zero(self):
        assert code_distance("", "", DistanceMetric.COSINE_DISTANCE) == 0.0
        # a case without a source text has the empty vector too
        keys = SourceVectors({}).distances(["u", "v"], DistanceMetric.COSINE_DISTANCE)
        assert keys[0, 1] == 0.0

    def test_cosine_one_empty_is_one(self):
        assert code_distance("", "a a", DistanceMetric.COSINE_DISTANCE) == 1.0

    def test_non_negative(self):
        text = "a a b b b"
        assert code_distance(text, text, DistanceMetric.COSINE_DISTANCE) >= 0.0


class TestCodeDistOrder:
    def line_sources(self):
        # token multiplicities 0, 1, 10 put the cases on a line
        return {"a": "", "b": "x", "c": " ".join(["x"] * 10)}

    def test_greedy_chain_on_a_line(self):
        approach = CodeDistOrder(
            DistanceMetric.EUCLIDEAN, StartPolicy.FARTHEST_PAIR, self.line_sources()
        )
        assert order_of(approach.rank(["a", "b", "c"])) == ["a", "c", "b"]

    def test_identical_vectors_keep_original_order(self):
        sources = {"a": "same", "b": "same", "c": "same"}
        approach = CodeDistOrder(DistanceMetric.EUCLIDEAN, sources=sources)
        assert order_of(approach.rank(["b", "c", "a"])) == ["b", "c", "a"]

    def test_suite_of_two_start_policy(self):
        approach = CodeDistOrder(
            DistanceMetric.EUCLIDEAN, StartPolicy.FIRST_CASE, self.line_sources()
        )
        assert order_of(approach.rank(["b", "c"])) == ["b", "c"]

    def test_missing_sources_mean_empty_vectors(self):
        approach = CodeDistOrder(DistanceMetric.COSINE_DISTANCE, sources={})
        ranking = approach.rank(["a", "b"])
        assert order_of(ranking) == ["a", "b"]

    def test_farthest_pair_starts_at_lower_position_member(self):
        sources = self.line_sources()
        approach = CodeDistOrder(DistanceMetric.EUCLIDEAN, sources=sources)
        # c (10) and a (0) form the farthest pair; c comes first in the suite
        assert order_of(approach.rank(["c", "b", "a"]))[0] == "c"


class TestScoreAntisymmetry:
    """Swapping two cases' histories swaps their ranks."""

    def build_pair_history(self, flip: bool):
        x, y = ("y", "x") if flip else ("x", "y")
        return [
            cycle(0, [x, y], failures=[x], durations={x: 9.0, y: 1.0}),
            cycle(1, [x, y], failures=[x], durations={x: 9.0, y: 1.0}),
            cycle(2, [x], durations={x: 9.0}),
        ]

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: FoldFailsOrder(Folder.SUM),
            lambda: FoldFailsOrder(Folder.EXP_SMOOTH, alpha=0.5),
            lambda: ExeTimeOrder(alpha=0.5),
            lambda: FailDensityOrder(),
            lambda: RecentnessOrder(),
        ],
    )
    def test_swapped_histories_swap_ranks(self, factory):
        orders = []
        for flip in (False, True):
            approach = factory()
            for record in self.build_pair_history(flip):
                approach.observe(record.executions)
            orders.append(order_of(approach.rank(["x", "y"])))
        assert orders[0] == list(reversed(orders[1]))
