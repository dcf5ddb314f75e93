"""Mixers, interpolators, tiebreakers, spec trees, and presets."""

from __future__ import annotations

import json
import random

import pytest

from oracles import build_oracle, spec_is_randomized_oracle, widest_path_oracle
from synth import cycle, example_sources, random_history, replay, shipped_approach_specs
from tcp_lab import approaches
from tcp_lab.approaches import (
    BaseOrder,
    CodeDistOrder,
    DistanceMetric,
    ExeTimeOrder,
    FailDensityOrder,
    FoldFailsOrder,
    SourceVectors,
)
from tcp_lab.combinators import (
    PRESETS,
    BordaMixedOrder,
    CountMode,
    GenericBrokenOrder,
    InterpolatedOrder,
    InvalidSpecError,
    RandomMixedOrder,
    SchulzeMixedOrder,
    borda_mix,
    break_ties,
    break_ties_codedist,
    build,
    pairwise_preferences,
    random_mix,
    schulze_mix,
    spec_is_randomized,
    strongest_paths,
)
from tcp_lab.model import (
    Approach,
    FlattenPolicy,
    RankedSuite,
    RankingError,
    flatten,
    validate_ranking,
)


def singletons(*cases):
    return RankedSuite(tuple((c,) for c in cases))


def order_of(ranking):
    return flatten(ranking, FlattenPolicy.STABLE)


class TestRandomMix:
    def test_degenerate_weights_reproduce_first_queue(self):
        for seed in range(20):
            out = random_mix([["a", "b", "c"], ["c", "b", "a"]], [1, 0], seed=seed)
            assert order_of(out) == ["a", "b", "c"]

    def test_identical_queues_agree(self):
        out = random_mix([["b", "a", "c"], ["b", "a", "c"]], [2, 5], seed=3)
        assert order_of(out) == ["b", "a", "c"]

    def test_weighted_first_pick_frequency(self):
        # queues disagree on the first element, weights 3:1
        hits = 0
        trials = 10000
        for seed in range(trials):
            out = random_mix([["a", "b", "c"], ["b", "a", "c"]], [3, 1], seed=seed)
            if order_of(out)[0] == "a":
                hits += 1
        assert abs(hits / trials - 0.75) <= 0.02

    def test_queue_mismatch(self):
        with pytest.raises(RankingError, match="^FOREIGN_CASE: 'c'$"):
            random_mix([["a", "b"], ["a", "c"]], [1, 1], seed=0)

    def test_output_is_permutation(self):
        out = random_mix([["a", "b", "c", "d"], ["d", "c", "b", "a"]], [1, 1], seed=11)
        assert sorted(order_of(out)) == ["a", "b", "c", "d"]


class TestBordaMix:
    def test_equal_weights_hand_count(self):
        out = borda_mix([singletons("a", "b", "c"), singletons("b", "a", "c")], [1, 1])
        assert out.groups == (("a", "b"), ("c",))

    def test_unequal_weights_hand_count(self):
        out = borda_mix([singletons("a", "b", "c"), singletons("b", "a", "c")], [2, 1])
        assert order_of(out) == ["a", "b", "c"]

    def test_tied_positions_average_points(self):
        tied = RankedSuite((("a", "b"), ("c",)))
        out = borda_mix([tied], [1])
        assert out.groups == (("a", "b"), ("c",))

    def test_invariant_under_uniform_weight_scaling(self):
        rankings = [singletons("a", "b", "c"), RankedSuite((("c", "b"), ("a",)))]
        base = borda_mix(rankings, [1, 2])
        scaled = borda_mix(rankings, [0.5, 1.0])
        assert base == scaled

    def test_copies_of_one_ranking_reproduce_it(self):
        ranking = RankedSuite((("b", "c"), ("a",), ("d",)))
        out = borda_mix([ranking] * 3, [1, 1, 1], suite=["a", "b", "c", "d"])
        assert [set(g) for g in out.groups] == [set(g) for g in ranking.groups]

    def test_queue_mismatch(self):
        with pytest.raises(RankingError, match="^FOREIGN_CASE: 'z'$"):
            borda_mix([singletons("a", "b"), singletons("a", "z")], [1, 1])


class TestSchulzeMix:
    def test_unanimous_rankings(self):
        out = schulze_mix([singletons("a", "b", "c")] * 3, [1, 1, 1])
        assert order_of(out) == ["a", "b", "c"]

    def test_majority_winner_rule(self):
        rng = random.Random(5)
        cases = ["a", "b", "c", "d"]
        for _ in range(50):
            # two rankings put "c" first and hold >50% of the weight
            rest = [x for x in cases if x != "c"]
            rankings = []
            for _ in range(2):
                rng.shuffle(rest)
                rankings.append(singletons("c", *rest))
            rng.shuffle(rest)
            rankings.append(singletons(*rest, "c"))
            out = schulze_mix(rankings, [2, 2, 3.5])
            assert order_of(out)[0] == "c"

    def test_beats_relation_matches_path_enumeration_oracle(self):
        rng = random.Random(99)
        for _ in range(60):
            n = rng.randint(2, 5)
            suite = [f"t{i}" for i in range(n)]
            rankings = []
            for _ in range(3):
                perm = suite[:]
                rng.shuffle(perm)
                rankings.append(singletons(*perm))
            weights = [rng.choice([0.5, 1, 2]) for _ in range(3)]
            d = pairwise_preferences(rankings, weights, suite)
            p = strongest_paths(d)
            for x in range(n):
                for y in range(n):
                    if x == y:
                        continue
                    assert p[x][y] == pytest.approx(
                        widest_path_oracle(d, x, y), abs=1e-12
                    )

    def test_suite_over_the_old_cap_is_ranked(self):
        # 1001 cases were once a SuiteTooLargeError; one child comes back as it is
        suite = [f"t{i}" for i in range(1001)]
        ranking = RankedSuite(tuple(tuple(suite[i : i + 3]) for i in range(0, 1001, 3)))
        assert schulze_mix([ranking], [1], suite=suite) == ranking

    def test_single_ranking_with_ties_preserved(self):
        ranking = RankedSuite((("a", "b"), ("c",)))
        out = schulze_mix([ranking], [1])
        assert [set(g) for g in out.groups] == [{"a", "b"}, {"c"}]


class ReversedOrder(BaseOrder):
    def rank(self, suite):
        return super().rank(suite[::-1])


class TestInterpolateWeights:
    """Weights (1 - f, f) for f = min(progress / cutoff, 1), seen in rankings."""

    def groups_after(self, cutoff, cycles):
        inter = InterpolatedOrder(
            BaseOrder(), ReversedOrder(), cutoff, count_mode=CountMode.ALL_CYCLES
        )
        for _ in range(cycles):
            inter.observe([])
        assert inter.progress == cycles
        return inter.rank(["a", "b", "c"]).groups

    def test_progress_zero_is_before_only(self):
        assert self.groups_after(5, 0) == (("a",), ("b",), ("c",))

    def test_halfway(self):
        # weights (0.5, 0.5): every case scores 0.5 * 2 points, one tie group
        assert self.groups_after(2, 1) == (("a", "b", "c"),)

    def test_at_or_past_cutoff_is_after_only(self):
        assert self.groups_after(2, 2) == (("c",), ("b",), ("a",))
        assert self.groups_after(2, 9) == (("c",), ("b",), ("a",))

    def test_cutoff_validation(self):
        with pytest.raises(ValueError):
            InterpolatedOrder(BaseOrder(), BaseOrder(), cutoff=0)


def failing_history(n=8, cases=("a", "b", "c", "d")):
    cases = list(cases)
    cycles = []
    for i in range(n):
        failures = [cases[i % len(cases)]]
        durations = {c: 1.0 + (j + i) % 5 for j, c in enumerate(cases)}
        cycles.append(cycle(i, cases, failures, durations))
    return cycles


class TestInterpolatedOrder:
    def test_first_cycle_equals_before_child(self):
        before, after = ExeTimeOrder(), FailDensityOrder()
        inter = InterpolatedOrder(before, after, cutoff=3)
        solo = ExeTimeOrder()
        history = failing_history()
        for record in history[:1]:
            suite = list(record.suite)
            assert inter.rank(suite) == solo.rank(suite)

    def test_after_cutoff_equals_after_child(self):
        history = failing_history(8)
        inter = InterpolatedOrder(ExeTimeOrder(), FailDensityOrder(), cutoff=2)
        solo_after = FailDensityOrder()
        for i, record in enumerate(history):
            suite = list(record.suite)
            got = inter.rank(suite)
            expected = solo_after.rank(suite)
            if inter.progress >= 2:
                assert got == expected, f"cycle {i}"
            inter.observe(record.executions)
            solo_after.observe(record.executions)

    def test_after_child_trains_during_before_phase(self):
        history = failing_history(6)
        inter = InterpolatedOrder(ExeTimeOrder(), FailDensityOrder(), cutoff=100)
        solo = FailDensityOrder()
        for record in history:
            inter.observe(record.executions)
            solo.observe(record.executions)
        # the embedded after-child carries exactly the solo-run state
        assert inter.after._fails._values == solo._fails._values
        assert inter.after._times._values == solo._times._values

    def test_before_equals_after_collapses_to_single(self):
        history = failing_history(7)
        inter = InterpolatedOrder(
            FoldFailsOrder(), FoldFailsOrder(), cutoff=3, count_mode=CountMode.ALL_CYCLES
        )
        solo = FoldFailsOrder()
        for record in history:
            suite = list(record.suite)
            assert order_of(inter.rank(suite)) == order_of(solo.rank(suite))
            inter.observe(record.executions)
            solo.observe(record.executions)

    def test_failed_cycles_mode_counts_only_failures(self):
        inter = InterpolatedOrder(ExeTimeOrder(), FailDensityOrder(), cutoff=5)
        inter.observe(cycle(0, ["a", "b"]).executions)  # passing
        assert inter.progress == 0
        inter.observe(cycle(1, ["a", "b"], failures=["a"]).executions)
        assert inter.progress == 1

    def test_all_cycles_mode_counts_everything(self):
        inter = InterpolatedOrder(
            ExeTimeOrder(), FailDensityOrder(), cutoff=5, count_mode=CountMode.ALL_CYCLES
        )
        inter.observe(cycle(0, ["a", "b"]).executions)
        assert inter.progress == 1


class TestBreakTies:
    def test_secondary_orders_within_groups(self):
        primary = RankedSuite((("a", "b"), ("c",)))
        secondary = singletons("b", "a", "c")
        assert break_ties(primary, secondary).groups == (("b",), ("a",), ("c",))

    def test_singleton_primary_unchanged(self):
        primary = singletons("a", "b", "c")
        secondary = singletons("c", "b", "a")
        assert break_ties(primary, secondary) == primary

    def test_single_group_delegates_entirely(self):
        primary = RankedSuite((("a", "b", "c"),))
        secondary = singletons("c", "a", "b")
        assert break_ties(primary, secondary) == secondary

    def test_residual_secondary_ties_persist(self):
        primary = RankedSuite((("a", "b", "c"), ("d",)))
        secondary = RankedSuite((("c",), ("a", "b"), ("d",)))
        out = break_ties(primary, secondary)
        assert out.groups == (("c",), ("a", "b"), ("d",))

    def test_break_ties_with_itself_is_order_equivalent(self):
        primary = RankedSuite((("a", "b"), ("c",)))
        out = break_ties(primary, primary)
        assert [set(g) for g in out.groups] == [{"a", "b"}, {"c"}]

    def test_queue_mismatch(self):
        with pytest.raises(RankingError, match="^FOREIGN_CASE: 'b'$"):
            break_ties(singletons("a"), singletons("b"))

    def test_duplicate_cases_rejected(self):
        # the same sets of cases, but one ranking holds a case twice
        with pytest.raises(RankingError, match="^DUPLICATE_CASE: 'b'$"):
            break_ties(singletons("a", "b"), singletons("a", "b", "b"))
        with pytest.raises(RankingError, match="^DUPLICATE_CASE: 'a'$"):
            break_ties(singletons("a", "a", "b"), singletons("a", "b"))


class TestBreakTiesCodeDist:
    line = {"a": "", "b": "x", "c": " ".join(["x"] * 10)}

    def test_identical_vectors_flatten_in_original_order(self):
        vectors = SourceVectors({"a": "s", "b": "s", "c": "s"})
        primary = RankedSuite((("b", "c"), ("a",)))
        out = break_ties_codedist(primary, vectors, DistanceMetric.EUCLIDEAN)
        assert order_of(out) == ["b", "c", "a"]

    def test_single_group_matches_code_dist_chain(self):
        vectors = SourceVectors(self.line)
        primary = RankedSuite((("a", "b", "c"),))
        out = break_ties_codedist(primary, vectors, DistanceMetric.EUCLIDEAN)
        chain = CodeDistOrder(DistanceMetric.EUCLIDEAN, sources=self.line).rank(
            ["a", "b", "c"]
        )
        assert order_of(out) == order_of(chain)

    def test_group_boundary_is_inviolable(self):
        vectors = SourceVectors(self.line)
        primary = RankedSuite((("a", "b"), ("c",)))
        out = break_ties_codedist(primary, vectors, DistanceMetric.EUCLIDEAN)
        assert order_of(out)[2] == "c"

    def test_later_group_spreads_against_global_picks(self):
        # d placed exactly at b's vector: once b is picked, d is the worst
        # second-group choice even though within its group it looks fine
        sources = {"a": "", "b": "x x", "c": " ".join(["x"] * 8), "d": "x x"}
        vectors = SourceVectors(sources)
        primary = RankedSuite((("a", "b"), ("c", "d")))
        out = break_ties_codedist(primary, vectors, DistanceMetric.EUCLIDEAN)
        assert order_of(out) == ["a", "b", "c", "d"]


@pytest.mark.parametrize(
    "spec",
    [{"type": "code_dist"}, {"type": "code_dist", "metric": "cosine"}, "P3.2"],
    ids=["code_dist", "code_dist_cosine", "P3.2"],
)
def test_build_tokenizes_so_that_rank_does_not(monkeypatch, spec):
    """All tokenizing happens in ``build``, outside the timed ``rank``."""
    calls = []
    tokenize = approaches.tokenize
    monkeypatch.setattr(
        approaches, "tokenize", lambda text: calls.append(text) or tokenize(text)
    )
    sources = {"a": "int alpha;", "b": "int beta; int alpha;", "c": "fooBar()"}
    approach = build(spec, sources=sources)
    assert sorted(calls) == sorted(sources.values())
    del calls[:]
    history = random_history(random.Random(3), n_cycles=4)
    for record in history.cycles:
        approach.rank(list(record.suite) + ["a", "b", "c", "d"])
        approach.observe(record.executions)
    assert calls == []


class TestBuildAndSpecs:
    def test_leaf_passthrough(self):
        approach = build({"type": "base_order"})
        assert order_of(approach.rank(["b", "a"])) == ["b", "a"]

    def test_zero_weight_child_excluded(self):
        spec = {
            "type": "borda_mix",
            "children": [
                {"weight": 0, "spec": {"type": "base_order"}},
                {"weight": 1, "spec": {"type": "fold_fails", "folder": "sum"}},
            ],
        }
        history = random_history(random.Random(1), n_cycles=6)
        mixer = build(spec)
        solo = build({"type": "fold_fails", "folder": "sum"})
        for record in history.cycles:
            suite = list(record.suite)
            assert [set(g) for g in mixer.rank(suite).groups] == [
                set(g) for g in solo.rank(suite).groups
            ]
            mixer.observe(record.executions)
            solo.observe(record.executions)

    def test_nested_combinators_build(self):
        spec = {
            "type": "interpolated",
            "before": {
                "type": "borda_mix",
                "children": [
                    {"weight": 1, "spec": {"type": "exe_time"}},
                    {"weight": 1, "spec": {"type": "recentness"}},
                ],
            },
            "after": {"type": "fail_density"},
            "cutoff": 5,
        }
        approach = build(spec)
        ranking = approach.rank(["a", "b", "c"])
        assert sorted(c for g in ranking.groups for c in g) == ["a", "b", "c"]

    def test_observe_propagates_to_children(self):
        spec = {
            "type": "borda_mix",
            "children": [{"weight": 1, "spec": {"type": "fold_fails", "folder": "sum"}}],
        }
        mixer = build(spec)
        suite = ["a", "b"]
        cold = mixer.rank(suite)
        mixer.observe(cycle(0, suite, failures=["b"]).executions)
        warmed = mixer.rank(suite)
        assert order_of(warmed) == ["b", "a"]
        assert warmed != cold

    @pytest.mark.parametrize(
        "bad",
        [
            {"type": "no_such_thing"},
            {"type": "fold_fails", "folder": "median"},
            {"type": "borda_mix", "children": []},
            {"type": "borda_mix", "children": [{"weight": 1}]},
            {"type": "borda_mix", "children": [{"weight": -1, "spec": {"type": "base_order"}}]},
            {"type": "interpolated", "before": {"type": "base_order"}, "after": {"type": "base_order"}},
            {"type": "interpolated", "before": {"type": "base_order"}, "after": {"type": "base_order"}, "cutoff": 0},
            {"type": "break_ties", "primary": {"type": "base_order"}},
            {"type": "exe_time", "alpha": "high"},
            {"type": "base_order", "children": []},
            42,
        ],
    )
    def test_invalid_specs_rejected(self, bad):
        with pytest.raises(InvalidSpecError):
            build(bad)

    def test_unknown_preset_rejected(self):
        with pytest.raises(InvalidSpecError):
            build("P9.9")

    def test_accepts_order_suffixed_names(self):
        assert build({"type": "recentness_order"}).rank(["a"]).groups == (("a",),)

    def test_spec_is_randomized(self):
        assert spec_is_randomized({"type": "random_order"})
        assert spec_is_randomized("P1.1")
        assert not spec_is_randomized("P1.2")
        assert not spec_is_randomized({"type": "break_ties", "primary": {"type": "base_order"}, "secondary": {"type": "exe_time"}})
        assert spec_is_randomized(
            {
                "type": "interpolated",
                "before": {"type": "random_order"},
                "after": {"type": "base_order"},
                "cutoff": 2,
            }
        )

    def test_explicit_seed_reproduces(self):
        spec = {"type": "random_order", "seed": 1234}
        history = random_history(random.Random(2), n_cycles=5)
        runs = [replay(build(spec, master_seed=m), history) for m in (0, 999)]
        assert runs[0] == runs[1]  # explicit seed wins over master seed


BASE = {"type": "base_order"}
ONE_CHILD = [{"weight": 1, "spec": BASE}]

# The bad specs above and in tests/test_cli.py, then one spec for each other
# message, each with the exact message it fails with; the earlier if-chain
# builder gives the same messages.
PINNED_MESSAGES = [
    ({"type": "no_such_thing"}, "unknown approach type 'no_such_thing'"),
    ({"type": "fold_fails", "folder": "median"}, "unknown folder 'median'"),
    ({"type": "borda_mix", "children": []}, "a mixer needs a non-empty 'children' list"),
    (
        {"type": "borda_mix", "children": [{"weight": 1}]},
        "each mixer child must be an object with 'weight' and 'spec'",
    ),
    (
        {"type": "borda_mix", "children": [{"weight": -1, "spec": BASE}]},
        "child weight must be >= 0, got -1",
    ),
    ({"type": "interpolated", "before": BASE, "after": BASE}, "interpolated spec needs 'cutoff'"),
    (
        {"type": "interpolated", "before": BASE, "after": BASE, "cutoff": 0},
        "cutoff must be a positive integer, got 0",
    ),
    ({"type": "break_ties", "primary": BASE}, "break_ties spec needs 'secondary'"),
    ({"type": "exe_time", "alpha": "high"}, "alpha must be a number, got 'high'"),
    ({"type": "base_order", "children": []}, "unexpected keys ['children'] for type 'base'"),
    (42, "spec node must be an object, got 42"),
    ("P9.9", "unknown preset 'P9.9'"),
    ({"type": "no_such"}, "unknown approach type 'no_such'"),
    ({"type": 7}, "spec node needs a string 'type', got 7"),
    ({"type": "borda_mix_order", "children": ONE_CHILD}, "unknown approach type 'borda_mix_order'"),
    ({"type": "code_dist", "metric": "chebyshev"}, "unknown metric 'chebyshev'"),
    ({"type": "code_dist", "start": "middle"}, "unknown start policy 'middle'"),
    ({"type": "fail_density", "alpha_fail": None}, "alpha_fail must be a number, got None"),
    ({"type": "random_order", "seed": "abc"}, "seed must be an integer, got 'abc'"),
    (
        {"type": "schulze_mix", "children": ONE_CHILD, "max_suite": 0},
        "unexpected keys ['max_suite'] for type 'schulze_mix'",
    ),
    (
        {"type": "borda_mix", "children": [{"weight": 0, "spec": BASE}]},
        "a mixer needs at least one child with weight > 0",
    ),
    (
        {"type": "interpolated", "before": BASE, "after": BASE, "cutoff": 2, "count_mode": "x"},
        "unknown count_mode 'x'",
    ),
    ({"type": "interpolated", "after": BASE, "cutoff": 2}, "interpolated spec needs 'before'"),
    (
        {"type": "break_ties_codedist", "metric": "cosine"},
        "break_ties_codedist spec needs 'primary'",
    ),
]

# Specs the earlier builder accepted, or let fail with AlphaRangeError.
NEW_REJECTIONS = [
    ({"type": "exe_time", "alpha": 0}, "ALPHA_OUT_OF_RANGE: alpha must be in (0, 1], got 0.0"),
    (
        {"type": "fold_fails", "folder": "sum", "alpha": 1.5},
        "ALPHA_OUT_OF_RANGE: alpha must be in (0, 1], got 1.5",
    ),
    (
        {"type": "fail_density", "alpha_time": -0.5},
        "ALPHA_OUT_OF_RANGE: alpha must be in (0, 1], got -0.5",
    ),
    (
        json.loads(
            '{"type": "borda_mix", "children": '
            '[{"weight": NaN, "spec": "P1.2"}, {"weight": 1, "spec": "P2"}]}'
        ),
        "child weight must be finite, got nan",
    ),
    (
        json.loads('{"type": "random_mix", "children": [{"weight": Infinity, "spec": "P3.1"}]}'),
        "child weight must be finite, got inf",
    ),
    ({"type": "random_order", "seed": True}, "seed must be an integer, got True"),
    (
        {"type": "random_mix", "children": ONE_CHILD, "seed": False},
        "seed must be an integer, got False",
    ),
    (
        {"type": "interpolated", "before": BASE, "after": BASE, "cutoff": True},
        "cutoff must be a positive integer, got True",
    ),
    (
        {"type": "schulze_mix", "children": ONE_CHILD, "max_suite": True},
        "unexpected keys ['max_suite'] for type 'schulze_mix'",
    ),
    (
        {"type": "fail_density", "alpha_fail": 2**1024},
        "alpha_fail must fit in a float, got a 1025-bit integer",
    ),
    (
        {"type": "random_mix", "children": [{"weight": 2**1024, "spec": BASE}]},
        "child weight must fit in a float, got a 1025-bit integer",
    ),
]


class TestSpecMessages:
    @pytest.mark.parametrize("bad, message", PINNED_MESSAGES)
    def test_pinned_message(self, bad, message):
        for builder in (build, build_oracle):
            with pytest.raises(InvalidSpecError) as error:
                builder(bad)
            assert str(error.value) == message

    @pytest.mark.parametrize("bad, message", NEW_REJECTIONS)
    def test_rejected_with_message(self, bad, message):
        with pytest.raises(InvalidSpecError) as error:
            build(bad)
        assert str(error.value) == message

    def test_spec_is_randomized_rejects_what_build_rejects(self):
        spec = {"type": "base", "primary": {"type": "random"}}
        assert spec_is_randomized_oracle(spec)  # the separate walk said yes
        with pytest.raises(InvalidSpecError) as error:
            spec_is_randomized(spec)
        assert str(error.value) == "unexpected keys ['primary'] for type 'base'"


class TestPresets:
    def test_exactly_six_with_expected_structure(self):
        table = PRESETS
        assert sorted(table) == ["P1.1", "P1.2", "P1.3", "P2", "P3.1", "P3.2"]
        for name, mix in (("P1.1", "random_mix"), ("P1.2", "borda_mix"), ("P1.3", "schulze_mix")):
            node = table[name]
            assert node["type"] == mix
            weights = [child["weight"] for child in node["children"]]
            kinds = [child["spec"]["type"] for child in node["children"]]
            assert weights == [1, 1, 0.5]
            assert kinds == ["fold_fails", "recentness", "exe_time"]
        p2 = table["P2"]
        assert p2["type"] == "interpolated"
        assert p2["cutoff"] == 5
        assert p2["count_mode"] == "failed_cycles"
        assert p2["before"]["type"] == "borda_mix"
        assert {c["spec"]["type"] for c in p2["before"]["children"]} == {"exe_time", "recentness"}
        assert all(c["weight"] == 1 for c in p2["before"]["children"])
        assert p2["after"]["type"] == "fail_density"
        for name in ("P3.1", "P3.2"):
            assert table[name]["primary"] == {"type": "fold_fails", "folder": "sum"}
        assert table["P3.1"]["type"] == "break_ties"
        assert table["P3.1"]["secondary"]["type"] == "exe_time"
        assert table["P3.2"]["type"] == "break_ties_codedist"

    def test_p12_cold_start_valid(self):
        ranking = build("P1.2").rank(["a", "b", "c"])
        assert sorted(c for g in ranking.groups for c in g) == ["a", "b", "c"]

    def test_p2_first_cycle_equals_before_mixer(self):
        p2 = build("P2")
        before_only = build(PRESETS["P2"]["before"])
        suite = ["a", "b", "c", "d"]
        assert p2.rank(suite) == before_only.rank(suite)


class TestMixerClasses:
    def test_random_mixer_deterministic_per_seed(self):
        history = random_history(random.Random(4), n_cycles=5)
        children = lambda: [(FoldFailsOrder(), 1.0), (ExeTimeOrder(), 0.5)]
        first = replay(RandomMixedOrder(children(), seed=21), history)
        second = replay(RandomMixedOrder(children(), seed=21), history)
        assert first == second

    def test_schulze_mixer_on_history(self):
        history = random_history(random.Random(6), n_cycles=5, pool_size=6)
        mixer = SchulzeMixedOrder([(FoldFailsOrder(), 1.0), (ExeTimeOrder(), 1.0)])
        replay(mixer, history)

    def test_generic_broken_order_on_history(self):
        history = random_history(random.Random(8), n_cycles=5)
        replay(GenericBrokenOrder(FoldFailsOrder(), ExeTimeOrder()), history)

    def test_borda_mixer_weight_one_child(self):
        mixer = BordaMixedOrder([(ExeTimeOrder(), 1.0)])
        solo = ExeTimeOrder()
        suite = ["a", "b", "c"]
        assert mixer.rank(suite) == solo.rank(suite)


def _approach_classes(cls=Approach):
    for subclass in cls.__subclasses__():
        yield subclass
        yield from _approach_classes(subclass)


@pytest.mark.parametrize("history_seed", range(4))
def test_every_node_returns_normalised_groups(monkeypatch, history_seed):
    # the library's builders make rankings without the public constructor's
    # normalisation; every node of every shipped spec must still return what
    # that constructor would make of its groups: a tuple of non-empty tuples
    returned = []

    def recording(rank):
        def wrapper(self, suite):
            ranking = rank(self, suite)
            returned.append((type(self).__name__, list(suite), ranking))
            return ranking

        return wrapper

    nodes = set()
    for cls in _approach_classes():
        if "rank" in vars(cls) and cls.__module__.startswith("tcp_lab."):
            monkeypatch.setattr(cls, "rank", recording(vars(cls)["rank"]))
            nodes.add(cls.__name__)
    rng = random.Random(history_seed)
    history = random_history(rng, n_cycles=15, pool_size=rng.randint(1, 9), min_suite=1)
    sources = example_sources(case for record in history.cycles for case in record.suite)
    for spec in shipped_approach_specs().values():
        replay(build(spec, sources=sources, master_seed=history_seed), history)
    assert {node for node, _, _ in returned} == nodes
    for node, suite, ranking in returned:
        groups = ranking.groups
        assert type(groups) is tuple, node
        assert all(type(group) is tuple and group for group in groups), node
        assert ranking == RankedSuite(groups), node
        validate_ranking(suite, ranking)
