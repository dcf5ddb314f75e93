"""Replay harness: protocol safety, determinism, and aggregation."""

from __future__ import annotations

import random
from types import SimpleNamespace
from typing import Sequence

import pytest

from synth import cycle, random_history
from test_cycle_view import FakeClock
from tcp_lab import evaluation
from tcp_lab.evaluation import (
    ConfigError,
    EvaluationConfig,
    ProjectConfig,
    derive_seed,
    evaluate_approach,
    evaluate_project,
)
from tcp_lab.dataset import write_canonical
from tcp_lab.model import (
    DUPLICATE_CASE,
    FOREIGN_CASE,
    MISSING_CASE,
    Approach,
    FlattenPolicy,
    ProjectHistory,
    RankedSuite,
    RankingError,
)


def small_config(projects=(), **overrides):
    defaults = dict(
        projects=tuple(projects),
        approaches={"base": {"type": "base_order"}},
        seed=3,
        repetitions=4,
        min_suite_size=2,
        tie_policy=FlattenPolicy.RANDOM,
    )
    defaults.update(overrides)
    return EvaluationConfig(**defaults)


class SentinelApproach(Approach):
    """Fails if the harness exposes the current cycle before ranking it.

    The only information channel an approach has is ``observe``; seeing as
    many observe calls as rank calls before ranking would mean the harness
    leaked the cycle being ranked.
    """

    def __init__(self):
        self.observed_cycles = 0
        self.ranked_cycles = 0

    def rank(self, suite: Sequence[str]) -> RankedSuite:
        assert self.observed_cycles == self.ranked_cycles, (
            "harness fed the cycle's results before ranking it"
        )
        self.ranked_cycles += 1
        return RankedSuite(tuple((case,) for case in suite))

    def observe(self, executions) -> None:
        assert self.ranked_cycles == self.observed_cycles + 1
        self.observed_cycles += 1


class TestProtocolSafety:
    def test_sentinel_sees_only_prior_cycles(self, monkeypatch):
        history = random_history(random.Random(1), n_cycles=20)
        sentinels = []

        def fake_build(spec, sources=None, master_seed=0):
            sentinel = SentinelApproach()
            sentinels.append(sentinel)
            return sentinel

        monkeypatch.setattr(evaluation, "build", fake_build)
        config = small_config(approaches={"sentinel": {"type": "base_order"}})
        outcome = evaluate_approach(history, "sentinel", {"type": "base_order"}, config)
        assert sentinels and sentinels[0].ranked_cycles == len(history.cycles)
        assert outcome.rows


class TestReplay:
    """``replay`` yields each cycle in order and observes it only on demand."""

    history = random_history(random.Random(5), n_cycles=6)

    def test_cycles_in_history_order_timed_by_the_clock(self, monkeypatch):
        monkeypatch.setattr(evaluation, "time", SimpleNamespace(perf_counter=FakeClock()))
        steps = list(evaluation.replay(SentinelApproach(), self.history))
        assert [cycle for cycle, _, _ in steps] == list(self.history.cycles)
        assert [ranking.groups for _, ranking, _ in steps] == [
            tuple((case,) for case in cycle.suite) for cycle in self.history.cycles
        ]
        assert [seconds for _, _, seconds in steps] == [0.125] * len(self.history.cycles)

    def test_cycle_observed_when_the_next_one_is_asked_for(self):
        sentinel = SentinelApproach()
        for k, _ in enumerate(evaluation.replay(sentinel, self.history)):
            assert (sentinel.ranked_cycles, sentinel.observed_cycles) == (k + 1, k)
        assert sentinel.observed_cycles == len(self.history.cycles)

    @pytest.mark.parametrize("k", [0, 3])
    def test_consumer_that_stops_after_cycle_k_leaves_k_observations(self, k):
        sentinel = SentinelApproach()
        for index, _ in enumerate(evaluation.replay(sentinel, self.history)):
            if index == k:
                break
        assert (sentinel.ranked_cycles, sentinel.observed_cycles) == (k + 1, k)


class TestDeterminism:
    def test_identical_seeds_identical_rows(self):
        history = random_history(random.Random(2), n_cycles=10)
        config = small_config(approaches={"p11": "P1.1"})
        first = evaluate_approach(history, "p11", "P1.1", config)
        second = evaluate_approach(history, "p11", "P1.1", config)
        assert first.rows == second.rows
        assert first.aggregates.keys() == second.aggregates.keys()

    def test_different_seeds_differ(self):
        history = random_history(random.Random(2), n_cycles=10)
        one = evaluate_approach(
            history, "r", {"type": "random_order"}, small_config(seed=1)
        )
        two = evaluate_approach(
            history, "r", {"type": "random_order"}, small_config(seed=2)
        )
        assert one.rows != two.rows

    def test_derive_seed_is_stable(self):
        assert derive_seed(1, "a", 0) == derive_seed(1, "a", 0)
        assert derive_seed(1, "a", 0) != derive_seed(1, "a", 1)


class TestRepetitions:
    def test_randomized_specs_get_repetitions(self):
        history = random_history(random.Random(3), n_cycles=5)
        config = small_config(repetitions=4)
        randomized = evaluate_approach(history, "r", {"type": "random_order"}, config)
        deterministic = evaluate_approach(history, "b", {"type": "base_order"}, config)
        assert randomized.repetitions == 4
        assert deterministic.repetitions == 1
        assert {row.repetition for row in randomized.rows} == {0, 1, 2, 3}


class TestAggregation:
    def passing_history(self):
        return ProjectHistory(
            "quiet", (cycle(0, ["a", "b"]), cycle(1, ["a", "b"]))
        )

    def test_no_failed_cycles_marks_apfd_family_no_data(self):
        config = small_config()
        outcome = evaluate_approach(
            self.passing_history(), "base", {"type": "base_order"}, config
        )
        assert outcome.aggregates["rapfd_c_mean"] is None
        assert "rapfd_c_mean" in outcome.no_data
        assert outcome.aggregates["ntr"] is None
        assert outcome.aggregates["atr"] is not None

    def test_degenerate_cycles_counted_and_excluded(self):
        history = ProjectHistory(
            "deg",
            (
                cycle(0, ["a", "b"], failures=["a", "b"]),  # all fail: rAPFD degenerate
                cycle(1, ["a", "b"], failures=["a"], durations={"a": 1, "b": 2}),
            ),
        )
        outcome = evaluate_approach(
            history, "base", {"type": "base_order"}, small_config()
        )
        assert outcome.exclusions["rapfd_degenerate"] == 1
        # equal durations make the all-fail cycle degenerate for rAPFD_C too
        assert outcome.exclusions["rapfd_c_degenerate"] == 1
        assert outcome.aggregates["rapfd_mean"] is not None

    def test_base_order_atr_exactly_zero_with_builds(self):
        cycles = tuple(
            cycle(
                i,
                ["a", "b", "c"],
                failures=["b"] if i % 2 else [],
                durations={"a": 2.0, "b": 1.0, "c": 4.0},
                build_time=60.0,
            )
            for i in range(6)
        )
        history = ProjectHistory("steady", cycles)
        outcome = evaluate_approach(
            history, "base", {"type": "base_order"}, small_config()
        )
        assert outcome.aggregates["atr"] == 0.0


class TestSemanticSeparation:
    """On predictably failing histories, learning approaches must win."""

    def chronic_history(self):
        # two chronic failers sit LAST in the original order, so the base
        # order is near-worst and history-based approaches must learn them
        rng = random.Random(9)
        pool = [f"t{i}" for i in range(8)]
        cycles = []
        for i in range(40):
            failures = {c for c in ("t6", "t7") if rng.random() < 0.8}
            durations = {c: rng.uniform(1, 5) for c in pool}
            cycles.append(cycle(i, pool, failures, durations, build_time=30.0))
        return ProjectHistory("chronic", tuple(cycles))

    def test_learning_approaches_dominate_random_dominates_base(self):
        history = self.chronic_history()
        config = small_config(repetitions=5)
        scores = {}
        atrs = {}
        for name, spec in [
            ("base", {"type": "base_order"}),
            ("random", {"type": "random_order"}),
            ("fold_sum", {"type": "fold_fails", "folder": "sum"}),
            ("dfe", {"type": "fold_fails", "folder": "exp_smooth"}),
            ("P1.2", "P1.2"),
            ("P2", "P2"),
            ("P3.1", "P3.1"),
        ]:
            outcome = evaluate_approach(history, name, spec, config)
            scores[name] = outcome.aggregates["rapfd_c_mean"]
            atrs[name] = outcome.aggregates["atr"]
        assert scores["base"] < 0.15
        assert abs(scores["random"] - 0.5) < 0.15
        for name in ("fold_sum", "dfe", "P1.2", "P2", "P3.1"):
            assert scores[name] > 0.85, name
            assert atrs[name] > atrs["random"] > atrs["base"], name
        assert atrs["base"] == 0.0


class TestBadRankings:
    @pytest.mark.parametrize("policy", list(FlattenPolicy), ids=lambda p: p.value)
    @pytest.mark.parametrize(
        "order, code, case",
        [
            (["b", "a"], MISSING_CASE, "c"),
            (["c", "x", "b", "a"], FOREIGN_CASE, "x"),
            (["c", "b", "a", "b"], DUPLICATE_CASE, "b"),
        ],
    )
    def test_one_fault_is_named_under_either_tie_policy(
        self, monkeypatch, policy, order, code, case
    ):
        # one tie group, so that the random policy shuffles the order before
        # the harness checks it
        class OneGroup(Approach):
            def rank(self, suite):
                return RankedSuite((tuple(order),))

        monkeypatch.setattr(evaluation, "build", lambda spec, **kwargs: OneGroup())
        history = ProjectHistory("p", (cycle(0, ["a", "b", "c"], failures=["a"]),))
        config = small_config(tie_policy=policy)
        with pytest.raises(RankingError) as raised:
            evaluate_approach(history, "bad", {"type": "base_order"}, config)
        assert (raised.value.code, raised.value.case) == (code, case)


class TestProjectIsolation:
    def test_missing_history_is_captured_not_raised(self, tmp_path):
        good = random_history(random.Random(4), n_cycles=4)
        good_path = tmp_path / "good.csv"
        write_canonical(good, good_path)
        config = small_config(
            projects=(
                ProjectConfig("good", good_path),
                ProjectConfig("bad", tmp_path / "missing.csv"),
            )
        )
        outcomes = [evaluate_project(p, config) for p in config.projects]
        assert outcomes[0].error is None
        assert outcomes[1].error is not None


class TestConfigParsing:
    def test_minimal_config(self, tmp_path):
        raw = {
            "projects": [{"name": "p", "history": "p.csv"}],
            "approaches": {"base": {"type": "base_order"}},
        }
        config = EvaluationConfig.from_dict(raw, tmp_path)
        assert config.projects[0].history_path == (tmp_path / "p.csv").resolve()
        assert config.repetitions == 10
        assert config.tie_policy is FlattenPolicy.RANDOM

    @pytest.mark.parametrize(
        "raw",
        [
            {},
            {"projects": [], "approaches": {"a": {"type": "base_order"}}},
            {"projects": [{"name": "p", "history": "h"}], "approaches": {}},
            {
                "projects": [{"name": "p", "history": "h"}, {"name": "p", "history": "h"}],
                "approaches": {"a": {"type": "base_order"}},
            },
            {
                "projects": [{"name": "p", "history": "h"}],
                "approaches": {"a": {"type": "base_order"}},
                "metrics": ["apfd", "nope"],
            },
            {
                "projects": [{"name": "p", "history": "h"}],
                "approaches": {"a": {"type": "base_order"}},
                "repetitions": 0,
            },
            {
                "projects": [{"name": "p", "history": "h"}],
                "approaches": {"a": {"type": "base_order"}},
                "tie_policy": "sometimes",
            },
            {
                "projects": [{"name": "p", "history": "h"}],
                "approaches": {"a": {"type": "base_order"}},
                "repetitions": True,
            },
            {
                "projects": [{"name": "p", "history": "h"}],
                "approaches": {"a": {"type": "base_order"}},
                "seed": True,
            },
            {
                "projects": [{"name": "p", "history": "h"}],
                "approaches": {"a": {"type": "base_order"}},
                "min_suite_size": True,
            },
            {
                "projects": [{"name": "p", "history": "h"}],
                "approaches": {"a": {"type": "base_order"}},
                "metrics": 5,
            },
            {
                "projects": [{"name": "p", "history": 5}],
                "approaches": {"a": {"type": "base_order"}},
            },
            {
                "projects": [{"name": "p", "history": "h", "sources_dir": 5}],
                "approaches": {"a": {"type": "base_order"}},
            },
            {
                "projects": [{"name": "p", "history": "h"}],
                "approaches": {"a": {"type": "no_such"}},
            },
        ],
    )
    def test_invalid_configs_rejected(self, raw, tmp_path):
        with pytest.raises(ConfigError):
            EvaluationConfig.from_dict(raw, tmp_path)
