"""The per-cycle view and the lean rank path reproduce the old paths exactly.

Each property compares the library with the earlier implementation kept in
``oracles.py``: the replay harness (one dict per cycle and metric, bounds
recomputed per call), every APFD-family metric and bound, ``ScoredOrder.napfd``,
``ranked_from_scores``, ``flatten`` and ``random_mix``. Equality is exact:
the same floats, the same exceptions, the same exclusion counts. One more
property holds the view to itself: renaming the cases one-to-one changes
no metric value.
"""

from __future__ import annotations

import dataclasses
import math
import random
import sys
from types import SimpleNamespace

import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    METRIC_ORACLES,
    apfd_bounds_oracle,
    apfd_c_bounds_oracle,
    evaluate_approach_oracle,
    flatten_oracle,
    napfd_oracle,
    permutation_oracle,
    random_mix_oracle,
    ranked_from_scores_oracle,
)
from synth import cycle, example_sources, shipped_approach_specs
from test_stats import tail_bound
from tcp_lab import approaches, combinators, evaluation, metrics
from tcp_lab.dataset import DatasetError, write_canonical
from tcp_lab.evaluation import ALL_METRICS, EvaluationConfig, ProjectConfig, evaluate_project
from tcp_lab.model import (
    DUPLICATE_CASE,
    FOREIGN_CASE,
    MISSING_CASE,
    FlattenPolicy,
    ProjectHistory,
    RankedSuite,
    RankingError,
    flatten,
    ranked_from_scores,
)
from tcp_lab.stats import ScoreMatrix, friedman

SPECS = shipped_approach_specs()

# Durations that tie, are zero, or are arbitrary floats.
durations_st = st.one_of(
    st.sampled_from([0.0, 0.1, 0.3, 1.0, 2.5]),
    st.floats(0.0, 1e4, allow_nan=False, allow_infinity=False),
)


@st.composite
def cycles_st(draw, index: int, pool: list[str]):
    """One cycle: random, zero-duration, all-fail or passing; maybe no build time."""
    size = draw(st.integers(1, len(pool)))
    cases = draw(st.permutations(pool))[:size]
    kind = draw(st.sampled_from(["mixed", "zero_time", "all_fail", "passing"]))
    if kind == "zero_time":
        durations = {case: 0.0 for case in cases}
    else:
        durations = {case: draw(durations_st) for case in cases}
    if kind == "all_fail":
        failures = list(cases)
    elif kind == "passing":
        failures = []
    else:
        failures = [case for case in cases if draw(st.booleans())]
    build_time = draw(st.none() | st.sampled_from([0.0, 0.2, 30.0]))
    return cycle(index, cases, failures, durations, build_time=build_time)


@st.composite
def histories(draw, max_pool: int = 6, max_cycles: int = 8):
    pool = [f"t{i}" for i in range(draw(st.integers(1, max_pool)))]
    n_cycles = draw(st.integers(1, max_cycles))
    records = tuple(draw(cycles_st(index, pool)) for index in range(n_cycles))
    sources = example_sources(pool)
    kept = draw(st.sets(st.sampled_from(pool)))
    return ProjectHistory("h", records, sources={c: sources[c] for c in kept})


class FakeClock:
    """Deterministic stand-in for ``time.perf_counter``."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 0.125
        return self.now


def outcome_fields(outcome):
    return (
        outcome.approach,
        outcome.repetitions,
        outcome.rows,
        outcome.timing,
        outcome.aggregates,
        outcome.no_data,
        outcome.exclusions,
    )


def replay_both(history, name, spec, config):
    """(library outcome, old-path outcome); the latter with the old kernels."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluation, "time", SimpleNamespace(perf_counter=FakeClock()))
        new = evaluate_approach_outcome_or_error(
            evaluation.evaluate_approach, history, name, spec, config
        )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(approaches, "ranked_from_scores", ranked_from_scores_oracle)
        patch.setattr(combinators, "ranked_from_scores", ranked_from_scores_oracle)
        patch.setattr(combinators, "random_mix", random_mix_oracle)
        old = evaluate_approach_outcome_or_error(
            evaluate_approach_oracle, history, name, spec, config, FakeClock()
        )
    return new, old


def evaluate_approach_outcome_or_error(function, *args):
    try:
        return outcome_fields(function(*args))
    except Exception as error:  # compared by type and message
        return type(error), str(error)


@pytest.mark.parametrize("policy", list(FlattenPolicy), ids=lambda p: p.value)
@pytest.mark.parametrize("name", sorted(SPECS))
@settings(max_examples=25, deadline=None)
@given(
    history=histories(),
    seed=st.integers(0, 2**32),
    metric_names=st.lists(st.sampled_from(ALL_METRICS), unique=True, min_size=1).map(tuple)
    | st.just(ALL_METRICS),
)
def test_harness_matches_old_cycle_loop(name, policy, history, seed, metric_names):
    config = EvaluationConfig(
        projects=(),
        approaches={name: SPECS[name]},
        seed=seed,
        repetitions=2,
        min_suite_size=1,
        tie_policy=policy,
        metric_names=metric_names,
    )
    new, old = replay_both(history, name, SPECS[name], config)
    assert repr(new) == repr(old)  # repr tells -0.0 from 0.0, as raw/ does


def test_harness_rejects_infinite_duration_where_old_loop_fails():
    # the old loop fails on the rectified value, which is not finite; the
    # harness rejects the history before any replay, naming the cycle
    history = ProjectHistory(
        "inf",
        (cycle(0, ["a", "b"], failures=["a"], durations={"a": math.inf, "b": 1.0}),),
    )
    config = EvaluationConfig((), {"base": "P3.1"}, metric_names=ALL_METRICS)
    new, old = replay_both(history, "base", "P3.1", config)
    assert old == (ValueError, "cannot rectify nan between nan and nan: not finite")
    assert new == (
        DatasetError,
        f"PARSE_ERROR: project 'inf', cycle 0: durations too large to sum "
        f"(over {sys.float_info.max / 2!r} s)",
    )


@st.composite
def failing_or_not_cycles(draw):
    pool = [f"t{i}" for i in range(draw(st.integers(1, 7)))]
    record = draw(cycles_st(0, pool))
    order = draw(st.permutations(list(record.suite)))
    return record, order


def result_of(function, *args):
    try:
        return function(*args)
    except Exception as error:
        return type(error), str(error)


@settings(max_examples=300, deadline=None)
@given(failing_or_not_cycles(), st.integers(0, 8))
def test_metrics_match_old_path(case, prefix):
    record, order = case
    for name, oracle in METRIC_ORACLES.items():
        scored = metrics.CycleView(record).score(order)
        assert repr(result_of(getattr, scored, name)) == repr(
            result_of(oracle, order, record)
        ), name
    view = metrics.CycleView(record)
    for name, oracle in (
        ("apfd_bounds", apfd_bounds_oracle),
        ("apfd_c_bounds", apfd_c_bounds_oracle),
    ):
        assert repr(result_of(getattr, view, name)) == repr(result_of(oracle, record))
    assert repr(result_of(view.score(order).napfd, prefix)) == repr(
        result_of(napfd_oracle, order, record, prefix)
    )


@settings(max_examples=100, deadline=None)
@given(failing_or_not_cycles(), st.data())
def test_non_permutations_rejected_like_old_path(case, data):
    record, order = case
    broken, (code, culprit) = data.draw(
        st.sampled_from(
            [
                (order[:-1], (MISSING_CASE, order[-1])),
                (order + order[:1], (DUPLICATE_CASE, order[0])),
                (order[:-1] + ["foreign"], (FOREIGN_CASE, "foreign")),
                ([order[0]] * len(order), (DUPLICATE_CASE, order[0])),
            ]
        )
    )
    if sorted(broken) == sorted(order):
        return  # a one-case suite repeated once is still a permutation
    view = metrics.CycleView(record)
    assert result_of(permutation_oracle, broken, view.position)[0] is ValueError
    expected = (RankingError, f"{code}: {culprit!r}")
    assert result_of(view.score, broken) == expected
    for name, oracle in METRIC_ORACLES.items():
        assert result_of(oracle, broken, record)[0] is ValueError
        assert result_of(lambda: getattr(view.score(broken), name)) == expected


@settings(max_examples=300, deadline=None)
@given(failing_or_not_cycles(), st.data(), st.integers(0, 8))
def test_renaming_cases_changes_no_metric(case, data, prefix):
    record, order = case
    # new names from another alphabet, so that their sorted order changes too
    new_names = st.lists(
        st.text("abz019", min_size=1, max_size=4),
        min_size=len(order),
        max_size=len(order),
        unique=True,
    )
    rename = dict(zip(order, data.draw(new_names)))
    renamed = dataclasses.replace(
        record,
        executions=tuple(
            dataclasses.replace(e, case=rename[e.case]) for e in record.executions
        ),
    )
    renamed_order = [rename[c] for c in order]

    def values(record, order):
        view = metrics.CycleView(record)
        scored = view.score(order)
        names = ("apfd", "apfd_c", "rapfd", "rapfd_c")
        return (
            scored.first_fault_time,
            scored.full_time,
            [result_of(getattr, scored, name) for name in names],
            [result_of(getattr, view, name) for name in ("apfd_bounds", "apfd_c_bounds")],
            result_of(scored.napfd, prefix),
        )

    assert repr(values(renamed, renamed_order)) == repr(values(record, order))


scores_st = st.one_of(
    st.lists(st.integers(-3, 3)),
    st.lists(st.sampled_from([0.0, -0.0, 0.5, 1.0, 1e-9, 2.0, math.inf, -math.inf])),
    st.lists(st.floats(allow_nan=False)),
)


@settings(max_examples=300, deadline=None)
@given(scores_st, st.booleans(), st.booleans())
def test_ranked_from_scores_matches_old(scores, descending, as_tuple):
    suite = [f"c{i}" for i in range(len(scores))]
    if as_tuple:
        suite = tuple(suite)
    score_of = dict(zip(suite, scores)).__getitem__
    new = ranked_from_scores(suite, score_of, descending=descending)
    old = ranked_from_scores_oracle(suite, score_of, descending=descending)
    assert new == old


@st.composite
def rankings(draw):
    suite = [f"c{i}" for i in range(draw(st.integers(0, 30)))]
    level = {case: draw(st.integers(0, draw(st.integers(0, 30)))) for case in suite}
    groups: dict[int, list[str]] = {}
    for case in suite:
        groups.setdefault(level[case], []).append(case)
    return RankedSuite(tuple(tuple(groups[key]) for key in sorted(groups)))


@settings(max_examples=300, deadline=None)
@given(rankings(), st.sampled_from(list(FlattenPolicy)), st.integers(0, 2**63 - 1))
def test_flatten_matches_old(ranking, policy, seed):
    assert flatten(ranking, policy, seed=seed) == flatten_oracle(ranking, policy, seed=seed)


# groups that may repeat a case, within and across groups, as a faulty
# approach's ranking can
loose_rankings = st.lists(
    st.lists(st.sampled_from("abcd"), min_size=1, max_size=5).map(tuple), max_size=6
).map(lambda groups: RankedSuite(tuple(groups)))


@settings(max_examples=300, deadline=None)
@given(
    rankings() | loose_rankings,
    st.sampled_from(list(FlattenPolicy)),
    st.integers(0, 2**63 - 1),
)
def test_flatten_permutes_only_within_groups(ranking, policy, seed):
    # the harness checks only the flattened order against the suite, which
    # holds for the ranking itself because flatten neither adds nor drops
    order = flatten(ranking, policy, seed=seed)
    start = 0
    for group in ranking.groups:
        assert sorted(order[start : start + len(group)]) == sorted(group)
        start += len(group)
    assert start == len(order)


@st.composite
def mix_inputs(draw):
    suite = [f"c{i}" for i in range(draw(st.integers(0, 25)))]
    k = draw(st.integers(1, 4))
    queues = [draw(st.permutations(suite)) for _ in range(k)]
    weights = draw(
        st.lists(st.sampled_from([0, 0.0, 0.5, 1, 2.0, 1e-3, 3.7]), min_size=k, max_size=k)
    )
    if not any(w > 0 for w in weights):
        weights[draw(st.integers(0, k - 1))] = draw(st.sampled_from([1, 0.25, 5.0]))
    return queues, weights


@settings(max_examples=300, deadline=None)
@given(mix_inputs(), st.integers(0, 2**64 - 1))
def test_random_mix_matches_choices_draws(inputs, seed):
    queues, weights = inputs
    assert combinators.random_mix(queues, weights, seed) == random_mix_oracle(
        queues, weights, seed
    )


@pytest.mark.parametrize(
    "weights", [[math.inf, 1.0], [1e308, 1e308], [math.nan, 1.0], [0.0, math.inf]]
)
def test_random_mix_non_finite_weights_like_choices(weights):
    queues = [["a", "b", "c"], ["c", "b", "a"]]
    expected = result_of(random_mix_oracle, queues, weights, 1)
    assert result_of(combinators.random_mix, queues, weights, 1) == expected
    if not math.isnan(weights[0]):  # a NaN weight is never positive: left out
        assert expected == (ValueError, "Total of weights must be finite")


def test_random_mix_still_checks_queues():
    with pytest.raises(RankingError, match="^FOREIGN_CASE: 'c'$"):
        combinators.random_mix([["a", "b"], ["a", "c"]], [1, 1])
    with pytest.raises(RankingError, match="^DUPLICATE_CASE: 'a'$"):
        combinators.random_mix([["a", "a"], ["a", "a"]], [1, 1])


def test_project_tokenizes_each_source_once(tmp_path, monkeypatch):
    pool = [f"t{i}" for i in range(6)]
    records = tuple(
        cycle(i, pool, failures=[pool[i % 6]], build_time=1.0) for i in range(4)
    )
    history_path = tmp_path / "h.csv"
    write_canonical(ProjectHistory("h", records), history_path)
    sources_dir = tmp_path / "src"
    sources_dir.mkdir()
    for case, text in example_sources(pool).items():
        (sources_dir / f"{case}.java").write_text(text, encoding="utf-8")
    calls = []
    original = approaches.tokenize

    def counting(source):
        calls.append(source)
        return original(source)

    monkeypatch.setattr(approaches, "tokenize", counting)
    config = EvaluationConfig(
        projects=(ProjectConfig("h", history_path, sources_dir),),
        approaches={name: SPECS[name] for name in ("code_dist", "code_dist_cosine", "P3.2")},
        repetitions=2,
        min_suite_size=1,
    )
    outcome = evaluate_project(config.projects[0], config)
    assert outcome.error is None and len(outcome.approaches) == 3
    assert len(calls) == len(pool)


def test_project_computes_keys_once_per_metric_outside_rank(tmp_path, monkeypatch):
    """One key matrix per project and metric in use, built before any rank."""
    projects = []
    for name, pool in (("p", ["a", "b", "c", "d"]), ("q", ["a", "e", "f", "g", "h"])):
        records = tuple(cycle(i, pool, failures=[pool[i]], build_time=1.0) for i in range(2))
        history_path = tmp_path / f"{name}.csv"
        write_canonical(ProjectHistory(name, records), history_path)
        sources_dir = tmp_path / f"{name}-src"
        sources_dir.mkdir()
        for case, text in example_sources(pool).items():
            (sources_dir / f"{case}.java").write_text(text, encoding="utf-8")
        projects.append(ProjectConfig(name, history_path, sources_dir))
    calls = []
    in_rank = []
    original = approaches._pairwise_keys

    def counting(counts, metric):
        calls.append((len(counts), metric, bool(in_rank)))
        return original(counts, metric)

    def marking(rank):
        def wrapped(self, suite):
            in_rank.append(True)
            try:
                return rank(self, suite)
            finally:
                in_rank.pop()

        return wrapped

    monkeypatch.setattr(approaches, "_pairwise_keys", counting)
    for node in (approaches.CodeDistOrder, combinators.CodeDistBrokenOrder):
        monkeypatch.setattr(node, "rank", marking(node.rank))
    config = EvaluationConfig(
        projects=tuple(projects),
        approaches={name: SPECS[name] for name in ("code_dist", "code_dist_cosine", "P3.2")},
        repetitions=2,
        min_suite_size=1,
    )
    for project, pool_size in zip(projects, (4, 5)):
        del calls[:]
        outcome = evaluate_project(project, config)
        assert outcome.error is None and len(outcome.approaches) == 3
        # every sourced case plus the empty vector, once per metric in use
        assert sorted(metric.value for _, metric, _ in calls) == ["cosine", "euclidean"]
        assert [(rows, inside) for rows, _, inside in calls] == [(pool_size + 1, False)] * 2


@pytest.mark.parametrize("k", [2, 3, 5, 9])
def test_friedman_p_value_is_the_chi_square_tail(k):
    rng = random.Random(k)
    for projects in (2, 4, 11):
        matrix = ScoreMatrix(
            tuple(f"a{j}" for j in range(k)),
            tuple(f"p{i}" for i in range(projects)),
            tuple(tuple(rng.choice([0.1, 0.5, 0.9, rng.random()]) for _ in range(k))
                  for _ in range(projects)),
        )
        result = friedman(matrix)
        expected = float(scipy.stats.chi2.sf(result.statistic, k - 1))
        assert abs(result.p_value - expected) <= tail_bound(k - 1, expected)
