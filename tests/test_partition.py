"""One partition rule: every entry point that takes an order of a suite
accepts and rejects exactly what the old per-module checks did, and raises
the same :class:`RankingError` naming the same case.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import partition_error_oracle, permutation_oracle, same_suite_oracle
from synth import cycle
from tcp_lab import combinators, metrics
from tcp_lab.model import RankedSuite, RankingError, validate_ranking

POOL = [f"c{i}" for i in range(6)]


@st.composite
def suites_and_rankings(draw):
    """A suite (maybe empty, maybe repeating a case) and a ranking of an order
    that is a permutation of it, or has cases dropped, foreign or doubled."""
    suite = draw(st.lists(st.sampled_from(POOL), max_size=6, unique=draw(st.booleans())))
    order = list(draw(st.permutations(suite)))
    for change in draw(st.lists(st.sampled_from(["drop", "foreign", "double"]), max_size=2)):
        if change == "foreign":
            order.insert(
                draw(st.integers(0, len(order))), draw(st.sampled_from(["x", *POOL]))
            )
        elif order:
            at = draw(st.integers(0, len(order) - 1))
            if change == "drop":
                del order[at]
            else:
                order.insert(draw(st.integers(0, len(order))), order[at])
    inner = draw(st.sets(st.integers(1, len(order) - 1))) if len(order) > 1 else set()
    cuts = sorted(inner | {0, len(order)})
    groups = tuple(tuple(order[a:b]) for a, b in zip(cuts, cuts[1:]) if a < b)
    return suite, RankedSuite(groups)


def ranking_error(function, *args):
    """The (code, case) of the RankingError ``function`` raises, else None."""
    try:
        function(*args)
    except RankingError as error:
        return error.code, error.case
    except metrics.MetricError:
        pass  # raised after the order was accepted
    return None


def rejects(oracle, *args) -> bool:
    try:
        oracle(*args)
    except ValueError:
        return True
    return False


@settings(max_examples=500, deadline=None)
@given(suites_and_rankings())
def test_every_entry_point_applies_the_one_rule(pair):
    suite, ranking = pair
    order = list(ranking.cases())
    expected = partition_error_oracle(suite, ranking)
    assert (expected is not None) == rejects(same_suite_oracle, [order], suite)
    singletons = RankedSuite(tuple((case,) for case in suite))
    calls = {
        "validate_ranking": (validate_ranking, suite, ranking),
        "random_mix": (combinators.random_mix, [list(suite), order], [1, 1]),
        "borda_mix": (combinators.borda_mix, [ranking], [1], suite),
        "schulze_mix": (combinators.schulze_mix, [ranking], [1], suite),
        "break_ties": (combinators.break_ties, singletons, ranking),
    }
    if suite and len(set(suite)) == len(suite):  # a cycle never repeats a case
        record = cycle(0, suite, failures=suite[:1])
        view = metrics.CycleView(record)
        assert (expected is not None) == rejects(permutation_oracle, order, view.position)
        calls["CycleView.score"] = (view.score, order)
        for name in ("apfd", "apfd_c", "rapfd", "rapfd_c"):
            calls[name] = (lambda name: getattr(view.score(order), name), name)
        calls["napfd"] = (lambda prefix: view.score(order).napfd(prefix), 0)
    for name, (function, *args) in calls.items():
        assert ranking_error(function, *args) == expected, name
