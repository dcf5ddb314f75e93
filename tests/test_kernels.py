"""The numpy kernels give exactly the rankings of the plain-Python loops.

Each property compares a library kernel with its element-by-element oracle
in ``oracles.py``: the code-distance chain and its farthest-pair start,
farthest-point tiebreaking, the Schulze preference, path and beats
computation, and tie refinement by a secondary ranking. The code-distance
keys kept per project are checked against the keys computed per suite.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    break_ties_codedist_oracle,
    break_ties_oracle,
    code_dist_chain_oracle,
    farthest_pair_start_oracle,
    pairwise_preferences_oracle,
    safe_distance,
    schulze_mix_oracle,
    strongest_paths_oracle,
)
from tcp_lab import approaches
from tcp_lab.approaches import (
    CodeDistOrder,
    DistanceMetric,
    SourceVectors,
    StartPolicy,
    _pairwise_keys,
    farthest_pair_start,
    tokenize,
)
from tcp_lab.combinators import (
    break_ties,
    break_ties_codedist,
    pairwise_preferences,
    schulze_mix,
    strongest_paths,
)
from tcp_lab.model import RankedSuite

KERNEL_SETTINGS = settings(max_examples=150, deadline=None)

# A few words so that vectors share tokens, repeat, and coincide often.
WORDS = ("alpha", "beta", "gammaDelta", "x", "XMLParser", "assertEquals", "foo_bar")

texts = st.lists(st.sampled_from(WORDS), max_size=12).map(" ".join)


@st.composite
def suites_with_sources(draw, min_size=0, max_size=40):
    """A suite of distinct cases with sources: duplicated, empty or absent."""
    n = draw(st.integers(min_size, max_size))
    suite = [f"c{i}" for i in range(n)]
    draw(st.randoms()).shuffle(suite)
    pool = draw(st.lists(texts, min_size=1, max_size=6))
    sources = {}
    for case in suite:
        choice = draw(st.integers(0, len(pool) + 1))
        if choice < len(pool):
            sources[case] = pool[choice]
        elif choice == len(pool):
            sources[case] = ""
    return suite, sources


@st.composite
def tie_rankings(draw, suite, max_levels=None):
    """A ranking of ``suite`` into tie groups, often many small ones."""
    levels = max_levels or max(1, len(suite))
    level = {case: draw(st.integers(0, levels - 1)) for case in suite}
    order = list(suite)
    draw(st.randoms()).shuffle(order)
    groups = {}
    for case in order:
        groups.setdefault(level[case], []).append(case)
    return RankedSuite(tuple(tuple(groups[key]) for key in sorted(groups)))


def outcome(function, *args):
    """The value a call returns, or the type of exception it raises."""
    try:
        return function(*args)
    except Exception as error:  # an empty suite has no first case
        return type(error)


weights_pool = st.sampled_from([0, 0.5, 1, 2, 0.1, 3.5])


class TestCodeDistances:
    @KERNEL_SETTINGS
    @given(suites_with_sources(max_size=15), st.sampled_from(list(DistanceMetric)))
    def test_keys_match_scalar_distances(self, drawn, metric):
        suite, sources = drawn
        keys = SourceVectors(sources).distances(suite, metric)
        for i, a in enumerate(suite):
            for j, b in enumerate(suite):
                expected = safe_distance(
                    tokenize(sources.get(a, "")), tokenize(sources.get(b, "")), metric
                )
                key = keys[i, j]
                if metric is DistanceMetric.EUCLIDEAN:
                    key = math.sqrt(key)
                assert key == expected

    @KERNEL_SETTINGS
    @given(suites_with_sources(max_size=15), st.sampled_from(list(DistanceMetric)))
    def test_kept_keys_equal_keys_over_the_suite(self, drawn, metric):
        """Keys indexed out of the kept matrix are the keys over the suite's rows.

        Over the memory bound no matrix is kept and the keys are computed over
        the suite's rows. Both give the same bytes;
        ``test_keys_match_scalar_distances`` checks their values.
        """
        suite, sources = drawn
        kept = SourceVectors(sources)
        keys = kept.distances(suite, metric)
        with mock.patch.object(approaches, "_KEY_MATRIX_BYTES", 0):
            over = SourceVectors(sources)
            over_keys = over.distances(suite, metric)
        assert (kept._keys.get(metric) is not None) is bool(sources)
        assert over._keys.get(metric) is None
        matrix = kept.matrix()
        rows = [kept._rows.get(case, len(matrix) - 1) for case in suite]
        expected = _pairwise_keys(matrix[rows], metric)
        for got in (keys, over_keys):
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes()

    @KERNEL_SETTINGS
    @given(
        suites_with_sources(),
        st.sampled_from(list(DistanceMetric)),
        st.sampled_from(list(StartPolicy)),
    )
    # empty suites raise as the oracle does; source-less suites keep their order
    @example(([], {}), DistanceMetric.EUCLIDEAN, StartPolicy.FARTHEST_PAIR)
    @example(([], {"c0": "alpha"}), DistanceMetric.COSINE_DISTANCE, StartPolicy.FIRST_CASE)
    @example((["c2", "c0", "c1"], {}), DistanceMetric.COSINE_DISTANCE, StartPolicy.FARTHEST_PAIR)
    @example((["c2", "c0", "c1"], {"c9": "beta"}), DistanceMetric.MANHATTAN, StartPolicy.FIRST_CASE)
    @example((["c2", "c0", "c1"], {"c0": ""}), DistanceMetric.EUCLIDEAN, StartPolicy.FARTHEST_PAIR)
    def test_chain_matches_oracle(self, drawn, metric, start):
        suite, sources = drawn
        # one SourceVectors keeps every metric's keys, as in a project's evaluate
        vectors = SourceVectors(sources)
        for other in DistanceMetric:
            vectors.prepare(other)
        approach = CodeDistOrder(metric, start, vectors)
        # a second, smaller cycle reuses the cached count matrix
        for cycle_suite in (suite, suite[1:]):
            assert outcome(approach.rank, cycle_suite) == outcome(
                code_dist_chain_oracle, cycle_suite, sources, metric, start
            )


class TestFarthestPairStart:
    @KERNEL_SETTINGS
    @given(
        st.integers(1, 9).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(0, 2), min_size=n, max_size=n), min_size=n, max_size=n
            )
        )
    )
    @example([[0]])
    @example([[0, 0], [0, 0]])
    @example([[0] * 8] * 8)  # a suite without sources: every key is 0
    def test_earliest_maximal_pair_like_oracle(self, d):
        # small integer keys tie often; the matrix need not be symmetric, so
        # reading the lower triangle would show
        suite = [f"c{i}" for i in range(len(d))]
        position = {case: i for i, case in enumerate(suite)}
        expected = farthest_pair_start_oracle(
            suite, lambda a, b: float(d[position[a]][position[b]])
        )
        assert farthest_pair_start(suite, np.array(d, dtype=np.float64)) == expected


@st.composite
def rankings_with_sources(draw):
    """A primary ranking of a suite, and the suite's sources."""
    suite, sources = draw(suites_with_sources())
    return draw(tie_rankings(suite, max_levels=draw(st.integers(1, 8)))), sources


class TestBreakTiesCodeDist:
    @KERNEL_SETTINGS
    @given(rankings_with_sources(), st.sampled_from(list(DistanceMetric)))
    # an empty primary, and primaries of which no case has a source
    @example((RankedSuite(()), {}), DistanceMetric.EUCLIDEAN)
    @example((RankedSuite((("b", "a"), ("c",))), {}), DistanceMetric.COSINE_DISTANCE)
    @example((RankedSuite((("b",), ("c", "a"))), {"z": "alpha"}), DistanceMetric.MANHATTAN)
    @example((RankedSuite((("b", "a"), ("c",))), {"c": ""}), DistanceMetric.EUCLIDEAN)
    def test_matches_oracle(self, drawn, metric):
        primary, sources = drawn
        out = break_ties_codedist(primary, SourceVectors(sources), metric)
        assert out == break_ties_codedist_oracle(primary, sources, metric)


class TestSchulze:
    @KERNEL_SETTINGS
    @given(st.data(), st.integers(0, 40), st.integers(1, 4))
    def test_matches_oracle(self, data, n, count):
        suite = [f"t{i}" for i in range(n)]
        rankings = [
            data.draw(tie_rankings(suite, max_levels=data.draw(st.integers(1, 10))))
            for _ in range(count)
        ]
        weights = data.draw(
            st.lists(weights_pool, min_size=count, max_size=count).filter(
                lambda ws: any(w > 0 for w in ws)
            )
        )
        d = pairwise_preferences(rankings, weights, suite)
        expected_d = pairwise_preferences_oracle(rankings, weights, suite)
        assert np.array_equal(d, np.array(expected_d, dtype=np.float64).reshape(n, n))
        expected_p = strongest_paths_oracle(expected_d)
        assert np.array_equal(
            strongest_paths(d), np.array(expected_p, dtype=np.float64).reshape(n, n)
        )
        out = schulze_mix(rankings, weights, suite=suite)
        assert out == schulze_mix_oracle(rankings, weights, suite)

    # no shrinking: a smaller input seldom keeps more than 256 distinct values
    @settings(max_examples=30, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
    @given(st.data(), st.integers(26, 30))
    def test_more_than_255_preference_values(self, data, n):
        # children weighted 2**0 .. 2**8 make each preference the sum of its own
        # subset of them: hundreds of distinct values, whose ranks need 16 bits
        suite = [f"t{i}" for i in range(n)]
        rankings = [data.draw(tie_rankings(suite)) for _ in range(9)]
        weights = [2.0**i for i in range(9)]
        assume(len(np.unique(pairwise_preferences(rankings, weights, suite))) > 256)
        out = schulze_mix(rankings, weights, suite=suite)
        assert out == schulze_mix_oracle(rankings, weights, suite)

    @KERNEL_SETTINGS
    @given(
        st.integers(0, 12).flatmap(
            lambda n: st.lists(
                st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 7.25]), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        )
    )
    def test_strongest_paths_on_any_matrix(self, d):
        # including a non-zero diagonal, which the relaxation must leave alone
        n = len(d)
        expected = np.array(strongest_paths_oracle(d), dtype=np.float64).reshape(n, n)
        assert np.array_equal(strongest_paths(d), expected)


class TestBreakTies:
    @KERNEL_SETTINGS
    @given(st.data(), st.integers(0, 40))
    def test_matches_oracle(self, data, n):
        suite = [f"t{i}" for i in range(n)]
        primary = data.draw(tie_rankings(suite, max_levels=data.draw(st.integers(1, 10))))
        secondary = data.draw(tie_rankings(suite, max_levels=data.draw(st.integers(1, 10))))
        assert break_ties(primary, secondary) == break_ties_oracle(primary, secondary)
