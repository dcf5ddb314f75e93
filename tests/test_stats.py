"""Friedman, Wilcoxon signed-rank, Holm adjustment, and CD grouping."""

from __future__ import annotations

import math
import random

import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import chdtrc

from oracles import descending_ranks_oracle, signed_ranks_oracle
from tcp_lab import stats
from tcp_lab.stats import (
    DegenerateMatrixError,
    FriedmanResult,
    ScoreMatrix,
    WilcoxonResult,
    cd_grouping,
    friedman,
    holm_adjust,
    wilcoxon_signed_rank,
)


def matrix(values, approaches=None, projects=None):
    k = len(values[0])
    approaches = approaches or tuple(f"A{j}" for j in range(k))
    projects = projects or tuple(f"p{i}" for i in range(len(values)))
    return ScoreMatrix(tuple(approaches), tuple(projects), tuple(map(tuple, values)))


class TestFriedman:
    def test_identical_rank_rows_closed_form(self):
        # 4 projects all ranking the three approaches the same way
        m = matrix([[3, 2, 1]] * 4)
        result = friedman(m)
        assert result.statistic == pytest.approx(8.0)
        assert result.p_value == pytest.approx(0.0183, abs=1e-3)
        assert result.mean_ranks == (1.0, 2.0, 3.0)

    def test_all_equal_entries(self):
        m = matrix([[0.5, 0.5, 0.5]] * 5)
        result = friedman(m)
        assert result.statistic == 0.0
        assert result.p_value == pytest.approx(1.0)
        assert result.mean_ranks == (2.0, 2.0, 2.0)

    def test_two_approaches_sign_test_form(self):
        rng = random.Random(8)
        for _ in range(30):
            n = rng.randint(2, 15)
            values = [[rng.random(), rng.random()] for _ in range(n)]
            while any(a == b for a, b in values):
                values = [[rng.random(), rng.random()] for _ in range(n)]
            wins_first = sum(1 for a, b in values if a > b)
            wins_second = n - wins_first
            expected = (wins_first - wins_second) ** 2 / n
            assert friedman(matrix(values)).statistic == pytest.approx(expected)

    def test_matches_reference_implementation(self):
        rng = random.Random(9)
        for _ in range(25):
            n = rng.randint(3, 12)
            k = rng.randint(3, 6)
            values = [[rng.random() for _ in range(k)] for _ in range(n)]
            ours = friedman(matrix(values))
            columns = [[row[j] for row in values] for j in range(k)]
            stat, p = scipy.stats.friedmanchisquare(*columns)
            assert ours.statistic == pytest.approx(stat, abs=1e-9)
            assert ours.p_value == pytest.approx(p, abs=1e-9)

    def test_invariant_under_row_monotone_transform(self):
        rng = random.Random(10)
        values = [[rng.random() for _ in range(4)] for _ in range(6)]
        transformed = [[math.exp(3 * v) for v in row] for row in values]
        assert friedman(matrix(values)).statistic == pytest.approx(
            friedman(matrix(transformed)).statistic
        )

    @pytest.mark.parametrize(
        "bad",
        [
            ([[1.0, 2.0]], None),  # one project only
            ([[1.0], [2.0]], None),  # one approach only
            ([[1.0, 2.0], [1.0]], None),  # ragged
            ([[1.0, float("nan")], [0.5, 1.0]], None),  # missing entry
        ],
    )
    def test_degenerate_matrices_rejected(self, bad):
        values, _ = bad
        with pytest.raises(DegenerateMatrixError):
            matrix(values)


class TestWilcoxon:
    def test_identical_sequences_flagged(self):
        result = wilcoxon_signed_rank([(1.0, 1.0), (2.5, 2.5)])
        assert result.all_zero
        assert result.p_value == 1.0

    def test_constant_shift_n6_exact(self):
        pairs = [(x, x + 1.0) for x in range(6)]
        result = wilcoxon_signed_rank(pairs)
        assert result.method == "exact"
        assert result.p_value == pytest.approx(2 / 64)

    def test_matches_reference_exact(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(3, 20)
            pairs = [(rng.random(), rng.random()) for _ in range(n)]
            ours = wilcoxon_signed_rank(pairs)
            x = [a for a, _ in pairs]
            y = [b for _, b in pairs]
            reference = scipy.stats.wilcoxon(x, y, alternative="two-sided", method="exact")
            assert ours.method == "exact"
            assert ours.p_value == pytest.approx(reference.pvalue, abs=1e-6)

    def test_matches_reference_normal_approximation(self):
        rng = random.Random(12)
        for _ in range(20):
            n = rng.randint(21, 60)
            pairs = [(rng.random(), rng.random()) for _ in range(n)]
            ours = wilcoxon_signed_rank(pairs)
            x = [a for a, _ in pairs]
            y = [b for _, b in pairs]
            reference = scipy.stats.wilcoxon(
                x, y, alternative="two-sided", method="approx", correction=True
            )
            assert ours.method == "normal"
            assert ours.p_value == pytest.approx(reference.pvalue, abs=1e-6)

    def test_zero_differences_dropped(self):
        pairs = [(1.0, 1.0)] * 3 + [(x, x + 1.0) for x in range(6)]
        result = wilcoxon_signed_rank(pairs)
        assert result.n_nonzero == 6
        assert result.p_value == pytest.approx(2 / 64)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            wilcoxon_signed_rank([])


class TestHolm:
    def test_two_values(self):
        assert holm_adjust([0.01, 0.04]) == [pytest.approx(0.02), pytest.approx(0.04)]

    def test_single_value_unchanged(self):
        assert holm_adjust([0.3]) == [pytest.approx(0.3)]

    def test_capped_at_one(self):
        assert holm_adjust([0.5, 0.5, 0.5]) == [1.0, 1.0, 1.0]

    def test_returned_in_original_order(self):
        adjusted = holm_adjust([0.04, 0.01])
        assert adjusted == [pytest.approx(0.04), pytest.approx(0.02)]

    def test_never_decreases_and_monotone(self):
        rng = random.Random(13)
        for _ in range(50):
            ps = [rng.random() for _ in range(rng.randint(1, 10))]
            adjusted = holm_adjust(ps)
            assert all(a >= p for a, p in zip(adjusted, ps))
            paired = sorted(zip(ps, adjusted))
            for (_, a0), (_, a1) in zip(paired, paired[1:]):
                assert a1 >= a0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            holm_adjust([1.5])


class TestCdGrouping:
    def test_omnibus_gate_yields_single_group(self):
        rng = random.Random(14)
        values = [[0.5 + rng.gauss(0, 1e-6) for _ in range(3)] for _ in range(4)]
        m = matrix(values)
        grouping = cd_grouping(m, alpha=0.05)
        if grouping.friedman_p >= 0.05:
            assert len(grouping.groups) == 1
            assert set(grouping.groups[0]) == set(m.approaches)

    def test_clear_separation_two_singletons(self):
        # first approach dominates on every one of 12 projects
        values = [[0.9 - i * 0.001, 0.1 + i * 0.001] for i in range(12)]
        grouping = cd_grouping(matrix(values, approaches=("strong", "weak")), 0.05)
        assert grouping.friedman_p < 0.05
        assert grouping.groups == (("strong",), ("weak",))

    def test_heuristics_connect_while_random_separates(self):
        # per-project mean scores for six approaches on eleven subject programs
        approaches = ("random", "dfe", "rocket", "P1.2", "P2", "P3.1")
        values = [
            (0.558, 0.659, 0.584, 0.639, 0.707, 0.716),
            (0.446, 0.744, 0.793, 0.846, 0.775, 0.596),
            (0.566, 0.661, 0.570, 0.857, 0.887, 0.617),
            (0.514, 0.892, 0.855, 0.833, 0.785, 0.898),
            (0.520, 0.916, 0.930, 0.856, 0.930, 0.899),
            (0.494, 0.871, 0.951, 0.888, 0.831, 0.947),
            (0.573, 0.913, 0.936, 0.975, 0.896, 0.898),
            (0.592, 0.658, 0.801, 0.719, 0.793, 0.822),
            (0.457, 0.836, 0.858, 0.889, 0.914, 0.943),
            (0.443, 0.849, 0.902, 0.823, 0.868, 0.809),
            (0.512, 0.771, 0.869, 0.834, 0.908, 0.884),
        ]
        grouping = cd_grouping(matrix(values, approaches=approaches), 0.05)
        assert grouping.friedman_p < 0.05
        # the heuristic state of the art and the combinator models connect...
        connected = {"rocket", "P2", "P3.1", "P1.2", "dfe"}
        assert any(connected <= set(group) for group in grouping.groups)
        # ...while random prioritization is separated, with the worst mean rank
        assert ("random",) in grouping.groups
        assert all("random" not in g for g in grouping.groups if len(g) > 1)
        assert max(grouping.mean_ranks, key=grouping.mean_ranks.get) == "random"
        assert min(grouping.mean_ranks, key=grouping.mean_ranks.get) == "rocket"

    def test_groups_cover_all_approaches(self):
        rng = random.Random(15)
        for _ in range(20):
            n = rng.randint(4, 10)
            k = rng.randint(2, 5)
            values = [[rng.random() for _ in range(k)] for _ in range(n)]
            m = matrix(values)
            grouping = cd_grouping(m, alpha=0.2)
            covered = {a for group in grouping.groups for a in group}
            assert covered == set(m.approaches)

    def test_groups_only_merge_as_alpha_decreases(self):
        rng = random.Random(16)
        for _ in range(10):
            n = rng.randint(5, 12)
            values = [
                [rng.random(), rng.random() + 0.5, rng.random() + 0.9, rng.random()]
                for _ in range(n)
            ]
            m = matrix(values)
            tight = cd_grouping(m, alpha=0.01).groups
            loose = cd_grouping(m, alpha=0.2).groups
            # every loose-alpha group is contained in some tight-alpha group
            for group in loose:
                assert any(set(group) <= set(g) for g in tight)


# --- the shared rank loop against the two loops it replaced -----------------


def friedman_with_old_ranks(matrix: ScoreMatrix) -> FriedmanResult:
    """``friedman`` as it was, ranking rows with the old descending loop."""
    k = len(matrix.approaches)
    n = len(matrix.projects)
    rank_sums = [0.0] * k
    for row in matrix.values:
        for j, rank in enumerate(descending_ranks_oracle(row)):
            rank_sums[j] += rank
    mean_ranks = tuple(total / n for total in rank_sums)
    center = (k + 1) / 2
    statistic = 12.0 * n / (k * (k + 1)) * sum(
        (rank - center) ** 2 for rank in mean_ranks
    )
    return FriedmanResult(statistic, stats._chdtrc(k - 1, statistic), mean_ranks)


def wilcoxon_with_old_ranks(pairs) -> WilcoxonResult:
    """``wilcoxon_signed_rank`` as it was, with the old signed-rank loop."""
    nonzero = [d for d in (x - y for x, y in pairs) if d != 0]
    if not nonzero:
        return WilcoxonResult(1.0, 0, True, "all_zero")
    ranks, w_plus = signed_ranks_oracle(nonzero)
    if len(nonzero) <= stats.WILCOXON_EXACT_LIMIT:
        return WilcoxonResult(
            stats._exact_two_sided(ranks, w_plus), len(nonzero), False, "exact"
        )
    return WilcoxonResult(
        stats._normal_two_sided(ranks, w_plus), len(nonzero), False, "normal"
    )


# Entries that tie often, include -0.0, and give equal or zero differences.
tied_entries = st.one_of(
    st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.3, 0.25, 0.5, 1.0]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)
tied_matrices = st.integers(2, 6).flatmap(
    lambda k: st.lists(st.lists(tied_entries, min_size=k, max_size=k), min_size=2, max_size=30)
)


class TestAverageRanks:
    @settings(max_examples=300, deadline=None)
    @given(tied_matrices)
    def test_friedman_matches_old_loop(self, values):
        m = matrix(values)
        assert repr(friedman(m)) == repr(friedman_with_old_ranks(m))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(tied_entries, tied_entries), min_size=1, max_size=30))
    def test_wilcoxon_matches_old_loop(self, pairs):
        assert repr(wilcoxon_signed_rank(pairs)) == repr(wilcoxon_with_old_ranks(pairs))


@st.composite
def shifted_matrices(draw):
    """Tied rows; a per-column shift makes the omnibus test reject often."""
    n = draw(st.integers(2, 26))
    k = draw(st.integers(2, 5))
    shifts = draw(st.lists(st.sampled_from([0.0, 0.5, 2.0]), min_size=k, max_size=k))
    # a shift of 0 leaves the entry as drawn, -0.0 included
    values = [
        [draw(tied_entries) + shift if shift else draw(tied_entries) for shift in shifts]
        for _ in range(n)
    ]
    return matrix(values)


class TestCdGroupingInvariance:
    """Row order and a doubling of every entry (exact) change no CD result.

    A monotone transform of one row is no such invariant: the pairwise
    Wilcoxon tests run on the raw differences.
    """

    @settings(max_examples=300, deadline=None)
    @given(shifted_matrices(), st.randoms(use_true_random=False), st.sampled_from([0.05, 0.2]))
    def test_row_order_and_doubling(self, m, rng, alpha):
        expected = repr(cd_grouping(m, alpha))
        rows = list(zip(m.projects, m.values))
        rng.shuffle(rows)
        shuffled = ScoreMatrix(m.approaches, [p for p, _ in rows], [v for _, v in rows])
        assert repr(cd_grouping(shuffled, alpha)) == expected
        doubled = [[2 * entry for entry in row] for row in m.values]
        assert repr(cd_grouping(matrix(doubled), alpha)) == expected


# --- the chi-square tail against scipy.special.chdtrc -----------------------


def tail_bound(df, expected):
    """README's bound on |stats._chdtrc(df, x) - chdtrc(df, x)|, where chdtrc gives ``expected``.

    Below p = 1e-100 and at 40 degrees of freedom or fewer the bound widens to
    5e-13: there both sides take one exp of a logarithm near ln p, and chdtrc
    itself is up to 1.0e-13 off the exact tail (df = 1, x = 1279.88, against
    mpmath at 60 digits).
    """
    if expected < 1e-300:
        return 1e-300
    if df > 40:
        return 5e-12 * expected
    return (1e-13 if expected >= 1e-100 else 5e-13) * expected


@st.composite
def chi_square_points(draw):
    """(df, x) of a Friedman test over 2 to 2000 approaches, x from near 0 to 50 df + 100."""
    df = draw(st.one_of(st.integers(1, 40), st.integers(1, 1999)))
    x = draw(
        st.one_of(
            st.floats(0, 2 * df, exclude_min=True),  # where a Friedman statistic falls
            st.floats(0, 50 * df + 100, exclude_min=True),
        )
    )
    return df, x


@st.composite
def temme_points(draw):
    """(df, x) of a Friedman test over 42 to 2000 approaches in Temme's band.

    scipy's igamc(df / 2, x / 2) takes Temme's expansion there, and the closed
    form adds its most terms.
    """
    df = draw(st.one_of(st.integers(42, 401), st.integers(42, 2000))) - 1
    a = df / 2
    width = 0.3 if a < 200 else 4.5 / math.sqrt(a)
    half = a * (1 + draw(st.floats(-width, width, exclude_min=True, exclude_max=True)))
    return df, 2 * half


class TestChiSquareTail:
    @settings(max_examples=3000, deadline=None)
    @given(chi_square_points())
    def test_within_bound_of_scipy(self, point):
        df, x = point
        expected = float(chdtrc(df, x))
        assert abs(stats._chdtrc(df, x) - expected) <= tail_bound(df, expected)

    @settings(max_examples=3000, deadline=None)
    @given(temme_points())
    def test_temme_band_within_bound_of_scipy(self, point):
        df, x = point
        expected = float(chdtrc(df, x))
        assert abs(stats._chdtrc(df, x) - expected) <= tail_bound(df, expected)

    def test_on_a_grid(self):
        for df in range(1, 31):
            for x in [0.0, 1e-6, 0.01, 0.5, 1.0, 2.5, 7.0, 15.0, 40.0, 120.0, 1e3]:
                expected = float(chdtrc(df, x))
                assert abs(stats._chdtrc(df, x) - expected) <= tail_bound(df, expected)

    @pytest.mark.parametrize("df", [1, 2, 41, 1000])
    @pytest.mark.parametrize("x", [0.0, 5e-324, 1e-300, 1e308])
    def test_edges_equal_scipy(self, df, x):
        assert repr(stats._chdtrc(df, x)) == repr(float(chdtrc(df, x)))
