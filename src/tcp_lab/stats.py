"""Nonparametric comparison of approaches across subject programs.

The comparison protocol is an omnibus Friedman test over per-project scores
followed, only on rejection, by pairwise two-sided Wilcoxon signed-rank
tests with Holm adjustment. Groupings for critical-difference diagrams
connect approaches whose pairwise differences are all non-significant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

# Largest number of non-zero differences for which the exact Wilcoxon null
# distribution is enumerated; above this the normal approximation with
# continuity and tie corrections is used.
WILCOXON_EXACT_LIMIT = 20


class DegenerateMatrixError(ValueError):
    """Score matrix too small, ragged, or containing non-finite entries."""


@dataclass(frozen=True)
class ScoreMatrix:
    """Rows are subject programs, columns approaches, entries per-project means."""

    approaches: tuple[str, ...]
    projects: tuple[str, ...]
    values: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "approaches", tuple(self.approaches))
        object.__setattr__(self, "projects", tuple(self.projects))
        object.__setattr__(
            self, "values", tuple(tuple(row) for row in self.values)
        )
        if len(self.approaches) < 2:
            raise DegenerateMatrixError("need at least 2 approaches")
        if len(self.projects) < 2:
            raise DegenerateMatrixError("need at least 2 projects")
        if len(self.values) != len(self.projects):
            raise DegenerateMatrixError("one row per project required")
        for row in self.values:
            if len(row) != len(self.approaches):
                raise DegenerateMatrixError("ragged score matrix")
            for entry in row:
                if not math.isfinite(entry):
                    raise DegenerateMatrixError(f"non-finite entry {entry!r}")

    def column(self, approach: str) -> tuple[float, ...]:
        j = self.approaches.index(approach)
        return tuple(row[j] for row in self.values)


def _average_ranks(keys: Sequence[float]) -> list[float]:
    """Ranks of ``keys`` in ascending order, from 1; ties get their average."""
    n = len(keys)
    order = sorted(range(n), key=keys.__getitem__)
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and keys[order[j + 1]] == keys[order[i]]:
            j += 1
        average = (i + j) / 2 + 1
        for t in range(i, j + 1):
            ranks[order[t]] = average
        i = j + 1
    return ranks


@dataclass(frozen=True)
class FriedmanResult:
    statistic: float
    p_value: float
    mean_ranks: tuple[float, ...]


def friedman(matrix: ScoreMatrix) -> FriedmanResult:
    """Friedman test in the classic chi-square mean-rank form.

    Ranks are assigned within each project row (best score = rank 1, ties
    averaged); the statistic follows chi-square with k-1 degrees of freedom
    under the null of no difference between approaches.
    """
    k = len(matrix.approaches)
    n = len(matrix.projects)
    rank_sums = [0.0] * k
    for row in matrix.values:
        # the highest score gets rank 1
        for j, rank in enumerate(_average_ranks([-v for v in row])):
            rank_sums[j] += rank
    mean_ranks = tuple(total / n for total in rank_sums)
    center = (k + 1) / 2
    statistic = 12.0 * n / (k * (k + 1)) * sum(
        (rank - center) ** 2 for rank in mean_ranks
    )
    # the chi-square survival function: scipy.stats.chi2.sf bit for bit below
    # 42 approaches, within 1e-13 relative at 42 or more (see _chdtrc)
    p_value = _chdtrc(k - 1, statistic)
    return FriedmanResult(statistic, p_value, mean_ranks)


@dataclass(frozen=True)
class WilcoxonResult:
    """Two-sided signed-rank test outcome.

    ``all_zero`` flags the degenerate every-difference-zero input, reported
    as p = 1 by convention.
    """

    p_value: float
    n_nonzero: int
    all_zero: bool
    method: str


def _exact_two_sided(ranks: Sequence[float], w_plus: float) -> float:
    # Doubled ranks are integers even with tie-averaged half ranks, allowing
    # an exact subset-sum convolution of the null distribution.
    doubled = [int(round(2 * r)) for r in ranks]
    total = sum(doubled)
    counts = [0] * (total + 1)
    counts[0] = 1
    for r in doubled:
        for s in range(total, r - 1, -1):
            if counts[s - r]:
                counts[s] += counts[s - r]
    w2 = int(round(2 * w_plus))
    universe = 2 ** len(ranks)
    at_most = sum(counts[: w2 + 1]) / universe
    at_least = sum(counts[w2:]) / universe
    return min(1.0, 2.0 * min(at_most, at_least))


def _normal_two_sided(ranks: Sequence[float], w_plus: float) -> float:
    n = len(ranks)
    mean = n * (n + 1) / 4
    variance = n * (n + 1) * (2 * n + 1) / 24
    tie_sizes: dict[float, int] = {}
    for r in ranks:
        tie_sizes[r] = tie_sizes.get(r, 0) + 1
    variance -= sum(t**3 - t for t in tie_sizes.values()) / 48
    correction = 0.5 * (1 if w_plus > mean else -1 if w_plus < mean else 0)
    z = (w_plus - mean - correction) / math.sqrt(variance)
    return min(1.0, math.erfc(abs(z) / math.sqrt(2)))


def wilcoxon_signed_rank(pairs: Sequence[tuple[float, float]]) -> WilcoxonResult:
    """Two-sided Wilcoxon signed-rank test on paired samples.

    Zero differences are dropped (Wilcoxon convention). The null
    distribution is exact up to ``WILCOXON_EXACT_LIMIT`` non-zero
    differences and normally approximated above.
    """
    if not pairs:
        raise ValueError("at least one pair required")
    differences = [x - y for x, y in pairs]
    nonzero = [d for d in differences if d != 0]
    if not nonzero:
        return WilcoxonResult(1.0, 0, True, "all_zero")
    ranks = _average_ranks([abs(d) for d in nonzero])
    w_plus = sum(rank for rank, d in zip(ranks, nonzero) if d > 0)
    if len(nonzero) <= WILCOXON_EXACT_LIMIT:
        return WilcoxonResult(
            _exact_two_sided(ranks, w_plus), len(nonzero), False, "exact"
        )
    return WilcoxonResult(
        _normal_two_sided(ranks, w_plus), len(nonzero), False, "normal"
    )


def holm_adjust(p_values: Sequence[float]) -> list[float]:
    """Holm step-down adjustment, returned in the original order."""
    for p in p_values:
        if not 0 <= p <= 1:
            raise ValueError(f"p-value out of [0, 1]: {p}")
    m = len(p_values)
    order = sorted(range(m), key=lambda i: p_values[i])
    adjusted = [0.0] * m
    running = 0.0
    for position, index in enumerate(order):
        candidate = min((m - position) * p_values[index], 1.0)
        running = max(running, candidate)
        adjusted[index] = running
    return adjusted


@dataclass(frozen=True)
class CdGrouping:
    """Critical-difference data: mean ranks plus connected groups.

    Groups are ordered best-first by mean rank; an approach can appear in
    several overlapping groups, and together the groups cover all
    approaches. ``pairwise_p`` holds the Holm-adjusted p-values (empty when
    the omnibus test did not reject).
    """

    mean_ranks: dict[str, float]
    groups: tuple[tuple[str, ...], ...]
    friedman_statistic: float
    friedman_p: float
    pairwise_p: dict[tuple[str, str], float]


def cd_grouping(matrix: ScoreMatrix, alpha: float = 0.05) -> CdGrouping:
    """Group approaches with no pairwise significant differences.

    If the Friedman test does not reject at ``alpha``, a single group
    containing every approach is returned. Otherwise pairwise Wilcoxon tests
    on the per-project scores are Holm-adjusted and approaches are joined
    when no pair inside the group differs at ``alpha``; groups are maximal
    contiguous runs in mean-rank order.
    """
    omnibus = friedman(matrix)
    names = matrix.approaches
    mean_ranks = dict(zip(names, omnibus.mean_ranks))
    by_rank = sorted(names, key=lambda name: mean_ranks[name])
    if omnibus.p_value >= alpha:
        return CdGrouping(
            mean_ranks,
            (tuple(by_rank),),
            omnibus.statistic,
            omnibus.p_value,
            {},
        )
    pairs = [
        (names[a], names[b])
        for a in range(len(names))
        for b in range(a + 1, len(names))
    ]
    raw = [
        wilcoxon_signed_rank(
            list(zip(matrix.column(a), matrix.column(b)))
        ).p_value
        for a, b in pairs
    ]
    adjusted = dict(zip(pairs, holm_adjust(raw)))

    def differs(a: str, b: str) -> bool:
        p = adjusted.get((a, b), adjusted.get((b, a)))
        return p < alpha

    k = len(by_rank)
    groups: list[tuple[str, ...]] = []
    covered_up_to = -1
    for start in range(k):
        end = start
        while end + 1 < k and all(
            not differs(by_rank[end + 1], by_rank[i]) for i in range(start, end + 1)
        ):
            end += 1
        if end > covered_up_to:
            groups.append(tuple(by_rank[start : end + 1]))
            covered_up_to = end
    return CdGrouping(
        mean_ranks,
        tuple(groups),
        omnibus.statistic,
        omnibus.p_value,
        adjusted,
    )


# --- the chi-square tail ---------------------------------------------------
#
# A port of the routine behind scipy.special.chdtrc(df, x), which is
# igamc(df / 2, x / 2), the regularized upper incomplete gamma function of
# cephes (igam.h in scipy's xsf; DiDonato & Morris, ACM TOMS 12, 1986). Every
# step repeats cephes' float operations in the same order, with math's libm
# functions, so the result is bit for bit scipy's. The one branch left out is
# Temme's uniform asymptotic expansion, which cephes takes for a > 20 with x / 2
# near a (|x / 2 - a| / a below 0.3, or below 4.5 / sqrt(a) for a > 200): it
# needs a 25 x 25 coefficient table. There the series and the continued
# fraction below run instead, and agree with scipy to a relative error of at
# most 2.1e-14 (measured on 3 x 10**5 points, 41 to 10 000 degrees of freedom);
# the stated bound is 1e-13. A Friedman test reaches that regime only with 42
# or more approaches, so below 42 friedman_p is scipy's bit for bit.
#
# math.lgamma and math.expm1 are not cephes' lgam and expm1: they differ in
# the last bit for 62 % of uniform draws on (0, 100) and 43 % on (-1, 1),
# hence the ports below.

_MACHEP = 1.11022302462515654042e-16  # 2**-53
_MAXLOG = 7.09782712893383996843e2  # log of the largest double
_MAXITER = 2000
_BIG = 4.503599627370496e15
_BIGINV = 2.22044604925031308085e-16


def _polevl(x: float, coefficients: Sequence[float]) -> float:
    """Horner's rule, highest degree first."""
    result = coefficients[0]
    for c in coefficients[1:]:
        result = result * x + c
    return result


def _ratevl(x: float, numerator: Sequence[float], denominator: Sequence[float]) -> float:
    """Ratio of two polynomials of equal degree; for |x| > 1 evaluated in 1/x."""
    if abs(x) > 1:
        y = 1 / x
        return _polevl(y, numerator[::-1]) / _polevl(y, denominator[::-1])
    return _polevl(x, numerator) / _polevl(x, denominator)


# Stirling's series, and log gamma on [2, 3] as B / C
_LGAM_A = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
_LGAM_B = (
    -1.37825152569120859100e3,
    -3.88016315134637840924e4,
    -3.31612992738871184744e5,
    -1.16237097492762307383e6,
    -1.72173700820839662146e6,
    -8.53555664245765465627e5,
)
_LGAM_C = (
    1.0,
    -3.51815701436523470549e2,
    -1.70642106651881159223e4,
    -2.20528590553854454839e5,
    -1.13933444367982507207e6,
    -2.53252307177582951285e6,
    -2.01889141433532773231e6,
)
_LOG_SQRT_2PI = 0.91893853320467274178


def _lgam(x: float) -> float:
    """cephes ``lgam``: log gamma(x), for x > 0."""
    if x < 13.0:
        # shift into [2, 3), carrying the product of the steps in z
        z = 1.0
        p = 0.0
        u = x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        p -= 2.0
        x = x + p
        p = x * _polevl(x, _LGAM_B) / _polevl(x, _LGAM_C)
        return math.log(z) + p
    q = (x - 0.5) * math.log(x) - x + _LOG_SQRT_2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        q += (
            (7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
            + 0.0833333333333333333333
        ) / x
    else:
        q += _polevl(p, _LGAM_A) / x
    return q


_EXPM1_P = (
    1.2617719307481059087798e-4,
    3.0299440770744196129956e-2,
    9.9999999999999999991025e-1,
)
_EXPM1_Q = (
    3.0019850513866445504159e-6,
    2.5244834034968410419224e-3,
    2.2726554820815502876593e-1,
    2.0000000000000000000897e0,
)


def _expm1(x: float) -> float:
    """cephes ``expm1``: exp(x) - 1, for finite x."""
    if x < -0.5 or x > 0.5:
        return math.exp(x) - 1.0
    xx = x * x
    r = x * _polevl(xx, _EXPM1_P)
    r = r / (_polevl(xx, _EXPM1_Q) - r)
    return r + r


# Euler-Maclaurin remainder coefficients (2k)! / B_2k
_ZETA_A = (
    12.0,
    -720.0,
    30240.0,
    -1209600.0,
    47900160.0,
    -1.8924375803183791606e9,
    7.47242496e10,
    -2.950130727918164224e12,
    1.1646782814350067249e14,
    -4.5979787224074726105e15,
    1.8152105401943546773e17,
    -7.1661652561756670113e18,
)


def _zeta1(x: float) -> float:
    """cephes ``zeta(x, 1)``, the Riemann zeta function, for x > 1."""
    s = 1.0
    a = 1.0
    i = 0
    b = 0.0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = a**-x
        s += b
        if abs(b / s) < _MACHEP:
            return s
    w = a
    s += b * w / (x - 1.0)
    s -= 0.5 * b
    a = 1.0
    k = 0.0
    for coefficient in _ZETA_A:
        a *= x + k
        b /= w
        t = a * b / coefficient
        s = s + t
        if abs(t / s) < _MACHEP:
            return s
        k += 1.0
        a *= x + k
        b /= w
        k += 1.0
    return s


_EULER = 0.577215664901532860606512090082402431


def _lgam1p_taylor(x: float) -> float:
    if x == 0:
        return 0.0
    res = -_EULER * x
    xfac = -x
    for n in range(2, 42):
        xfac *= -x
        coeff = _zeta1(n) * xfac / n
        res += coeff
        if abs(coeff) < _MACHEP * abs(res):
            break
    return res


def _lgam1p(x: float) -> float:
    """cephes ``lgam1p``: log gamma(1 + x), accurate near x = 0 and x = 1."""
    if abs(x) <= 0.5:
        return _lgam1p_taylor(x)
    if abs(x - 1) < 0.5:
        return math.log(x) + _lgam1p_taylor(x - 1)
    return _lgam(x + 1)


def _log1pmx(x: float) -> float:
    """cephes ``log1pmx``: log(1 + x) - x."""
    if abs(x) < 0.5:
        xfac = x
        res = 0.0
        for n in range(2, 500):
            xfac *= -x
            term = xfac / n
            res += term
            if abs(term) < _MACHEP * abs(res):
                break
        return res
    return math.log1p(x) - x


# Lanczos approximation, 13 terms (Boost's lanczos13m53), scaled by exp(-g)
_LANCZOS_G = 6.024680040776729583740234375
_LANCZOS_NUM = (
    0.006061842346248906525783753964555936883222,
    0.5098416655656676188125178644804694509993,
    19.51992788247617482847860966235652136208,
    449.9445569063168119446858607650988409623,
    6955.999602515376140356310115515198987526,
    75999.29304014542649875303443598909137092,
    601859.6171681098786670226533699352302507,
    3481712.15498064590882071018964774556468,
    14605578.08768506808414169982791359218571,
    43338889.32467613834773723740590533316085,
    86363131.28813859145546927288977868422342,
    103794043.1163445451906271053616070238554,
    56906521.91347156388090791033559122686859,
)
_LANCZOS_DENOM = (
    1.0,
    66.0,
    1925.0,
    32670.0,
    357423.0,
    2637558.0,
    13339535.0,
    45995730.0,
    105258076.0,
    150917976.0,
    120543840.0,
    39916800.0,
    0.0,
)


def _igam_fac(a: float, x: float) -> float:
    """x**a * exp(-x) / gamma(a), through Lanczos when x is near a."""
    if abs(a - x) > 0.4 * abs(a):
        ax = a * math.log(x) - x - _lgam(a)
        if ax < -_MAXLOG:
            return 0.0
        return math.exp(ax)
    fac = a + _LANCZOS_G - 0.5
    res = math.sqrt(fac / math.exp(1)) / _ratevl(a, _LANCZOS_NUM, _LANCZOS_DENOM)
    if a < 200 and x < 200:
        res *= math.exp(a - x) * math.pow(x / fac, a)
    else:
        num = x - a - _LANCZOS_G + 0.5
        res *= math.exp(a * _log1pmx(num / fac) + x * (0.5 - _LANCZOS_G) / fac)
    return res


def _igam_series(a: float, x: float) -> float:
    """Lower regularized gamma by its power series (DLMF 8.11.4)."""
    ax = _igam_fac(a, x)
    if ax == 0.0:
        return 0.0
    r = a
    c = 1.0
    ans = 1.0
    for _ in range(_MAXITER):
        r += 1.0
        c *= x / r
        ans += c
        if c <= _MACHEP * ans:
            break
    return ans * ax / a


def _igamc_continued_fraction(a: float, x: float) -> float:
    """Upper regularized gamma by its continued fraction (DLMF 8.9.2)."""
    ax = _igam_fac(a, x)
    if ax == 0.0:
        return 0.0
    y = 1.0 - a
    z = x + y + 1.0
    c = 0.0
    pkm2 = 1.0
    qkm2 = x
    pkm1 = x + 1.0
    qkm1 = z * x
    ans = pkm1 / qkm1
    for _ in range(_MAXITER):
        c += 1.0
        y += 1.0
        z += 2.0
        yc = y * c
        pk = pkm1 * z - pkm2 * yc
        qk = qkm1 * z - qkm2 * yc
        if qk != 0:
            r = pk / qk
            t = abs((ans - r) / r)
            ans = r
        else:
            t = 1.0
        pkm2 = pkm1
        pkm1 = pk
        qkm2 = qkm1
        qkm1 = qk
        if abs(pk) > _BIG:
            pkm2 *= _BIGINV
            pkm1 *= _BIGINV
            qkm2 *= _BIGINV
            qkm1 *= _BIGINV
        if t <= _MACHEP:
            break
    return ans * ax


def _igamc_series(a: float, x: float) -> float:
    """Upper regularized gamma for small x (DLMF 8.7.3), avoiding cancellation."""
    fac = 1.0
    total = 0.0
    for n in range(1, _MAXITER):
        fac *= -x / n
        term = fac / (a + n)
        total += term
        if abs(term) <= _MACHEP * abs(total):
            break
    logx = math.log(x)
    term = -_expm1(a * logx - _lgam1p(a))
    return term - math.exp(a * logx - _lgam(a)) * total


def _chdtrc(df: float, x: float) -> float:
    """Chi-square survival function with ``df`` > 0 degrees of freedom at finite x >= 0."""
    a = df / 2.0
    half = x / 2.0
    if half == 0:
        return 1.0
    if half > 1.1:
        if half < a:
            return 1.0 - _igam_series(a, half)
        return _igamc_continued_fraction(a, half)
    if half <= 0.5:
        if -0.4 / math.log(half) < a:
            return 1.0 - _igam_series(a, half)
        return _igamc_series(a, half)
    if half * 1.1 < a:
        return 1.0 - _igam_series(a, half)
    return _igamc_series(a, half)
