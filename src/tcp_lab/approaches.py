"""Base (non-combinator) prioritization approaches.

History-based approaches score each case from previously observed cycles,
most of them through exponential smoothing of per-case observations; the
code-distance approach orders cases along a greedy farthest-neighbour chain
through a bag-of-tokens representation of their source texts.

Scoring conventions: a case's smoothed state updates only on cycles where
the case actually ran, and state is retained if a case disappears from the
suite and later returns.
"""

from __future__ import annotations

import enum
import random
import re
from collections import Counter
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from tcp_lab.model import (
    Approach,
    InputError,
    RankedSuite,
    TestCaseId,
    TestExecution,
    ranked_from_scores,
)

# numpy is imported inside the functions that use it, so that history-only
# approaches never pay for loading it. The code-distance constructors load it
# through ``SourceVectors.prepare``: the one-time load then happens in
# ``build``, never inside a timed ``rank`` (without sources a rank of a
# non-empty suite needs no numpy at all).
if TYPE_CHECKING:
    import numpy as np

DEFAULT_ALPHA = 0.8

# Guard against division by a zero smoothed duration in failure-density scores.
ZERO_DURATION_EPSILON = 1e-9


class AlphaRangeError(ValueError):
    """Smoothing factor outside (0, 1]."""

    def __init__(self, alpha: float):
        super().__init__(f"ALPHA_OUT_OF_RANGE: alpha must be in (0, 1], got {alpha}")


def _check_alpha(alpha: float) -> float:
    if not 0 < alpha <= 1:
        raise AlphaRangeError(alpha)
    return alpha


class _ZeroDefault(dict):
    """A dict that reads 0.0 for a missing key, without storing it."""

    def __missing__(self, key: object) -> float:
        return 0.0


class SmoothedSeries:
    """Per-case exponentially smoothed values, lazily initialized at 0.

    ``value(case)`` is the dict lookup itself, so that scoring a suite calls
    no Python function per case seen before. ``update`` reads with ``get``,
    which skips the ``__missing__`` call for a case seen for the first time.
    """

    value: Callable[[TestCaseId], float]

    def __init__(self, alpha: float):
        self.alpha = _check_alpha(alpha)
        self._values: dict[TestCaseId, float] = _ZeroDefault()
        self.value = self._values.__getitem__

    def update(self, case: TestCaseId, observation: float) -> None:
        """Smooth in one observation: alpha*observation + (1-alpha)*previous."""
        alpha = self.alpha
        self._values[case] = alpha * observation + (1 - alpha) * self._values.get(
            case, 0.0
        )


class BaseOrder(Approach):
    """Run the suite in its original arrangement; the no-prioritization baseline."""

    def rank(self, suite: Sequence[TestCaseId]) -> RankedSuite:
        return RankedSuite._trusted(tuple(zip(suite)))


class RandomOrder(Approach):
    """Shuffle the suite uniformly, one fresh sub-seed per cycle.

    The sub-seed advances in ``observe`` so that ranking is repeatable for a
    fixed observe history; two instances with equal seeds replay identically.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._stream = random.Random(seed)
        self._cycle_seed = self._stream.getrandbits(64)

    def rank(self, suite: Sequence[TestCaseId]) -> RankedSuite:
        order = list(suite)
        random.Random(self._cycle_seed).shuffle(order)
        return RankedSuite._trusted(tuple(zip(order)))

    def observe(self, executions: Sequence[TestExecution]) -> None:
        self._cycle_seed = self._stream.getrandbits(64)


class RecentnessOrder(Approach):
    """Cases seen in fewer prior cycles run first; equal counts tie."""

    def __init__(self):
        self._appearances: Counter[TestCaseId] = Counter()

    def rank(self, suite: Sequence[TestCaseId]) -> RankedSuite:
        return ranked_from_scores(suite, self._appearances.__getitem__)

    def observe(self, executions: Sequence[TestExecution]) -> None:
        for execution in executions:
            self._appearances[execution.case] += 1


class Folder(enum.Enum):
    """Aggregation applied to a case's per-cycle failure indicators."""

    SUM = "sum"
    EXP_SMOOTH = "exp_smooth"


class FoldFailsOrder(Approach):
    """Fold each case's failure history into a score; higher scores run first.

    SUM accumulates the number of failing cycles (the total strategy);
    EXP_SMOOTH applies exponential smoothing to the 0/1 failure indicator,
    which weighs recent failures more. ``score(case)`` is the lookup of
    that state.
    """

    score: Callable[[TestCaseId], float]

    def __init__(self, folder: Folder = Folder.SUM, alpha: float = DEFAULT_ALPHA):
        self.folder = Folder(folder)
        self._sums: Counter[TestCaseId] = Counter()
        if self.folder is Folder.EXP_SMOOTH:
            self._smoothed = SmoothedSeries(alpha)
            self.score = self._smoothed.value
        else:
            _check_alpha(alpha)
            self._smoothed = None
            self.score = self._sums.__getitem__

    def rank(self, suite: Sequence[TestCaseId]) -> RankedSuite:
        return ranked_from_scores(suite, self.score, descending=True)

    def observe(self, executions: Sequence[TestExecution]) -> None:
        for execution in executions:
            indicator = 1.0 if execution.failed else 0.0
            if self._smoothed is not None:
                self._smoothed.update(execution.case, indicator)
            else:
                self._sums[execution.case] += int(indicator)


class ExeTimeOrder(Approach):
    """Cheapest-first by exponentially smoothed execution time.

    Unseen cases score 0 and therefore lead the ranking as one tie group.
    """

    def __init__(self, alpha: float = DEFAULT_ALPHA):
        self._smoothed = SmoothedSeries(alpha)
        self.score = self._smoothed.value

    def rank(self, suite: Sequence[TestCaseId]) -> RankedSuite:
        return ranked_from_scores(suite, self.score)

    def observe(self, executions: Sequence[TestExecution]) -> None:
        for execution in executions:
            self._smoothed.update(execution.case, execution.duration)


class FailDensityOrder(Approach):
    """Rank by smoothed failures divided by smoothed execution time."""

    def __init__(
        self,
        alpha_fail: float = DEFAULT_ALPHA,
        alpha_time: float = DEFAULT_ALPHA,
    ):
        self._fails = SmoothedSeries(alpha_fail)
        self._times = SmoothedSeries(alpha_time)

    def score(self, case: TestCaseId) -> float:
        return self._fails.value(case) / max(
            self._times.value(case), ZERO_DURATION_EPSILON
        )

    def rank(self, suite: Sequence[TestCaseId]) -> RankedSuite:
        return ranked_from_scores(suite, self.score, descending=True)

    def observe(self, executions: Sequence[TestExecution]) -> None:
        for execution in executions:
            self._fails.update(execution.case, 1.0 if execution.failed else 0.0)
            self._times.update(execution.case, execution.duration)


_NON_ALNUM = re.compile(r"[^0-9A-Za-z]+")
_CAMEL_HUMP = re.compile(r"(?<=[a-z0-9])(?=[A-Z])|(?<=[A-Z])(?=[A-Z][a-z])")


def tokenize(source: str) -> Counter[str]:
    """Bag-of-tokens representation of a source text.

    Splits on non-alphanumeric boundaries and camelCase humps, lowercases,
    and counts. Empty text gives an empty vector.
    """
    counts: Counter[str] = Counter()
    for chunk in _NON_ALNUM.split(source):
        for token in _CAMEL_HUMP.split(chunk):
            if token:
                counts[token.lower()] += 1
    return counts


class DistanceMetric(enum.Enum):
    MANHATTAN = "manhattan"
    EUCLIDEAN = "euclidean"
    COSINE_DISTANCE = "cosine"


class StartPolicy(enum.Enum):
    FARTHEST_PAIR = "farthest_pair"
    FIRST_CASE = "first_case"


# Token counts are integers, so every distance below is computed exactly in
# float64 (whatever order BLAS sums in) while squared norms stay under this.
_EXACT_SQUARED_NORM = 2**51

# Largest key matrix kept per metric over all of a project's sourced cases.
# Above it each rank computes the keys over its suite's rows instead.
_KEY_MATRIX_BYTES = 64 * 2**20


class SourceTooLargeError(InputError):
    """A source's token counts too large for exact code distances."""

    code = "SOURCE_TOO_LARGE"

    def __init__(self, case: TestCaseId):
        super().__init__(f"{self.code}: source of {case!r} too large for exact code distances")


class SourceVectors:
    """Tokenized vectors for a project's case sources, and their distance keys.

    On first use every source is tokenized once into one integer token-count
    matrix with a row per case, kept for all later cycles. Cases without a
    source text get the empty vector. For each metric in use, the pairwise
    keys between all sourced cases (and the empty vector) are computed once
    too, unless that matrix would exceed ``_KEY_MATRIX_BYTES``. The
    code-distance nodes call :meth:`prepare` when they are constructed, so
    that neither step falls in a timed rank.
    """

    def __init__(self, sources: Mapping[TestCaseId, str] | None):
        self._sources = sources or {}
        self._rows: dict[TestCaseId, int] = {}
        self._counts: np.ndarray | None = None
        self._keys: dict[DistanceMetric, np.ndarray | None] = {}

    @classmethod
    def of(cls, sources: SourceVectors | Mapping[TestCaseId, str] | None) -> SourceVectors:
        """``sources`` itself if already vectors, else new vectors over it."""
        return sources if isinstance(sources, SourceVectors) else cls(sources)

    def has_sources(self, cases: Sequence[TestCaseId]) -> bool:
        """Whether any of the cases has a source text, even an empty one.

        When none has, every distance key between them is 0.
        """
        return not self._sources.keys().isdisjoint(cases)

    def matrix(self) -> np.ndarray:
        """The token-count matrix, built on the first call."""
        if self._counts is None:
            import numpy as np

            vectors = [tokenize(text) for text in self._sources.values()]
            columns: dict[str, int] = {}
            for vector in vectors:
                for token in vector:
                    columns.setdefault(token, len(columns))
            # the last row stays zero: the empty vector of source-less cases
            counts = np.zeros((len(vectors) + 1, len(columns)), dtype=np.int64)
            for row, (case, vector) in enumerate(zip(self._sources, vectors)):
                self._rows[case] = row
                counts[row, [columns[token] for token in vector]] = list(vector.values())
            squared_norms = (counts * counts).sum(axis=1)
            if squared_norms.max() >= _EXACT_SQUARED_NORM:
                raise SourceTooLargeError(list(self._sources)[squared_norms.argmax()])
            self._counts = counts
        return self._counts

    def prepare(self, metric: DistanceMetric) -> None:
        """Tokenize, and compute the metric's keys between all sourced cases.

        The key matrix is kept only within ``_KEY_MATRIX_BYTES``. Without
        sources there is nothing to prepare: every key is 0.
        """
        metric = DistanceMetric(metric)
        if metric not in self._keys and self._sources:
            counts = self.matrix()
            fits = len(counts) ** 2 * 8 <= _KEY_MATRIX_BYTES
            self._keys[metric] = _pairwise_keys(counts, metric) if fits else None

    def distances(
        self, cases: Sequence[TestCaseId], metric: DistanceMetric
    ) -> np.ndarray:
        """Pairwise distance keys between the cases' token-count vectors.

        Entry [i, j] for vectors u and v of cases i and j is, by metric: the
        Manhattan distance sum |u - v|; the *squared* Euclidean distance
        sum (u - v)**2, which orders pairs as the distance does; or the
        cosine distance max(0, 1 - u.v / (|u| |v|)), which is 1 when exactly
        one of the vectors is empty and 0 when both are.
        """
        import numpy as np

        metric = DistanceMetric(metric)
        self.prepare(metric)
        matrix = self.matrix()
        empty = len(matrix) - 1
        rows = np.array([self._rows.get(case, empty) for case in cases], dtype=np.intp)
        keys = self._keys.get(metric)
        if keys is None:
            return _pairwise_keys(matrix[rows], metric)
        return keys[np.ix_(rows, rows)]


def _pairwise_keys(counts: np.ndarray, metric: DistanceMetric) -> np.ndarray:
    """Pairwise distance keys between the rows of a token-count matrix.

    The one computation behind :meth:`SourceVectors.distances`, over all
    sourced cases or over one suite's rows. Every entry is exact, so both
    give the same keys for the same pair.
    """
    import numpy as np

    counts = counts[:, counts.any(axis=0)].astype(np.float64)
    if metric is DistanceMetric.MANHATTAN:
        return _manhattan(counts)
    dot = counts @ counts.T
    squared = np.diag(dot).copy()
    if metric is DistanceMetric.EUCLIDEAN:
        return squared[:, None] + squared[None, :] - 2 * dot
    norm = np.sqrt(squared)
    with np.errstate(divide="ignore", invalid="ignore"):
        keys = np.maximum(0.0, 1.0 - dot / (norm[:, None] * norm[None, :]))
    is_empty = squared == 0
    keys[is_empty[:, None] != is_empty[None, :]] = 1.0
    keys[is_empty[:, None] & is_empty[None, :]] = 0.0
    return keys


def _manhattan(counts: np.ndarray) -> np.ndarray:
    """Pairwise L1 distances between rows of a non-negative integer matrix.

    |a - b| = a + b - 2 min(a, b), and the sum of min(a, b) over tokens is
    the dot product of the rows' indicators 1[count >= t], summed over t.
    """
    import numpy as np

    totals = counts.sum(axis=1)
    shared = np.zeros((len(counts), len(counts)))
    threshold = 1
    while counts.size:
        at_least = (counts >= threshold).astype(np.float64)
        shared += at_least @ at_least.T
        counts = counts[:, (counts > threshold).any(axis=0)]
        threshold += 1
    return totals[:, None] + totals[None, :] - 2 * shared


def farthest_pair_start(
    suite: Sequence[TestCaseId], distances: np.ndarray
) -> TestCaseId:
    """Member of the maximum-distance pair with the lower original position.

    ``distances`` holds the pairwise distance keys over ``suite``. Ties
    between pairs resolve to the earliest pair in position order: ``argmax``
    over the row-major matrix, with the diagonal and lower triangle masked,
    returns the first maximal pair (i, j) with i < j.
    """
    import numpy as np

    n = len(suite)
    if n < 2:
        return suite[0]
    upper = np.where(np.tri(n, dtype=bool), -np.inf, distances)
    return suite[int(np.argmax(upper)) // n]


class CodeDistOrder(Approach):
    """Greedy longest-distance chain through the code representation space.

    Starting per policy, repeatedly appends the unvisited case farthest from
    the last chosen one; distance ties resolve to the original order. Exact
    longest-path search would be intractable, hence the greedy step.
    """

    def __init__(
        self,
        metric: DistanceMetric = DistanceMetric.EUCLIDEAN,
        start: StartPolicy = StartPolicy.FARTHEST_PAIR,
        sources: SourceVectors | Mapping[TestCaseId, str] | None = None,
    ):
        self.metric = DistanceMetric(metric)
        self.start = StartPolicy(start)
        self._vectors = SourceVectors.of(sources)
        self._vectors.prepare(self.metric)  # outside any timed rank

    def rank(self, suite: Sequence[TestCaseId]) -> RankedSuite:
        if suite and not self._vectors.has_sources(suite):
            # every key is 0: the chain is the suite order
            return RankedSuite._trusted(tuple(zip(suite)))
        import numpy as np

        distances = self._vectors.distances(suite, self.metric)
        last = 0
        if self.start is StartPolicy.FARTHEST_PAIR:
            last = suite.index(farthest_pair_start(suite, distances))
        visited = np.zeros(len(suite), dtype=bool)
        visited[last] = True
        chain = [suite[last]]
        for _ in range(len(suite) - 1):
            last = int(np.argmax(np.where(visited, -1.0, distances[last])))
            visited[last] = True
            chain.append(suite[last])
        return RankedSuite._trusted(tuple(zip(chain)))
