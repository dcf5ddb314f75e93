"""Approach combinators: mixers, interpolators, and tiebreakers.

Combinators treat sub-approaches as black boxes: each cycle every active
child prioritizes the suite independently and only the resulting rankings
are merged. Execution feedback propagates to all children, even those
whose weight currently excludes them from ranking, so children keep
training throughout. A child order that is not exactly the suite raises
:class:`~tcp_lab.model.RankingError` from :func:`tcp_lab.model.check_cases`.

The module also defines the declarative spec-tree format (JSON-compatible
nested dicts) from which :func:`build` constructs approach instances, and
the preset table of ready-made combined approaches.
"""

from __future__ import annotations

import enum
import math
import random
from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from tcp_lab.approaches import (
    DEFAULT_ALPHA,
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
    SourceVectors,
    StartPolicy,
    farthest_pair_start,
)
from tcp_lab.model import (
    Approach,
    FlattenPolicy,
    InputError,
    RankedSuite,
    TestCaseId,
    TestExecution,
    check_cases,
    flatten,
    ranked_from_scores,
    suite_set,
)

# numpy is imported where it is used, and in the constructors of the combined
# approaches that use it (``CodeDistBrokenOrder`` through
# ``SourceVectors.prepare``), so that it loads in ``build`` and never inside a
# timed ``rank``; specs without such a node never load it.
if TYPE_CHECKING:
    import numpy as np


class InvalidSpecError(InputError):
    """An approach spec tree cannot be built."""


def _check_weights(weights: Sequence[float], count: int) -> None:
    if len(weights) != count:
        raise ValueError("one weight per ranking required")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be non-negative")
    if not any(w > 0 for w in weights):
        raise ValueError("at least one weight must be positive")


def random_mix(
    queues: Sequence[Sequence[TestCaseId]],
    weights: Sequence[float],
    seed: int = 0,
) -> RankedSuite:
    """Merge total orders by weighted random draws.

    Each step picks queue ``i`` with probability ``weights[i] / sum`` and
    emits its first not-yet-emitted case. Deterministic per seed.
    """
    if not queues:
        raise ValueError("at least one queue required")
    _check_weights(weights, len(queues))
    reference = list(queues[0])
    members = suite_set(reference)
    for queue in queues[1:]:
        check_cases(queue, members)
    indices = [i for i in range(len(queues)) if weights[i] > 0]
    # the draw of Random.choices(indices, weights=...), with the cumulative
    # weights accumulated once instead of on every draw
    cumulative = list(accumulate(weights[i] for i in indices))
    total = cumulative[-1] + 0.0
    if reference and not math.isfinite(total):
        raise ValueError("Total of weights must be finite")
    last = len(cumulative) - 1
    draw = random.Random(seed).random
    pointers = [0] * len(queues)
    emitted: set[TestCaseId] = set()
    order: list[TestCaseId] = []
    for _ in range(len(reference)):
        picked = indices[bisect(cumulative, draw() * total, 0, last)]
        queue = queues[picked]
        p = pointers[picked]
        while queue[p] in emitted:
            p += 1
        pointers[picked] = p + 1
        emitted.add(queue[p])
        order.append(queue[p])
    return RankedSuite._trusted(tuple(zip(order)))


def borda_mix(
    rankings: Sequence[RankedSuite],
    weights: Sequence[float],
    suite: Sequence[TestCaseId] | None = None,
) -> RankedSuite:
    """Merge rankings by weighted positional (Borda) scoring.

    In a ranking over ``n`` cases the first position is worth ``n - 1``
    points down to 0 for the last; tied cases receive the average of the
    points their positions span. Scores are weight-multiplied and summed;
    the output sorts descending by score with equal scores tied.

    ``suite`` fixes the original case order used inside output tie groups;
    it defaults to the first ranking's case order.
    """
    if not rankings:
        raise ValueError("at least one ranking required")
    _check_weights(weights, len(rankings))
    if suite is None:
        suite = rankings[0].cases()
    members = suite_set(suite)
    for ranking in rankings:
        check_cases(ranking.cases(), members)
    n = len(suite)
    scores: dict[TestCaseId, float] = {case: 0.0 for case in suite}
    for ranking, weight in zip(rankings, weights):
        position = 0
        for group in ranking.groups:
            size = len(group)
            points = n - 1 - position - (size - 1) / 2
            for case in group:
                scores[case] += weight * points
            position += size
    return ranked_from_scores(suite, scores.__getitem__, descending=True)


def pairwise_preferences(
    rankings: Sequence[RankedSuite],
    weights: Sequence[float],
    suite: Sequence[TestCaseId],
) -> np.ndarray:
    """d[x][y] = total weight of rankings placing x strictly before y.

    Weights are added in ranking order, so every sum is the same float as
    when accumulated one preference at a time.
    """
    import numpy as np

    index = {case: i for i, case in enumerate(suite)}
    n = len(suite)
    d = np.zeros((n, n))
    level = np.empty(n, dtype=np.intp)
    for ranking, weight in zip(rankings, weights):
        if weight == 0:
            continue
        for g, group in enumerate(ranking.groups):
            for case in group:
                level[index[case]] = g
        d[level[:, None] < level[None, :]] += weight
    return d


def strongest_paths(d: Sequence[Sequence[float]]) -> np.ndarray:
    """Widest-path strengths: maximize the minimum edge along any path.

    Floyd-Warshall-style relaxation over the preference matrix, one array
    update per pivot k. Row k and column k cannot change during pivot k, so
    the update equals the element-by-element loop. The diagonal is never
    read and is returned as given. The result keeps the input's dtype.
    """
    import numpy as np

    p = np.array(d).reshape(len(d), len(d))
    diagonal = p.diagonal().copy()
    through = np.empty_like(p)
    for k in range(len(p)):
        np.minimum(p[:, k : k + 1], p[k : k + 1, :], out=through)
        np.maximum(p, through, out=p)
    np.fill_diagonal(p, diagonal)
    return p


def schulze_mix(
    rankings: Sequence[RankedSuite],
    weights: Sequence[float],
    suite: Sequence[TestCaseId] | None = None,
) -> RankedSuite:
    """Merge rankings with the Schulze (strongest-path) method.

    x beats y iff the strongest path from x to y is stronger than the one
    from y to x; cases are ordered by descending count of beaten opponents,
    equal counts tied. This satisfies the majority winner rule and costs
    O(n^3).

    Every path strength is one of the preference values, and min and max
    commute with any strictly increasing map. So the relaxation runs on each
    value's rank among the distinct values, in the smallest unsigned integer
    type that holds them, and compares the same way as on the floats.
    """
    if not rankings:
        raise ValueError("at least one ranking required")
    _check_weights(weights, len(rankings))
    if suite is None:
        suite = rankings[0].cases()
    members = suite_set(suite)
    for ranking in rankings:
        check_cases(ranking.cases(), members)
    import numpy as np

    n = len(suite)
    values, codes = np.unique(pairwise_preferences(rankings, weights, suite), return_inverse=True)
    p = strongest_paths(codes.reshape(n, n).astype(np.min_scalar_type(len(values))))
    beats = dict(zip(suite, (p > p.T).sum(axis=1).tolist()))
    return ranked_from_scores(suite, beats.__getitem__, descending=True)


class CountMode(enum.Enum):
    """Which replayed cycles advance an interpolator's progress."""

    FAILED_CYCLES = "failed_cycles"
    ALL_CYCLES = "all_cycles"


def break_ties(primary: RankedSuite, secondary: RankedSuite) -> RankedSuite:
    """Refine each primary tie group by the secondary ranking's relative order.

    Secondary residual ties persist in the output. Group boundaries of the
    primary ranking are never crossed.
    """
    check_cases(secondary.cases(), suite_set(primary.cases()))
    secondary_group: dict[TestCaseId, int] = {}
    secondary_position: dict[TestCaseId, int] = {}
    for g, group in enumerate(secondary.groups):
        for case in group:
            secondary_group[case] = g
            secondary_position[case] = len(secondary_position)
    groups: list[list[TestCaseId]] = []
    for primary_group in primary.groups:
        last_group = None
        for case in sorted(primary_group, key=secondary_position.__getitem__):
            if secondary_group[case] == last_group:
                groups[-1].append(case)
            else:
                groups.append([case])
                last_group = secondary_group[case]
    return RankedSuite._trusted(tuple(map(tuple, groups)))


def break_ties_codedist(
    primary: RankedSuite,
    vectors: SourceVectors,
    metric: DistanceMetric,
) -> RankedSuite:
    """Refine primary tie groups by farthest-point selection in code space.

    Groups are processed in order; within a group the next pick maximizes
    the minimum distance to everything already prioritized, across the whole
    suite rather than per group. The very first pick applies the
    farthest-pair start rule restricted to the first group. Distance ties
    resolve to the original order.
    """
    cases = primary.cases()
    if not vectors.has_sources(cases):
        # every key is 0: each pick is the first case still pending
        return RankedSuite._trusted(tuple(zip(cases)))
    import numpy as np

    distances = vectors.distances(cases, metric)
    min_dist = np.full(len(cases), np.inf)
    picked: list[TestCaseId] = []
    start = 0
    for group in primary.groups:
        members = slice(start, start + len(group))
        start += len(group)
        pending = np.ones(len(group), dtype=bool)
        for _ in group:
            if picked:
                i = int(np.argmax(np.where(pending, min_dist[members], -1.0)))
            else:
                i = group.index(farthest_pair_start(group, distances[members, members]))
            pending[i] = False
            picked.append(group[i])
            np.minimum(min_dist, distances[members.start + i], out=min_dist)
    return RankedSuite._trusted(tuple(zip(picked)))


class _Combined(Approach):
    """Shared feedback propagation over child approaches."""

    def __init__(self, children: Sequence[Approach]):
        self._children = list(children)

    def observe(self, executions: Sequence[TestExecution]) -> None:
        for child in self._children:
            child.observe(executions)

    def _active(self, weights: Sequence[float]) -> tuple[list[Approach], list[float]]:
        """The children with positive weight, and their weights."""
        active = [
            (child, weight) for child, weight in zip(self._children, weights) if weight > 0
        ]
        return [c for c, _ in active], [w for _, w in active]


class _MixedOrder(_Combined):
    """Base for mixers: weighted children, zero-weight ones never ranked.

    A mixer's weights never change, so the children it ranks and their
    weights are fixed in the constructor.
    """

    def __init__(self, children: Sequence[tuple[Approach, float]]):
        approaches = [child for child, _ in children]
        weights = [weight for _, weight in children]
        if not children:
            raise ValueError("a mixer needs at least one child")
        _check_weights(weights, len(children))
        super().__init__(approaches)
        self._ranked, self._weights = self._active(weights)


class RandomMixedOrder(_MixedOrder):
    """Mixer emitting cases by weighted random draws from child queues."""

    def __init__(self, children: Sequence[tuple[Approach, float]], seed: int = 0):
        super().__init__(children)
        self.seed = seed
        self._stream = random.Random(seed)
        self._cycle_seed = self._stream.getrandbits(64)

    def rank(self, suite: Sequence[TestCaseId]) -> RankedSuite:
        queues = [
            flatten(child.rank(suite), FlattenPolicy.STABLE) for child in self._ranked
        ]
        return random_mix(queues, self._weights, seed=self._cycle_seed)

    def observe(self, executions: Sequence[TestExecution]) -> None:
        super().observe(executions)
        self._cycle_seed = self._stream.getrandbits(64)


class BordaMixedOrder(_MixedOrder):
    """Mixer merging child rankings by weighted Borda count."""

    def rank(self, suite: Sequence[TestCaseId]) -> RankedSuite:
        rankings = [child.rank(suite) for child in self._ranked]
        return borda_mix(rankings, self._weights, suite=suite)


class SchulzeMixedOrder(_MixedOrder):
    """Mixer merging child rankings by the Schulze method."""

    def __init__(self, children: Sequence[tuple[Approach, float]]):
        import numpy  # noqa: F401  (loaded here, outside any timed rank)

        super().__init__(children)

    def rank(self, suite: Sequence[TestCaseId]) -> RankedSuite:
        rankings = [child.rank(suite) for child in self._ranked]
        return schulze_mix(rankings, self._weights, suite=suite)


class InterpolatedOrder(_Combined):
    """Shift weight from a before-approach to an after-approach as cycles pass.

    Realized as a Borda mix of the two children under the interpolation
    weights; both children receive feedback every cycle, so the after child
    trains during the before phase. Progress counts failed cycles or all
    cycles depending on the mode, advancing only on replayed cycles.
    """

    def __init__(
        self,
        before: Approach,
        after: Approach,
        cutoff: int,
        count_mode: CountMode = CountMode.FAILED_CYCLES,
    ):
        super().__init__([before, after])
        if cutoff < 1:
            raise ValueError("cutoff must be >= 1")
        self.before = before
        self.after = after
        self.cutoff = cutoff
        self.count_mode = CountMode(count_mode)
        self._progress = 0

    @property
    def progress(self) -> int:
        return self._progress

    def rank(self, suite: Sequence[TestCaseId]) -> RankedSuite:
        f = min(self._progress / self.cutoff, 1.0)
        children, weights = self._active((1.0 - f, f))
        rankings = [child.rank(suite) for child in children]
        return borda_mix(rankings, weights, suite=suite)

    def observe(self, executions: Sequence[TestExecution]) -> None:
        super().observe(executions)
        if self.count_mode is CountMode.ALL_CYCLES or any(
            e.failed for e in executions
        ):
            self._progress += 1


class GenericBrokenOrder(_Combined):
    """Tiebreaker running a secondary approach inside each primary tie group."""

    def __init__(self, primary: Approach, secondary: Approach):
        super().__init__([primary, secondary])
        self.primary = primary
        self.secondary = secondary

    def rank(self, suite: Sequence[TestCaseId]) -> RankedSuite:
        return break_ties(self.primary.rank(suite), self.secondary.rank(suite))


class CodeDistBrokenOrder(_Combined):
    """Tiebreaker spreading picks across the code representation space."""

    def __init__(
        self,
        primary: Approach,
        metric: DistanceMetric = DistanceMetric.EUCLIDEAN,
        sources: SourceVectors | Mapping[TestCaseId, str] | None = None,
    ):
        super().__init__([primary])
        self.primary = primary
        self.metric = DistanceMetric(metric)
        self._vectors = SourceVectors.of(sources)
        self._vectors.prepare(self.metric)  # outside any timed rank

    def rank(self, suite: Sequence[TestCaseId]) -> RankedSuite:
        return break_ties_codedist(self.primary.rank(suite), self._vectors, self.metric)


# --- declarative spec trees ------------------------------------------------

_ORDER_SUFFIX = "_order"
_REQUIRED = object()


def _number(key: str, value: object) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise InvalidSpecError(f"{key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # a JSON integer beyond the float range
        bits = value.bit_length()
        raise InvalidSpecError(f"{key} must fit in a float, got a {bits}-bit integer") from None


def _positive_int(key: str, value: object) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise InvalidSpecError(f"{key} must be a positive integer, got {value!r}")
    return value


def _choice(kind: type[enum.Enum], label: str) -> Callable[[str, object], enum.Enum]:
    def parse(key: str, value: object) -> enum.Enum:
        try:
            return kind(value)
        except ValueError:
            raise InvalidSpecError(f"unknown {label} {value!r}") from None

    return parse


@dataclass(frozen=True)
class _NodeType:
    """How one spec node type is checked and built.

    ``params`` are ``(key, parser, default)`` triples, parsed in order and
    passed to ``constructor`` by key; a ``_REQUIRED`` default makes the key
    mandatory. ``slots`` name the child specs, passed positionally:
    ``children`` is a mixer's list of weighted specs, any other slot holds
    one spec and is mandatory. A ``randomized`` node takes an optional
    ``seed`` and draws one from the tree's seed stream either way; a
    ``sources`` node gets the tree's shared :class:`SourceVectors`.
    """

    constructor: Callable[..., Approach]
    params: Sequence[tuple[str, Callable[[str, object], object], object]] = ()
    slots: Sequence[str] = ()
    randomized: bool = False
    sources: bool = False


_ALPHA = ("alpha", _number, DEFAULT_ALPHA)
_METRIC = ("metric", _choice(DistanceMetric, "metric"), DistanceMetric.EUCLIDEAN)

_NODE_TYPES = {
    "base": _NodeType(BaseOrder),
    "random": _NodeType(RandomOrder, randomized=True),
    "recentness": _NodeType(RecentnessOrder),
    "fold_fails": _NodeType(
        FoldFailsOrder, params=[("folder", _choice(Folder, "folder"), Folder.SUM), _ALPHA]
    ),
    "exe_time": _NodeType(ExeTimeOrder, params=[_ALPHA]),
    "fail_density": _NodeType(
        FailDensityOrder,
        params=[("alpha_fail", _number, DEFAULT_ALPHA), ("alpha_time", _number, DEFAULT_ALPHA)],
    ),
    "code_dist": _NodeType(
        CodeDistOrder,
        params=[
            _METRIC,
            ("start", _choice(StartPolicy, "start policy"), StartPolicy.FARTHEST_PAIR),
        ],
        sources=True,
    ),
    "random_mix": _NodeType(RandomMixedOrder, slots=["children"], randomized=True),
    "borda_mix": _NodeType(BordaMixedOrder, slots=["children"]),
    "schulze_mix": _NodeType(SchulzeMixedOrder, slots=["children"]),
    "interpolated": _NodeType(
        InterpolatedOrder,
        params=[
            ("cutoff", _positive_int, _REQUIRED),
            ("count_mode", _choice(CountMode, "count_mode"), CountMode.FAILED_CYCLES),
        ],
        slots=["before", "after"],
    ),
    "break_ties": _NodeType(GenericBrokenOrder, slots=["primary", "secondary"]),
    "break_ties_codedist": _NodeType(
        CodeDistBrokenOrder, params=[_METRIC], slots=["primary"], sources=True
    ),
}

# The three-way mixers blend failure folding, recentness, and execution time
# with the execution-time weight halved; the interpolator hands over from an
# equal Borda mix of execution time and recentness to failure density after
# five failed cycles; the tiebreakers refine the clusters of total-strategy
# failure folding.
_MIXER_CHILDREN = [
    {"weight": 1, "spec": {"type": "fold_fails", "folder": "exp_smooth"}},
    {"weight": 1, "spec": {"type": "recentness"}},
    {"weight": 0.5, "spec": {"type": "exe_time"}},
]

PRESETS: dict[str, Mapping] = {
    "P1.1": {"type": "random_mix", "children": _MIXER_CHILDREN},
    "P1.2": {"type": "borda_mix", "children": _MIXER_CHILDREN},
    "P1.3": {"type": "schulze_mix", "children": _MIXER_CHILDREN},
    "P2": {
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
        "count_mode": "failed_cycles",
    },
    "P3.1": {
        "type": "break_ties",
        "primary": {"type": "fold_fails", "folder": "sum"},
        "secondary": {"type": "exe_time"},
    },
    "P3.2": {
        "type": "break_ties_codedist",
        "primary": {"type": "fold_fails", "folder": "sum"},
        "metric": "euclidean",
    },
}


class _SeedAllocator:
    """Deterministic per-node seeds for randomized specs without explicit ones."""

    def __init__(self, master_seed: int):
        self._rng = random.Random(master_seed)
        self.draws = 0

    def seed_for(self, explicit: object) -> int:
        drawn = self._rng.getrandbits(63)
        self.draws += 1
        if explicit is None:
            return drawn
        if not isinstance(explicit, int) or isinstance(explicit, bool):
            raise InvalidSpecError(f"seed must be an integer, got {explicit!r}")
        return explicit


def _build_children(
    children: object, seeds: _SeedAllocator, sources: SourceVectors
) -> list[tuple[Approach, float]]:
    if not isinstance(children, list) or not children:
        raise InvalidSpecError("a mixer needs a non-empty 'children' list")
    built: list[tuple[Approach, float]] = []
    for entry in children:
        if not isinstance(entry, Mapping) or "spec" not in entry:
            raise InvalidSpecError(
                "each mixer child must be an object with 'weight' and 'spec'"
            )
        weight = entry.get("weight", 1)
        if not isinstance(weight, (int, float)) or isinstance(weight, bool) or weight < 0:
            raise InvalidSpecError(f"child weight must be >= 0, got {weight!r}")
        weight = _number("child weight", weight)
        if not math.isfinite(weight):
            raise InvalidSpecError(f"child weight must be finite, got {weight!r}")
        built.append((_construct(entry["spec"], seeds, sources), weight))
    if not any(weight > 0 for _, weight in built):
        raise InvalidSpecError("a mixer needs at least one child with weight > 0")
    return built


def _construct(
    node: Mapping | str, seeds: _SeedAllocator, sources: SourceVectors
) -> Approach:
    if isinstance(node, str):
        if node not in PRESETS:
            raise InvalidSpecError(f"unknown preset {node!r}")
        node = PRESETS[node]
    if not isinstance(node, Mapping):
        raise InvalidSpecError(f"spec node must be an object, got {node!r}")
    raw = node.get("type")
    if not isinstance(raw, str) or not raw:
        raise InvalidSpecError(f"spec node needs a string 'type', got {raw!r}")
    kind = raw.removesuffix(_ORDER_SUFFIX)
    if kind not in _NODE_TYPES or (kind != raw and _NODE_TYPES[kind].slots):
        kind = raw  # only leaf names take the suffix
    node_type = _NODE_TYPES.get(kind)
    if node_type is None:
        raise InvalidSpecError(f"unknown approach type {raw!r}")
    params = node_type.params
    extra = set(node) - {"type", "comment", *node_type.slots, *(key for key, _, _ in params)}
    if node_type.randomized:
        extra.discard("seed")
    if extra:
        raise InvalidSpecError(f"unexpected keys {sorted(extra)} for type {kind!r}")
    required = [slot for slot in node_type.slots if slot != "children"]
    for key in required + [key for key, _, default in params if default is _REQUIRED]:
        if key not in node:
            raise InvalidSpecError(f"{kind} spec needs {key!r}")
    kwargs = {key: parse(key, node.get(key, default)) for key, parse, default in params}
    if node_type.randomized:
        kwargs["seed"] = seeds.seed_for(node.get("seed"))
    if node_type.sources:
        kwargs["sources"] = sources
    children = [
        _build_children(node.get(slot), seeds, sources)
        if slot == "children"
        else _construct(node[slot], seeds, sources)
        for slot in node_type.slots
    ]
    try:
        return node_type.constructor(*children, **kwargs)
    except AlphaRangeError as error:
        raise InvalidSpecError(str(error)) from None


def build(
    spec: Mapping | str,
    *,
    sources: SourceVectors | Mapping[TestCaseId, str] | None = None,
    master_seed: int = 0,
) -> Approach:
    """Construct an approach from a spec tree or preset name.

    ``sources`` backs the code-distance nodes: a case-to-source mapping, or
    a :class:`SourceVectors` to share one tokenization across builds. All
    code-distance nodes of one tree share one. Randomized nodes without an
    explicit ``seed`` get one derived deterministically from ``master_seed``
    and their position in the tree.
    """
    return _construct(spec, _SeedAllocator(master_seed), SourceVectors.of(sources))


def spec_is_randomized(spec: Mapping | str) -> bool:
    """True if the spec tree (or named preset) contains a randomized node.

    The spec is built once; an invalid one raises :class:`InvalidSpecError`.
    """
    seeds = _SeedAllocator(0)
    _construct(spec, seeds, SourceVectors(None))
    return seeds.draws > 0
