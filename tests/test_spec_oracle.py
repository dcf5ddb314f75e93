"""The node-type table builds exactly what the earlier if-chain builder built.

``oracles.build_oracle`` and ``oracles.spec_is_randomized_oracle`` are the
builder and the separate tree walk that the table replaced. Generated trees
cover all 13 node types, ``_order`` leaf names, presets as subtrees, explicit
and derived seeds and zero weights. A valid tree must draw the same seeds,
replay to the same rankings and give the same ``spec_is_randomized``; a
tree with one injected fault must fail with the same message. The old
builder let ``AlphaRangeError`` escape where the table raises
``InvalidSpecError``, with the same text.

The same valid trees check the approach contract that fresh builds per
replay rely on: ranking twice under one observe history gives one ranking,
and two builds with equal ``master_seed`` replay identically.
"""

from __future__ import annotations

import copy
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import build_oracle, spec_is_randomized_oracle
from synth import example_sources, random_history, replay
from tcp_lab.approaches import AlphaRangeError
from tcp_lab.combinators import PRESETS, InvalidSpecError, build, spec_is_randomized
from tcp_lab.model import validate_ranking

HISTORY = random_history(random.Random(5), n_cycles=5, pool_size=6)
# two cases keep no source, so the empty vector takes part too
SOURCES = {
    case: text
    for case, text in example_sources(f"t{i:02d}" for i in range(6)).items()
    if case not in ("t01", "t04")
}

ALPHAS = st.one_of(st.sampled_from([1, 0.5, 0.8, 1.0]), st.floats(0.01, 1.0))
SEEDS = st.one_of(st.none(), st.integers(-(2**70), 2**70))
METRICS = st.sampled_from(["manhattan", "euclidean", "cosine"])
COUNT_MODES = st.sampled_from(["failed_cycles", "all_cycles"])
WEIGHTS = [0, 0, 1, 0.5, 2, 3.25]
LEAF_PARAMS = {
    "base": {},
    "random": {"seed": SEEDS},
    "recentness": {},
    "fold_fails": {"folder": st.sampled_from(["sum", "exp_smooth"]), "alpha": ALPHAS},
    "exe_time": {"alpha": ALPHAS},
    "fail_density": {"alpha_fail": ALPHAS, "alpha_time": ALPHAS},
    "code_dist": {
        "metric": METRICS,
        "start": st.sampled_from(["farthest_pair", "first_case"]),
    },
}
MIXERS = {
    "random_mix": {"seed": SEEDS},
    "borda_mix": {},
    "schulze_mix": {},
}
COMBINATORS = sorted(MIXERS) + ["interpolated", "break_ties", "break_ties_codedist"]

# Every parameter's invalid values that the old builder rejected as well.
BAD_PARAMS = {
    "seed": ["abc", 1.5, [1]],
    "folder": ["median", 3, None],
    "alpha": ["high", None, True, 0, 1.5, -0.2],
    "metric": ["chebyshev", None, 2],
    "start": ["middle", None],
    "cutoff": [0, -1, "x", None, 2.5],
    "count_mode": ["weekly", None, 3],
}
BAD_PARAMS["alpha_fail"] = BAD_PARAMS["alpha_time"] = BAD_PARAMS["alpha"]
PARAMS_OF = {
    **{kind: list(params) for kind, params in LEAF_PARAMS.items()},
    **{kind: list(params) for kind, params in MIXERS.items()},
    "interpolated": ["cutoff", "count_mode"],
    "break_ties": [],
    "break_ties_codedist": ["metric"],
}
REQUIRED_OF = {
    "interpolated": ["before", "after", "cutoff"],
    "break_ties": ["primary", "secondary"],
    "break_ties_codedist": ["primary"],
    **{kind: ["children"] for kind in MIXERS},
}
BAD_NODES = [42, None, [1], "P9.9", {}, {"type": 7}, {"type": ""}, {"type": "no_such"}]
BAD_CHILDREN = [[], "x", None, [5], [{"weight": 1}]]
BAD_WEIGHTS = [-1, -0.5, "heavy", None]


def optional(draw, options: dict) -> dict:
    return {key: draw(value) for key, value in options.items() if draw(st.booleans())}


@st.composite
def spec_trees(draw, depth: int = 3):
    choice = draw(st.integers(0, 9 if depth else 3))
    if choice == 0:
        return draw(st.sampled_from(sorted(PRESETS)))
    if choice <= 3:
        kind = draw(st.sampled_from(sorted(LEAF_PARAMS)))
        node = {"type": kind + draw(st.sampled_from(["", "_order"]))}
        node.update(optional(draw, LEAF_PARAMS[kind]))
    else:
        kind = draw(st.sampled_from(COMBINATORS))
        child = spec_trees(depth - 1)
        node = {"type": kind}
        if kind in MIXERS:
            weights = draw(st.lists(st.sampled_from(WEIGHTS), min_size=1, max_size=3))
            if not any(weights):
                weights[0] = 1
            node["children"] = [
                {"spec": draw(child)} if weight == 1 and draw(st.booleans())
                else {"weight": weight, "spec": draw(child)}
                for weight in weights
            ]
            node.update(optional(draw, MIXERS[kind]))
        elif kind == "interpolated":
            node.update(before=draw(child), after=draw(child), cutoff=draw(st.integers(1, 4)))
            node.update(optional(draw, {"count_mode": COUNT_MODES}))
        elif kind == "break_ties":
            node.update(primary=draw(child), secondary=draw(child))
        else:
            node["primary"] = draw(child)
            node.update(optional(draw, {"metric": METRICS}))
    if draw(st.integers(0, 9)) == 0:
        node["comment"] = "note"
    return node


def positions(holder: dict, key: str):
    """Every (container, key) that holds a spec node, root first."""
    yield holder, key
    node = holder[key]
    if not isinstance(node, dict):
        return
    for slot in ("before", "after", "primary", "secondary"):
        if slot in node:
            yield from positions(node, slot)
    for entry in node.get("children", []):
        yield from positions(entry, "spec")


@st.composite
def faulty_trees(draw):
    holder = {"root": copy.deepcopy(draw(spec_trees()))}
    container, key = draw(st.sampled_from(list(positions(holder, "root"))))
    node = container[key]
    faults = [[("replace", bad) for bad in BAD_NODES]]
    if isinstance(node, dict):
        kind = node["type"].removesuffix("_order")
        faults.append([("set", "bogus", 1)])
        if kind in LEAF_PARAMS:
            faults[-1].append(("set", "children", []))
        else:
            faults[-1].append(("set", "type", kind + "_order"))
        for param in PARAMS_OF[kind]:
            faults.append([("set", param, bad) for bad in BAD_PARAMS[param]])
        if kind in REQUIRED_OF:
            faults.append([("delete", slot) for slot in REQUIRED_OF[kind]])
        if kind in MIXERS:
            faults.append([("set", "children", bad) for bad in BAD_CHILDREN])
            faults.append([("weight", bad) for bad in BAD_WEIGHTS] + [("zero_weights",)])
    # a kind of fault first, then one of its values, so that every
    # parameter of a node is as likely to be hit as its type or keys
    faults = draw(st.sampled_from(faults))
    fault = draw(st.sampled_from(faults))
    if fault[0] == "replace":
        container[key] = copy.deepcopy(fault[1])
    elif fault[0] == "set":
        node[fault[1]] = copy.deepcopy(fault[2])
    elif fault[0] == "delete":
        del node[fault[1]]
    elif fault[0] == "weight":
        draw(st.sampled_from(node["children"]))["weight"] = fault[1]
    else:
        for entry in node["children"]:
            entry["weight"] = 0
    return holder["root"]


def seeds_of(approach) -> list[int]:
    """Pre-order seeds of the randomized nodes in a built approach."""
    found = [approach.seed] if hasattr(approach, "seed") else []
    for child in getattr(approach, "_children", []):
        found += seeds_of(child)
    return found


def failure(builder, spec) -> tuple[type, str] | None:
    try:
        builder(spec, sources=SOURCES, master_seed=0)
    except (InvalidSpecError, AlphaRangeError) as error:
        return type(error), str(error)
    return None


@settings(max_examples=300, deadline=None)
@given(spec=spec_trees(), master_seed=st.integers(0, 2**64))
def test_valid_trees_build_and_replay_as_before(spec, master_seed):
    built = build(spec, sources=SOURCES, master_seed=master_seed)
    expected = build_oracle(spec, sources=SOURCES, master_seed=master_seed)
    assert seeds_of(built) == seeds_of(expected)
    assert replay(built, HISTORY) == replay(expected, HISTORY)
    assert spec_is_randomized(spec) == spec_is_randomized_oracle(spec)


@settings(max_examples=200, deadline=None)
@given(spec=spec_trees(), master_seed=st.integers(0, 2**64))
def test_valid_trees_rank_repeatably_and_rebuild_identically(spec, master_seed):
    first = build(spec, sources=SOURCES, master_seed=master_seed)
    second = build(spec, sources=SOURCES, master_seed=master_seed)
    for record in HISTORY.cycles:
        suite = list(record.suite)
        ranking = first.rank(suite)
        validate_ranking(suite, ranking)
        assert first.rank(suite) == ranking
        assert second.rank(suite) == ranking
        first.observe(record.executions)
        second.observe(record.executions)


@settings(max_examples=300, deadline=None)
@given(spec=faulty_trees())
def test_one_fault_gives_the_old_message(spec):
    expected = failure(build_oracle, spec)
    assert expected is not None, "the injected fault must be one the old builder rejected"
    assert failure(build, spec) == (InvalidSpecError, expected[1])
    try:
        spec_is_randomized(spec)
    except InvalidSpecError as error:
        assert str(error) == expected[1]
    else:
        raise AssertionError("spec_is_randomized accepted an invalid spec")
