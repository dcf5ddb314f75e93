"""In-process span tracing around the public calls into each tcp_lab module.

The tracer replaces selected public functions, and the ``rank``/``observe``
methods of every :class:`tcp_lab.model.Approach` subclass, with wrappers
that record one span per call: name, start, end, parent span and run id
(one run per CLI command). Spans stay in memory until the run ends; then
:func:`layer_metrics` derives each layer's self time (the span's duration
minus the time its child spans cover) and the counts recorded at the same
boundaries. Nothing inside the program is changed on disk: the wrappers are
installed by rebinding names in the imported modules and removed again by
:meth:`Tracer.uninstall`.

Lookups are by name and skip what a module no longer has, so a refactor of
the program drops a layer's figure to zero instead of breaking the run.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

# (module, function, span name). Functions sharing a span name are one layer.
FUNCTIONS = (
    ("tcp_lab.dataset", "read_canonical", "dataset.read_canonical"),
    ("tcp_lab.dataset", "attach_sources", "dataset.attach_sources"),
    ("tcp_lab.approaches", "tokenize", "approaches.tokenize"),
    ("tcp_lab.combinators", "build", "combinators.build"),
    ("tcp_lab.combinators", "random_mix", "combinators.random_mix"),
    ("tcp_lab.combinators", "borda_mix", "combinators.borda_mix"),
    ("tcp_lab.combinators", "schulze_mix", "combinators.schulze_mix"),
    ("tcp_lab.combinators", "break_ties", "combinators.break_ties"),
    ("tcp_lab.combinators", "break_ties_codedist", "combinators.break_ties_codedist"),
    ("tcp_lab.model", "validate_ranking", "model.validate_ranking"),
    ("tcp_lab.model", "flatten", "model.flatten"),
    ("tcp_lab.metrics", "apfd", "metrics.apfd_family"),
    ("tcp_lab.metrics", "apfd_c", "metrics.apfd_family"),
    ("tcp_lab.metrics", "rapfd", "metrics.apfd_family"),
    ("tcp_lab.metrics", "rapfd_c", "metrics.apfd_family"),
    ("tcp_lab.evaluation", "evaluate_approach", "evaluation.evaluate_approach"),
    ("tcp_lab.evaluation", "write_outcomes", "evaluation.write_outcomes"),
    ("tcp_lab.report", "write_report", "report.write_report"),
    ("tcp_lab.stats", "cd_grouping", "stats.cd_grouping"),
)

# Span names whose self time is reported under ``<name>_s``.
TIMED_LAYERS = (
    "dataset.read_canonical",
    "dataset.attach_sources",
    "approaches.tokenize",
    "approaches.code_dist.rank",
    "approaches.leaf.rank",
    "approaches.leaf.observe",
    "combinators.schulze_mix",
    "combinators.break_ties_codedist",
    "combinators.borda_mix",
    "combinators.random_mix",
    "combinators.break_ties",
    "combinators.build",
    "model.validate_ranking",
    "model.flatten",
    "metrics.apfd_family",
    "evaluation.evaluate_approach",
    "evaluation.write_outcomes",
    "report.write_report",
    "stats.cd_grouping",
)


def _approach_name(args, kwargs):
    """The approach name argument of ``evaluate_approach(history, name, ...)``."""
    return kwargs.get("name", args[1] if len(args) > 1 else None)


def _count_rows(counts, args, kwargs, result):
    counts["dataset.rows"] += sum(len(cycle.executions) for cycle in result.cycles)


def _count_tokens(counts, args, kwargs, result):
    counts["approaches.tokens"] += sum(result.values())


def _count_tie_groups(counts, args, kwargs, result):
    primary = args[0] if args else kwargs["primary"]
    counts["combinators.primary_groups"] += len(primary.groups)
    counts["combinators.primary_cases"] += sum(len(group) for group in primary.groups)


COUNTERS = {
    "read_canonical": _count_rows,
    "tokenize": _count_tokens,
    "break_ties": _count_tie_groups,
    "break_ties_codedist": _count_tie_groups,
}


class Tracer:
    """Records spans around tcp_lab calls while installed.

    Span fields live in parallel arrays rather than one object per span, so
    that hundreds of thousands of spans add nothing for the cyclic garbage
    collector to scan, which would otherwise inflate the timings it measures.
    """

    def __init__(self):
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.runs = array("q")
        self.tags: dict[int, str] = {}
        self.errors: set[int] = set()
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._run = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.runs.append(self._run)
        self.ends.append(0.0)
        self._stack.append(sid)
        return sid

    @contextlib.contextmanager
    def root(self, name: str):
        """One CLI command: a new run id and a root span around it."""
        self._run += 1
        sid = self._open(name)
        self.starts.append(time.perf_counter())
        try:
            yield
        finally:
            self.ends[sid] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name_of, tag_of=None, count=None):
        open_span = self._open
        starts = self.starts
        ends = self.ends
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            sid = open_span(name_of(args))
            if tag_of is not None:
                tracer.tags[sid] = tag_of(args, kwargs)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors.add(sid)
                raise
            finally:
                ends[sid] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        """Point every tcp_lab module global bound to ``original`` at ``replacement``."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("tcp_lab"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        for module_name, function, span_name in FUNCTIONS:
            module = importlib.import_module(module_name)
            original = getattr(module, function, None)
            if not callable(original):
                continue
            tag_of = _approach_name if function == "evaluate_approach" else None
            wrapped = self._wrap(
                original,
                lambda args, span_name=span_name: span_name,
                tag_of=tag_of,
                count=COUNTERS.get(function),
            )
            self._rebind(original, wrapped)

        from tcp_lab.model import Approach

        kinds: dict[type, str] = {}

        def kind_of(cls: type) -> str:
            kind = kinds.get(cls)
            if kind is None:
                module = cls.__module__
                if module == "tcp_lab.approaches":
                    kind = "approaches.code_dist" if "CodeDist" in cls.__name__ else "approaches.leaf"
                else:
                    kind = "combinators.node"
                kinds[cls] = kind
            return kind

        classes = [Approach]
        seen = set()
        while classes:
            cls = classes.pop()
            if cls in seen:
                continue
            seen.add(cls)
            classes.extend(cls.__subclasses__())
            if not cls.__module__.startswith("tcp_lab"):
                continue
            for method in ("rank", "observe"):
                original = cls.__dict__.get(method)
                if original is None or getattr(original, "__isabstractmethod__", False):
                    continue
                if method == "rank":
                    name_of = lambda args: kind_of(type(args[0])) + ".rank"  # noqa: E731
                else:
                    # Code distance learns nothing; its observe counts with the leaves.
                    name_of = lambda args: (  # noqa: E731
                        kind_of(type(args[0])).replace("code_dist", "leaf") + ".observe"
                    )
                self._restore.append((cls, method, original))
                setattr(cls, method, self._wrap(original, name_of))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- output ------------------------------------------------------------

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["id", "name", "start", "end", "parent", "run", "tag", "error"])
            for sid, name in enumerate(self.names):
                writer.writerow(
                    [sid, name, repr(self.starts[sid]), repr(self.ends[sid]),
                     self.parents[sid], self.runs[sid], self.tags.get(sid, ""),
                     int(sid in self.errors)]
                )


def layer_metrics(tracer: Tracer, approaches, untraced_wall: float) -> dict[str, tuple[float, str]]:
    """Per-layer figures from the recorded spans, as ``{name: (value, unit)}``."""
    names = tracer.names
    parents = tracer.parents
    durations = [end - start for start, end in zip(tracer.starts, tracer.ends)]
    self_time = list(durations)
    for sid, parent in enumerate(parents):
        if parent >= 0:
            self_time[parent] -= durations[sid]

    by_layer: dict[str, float] = defaultdict(float)
    for name, own in zip(names, self_time):
        by_layer[name] += own

    replay: dict[str, float] = defaultdict(float)
    approach_cycles = 0
    prioritize: dict[str, float] = defaultdict(float)
    metric_calls = 0
    metric_errors = 0
    for sid, (name, parent) in enumerate(zip(names, parents)):
        if parent < 0:
            continue
        parent_name = names[parent]
        kind = name.rpartition(".")[2]
        if parent_name == "evaluation.evaluate_approach" and kind in ("rank", "observe"):
            replay[f"replay.{tracer.tags[parent]}.{kind}_s"] += durations[sid]
            approach_cycles += kind == "rank"
        elif parent_name == "cli.prioritize" and kind in ("rank", "observe"):
            prioritize[f"prioritize.{kind}_s"] += durations[sid]
        if name == "metrics.apfd_family" and parent_name != name:
            metric_calls += 1
            metric_errors += sid in tracer.errors

    out: dict[str, tuple[float, str]] = {}
    for layer in TIMED_LAYERS:
        out[f"{layer}_s"] = (by_layer.get(layer, 0.0), "s")
    out["dataset.rows"] = (float(tracer.counts["dataset.rows"]), "count")
    out["approaches.tokens"] = (float(tracer.counts["approaches.tokens"]), "count")
    cases = tracer.counts["combinators.primary_cases"]
    out["combinators.tie_group_ratio"] = (
        tracer.counts["combinators.primary_groups"] / cases if cases else 0.0,
        "ratio",
    )
    out["evaluation.approach_cycles"] = (float(approach_cycles), "count")
    out["metrics.calls"] = (float(metric_calls), "count")
    out["metrics.degenerate_ratio"] = (metric_errors / metric_calls if metric_calls else 0.0, "ratio")
    for name in approaches:
        for kind in ("rank", "observe"):
            key = f"replay.{name}.{kind}_s"
            out[key] = (replay.get(key, 0.0), "s")
    for kind in ("rank", "observe"):
        key = f"prioritize.{kind}_s"
        out[key] = (prioritize.get(key, 0.0), "s")

    wall = sum(d for d, parent in zip(durations, parents) if parent < 0)
    accounted = sum(by_layer.get(layer, 0.0) for layer in TIMED_LAYERS)
    out["trace.wall_s"] = (wall, "s")
    out["trace.unaccounted_share"] = ((wall - accounted) / wall if wall else 0.0, "ratio")
    out["trace.overhead"] = (wall / untraced_wall - 1.0 if untraced_wall else 0.0, "ratio")
    out["trace.spans"] = (float(len(names)), "count")
    return out
