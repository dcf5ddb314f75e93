"""Benchmark for tcp-lab's ``evaluate``, ``prioritize`` and ``report``.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload small-suites --seed 1 --seconds 36 --trace 0

For the given workload and seed the benchmark writes deterministic synthetic
histories (see ``gen.py``) and runs the real CLI on them, as
``python -m tcp_lab.cli`` with ``src`` on ``PYTHONPATH``. It is a closed loop
with one client: one CLI child at a time, ``evaluate --jobs 1``.

``--trace 0`` measures the end-to-end metrics: ``evaluate`` calls
interleaved with rounds of ``report`` and ``prioritize`` calls (see
:func:`measure`). ``--trace 1`` runs the same commands in process, once
without and once with span tracing (``tracing.py``), and reports the
per-layer metrics.

Every output is checked; each check, each CLI call and each (project,
approach) evaluation is one operation of ``attempted``. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import gen

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
EXPECTED = Path(__file__).resolve().parent / "expected.json"

# The seed whose raw/ digests are pinned in expected.json.
PINNED_SEED = 1
SETUP_MIN_REPEATS = 5
SETUP_MAX_REPEATS = 25
SETUP_BUDGET_S = 1.0
# Children still running this long after start are killed, so that a hung
# program fails its operations and the run still ends in time.
RUN_LIMIT_S = 170.0
STARTED = time.perf_counter()

# Preset, and whether it gets the checkout, for each workload's prioritize calls.
PRIORITIZE = {
    "small-suites": ("P2", False),
    "mid-suites-sources": ("P3.1", True),
    "large-suites": ("P3.1", False),
}
PRIORITIZE_PROJECT = "p0"
SHORT_ROUNDS = 3
REPORT_TABLES = ("rapfd_c", "apfd", "apfd_c", "rapfd", "ntr", "atr")


class Operations:
    """Counts attempted and failed operations; keeps the failures' messages."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def check(self, what: str, fn) -> bool:
        """Run one output check; an exception fails it."""
        try:
            ok = bool(fn())
        except Exception as error:  # a broken output is a failed check, not a crash
            return self.record(False, f"{what}: {type(error).__name__}: {error}")
        return self.record(ok, what)


# --- CLI children ------------------------------------------------------------


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("TCP_LAB_SEED", None)
    previous = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + previous if previous else "")
    return env


def run_child(args: list[str], log: Path) -> tuple[int, float, float]:
    """Run one child to completion: (exit code, wall seconds, peak RSS in MiB)."""
    with log.open("wb") as out:
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], stdout=out, stderr=subprocess.STDOUT,
            env=_child_env(), cwd=ROOT,
        )
        timer = threading.Timer(max(0.0, STARTED + RUN_LIMIT_S - time.perf_counter()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def cli(*args: str) -> list[str]:
    return ["-m", "tcp_lab.cli", *args]


# --- output checks -----------------------------------------------------------


def tree_digest(root: Path) -> str:
    """SHA-256 over the relative paths and bytes of every file under ``root``."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def base_order_values(cycle: gen.Cycle) -> tuple[float, float]:
    """APFD and APFD_C of the cycle's original order, computed independently."""
    n = len(cycle.suite)
    ranks = [i + 1 for i, failed in enumerate(cycle.failed) if failed]
    m = len(ranks)
    apfd = 1.0 - sum(ranks) / (n * m) + 1.0 / (2 * n)
    total = math.fsum(cycle.durations)
    reached = [math.fsum(cycle.durations[r - 1 :]) - cycle.durations[r - 1] / 2 for r in ranks]
    return apfd, math.fsum(reached) / (total * m)


def _read_rows(path: Path) -> list[dict[str, str]]:
    with path.open(newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _full_times_match(rows, cycles: dict[int, gen.Cycle]) -> bool:
    return bool(rows) and all(
        _close(float(row["full_time"]), math.fsum(cycles[int(row["cycle"])].durations))
        for row in rows
    )


def _base_values_match(rows, cycles: dict[int, gen.Cycle]) -> bool:
    failed = {c.index: c for c in cycles.values() if any(c.failed)}
    seen = 0
    for row in rows:
        cycle = failed.get(int(row["cycle"]))
        if cycle is None:
            continue
        apfd, apfd_c = base_order_values(cycle)
        if not (_close(float(row["apfd"]), apfd) and _close(float(row["apfd_c"]), apfd_c)):
            return False
        seen += 1
    return seen == len(failed)


def check_evaluation(workload: gen.Workload, out: Path, ops: Operations) -> float:
    """Check one ``evaluate`` output; return the summed prioritization seconds."""
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    rank_total = 0.0
    for project, history in workload.histories.items():
        cycles = {c.index: c for c in history}
        entry = summary["projects"].get(project, {})
        for approach in workload.shape.approaches:
            ops.record(
                entry.get("status") == "ok" and approach in entry.get("approaches", {}),
                f"evaluate {project}/{approach}",
            )
            raw = out / "raw" / project / f"{approach}.csv"
            ops.check(f"full_time {project}/{approach}", lambda: _full_times_match(_read_rows(raw), cycles))
            try:
                timing = _read_rows(out / "timing" / project / f"{approach}.csv")
                rank_total += math.fsum(float(row["prioritization_s"]) for row in timing)
                ops.record(bool(timing), f"timing {project}/{approach}")
            except (OSError, KeyError, ValueError) as error:
                ops.record(False, f"timing {project}/{approach}: {error}")
        ops.check(
            f"base-order apfd/apfd_c {project}",
            lambda: _base_values_match(_read_rows(out / "raw" / project / "base.csv"), cycles),
        )
    return rank_total


def check_raw_digest(workload: gen.Workload, out: Path, ops: Operations, digests: list[str]) -> None:
    """raw/ is identical across the run's evaluations, and pinned for PINNED_SEED."""
    digest = tree_digest(out / "raw")
    digests.append(digest)
    ops.record(digest == digests[0], "raw/ identical across evaluations")
    if workload.seed == PINNED_SEED:
        ops.check("raw/ matches the pinned digest", lambda: json.loads(
            EXPECTED.read_text(encoding="utf-8"))["raw_sha256"][workload.name] == digest)


def check_report(report: Path, ops: Operations) -> None:
    ops.check("report stats.json", lambda: isinstance(
        json.loads((report / "stats.json").read_text(encoding="utf-8")), dict))
    for metric in REPORT_TABLES:
        ops.check(f"report table_{metric}.md", (report / f"table_{metric}.md").is_file)


def check_permutation(output: str, cycle: gen.Cycle) -> bool:
    lines = output.split()
    return len(lines) == len(cycle.suite) and sorted(lines) == sorted(cycle.suite)


def prioritize_targets(workload: gen.Workload) -> list[gen.Cycle]:
    """A fixed set of cycles spread over one project: a third, two thirds, the end."""
    history = workload.histories[PRIORITIZE_PROJECT]
    n = len(history)
    return [history[max(1, round(n * k / 3)) - 1] for k in (1, 2, 3)]


def prioritize_args(workload: gen.Workload, cycle: gen.Cycle) -> list[str]:
    preset, with_sources = PRIORITIZE[workload.name]
    args = [
        "prioritize",
        "--history", str(workload.root / "histories" / f"{PRIORITIZE_PROJECT}.csv"),
        "--preset", preset,
        "--cycle", str(cycle.index),
    ]
    if with_sources:
        args += ["--sources", str(workload.root / "checkouts" / PRIORITIZE_PROJECT)]
    return args


# --- set-up ------------------------------------------------------------------


def set_up(name: str, seed: int, base: Path, ops: Operations) -> tuple[gen.Workload, list[float]]:
    """Generate the workload repeatedly and keep the last copy.

    It repeats at least SETUP_MIN_REPEATS times and until the timed set-ups
    add up to SETUP_BUDGET_S, so that the median of even a fast set-up rests
    on many samples. The first and the last copy must be byte-identical.
    """
    times: list[float] = []
    first = None
    while len(times) < SETUP_MIN_REPEATS or (
        sum(times) < SETUP_BUDGET_S and len(times) < SETUP_MAX_REPEATS
    ):
        root = base / "inputs"
        shutil.rmtree(root, ignore_errors=True)
        started = time.perf_counter()
        workload = gen.generate(name, seed, root)
        times.append(time.perf_counter() - started)
        if first is None:
            first = tree_digest(root)
    ops.record(tree_digest(root) == first, "set-up is deterministic")
    return workload, times


# --- measurement -------------------------------------------------------------


def measure(
    workload: gen.Workload, seconds: float, base: Path, ops: Operations, setup_s: list[float]
) -> dict:
    """Time ``evaluate`` calls interleaved with SHORT_ROUNDS rounds of short calls.

    Each short round runs ``report`` on the latest evaluate output and
    ``prioritize`` on one target cycle, twice, so that every target cycle is
    asked twice in all. An ``evaluate`` runs first, then before each later
    round and at the end, whenever it is expected to fit in ``seconds`` with
    the rounds still due. After every evaluate and every round the workload is
    set up once more into a second directory and timed into ``setup_s``. The
    host's speed drifts on a scale of seconds, so this spreads each metric's
    samples over the whole window.
    """
    config = workload.root / "config.json"
    out = base / "evaluate"
    logs = base / "logs"
    logs.mkdir()
    code, _, _ = run_child(["-c", "import tcp_lab.cli"], logs / "warmup.log")
    ops.record(code == 0, "import tcp_lab.cli")

    evaluate_s, rss_mb, rank_total_s, digests = [], [], [], []
    report_s, prioritize_ms, round_s = [], [], []

    def set_up_again() -> None:
        root = base / "inputs-again"
        shutil.rmtree(root, ignore_errors=True)
        started = time.perf_counter()
        gen.generate(workload.name, workload.seed, root)
        setup_s.append(time.perf_counter() - started)

    def evaluate() -> float:
        started = time.perf_counter()
        shutil.rmtree(out, ignore_errors=True)
        code, wall, rss = run_child(
            cli("evaluate", "--config", str(config), "--out", str(out), "--jobs", "1"),
            logs / f"evaluate-{len(evaluate_s)}.log",
        )
        ops.record(code == 0, "evaluate exit code")
        evaluate_s.append(wall)
        rss_mb.append(rss)
        try:
            rank_total_s.append(check_evaluation(workload, out, ops))
            check_raw_digest(workload, out, ops, digests)
        except (OSError, KeyError, ValueError) as error:
            ops.record(False, f"evaluate outputs: {type(error).__name__}: {error}")
        set_up_again()
        return time.perf_counter() - started

    def short_round(number: int) -> None:
        started = time.perf_counter()
        targets = prioritize_targets(workload)
        for slot in (2 * number, 2 * number + 1):
            report = base / f"report-{slot}"
            code, wall, _ = run_child(
                cli("report", "--raw", str(out), "--format", "md", "--out", str(report)),
                logs / f"report-{slot}.log",
            )
            ops.record(code == 0, "report exit code")
            report_s.append(wall)
            check_report(report, ops)
            cycle = targets[slot % len(targets)]
            log = logs / f"prioritize-{slot}-{cycle.index}.log"
            code, wall, _ = run_child(cli(*prioritize_args(workload, cycle)), log)
            prioritize_ms.append(wall * 1000.0)
            ops.record(code == 0, f"prioritize cycle {cycle.index}")
            ops.check(f"prioritize cycle {cycle.index} permutation",
                      lambda: check_permutation(log.read_text(encoding="utf-8"), cycle))
        set_up_again()
        round_s.append(time.perf_counter() - started)

    window = time.perf_counter()
    last = evaluate()
    for number in range(SHORT_ROUNDS):
        if round_s:
            due = (SHORT_ROUNDS - number) * statistics.mean(round_s)
            if time.perf_counter() - window + last + due <= seconds:
                last = evaluate()
        short_round(number)
    while time.perf_counter() - window + last <= seconds:
        last = evaluate()
    return {
        "evaluate_s": evaluate_s,
        "report_s": report_s,
        "peak_rss_mb": rss_mb,
        "rank_total_s": rank_total_s,
        "prioritize_ms": prioritize_ms,
        "raw_sha256": digests[0] if digests else None,
        "window_s": time.perf_counter() - window,
    }


def run_in_process(argv: list[str], ops: Operations, what: str) -> str:
    """Run one CLI command in this process; return what it printed."""
    from tcp_lab.cli import main

    printed = io.StringIO()
    with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
        code = main(argv)
    ops.record(code == 0, f"{what} exit code")
    return printed.getvalue()


def measure_traced(workload: gen.Workload, base: Path, ops: Operations) -> dict:
    import tracing

    logs = base / "logs"
    logs.mkdir()
    imports = []
    for attempt in range(3):
        code, wall, _ = run_child(["-c", "import tcp_lab.cli"], logs / f"import-{attempt}.log")
        ops.record(code == 0, "import tcp_lab.cli")
        imports.append(wall)

    os.environ.pop("TCP_LAB_SEED", None)
    sys.path.insert(0, str(SRC))
    import tcp_lab.cli  # noqa: F401  (imported before any pass is timed)

    config = workload.root / "config.json"
    targets = prioritize_targets(workload)
    tracer = tracing.Tracer()
    walls: dict[str, list[float]] = {"untraced": [], "traced": []}
    digests: list[str] = []
    # Untraced passes on both sides of the traced one; the overhead is taken
    # against the faster, so that neither the first pass's warm-up nor a
    # drift in the host's speed reads as a negative overhead.
    for traced in (False, True, False):
        label = "traced" if traced else "untraced"
        out = base / f"evaluate-{label}"
        report = base / f"report-{label}"
        for stale in (out, report):
            shutil.rmtree(stale, ignore_errors=True)
        commands = [("evaluate", ["evaluate", "--config", str(config), "--out", str(out), "--jobs", "1"]),
                    ("report", ["report", "--raw", str(out), "--format", "md", "--out", str(report)])]
        commands += [("prioritize", prioritize_args(workload, cycle)) for cycle in targets]
        if traced:
            tracer.install()
        started = time.perf_counter()
        printed = []
        try:
            for name, argv in commands:
                root = tracer.root(f"cli.{name}") if traced else contextlib.nullcontext()
                with root:
                    printed.append(run_in_process(argv, ops, f"{label} {name}"))
        finally:
            tracer.uninstall()
        walls[label].append(time.perf_counter() - started)
        try:
            check_evaluation(workload, out, ops)
            check_raw_digest(workload, out, ops, digests)
        except (OSError, KeyError, ValueError) as error:
            ops.record(False, f"{label} evaluate outputs: {type(error).__name__}: {error}")
        check_report(report, ops)
        for cycle, output in zip(targets, printed[2:]):
            ops.check(f"{label} prioritize cycle {cycle.index} permutation",
                      lambda: check_permutation(output, cycle))
    tracer.write(base / "spans.csv")
    metrics = tracing.layer_metrics(tracer, all_approaches(), min(walls["untraced"]))
    metrics["cli.import_s"] = (statistics.median(imports), "s")
    return metrics


def all_approaches() -> list[str]:
    names: list[str] = []
    for shape in gen.WORKLOADS.values():
        names += [name for name in shape.approaches if name not in names]
    return names


# --- main --------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tcp_lab" / "cli.py").is_file():
        print(f"error: no tcp_lab sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2

    base = WORK / args.workload
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    ops = Operations()
    workload, setup_times = set_up(args.workload, args.seed, base, ops)
    print("properties: " + json.dumps(gen.properties(workload), sort_keys=True))

    if args.trace:
        layers = measure_traced(workload, base, ops)
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
        for name, (value, unit) in layers.items():
            print(f"{name} = {value:.6g} {unit}")
    else:
        m = measure(workload, args.seconds, base, ops, setup_times)
        rounds = len(m["evaluate_s"])
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "evaluate_s": {"value": statistics.median(m["evaluate_s"]), "unit": "s"},
            "rank_total_s": {"value": statistics.median(m["rank_total_s"] or [0.0]), "unit": "s"},
            "prioritize_p50_ms": {"value": statistics.median(m["prioritize_ms"]), "unit": "ms"},
            "report_s": {"value": statistics.median(m["report_s"]), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(m["peak_rss_mb"]), "unit": "MiB"},
        }
        samples = {
            "setup_s": len(setup_times),
            "prioritize_p50_ms": len(m["prioritize_ms"]),
            "report_s": len(m["report_s"]),
        }
        for name, metric in metrics.items():
            print(f"{name} = {metric['value']:.6g} {metric['unit']} "
                  f"(median of {samples.get(name, rounds)})")
        print(f"measured window = {m['window_s']:.3f} s, evaluations = {rounds}, "
              f"raw_sha256 = {m['raw_sha256']}")
    failed = len(ops.failures)
    print(f"error_rate = {failed / ops.attempted:.6g} ({failed} failed of {ops.attempted} "
          "operations: CLI calls, (project, approach) evaluations and output checks)")
    for failure in ops.failures[:20]:
        print(f"FAILED: {failure}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ops.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
