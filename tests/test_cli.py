"""End-to-end CLI behavior and report rendering."""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import statistics
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synth import cycle, example_sources, random_history, shipped_approach_specs
from tcp_lab import evaluation
from tcp_lab.cli import main
from tcp_lab.combinators import build, spec_is_randomized
from tcp_lab.dataset import (
    DEFAULT_MIN_SUITE_SIZE,
    attach_sources,
    filter_for_evaluation,
    read_canonical,
    write_canonical,
)
from tcp_lab.model import Approach, FlattenPolicy, ProjectHistory, RankedSuite, flatten
from tcp_lab.report import (
    MetricTable,
    _percentile,
    boxplot_rows,
    render_table_markdown,
)


@pytest.fixture()
def rtp_like_dataset(tmp_path):
    """A small external-layout dataset plus its mapping file."""
    data = tmp_path / "source"
    data.mkdir()
    (data / "runs.csv").write_text(
        "build,job,sha,test,secs,outcome\n"
        "1,j1,c1,alpha,0.5,pass\n"
        "1,j1,c1,beta,1.5,fail\n"
        "2,j2,c2,alpha,0.6,pass\n"
        "2,j2,c2,beta,1.4,pass\n",
        encoding="utf-8",
    )
    mapping = tmp_path / "mapping.json"
    mapping.write_text(
        json.dumps(
            {
                "cycle_order": "build",
                "job_id": "job",
                "commit_id": "sha",
                "test_name": "test",
                "duration": "secs",
                "verdict": "outcome",
            }
        ),
        encoding="utf-8",
    )
    return data, mapping


def make_history_file(tmp_path, name, seed, n_cycles=8, build_time=None):
    rng = random.Random(seed)
    history = random_history(rng, n_cycles=n_cycles, project=name)
    if build_time is not None:
        history = ProjectHistory(
            name,
            tuple(
                cycle(
                    c.index,
                    c.suite,
                    [e.case for e in c.executions if e.failed],
                    {e.case: e.duration for e in c.executions},
                    build_time=build_time,
                )
                for c in history.cycles
            ),
        )
    path = tmp_path / f"{name}.csv"
    write_canonical(history, path)
    return path


def write_config(tmp_path, projects, approaches, **extra):
    config = {
        "projects": projects,
        "approaches": approaches,
        "seed": 11,
        "repetitions": 3,
        "min_suite_size": 2,
    }
    config.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


# JSON files that ``json.loads`` rejects with a plain ``ValueError`` rather
# than a ``JSONDecodeError``: an integer literal over Python's int-to-str
# digit limit (4300 digits), and bytes that are not UTF-8.
UNREADABLE_JSON = {
    "huge_int": b'{"type": "exe_time", "alpha": ' + b"1" * 5001 + b"}",
    "not_utf8": b'{"type": "exe_time", "alpha": 0.5, "note": "\xff"}',
}


def unreadable_json(tmp_path, kind):
    """Write one of ``UNREADABLE_JSON``; return its path and the expected stderr."""
    path = tmp_path / f"{kind}.json"
    path.write_bytes(UNREADABLE_JSON[kind])
    try:
        json.loads(path.read_text(encoding="utf-8"))
    except ValueError as error:
        return path, f"error: {error}\n"
    raise AssertionError(f"{kind} must not parse")


class TestIngestCommand:
    def test_valid_dataset_writes_canonical(self, rtp_like_dataset, tmp_path, capsys):
        data, mapping = rtp_like_dataset
        out = tmp_path / "demo.csv"
        code = main(
            ["ingest", "--in", str(data), "--mapping", str(mapping), "--out", str(out)]
        )
        assert code == 0
        history = read_canonical(out)
        assert len(history.cycles) == 2
        summary = capsys.readouterr().out
        assert "cycles=2" in summary and "rejected_rows=0" in summary

    def test_missing_mapping_field_exits_2(self, rtp_like_dataset, tmp_path, capsys):
        data, _ = rtp_like_dataset
        bad_mapping = tmp_path / "bad.json"
        bad_mapping.write_text(json.dumps({"cycle_order": "build"}), encoding="utf-8")
        code = main(
            [
                "ingest",
                "--in",
                str(data),
                "--mapping",
                str(bad_mapping),
                "--out",
                str(tmp_path / "x.csv"),
            ]
        )
        assert code == 2
        assert "MISSING_COLUMN" in capsys.readouterr().err

    def test_empty_input_exits_2(self, rtp_like_dataset, tmp_path, capsys):
        _, mapping = rtp_like_dataset
        empty = tmp_path / "empty"
        empty.mkdir()
        (empty / "runs.csv").write_text(
            "build,job,sha,test,secs,outcome\n", encoding="utf-8"
        )
        code = main(
            [
                "ingest",
                "--in",
                str(empty),
                "--mapping",
                str(mapping),
                "--out",
                str(tmp_path / "x.csv"),
            ]
        )
        assert code == 2
        assert "EMPTY_HISTORY" in capsys.readouterr().err

    @pytest.mark.parametrize("delimiter", ["", "ab"])
    def test_delimiter_not_one_character_exits_2(
        self, rtp_like_dataset, tmp_path, capsys, delimiter
    ):
        data, mapping = rtp_like_dataset
        out = tmp_path / "x.csv"
        argv = ["ingest", "--in", str(data), "--mapping", str(mapping), "--out", str(out)]
        assert main(argv + ["--delimiter", delimiter]) == 2
        assert capsys.readouterr().err == (
            f"error: PARSE_ERROR: delimiter must be one character, got {delimiter!r}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("kind", sorted(UNREADABLE_JSON))
    def test_unreadable_mapping_exits_2(self, rtp_like_dataset, tmp_path, capsys, kind):
        data, _ = rtp_like_dataset
        mapping, expected = unreadable_json(tmp_path, kind)
        out = tmp_path / "x.csv"
        argv = ["ingest", "--in", str(data), "--mapping", str(mapping), "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == expected
        assert not out.exists()

    def test_mapping_not_an_object_exits_2(self, rtp_like_dataset, tmp_path, capsys):
        data, _ = rtp_like_dataset
        mapping = tmp_path / "list.json"
        mapping.write_text("[1, 2]", encoding="utf-8")
        out = tmp_path / "x.csv"
        argv = ["ingest", "--in", str(data), "--mapping", str(mapping), "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: PARSE_ERROR: mapping must be a JSON object\n"
        )
        assert not out.exists()

    def test_build_time_join_reported(self, rtp_like_dataset, tmp_path, capsys):
        data, mapping = rtp_like_dataset
        times = tmp_path / "times.csv"
        times.write_text("job_id,seconds\nj1,30\n", encoding="utf-8")
        out = tmp_path / "demo.csv"
        code = main(
            [
                "ingest",
                "--in",
                str(data),
                "--mapping",
                str(mapping),
                "--out",
                str(out),
                "--build-times",
                str(times),
            ]
        )
        assert code == 0
        assert "build_time_mismatches=1" in capsys.readouterr().out
        history = read_canonical(out)
        assert history.cycles[0].build_time == 30.0
        assert history.cycles[1].build_time is None


class TestEvaluateCommand:
    def test_base_order_only_atr_exactly_zero(self, tmp_path):
        history_path = make_history_file(tmp_path, "steady", seed=5, build_time=60.0)
        config = write_config(
            tmp_path,
            [{"name": "steady", "history": history_path.name}],
            {"base": {"type": "base_order"}},
        )
        out = tmp_path / "out"
        assert main(["evaluate", "--config", str(config), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        atr = summary["projects"]["steady"]["approaches"]["base"]["aggregates"]["atr"]
        assert atr == 0.0

    def test_preset_smoke_writes_rapfd_c_mean(self, tmp_path):
        history_path = make_history_file(tmp_path, "proj", seed=6, n_cycles=3)
        config = write_config(
            tmp_path,
            [{"name": "proj", "history": history_path.name}],
            {"p12": "P1.2"},
        )
        out = tmp_path / "out"
        assert main(["evaluate", "--config", str(config), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        aggregates = summary["projects"]["proj"]["approaches"]["p12"]["aggregates"]
        assert aggregates["rapfd_c_mean"] is not None
        assert (out / "raw" / "proj" / "p12.csv").is_file()
        assert (out / "timing" / "proj" / "p12.csv").is_file()

    def test_rerun_is_byte_identical_on_raw_values(self, tmp_path):
        history_path = make_history_file(tmp_path, "proj", seed=7)
        config = write_config(
            tmp_path,
            [{"name": "proj", "history": history_path.name}],
            {"p11": "P1.1", "random": {"type": "random_order"}, "p31": "P3.1"},
        )
        outs = []
        for run in ("one", "two"):
            out = tmp_path / run
            assert main(["evaluate", "--config", str(config), "--out", str(out)]) == 0
            outs.append(out)
        for name in ("p11", "random", "p31"):
            first = (outs[0] / "raw" / "proj" / f"{name}.csv").read_bytes()
            second = (outs[1] / "raw" / "proj" / f"{name}.csv").read_bytes()
            assert first == second, name

    def test_env_seed_overrides_config(self, tmp_path, monkeypatch):
        history_path = make_history_file(tmp_path, "proj", seed=8)
        config = write_config(
            tmp_path,
            [{"name": "proj", "history": history_path.name}],
            {"random": {"type": "random_order"}},
        )
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        out_c = tmp_path / "c"
        main(["evaluate", "--config", str(config), "--out", str(out_a)])
        monkeypatch.setenv("TCP_LAB_SEED", "999")
        main(["evaluate", "--config", str(config), "--out", str(out_b)])
        monkeypatch.setenv("TCP_LAB_SEED", "11")  # equals the config seed
        main(["evaluate", "--config", str(config), "--out", str(out_c)])
        raw = lambda out: (out / "raw" / "proj" / "random.csv").read_bytes()
        assert raw(out_a) != raw(out_b)
        assert raw(out_a) == raw(out_c)

    def test_partial_failure_exits_1(self, tmp_path, capsys):
        history_path = make_history_file(tmp_path, "good", seed=9)
        config = write_config(
            tmp_path,
            [
                {"name": "good", "history": history_path.name},
                {"name": "bad", "history": "missing.csv"},
            ],
            {"base": {"type": "base_order"}},
        )
        out = tmp_path / "out"
        assert main(["evaluate", "--config", str(config), "--out", str(out)]) == 1
        summary = json.loads((out / "summary.json").read_text())
        assert summary["projects"]["good"]["status"] == "ok"
        assert summary["projects"]["bad"]["status"] == "error"

    def test_every_project_failing_exits_1_with_summary(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            [{"name": "bad", "history": "missing.csv"}],
            {"base": {"type": "base_order"}},
        )
        out = tmp_path / "out"
        assert main(["evaluate", "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("bad: FAILED (")
        summary = json.loads((out / "summary.json").read_text())
        assert summary["projects"]["bad"]["status"] == "error"

    def test_invalid_spec_exits_2(self, tmp_path, capsys):
        history_path = make_history_file(tmp_path, "proj", seed=10)
        config = write_config(
            tmp_path,
            [{"name": "proj", "history": history_path.name}],
            {"broken": {"type": "no_such"}},
        )
        assert main(["evaluate", "--config", str(config), "--out", str(tmp_path / "o")]) == 2

    def test_out_of_range_alpha_exits_2(self, tmp_path, capsys):
        history_path = make_history_file(tmp_path, "proj", seed=10)
        config = write_config(
            tmp_path,
            [{"name": "proj", "history": history_path.name}],
            {"flat": {"type": "exe_time", "alpha": 0}},
        )
        assert main(["evaluate", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: approach 'flat': ALPHA_OUT_OF_RANGE: alpha must be in (0, 1], got 0.0\n"
        )

    @pytest.mark.parametrize(
        "spec, message",
        [
            (
                {"type": "exe_time", "alpha": 10**400},
                "alpha must fit in a float, got a 1329-bit integer",
            ),
            (
                {
                    "type": "borda_mix",
                    "children": [{"weight": 10**400, "spec": {"type": "exe_time"}}],
                },
                "child weight must fit in a float, got a 1329-bit integer",
            ),
        ],
        ids=["alpha", "weight"],
    )
    def test_integer_too_large_for_a_float_exits_2(self, tmp_path, capsys, spec, message):
        history_path = make_history_file(tmp_path, "proj", seed=10)
        config = write_config(
            tmp_path, [{"name": "proj", "history": history_path.name}], {"big": spec}
        )
        assert main(["evaluate", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: approach 'big': {message}\n"

    @pytest.mark.parametrize("kind", sorted(UNREADABLE_JSON))
    def test_unreadable_config_exits_2(self, tmp_path, capsys, kind):
        config, expected = unreadable_json(tmp_path, kind)
        out = tmp_path / "o"
        assert main(["evaluate", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == expected
        assert not out.exists()

    def test_out_under_a_regular_file_exits_2(self, tmp_path, capsys):
        history_path = make_history_file(tmp_path, "proj", seed=10)
        config = write_config(
            tmp_path,
            [{"name": "proj", "history": history_path.name}],
            {"base": {"type": "base_order"}},
        )
        blocker = tmp_path / "blocker"
        blocker.write_text("", encoding="utf-8")
        out = blocker / "out"
        assert main(["evaluate", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(out) in err

    def test_out_checked_before_the_replay(self, tmp_path, capsys, monkeypatch):
        history_path = make_history_file(tmp_path, "proj", seed=10)
        config = write_config(
            tmp_path,
            [{"name": "proj", "history": history_path.name}],
            {"base": {"type": "base_order"}},
        )

        def replay(config, jobs=1):
            raise AssertionError("replayed before --out was checked")

        monkeypatch.setattr("tcp_lab.evaluation.run_evaluation", replay)
        blocker = tmp_path / "blocker"
        blocker.write_text("", encoding="utf-8")
        out = blocker / "out"
        assert main(["evaluate", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_bad_ranking_fails_only_its_project(self, tmp_path, capsys, monkeypatch):
        good = make_history_file(tmp_path, "good", seed=9)
        doomed = ProjectHistory(
            "doomed",
            tuple(cycle(i, ["a", "b", "lost"], failures=["a"]) for i in range(3)),
        )
        write_canonical(doomed, tmp_path / "doomed.csv")
        config = write_config(
            tmp_path,
            [
                {"name": "good", "history": good.name},
                {"name": "doomed", "history": "doomed.csv"},
            ],
            {"base": {"type": "base_order"}},
        )

        class DropsOneCase(Approach):
            def rank(self, suite):
                return RankedSuite(tuple((case,) for case in suite if case != "lost"))

        monkeypatch.setattr(evaluation, "build", lambda spec, **kwargs: DropsOneCase())
        out = tmp_path / "out"
        assert main(["evaluate", "--config", str(config), "--out", str(out)]) == 1
        assert "doomed: FAILED (MISSING_CASE: 'lost')\n" in capsys.readouterr().err
        summary = json.loads((out / "summary.json").read_text())
        assert summary["projects"]["doomed"]["status"] == "error"
        assert summary["projects"]["doomed"]["error"] == "MISSING_CASE: 'lost'"
        assert summary["projects"]["good"]["status"] == "ok"
        assert (out / "raw" / "good" / "base.csv").is_file()
        assert not (out / "raw" / "doomed").exists()

    def test_parallel_jobs_match_serial(self, tmp_path):
        paths = [
            make_history_file(tmp_path, name, seed)
            for name, seed in (("p1", 21), ("p2", 22))
        ]
        config = write_config(
            tmp_path,
            [{"name": p.stem, "history": p.name} for p in paths],
            {"fold": {"type": "fold_fails", "folder": "sum"}},
        )
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        assert main(["evaluate", "--config", str(config), "--out", str(serial)]) == 0
        assert (
            main(
                ["evaluate", "--config", str(config), "--out", str(parallel), "--jobs", "2"]
            )
            == 0
        )
        for name in ("p1", "p2"):
            assert (serial / "raw" / name / "fold.csv").read_bytes() == (
                parallel / "raw" / name / "fold.csv"
            ).read_bytes()


    def test_jobs_capped_at_the_project_count(self, tmp_path, monkeypatch):
        paths = [
            make_history_file(tmp_path, name, seed)
            for name, seed in (("p1", 21), ("p2", 22))
        ]
        config = write_config(
            tmp_path,
            [{"name": p.stem, "history": p.name} for p in paths],
            {"base": {"type": "base_order"}},
        )
        workers = []

        class InProcessPool:
            """Records ``max_workers`` and maps in this process; starts no worker."""

            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, function, *iterables):
                return map(function, *iterables)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InProcessPool)
        out = tmp_path / "out"
        assert main(["evaluate", "--config", str(config), "--out", str(out), "--jobs", "8"]) == 0
        assert workers == [2]
        assert (out / "raw" / "p2" / "base.csv").is_file()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_2_before_the_replay(self, tmp_path, capsys, monkeypatch, jobs):
        history_path = make_history_file(tmp_path, "proj", seed=10)
        config = write_config(
            tmp_path,
            [{"name": "proj", "history": history_path.name}],
            {"base": {"type": "base_order"}},
        )

        def replay(config, jobs=1):
            raise AssertionError("replayed with a bad --jobs")

        monkeypatch.setattr("tcp_lab.evaluation.run_evaluation", replay)
        out = tmp_path / "out"
        assert main(["evaluate", "--config", str(config), "--out", str(out), "--jobs", jobs]) == 2
        assert capsys.readouterr().err == (
            f"error: --jobs must be a positive integer, got {int(jobs)}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, name",
        [
            ("project", ""),
            ("project", "."),
            ("project", ".."),
            ("project", "../escaped"),
            ("project", "a\\b"),
            ("approach", "a/b"),
            ("approach", ".."),
            ("approach", "a\\b"),
        ],
    )
    def test_name_that_is_not_one_path_component_exits_2(self, tmp_path, capsys, field, name):
        history_path = make_history_file(tmp_path, "proj", seed=10)
        project = name if field == "project" else "proj"
        approach = name if field == "approach" else "base"
        run = tmp_path / "run"
        run.mkdir()
        config = write_config(
            run,
            [{"name": project, "history": f"../{history_path.name}"}],
            {approach: {"type": "base_order"}},
        )
        out = run / "out"
        assert main(["evaluate", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {field} name {name!r} must be one plain path component\n"
        )
        assert sorted(p.name for p in run.iterdir()) == ["config.json"]

    @pytest.mark.parametrize(
        "name", [None, 5, {}, True], ids=["null", "number", "object", "true"]
    )
    def test_project_name_that_is_not_a_string_exits_2(self, tmp_path, capsys, name):
        # str() would turn null into a project called "None", writing raw/None/
        history_path = make_history_file(tmp_path, "proj", seed=10)
        run = tmp_path / "run"
        run.mkdir()
        config = write_config(
            run,
            [{"name": name, "history": f"../{history_path.name}"}],
            {"base": {"type": "base_order"}},
        )
        out = run / "out"
        assert main(["evaluate", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: project name must be a JSON string, got {json.dumps(name)}\n"
        )
        assert sorted(p.name for p in run.iterdir()) == ["config.json"]

    @pytest.mark.parametrize(
        "durations, failures, n_cycles, bad_cycle",
        [
            # the cycle total overflows
            ({"a": 1e308, "b": 1e308, "c": 1.0}, "a", 2, 1),
            # the total is under half the largest float, but the APFD_C
            # numerator (about 3 x total) and denominator (6 x total) overflow
            (dict.fromkeys("abcdef", 1.4e307), "abcdef", 2, 1),
            # each cycle is fine, the sums over cycles in NTR and ATR overflow
            ({"a": 2e307, "b": 2e307}, "a", 10, 3),
        ],
        ids=["cycle_total", "suite_times_total", "across_cycles"],
    )
    def test_durations_too_large_to_sum_fail_the_project(
        self, tmp_path, capsys, durations, failures, n_cycles, bad_cycle
    ):
        # cycle 0 holds ordinary durations, each later cycle the large ones
        huge = ProjectHistory(
            "huge",
            tuple(
                cycle(i, list(durations), failures, durations if i else None)
                for i in range(n_cycles)
            ),
        )
        write_canonical(huge, tmp_path / "huge.csv")
        config = write_config(
            tmp_path,
            [{"name": "huge", "history": "huge.csv"}],
            {"base": {"type": "base_order"}},
            metrics=["apfd_c", "ntr", "atr"],
        )
        out = tmp_path / "out"
        assert main(["evaluate", "--config", str(config), "--out", str(out)]) == 1
        message = (
            f"PARSE_ERROR: project 'huge', cycle {bad_cycle}: durations too large to sum "
            f"(over {sys.float_info.max / 2!r} s)"
        )
        assert f"huge: FAILED ({message})\n" in capsys.readouterr().err

        def reject(constant):
            raise AssertionError(f"summary.json holds {constant}")

        summary = json.loads((out / "summary.json").read_text(), parse_constant=reject)
        assert summary["projects"]["huge"]["status"] == "error"
        assert summary["projects"]["huge"]["error"] == message
        assert not (out / "raw" / "huge").exists()

    def test_summary_aggregates_follow_from_raw_and_timing(self, tmp_path):
        noisy = make_history_file(tmp_path, "noisy", seed=31, n_cycles=12, build_time=0.0)
        # no failed cycle: no APFD-family value and no NTR
        quiet = ProjectHistory("quiet", tuple(cycle(i, ["a", "b", "c"]) for i in range(4)))
        # every case failing at equal cost: both rectified values are excluded
        edge = ProjectHistory(
            "edge",
            (
                cycle(0, ["a", "b", "c"], failures=["a", "b", "c"]),
                cycle(1, ["a", "b", "c"], failures=["b"], durations={"a": 2.5}),
                cycle(2, ["a", "b", "c"]),
            ),
        )
        write_canonical(quiet, tmp_path / "quiet.csv")
        write_canonical(edge, tmp_path / "edge.csv")
        projects = [{"name": "noisy", "history": noisy.name}]
        projects += [{"name": name, "history": f"{name}.csv"} for name in ("quiet", "edge")]
        config = write_config(
            tmp_path,
            projects,
            {"random": {"type": "random_order"}, "fold": {"type": "fold_fails", "folder": "sum"}},
            repetitions=4,
        )
        out = tmp_path / "out"
        assert main(["evaluate", "--config", str(config), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["projects"]["edge"]["approaches"]["fold"]["exclusions"] == {
            "rapfd_degenerate": 1,
            "rapfd_c_degenerate": 1,
        }
        for project in ("noisy", "quiet", "edge"):
            for approach, repetitions in (("random", 4), ("fold", 1)):
                entry = summary["projects"][project]["approaches"][approach]
                assert entry["repetitions"] == repetitions
                expected = aggregates_from_csvs(
                    out / "raw" / project / f"{approach}.csv",
                    out / "timing" / project / f"{approach}.csv",
                )
                assert entry["no_data"] == [k for k, v in expected.items() if v is None]
                actual = entry["aggregates"]
                assert list(actual) == sorted(expected)
                assert actual["total_pt"] == pytest.approx(expected.pop("total_pt"), abs=1e-12)
                assert {k: actual[k] for k in expected} == expected


def aggregates_from_csvs(raw_path, timing_path):
    """Every aggregate of one (project, approach), recomputed from its written rows."""
    raw = list(csv.DictReader(raw_path.open(encoding="utf-8")))
    timing = list(csv.DictReader(timing_path.open(encoding="utf-8")))
    family = [m for m in ("apfd", "apfd_c", "rapfd", "rapfd_c") if m in raw[0]]
    keys = [f"{m}_{s}" for m in family for s in ("mean", "median")] + ["ntr", "atr", "total_pt"]
    series = {key: [] for key in keys}
    for rep in sorted({int(row["repetition"]) for row in raw}):
        rows = [row for row in raw if int(row["repetition"]) == rep]
        times = [row for row in timing if int(row["repetition"]) == rep]
        failed = [row for row in rows if int(row["fault_count"]) > 0]
        for metric in family:
            values = [float(row[metric]) for row in failed if row[metric] != ""]
            if values:
                series[f"{metric}_mean"].append(statistics.mean(values))
                series[f"{metric}_median"].append(statistics.median(values))
        full = [float(row["full_time"]) for row in failed]
        saved = [f - float(row["first_fault_time"]) for f, row in zip(full, failed)]
        if failed and sum(full) != 0:
            series["ntr"].append(sum(saved) / sum(full))
        baseline = sum(float(row["baseline_tt_s"]) for row in times)
        if baseline != 0:
            spent = sum(float(row["testing_time_s"]) for row in times)
            series["atr"].append(1.0 - spent / baseline)
        series["total_pt"].append(sum(float(row["prioritization_s"]) for row in times))
    return {key: sum(s) / len(s) if s else None for key, s in series.items()}


# A 2-row CSV whose second row (line 3) holds a byte that is not UTF-8, or a
# quoted field over the csv module's 131072-character limit.
UNREADABLE_CSV = {
    "not_utf8": (b"\xff", "byte 0xff is not UTF-8 (invalid start byte)"),
    "huge_field": (
        b'"' + b"x" * 131073 + b'"',
        "field larger than field limit (131072)",
    ),
}


@pytest.mark.parametrize("fault", sorted(UNREADABLE_CSV))
class TestUnreadableCsv:
    """Each CSV the CLI reads turns undecodable or oversized input into one
    ``error:`` line naming the file and line, with exit 2."""

    def test_history(self, tmp_path, capsys, fault):
        cell, detail = UNREADABLE_CSV[fault]
        history = tmp_path / "h.csv"
        history.write_bytes(
            b"cycle,job_id,commit_id,build_time,position,test_name,duration,verdict\n"
            b"0,j,c,,0,a,1.0,pass\n"
            b"0,j,c,,1," + cell + b",1.0,fail\n"
        )
        argv = ["prioritize", "--history", str(history), "--preset", "P1.2", "--cycle", "0"]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: PARSE_ERROR: h.csv:3: {detail}\n"

    def test_ingest_data_file(self, rtp_like_dataset, tmp_path, capsys, fault):
        _, mapping = rtp_like_dataset
        cell, detail = UNREADABLE_CSV[fault]
        data = tmp_path / "runs.csv"
        data.write_bytes(
            b"build,job,sha,test,secs,outcome\n"
            b"1,j1,c1,alpha,0.5,pass\n"
            b"1,j1,c1," + cell + b",1.5,fail\n"
        )
        out = tmp_path / "x.csv"
        argv = ["ingest", "--in", str(data), "--mapping", str(mapping), "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: PARSE_ERROR: runs.csv:3: {detail}\n"
        assert not out.exists()

    def test_build_times_table(self, rtp_like_dataset, tmp_path, capsys, fault):
        data, mapping = rtp_like_dataset
        cell, detail = UNREADABLE_CSV[fault]
        times = tmp_path / "times.csv"
        times.write_bytes(b"job_id,seconds\nj1,30\n" + cell + b",40\n")
        out = tmp_path / "x.csv"
        argv = ["ingest", "--in", str(data), "--mapping", str(mapping), "--out", str(out)]
        assert main(argv + ["--build-times", str(times)]) == 2
        assert capsys.readouterr().err == f"error: PARSE_ERROR: times.csv:3: {detail}\n"
        assert not out.exists()


class TestReportCommand:
    def evaluated_dir(self, tmp_path):
        paths = [
            make_history_file(tmp_path, name, seed, n_cycles=10)
            for name, seed in (("p1", 31), ("p2", 32), ("p3", 33))
        ]
        config = write_config(
            tmp_path,
            [{"name": p.stem, "history": p.name} for p in paths],
            {
                "base": {"type": "base_order"},
                "fold": {"type": "fold_fails", "folder": "sum"},
                "p2": "P2",
            },
        )
        out = tmp_path / "out"
        assert main(["evaluate", "--config", str(config), "--out", str(out)]) == 0
        return out

    def test_report_writes_tables_boxplots_cd(self, tmp_path):
        out = self.evaluated_dir(tmp_path)
        report_dir = tmp_path / "report"
        code = main(
            ["report", "--raw", str(out), "--format", "md", "--out", str(report_dir)]
        )
        assert code == 0
        table = (report_dir / "table_rapfd_c.md").read_text()
        assert "**" in table and "| Subject program |" in table
        assert (report_dir / "boxplot_rapfd_c.csv").is_file()
        assert (report_dir / "stats.json").is_file()

    def test_report_csv_format(self, tmp_path):
        out = self.evaluated_dir(tmp_path)
        report_dir = tmp_path / "report_csv"
        assert main(["report", "--raw", str(out), "--out", str(report_dir)]) == 0
        table = (report_dir / "table_rapfd_c.csv").read_text()
        lines = table.strip().splitlines()
        assert lines[0].startswith("project,")
        assert lines[-2].startswith("mean,")
        assert lines[-1].startswith("median,")

    def test_empty_raw_dir_exits_2(self, tmp_path, capsys):
        assert (
            main(["report", "--raw", str(tmp_path / "nothing"), "--out", str(tmp_path / "r")])
            == 2
        )

    @pytest.mark.parametrize("kind", sorted(UNREADABLE_JSON))
    def test_unreadable_summary_exits_2(self, tmp_path, capsys, kind):
        path, expected = unreadable_json(tmp_path, kind)
        raw = tmp_path / "raw"
        raw.mkdir()
        path.rename(raw / "summary.json")
        assert main(["report", "--raw", str(raw), "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == expected

    @pytest.mark.parametrize(
        "summary, message",
        [
            ([], "summary must be a JSON object with a 'projects' object"),
            (
                {"projects": {"p1": {"status": "ok"}}},
                "project 'p1' needs 'approaches' holding 'aggregates'",
            ),
            (
                {
                    "projects": {
                        "p1": {"status": "ok", "approaches": {"a": {"aggregates": "x"}}}
                    }
                },
                "project 'p1' needs 'approaches' holding 'aggregates'",
            ),
            (
                {
                    "projects": {
                        "p1": {
                            "status": "ok",
                            "approaches": {"a": {"aggregates": {"apfd_mean": "0.5"}}},
                        }
                    }
                },
                "p1/a: apfd_mean is not a number: '0.5'",
            ),
        ],
        ids=["top_level_list", "no_approaches", "aggregates_string", "value_string"],
    )
    def test_malformed_summary_exits_2(self, tmp_path, capsys, summary, message):
        raw = tmp_path / "raw"
        raw.mkdir()
        (raw / "summary.json").write_text(json.dumps(summary), encoding="utf-8")
        assert main(["report", "--raw", str(raw), "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def summary_with(self, tmp_path, value):
        """A raw directory whose 3-project summary has ``value`` as p1/b's rapfd_c_mean."""
        summary = {
            "projects": {
                f"p{i}": {
                    "status": "ok",
                    "approaches": {
                        a: {"aggregates": {"rapfd_c_mean": 0.1 * i + 0.01 * j}}
                        for j, a in enumerate(["a", "b"])
                    },
                }
                for i in range(3)
            }
        }
        summary["projects"]["p1"]["approaches"]["b"]["aggregates"]["rapfd_c_mean"] = value
        raw = tmp_path / "raw"
        raw.mkdir()
        (raw / "summary.json").write_text(json.dumps(summary), encoding="utf-8")
        return raw

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_aggregate_exits_2(self, tmp_path, capsys, value):
        raw = self.summary_with(tmp_path, float(value))
        # json.dumps writes NaN, Infinity and -Infinity, which json.loads reads
        assert value in (raw / "summary.json").read_text(encoding="utf-8")
        assert main(["report", "--raw", str(raw), "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == (
            f"error: p1/b: rapfd_c_mean is not finite: {float(value)!r}\n"
        )
        assert not any((tmp_path / "r").iterdir())

    @pytest.mark.parametrize("fmt", ["md", "csv"])
    def test_integer_too_large_for_a_float_exits_2(self, tmp_path, capsys, fmt):
        # json.loads reads a long integer literal as an int of any size
        raw = self.summary_with(tmp_path, 10**400)
        argv = ["report", "--raw", str(raw), "--out", str(tmp_path / "r"), "--format", fmt]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: p1/b: rapfd_c_mean is too large for a float\n"
        assert not any((tmp_path / "r").iterdir())

    @pytest.mark.parametrize("fmt", ["md", "csv"])
    def test_largest_float_as_an_integer_is_reported(self, tmp_path, fmt):
        raw = self.summary_with(tmp_path, int(sys.float_info.max))
        argv = ["report", "--raw", str(raw), "--out", str(tmp_path / "r"), "--format", fmt]
        assert main(argv) == 0

    @pytest.mark.parametrize("fmt", ["md", "csv"])
    def test_integer_aggregates_are_read_as_floats(self, tmp_path, fmt):
        # no float holds 10**17 + 1: kept as ints, every value of b lay above
        # the whiskers of its float quartiles, and boxplot_rows failed
        raw = self.summary_with(tmp_path, 10**17 + 1)
        summary = json.loads((raw / "summary.json").read_text(encoding="utf-8"))
        for project in summary["projects"].values():
            project["approaches"]["b"]["aggregates"]["rapfd_c_mean"] = 10**17 + 1
        (raw / "summary.json").write_text(json.dumps(summary), encoding="utf-8")
        argv = ["report", "--raw", str(raw), "--out", str(tmp_path / "r"), "--format", fmt]
        assert main(argv) == 0
        boxplot = (tmp_path / "r" / "boxplot_rapfd_c.csv").read_text(encoding="utf-8")
        assert boxplot.splitlines()[2] == "b,3,1e+17,1e+17,1e+17,1e+17,1e+17,1e+17,"

    @pytest.mark.parametrize("alpha", ["nan", "inf", "-1", "0", "1", "2"])
    def test_alpha_outside_open_unit_interval_exits_2(self, tmp_path, capsys, alpha):
        out = self.evaluated_dir(tmp_path)
        capsys.readouterr()
        report_dir = tmp_path / "report"
        argv = ["report", "--raw", str(out), "--out", str(report_dir), "--alpha", alpha]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: alpha must lie strictly between 0 and 1, got {float(alpha)!r}\n"
        )
        assert not report_dir.exists()


class TestReportRendering:
    def table(self, cells):
        return MetricTable(
            metric="rapfd_c",
            approaches=("A", "B"),
            projects=tuple(f"p{i}" for i in range(len(cells))),
            cells=tuple(map(tuple, cells)),
        )

    def test_best_marked_once_per_row(self):
        text = render_table_markdown(self.table([[0.5, 0.7], [0.9, 0.2]]))
        rows = [line for line in text.splitlines() if line.startswith("| p")]
        assert rows[0].count("**") == 2  # one bolded cell
        assert "**0.700**" in rows[0]
        assert "**0.900**" in rows[1]

    def test_ties_all_marked(self):
        text = render_table_markdown(self.table([[0.7001, 0.7002]]))
        # equal at the rendered 3-decimal precision: both bolded
        row = [line for line in text.splitlines() if line.startswith("| p0")][0]
        assert row.count("**") == 4

    def test_footer_recomputes_mean_median(self):
        table = self.table([[0.2, 0.4], [0.8, 0.4]])
        means, medians = table.footer()
        assert means == (pytest.approx(0.5), pytest.approx(0.4))
        assert medians == (pytest.approx(0.5), pytest.approx(0.4))

    def test_boxplot_quartiles_linear_interpolation(self):
        table = MetricTable(
            metric="x",
            approaches=("A",),
            projects=("p0", "p1", "p2", "p3"),
            cells=((1.0,), (2.0,), (3.0,), (4.0,)),
        )
        (row,) = boxplot_rows(table)
        assert row["q1"] == pytest.approx(1.75)
        assert row["median"] == pytest.approx(2.5)
        assert row["q3"] == pytest.approx(3.25)
        assert row["whisker_low"] == 1.0
        assert row["whisker_high"] == 4.0
        assert row["outliers"] == []

    @settings(max_examples=1000, deadline=None)
    @given(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=30),
        st.one_of(st.sampled_from([0, 25, 50, 75, 100]), st.floats(0, 100)),
    )
    def test_percentile_equals_numpy(self, values, percent):
        got = _percentile(sorted(values), percent)
        want = float(np.percentile(values, percent))
        # an overflowing difference of neighbours gives nan on both sides
        assert got == want or (math.isnan(got) and math.isnan(want))
        # numpy's partition may return either of two equal signed zeros
        if not any(v == 0 and math.copysign(1, v) < 0 for v in values):
            assert repr(got) == repr(want)

    def test_boxplot_outliers_beyond_whiskers(self):
        values = [1.0, 1.1, 1.2, 1.3, 9.9]
        table = MetricTable(
            metric="x",
            approaches=("A",),
            projects=tuple(f"p{i}" for i in range(5)),
            cells=tuple((v,) for v in values),
        )
        (row,) = boxplot_rows(table)
        assert row["outliers"] == [9.9]
        assert row["whisker_high"] == 1.3


class TestPrioritizeCommand:
    def history_path(self, tmp_path, cases=("a", "b", "c")):
        history = ProjectHistory(
            "p",
            (
                cycle(0, cases, failures=["b"], durations={"a": 1, "b": 2, "c": 3}),
                cycle(1, cases, durations={"a": 1, "b": 2, "c": 3}),
            ),
        )
        path = tmp_path / "h.csv"
        write_canonical(history, path)
        return path

    def spec_file(self, tmp_path, spec):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        return path

    def test_base_order_echoes_original(self, tmp_path, capsys):
        spec = self.spec_file(tmp_path, {"type": "base_order"})
        code = main(
            [
                "prioritize",
                "--history",
                str(self.history_path(tmp_path)),
                "--spec",
                str(spec),
                "--cycle",
                "1",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.splitlines() == ["a", "b", "c"]

    def test_fold_fails_puts_failed_case_first(self, tmp_path, capsys):
        # six cases: evaluate, and so prioritize, observes no smaller cycle
        spec = self.spec_file(tmp_path, {"type": "fold_fails", "folder": "sum"})
        code = main(
            [
                "prioritize",
                "--history",
                str(self.history_path(tmp_path, cases="abcdef")),
                "--spec",
                str(spec),
                "--cycle",
                "1",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0] == "b"

    def prioritize(self, tmp_path, spec_text):
        spec = tmp_path / "spec.json"
        spec.write_text(spec_text, encoding="utf-8")
        history = str(self.history_path(tmp_path))
        return main(["prioritize", "--history", history, "--spec", str(spec), "--cycle", "1"])

    def test_out_of_range_alpha_exits_2(self, tmp_path, capsys):
        assert self.prioritize(tmp_path, '{"type": "exe_time", "alpha": 0}') == 2
        assert capsys.readouterr().err == (
            "error: ALPHA_OUT_OF_RANGE: alpha must be in (0, 1], got 0.0\n"
        )

    def test_nan_weight_exits_2(self, tmp_path, capsys):
        spec = (
            '{"type": "borda_mix", "children": [{"weight": NaN, "spec": "P3.1"},'
            ' {"weight": 1, "spec": {"type": "exe_time"}}]}'
        )
        assert self.prioritize(tmp_path, spec) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: child weight must be finite, got nan\n"

    @pytest.mark.parametrize(
        "spec_text, message",
        [
            (
                '{"type": "exe_time", "alpha": 1%s}' % ("0" * 400),
                "alpha must fit in a float, got a 1329-bit integer",
            ),
            (
                '{"type": "borda_mix", "children": [{"weight": 1%s, "spec": "P3.1"}]}'
                % ("0" * 400),
                "child weight must fit in a float, got a 1329-bit integer",
            ),
        ],
        ids=["alpha", "weight"],
    )
    def test_integer_too_large_for_a_float_exits_2(self, tmp_path, capsys, spec_text, message):
        assert self.prioritize(tmp_path, spec_text) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_source_too_large_for_exact_distances_exits_2(self, tmp_path, capsys, monkeypatch):
        # a 5000-token source over a bound of 1000 stands in for one over 2**51
        # (about 2**25.5 repeats of one token)
        monkeypatch.setattr("tcp_lab.approaches._EXACT_SQUARED_NORM", 1000)
        checkout = tmp_path / "checkout"
        checkout.mkdir()
        (checkout / "a.java").write_text("class A {}", encoding="utf-8")
        (checkout / "b.java").write_text("x " * 5000, encoding="utf-8")
        argv = ["prioritize", "--history", str(self.history_path(tmp_path)), "--preset", "P3.2"]
        assert main(argv + ["--cycle", "1", "--sources", str(checkout)]) == 2
        assert capsys.readouterr() == (
            "",
            "error: SOURCE_TOO_LARGE: source of 'b' too large for exact code distances\n",
        )

    def test_source_too_large_outside_the_target_suite_is_not_read(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr("tcp_lab.approaches._EXACT_SQUARED_NORM", 1000)
        history = ProjectHistory(
            "p",
            (
                cycle(0, ["a", "big"], failures=["a"], durations={"a": 1, "big": 2}),
                cycle(1, ["a", "b"], durations={"a": 1, "b": 2}),
            ),
        )
        path = tmp_path / "h.csv"
        write_canonical(history, path)
        checkout = tmp_path / "checkout"
        checkout.mkdir()
        (checkout / "a.java").write_text("class A {}", encoding="utf-8")
        (checkout / "b.java").write_text("class B { b b }", encoding="utf-8")
        (checkout / "big.java").write_text("x " * 5000, encoding="utf-8")
        argv = ["prioritize", "--history", str(path), "--preset", "P3.2"]
        argv += ["--sources", str(checkout)]
        assert main(argv + ["--cycle", "1"]) == 0
        assert capsys.readouterr() == ("a\nb\n", "")
        assert main(argv + ["--cycle", "0"]) == 2
        assert capsys.readouterr() == (
            "",
            "error: SOURCE_TOO_LARGE: source of 'big' too large for exact code distances\n",
        )

    @pytest.mark.parametrize(
        "spec",
        [
            "P3.2",
            {"type": "code_dist", "metric": "cosine", "start": "first_case"},
            {"type": "code_dist", "metric": "manhattan"},
        ],
        ids=["P3.2", "cosine", "manhattan"],
    )
    def test_code_distance_order_matches_a_build_over_all_sources(
        self, tmp_path, capsys, spec
    ):
        history = random_history(random.Random(11), n_cycles=6, pool_size=12)
        path = tmp_path / "h.csv"
        write_canonical(history, path)
        checkout = tmp_path / "checkout"
        checkout.mkdir()
        for case, text in example_sources(f"t{i:02d}" for i in range(12)).items():
            (checkout / f"{case}.java").write_text(text, encoding="utf-8")
        every_source = attach_sources(history, checkout).sources
        argv = ["prioritize", "--history", str(path), "--sources", str(checkout)]
        argv += ["--spec", str(self.spec_file(tmp_path, spec))]
        # a suite that misses sourced cases is what the target-only sources change
        assert any(set(record.suite) < set(every_source) for record in history.cycles)
        for target, record in enumerate(history.cycles):
            approach = build(spec, sources=every_source, master_seed=0)
            earlier = ProjectHistory(history.project, history.cycles[:target])
            for previous in filter_for_evaluation(earlier).cycles:
                approach.observe(previous.executions)
            ranking = approach.rank(list(record.suite))
            expected = "".join(f"{case}\n" for case in flatten(ranking, FlattenPolicy.STABLE))
            assert main(argv + ["--cycle", str(record.index)]) == 0
            assert capsys.readouterr() == (expected, "")

    def test_small_earlier_cycle_is_not_observed(self, tmp_path, capsys):
        # evaluate drops the 3-case cycle before any approach sees it
        history = ProjectHistory(
            "p",
            (
                cycle(1, ["f", "g", "h"], failures=["h"], durations={"f": 9, "g": 9}),
                cycle(2, "abcdefgh"),
            ),
        )
        path = tmp_path / "h.csv"
        write_canonical(history, path)
        argv = ["prioritize", "--history", str(path), "--preset", "P3.1", "--cycle", "2"]
        assert main(argv) == 0
        assert capsys.readouterr().out.split() == list("abcdefgh")

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**32), n_cycles=st.integers(2, 7))
    def test_matches_the_evaluate_replay(self, seed, n_cycles):
        # every deterministic shipped spec, over histories with cycles below
        # min_suite_size; a small target cycle is ranked all the same
        history = random_history(random.Random(seed), n_cycles=n_cycles, pool_size=9)
        specs = {
            name: spec
            for name, spec in shipped_approach_specs().items()
            if not spec_is_randomized(spec)
        }
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "h.csv"
            write_canonical(history, path)
            checkout = Path(scratch) / "checkout"
            checkout.mkdir()
            for case, text in example_sources(f"t{i:02d}" for i in range(0, 9, 2)).items():
                (checkout / f"{case}.java").write_text(text, encoding="utf-8")
            project = evaluation.ProjectConfig("synthetic", path, checkout)
            kept = evaluation.load_project_history(project, DEFAULT_MIN_SUITE_SIZE)
            for name, spec in specs.items():
                spec_path = Path(scratch) / f"{name}.json"
                spec_path.write_text(json.dumps(spec), encoding="utf-8")
                for record in history.cycles:
                    earlier = tuple(c for c in kept.cycles if c.index < record.index)
                    replayed = ProjectHistory(kept.project, (*earlier, record), kept.sources)
                    approach = build(spec, sources=kept.sources, master_seed=0)
                    *_, (_, ranking, _) = evaluation.replay(approach, replayed)
                    argv = ["prioritize", "--history", str(path), "--spec", str(spec_path)]
                    argv += ["--sources", str(checkout), "--cycle", str(record.index)]
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        assert main(argv) == 0
                    expected = flatten(ranking, FlattenPolicy.STABLE)
                    assert out.getvalue().split() == list(expected), (name, record.index)

    def test_unknown_preset_exits_2(self, tmp_path, capsys):
        code = main(
            [
                "prioritize",
                "--history",
                str(self.history_path(tmp_path)),
                "--preset",
                "P9.9",
                "--cycle",
                "1",
            ]
        )
        assert code == 2

    def test_empty_preset_name_exits_2(self, tmp_path, capsys):
        argv = ["prioritize", "--history", str(self.history_path(tmp_path))]
        assert main(argv + ["--preset", "", "--cycle", "1"]) == 2
        assert capsys.readouterr() == ("", "error: unknown preset ''\n")

    @pytest.mark.parametrize("kind", sorted(UNREADABLE_JSON))
    def test_unreadable_spec_exits_2(self, tmp_path, capsys, kind):
        spec, expected = unreadable_json(tmp_path, kind)
        argv = ["prioritize", "--history", str(self.history_path(tmp_path))]
        assert main(argv + ["--spec", str(spec), "--cycle", "1"]) == 2
        assert capsys.readouterr() == ("", expected)

    def test_unknown_cycle_exits_2(self, tmp_path, capsys):
        code = main(
            [
                "prioritize",
                "--history",
                str(self.history_path(tmp_path)),
                "--preset",
                "P1.2",
                "--cycle",
                "42",
            ]
        )
        assert code == 2
        assert "UNKNOWN_CYCLE" in capsys.readouterr().err

    def test_usage_error_exits_2(self, capsys):
        assert main(["prioritize", "--cycle", "1"]) == 2


class TestErrorBoundary:
    """``main`` reports input errors only; a program fault keeps its traceback."""

    @pytest.mark.parametrize(
        "command, fault",
        [("_cmd_report", ValueError), ("_cmd_evaluate", TypeError)],
    )
    def test_program_fault_propagates(self, tmp_path, monkeypatch, command, fault):
        def broken(args):
            raise fault("a bug, not an input error")

        monkeypatch.setattr(f"tcp_lab.cli.{command}", broken)
        argv = {
            "_cmd_report": ["report", "--raw", str(tmp_path)],
            "_cmd_evaluate": ["evaluate", "--config", str(tmp_path / "c.json")],
        }[command]
        with pytest.raises(fault):
            main(argv + ["--out", str(tmp_path / "o")])
