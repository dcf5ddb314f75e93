"""Ingestion, build-time joins, source attachment, and evaluation filters."""

from __future__ import annotations

import csv
import io
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ingest_oracle, read_build_times_oracle
from synth import cycle, random_history
from tcp_lab.dataset import (
    CANONICAL_HEADER,
    CHECKOUT_UNREADABLE,
    EMPTY_HISTORY,
    MISSING_COLUMN,
    PARSE_ERROR,
    ColumnMapping,
    DatasetError,
    attach_sources,
    canonical_mapping,
    filter_for_evaluation,
    ingest,
    join_build_times,
    read_build_times,
    read_canonical,
    write_canonical,
)
from tcp_lab.model import ProjectHistory, Verdict


MAPPING = ColumnMapping(
    cycle_order="build",
    job_id="job",
    commit_id="sha",
    test_name="test",
    duration="secs",
    verdict="outcome",
)

HEADER = "build,job,sha,test,secs,outcome\n"


def write_source(tmp_path, body, name="data.csv"):
    path = tmp_path / name
    path.write_text(HEADER + body, encoding="utf-8")
    return path


class TestIngest:
    def test_two_cycles_two_tests(self, tmp_path):
        path = write_source(
            tmp_path,
            "1,j1,c1,alpha,0.5,pass\n"
            "1,j1,c1,beta,1.5,fail\n"
            "2,j2,c2,alpha,0.6,pass\n"
            "2,j2,c2,beta,1.4,pass\n",
        )
        result = ingest(path, MAPPING, "demo")
        history = result.history
        assert result.rejected_rows == 0
        assert len(history.cycles) == 2
        assert sum(len(c.executions) for c in history.cycles) == 4
        assert history.cycles[0].suite == ("alpha", "beta")
        assert history.cycles[0].executions[1].verdict is Verdict.FAIL
        assert history.cycles[0].job_id == "j1"

    def test_header_only_is_empty_history(self, tmp_path):
        path = write_source(tmp_path, "")
        with pytest.raises(DatasetError) as err:
            ingest(path, MAPPING, "demo")
        assert err.value.code == EMPTY_HISTORY

    def test_negative_duration_is_parse_error_naming_row(self, tmp_path):
        path = write_source(tmp_path, "1,j,c,alpha,-2.0,pass\n")
        with pytest.raises(DatasetError) as err:
            ingest(path, MAPPING, "demo")
        assert err.value.code == PARSE_ERROR
        assert "data.csv:2" in err.value.detail

    def test_error_after_blank_lines_names_the_rows_own_line(self, tmp_path):
        path = write_source(tmp_path, "1,j,c,alpha,1.0,pass\n\n\n1,j,c,beta,-2.0,pass\n")
        with pytest.raises(DatasetError) as err:
            ingest(path, MAPPING, "demo")
        assert err.value.detail == "data.csv:5: negative duration -2.0"

    def test_unparseable_rows_rejected_with_count(self, tmp_path):
        path = write_source(
            tmp_path,
            "1,j,c,alpha,not-a-number,pass\n"
            "1,j,c,beta,1.0,mystery-outcome\n"
            "1,j,c,gamma,1.0,pass\n",
        )
        result = ingest(path, MAPPING, "demo")
        assert result.rejected_rows == 2
        assert result.history.cycles[0].suite == ("gamma",)

    def test_missing_source_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("build,job,sha,test,secs\n1,j,c,a,1.0\n", encoding="utf-8")
        with pytest.raises(DatasetError) as err:
            ingest(path, MAPPING, "demo")
        assert err.value.code == MISSING_COLUMN
        assert "outcome" in err.value.detail

    def test_mapping_from_dict_requires_all_fields(self):
        with pytest.raises(DatasetError) as err:
            ColumnMapping.from_dict({"cycle_order": "build", "job_id": "job"})
        assert err.value.code == MISSING_COLUMN
        assert "verdict" in err.value.detail

    def test_duplicate_case_in_cycle_is_parse_error(self, tmp_path):
        path = write_source(tmp_path, "1,j,c,alpha,1.0,pass\n1,j,c,alpha,2.0,fail\n")
        with pytest.raises(DatasetError) as err:
            ingest(path, MAPPING, "demo")
        assert err.value.code == PARSE_ERROR

    def test_directory_of_files_read_in_name_order(self, tmp_path):
        write_source(tmp_path, "2,j2,c2,a,1.0,pass\n", name="b.csv")
        write_source(tmp_path, "1,j1,c1,a,1.0,fail\n", name="a.csv")
        result = ingest(tmp_path, MAPPING, "demo")
        assert [c.index for c in result.history.cycles] == [1, 2]

    @pytest.mark.parametrize("delimiter", ["", "ab"])
    def test_delimiter_must_be_one_character(self, tmp_path, delimiter):
        path = write_source(tmp_path, "1,j,c,a,1.0,pass\n")
        with pytest.raises(DatasetError) as err:
            ingest(path, MAPPING, "demo", delimiter=delimiter)
        assert err.value.code == PARSE_ERROR
        assert err.value.detail == f"delimiter must be one character, got {delimiter!r}"

    def test_verdict_failure_counts(self, tmp_path):
        path = write_source(tmp_path, "1,j,c,a,1.0,0\n1,j,c,b,1.0,3\n")
        history = ingest(path, MAPPING, "demo").history
        verdicts = {e.case: e.verdict for e in history.cycles[0].executions}
        assert verdicts == {"a": Verdict.PASS, "b": Verdict.FAIL}


class TestCycleMetadataConflicts:
    @pytest.mark.parametrize(
        "second_row, named",
        [
            ("1,j2,c,beta,1.0,pass\n", "job_id 'j2' differs from 'j'"),
            ("1,j,c2,beta,1.0,pass\n", "commit_id 'c2' differs from 'c'"),
        ],
    )
    def test_conflicting_job_or_commit_is_parse_error(self, tmp_path, second_row, named):
        path = write_source(tmp_path, "1,j,c,alpha,1.0,pass\n" + second_row)
        with pytest.raises(DatasetError) as err:
            ingest(path, MAPPING, "demo")
        assert err.value.code == PARSE_ERROR
        assert err.value.detail == f"data.csv:3: {named} in cycle 1"

    def test_conflicting_build_time_is_parse_error(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text(
            ",".join(CANONICAL_HEADER) + "\n"
            "0,j,c,60.0,0,a,1.0,pass\n"
            "0,j,c,,1,b,1.0,pass\n"
            "0,j,c,61.5,2,c,1.0,fail\n",
            encoding="utf-8",
        )
        with pytest.raises(DatasetError) as err:
            read_canonical(path)
        assert err.value.code == PARSE_ERROR
        assert err.value.detail == "h.csv:4: build_time 61.5 differs from 60.0 in cycle 0"

    def test_empty_build_time_is_unknown_not_a_conflict(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text(
            ",".join(CANONICAL_HEADER) + "\n"
            "0,j,c,,0,a,1.0,pass\n"
            "0,j,c,60.0,1,b,1.0,pass\n"
            "0,j,c,,2,c,1.0,fail\n"
            "0,j,c,60,3,d,1.0,pass\n",
            encoding="utf-8",
        )
        (only,) = read_canonical(path).cycles
        assert only.build_time == 60.0
        assert only.suite == ("a", "b", "c", "d")

    def test_conflict_across_files_names_the_later_row(self, tmp_path):
        write_source(tmp_path, "1,j1,c1,a,1.0,pass\n", name="a.csv")
        write_source(tmp_path, "\n1,j1,c9,b,1.0,pass\n", name="b.csv")
        with pytest.raises(DatasetError) as err:
            ingest(tmp_path, MAPPING, "demo")
        assert err.value.detail == "b.csv:3: commit_id 'c9' differs from 'c1' in cycle 1"


# --- one-pass parser against the csv.DictReader oracle -----------------------

_FIELDS = ("cycle", "job", "commit", "name", "duration", "verdict", "build")
_DURATIONS = ["1.5", "0", "2", " 0.25 ", "1e3", "-0.0", "3"] * 3 + ["inf", "nan", "-inf", "x", ""]
_VERDICTS = ["pass", "fail"] * 4 + ["PASS", " Fail ", "0", "3", "ok", "broken", "weird", ""]
_BUILD_TIMES = ["", "60", "12.5", " 7 ", "0", "inf", "nan", "bad"]
_CASES = ["a", "b", " c ", "d.E", "f\ng"]
# at most one fatal row per history, so that most histories parse
_FAULTS = [None] * 16 + [
    ("cycle", "x"), ("cycle", ""), ("cycle", "1.5"), ("name", ""), ("name", "  "),
    ("duration", "-2"), ("build", "-3"), ("duplicate", None),
]


@st.composite
def _history_files(draw):
    """Files of one history with shuffled, extra and repeated columns.

    Each cycle's job, commit and known build time agree across its rows
    (up to padding), so both parsers see no metadata conflicts.
    """
    delimiter = draw(st.sampled_from([",", ";", "\t", "|"]))
    names = dict(zip(_FIELDS, draw(st.sampled_from([
        ("cycle", "job_id", "commit_id", "test_name", "duration", "verdict", "build_time"),
        ("build", "job", "sha", "test", "secs", "outcome", "bt"),
    ]))))
    build_mapped = draw(st.booleans())
    mapping = ColumnMapping(
        cycle_order=names["cycle"],
        job_id=names["job"],
        commit_id=names["commit"],
        test_name=names["name"],
        duration=names["duration"],
        verdict=names["verdict"],
        build_time=names["build"] if build_mapped else None,
    )
    field_of = {name: field for field, name in names.items()}
    rows = []
    for index in range(draw(st.sampled_from([0, 1, 2, 3, 4, 4]))):
        build = draw(st.sampled_from(_BUILD_TIMES))
        for case in draw(st.lists(st.sampled_from(_CASES), unique=True, min_size=1, max_size=4)):
            pad = draw(st.sampled_from(["", " "]))
            rows.append({
                "cycle": f"{pad}{index}",
                "job": f"{pad}job-{index}{pad}",
                "commit": f"c{index}{pad}",
                "name": case,
                "duration": draw(st.sampled_from(_DURATIONS)),
                "verdict": draw(st.sampled_from(_VERDICTS)),
                "build": draw(st.sampled_from([build, build, ""])),
            })
    fault = draw(st.sampled_from(_FAULTS))
    if rows and fault is not None:
        row = draw(st.sampled_from(rows))
        field, token = fault
        if field == "duplicate":
            rows.append(dict(row))
        else:
            row[field] = token
    rows = draw(st.permutations(rows))
    files = {}
    cut = sorted(draw(st.lists(st.integers(0, len(rows)), max_size=2)))
    for number, (start, stop) in enumerate(zip([0] + cut, cut + [len(rows)])):
        fields = list(_FIELDS if draw(st.booleans()) else _FIELDS[:-1])
        if draw(st.sampled_from([False] * 19 + [True])):
            fields.remove(draw(st.sampled_from(fields)))
        header = [names[field] for field in fields] + draw(
            st.lists(st.sampled_from(["position", "extra"]), max_size=2)
        )
        header = list(draw(st.permutations(header)))
        # an earlier column of the same name holds junk; the last one counts
        for name in draw(st.lists(st.sampled_from(header), max_size=2)):
            header.insert(draw(st.integers(0, header.index(name))), name)
        last = {name: i for i, name in enumerate(header)}
        keep = max(last.get(names["job"], 0), last.get(names["commit"], 0)) + 1
        out = io.StringIO()
        writer = csv.writer(out, delimiter=delimiter, lineterminator="\n")
        writer.writerow(header)
        for row in rows[start:stop]:
            cells = [
                row[field_of[name]] if name in field_of and last[name] == i else "junk"
                for i, name in enumerate(header)
            ]
            shape = draw(st.sampled_from(range(20)))
            if shape == 0:
                cells = cells[: draw(st.integers(min(keep, len(cells)), len(cells)))]
            elif shape == 1:
                cells += ["more"] * draw(st.integers(1, 2))
            elif shape == 2:
                out.write("\n" * draw(st.integers(1, 2)))  # blank lines
            writer.writerow(cells)
        files[f"part{number}.csv"] = out.getvalue()
    return files, mapping, delimiter


def _outcome(parse, source, mapping, delimiter):
    try:
        result = parse(source, mapping, "demo", delimiter=delimiter)
    except DatasetError as error:
        return ("error", error.code, error.detail)
    return ("ok", repr(result), result)


@settings(max_examples=400, deadline=None)
@given(_history_files())
def test_ingest_matches_dict_reader_oracle(case):
    files, mapping, delimiter = case
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, text in files.items():
            (root / name).write_text(text, encoding="utf-8")
        (root / ".hidden.csv").write_text("not,a,history\n", encoding="utf-8")
        sources = [root] + ([root / "part0.csv"] if len(files) == 1 else [])
        for source in sources:
            assert _outcome(ingest, source, mapping, delimiter) == _outcome(
                ingest_oracle, source, mapping, delimiter
            )


@st.composite
def _build_time_tables(draw):
    """Build-time tables with shuffled, repeated, extra or missing columns,
    blank lines, short and long rows, and bad or negative seconds."""
    header = list(draw(st.permutations(["job_id", "seconds", "note"])))
    header += draw(st.lists(st.sampled_from(["job_id", "seconds", "x"]), max_size=2))
    if draw(st.sampled_from([False] * 9 + [True])):
        header.remove(draw(st.sampled_from(header)))
    cell = st.sampled_from(["j1", " j2 ", "", "0", "1.5", "30", "-1", "inf", "nan", "x"])
    lines = [header]
    for _ in range(draw(st.integers(0, 5))):
        row = [draw(cell) for _ in header]
        row = row[: draw(st.integers(0, len(row)))] if draw(st.booleans()) else row
        lines.append(row + ["more"] * draw(st.integers(0, 1)))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for row in lines:
        if draw(st.sampled_from([False] * 5 + [True])):
            out.write("\n")  # a blank line
        writer.writerow(row)
    return out.getvalue()


@settings(max_examples=300, deadline=None)
@given(_build_time_tables())
def test_read_build_times_matches_dict_reader_oracle(text):
    def outcome(read, path):
        try:
            return ("ok", read(path))
        except DatasetError as error:
            return ("error", error.code, error.detail)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "times.csv"
        path.write_text(text, encoding="utf-8")
        assert outcome(read_build_times, path) == outcome(read_build_times_oracle, path)


class TestCanonicalRoundTrip:
    def test_round_trip_identity(self, tmp_path):
        rng = random.Random(31)
        for i in range(5):
            history = random_history(rng, n_cycles=6, project=f"proj{i}")
            path = tmp_path / f"history{i}.csv"
            write_canonical(history, path)
            again = read_canonical(path, project=history.project)
            assert again == history

    def test_round_trip_preserves_absent_build_time(self, tmp_path):
        history = ProjectHistory(
            "p",
            (
                cycle(0, ["a"], build_time=None),
                cycle(1, ["a"], build_time=12.25),
            ),
        )
        path = tmp_path / "h.csv"
        write_canonical(history, path)
        again = read_canonical(path, project="p")
        assert again.cycles[0].build_time is None
        assert again.cycles[1].build_time == 12.25

    @pytest.mark.parametrize("token", ["inf", "-inf", "nan", "Infinity"])
    @pytest.mark.parametrize("column", ["duration", "build_time"])
    def test_non_finite_value_is_parse_error(self, tmp_path, token, column):
        bad_row = {
            "duration": f"0,j,c,60.0,1,b,{token},pass\n",
            "build_time": f"0,j,c,{token},1,b,1.0,pass\n",
        }[column]
        path = tmp_path / "h.csv"
        path.write_text(
            "cycle,job_id,commit_id,build_time,position,test_name,duration,verdict\n"
            "0,j,c,60.0,0,a,1.0,fail\n" + bad_row,
            encoding="utf-8",
        )
        with pytest.raises(DatasetError) as err:
            read_canonical(path)
        assert err.value.code == PARSE_ERROR

    def test_project_defaults_to_stem(self, tmp_path):
        history = ProjectHistory("anything", (cycle(0, ["a"]),))
        path = tmp_path / "neat-name.csv"
        write_canonical(history, path)
        assert read_canonical(path).project == "neat-name"


class TestJoinBuildTimes:
    def history(self):
        return ProjectHistory(
            "p",
            (
                cycle(0, ["a"], job_id="j0"),
                cycle(1, ["a"], job_id="j1"),
                cycle(2, ["a"], job_id="j2"),
            ),
        )

    def test_all_matched(self):
        joined, mismatches = join_build_times(
            self.history(), {"j0": 1.0, "j1": 2.0, "j2": 3.0}
        )
        assert mismatches == 0
        assert [c.build_time for c in joined.cycles] == [1.0, 2.0, 3.0]

    def test_one_unmatched_keeps_absent(self):
        joined, mismatches = join_build_times(self.history(), {"j0": 1.0, "j2": 3.0})
        assert mismatches == 1
        assert joined.cycles[1].build_time is None

    def test_empty_table_all_absent(self):
        joined, mismatches = join_build_times(self.history(), {})
        assert mismatches == 3
        assert all(c.build_time is None for c in joined.cycles)

    def test_never_alters_executions(self):
        history = self.history()
        joined, _ = join_build_times(history, {"j1": 5.0})
        for before, after in zip(history.cycles, joined.cycles):
            assert before.executions == after.executions

    def test_read_build_times_table(self, tmp_path):
        path = tmp_path / "times.csv"
        path.write_text("job_id,seconds\nj0,10.5\nj1,0\n", encoding="utf-8")
        assert read_build_times(path) == {"j0": 10.5, "j1": 0.0}

    @pytest.mark.parametrize("token", ["inf", "nan"])
    def test_read_build_times_rejects_non_finite(self, tmp_path, token):
        path = tmp_path / "times.csv"
        path.write_text(f"job_id,seconds\nj0,10.5\nj1,{token}\n", encoding="utf-8")
        with pytest.raises(DatasetError) as err:
            read_build_times(path)
        assert err.value.code == PARSE_ERROR


class TestAttachSources:
    def test_resolvable_case_gets_text(self, tmp_path):
        (tmp_path / "com" / "demo").mkdir(parents=True)
        (tmp_path / "com" / "demo" / "AlphaTest.java").write_text(
            "class AlphaTest {}", encoding="utf-8"
        )
        history = ProjectHistory("p", (cycle(0, ["com.demo.AlphaTest", "com.demo.Gone"]),))
        attached = attach_sources(history, tmp_path)
        assert attached.sources["com.demo.AlphaTest"] == "class AlphaTest {}"
        assert "com.demo.Gone" not in attached.sources

    def test_search_roots(self, tmp_path):
        nested = tmp_path / "src" / "test" / "java" / "pkg"
        nested.mkdir(parents=True)
        (nested / "T.java").write_text("class T {}", encoding="utf-8")
        history = ProjectHistory("p", (cycle(0, ["pkg.T"]),))
        attached = attach_sources(history, tmp_path)
        assert attached.sources["pkg.T"] == "class T {}"

    def test_unreadable_root(self, tmp_path):
        with pytest.raises(DatasetError) as err:
            attach_sources(ProjectHistory("p", (cycle(0, ["a"]),)), tmp_path / "absent")
        assert err.value.code == CHECKOUT_UNREADABLE

    def test_commit_resolver_selects_tree(self, tmp_path):
        for commit, body in (("c0", "old"), ("c1", "new")):
            tree = tmp_path / commit
            tree.mkdir()
            (tree / "T.java").write_text(body, encoding="utf-8")
        history = ProjectHistory(
            "p", (cycle(0, ["T"], commit_id="c0"), cycle(1, ["T"], commit_id="c1"))
        )
        attached = attach_sources(
            history, tmp_path, commit_resolver=lambda commit: tmp_path / commit
        )
        # the latest resolvable cycle wins
        assert attached.sources["T"] == "new"

    def test_latest_tree_holding_the_case_wins(self, tmp_path):
        for commit, body in (("c0", "old"), ("c1", "new"), ("c2", None)):
            tree = tmp_path / commit
            tree.mkdir()
            if body is not None:
                (tree / "T.java").write_text(body, encoding="utf-8")
        history = ProjectHistory(
            "p",
            tuple(cycle(i, ["T"], commit_id=f"c{i}") for i in range(3))
            + (cycle(3, ["T"], commit_id="c0"), cycle(4, ["T"], commit_id="c2")),
        )
        attached = attach_sources(
            history, tmp_path, commit_resolver=lambda commit: tmp_path / commit
        )
        assert attached.sources["T"] == "old"

    def test_each_source_read_once_per_tree(self, tmp_path, monkeypatch):
        for name in ("A", "B"):
            (tmp_path / f"{name}.java").write_text(f"class {name} {{}}", encoding="utf-8")
        reads = []
        read_text = Path.read_text

        def counted_read_text(path, *args, **kwargs):
            reads.append(path.name)
            return read_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", counted_read_text)
        history = ProjectHistory(
            "p", tuple(cycle(i, ["A", "B", "Gone"]) for i in range(4))
        )
        attached = attach_sources(history, tmp_path)
        assert attached.sources == {"A": "class A {}", "B": "class B {}"}
        assert sorted(reads) == ["A.java", "B.java"]


class TestFilterForEvaluation:
    def sized_history(self, sizes):
        cycles = []
        for i, size in enumerate(sizes):
            cycles.append(cycle(i, [f"t{i}_{j}" for j in range(size)]))
        return ProjectHistory("p", tuple(cycles))

    def test_threshold_keeps_big_suites(self):
        filtered = filter_for_evaluation(self.sized_history([3, 6, 10]), 6)
        assert [len(c.executions) for c in filtered.cycles] == [6, 10]

    def test_min_one_is_identity(self):
        history = self.sized_history([3, 6, 10])
        assert filter_for_evaluation(history, 1) == history

    def test_all_below_threshold_gives_empty_history(self):
        filtered = filter_for_evaluation(self.sized_history([2, 3]), 6)
        assert filtered.cycles == ()

    def test_idempotent(self):
        history = self.sized_history([3, 6, 10, 5, 8])
        once = filter_for_evaluation(history, 6)
        assert filter_for_evaluation(once, 6) == once

    def test_indices_preserved_not_renumbered(self):
        filtered = filter_for_evaluation(self.sized_history([3, 6, 10]), 6)
        assert [c.index for c in filtered.cycles] == [1, 2]

    def test_min_size_validated(self):
        with pytest.raises(ValueError):
            filter_for_evaluation(self.sized_history([3]), 0)

    def test_canonical_mapping_is_complete(self):
        mapping = canonical_mapping()
        assert mapping.build_time == "build_time"
        for field in ColumnMapping.REQUIRED:
            assert getattr(mapping, field)
