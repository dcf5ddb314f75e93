"""Render evaluation outputs into comparison tables, boxplot data, and
critical-difference data.

Tables have one row per subject program and one column per approach, with
Mean and Median footer rows recomputed from the table rows. In markdown the
best value of each row is bolded (ties all bolded, judged on the 3-decimal
rendering); CSV files keep full precision and no marking, as they are meant
for machines. Boxplot files carry quartiles under the linear-interpolation
quantile rule, whiskers at 1.5x the interquartile range, outliers, and the
mean. Plots themselves are out of scope: any plotting tool can consume the
CSV files.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from tcp_lab.model import InputError, read_json
from tcp_lab.stats import DegenerateMatrixError, ScoreMatrix, cd_grouping

TABLE_METRICS = ("rapfd_c", "apfd", "apfd_c", "rapfd", "ntr", "atr")


class ReportError(InputError):
    """Report inputs missing or unusable."""


def _aggregate_key(metric: str) -> str:
    return metric if metric in ("ntr", "atr") else f"{metric}_mean"


def load_summary(eval_dir: Path | str) -> dict:
    """The parsed ``summary.json``; unreadable JSON raises :class:`ReportError`."""
    path = Path(eval_dir) / "summary.json"
    if not path.is_file():
        raise ReportError(f"no summary.json under {eval_dir}")
    return read_json(path, ReportError)


@dataclass(frozen=True)
class MetricTable:
    metric: str
    approaches: tuple[str, ...]
    projects: tuple[str, ...]
    cells: tuple[tuple[float | None, ...], ...]

    def footer(self) -> tuple[tuple[float | None, ...], tuple[float | None, ...]]:
        """(means, medians) across the per-project rows, per approach."""
        means: list[float | None] = []
        medians: list[float | None] = []
        for j in range(len(self.approaches)):
            column = [row[j] for row in self.cells if row[j] is not None]
            means.append(statistics.mean(column) if column else None)
            medians.append(statistics.median(column) if column else None)
        return tuple(means), tuple(medians)


def _ok_aggregates(summary: object) -> dict[str, dict[str, Mapping]]:
    """Each ok project's aggregates by approach; a malformed summary is a ReportError."""
    projects = summary.get("projects", {}) if isinstance(summary, Mapping) else None
    if not isinstance(projects, Mapping):
        raise ReportError("summary must be a JSON object with a 'projects' object")
    ok: dict[str, dict[str, Mapping]] = {}
    for name, entry in projects.items():
        if isinstance(entry, Mapping) and entry.get("status") != "ok":
            continue
        approaches = entry.get("approaches") if isinstance(entry, Mapping) else None
        if not isinstance(approaches, Mapping) or not all(
            isinstance(a, Mapping) and isinstance(a.get("aggregates"), Mapping)
            for a in approaches.values()
        ):
            raise ReportError(f"project {name!r} needs 'approaches' holding 'aggregates'")
        ok[name] = {approach: a["aggregates"] for approach, a in approaches.items()}
    return ok


def metric_tables(summary: Mapping) -> list[MetricTable]:
    aggregates = _ok_aggregates(summary)
    projects = list(aggregates)
    if not projects:
        raise ReportError("summary contains no successfully evaluated projects")
    approaches = sorted({approach for name in projects for approach in aggregates[name]})
    if not approaches:
        raise ReportError("summary contains no approaches")
    tables = []
    for metric in TABLE_METRICS:
        key = _aggregate_key(metric)
        cells = []
        any_value = False
        for project in projects:
            row = []
            for approach in approaches:
                value = aggregates[project].get(approach, {}).get(key)
                if value is not None:
                    if type(value) not in (int, float):
                        raise ReportError(f"{project}/{approach}: {key} is not a number: {value!r}")
                    # every later step sees floats only; json.loads reads a long
                    # integer literal as an int of any size
                    try:
                        value = float(value)
                    except OverflowError:
                        raise ReportError(
                            f"{project}/{approach}: {key} is too large for a float"
                        ) from None
                    # and NaN, Infinity and -Infinity as floats
                    if not math.isfinite(value):
                        raise ReportError(f"{project}/{approach}: {key} is not finite: {value!r}")
                row.append(value)
                any_value = any_value or value is not None
            cells.append(tuple(row))
        if any_value:
            tables.append(
                MetricTable(metric, tuple(approaches), tuple(projects), tuple(cells))
            )
    return tables


def _best_positions(row: Sequence[float | None], decimals: int) -> set[int]:
    rounded = [(i, round(v, decimals)) for i, v in enumerate(row) if v is not None]
    if not rounded:
        return set()
    best = max(v for _, v in rounded)
    return {i for i, v in rounded if v == best}


def render_table_csv(table: MetricTable) -> str:
    lines = ["project," + ",".join(table.approaches)]
    for project, row in zip(table.projects, table.cells):
        lines.append(
            project + "," + ",".join("" if v is None else repr(v) for v in row)
        )
    means, medians = table.footer()
    lines.append("mean," + ",".join("" if v is None else repr(v) for v in means))
    lines.append("median," + ",".join("" if v is None else repr(v) for v in medians))
    return "\n".join(lines) + "\n"


def render_table_markdown(table: MetricTable, decimals: int = 3) -> str:
    def render_row(label: str, row: Sequence[float | None]) -> str:
        best = _best_positions(row, decimals)
        cells = []
        for i, value in enumerate(row):
            if value is None:
                cells.append("n/a")
            else:
                text = f"{value:.{decimals}f}"
                cells.append(f"**{text}**" if i in best else text)
        return "| " + label + " | " + " | ".join(cells) + " |"

    lines = [
        f"### {table.metric}",
        "",
        "| Subject program | " + " | ".join(table.approaches) + " |",
        "| --- |" + " ---: |" * len(table.approaches),
    ]
    for project, row in zip(table.projects, table.cells):
        lines.append(render_row(project, row))
    means, medians = table.footer()
    lines.append(render_row("**Mean**", means))
    lines.append(render_row("**Median**", medians))
    return "\n".join(lines) + "\n"


def _percentile(ordered: Sequence[float], percent: float) -> float:
    """numpy.percentile's default ('linear') rule over ascending values.

    The same float operations in the same order give the same result; only
    the sign of a zero may differ (numpy's partition picks either of two
    equal zeros).
    """
    last = len(ordered) - 1
    index = last * (percent / 100)
    low = min(math.floor(index), last)
    high = min(low + 1, last)
    a, b = ordered[low], ordered[high]
    t = index - low
    # numpy's lerp, computed from the nearer end
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def boxplot_rows(table: MetricTable) -> list[dict]:
    """Boxplot elements per approach over the per-project values."""
    rows = []
    for j, approach in enumerate(table.approaches):
        values = [row[j] for row in table.cells if row[j] is not None]
        if not values:
            continue
        ordered = sorted(values)
        q1, median, q3 = (_percentile(ordered, q) for q in (25, 50, 75))
        iqr = q3 - q1
        in_low = [v for v in values if v >= q1 - 1.5 * iqr]
        in_high = [v for v in values if v <= q3 + 1.5 * iqr]
        whisker_low = min(in_low)
        whisker_high = max(in_high)
        outliers = sorted(v for v in values if v < whisker_low or v > whisker_high)
        rows.append(
            {
                "approach": approach,
                "count": len(values),
                "mean": statistics.mean(values),
                "q1": q1,
                "median": median,
                "q3": q3,
                "whisker_low": whisker_low,
                "whisker_high": whisker_high,
                "outliers": outliers,
            }
        )
    return rows


def render_boxplot_csv(rows: Sequence[Mapping]) -> str:
    lines = ["approach,count,mean,q1,median,q3,whisker_low,whisker_high,outliers"]
    for row in rows:
        lines.append(
            ",".join(
                [
                    row["approach"],
                    str(row["count"]),
                    repr(row["mean"]),
                    repr(row["q1"]),
                    repr(row["median"]),
                    repr(row["q3"]),
                    repr(row["whisker_low"]),
                    repr(row["whisker_high"]),
                    ";".join(repr(v) for v in row["outliers"]),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def cd_data(table: MetricTable, alpha: float):
    """Critical-difference grouping over complete project rows, or None."""
    complete = [
        (project, row)
        for project, row in zip(table.projects, table.cells)
        if all(v is not None for v in row)
    ]
    if len(complete) < 2 or len(table.approaches) < 2:
        return None
    try:
        matrix = ScoreMatrix(
            approaches=table.approaches,
            projects=tuple(p for p, _ in complete),
            values=tuple(row for _, row in complete),
        )
    except DegenerateMatrixError:
        return None
    return cd_grouping(matrix, alpha)


def render_cd_csv(grouping) -> str:
    order = sorted(grouping.mean_ranks, key=grouping.mean_ranks.get)
    lines = ["approach,mean_rank,groups"]
    for approach in order:
        memberships = [
            str(gi + 1) for gi, group in enumerate(grouping.groups) if approach in group
        ]
        lines.append(
            ",".join(
                [approach, repr(grouping.mean_ranks[approach]), ";".join(memberships)]
            )
        )
    return "\n".join(lines) + "\n"


def write_report(
    eval_dir: Path | str,
    out_dir: Path | str,
    fmt: str = "csv",
    alpha: float = 0.05,
) -> list[Path]:
    """Write tables, boxplot data, CD data, and the statistics block.

    ``fmt`` selects the table format (csv or md); plot data is always CSV.
    Returns the written paths.
    """
    if fmt not in ("csv", "md"):
        raise ReportError(f"unknown report format {fmt!r}")
    if not 0 < alpha < 1:
        raise ReportError(f"alpha must lie strictly between 0 and 1, got {alpha!r}")
    summary = load_summary(eval_dir)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    stats_block: dict = {}
    for table in metric_tables(summary):
        if fmt == "md":
            path = out_dir / f"table_{table.metric}.md"
            path.write_text(render_table_markdown(table), encoding="utf-8")
        else:
            path = out_dir / f"table_{table.metric}.csv"
            path.write_text(render_table_csv(table), encoding="utf-8")
        written.append(path)
        box = boxplot_rows(table)
        if box:
            path = out_dir / f"boxplot_{table.metric}.csv"
            path.write_text(render_boxplot_csv(box), encoding="utf-8")
            written.append(path)
        grouping = cd_data(table, alpha)
        if grouping is not None:
            path = out_dir / f"cd_{table.metric}.csv"
            path.write_text(render_cd_csv(grouping), encoding="utf-8")
            written.append(path)
            stats_block[table.metric] = {
                "alpha": alpha,
                "friedman_statistic": grouping.friedman_statistic,
                "friedman_p": grouping.friedman_p,
                "mean_ranks": grouping.mean_ranks,
                "groups": [list(group) for group in grouping.groups],
                "pairwise_adjusted_p": {
                    f"{a} vs {b}": p for (a, b), p in grouping.pairwise_p.items()
                },
            }
    stats_path = out_dir / "stats.json"
    stats_path.write_text(
        json.dumps(stats_block, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    written.append(stats_path)
    return written
