"""Each CLI command imports only the modules it runs.

Each check runs in a fresh interpreter, since an earlier test in this
process has already imported most of the package.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from scipy.special import chdtrc

from synth import random_history
from test_stats import tail_bound
from tcp_lab.dataset import write_canonical
from tcp_lab.report import TABLE_METRICS, _aggregate_key

SRC = Path(__file__).resolve().parents[1] / "src"


def modules_after(code: str) -> set[str]:
    """Run ``code`` in a fresh interpreter; the modules loaded at its end."""
    done = subprocess.run(
        [
            sys.executable,
            "-c",
            f"import json, sys\n{code}\nprint(json.dumps(sorted(sys.modules)))",
        ],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=120,
        check=True,
    )
    return set(json.loads(done.stdout.splitlines()[-1]))


def run_main(argv: list[str]) -> str:
    return f"from tcp_lab.cli import main\nassert main({argv!r}) == 0"


def test_cli_import_loads_only_the_model():
    loaded = modules_after("import tcp_lab.cli")
    assert {m for m in loaded if m.startswith("tcp_lab")} == {
        "tcp_lab",
        "tcp_lab.model",
        "tcp_lab.cli",
    }


def test_prioritize_loads_no_evaluation_metrics_or_report(tmp_path):
    history = random_history(random.Random(5), n_cycles=8)
    path = tmp_path / "history.csv"
    write_canonical(history, path)
    argv = [
        "prioritize",
        "--history",
        str(path),
        "--preset",
        "P3.1",
        "--cycle",
        str(history.cycles[-1].index),
    ]
    loaded = modules_after(run_main(argv))
    assert not loaded & {"tcp_lab.evaluation", "tcp_lab.metrics", "tcp_lab.report"}


def write_summary(raw: Path, n_approaches: int) -> None:
    """A summary.json of 6 projects with random aggregates."""
    rng = random.Random(n_approaches)
    approaches = [f"A{j:02d}" for j in range(n_approaches)]
    summary = {
        "projects": {
            f"p{i}": {
                "status": "ok",
                "approaches": {
                    name: {
                        "aggregates": {
                            _aggregate_key(metric): rng.random() for metric in TABLE_METRICS
                        }
                    }
                    for name in approaches
                },
            }
            for i in range(6)
        }
    }
    raw.mkdir()
    (raw / "summary.json").write_text(json.dumps(summary), encoding="utf-8")


# 41 and 42 approaches straddle the 40 degrees of freedom where the stated
# bound on the Friedman p-value widens (see test_stats.tail_bound).
@pytest.mark.parametrize("n_approaches", [15, 41, 42, 120])
def test_report_loads_neither_numpy_nor_scipy(tmp_path, n_approaches):
    write_summary(tmp_path / "raw", n_approaches)
    argv = ["report", "--raw", str(tmp_path / "raw"), "--format", "md", "--out", str(tmp_path / "r")]
    loaded = modules_after(run_main(argv))
    assert "numpy" not in loaded
    assert not {m for m in loaded if m == "scipy" or m.startswith("scipy.")}
    assert (tmp_path / "r" / "cd_apfd.csv").is_file()


def test_report_runs_where_scipy_cannot_be_imported(tmp_path):
    write_summary(tmp_path / "raw", 120)
    argv = ["report", "--raw", str(tmp_path / "raw"), "--format", "md", "--out", str(tmp_path / "r")]
    # a None entry makes every ``import scipy...`` raise ImportError
    modules_after('sys.modules["scipy"] = None\n' + run_main(argv))
    blocks = json.loads((tmp_path / "r" / "stats.json").read_text(encoding="utf-8"))
    points = [(119, block["friedman_statistic"], block["friedman_p"]) for block in blocks.values()]
    assert len(points) == len(TABLE_METRICS)
    for df, x, p in points:
        expected = float(chdtrc(df, x))
        assert abs(p - expected) <= tail_bound(df, expected)
