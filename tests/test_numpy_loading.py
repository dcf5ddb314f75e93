"""numpy loads only for specs with a code-distance or Schulze node.

Each check runs in a fresh interpreter, since an earlier test in this
process may already have imported numpy.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from synth import random_history
from tcp_lab.combinators import PRESETS
from tcp_lab.dataset import write_canonical

SRC = Path(__file__).resolve().parents[1] / "src"


def numpy_loaded_after(code: str) -> bool:
    """Run ``code`` in a fresh interpreter; was numpy imported at its end?"""
    done = subprocess.run(
        [sys.executable, "-c", f"import sys\n{code}\nprint('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=120,
        check=True,
    )
    return done.stdout.splitlines()[-1] == "True"


def test_cli_import_leaves_numpy_out():
    assert not numpy_loaded_after("import tcp_lab.cli")


def test_prioritize_with_history_only_preset_leaves_numpy_out(tmp_path):
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
    assert not numpy_loaded_after(
        f"from tcp_lab.cli import main\nassert main({argv!r}) == 0"
    )


NUMPY_SPECS = {"code_dist": {"type": "code_dist"}, "P1.3": "P1.3", "P3.2": "P3.2"}


@pytest.mark.parametrize("name", sorted(NUMPY_SPECS) + sorted(set(PRESETS) - set(NUMPY_SPECS)))
def test_build_loads_numpy_exactly_for_numpy_nodes(name):
    spec = NUMPY_SPECS.get(name, name)
    # build() loads numpy, so that its one-time import never falls in a timed rank
    code = (
        "from tcp_lab.combinators import build\n"
        "assert 'numpy' not in sys.modules\n"
        f"build({spec!r}, sources={{'t': 'class T {{}}'}})"
    )
    assert numpy_loaded_after(code) is (name in NUMPY_SPECS)
