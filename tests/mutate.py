"""Run the mutation catalogue in ``tests/mutants.json``.

    python tests/mutate.py [ID ...]

Each entry names a file under ``src/``, an ``old`` text that occurs exactly
once in it, its ``new`` text, and the pytest node ids that must kill the
mutant. For each entry (or only the named ones) the runner copies ``src/``
into a temporary directory, applies the entry to the copy, and runs
``python -m pytest -x -q <ids>`` with ``PYTHONPATH`` on the copy. A mutant
is killed when its tests fail. One child runs at a time, and nothing under
``src/`` is ever written. The exit status is 1 if any mutant survives or
cannot be run, else 0.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CATALOGUE = Path(__file__).resolve().parent / "mutants.json"
TIMEOUT_S = 900


def load(path: Path = CATALOGUE) -> list[dict]:
    return json.loads(path.read_text(encoding="utf-8"))


def apply(entry: dict, src: Path) -> None:
    """Replace the entry's one ``old`` text in the copy of ``src/`` at ``src``."""
    target = src / Path(entry["file"]).relative_to("src")
    text = target.read_text(encoding="utf-8")
    count = text.count(entry["old"])
    if count != 1:
        raise ValueError(f"'old' occurs {count} times in {entry['file']}")
    target.write_text(text.replace(entry["old"], entry["new"]), encoding="utf-8")


def run(entry: dict) -> str:
    """``killed``, ``SURVIVED`` or ``ERROR: ...`` for one mutant."""
    with tempfile.TemporaryDirectory(prefix="tcp-lab-mutant-") as scratch:
        src = Path(scratch) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        try:
            apply(entry, src)
        except (OSError, ValueError) as error:
            return f"ERROR: {error}"
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        # absolute node ids, run from the scratch directory: hypothesis keeps
        # its example database there, not in the repository
        ids = [str(ROOT / node_id) for node_id in entry["tests"]]
        probe = [sys.executable, "-c", "import tcp_lab; print(tcp_lab.__file__)"]
        imported = subprocess.run(probe, cwd=scratch, env=env, capture_output=True, text=True)
        if not imported.stdout.startswith(str(src)):
            return f"ERROR: tcp_lab is imported from {imported.stdout.strip() or '?'}"
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *ids]
        try:
            result = subprocess.run(
                command, cwd=scratch, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            return "killed (timeout)"
    if result.returncode == 0:
        return "SURVIVED"
    if result.returncode in (1, 2):  # failed tests, or a mutant that does not import
        return "killed"
    tail = result.stdout.strip().splitlines()[-1:] or ["no output"]
    return f"ERROR: pytest exit {result.returncode}: {tail[0]}"


def main(argv: list[str]) -> int:
    entries = load()
    unknown = set(argv) - {entry["id"] for entry in entries}
    if unknown:
        print(f"unknown mutant ids {sorted(unknown)}", file=sys.stderr)
        return 2
    selected = [entry for entry in entries if not argv or entry["id"] in argv]
    started = time.perf_counter()
    bad = 0
    for entry in selected:
        began = time.perf_counter()
        outcome = run(entry)
        bad += not outcome.startswith("killed")
        print(f"{entry['id']}: {outcome} ({time.perf_counter() - began:.1f} s)", flush=True)
    elapsed = time.perf_counter() - started
    print(f"{len(selected) - bad} of {len(selected)} mutants killed in {elapsed:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
