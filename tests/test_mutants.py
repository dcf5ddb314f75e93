"""The mutation catalogue in ``mutants.json`` still fits the tree.

``tests/mutate.py`` runs the catalogue. These checks run no mutant and start
no process: every entry's ``old`` text occurs exactly once in its file under
``src/``, and every node id it names is a test that its file defines.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import mutate

ENTRIES = mutate.load()


def defined_tests(path: Path) -> set[str]:
    """The ``name`` and ``Class::name`` node ids of a test file's test functions."""
    found = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test"):
            found.add(node.name)
        elif isinstance(node, ast.ClassDef) and node.name.startswith("Test"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name.startswith("test"):
                    found.add(f"{node.name}::{item.name}")
    return found


def test_ids_are_unique():
    ids = [entry["id"] for entry in ENTRIES]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("entry", ENTRIES, ids=[entry["id"] for entry in ENTRIES])
def test_entry_applies_and_names_existing_tests(entry):
    assert set(entry) == {"id", "file", "old", "new", "tests"}
    path = mutate.ROOT / entry["file"]
    assert entry["file"].startswith("src/") and ".." not in Path(entry["file"]).parts
    assert entry["old"] != entry["new"]
    assert path.read_text(encoding="utf-8").count(entry["old"]) == 1
    assert entry["tests"]
    for node_id in entry["tests"]:
        file, _, name = node_id.partition("::")
        assert file.startswith("tests/") and name in defined_tests(mutate.ROOT / file), node_id
