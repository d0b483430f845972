"""The planted-fault list parses, each old text occurs once in its file, and
each test it names exists; `python tests/mutants.py` runs the faults."""

import ast

from mutants import MUTANTS, REPO, occurrences


def defined_tests(path) -> set[str]:
    """The ids, Class::name or name, of the test functions a file defines."""
    ids = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ClassDef):
            ids.update(f"{node.name}::{item.name}" for item in node.body
                       if isinstance(item, ast.FunctionDef))
        elif isinstance(node, ast.FunctionDef):
            ids.add(node.name)
    return ids


def test_every_fault_applies_once_and_names_tests_that_exist():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert all(isinstance(text, str) for text in (m.name, m.file, m.old, m.new)), m.name
        assert m.old != m.new and m.tests, m.name
        assert occurrences(m) == 1, f"{m.name}: old text not once in src/cbv/{m.file}"
        for test in m.tests:
            file, _, name = test.partition("::")
            assert name.split("[")[0] in defined_tests(REPO / "tests" / file), test
