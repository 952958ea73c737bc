"""The mutation table in tests/mutants.py still applies to the tree; its runner is not run here."""

import re

from mutants import MUTANTS, ROOT, failed_ids, misplaced


def test_every_mutant_old_text_occurs_once():
    assert len({m.id for m in MUTANTS}) == len(MUTANTS)
    assert all(m.old != m.new and m.tests for m in MUTANTS)
    assert misplaced() == []


def test_readme_states_the_number_of_mutants():
    readme = (ROOT / "README.md").read_text()
    assert re.findall(r"All (\d+) mutants run", readme) == [str(len(MUTANTS))]


def test_failed_ids_keep_a_parameter_part_with_spaces():
    summary = "\n".join([
        "..F.E                                                                    [100%]",
        "=========================== short test summary info ============================",
        "FAILED tests/test_a.py::test_x[p5 m2] - AssertionError: assert 'a b' == 'c'",
        "FAILED tests/test_a.py::TestY::test_z",
        "ERROR tests/test_b.py::test_w[a b c] - RuntimeError: boom",
        "FAILED test_sp.py::test_a[c - d] - AssertionError: x",
        "3 failed, 3 passed, 1 error in 0.22s",
    ])
    failed = ["tests/test_a.py::test_x[p5 m2]", "tests/test_a.py::TestY::test_z",
              "tests/test_b.py::test_w[a b c]", "test_sp.py::test_a[c - d]", "test_sp.py::test_a"]
    passed = ["tests/test_a.py::test_x[p5]", "tests/test_a.py::test_x[p5 m2 ]",
              "tests/test_a.py::TestY::test", "test_sp.py::test_a[c]"]
    assert failed_ids(summary, (*passed, *failed)) == failed
