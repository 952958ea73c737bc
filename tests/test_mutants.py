"""The mutation table in tests/mutants.py still applies to the tree; its runner is not run here."""

from mutants import MUTANTS, misplaced


def test_every_mutant_old_text_occurs_once():
    assert len({m.id for m in MUTANTS}) == len(MUTANTS)
    assert all(m.old != m.new and m.tests for m in MUTANTS)
    assert misplaced() == []
