"""The mutant table of `tests/mutants.py` still plants on today's source."""

from mutants import MUTANTS, REPO


def test_each_mutant_text_occurs_once():
    for name, (path, text, replacement) in MUTANTS.items():
        assert (REPO / path).read_text().count(text) == 1, name
        assert replacement != text, name
