"""The `>>>` examples in the module docstrings run and print what they show."""

import doctest

import schurcx
import schurcx.ring
import schurcx.tableaux


def test_docstring_examples():
    for module in (schurcx, schurcx.ring, schurcx.tableaux):
        result = doctest.testmod(module)
        assert result.attempted > 0, module.__name__
        assert result.failed == 0, module.__name__
