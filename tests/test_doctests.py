"""The `>>>` examples in the module docstrings and the `python` blocks of the
README run and give what they show."""

import doctest
import re
from pathlib import Path

import schurcx
import schurcx.complexes
import schurcx.oracles
import schurcx.ring
import schurcx.schur
import schurcx.tableaux

README = Path(__file__).resolve().parent.parent / "README.md"


def test_docstring_examples():
    for module in (schurcx, schurcx.complexes, schurcx.oracles, schurcx.ring,
                   schurcx.schur, schurcx.tableaux):
        result = doctest.testmod(module)
        assert result.attempted > 0, module.__name__
        assert result.failed == 0, module.__name__


def test_readme_examples():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                        re.M | re.S)
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:  # in order: later blocks use the f of the first
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["s"].ranks == (2, 4, 2)
    basis = namespace["basis"]
    assert basis.position == {-2: (1, 0), -1: (1, 1), 1: (0, 0), 2: (2, 0)}
    assert basis.degree == {-2: 1, -1: 1, 1: 0, 2: 2}
