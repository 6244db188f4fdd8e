"""The `schurcx` namespace exports exactly what the README documents."""

import re
from pathlib import Path

import schurcx

README = Path(__file__).resolve().parent.parent / "README.md"


def _documented_names():
    text = README.read_text()
    names = set()
    for line in re.findall(r"^from schurcx import (.+)$", text, re.M):
        names.update(name.strip() for name in line.split(","))
    paragraph = re.search(r"Other entry points in the `schurcx` namespace:(.*?)"
                          r"Everything else", text, re.S).group(1)
    names.update(re.findall(r"`(\w+)`", paragraph))
    return names


def test_all_is_what_the_readme_documents():
    assert set(schurcx.__all__) == _documented_names()
    assert all(hasattr(schurcx, name) for name in schurcx.__all__)
