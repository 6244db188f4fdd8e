"""The `schurcx` namespace exports exactly what the README documents, no
core module imports the test oracles and the oracles import no module of
the package, only `ring` builds polynomials out of stored matrix entries,
the trial policy of generic ranks lives in `complexes` alone, and assembly
works on plain column tuples."""

import ast
import re
from pathlib import Path

import schurcx
import schurcx.complexes

README = Path(__file__).resolve().parent.parent / "README.md"
PACKAGE = Path(schurcx.__file__).resolve().parent


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


def _imported_modules(tree):
    """Every module an import statement in the tree names, as written, with
    `from X import a` giving both X and X.a."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            yield base
            for alias in node.names:
                yield base + ("" if base.endswith(".") else ".") + alias.name


def test_no_core_module_imports_the_oracles():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "oracles.py")
    assert modules
    for path in modules:
        names = list(_imported_modules(ast.parse(path.read_text())))
        assert not [n for n in names if "oracles" in n.split(".")], path.name


def test_the_oracles_import_no_module_of_the_package():
    # an oracle that shares a helper with the core cannot see a fault in it
    names = list(_imported_modules(ast.parse((PACKAGE / "oracles.py").read_text())))
    assert names
    assert not [n for n in names if n.startswith(".") or n.split(".")[0] == "schurcx"]

def test_only_ring_wraps_matrix_entries_as_polynomials():
    # a stored matrix entry is a term map; the modules that assemble or read
    # matrices work on term maps and leave Polynomial to `ring`
    for name in ("schur.py", "tableaux.py", "complexes.py", "cli.py"):
        names = list(_imported_modules(ast.parse((PACKAGE / name).read_text())))
        assert not [n for n in names if n.split(".")[-1] == "Polynomial"], name


def test_trial_policy_lives_in_complexes():
    # `ring` is arithmetic and elimination: it draws nothing and does not
    # reach up to the module that owns the draws and the trial loop
    names = list(_imported_modules(ast.parse((PACKAGE / "ring.py").read_text())))
    assert not [n for n in names if n.split(".")[0] == "random"
                or "complexes" in n.split(".")]
    assert schurcx.mat_generic_rank is schurcx.complexes.mat_generic_rank


def test_assembly_keeps_tableaux_as_plain_column_tuples():
    # a standard tableau stays the tuple of column tuples that
    # `enumerate_standard` built, from grading to the differential
    for name in ("schur.py", "complexes.py"):
        names = list(_imported_modules(ast.parse((PACKAGE / name).read_text())))
        assert not [n for n in names if n.split(".")[-1] == "Tableau"], name
