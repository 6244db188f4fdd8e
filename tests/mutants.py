"""Planted mutants of the rank code (generic ranks and Bareiss), the
straightening code and the assembly of the Schur differential: each one
must fail a test.

Run from anywhere as

    python tests/mutants.py

pytest does not collect this file.  Each entry of RANKING, STRAIGHTENING and
ASSEMBLY maps a name to a row (file, exact text, replacement); MUTANTS holds
all three.  For each row the script copies `src`, `tests`, `pyproject.toml`
and `README.md` into a fresh temporary directory, replaces the text, which
must occur exactly once, and runs `python -m pytest -x -q` there on the
row's test files: for a ranking row

    tests/test_ring.py tests/test_complexes.py tests/test_cli.py

in that order, with the elimination kernel's own tests at the top of
`tests/test_ring.py`, for a straightening row only the oracle tests

    tests/test_abw.py tests/test_exchange.py

and for an assembly row those and the Künneth-Schur-Weyl identity,
`tests/test_kunneth.py`, so that the kill recorded is the oracles' own,
not that of a golden test that happens to run first.  The mutant is
killed when that run fails, and the script prints the first failing
test.  A run still going after LIMIT_S seconds is stopped and fails too:
on the unchanged copy each run takes seconds, and a mutant may blow up
the work of an elimination without making any rank wrong.  The same runs on the unchanged copy must pass
first, or no kill means anything.  The script exits 1 naming every mutant
that survives.  SIGTERM ends the script as an exit does, so a stopped run
removes its copy and stops its pytest, as on SIGINT.
`tests/test_mutant_table.py`, part of the suite, checks that each row's
text still occurs exactly once, so the table cannot rot unseen.
"""

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml", "README.md")
RANKING_TESTS = ("tests/test_ring.py", "tests/test_complexes.py",
                 "tests/test_cli.py")
ORACLE_TESTS = ("tests/test_abw.py", "tests/test_exchange.py")
ASSEMBLY_TESTS = ORACLE_TESTS + ("tests/test_kunneth.py",)
LIMIT_S = 120
COMPLEXES = "src/schurcx/complexes.py"
RING = "src/schurcx/ring.py"
TABLEAUX = "src/schurcx/tableaux.py"
SCHUR = "src/schurcx/schur.py"

RANKING = {
    "the ring proof skipped": (
        COMPLEXES,
        "problems = validate_complex(f)",
        "problems = []"),
    "a rank certified one below the sandwich bound": (
        COMPLEXES,
        "below = [best[i] < min(d.rows - best[i - 1], d.cols - best[i + 1])",
        "below = [best[i] < min(d.rows - best[i - 1], d.cols - best[i + 1]) - 1"),
    "the two neighbours swapped in the bound": (
        COMPLEXES,
        "min(d.rows - best[i - 1], d.cols - best[i + 1])",
        "min(d.rows - best[i + 1], d.cols - best[i - 1])"),
    "every trial run regardless of the bound": (
        COMPLEXES,
        "below = [best[i] <",
        "below = [True or best[i] <"),
    "trials checked after the proof": (
        COMPLEXES,
        "    _check_trials(trials)\n"
        "    problems = validate_complex(f)\n",
        "    problems = validate_complex(f)\n"
        "    _check_trials(trials)\n"),
    "homology ranking a pair that fails the point proof": (
        COMPLEXES,
        'raise ValueError(line + " at the point")',
        "break"),
    "the d.d scan naming the highest row": (
        COMPLEXES,
        "min(rows)",
        "max(rows)"),
    "an unranked differential lending older pivots": (
        COMPLEXES,
        "        skip = set(raised)\n",
        "        lent = _ranks_at_point.__dict__  # each d_k's last pivots\n"
        "        skip = lent[i] = set(raised) if cols is not None else lent.get(i, set())\n"),
    "an elimination stopped one below min(cols, rows left)": (
        COMPLEXES,
        "min(ranks[i + 1], ranks[i] - len(skip))",
        "min(ranks[i + 1], ranks[i] - len(skip)) - 1"),
    "the QQ denominator set taken from one differential only": (
        COMPLEXES,
        "for m in matrices for col in m.columns",
        "for m in matrices[:1] for col in m.columns"),
    "homology subtracting rank d_(k+1) twice": (
        COMPLEXES,
        "r - d[i] - d[i + 1]",
        "r - d[i + 1] - d[i + 1]"),
    "a row kept under its smallest key while reduce walks down": (
        RING,
        "piv = max(res)",
        "piv = min(res)"),
    "the top pivot skipped when it is the vector's largest key": (
        RING,
        "todo = sorted(vec)",
        "todo = sorted(vec)[:-1]"),
    "a lagging Bareiss column divided by prev, not its own base": (
        RING,
        "exact_quotient(field, t, base)",
        "exact_quotient(field, t, prev)"),
    "the Bareiss pivot column not brought up to date": (
        RING,
        "if base is not prev:",
        "if False:"),
    "an updated Bareiss column keeping its old base": (
        RING,
        "for i, t in sums if t}, piv",
        "for i, t in sums if t}, base"),
}

STRAIGHTENING = {
    "exchange terms negated when a column has 3 or more letters": (
        TABLEAUX,
        "return tuple((other, lead * k) for other, k in relation.items())",
        "return tuple((other, lead * (-k if len(left) >= 3 else k))"
        " for other, k in relation.items())"),
    "no binomial in column_product": (
        TABLEAUX,
        "coeff *= comb(x.count(v) + b, b)",
        "coeff *= 1"),
    "wedge_coproduct sign forced to 1": (
        TABLEAUX,
        "out[left, right] = _signed_sort(left + right)[1]",
        "out[left, right] = 1"),
    "the signed-sort swap sign": (
        TABLEAUX,
        "if x > 0 or y > 0:",
        "if x > 0 and y > 0:"),
    "a row violation read as x >= y": (
        TABLEAUX,
        "x > y or (x == y and x < 0)",
        "x >= y"),
    "straightening pops the oldest pending tableau, not the largest": (
        TABLEAUX,
        "t = max(pending)",
        "t = next(iter(pending))"),
    "enumerate_standard dropping its last tableau": (
        TABLEAUX,
        "    return chains",
        "    return chains[:-1]"),
    "sign = 1 in the Schur differential": (
        SCHUR,
        "sign = -1 if odd else 1",
        "sign = 1"),
}

ASSEMBLY = {
    "a divided power stepped down once per box, not per value": (
        SCHUR,
        "if pos > 0 and col[pos - 1] == v and v < 0:",
        "if False:"),
    "the column product's multiplicity dropped": (
        SCHUR,
        "scale = sign * k",
        "scale = sign"),
    "even letters counted as odd in the Koszul sign": (
        SCHUR,
        "odd ^= v < 0",
        "odd ^= v > 0"),
}

MUTANTS = {**RANKING, **STRAIGHTENING, **ASSEMBLY}
TABLES = ((RANKING, RANKING_TESTS), (STRAIGHTENING, ORACLE_TESTS),
          (ASSEMBLY, ASSEMBLY_TESTS))


def run_tests(tests, row=None):
    """Plant the row, if any, in a fresh copy and run the test files there;
    returns (passed, the first failing test or '')."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name in COPIED:
            src = REPO / name
            if src.is_dir():
                shutil.copytree(src, root / name, ignore=shutil.ignore_patterns(
                    "__pycache__", ".hypothesis", ".pytest_cache"))
            else:
                shutil.copy2(src, root / name)
        if row is not None:
            path, text, replacement = row
            target = root / path
            source = target.read_text()
            if source.count(text) != 1:
                raise SystemExit("%s: the text of a row occurs %d times, not once"
                                 % (path, source.count(text)))
            target.write_text(source.replace(text, replacement))
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        try:
            run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", *tests],
                                 cwd=root, env=env, capture_output=True, text=True,
                                 timeout=LIMIT_S)
        except subprocess.TimeoutExpired:
            return False, "the %d s time limit" % LIMIT_S
    failed = [line.split(" - ")[0].split(" ", 1)[1]
              for line in run.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return run.returncode == 0, (failed or [""])[0]


def _stop(signum, frame):
    # unwinds like an exit: the temporary directory and the pytest child go
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, _stop)
    start = time.perf_counter()
    passed, failure = run_tests(RANKING_TESTS + ASSEMBLY_TESTS)
    if not passed:
        print("the unchanged copy fails (%s): no mutant can be judged" % failure)
        return 1
    survivors = []
    for table, tests in TABLES:
        for name, row in table.items():
            passed, failure = run_tests(tests, row)
            if passed:
                survivors.append(name)
            print("%-60s %s" % (name, "SURVIVED" if passed else "killed by " + failure))
    print("%d of %d killed in %.1f s" % (len(MUTANTS) - len(survivors), len(MUTANTS),
                                        time.perf_counter() - start))
    if survivors:
        print("surviving mutants: " + "; ".join(survivors))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
