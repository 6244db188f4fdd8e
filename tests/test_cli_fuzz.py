"""A seeded fuzz of the command line: mutated copies of a Koszul(x, y)
complex file and a (2, 1) tableau file go through `cli.main` in process,
and so does one large tableau.  Every case must exit 0-4, with no exception
escaping `main`, within LIMIT_S seconds."""

import copy
import json
import random
import time

from schurcx import PolyRing, RATIONALS, koszul_complex
from schurcx.cli import main
from schurcx.complexes import complex_to_dict

SEED = 6
LIMIT_S = 2.0
# malformed values, and a few well-formed ones that let a file parse
ATOMS = (10 ** 30, -(10 ** 30), -1, 0.5, 1e300, True, None,
         "1/0", "x^", "2x", "x y", [], {}, {"p": 4}, {"p": 10 ** 30},
         0, 2, "0", "x", "x^2 - y", "QQ", {"p": 2})
COMPLEX_COMMANDS = (["verify"], ["ranks"], ["ranks", "--trials", "1"],
                    ["homology", "--point", "1,2"],
                    ["homology", "--point", "0,1"],
                    ["schur", "--shape", "2,1"])


def _slots(data):
    """Every (container, key) whose value lies somewhere inside data."""
    for key in list(data if isinstance(data, dict) else range(len(data))):
        yield data, key
        if isinstance(data[key], (dict, list)):
            yield from _slots(data[key])


def mutate(data, rng):
    """A copy of data with one to three values replaced by atoms, a key
    deleted, or an atom appended to an array."""
    data = copy.deepcopy(data)
    kind = rng.randrange(3)
    if kind == 0:
        for _ in range(rng.randint(1, 3)):
            container, key = rng.choice(list(_slots(data)))
            container[key] = copy.deepcopy(rng.choice(ATOMS))
    elif kind == 1:
        container, key = rng.choice([s for s in _slots(data)
                                     if isinstance(s[0], dict)])
        del container[key]
    else:
        arrays = [c[k] for c, k in _slots(data) if isinstance(c[k], list)]
        rng.choice(arrays).append(copy.deepcopy(rng.choice(ATOMS)))
    return data


def test_mutated_files_exit_cleanly(tmp_path, capsys):
    ring = PolyRing(RATIONALS, ("x", "y"))
    # (file, its flag, the commands each copy runs, how many copies): 500
    # copies and 1,000 cases
    seeds = ((complex_to_dict(koszul_complex(ring.gens())), "--complex",
              COMPLEX_COMMANDS, 100),
             # [column, row, value] records of a tableau that straightens
             ({"shape": [2, 1], "entries": [[1, 1, 2], [1, 2, -1], [2, 1, 1]]},
              "--tableau", (["straighten"],), 400))
    path = str(tmp_path / "case.json")
    rng = random.Random(SEED)
    for data, flag, commands, copies in seeds:
        for _ in range(copies):
            text = json.dumps(mutate(data, rng))
            with open(path, "w") as fh:
                fh.write(text)
            for command in commands:
                argv = command[:1] + [flag, path] + command[1:]
                start = time.perf_counter()
                try:
                    code = main(argv)
                except Exception as exc:
                    raise AssertionError("%s on %s" % (argv, text)) from exc
                spent = time.perf_counter() - start
                capsys.readouterr()
                assert code in range(5), (argv, text, code)
                assert spent < LIMIT_S, (argv, text, spent)


def test_large_tableau_straightens_in_time(tmp_path, capsys):
    # shape (2^7), left column 8..14 and right column 1..7: every row breaks
    # the row order, and the answer is the one standard filling
    k = 7
    entries = ([[1, j, k + j] for j in range(1, k + 1)]
               + [[2, j, j] for j in range(1, k + 1)])
    path = tmp_path / "large.json"
    path.write_text(json.dumps({"shape": [2] * k, "entries": entries}))
    start = time.perf_counter()
    code = main(["straighten", "--tableau", str(path)])
    spent = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    assert spent < LIMIT_S, spent
    assert json.loads(out) == [{"coefficient": 1, "tableau": (
        [[1, j, j] for j in range(1, k + 1)]
        + [[2, j, k + j] for j in range(1, k + 1)])}]
