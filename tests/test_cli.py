"""End-to-end runs of the command line interface."""

import errno
import json
import os
import resource
import stat
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import generic_matrix_complex
from schurcx import (RATIONALS, GF, PolyRing, koszul_complex, save_complex,
                     schur_complex)
from schurcx.complexes import MAX_TRIALS, complex_from_dict, load_complex
from schurcx.cli import main
import schurcx.complexes
import schurcx.ring
import schurcx.schur
from schurcx.tableaux import to_entries

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture
def koszul_file(tmp_path):
    ring = PolyRing(RATIONALS, ("x", "y"))
    path = tmp_path / "koszul.json"
    save_complex(koszul_complex(ring.gens()), str(path))
    return str(path)


def _src_env():
    """The environment with this checkout's `src` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    return env


def _write_tableau(tmp_path, shape, columns, name="t.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"shape": list(shape),
                                "entries": to_entries(columns)}))
    return str(path)


def test_straighten_worked_example(tmp_path, capsys):
    path = _write_tableau(tmp_path, (3, 3, 2),
                          ((-3, -2, -2), (2, 1, 3), (-1, 3)))
    assert main(["straighten", "--tableau", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == [
        {"coefficient": 1,
         "tableau": to_entries(((-3, -2, -2), (-1, 1, 3), (2, 3)))},
        {"coefficient": -1,
         "tableau": to_entries(((-3, -2, -2), (-1, 2, 3), (1, 3)))},
    ]


def test_straighten_standard_is_fixed(tmp_path, capsys):
    path = _write_tableau(tmp_path, (2, 1), ((-1, 1), (2,)))
    assert main(["straighten", "--tableau", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == [{"coefficient": 1,
                        "tableau": to_entries(((-1, 1), (2,)))}]


def test_straighten_vanishing_tableau(tmp_path, capsys):
    # a repeated even entry in a column spans zero
    path = _write_tableau(tmp_path, (1, 1), ((1, 1),))
    assert main(["straighten", "--tableau", path]) == 0
    assert json.loads(capsys.readouterr().out) == []


def test_straighten_out_file(tmp_path, capsys):
    # two even letters in a row commute
    path = _write_tableau(tmp_path, (2,), ((2,), (1,)))
    out = tmp_path / "result.json"
    assert main(["straighten", "--tableau", path, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(out.read_text())
    assert payload == [{"coefficient": 1,
                        "tableau": to_entries(((1,), (2,)))}]


def test_straighten_odd_row_pair_anticommutes(tmp_path, capsys):
    path = _write_tableau(tmp_path, (2,), ((-1,), (-2,)))
    assert main(["straighten", "--tableau", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == [{"coefficient": -1,
                        "tableau": to_entries(((-2,), (-1,)))}]


def test_schur_banner_and_payload(tmp_path, capsys, koszul_file):
    out = tmp_path / "wedge2.json"
    rc = main(["schur", "--complex", koszul_file, "--shape", "1,1",
               "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out == "2 <- 4 <- 2\n"
    payload = json.loads(out.read_text())
    assert payload["shape"] == [1, 1]
    assert payload["ranks"] == [2, 4, 2]
    assert [b["degree"] for b in payload["basis"]] == [1, 2, 3]
    assert [len(b["tableaux"]) for b in payload["basis"]] == [2, 4, 2]
    ring = PolyRing(RATIONALS, ("x", "y"))
    rebuilt = complex_from_dict(payload)
    assert rebuilt == schur_complex((1, 1), koszul_complex(ring.gens()))


def test_schur_banner_order_is_ascending_degree(tmp_path, capsys):
    path = tmp_path / "generic.json"
    save_complex(generic_matrix_complex(2, 3), str(path))
    out = tmp_path / "w2.json"
    assert main(["schur", "--complex", str(path), "--shape", "1,1",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out == "1 <- 6 <- 6\n"


def test_schur_conjugate_flag(tmp_path, capsys, koszul_file):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(["schur", "--complex", koszul_file, "--shape", "3",
                 "--conjugate", "--out", str(out_a)]) == 0
    assert main(["schur", "--complex", koszul_file, "--shape", "1,1,1",
                 "--out", str(out_b)]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()


def test_schur_repeat_runs_identical(tmp_path, capsys, koszul_file):
    out_a = tmp_path / "r1.json"
    out_b = tmp_path / "r2.json"
    for out in (out_a, out_b):
        assert main(["schur", "--complex", koszul_file, "--shape", "2,1",
                     "--out", str(out)]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()


def test_schur_enumerates_the_basis_once(tmp_path, capsys, monkeypatch,
                                         koszul_file):
    calls = []
    real = schurcx.schur.enumerate_standard
    monkeypatch.setattr(schurcx.schur, "enumerate_standard",
                        lambda *args: calls.append(args) or real(*args))
    assert main(["schur", "--complex", koszul_file, "--shape", "2,1",
                 "--out", str(tmp_path / "s21.json")]) == 0
    assert capsys.readouterr().out == "2 <- 5 <- 6 <- 5 <- 2\n"
    assert len(calls) == 1


def test_verify_ok(capsys, koszul_file):
    assert main(["verify", "--complex", koszul_file]) == 0
    assert capsys.readouterr().out == "ok\n"


def test_verify_reads_saved_variable_names(tmp_path, capsys):
    ring = PolyRing(RATIONALS, ("x1", "_y", "z_2"))
    f = koszul_complex(ring.gens())
    path = str(tmp_path / "names.json")
    save_complex(f, path)
    assert main(["verify", "--complex", path]) == 0
    assert capsys.readouterr().out == "ok\n"
    assert load_complex(path) == f


def test_verify_single_term_complex(tmp_path, capsys):
    data = {
        "ring": {"coefficients": "QQ", "variables": ["x"]},
        "min_degree": 0,
        "ranks": [3],
        "differentials": [],
    }
    path = tmp_path / "term.json"
    path.write_text(json.dumps(data))
    assert main(["verify", "--complex", str(path)]) == 0
    assert capsys.readouterr().out == "ok\n"


def test_verify_huge_exponent_is_fast(tmp_path, capsys):
    data = {
        "ring": {"coefficients": "QQ", "variables": ["x"]},
        "min_degree": 0,
        "ranks": [1, 1],
        "differentials": [[["x^99999999999"]]],
    }
    path = tmp_path / "power.json"
    path.write_text(json.dumps(data))
    start = time.monotonic()
    assert main(["verify", "--complex", str(path)]) == 0
    assert capsys.readouterr().out == "ok\n"
    assert time.monotonic() - start < 2.0


def _huge_exponent_file(tmp_path, field):
    data = {
        "ring": {"coefficients": "QQ" if field == "QQ" else {"p": 32003},
                 "variables": ["x"]},
        "min_degree": 0,
        "ranks": [1, 1],
        "differentials": [[["x^99999999999"]]],
    }
    path = tmp_path / "power.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("field", ["QQ", "GF"])
def test_ranks_huge_exponent_is_fast(tmp_path, capsys, field):
    path = _huge_exponent_file(tmp_path, field)
    start = time.monotonic()
    assert main(["ranks", "--complex", path]) == 0
    assert capsys.readouterr().out == (
        "degrees 0..1, ranks 1 1\nrank d_1 = 1\nh_0 = 0\nh_1 = 0\n")
    assert time.monotonic() - start < 2.0


@pytest.mark.parametrize("field", ["QQ", "GF"])
def test_ranks_huge_exponent_three_terms_is_fast(tmp_path, capsys, field):
    # the d.d proof multiplies x^99999999999 by y by adding exponents
    data = {
        "ring": {"coefficients": "QQ" if field == "QQ" else {"p": 32003},
                 "variables": ["x", "y"]},
        "min_degree": 0,
        "ranks": [1, 2, 1],
        "differentials": [[["x^99999999999", "y"]],
                          [["-y"], ["x^99999999999"]]],
    }
    path = tmp_path / "power.json"
    path.write_text(json.dumps(data))
    start = time.monotonic()
    assert main(["ranks", "--complex", str(path)]) == 0
    assert capsys.readouterr().out == (
        "degrees 0..2, ranks 1 2 1\nrank d_1 = 1\nrank d_2 = 1\n"
        "h_0 = 0\nh_1 = 0\nh_2 = 0\n")
    assert time.monotonic() - start < 2.0


@pytest.mark.parametrize("field, point, h", [
    # h is the homology rank in degrees 0 and 1; None: the value is too big
    ("QQ", "2", None), ("QQ", "1/2", None), ("QQ", "-3", None),
    ("QQ", "1", 0), ("QQ", "-1", 0), ("QQ", "2/2", 0), ("QQ", "0", 1),
    ("GF", "2", 0), ("GF", "1/2", 0),
])
def test_homology_huge_exponent_is_fast(tmp_path, capsys, field, point, h):
    path = _huge_exponent_file(tmp_path, field)
    start = time.monotonic()
    code = main(["homology", "--complex", path, "--point", point])
    captured = capsys.readouterr()
    if h is None:
        assert code == 3
        assert captured.out == ""
        assert captured.err == ("the value at the point would exceed 65536 bits, "
                                "the bound for exact evaluation\n")
    else:
        assert code == 0
        assert captured.out == "h_0 = %d\nh_1 = %d\n" % (h, h)
    assert time.monotonic() - start < 2.0


def test_homology_refuses_a_huge_koszul_value_before_ranking(tmp_path, capsys):
    # Koszul(x^99999999999, y): every differential is evaluated before any
    # is ranked or proved, so the refusal is the one of the first value
    data = {
        "ring": {"coefficients": "QQ", "variables": ["x", "y"]},
        "min_degree": 0,
        "ranks": [1, 2, 1],
        "differentials": [[["x^99999999999", "y"]],
                          [["-y"], ["x^99999999999"]]],
    }
    path = tmp_path / "koszul_power.json"
    path.write_text(json.dumps(data))
    start = time.monotonic()
    assert main(["homology", "--complex", str(path), "--point", "2,1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("the value at the point would exceed 65536 bits, "
                            "the bound for exact evaluation\n")
    assert time.monotonic() - start < 2.0


def test_homology_multiplies_no_polynomials(tmp_path, capsys, monkeypatch):
    # d_1 . d_2 = p*q has 4,000,000 term products; at (1, 1), p is 2000 and
    # q, with alternating signs, is 0, so the point proof passes on scalars
    p = " + ".join("x^%d*y^%d" % (i, 1999 - i) for i in range(2000))
    q = " ".join("%s x^%d*y^%d" % ("-" if i % 2 else "+", i, 1999 - i)
                 for i in range(2000))
    data = {
        "ring": {"coefficients": "QQ", "variables": ["x", "y"]},
        "min_degree": 0,
        "ranks": [1, 1, 1],
        "differentials": [[[p]], [[q]]],
    }
    path = tmp_path / "long.json"
    path.write_text(json.dumps(data))

    def refuse(a, b):
        raise AssertionError("mat_mul called")

    monkeypatch.setattr(schurcx.complexes, "mat_mul", refuse)
    monkeypatch.setattr(schurcx.ring, "mat_mul", refuse)
    assert main(["homology", "--complex", str(path), "--point", "1,1"]) == 0
    assert capsys.readouterr().out == "h_0 = 0\nh_1 = 0\nh_2 = 1\n"
    # at (1, 2) the product is not zero: refused on the scalars as well
    assert main(["homology", "--complex", str(path), "--point", "1,2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "d_1 . d_2 != 0 at row 0, column 0 at the point\n"


def test_schur_identity_shape_returns_input(tmp_path, capsys, koszul_file):
    out = tmp_path / "same.json"
    assert main(["schur", "--complex", koszul_file, "--shape", "1",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    original = json.loads(open(koszul_file).read())
    for key in ("ring", "min_degree", "ranks", "differentials"):
        assert payload[key] == original[key]


def test_verify_catches_broken_differential(tmp_path, capsys):
    data = {
        "ring": {"coefficients": "QQ", "variables": ["x", "y"]},
        "min_degree": 0,
        "ranks": [1, 2, 1],
        "differentials": [[["x", "y"]], [["y"], ["x"]]],
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    assert main(["verify", "--complex", str(path)]) == 1
    text = capsys.readouterr().out
    assert text == "d_1 . d_2 != 0 at row 0, column 0\n"


def test_ranks_of_a_broken_complex_rank_each_differential(tmp_path, capsys):
    # d.d != 0: ranks refuses the file as schur does, at every trial count
    data = {
        "ring": {"coefficients": "QQ", "variables": ["x", "y"]},
        "min_degree": 0,
        "ranks": [1, 2, 1],
        "differentials": [[["x", "y"]], [["y"], ["x"]]],
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    for trials in ([], ["--trials", "1"]):
        assert main(["ranks", "--complex", str(path)] + trials) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "d_1 . d_2 != 0 at row 0, column 0\n"


def test_ranks_at_one_trial_prove_d_squared_at_the_point(tmp_path, capsys,
                                                        monkeypatch):
    # d_1 . d_2 = x*y: one trial proves d.d = 0 on the ring first, as three
    # do, and ranks nothing when the proof fails
    data = {
        "ring": {"coefficients": "QQ", "variables": ["x", "y"]},
        "min_degree": 0,
        "ranks": [1, 1, 1],
        "differentials": [[["x"]], [["y"]]],
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    proofs, ranked = [], []
    real = schurcx.complexes.validate_complex
    monkeypatch.setattr(schurcx.complexes, "validate_complex",
                        lambda f: proofs.append(1) or real(f))
    monkeypatch.setattr(schurcx.complexes, "scalar_rank",
                        lambda *args: ranked.append(1))
    assert main(["ranks", "--complex", str(path), "--trials", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "d_1 . d_2 != 0 at row 0, column 0\n"
    assert (proofs, ranked) == ([1], [])


def test_ranks_prove_each_rank_with_one_elimination(tmp_path, capsys,
                                                    monkeypatch):
    ring = PolyRing(GF(32003), ("x", "y", "z"))
    s = schur_complex((2, 1), koszul_complex(ring.gens()))
    path = tmp_path / "s21.json"
    save_complex(s, str(path))
    calls = []
    real = schurcx.complexes.scalar_rank

    def counting(field, vectors, *bounds):
        calls.append(field)
        return real(field, vectors, *bounds)

    monkeypatch.setattr(schurcx.complexes, "scalar_rank", counting)
    assert main(["ranks", "--complex", str(path)]) == 0
    assert capsys.readouterr().out.endswith("h_%d = 0\n" % s.max_degree)
    assert len(calls) == len(s.differentials) == 7


def test_ranks_output(capsys, koszul_file):
    assert main(["ranks", "--complex", koszul_file]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "degrees 0..2, ranks 1 2 1",
        "rank d_1 = 1",
        "rank d_2 = 1",
        "h_0 = 0",
        "h_1 = 0",
        "h_2 = 0",
    ]


def test_ranks_zero_differentials(tmp_path, capsys):
    data = {
        "ring": {"coefficients": "QQ", "variables": ["x"]},
        "min_degree": 0,
        "ranks": [2, 3],
        "differentials": [[["0", "0", "0"], ["0", "0", "0"]]],
    }
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(data))
    assert main(["ranks", "--complex", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "degrees 0..1, ranks 2 3",
        "rank d_1 = 0",
        "h_0 = 2",
        "h_1 = 3",
    ]


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_ranks_bad_trials_prints_nothing(capsys, koszul_file, trials):
    assert main(["ranks", "--complex", koszul_file, "--trials", trials]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "trials must be >= 1" in err


def test_ranks_trials_over_the_bound_is_fast(tmp_path, capsys):
    # rank 1 of 2, so no trial stops the others early
    data = {
        "ring": {"coefficients": "QQ", "variables": ["x"]},
        "min_degree": 0,
        "ranks": [2, 2],
        "differentials": [[["x", "x"], ["x", "x"]]],
    }
    path = tmp_path / "deficient.json"
    path.write_text(json.dumps(data))
    start = time.monotonic()
    assert main(["ranks", "--complex", str(path), "--trials", "100000000"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "trials must be at most %d, got 100000000\n" % MAX_TRIALS
    assert time.monotonic() - start < 2.0
    assert main(["ranks", "--complex", str(path), "--trials", str(MAX_TRIALS + 1)]) == 3
    capsys.readouterr()
    assert main(["ranks", "--complex", str(path), "--trials", str(MAX_TRIALS)]) == 0
    assert "rank d_1 = 1\n" in capsys.readouterr().out


def test_homology_at_points(capsys, koszul_file):
    assert main(["homology", "--complex", koszul_file, "--point", "1,1"]) == 0
    assert capsys.readouterr().out.splitlines() == ["h_0 = 0", "h_1 = 0",
                                                    "h_2 = 0"]
    assert main(["homology", "--complex", koszul_file, "--point", "0,0"]) == 0
    assert capsys.readouterr().out.splitlines() == ["h_0 = 1", "h_1 = 2",
                                                    "h_2 = 1"]


def test_homology_fraction_point(capsys, koszul_file):
    assert main(["homology", "--complex", koszul_file,
                 "--point", "1/2,-3"]) == 0
    assert capsys.readouterr().out.splitlines() == ["h_0 = 0", "h_1 = 0",
                                                    "h_2 = 0"]


def test_homology_prime_field(tmp_path, capsys):
    ring = PolyRing(GF(5), ("x", "y"))
    path = tmp_path / "k5.json"
    save_complex(koszul_complex(ring.gens()), str(path))
    assert main(["homology", "--complex", str(path), "--point", "2,3"]) == 0
    assert capsys.readouterr().out.splitlines() == ["h_0 = 0", "h_1 = 0",
                                                    "h_2 = 0"]


def test_missing_file_is_parse_error(capsys):
    assert main(["straighten", "--tableau", "/nonexistent.json"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_bad_json_is_parse_error(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    # an integer over Python's 4,300-digit limit is refused as it is read
    for text in ("{", '{"ring": {"coefficients": {"p": 1%s}}}' % ("0" * 5000)):
        path.write_text(text)
        assert main(["verify", "--complex", str(path)]) == 2
        assert "bad JSON" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--complex"],
    ["ranks", "--complex"],
    ["homology", "--point", "1,2", "--complex"],
    ["schur", "--shape", "2", "--complex"],
    ["straighten", "--tableau"],
])
def test_deeply_nested_json_is_parse_error(tmp_path, argv):
    # the decoder raises RecursionError, not ValueError, on nesting this
    # deep; run in a subprocess, where an escaped one prints a traceback
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    proc = subprocess.run(
        [sys.executable, "-m", "schurcx.cli", *argv, str(path)],
        capture_output=True, text=True, env=_src_env(), timeout=2.0)
    assert proc.returncode == 2, proc.stderr
    assert "bad JSON in" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["schur", "straighten"])
@pytest.mark.parametrize("target", ["missing/dir/x.json", ".", "/dev/full"])
def test_unwritable_out_is_parse_error(tmp_path, koszul_file, command, target):
    # a missing directory, a directory, and a full device (ENOSPC on write);
    # run in a subprocess, where an escaped OSError prints a traceback
    if target == "/dev/full" and not os.path.exists(target):
        pytest.skip("no /dev/full here")
    if command == "schur":
        argv = ["schur", "--complex", koszul_file, "--shape", "2,1"]
    else:
        argv = ["straighten", "--tableau",
                _write_tableau(tmp_path, (2, 1), ((2, 1), (3,)))]
    proc = subprocess.run(
        [sys.executable, "-m", "schurcx.cli", *argv, "--out", target],
        capture_output=True, text=True, env=_src_env(), cwd=tmp_path,
        timeout=10.0)
    assert proc.returncode == 2, proc.stderr
    assert "cannot write %s" % target in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def _lower_file_size_limit():
    import resource
    resource.setrlimit(resource.RLIMIT_FSIZE, (8192, 8192))


def test_failed_out_write_keeps_the_old_file(tmp_path):
    # the child may write 8,192 bytes to a file and the JSON is longer: the
    # write fails part-way, and the old file must survive whole
    pytest.importorskip("resource")
    ring = PolyRing(GF(32003), ("x", "y", "z"))
    save_complex(koszul_complex(ring.gens()), str(tmp_path / "koszul.json"))
    out = tmp_path / "keep.json"
    out.write_text('{"old": true}\n')
    files = sorted(os.listdir(tmp_path))
    env = _src_env()
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # no bytecode cut short by the limit
    proc = subprocess.run(
        [sys.executable, "-m", "schurcx.cli", "schur", "--complex",
         "koszul.json", "--shape", "3,2", "--out", "keep.json"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60.0,
        preexec_fn=_lower_file_size_limit)
    assert proc.returncode == 2, proc.stderr
    assert "cannot write keep.json" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert out.read_text() == '{"old": true}\n'
    assert sorted(os.listdir(tmp_path)) == files  # no temporary file left
    # save_complex writes through the same writer, under the same limit
    code = ("from schurcx import save_complex, schur_complex\n"
            "from schurcx.complexes import load_complex\n"
            "save_complex(schur_complex((3, 2), load_complex('koszul.json')),"
            " 'keep.json')\n")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        cwd=tmp_path, timeout=60.0, preexec_fn=_lower_file_size_limit)
    assert proc.returncode == 1
    assert os.strerror(errno.EFBIG) in proc.stderr
    assert out.read_text() == '{"old": true}\n'
    assert sorted(os.listdir(tmp_path)) == files


def test_out_keeps_the_mode_and_writes_through_a_symlink(tmp_path, koszul_file,
                                                         capsys):
    old = tmp_path / "old.json"
    old.write_text("old\n")
    old.chmod(0o640)
    link = tmp_path / "link.json"
    link.symlink_to(old)
    new = tmp_path / "new.json"
    argv = ["schur", "--complex", koszul_file, "--shape", "2,1", "--out"]
    assert main(argv + [str(link)]) == 0
    assert main(argv + [str(new)]) == 0
    assert link.is_symlink()
    assert old.read_text() == new.read_text() != "old\n"
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(old.stat().st_mode) == 0o640
    assert stat.S_IMODE(new.stat().st_mode) == 0o666 & ~umask
    assert sorted(os.listdir(tmp_path)) == [
        "koszul.json", "link.json", "new.json", "old.json"]
    # save_complex writes through the same writer
    new.unlink()
    f = load_complex(koszul_file)
    save_complex(f, str(link))
    save_complex(f, str(new))
    assert link.is_symlink()
    assert old.read_text() == new.read_text() == Path(koszul_file).read_text()
    assert stat.S_IMODE(old.stat().st_mode) == 0o640
    assert stat.S_IMODE(new.stat().st_mode) == 0o666 & ~umask
    assert sorted(os.listdir(tmp_path)) == [
        "koszul.json", "link.json", "new.json", "old.json"]


def test_bad_shape_is_parse_error(capsys, koszul_file):
    assert main(["schur", "--complex", koszul_file, "--shape", "3,x"]) == 2
    assert "bad shape" in capsys.readouterr().err


@pytest.mark.parametrize("shape", ["1,2", "0", "-1"])
def test_shape_breaking_partition_rule_is_invalid(tmp_path, capsys, shape):
    # the shape is checked before the complex: this file is not even read
    missing = str(tmp_path / "missing.json")
    assert main(["schur", "--complex", missing, "--shape", shape]) == 3
    assert "invalid shape" in capsys.readouterr().err


def test_entry_outside_diagram_is_invalid(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"shape": [1], "entries": [[2, 1, 1]]}))
    assert main(["straighten", "--tableau", path.as_posix()]) == 3
    assert "invalid tableau" in capsys.readouterr().err


@pytest.mark.parametrize("conjugate", [[], ["--conjugate"]])
def test_schur_on_a_shape_of_1100_boxes(tmp_path, capsys, conjugate):
    path = tmp_path / "rank1.json"
    path.write_text(json.dumps({"ring": {"coefficients": {"p": 7}, "variables": ["x"]},
                                "min_degree": 0, "ranks": [1, 1],
                                "differentials": [[["x"]]]}))
    start = time.monotonic()
    assert main(["schur", "--complex", str(path), "--shape", "1100",
                 "--out", str(tmp_path / "out.json")] + conjugate) == 0
    assert time.monotonic() - start < 2.0
    assert capsys.readouterr().out == "1 <- 1\n"


def test_tableau_file_with_a_huge_shape_is_invalid(tmp_path):
    # 2^70 + 1 boxes and one record: refused before any per-box work.  Run
    # in a subprocess, so that per-box work is stopped at the time limit
    # (TimeoutExpired) instead of filling memory.
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"shape": [2 ** 70, 1], "entries": [[1, 1, 1]]}))
    proc = subprocess.run(
        [sys.executable, "-m", "schurcx.cli", "straighten", "--tableau", str(path)],
        capture_output=True, text=True, env=_src_env(), timeout=2.0)
    assert proc.returncode == 3, proc.stderr
    assert "1 records for a shape of %d boxes" % (2 ** 70 + 1) in proc.stderr


@pytest.mark.parametrize("argv", [["verify"], ["ranks"], ["homology", "--point", "1"]])
def test_complex_file_claiming_a_huge_rank_is_invalid(tmp_path, argv):
    # 10^9 columns that no array of the file backs: refused before any
    # matrix is built.  Run in a subprocess under a 1 GiB address-space
    # limit and a time limit, so that building them fails the test instead
    # of filling memory.
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"ring": {"coefficients": "QQ", "variables": ["x"]},
                                "min_degree": 0, "ranks": [0, 10 ** 9],
                                "differentials": [[]]}))
    limit = 1 << 30
    proc = subprocess.run(
        [sys.executable, "-m", "schurcx.cli", argv[0], "--complex", str(path)]
        + argv[1:], capture_output=True, text=True, env=_src_env(), timeout=5.0,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == ("invalid complex in %s: rank 1000000000 in degree 1"
                           " exceeds 1048576\n" % path)


def test_extra_differential_is_invalid(tmp_path, capsys, koszul_file):
    data = {
        "ring": {"coefficients": "QQ", "variables": ["x"]},
        "min_degree": 0,
        "ranks": [1],
        "differentials": [[["x"]]],
    }
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(data))
    for argv in (["verify"], ["ranks"], ["homology", "--point", "1"],
                 ["schur", "--shape", "1"]):
        assert main(argv[:1] + ["--complex", str(path)] + argv[1:]) == 3
        assert "expected 0 differentials, got 1" in capsys.readouterr().err


def test_fractional_tableau_entry_is_invalid(tmp_path, capsys):
    # a float or bool value, or a float box position
    for entries in ([[1, 1, 1.5], [1, 2, 2], [2, 1, 3]],
                    [[1, 1, True], [1, 2, 2], [2, 1, 3]],
                    [[1.0, 1, 1], [1, 2, 2], [2, 1, 3]]):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"shape": [2, 1], "entries": entries}))
        assert main(["straighten", "--tableau", str(path)]) == 3, entries
        assert "invalid tableau" in capsys.readouterr().err


def test_fractional_shape_part_is_invalid(tmp_path, capsys):
    for data in ({"shape": [2.7, 1], "entries": [[1, 1, 1], [1, 2, 2], [2, 1, 3]]},
                 {"shape": [True], "entries": [[1, 1, 1]]}):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["straighten", "--tableau", str(path)]) == 3, data
        assert "invalid tableau" in capsys.readouterr().err


@pytest.mark.parametrize("data, code, message", [
    ({"shape": [2, 1], "entries": "abc"}, 2, "entries must be an array"),
    ({"shape": [2, 1], "entries": {"a": 1}}, 2, "entries must be an array"),
    ({"shape": "21", "entries": [[1, 1, 1], [1, 2, 2], [2, 1, 3]]}, 2,
     "shape must be an array"),
    ({"shape": [2, 1], "entries": [[1, 1, 1], [1, 2, 2], "abc"]}, 2,
     "a record must be an array"),
    ({"shape": [2, 1], "entries": [[1, 1, 1], [1, 2, 2], [2, 1]]}, 3,
     "record [2, 1] is not [column, row, value]"),
    ({"shape": [2, 1], "entries": [[1, 1, 1], [1, 2, 2], [2, 1, 3, 4]]}, 3,
     "record [2, 1, 3, 4] is not [column, row, value]"),
])
def test_tableau_file_requires_arrays(tmp_path, capsys, data, code, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["straighten", "--tableau", str(path)]) == code
    assert message in capsys.readouterr().err


def test_fractional_min_degree_is_invalid(tmp_path, capsys, koszul_file):
    for key, value in (("min_degree", 0.5), ("min_degree", True),
                       ("ranks", [True, 2, 1])):
        with open(koszul_file) as fh:
            data = json.load(fh)
        data[key] = value
        path = tmp_path / "half.json"
        path.write_text(json.dumps(data))
        assert main(["verify", "--complex", str(path)]) == 3, (key, value)
        assert key in capsys.readouterr().err


NOT_TEXT = "bad complex file {}: expected string or bytes-like object, got %r"
BAD_TEXT = "invalid complex in {}: %s"


@pytest.mark.parametrize("row, code, message", [
    pytest.param([5], 2, NOT_TEXT % "int", id="5-2"),
    pytest.param([None], 2, NOT_TEXT % "NoneType", id="None-2"),
    pytest.param([[]], 2, NOT_TEXT % "list", id="entry2-2"),
    pytest.param([[5]], 2, NOT_TEXT % "list", id="entry3-2"),
    pytest.param(["x +"], 3, BAD_TEXT % "malformed polynomial 'x +'", id="x +-3"),
    pytest.param(["x^"], 3, BAD_TEXT % "malformed polynomial 'x^'", id="x^-3"),
    pytest.param(["1/0"], 3, BAD_TEXT % "zero denominator", id="1/0-3"),
    pytest.param(["w"], 3, BAD_TEXT % "unknown variable 'w'", id="w-3"),
    # the bad entry after an identical or a valid one
    pytest.param(["x", "x +", "x +"], 3, BAD_TEXT % "malformed polynomial 'x +'",
                 id="x,x +,x +-3"),
    pytest.param(["1/0", "1/0"], 3, BAD_TEXT % "zero denominator", id="1/0,1/0-3"),
    pytest.param(["x", 5], 2, NOT_TEXT % "int", id="x,5-2"),
    pytest.param(["x", []], 2, NOT_TEXT % "list", id="x,entry-2"),
])
def test_verify_reads_entries(tmp_path, capsys, row, code, message):
    data = {
        "ring": {"coefficients": "QQ", "variables": ["x"]},
        "min_degree": 0,
        "ranks": [1, len(row)],
        "differentials": [[row]],
    }
    path = tmp_path / "entry.json"
    path.write_text(json.dumps(data))
    assert main(["verify", "--complex", str(path)]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message.format(path) + "\n"


@pytest.mark.parametrize("key, value, message", [
    ("ranks", [], "a complex needs at least one term"),
    ("ranks", [-1], "negative rank"),
    ("coefficients", "ZZ", "unknown coefficient field 'ZZ'"),
    ("variables", ["x", "x"], "duplicate variable names"),
])
def test_complex_file_breaking_a_term_or_ring_rule_is_invalid(
        tmp_path, capsys, key, value, message):
    data = {
        "ring": {"coefficients": "QQ", "variables": ["x"]},
        "min_degree": 0,
        "ranks": [1],
        "differentials": [],
    }
    (data if key == "ranks" else data["ring"])[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    for argv in (["verify"], ["ranks"], ["homology", "--point", "1"]):
        assert main(argv + ["--complex", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == BAD_TEXT.format(path) % message + "\n"


@pytest.mark.parametrize("variables, ranks, differentials", [
    ("xy", [1, 1], [[["x"]]]),       # variables as a string
    (["x"], [1, 1], ["x"]),          # a differential as a string
    (["x", "y"], [1, 2], [["xy"]]),  # a row as a string
    (["x"], [1, 1], "x"),            # the list of differentials as a string
    (["x"], [1, 1], {"x": 1}),       # ... as an object
    (["x"], "11", [[["x"]]]),        # ranks as a string
    (["x"], {"a": 1, "b": 1}, [[["x"]]]),  # ... as an object
    (["x"], 5, [[["x"]]]),           # ... as a number
])
def test_verify_requires_arrays(tmp_path, capsys, variables, ranks,
                                differentials):
    data = {
        "ring": {"coefficients": "QQ", "variables": variables},
        "min_degree": 0,
        "ranks": ranks,
        "differentials": differentials,
    }
    path = tmp_path / "strings.json"
    path.write_text(json.dumps(data))
    assert main(["verify", "--complex", str(path)]) == 2
    assert "must be an array" in capsys.readouterr().err


@pytest.mark.parametrize("p", [
    318665857834031151167461,    # passes the bases 2..37
    3317044064679887385961981,   # passes the bases 2..41
])
def test_verify_rejects_unproved_characteristic(tmp_path, capsys, p):
    data = {
        "ring": {"coefficients": {"p": p}, "variables": ["x"]},
        "min_degree": 0,
        "ranks": [1, 1],
        "differentials": [[["x"]]],
    }
    path = tmp_path / "composite.json"
    path.write_text(json.dumps(data))
    assert main(["verify", "--complex", str(path)]) == 3
    assert "field characteristic" in capsys.readouterr().err


def test_verify_huge_characteristic_is_fast(tmp_path, capsys):
    data = {
        "ring": {"coefficients": {"p": 10**4000 + 1}, "variables": ["x"]},
        "min_degree": 0,
        "ranks": [1, 1],
        "differentials": [[["x"]]],
    }
    path = tmp_path / "huge_p.json"
    path.write_text(json.dumps(data))
    start = time.monotonic()
    assert main(["verify", "--complex", str(path)]) == 3
    assert time.monotonic() - start < 1.0
    assert capsys.readouterr().err == (
        "invalid complex in %s: field characteristic of 13288 bits is too "
        "large: primality is proved only below 3317044064679887385961981\n"
        % path)


@pytest.mark.parametrize("ranks, differential, h", [
    ([0, 2], [], ["h_0 = 0", "h_1 = 2"]),
    ([2, 0], [[], []], ["h_0 = 2", "h_1 = 0"]),
])
def test_ranks_reads_zero_rank_terms(tmp_path, capsys, ranks, differential, h):
    data = {
        "ring": {"coefficients": "QQ", "variables": ["x"]},
        "min_degree": 0,
        "ranks": ranks,
        "differentials": [differential],
    }
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(data))
    assert main(["verify", "--complex", str(path)]) == 0
    assert main(["ranks", "--complex", str(path)]) == 0
    assert main(["homology", "--complex", str(path), "--point", "1"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "ok", "degrees 0..1, ranks %d %d" % tuple(ranks), "rank d_1 = 0"] + h + h


def test_nonsquaring_input_complex_is_invalid(tmp_path, capsys):
    data = {
        "ring": {"coefficients": "QQ", "variables": ["x", "y"]},
        "min_degree": 0,
        "ranks": [1, 2, 1],
        "differentials": [[["x", "y"]], [["y"], ["x"]]],
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    assert main(["schur", "--complex", str(path), "--shape", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "d_1 . d_2 != 0 at row 0, column 0\n"
    # d_1 . d_2 = 2*x*y is 2 at (1, 1): homology refuses it at the point
    assert main(["homology", "--complex", str(path), "--point", "1,1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "d_1 . d_2 != 0 at row 0, column 0 at the point\n"


def test_wrong_point_arity_is_invalid(capsys, koszul_file):
    assert main(["homology", "--complex", koszul_file, "--point", "1"]) == 3
    assert "coordinates" in capsys.readouterr().err


def test_empty_point_for_ring_without_variables(tmp_path, capsys, koszul_file):
    data = {
        "ring": {"coefficients": "QQ", "variables": []},
        "min_degree": 0,
        "ranks": [1, 1],
        "differentials": [[["2"]]],
    }
    path = tmp_path / "constant.json"
    path.write_text(json.dumps(data))
    assert main(["homology", "--complex", str(path), "--point", ""]) == 0
    assert capsys.readouterr().out.splitlines() == ["h_0 = 0", "h_1 = 0"]
    assert main(["homology", "--complex", koszul_file, "--point", ""]) == 3
    assert "point has 0 coordinates, ring has 2 variables" in capsys.readouterr().err


def test_bad_coordinate_is_parse_error(capsys, koszul_file):
    assert main(["homology", "--complex", koszul_file, "--point", "a,1"]) == 2
    assert "bad coordinate" in capsys.readouterr().err


@pytest.mark.parametrize("point, bad", [("1,x", "'x'"), ("1/0,2", "'1/0'"),
                                        ("1, 2/x", "'2/x'")])
def test_bad_coordinate_is_checked_before_the_complex(tmp_path, capsys, point, bad):
    # the point is checked before the complex: this file is not even read
    missing = str(tmp_path / "missing.json")
    assert main(["homology", "--complex", missing, "--point", point]) == 2
    assert capsys.readouterr().err == "bad coordinate %s\n" % bad


def test_internal_check_guards_output(tmp_path, capsys, koszul_file,
                                      monkeypatch):
    import schurcx.cli as cli_mod
    calls = []

    def fake_validate(f):
        calls.append(f)
        return [] if len(calls) == 1 else ["forced failure"]

    monkeypatch.setattr(cli_mod, "validate_complex", fake_validate)
    rc = main(["schur", "--complex", koszul_file, "--shape", "1,1"])
    assert rc == 4
    err = capsys.readouterr().err
    assert "internal error" in err
    assert err.splitlines()[1:] == ["forced failure"]
    assert len(calls) == 2


def test_console_script_runs(koszul_file):
    # Run what the launcher of the declared console script runs, so the
    # test needs neither an install nor a `schurcx` on PATH.
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(REPO / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["schurcx"]
    module, _, func = target.partition(":")
    launcher = "import sys; from %s import %s; sys.exit(%s())" % (
        module, func, func)
    proc = subprocess.run(
        [sys.executable, "-c", launcher, "verify", "--complex", koszul_file],
        capture_output=True, text=True, env=_src_env(),
        cwd=os.path.dirname(koszul_file))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n", proc.stderr
