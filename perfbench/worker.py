"""One round of one benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE --tmp DIR [--small]

MODE is `setup` (import schurcx and make the inputs, nothing more), `plain`
(then run the round untraced, with CLI commands as subprocesses) or `traced`
(run it with spans around the calls between schurcx modules, and CLI commands
in-process through `schurcx.cli.main`).  The last line of standard output is
one JSON object with the round's set-up time, phase times, operation counts,
correctness problems and peak memory.  run.py starts one worker per round,
because the straightening cache lives as long as the process does.
"""

import time

_START = time.perf_counter()

import argparse
import contextlib
import io
import json
import os
import random
import re
import resource
import subprocess
import sys

import oracle
from spans import Tracer

CLI_PRIME = 32003
# A 30-byte entry on which `schurcx verify` runs without end: the parser
# builds x^k by k multiplications.  Fixed, so it fails the same way each round.
BAD_ENTRY = "x^99999999999"
BAD_LIMIT_S = 1.0
# Ranks (F0, F1, F2) of the random three-term complexes in sweep-small; only
# their entries come from the seed, so the amount of work does not.
THREE_TERM_RANKS = ((1, 1, 1), (1, 2, 1), (2, 1, 2), (1, 2, 2), (2, 2, 1),
                    (2, 2, 2), (1, 3, 2), (2, 3, 1), (3, 2, 1), (2, 3, 2))


class Round:
    """Times, counts and checks the operations of one round."""

    def __init__(self, sx, traced):
        self.sx = sx
        self.traced = traced
        self.phases = {}
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.problems = []
        self.output_bytes = 0

    def _done(self, phase, seconds):
        if phase is not None:
            self.phases[phase] = self.phases.get(phase, 0.0) + seconds

    def _fail(self, message):
        self.failed += 1
        self.errors.append(message)

    def call(self, phase, name, *args, **kwargs):
        """Call schurcx.<name>, looked up now so that a traced wrapper is used."""
        self.attempted += 1
        fn = getattr(self.sx, name)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is counted, not fatal
            self._fail("%s: %r" % (name, exc))
            return None
        self._done(phase, time.perf_counter() - start)
        return result

    def cli(self, phase, argv, timeout=None):
        """Run `schurcx ARGV`; its standard output, or None if it failed.

        Commands run under a time limit always go to a subprocess, which can
        be killed; the rest run in-process when the round is traced.
        """
        self.attempted += 1
        start = time.perf_counter()
        if self.traced and timeout is None:
            out = io.StringIO()
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = self.sx.cli.main(argv)
            except Exception as exc:
                code = repr(exc)
            text = out.getvalue()
        else:
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "schurcx.cli"] + argv,
                    capture_output=True, text=True, timeout=timeout)
            except subprocess.TimeoutExpired:
                code, text = "killed after %g s" % timeout, ""
            else:
                code, text = proc.returncode, proc.stdout
        seconds = time.perf_counter() - start
        if code != 0:
            self._fail("schurcx %s: exit %s" % (argv[0], code))
            return None
        self._done(phase, seconds)
        return text

    def check(self, ok, message):
        if not ok:
            self.problems.append(message)


# -- inputs ------------------------------------------------------------------

def generic_matrix_complex(sx, field, nrows, ncols):
    """F1 -> F0 whose matrix is nrows x ncols distinct indeterminates."""
    names = ["x%d%d" % (i, j) for i in range(1, nrows + 1) for j in range(1, ncols + 1)]
    ring = sx.PolyRing(field, names)
    rows = [[ring.variable("x%d%d" % (i, j)) for j in range(1, ncols + 1)]
            for i in range(1, nrows + 1)]
    return sx.FreeComplex(ring, 0, (nrows, ncols), (sx.PolyMatrix(ring, rows),))


def _add(p, q, c):
    """p + c*q for polynomials as {exponents: integer}."""
    out = dict(p)
    for e, v in q.items():
        out[e] = out.get(e, 0) + c * v
    return {e: v for e, v in out.items() if v}


MONOMIALS = ((0, 0), (1, 0), (0, 1), (1, 1))


def random_three_term(rng, ranks):
    """Integer matrices d1, d2 in s, t with d1 d2 = 0 over the integers.

    d2 hits only the first k coordinates of F1 and d1 kills them; both are
    then sheared by r1 elementary changes of basis of F1.  Reduction modulo
    any prime keeps d1 d2 = 0.  The block sizes, the number of terms and the
    shears are fixed by the ranks; the seed picks monomials and signs, so it
    changes the entries but hardly the work.
    """
    r0, r1, r2 = ranks

    def poly():
        # two of the monomials 1, s, t, st with unit coefficients: nonzero in every field
        return {e: rng.choice((-1, 1)) for e in rng.sample(MONOMIALS, 2)}

    k = (r1 + 1) // 2
    d2 = [[poly() if i < k else {} for _ in range(r2)] for i in range(r1)]
    d1 = [[poly() if j >= k else {} for j in range(r1)] for _ in range(r0)]
    for i in range(r1 if r1 > 1 else 0):
        j = (i + 1) % r1
        c = rng.choice((-1, 1))
        # d2 <- U d2 and d1 <- d1 U^-1 with U = I + c E_ij
        for col in range(r2):
            d2[i][col] = _add(d2[i][col], d2[j][col], c)
        for row in range(r0):
            d1[row][j] = _add(d1[row][j], d1[row][i], -c)
    return d1, d2


def three_term_complex(sx, field, ranks, d1, d2):
    ring = sx.PolyRing(field, ("s", "t"))
    mats = [sx.PolyMatrix(ring, [[ring.polynomial(p) for p in row] for row in d],
                          shape=(len(d), cols))
            for d, cols in ((d1, ranks[1]), (d2, ranks[2]))]
    return sx.FreeComplex(ring, 0, ranks, mats)


def setup_koszul(sx, seed, tmp, small):
    ring = sx.PolyRing(sx.RATIONALS, ("x", "y") if small else ("x", "y", "z"))
    return {"f": sx.koszul_complex(ring.gens()),
            "shapes": [(2, 1), (1, 1, 1)] if small else [(3, 2), (2, 2, 2)]}


def setup_generic(sx, seed, tmp, small):
    # (rows, cols, shape, certify with Bareiss)
    plan = ([(2, 3, (2, 1), False), (2, 3, (1, 1), True)] if small else
            [(2, 5, (2, 2, 1), False), (2, 4, (2, 2), True)])
    return {"cases": [(generic_matrix_complex(sx, sx.RATIONALS, r, c), shape, c - r, exact)
                      for r, c, shape, exact in plan],
            "rank_seed": random.Random(seed).randrange(1 << 30)}


def setup_sweep(sx, seed, tmp, small):
    rng = random.Random(seed)
    ranks = THREE_TERM_RANKS[:2] if small else THREE_TERM_RANKS
    data = [(r,) + random_three_term(rng, r) for r in ranks]
    fields = [sx.RATIONALS, sx.GF(2)] if small else [sx.RATIONALS, sx.GF(2), sx.GF(3)]
    complexes = []
    for field in fields:
        complexes.append(sx.koszul_complex(sx.PolyRing(field, ("x", "y")).gens()))
        if not small:
            complexes.append(sx.koszul_complex(sx.PolyRing(field, ("x", "y", "z")).gens()))
            complexes.append(generic_matrix_complex(sx, field, 2, 3))
        complexes.extend(three_term_complex(sx, field, *d) for d in data)
    shapes = [p for size in range(1, 3 if small else 5) for p in oracle.partitions(size)]
    return {"complexes": complexes, "shapes": shapes}


def setup_cli(sx, seed, tmp, small):
    names = ("x", "y") if small else ("x", "y", "z")
    f = sx.koszul_complex(sx.PolyRing(sx.GF(CLI_PRIME), names).gens())
    paths = {k: os.path.join(tmp, k + ".json") for k in ("koszul", "schur", "bad")}
    sx.save_complex(f, paths["koszul"])
    bad = {"ring": {"coefficients": "QQ", "variables": ["x"]}, "min_degree": 0,
           "ranks": [1, 1], "differentials": [[[BAD_ENTRY]]]}
    with open(paths["bad"], "w") as fh:
        json.dump(bad, fh)
    rng = random.Random(seed)
    return {"f": f, "shape": (2, 1) if small else (3, 2), "paths": paths,
            # every coordinate nonzero, so the specialised complex is split exact
            "point": [rng.randint(1, CLI_PRIME - 1) for _ in names],
            "rank_seed": rng.randrange(1 << 30)}


# -- rounds ------------------------------------------------------------------

def check_euler(rnd, s, f, shape):
    want = oracle.content_product(shape, oracle.euler_characteristic(f.min_degree, f.ranks))
    got = oracle.euler_characteristic(s.min_degree, s.ranks)
    rnd.check(got == want, "Euler characteristic of S_%s(%r) is %d, expected %d"
              % (shape, f, got, want))


def build_and_verify(rnd, shape, f):
    s = rnd.call("build_s", "schur_complex", shape, f)
    if s is not None:
        check_euler(rnd, s, f, shape)
        problems = rnd.call("verify_s", "validate_complex", s)
        rnd.check(problems in (None, []), "S_%s: %s" % (shape, problems))
    return s


def round_koszul(rnd, inp):
    for shape in inp["shapes"]:
        build_and_verify(rnd, shape, inp["f"])


def round_generic(rnd, inp):
    for f, shape, h_rank, exact in inp["cases"]:
        s = build_and_verify(rnd, shape, f)
        if s is None:
            continue
        generic = [rnd.call("rank_s", "mat_generic_rank", d, trials=1, seed=inp["rank_seed"])
                   for d in s.differentials]
        want = {k: 0 for k in s.degrees()}
        want[sum(shape)] = oracle.odd_schur_dimension(shape, h_rank)
        got = oracle.homology_from_ranks(s.min_degree, s.ranks, generic)
        rnd.check(None in generic or got == want,
                  "generic homology of S_%s is %s, expected %s" % (shape, got, want))
        if exact:
            bareiss = [rnd.call("exact_rank_s", "mat_rank_exact", d) for d in s.differentials]
            rnd.check(bareiss == generic, "S_%s: Bareiss ranks %s, generic ranks %s"
                      % (shape, bareiss, generic))


def round_sweep(rnd, inp):
    for f in inp["complexes"]:
        for shape in inp["shapes"]:
            build_and_verify(rnd, shape, f)


def _homology_lines(text):
    return {int(k): int(h) for k, h in re.findall(r"^h_(-?\d+) = (-?\d+)$", text, re.M)}


def round_cli(rnd, inp):
    shape, paths = inp["shape"], inp["paths"]
    lib = rnd.call("build_s", "schur_complex", shape, inp["f"])
    if lib is not None:
        check_euler(rnd, lib, inp["f"], shape)
    zero = {k: 0 for k in lib.degrees()} if lib is not None else None
    # The traced round runs `schur` in this process; start it from a cold
    # straightening cache, as a subprocess does.
    clear = getattr(getattr(rnd.sx.tableaux, "_straighten_columns", None), "cache_clear", None)
    if clear is not None:
        clear()
    if os.path.exists(paths["schur"]):
        os.remove(paths["schur"])
    text = rnd.cli("cli_schur_s", ["schur", "--complex", paths["koszul"], "--shape",
                                   ",".join(map(str, shape)), "--out", paths["schur"]])
    if text is not None and lib is not None:
        want = " <- ".join(map(str, lib.ranks))
        rnd.check(text.strip().splitlines()[-1:] == [want],
                  "schur printed %r, library ranks are %r" % (text.strip(), want))
    if os.path.exists(paths["schur"]):
        rnd.output_bytes = os.path.getsize(paths["schur"])
    text = rnd.cli("cli_ranks_s", ["ranks", "--complex", paths["schur"],
                                   "--seed", str(inp["rank_seed"])])
    if text is not None:
        rnd.check(_homology_lines(text) == zero, "ranks implies homology %s" % text)
    point = ",".join(map(str, inp["point"]))
    text = rnd.cli("cli_homology_s", ["homology", "--complex", paths["schur"], "--point", point])
    if text is not None:
        rnd.check(_homology_lines(text) == zero, "homology at %s is %s" % (point, text))
    text = rnd.cli(None, ["verify", "--complex", paths["bad"]], timeout=BAD_LIMIT_S)
    if text is not None:
        rnd.check(text.strip() == "ok", "verify of %s printed %r" % (BAD_ENTRY, text))


WORKLOADS = {
    "koszul-build": (setup_koszul, round_koszul),
    "generic-ranks": (setup_generic, round_generic),
    "sweep-small": (setup_sweep, round_sweep),
    "cli-roundtrip": (setup_cli, round_cli),
}


# -- tracing -----------------------------------------------------------------

# per-layer metric -> (span, what of it); `span` is None for counts kept here
LAYERS = {
    "tableaux.enumerate_s": ("tableaux.enumerate", "total"),
    "tableaux.enumerate_calls": ("tableaux.enumerate", "calls"),
    "tableaux.straighten_s": ("tableaux.straighten", "total"),
    "tableaux.straighten_calls": ("tableaux.straighten", "calls"),
    "tableaux.straighten_distinct": ("tableaux.straighten", "distinct"),
    "tableaux.basis_size": ("schur.schur_complex", "basis"),
    "schur.assemble_s": ("schur.schur_complex", "self"),
    "complexes.validate_s": ("complexes.validate", "total"),
    "ring.mat_mul_s": ("ring.mat_mul", "total"),
    "ring.matrix_entries": ("schur.schur_complex", "entries"),
    "ring.nnz": ("schur.schur_complex", "nnz"),
    "ring.specialize_s": ("ring.specialize", "total"),
    "ring.rank_elim_s": ("ring.rank_elim", "total"),
    "ring.parse_s": ("ring.parse", "total"),
    "ring.format_s": ("ring.format", "total"),
    "complexes.from_dict_s": ("complexes.from_dict", "total"),
    "complexes.to_dict_s": ("complexes.to_dict", "total"),
    "cli.output_bytes": (None, "output_bytes"),
}


def install_tracer(sx):
    """Wrap the cross-module calls; returns the tracer and the counts it fills."""
    tracer = Tracer()
    counts = {"distinct": set(), "basis": 0, "entries": 0, "nnz": 0}

    def count_complex(s):
        counts["basis"] += sum(s.ranks)
        for d in s.differentials:
            counts["entries"] += d.rows * d.cols
            counts["nnz"] += sum(1 for row in d.entries for p in row if not p.is_zero())

    wrap = tracer.wrap
    wrap(sx.schur, "enumerate_standard", "tableaux.enumerate")
    wrap(sx.schur, "_straighten_columns", "tableaux.straighten",
         before=lambda args: counts["distinct"].add(args[0]))
    for owner in (sx, sx.cli):
        wrap(owner, "schur_complex", "schur.schur_complex", after=count_complex)
        wrap(owner, "validate_complex", "complexes.validate")
    wrap(sx.complexes, "mat_mul", "ring.mat_mul")
    wrap(sx.ring.PolyMatrix, "evaluate", "ring.specialize")
    for owner in (sx.ring, sx.complexes):
        wrap(owner, "scalar_rank", "ring.rank_elim")
    wrap(sx.ring, "parse_polynomial", "ring.parse")
    wrap(sx.ring, "format_polynomial", "ring.format")
    wrap(sx.cli, "complex_from_dict", "complexes.from_dict")
    wrap(sx.cli, "complex_to_dict", "complexes.to_dict")
    return tracer, counts


def layer_values(tracer, counts, rnd):
    missing_spans = {span for _, span in tracer.missing}
    out = {}
    for metric, (span, what) in LAYERS.items():
        if span in missing_spans:
            continue
        if what == "total":
            out[metric] = tracer.total[span]
        elif what == "self":
            out[metric] = tracer.self_time[span]
        elif what == "calls":
            out[metric] = tracer.calls[span]
        elif what == "distinct":
            out[metric] = len(counts["distinct"])
        elif what == "output_bytes":
            out[metric] = rnd.output_bytes
        else:
            out[metric] = counts[what]
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "plain", "traced"))
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--small", action="store_true")
    args = parser.parse_args()
    setup, run_round = WORKLOADS[args.workload]

    import schurcx as sx
    traced = args.mode == "traced"
    if traced:
        import schurcx.cli
    inputs = setup(sx, args.seed, args.tmp, args.small)
    result = {"setup_s": time.perf_counter() - _START}
    if args.mode != "setup":
        rnd = Round(sx, traced)
        if traced:
            tracer, counts = install_tracer(sx)
        run_round(rnd, inputs)
        usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                    resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        result.update(phases=rnd.phases, attempted=rnd.attempted, failed=rnd.failed,
                      errors=rnd.errors, problems=rnd.problems, rss_mb=usage / 1024.0)
        if traced:
            result["layers"] = layer_values(tracer, counts, rnd)
            result["missing"] = ["%s (%s)" % pair for pair in tracer.missing]
    print(json.dumps(result))


if __name__ == "__main__":
    main()
