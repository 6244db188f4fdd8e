"""Fast self-check of the benchmark; exits 0 when every check passes.

    python3 perfbench/selfcheck.py

It checks the hook-content formula of oracle.py against the number of
standard tableaux schurcx enumerates for single-term complexes, runs every
workload at reduced size with and without tracing, and checks that the
metric names and units printed are those of BENCHMARK.json.
"""

import json
import os
import subprocess
import sys

import oracle
import run

sys.path.insert(0, run.SRC)


def check_content_formula():
    """A complex of rank r in degree 0 (even) or 1 (odd), shapes up to 5 boxes."""
    from schurcx import enumerate_standard
    bad = []
    for size in range(1, 6):
        for shape in oracle.partitions(size):
            for r in range(5):
                even = len(enumerate_standard(shape, 0, r))
                odd = len(enumerate_standard(shape, r, 0))
                if even != oracle.content_product(shape, r):
                    bad.append("even rank %d, shape %s: %d tableaux" % (r, shape, even))
                if odd != oracle.odd_schur_dimension(shape, r):
                    bad.append("odd rank %d, shape %s: %d tableaux" % (r, shape, odd))
    return bad


def check_runs(spec):
    bad = []
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        bad.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for workload in run.WORKLOADS:
            proc = subprocess.run(
                [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
                 "--seed", "1", "--seconds", "1", "--trace", str(trace), "--small"],
                capture_output=True, text=True, cwd=run.ROOT, timeout=180)
            where = "%s --trace %d" % (workload, trace)
            if proc.returncode != 0:
                bad.append("%s exited %d: %s" % (where, proc.returncode, proc.stderr[-500:]))
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                bad.append("%s printed %s, BENCHMARK.json has %s" % (where, got, want))
            if not result["correct"] or result["attempted"] < 1:
                bad.append("%s: %s" % (where, result))
            # only cli-roundtrip keeps a failing operation, one in each round of five
            per_round = 5 if workload == "cli-roundtrip" else None
            if (result["failed"] * per_round != result["attempted"] if per_round
                    else result["failed"] != 0):
                bad.append("%s: %d of %d operations failed"
                           % (where, result["failed"], result["attempted"]))
    return bad


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bad = check_content_formula() + check_runs(spec)
    for line in bad:
        print("FAIL %s" % line)
    print("selfcheck: %s" % ("ok" if not bad else "%d failures" % len(bad)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
