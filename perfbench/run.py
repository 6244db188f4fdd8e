"""Benchmark of schurcx on four named workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each round of the workload runs in
a fresh interpreter (perfbench/worker.py), one at a time; rounds repeat
until the next one would end after S seconds, and at least two run.  The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  The line before it
records the seed, commit, Python version, nproc, the line count of
src/schurcx and every phase time.  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

_START = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("koszul-build", "generic-ranks", "sweep-small", "cli-roundtrip")
SETUP_SAMPLES = 5      # set-up-only workers before the rounds
STARTUP_SAMPLES = 3    # `python -c "import schurcx"` runs for cli.startup_s
DEADLINE_S = 170       # a run must exit within 180 s

END_TO_END = {"setup_s": "s", "work_s": "s", "peak_rss_mb": "MB"}
PHASES = ("build_s", "verify_s", "rank_s", "exact_rank_s", "cli_schur_s", "cli_ranks_s",
          "cli_homology_s")
PER_LAYER = {p: "s" for p in PHASES}
PER_LAYER.update({
    "tableaux.enumerate_s": "s", "tableaux.enumerate_calls": "count",
    "tableaux.straighten_s": "s", "tableaux.straighten_calls": "count",
    "tableaux.straighten_distinct": "count", "tableaux.basis_size": "count",
    "schur.assemble_s": "s", "complexes.validate_s": "s", "ring.mat_mul_s": "s",
    "ring.matrix_entries": "count", "ring.nnz": "count", "ring.specialize_s": "s",
    "ring.rank_elim_s": "s", "ring.parse_s": "s", "ring.format_s": "s",
    "complexes.from_dict_s": "s", "complexes.to_dict_s": "s",
    "cli.startup_s": "s", "cli.output_bytes": "bytes", "trace.overhead_s": "s"})


class BenchError(Exception):
    pass


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else SRC
    return env


def _remaining():
    left = DEADLINE_S - (time.perf_counter() - _START)
    if left <= 0:
        raise BenchError("run passed its %d s deadline" % DEADLINE_S)
    return left


def run_worker(args, mode, tmp):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--tmp", tmp]
    if args.small:
        cmd.append("--small")
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, env=_env(),
                              timeout=_remaining())
    except subprocess.TimeoutExpired:
        raise BenchError("%s worker ran past the deadline" % mode)
    if proc.returncode != 0:
        raise BenchError("%s worker exited %d:\n%s" % (mode, proc.returncode, proc.stderr[-3000:]))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - start
    return result


def run_rounds(args, tmp, modes, min_units):
    """Rounds cycling through modes, in whole cycles, until time is up."""
    rounds = []
    while True:
        for mode in modes:
            rounds.append((mode, run_worker(args, mode, tmp)))
        elapsed = time.perf_counter() - _START
        longest = max(r["wall_s"] for _, r in rounds)
        if len(rounds) >= min_units * len(modes) and elapsed + len(modes) * longest > args.seconds:
            return rounds


def startup_seconds():
    walls = []
    for _ in range(STARTUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import schurcx"], check=True, cwd=ROOT,
                       env=_env(), timeout=_remaining())
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def work_seconds(r):
    return sum(r["phases"].values())


def commit_id():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def src_lines():
    package = os.path.join(SRC, "schurcx")
    total = 0
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as fh:
                total += sum(1 for _ in fh)
    return total


def measure(args, tmp):
    """(metrics {name: value}, rounds, info)."""
    info = {}
    if not args.trace:
        setups = [run_worker(args, "setup", tmp)["setup_s"] for _ in range(SETUP_SAMPLES)]
        rounds = [r for _, r in run_rounds(args, tmp, ("plain",), 2)]
        setups += [r["setup_s"] for r in rounds]
        metrics = {
            "setup_s": statistics.median(setups),
            "work_s": statistics.median(work_seconds(r) for r in rounds),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in rounds),
        }
        info["setup_samples"] = len(setups)
        plain = rounds
    else:
        pairs = run_rounds(args, tmp, ("plain", "traced"), 1)
        plain = [r for mode, r in pairs if mode == "plain"]
        traced = [r for mode, r in pairs if mode == "traced"]
        rounds = plain + traced
        metrics = {}
        for name, value in traced[0]["layers"].items():
            values = [r["layers"][name] for r in traced]
            if PER_LAYER[name] == "s":
                metrics[name] = statistics.median(values)
            else:
                metrics[name] = value
                if len(set(values)) != 1:
                    traced[0]["problems"].append("count %s differs between rounds: %s"
                                                 % (name, values))
        metrics["cli.startup_s"] = startup_seconds()
        metrics["trace.overhead_s"] = (statistics.median(work_seconds(r) for r in traced)
                                       - statistics.median(work_seconds(r) for r in plain))
        info["missing"] = sorted(set(m for r in traced for m in r["missing"]))
        if info["missing"]:
            print("traced names missing: %s" % ", ".join(info["missing"]), file=sys.stderr)
    info["phases"] = {p: statistics.median(r["phases"].get(p, 0.0) for r in plain)
                      for p in PHASES}
    if args.trace:
        metrics.update(info["phases"])
    info["plain_work_s"] = [work_seconds(r) for r in plain]
    return metrics, rounds, info


def main(argv=None):
    parser = argparse.ArgumentParser(description="Benchmark schurcx on one workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--small", action="store_true",
                        help="reduced inputs, for perfbench/selfcheck.py")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "schurcx", "__init__.py")):
        print("no schurcx sources under %s; run from the root of a checkout" % SRC,
              file=sys.stderr)
        return 2
    tmp = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(tmp, exist_ok=True)
    try:
        metrics, rounds, info = measure(args, tmp)
    except BenchError as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass
    problems = [p for r in rounds for p in r["problems"]]
    errors = sorted(set(e for r in rounds for e in r["errors"]))
    units = PER_LAYER if args.trace else END_TO_END
    info.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, small=args.small, commit=commit_id(),
                python=sys.version.split()[0], nproc=len(os.sched_getaffinity(0)),
                src_lines=src_lines(), rounds=len(rounds), errors=errors,
                problems=problems[:20])
    for p in problems[:20]:
        print("incorrect: %s" % p, file=sys.stderr)
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
