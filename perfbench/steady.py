"""Steadiness check: repeat each workload and compare spreads to bounds.

Usage (from the repository root)::

    python3 perfbench/steady.py --runs 10            # one set of 10 seeds
    python3 perfbench/steady.py --runs 10 --sets 2   # two sets, compared

Each run is ``perfbench/run.py --trace 0`` with its own seed (set ``k``
uses seeds ``first + k*runs ...``); runs interleave the workloads so a
slow patch of the machine hits all of them.  For every end-to-end
metric it prints the median, the quartiles (``statistics.quantiles``,
``n=4``) and the spread ``(q3 - q1) / median`` beside the metric's bound
from ``BENCHMARK.json``.  A spread must stay within the bound (except
``setup_s``'s); the target is a third of it.  With ``--sets 2`` it also
prints how much worse the second set's median is than the first's,
which must stay within the bound for every metric, and checks that the
share of failed requests is identical.  Raw results go to ``--out``.
Exit status 1 means some check failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run; its result object plus the run record."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["record"] = json.loads(lines[-2][len("run "):])
    return result


def spread(values) -> tuple:
    """``(median, q1, q3, (q3 - q1) / median)``."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of it."""
    if better == "lower":
        return (second - first) / first
    return (first - second) / first


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", help="limit to these workloads")
    parser.add_argument("--out", type=Path, default=HERE / "out" / "steady.json")
    args = parser.parse_args(argv)
    if args.runs < 4:
        parser.error("--runs must be at least 4 for quartiles")
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    results = {w: [[] for _ in range(args.sets)] for w in workloads}
    for k in range(args.sets):
        for i in range(args.runs):
            seed = args.first_seed + k * args.runs + i
            for w in workloads:
                res = run_once(w, seed, args.seconds)
                results[w][k].append(res)
                print(f"set {k} seed {seed} {w}: attempted {res['attempted']} "
                      f"failed {res['failed']} correct {res['correct']}", flush=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(results, indent=1) + "\n")

    ok = True
    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':15s} {'median':>11s} {'q1':>11s} {'q3':>11s} "
              f"{'spread':>7s} {'bound':>6s}" + ("  2nd-worse" if args.sets == 2 else ""))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sets = [[r["metrics"][name]["value"] for r in runs] for runs in results[w]]
            med, q1, q3, spr = spread(sets[0])
            flag = "" if name == "setup_s" or spr <= bound / 3 else (
                " >bound/3" if spr <= bound else " >BOUND")
            if flag == " >BOUND":
                ok = False
            line = (f"  {name:15s} {med:11.5g} {q1:11.5g} {q3:11.5g} "
                    f"{spr:7.3f} {bound:6.3f}{flag}")
            if args.sets == 2:
                med2, _, _, spr2 = spread(sets[1])
                worse = worse_by(med, med2, m["better"])
                line += f"  {worse:+.3f} (spread {spr2:.3f})"
                if worse > bound:
                    ok = False
                    line += " WORSE"
            print(line)
        shares = {
            k: {r["failed"] / r["attempted"] for r in runs}
            for k, runs in enumerate(results[w])
        }
        all_shares = set().union(*shares.values())
        print(f"  failed share(s): {sorted(all_shares)}")
        if len(all_shares) != 1 or not all(r["correct"] for runs in results[w] for r in runs):
            ok = False
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
