"""Steadiness check: two independent sets of the full benchmark.

    python3 bench/steady.py                       # 2 sets x seeds 1..10 x all workloads
    python3 bench/steady.py --seeds 5 --workloads pendulum

Each set runs run.py once per workload and seed, untraced, at the
run_seconds of BENCHMARK.json.  For every end-to-end metric and workload it
prints each set's median and spread (interquartile distance over the
median, from statistics.quantiles(n=4)), the change of the second median
against the first, and the bound.  A row passes when both spreads and the
size of the change, in either direction, stay within the bound; the aim is
spreads under a third of it.  Exit code 1 if any row fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect\n{proc.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args(argv)
    seeds = range(1, args.seeds + 1)

    sets = []
    for s in range(2):
        values: dict = {}
        for workload in args.workloads:
            for seed in seeds:
                for name, v in one_run(workload, seed, spec["run_seconds"]).items():
                    values.setdefault(workload, {}).setdefault(name, []).append(v)
                print(f"set {s + 1} {workload} seed {seed} done", file=sys.stderr, flush=True)
        sets.append(values)
    with open(os.path.join(HERE, "work", "steady.json"), "w", encoding="utf-8") as fh:
        json.dump(sets, fh, indent=1)

    ok = True
    print(f"{'workload':20s} {'metric':12s} {'unit':5s} {'median1':>11s} {'spread1':>8s} "
          f"{'median2':>11s} {'spread2':>8s} {'change':>8s} {'bound':>6s}")
    for workload in args.workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            runs = [values[workload][name] for values in sets]
            meds = [statistics.median(r) for r in runs]
            spreads = [spread(r) for r in runs]
            change = (meds[1] - meds[0]) / meds[0]
            good = abs(change) <= bound and max(spreads) <= bound
            ok = ok and good
            print(f"{workload:20s} {name:12s} {metric['unit']:5s} {meds[0]:11.5g} {spreads[0]:8.4f} "
                  f"{meds[1]:11.5g} {spreads[1]:8.4f} {change:+8.4f} {bound:6.3f}"
                  f"  {'ok' if good else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
