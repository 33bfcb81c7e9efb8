"""Record every invocation's accuracy figure at every amplitude the seed can pick.

    python3 bench/make_reference.py     # writes bench/reference.json

run.py marks a run incorrect when a figure exceeds its recorded value by
more than ERR_TOLERANCE, so a speed-up bought with a looser solver shows.
Regenerate only in a change that means to move the accuracy, and say so.
"""

from __future__ import annotations

import json
import os
import sys

import run
import workloads as wl


def main() -> int:
    os.makedirs(run.WORK, exist_ok=True)
    table = {}
    for workload in wl.WORKLOADS:
        for size in ("smoke", "full"):
            row = {}
            for amplitude in wl.AMPLITUDES:
                invs = wl.invocations(workload, amplitude, smoke=size == "smoke")
                figures = []
                for i, inv in enumerate(invs):
                    child = run.spawn(inv, "plain", i)
                    if child.rc != 0:
                        print(f"{inv.args}: exit {child.rc}", file=sys.stderr)
                        return 1
                    figures.append(wl.check_output(child.output, inv))
                row[f"{amplitude:.2f}"] = figures
            table[f"{workload}|{size}"] = row
            print(workload, size, min(row.values()), max(row.values()), flush=True)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
