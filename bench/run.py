"""The lobvi benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload pendulum --seed 3 --seconds 60 --trace 0
    python3 bench/run.py --seed 3       # every workload in turn, one report each
    python3 bench/run.py --smoke        # every workload, tiny sizes, both modes

Each CLI invocation runs in a fresh child process (bench/child.py), one at
a time: a closed loop with a single client, sized for a 2-core machine.
With --trace 0 the run repeats the workload's invocations until --seconds
is used up and reports the end-to-end metrics as medians.  With --trace 1
it alternates untraced and traced repetitions, then makes one counting
pass, and reports the per-layer metrics.  Every output is checked; the last
line of stdout is the JSON result.  NOTES.md explains the choices.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import spans as spanlib
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(HERE, "work")
REFERENCE = os.path.join(HERE, "reference.json")
DIGESTS = os.path.join(WORK, "digests.json")

SETUP_PROBES = 12
# numpy's OpenBLAS starts worker threads at import.  The children are meant
# to run on one core: on a 2-vCPU host an idle worker could spin beside the
# main thread, and starting it cost ~65 ms per child.
CHILD_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
# an invocation's accuracy figure may be this much above the recorded
# reference before a run is marked incorrect; a lower error always passes
ERR_TOLERANCE = 1.25

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "steps_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_SHARES = ("cli", "analysis", "exact", "pendulum", "midpoint", "harmonic",
                "compensated", "mechanics")


class Child:
    """What one finished child process reported."""

    def __init__(self, inv, mode, wall, rusage, rc, report, t0):
        self.inv = inv
        self.mode = mode
        self.wall = wall
        self.cpu = rusage.ru_utime + rusage.ru_stime
        self.rss_mb = rusage.ru_maxrss / 1024.0
        self.rc = rc
        self.report = report
        self.setup = report["setup_end"] - t0 if "setup_end" in report else None
        self.run_s = report.get("run_s")
        self.output = b""
        self.rows = self.nbytes = 0
        self.spans = None
        self.error = ""


def spawn(inv, mode: str, index: int) -> Child:
    """Run one invocation to completion; wall time spans spawn to reap."""
    out = os.path.join(WORK, f"out_{index}.csv")
    report_path = os.path.join(WORK, f"report_{index}.json")
    # a child that writes nothing must not be credited with an earlier output
    for path in (out, report_path, report_path + ".spans"):
        if os.path.exists(path):
            os.remove(path)
    argv = [sys.executable, CHILD, mode, report_path, "--", *inv.args, "--out", out]
    log = os.path.join(WORK, f"child_{index}.log")
    with open(log, "wb") as err:
        actions = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
                   (os.POSIX_SPAWN_DUP2, err.fileno(), 2)]
        t0 = time.monotonic()
        pid = os.posix_spawn(sys.executable, argv, CHILD_ENV, file_actions=actions)
        _, status, rusage = os.wait4(pid, 0)
        wall = time.monotonic() - t0
    rc = os.waitstatus_to_exitcode(status)
    report = {}
    if os.path.exists(report_path):
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
    child = Child(inv, mode, wall, rusage, rc, report, t0)
    if rc == 0 and mode != "probe" and os.path.exists(out):
        with open(out, "rb") as fh:
            child.output = fh.read()
        child.rows, child.nbytes = child.output.count(b"\n"), len(child.output)
    if mode == "trace" and rc == 0:
        child.spans = spanlib.Spans.load(report_path + ".spans", report["names"],
                                         report["n_spans"])
    if rc != 0:
        with open(log, encoding="utf-8", errors="replace") as fh:
            child.error = fh.read().strip()[-400:]
    return child


class Verifier:
    """Output checks shared by every child of one run.

    The first successful output of each invocation is validated and its
    accuracy figure kept; every later output must be byte-identical to it,
    and to what earlier runs of the same sources and seed in this checkout
    produced.
    """

    def __init__(self, key: str, n_invocations: int):
        self.key = key
        self.digests = [None] * n_invocations
        self.figures = [None] * n_invocations
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.known = load_digests().get(key)

    def accept(self, i: int, child: Child) -> bool:
        self.attempted += 1
        problem = None
        if child.rc != 0:
            problem = f"exit code {child.rc}: {child.error}"
        elif child.mode != "probe":
            digest = hashlib.sha256(child.output).hexdigest()
            if self.digests[i] is None:
                try:
                    self.figures[i] = wl.check_output(child.output, child.inv)
                except wl.CheckError as exc:
                    problem = f"check failed: {exc}"
                self.digests[i] = digest
            if digest != self.digests[i]:
                problem = "output bytes differ between runs in this process"
            elif self.known is not None and digest != self.known[i]:
                problem = "output bytes differ from an earlier run of these sources"
        if problem is not None:
            self.failed += 1
            self.problems.append(f"{' '.join(child.inv.args)} [{child.mode}]: {problem}")
            return False
        return True

    def remember(self) -> None:
        if self.known is None and None not in self.digests and not self.failed:
            store = load_digests()
            store[self.key] = self.digests
            tmp = DIGESTS + ".tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(store, fh, indent=1)
            os.replace(tmp, DIGESTS)


def load_digests() -> dict:
    try:
        with open(DIGESTS, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def source_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git_state() -> tuple:
    """(commit, dirty) from read-only git queries; (None, None) when the
    tree is not a git checkout or git is missing."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None, None
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        status = subprocess.run(["git", "-C", ROOT, "--no-optional-locks", "status",
                                 "--porcelain", "--untracked-files=no"],
                                capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None, None
    if head.returncode != 0 or status.returncode != 0:
        return None, None
    return head.stdout.strip(), bool(status.stdout.strip())


def provenance(seed: int, amplitude: float) -> dict:
    from importlib import metadata

    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit, dirty = git_state()
    return {
        "commit": commit,
        "dirty": dirty,
        "src_sha256": source_digest(),
        "seed": seed,
        "amplitude": amplitude,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "loadavg_1m": os.getloadavg()[0],
    }


def load_reference() -> dict:
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def accuracy_problems(invs: list, figures: list, ceilings: list) -> list:
    """One problem per invocation whose accuracy figure exceeds its reference."""
    return [f"{' '.join(inv.args)}: accuracy figure {figure:.6e} exceeds "
            f"{ERR_TOLERANCE} x reference {ceiling:.6e}"
            for inv, figure, ceiling in zip(invs, figures, ceilings)
            if figure > ceiling * ERR_TOLERANCE]


def run_unit(invs, mode: str, verifier: Verifier) -> list:
    children = []
    for i, inv in enumerate(invs):
        child = spawn(inv, mode, i)
        verifier.accept(i, child)
        child.output = b""  # checked; keep memory flat across repetitions
        children.append(child)
    return children


def unit_ok(children) -> bool:
    return all(c.rc == 0 for c in children)


def end_to_end(units: list, probes: list) -> dict:
    """Per-repetition samples of every end-to-end metric (set-up: per child)."""
    good = [u for u in units if unit_ok(u)]
    setups = [c.setup for c in probes if c.setup is not None]
    setups += [c.setup for u in good for c in u]
    if not good or not setups:
        return {}
    return {
        "wall_s": [sum(c.wall for c in u) for u in good],
        "setup_s": setups,
        "steps_per_s": [sum(c.inv.steps for c in u) / sum(c.run_s for c in u) for u in good],
        "cpu_s": [sum(c.cpu for c in u) for u in good],
        "peak_rss_mb": [max(c.rss_mb for c in u) for u in good],
    }


def traced_layers(traced: list, plain: list) -> dict:
    """Per-layer timings from one traced repetition of the workload."""
    durs: dict = {}
    selfs: dict = {}
    layer_ns: dict = {}
    for child in traced:
        sp = child.spans
        for name, vals in sp.by_name(sp.durations()).items():
            durs.setdefault(name, []).extend(vals)
        for name, vals in sp.by_name(sp.self_times()).items():
            selfs.setdefault(name, []).extend(vals)
        for layer, ns in spanlib.layer_self_ns(sp, child.report["samples"]).items():
            layer_ns[layer] = layer_ns.get(layer, 0.0) + ns
    wall = sum(c.wall for c in traced)

    def us(name, q):
        return spanlib.percentile(durs.get(name, []), q) / 1e3

    def mean_us(name):
        vals = durs.get(name, [])
        return sum(vals) / len(vals) / 1e3 if vals else 0.0

    def total_s(name, table=durs):
        return sum(table.get(name, [])) / 1e9

    m = {
        "pendulum.newton_step_solve.us_p50": us("pendulum.newton_step_solve", 50),
        "pendulum.newton_step_solve.us_p99": us("pendulum.newton_step_solve", 99),
        "pendulum.run_pendulum.self_s": total_s("pendulum.run_pendulum", selfs),
        "mechanics.energy.us_per_node": mean_us("mechanics.energy"),
        "harmonic.step_harmonic.us_per_step": mean_us("harmonic.step_harmonic"),
        "midpoint.step_midpoint.us_p50": us("midpoint.step_midpoint", 50),
        "midpoint.run_midpoint.self_s": total_s("midpoint.run_midpoint", selfs),
        "exact.pendulum_exact.us_per_node": mean_us("exact.pendulum_exact"),
        "exact.harmonic_exact.us_per_node": mean_us("exact.harmonic_exact"),
        "analysis.energy_drift_series.s": total_s("analysis.energy_drift_series"),
        "analysis.linf_error.s": total_s("analysis.linf_error"),
        "analysis.convergence_table.s": total_s("analysis.convergence_table"),
        "analysis.stability_scan.s": total_s("analysis.stability_scan"),
        "cli.parse_config.s": total_s("cli.parse_config"),
        "cli.self_s": total_s("cli.run", selfs),
        "trace.overhead_ratio": wall / sum(c.wall for c in plain),
        # divided by counted steps and nodes in per_layer()
        "_run_harmonic_s": total_s("harmonic.run_harmonic"),
        "_record_s": total_s("analysis.TrajectoryRecord"),
    }
    for layer in LAYER_SHARES:
        m[f"{layer}.share"] = layer_ns.get(layer, 0.0) / 1e9 / wall
    return m


def counted_layers(children: list) -> dict:
    """Exact counts from the counting repetition of the workload."""
    counts: dict = {}
    solver = {"steps": 0, "iterations": 0, "iters_max": 0}
    for child in children:
        for key, n in child.report.get("counts", {}).items():
            counts[key] = counts.get(key, 0) + n
        s = child.report.get("solver", {})
        solver["steps"] += s.get("steps", 0)
        solver["iterations"] += s.get("iterations", 0)
        solver["iters_max"] = max(solver["iters_max"], s.get("iters_max", 0))
    steps = (counts.get("steps.harmonic", 0) + counts.get("steps.pendulum", 0)
             + counts.get("steps.midpoint", 0) + counts.get("harmonic.step_harmonic", 0))
    dd_calls = sum(n for key, n in counts.items() if key.startswith("compensated."))

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "nodes": counts.get("mechanics.energy", 0),
        "harmonic_steps": counts.get("steps.harmonic", 0),
        "pendulum.iters_per_step": ratio(solver["iterations"], solver["steps"]),
        "pendulum.iters_max": solver["iters_max"],
        "mechanics.dV.calls_per_step": ratio(counts.get("mechanics.dV", 0), steps),
        "mechanics.d2V.calls_per_step": ratio(counts.get("mechanics.d2V", 0), steps),
        "compensated.calls_per_step": ratio(dd_calls, counts.get("steps.harmonic", 0)),
        "exact.complete_elliptic_K.calls_per_node": ratio(
            counts.get("exact.complete_elliptic_K", 0), counts.get("exact.pendulum_exact", 0)),
    }


PER_LAYER_UNITS = {
    "pendulum.newton_step_solve.us_p50": "us",
    "pendulum.newton_step_solve.us_p99": "us",
    "pendulum.run_pendulum.self_s": "s",
    "pendulum.iters_per_step": "count",
    "pendulum.iters_max": "count",
    "mechanics.dV.calls_per_step": "count",
    "mechanics.d2V.calls_per_step": "count",
    "mechanics.energy.us_per_node": "us",
    "harmonic.run_harmonic.us_per_step": "us",
    "harmonic.step_harmonic.us_per_step": "us",
    "compensated.calls_per_step": "count",
    "midpoint.step_midpoint.us_p50": "us",
    "midpoint.run_midpoint.self_s": "s",
    "exact.pendulum_exact.us_per_node": "us",
    "exact.harmonic_exact.us_per_node": "us",
    "exact.complete_elliptic_K.calls_per_node": "count",
    "analysis.TrajectoryRecord.us_per_node": "us",
    "analysis.energy_drift_series.s": "s",
    "analysis.linf_error.s": "s",
    "analysis.convergence_table.s": "s",
    "analysis.stability_scan.s": "s",
    "cli.parse_config.s": "s",
    "cli.self_s": "s",
    "cli.rows_out": "count",
    "cli.bytes_out": "bytes",
    **{f"{layer}.share": "ratio" for layer in LAYER_SHARES},
    "trace.overhead_ratio": "ratio",
    "err_max": "abs",
}


def per_layer(timed: list, count_unit: list) -> dict:
    """Medians over the traced repetitions, normalised by the exact counts."""
    counted = counted_layers(count_unit)
    m = {key: statistics.median(t[key] for t in timed) for key in timed[0]}
    nodes = counted.pop("nodes")
    harmonic_steps = counted.pop("harmonic_steps")
    m["harmonic.run_harmonic.us_per_step"] = (
        m.pop("_run_harmonic_s") * 1e6 / harmonic_steps if harmonic_steps else 0.0)
    m["analysis.TrajectoryRecord.us_per_node"] = (
        m.pop("_record_s") * 1e6 / nodes if nodes else 0.0)
    m.update(counted)
    m["cli.rows_out"] = sum(c.rows for c in count_unit)
    m["cli.bytes_out"] = sum(c.nbytes for c in count_unit)
    return m


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> dict:
    os.makedirs(WORK, exist_ok=True)
    amplitude = wl.amplitude_for(seed)
    invs = wl.invocations(workload, amplitude, smoke)
    prov = provenance(seed, amplitude)
    # the digests belong to these sources and these exact invocations
    key = "|".join([prov["src_sha256"], *(" ".join(inv.args) for inv in invs)])
    verifier = Verifier(key, len(invs))
    t_begin = time.monotonic()

    def time_left(n_done: int, reserve: float = 0.0) -> bool:
        elapsed = time.monotonic() - t_begin
        return elapsed + elapsed / n_done + reserve <= seconds

    values: dict = {}
    series: dict = {}
    if not trace:
        names = END_TO_END_UNITS
        probes = []
        for _ in range(SETUP_PROBES):
            probe = spawn(invs[0], "probe", 0)
            verifier.accept(0, probe)
            probes.append(probe)
        units = [run_unit(invs, "plain", verifier)]
        while time_left(len(units)):
            units.append(run_unit(invs, "plain", verifier))
        series = end_to_end(units, probes)
        values = {name: statistics.median(vals) for name, vals in series.items()}
        samples = f"{len(units)} repetitions, {len(series.get('setup_s', []))} set-ups"
    else:
        names = PER_LAYER_UNITS
        timed = []
        while True:
            plain = run_unit(invs, "plain", verifier)
            traced = run_unit(invs, "trace", verifier)
            if not (unit_ok(plain) and unit_ok(traced)):
                break
            timed.append(traced_layers(traced, plain))
            # the counting pass still has to run; it costs about a traced one
            if not time_left(len(timed), reserve=sum(c.wall for c in traced)):
                break
        count_unit = run_unit(invs, "count", verifier)
        samples = f"{len(timed)} traced repetitions, 1 counting pass"
        if timed and unit_ok(count_unit):
            values = per_layer(timed, count_unit)

    accurate = False
    if None not in verifier.figures:
        ref = load_reference().get(f"{workload}|{'smoke' if smoke else 'full'}", {})
        ceilings = ref.get(f"{amplitude:.2f}", [math.inf] * len(invs))
        problems = accuracy_problems(invs, verifier.figures, ceilings)
        verifier.problems += problems
        accurate = not problems
        if values and trace:
            values["err_max"] = verifier.figures[0]
    verifier.remember()
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in names.items() if name in values}
    correct = verifier.failed == 0 and accurate and len(metrics) == len(names)
    return {
        "workload": workload,
        "trace": int(trace),
        "samples": samples,
        "series": series,
        "figures": verifier.figures,
        "problems": verifier.problems,
        "provenance": prov,
        "result": {"correct": correct, "attempted": verifier.attempted,
                   "failed": verifier.failed, "metrics": metrics},
    }


def report(outcome: dict) -> None:
    """Human-readable lines; the JSON result is printed separately."""
    res = outcome["result"]
    print(f"workload {outcome['workload']} trace {outcome['trace']} "
          f"({outcome['samples']})")
    print("provenance " + json.dumps(outcome["provenance"], sort_keys=True))
    for name, entry in res["metrics"].items():
        print(f"  {name:45s} {entry['value']:.6g} {entry['unit']}")
    ratio = res["failed"] / res["attempted"] if res["attempted"] else 0.0
    print(f"  {'fail_ratio':45s} {ratio:.6g} ({res['failed']}/{res['attempted']})")
    print(f"  {'accuracy figures':45s} {outcome['figures']!r}")
    for problem in outcome["problems"]:
        print(f"  problem: {problem}")


def save(outcome: dict, seed: int) -> None:
    path = os.path.join(
        WORK, f"BENCH_{outcome['workload']}_seed{seed}_trace{outcome['trace']}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(outcome, fh, indent=1, sort_keys=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, untraced and traced, as a quick self-test")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "lobvi", "cli.py")):
        print(f"no lobvi sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    outcomes = []
    for workload in [args.workload] if args.workload else wl.WORKLOADS:
        for trace in (False, True) if args.smoke else (bool(args.trace),):
            outcome = run_workload(workload, args.seed, 0.0 if args.smoke else args.seconds,
                                   trace, smoke=args.smoke)
            report(outcome)
            if not args.smoke:
                save(outcome, args.seed)
            outcomes.append(outcome)
    ok = all(o["result"]["correct"] for o in outcomes)
    # one run prints its own result; several print one verdict
    last = outcomes[0]["result"] if len(outcomes) == 1 else {"all_correct": ok}
    print(json.dumps(last))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
