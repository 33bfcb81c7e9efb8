"""Child-process shim: runs one `lobvi` CLI invocation the way `lobvi` does.

    python3 bench/child.py MODE REPORT -- <lobvi arguments>

The shim imports `lobvi.cli` from the checkout's `src/` and calls
`lobvi.cli.main(argv)`, so exit codes, error handling and output bytes are
the CLI's own.  Instrumentation replaces functions at their module
attributes; the package looks those names up at call time, so no line of
`src/` changes.

MODE selects what is wrapped:

- ``plain``: only `cli.run`, to record when set-up ended and how long the
  run took.  This is the untraced, end-to-end mode.
- ``probe``: like ``plain``, but `cli.run` returns 0 at once, so the child
  measures interpreter start, `import lobvi.cli` and `parse_config` only.
- ``trace``: one span per call of the functions in TRACED, kept in memory
  with parent ids and written out at exit, plus a CPU-time sampler that
  splits a span's self time among the modules whose frames were on top.
- ``count``: call counters on every public function of every layer, the
  double-double toolkit included, and counting potential models.

REPORT receives a small JSON document; ``trace`` also writes REPORT.spans.
"""

from __future__ import annotations

import os
import signal
import sys
import time
from array import array

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

LAYERS = ("cli", "analysis", "exact", "pendulum", "midpoint", "harmonic",
          "compensated", "mechanics")

# Functions spanned in the traced run.  The double-double toolkit and the
# potential lambdas are left out: they run tens of times per step and a
# wrapper would cost more than they do.  The sampler attributes their time.
TRACED = {
    "cli": ("main", "parse_config", "run"),
    "analysis": ("TrajectoryRecord", "linf_error", "convergence_table",
                 "energy_drift_series", "stability_scan"),
    "exact": ("harmonic_exact", "pendulum_exact", "complete_elliptic_K"),
    "pendulum": ("run_pendulum", "newton_step_solve"),
    "midpoint": ("run_midpoint", "step_midpoint"),
    "harmonic": ("run_harmonic", "step_harmonic", "transfer_matrix"),
    "mechanics": ("energy", "harmonic_potential", "pendulum_potential"),
}

SAMPLE_INTERVAL_S = 0.001


def install(modules: dict, layer: str, name: str, make_wrapper) -> None:
    """Replace lobvi.<layer>.<name> by a wrapper in every module bound to it.

    `from .x import y` copies the binding, so the CLI's own reference to a
    function is replaced along with the defining module's.
    """
    original = getattr(modules[layer], name)
    wrapper = make_wrapper(original)
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def public_functions(mod) -> list:
    return [name for name, value in vars(mod).items()
            if callable(value) and not name.startswith("_")
            and getattr(value, "__module__", None) == mod.__name__
            and not isinstance(value, type)]


class Tracer:
    """Spans in parallel arrays: name id, parent index, start and end (ns)."""

    def __init__(self):
        self.names: list = []
        self.name_ids: list = []
        self.parents = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.stack = [-1]
        self.samples: dict = {}

    def wrap(self, qualname: str):
        nid = len(self.names)
        self.names.append(qualname)
        ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack = self.stack
        clock = time.perf_counter_ns

        def make(fn):
            def spanned(*args, **kwargs):
                idx = len(ids)
                ids.append(nid)
                parents.append(stack[-1])
                ends.append(0)
                stack.append(idx)
                starts.append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[idx] = clock()
                    stack.pop()
            return spanned

        return make

    def on_sample(self, signum, frame) -> None:
        # owner: layer of the innermost open span; inner: layer of the
        # innermost lobvi frame (numpy and shim frames are skipped)
        top = self.stack[-1]
        if top < 0:
            return
        owner = self.names[self.name_ids[top]].split(".", 1)[0]
        inner = owner
        while frame is not None:
            mod = frame.f_globals.get("__name__", "")
            if mod.startswith("lobvi."):
                inner = mod[6:]
                break
            frame = frame.f_back
        key = owner + ">" + inner
        self.samples[key] = self.samples.get(key, 0) + 1

    def start_sampler(self) -> None:
        signal.signal(signal.SIGPROF, self.on_sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop_sampler(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def write(self, path: str) -> None:
        ids = array("i", self.name_ids)
        with open(path, "wb") as fh:
            for arr in (ids, self.parents, self.starts, self.ends):
                arr.tofile(fh)


def counting_potential(counts: dict, model_cls, model):
    def counted(key, fn):
        def wrapper(q):
            counts[key] += 1
            return fn(q)
        return wrapper

    for key in ("mechanics.V", "mechanics.dV", "mechanics.d2V"):
        counts.setdefault(key, 0)
    return model_cls(tag=model.tag, V=counted("mechanics.V", model.V),
                     dV=counted("mechanics.dV", model.dV),
                     d2V=counted("mechanics.d2V", model.d2V))


def instrument_counts(modules: dict, report: dict) -> None:
    counts = report.setdefault("counts", {})
    solver = report.setdefault("solver", {"steps": 0, "iterations": 0, "iters_max": 0})

    def counter(key):
        counts[key] = 0

        def make(fn):
            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return counted
        return make

    for layer in LAYERS:
        for name in public_functions(modules[layer]):
            install(modules, layer, name, counter(f"{layer}.{name}"))

    def steps_of(fn, key):
        def recorded(*args, **kwargs):
            result = fn(*args, **kwargs)
            points = result[0] if isinstance(result, tuple) else result
            counts[key] = counts.get(key, 0) + len(points) - 1
            if key == "steps.pendulum":
                its = result[1]
                solver["steps"] += len(its)
                solver["iterations"] += sum(its)
                solver["iters_max"] = max([solver["iters_max"], *its])
            return result
        return recorded

    install(modules, "harmonic", "run_harmonic", lambda fn: steps_of(fn, "steps.harmonic"))
    install(modules, "pendulum", "run_pendulum", lambda fn: steps_of(fn, "steps.pendulum"))
    install(modules, "midpoint", "run_midpoint", lambda fn: steps_of(fn, "steps.midpoint"))

    model_cls = modules["mechanics"].PotentialModel
    for factory in ("harmonic_potential", "pendulum_potential"):
        install(modules, "mechanics", factory,
                lambda fn: lambda *a, **k: counting_potential(counts, model_cls, fn(*a, **k)))


def main(argv: list) -> int:
    mode, report_path = argv[0], argv[1]
    if argv[2] != "--":
        raise SystemExit("usage: child.py MODE REPORT -- <lobvi arguments>")
    cli_args = argv[3:]

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import importlib

    cli = importlib.import_module("lobvi.cli")
    modules = {layer: importlib.import_module(f"lobvi.{layer}") for layer in LAYERS}
    report: dict = {"mode": mode}

    def timed_run(config):
        report["setup_end"] = time.monotonic()
        if mode == "probe":
            return 0
        t0 = time.perf_counter()
        try:
            return real_run(config)
        finally:
            report["run_s"] = time.perf_counter() - t0

    tracer = None
    if mode == "trace":
        tracer = Tracer()
        for layer, names in TRACED.items():
            for name in names:
                install(modules, layer, name, tracer.wrap(f"{layer}.{name}"))
    elif mode == "count":
        instrument_counts(modules, report)
    elif mode not in ("plain", "probe"):
        raise SystemExit(f"unknown mode {mode!r}")
    # the timing hook wraps the (possibly spanned) run, so it sees it whole
    real_run = cli.run
    cli.run = timed_run

    if tracer is not None:
        tracer.start_sampler()
    try:
        rc = cli.main(cli_args)
    finally:
        if tracer is not None:
            tracer.stop_sampler()
    report["rc"] = rc

    import json

    if tracer is not None:
        tracer.write(report_path + ".spans")
        report["names"] = tracer.names
        report["n_spans"] = len(tracer.name_ids)
        report["samples"] = tracer.samples
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
