"""Tests of the benchmark harness itself: spans, self time, checks, smoke.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import types
from array import array

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import child  # noqa: E402
import run  # noqa: E402
import spans as spanlib  # noqa: E402
import workloads as wl  # noqa: E402


def make_spans(rows):
    """rows: (name, parent index, start, end) in call order."""
    names = sorted({r[0] for r in rows})
    return spanlib.Spans(
        names,
        array("i", [names.index(r[0]) for r in rows]),
        array("i", [r[1] for r in rows]),
        array("q", [r[2] for r in rows]),
        array("q", [r[3] for r in rows]),
    )


def test_self_time_subtracts_direct_children_only():
    sp = make_spans([
        ("cli.run", -1, 0, 100),
        ("pendulum.run_pendulum", 0, 10, 70),
        ("pendulum.newton_step_solve", 1, 20, 30),
        ("pendulum.newton_step_solve", 1, 40, 55),
        ("exact.pendulum_exact", 0, 80, 90),
    ])
    assert sp.durations() == [100, 60, 10, 15, 10]
    assert sp.self_times() == [100 - 60 - 10, 60 - 10 - 15, 10, 15, 10]
    grouped = sp.by_name(sp.self_times())
    assert grouped["pendulum.newton_step_solve"] == [10, 15]


def test_layer_self_time_sums_spans_and_splits_by_samples():
    sp = make_spans([
        ("harmonic.run_harmonic", -1, 0, 100),
        ("exact.harmonic_exact", 0, 0, 20),
    ])
    # 3 of 4 samples inside run_harmonic's self time hit compensated code
    samples = {"harmonic>compensated": 3, "harmonic>harmonic": 1}
    layers = spanlib.layer_self_ns(sp, samples)
    assert layers["compensated"] == pytest.approx(60.0)
    assert layers["harmonic"] == pytest.approx(20.0)
    # no samples for exact: all its self time stays with it
    assert layers["exact"] == pytest.approx(20.0)
    assert sum(layers.values()) == pytest.approx(100.0)


def test_percentile_is_nearest_rank():
    vals = list(range(1, 101))
    assert spanlib.percentile(vals, 50) == 50
    assert spanlib.percentile(vals, 99) == 99
    assert spanlib.percentile([7], 99) == 7
    assert spanlib.percentile([], 50) == 0.0


def test_tracer_records_parents_and_install_rebinds_every_copy():
    inner_mod = types.ModuleType("lobvi.inner")
    outer_mod = types.ModuleType("lobvi.outer")

    def leaf(x):
        return x + 1

    def caller(x):
        return inner_mod.leaf(x) * 2

    inner_mod.leaf = leaf
    outer_mod.leaf = leaf  # a `from .inner import leaf` copy
    outer_mod.caller = caller
    modules = {"inner": inner_mod, "outer": outer_mod}
    tracer = child.Tracer()
    child.install(modules, "inner", "leaf", tracer.wrap("inner.leaf"))
    child.install(modules, "outer", "caller", tracer.wrap("outer.caller"))
    assert outer_mod.leaf is inner_mod.leaf is not leaf
    assert outer_mod.caller(1) == 4
    assert outer_mod.leaf(1) == 2
    assert list(tracer.parents) == [-1, 0, -1]
    assert [tracer.names[i] for i in tracer.name_ids] == [
        "outer.caller", "inner.leaf", "inner.leaf"]
    assert all(e >= s for s, e in zip(tracer.starts, tracer.ends))
    assert tracer.stack == [-1]


def drift_csv(errs, observable="H"):
    lines = [f"# observable: {observable}", "# rate: 0 per period", "period,err"]
    lines += [f"{i + 1},{e!r}" for i, e in enumerate(errs)]
    return ("\n".join(lines) + "\n").encode()


def test_drift_check():
    inv = wl.Invocation("drift", ("drift", "--system", "pendulum", "--periods", "3"), 141)
    assert wl.check_output(drift_csv([1e-9, 2e-9, 2e-9]), inv) == 2e-9
    with pytest.raises(wl.CheckError, match="decreases"):
        wl.check_output(drift_csv([2e-9, 1e-9, 2e-9]), inv)
    with pytest.raises(wl.CheckError, match="rows"):
        wl.check_output(drift_csv([1e-9, 2e-9]), inv)
    hinv = wl.Invocation("drift", ("drift", "--system", "harmonic", "--periods", "2"), 20)
    assert wl.check_output(drift_csv([0.0, 0.0], "H_d"), hinv) == 0.0
    with pytest.raises(wl.CheckError, match="flat"):
        wl.check_output(drift_csv([0.0, 5e-17], "H_d"), hinv)


def convergence_csv(order="6", hd="0.0000000000000000e+00"):
    return (
        "meshes,err_p,err_q,err_H,err_Hd,order_p,order_q,order_H\n"
        f"10,1e-5,1e-6,1e-4,{hd},,,\n"
        f"20,1e-7,1e-8,1e-6,{hd},6,{order},6\n"
        f"40,1e-9,1e-10,1e-8,{hd},6,6,6\n"
    ).encode()


def test_convergence_check():
    inv = wl.Invocation("convergence", ("convergence", "--system", "harmonic"), 70)
    assert wl.check_output(convergence_csv(), inv) == 1e-10
    with pytest.raises(wl.CheckError, match="orders"):
        wl.check_output(convergence_csv(order="5"), inv)
    with pytest.raises(wl.CheckError, match="H_d"):
        wl.check_output(convergence_csv(hd="1e-17"), inv)


def test_stability_check():
    inv = wl.Invocation("stability", ("stability",), 74000)
    rows = "".join(f"{(280 + i) / 100:.2f},1\n" for i in range(37))
    good = f"# transition: 3.11,3.12\nh_omega,bounded\n{rows}".encode()
    assert wl.check_output(good, inv) == pytest.approx(0.01)
    bad = f"# transition: 3.10,3.11\nh_omega,bounded\n{rows}".encode()
    with pytest.raises(wl.CheckError, match="misses"):
        wl.check_output(bad, inv)


def test_trajectory_check():
    inv = wl.Invocation("trajectory", ("trajectory",), 1)
    text = "t,q,p,q_exact,p_exact,H\n0,1.0,0,1.0,0,1\n0.1,0.5,0,0.75,0,1\n"
    assert wl.check_output(text.encode(), inv) == 0.25
    with pytest.raises(wl.CheckError, match="non-finite"):
        wl.check_output(text.replace("0.5", "nan").encode(), inv)
    with pytest.raises(wl.CheckError, match="malformed"):
        wl.check_output(text.replace(",1\n0.1", "\n0.1").encode(), inv)


class FakeChild:
    def __init__(self, output, rc=0, mode="plain"):
        self.inv = wl.Invocation("stability", ("stability",), 1)
        self.output = output
        self.rc = rc
        self.mode = mode
        self.error = ""


def test_verifier_flags_byte_differences_and_failed_exits(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "DIGESTS", str(tmp_path / "digests.json"))
    monkeypatch.setattr(wl, "check_output", lambda data, inv: 1.0)
    v = run.Verifier("k", 1)
    assert v.accept(0, FakeChild(b"a\n"))
    assert v.accept(0, FakeChild(b"a\n"))
    assert not v.accept(0, FakeChild(b"b\n"))
    assert not v.accept(0, FakeChild(b"", rc=3))
    assert (v.attempted, v.failed) == (4, 2)
    # a clean run is remembered; a later run of the same key must match it
    clean = run.Verifier("k", 1)
    clean.accept(0, FakeChild(b"a\n"))
    clean.remember()
    later = run.Verifier("k", 1)
    assert not later.accept(0, FakeChild(b"c\n"))


def test_spawn_does_not_reuse_an_earlier_childs_output(monkeypatch, tmp_path):
    # a child that exits 0 without writing its CSV must read as empty output
    silent = tmp_path / "silent.py"
    silent.write_text("import sys\nsys.exit(0)\n")
    monkeypatch.setattr(run, "CHILD", str(silent))
    monkeypatch.setattr(run, "WORK", str(tmp_path))
    monkeypatch.setattr(run, "DIGESTS", str(tmp_path / "digests.json"))
    (tmp_path / "out_0.csv").write_bytes(b"# transition: 3.11,3.12\n")
    inv = wl.Invocation("stability", ("stability",), 1)
    child_run = run.spawn(inv, "plain", 0)
    assert child_run.rc == 0
    assert child_run.output == b""
    assert not (tmp_path / "out_0.csv").exists()
    v = run.Verifier("k", 1)
    assert not v.accept(0, child_run)
    assert "empty output" in v.problems[0]


def test_every_invocations_accuracy_figure_is_gated():
    invs = wl.invocations("pendulum", 1.5)
    assert run.accuracy_problems(invs, [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]) == []
    # lower is always fine; the second invocation's figure alone can fail
    problems = run.accuracy_problems(invs, [0.5, 1.3, 1.0], [1.0, 1.0, 1.0])
    assert len(problems) == 1 and problems[0].startswith("convergence")


def test_amplitude_is_a_function_of_the_seed():
    assert wl.amplitude_for(7) == wl.amplitude_for(7)
    assert {wl.amplitude_for(s) for s in range(50)} <= set(wl.AMPLITUDES)
    assert len({wl.amplitude_for(s) for s in range(50)}) > 10


def test_smoke_run_of_every_workload():
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert json.loads(proc.stdout.splitlines()[-1]) == {"all_correct": True}


def test_metric_names_and_units_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
