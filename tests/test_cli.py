import contextlib
import io
import itertools
import math
import os
import re
import subprocess
import shutil
import sys

import pytest

import lobvi
import lobvi.cli
from lobvi.analysis import (
    STABILITY_GRID,
    TrajectoryRecord,
    estimate_order,
    linf_error,
    orbit_scale,
)
from lobvi.cli import ConfigError, ExperimentConfig, main, parse_config, run
from lobvi.harmonic import stability_limit
from lobvi.mechanics import PhasePoint

W = 2.0 * math.pi
FMT = "{:.16e}".format
# an orbit whose scales are floats (q0 = 1e300, max |p| = 1e300, H0 = 5e299)
# while its H_d, about h H with h = 2 pi / (10 omega) ~ 6e299, is past the float range
HUGE_H_D = ["--mass", "1e300", "--omega", "1e-300", "--amplitude", "1e300"]


def call_main(args):
    """Run the CLI entry point with stderr captured; returns (code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(list(args))
    return code, err.getvalue()


def per_cell_rows(record):
    """Trajectory rows as one FMT call per cell, joined by commas."""
    rows = []
    for i, t in enumerate(record.times):
        pt, ex = record.points[i], record.exact[i]
        cells = [FMT(t), FMT(pt.q), FMT(pt.p), FMT(ex.q), FMT(ex.p), FMT(record.energies[i])]
        if record.discrete_energies is not None:
            cells.append(FMT(record.discrete_energies[i]))
        rows.append(",".join(cells))
    return rows


def first_energy(args, column):
    """The H or H_d cell of the first row of `trajectory` with these options."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code, err = call_main(["trajectory", *args, "--out", "-"])
    assert code == 0, err
    header, first = buf.getvalue().splitlines()[:2]
    return first.split(",")[header.split(",").index(column)]


def read_rows(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


class TestParseConfig:
    def test_full_flag_line(self):
        cfg = parse_config(
            [
                "convergence",
                "--system", "pendulum",
                "--scheme", "lobatto",
                "--meshes", "50,100,200",
                "--periods", "1",
                "--mass", "2.0",
                "--omega", "6.283185307179586",
                "--amplitude", "1.0",
                "--out", "x.csv",
            ]
        )
        assert cfg.command == "convergence"
        assert cfg.system == "pendulum"
        assert cfg.scheme == "lobatto"
        assert cfg.meshes == (50, 100, 200)
        assert cfg.periods == 1
        assert cfg.m == 2.0
        assert cfg.omega == 6.283185307179586
        assert cfg.amplitude == 1.0
        assert cfg.out == "x.csv"

    def test_defaults(self):
        cfg = parse_config(["trajectory"])
        assert cfg.system == "harmonic"
        assert cfg.scheme == "lobatto"
        assert cfg.m == 1.0
        assert cfg.omega == W
        assert cfg.amplitude == math.pi / 2.0
        assert cfg.meshes == (10,)
        assert cfg.periods == 1
        assert cfg.out == "trajectory_harmonic_lobatto.csv"
        assert parse_config(["stability"]).out == "stability_harmonic_lobatto.csv"

    def test_default_meshes_by_command_and_system(self):
        assert parse_config(["convergence"]).meshes == (10, 20, 40)
        assert parse_config(["convergence", "--system", "pendulum"]).meshes == (50, 100, 200)
        assert parse_config(["drift"]).meshes == (10,)
        assert parse_config(["drift", "--system", "pendulum"]).meshes == (47,)

    def test_drift_defaults_to_long_horizon(self):
        assert parse_config(["drift"]).periods == 1000
        assert parse_config(["trajectory"]).periods == 1

    def test_single_mesh_convergence_expands_to_doubling_family(self):
        cfg = parse_config(["convergence", "--meshes", "30"])
        assert cfg.meshes == (30, 60, 120)

    def test_config_file_supplies_values(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "# comment line\n"
            "\n"
            "system = pendulum\n"
            "scheme = midpoint\n"
            "mass = 2.5\n"
            "meshes = 8, 16\n"
        )
        cfg = parse_config(["convergence", "--config", str(path)])
        assert cfg.system == "pendulum"
        assert cfg.scheme == "midpoint"
        assert cfg.m == 2.5
        assert cfg.meshes == (8, 16)
        assert cfg.omega == W

    def test_flags_override_config_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("system = pendulum\nmass = 2.5\n")
        cfg = parse_config(
            ["trajectory", "--config", str(path), "--system", "harmonic"]
        )
        assert cfg.system == "harmonic"
        assert cfg.m == 2.5

    def test_unknown_key_is_located(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("system = harmonic\ncolor = red\n")
        with pytest.raises(ConfigError, match=rf"{path}:2"):
            parse_config(["trajectory", "--config", str(path)])

    def test_repeated_key_is_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("periods = 2\n# comment\nperiods = 3\n")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code, err = call_main(["drift", "--config", str(path), "--out", "-"])
        assert code == 2
        assert err == f"config error: {path}:3: repeated key 'periods' (first at line 1)\n"
        assert buf.getvalue() == ""

    def test_byte_order_mark_is_not_part_of_the_first_key(self, tmp_path):
        path = tmp_path / "bom.cfg"
        path.write_bytes("\ufeffsystem = pendulum\nperiods = 2\n".encode("utf-8"))
        cfg = parse_config(["drift", "--config", str(path)])
        assert (cfg.system, cfg.periods) == ("pendulum", 2)

    def test_malformed_line_is_located(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("system harmonic\n")
        with pytest.raises(ConfigError, match=r"key=value"):
            parse_config(["trajectory", "--config", str(path)])

    def test_missing_config_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(["trajectory", "--config", "/nonexistent/xyz.cfg"])

    def test_bad_file_number_is_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("mass = heavy\n")
        with pytest.raises(ConfigError, match="invalid number"):
            parse_config(["trajectory", "--config", str(path)])

    @pytest.mark.parametrize(
        "key, value, want",
        [
            ("mass", "heavy", "invalid number 'heavy'"),
            ("periods", "1.5", "invalid integer '1.5'"),
            ("meshes", "10,x", "invalid mesh list '10,x'"),
            ("meshes", "1 0", "invalid mesh list '1 0'"),
            ("meshes", "10,,20", "invalid mesh list '10,,20'"),
            ("meshes", "10,", "invalid mesh list '10,'"),
            ("meshes", "1_0", "invalid mesh list '1_0'"),
            ("meshes", "\u0661\u0660", "invalid mesh list '\u0661\u0660'"),
            ("periods", "1_0", "invalid integer '1_0'"),
            ("periods", "\u0661", "invalid integer '\u0661'"),
            ("mass", "1_0", "invalid number '1_0'"),
            ("mass", "\uff12", "invalid number '\uff12'"),
            ("system", "kepler", "expected one of harmonic, pendulum, got 'kepler'"),
        ],
    )
    def test_flag_and_file_share_one_converter(self, tmp_path, key, value, want):
        path = tmp_path / "exp.cfg"
        path.write_text(f"# bad value on line 2\n{key} = {value}\n", encoding="utf-8")
        by_flag = call_main(["trajectory", f"--{key}", value])
        by_file = call_main(["trajectory", "--config", str(path)])
        assert by_flag == (2, f"config error: --{key}: {want}\n")
        assert by_file == (2, f"config error: {path}:2: {want}\n")


class TestExperimentConfig:
    def good(self, **over):
        base = dict(
            command="trajectory",
            system="harmonic",
            scheme="lobatto",
            m=1.0,
            omega=W,
            amplitude=math.pi / 2.0,
            meshes=(10,),
            periods=1,
            out="x.csv",
        )
        base.update(over)
        return ExperimentConfig(**base)

    def test_accepts_baseline(self):
        cfg = self.good()
        assert cfg.meshes == (10,)

    @pytest.mark.parametrize(
        "over",
        [
            dict(command="simulate"),
            dict(system="kepler"),
            dict(scheme="verlet"),
            dict(meshes=()),
            dict(meshes=(1,)),
            dict(meshes=(0,)),
            dict(command="convergence", meshes=(10, 21)),
            dict(periods=0),
            dict(m=0.0),
            dict(m=math.inf),
            dict(omega=-1.0),
            dict(amplitude=math.nan),
            dict(amplitude=0.0),
            dict(system="pendulum", amplitude=3.5),
            dict(system="pendulum", amplitude=0.0),
            dict(meshes=(2,)),
            dict(meshes=(10, 20)),
            dict(command="drift", meshes=(10, 20)),
            dict(command="stability", system="kepler"),
            dict(command="stability", out=""),
            dict(command="convergence", meshes=(47,)),
            dict(omega=1e-320),
            dict(system="pendulum", omega=1e-320),
            dict(periods=2.5),
            dict(meshes=(10.7,)),
            dict(command="convergence", meshes=(10, 20.0)),
        ],
    )
    def test_rejects_bad_values(self, over):
        with pytest.raises(ConfigError):
            self.good(**over)

    @pytest.mark.parametrize(
        "command, system",
        [("trajectory", "harmonic"), ("trajectory", "pendulum"), ("convergence", "harmonic"),
         ("convergence", "pendulum"), ("drift", "harmonic"), ("drift", "pendulum"),
         ("stability", None)],
    )
    def test_library_defaults_are_the_command_line_defaults(self, command, system):
        given = {} if system is None else {"system": system}
        flags = [] if system is None else ["--system", system]
        assert ExperimentConfig(command, **given) == parse_config([command, *flags])

    def test_pendulum_allows_wide_release(self):
        cfg = self.good(system="pendulum", amplitude=3.1)
        assert cfg.amplitude == 3.1

    def test_stability_reads_only_out(self):
        # the scan runs at m = omega = 1, so the run values are not validated
        cfg = self.good(command="stability", m=-1.0, omega=1.0, amplitude=1.0, out="-")
        assert (cfg.reference, cfg.steps, cfg.advisories) == (None, None, ())
        got, want = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(got), contextlib.redirect_stderr(io.StringIO()):
            assert run(cfg) == 0
        with contextlib.redirect_stdout(want), contextlib.redirect_stderr(io.StringIO()):
            assert main(["stability", "--out", "-"]) == 0
        assert got.getvalue() == want.getvalue()


class TestTrajectoryOutput:
    def test_harmonic_lobatto_shape(self, tmp_path):
        out = tmp_path / "t.csv"
        code, err = call_main(["trajectory", "--meshes", "3", "--out", str(out)])
        assert code == 0
        assert "trajectory:" in err and str(out) in err
        header, rows = read_rows(out)
        assert header == ["t", "q", "p", "q_exact", "p_exact", "H", "H_d"]
        assert len(rows) == 4
        times = [float(r[0]) for r in rows]
        assert times == pytest.approx([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])
        assert float(rows[0][1]) == math.pi / 2.0
        assert float(rows[0][2]) == 0.0

    def test_pendulum_midpoint_has_no_discrete_energy_column(self, tmp_path):
        out = tmp_path / "t.csv"
        code, _ = call_main(
            [
                "trajectory",
                "--system", "pendulum",
                "--scheme", "midpoint",
                "--meshes", "8",
                "--out", str(out),
            ]
        )
        assert code == 0
        header, rows = read_rows(out)
        assert header == ["t", "q", "p", "q_exact", "p_exact", "H"]
        assert len(rows) == 9

    # a * m, 2 * m or 2 m omega^2 passes the float range while the momentum scale and
    # H stay inside it: the exact references multiply by the mass last, and V by m omega^2
    @pytest.mark.parametrize(
        "args",
        [["--system", "pendulum", "--mass", "1e308", "--omega", "1e-3"],
         ["--mass", "1e308", "--omega", "0.5", "--amplitude", "2"],
         ["--system", "pendulum", "--mass", "1e308", "--omega", "1", "--amplitude", "1e-320",
          "--meshes", "2", "--periods", "2"]],
        ids=["pendulum", "harmonic", "pendulum-potential"],
    )
    def test_huge_mass_keeps_the_momentum_finite(self, args):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code, err = call_main(["trajectory", *args, "--out", "-"])
        assert code == 0, err
        header, *rows = [line.split(",") for line in buf.getvalue().splitlines()]
        assert all(math.isfinite(float(cell)) for row in rows for cell in row)
        first = dict(zip(header, rows[0]))
        assert first["p"] == first["p_exact"] == FMT(-0.0)

    def test_stdout_sink(self):
        buf = io.StringIO()
        err = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            code = main(["trajectory", "--meshes", "3", "--out", "-"])
        assert code == 0
        lines = buf.getvalue().splitlines()
        assert lines[0].startswith("t,q,p,")
        assert len(lines) == 5
        assert "stdout" in err.getvalue()

    # H_d ~ h H overflows to inf at a finite H ~ 5e299, with h ~ 6e299; at omega 1e-300
    # the exact p ends subnormal
    @pytest.mark.parametrize(
        "args, header",
        [(HUGE_H_D, "t,q,p,q_exact,p_exact,H,H_d"),
         (["--omega", "1e-300", "--meshes", "3"], "t,q,p,q_exact,p_exact,H,H_d"),
         (["--system", "pendulum", "--scheme", "midpoint", "--meshes", "8"],
          "t,q,p,q_exact,p_exact,H")],
        ids=["huge-amplitude", "tiny-omega", "pendulum-midpoint"],
    )
    def test_rows_equal_the_per_cell_format(self, args, header):
        config = parse_config(["trajectory", *args, "--out", "-"])
        record = lobvi.cli._simulate(config, config.meshes[0])
        lines, _ = lobvi.cli._trajectory_lines(config)
        assert lines == [header] + per_cell_rows(record)

    @pytest.mark.parametrize("has_hd", [False, True], ids=["6-columns", "7-columns"])
    def test_row_template_writes_special_values_per_cell(self, monkeypatch, has_hd):
        special = (math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.0)
        times = (-math.inf, -0.0, 5e-324, 1.0, math.inf)
        pick = lambda shift: tuple(special[(i + shift) % 6] for i in range(len(times)))
        record = TrajectoryRecord(
            times=times,
            points=tuple(map(PhasePoint, pick(0), pick(1))),
            exact=tuple(map(PhasePoint, pick(2), pick(3))),
            energies=pick(4),
            discrete_energies=pick(5) if has_hd else None,
        )
        monkeypatch.setattr(lobvi.cli, "_simulate", lambda *args: record)
        config = parse_config(["trajectory", "--out", "-"])
        lines, _ = lobvi.cli._trajectory_lines(config)
        assert lines[0].count(",") == (6 if has_hd else 5)
        assert lines[1:] == per_cell_rows(record)
        assert {"nan", "inf", "-inf", "-0.0000000000000000e+00",
                "4.9406564584124654e-324"} <= set(",".join(lines[1:]).split(","))

    def test_byte_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        call_main(["trajectory", "--meshes", "10", "--out", str(a)])
        call_main(["trajectory", "--meshes", "10", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


    @pytest.mark.parametrize("amplitude", ["1.5707963267948966", "2.5", "3.1", "1e-10"])
    def test_pendulum_starts_at_the_release_angle(self, amplitude):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code, _ = call_main(["trajectory", "--system", "pendulum",
                                 "--amplitude", amplitude, "--out", "-"])
        assert code == 0
        row = buf.getvalue().splitlines()[1].split(",")
        assert float(row[1]) == float(row[3]) == float(amplitude)

    @pytest.mark.parametrize("mass", ["1e6", "1e10"])
    def test_pendulum_positions_do_not_depend_on_mass(self, tmp_path, mass):
        qs = {}
        for m in ("1", mass):
            out = tmp_path / f"m{m}.csv"
            code, err = call_main(["trajectory", "--system", "pendulum", "--periods", "3",
                                   "--mass", m, "--out", str(out)])
            assert code == 0, err
            qs[m] = [float(row[1]) for row in read_rows(out)[1]]
        assert len(qs[mass]) == len(qs["1"]) == 31
        assert max(abs(a - b) for a, b in zip(qs[mass], qs["1"])) <= 1e-13


class TestConvergenceOutput:
    def test_summary_schema_and_orders(self, tmp_path):
        out = tmp_path / "c.csv"
        code, err = call_main(["convergence", "--meshes", "10,20", "--out", str(out)])
        assert code == 0
        header, rows = read_rows(out)
        assert header == ["meshes", "err_p", "err_q", "err_H", "err_Hd",
                          "order_p", "order_q", "order_H"]
        assert [r[0] for r in rows] == ["10", "20"]
        assert rows[0][5:] == ["", "", ""]
        assert rows[1][5:] == ["6", "6", "6"]
        assert "orders" in err

    def test_err_hd_column_empty_for_midpoint(self, tmp_path):
        out = tmp_path / "c.csv"
        call_main(
            ["convergence", "--scheme", "midpoint", "--meshes", "10,20", "--out", str(out)]
        )
        _, rows = read_rows(out)
        assert all(r[4] == "" for r in rows)
        assert rows[1][5] == "2"

    def test_orders_at_the_roundoff_floor_are_empty(self, tmp_path):
        # the midpoint rule conserves the oscillator's quadratic energy, so its
        # H errors are a few ulps of H0: no order is read from them
        out = tmp_path / "c.csv"
        code, err = call_main(["convergence", "--scheme", "midpoint", "--out", str(out)])
        assert code == 0
        _, rows = read_rows(out)
        assert [r[5:] for r in rows] == [["", "", ""], ["2", "2", ""], ["2", "2", ""]]
        assert err == f"convergence: orders p=(2, 2) q=(2, 2) H=(floor, floor) -> {out}\n"

    def test_tiny_release_angle_keeps_sixth_order_energy(self):
        # 1 - cos q rounds to 0 at q0 = 1e-10; the sin^2(q/2) form keeps H's sixth order
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code, err = call_main(["convergence", "--system", "pendulum",
                                   "--amplitude", "1e-10", "--out", "-"])
        assert code == 0
        rows = [line.split(",") for line in buf.getvalue().splitlines()[1:]]
        assert [r[7] for r in rows] == ["", "6", "6"]
        assert err == "convergence: orders p=(6, floor) q=(6, floor) H=(6, 6) -> stdout\n"

    def test_heavy_pendulum_keeps_sixth_order_energy(self):
        # p reaches about 1e200 at m = 1e200, so p * p / 2m would be inf
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code, err = call_main(["convergence", "--system", "pendulum",
                                   "--mass", "1e200", "--out", "-"])
        assert code == 0, err
        assert "inf" not in buf.getvalue()
        assert err == "convergence: orders p=(6, 6) q=(6, 6) H=(6, 6) -> stdout\n"

    def test_tiny_release_angle_keeps_second_order_midpoint(self):
        # the midpoint residual is a position, scaled by the positions of the step
        with contextlib.redirect_stdout(io.StringIO()):
            code, err = call_main(["convergence", "--system", "pendulum", "--scheme",
                                   "midpoint", "--amplitude", "1e-10", "--out", "-"])
        assert code == 0
        assert err == "convergence: orders p=(2, 2) q=(2, 2) H=(floor, floor) -> stdout\n"

    def test_cells_match_trajectory_recomputation(self, tmp_path):
        """The convergence errors must be byte-identical to what the published
        trajectory file implies: parse one, recompute the three infinity
        errors, format them the same way, compare strings."""
        tfile = tmp_path / "t.csv"
        cfile = tmp_path / "c.csv"
        call_main(["trajectory", "--meshes", "20", "--out", str(tfile)])
        call_main(["convergence", "--meshes", "20,40", "--out", str(cfile)])
        _, trows = read_rows(tfile)
        vals = [[float(cell) for cell in row] for row in trows]
        err_q = max(abs(v[1] - v[3]) for v in vals)
        err_p = max(abs(v[2] - v[4]) for v in vals)
        err_h = max(abs(v[5] - vals[0][5]) for v in vals)
        err_hd = max(abs(v[6] - vals[0][6]) for v in vals)
        _, crows = read_rows(cfile)
        assert crows[0][1] == FMT(err_p)
        assert crows[0][2] == FMT(err_q)
        assert crows[0][3] == FMT(err_h)
        assert crows[0][4] == FMT(err_hd)

    @pytest.mark.parametrize(
        "args, hd_cells, floor_cells",
        [([], 3, 0), (["--scheme", "midpoint"], 0, 2), (["--system", "pendulum"], 0, 0)],
        ids=["harmonic-lobatto", "harmonic-midpoint", "pendulum"],
    )
    def test_rows_equal_the_per_cell_format(self, args, hd_cells, floor_cells):
        config = parse_config(["convergence", *args, "--out", "-"])
        records = [lobvi.cli._simulate(config, n) for n in config.meshes]
        scale = {obs: orbit_scale(records[-1], obs) for obs in ("p", "q", "H")}
        rows = []
        for i, (n, record) in enumerate(zip(config.meshes, records)):
            cells = [str(n)] + [FMT(linf_error(record, obs)) for obs in ("p", "q", "H")]
            cells.append("" if record.discrete_energies is None
                         else FMT(linf_error(record, "H_d")))
            for obs in ("p", "q", "H"):
                order = None if i == 0 else estimate_order(
                    linf_error(records[i - 1], obs), linf_error(record, obs), scale[obs])
                cells.append("" if order is None else str(order))
            rows.append(",".join(cells))
        lines, _ = lobvi.cli._convergence_lines(config)
        assert lines == ["meshes,err_p,err_q,err_H,err_Hd,order_p,order_q,order_H"] + rows
        # each case covers the cells it is named for: H_d errors, or H orders at the floor
        table = [row.split(",") for row in rows]
        assert sum(row[4] != "" for row in table) == hd_cells
        assert sum(row[7] == "" for row in table[1:]) == floor_cells


class TestDriftOutput:
    def test_harmonic_discrete_energy_is_flat(self, tmp_path):
        out = tmp_path / "d.csv"
        code, _ = call_main(
            ["drift", "--periods", "3", "--meshes", "10", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# observable: H_d"
        assert lines[1] == f"# reference: {first_energy(['--meshes', '10'], 'H_d')}"
        assert lines[2] == "period,err"
        assert len(lines) == 6
        for row in lines[3:]:
            idx, err = row.split(",")
            assert float(err) <= 5e-15

    def test_midpoint_reports_physical_energy(self, tmp_path):
        out = tmp_path / "d.csv"
        call_main(
            [
                "drift",
                "--scheme", "midpoint",
                "--periods", "2",
                "--meshes", "20",
                "--out", str(out),
            ]
        )
        lines = out.read_text().splitlines()
        assert lines[0] == "# observable: H"
        assert lines[1] == f"# reference: {first_energy(['--scheme', 'midpoint'], 'H')}"

    def test_pendulum_reports_its_reference_and_last_maximum(self, tmp_path):
        out = tmp_path / "d.csv"
        code, err = call_main(
            ["drift", "--system", "pendulum", "--periods", "20",
             "--amplitude", "1.4", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "# reference: " + first_energy(
            ["--system", "pendulum", "--amplitude", "1.4"], "H"
        )
        last = float(lines[-1].split(",")[1])
        assert lines[-1].startswith("20,") and last > 0.0
        assert err == f"drift: H max drift {last:.3e} after 20 periods -> {out}\n"

    def test_reference_is_evaluated_only_at_the_start(self, monkeypatch):
        # counted over the run alone: the config reads the orbit's scales before it
        config = parse_config(["drift", "--system", "pendulum", "--periods", "3", "--out", "-"])
        real = lobvi.cli.pendulum_exact
        calls = []
        monkeypatch.setattr(
            "lobvi.cli.pendulum_exact", lambda t, ref: calls.append(t) or real(t, ref)
        )
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = run(config)
        assert code == 0
        assert calls == [0.0]


    @pytest.mark.parametrize(
        "scheme, calls", [("lobatto", 0), ("midpoint", 31)], ids=["H_d", "H"]
    )
    def test_drift_evaluates_only_the_energy_it_reports(self, monkeypatch, scheme, calls):
        # counted over the run alone: the config reads H0 before it
        config = parse_config(["drift", "--scheme", scheme, "--periods", "3", "--out", "-"])
        real = lobvi.cli.energy
        seen = []
        monkeypatch.setattr(
            "lobvi.cli.energy", lambda *args: seen.append(args) or real(*args)
        )
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = run(config)
        assert code == 0
        assert len(seen) == calls

    def test_harmonic_drift_folds_h_d_without_the_points(self, monkeypatch):
        def run_cli(args):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code, err = call_main(args)
            return code, buf.getvalue(), err

        drift = ["drift", "--system", "harmonic", "--periods", "3", "--out", "-"]
        want = run_cli(drift)

        def no_points(*args):
            raise AssertionError("run_harmonic called")

        monkeypatch.setattr("lobvi.cli.run_harmonic", no_points)
        assert want[0] == 0 and run_cli(drift) == want
        # the midpoint drift reads H from its points, and trajectory prints them
        code, out, _ = run_cli(["drift", "--system", "harmonic", "--scheme", "midpoint",
                                "--periods", "2", "--out", "-"])
        assert code == 0 and out.splitlines()[0] == "# observable: H"
        assert len(out.splitlines()) == 5
        with pytest.raises(AssertionError, match="run_harmonic called"):
            run_cli(["trajectory", "--system", "harmonic", "--out", "-"])

    @pytest.mark.parametrize("system", ["harmonic", "pendulum"])
    @pytest.mark.parametrize("scheme", ["lobatto", "midpoint"])
    def test_drift_builds_no_record(self, monkeypatch, system, scheme):
        def no_record(**fields):
            raise AssertionError("TrajectoryRecord built")

        monkeypatch.setattr("lobvi.cli.TrajectoryRecord", no_record)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code, err = call_main(["drift", "--system", system, "--scheme", scheme,
                                   "--periods", "2", "--out", "-"])
        assert code == 0, err
        assert [row.split(",")[0] for row in buf.getvalue().splitlines()[3:]] == ["1", "2"]

    def test_nan_energy_is_printed_not_dropped(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code, err = call_main(["drift", *HUGE_H_D, "--periods", "3", "--out", "-"])
        assert code == 0
        lines = buf.getvalue().splitlines()
        # H_d overflows to inf, so every error is inf - inf = nan
        ref = first_energy(HUGE_H_D, "H_d")
        assert lines[1] == f"# reference: {ref}" == "# reference: inf"
        assert lines[3:] == ["1,nan", "2,nan", "3,nan"]
        assert err == "drift: H_d max drift nan after 3 periods -> stdout\n"


class TestStabilityOutput:
    def test_scan_brackets_the_onset(self, tmp_path):
        out = tmp_path / "s.csv"
        code, err = call_main(["stability", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# transition: 3.11,3.12"
        assert lines[1] == "h_omega,bounded"
        data = dict(line.split(",") for line in lines[2:])
        assert len(data) == 37
        assert data["2.80"] == "1"
        assert data["3.11"] == "1"
        assert data["3.12"] == "0"
        assert data["3.16"] == "0"
        assert "3.11" in err


    def test_map_bounded_everywhere_prints_none(self, monkeypatch):
        monkeypatch.setattr(lobvi.analysis, "transfer_matrix",
                            lambda params: ((1.0, 0.0), (0.0, 1.0)))
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code, err = call_main(["stability", "--out", "-"])
        assert code == 0
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# transition: none"
        assert lines[2:] == [f"{g:.2f},1" for g in STABILITY_GRID]
        assert err == "stability: transition none -> stdout\n"


class TestExitCodes:
    def test_no_arguments_is_usage_error(self):
        code, _ = call_main([])
        assert code == 2

    def test_unknown_subcommand(self):
        code, _ = call_main(["simulate"])
        assert code == 2

    def test_invalid_mesh_value(self):
        code, err = call_main(["trajectory", "--meshes", "0"])
        assert code == 2
        assert "config error" in err

    def test_missing_config_file(self):
        code, err = call_main(["trajectory", "--config", "/nonexistent/x.cfg"])
        assert code == 2

    def test_empty_config_path_is_config_error(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code, err = call_main(["trajectory", "--config", "", "--out", "-"])
        assert code == 2
        assert err.startswith("config error: cannot read config file: ")
        assert buf.getvalue() == ""

    def test_config_file_not_in_utf8_is_config_error(self, tmp_path):
        path = tmp_path / "latin1.cfg"
        path.write_bytes("# r\u00e9glage\nperiods = 2\n".encode("latin-1"))
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code, err = call_main(["drift", "--config", str(path), "--out", "-"])
        assert code == 2
        assert err == ("config error: cannot read config file: 'utf-8' codec can't decode "
                       "byte 0xe9 in position 3: invalid continuation byte\n")
        assert buf.getvalue() == ""

    def test_solver_failure_exits_three(self, tmp_path):
        out = tmp_path / "t.csv"
        code, err = call_main(
            [
                "trajectory",
                "--system", "pendulum",
                "--meshes", "2",
                "--amplitude", "3.1",
                "--out", str(out),
            ]
        )
        assert code == 3
        assert "solver failure" in err
        assert "step 2 of 2" in err
        residual = re.search(r"residual (\d\.\d+e[+-]\d+)", err).group(1)
        assert err.count(residual) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "case", ["missing-directory", "empty-config-value", "existing-directory"]
    )
    def test_unwritable_output_is_config_error(self, tmp_path, monkeypatch, case):
        def never(*args):
            raise AssertionError("simulated although the output cannot be written")

        monkeypatch.setattr("lobvi.cli._simulate", never)
        if case == "empty-config-value":
            cfg = tmp_path / "run.cfg"
            cfg.write_text("out =\n")
            target = ["--config", str(cfg)]
        elif case == "missing-directory":
            target = ["--out", str(tmp_path / "missing" / "t.csv")]
        else:
            target = ["--out", str(tmp_path)]
        code, err = call_main(["trajectory", "--meshes", "4", *target])
        assert code == 2
        assert "config error: cannot write output:" in err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_failed_write_is_config_error(self):
        # /dev/full opens, then every write fails with ENOSPC
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code, err = call_main(["trajectory", "--out", "/dev/full"])
        assert code == 2
        assert err.startswith("config error: cannot write output: ")
        assert buf.getvalue() == ""

    def test_main_reads_sys_argv(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["lobvi", "stability", "--out", "-"])
        assert main() == 0
        out, err = capsys.readouterr()
        lines = out.splitlines()
        assert len(lines) == 39
        assert lines[:2] == ["# transition: 3.11,3.12", "h_omega,bounded"]
        assert err == "stability: transition 3.11,3.12 -> stdout\n"

    @pytest.mark.parametrize(
        "args, want",
        [
            (
                ["--system", "pendulum", "--amplitude", "3.5"],
                "amplitude: q0 must be finite and in (0, pi), got 3.5",
            ),
            (["--mass", "inf"], "mass: m must be finite and positive, got inf"),
            (["--amplitude", "0"], "amplitude: amplitude must be finite and nonzero, got 0.0"),
        ],
        ids=["amplitude", "mass", "zero-amplitude"],
    )
    def test_physical_value_error_names_the_option(self, args, want):
        code, err = call_main(["trajectory", *args])
        assert code == 2
        assert err == f"config error: {want}\n"

    @pytest.mark.parametrize("command", ["trajectory", "drift", "convergence"])
    def test_release_angle_at_pi_after_rounding_is_config_error(self, tmp_path, command):
        # 3.1415926535 < pi, but sin(q0/2) rounds to 1, where K is infinite
        out = tmp_path / "near_pi.csv"
        for sink in ("-", str(out)):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code, err = call_main([command, "--system", "pendulum",
                                       "--amplitude", "3.1415926535", "--out", sink])
            assert code == 2
            assert err == ("config error: amplitude: q0 must be finite and far enough "
                           "below pi that sin(q0/2) < 1, got 3.1415926535\n")
            assert buf.getvalue() == ""
        assert not out.exists()

    # h = period / N: 2 pi / 1e-320 overflows to inf, and 2 pi / 1e308
    # spread over 1e20 nodes underflows to 0
    @pytest.mark.parametrize(
        "args, got",
        [(["trajectory", "--omega", "1e-320"], "inf"),
         (["drift", "--omega", "1e-320"], "inf"),
         (["convergence", "--omega", "1e-320"], "inf"),
         (["trajectory", "--system", "pendulum", "--omega", "1e-320"], "inf"),
         (["drift", "--system", "pendulum", "--omega", "1e-320"], "inf"),
         (["convergence", "--system", "pendulum", "--omega", "1e-320"], "inf"),
         (["trajectory", "--omega", "1e308", "--meshes", "100000000000000000000"], "0.0")],
        ids=["trajectory", "drift", "convergence", "pendulum-trajectory", "pendulum-drift",
             "pendulum-convergence", "huge-mesh"],
    )
    def test_degenerate_step_size_is_config_error(self, tmp_path, args, got):
        out = tmp_path / "h.csv"
        for sink in ("-", str(out)):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code, err = call_main([*args, "--out", sink])
            assert code == 2
            assert err == f"config error: omega, meshes: h must be finite and nonzero, got {got}\n"
            assert buf.getvalue() == ""
        assert not out.exists()

    # h = 2 pi / 4e-308 / 10 is finite, but the last node time 20 h overflows
    @pytest.mark.parametrize("command", ["trajectory", "convergence"])
    def test_last_node_time_past_the_floats_is_config_error(self, tmp_path, command):
        out = tmp_path / "t.csv"
        for sink in ("-", str(out)):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code, err = call_main([command, "--omega", "4e-308", "--periods", "2",
                                       "--out", sink])
            assert code == 2
            assert err == "config error: omega, periods: t must be finite, got inf\n"
            assert buf.getvalue() == ""
        assert not out.exists()
        # the drift reads no times
        with contextlib.redirect_stdout(io.StringIO()):
            code, _ = call_main(["drift", "--omega", "4e-308", "--periods", "2", "--out", "-"])
        assert code == 0

    # at omega = 1e-160, h^2 overflows and the first residual is NaN (Lobatto) or inf
    # (midpoint); at mass 1e308 and omega 1e-150 the second step's drift h p / m overflows
    # before any force is evaluated; at mass 1e308 and omega 1 the midpoint's first
    # momentum overflows, which the fold sees in the emitted point
    # (only the Lobatto start case, at 2 nodes per period, is past the stability limit)
    @pytest.mark.parametrize(
        "args, advisory, where, residual",
        [pytest.param(["pendulum", "--omega", "1e-160"], "", "step 1 of 10", "nan",
                      id="lobatto-nan"),
         pytest.param(["pendulum", "--scheme", "midpoint", "--omega", "1e-160"], "",
                      "step 1 of 10", "inf", id="midpoint-inf"),
         pytest.param(["pendulum", "--mass", "1e308", "--omega", "1e-150", "--amplitude", "1.5",
                       "--meshes", "2"],
                      "warning: meshes: 2 nodes per period put h*omega = 3.6504 at or past the "
                      "stability limit {limit:.4f} of the pendulum Lobatto scheme\n",
                      "step 2 of 2", "inf", id="lobatto-start"),
         pytest.param(["pendulum", "--scheme", "midpoint", "--mass", "1e308", "--omega", "1e-150",
                       "--amplitude", "1.5", "--meshes", "2"], "", "step 2 of 2", "inf",
                      id="midpoint-start"),
         pytest.param(["pendulum", "--scheme", "midpoint", "--mass", "1e308", "--omega", "1",
                       "--meshes", "2"], "", "step 1 of 2", "nan", id="midpoint-momentum"),
         pytest.param(["harmonic", "--scheme", "midpoint", "--mass", "1e308", "--omega", "1",
                       "--meshes", "2"], "", "step 1 of 2", "nan",
                      id="harmonic-midpoint-momentum")],
    )
    def test_non_finite_residual_is_a_solver_failure(self, tmp_path, args, advisory, where,
                                                     residual):
        out = tmp_path / "t.csv"
        code, err = call_main(["trajectory", "--system", *args, "--out", str(out)])
        assert code == 3
        assert err == (advisory.format(limit=stability_limit())
                       + f"solver failure: {where}: non-finite residual after 0 iterations, "
                       f"scaled residual {residual}; no output written\n")
        assert not out.exists()

    def test_extreme_values_exit_with_a_code(self):
        # every run either writes its output or reports a config or solver error
        for system, scheme, mass, omega, meshes in itertools.product(
            ["harmonic", "pendulum"], ["lobatto", "midpoint"], ["1e-300", "1", "1e308"],
            ["1e-150", "1", "1e150"], ["2", "10"],
        ):
            args = ["trajectory", "--system", system, "--scheme", scheme, "--mass", mass,
                    "--omega", omega, "--meshes", meshes, "--out", "-"]
            with contextlib.redirect_stdout(io.StringIO()):
                code, err = call_main(args)
            assert code in (0, 2, 3), (args, err)

    @pytest.mark.parametrize("sink", ["stdout", "file"])
    def test_harmonic_lobatto_past_stability_limit_is_rejected(self, tmp_path, sink):
        out = tmp_path / "t.csv"
        args = ["trajectory", "--meshes", "2", "--periods", "50",
                "--out", "-" if sink == "stdout" else str(out)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code, err = call_main(args)
        assert code == 2
        assert err.startswith("config error: ")
        assert f"stability limit {stability_limit():.4f}" in err
        assert buf.getvalue() == ""
        assert not out.exists()
        # the limit belongs to the closed-form map, not to the midpoint rule
        with contextlib.redirect_stdout(io.StringIO()):
            code, _ = call_main([*args, "--scheme", "midpoint"])
        assert code == 0

    def test_pendulum_lobatto_past_stability_limit_warns(self):
        # h*omega at q = 0 is 3.7081 for the default release angle pi/2
        with contextlib.redirect_stdout(io.StringIO()):
            code, err = call_main(["trajectory", "--system", "pendulum", "--meshes", "2",
                                   "--out", "-"])
        assert code == 0
        warned = [line for line in err.splitlines() if line.startswith("warning:")]
        assert warned == [
            "warning: meshes: 2 nodes per period put h*omega = 3.7081 at or past the "
            f"stability limit {stability_limit():.4f} of the pendulum Lobatto scheme"
        ]

    def test_advisory_does_not_depend_on_the_checkout(self, tmp_path):
        src = os.path.dirname(os.path.dirname(os.path.abspath(lobvi.__file__)))
        errs = []
        for name in ("one", "two"):
            shutil.copytree(os.path.join(src, "lobvi"), tmp_path / name / "lobvi",
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable, "-m", "lobvi", "trajectory", "--system", "pendulum",
                 "--meshes", "3", "--amplitude", "3.0", "--out", "-"],
                env=dict(os.environ, PYTHONPATH=str(tmp_path / name)),
                capture_output=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            errs.append(done.stderr)
        assert errs[0] == errs[1]
        assert errs[0].startswith(b"warning: meshes: 3 ")
        assert b".py:" not in errs[0]

    @pytest.mark.parametrize(
        "flag", [["--system", "pendulum"], ["--scheme", "midpoint"], ["--periods", "7"],
                 ["--amplitude", "1.0"], ["--meshes", "10"], ["--mass", "2.0"],
                 ["--omega", "3.0"]],
        ids=["system", "scheme", "periods", "amplitude", "meshes", "mass", "omega"],
    )
    def test_stability_rejects_options_it_does_not_read(self, tmp_path, flag):
        buf, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            code = main(["stability", *flag, "--out", "-"])
        assert code == 2
        assert buf.getvalue() == ""
        assert err.getvalue().startswith("usage: lobvi stability")
        path = tmp_path / "scan.cfg"
        path.write_text(f"out = -\n{flag[0][2:]} = {flag[1]}\n")
        code, err = call_main(["stability", "--config", str(path), "--out", "-"])
        assert code == 2
        assert err == f"config error: {path}:2: stability takes no key {flag[0][2:]!r}\n"

    @pytest.mark.parametrize(
        "args, usage",
        [(["--bogus", "trajectory"], "usage: lobvi [-h] {"),
         (["trajectory", "--bogus"], "usage: lobvi trajectory "),
         (["--bogus", "trajectory", "--also"], "usage: lobvi [-h] {")],
        ids=["before-subcommand", "after-subcommand", "both-sides"],
    )
    def test_stray_flag_uses_usage_of_its_parser(self, args, usage):
        buf, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            code = main([*args, "--out", "-"])
        assert code == 2
        assert buf.getvalue() == ""
        assert err.getvalue().startswith(usage)
        assert err.getvalue().endswith("error: unrecognized arguments: --bogus\n")

    @pytest.mark.parametrize("command", ["trajectory", "drift"])
    def test_extra_mesh_counts_are_rejected(self, command):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code, err = call_main([command, "--meshes", "10,20", "--out", "-"])
        assert code == 2
        assert err == f"config error: {command} takes one mesh count, got 2\n"
        assert buf.getvalue() == ""

    def test_meshes_that_do_not_double_are_rejected(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code, err = call_main(["convergence", "--meshes", "10,21", "--out", "-"])
        assert code == 2
        assert err == "config error: meshes: mesh counts must double: 10 then 21\n"
        assert buf.getvalue() == ""

    # at --mass 1e-320 every error is subnormal, rounding residue with no order in it
    @pytest.mark.parametrize(
        "args, observable, value",
        [(["--amplitude", "1e-300"], "H", "0.0"),
         (["--mass", "1e-320"], "H", "1.5e-323"),
         (["--scheme", "midpoint", "--amplitude", "1e-320"], "H", "0.0")],
        ids=["amplitude", "subnormal-mass", "subnormal-midpoint"],
    )
    def test_degenerate_convergence_is_config_error(self, tmp_path, args, observable, value):
        out = tmp_path / "c.csv"
        for sink in ("-", str(out)):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code, err = call_main(
                    ["convergence", "--system", "harmonic", *args, "--out", sink]
                )
            assert code == 2
            assert err == (
                f"config error: no {observable} order from meshes 10 and 20: "
                f"degenerate error value {value}\n"
            )
            assert buf.getvalue() == ""
        assert not out.exists()

    # one verdict for every command, system and scheme, before any step: the exact
    # orbit's |q| at t = 0, |p| at a quarter period and H0 must be floats
    @pytest.mark.parametrize(
        "args, scale, value",
        [(["trajectory", "--mass", "1e308", "--omega", "1", "--amplitude", "3.14",
           "--meshes", "3"], "p(T/4)", "-inf"),
         (["drift", "--mass", "1e308", "--omega", "1", "--amplitude", "3.14", "--meshes", "3",
           "--periods", "2"], "p(T/4)", "-inf"),
         (["drift", "--amplitude", "1e200", "--periods", "3"], "H0", "inf"),
         (["convergence", "--amplitude", "1e301"], "H0", "inf"),
         (["trajectory", "--scheme", "midpoint", "--amplitude", "1e200"], "H0", "inf"),
         # a * omega overflows in harmonic_exact: p is -inf at a quarter period, nan at t = 0
         (["trajectory", "--mass", "1e-320", "--omega", "1e150", "--amplitude", "1e300",
           "--meshes", "3"], "p(T/4)", "-inf"),
         (["trajectory", "--system", "pendulum", "--mass", "1e308", "--omega", "2"],
          "p(T/4)", "-inf"),
         (["trajectory", "--system", "pendulum", "--scheme", "midpoint", "--mass", "1e308",
           "--omega", "2"], "p(T/4)", "-inf")],
        ids=["trajectory", "drift", "drift-huge-amplitude", "convergence-huge-amplitude",
             "midpoint", "subnormal-mass", "pendulum", "pendulum-midpoint"],
    )
    def test_orbit_past_the_float_range_is_config_error(self, tmp_path, args, scale, value):
        out = tmp_path / "o.csv"
        for sink in ("-", str(out)):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code, err = call_main([*args, "--out", sink])
            assert code == 2
            assert err == (f"config error: mass, omega, amplitude: {scale} must be finite, "
                           f"got {value}\n")
            assert buf.getvalue() == ""
        assert not out.exists()

    def test_success_returns_zero(self, tmp_path):
        code, _ = call_main(
            ["trajectory", "--meshes", "4", "--out", str(tmp_path / "ok.csv")]
        )
        assert code == 0

    def test_heavy_pendulum_converges(self):
        # the Lobatto residual is a position, so the stop does not see the mass
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code, err = call_main(["trajectory", "--system", "pendulum", "--periods", "3",
                                   "--mass", "1e4", "--amplitude", "2.5", "--out", "-"])
        assert code == 0, err
        assert len(buf.getvalue().splitlines()) == 32

    # below positions of about 2e-309 TOL times the scale falls under
    # pendulum.FLOOR, where the stop is floored, so both solvers still converge
    @pytest.mark.parametrize(
        "args, nodes",
        [(["--amplitude", "1e-320"], 11), (["--amplitude", "1e-315", "--meshes", "47"], 48),
         (["--scheme", "midpoint", "--amplitude", "1e-315"], 11)],
        ids=["lobatto", "lobatto-47", "midpoint"],
    )
    def test_subnormal_release_angle_converges(self, args, nodes):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code, err = call_main(["trajectory", "--system", "pendulum", *args, "--out", "-"])
        assert code == 0, err
        assert len(buf.getvalue().splitlines()) == nodes + 1

    @pytest.mark.parametrize("command", ["trajectory", "convergence"])
    def test_periods_past_the_float_range_is_config_error(self, tmp_path, command):
        out = tmp_path / "p.csv"
        code, err = call_main([command, "--periods", "1" + "0" * 400, "--out", str(out)])
        assert code == 2
        assert err == ("config error: periods: the node count meshes * periods is past "
                       "the float range\n")
        assert not out.exists()

    def test_drift_periods_past_the_float_range_is_config_error(self):
        # checked on the config alone: a drift that got past it would fold without end
        with pytest.raises(ConfigError, match=r"^periods: the node count"):
            parse_config(["drift", "--periods", "1" + "0" * 400, "--out", "-"])


class TestRunDispatch:
    def test_run_returns_zero_and_writes(self, tmp_path):
        cfg = parse_config(["trajectory", "--meshes", "4", "--out", str(tmp_path / "r.csv")])
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert run(cfg) == 0
        assert (tmp_path / "r.csv").exists()


class TestStandardLibraryOnly:
    """The package and its CLI need nothing outside the standard library."""

    def _python(self, code, *args):
        src = os.path.dirname(os.path.dirname(os.path.abspath(lobvi.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        return subprocess.run(
            [sys.executable, "-c", code, *args],
            env=env, capture_output=True, text=True, timeout=120,
        )

    def test_import_leaves_numpy_unloaded(self):
        done = self._python(
            "import sys, lobvi, lobvi.cli; print('numpy' in sys.modules)"
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "False\n"

    def test_library_import_leaves_the_cli_unloaded(self):
        done = self._python(
            "import sys, lobvi.exact; "
            "print('lobvi.cli' in sys.modules, 'argparse' in sys.modules)"
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "False False\n"

    def test_drift_runs_with_numpy_blocked(self):
        done = self._python(
            "import runpy, sys\n"
            "sys.modules['numpy'] = None\n"
            "sys.argv = ['lobvi', *sys.argv[1:]]\n"
            "runpy.run_module('lobvi', run_name='__main__')",
            "drift", "--periods", "2", "--out", "-",
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("# observable: H_d\n")
