import contextlib
import io
import math
import re
import warnings

import pytest

from lobvi.cli import ConfigError, ExperimentConfig, main, parse_config, run

W = 2.0 * math.pi
FMT = "{:.16e}".format


def call_main(args):
    """Run the CLI entry point with stderr captured; returns (code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(list(args))
    return code, err.getvalue()


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
        cfg = parse_config(["trajectory", "--config", str(path)])
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
        ],
    )
    def test_rejects_bad_values(self, over):
        with pytest.raises(ConfigError):
            self.good(**over)

    def test_pendulum_allows_wide_release(self):
        cfg = self.good(system="pendulum", amplitude=3.1)
        assert cfg.amplitude == 3.1


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

    def test_stdout_sink(self):
        buf = io.StringIO()
        err = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            code = main(["trajectory", "--meshes", "2", "--out", "-"])
        assert code == 0
        lines = buf.getvalue().splitlines()
        assert lines[0].startswith("t,q,p,")
        assert len(lines) == 4
        assert "stdout" in err.getvalue()

    def test_byte_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        call_main(["trajectory", "--meshes", "10", "--out", str(a)])
        call_main(["trajectory", "--meshes", "10", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


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


class TestDriftOutput:
    def test_harmonic_discrete_energy_is_flat(self, tmp_path):
        out = tmp_path / "d.csv"
        code, _ = call_main(
            ["drift", "--periods", "3", "--meshes", "10", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# observable: H_d"
        assert lines[1].startswith("# rate: ") and "per period" in lines[1]
        assert lines[2] == "period,err"
        assert len(lines) == 6
        rate = float(lines[1].split()[2])
        assert abs(rate) <= 1e-16
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

    def test_solver_failure_exits_three(self, tmp_path):
        out = tmp_path / "t.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
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
        "via_file", [False, True], ids=["missing-directory", "empty-config-value"]
    )
    def test_unwritable_output_is_config_error(self, tmp_path, monkeypatch, via_file):
        def never(*args):
            raise AssertionError("simulated although the output cannot be written")

        monkeypatch.setattr("lobvi.cli._simulate", never)
        if via_file:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("out =\n")
            target = ["--config", str(cfg)]
        else:
            target = ["--out", str(tmp_path / "missing" / "t.csv")]
        code, err = call_main(["trajectory", "--meshes", "4", *target])
        assert code == 2
        assert "config error: cannot write output:" in err

    @pytest.mark.parametrize(
        "args, want",
        [
            (
                ["--system", "pendulum", "--amplitude", "3.5"],
                "amplitude: q0 must be finite and in (0, pi), got 3.5",
            ),
            (["--mass", "inf"], "mass: m must be finite and positive, got inf"),
        ],
        ids=["amplitude", "mass"],
    )
    def test_physical_value_error_names_the_option(self, args, want):
        code, err = call_main(["trajectory", *args])
        assert code == 2
        assert err == f"config error: {want}\n"

    def test_success_returns_zero(self, tmp_path):
        code, _ = call_main(
            ["trajectory", "--meshes", "4", "--out", str(tmp_path / "ok.csv")]
        )
        assert code == 0


class TestRunDispatch:
    def test_run_returns_zero_and_writes(self, tmp_path):
        cfg = parse_config(["trajectory", "--meshes", "4", "--out", str(tmp_path / "r.csv")])
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert run(cfg) == 0
        assert (tmp_path / "r.csv").exists()
