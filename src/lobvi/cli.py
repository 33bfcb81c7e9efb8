"""Command-line experiment runner emitting deterministic CSV files.

Subcommands: trajectory (node samples of one run), convergence (infinity
errors and integer orders over doubling meshes), drift (running energy-error
maxima over many periods), stability (boundedness scan of the closed-form
update).  Flag values override config-file values.  Numbers are written with
17 significant digits so files round-trip doubles losslessly and repeated
runs are byte-identical; momentum columns stay physical (no plot rescaling).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .analysis import (
    TrajectoryRecord,
    convergence_table,
    energy_drift_series,
    linf_error,
    stability_scan,
)
from .exact import HarmonicExact, PendulumExact, harmonic_exact, pendulum_exact
from .harmonic import HarmonicParams, run_harmonic
from .mechanics import StepParams, energy, harmonic_potential, pendulum_potential
from .midpoint import run_midpoint
from .pendulum import NewtonError, run_pendulum

_COMMANDS = ("trajectory", "convergence", "drift", "stability")
_SYSTEMS = ("harmonic", "pendulum")
_SCHEMES = ("lobatto", "midpoint")
_FILE_KEYS = ("system", "scheme", "meshes", "periods", "mass", "omega", "amplitude", "out")
# option that sets each field of the exact-reference records
_OPTION_OF_FIELD = {"m": "mass", "omega": "omega", "amplitude": "amplitude", "q0": "amplitude"}

# the scan covers the upper end of the admissible range at 0.01 spacing
_STABILITY_GRID = tuple((280 + i) / 100.0 for i in range(37))
_STABILITY_STEPS = 2000

_FMT = "{:.16e}".format


class ConfigError(ValueError):
    """Rejected configuration: bad value, unknown key, or broken invariant."""


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    system: str
    scheme: str
    m: float
    omega: float
    amplitude: float
    meshes: tuple
    periods: int
    out: str
    # exact-solution record of (system, amplitude, omega, m); validates them
    reference: HarmonicExact | PendulumExact = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.command not in _COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        if self.system not in _SYSTEMS:
            raise ConfigError(f"unknown system {self.system!r}")
        if self.scheme not in _SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        object.__setattr__(self, "meshes", tuple(int(n) for n in self.meshes))
        if not self.meshes:
            raise ConfigError("need at least one mesh count")
        for n in self.meshes:
            if n < 2:
                raise ConfigError(f"meshes must be at least 2, got {n}")
        if self.command == "convergence":
            for a, b in zip(self.meshes, self.meshes[1:]):
                if b != 2 * a:
                    raise ConfigError(
                        f"convergence meshes must double: {a} then {b}"
                    )
        if self.periods < 1:
            raise ConfigError(f"periods must be at least 1, got {self.periods}")
        if not self.out:
            raise ConfigError("cannot write output: empty path")
        try:
            if self.system == "harmonic":
                reference = HarmonicExact(amplitude=self.amplitude, omega=self.omega, m=self.m)
            else:
                reference = PendulumExact(q0=self.amplitude, omega=self.omega, m=self.m)
        except ValueError as exc:
            raise ConfigError(f"{_OPTION_OF_FIELD[exc.field]}: {exc}") from None
        if self.system == "harmonic" and self.amplitude == 0.0:
            raise ConfigError("harmonic amplitude must be nonzero")
        object.__setattr__(self, "reference", reference)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lobvi",
        description="Variational Lobatto integrator experiments (CSV output).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "trajectory": "node-sampled run of one scheme against the exact solution",
        "convergence": "infinity errors and orders over a doubling mesh family",
        "drift": "running energy-error maxima over many periods",
        "stability": "boundedness scan of the harmonic closed-form update",
    }
    for name in _COMMANDS:
        p = sub.add_parser(name, help=helps[name])
        p.add_argument("--system", choices=_SYSTEMS, help="mechanical system")
        p.add_argument("--scheme", choices=_SCHEMES, help="time integrator")
        p.add_argument("--meshes", help="comma-separated node counts per period")
        p.add_argument("--periods", type=int, help="number of periods to run")
        p.add_argument("--mass", type=float)
        p.add_argument("--omega", type=float, help="angular frequency")
        p.add_argument(
            "--amplitude", type=float, help="initial extension or release angle"
        )
        p.add_argument("--out", help="output CSV path, or - for stdout")
        p.add_argument("--config", help="key=value file; flags take precedence")
    return parser


def _read_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            raw_lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    values = {}
    for lineno, raw in enumerate(raw_lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _FILE_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = (val, f"{path}:{lineno}")
    return values


def _conv_choice(choices):
    def conv(raw, where):
        if raw not in choices:
            raise ConfigError(
                f"{where}: expected one of {', '.join(choices)}, got {raw!r}"
            )
        return raw

    return conv


def _conv_int(raw, where):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{where}: invalid integer {raw!r}") from None


def _conv_float(raw, where):
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{where}: invalid number {raw!r}") from None


def _conv_meshes(raw, where):
    toks = [tok for tok in raw.replace(" ", "").split(",") if tok]
    if not toks:
        raise ConfigError(f"{where}: empty mesh list {raw!r}")
    try:
        return tuple(int(tok) for tok in toks)
    except ValueError:
        raise ConfigError(f"{where}: invalid mesh list {raw!r}") from None


def _conv_str(raw, where):
    return raw


def _pick(flag_value, file_values, key, conv, default):
    if flag_value is not None:
        return flag_value
    if key in file_values:
        raw, where = file_values[key]
        return conv(raw, where)
    return default


def _default_meshes(command: str, system: str) -> tuple:
    if command == "convergence":
        return (10, 20, 40) if system == "harmonic" else (50, 100, 200)
    if command == "drift":
        # step near 0.1 (harmonic period 1) and near 0.025 (pendulum period 1.18)
        return (10,) if system == "harmonic" else (47,)
    return (10,)


def parse_config(argv: Sequence[str]) -> ExperimentConfig:
    """Build a validated config from argv, merging in any --config file."""
    ns = _build_parser().parse_args(list(argv))
    fv = _read_config_file(ns.config) if ns.config else {}

    system = _pick(ns.system, fv, "system", _conv_choice(_SYSTEMS), "harmonic")
    scheme = _pick(ns.scheme, fv, "scheme", _conv_choice(_SCHEMES), "lobatto")
    mass = _pick(ns.mass, fv, "mass", _conv_float, 1.0)
    omega = _pick(ns.omega, fv, "omega", _conv_float, 2.0 * math.pi)
    amplitude = _pick(ns.amplitude, fv, "amplitude", _conv_float, math.pi / 2.0)
    periods = _pick(
        ns.periods, fv, "periods", _conv_int, 1000 if ns.command == "drift" else 1
    )
    if ns.meshes is not None:
        meshes = _conv_meshes(ns.meshes, "--meshes")
    elif "meshes" in fv:
        meshes = _conv_meshes(*fv["meshes"])
    else:
        meshes = _default_meshes(ns.command, system)
    if ns.command == "convergence" and len(meshes) == 1:
        meshes = (meshes[0], 2 * meshes[0], 4 * meshes[0])
    out = _pick(
        ns.out, fv, "out", _conv_str, f"{ns.command}_{system}_{scheme}.csv"
    )
    return ExperimentConfig(
        command=ns.command,
        system=system,
        scheme=scheme,
        m=mass,
        omega=omega,
        amplitude=amplitude,
        meshes=meshes,
        periods=periods,
        out=out,
    )


def _simulate(config: ExperimentConfig, n_per_period: int, periods: int) -> TrajectoryRecord:
    m, w, ref = config.m, config.omega, config.reference
    if config.system == "harmonic":
        span = 2.0 * math.pi / w
        exact_at = lambda t: harmonic_exact(t, ref)
        potential = harmonic_potential(m, w)
    else:
        span = ref.period
        exact_at = lambda t: pendulum_exact(t, ref)
        potential = pendulum_potential(m, w)
    h = span / n_per_period
    n = n_per_period * periods
    start = exact_at(0.0)

    step = StepParams(m=m, h=h, potential=potential)
    discrete = None
    if config.scheme == "midpoint":
        points = run_midpoint(start, step, n)
    elif config.system == "pendulum":
        points, _ = run_pendulum(start, step, n)
    else:
        points, discrete = run_harmonic(start, HarmonicParams(m=m, omega=w, h=h), n)

    times = tuple(j * h for j in range(n + 1))
    return TrajectoryRecord(
        times=times,
        points=tuple(points),
        exact=tuple(exact_at(t) for t in times),
        energies=tuple(energy(pt, potential, m) for pt in points),
        discrete_energies=None if discrete is None else tuple(discrete),
    )


def _trajectory_lines(config: ExperimentConfig) -> tuple:
    record = _simulate(config, config.meshes[0], config.periods)
    has_hd = record.discrete_energies is not None
    lines = ["t,q,p,q_exact,p_exact,H" + (",H_d" if has_hd else "")]
    for i, t in enumerate(record.times):
        pt, ex = record.points[i], record.exact[i]
        cells = [_FMT(t), _FMT(pt.q), _FMT(pt.p), _FMT(ex.q), _FMT(ex.p),
                 _FMT(record.energies[i])]
        if has_hd:
            cells.append(_FMT(record.discrete_energies[i]))
        lines.append(",".join(cells))
    return lines, f"{len(record.times)} node rows"


def _convergence_lines(config: ExperimentConfig) -> tuple:
    want_hd = config.system == "harmonic" and config.scheme == "lobatto"
    errs = {"p": [], "q": [], "H": [], "H_d": []}
    for n in config.meshes:
        record = _simulate(config, n, config.periods)
        for obs in ("p", "q", "H"):
            errs[obs].append(linf_error(record, obs))
        if want_hd:
            errs["H_d"].append(linf_error(record, "H_d"))
    table = convergence_table(
        config.meshes, errs["p"], errs["q"], errs["H"],
        errs["H_d"] if want_hd else None,
    )
    lines = ["meshes,err_p,err_q,err_H,err_Hd,order_p,order_q,order_H"]
    for i, n in enumerate(table.meshes):
        cells = [str(n), _FMT(table.err_p[i]), _FMT(table.err_q[i]),
                 _FMT(table.err_H[i]),
                 _FMT(table.err_Hd[i]) if table.err_Hd is not None else ""]
        if i == 0:
            cells += ["", "", ""]
        else:
            cells += [str(table.order_p[i - 1]), str(table.order_q[i - 1]),
                      str(table.order_H[i - 1])]
        lines.append(",".join(cells))
    summary = (
        f"orders p={table.order_p} q={table.order_q} H={table.order_H}"
    )
    return lines, summary


def _drift_lines(config: ExperimentConfig) -> tuple:
    record = _simulate(config, config.meshes[0], config.periods)
    series, rate = energy_drift_series(record, config.periods)
    observable = "H_d" if record.discrete_energies is not None else "H"
    lines = [
        f"# observable: {observable}",
        f"# rate: {_FMT(rate)} per period (ols slope of running max)",
        "period,err",
    ]
    for i, v in series:
        lines.append(f"{i},{_FMT(v)}")
    return lines, f"{observable} rate {rate:.3e} per period"


def _stability_lines(config: ExperimentConfig) -> tuple:
    scan = stability_scan(config.omega, config.m, _STABILITY_GRID, _STABILITY_STEPS)
    trans = scan.transition
    trans_text = "none" if trans is None else f"{trans[0]:.2f},{trans[1]:.2f}"
    lines = [f"# transition: {trans_text}", "h_omega,bounded"]
    for g, ok in zip(scan.grid, scan.bounded):
        lines.append(f"{g:.2f},{int(ok)}")
    return lines, f"transition {trans_text}"


def _write_lines(out: str, lines) -> None:
    text = "\n".join(lines) + "\n"
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _cannot_write(reason) -> int:
    print(f"config error: cannot write output: {reason}", file=sys.stderr)
    return 2


def run(config: ExperimentConfig) -> int:
    """Execute one experiment; writes the CSV and a summary line on stderr.

    A missing output directory is reported before any simulation runs.
    """
    folder = os.path.dirname(config.out)
    if config.out != "-" and folder and not os.path.isdir(folder):
        return _cannot_write(f"no such directory: {folder!r}")
    builder = {
        "trajectory": _trajectory_lines,
        "convergence": _convergence_lines,
        "drift": _drift_lines,
        "stability": _stability_lines,
    }[config.command]
    lines, summary = builder(config)
    try:
        _write_lines(config.out, lines)
    except OSError as exc:
        return _cannot_write(exc)
    dest = "stdout" if config.out == "-" else config.out
    print(f"{config.command}: {summary} -> {dest}", file=sys.stderr)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        config = parse_config(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(config)
    except NewtonError as exc:
        print(f"solver failure: {exc}; no output written", file=sys.stderr)
        return 3
