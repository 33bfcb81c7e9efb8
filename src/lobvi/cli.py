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
from dataclasses import dataclass, field, fields
from itertools import repeat
from typing import Callable, NamedTuple, Optional, Sequence

from .analysis import (
    STABILITY_GRID,
    TrajectoryRecord,
    convergence_table,
    energy_drift_series,
    linf_error,
    mesh_pairs,
    orbit_scale,
    stability_scan,
)
from .exact import HarmonicExact, PendulumExact, harmonic_exact, pendulum_exact
from .harmonic import HarmonicParams, discrete_energy_series, run_harmonic, stability_limit
from .mechanics import StepParams, _require, energy, harmonic_potential, pendulum_potential
from .midpoint import run_midpoint
from .pendulum import NewtonError, run_pendulum

_SYSTEMS = ("harmonic", "pendulum")
_SCHEMES = ("lobatto", "midpoint")
# options that set m and each field of the exact-reference and step records, node time t,
# and the exact orbit's three scales
_OPTION_OF_FIELD = {"m": "mass", "omega": "omega", "amplitude": "amplitude", "q0": "amplitude",
                    "h": "omega, meshes", "t": "omega, periods",
                    **dict.fromkeys(("q(0)", "p(T/4)", "H0"), "mass, omega, amplitude")}

_FMT = "{:.16e}".format


class ConfigError(ValueError):
    """Rejected configuration: bad value, unknown key, or broken invariant."""


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    system: str = "harmonic"
    scheme: str = "lobatto"
    m: float = 1.0
    omega: float = 2.0 * math.pi
    amplitude: float = math.pi / 2.0
    # None: the command's default, from its _COMMANDS row (out: <command>_<system>_<scheme>.csv)
    meshes: tuple | None = None
    periods: int | None = None
    out: str | None = None
    # exact-solution record of (system, amplitude, omega, m); validates them
    reference: HarmonicExact | PendulumExact | None = field(
        init=False, default=None, repr=False, compare=False)
    # StepParams of each mesh count: h is one N-th of the period
    steps: dict | None = field(init=False, default=None, repr=False, compare=False)
    # stderr lines for pendulum Lobatto meshes past the linearized stability limit
    advisories: tuple = field(init=False, default=(), repr=False, compare=False)

    def __post_init__(self):
        row = _COMMANDS.get(self.command)
        if row is None:
            raise ConfigError(f"unknown command {self.command!r}")
        if self.system not in _SYSTEMS:
            raise ConfigError(f"unknown system {self.system!r}")
        if self.scheme not in _SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        if self.out is None:
            object.__setattr__(self, "out", f"{self.command}_{self.system}_{self.scheme}.csv")
        if not self.out:
            raise ConfigError("cannot write output: empty path")
        if not row.meshes:
            # a command that reads no mesh reads no run value either
            return
        meshes = row.meshes[self.system] if self.meshes is None else tuple(self.meshes)
        object.__setattr__(self, "meshes", meshes)
        if self.periods is None:
            object.__setattr__(self, "periods", row.periods)
        for n in (*self.meshes, self.periods):
            if not isinstance(n, int):
                raise ConfigError(f"mesh and period counts must be integers, got {n!r}")
        if not row.doubling and len(self.meshes) != 1:
            raise ConfigError(f"{self.command} takes one mesh count, got {len(self.meshes)}")
        for n in self.meshes:
            if n < 2:
                raise ConfigError(f"meshes must be at least 2, got {n}")
        if row.doubling:
            try:
                mesh_pairs(self.meshes)
            except ValueError as exc:
                raise ConfigError(f"meshes: {exc}") from None
        if self.periods < 1:
            raise ConfigError(f"periods must be at least 1, got {self.periods}")
        try:
            nodes = {n: float(n * self.periods) for n in self.meshes}
        except OverflowError:
            raise ConfigError("periods: the node count meshes * periods is past the "
                              "float range") from None
        try:
            if self.system == "harmonic":
                reference = HarmonicExact(amplitude=self.amplitude, omega=self.omega, m=self.m)
                span = 2.0 * math.pi / self.omega
                potential, exact = harmonic_potential(self.m, self.omega), harmonic_exact
            else:
                reference = PendulumExact(q0=self.amplitude, omega=self.omega, m=self.m)
                span, potential = reference.period, pendulum_potential(self.m, self.omega)
                exact = pendulum_exact
            steps = {n: StepParams(m=self.m, h=span / n, potential=potential) for n in self.meshes}
            if row.build is not _drift_lines:
                # _simulate's last node time; the drift reads no times
                for n, step in steps.items():
                    _require("t", nodes[n] * step.h)
            # one rule for every scheme, before any step: the orbit's scales are floats
            start = exact(0.0, reference)
            _require("q(0)", start.q)
            _require("p(T/4)", exact(0.25 * span, reference).p)
            _require("H0", energy(start, potential, self.m))
        except ValueError as exc:
            raise ConfigError(f"{_OPTION_OF_FIELD[exc.field]}: {exc}") from None
        # h*omega is the step linearized at q = 0, where both orbits are stiffest;
        # past the limit the oscillator blows up and the pendulum loses accuracy
        advisories = []
        for n, step in steps.items():
            hw = step.h * self.omega
            if self.scheme == "lobatto" and hw >= stability_limit():
                text = (f"meshes: {n} nodes per period put h*omega = {hw:.4f} at or past "
                        f"the stability limit {stability_limit():.4f} of the {self.system} "
                        "Lobatto scheme")
                if self.system == "harmonic":
                    raise ConfigError(text)
                advisories.append(f"warning: {text}")
        object.__setattr__(self, "reference", reference)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "advisories", tuple(advisories))


def _choice(choices):
    def conv(raw):
        if raw not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}, got {raw!r}")
        return raw

    return conv


def _reader(read, what):
    """read(raw), or ValueError 'invalid <what>': text that is not ASCII or
    holds `_` is invalid too, where int() and float() would take non-ASCII
    digits and `_` as a digit separator."""
    def conv(raw):
        try:
            if raw.isascii() and "_" not in raw:
                return read(raw)
        except ValueError:
            pass
        raise ValueError(f"invalid {what} {raw!r}")

    return conv


_integer = _reader(int, "integer")
_number = _reader(float, "number")
_mesh_list = _reader(lambda raw: tuple(int(tok) for tok in raw.split(",")), "mesh list")


# each option's converter serves its flag and its config-file key alike
_OPTIONS = {
    "system": (_choice(_SYSTEMS), f"mechanical system: {' or '.join(_SYSTEMS)}"),
    "scheme": (_choice(_SCHEMES), f"time integrator: {' or '.join(_SCHEMES)}"),
    "meshes": (_mesh_list, "comma-separated node counts per period"),
    "periods": (_integer, "number of periods to run"),
    "mass": (_number, "point mass"),
    "omega": (_number, "angular frequency"),
    "amplitude": (_number, "initial extension or release angle"),
    "out": (str, "output CSV path, or - for stdout"),
}


class _SubcommandParser(argparse.ArgumentParser):
    """Sets the arguments it does not recognize aside, as `stray`.

    The top-level parser then returns only those given before the
    subcommand, so each can be reported under the usage line of the
    parser it was given to.
    """

    def parse_known_args(self, args=None, namespace=None):
        ns, stray = super().parse_known_args(args, namespace)
        ns.stray = stray
        return ns, []


def _build_parser() -> tuple:
    """The top-level parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="lobvi",
        description="Variational Lobatto integrator experiments (CSV output).",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_SubcommandParser)
    for name, row in _COMMANDS.items():
        p = sub.add_parser(name, help=row.help)
        for key in row.keys:
            p.add_argument(f"--{key}", help=_OPTIONS[key][1])
        p.add_argument("--config", help="key=value file; flags take precedence")
    return parser, sub.choices


def _read_config_file(path: str, command: str) -> dict:
    """Map each key of a key=value file for `command` to (raw value, path:lineno)."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            raw_lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    values, first_line = {}, {}
    for lineno, raw in enumerate(raw_lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _COMMANDS[command].keys:
            why = "unknown key" if key not in _OPTIONS else f"{command} takes no key"
            raise ConfigError(f"{path}:{lineno}: {why} {key!r}")
        if key in first_line:
            raise ConfigError(f"{path}:{lineno}: repeated key {key!r} "
                              f"(first at line {first_line[key]})")
        first_line[key] = lineno
        values[key] = (val, f"{path}:{lineno}")
    return values


def parse_config(argv: Sequence[str]) -> ExperimentConfig:
    """Build a validated config from argv, merging in any --config file."""
    parser, subparsers = _build_parser()
    ns, stray = parser.parse_known_args(list(argv))
    for given_to, args in ((parser, stray), (subparsers[ns.command], ns.stray)):
        if args:
            given_to.error(f"unrecognized arguments: {' '.join(args)}")
    row = _COMMANDS[ns.command]
    raw = _read_config_file(ns.config, ns.command) if ns.config is not None else {}
    for key in row.keys:
        if getattr(ns, key) is not None:
            raw[key] = (getattr(ns, key), f"--{key}")
    # each option sets the config field of its name, or the one _OPTION_OF_FIELD gives
    field_of = {_OPTION_OF_FIELD.get(f.name, f.name): f.name for f in fields(ExperimentConfig)}
    values = {}
    for key, (text, where) in raw.items():
        try:
            values[field_of[key]] = _OPTIONS[key][0](text)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    if row.doubling and len(values.get("meshes", ())) == 1:
        n = values["meshes"][0]
        values["meshes"] = (n, 2 * n, 4 * n)
    return ExperimentConfig(ns.command, **values)


def _stepper(config: ExperimentConfig, mesh: int) -> tuple:
    """The stepper of the config's system and scheme, the exact solution of its system, and
    the stepper's arguments for `config.periods` periods of `mesh` steps from the exact start."""
    step = config.steps[mesh]
    if config.scheme == "midpoint":
        stepper, params = run_midpoint, step
    elif config.system == "pendulum":
        stepper, params = run_pendulum, step
    else:
        stepper, params = run_harmonic, HarmonicParams(m=step.m, omega=config.omega, h=step.h)
    exact = harmonic_exact if config.system == "harmonic" else pendulum_exact
    return stepper, exact, (exact(0.0, config.reference), params, mesh * config.periods)


def _simulate(config: ExperimentConfig, mesh: int) -> TrajectoryRecord:
    """Run `config.periods` periods of `mesh` steps each and record every node."""
    ref, step = config.reference, config.steps[mesh]
    stepper, exact, args = _stepper(config, mesh)
    run = stepper(*args)
    times = tuple(j * step.h for j in range(len(run.points)))
    return TrajectoryRecord(
        times=times,
        points=run.points,
        exact=tuple(exact(t, ref) for t in times),
        energies=tuple(energy(pt, step.potential, step.m) for pt in run.points),
        discrete_energies=run.discrete_energies,
    )


def _trajectory_lines(config: ExperimentConfig) -> tuple:
    record = _simulate(config, config.meshes[0])
    has_hd = record.discrete_energies is not None
    lines = ["t,q,p,q_exact,p_exact,H" + (",H_d" if has_hd else "")]
    # every cell takes _FMT's spec, so one format call per row writes the same bytes
    row = ",".join(["{:.16e}"] * (7 if has_hd else 6)).format
    hd = zip(record.discrete_energies) if has_hd else repeat(())
    for t, pt, ex, e, d in zip(record.times, record.points, record.exact, record.energies, hd):
        lines.append(row(t, pt.q, pt.p, ex.q, ex.p, e, *d))
    return lines, f"{len(record.times)} node rows"


def _convergence_lines(config: ExperimentConfig) -> tuple:
    errs = {}
    for n in config.meshes:
        record = _simulate(config, n)
        for obs in ("p", "q", "H", "H_d")[:3 if record.discrete_energies is None else 4]:
            errs.setdefault(obs, []).append(linf_error(record, obs))
    # H goes first, to be named before p and q; the finest mesh samples the
    # exact orbit most densely
    scales = {obs: orbit_scale(record, obs) for obs in ("H", "p", "q")}
    try:
        orders = convergence_table(config.meshes, errs, scales)
    except ValueError as exc:
        a, b = exc.meshes
        raise ConfigError(f"no {exc.observable} order from meshes {a} and {b}: {exc}") from None
    lines = ["meshes,err_p,err_q,err_H,err_Hd,order_p,order_q,order_H"]
    for i, n in enumerate(config.meshes):
        cells = [str(n)]
        cells += [_FMT(errs[obs][i]) if obs in errs else "" for obs in ("p", "q", "H", "H_d")]
        # the first row has no order, and one at the roundoff floor is None: both cells stay empty
        row_orders = [None if i == 0 else orders[obs][i - 1] for obs in ("p", "q", "H")]
        lines.append(",".join(cells + ["" if o is None else str(o) for o in row_orders]))
    summary = f"orders p={orders['p']} q={orders['q']} H={orders['H']}"
    return lines, summary.replace("None", "floor")


def _drift_lines(config: ExperimentConfig) -> tuple:
    step = config.steps[config.meshes[0]]
    stepper, _, args = _stepper(config, config.meshes[0])
    if stepper is run_harmonic:
        # the oscillator's Lobatto scheme conserves H_d: fold it without the points
        observable, energies = "H_d", discrete_energy_series(*args)
    else:
        observable = "H"
        energies = [energy(pt, step.potential, step.m) for pt in stepper(*args).points]
    series = energy_drift_series(energies, config.periods)
    lines = [f"# observable: {observable}", f"# reference: {_FMT(energies[0])}", "period,err"]
    for i, v in enumerate(series, 1):
        lines.append(f"{i},{_FMT(v)}")
    return lines, f"{observable} max drift {series[-1]:.3e} after {config.periods} periods"


def _stability_lines(config: ExperimentConfig) -> tuple:
    scan = stability_scan()
    trans = scan.transition
    trans_text = "none" if trans is None else f"{trans[0]:.2f},{trans[1]:.2f}"
    lines = [f"# transition: {trans_text}", "h_omega,bounded"]
    for g, ok in zip(STABILITY_GRID, scan.bounded):
        lines.append(f"{g:.2f},{int(ok)}")
    return lines, f"transition {trans_text}"


class _Command(NamedTuple):
    help: str
    build: Callable  # the CSV lines and the summary of a config
    meshes: dict = {}  # the default meshes by system; {} for a command that reads no mesh
    doubling: bool = False  # reads a doubling mesh family, not one mesh
    periods: int = 1  # the default periods
    keys: tuple = tuple(_OPTIONS)  # the options it reads


_COMMANDS = {
    "trajectory": _Command("node-sampled run of one scheme against the exact solution",
                           _trajectory_lines, {"harmonic": (10,), "pendulum": (10,)}),
    "convergence": _Command("infinity errors and orders over a doubling mesh family",
                            _convergence_lines, {"harmonic": (10, 20, 40),
                                                 "pendulum": (50, 100, 200)}, doubling=True),
    # steps near 0.1 (harmonic period 1) and near 0.025 (pendulum period 1.18)
    "drift": _Command("running energy-error maxima over many periods", _drift_lines,
                      {"harmonic": (10,), "pendulum": (47,)}, periods=1000),
    # the scan steps a fixed grid of h*omega at m = omega = 1: it reads only out
    "stability": _Command("boundedness scan of the harmonic closed-form update",
                          _stability_lines, keys=("out",)),
}


def _write_lines(out: str, lines) -> None:
    text = "\n".join(lines) + "\n"
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def run(config: ExperimentConfig) -> int:
    """Execute one experiment; writes the CSV and a summary line on stderr.

    Raises ConfigError for an output it cannot write (checked before any
    simulation where it can be) and for errors too degenerate for an order.
    """
    if config.out != "-":
        folder = os.path.dirname(config.out)
        if folder and not os.path.isdir(folder):
            raise ConfigError(f"cannot write output: no such directory: {folder!r}")
        if os.path.isdir(config.out):
            raise ConfigError(f"cannot write output: is a directory: {config.out!r}")
    for line in config.advisories:
        print(line, file=sys.stderr)
    lines, summary = _COMMANDS[config.command].build(config)
    try:
        _write_lines(config.out, lines)
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from None
    dest = "stdout" if config.out == "-" else config.out
    print(f"{config.command}: {summary} -> {dest}", file=sys.stderr)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        return run(parse_config(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NewtonError as exc:
        print(f"solver failure: {exc}; no output written", file=sys.stderr)
        return 3
