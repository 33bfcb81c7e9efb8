import math

import pytest

from lobvi.analysis import map_jacobian_determinant
from lobvi.exact import HarmonicExact, PendulumExact, harmonic_exact, pendulum_exact
from lobvi.harmonic import HarmonicParams, run_harmonic
from lobvi.mechanics import (
    PhasePoint,
    PotentialModel,
    StepParams,
    harmonic_potential,
    pendulum_potential,
)
from lobvi.midpoint import run_midpoint, step_midpoint
import lobvi.pendulum
from lobvi.pendulum import NewtonError

W = 2.0 * math.pi


def harmonic_mid(h, m=1.0):
    return StepParams(m=m, h=h, potential=harmonic_potential(m, W))


def pendulum_mid(h, m=1.0):
    return StepParams(m=m, h=h, potential=pendulum_potential(m, W))


class TestValidation:
    def test_rejects_bad_params(self):
        pot = harmonic_potential(1.0, W)
        with pytest.raises(ValueError):
            StepParams(m=0.0, h=0.1, potential=pot)
        with pytest.raises(ValueError):
            StepParams(m=1.0, h=0.0, potential=pot)

    def test_run_needs_a_step(self):
        with pytest.raises(ValueError):
            run_midpoint(PhasePoint(0.0, 1.0), harmonic_mid(0.1), 0)


class TestStep:
    def test_equilibrium_fixed_point(self):
        out, used = step_midpoint(PhasePoint(0.0, 0.0), pendulum_mid(0.05))
        assert out.p == 0.0 and out.q == 0.0 and used == 0

    def test_linear_problem_matches_cayley_rotation(self):
        """For V = k q^2 / 2 the midpoint map is exactly the Cayley transform
        of the Hamiltonian flow; check the closed form entrywise."""
        h, m = 0.07, 1.3
        params = StepParams(m=m, h=h, potential=harmonic_potential(m, W))
        z = (h * W / 2.0) ** 2
        for p0, q0 in ((1.0, 0.0), (0.0, 1.0), (-0.4, 0.9)):
            got, _ = step_midpoint(PhasePoint(p0, q0), params)
            k = m * W * W
            p1 = ((1.0 - z) * p0 - h * k * q0) / (1.0 + z)
            q1 = ((1.0 - z) * q0 + h * p0 / m) / (1.0 + z)
            assert abs(got.p - p1) <= 1e-12 * max(1.0, abs(p1))
            assert abs(got.q - q1) <= 1e-12 * max(1.0, abs(q1))

    def test_map_is_symplectic(self):
        params = pendulum_mid(0.02)
        det = map_jacobian_determinant(
            lambda pt: step_midpoint(pt, params)[0], PhasePoint(0.3, 1.1)
        )
        assert abs(det - 1.0) <= 1e-8

    def test_solver_cap_raises(self, monkeypatch):
        params = StepParams(m=1.0, h=0.3, potential=pendulum_potential(1.0, W))
        monkeypatch.setattr(lobvi.pendulum, "TOL", 1e-15)
        monkeypatch.setattr(lobvi.pendulum, "MAX_ITER", 1)
        with pytest.raises(NewtonError):
            step_midpoint(PhasePoint(2.0, 1.0), params)


class TestOrder:
    def test_harmonic_second_order_ratio(self):
        exact = HarmonicExact(amplitude=math.pi / 2.0, omega=W, m=1.0)
        errs = []
        for n in (10, 20):
            h = 1.0 / n
            pts = run_midpoint(PhasePoint(0.0, math.pi / 2.0), harmonic_mid(h), n).points
            err = max(
                abs(pt.q - harmonic_exact(j * h, exact).q)
                for j, pt in enumerate(pts)
            )
            errs.append(err)
        assert abs(errs[0] / errs[1] / 4.0 - 1.0) < 0.1

    def test_pendulum_second_order_ratio(self):
        exact = PendulumExact(q0=math.pi / 2.0, omega=W, m=1.0)
        errs = []
        for n in (50, 100):
            h = exact.period / n
            pts = run_midpoint(PhasePoint(0.0, math.pi / 2.0), pendulum_mid(h), n).points
            err = max(
                abs(pt.q - pendulum_exact(j * h, exact).q)
                for j, pt in enumerate(pts)
            )
            errs.append(err)
        assert abs(errs[0] / errs[1] / 4.0 - 1.0) < 0.1

    def test_sixth_order_scheme_separates_clearly(self):
        """Same mesh, same problem: the Lobatto scheme must beat the midpoint
        baseline by at least a thousandfold at N = 10 on one period."""
        n, h = 10, 0.1
        params = HarmonicParams(m=1.0, omega=W, h=h)
        exact = HarmonicExact(amplitude=math.pi / 2.0, omega=W, m=1.0)
        mid_pts = run_midpoint(PhasePoint(0.0, math.pi / 2.0), harmonic_mid(h), n).points
        lob_pts = run_harmonic(PhasePoint(0.0, math.pi / 2.0), params, n).points
        mid_err = max(
            abs(pt.q - harmonic_exact(j * h, exact).q)
            for j, pt in enumerate(mid_pts)
        )
        lob_err = max(
            abs(pt.q - harmonic_exact(j * h, exact).q)
            for j, pt in enumerate(lob_pts)
        )
        assert mid_err / lob_err >= 1e3


class TestRun:
    def test_shapes(self):
        run = run_midpoint(PhasePoint(0.0, 1.0), harmonic_mid(0.1), 7)
        assert len(run.points) == 8 and len(run.iterations) == 7

    # a linear potential converges in one iteration; the pendulum, released
    # from rest at q0 = 1.5 with 100 steps per period, in two
    @pytest.mark.parametrize(
        "params, start, n, used",
        [
            (harmonic_mid(0.01), PhasePoint(0.0, 1.5), 300, 1),
            (pendulum_mid(PendulumExact(q0=1.5, omega=W, m=1.0).period / 100),
             PhasePoint(0.0, 1.5), 1000, 2),
        ],
        ids=["harmonic", "pendulum"],
    )
    def test_iterations_per_step(self, params, start, n, used):
        assert set(run_midpoint(start, params, n).iterations) == {used}

    def test_failing_step_is_identified(self, monkeypatch):
        params = StepParams(m=1.0, h=0.3, potential=pendulum_potential(1.0, W))
        # V'' = -4 makes the residual's derivative 1 + h^2 V''/4m zero at h = m = 1
        inverted = StepParams(m=1.0, h=1.0, potential=PotentialModel(
            "inverted", lambda q: -2.0 * q * q, lambda q: -4.0 * q, lambda q: -4.0))
        cases = [
            (params, PhasePoint(2.0, 1.0), dict(TOL=1e-15, MAX_ITER=1), "no convergence"),
            (params, PhasePoint(2.0, 1.0), dict(MAX_STEP=1e-12), "diverged"),
            (inverted, PhasePoint(1.0, 0.5), {}, "singular Jacobian"),
        ]
        for step_params, start, constants, reason in cases:
            with monkeypatch.context() as mp, pytest.raises(
                NewtonError, match=r"step \d+ of 5"
            ) as info:
                for name, value in constants.items():
                    mp.setattr(lobvi.pendulum, name, value)
                run_midpoint(start, step_params, 5)
            assert info.value.reason == reason
            assert 1 <= info.value.step <= 5 and info.value.n_steps == 5
