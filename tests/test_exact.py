import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special

import lobvi.exact
from lobvi.exact import (
    HarmonicExact,
    PendulumExact,
    complete_elliptic_K,
    harmonic_exact,
    oracle_integrate,
    pendulum_exact,
)
from lobvi.mechanics import (
    PhasePoint,
    energy,
    free_potential,
    harmonic_potential,
    pendulum_potential,
)

W = 2.0 * math.pi


class TestHarmonicExact:
    def test_release_state(self):
        params = HarmonicExact(amplitude=math.pi / 2.0, omega=W, m=1.0)
        start = harmonic_exact(0.0, params)
        assert start.p == 0.0 and start.q == math.pi / 2.0

    def test_half_period_inversion(self):
        params = HarmonicExact(amplitude=math.pi / 2.0, omega=W, m=1.0)
        mid = harmonic_exact(0.5, params)
        assert abs(mid.q + math.pi / 2.0) < 1e-14
        assert abs(mid.p) < 1e-13

    def test_energy_is_conserved_along_the_formula(self):
        params = HarmonicExact(amplitude=1.0, omega=1.0, m=1.0)
        pot = harmonic_potential(1.0, 1.0)
        h0 = energy(harmonic_exact(0.0, params), pot, 1.0)
        for t in np.linspace(0.0, 10.0, 100):
            pt = harmonic_exact(float(t), params)
            assert abs(energy(pt, pot, 1.0) - h0) < 1e-14

    def test_energy_at_experiment_parameters(self):
        params = HarmonicExact(amplitude=math.pi / 2.0, omega=W, m=1.0)
        pot = harmonic_potential(1.0, W)
        h0 = energy(harmonic_exact(0.0, params), pot, 1.0)
        for t in np.linspace(0.0, 1.0, 100):
            pt = harmonic_exact(float(t), params)
            assert abs(energy(pt, pot, 1.0) - h0) < 1e-12 * h0

    def test_validation(self):
        with pytest.raises(ValueError):
            HarmonicExact(amplitude=1.0, omega=0.0, m=1.0)
        with pytest.raises(ValueError):
            HarmonicExact(amplitude=1.0, omega=W, m=0.0)
        for name in ("amplitude", "omega", "m"):
            for bad in (math.nan, math.inf):
                fields = dict(amplitude=1.0, omega=W, m=1.0)
                fields[name] = bad
                with pytest.raises(ValueError, match=rf"^{name} must be"):
                    HarmonicExact(**fields)


class TestCompleteEllipticK:
    def test_zero_modulus(self):
        assert abs(complete_elliptic_K(0.0) - math.pi / 2.0) < 1e-15

    def test_known_value(self):
        # K(sin(pi/4)), the quarter-period constant of the 90-degree pendulum
        assert abs(complete_elliptic_K(math.sin(math.pi / 4.0)) - 1.854074677301372) < 1e-14

    def test_monotone_in_modulus(self):
        grid = [complete_elliptic_K(k) for k in np.linspace(0.0, 0.999, 40)]
        assert all(b > a for a, b in zip(grid, grid[1:]))

    def test_domain(self):
        for bad in (-0.1, 1.0, 1.5, math.inf):
            with pytest.raises(ValueError):
                complete_elliptic_K(bad)

    def test_against_scipy(self):
        # scipy parametrizes by m = k^2
        for k in np.linspace(0.0, 0.99, 34):
            ours = complete_elliptic_K(float(k))
            ref = float(scipy.special.ellipk(float(k) ** 2))
            assert abs(ours - ref) <= 1.5e-14 * ref

    def test_against_direct_quadrature(self):
        for k in (0.3, math.sin(math.pi / 4.0), 0.9):
            ref, err = scipy.integrate.quad(
                lambda th: 1.0 / math.sqrt(1.0 - (k * math.sin(th)) ** 2),
                0.0,
                math.pi / 2.0,
            )
            assert abs(complete_elliptic_K(k) - ref) <= max(1e-13, 10.0 * err)


class TestPendulumExact:
    PARAMS = PendulumExact(q0=math.pi / 2.0, omega=W, m=1.0)

    def test_release_state(self):
        start = pendulum_exact(0.0, self.PARAMS)
        assert abs(start.p) < 1e-15
        assert abs(start.q - math.pi / 2.0) < 1e-15

    def test_half_period_inversion(self):
        mid = pendulum_exact(0.5 * self.PARAMS.period, self.PARAMS)
        assert abs(mid.q + math.pi / 2.0) < 1e-13
        assert abs(mid.p) < 1e-12

    def test_periodicity(self):
        t0 = 0.37
        a = pendulum_exact(t0, self.PARAMS)
        b = pendulum_exact(t0 + 3.0 * self.PARAMS.period, self.PARAMS)
        assert abs(a.q - b.q) < 1e-11
        assert abs(a.p - b.p) < 1e-11

    def test_small_angle_limit_is_harmonic(self):
        q0 = 0.05
        pend = PendulumExact(q0=q0, omega=W, m=1.0)
        harm = HarmonicExact(amplitude=q0, omega=W, m=1.0)
        for t in np.linspace(0.0, 1.0, 25):
            a = pendulum_exact(float(t), pend)
            b = harmonic_exact(float(t), harm)
            assert abs(a.q - b.q) <= 2.5e-3 * q0
            assert abs(a.p - b.p) <= 2.5e-3 * q0 * W

    def test_energy_matches_release_value(self):
        pot = pendulum_potential(1.0, W)
        want = W * W * (1.0 - math.cos(math.pi / 2.0))
        for t in np.linspace(0.0, 2.0 * self.PARAMS.period, 80):
            pt = pendulum_exact(float(t), self.PARAMS)
            assert abs(energy(pt, pot, 1.0) - want) <= 1e-13 * want

    def test_against_scipy_ellipj(self):
        k = self.PARAMS.modulus
        kp = math.cos(math.pi / 4.0)
        for t in np.linspace(0.0, self.PARAMS.period, 50):
            u = W * float(t)
            sn, cn, dn, _ = scipy.special.ellipj(u, k * k)
            q_ref = 2.0 * math.asin(min(1.0, max(-1.0, k * cn / dn)))
            p_ref = -2.0 * k * kp * W * sn / dn
            got = pendulum_exact(float(t), self.PARAMS)
            assert abs(got.q - q_ref) <= 2e-12
            assert abs(got.p - p_ref) <= 2e-11

    def test_period_value(self):
        want = 4.0 * complete_elliptic_K(math.sin(math.pi / 4.0)) / W
        assert self.PARAMS.period == want
        assert abs(want - 1.180340599016096) < 1e-14

    def test_validation(self):
        with pytest.raises(ValueError):
            PendulumExact(q0=0.0, omega=W, m=1.0)
        with pytest.raises(ValueError):
            PendulumExact(q0=math.pi, omega=W, m=1.0)
        with pytest.raises(ValueError):
            PendulumExact(q0=1.0, omega=0.0, m=1.0)
        with pytest.raises(ValueError):
            PendulumExact(q0=1.0, omega=W, m=-1.0)
        for name in ("q0", "omega", "m"):
            for bad in (math.nan, math.inf):
                fields = dict(q0=1.0, omega=W, m=1.0)
                fields[name] = bad
                with pytest.raises(ValueError, match=rf"^{name} must be"):
                    PendulumExact(**fields)

    def test_modulus_K_is_computed_once_per_record(self, monkeypatch):
        calls = []

        def counted(k):
            calls.append(k)
            return complete_elliptic_K(k)

        monkeypatch.setattr(lobvi.exact, "complete_elliptic_K", counted)
        params = PendulumExact(q0=1.0, omega=W, m=1.0)
        for j in range(100):
            pendulum_exact(0.01 * j, params)
        assert len(calls) <= 1


class TestOracleIntegrate:
    def test_free_motion_is_exact_drift(self):
        out = oracle_integrate(free_potential(), PhasePoint(1.2, 0.3), 2.0, 100, m=2.0)
        assert abs(out.p - 1.2) < 1e-15
        assert abs(out.q - (0.3 + 2.0 * 1.2 / 2.0)) < 1e-14

    def test_harmonic_agreement(self):
        params = HarmonicExact(amplitude=1.0, omega=W, m=1.0)
        got = oracle_integrate(
            harmonic_potential(1.0, W), PhasePoint(0.0, 1.0), 1.0, 100000
        )
        want = harmonic_exact(1.0, params)
        assert abs(got.q - want.q) < 1e-11
        assert abs(got.p - want.p) < 1e-10

    def test_fourth_order_richardson(self):
        pot = pendulum_potential(1.0, W)
        start = PhasePoint(0.0, math.pi / 2.0)
        ref = oracle_integrate(pot, start, 0.5, 51200)
        errs = []
        for n in (100, 200):
            got = oracle_integrate(pot, start, 0.5, n)
            errs.append(math.hypot(got.p - ref.p, got.q - ref.q))
        assert 12.0 <= errs[0] / errs[1] <= 20.0

    def test_needs_a_step(self):
        with pytest.raises(ValueError):
            oracle_integrate(free_potential(), PhasePoint(0.0, 0.0), 1.0, 0)

    def test_pendulum_formula_agrees_with_oracle(self):
        """Independent confirmation of the elliptic closed form: march RK4
        once across two periods and compare at a handful of checkpoints."""
        params = self.EXACT = PendulumExact(q0=math.pi / 2.0, omega=W, m=1.0)
        pot = pendulum_potential(1.0, W)
        t_end = 2.0 * params.period
        n = 200000
        h = t_end / n
        checkpoints = {int(round(frac * n)): None for frac in np.linspace(0.1, 1.0, 10)}
        pt = pendulum_exact(0.0, params)
        worst = 0.0
        for j in range(1, n + 1):
            pt = oracle_integrate(pot, pt, h, 1)
            if j in checkpoints:
                ref = pendulum_exact(j * h, params)
                worst = max(worst, abs(pt.q - ref.q), abs(pt.p - ref.p) / W)
        assert worst < 1e-11
