import math
import random
import sys

import mpmath as mp
import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import example, given
from hypothesis import strategies as st

import lobvi.exact
from lobvi.exact import (
    HarmonicExact,
    PendulumExact,
    complete_elliptic_K,
    harmonic_exact,
    pendulum_exact,
)
from lobvi.mechanics import (
    PhasePoint,
    energy,
    harmonic_potential,
    pendulum_potential,
)

from oracle import oracle_integrate, pendulum_landen

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
        for zero in (0.0, -0.0):
            with pytest.raises(ValueError, match=r"^amplitude must be"):
                HarmonicExact(amplitude=zero, omega=W, m=1.0)


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
        # at t = 0, q = 2 atan2(sin(q0/2), cos(q0/2)) is the release angle itself
        for q0 in (math.pi / 2.0, 1e-10, 2.5, 3.0, 3.1415):
            assert pendulum_exact(0.0, PendulumExact(q0=q0, omega=W, m=1.0)).q == q0

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

    @pytest.mark.parametrize("q0", [3.1415926535, math.pi - 2e-8, math.nextafter(math.pi, 0.0)])
    def test_rejects_release_whose_modulus_rounds_to_one(self, q0):
        # below pi, yet sin(q0/2) rounds to 1.0, where K and the Landen descent are undefined
        assert q0 < math.pi and math.sin(0.5 * q0) == 1.0
        with pytest.raises(ValueError, match=r"^q0 must be finite and far enough below pi") as exc:
            PendulumExact(q0=q0, omega=W, m=1.0)
        assert exc.value.field == "q0"
        # the largest angle still accepted, about 2.1e-8 below pi
        largest = PendulumExact(q0=3.1415926325163688, omega=W, m=1.0)
        assert largest.modulus == math.nextafter(1.0, 0.0)
        with pytest.raises(ValueError):
            PendulumExact(q0=math.nextafter(largest.q0, 4.0), omega=W, m=1.0)

    def test_modulus_K_is_computed_once_per_record(self, monkeypatch):
        calls, tables = [], []

        def counted(k, kp=None):
            calls.append(k)
            return complete_elliptic_K(k, kp)

        landen = PendulumExact.__dict__["landen"]
        build = landen.func

        def counted_table(params):
            tables.append(params)
            return build(params)

        monkeypatch.setattr(lobvi.exact, "complete_elliptic_K", counted)
        monkeypatch.setattr(landen, "func", counted_table)
        records = [PendulumExact(q0=q0, omega=W, m=1.0) for q0 in (1.0, 2.0)]
        for params in records:
            for j in range(100):
                pendulum_exact(0.01 * j, params)
            assert params.period == params.landen[2] / W
        assert calls == []
        assert tables == records

    @pytest.mark.parametrize(
        "q0", [1e-8, 0.5, 1.5, math.pi / 2.0, 2.5, 3.0, 3.1, 3.13, 3.14, 3.1415,
               3.1415926325163688])
    def test_elliptic_K_against_mpmath_up_to_the_separatrix(self, q0):
        # k' = cos(q0/2) seeds the AGM: rebuilt as sqrt((1 - k)(1 + k)) it
        # put K 1.8e-12 off at q0 = 3.14
        params = PendulumExact(q0=q0, omega=W, m=1.0)
        with mp.workdps(40):
            want = mp.ellipk(mp.sin(mp.mpf(q0) / 2) ** 2)
            assert abs(params.landen[2] / 4 - want) <= 2 * sys.float_info.epsilon * want
        assert params.landen[2] == 4.0 * complete_elliptic_K(math.sin(q0 / 2), math.cos(q0 / 2))

    def test_K_against_mpmath_over_many_release_angles(self):
        # K = pi / (2 a_n) from the descent that also builds the unwinding
        # table; an AGM stopped one average early put K 2.90 eps off at the
        # first named angle.  The second is the worst left, at 2.08 eps.
        rng = random.Random(0)
        angles = [rng.uniform(0.0, math.pi) for _ in range(2000)]
        with mp.workdps(40):
            for q0 in angles + [2.2200860943870238, 2.7104875954698233]:
                try:
                    params = PendulumExact(q0=q0, omega=W, m=1.0)
                except ValueError:
                    continue
                want = mp.ellipk(mp.sin(mp.mpf(q0) / 2) ** 2)
                err = float(abs(params.landen[2] / 4 - want) / want) / sys.float_info.epsilon
                assert err <= 2.25, q0

    @pytest.mark.parametrize("q0", [3.0, 3.1, 3.13, 3.14])
    def test_reference_against_mpmath_near_the_separatrix(self, q0):
        # with K exact and q closed by atan2, what is left is the Landen
        # unwinding's asin near 1: the worst measured errors are 8.3 eps / k'
        # in q (at q0 = 3.0) and 2.8 eps / k' in p
        params = PendulumExact(q0=q0, omega=W, m=1.0)
        with mp.workdps(30):
            k, kp = mp.sin(mp.mpf(q0) / 2), mp.cos(mp.mpf(q0) / 2)
            bound = 12.0 * sys.float_info.epsilon / float(kp)
            for j in range(101):
                t = 3.7 * params.period * j / 100
                u = params.omega * mp.mpf(t)
                sn, cn, dn = (mp.ellipfun(f, u, m=k * k) for f in ("sn", "cn", "dn"))
                got = pendulum_exact(t, params)
                assert abs(got.q - 2 * mp.asin(k * cn / dn)) <= bound
                p_scale = 2 * params.m * params.omega
                assert abs(got.p + p_scale * k * kp * sn / dn) <= bound * p_scale

    @given(
        q0=st.floats(0.0, math.pi, exclude_min=True, exclude_max=True).filter(
            lambda q0: math.sin(0.5 * q0) < 1.0),
        omega=st.floats(1e-3, 1e3),
        m=st.floats(1e-3, 1e3),
        t=st.one_of(st.floats(-10.0, 10.0), st.floats(-1e6, 1e6)),
    )
    @example(q0=math.pi / 2.0, omega=W, m=1.0, t=0.0)
    @example(q0=1.5, omega=W, m=1.0, t=-0.37)
    @example(q0=3.1415926325163688, omega=W, m=2.0, t=1e6)
    @example(q0=5e-324, omega=W, m=1.0, t=0.25)
    @example(q0=1e-8, omega=1e3, m=1e-3, t=-1e6)
    def test_cached_table_matches_the_descent_rebuilt_per_call(self, q0, omega, m, t):
        got = pendulum_exact(t, PendulumExact(q0=q0, omega=omega, m=m))
        want = pendulum_landen(t, q0, omega, m)
        assert (got.p.hex(), got.q.hex()) == (want.p.hex(), want.q.hex())


class TestOracleIntegrate:
    def test_free_motion_is_exact_drift(self):
        out = oracle_integrate(harmonic_potential(2.0, 0.0), PhasePoint(1.2, 0.3), 2.0, 100, m=2.0)
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
            oracle_integrate(harmonic_potential(1.0, 0.0), PhasePoint(0.0, 0.0), 1.0, 0)

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
