import math
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lobvi.mechanics import (
    PhasePoint,
    energy,
    harmonic_potential,
    pendulum_potential,
)

qs = st.floats(-6.0, 6.0, allow_nan=False)


def fd(f, q, eps=1e-5):
    return (f(q + eps) - f(q - eps)) / (2.0 * eps)


class TestHarmonicPotential:
    def test_values(self):
        pot = harmonic_potential(2.0, 3.0)
        assert pot.tag == "harmonic"
        assert pot.V(0.0) == 0.0
        assert pot.dV(0.0) == 0.0
        assert abs(pot.V(0.5) - 0.5 * 2.0 * 9.0 * 0.25) < 1e-15
        assert abs(pot.d2V(1.7) - 18.0) < 1e-15

    @given(q=qs)
    def test_derivative_chain(self, q):
        pot = harmonic_potential(1.3, 2.1)
        assert abs(pot.dV(q) - fd(pot.V, q)) < 1e-6
        assert abs(pot.d2V(q) - fd(pot.dV, q)) < 1e-6


class TestPendulumPotential:
    def test_values(self):
        pot = pendulum_potential(1.0, 2.0)
        assert pot.tag == "pendulum"
        assert pot.V(0.0) == 0.0
        assert pot.dV(0.0) == 0.0
        assert abs(pot.V(math.pi) - 2.0 * 4.0) < 1e-14
        assert abs(pot.d2V(0.0) - 4.0) < 1e-15

    @given(q=qs)
    def test_derivative_chain(self, q):
        pot = pendulum_potential(0.7, 1.9)
        assert abs(pot.dV(q) - fd(pot.V, q)) < 1e-6
        assert abs(pot.d2V(q) - fd(pot.dV, q)) < 1e-6

    @pytest.mark.parametrize("q", [1e-10, -1e-10, 3e-9, 1e-150])
    def test_tiny_angle_keeps_full_precision(self, q):
        # 1 - cos q rounds to 0 here, and V's next term, k q^4 / 24, is below rounding
        pot = pendulum_potential(1.0, 2.0)
        want = 0.5 * 4.0 * q * q
        assert abs(pot.V(q) - want) <= 4.0 * sys.float_info.epsilon * want

    @given(q=qs, m=st.sampled_from([0.7, 1.0, 1e300]))
    def test_stiffness_multiplies_last(self, q, m):
        # doubling is exact, so V keeps the bits of 2k sin^2(q/2) wherever 2k is finite
        assert pendulum_potential(m, 2.0).V(q) == 2.0 * (m * 4.0) * math.sin(0.5 * q) ** 2

    def test_stiffness_past_half_the_float_range(self):
        # 2k overflows at k = 1e308, while V stays inside the float range near q = 0
        pot = pendulum_potential(1e308, 1.0)
        assert pot.V(1e-320) == 0.0
        assert pot.V(1e-10) == pytest.approx(5e287, rel=1e-12)

    @given(q=st.floats(-0.05, 0.05))
    def test_small_angle_matches_harmonic(self, q):
        pend = pendulum_potential(1.0, 2.0)
        harm = harmonic_potential(1.0, 2.0)
        assert abs(pend.V(q) - harm.V(q)) < 4.0 * abs(q) ** 4 + 1e-15


def test_harmonic_potential_at_zero_omega_is_zero():
    pot = harmonic_potential(1.0, 0.0)
    for q in (-2.0, 0.0, 5.0):
        assert pot.V(q) == 0.0 and pot.dV(q) == 0.0 and pot.d2V(q) == 0.0


class TestEnergy:
    def test_kinetic_only(self):
        assert energy(PhasePoint(3.0, 0.0), harmonic_potential(2.0, 0.0), 2.0) == 2.25

    def test_momentum_and_mass_past_the_square_root_of_the_float_range(self):
        # p * p overflows at p = 1e200, but H = p^2 / 2m = 5e199 does not
        assert energy(PhasePoint(1e200, 0.0), harmonic_potential(1e200, 0.0), 1e200) == 5e199

    @given(p=st.floats(-5.0, 5.0), q=qs)
    def test_split(self, p, q):
        pot = pendulum_potential(1.0, 2.0)
        got = energy(PhasePoint(p, q), pot, 1.5)
        assert abs(got - (p * p / 3.0 + pot.V(q))) < 1e-12


def test_phase_point_fields():
    pt = PhasePoint(p=1.5, q=-2.5)
    assert pt.p == 1.5 and pt.q == -2.5
    with pytest.raises(Exception):
        pt.p = 0.0
