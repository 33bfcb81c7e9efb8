"""The Newton step against the 4-stage Lobatto IIIA-IIIB method.

`tests/oracle.py` holds the tableau and a fixed-point solve of its stage
equations.  The step must reproduce it: p_next, q_next and both interior
stages for the pendulum, and the closed-form map for the oscillator.
"""

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

import lobvi.pendulum
from lobvi.harmonic import HarmonicParams, stability_limit, step_harmonic, transfer_matrix
from lobvi.mechanics import PhasePoint, StepParams, harmonic_potential, pendulum_potential
from lobvi.pendulum import newton_step_solve
from oracle import LOBATTO_B, LOBATTO_C, LOBATTO_IIIA, LOBATTO_IIIB, lobatto_phi, prk_step

W = 2.0 * math.pi
EPS = 2.0 ** -52

states = st.floats(-3.0, 3.0, allow_nan=False)


def newton_and_oracle(p, q, h, a_q=LOBATTO_IIIA, a_p=LOBATTO_IIIB):
    """Scaled differences of (q_xi, q_xic, p_next, q_next) between the two."""
    pot = pendulum_potential(1.0, W)
    (q_xi, q_xic, p_next, q_next), _ = newton_step_solve(
        p, q, StepParams(m=1.0, h=h, potential=pot)
    )
    stages, nxt = prk_step(a_q, a_p, pot, PhasePoint(p, q), h)
    sq, sp = max(1.0, abs(q)), max(1.0, abs(p))
    return (
        abs(q_xi - stages[1]) / sq,
        abs(q_xic - stages[2]) / sq,
        abs(p_next - nxt.p) / sp,
        abs(q_next - nxt.q) / sq,
    )


class TestTableau:
    def test_symplecticity_condition(self):
        a, abar, b = LOBATTO_IIIA, LOBATTO_IIIB, LOBATTO_B
        for i in range(4):
            for j in range(4):
                defect = b[i] * abar[i][j] + b[j] * a[j][i] - b[i] * b[j]
                assert abs(defect) <= 2.0 * math.ulp(0.25)

    def test_iiia_is_collocation_at_the_lobatto_nodes(self):
        # row sums are the nodes, the last row is the weights, the first is zero
        for row, c in zip(LOBATTO_IIIA, LOBATTO_C):
            assert abs(sum(row) - c) <= 2.0 * EPS
        assert LOBATTO_IIIA[3] == LOBATTO_B and LOBATTO_IIIA[0] == (0.0,) * 4
        # IIIB: constant first column b_1, zero last column
        assert all(row[0] == LOBATTO_B[0] and row[3] == 0.0 for row in LOBATTO_IIIB)


class TestPendulumStep:
    @given(p=states, q=states, h=st.floats(0.001, 0.03), reverse=st.booleans())
    def test_newton_step_is_the_lobatto_iiia_iiib_step(self, p, q, h, reverse):
        # Newton stops once the scaled residual is at most TOL, so its answer
        # sits within about TOL of the stage solution; the fixed point itself
        # is within an ulp or so of a 40-digit solve
        diffs = newton_and_oracle(p, q, -h if reverse else h)
        assert max(diffs) <= 2.0 * lobvi.pendulum.TOL

    def test_assignments_are_told_apart(self):
        # advancing q by IIIB and p by IIIA instead is off by far more than TOL
        for h in (0.05, 0.02):
            assert max(newton_and_oracle(0.7, 1.2, h)) <= 4.0 * EPS
            swapped = newton_and_oracle(0.7, 1.2, h, LOBATTO_IIIB, LOBATTO_IIIA)
            assert max(swapped) >= 1e-9


class TestOscillatorStep:
    @given(
        m=st.floats(0.5, 2.0),
        hw=st.floats(0.01, 1.0),
        reverse=st.booleans(),
        p=states,
        q=states,
    )
    def test_closed_form_map_is_the_lobatto_iiia_iiib_step(self, m, hw, reverse, p, q):
        h = (-hw if reverse else hw) / W
        want = step_harmonic(PhasePoint(p, q), transfer_matrix(HarmonicParams(m=m, omega=W, h=h)))
        _, got = prk_step(LOBATTO_IIIA, LOBATTO_IIIB, harmonic_potential(m, W), PhasePoint(p, q), h, m)
        scale = max(1.0, abs(p), abs(q), abs(want.p), abs(want.q))
        assert max(abs(got.p - want.p), abs(got.q - want.q)) <= 8.0 * EPS * scale

    def test_stability_function_is_the_tableaus(self):
        # the float solve of the stage equations is itself up to 9e-16 off
        # the exact map, and transfer_matrix up to 5e-16
        for hw in np.linspace(0.05, 3.12, 308):
            want = np.array(transfer_matrix(HarmonicParams(m=1.0, omega=1.0, h=hw)))
            assert np.max(np.abs(lobatto_phi(hw) - want)) <= 2e-15

    def test_stability_limit_from_the_tableau(self):
        # stable while the half trace of the one-step map stays above -1
        def half_trace(hw):
            return np.trace(lobatto_phi(hw)) / 2.0

        assert half_trace(3.112) > -1.0 > half_trace(3.113)
        assert 3.112 < stability_limit() < 3.113
