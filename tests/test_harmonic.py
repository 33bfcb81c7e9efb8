import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from lobvi.harmonic import (
    EliminationError,
    HarmonicParams,
    center_residual,
    discrete_energy,
    discrete_lagrangian,
    internal_dofs,
    kinetic_form,
    reduced_lagrangian,
    right_momentum,
    run_harmonic,
    stability_limit,
    step_harmonic,
    taylor_samples,
    transfer_matrix,
    truncation_leading_term,
)
from lobvi.mechanics import ElementState, PhasePoint, harmonic_potential
from lobvi.quadrature import XI, integrate_unit, interpolate, stiffness_matrix

TABLE_PARAMS = HarmonicParams(m=1.0, omega=2.0 * math.pi, h=0.1)

lengths = st.floats(-3.0, 3.0, allow_nan=False)
masses = st.floats(0.2, 5.0)
steps = st.floats(0.02, 0.5)
omegas = st.floats(0.1, 6.0)


def stable_params(draw_m, draw_h, draw_w):
    assume(draw_h * draw_w < 3.11)
    return HarmonicParams(m=draw_m, omega=draw_w, h=draw_h)


class TestParams:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            HarmonicParams(m=0.0, omega=1.0, h=0.1)
        with pytest.raises(ValueError):
            HarmonicParams(m=1.0, omega=-1.0, h=0.1)
        with pytest.raises(ValueError):
            HarmonicParams(m=1.0, omega=1.0, h=0.0)
        for name in ("m", "omega", "h"):
            for bad in (math.nan, math.inf):
                fields = dict(m=1.0, omega=1.0, h=0.1)
                fields[name] = bad
                with pytest.raises(ValueError, match=rf"^{name} must be"):
                    HarmonicParams(**fields)

    def test_zero_frequency_and_reverse_step_allowed(self):
        HarmonicParams(m=1.0, omega=0.0, h=0.1)
        HarmonicParams(m=1.0, omega=1.0, h=-0.1)


class TestInternalDofs:
    def test_free_motion_interpolates_linearly(self):
        q_xi, q_xic = internal_dofs(0.0, 1.0, HarmonicParams(m=1.0, omega=0.0, h=0.3))
        assert abs(q_xi - XI) < 1e-15
        assert abs(q_xic - (1.0 - XI)) < 1e-15

    def test_unit_x_symmetric_endpoints(self):
        # h^2 omega^2 = 1 with equal endpoints gives 290/261 at both nodes
        q_xi, q_xic = internal_dofs(1.0, 1.0, HarmonicParams(m=1.0, omega=1.0, h=1.0))
        assert abs(q_xi - 290.0 / 261.0) < 1e-13
        assert abs(q_xic - 290.0 / 261.0) < 1e-13

    def test_interior_stationarity(self):
        params = TABLE_PARAMS
        q_l, q_r = 0.3, -0.8
        q_xi, q_xic = internal_dofs(q_l, q_r, params)
        d = 1e-3
        for slot in (1, 2):
            def ld(v, slot=slot):
                vals = [q_l, q_xi, q_xic, q_r]
                vals[slot] = v
                return discrete_lagrangian(ElementState(*vals), params)
            center = (q_xi, q_xic)[slot - 1]
            grad = (ld(center + d) - ld(center - d)) / (2.0 * d)
            assert abs(grad) < 1e-10

    @pytest.mark.parametrize("hw", [math.sqrt(10.0), 3.2, 5.5])
    def test_elimination_singularity(self, hw):
        params = HarmonicParams(m=1.0, omega=hw, h=1.0)
        with pytest.raises(EliminationError):
            internal_dofs(0.1, 0.2, params)
        with pytest.raises(EliminationError):
            reduced_lagrangian(0.1, 0.2, params)
        with pytest.raises(EliminationError):
            right_momentum(0.1, 0.2, params)


class TestDiscreteLagrangian:
    def test_zero_element(self):
        assert discrete_lagrangian(ElementState(0, 0, 0, 0), TABLE_PARAMS) == 0.0

    def test_constant_element_is_pure_potential(self):
        params = HarmonicParams(m=1.0, omega=3.0, h=0.2)
        got = discrete_lagrangian(ElementState(1, 1, 1, 1), params)
        assert abs(got - (-params.h * 9.0 / 2.0)) < 1e-14

    @given(
        qs=st.tuples(lengths, lengths, lengths, lengths),
        m=masses, h=steps, w=omegas,
    )
    def test_assembly_oracle(self, qs, m, h, w):
        """Stiffness route: L_d = (m/2h) q^T K q - h * quadrature of V."""
        params = HarmonicParams(m=m, omega=w, h=h)
        el = ElementState(*qs)
        pot = harmonic_potential(m, w)
        vec = np.array(qs)
        kin = m / (2.0 * h) * float(vec @ stiffness_matrix().k @ vec)
        u = h * integrate_unit(lambda th: pot.V(interpolate(el, th)))
        got = discrete_lagrangian(el, params)
        assert abs(got - (kin - u)) <= 1e-11 * (1.0 + abs(kin) + abs(u))

    @given(qs=st.tuples(lengths, lengths, lengths, lengths), m=masses, h=steps)
    def test_kinetic_form_matches_stiffness(self, qs, m, h):
        vec = np.array(qs)
        want = m / (2.0 * h) * float(vec @ stiffness_matrix().k @ vec)
        got = kinetic_form(ElementState(*qs), m, h)
        assert abs(got - want) <= 1e-11 * (1.0 + abs(want))


class TestReducedLagrangian:
    def test_origin(self):
        assert reduced_lagrangian(0.0, 0.0, TABLE_PARAMS) == 0.0

    @given(q_l=lengths, q_r=lengths, m=masses, h=steps, w=omegas)
    def test_substitution_oracle(self, q_l, q_r, m, h, w):
        params = stable_params(m, h, w)
        q_xi, q_xic = internal_dofs(q_l, q_r, params)
        full = discrete_lagrangian(ElementState(q_l, q_xi, q_xic, q_r), params)
        red = reduced_lagrangian(q_l, q_r, params)
        assert abs(red - full) <= 1e-12 * (1.0 + abs(red) + abs(full))

    @given(x=lengths, y=lengths, m=masses, h=steps, w=omegas)
    def test_symmetry(self, x, y, m, h, w):
        params = stable_params(m, h, w)
        a, b = reduced_lagrangian(x, y, params), reduced_lagrangian(y, x, params)
        assert abs(a - b) <= 1e-12 * (1.0 + abs(a))

    def test_free_limit(self):
        params = HarmonicParams(m=1.4, omega=0.0, h=0.25)
        got = reduced_lagrangian(0.2, 1.0, params)
        assert abs(got - 1.4 * 0.8 ** 2 / (2.0 * 0.25)) < 1e-13


class TestRightMomentum:
    def test_free_particle(self):
        params = HarmonicParams(m=2.0, omega=0.0, h=0.5)
        assert abs(right_momentum(1.0, 2.0, params) - 2.0 * 1.0 / 0.5) < 1e-14

    def test_origin(self):
        assert right_momentum(0.0, 0.0, TABLE_PARAMS) == 0.0

    def test_against_finite_difference(self):
        params = TABLE_PARAMS
        q_l, q_r, d = 0.4, 1.2, 1e-3
        fd = (
            reduced_lagrangian(q_l, q_r + d, params)
            - reduced_lagrangian(q_l, q_r - d, params)
        ) / (2.0 * d)
        got = right_momentum(q_l, q_r, params)
        assert abs(got - fd) <= 1e-8 * max(1.0, abs(got))


class TestTransferMatrix:
    def test_free_drift(self):
        tm = transfer_matrix(HarmonicParams(m=2.0, omega=0.0, h=0.3))
        phi = np.array(tm.phi)
        assert np.max(np.abs(phi - np.array([[1.0, 0.0], [0.15, 1.0]]))) < 1e-15

    def test_determinant_over_stable_samples(self):
        count = 0
        for hw in np.linspace(0.01, 3.1, 40):
            for m in (0.5, 1.0, 2.0, 5.0, 10.0):
                tm = transfer_matrix(HarmonicParams(m=m, omega=float(hw), h=1.0))
                det = (tm.a * tm.a - tm.b * tm.c) / (tm.delta * tm.delta)
                assert abs(det - 1.0) <= 1e-13
                count += 1
        assert count == 200

    def test_single_step_tracks_exact_solution(self):
        tm = transfer_matrix(TABLE_PARAMS)
        w = TABLE_PARAMS.omega
        out = step_harmonic(PhasePoint(0.0, math.pi / 2.0), tm)
        assert abs(out.p - (-(math.pi / 2.0) * w * math.sin(w * 0.1))) < 1e-5
        assert abs(out.q - (math.pi / 2.0) * math.cos(w * 0.1)) < 1e-6

    @given(m=masses, h=steps, w=omegas)
    def test_negative_b_in_stable_region(self, m, h, w):
        params = stable_params(m, h, w)
        tm = transfer_matrix(params)
        assert tm.delta > 0.0
        assert -tm.b > 0.0

    def test_stability_flag(self):
        lim = stability_limit()
        assert transfer_matrix(HarmonicParams(m=1, omega=0.99 * lim, h=1)).stable
        assert not transfer_matrix(HarmonicParams(m=1, omega=1.01 * lim, h=1)).stable

    @given(m=masses, h=steps, w=omegas)
    def test_time_reversal(self, m, h, w):
        params = stable_params(m, h, w)
        fwd = np.array(transfer_matrix(params).phi)
        back = np.array(
            transfer_matrix(HarmonicParams(m=m, omega=w, h=-h)).phi
        )
        assert np.max(np.abs(fwd @ back - np.eye(2))) <= 1e-12


class TestStepHarmonic:
    def test_fixed_point(self):
        tm = transfer_matrix(TABLE_PARAMS)
        out = step_harmonic(PhasePoint(0.0, 0.0), tm)
        assert out.p == 0.0 and out.q == 0.0

    def test_bounded_inside_stability_region(self):
        tm = transfer_matrix(HarmonicParams(m=1.0, omega=3.0, h=1.0))
        pt = PhasePoint(0.0, 1.0)
        worst = 1.0
        for _ in range(5000):
            pt = step_harmonic(pt, tm)
            worst = max(worst, abs(pt.p) / 3.0, abs(pt.q))
        assert worst <= 10.0

    def test_update_equations_hold(self):
        """Momentum convention: p_j = -dL_r/dq_l, p_{j+1} = +dL_r/dq_r."""
        params = TABLE_PARAMS
        tm = transfer_matrix(params)
        pt = PhasePoint(0.7, 0.9)
        out = step_harmonic(pt, tm)
        p_right = right_momentum(pt.q, out.q, params)
        # L_r is symmetric, so dL_r/dq_l (q0, q1) = right_momentum(q1, q0)
        p_left = right_momentum(out.q, pt.q, params)
        assert abs(out.p - p_right) <= 1e-12 * max(1.0, abs(out.p))
        assert abs(pt.p + p_left) <= 1e-12 * max(1.0, abs(pt.p))


class TestDiscreteEnergy:
    def test_origin(self):
        assert discrete_energy(PhasePoint(0.0, 0.0), transfer_matrix(TABLE_PARAMS)) == 0.0

    def test_conserved_over_period_table_setup(self):
        _, hds = run_harmonic(PhasePoint(0.0, math.pi / 2.0), TABLE_PARAMS, 10)
        assert max(abs(v - hds[0]) for v in hds) <= 5e-15

    def test_relative_drift_long_run_plain_arithmetic(self):
        tm = transfer_matrix(TABLE_PARAMS)
        pt = PhasePoint(0.0, math.pi / 2.0)
        h0 = discrete_energy(pt, tm)
        worst = 0.0
        for _ in range(1000):
            pt = step_harmonic(pt, tm)
            worst = max(worst, abs(discrete_energy(pt, tm) - h0))
        assert worst <= 1e-12 * abs(h0)

    @given(p=lengths, q=lengths, m=masses, h=steps, w=omegas)
    def test_positive_definite_in_stable_region(self, p, q, m, h, w):
        assume(abs(p) + abs(q) > 1e-3)
        params = stable_params(m, h, w)
        assume(params.omega * params.h > 1e-3)
        hd = discrete_energy(PhasePoint(p, q), transfer_matrix(params))
        assert hd > 0.0


class TestStabilityLimit:
    def test_value(self):
        assert abs(stability_limit() - 3.112717) < 1e-4
        assert stability_limit() == math.sqrt(42.0 - 6.0 * math.sqrt(29.0))
        assert stability_limit() < math.sqrt(10.0)

    def test_spectral_transition(self):
        lim = stability_limit()
        inside = np.linalg.eigvals(
            np.array(transfer_matrix(HarmonicParams(m=1, omega=0.99 * lim, h=1)).phi)
        )
        outside = np.linalg.eigvals(
            np.array(transfer_matrix(HarmonicParams(m=1, omega=1.01 * lim, h=1)).phi)
        )
        assert np.allclose(np.abs(inside), 1.0, atol=1e-9)
        assert np.max(np.abs(outside.imag)) == 0.0
        assert np.max(np.abs(outside)) > 1.0 + 1e-4


class TestTruncation:
    def test_zero_state(self):
        assert truncation_leading_term(TABLE_PARAMS, 0.0) == 0.0

    def test_h_sixth_scaling(self):
        a = truncation_leading_term(HarmonicParams(m=1, omega=2.0, h=0.1), 1.3)
        b = truncation_leading_term(HarmonicParams(m=1, omega=2.0, h=0.2), 1.3)
        assert b == 64.0 * a

    @pytest.mark.parametrize("hw", [0.05, 0.025])
    def test_degree_six_samples_expose_the_constant(self, hw):
        """The shipped diagnostic route: residual / leading term = 1 + x/30."""
        with mp.workdps(40):
            h = mp.mpf(hw)
            params = HarmonicParams(m=1.0, omega=1.0, h=h)
            t0 = mp.mpf("0.3")
            q, v = mp.cos(t0), -mp.sin(t0)
            qm, qc, qp = taylor_samples(q, v, params)
            ratio = center_residual(qm, qc, qp, params) / truncation_leading_term(
                params, qc
            )
            assert 0.95 < float(ratio) < 1.05
            assert abs(float(ratio - (1 + h * h / 30))) < 1e-6

    @pytest.mark.parametrize("hw", [0.05, 0.025])
    def test_exact_samples_leave_quadrature_defect(self, hw):
        """Independent route kept deliberately: true trigonometric samples
        cancel deeper and leave +omega^8 h^6 q / 302400, not the printed
        constant; the two routes must never be merged."""
        with mp.workdps(50):
            h = mp.mpf(hw)
            params = HarmonicParams(m=1.0, omega=1.0, h=h)
            t0 = mp.mpf("0.3")
            res = center_residual(
                mp.cos(t0 - h), mp.cos(t0), mp.cos(t0 + h), params
            )
            ratio = res / truncation_leading_term(params, mp.cos(t0))
            assert abs(float(ratio) + 1.0 / 14.0) < 0.01 / 14.0
            defect = res / (h ** 6 * mp.cos(t0))
            assert abs(float(defect - mp.mpf(1) / 302400)) < 1e-7


class TestTrajectoryStructure:
    def test_three_point_recurrence_on_trajectory(self):
        params = TABLE_PARAMS
        pts, _ = run_harmonic(PhasePoint(0.0, math.pi / 2.0), params, 10)
        qs = [pt.q for pt in pts]
        for j in range(1, len(qs) - 1):
            res = center_residual(qs[j - 1], qs[j], qs[j + 1], params)
            assert abs(res) <= 1e-11 * max(1.0, abs(qs[j]) / params.h ** 2)

    def test_action_stationarity_at_interior_nodes(self):
        params = TABLE_PARAMS
        pts, _ = run_harmonic(PhasePoint(0.0, math.pi / 2.0), params, 10)
        qs = [pt.q for pt in pts]
        d = 1e-3
        for j in range(1, len(qs) - 1):
            def action(v):
                return reduced_lagrangian(qs[j - 1], v, params) + reduced_lagrangian(
                    v, qs[j + 1], params
                )
            grad = (action(qs[j] + d) - action(qs[j] - d)) / (2.0 * d)
            assert abs(grad) < 1e-10

    def test_sixth_order_error_ratio(self):
        w = TABLE_PARAMS.omega
        errs = []
        for n in (10, 20):
            params = HarmonicParams(m=1.0, omega=w, h=1.0 / n)
            pts, _ = run_harmonic(PhasePoint(0.0, math.pi / 2.0), params, n)
            err = max(
                abs(pt.q - (math.pi / 2.0) * math.cos(w * j / n))
                for j, pt in enumerate(pts)
            )
            errs.append(err)
        assert abs(errs[0] / errs[1] / 64.0 - 1.0) < 0.15

    def test_run_shapes(self):
        pts, hds = run_harmonic(PhasePoint(0.0, 1.0), TABLE_PARAMS, 7)
        assert len(pts) == 8 and len(hds) == 8
        with pytest.raises(ValueError):
            run_harmonic(PhasePoint(0.0, 1.0), TABLE_PARAMS, 0)
