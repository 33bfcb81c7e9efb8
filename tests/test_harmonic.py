import math
import struct
import sys
from decimal import Context, Decimal, Inexact, localcontext
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from lobvi import compensated as dd
from lobvi import harmonic
from lobvi.exact import HarmonicExact, harmonic_exact
from lobvi.harmonic import (
    EliminationError,
    HarmonicParams,
    center_residual,
    discrete_energy,
    discrete_energy_series,
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
from lobvi.mechanics import ElementState, PhasePoint, StepParams, harmonic_potential
from lobvi.pendulum import discrete_lagrangian_nl
from lobvi.quadrature import XI, integrate_unit, interpolate, stiffness_matrix
from oracle import (
    exact_coefficients,
    exact_fold,
    fold_by_products,
    nearest_float,
    reference_fold,
)

TABLE_PARAMS = HarmonicParams(m=1.0, omega=2.0 * math.pi, h=0.1)

lengths = st.floats(-3.0, 3.0, allow_nan=False)
masses = st.floats(0.2, 5.0)
steps = st.floats(0.02, 0.5)
omegas = st.floats(0.1, 6.0)


def fold_inputs(test):
    """Fold inputs up to |q| = 1e200, and examples at the edges of H_d's rounding.

    H_d underflows to 0.0 and to -0.0 at |q| = 1e-200, is 0 at omega = 0,
    overflows to inf at |q| = 1e200 (the drift reads inf - inf = nan), and
    sits one ulp below and at the largest float at q ~ 9.87e153; omega =
    1e-300 at h ~ 2e300 is among the examples too.
    """
    w = 2.0 * math.pi
    test = example(amplitude=-1e200, w=w, m=1.0, h=-0.1, n_steps=10)(test)
    test = example(amplitude=1e200, w=w, m=1.0, h=0.1, n_steps=10)(test)
    test = example(amplitude=1e-200, w=w, m=1.0, h=0.1, n_steps=10)(test)
    test = example(amplitude=1e-200, w=w, m=1.0, h=-0.1, n_steps=10)(test)
    test = example(amplitude=1.5, w=w, m=1.0, h=-0.1, n_steps=10)(test)
    test = example(amplitude=1.5, w=0.0, m=1.0, h=0.1, n_steps=10)(test)
    test = example(amplitude=9.86673910958119e153, w=w, m=1.0, h=0.1, n_steps=10)(test)
    test = example(
        amplitude=9.86673910958119e153, w=w, m=1.0000000000000002, h=0.1, n_steps=10
    )(test)
    test = example(
        amplitude=math.pi / 2.0, w=1e-300, m=1.0, h=(2.0 * math.pi / 1e-300) / 3, n_steps=3
    )(test)
    return given(
        amplitude=st.one_of(lengths, st.floats(-1e200, 1e200)),
        w=st.floats(0.0, 10.0),
        m=st.floats(1e-3, 1e3),
        h=st.one_of(st.floats(-2.0, -1e-6), st.floats(1e-6, 2.0)),
        n_steps=st.integers(1, 50),
    )(test)


def element_action(element, params):
    """The oscillator's element action: discrete_lagrangian_nl with V = m omega^2 q^2 / 2."""
    pot = harmonic_potential(params.m, params.omega)
    return discrete_lagrangian_nl(element, StepParams(m=params.m, h=params.h, potential=pot))


def bits(v):
    return struct.pack("<d", v)


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
                return element_action(ElementState(*vals), params)
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
        assert element_action(ElementState(0, 0, 0, 0), TABLE_PARAMS) == 0.0

    def test_constant_element_is_pure_potential(self):
        params = HarmonicParams(m=1.0, omega=3.0, h=0.2)
        got = element_action(ElementState(1, 1, 1, 1), params)
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
        kin = m / (2.0 * h) * float(vec @ np.array(stiffness_matrix()) @ vec)
        u = h * integrate_unit(lambda th: pot.V(interpolate(el, th)))
        got = element_action(el, params)
        assert abs(got - (kin - u)) <= 1e-11 * (1.0 + abs(kin) + abs(u))

    @given(qs=st.tuples(lengths, lengths, lengths, lengths), m=masses, h=steps)
    def test_kinetic_form_matches_stiffness(self, qs, m, h):
        vec = np.array(qs)
        want = m / (2.0 * h) * float(vec @ np.array(stiffness_matrix()) @ vec)
        got = kinetic_form(ElementState(*qs), m, h)
        assert abs(got - want) <= 1e-11 * (1.0 + abs(want))


class TestReducedLagrangian:
    def test_origin(self):
        assert reduced_lagrangian(0.0, 0.0, TABLE_PARAMS) == 0.0

    @given(q_l=lengths, q_r=lengths, m=masses, h=steps, w=omegas)
    # a resting element at large m/h: both routes once cancelled big terms
    @example(q_l=3.0, q_r=3.0, m=3.0, h=0.02, w=0.25)
    def test_substitution_oracle(self, q_l, q_r, m, h, w):
        params = stable_params(m, h, w)
        q_xi, q_xic = internal_dofs(q_l, q_r, params)
        full = element_action(ElementState(q_l, q_xi, q_xic, q_r), params)
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
        phi = np.array(transfer_matrix(HarmonicParams(m=2.0, omega=0.0, h=0.3)))
        assert np.max(np.abs(phi - np.array([[1.0, 0.0], [0.15, 1.0]]))) < 1e-15

    def test_determinant_over_stable_samples(self):
        # floats within 1e-13 of det = 1; the same Horner forms in rationals hit it exactly
        for kind, bound in ((float, 1e-13), (Fraction, 0)):
            count = 0
            for hw in np.linspace(0.01, 3.1, 40):
                for m in (0.5, 1.0, 2.0, 5.0, 10.0):
                    params = HarmonicParams(m=kind(m), omega=kind(float(hw)), h=kind(1))
                    (a, b), (c, d) = transfer_matrix(params)
                    assert type(a) is kind
                    assert abs(a * d - b * c - 1) <= bound
                    count += 1
            assert count == 200

    def test_single_step_tracks_exact_solution(self):
        phi = transfer_matrix(TABLE_PARAMS)
        w = TABLE_PARAMS.omega
        out = step_harmonic(PhasePoint(0.0, math.pi / 2.0), phi)
        assert abs(out.p - (-(math.pi / 2.0) * w * math.sin(w * 0.1))) < 1e-5
        assert abs(out.q - (math.pi / 2.0) * math.cos(w * 0.1)) < 1e-6

    @given(m=masses, h=steps, w=omegas)
    def test_negative_b_in_stable_region(self, m, h, w):
        params = stable_params(m, h, w)
        (_, b), (c, _) = transfer_matrix(params)
        assert c > 0.0
        assert -b > 0.0

    def test_stability_flag(self):
        # the verdict |h| omega < stability_limit() holds where the half-trace
        # Phi11 of the map lies inside (-1, 1), below the re-entrant window
        for scale in (0.9, 0.99, 0.999, 1.001, 1.01):
            params = HarmonicParams(m=1, omega=scale * stability_limit(), h=1)
            (a, _), _ = transfer_matrix(params)
            assert (abs(a) < 1.0) == (abs(params.h) * params.omega < stability_limit())

    @given(m=masses, h=steps, w=omegas)
    def test_time_reversal(self, m, h, w):
        params = stable_params(m, h, w)
        fwd = np.array(transfer_matrix(params))
        back = np.array(transfer_matrix(HarmonicParams(m=m, omega=w, h=-h)))
        assert np.max(np.abs(fwd @ back - np.eye(2))) <= 1e-12

    @given(m=masses, h=steps, w=st.one_of(st.just(0.0), omegas))
    @example(m=1.0, h=0.1, w=2.0 * math.pi)
    @example(m=2.0, h=0.3, w=0.0)
    def test_decimal_fields_are_evaluated_in_decimal(self, m, h, w):
        """The Decimal map rounds to the 50-digit ratios within 1 ulp.

        Its diagonal is one value, and the float half-trace, which decides
        stability, is within 4 ulp(1) of it.  The float off-diagonal entries
        carry the rounding of their Horner forms and are several ulp off.
        """
        params = HarmonicParams(m=m, omega=w, h=h)
        (fl, _), _ = transfer_matrix(params)
        with localcontext(Context(prec=34)):
            (a, b), (c, d) = transfer_matrix(HarmonicParams(Decimal(m), Decimal(w), Decimal(h)))
            c_free = Decimal(h) / Decimal(m)
        assert all(isinstance(v, Decimal) for v in (a, b, c, d))
        assert a == d
        delta, *coefficients = exact_coefficients(params)
        with mp.workdps(50):
            ratios = [v / delta for v in coefficients]
        for v, ref in zip((a, b, c), ratios):
            assert abs(float(v) - nearest_float(ref)) <= math.ulp(float(v))
        assert abs(float(a) - fl) <= 4.0 * math.ulp(1.0)
        if w == 0.0:
            assert ((a, b), (c, d)) == ((1, 0), (c_free, 1))


class TestStepHarmonic:
    def test_fixed_point(self):
        out = step_harmonic(PhasePoint(0.0, 0.0), transfer_matrix(TABLE_PARAMS))
        assert out.p == 0.0 and out.q == 0.0

    def test_bounded_inside_stability_region(self):
        phi = transfer_matrix(HarmonicParams(m=1.0, omega=3.0, h=1.0))
        pt = PhasePoint(0.0, 1.0)
        worst = 1.0
        for _ in range(5000):
            pt = step_harmonic(pt, phi)
            worst = max(worst, abs(pt.p) / 3.0, abs(pt.q))
        assert worst <= 10.0

    def test_update_equations_hold(self):
        """Momentum convention: p_j = -dL_r/dq_l, p_{j+1} = +dL_r/dq_r."""
        params = TABLE_PARAMS
        pt = PhasePoint(0.7, 0.9)
        out = step_harmonic(pt, transfer_matrix(params))
        p_right = right_momentum(pt.q, out.q, params)
        # L_r is symmetric, so dL_r/dq_l (q0, q1) = right_momentum(q1, q0)
        p_left = right_momentum(out.q, pt.q, params)
        assert abs(out.p - p_right) <= 1e-12 * max(1.0, abs(out.p))
        assert abs(pt.p + p_left) <= 1e-12 * max(1.0, abs(pt.p))


class TestDiscreteEnergy:
    def test_origin(self):
        assert discrete_energy(PhasePoint(0.0, 0.0), transfer_matrix(TABLE_PARAMS)) == 0.0

    def test_conserved_over_period_table_setup(self):
        hds = run_harmonic(PhasePoint(0.0, math.pi / 2.0), TABLE_PARAMS, 10).discrete_energies
        assert max(abs(v - hds[0]) for v in hds) <= 5e-15

    def test_relative_drift_long_run_plain_arithmetic(self):
        phi = transfer_matrix(TABLE_PARAMS)
        pt = PhasePoint(0.0, math.pi / 2.0)
        h0 = discrete_energy(pt, phi)
        worst = 0.0
        for _ in range(1000):
            pt = step_harmonic(pt, phi)
            worst = max(worst, abs(discrete_energy(pt, phi) - h0))
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
            np.array(transfer_matrix(HarmonicParams(m=1, omega=0.99 * lim, h=1)))
        )
        outside = np.linalg.eigvals(
            np.array(transfer_matrix(HarmonicParams(m=1, omega=1.01 * lim, h=1)))
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
        pts = run_harmonic(PhasePoint(0.0, math.pi / 2.0), params, 10).points
        qs = [pt.q for pt in pts]
        for j in range(1, len(qs) - 1):
            res = center_residual(qs[j - 1], qs[j], qs[j + 1], params)
            assert abs(res) <= 1e-11 * max(1.0, abs(qs[j]) / params.h ** 2)

    def test_action_stationarity_at_interior_nodes(self):
        params = TABLE_PARAMS
        pts = run_harmonic(PhasePoint(0.0, math.pi / 2.0), params, 10).points
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
            pts = run_harmonic(PhasePoint(0.0, math.pi / 2.0), params, n).points
            err = max(
                abs(pt.q - (math.pi / 2.0) * math.cos(w * j / n))
                for j, pt in enumerate(pts)
            )
            errs.append(err)
        assert abs(errs[0] / errs[1] / 64.0 - 1.0) < 0.15

    def test_run_shapes(self):
        run = run_harmonic(PhasePoint(0.0, 1.0), TABLE_PARAMS, 7)
        assert len(run.points) == 8 and len(run.discrete_energies) == 8
        assert len(discrete_energy_series(PhasePoint(0.0, 1.0), TABLE_PARAMS, 7)) == 8
        for fold in (run_harmonic, discrete_energy_series):
            with pytest.raises(ValueError):
                fold(PhasePoint(0.0, 1.0), TABLE_PARAMS, 0)


class TestFold:
    """run_harmonic against the oscillator fold in 50-digit arithmetic.

    The fold carries 34 digits, so H_d, a sum of two terms of one sign,
    rounds to the float nearest the 50-digit value.  A point's absolute
    error grows by about 1e-34 of the orbit's size per step, which is more
    than half an ulp of a component that passes close to zero.  The draws
    and examples reach where the double-double fold's low words underflow
    (p, q near 1e-308, or near 1e-154 for H_d), so that fold is no oracle
    here.
    """

    states = st.one_of(lengths, st.floats(-1e-150, 1e-150))

    @given(
        m=masses,
        w=omegas,
        hw=st.floats(0.001, 3.11),
        reverse=st.booleans(),
        p=states,
        q=states,
    )
    @example(m=1.0, w=2.0 * math.pi, hw=0.2 * math.pi, reverse=False, p=0.0, q=math.pi / 2.0)
    @example(m=2.5, w=3.0, hw=3.11, reverse=True, p=-0.0, q=0.0)
    @example(m=0.2, w=0.1, hw=0.001, reverse=True, p=-0.0, q=-0.0)
    @example(m=1.0, w=2.0 * math.pi, hw=2.7835636298836652, reverse=False, p=1e-310, q=-2.2e-308)
    @example(m=2.5, w=3.0, hw=1.5, reverse=True, p=5.41e-154, q=1.55e-156)
    def test_matches_exact_fold(self, m, w, hw, reverse, p, q):
        h = -hw / w if reverse else hw / w
        params = HarmonicParams(m=m, omega=w, h=h)
        start = PhasePoint(p, q)
        run = run_harmonic(start, params, 200)
        ref_pts, ref_hds = exact_fold(start, params, 200)
        assert len(run.points) == len(ref_pts) == 201
        # == rather than bits: mpmath has no signed zero
        assert run.discrete_energies == [nearest_float(v) for v in ref_hds]
        with mp.workdps(60):
            for k in range(2):
                size = max(abs(ref[k]) for ref in ref_pts)
                for pt, ref in zip(run.points, ref_pts):
                    err = abs(mp.mpf(pt[k]) - ref[k])
                    assert err <= mp.mpf(math.ulp(pt[k])) / 2 + 1e-30 * size

    def test_bitwise_equal_to_double_double_fold_on_cli_inputs(self):
        """Table 1's meshes and drift over the benchmark's amplitudes.

        A 28-digit fold already moves a point next to a zero crossing of
        one of these runs (N = 40 at amplitude 1.2, for one).
        """
        w = 2.0 * math.pi
        amplitudes = [math.pi / 2.0] + [round(1.2 + 0.02 * k, 2) for k in range(36)]
        cases = [(amp, n, 1) for amp in amplitudes for n in (10, 20, 40)]
        cases += [(amp, 10, 100) for amp in (1.2, 1.5, 1.9)]
        for amplitude, n, periods in cases:
            start = harmonic_exact(0.0, HarmonicExact(amplitude=amplitude, omega=w, m=1.0))
            params = HarmonicParams(m=1.0, omega=w, h=(2.0 * math.pi / w) / n)
            run = run_harmonic(start, params, n * periods)
            ref_pts, ref_hds = reference_fold(start, params, n * periods)
            assert [(bits(pt.p), bits(pt.q)) for pt in run.points] == [
                (bits(pt.p), bits(pt.q)) for pt in ref_pts
            ]
            assert [bits(v) for v in run.discrete_energies] == [bits(v) for v in ref_hds]

    @fold_inputs
    def test_energy_series_is_the_folds_energy_column(self, amplitude, w, m, h, n_steps):
        params = HarmonicParams(m=m, omega=w, h=h)
        start = PhasePoint(0.0, amplitude)
        want = run_harmonic(start, params, n_steps).discrete_energies
        got = discrete_energy_series(start, params, n_steps)
        assert [v.hex() for v in got] == [v.hex() for v in want]

    @fold_inputs
    def test_folds_match_the_written_out_products(self, amplitude, w, m, h, n_steps):
        # c p and b q, formed once per node, are the same rounded products
        params = HarmonicParams(m=m, omega=w, h=h)
        start = PhasePoint(0.0, amplitude)
        want_points, want_energies = fold_by_products(start, params, n_steps)
        run = run_harmonic(start, params, n_steps)
        assert [(pt.p.hex(), pt.q.hex()) for pt in run.points] == [
            (pt.p.hex(), pt.q.hex()) for pt in want_points
        ]
        want = [v.hex() for v in want_energies]
        assert [v.hex() for v in run.discrete_energies] == want
        assert [v.hex() for v in discrete_energy_series(start, params, n_steps)] == want

    def test_huge_step_tiny_frequency_stays_finite(self):
        # three nodes per period at omega = 1e-300: h omega = 2 pi / 3, but
        # h alone is 2e300, past what a Dekker split of h or p can take
        w = 1e-300
        params = HarmonicParams(m=1.0, omega=w, h=(2.0 * math.pi / w) / 3)
        run = run_harmonic(PhasePoint(0.0, math.pi / 2.0), params, 3)
        assert all(math.isfinite(v) for pt in run.points for v in pt)
        assert abs(run.points[-1].q - math.pi / 2.0) < 1e-3
        hds = run.discrete_energies
        assert hds[0] > 0.0 and hds == [hds[0]] * 4

    def test_loop_makes_no_compensated_calls(self, monkeypatch):
        calls = {"n": 0}

        def counted(fn):
            def wrapper(*args):
                calls["n"] += 1
                return fn(*args)

            return wrapper

        for name, value in list(vars(dd).items()):
            if callable(value) and getattr(value, "__module__", None) == dd.__name__:
                monkeypatch.setattr(dd, name, counted(value))
        for n_steps in (10, 1000):
            run_harmonic(PhasePoint(0.3, 1.0), TABLE_PARAMS, n_steps)
        assert calls["n"] == 0


def _even(x: float) -> bool:
    """Whether the significand of x ends in a 0 bit."""
    return struct.unpack("<q", struct.pack("<d", x))[0] & 1 == 0


class TestFloatInterval:
    """The open interval of decimals that float() rounds to f."""

    @pytest.mark.parametrize(
        "f",
        # the last is the float below 2**-1021, whose midpoints have the most
        # digits (768) of any float's
        [1.0, -2.5, 5e-324, 2.2250738585072014e-308, 1e300, math.nextafter(2.0**-1021, 0.0)],
    )
    def test_bounds_are_the_ties_between_f_and_its_neighbours(self, f):
        lo, hi = harmonic._float_interval(f)
        fine = Context(prec=1000)
        for bound, toward in ((lo, -math.inf), (hi, math.inf)):
            neighbour = math.nextafter(f, toward)
            inside = fine.next_toward(bound, Decimal(f))
            outside = fine.next_toward(bound, Decimal(toward))
            assert float(inside).hex() == f.hex()
            assert float(outside).hex() == neighbour.hex()
            # a tie: float() breaks it to the even significand, the strict test leaves it alone
            assert float(bound).hex() == (f if _even(f) else neighbour).hex()
            assert not lo < bound < hi

    @pytest.mark.parametrize(
        "f", [0.0, -0.0, math.inf, -math.inf, math.nan, sys.float_info.max, -sys.float_info.max]
    )
    def test_empty_at_zero_non_finite_and_the_largest_float(self, f):
        lo, hi = harmonic._float_interval(f)
        assert not lo < hi

    def test_its_context_raises_instead_of_rounding(self, monkeypatch):
        # 0.1's midpoints have 55 digits
        monkeypatch.setattr(harmonic._EXACT, "prec", 54)
        with pytest.raises(Inexact):
            harmonic._float_interval(0.1)

    @pytest.mark.parametrize(
        "m, want", [(1.0, 1.7976931348623153e308), (1.0000000000000002, sys.float_info.max)]
    )
    def test_fold_examples_reach_the_largest_floats(self, m, want):
        # the fold_inputs examples at q ~ 9.87e153 stay one ulp below and at the largest float
        params = HarmonicParams(m=m, omega=2.0 * math.pi, h=0.1)
        hds = discrete_energy_series(PhasePoint(0.0, 9.86673910958119e153), params, 10)
        assert hds == [want] * 11
