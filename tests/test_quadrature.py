import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lobvi.quadrature import (
    LOBATTO,
    SQRT5,
    XI,
    assemble_stiffness,
    eval_basis,
    eval_basis_deriv,
    integrate_unit,
    interpolate,
    stiffness_matrix,
)
from lobvi.mechanics import ElementState

RULE = LOBATTO


class TestRule:
    def test_interior_node_value(self):
        assert abs(RULE.nodes[1] - 0.2763932022500210) < 1e-15
        assert RULE.nodes[0] == 0.0 and RULE.nodes[3] == 1.0

    def test_weights(self):
        assert RULE.weights == (1 / 12, 5 / 12, 5 / 12, 1 / 12)
        assert abs(sum(RULE.weights) - 1.0) < 1e-15

    def test_reflection_symmetry(self):
        for i in range(4):
            assert RULE.weights[i] == RULE.weights[3 - i]
            assert abs(RULE.nodes[i] - (1.0 - RULE.nodes[3 - i])) < 1e-16

    def test_node_product_identity(self):
        # xi (1 - xi) = 1/5 pins the interior nodes exactly
        assert abs(XI * (1.0 - XI) - 0.2) < 1e-16
        assert abs(SQRT5 * SQRT5 - 5.0) < 5e-15

    def test_nodes_ascending(self):
        assert all(a < b for a, b in zip(RULE.nodes, RULE.nodes[1:]))


class TestIntegrateUnit:
    def test_constant(self):
        assert integrate_unit(lambda t: 1.0) == 1.0

    def test_degree_five_exact(self):
        assert abs(integrate_unit(lambda t: t ** 5) - 1.0 / 6.0) < 1e-16

    @pytest.mark.parametrize("k", range(6))
    def test_monomials_through_degree_five(self, k):
        assert abs(integrate_unit(lambda t: t ** k) - 1.0 / (k + 1)) <= 1e-15

    def test_degree_six_defect(self):
        got = integrate_unit(lambda t: t ** 6)
        assert abs(got - 43.0 / 300.0) <= 1e-15
        assert abs((got - 1.0 / 7.0) - 1.0 / 2100.0) < 1e-15

    @given(
        coeffs=st.lists(
            st.floats(-10.0, 10.0, allow_nan=False), min_size=1, max_size=6
        )
    )
    def test_random_quintic_exact(self, coeffs):
        f = lambda t: sum(c * t ** k for k, c in enumerate(coeffs))
        exact = sum(c / (k + 1) for k, c in enumerate(coeffs))
        scale = 1.0 + sum(abs(c) for c in coeffs)
        assert abs(integrate_unit(f) - exact) <= 1e-14 * scale


class TestBasis:
    def test_kronecker_at_nodes(self):
        for a, node in enumerate(RULE.nodes):
            vals = eval_basis(node)
            for b in range(4):
                want = 1.0 if a == b else 0.0
                assert abs(vals[b] - want) < 1e-14

    def test_midpoint_symmetry(self):
        vals = eval_basis(0.5)
        assert abs(sum(vals) - 1.0) < 1e-14
        assert abs(vals[0] - vals[3]) < 1e-15
        assert abs(vals[1] - vals[2]) < 1e-15

    def test_partition_of_unity_dense_grid(self):
        for theta in np.linspace(0.0, 1.0, 1000):
            assert abs(sum(eval_basis(float(theta))) - 1.0) <= 1e-14

    @pytest.mark.parametrize("theta", [-0.1, 1.1, -1e-9])
    def test_domain_rejected(self, theta):
        with pytest.raises(ValueError):
            eval_basis(theta)
        with pytest.raises(ValueError):
            eval_basis_deriv(theta)
        with pytest.raises(ValueError):
            interpolate(ElementState(0.0, 0.0, 0.0, 1.0), theta)

    @given(theta=st.floats(0.0, 1.0))
    def test_derivative_components_sum_to_zero(self, theta):
        assert abs(sum(eval_basis_deriv(theta))) <= 1e-13

    def test_derivative_midpoint_antisymmetry(self):
        d = eval_basis_deriv(0.5)
        assert abs(d[0] + d[3]) < 1e-14
        assert abs(d[1] + d[2]) < 1e-14

    @pytest.mark.parametrize("theta", [0.1, 0.37, 0.5, 0.83])
    def test_derivative_against_central_difference(self, theta):
        eps = 1e-6
        lo, hi = eval_basis(theta - eps), eval_basis(theta + eps)
        d = eval_basis_deriv(theta)
        for b in range(4):
            fd = (hi[b] - lo[b]) / (2.0 * eps)
            assert abs(d[b] - fd) < 1e-9


class TestInterpolate:
    @given(c=st.floats(-50.0, 50.0), theta=st.floats(0.0, 1.0))
    def test_constant_element(self, c, theta):
        el = ElementState(c, c, c, c)
        assert abs(interpolate(el, theta) - c) <= 1e-13 * (1.0 + abs(c))

    def test_cubic_in_span(self):
        el = ElementState(*(n ** 3 for n in RULE.nodes))
        assert abs(interpolate(el, 0.37) - 0.37 ** 3) < 1e-14

    def test_kronecker_element(self):
        el = ElementState(0.0, 0.0, 1.0, 0.0)
        assert abs(interpolate(el, RULE.nodes[2]) - 1.0) < 1e-14


class TestStiffness:
    def test_printed_entries(self):
        k = np.array(stiffness_matrix())
        assert abs(k[0, 0] - 13.0 / 3.0) < 1e-14
        assert abs(k[1, 2] + 25.0 / 6.0) < 1e-14
        assert abs(k[1, 1] - 25.0 / 3.0) < 1e-14
        assert abs(k[0, 3] + 1.0 / 6.0) < 1e-14

    def test_symmetry_and_row_sums(self):
        k = np.array(stiffness_matrix())
        assert np.max(np.abs(k - k.T)) < 1e-14
        assert np.max(np.abs(k.sum(axis=1))) < 1e-14

    def test_reflection_structure(self):
        # reversing the node order leaves the quadratic form unchanged
        k = np.array(stiffness_matrix())
        assert np.max(np.abs(k - k[::-1, ::-1])) < 1e-14

    def test_assembled_matches_closed_form(self):
        assembled = np.array(assemble_stiffness())
        gap = np.max(np.abs(assembled - np.array(stiffness_matrix())))
        assert gap <= 1e-14

    def test_positive_semidefinite_with_constant_kernel(self):
        k = np.array(stiffness_matrix())
        evals = np.linalg.eigvalsh(k)
        assert evals[0] > -1e-13
        assert evals[0] < 1e-13
        assert evals[1] > 0.1
        assert np.max(np.abs(k @ np.ones(4))) < 1e-14
