import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from pbalm.problem import (
    CrossedBoundsError,
    DimensionMismatchError,
    ProblemSpec,
    box_problem_terms,
    check_feasible,
    eval_objective,
)
from pbalm.problem_gen import gen_basis_pursuit
from conftest import fd_grad, quadratic_problem, ineq_problem, eq_qp_1d


class TestEvalObjective:
    def test_quadratic_no_f2(self):
        prob = quadratic_problem()
        assert eval_objective(prob, np.array([1.0, 2.0])) == 5.0

    def test_outside_box_is_infinite(self):
        f2, prox = box_problem_terms(np.zeros(2), np.ones(2))
        prob = ProblemSpec(n=2, f1=lambda x: 0.0, grad_f1=lambda x: np.zeros(2),
                           f2_value=f2, prox_f2=prox)
        assert eval_objective(prob, np.array([2.0, 0.0])) == np.inf

    def test_qp_with_constant(self):
        # 1/2 x'Qx + q'x + c with Q = 2I, q = 0, c = 3 at x = (1, 1)
        Q = 2.0 * np.eye(2)
        f2, prox = box_problem_terms(np.zeros(2), np.ones(2))
        prob = ProblemSpec(
            n=2,
            f1=lambda x: 0.5 * float(x @ (Q @ x)) + 3.0,
            grad_f1=lambda x: Q @ x,
            f2_value=f2, prox_f2=prox,
        )
        assert eval_objective(prob, np.array([1.0, 1.0])) == pytest.approx(5.0)

    def test_dimension_mismatch(self):
        prob = quadratic_problem(n=2)
        with pytest.raises(DimensionMismatchError):
            eval_objective(prob, np.zeros(3))


class TestCheckFeasible:
    def test_exactly_feasible(self):
        prob = ineq_problem()
        assert check_feasible(prob, np.array([0.0, 0.0]), tol=0.0)

    def test_violated_equality(self):
        prob = eq_qp_1d()
        assert not check_feasible(prob, np.array([1.0 + 1e-3]), tol=1e-5)

    def test_inequality_within_tol(self):
        prob = ineq_problem()
        # g(x) = x1 + x2 - 2 = 1e-6 at (1, 1 + 1e-6)
        assert check_feasible(prob, np.array([1.0, 1.0 + 1e-6]), tol=1e-5)

    def test_outside_domain(self):
        f2, prox = box_problem_terms(np.zeros(1), np.ones(1))
        prob = ProblemSpec(n=1, f1=lambda x: 0.0, grad_f1=lambda x: np.zeros(1),
                           f2_value=f2, prox_f2=prox)
        assert not check_feasible(prob, np.array([2.0]), tol=0.0)

    def test_nan_point_infeasible(self):
        # A NaN residual compares False against any tolerance.
        _, bp, _ = gen_basis_pursuit(20, 64, 3, seed=0)
        assert not check_feasible(bp, np.full(bp.n, np.nan), tol=1e-8)
        assert not check_feasible(ineq_problem(), np.full(2, np.nan), tol=1e-8)

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            check_feasible(quadratic_problem(), np.zeros(2), tol=-1.0)


def prox_box(x, lower, upper):
    """The box prox that box_problem_terms returns, applied once."""
    _, prox = box_problem_terms(lower, upper)
    return prox(x, 1.0)


class TestProxBox:
    def test_clamp(self):
        out = prox_box(np.array([-1.0, 0.5, 3.0]), np.zeros(3), np.ones(3))
        np.testing.assert_array_equal(out, [0.0, 0.5, 1.0])

    def test_identity_inside(self):
        x = np.array([0.2, 0.8])
        np.testing.assert_array_equal(prox_box(x, np.zeros(2), np.ones(2)), x)

    def test_free_variable(self):
        x = np.array([-5.0, 7.0])
        out = prox_box(x, np.full(2, -np.inf), np.full(2, np.inf))
        np.testing.assert_array_equal(out, x)

    def test_crossed_bounds(self):
        # Rejected when the terms are built, before any prox is applied.
        with pytest.raises(CrossedBoundsError):
            box_problem_terms(np.array([0.0, 1.0]), np.array([1.0, 0.0]))

    @given(arrays(float, 4, elements=st.floats(-10, 10)),
           arrays(float, 4, elements=st.floats(-10, 10)))
    def test_nonexpansive(self, x, y):
        lo, hi = np.full(4, -1.0), np.full(4, 1.0)
        px, py = prox_box(x, lo, hi), prox_box(y, lo, hi)
        assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12

    @given(arrays(float, 4, elements=st.floats(-10, 10)))
    def test_idempotent(self, x):
        lo, hi = np.full(4, -1.0), np.full(4, 1.0)
        once = prox_box(x, lo, hi)
        np.testing.assert_array_equal(prox_box(once, lo, hi), once)


class TestBoxProblemTerms:
    def test_prox_output_in_domain(self):
        f2, prox = box_problem_terms(np.zeros(3), np.ones(3))
        out = prox(np.array([-2.0, 0.5, 9.0]), 0.7)
        assert f2(out) == 0.0

    def test_value_outside(self):
        f2, _ = box_problem_terms(np.zeros(1), np.ones(1))
        assert f2(np.array([1.5])) == np.inf

    def test_crossed_bounds(self):
        with pytest.raises(CrossedBoundsError):
            box_problem_terms(np.ones(1), np.zeros(1))


class TestGradients:
    def test_grad_f1_matches_fd(self):
        rng = np.random.default_rng(0)
        for prob in (quadratic_problem(3), ineq_problem(), eq_qp_1d()):
            for _ in range(20):
                x = rng.standard_normal(prob.n)
                g = prob.grad_f1(x)
                fd = fd_grad(prob.f1, x)
                assert np.max(np.abs(g - fd)) <= 1e-5 * (1.0 + np.max(np.abs(g)))

    def test_jacobian_adjoints_match_fd(self):
        rng = np.random.default_rng(1)
        prob = ineq_problem()
        for _ in range(10):
            x = rng.standard_normal(prob.n)
            d = rng.standard_normal(prob.n)
            y = rng.standard_normal(prob.m)
            eps = 1e-6
            lhs = (y @ prob.g(x + eps * d) - y @ prob.g(x)) / eps
            rhs = d @ prob.jac_g_transpose_apply(x, y)
            assert abs(lhs - rhs) <= 1e-4 * (1.0 + abs(rhs))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ProblemSpec(n=0, f1=lambda x: 0.0, grad_f1=lambda x: x)
        with pytest.raises(ValueError):
            ProblemSpec(n=1, p=-1, f1=lambda x: 0.0, grad_f1=lambda x: x)
