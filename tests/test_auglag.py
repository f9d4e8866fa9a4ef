import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pbalm.auglag import (
    Multipliers,
    PenaltyState,
    as_weight,
    compute_E,
    eval_al,
    eval_pal,
    eval_pal_completed_square,
    grad_al,
    grad_pal,
    inf_norm,
    kkt_report,
    natural_residual,
)
from pbalm.problem import ProblemSpec, box_problem_terms
from conftest import fd_grad, rel_err, quadratic_problem, eq_qp_1d, ineq_problem


def one_d_problem():
    """n=1, f1 = x^2, h = x - 1, no inequalities."""
    return eq_qp_1d()


def mixed_problem():
    """n=2 with one equality and two inequalities, all smooth."""
    return ProblemSpec(
        n=2, p=1, m=2,
        f1=lambda x: float(x @ x) + float(np.sin(x[0])),
        grad_f1=lambda x: 2.0 * x + np.array([np.cos(x[0]), 0.0]),
        h=lambda x: np.array([x[0] * x[1] - 1.0]),
        jac_h_transpose_apply=lambda x, y: np.array([x[1], x[0]]) * y[0],
        g=lambda x: np.array([x[0] - 2.0, -x[1] - 3.0]),
        jac_g_transpose_apply=lambda x, y: np.array([y[0], -y[1]]),
        name="mixed",
    )


class TestAsWeight:
    def test_scalar_broadcast(self):
        np.testing.assert_array_equal(as_weight(2.0, 3), [2.0, 2.0, 2.0])

    def test_vector_passthrough(self):
        np.testing.assert_array_equal(as_weight(np.array([1.0, 3.0]), 2), [1.0, 3.0])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            as_weight(0.0, 1)

    def test_wrong_shape(self):
        with pytest.raises(ValueError):
            as_weight(np.ones(3), 2)


def test_inf_norm_empty_is_zero():
    assert inf_norm(np.zeros(0)) == 0.0
    assert inf_norm(np.array([-3.0, 2.0])) == 3.0


class TestEvalPal:
    def test_all_terms_vanish(self):
        prob = ProblemSpec(n=2, f1=lambda x: 0.0, grad_f1=lambda x: np.zeros(2))
        mult = Multipliers(np.zeros(0), np.zeros(0))
        pen = PenaltyState(rho=1.0, nu=1.0, gamma=0.5)
        x = np.array([1.0, -1.0])
        assert eval_pal(prob, x, mult, pen, x) == 0.0

    def test_hand_value_equality(self):
        # f1=x^2, h=x-1, lambda=0, rho=2, gamma=1, v=0, x=1:
        # 1 + 0 + (2/2)*0 + (1/2)*1 = 1.5
        prob = one_d_problem()
        mult = Multipliers(np.zeros(1), np.zeros(0))
        pen = PenaltyState(rho=2.0, nu=1.0, gamma=1.0)
        val = eval_pal(prob, np.array([1.0]), mult, pen, np.zeros(1))
        assert val == pytest.approx(1.5)

    def test_hand_value_inequality_terms(self):
        # m=1, g=-3, mu=1, nu=1: (1/2)[1*(-3)+1]_+^2 - (1/2)*1 = -0.5
        prob = ProblemSpec(
            n=1, m=1,
            f1=lambda x: 0.0, grad_f1=lambda x: np.zeros(1),
            g=lambda x: np.array([-3.0]),
            jac_g_transpose_apply=lambda x, y: np.zeros(1),
        )
        mult = Multipliers(np.zeros(0), np.array([1.0]))
        pen = PenaltyState(rho=1.0, nu=1.0, gamma=1.0)
        x = np.zeros(1)
        assert eval_pal(prob, x, mult, pen, x) == pytest.approx(-0.5)

    def test_nonpositive_gamma_rejected(self):
        prob = one_d_problem()
        mult = Multipliers(np.zeros(1), np.zeros(0))
        pen = PenaltyState(rho=1.0, nu=1.0, gamma=0.0)
        with pytest.raises(ValueError):
            eval_pal(prob, np.ones(1), mult, pen, np.zeros(1))


class TestEvalAl:
    def test_equals_pal_at_v_eq_x(self):
        prob = mixed_problem()
        rng = np.random.default_rng(2)
        for _ in range(5):
            x = rng.standard_normal(2)
            mult = Multipliers(rng.standard_normal(1), np.abs(rng.standard_normal(2)))
            pen = PenaltyState(rho=1.7, nu=0.3, gamma=0.9)
            assert eval_al(prob, x, mult, pen.rho, pen.nu) == eval_pal(
                prob, x, mult, pen, x
            )

    def test_hand_value_without_prox(self):
        prob = one_d_problem()
        mult = Multipliers(np.zeros(1), np.zeros(0))
        assert eval_al(prob, np.array([1.0]), mult, 2.0, 1.0) == pytest.approx(1.0)

    def test_feasible_zero_multipliers(self):
        prob = mixed_problem()
        x = np.array([1.0, 1.0])  # h(x)=0, g(x)<0
        mult = Multipliers(np.zeros(1), np.zeros(2))
        assert eval_al(prob, x, mult, 5.0, 5.0) == pytest.approx(prob.f1(x))


class TestGradPal:
    def test_unconstrained_quadratic(self):
        prob = quadratic_problem()
        mult = Multipliers(np.zeros(0), np.zeros(0))
        pen = PenaltyState(rho=1.0, nu=1.0, gamma=0.1)
        x = np.array([1.0, -2.0])
        np.testing.assert_allclose(grad_pal(prob, x, mult, pen, x), 2.0 * x)

    def test_hand_value(self):
        # 1-D: 2*1 + 1*(0 + 2*0) + (1/1)*(1 - 0) = 3
        prob = one_d_problem()
        mult = Multipliers(np.zeros(1), np.zeros(0))
        pen = PenaltyState(rho=2.0, nu=1.0, gamma=1.0)
        g = grad_pal(prob, np.array([1.0]), mult, pen, np.zeros(1))
        assert g[0] == pytest.approx(3.0)

    def test_matches_fd_away_from_kinks(self):
        prob = mixed_problem()
        pen = PenaltyState(rho=1.3, nu=0.7, gamma=0.4)
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 10:
            x = rng.standard_normal(2)
            mult = Multipliers(rng.standard_normal(1), np.abs(rng.standard_normal(2)))
            nu_v = as_weight(pen.nu, prob.m)
            if np.any(np.abs(nu_v * prob.g(x) + mult.mu) < 1e-6):
                continue  # resample near kinks of the max term
            v = rng.standard_normal(2)
            g = grad_pal(prob, x, mult, pen, v)
            fd = fd_grad(lambda z: eval_pal(prob, z, mult, pen, v), x)
            assert rel_err(g, fd) <= 1e-5
            checked += 1

    def test_grad_al_matches_fd(self):
        prob = mixed_problem()
        rng = np.random.default_rng(4)
        x = rng.standard_normal(2)
        mult = Multipliers(rng.standard_normal(1), np.abs(rng.standard_normal(2)))
        g = grad_al(prob, x, mult, 2.0, 3.0)
        fd = fd_grad(lambda z: eval_al(prob, z, mult, 2.0, 3.0), x)
        assert rel_err(g, fd) <= 1e-5


class TestCompletedSquare:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_identity_random(self, seed):
        rng = np.random.default_rng(seed)
        prob = mixed_problem()
        x = rng.standard_normal(2)
        v = rng.standard_normal(2)
        mult = Multipliers(rng.standard_normal(1), np.abs(rng.standard_normal(2)))
        pen = PenaltyState(
            rho=float(10.0 ** rng.uniform(-3, 3)),
            nu=float(10.0 ** rng.uniform(-3, 3)),
            gamma=float(10.0 ** rng.uniform(-2, 1)),
        )
        a = eval_pal(prob, x, mult, pen, v)
        b = eval_pal_completed_square(prob, x, mult, pen, v)
        assert rel_err(a, b) <= 1e-10

    def test_identity_vector_penalties(self):
        rng = np.random.default_rng(7)
        prob = mixed_problem()
        x = rng.standard_normal(2)
        mult = Multipliers(rng.standard_normal(1), np.abs(rng.standard_normal(2)))
        pen = PenaltyState(rho=np.array([2.5]), nu=np.array([0.5, 4.0]), gamma=0.3)
        a = eval_pal(prob, x, mult, pen, np.zeros(2))
        b = eval_pal_completed_square(prob, x, mult, pen, np.zeros(2))
        assert rel_err(a, b) <= 1e-10


class TestComputeE:
    def test_componentwise(self):
        E = compute_E(np.array([-2.0, 0.5]), np.array([2.0, 6.0]), 2.0)
        np.testing.assert_allclose(E, [1.0, -0.5])

    def test_feasible_zero_mu(self):
        E = compute_E(np.array([-1.0, -2.0]), np.zeros(2), 1.0)
        np.testing.assert_array_equal(E, np.zeros(2))

    def test_empty(self):
        E = compute_E(np.zeros(0), np.zeros(0), 1.0)
        assert E.size == 0
        assert inf_norm(E) == 0.0


class TestNaturalResidual:
    def test_fixed_point(self):
        prob = quadratic_problem()
        assert natural_residual(prob, np.zeros(2), np.zeros(2)) == 0.0

    def test_identity_prox(self):
        prob = quadratic_problem()
        assert natural_residual(prob, np.zeros(2), np.array([3.0, -4.0])) == 4.0

    def test_box_prox(self):
        f2, prox = box_problem_terms(np.zeros(1), np.ones(1))
        prob = ProblemSpec(n=1, f1=lambda x: 0.0, grad_f1=lambda x: np.zeros(1),
                           f2_value=f2, prox_f2=prox)
        # x=0, grad=-2: prox(0 - (-2)) = prox(2) = 1, residual |0 - 1| = 1
        assert natural_residual(prob, np.zeros(1), np.array([-2.0])) == 1.0


class TestKktReport:
    def test_exact_kkt_point(self):
        # min x^2 s.t. x = 1: x* = 1, lambda* = -2
        prob = one_d_problem()
        mult = Multipliers(np.array([-2.0]), np.zeros(0))
        rep = kkt_report(prob, np.array([1.0]), mult, epsilon=0.0)
        assert rep.stationarity == 0.0
        assert rep.eq_infeas == 0.0
        assert rep.ineq_infeas == 0.0
        assert rep.complementarity_ok
        assert rep.is_eps_kkt

    def test_unconstrained_minimizer(self):
        prob = quadratic_problem()
        mult = Multipliers(np.zeros(0), np.zeros(0))
        rep = kkt_report(prob, np.zeros(2), mult, epsilon=0.0)
        assert rep.is_eps_kkt

    def test_complementarity_violation(self):
        prob = ProblemSpec(
            n=1, m=1,
            f1=lambda x: 0.0, grad_f1=lambda x: np.zeros(1),
            g=lambda x: np.array([-0.5]),
            jac_g_transpose_apply=lambda x, y: np.zeros(1),
        )
        mult = Multipliers(np.zeros(0), np.array([0.3]))
        rep = kkt_report(prob, np.zeros(1), mult, epsilon=0.1)
        assert not rep.complementarity_ok
        assert not rep.is_eps_kkt

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            kkt_report(quadratic_problem(), np.zeros(2),
                       Multipliers(np.zeros(0), np.zeros(0)), epsilon=-1.0)
