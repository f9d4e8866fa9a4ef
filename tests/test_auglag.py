import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pbalm.auglag import (
    Multipliers,
    PenaltyState,
    Subproblem,
    compute_E,
    eval_al,
    eval_pal,
    eval_pal_completed_square,
    grad_al,
    grad_lagrangian,
    grad_pal,
    inf_norm,
    kkt_report,
    natural_residual,
)
from pbalm.outer import update_multipliers
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


def test_inf_norm_empty_is_zero():
    assert inf_norm(np.zeros(0)) == 0.0
    assert inf_norm(np.array([-3.0, 2.0])) == 3.0


class TestEvalPal:
    def test_all_terms_vanish(self):
        prob = ProblemSpec(n=2, f1=lambda x: 0.0, grad_f1=lambda x: np.zeros(2))
        mult = Multipliers(np.zeros(0), np.zeros(0))
        pen = PenaltyState(rho=1.0, nu=1.0, gamma=0.5)
        x = np.array([1.0, -1.0])
        assert eval_pal(Subproblem(prob, mult, pen), x, x) == 0.0

    def test_hand_value_equality(self):
        # f1=x^2, h=x-1, lambda=0, rho=2, gamma=1, v=0, x=1:
        # 1 + 0 + (2/2)*0 + (1/2)*1 = 1.5
        prob = one_d_problem()
        mult = Multipliers(np.zeros(1), np.zeros(0))
        pen = PenaltyState(rho=2.0, nu=1.0, gamma=1.0)
        val = eval_pal(Subproblem(prob, mult, pen), np.array([1.0]), np.zeros(1))
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
        assert eval_pal(Subproblem(prob, mult, pen), x, x) == pytest.approx(-0.5)


class TestEvalAl:
    def test_equals_pal_at_v_eq_x(self):
        prob = mixed_problem()
        rng = np.random.default_rng(2)
        for _ in range(5):
            x = rng.standard_normal(2)
            mult = Multipliers(rng.standard_normal(1), np.abs(rng.standard_normal(2)))
            pen = PenaltyState(rho=1.7, nu=0.3, gamma=0.9)
            sub = Subproblem(prob, mult, pen)
            assert eval_al(sub, x) == eval_pal(sub, x, x)

    def test_hand_value_without_prox(self):
        prob = one_d_problem()
        mult = Multipliers(np.zeros(1), np.zeros(0))
        sub = Subproblem(prob, mult, PenaltyState(rho=2.0, nu=1.0, gamma=1.0))
        assert eval_al(sub, np.array([1.0])) == pytest.approx(1.0)

    def test_feasible_zero_multipliers(self):
        prob = mixed_problem()
        x = np.array([1.0, 1.0])  # h(x)=0, g(x)<0
        mult = Multipliers(np.zeros(1), np.zeros(2))
        sub = Subproblem(prob, mult, PenaltyState(rho=5.0, nu=5.0, gamma=1.0))
        assert eval_al(sub, x) == pytest.approx(prob.f1(x))


class TestGradPal:
    def test_unconstrained_quadratic(self):
        prob = quadratic_problem()
        mult = Multipliers(np.zeros(0), np.zeros(0))
        pen = PenaltyState(rho=1.0, nu=1.0, gamma=0.1)
        x = np.array([1.0, -2.0])
        np.testing.assert_allclose(grad_pal(Subproblem(prob, mult, pen), x, x),
                                   2.0 * x)

    def test_hand_value(self):
        # 1-D: 2*1 + 1*(0 + 2*0) + (1/1)*(1 - 0) = 3
        prob = one_d_problem()
        mult = Multipliers(np.zeros(1), np.zeros(0))
        pen = PenaltyState(rho=2.0, nu=1.0, gamma=1.0)
        g = grad_pal(Subproblem(prob, mult, pen), np.array([1.0]), np.zeros(1))
        assert g[0] == pytest.approx(3.0)

    def test_matches_fd_away_from_kinks(self):
        prob = mixed_problem()
        pen = PenaltyState(rho=1.3, nu=0.7, gamma=0.4)
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 10:
            x = rng.standard_normal(2)
            mult = Multipliers(rng.standard_normal(1), np.abs(rng.standard_normal(2)))
            if np.any(np.abs(pen.nu * prob.g(x) + mult.mu) < 1e-6):
                continue  # resample near kinks of the max term
            v = rng.standard_normal(2)
            sub = Subproblem(prob, mult, pen)
            g = grad_pal(sub, x, v)
            fd = fd_grad(lambda z: eval_pal(sub, z, v), x)
            assert rel_err(g, fd) <= 1e-5
            checked += 1

    def test_grad_al_matches_fd(self):
        prob = mixed_problem()
        rng = np.random.default_rng(4)
        x = rng.standard_normal(2)
        mult = Multipliers(rng.standard_normal(1), np.abs(rng.standard_normal(2)))
        sub = Subproblem(prob, mult, PenaltyState(rho=2.0, nu=3.0, gamma=1.0))
        g = grad_al(sub, x)
        fd = fd_grad(lambda z: eval_al(sub, z), x)
        assert rel_err(g, fd) <= 1e-5


def al_value(prob, x, mult, pen):
    """The augmented Lagrangian at x, written out term by term in the
    evaluators' order of operations."""
    h, g = prob.h(x), prob.g(x)
    shifted = np.maximum(0.0, pen.nu * g + mult.mu)
    val = prob.f1(x)
    val += float(mult.lam.dot(h)) + float((pen.rho * h**2).sum() / 2.0)
    val += float((shifted**2 / (2.0 * pen.nu)).sum()
                 - (mult.mu**2 / (2.0 * pen.nu)).sum())
    return val


def al_grad(prob, x, mult, pen):
    """Its gradient: grad f1 + Jh^T (lam + rho h) + Jg^T [nu g + mu]_+."""
    lam = mult.lam + pen.rho * prob.h(x)
    mu = np.maximum(0.0, pen.nu * prob.g(x) + mult.mu)
    return (prob.grad_f1(x) + prob.jac_h_transpose_apply(x, lam)
            + prob.jac_g_transpose_apply(x, mu))


class TestSubproblem:
    """A Subproblem keeps the estimate [nu g + mu]_+ of the last point it
    was asked for; every value and gradient must still be that of its own
    point and its own multipliers, bit for bit."""

    # g(a) = (-0.5, 1.0) and g(b) = (-3.0, -3.5): the estimate is
    # (0.45, 0.9) at a and (0, 0) at b.
    a, b, v = np.array([1.5, -4.0]), np.array([-1.0, 0.5]), np.array([0.3, 0.2])
    mult = Multipliers(np.array([0.4]), np.array([0.8, 0.2]))
    pen = PenaltyState(rho=1.3, nu=0.7, gamma=0.4)

    @staticmethod
    def same_bits(x, y):
        return np.asarray(x).tobytes() == np.asarray(y).tobytes()

    def test_values_then_gradients_at_two_points(self):
        prob, a, b, v, mult, pen = (mixed_problem(), self.a, self.b, self.v,
                                    self.mult, self.pen)
        sub = Subproblem(prob, mult, pen)
        values = [eval_al(sub, a), eval_al(sub, b)]
        grads = [grad_al(sub, a), grad_al(sub, b)]
        for x, val, grad in zip((a, b), values, grads):
            assert self.same_bits(val, al_value(prob, x, mult, pen))
            assert self.same_bits(grad, al_grad(prob, x, mult, pen))

        def prox_term(x):
            d = x - v
            return float(d.dot(d)) / (2.0 * pen.gamma)

        values = [eval_pal(sub, a, v), eval_pal(sub, b, v)]
        grads = [grad_pal(sub, a, v), grad_pal(sub, b, v)]
        for x, val, grad in zip((a, b), values, grads):
            assert self.same_bits(val, al_value(prob, x, mult, pen) + prox_term(x))
            assert self.same_bits(
                grad, al_grad(prob, x, mult, pen) + (x - v) / pen.gamma)

    def test_rebuilt_after_the_multiplier_step(self):
        prob, a, mult, pen = mixed_problem(), self.a, self.mult, self.pen
        sub = Subproblem(prob, mult, pen)
        before = eval_al(sub, a), grad_al(sub, a)
        mult_new = update_multipliers(mult, pen, prob.h(a), prob.g(a))
        pen_new = PenaltyState(rho=2.6, nu=2.8, gamma=0.4)
        sub = Subproblem(prob, mult_new, pen_new)
        after = eval_al(sub, a), grad_al(sub, a)
        assert self.same_bits(after[0], al_value(prob, a, mult_new, pen_new))
        assert self.same_bits(after[1], al_grad(prob, a, mult_new, pen_new))
        assert after[0] != before[0]

    def test_gradient_is_a_fresh_array_without_constraints(self):
        # grad_pal adds its proximal term in place, so grad_lagrangian
        # copies what grad_f1 returns when there is nothing to add to it.
        stored = np.array([1.0, -2.0])
        prob = ProblemSpec(n=2, f1=lambda x: float(stored.dot(x)),
                           grad_f1=lambda x: stored)
        sub = Subproblem(prob, Multipliers(np.zeros(0), np.zeros(0)),
                         PenaltyState(rho=1.0, nu=1.0, gamma=0.5))
        for _ in range(2):
            grad = grad_pal(sub, np.array([1.0, 1.0]), np.zeros(2))
            np.testing.assert_array_equal(grad, [3.0, 0.0])
        np.testing.assert_array_equal(stored, [1.0, -2.0])


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
        a = eval_pal(Subproblem(prob, mult, pen), x, v)
        b = eval_pal_completed_square(prob, x, mult, pen, v)
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
        assert natural_residual(prob.prox_f2, np.zeros(2), np.zeros(2)) == 0.0

    def test_identity_prox(self):
        prob = quadratic_problem()
        assert natural_residual(prob.prox_f2, np.zeros(2),
                                np.array([3.0, -4.0])) == 4.0

    def test_box_prox(self):
        _, prox = box_problem_terms(np.zeros(1), np.ones(1))
        # x=0, grad=-2: prox(0 - (-2)) = prox(2) = 1, residual |0 - 1| = 1
        assert natural_residual(prox, np.zeros(1), np.array([-2.0])) == 1.0


def report_at(prob, x, mult, epsilon):
    """kkt_report at (x, mult) from the problem's own maps."""
    stationarity = natural_residual(prob.prox_f2, x,
                                    grad_lagrangian(prob, x, mult))
    h = prob.h(x) if prob.p else np.zeros(0)
    g = prob.g(x) if prob.m else np.zeros(0)
    return kkt_report(stationarity, h, g, mult.mu, epsilon)


class TestKktReport:
    def test_exact_kkt_point(self):
        # min x^2 s.t. x = 1: x* = 1, lambda* = -2
        prob = one_d_problem()
        mult = Multipliers(np.array([-2.0]), np.zeros(0))
        rep = report_at(prob, np.array([1.0]), mult, epsilon=0.0)
        assert rep.stationarity == 0.0
        assert rep.eq_infeas == 0.0
        assert rep.ineq_infeas == 0.0
        assert rep.complementarity_ok
        assert rep.is_eps_kkt

    def test_unconstrained_minimizer(self):
        prob = quadratic_problem()
        mult = Multipliers(np.zeros(0), np.zeros(0))
        rep = report_at(prob, np.zeros(2), mult, epsilon=0.0)
        assert rep.is_eps_kkt

    def test_complementarity_violation(self):
        prob = ProblemSpec(
            n=1, m=1,
            f1=lambda x: 0.0, grad_f1=lambda x: np.zeros(1),
            g=lambda x: np.array([-0.5]),
            jac_g_transpose_apply=lambda x, y: np.zeros(1),
        )
        mult = Multipliers(np.zeros(0), np.array([0.3]))
        rep = report_at(prob, np.zeros(1), mult, epsilon=0.1)
        assert not rep.complementarity_ok
        assert not rep.is_eps_kkt

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            kkt_report(0.0, np.zeros(0), np.zeros(0), np.zeros(0),
                       epsilon=-1.0)

    def test_nan_epsilon_rejected(self):
        with pytest.raises(ValueError, match="epsilon"):
            kkt_report(0.0, np.zeros(0), np.zeros(0), np.zeros(0),
                       epsilon=np.nan)
