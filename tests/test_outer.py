import dataclasses

import numpy as np
import pytest

from pbalm.auglag import Multipliers, PenaltyState
from pbalm.inner import InnerConfig
from pbalm.outer import (
    GrowthFn,
    InfeasibleStartError,
    OuterConfig,
    SolveStatus,
    Variant,
    run,
    select_reference,
    update_gamma,
    update_lambda,
    update_mu,
    update_nu,
    update_rho,
)
from pbalm.problem import DimensionMismatchError, check_feasible, eval_objective
from pbalm.problem_gen import gen_basis_pursuit, make_random_eq_qp, qp_problem
from conftest import (box_qp_1d, eq_qp_1d, ineq_problem, neg_exp_problem,
                      quadratic_problem, simplex_qp)


def tight_cfg(**kw):
    base = dict(
        stop_tol=1e-7,
        tau_schedule=lambda k: max(1e-8, 0.1 / (k + 1) ** 3),
        max_outer=100,
    )
    base.update(kw)
    return OuterConfig(**base)


class TestGrowthFn:
    def test_power_requires_alpha_above_one(self):
        with pytest.raises(ValueError):
            GrowthFn.power(1.0)

    def test_power_values(self):
        phi = GrowthFn.power(4.0)
        assert phi(3) == 81.0
        assert phi(1) == 1.0

    def test_constant_and_zero(self):
        assert GrowthFn.constant(5.0)(17) == 5.0
        assert GrowthFn.zero()(17) == 0.0
        with pytest.raises(ValueError):
            GrowthFn.constant(-1.0)


class TestConfig:
    def test_beta_range(self):
        with pytest.raises(ValueError):
            OuterConfig(beta=1.0)

    def test_xi_range(self):
        with pytest.raises(ValueError):
            OuterConfig(xi1=0.5)

    def test_resolved_defaults(self):
        cfg = OuterConfig(rho0=2e-3, nu0=3e-3, gamma0=0.2).resolved()
        assert cfg.rho_hat == 2e-3
        assert cfg.nu_hat == 3e-3
        assert cfg.gamma_hat == 0.2

    def test_alm_normalization(self):
        cfg = OuterConfig(variant=Variant.ALM, xi1=10.0, xi2=10.0).resolved()
        assert cfg.phi == GrowthFn.zero()
        assert not cfg.require_feasible_start


class TestMultiplierUpdates:
    def test_update_lambda(self):
        mult = Multipliers(np.array([0.0]), np.zeros(0))
        out = update_lambda(mult, 2.0, np.array([3.0]))
        np.testing.assert_array_equal(out.lam, [6.0])

    def test_update_lambda_feasible_unchanged(self):
        mult = Multipliers(np.array([1.5]), np.zeros(0))
        out = update_lambda(mult, 2.0, np.array([0.0]))
        np.testing.assert_array_equal(out.lam, [1.5])

    def test_update_lambda_vector_rho(self):
        mult = Multipliers(np.zeros(2), np.zeros(0))
        out = update_lambda(mult, np.array([1.0, 10.0]), np.array([1.0, 1.0]))
        np.testing.assert_array_equal(out.lam, [1.0, 10.0])

    def test_update_mu_clipped(self):
        mult = Multipliers(np.zeros(0), np.array([1.0]))
        out = update_mu(mult, 2.0, np.array([-1.0]))
        np.testing.assert_array_equal(out.mu, [0.0])

    def test_update_mu_growth(self):
        mult = Multipliers(np.zeros(0), np.array([1.0]))
        out = update_mu(mult, 2.0, np.array([0.5]))
        np.testing.assert_array_equal(out.mu, [2.0])

    def test_update_mu_stays_zero(self):
        mult = Multipliers(np.zeros(0), np.zeros(2))
        out = update_mu(mult, 1.0, np.array([-1.0, -0.5]))
        np.testing.assert_array_equal(out.mu, [0.0, 0.0])


class TestPenaltyUpdates:
    def test_rho_unchanged_on_decrease(self):
        cfg = OuterConfig(beta=0.5).resolved()
        assert update_rho(1e-3, 0.4, 1.0, cfg, 0) == 1e-3

    def test_rho_power_growth(self):
        cfg = OuterConfig(rho0=1e-3, xi1=1.0, phi=GrowthFn.power(4.0)).resolved()
        # violation at k=2: max{1 * 1e-3, 1e-3 * 3^4} = 0.081
        assert update_rho(1e-3, 1.0, 1.0, cfg, 2) == pytest.approx(0.081)

    def test_rho_geometric_alm(self):
        cfg = OuterConfig(variant=Variant.ALM, rho0=1e-3,
                          xi1=10.0, xi2=10.0).resolved()
        assert update_rho(1e-3, 1.0, 1.0, cfg, 2) == pytest.approx(0.01)

    def test_nu_zero_new_never_grows(self):
        cfg = OuterConfig().resolved()
        assert update_nu(1e-3, 0.0, 5.0, cfg, 3) == 1e-3
        assert update_nu(1e-3, 0.0, 0.0, cfg, 3) == 1e-3

    def test_nu_power_growth(self):
        cfg = OuterConfig(nu0=1e-3, xi2=1.0, phi=GrowthFn.power(12.0)).resolved()
        # violation at k=1: 1e-3 * 2^12 = 4.096
        assert update_nu(1e-3, 1.0, 0.1, cfg, 1) == pytest.approx(4.096)

    def test_gamma_distance_dominates(self):
        cfg = OuterConfig(delta=1.0, gamma0=0.1, phi=GrowthFn.power(4.0)).resolved()
        x0 = np.zeros(1)
        x = np.array([2.0])  # squared distance 4; phi term 0.1 * 2^4 = 1.6
        assert update_gamma(x0, x, cfg, 1) == pytest.approx(4.0)

    def test_gamma_phi_dominates_at_start(self):
        cfg = OuterConfig(delta=1.0, gamma0=0.1, phi=GrowthFn.power(4.0)).resolved()
        x0 = np.array([1.0])
        assert update_gamma(x0, x0, cfg, 1) == pytest.approx(0.1 * 16.0)


class TestSelectReference:
    def _select(self, prob, x, lam, x0, cfg, gamma=0.1):
        mult = Multipliers(np.asarray(lam, dtype=float), np.zeros(prob.m))
        pen = PenaltyState(rho=1e-3, nu=1e-3, gamma=gamma)
        return select_reference(prob, x, mult, pen, x0,
                                eval_objective(prob, x0), cfg)

    def test_keeps_iterate_at_start(self):
        prob = simplex_qp()
        x0 = np.array([1.0, 1.0])
        cfg = OuterConfig().resolved()
        x = x0.copy()
        assert self._select(prob, x, [0.0], x0, cfg) is x

    def test_falls_back_on_inflated_multiplier(self):
        prob = simplex_qp()
        x0 = np.array([1.0, 1.0])
        cfg = OuterConfig().resolved()
        x = np.array([3.0, 0.0])  # feasible but far; huge lambda blows up the AL
        assert self._select(prob, x, [1e9], x0, cfg) is x0

    def test_balm_keeps_feasible_iterate(self):
        prob = simplex_qp()
        x0 = np.array([1.0, 1.0])
        cfg = OuterConfig(variant=Variant.BALM).resolved()
        x = x0.copy()
        assert self._select(prob, x, [0.0], x0, cfg) is x

    def test_objective_evaluated_only_at_iterate(self):
        prob = simplex_qp()
        f1_args = []

        def f1(z):
            f1_args.append(z)
            return prob.f1(z)

        counted = dataclasses.replace(prob, f1=f1)
        x0 = np.array([1.0, 1.0])
        x = np.array([1.5, 0.5])
        cfg = OuterConfig().resolved()
        mult = Multipliers(np.zeros(1), np.zeros(0))
        pen = PenaltyState(rho=1e-3, nu=1e-3, gamma=0.1)
        select_reference(counted, x, mult, pen, x0, prob.f1(x0), cfg)
        assert len(f1_args) == 1 and f1_args[0] is x

    def test_alm_never_resets(self):
        prob = simplex_qp()
        x0 = np.array([1.0, 1.0])
        cfg = OuterConfig(variant=Variant.ALM, xi1=10.0, xi2=10.0).resolved()
        x = np.array([5.0, 5.0])
        assert self._select(prob, x, [1e9], x0, cfg) is x


class TestRun:
    def test_unconstrained_at_minimizer(self):
        prob = quadratic_problem()
        res = run(prob, np.zeros(2), tight_cfg())
        assert res.status is SolveStatus.EPS_KKT
        np.testing.assert_allclose(res.x, np.zeros(2), atol=1e-6)

    def test_equality_qp_oracle(self):
        prob = simplex_qp()
        res = run(prob, np.array([1.0, 1.0]), tight_cfg())
        assert res.status is SolveStatus.EPS_KKT
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-5)
        np.testing.assert_allclose(res.mult.lam, [-1.0], atol=1e-4)

    def test_box_qp_active_bound(self):
        prob = box_qp_1d()
        res = run(prob, np.zeros(1), tight_cfg())
        assert res.status is SolveStatus.EPS_KKT
        assert abs(res.x[0] - 1.0) <= 1e-5
        assert res.kkt.is_eps_kkt

    def test_inequality_problem(self):
        prob = ineq_problem()
        res = run(prob, np.zeros(2), tight_cfg())
        assert res.status is SolveStatus.EPS_KKT
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-4)
        np.testing.assert_allclose(res.mult.mu, [2.0], atol=1e-3)

    def test_infeasible_start_raises(self):
        prob = simplex_qp()
        with pytest.raises(InfeasibleStartError):
            run(prob, np.zeros(2), tight_cfg())

    def test_nan_start_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            run(quadratic_problem(), np.array([0.0, np.nan]), tight_cfg())

    def test_overflow_returns_numerical_failure(self):
        # The inner solver's steps on -exp(x) from x0 = 10 overflow.
        prob = neg_exp_problem()
        with np.errstate(over="ignore"):
            res = run(prob, np.array([10.0]), tight_cfg())
        assert res.status is SolveStatus.NUMERICAL_FAILURE
        np.testing.assert_array_equal(res.x, [10.0])
        assert np.isfinite(res.kkt.stationarity)
        assert res.trace == []

    def test_alm_allows_infeasible_start(self):
        prob = simplex_qp()
        cfg = tight_cfg(variant=Variant.ALM, xi1=10.0, xi2=10.0,
                        phi=GrowthFn.zero())
        res = run(prob, np.zeros(2), cfg)
        assert res.status is SolveStatus.EPS_KKT
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-5)

    def test_trace_shape_and_monotone_penalties(self):
        prob = ineq_problem()
        res = run(prob, np.zeros(2), tight_cfg())
        assert len(res.trace) >= 1
        rho = [r.rho_max for r in res.trace]
        nu = [r.nu_max for r in res.trace]
        assert all(a <= b for a, b in zip(rho, rho[1:]))
        assert all(a <= b for a, b in zip(nu, nu[1:]))
        grads = [r.inner_grad_evals for r in res.trace]
        assert all(a <= b for a, b in zip(grads, grads[1:]))

    def test_diagnostics_mu_nonneg_every_iteration(self):
        prob = ineq_problem()
        res = run(prob, np.zeros(2), tight_cfg())
        assert all(d.mu_nonneg for d in res.diagnostics)
        assert all(d.lemma_a_ok for d in res.diagnostics)

    def test_deterministic_trace(self):
        prob = ineq_problem()
        r1 = run(prob, np.zeros(2), tight_cfg(seed=5))
        r2 = run(prob, np.zeros(2), tight_cfg(seed=5))
        np.testing.assert_array_equal(r1.x, r2.x)
        for a, b in zip(r1.trace, r2.trace):
            assert a == b

    def test_seed_changes_multipliers(self):
        prob = simplex_qp()
        x0 = np.array([1.0, 1.0])
        r1 = run(prob, x0, tight_cfg(seed=1, max_outer=1))
        r2 = run(prob, x0, tight_cfg(seed=2, max_outer=1))
        assert not np.array_equal(r1.mult.lam, r2.mult.lam)

    def test_zeros_multiplier_init(self):
        prob = simplex_qp()
        res = run(prob, np.array([1.0, 1.0]),
                  tight_cfg(multiplier_init="zeros", max_outer=1))
        assert len(res.trace) == 1

    def test_max_outer_status(self):
        prob = simplex_qp()
        cfg = tight_cfg(max_outer=1, stop_tol=1e-16,
                        tau_schedule=lambda k: 1e-10)
        res = run(prob, np.array([1.0, 1.0]), cfg)
        assert res.status in (SolveStatus.MAX_OUTER_REACHED,
                              SolveStatus.INNER_FAILURE)

    def test_stop_when_override(self):
        prob = simplex_qp()
        calls = []

        def stop(x):
            calls.append(x.copy())
            return True

        res = run(prob, np.array([1.0, 1.0]), tight_cfg(), stop_when=stop)
        assert len(res.trace) == 1
        assert len(calls) == 1

    def test_final_point_feasible_when_eps_kkt(self):
        prob = simplex_qp()
        res = run(prob, np.array([1.0, 1.0]), tight_cfg())
        assert res.status is SolveStatus.EPS_KKT
        assert max(res.trace[-1].eq_infeas, res.trace[-1].E_norm) <= 1e-7
        assert check_feasible(prob, res.x, 1e-6)


def counting(prob):
    """``prob`` with ``h`` and ``g`` counting their calls in ``calls``."""
    calls = {"h": 0, "g": 0}

    def wrap(name, fn):
        def counted(x):
            calls[name] += 1
            return fn(x)
        return counted

    return dataclasses.replace(prob, h=wrap("h", prob.h),
                               g=wrap("g", prob.g)), calls


class TestOneEvaluationPerPoint:
    """``run`` evaluates h and g once per point: the line search's value
    and gradient at a candidate, the outer diagnostics and the KKT report
    share one evaluation."""

    def test_basis_pursuit_h_per_grad(self):
        _, prob, x0 = gen_basis_pursuit(20, 50, 5, 0)
        prob, calls = counting(prob)
        res = run(prob, x0, OuterConfig(delta=1e-6))
        assert res.status is SolveStatus.EPS_KKT
        assert calls["h"] <= 2.1 * res.trace[-1].inner_grad_evals

    def test_inequality_g_per_grad(self):
        prob, calls = counting(ineq_problem())
        res = run(prob, np.zeros(2), tight_cfg())
        assert res.status is SolveStatus.EPS_KKT
        assert calls["g"] <= 2.1 * res.trace[-1].inner_grad_evals

    def test_inequality_start_point_shares_the_outer_evaluation(self):
        # The inner solve starts at the reference point itself, where the
        # outer loop has just evaluated g, so its first value and gradient
        # need no evaluation of their own.
        prob, calls = counting(ineq_problem())
        res = run(prob, np.zeros(2), tight_cfg())
        assert res.status is SolveStatus.EPS_KKT
        assert calls["g"] <= 1.25 * res.trace[-1].inner_grad_evals


class TestPenaltyCheckAtEntry:
    """``run`` checks rho0, nu0 and gamma0 once, before the first
    evaluation."""

    def test_nonpositive_rho0(self):
        with pytest.raises(ValueError):
            run(eq_qp_1d(), np.array([1.0]), OuterConfig(rho0=0.0))

    def test_misshaped_rho0(self):
        with pytest.raises(DimensionMismatchError):
            run(eq_qp_1d(), np.array([1.0]), OuterConfig(rho0=np.ones(3)))

    def test_negative_nu0(self):
        with pytest.raises(ValueError):
            run(ineq_problem(), np.zeros(2), OuterConfig(nu0=-1.0))

    def test_nonpositive_gamma0_without_prox(self):
        with pytest.raises(ValueError):
            run(eq_qp_1d(), np.array([1.0]),
                OuterConfig(variant=Variant.BALM, gamma0=0.0))

    def test_vector_penalties_broadcast_like_scalars(self):
        qp = make_random_eq_qp(6, 2, seed=0)
        prob = qp_problem(qp)
        x0 = qp.feasible_point(np.random.default_rng(0))
        scalar = run(prob, x0, tight_cfg(rho0=2e-3))
        vector = run(prob, x0, tight_cfg(rho0=np.full(2, 2e-3)))
        assert scalar.status is SolveStatus.EPS_KKT
        np.testing.assert_array_equal(scalar.x, vector.x)
        assert scalar.trace == vector.trace
