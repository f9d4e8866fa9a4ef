import dataclasses

import numpy as np
import pytest

from pbalm import outer, phase1
from pbalm.auglag import Multipliers, PenaltyState, Subproblem
from pbalm.cli import fixture_path
from pbalm.inner import InnerConfig
from pbalm.outer import (
    FEAS_TOL,
    GrowthFn,
    InfeasibleStartError,
    OuterConfig,
    SolveStatus,
    Variant,
    run,
    select_reference,
    update_gamma,
    update_multipliers,
    update_penalty,
)
from pbalm.phase1 import find_feasible
from pbalm.problem import ProblemSpec, check_feasible, eval_objective
from pbalm.problem_gen import gen_basis_pursuit, make_random_eq_qp, qp_problem
from pbalm.qps import parse_qps_file, qp_to_problem
from conftest import (box_qp_1d, ineq_problem, neg_exp_problem,
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
    def test_power_values(self):
        phi = GrowthFn.power(4.0)
        assert phi(3) == 81.0
        assert phi(1) == 1.0

    def test_constant_and_zero(self):
        assert GrowthFn(value=5.0)(17) == 5.0
        assert GrowthFn.zero()(17) == 0.0
        with pytest.raises(ValueError):
            OuterConfig(phi=GrowthFn(alpha=4.0, value=-1.0))


class TestConfig:
    def test_beta_range(self):
        with pytest.raises(ValueError):
            OuterConfig(beta=1.0)

    def test_xi_range(self):
        with pytest.raises(ValueError):
            OuterConfig(xi1=0.5)

    def test_alm_growth_is_zero(self):
        cfg = OuterConfig(variant=Variant.ALM, xi1=10.0, xi2=10.0)
        assert cfg.phi == GrowthFn.zero()

    # Settings under which rho never leaves rho0: on make_random_eq_qp(8,
    # 3, 2) each ran all 300 outer iterations to max_outer_reached.
    @pytest.mark.parametrize("variant", [Variant.PBALM, Variant.BALM])
    def test_zero_growth_rejected(self, variant):
        with pytest.raises(ValueError, match="alpha > 1"):
            OuterConfig(variant=variant, phi=GrowthFn.zero())

    @pytest.mark.parametrize("variant", [Variant.PBALM, Variant.BALM])
    def test_growth_exponent_at_most_one_rejected(self, variant):
        # GrowthFn.power checks nothing; OuterConfig checks alpha, and a
        # NaN alpha fails its check too.
        for phi in (GrowthFn(alpha=1.0), GrowthFn.power(1.0),
                    GrowthFn.power(np.nan)):
            with pytest.raises(ValueError, match="alpha > 1"):
                OuterConfig(variant=variant, phi=phi)

    @pytest.mark.parametrize("xi", [dict(), dict(xi1=10.0), dict(xi2=10.0)])
    def test_alm_without_geometric_growth_rejected(self, xi):
        with pytest.raises(ValueError, match="xi1 > 1"):
            OuterConfig(variant=Variant.ALM, **xi)

    # Each passed the checks: delta = NaN ended in numerical_failure with
    # gamma = NaN after one iteration, stop_tol = NaN ran all max_outer
    # iterations, and max_outer = -1 returned without one.
    @pytest.mark.parametrize("settings, name", [
        (dict(xi1=np.nan), "xi1"), (dict(xi2=np.nan), "xi2"),
        (dict(variant=Variant.ALM, xi1=np.nan, xi2=10.0), "xi1"),
        (dict(variant=Variant.ALM, xi1=10.0, xi2=np.nan), "xi2"),
        (dict(delta=np.nan), "delta"), (dict(stop_tol=np.nan), "stop_tol"),
        (dict(stop_tol=-1e-5), "stop_tol"), (dict(max_outer=-1), "max_outer")],
        ids=["xi1-nan", "xi2-nan", "alm-xi1-nan", "alm-xi2-nan", "delta-nan",
             "stop_tol-nan", "stop_tol-negative", "max_outer-negative"])
    def test_nan_or_negative_setting_rejected(self, settings, name):
        with pytest.raises(ValueError, match=name):
            OuterConfig(**settings)

    def test_unknown_multiplier_init_rejected(self):
        with pytest.raises(ValueError, match="multiplier_init"):
            OuterConfig(multiplier_init="ones")

    def test_field_names(self):
        """Every setting is listed here, so adding one changes this test."""
        assert [f.name for f in dataclasses.fields(OuterConfig)] == [
            "variant", "beta", "xi1", "xi2", "delta", "rho0", "nu0",
            "gamma0", "phi", "tau_schedule", "stop_tol", "max_outer",
            "inner", "multiplier_init", "seed"]
        assert [f.name for f in dataclasses.fields(InnerConfig)] == [
            "memory", "max_iters"]


def _pen(rho=1.0, nu=1.0):
    return PenaltyState(rho=rho, nu=nu, gamma=1.0)


class TestMultiplierUpdates:
    def test_update_lambda(self):
        mult = Multipliers(np.array([0.0]), np.zeros(0))
        out = update_multipliers(mult, _pen(rho=2.0), np.array([3.0]), np.zeros(0))
        np.testing.assert_array_equal(out.lam, [6.0])

    def test_update_lambda_feasible_unchanged(self):
        mult = Multipliers(np.array([1.5]), np.zeros(0))
        out = update_multipliers(mult, _pen(rho=2.0), np.array([0.0]), np.zeros(0))
        np.testing.assert_array_equal(out.lam, [1.5])

    def test_update_mu_clipped(self):
        mult = Multipliers(np.zeros(0), np.array([1.0]))
        out = update_multipliers(mult, _pen(nu=2.0), np.zeros(0), np.array([-1.0]))
        np.testing.assert_array_equal(out.mu, [0.0])

    def test_update_mu_growth(self):
        mult = Multipliers(np.zeros(0), np.array([1.0]))
        out = update_multipliers(mult, _pen(nu=2.0), np.zeros(0), np.array([0.5]))
        np.testing.assert_array_equal(out.mu, [2.0])

    def test_update_mu_stays_zero(self):
        mult = Multipliers(np.zeros(0), np.zeros(2))
        out = update_multipliers(mult, _pen(nu=1.0), np.zeros(0),
                                 np.array([-1.0, -0.5]))
        np.testing.assert_array_equal(out.mu, [0.0, 0.0])

    def test_both_in_one_step(self):
        mult = Multipliers(np.array([1.0]), np.array([1.0]))
        out = update_multipliers(mult, _pen(rho=2.0, nu=3.0),
                                 np.array([0.5]), np.array([-1.0]))
        np.testing.assert_array_equal(out.lam, [2.0])
        np.testing.assert_array_equal(out.mu, [0.0])

    @pytest.mark.parametrize("weight", [1e-3], ids=["scalar"])
    def test_no_constraints_gives_empty_float_arrays(self, weight):
        mult = Multipliers(np.zeros(0), np.zeros(0))
        out = update_multipliers(mult, _pen(rho=weight, nu=weight),
                                 np.zeros(0), np.zeros(0))
        for v in (out.lam, out.mu):
            assert v.shape == (0,) and v.dtype == np.float64

    @pytest.mark.parametrize("weight", [1e-3], ids=["scalar"])
    def test_one_kind_of_constraint(self, weight):
        # p = 0 with an inequality, and m = 0 with an equality.
        out = update_multipliers(Multipliers(np.zeros(0), np.ones(1)),
                                 _pen(rho=weight), np.zeros(0), np.ones(1))
        assert out.lam.shape == (0,) and out.lam.dtype == np.float64
        np.testing.assert_array_equal(out.mu, [2.0])
        out = update_multipliers(Multipliers(np.ones(1), np.zeros(0)),
                                 _pen(nu=weight), np.ones(1), np.zeros(0))
        assert out.mu.shape == (0,) and out.mu.dtype == np.float64
        np.testing.assert_array_equal(out.lam, [2.0])


def _step(lam, mu):
    """An update_multipliers taking lam(lam, rho h) and mu(mu, nu g)."""
    return lambda m, pen, h, g: Multipliers(lam(m.lam, pen.rho * h),
                                            mu(m.mu, pen.nu * g))


def _lam_ok(lam, d):
    return lam + d


def _mu_ok(mu, d):
    return np.maximum(0.0, mu + d)


def _step_problem(name):
    """(prob, x0, cfg): an equality QP, or tiny_box from its phase-I point."""
    cfg = OuterConfig(max_outer=30)
    if name == "eq":
        qp = make_random_eq_qp(8, 3, seed=0)
        return qp_problem(qp), qp.feasible_point(np.random.default_rng(0)), cfg
    prob = qp_to_problem(parse_qps_file(fixture_path("tiny_box")))
    x0 = prob.prox_f2(np.zeros(prob.n), 1.0)
    return prob, find_feasible(prob, x0, FEAS_TOL, cfg), cfg


class TestMultiplierStepCheck:
    """The gradient identity in ``diagnose`` checks the multiplier step:
    grad L at the new multipliers must equal the subproblem gradient."""

    @pytest.mark.parametrize("problem", ["eq", "box"])
    def test_correct_step_holds_it(self, problem, monkeypatch):
        prob, x0, cfg = _step_problem(problem)
        monkeypatch.setattr(outer, "update_multipliers", _step(_lam_ok, _mu_ok))
        res = run(prob, x0, cfg)
        assert res.status is SolveStatus.EPS_KKT
        assert max(d.grad_identity_rel_err for d in res.diagnostics) <= 1e-10

    @pytest.mark.parametrize("problem, lam, mu", [
        ("eq", lambda lam, d: lam - d, _mu_ok),
        ("eq", lambda lam, d: lam + 2.0 * d, _mu_ok),
        ("box", _lam_ok, lambda mu, d: np.maximum(0.0, mu - d)),
        ("box", _lam_ok, lambda mu, d: np.maximum(0.0, mu + 2.0 * d)),
        ("box", _lam_ok, lambda mu, d: mu + d)],
        ids=["lam-sign-flipped", "lam-doubled", "mu-minus-nu-g",
             "mu-plus-2-nu-g", "mu-unclamped"])
    def test_wrong_step_fails_it(self, problem, lam, mu, monkeypatch):
        prob, x0, cfg = _step_problem(problem)
        monkeypatch.setattr(outer, "update_multipliers", _step(lam, mu))
        res = run(prob, x0, cfg)
        assert max(d.grad_identity_rel_err for d in res.diagnostics) > 1e-3


def grow_rho(rho, new_inf, old_inf, cfg, k):
    return update_penalty(rho, new_inf, old_inf, cfg.xi1, cfg.rho0, cfg, k)


def grow_nu(nu, new_inf, old_inf, cfg, k):
    return update_penalty(nu, new_inf, old_inf, cfg.xi2, cfg.nu0, cfg, k)


class TestPenaltyUpdates:
    def test_floors_are_initial_values(self):
        # phi(1) = 1, so a violation at k = 0 lifts each penalty to its
        # floor.
        cfg = OuterConfig(rho0=5e-3, nu0=3e-3, gamma0=0.2)
        assert grow_rho(1e-4, 1.0, 1.0, cfg, 0) == 5e-3
        assert grow_nu(1e-4, 1.0, 1.0, cfg, 0) == 3e-3
        x0 = np.zeros(1)
        assert update_gamma(x0, x0, cfg, 0) == 0.2

    def test_rho_unchanged_on_decrease(self):
        cfg = OuterConfig(beta=0.5)
        assert grow_rho(1e-3, 0.4, 1.0, cfg, 0) == 1e-3

    def test_unchanged_is_the_same_object(self):
        # rho_increased/nu_increased test identity, not value.
        cfg = OuterConfig(beta=0.5)
        rho = 2e-3
        assert grow_rho(rho, 0.5, 1.0, cfg, 0) is rho
        assert grow_rho(rho, 0.6, 1.0, cfg, 0) is not rho

    def test_penalties_stay_plain_floats(self):
        # The config stores float(rho0); the rule keeps the initial object
        # until it fires and then yields a float, as the trace rows expect.
        cfg = OuterConfig(rho0=np.float64(1e-3), nu0=np.float64(1e-3))
        assert type(cfg.rho0) is float and type(cfg.nu0) is float
        assert grow_rho(cfg.rho0, 0.5, 1.0, cfg, 0) is cfg.rho0
        grown = grow_nu(cfg.nu0, 1.0, 1.0, cfg, 2)
        assert type(grown) is float and grown == pytest.approx(0.081)

    def test_rho_power_growth(self):
        cfg = OuterConfig(rho0=1e-3, xi1=1.0, phi=GrowthFn.power(4.0))
        # violation at k=2: max{1 * 1e-3, 1e-3 * 3^4} = 0.081
        assert grow_rho(1e-3, 1.0, 1.0, cfg, 2) == pytest.approx(0.081)

    def test_rho_geometric_alm(self):
        cfg = OuterConfig(variant=Variant.ALM, rho0=1e-3,
                          xi1=10.0, xi2=10.0)
        assert grow_rho(1e-3, 1.0, 1.0, cfg, 2) == pytest.approx(0.01)

    def test_nu_zero_new_never_grows(self):
        cfg = OuterConfig()
        assert grow_nu(1e-3, 0.0, 5.0, cfg, 3) == 1e-3
        assert grow_nu(1e-3, 0.0, 0.0, cfg, 3) == 1e-3

    def test_nu_power_growth(self):
        cfg = OuterConfig(nu0=1e-3, xi2=1.0, phi=GrowthFn.power(12.0))
        # violation at k=1: 1e-3 * 2^12 = 4.096
        assert grow_nu(1e-3, 1.0, 0.1, cfg, 1) == pytest.approx(4.096)

    def test_gamma_distance_dominates(self):
        cfg = OuterConfig(delta=1.0, gamma0=0.1, phi=GrowthFn.power(4.0))
        x0 = np.zeros(1)
        x = np.array([2.0])  # squared distance 4; phi term 0.1 * 2^4 = 1.6
        assert update_gamma(x0, x, cfg, 1) == pytest.approx(4.0)

    def test_gamma_phi_dominates_at_start(self):
        cfg = OuterConfig(delta=1.0, gamma0=0.1, phi=GrowthFn.power(4.0))
        x0 = np.array([1.0])
        assert update_gamma(x0, x0, cfg, 1) == pytest.approx(0.1 * 16.0)


class TestSelectReference:
    def _select(self, prob, x, lam, x0, cfg, gamma=0.1):
        mult = Multipliers(np.asarray(lam, dtype=float), np.zeros(prob.m))
        pen = PenaltyState(rho=1e-3, nu=1e-3, gamma=gamma)
        return select_reference(Subproblem(prob, mult, pen), x, x0,
                                eval_objective(prob, x0), cfg)

    def test_keeps_iterate_at_start(self):
        prob = simplex_qp()
        x0 = np.array([1.0, 1.0])
        cfg = OuterConfig()
        x = x0.copy()
        x_hat, reset = self._select(prob, x, [0.0], x0, cfg)
        assert x_hat is x and reset is False

    def test_falls_back_on_inflated_multiplier(self):
        prob = simplex_qp()
        x0 = np.array([1.0, 1.0])
        cfg = OuterConfig()
        x = np.array([3.0, 0.0])  # feasible but far; huge lambda blows up the AL
        x_hat, reset = self._select(prob, x, [1e9], x0, cfg)
        assert x_hat is x0 and reset is True

    def test_balm_keeps_feasible_iterate(self):
        prob = simplex_qp()
        x0 = np.array([1.0, 1.0])
        cfg = OuterConfig(variant=Variant.BALM)
        x = x0.copy()
        x_hat, reset = self._select(prob, x, [0.0], x0, cfg)
        assert x_hat is x and reset is False

    def test_objective_evaluated_only_at_iterate(self):
        prob = simplex_qp()
        f1_args = []

        def f1(z):
            f1_args.append(z)
            return prob.f1(z)

        counted = dataclasses.replace(prob, f1=f1)
        x0 = np.array([1.0, 1.0])
        x = np.array([1.5, 0.5])
        cfg = OuterConfig()
        mult = Multipliers(np.zeros(1), np.zeros(0))
        pen = PenaltyState(rho=1e-3, nu=1e-3, gamma=0.1)
        select_reference(Subproblem(counted, mult, pen), x, x0, prob.f1(x0),
                         cfg)
        assert len(f1_args) == 1 and f1_args[0] is x

    def test_resets_outside_the_domain_of_f2(self):
        # f2(x) = inf: the augmented Lagrangian is not even evaluated.
        prob = box_qp_1d()
        x0 = np.array([0.5])
        x_hat, reset = self._select(prob, np.array([1.5]), [], x0,
                                    OuterConfig())
        assert x_hat is x0 and reset is True

    def test_alm_never_resets(self):
        prob = simplex_qp()
        x0 = np.array([1.0, 1.0])
        cfg = OuterConfig(variant=Variant.ALM, xi1=10.0, xi2=10.0)
        x = np.array([5.0, 5.0])
        x_hat, reset = self._select(prob, x, [1e9], x0, cfg)
        assert x_hat is x and reset is False


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
        with pytest.raises(InfeasibleStartError):
            run(prob, np.zeros(2), tight_cfg(variant=Variant.BALM))

    def test_zero_inner_tolerance_rejected(self):
        with pytest.raises(ValueError, match="tol"):
            run(simplex_qp(), np.array([1.0, 1.0]),
                tight_cfg(tau_schedule=lambda k: 0.0))

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
        # No trace row shows them, so the result reports the penalties
        # that failed.
        assert res.penalties == PenaltyState(rho=1e-3, nu=1e-3, gamma=0.1)
        # The failing solve's gradients count: the start, the probe and
        # one at each of the three steps before the value overflows.
        assert res.grad_evals == 5

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
        assert res.grad_evals == grads[-1]

    @pytest.mark.parametrize("settings", [
        dict(variant=Variant.PBALM),
        dict(variant=Variant.ALM, xi1=10.0, xi2=10.0)], ids=["pbalm", "alm"])
    def test_one_diagnostic_record_per_trace_row(self, settings):
        # The record at index i belongs to the trace row at index i.
        res = run(ineq_problem(), np.zeros(2), tight_cfg(**settings))
        assert res.status is SolveStatus.EPS_KKT
        assert len(res.diagnostics) == len(res.trace) > 1

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

    def test_unconverged_last_solve_is_inner_failure(self):
        # One outer iteration whose one inner iteration cannot reach tau.
        qp = make_random_eq_qp(10, 4, seed=0)
        x0 = qp.feasible_point(np.random.default_rng(0))
        cfg = tight_cfg(max_outer=1, inner=InnerConfig(max_iters=1))
        res = run(qp_problem(qp), x0, cfg)
        assert len(res.trace) == 1
        assert not res.trace[0].inner_converged
        assert res.status is SolveStatus.INNER_FAILURE

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
    """``run`` evaluates f1, h and g once per point: the line search's
    value and gradient at a candidate and the outer diagnostics share one
    evaluation, and the KKT report needs none."""

    each_variant = pytest.mark.parametrize("settings", [
        dict(variant=Variant.PBALM), dict(variant=Variant.BALM),
        dict(variant=Variant.ALM, xi1=10.0, xi2=10.0)],
        ids=["pbalm", "balm", "alm"])

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

    def test_tiny_box_g_calls_pinned(self, monkeypatch):
        # The inequality path, phase-I then P-BALM: every call of the
        # problem's g against the inner gradients of each solve.  A
        # last-point cache that stops hitting raises the g count.
        prob, calls = counting(
            qp_to_problem(parse_qps_file(fixture_path("tiny_box"))))
        runs = []

        def recording_run(*args, **kwargs):
            runs.append(run(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(phase1, "run", recording_run)
        cfg = OuterConfig()
        x_feas = find_feasible(prob, prob.prox_f2(np.zeros(prob.n), 1.0),
                               FEAS_TOL, cfg)
        assert (calls["g"], runs[0].grad_evals) == (20, 10)
        calls["g"] = 0
        res = run(prob, x_feas, cfg)
        assert res.status is SolveStatus.EPS_KKT
        assert (calls["g"], res.grad_evals) == (89, 83)

    @each_variant
    def test_start_checked_once(self, settings, monkeypatch):
        # run checks x0's shape once, and its feasibility check and f(x0)
        # once each; no evaluation below it checks an iterate again.
        qp = make_random_eq_qp(8, 3, 2)
        prob = qp_problem(qp)
        x0 = (np.zeros(8) if settings["variant"] is Variant.ALM
              else qp.feasible_point(np.random.default_rng(0)))
        calls = [0]

        def check_x(self, x, check=ProblemSpec.check_x):
            calls[0] += 1
            return check(self, x)

        monkeypatch.setattr(ProblemSpec, "check_x", check_x)
        counts = []
        for max_outer in (1, 300):
            calls[0] = 0
            res = run(prob, x0, OuterConfig(max_outer=max_outer, **settings))
            counts.append((len(res.trace), calls[0]))
        (rows_short, short), (rows_long, long) = counts
        assert rows_short == 1 and rows_long > 1
        assert short == long <= 3

    @each_variant
    def test_subproblem_gradient_is_not_recomputed(self, settings):
        # The subproblem's value and gradient at its solution come back
        # from the inner solve. Beyond the inner gradients, J^T is applied
        # once per iteration for the Lagrangian gradient in the
        # diagnostics and once for the start's certificate.
        qp = make_random_eq_qp(8, 3, 2)
        prob = qp_problem(qp)
        calls = [0]

        def jac_h_t(x, y, apply=prob.jac_h_transpose_apply):
            calls[0] += 1
            return apply(x, y)

        prob = dataclasses.replace(prob, jac_h_transpose_apply=jac_h_t)
        x0 = (np.zeros(8) if settings["variant"] is Variant.ALM
              else qp.feasible_point(np.random.default_rng(0)))
        res = run(prob, x0, OuterConfig(**settings))
        assert res.status is SolveStatus.EPS_KKT
        assert calls[0] == res.trace[-1].inner_grad_evals + len(res.trace) + 1

    @each_variant
    def test_f1_not_called_twice_on_one_point(self, settings):
        # The trace row's f1_value, the completed square in the
        # diagnostics and the next reference test reuse the inner solve's
        # f1 at its solution.  Likewise for f2: f(x0), the start's
        # feasibility check and the first reference test (ALM: the first
        # inner start) share one call, and so do the trace row's f2_value
        # and the next reference test.
        qp = make_random_eq_qp(8, 3, 2)
        prob = qp_problem(qp)
        points = {"f1": [], "f2_value": []}

        def recording(name):
            fn = getattr(prob, name)

            def call(x):
                points[name].append(x)  # keeps every argument alive
                return fn(x)
            return call

        x0 = (np.zeros(8) if settings["variant"] is Variant.ALM
              else qp.feasible_point(np.random.default_rng(0)))
        res = run(dataclasses.replace(prob, f1=recording("f1"),
                                      f2_value=recording("f2_value")),
                  x0, OuterConfig(**settings))
        assert res.status is SolveStatus.EPS_KKT
        for name, seen in points.items():
            assert len(seen) > len(res.trace), name
            assert not any(a is b for a, b in zip(seen, seen[1:])), name

    @each_variant
    def test_zero_iteration_exit_reuses_reference_point(self, settings):
        # An inner solve whose start is already tau-stationary returns the
        # reference point itself, so h and f1 are not evaluated again on
        # equal bytes.
        _, prob, x0 = gen_basis_pursuit(20, 50, 5, 0)
        args = {"h": [], "f1": []}

        def recording(name):
            fn = getattr(prob, name)

            def call(x):
                args[name].append(x.tobytes())
                return fn(x)
            return call

        res = run(dataclasses.replace(prob, h=recording("h"),
                                      f1=recording("f1")),
                  x0, OuterConfig(**settings))
        assert res.status is SolveStatus.EPS_KKT
        assert any(row.inner_iters == 0 for row in res.trace)
        for name, seen in args.items():
            assert not any(a == b for a, b in zip(seen, seen[1:])), name


class TestCertificate:
    """``run`` certifies each iterate once: the exit KKT report is built
    from the h, g and stationarity of the last iterate, or of the start
    when no row was written."""

    @pytest.mark.parametrize("problem", ["ineq", "eq-qp"])
    @pytest.mark.parametrize("settings", [
        dict(variant=Variant.PBALM), dict(variant=Variant.BALM),
        dict(variant=Variant.ALM, xi1=10.0, xi2=10.0)],
        ids=["pbalm", "balm", "alm"])
    def test_exit_report_is_the_last_row(self, problem, settings):
        if problem == "ineq":
            prob, x0 = ineq_problem(), np.zeros(2)
        else:
            qp = make_random_eq_qp(8, 3, 2)
            prob = qp_problem(qp)
            x0 = qp.feasible_point(np.random.default_rng(0))
        res = run(prob, x0, tight_cfg(**settings))
        assert res.status is SolveStatus.EPS_KKT
        last = res.trace[-1]
        assert res.kkt.stationarity == last.stationarity
        assert res.kkt.eq_infeas == last.eq_infeas
        assert res.kkt.ineq_infeas == last.ineq_infeas

    def test_zero_row_failure_reports_the_start(self):
        prob = neg_exp_problem()
        x0 = np.array([10.0])
        with np.errstate(over="ignore"):
            res = run(prob, x0, tight_cfg())
        assert res.status is SolveStatus.NUMERICAL_FAILURE
        assert res.trace == []
        expected = abs(x0 - prob.prox_f2(x0 - prob.grad_f1(x0), 1.0))[0]
        assert res.kkt.stationarity == expected
        assert res.kkt.eq_infeas == 0.0 and res.kkt.ineq_infeas == 0.0

    def test_kkt_report_calls_no_problem_map(self, monkeypatch):
        prob = ineq_problem()
        calls = []

        def counted(name):
            fn = getattr(prob, name)

            def call(*args):
                calls.append(name)
                return fn(*args)
            return call

        maps = ("f1", "grad_f1", "h", "g", "jac_h_transpose_apply",
                "jac_g_transpose_apply", "f2_value", "prox_f2")
        prob = dataclasses.replace(prob, **{m: counted(m) for m in maps})
        real_report, during = outer.kkt_report, []

        def report(*args):
            before = len(calls)
            out = real_report(*args)
            during.append(len(calls) - before)
            return out

        monkeypatch.setattr(outer, "kkt_report", report)
        res = run(prob, np.zeros(2), tight_cfg())
        assert res.status is SolveStatus.EPS_KKT
        assert during == [0]

    def test_reset_then_zero_iteration_exit(self, monkeypatch):
        # The first reference test is made to reset; the inner solve at
        # the start, a minimizer, exits at once and returns x0 itself.
        # The next reference test keeps that iterate, which is no reset.
        real_select, flags = outer.select_reference, []

        def reset_first(sub, x, x0, f_x0, cfg):
            out = (x0, True) if not flags else real_select(
                sub, x, x0, f_x0, cfg)
            flags.append(out[1])
            return out

        monkeypatch.setattr(outer, "select_reference", reset_first)
        res = run(quadratic_problem(), np.zeros(2),
                  tight_cfg(variant=Variant.BALM, max_outer=2),
                  stop_when=lambda x: False)
        assert [row.inner_iters for row in res.trace] == [0, 0]
        assert [row.reference_reset for row in res.trace] == [True, False]
        assert flags == [True, False]


class TestPenaltyCheckAtEntry:
    """``OuterConfig`` checks rho0, nu0 and gamma0 when it is built, so a
    bad penalty never reaches ``run``."""

    def test_nonpositive_rho0(self):
        with pytest.raises(ValueError):
            OuterConfig(rho0=0.0)

    @pytest.mark.parametrize("settings", [
        dict(rho0=np.ones(3)), dict(nu0=np.ones(2)), dict(rho0=np.zeros(0))],
        ids=["rho0-vector", "nu0-vector", "rho0-empty"])
    def test_vector_penalty_rejected(self, settings):
        # The penalties are scalars: an array of any length is refused.
        with pytest.raises(TypeError):
            OuterConfig(**settings)

    def test_negative_nu0(self):
        with pytest.raises(ValueError):
            OuterConfig(nu0=-1.0)

    def test_nonpositive_gamma0_without_prox(self):
        with pytest.raises(ValueError):
            OuterConfig(variant=Variant.BALM, gamma0=0.0)
