import dataclasses

import numpy as np
import pytest

from pbalm import phase1
from pbalm.cli import fixture_path
from pbalm.outer import FEAS_TOL, OuterConfig, Variant
from pbalm.phase1 import Phase1Failed, build_phase1, find_feasible
from pbalm.problem import ProblemSpec, box_problem_terms, check_feasible
from pbalm.problem_gen import gen_basis_pursuit
from pbalm.qps import parse_qps_file, qp_to_problem
from conftest import fd_grad, rel_err, eq_qp_1d, ineq_problem, simplex_qp


def infeasible_problem():
    """h(x) = (x, x - 1): inconsistent equalities, no feasible point."""
    return ProblemSpec(
        n=1, p=2,
        f1=lambda x: 0.0,
        grad_f1=lambda x: np.zeros(1),
        h=lambda x: np.array([x[0], x[0] - 1.0]),
        jac_h_transpose_apply=lambda x, y: np.array([y[0] + y[1]]),
        name="inconsistent",
    )


class TestBuildPhase1:
    def test_lifted_objective_separable(self):
        base = eq_qp_1d()  # h(x) = x - 1
        spec = build_phase1(base)
        z = np.array([3.0, 2.0])
        # 1/2 (3-1)^2 + 2^2 = 6
        assert spec.lifted.f1(z) == pytest.approx(6.0)
        assert spec.lifted.n == 2
        assert spec.lifted.p == 0

    def test_lifted_inequality_is_g_minus_s(self):
        base = ineq_problem()
        spec = build_phase1(base)
        z = np.array([2.0, 2.0, 0.5])
        # g(x) = 2 + 2 - 2 = 2; lifted g = 2 - 0.5
        np.testing.assert_allclose(spec.lifted.g(z), [1.5])

    def test_lifted_start_feasible_by_construction(self):
        base = ineq_problem()
        spec = build_phase1(base)
        x = np.array([5.0, 5.0])
        s0 = max(0.0, float(np.max(base.g(x))))
        z = np.concatenate([x, [s0]])
        assert np.max(spec.lifted.g(z)) <= 0.0

    def test_lifted_gradient_matches_fd(self):
        base = simplex_qp()
        spec = build_phase1(base)
        rng = np.random.default_rng(0)
        for _ in range(5):
            z = rng.standard_normal(3)
            g = spec.lifted.grad_f1(z)
            fd = fd_grad(spec.lifted.f1, z)
            assert rel_err(g, fd) <= 1e-5

    def test_lifted_jacobian_adjoint_matches_fd(self):
        base = ineq_problem()
        spec = build_phase1(base)
        rng = np.random.default_rng(1)
        z = rng.standard_normal(3)
        d = rng.standard_normal(3)
        y = rng.standard_normal(1)
        eps = 1e-6
        lhs = (y @ spec.lifted.g(z + eps * d) - y @ spec.lifted.g(z)) / eps
        rhs = d @ spec.lifted.jac_g_transpose_apply(z, y)
        assert abs(lhs - rhs) <= 1e-4 * (1.0 + abs(rhs))

    def test_f2_inherited_on_x_only(self):
        f2, prox = box_problem_terms(np.zeros(1), np.ones(1))
        base = ProblemSpec(n=1, f1=lambda x: 0.0, grad_f1=lambda x: np.zeros(1),
                           f2_value=f2, prox_f2=prox)
        spec = build_phase1(base)
        assert spec.lifted.f2_value(np.array([0.5, 99.0])) == 0.0
        assert spec.lifted.f2_value(np.array([2.0, 0.0])) == np.inf
        out = spec.lifted.prox_f2(np.array([3.0, -7.0]), 1.0)
        np.testing.assert_allclose(out, [1.0, -7.0])  # s stays free


class TestFindFeasible:
    def test_already_feasible_short_circuit(self):
        base = simplex_qp()
        x = np.array([1.0, 1.0])
        out = find_feasible(base, x, tol=1e-6, cfg=OuterConfig())
        np.testing.assert_array_equal(out, x)

    def test_single_equality(self):
        base = eq_qp_1d()
        out = find_feasible(base, np.array([5.0]), tol=1e-8, cfg=OuterConfig())
        assert abs(out[0] - 1.0) <= 1e-8

    def test_inequality_problem(self):
        base = ineq_problem()
        out = find_feasible(base, np.array([5.0, 5.0]), tol=1e-6,
                            cfg=OuterConfig())
        assert check_feasible(base, out, 1e-6)

    def test_inconsistent_raises(self):
        with pytest.raises(Phase1Failed):
            find_feasible(infeasible_problem(), np.array([0.3]), tol=1e-6,
                          cfg=OuterConfig())

    @pytest.mark.parametrize("g", [
        lambda x: np.exp(1000.0 * x) - 1.0,    # +inf at x = 1
        lambda x: np.sqrt(-x) - 1.0,           # NaN at x = 1
    ], ids=["inf", "nan"])
    def test_non_finite_g_at_start_fails_phase1(self, g):
        base = ProblemSpec(n=1, m=1, f1=lambda x: 0.0,
                           grad_f1=lambda x: np.zeros(1), g=g,
                           jac_g_transpose_apply=lambda x, y: y.copy())
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(Phase1Failed, match="not finite"):
                find_feasible(base, np.ones(1), tol=1e-6, cfg=OuterConfig())

    def test_nonpositive_tol_rejected(self):
        # tol = NaN ran the lifted solve to its end, then raised
        # Phase1Failed.
        for tol in (0.0, np.nan):
            with pytest.raises(ValueError, match="tol"):
                find_feasible(eq_qp_1d(), np.zeros(1), tol=tol,
                              cfg=OuterConfig())


def _tiny_eq():
    prob = qp_to_problem(parse_qps_file(fixture_path("tiny_eq")))
    return prob, prob.prox_f2(np.zeros(prob.n), 1.0)


class TestLiftedVariant:
    """Only base feasibility matters in the lifted solve, and P-BALM's
    proximal term would tie the slack to the last iterate; it runs as
    BALM.  BALM and ALM keep their own."""

    def _lifted_solves(self, monkeypatch, variant):
        real_run = phase1.run
        calls = []

        def recording_run(prob, z0, cfg, **kw):
            result = real_run(prob, z0, cfg, **kw)
            calls.append((cfg, result))
            return result

        monkeypatch.setattr(phase1, "run", recording_run)
        prob, x0 = _tiny_eq()
        xi = dict(xi1=10.0, xi2=10.0) if variant is Variant.ALM else {}
        x = find_feasible(prob, x0, tol=FEAS_TOL,
                          cfg=OuterConfig(variant=variant, **xi))
        return x, calls

    def test_pbalm_lifted_solve_is_balm(self, monkeypatch):
        x, calls = self._lifted_solves(monkeypatch, Variant.PBALM)
        (cfg, result), = calls
        assert cfg.variant is Variant.BALM
        assert len(result.trace) == 1
        assert result.trace[-1].inner_grad_evals <= 20
        x_balm, _ = self._lifted_solves(monkeypatch, Variant.BALM)
        np.testing.assert_array_equal(x, x_balm)

    def test_lifted_exit_report_is_the_last_row(self, monkeypatch):
        _, calls = self._lifted_solves(monkeypatch, Variant.PBALM)
        (_, result), = calls
        last = result.trace[-1]
        assert result.kkt.stationarity == last.stationarity
        assert result.kkt.eq_infeas == last.eq_infeas
        assert result.kkt.ineq_infeas == last.ineq_infeas

    @pytest.mark.parametrize("variant", [Variant.BALM, Variant.ALM])
    def test_other_variants_keep_their_own(self, monkeypatch, variant):
        _, calls = self._lifted_solves(monkeypatch, variant)
        (cfg, _), = calls
        assert cfg.variant is variant


class TestSharedH:
    """The lifted f1 and grad_f1 share one evaluation of the base h per
    lifted point."""

    def _phase1(self, monkeypatch):
        _, prob, _ = gen_basis_pursuit(20, 50, 5, 0)
        calls = [0]

        def h(x, base_h=prob.h):
            calls[0] += 1
            return base_h(x)

        real_run = phase1.run
        results = []

        def recording_run(*args, **kw):
            results.append(real_run(*args, **kw))
            return results[-1]

        monkeypatch.setattr(phase1, "run", recording_run)
        counted = dataclasses.replace(prob, h=h)
        x = find_feasible(counted, np.full(prob.n, 0.3), tol=1e-8,
                          cfg=OuterConfig(delta=1e-6))
        return x, calls[0], results[-1].trace[-1].inner_grad_evals

    def test_h_per_gradient(self, monkeypatch):
        _, h_calls, grads = self._phase1(monkeypatch)
        assert h_calls <= 2.1 * grads

    def test_point_unchanged_by_sharing(self, monkeypatch):
        x, _, _ = self._phase1(monkeypatch)
        monkeypatch.setattr(phase1, "last_point", lambda fn: fn)
        x_unshared, _, _ = self._phase1(monkeypatch)
        np.testing.assert_array_equal(x, x_unshared)
