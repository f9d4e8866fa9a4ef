"""End-to-end acceptance checks: oracle equivalence on seeded QPs, desk
scale sparse recovery, per-iteration algebraic identities and bound
invariants, penalty-schedule exactness, parser field-exactness, the
feasibility bootstrap, and byte-level determinism of the CLI traces."""

import math
import os
import time

import numpy as np
import pytest

from pbalm.auglag import Multipliers, PenaltyState, eval_pal, eval_pal_completed_square
from pbalm.cli import main as cli_main
from pbalm.outer import GrowthFn, OuterConfig, SolveStatus, Variant, run
from pbalm.phase1 import Phase1Failed, find_feasible
from pbalm.problem import ProblemSpec, box_problem_terms, check_feasible, eval_objective
from pbalm.problem_gen import gen_basis_pursuit, make_random_eq_qp, qp_problem
from pbalm.qps import (
    CrossedBoundsError,
    DuplicateFixedBoundConflictError,
    MalformedNumericFieldError,
    MissingSectionError,
    MixedQuadSectionsError,
    UndeclaredRowOrColumnError,
    UnknownRowSenseError,
    parse_qps_file,
)

HERE = os.path.dirname(__file__)
MALFORMED = os.path.join(HERE, "data", "malformed")
FIXTURES = os.path.join(HERE, "..", "src", "pbalm", "fixtures")

VARIANTS = {
    "pbalm-4": dict(variant=Variant.PBALM, phi=GrowthFn.power(4.0)),
    "pbalm-12": dict(variant=Variant.PBALM, phi=GrowthFn.power(12.0)),
    "balm-4": dict(variant=Variant.BALM, phi=GrowthFn.power(4.0)),
    "alm-10": dict(variant=Variant.ALM, xi1=10.0, xi2=10.0,
                   phi=GrowthFn.zero()),
}


def tight_cfg(**kw):
    base = dict(
        stop_tol=1e-7,
        rho0=10.0,
        tau_schedule=lambda k: max(1e-9, 0.1 / (k + 1) ** 4),
        max_outer=150,
    )
    base.update(kw)
    return OuterConfig(**base)


QP_SIZES = [(4, 1), (6, 2), (8, 3), (10, 4), (12, 5),
            (14, 6), (16, 7), (18, 8), (20, 8), (5, 2)]


def eq_qp_case(seed):
    """(prob, x_star, x_start): a seeded strictly convex equality QP with
    its oracle optimum and a feasible start."""
    n, m_eq = QP_SIZES[seed % len(QP_SIZES)]
    qp = make_random_eq_qp(n, m_eq, seed)
    x_start = qp.feasible_point(np.random.default_rng(1000 + seed))
    return qp_problem(qp), qp.x_star, x_start


def qp_suite():
    """20 seeded strictly convex equality QPs with oracle optima."""
    return [eq_qp_case(seed) for seed in range(20)]


def solve_tight(name, prob, x_start):
    """(result, x0) of a setting at the tight settings; ALM starts at 0."""
    overrides = VARIANTS[name]
    x0 = np.zeros(prob.n) if overrides["variant"] is Variant.ALM else x_start
    return run(prob, x0, tight_cfg(**overrides)), x0


def oracle_errors(prob, res, x_star):
    """(max-norm error in x, relative error in f1) against the optimum."""
    f_star = prob.f1(x_star)
    return (float(np.max(np.abs(res.x - x_star))),
            abs(prob.f1(res.x) - f_star) / (1.0 + abs(f_star)))


@pytest.fixture(scope="module")
def qp_results():
    """(name, result, prob, x_star, x0) for every variant and instance."""
    t0 = time.perf_counter()
    results = []
    for prob, x_star, x_start in qp_suite():
        for name in VARIANTS:
            res, x0 = solve_tight(name, prob, x_start)
            results.append((name, res, prob, x_star, x0))
    return results, time.perf_counter() - t0


@pytest.fixture(scope="module")
def bp_results():
    """Criterion-3 runs: P-BALM-4 and BALM-4 on the p=200 instance."""
    t0 = time.perf_counter()
    inst, prob, x_feasible = gen_basis_pursuit(200, 512, 10, seed=0)
    out = {}
    for name in ("pbalm-4", "balm-4"):
        cfg = OuterConfig(delta=1e-6, max_outer=200, **VARIANTS[name])
        out[name] = run(prob, x_feasible, cfg)
    return inst, prob, x_feasible, out, time.perf_counter() - t0


def box_fixtures():
    """Separable box QPs whose optimum is the clamp of the free minimizer."""
    cases = [
        (np.array([2.0]), np.array([0.0]), np.array([1.0]), np.array([1.0])),
        (np.array([-3.0]), np.array([-1.0]), np.array([2.0]), np.array([-1.0])),
        (np.array([0.5]), np.array([0.0]), np.array([1.0]), np.array([0.5])),
        (np.array([5.0]), np.array([-2.0]), np.array([1.5]), np.array([1.5])),
        (np.array([2.0, -3.0]), np.zeros(2), np.ones(2), np.array([1.0, 0.0])),
        (np.array([1.0, 4.0, -1.0]), np.full(3, 0.5), np.full(3, 2.0),
         np.array([1.0, 2.0, 0.5])),
    ]
    out = []
    for target, lo, hi, x_opt in cases:
        f2, prox = box_problem_terms(lo, hi)
        prob = ProblemSpec(
            n=target.size,
            f1=lambda x, t=target: float((x - t) @ (x - t)),
            grad_f1=lambda x, t=target: 2.0 * (x - t),
            f2_value=f2, prox_f2=prox,
            name="box-fixture",
        )
        out.append((prob, prox(np.zeros(target.size), 1.0), x_opt))
    return out


class TestCriterion1OracleQp:
    def test_all_variants_match_oracle(self, qp_results):
        results, elapsed = qp_results
        for name, res, prob, x_star, _ in results:
            assert res.status is SolveStatus.EPS_KKT, (name, prob.name)
            x_err, f_err = oracle_errors(prob, res, x_star)
            assert x_err <= 1e-4, (name, prob.name, x_err)
            assert f_err <= 1e-6, (name, prob.name, f_err)
        assert elapsed <= 5.0, elapsed
        print(f"criterion 1: PASS (80 solves, {elapsed:.2f}s)")


class TestStepsHonourTheDescentLemma:
    @pytest.mark.parametrize("name", ["balm-4", "alm-10"])
    def test_penalty_jump_solved_without_rejected_steps(self, name):
        """make_random_eq_qp(10, 4, 3), the suite's fourth instance: when
        backtracking let the descent lemma fail by up to 1e-10 (1 + |f|),
        most line-search candidates after a penalty jump were rejected,
        and these settings took 1466 and 1471 gradients instead of about
        190."""
        prob, x_star, x_start = eq_qp_case(3)
        res, _ = solve_tight(name, prob, x_start)
        assert res.status is SolveStatus.EPS_KKT
        assert res.kkt.is_eps_kkt
        x_err, f_err = oracle_errors(prob, res, x_star)
        assert x_err <= 1e-4 and f_err <= 1e-6, (x_err, f_err)
        assert res.trace[-1].inner_grad_evals <= 400


@pytest.mark.slow
class TestEqualityQpSweep:
    """The suite's instances and starts over seeds 0-599."""

    SEEDS = range(600)

    @pytest.mark.parametrize("name", ["pbalm-4", "balm-4", "alm-10"])
    def test_every_seed_correct(self, name):
        failures = []
        for seed in self.SEEDS:
            prob, x_star, x_start = eq_qp_case(seed)
            res, _ = solve_tight(name, prob, x_start)
            x_err, f_err = oracle_errors(prob, res, x_star)
            if (res.status is not SolveStatus.EPS_KKT or not res.kkt.is_eps_kkt
                    or x_err > 1e-4 or f_err > 1e-6):
                failures.append((seed, res.status.value, x_err))
        assert not failures

    def test_pbalm12_outcomes(self):
        """Prints the outcome classes of P-BALM with phi(k) = k^12, whose
        first penalty jump can exceed what the inner solver resolves.  The
        stopping rule still checks only the residuals, so some runs claim
        eps_kkt at a wrong x; there were 8 such seeds before backtracking
        tested the descent lemma at rounding scale, and there may be no
        more."""
        outcomes = {"correct": 0, "numerical_failure": 0, "eps_kkt_wrong_x": 0,
                    "other": 0}
        for seed in self.SEEDS:
            prob, x_star, x_start = eq_qp_case(seed)
            res, _ = solve_tight("pbalm-12", prob, x_start)
            x_err, f_err = oracle_errors(prob, res, x_star)
            right = x_err <= 1e-4 and f_err <= 1e-6
            if res.status is SolveStatus.EPS_KKT:
                outcomes["correct" if right else "eps_kkt_wrong_x"] += 1
            elif res.status is SolveStatus.NUMERICAL_FAILURE:
                outcomes["numerical_failure"] += 1
            else:
                outcomes["other"] += 1
        print(f"pbalm-12 over {len(self.SEEDS)} seeds: {outcomes}")
        assert outcomes["eps_kkt_wrong_x"] <= 8


class TestCriterion2BoxQp:
    def test_clamped_optima(self):
        t0 = time.perf_counter()
        for prob, x0, x_opt in box_fixtures():
            res = run(prob, x0, tight_cfg(stop_tol=1e-6))
            assert res.status is SolveStatus.EPS_KKT
            assert np.max(np.abs(res.x - x_opt)) <= 1e-5, (x_opt, res.x)
        elapsed = time.perf_counter() - t0
        assert elapsed <= 1.0, elapsed
        print(f"criterion 2: PASS ({elapsed:.2f}s)")


class TestCriterion3BasisPursuit:
    def test_desk_scale_recovery(self, bp_results):
        inst, prob, x_feasible, out, elapsed = bp_results
        f_start = prob.f1(x_feasible)
        for name, res in out.items():
            assert res.status is SolveStatus.EPS_KKT, name
            assert len(res.trace) <= 200, name
            last = res.trace[-1]
            assert max(last.eq_infeas, last.E_norm) <= 1e-5, name
            f_final = last.f1_value
            assert f_final <= f_start, name
            assert abs(f_final - 100.0) / 100.0 <= 0.05, (name, f_final)
        assert elapsed <= 120.0, elapsed
        print(f"criterion 3: PASS ({elapsed:.2f}s)")


class TestCriterion4ExactIdentities:
    def _check(self, diagnostics, label):
        for k, d in enumerate(diagnostics):
            assert d.dual_identity_rel_err <= 1e-12, (label, k)
            assert d.grad_identity_rel_err <= 1e-10, (label, k)
            assert d.completed_square_rel_err <= 1e-10, (label, k)

    def test_identities_on_qp_runs(self, qp_results):
        results, _ = qp_results
        for name, res, prob, _, _ in results:
            self._check(res.diagnostics, (name, prob.name))

    def test_identities_on_bp_runs(self, bp_results):
        _, _, _, out, _ = bp_results
        for name, res in out.items():
            self._check(res.diagnostics, name)

    def test_completed_square_100_random_points(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((2, 4))
        prob = ProblemSpec(
            n=4, p=2, m=3,
            f1=lambda x: float(x @ x) + float(np.sum(np.sin(x))),
            grad_f1=lambda x: 2.0 * x + np.cos(x),
            h=lambda x: A @ (x * x) - 1.0,
            jac_h_transpose_apply=lambda x, y: 2.0 * x * (A.T @ y),
            g=lambda x: x[:3] - 0.5,
            jac_g_transpose_apply=lambda x, y: np.concatenate([y, [0.0]]),
        )
        for _ in range(100):
            x = rng.standard_normal(4)
            v = rng.standard_normal(4)
            mult = Multipliers(rng.standard_normal(2),
                               np.abs(rng.standard_normal(3)))
            pen = PenaltyState(
                rho=float(10.0 ** rng.uniform(-3, 3)),
                nu=float(10.0 ** rng.uniform(-3, 3)),
                gamma=float(10.0 ** rng.uniform(-2, 1)),
            )
            a = eval_pal(prob, x, mult, pen, v)
            b = eval_pal_completed_square(prob, x, mult, pen, v)
            assert abs(a - b) <= 1e-10 * max(abs(a), abs(b), 1.0)
        print("criterion 4: PASS")


class TestCriterion5Invariants:
    def _check_run(self, res, prob, x0, cfg, f_lb):
        all_converged = all(r.inner_converged for r in res.trace)
        f_x0 = eval_objective(prob, x0)
        is_alm = cfg.variant is Variant.ALM
        c1 = f_x0 - f_lb + 1.0 / (2.0 * cfg.delta)
        rho = [r.rho_max for r in res.trace]
        nu = [r.nu_max for r in res.trace]
        assert all(a <= b for a, b in zip(rho, rho[1:]))
        assert all(a <= b for a, b in zip(nu, nu[1:]))
        assert len(res.diagnostics) == len(res.trace)
        for rec, d in zip(res.trace, res.diagnostics):
            assert d.mu_nonneg, rec.k
            assert d.lemma_a_ok, rec.k
            if is_alm or not rec.inner_converged:
                continue
            assert rec.al_bound_slack <= 1e-6 * (1.0 + abs(f_x0)), rec.k
            if all_converged:
                bound = (d.mult_weighted_sq_prev + c1 - d.prox_step_sq
                         + 1e-6 * (1.0 + abs(c1)))
                assert d.mult_weighted_sq <= bound, rec.k

    def test_invariants_on_qp_runs(self, qp_results):
        results, _ = qp_results
        for name, res, prob, x_star, x0 in results:
            cfg = tight_cfg(**VARIANTS[name])
            self._check_run(res, prob, x0, cfg, f_lb=prob.f1(x_star))

    def test_invariants_on_bp_runs(self, bp_results):
        _, prob, x_feasible, out, _ = bp_results
        for name, res in out.items():
            cfg = OuterConfig(delta=1e-6, max_outer=200,
                              **VARIANTS[name])
            self._check_run(res, prob, x_feasible, cfg, f_lb=0.0)
        print("criterion 5: PASS")


class TestCriterion6PenaltySchedule:
    def _firing_rho(self, res):
        return [(k, res.trace[k].rho_max, res.trace[k + 1].rho_max)
                for k, d in enumerate(res.diagnostics)
                if d.rho_increased and k + 1 < len(res.trace)]

    def test_power_schedule_exact(self, qp_results):
        results, _ = qp_results
        checked = 0
        for name, res, _, _, _ in results:
            if name != "pbalm-4":
                continue
            for k, r_k, r_next in self._firing_rho(res):
                cfg = tight_cfg(**VARIANTS[name])
                expected = max(cfg.xi1 * r_k,
                               cfg.rho0 * float((k + 1) ** 4))
                assert r_next == expected, (k, r_next, expected)
                checked += 1
        assert checked > 0, "no firing iterations observed"
        print(f"criterion 6a: PASS ({checked} power firings checked)")

    def test_alm_geometric_growth(self, qp_results):
        results, _ = qp_results
        checked = 0
        for name, res, _, _, _ in results:
            if name != "alm-10":
                continue
            for k, r_k, r_next in self._firing_rho(res):
                assert r_next == 10.0 * r_k, (k, r_next, r_k)
                checked += 1
        assert checked > 0, "no firing iterations observed"
        print(f"criterion 6b: PASS ({checked} geometric firings checked)")


class TestCriterion7QpsParser:
    def test_fixtures_field_exact(self):
        eq = parse_qps_file(os.path.join(FIXTURES, "tiny_eq.qps"))
        assert (eq.name, eq.n, eq.m_rows) == ("TINYEQ", 2, 1)
        assert eq.Q.entries == [(0, 0, 2.0), (1, 1, 2.0)]
        np.testing.assert_array_equal(eq.q, [0.0, 0.0])
        assert eq.c == 0.0
        assert eq.A.entries == [(0, 0, 1.0), (0, 1, 1.0)]
        np.testing.assert_array_equal(eq.row_lower, [2.0])
        np.testing.assert_array_equal(eq.row_upper, [2.0])
        np.testing.assert_array_equal(eq.var_lower, [-np.inf, -np.inf])
        np.testing.assert_array_equal(eq.var_upper, [np.inf, np.inf])

        box = parse_qps_file(os.path.join(FIXTURES, "tiny_box.qps"))
        assert (box.name, box.n, box.m_rows) == ("TINYBOX", 3, 2)
        assert box.Q.entries == [(0, 0, 2.0), (1, 0, 1.0), (1, 1, 2.0),
                                 (2, 1, 1.0), (2, 2, 2.0)]
        np.testing.assert_array_equal(box.q, [-1.0, -2.0, 1.0])
        assert box.c == 3.0
        assert box.A.entries == [(0, 0, 1.0), (1, 0, 1.0), (0, 1, 2.0),
                                 (0, 2, 1.0), (1, 2, 1.0)]
        np.testing.assert_array_equal(box.row_lower, [-np.inf, 0.5])
        np.testing.assert_array_equal(box.row_upper, [4.0, np.inf])
        np.testing.assert_array_equal(box.var_lower, [0.0, 0.1, 0.0])
        np.testing.assert_array_equal(box.var_upper, [1.0, 0.9, 2.0])

    def test_malformed_corpus(self):
        cases = [
            ("missing_endata.qps", MissingSectionError),
            ("unknown_sense.qps", UnknownRowSenseError),
            ("undeclared_column.qps", UndeclaredRowOrColumnError),
            ("bad_number.qps", MalformedNumericFieldError),
            ("crossed_bounds.qps", CrossedBoundsError),
            ("duplicate_fx.qps", DuplicateFixedBoundConflictError),
            ("mixed_quad.qps", MixedQuadSectionsError),
        ]
        for fname, exc in cases:
            with pytest.raises(exc) as info:
                parse_qps_file(os.path.join(MALFORMED, fname))
            assert isinstance(info.value.line_no, int)
            assert f"line {info.value.line_no}" in str(info.value)
        print("criterion 7: PASS")


class TestCriterion8PhaseI:
    @staticmethod
    def _seeded_problem(seed):
        """Random linear equalities/inequalities with a planted strictly
        feasible point inside a box, so the feasible set is nonempty."""
        rng = np.random.default_rng(seed)
        n = 5
        z = rng.uniform(-1.0, 1.0, n)
        A1 = rng.standard_normal((2, n))
        A2 = rng.standard_normal((3, n))
        b1 = A1 @ z
        b2 = A2 @ z + 1.0  # margin keeps z strictly feasible
        f2, prox = box_problem_terms(np.full(n, -5.0), np.full(n, 5.0))
        return ProblemSpec(
            n=n, p=2, m=3,
            f1=lambda x: float(x @ x),
            grad_f1=lambda x: 2.0 * x,
            h=lambda x: A1 @ x - b1,
            jac_h_transpose_apply=lambda x, y: A1.T @ y,
            g=lambda x: A2 @ x - b2,
            jac_g_transpose_apply=lambda x, y: A2.T @ y,
            f2_value=f2, prox_f2=prox,
            name=f"phase1-fixture-{seed}",
        )

    def test_ten_seeded_problems(self):
        t0 = time.perf_counter()
        for seed in range(10):
            prob = self._seeded_problem(seed)
            x_start = np.random.default_rng(500 + seed).standard_normal(prob.n) * 3.0
            x = find_feasible(prob, x_start, tol=1e-6, cfg=OuterConfig())
            assert check_feasible(prob, x, 1e-6), seed
        elapsed = time.perf_counter() - t0
        assert elapsed <= 10.0, elapsed
        print(f"criterion 8a: PASS ({elapsed:.2f}s)")

    def test_inconsistent_raises(self):
        prob = ProblemSpec(
            n=1, p=2,
            f1=lambda x: 0.0, grad_f1=lambda x: np.zeros(1),
            h=lambda x: np.array([x[0], x[0] - 1.0]),
            jac_h_transpose_apply=lambda x, y: np.array([y[0] + y[1]]),
            name="inconsistent",
        )
        with pytest.raises(Phase1Failed):
            find_feasible(prob, np.zeros(1), tol=1e-6, cfg=OuterConfig())
        print("criterion 8b: PASS")


class TestCriterion9Determinism:
    def test_byte_identical_csv_traces(self, tmp_path):
        argv = [
            "--basis-pursuit", "p=200,n=512,k=10",
            "--variant", "pbalm,balm",
            "--alpha", "4", "--delta", "1e-6",
            "--seed", "0", "--max-outer", "200",
        ]
        assert cli_main(argv + ["--out", str(tmp_path / "a.csv")]) == 0
        assert cli_main(argv + ["--out", str(tmp_path / "b.csv")]) == 0
        for v in ("pbalm", "balm"):
            a = (tmp_path / f"a.{v}.csv").read_bytes()
            b = (tmp_path / f"b.{v}.csv").read_bytes()
            assert a == b, v
        print("criterion 9: PASS")
