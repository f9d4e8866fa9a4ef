"""A proximable f2 with a value: equality QPs with f2 = 2||x||_1.

Every other f2 in the tests is 0 or a box indicator, whose prox ignores its
step and whose value is 0 on its domain.  Here the step that the inner
solver hands the prox, the f2 terms of the forward-backward envelope and
the f2 part of the reference test all act, and each solve is judged by a
KKT check written from the problem data alone, outside the package."""

import dataclasses

import numpy as np
import pytest

from pbalm.outer import SolveStatus
from pbalm.problem_gen import make_random_eq_qp, qp_problem
from test_acceptance import solve_tight

WEIGHT = 2.0


def l1_problem(qp):
    """The QP's maps with f2 = WEIGHT ||x||_1, whose prox at step t is the
    soft threshold at WEIGHT t."""
    def f2_value(x):
        return WEIGHT * float(np.abs(x).sum())

    def prox_f2(v, step):
        return np.sign(v) * np.maximum(np.abs(v) - WEIGHT * step, 0.0)

    return dataclasses.replace(qp_problem(qp), f2_value=f2_value,
                               prox_f2=prox_f2, name=f"l1-eq-qp-s{qp.seed}")


def l1_kkt_error(qp, x):
    """Largest violation at x of the KKT conditions of
    min 1/2 x'Qx + q'x + WEIGHT ||x||_1  s.t.  Ax = b.

    On the support S = {|x_i| > 1e-6}, lam is the least-squares solution
    of (A^T lam)_S = -(Qx + q + WEIGHT sign x)_S; the conditions are that
    equation's residual, |Qx + q + A^T lam| <= WEIGHT off S, x = 0 off S,
    and Ax = b."""
    grad = qp.Q @ x + qp.q
    on = np.abs(x) > 1e-6
    sub = WEIGHT * np.sign(x[on])
    lam = np.linalg.lstsq(qp.A[:, on].T, -(grad[on] + sub), rcond=None)[0]
    grad_l = grad + qp.A.T @ lam
    parts = [np.abs(grad_l[on] + sub),
             np.maximum(0.0, np.abs(grad_l[~on]) - WEIGHT),
             np.abs(x[~on]),
             np.abs(qp.A @ x - qp.b)]
    return max(float(p.max()) for p in parts if p.size)


# Seeds and tolerance are set so that an inner solver which drops f2 from
# the envelope fails: it ends these runs at KKT errors of 3.2e-4 (seed 9,
# BALM), 9.4e-4 and 4.2e-4 (seed 43, P-BALM and BALM), while the solver as
# written stays at or below 1.8e-5 on all nine.  A prox called with step 1
# in place of gamma fails every P-BALM run, at errors above 1.
L1_SEEDS = (9, 13, 43)
L1_KKT_TOL = 1e-4


@pytest.mark.parametrize("seed", L1_SEEDS)
def test_l1_regularized_qp_meets_independent_kkt(seed):
    qp = make_random_eq_qp(12, 4, seed)
    prob = l1_problem(qp)
    x_start = qp.feasible_point(np.random.default_rng(1000 + seed))
    for name in ("pbalm-4", "balm-4", "alm-10"):
        res, _ = solve_tight(name, prob, x_start)
        assert res.status is SolveStatus.EPS_KKT, name
        assert l1_kkt_error(qp, res.x) <= L1_KKT_TOL, name
