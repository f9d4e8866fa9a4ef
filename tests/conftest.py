import numpy as np
import pytest

from pbalm.problem import ProblemSpec, box_problem_terms


def fd_grad(f, x, eps=None):
    """Central-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    if eps is None:
        eps = 1e-6 * (1.0 + np.max(np.abs(x)))
    out = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = eps
        out[i] = (f(x + e) - f(x - e)) / (2.0 * eps)
    return out


def rel_err(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    denom = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-30)
    return np.max(np.abs(a - b)) / denom


def quadratic_problem(n=2):
    """Unconstrained min ||x||^2."""
    return ProblemSpec(
        n=n,
        f1=lambda x: float(x @ x),
        grad_f1=lambda x: 2.0 * x,
        name="quadratic",
    )


def eq_qp_1d():
    """min x^2 s.t. x = 1; optimum x=1, lambda=-2."""
    return ProblemSpec(
        n=1, p=1,
        f1=lambda x: float(x @ x),
        grad_f1=lambda x: 2.0 * x,
        h=lambda x: x - 1.0,
        jac_h_transpose_apply=lambda x, y: y.copy(),
        name="eq-qp-1d",
    )


def simplex_qp():
    """min 1/2 ||x||^2 s.t. x1 + x2 = 2 over R^2; optimum (1,1), lambda=-1."""
    A = np.array([[1.0, 1.0]])
    return ProblemSpec(
        n=2, p=1,
        f1=lambda x: 0.5 * float(x @ x),
        grad_f1=lambda x: x.copy(),
        h=lambda x: A @ x - 2.0,
        jac_h_transpose_apply=lambda x, y: A.T @ y,
        name="sum-to-two-qp",
    )


def box_qp_1d(target=2.0, lower=0.0, upper=1.0):
    """min (x - target)^2 over [lower, upper]."""
    f2, prox = box_problem_terms(np.array([lower]), np.array([upper]))
    return ProblemSpec(
        n=1,
        f1=lambda x: float((x[0] - target) ** 2),
        grad_f1=lambda x: np.array([2.0 * (x[0] - target)]),
        f2_value=f2, prox_f2=prox,
        name=f"box-qp-1d-{target}",
    )


def ineq_problem():
    """min ||x - (2, 2)||^2 s.t. x1 + x2 <= 2; optimum (1, 1), mu = 2."""
    A = np.array([[1.0, 1.0]])
    c = np.array([2.0, 2.0])
    return ProblemSpec(
        n=2, m=1,
        f1=lambda x: float((x - c) @ (x - c)),
        grad_f1=lambda x: 2.0 * (x - c),
        g=lambda x: A @ x - 2.0,
        jac_g_transpose_apply=lambda x, y: A.T @ y,
        name="ineq-qp",
    )


def neg_exp_problem():
    """min -exp(x), unbounded below; the inner solver's steps from x = 10
    overflow."""
    return ProblemSpec(
        n=1,
        f1=lambda x: float(-np.exp(x[0])),
        grad_f1=lambda x: -np.exp(x),
        name="neg-exp",
    )
