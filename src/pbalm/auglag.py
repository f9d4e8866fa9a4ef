"""Augmented Lagrangian evaluations, residuals and KKT certificates.

All functions here are stateless over immutable inputs.  The penalty
weights rho and nu are positive scalars, which ``outer.OuterConfig``
checks when it is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problem import ProblemSpec


def inf_norm(v: np.ndarray) -> float:
    """||v||_inf with the empty vector mapping to 0."""
    return float(np.abs(v).max()) if v.size else 0.0


@dataclass
class Multipliers:
    lam: np.ndarray  # equality multipliers, length p
    mu: np.ndarray   # inequality multipliers, length m, kept >= 0


@dataclass
class PenaltyState:
    """Penalty weights and proximal stepsize; rho/nu never decrease."""

    rho: float
    nu: float
    gamma: float


@dataclass
class KktReport:
    stationarity: float
    eq_infeas: float
    ineq_infeas: float
    complementarity_ok: bool
    epsilon: float

    @property
    def is_eps_kkt(self) -> bool:
        e = self.epsilon
        return (
            self.stationarity <= e
            and self.eq_infeas <= e
            and self.ineq_infeas <= e
            and self.complementarity_ok
        )


def grad_lagrangian(prob: ProblemSpec, x: np.ndarray, mult: Multipliers) -> np.ndarray:
    """grad f1(x) + Jh(x)^T lam + Jg(x)^T mu."""
    grad = prob.grad_f1(x).astype(float, copy=True)
    if prob.p:
        grad += prob.jac_h_transpose_apply(x, mult.lam)
    if prob.m:
        grad += prob.jac_g_transpose_apply(x, mult.mu)
    return grad


def _ineq_terms(g_x: np.ndarray, mu: np.ndarray, nu: float) -> float:
    # (1/2nu)||[nu g + mu]_+||^2 - (1/2nu)||mu||^2
    shifted = np.maximum(0.0, nu * g_x + mu)
    return float((shifted**2 / (2.0 * nu)).sum() - (mu**2 / (2.0 * nu)).sum())


def eval_al(prob: ProblemSpec, x: np.ndarray, mult: Multipliers,
            rho: float, nu: float) -> float:
    """Augmented Lagrangian without the proximal term (f2 excluded)."""
    x = prob.check_x(x)
    val = prob.f1(x)
    if prob.p:
        h_x = prob.h(x)
        val += float(mult.lam @ h_x) + float((rho * h_x**2).sum() / 2.0)
    if prob.m:
        val += _ineq_terms(prob.g(x), mult.mu, nu)
    return val


def eval_pal(prob: ProblemSpec, x: np.ndarray, mult: Multipliers,
             pen: PenaltyState, v: np.ndarray) -> float:
    """Proximal augmented Lagrangian (f2 intentionally excluded).

    Adds (1/2gamma)||x - v||^2 to the non-proximal value, centering the
    subproblem at v.
    """
    if pen.gamma <= 0:
        raise ValueError("gamma must be strictly positive")
    val = eval_al(prob, x, mult, pen.rho, pen.nu)
    d = np.asarray(x, dtype=float) - np.asarray(v, dtype=float)
    return val + float(d @ d) / (2.0 * pen.gamma)


def grad_al(prob: ProblemSpec, x: np.ndarray, mult: Multipliers,
            rho: float, nu: float) -> np.ndarray:
    """Gradient of eval_al in x: grad f1 + Jh^T(lam + rho h) + Jg^T [nu g + mu]_+."""
    x = prob.check_x(x)
    grad = prob.grad_f1(x).astype(float, copy=True)
    if prob.p:
        h_x = prob.h(x)
        grad += prob.jac_h_transpose_apply(x, mult.lam + rho * h_x)
    if prob.m:
        shifted = np.maximum(0.0, nu * prob.g(x) + mult.mu)
        grad += prob.jac_g_transpose_apply(x, shifted)
    return grad


def grad_pal(prob: ProblemSpec, x: np.ndarray, mult: Multipliers,
             pen: PenaltyState, v: np.ndarray) -> np.ndarray:
    if pen.gamma <= 0:
        raise ValueError("gamma must be strictly positive")
    grad = grad_al(prob, x, mult, pen.rho, pen.nu)
    return grad + (np.asarray(x, dtype=float) - np.asarray(v, dtype=float)) / pen.gamma


def eval_pal_completed_square(prob: ProblemSpec, x: np.ndarray, mult: Multipliers,
                              pen: PenaltyState, v: np.ndarray) -> float:
    """Equivalent rewriting of eval_pal with the equality penalty completed
    into a square; used as an exactness cross-check."""
    x = prob.check_x(x)
    val = prob.f1(x)
    if prob.p:
        rho = pen.rho
        h_x = prob.h(x)
        val += float(np.sum((rho * h_x + mult.lam) ** 2 / (2.0 * rho)))
        val -= float(np.sum(mult.lam**2 / (2.0 * rho)))
    if prob.m:
        nu = pen.nu
        shifted = np.maximum(0.0, nu * prob.g(x) + mult.mu)
        val += float(np.sum(shifted**2 / (2.0 * nu)))
        val -= float(np.sum(mult.mu**2 / (2.0 * nu)))
    d = x - np.asarray(v, dtype=float)
    return val + float(d @ d) / (2.0 * pen.gamma)


def compute_E(g_x: np.ndarray, mu_prev: np.ndarray, nu_prev: float) -> np.ndarray:
    """Complementarity surrogate: componentwise min{-g(x), mu/nu}."""
    return np.minimum(-g_x, mu_prev / nu_prev)


def natural_residual(prob: ProblemSpec, x: np.ndarray, grad: np.ndarray) -> float:
    """||x - prox_f2(x - grad)||_inf; zero exactly at stationary points."""
    x = np.asarray(x, dtype=float)
    return inf_norm(x - prob.prox_f2(x - grad, 1.0))


def kkt_report(prob: ProblemSpec, x: np.ndarray, mult: Multipliers,
               epsilon: float) -> KktReport:
    """Residuals of the epsilon-KKT conditions at (x, lam, mu)."""
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    x = prob.check_x(x)
    stationarity = natural_residual(prob, x, grad_lagrangian(prob, x, mult))
    h_x = prob.h(x) if prob.p else np.zeros(0)
    g_x = prob.g(x) if prob.m else np.zeros(0)
    comp_ok = True
    if prob.m:
        comp_ok = bool(np.all(mult.mu >= 0)) and bool(
            np.all(mult.mu[g_x < -epsilon] == 0)
        )
    return KktReport(
        stationarity=stationarity,
        eq_infeas=inf_norm(h_x),
        ineq_infeas=inf_norm(np.maximum(0.0, g_x)),
        complementarity_ok=comp_ok,
        epsilon=epsilon,
    )
