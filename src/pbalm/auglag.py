"""Augmented Lagrangian evaluations, residuals and KKT certificates.

The augmented Lagrangian's gradient is the Lagrangian gradient at the
first-order multiplier estimates lam + rho h(x) and [mu + nu g(x)]_+, so
``grad_lagrangian`` is the one place where Jh^T and Jg^T are applied.

The subproblem evaluators ``eval_al``, ``eval_pal``, ``grad_al`` and
``grad_pal`` take a ``Subproblem``, which computes its constant once and
each point's estimate [nu g(x) + mu]_+ once.  Everything else here, the
cross-checks ``grad_lagrangian`` and ``eval_pal_completed_square``
included, is stateless over immutable inputs.  Callers guarantee the
inputs: x is a float vector of length n, which ``outer.run`` checks once
on its start point and every iterate keeps, and the penalty
weights rho and nu and the stepsize gamma are positive scalars, which
``outer.OuterConfig`` checks when it is built.  Hot products use
``ndarray.dot``: on small operands ``@`` costs about 0.7 us more per call
for the same BLAS call and the same bits.
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
    """grad f1(x) + Jh(x)^T lam + Jg(x)^T mu, a fresh array."""
    grad = prob.grad_f1(x)
    if not (prob.p or prob.m):
        return grad.astype(float, copy=True)
    if prob.p:
        grad = grad + prob.jac_h_transpose_apply(x, mult.lam)
    if prob.m:
        grad = grad + prob.jac_g_transpose_apply(x, mult.mu)
    return grad


class Subproblem:
    """The data one outer iteration fixes: the problem, the multipliers
    and the penalties, with (1/2nu)||mu||^2 computed once.

    It also holds the first-order estimate [nu g(x) + mu]_+ at the last
    point it was asked for, so a value and then a gradient at the same
    array compute it once.  A point must not be modified in place after
    it is evaluated, and the returned estimate must not be modified.
    """

    def __init__(self, prob: ProblemSpec, mult: Multipliers, pen: PenaltyState):
        self.prob, self.mult, self.pen = prob, mult, pen
        self.mu_sq = (mult.mu**2 / (2.0 * pen.nu)).sum()
        self._at = self._mu_est = None

    def mu_estimate(self, x: np.ndarray) -> np.ndarray:
        """[nu g(x) + mu]_+, computed once per point."""
        if x is not self._at:
            self._at = x
            self._mu_est = np.maximum(0.0, self.pen.nu * self.prob.g(x)
                                      + self.mult.mu)
        return self._mu_est


def eval_al(sub: Subproblem, x: np.ndarray) -> float:
    """Augmented Lagrangian without the proximal term (f2 excluded)."""
    prob, mult, pen = sub.prob, sub.mult, sub.pen
    val = prob.f1(x)
    if prob.p:
        h_x = prob.h(x)
        val += float(mult.lam.dot(h_x)) + float((pen.rho * h_x**2).sum() / 2.0)
    if prob.m:
        # (1/2nu)||[nu g + mu]_+||^2 - (1/2nu)||mu||^2
        shifted = sub.mu_estimate(x)
        val += float((shifted**2 / (2.0 * pen.nu)).sum() - sub.mu_sq)
    return val


def eval_pal(sub: Subproblem, x: np.ndarray, v: np.ndarray) -> float:
    """Proximal augmented Lagrangian (f2 intentionally excluded).

    Adds (1/2gamma)||x - v||^2 to the non-proximal value, centering the
    subproblem at v.
    """
    val = eval_al(sub, x)
    d = x - v
    return val + float(d.dot(d)) / (2.0 * sub.pen.gamma)


def grad_al(sub: Subproblem, x: np.ndarray) -> np.ndarray:
    """Gradient of eval_al in x: the Lagrangian gradient at the first-order
    estimates lam + rho h(x) and [nu g(x) + mu]_+."""
    prob, mult = sub.prob, sub.mult
    lam = mult.lam + sub.pen.rho * prob.h(x) if prob.p else mult.lam
    mu = sub.mu_estimate(x) if prob.m else mult.mu
    return grad_lagrangian(prob, x, Multipliers(lam, mu))


def grad_pal(sub: Subproblem, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    grad = grad_al(sub, x)
    grad += (x - v) / sub.pen.gamma
    return grad


def eval_pal_completed_square(prob: ProblemSpec, x: np.ndarray, mult: Multipliers,
                              pen: PenaltyState, v: np.ndarray) -> float:
    """Equivalent rewriting of eval_pal with the equality penalty completed
    into a square; used as an exactness cross-check."""
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
    d = x - v
    return val + float(d.dot(d)) / (2.0 * pen.gamma)


def compute_E(g_x: np.ndarray, mu_prev: np.ndarray, nu_prev: float) -> np.ndarray:
    """Complementarity surrogate: componentwise min{-g(x), mu/nu}."""
    return np.minimum(-g_x, mu_prev / nu_prev)


def natural_residual(prox, x: np.ndarray, grad: np.ndarray) -> float:
    """||x - prox(x - grad, 1)||_inf; zero exactly at stationary points."""
    return inf_norm(x - prox(x - grad, 1.0))


def kkt_report(stationarity: float, h: np.ndarray, g: np.ndarray,
               mu: np.ndarray, epsilon: float) -> KktReport:
    """The epsilon-KKT conditions from h, g, the inequality multipliers mu
    and the natural residual of the Lagrangian gradient at one point."""
    if not epsilon >= 0:
        raise ValueError("epsilon must be non-negative")
    return KktReport(
        stationarity=stationarity,
        eq_infeas=inf_norm(h),
        ineq_infeas=inf_norm(np.maximum(0.0, g)),
        complementarity_ok=bool(np.all(mu >= 0) and np.all(mu[g < -epsilon] == 0)),
        epsilon=epsilon,
    )
