"""Inexact subproblem solver: smooth term plus a proximable term.

Forward-backward splitting with limited-memory quasi-Newton acceleration
and a line search over the forward-backward envelope, falling back to the
plain proximal-gradient step when the fast candidate fails the decrease
test.  Deterministic: identical inputs produce identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .auglag import inf_norm


class NonFiniteValueError(FloatingPointError):
    """NaN or infinity encountered; usually bad penalty scaling upstream."""


@dataclass
class InnerConfig:
    memory: int = 20
    max_iters: int = 2000
    tol: float = 1e-6
    step_init: Union[float, str] = "auto"
    sufficient_decrease: float = 1e-4

    def __post_init__(self) -> None:
        if self.memory < 1:
            raise ValueError("memory must be >= 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if not 0 < self.sufficient_decrease < 1:
            raise ValueError("sufficient_decrease must lie in (0, 1)")


@dataclass
class InnerResult:
    x: np.ndarray
    residual: float
    iterations: int
    grad_evals: int
    converged: bool


class _LbfgsMemory:
    """Two-loop recursion over the fixed-point residual mapping."""

    def __init__(self, memory: int):
        self.memory = memory
        self.s: list = []
        self.y: list = []

    def reset(self) -> None:
        self.s.clear()
        self.y.clear()

    def push(self, s: np.ndarray, y: np.ndarray) -> None:
        sy = float(s @ y)
        if sy <= 1e-12 * np.linalg.norm(s) * np.linalg.norm(y):
            return
        self.s.append(s)
        self.y.append(y)
        if len(self.s) > self.memory:
            self.s.pop(0)
            self.y.pop(0)

    def direction(self, r: np.ndarray) -> np.ndarray:
        if not self.s:
            return -r
        q = r.copy()
        alphas = []
        for s, y in zip(reversed(self.s), reversed(self.y)):
            a = float(s @ q) / float(s @ y)
            alphas.append(a)
            q -= a * y
        s, y = self.s[-1], self.y[-1]
        q *= float(s @ y) / float(y @ y)
        for (s, y), a in zip(zip(self.s, self.y), reversed(alphas)):
            b = float(y @ q) / float(s @ y)
            q += (a - b) * s
        return -q


def _check_finite(*values) -> None:
    for v in values:
        if not np.all(np.isfinite(v)):
            raise NonFiniteValueError(
                "non-finite value in subproblem evaluation"
            )


def solve_subproblem(
    smooth_value: Callable[[np.ndarray], float],
    smooth_grad: Callable[[np.ndarray], np.ndarray],
    prox: Callable[[np.ndarray, float], np.ndarray],
    x0: np.ndarray,
    cfg: InnerConfig,
    nonsmooth_value: Optional[Callable[[np.ndarray], float]] = None,
) -> InnerResult:
    """Minimize smooth_value + nonsmooth until the natural residual
    ||x - prox(x - grad, 1)||_inf drops below cfg.tol.

    The returned residual is always recomputed from a fresh gradient at
    the returned point.  grad_evals counts every smooth_grad call.
    """
    n_grad = 0

    def grad(z: np.ndarray) -> np.ndarray:
        nonlocal n_grad
        n_grad += 1
        out = np.asarray(smooth_grad(z), dtype=float)
        _check_finite(out)
        return out

    def f2val(z: np.ndarray) -> float:
        if nonsmooth_value is None:
            return 0.0
        return float(nonsmooth_value(z))

    x = np.asarray(x0, dtype=float).copy()
    fx = float(smooth_value(x))
    _check_finite(fx)
    g = grad(x)

    # Already tau-stationary: return immediately with zero iterations.
    res0 = inf_norm(x - prox(x - g, 1.0))
    if res0 <= cfg.tol:
        return InnerResult(x=x, residual=res0, iterations=0,
                           grad_evals=n_grad, converged=True)

    if cfg.step_init == "auto":
        # One finite-difference probe of the local Lipschitz constant.
        gnorm = np.linalg.norm(g)
        d = g / gnorm if gnorm > 0 else np.ones_like(x) / np.sqrt(x.size)
        eps = 1e-6 * (1.0 + inf_norm(x))
        g_probe = grad(x + eps * d)
        lip = np.linalg.norm(g_probe - g) / eps
        gamma = 0.95 / lip if lip > 1e-12 else 1.0
    else:
        gamma = float(cfg.step_init)
        if gamma <= 0:
            raise ValueError("step_init must be positive")

    gamma_min = 1e-14
    sigma = cfg.sufficient_decrease
    mem = _LbfgsMemory(cfg.memory)

    best_x = x.copy()
    best_obj = fx + f2val(x)

    iterations = 0
    converged = False
    for iterations in range(1, cfg.max_iters + 1):
        # Forward-backward step, backtracking gamma until the quadratic
        # upper bound holds at the prox point.
        while True:
            xbar = prox(x - gamma * g, gamma)
            r = x - xbar
            rsq = float(r @ r)
            fbar = float(smooth_value(xbar))
            _check_finite(fbar)
            ub = fx - float(g @ r) + rsq / (2.0 * gamma)
            if fbar <= ub + 1e-10 * (1.0 + abs(fx)) or gamma <= gamma_min:
                break
            gamma *= 0.5
            mem.reset()

        obj_bar = fbar + f2val(xbar)
        if obj_bar < best_obj:
            best_obj = obj_bar
            best_x = xbar.copy()

        # Cheap proxy first; verify with a fresh gradient at the prox point.
        # ||x - T_gamma x||/gamma bounds the unit-step residual from above
        # for gamma <= 1, so this trigger cannot fire too early.
        if inf_norm(r) <= cfg.tol * min(1.0, gamma):
            gbar = grad(xbar)
            res = inf_norm(xbar - prox(xbar - gbar, 1.0))
            if res <= cfg.tol:
                return InnerResult(x=xbar, residual=res, iterations=iterations,
                                   grad_evals=n_grad, converged=True)
            s_step = xbar - x
            x, fx, g = xbar, fbar, gbar
            cbar = prox(x - gamma * g, gamma)
            mem.push(s_step, (x - cbar) - r)
            continue

        fbe = fx - float(g @ r) + rsq / (2.0 * gamma) + f2val(xbar)
        d = mem.direction(r)

        accepted = False
        tau = 1.0
        for _ in range(12):
            cand = x - (1.0 - tau) * r + tau * d
            fc = float(smooth_value(cand))
            if np.isfinite(fc):
                gc = grad(cand)
                cbar = prox(cand - gamma * gc, gamma)
                rc = cand - cbar
                fbe_c = (fc - float(gc @ rc) + float(rc @ rc) / (2.0 * gamma)
                         + f2val(cbar))
                if fbe_c <= fbe - sigma * rsq / (2.0 * gamma):
                    accepted = True
                    break
            tau *= 0.5
        if not accepted:
            # Plain proximal-gradient fallback.
            cand, fc = xbar, fbar
            gc = grad(cand)
            cbar = prox(cand - gamma * gc, gamma)
            rc = cand - cbar

        mem.push(cand - x, rc - r)
        x, fx, g = cand, fc, gc

    # Out of iterations: return the best feasible iterate seen, with the
    # residual recomputed from scratch there.
    gb = grad(best_x)
    res = inf_norm(best_x - prox(best_x - gb, 1.0))
    return InnerResult(x=best_x, residual=res, iterations=iterations,
                       grad_evals=n_grad, converged=res <= cfg.tol)
