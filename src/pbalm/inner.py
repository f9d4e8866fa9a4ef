"""Inexact subproblem solver: smooth term plus a proximable term.

Forward-backward splitting with limited-memory quasi-Newton acceleration
and a line search over the forward-backward envelope, falling back to the
plain proximal-gradient step when the fast candidate fails the decrease
test.  Deterministic: identical inputs produce identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .auglag import inf_norm


class NonFiniteValueError(FloatingPointError):
    """NaN or infinity encountered; usually bad penalty scaling upstream."""


@dataclass
class InnerConfig:
    memory: int = 20
    max_iters: int = 2000

    def __post_init__(self) -> None:
        if self.memory < 1:
            raise ValueError("memory must be >= 1")


@dataclass
class InnerResult:
    x: np.ndarray
    value: float       # smooth_value(x)
    grad: np.ndarray   # smooth_grad(x)
    residual: float
    iterations: int
    grad_evals: int
    converged: bool


class _LbfgsMemory:
    """Two-loop recursion over the fixed-point residual mapping."""

    def __init__(self, memory: int):
        self.memory = memory
        self.pairs: list = []  # (s, y, s.y), oldest first; push computes s.y

    def reset(self) -> None:
        self.pairs.clear()

    def push(self, s: np.ndarray, y: np.ndarray) -> None:
        sy = float(s @ y)
        if sy <= 1e-12 * np.linalg.norm(s) * np.linalg.norm(y):
            return
        self.pairs.append((s, y, sy))
        if len(self.pairs) > self.memory:
            self.pairs.pop(0)

    def direction(self, r: np.ndarray) -> np.ndarray:
        if not self.pairs:
            return -r
        q = r.copy()
        alphas = []
        for s, y, sy in reversed(self.pairs):
            a = float(s @ q) / sy
            alphas.append(a)
            q -= a * y
        _, y, sy = self.pairs[-1]
        q *= sy / float(y @ y)
        for (s, y, sy), a in zip(self.pairs, reversed(alphas)):
            b = float(y @ q) / sy
            q += (a - b) * s
        return -q


def _norm2(v: np.ndarray) -> float:
    """||v||_2, scaled by ||v||_inf first when the plain sum of squares
    overflows."""
    with np.errstate(over="ignore"):
        n = np.linalg.norm(v)
    if np.isfinite(n):
        return n
    s = inf_norm(v)
    return s * np.linalg.norm(v / s) if np.isfinite(s) else s


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
    tol: float,
    cfg: InnerConfig,
    nonsmooth_value: Optional[Callable[[np.ndarray], float]] = None,
) -> InnerResult:
    """Minimize smooth_value + nonsmooth until the natural residual
    ||x - prox(x - grad, 1)||_inf drops below tol > 0.

    The returned residual is always recomputed from a fresh gradient at
    the returned point, and that gradient and the smooth value there come
    back with it.  grad_evals counts every smooth_grad call.  The
    returned point is never the ``x0`` array itself, and ``x0`` is not
    modified.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
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

    x = np.asarray(x0, dtype=float)
    fx = float(smooth_value(x))
    _check_finite(fx)
    g = grad(x)

    # Already tau-stationary: return immediately with zero iterations.
    res0 = inf_norm(x - prox(x - g, 1.0))
    if res0 <= tol:
        return InnerResult(x=x.copy(), value=fx, grad=g, residual=res0,
                           iterations=0, grad_evals=n_grad, converged=True)

    # One finite-difference probe of the local Lipschitz constant.
    gnorm = _norm2(g)
    d = g / gnorm if gnorm > 0 else np.ones_like(x) / np.sqrt(x.size)
    eps = 1e-6 * (1.0 + inf_norm(x))
    g_probe = grad(x + eps * d)
    lip = _norm2(g_probe - g) / eps
    gamma = 0.95 / lip if lip > 1e-12 else 1.0

    gamma_min = 1e-14
    sigma = 1e-4  # sufficient decrease of the envelope line search
    mem = _LbfgsMemory(cfg.memory)

    best_x, best_f = x.copy(), fx
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

        f2bar = f2val(xbar)
        obj_bar = fbar + f2bar
        if obj_bar < best_obj:
            best_obj = obj_bar
            best_x, best_f = xbar.copy(), fbar

        # Cheap proxy first: ||x - T_gamma x||/gamma bounds the unit-step
        # residual from above for gamma <= 1, so this trigger cannot fire
        # too early.  When it fires, the prox point is verified with the
        # gradient the proximal-gradient step below takes there anyway.
        near_stationary = inf_norm(r) <= tol * min(1.0, gamma)

        accepted = False
        if not near_stationary:
            fbe = fx - float(g @ r) + rsq / (2.0 * gamma) + f2bar
            d = mem.direction(r)
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
            # Plain proximal-gradient step.
            cand, fc = xbar, fbar
            gc = grad(cand)
            if near_stationary:
                res = inf_norm(cand - prox(cand - gc, 1.0))
                if res <= tol:
                    return InnerResult(x=cand, value=fc, grad=gc, residual=res,
                                       iterations=iterations, grad_evals=n_grad,
                                       converged=True)
            cbar = prox(cand - gamma * gc, gamma)
            rc = cand - cbar

        mem.push(cand - x, rc - r)
        x, fx, g = cand, fc, gc

    # Out of iterations: return the best feasible iterate seen, with the
    # residual recomputed from scratch there.
    gb = grad(best_x)
    res = inf_norm(best_x - prox(best_x - gb, 1.0))
    return InnerResult(x=best_x, value=best_f, grad=gb, residual=res,
                       iterations=iterations, grad_evals=n_grad,
                       converged=res <= tol)
