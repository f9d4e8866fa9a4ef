"""Inexact subproblem solver: smooth term plus a proximable term.

Forward-backward splitting with limited-memory quasi-Newton acceleration.
Once the memory holds a pair, a line search over the forward-backward
envelope runs along the quasi-Newton direction; while it is empty, or when
no candidate passes the decrease test, the plain proximal-gradient step is
taken.  Each point gets one value, one gradient, one prox step and one f2.
Deterministic: identical inputs produce identical outputs.
"""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .auglag import inf_norm, natural_residual


# Relative slack of the backtracking test: a few units in the last place.
_ROUNDING = 10 * np.finfo(float).eps


class NonFiniteValueError(FloatingPointError):
    """The subproblem cannot be solved in floating point: a value or
    gradient is NaN or infinite, or no stepsize down to the solver's floor
    satisfies the descent lemma, so its curvature exceeds what the iterates
    can resolve.  Usually bad penalty scaling upstream.  ``grad_evals``
    counts the smooth-gradient calls the solve made before it raised."""

    def __init__(self, message: str, grad_evals: int):
        super().__init__(message)
        self.grad_evals = grad_evals


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
        # (s, y, s.y), oldest first; once full, append drops the oldest.
        self.pairs: collections.deque = collections.deque(maxlen=memory)

    def reset(self) -> None:
        self.pairs.clear()

    def push(self, s: np.ndarray, y: np.ndarray) -> None:
        sy = float(s @ y)
        if not sy <= 1e-12 * math.sqrt(s @ s) * math.sqrt(y @ y):  # NaN passes
            self.pairs.append((s, y, sy))

    def direction(self, r: np.ndarray) -> np.ndarray:
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


def solve_subproblem(
    smooth_value: Callable[[np.ndarray], float],
    smooth_grad: Callable[[np.ndarray], np.ndarray],
    prox: Callable[[np.ndarray, float], np.ndarray],
    x0: np.ndarray,
    tol: float,
    cfg: InnerConfig,
    nonsmooth_value: Callable[[np.ndarray], float] = lambda z: 0.0,
) -> InnerResult:
    """Minimize smooth_value + nonsmooth until the natural residual
    ||x - prox(x - grad, 1)||_inf drops below tol > 0.

    The returned residual is always recomputed from a fresh gradient at
    the returned point, and that gradient and the smooth value there come
    back with it.  grad_evals counts every smooth_grad call, on the result
    and on a raised NonFiniteValueError alike.  ``x0`` is not modified.
    The returned point is the ``x0`` array itself on a zero-iteration exit,
    and when no iterate improves on it before the iterations run out.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    n_grad = 0

    def finite(v):
        if not (math.isfinite(v) if isinstance(v, float) else np.isfinite(v).all()):
            raise NonFiniteValueError(
                "non-finite value in subproblem evaluation", n_grad)
        return v

    def grad(z: np.ndarray) -> np.ndarray:
        nonlocal n_grad
        n_grad += 1
        return finite(np.asarray(smooth_grad(z), dtype=float))

    def forward_backward(z: np.ndarray, gz: np.ndarray):
        """(zbar, z - zbar, f2(zbar)), zbar the prox point at this gamma."""
        zbar = prox(z - gamma * gz, gamma)
        return zbar, z - zbar, nonsmooth_value(zbar)

    def result(z: np.ndarray, fz: float, gz: np.ndarray) -> InnerResult:
        """Exit at z, given the value and a fresh gradient there."""
        residual = natural_residual(prox, z, gz)
        return InnerResult(x=z, value=fz, grad=gz, residual=residual,
                           iterations=iterations, grad_evals=n_grad,
                           converged=residual <= tol)

    x = np.asarray(x0, dtype=float)
    fx = finite(float(smooth_value(x)))
    g = grad(x)

    # Already tau-stationary: return the start with zero iterations.
    iterations = 0
    best_x, best_f = x, fx
    start = result(x, fx, g)
    if start.converged:
        return start

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
    best_obj = fx + nonsmooth_value(x)
    xbar, r, f2bar = forward_backward(x, g)

    for iterations in range(1, cfg.max_iters + 1):
        # Backtrack gamma until the quadratic upper bound holds at the prox
        # point carried from the last iteration.  The slack only absorbs the
        # rounding of fx and fbar: the envelope line search needs the bound
        # itself, and a looser test lets too long a step through unnoticed.
        slack = _ROUNDING * (1.0 + abs(fx))
        while True:
            rsq = float(r @ r)
            fbar = finite(float(smooth_value(xbar)))
            ub = fx - float(g @ r) + rsq / (2.0 * gamma)
            if fbar <= ub + slack:
                break
            if gamma <= gamma_min:
                raise NonFiniteValueError(
                    f"no step down to {gamma_min:g} satisfies the descent lemma",
                    n_grad)
            gamma *= 0.5
            mem.reset()
            xbar, r, f2bar = forward_backward(x, g)

        obj_bar = fbar + f2bar
        if obj_bar < best_obj:
            best_obj = obj_bar
            best_x, best_f = xbar, fbar

        # Cheap proxy first: ||x - T_gamma x||/gamma bounds the unit-step
        # residual from above for gamma <= 1, so this trigger cannot fire
        # too early.  When it fires, the prox point is verified with the
        # gradient the proximal-gradient step below takes there anyway.
        near_stationary = inf_norm(r) <= tol * min(1.0, gamma)

        accepted = False
        if not near_stationary and mem.pairs:
            fbe = ub + f2bar  # envelope at x: the bound just passed, plus f2
            d = mem.direction(r)
            for tau in (0.5 ** i for i in range(12)):
                cand = x - (1.0 - tau) * r + tau * d
                fc = float(smooth_value(cand))
                if math.isfinite(fc):
                    gc = grad(cand)
                    cbar, rc, f2c = forward_backward(cand, gc)
                    fbe_c = (fc - float(gc @ rc) + float(rc @ rc) / (2.0 * gamma)
                             + f2c)
                    if fbe_c <= fbe - sigma * rsq / (2.0 * gamma):
                        accepted = True
                        break
        if not accepted:
            # Plain proximal-gradient step.
            cand, fc, gc = xbar, fbar, grad(xbar)
            if near_stationary:
                out = result(cand, fc, gc)
                if out.converged:
                    return out
            cbar, rc, f2c = forward_backward(cand, gc)

        mem.push(cand - x, rc - r)
        x, fx, g, xbar, r, f2bar = cand, fc, gc, cbar, rc, f2c

    # Out of iterations: the best feasible iterate seen, certified afresh.
    return result(best_x, best_f, grad(best_x))
