"""Inexact subproblem solver: smooth term plus a proximable term.

Forward-backward splitting with limited-memory quasi-Newton acceleration.
Once the memory holds a pair, a line search over the forward-backward
envelope runs along the quasi-Newton direction; while it is empty, or when
no candidate passes the decrease test, the plain proximal-gradient step is
taken.  Each point gets one value, one gradient, one prox step and one f2.
Deterministic: identical inputs produce identical outputs.

The L-BFGS direction is the two-loop recursion in the compact form of
Byrd, Nocedal and Schnabel (1994); ``_LbfgsMemory`` states its formulas
and their costs.  Hot products use ``ndarray.dot``: on small operands
``@`` costs about 0.7 us more per call for the same BLAS call and the same
bits.
"""

from __future__ import annotations

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
        if self.memory < 1 or self.max_iters < 1:
            raise ValueError("memory and max_iters must be >= 1")


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
    """L-BFGS over the fixed-point residual mapping, in the compact form of
    Byrd, Nocedal and Schnabel (1994).

    A push keeps a pair unless s.y <= 1e-12 |s| |y|; a full memory drops
    its oldest pair, and ``reset()`` empties it.  The k pairs (s_i, y_i),
    oldest first, are the rows lo..hi-1 of the (2 memory, n) buffers S and
    Y, a window that slides down the buffers and is copied back to row 0
    when it reaches their end, once per ``memory`` pushes.  Beside them sit
    sy_i = s_i.y_i and the inverse of R = triu(S Y^T), upper triangular, at
    the same indices.  A push appends one column to R^-1,
    -R^-1 (S y) / sy above the diagonal and 1/sy on it: one (k x n) product
    and one k x k one, besides the three dot products of the curvature
    test.  Dropping the oldest pair moves ``lo`` and costs nothing, because
    the trailing block of an upper-triangular inverse is the inverse of the
    trailing block.

    ``direction(r)`` is the two-loop recursion with its scalar recurrences
    solved as triangular systems: a = R^-1 (S r), q = theta (r - Y^T a)
    with theta = sy/yy of the newest pair, c = R^-T (sy * a - Y q), and the
    direction is -(q + S^T c).  That is four (k x n) products and two
    k x k ones, in numpy alone, with no scipy.linalg.
    """

    def __init__(self, memory: int, n: int):
        self.memory = memory
        self.S = np.empty((2 * memory, n))
        self.Y = np.empty((2 * memory, n))
        self.sy = np.empty(2 * memory)
        self.Rinv = np.zeros((2 * memory, 2 * memory))
        self.lo = self.hi = 0
        self.theta = 1.0

    def __len__(self) -> int:
        return self.hi - self.lo

    def reset(self) -> None:
        self.lo = self.hi = 0

    def push(self, s: np.ndarray, y: np.ndarray) -> None:
        sy = float(s.dot(y))
        yy = float(y.dot(y))
        if sy <= 1e-12 * math.sqrt(s.dot(s)) * math.sqrt(yy):  # NaN passes
            return
        lo, hi = self.lo, self.hi
        if hi - lo == self.memory:
            lo += 1
        if hi == self.sy.size:  # the window is at the end: back to row 0
            hi -= lo
            for buf in (self.S, self.Y, self.sy):
                buf[:hi] = buf[lo:]
            self.Rinv[:hi, :hi] = self.Rinv[lo:, lo:]
            lo = 0
        self.S[hi] = s
        self.Y[hi] = y
        self.sy[hi] = sy
        Rinv = self.Rinv
        Rinv[lo:hi, hi] = Rinv[lo:hi, lo:hi].dot(self.S[lo:hi].dot(y)) / -sy
        Rinv[hi, hi] = 1.0 / sy
        self.lo, self.hi, self.theta = lo, hi + 1, sy / yy

    def direction(self, r: np.ndarray) -> np.ndarray:
        lo, hi = self.lo, self.hi
        S, Y, Rinv = self.S[lo:hi], self.Y[lo:hi], self.Rinv[lo:hi, lo:hi]
        a = Rinv.dot(S.dot(r))
        q = a.dot(Y)
        np.subtract(r, q, out=q)
        q *= self.theta
        minus_c = (Y.dot(q) - self.sy[lo:hi] * a).dot(Rinv)
        d = minus_c.dot(S)
        d -= q
        return d


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
    if not tol > 0:
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
    mem = _LbfgsMemory(cfg.memory, x.size)
    best_obj = fx + nonsmooth_value(x)
    xbar, r, f2bar = forward_backward(x, g)
    rsq, gr = float(r.dot(r)), float(g.dot(r))

    for iterations in range(1, cfg.max_iters + 1):
        # Backtrack gamma until the quadratic upper bound holds at the prox
        # point carried from the last iteration.  The slack only absorbs the
        # rounding of fx and fbar: the envelope line search needs the bound
        # itself, and a looser test lets too long a step through unnoticed.
        # r.r and g.r come from the last iteration, or after a halving of
        # gamma from the new prox point.
        slack = _ROUNDING * (1.0 + abs(fx))
        while True:
            fbar = finite(float(smooth_value(xbar)))
            ub = fx - gr + rsq / (2.0 * gamma)
            if fbar <= ub + slack:
                break
            if gamma <= gamma_min:
                raise NonFiniteValueError(
                    f"no step down to {gamma_min:g} satisfies the descent lemma",
                    n_grad)
            gamma *= 0.5
            mem.reset()
            xbar, r, f2bar = forward_backward(x, g)
            rsq, gr = float(r.dot(r)), float(g.dot(r))

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
        if not near_stationary and len(mem):
            fbe = ub + f2bar  # envelope at x: the bound just passed, plus f2
            d = mem.direction(r)
            for tau in (0.5 ** i for i in range(12)):
                cand = x - (1.0 - tau) * r + tau * d
                fc = float(smooth_value(cand))
                if math.isfinite(fc):
                    gc = grad(cand)
                    cbar, rc, f2c = forward_backward(cand, gc)
                    rcsq, gcr = float(rc.dot(rc)), float(gc.dot(rc))
                    fbe_c = fc - gcr + rcsq / (2.0 * gamma) + f2c
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
                if not r.any():
                    # A rounded fixed point: x = T(x), the memory rejects
                    # s = 0, so every later iteration repeats this one.
                    break
            cbar, rc, f2c = forward_backward(cand, gc)
            rcsq, gcr = float(rc.dot(rc)), float(gc.dot(rc))

        mem.push(cand - x, rc - r)
        x, fx, g, xbar, r, f2bar = cand, fc, gc, cbar, rc, f2c
        rsq, gr = rcsq, gcr

    # Out of iterations, or stuck at a rounded fixed point: the best
    # feasible iterate seen, certified afresh.
    return result(best_x, best_f, grad(best_x))
