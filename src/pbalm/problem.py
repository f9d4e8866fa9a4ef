"""Problem abstraction: smooth objective, constraint maps, proximable term.

A :class:`ProblemSpec` bundles everything the solvers need to know about

    minimize  f1(x) + f2(x)
    subject to  h(x) = 0,  g(x) <= 0,

where f1, h, g are continuously differentiable and f2 is proper closed
convex with an easy proximal mapping.  Jacobians of h and g are exposed
only through transpose-apply (adjoint) maps so that large sparse problems
never materialize a dense matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, TypeVar

import numpy as np


class DimensionMismatchError(ValueError):
    """An input vector has the wrong length for this problem."""


class CrossedBoundsError(ValueError):
    """A lower bound exceeds the corresponding upper bound, or one of the
    two is NaN."""


# Maps used by ProblemSpec.  All take/return 1-D float arrays.
_Scalar = Callable[[np.ndarray], float]
_Vector = Callable[[np.ndarray], np.ndarray]
_Adjoint = Callable[[np.ndarray, np.ndarray], np.ndarray]
_Prox = Callable[[np.ndarray, float], np.ndarray]
_Out = TypeVar("_Out")  # the result type of a map that last_point wraps


def last_point(fn: Callable[[np.ndarray], _Out]
               ) -> Callable[[np.ndarray], _Out]:
    """``fn`` remembering its last argument and result: a repeated call on
    the same array object returns the stored result without calling ``fn``.

    The cache is keyed on the array's identity, not its contents, so a
    caller must not modify a point in place after it is evaluated, nor
    modify the returned result.
    """
    last_x, last_out = None, None

    def cached(x: np.ndarray) -> _Out:
        nonlocal last_x, last_out
        if x is not last_x:
            last_x, last_out = x, fn(x)
        return last_out

    return cached


def _zero_map(x: np.ndarray) -> np.ndarray:
    return np.zeros(0)


def _zero_adjoint(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.zeros_like(x)


@dataclass
class ProblemSpec:
    """The full problem oracle handed to the solvers.

    ``p = 0`` and/or ``m = 0`` are first class: the corresponding maps
    default to empty-vector no-ops and the solver degenerates gracefully
    (down to an inexact proximal point method when both vanish).

    Evaluation maps must be pure; a single solve calls them sequentially
    but several solves may run concurrently on distinct instances.
    """

    n: int
    f1: _Scalar
    grad_f1: _Vector
    p: int = 0
    m: int = 0
    h: _Vector = _zero_map
    jac_h_transpose_apply: _Adjoint = _zero_adjoint
    g: _Vector = _zero_map
    jac_g_transpose_apply: _Adjoint = _zero_adjoint
    f2_value: Callable[[np.ndarray], float] = lambda x: 0.0
    prox_f2: _Prox = lambda x, step: x
    name: str = "problem"

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValueError(f"n must be positive, got {self.n}")
        if self.p < 0 or self.m < 0:
            raise ValueError("constraint counts must be non-negative")

    def check_x(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise DimensionMismatchError(
                f"expected vector of length {self.n}, got shape {x.shape}"
            )
        return x


def eval_objective(prob: ProblemSpec, x: np.ndarray) -> float:
    """f(x) = f1(x) + f2(x); +inf outside dom f2."""
    x = prob.check_x(x)
    f2 = prob.f2_value(x)
    return prob.f1(x) + f2 if np.isfinite(f2) else np.inf


def check_feasible(prob: ProblemSpec, x: np.ndarray, tol: float) -> bool:
    """True iff ||h(x)||_inf <= tol, max g_i(x) <= tol and x in dom f2;
    a NaN residual fails the test."""
    if not tol >= 0:
        raise ValueError("tol must be non-negative")
    x = prob.check_x(x)
    if not np.isfinite(prob.f2_value(x)):
        return False
    h = prob.h(x)
    if h.size and not np.max(np.abs(h)) <= tol:
        return False
    g = prob.g(x)
    return not g.size or bool(np.max(g) <= tol)


def box_problem_terms(lower: np.ndarray, upper: np.ndarray):
    """(f2_value, prox_f2) pair for the indicator of a box.

    The indicator tolerates round-off: membership is tested with a tiny
    absolute slack so that prox outputs always evaluate to 0.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if not np.all(lower <= upper):
        raise CrossedBoundsError("crossed or NaN box bounds")
    slack = 1e-12
    lower_tol, upper_tol = lower - slack, upper + slack

    def value(x: np.ndarray) -> float:
        if (x >= lower_tol).all() and (x <= upper_tol).all():
            return 0.0
        return np.inf

    def prox(x: np.ndarray, step: float) -> np.ndarray:
        return np.minimum(np.maximum(x, lower), upper)

    return value, prox
