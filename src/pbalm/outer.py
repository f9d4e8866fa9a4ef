"""Outer loop: proximal bounded ALM (P-BALM), its non-proximal variant
(BALM), and a classical ALM baseline with geometric penalty growth.

The three variants share one loop, ``run``, whose body marks the steps:

  1. reference point: the current iterate, or the feasible start x0 when
     the augmented-Lagrangian bound test fails (``select_reference``),
  2. subproblem: approximately minimize the (proximal) augmented
     Lagrangian plus the proximable term, warm-started at the reference,
  3. multipliers: one first-order step (``update_multipliers``),
  4. penalties: rho and nu grow by one rule, driven by the equality
     residual and the complementarity surrogate with a growth schedule phi
     (``update_penalty``); P-BALM also updates its proximal stepsize,
  5. stop on max{||h||_inf, ||E||_inf} <= stop_tol.

``diagnose``, beside the loop, computes the per-iteration algebraic
identities and bound material that test suites assert on every run.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple, TypeVar

import numpy as np

from .auglag import (
    KktReport,
    Multipliers,
    PenaltyState,
    Subproblem,
    compute_E,
    eval_al,
    eval_pal,
    eval_pal_completed_square,
    grad_al,
    grad_lagrangian,
    grad_pal,
    inf_norm,
    kkt_report,
    natural_residual,
)
from .inner import InnerConfig, NonFiniteValueError, solve_subproblem
from .problem import ProblemSpec, check_feasible, eval_objective


class InfeasibleStartError(ValueError):
    """P-BALM or BALM was started at an x0 that fails the feasibility check."""


class Variant(enum.Enum):
    PBALM = "pbalm"
    BALM = "balm"
    ALM = "alm"


@dataclass(frozen=True)
class GrowthFn:
    """Penalty growth schedule phi(k) = value * k**alpha.

    ``power(alpha)`` is k**alpha; with alpha > 1, which ``OuterConfig``
    checks for P-BALM and BALM, it satisfies the bounded-ratio and
    superlinear-growth conditions.  ``zero`` is the classical-ALM
    baseline's schedule, where only the geometric factor acts.
    """

    alpha: float = 0.0
    value: float = 1.0

    @staticmethod
    def power(alpha: float) -> "GrowthFn":
        return GrowthFn(alpha=alpha)

    @staticmethod
    def zero() -> "GrowthFn":
        return GrowthFn(value=0.0)

    def __call__(self, k: int) -> float:
        return self.value * float(k ** self.alpha)


# Feasibility tolerance of the start point that P-BALM and BALM require.
# A phase-I point meant for run() must be feasible to this tolerance.
FEAS_TOL = 1e-8


def default_tau_schedule(k: int) -> float:
    return 0.1 / (k + 1) ** 1.1


@dataclass
class OuterConfig:
    variant: Variant = Variant.PBALM
    beta: float = 0.5
    xi1: float = 1.0
    xi2: float = 1.0
    delta: float = 1.0
    rho0: float = 1e-3
    nu0: float = 1e-3
    gamma0: float = 0.1
    phi: GrowthFn = field(default_factory=lambda: GrowthFn.power(4.0))
    tau_schedule: Callable[[int], float] = default_tau_schedule
    stop_tol: float = 1e-5
    max_outer: int = 300
    inner: InnerConfig = field(default_factory=InnerConfig)
    multiplier_init: str = "gaussian"  # "zeros" or "gaussian"
    seed: int = 0

    def __post_init__(self) -> None:
        # Each test is written so that NaN fails it.
        if not 0 < self.beta < 1:
            raise ValueError("beta must lie in (0, 1)")
        if not (self.xi1 >= 1 and self.xi2 >= 1):
            raise ValueError("xi1 and xi2 must be >= 1")
        if not self.delta > 0:
            raise ValueError("delta must be positive")
        if not self.stop_tol >= 0:
            raise ValueError("stop_tol must be non-negative")
        if not self.max_outer >= 0:
            raise ValueError("max_outer must be non-negative")
        if self.multiplier_init not in ("zeros", "gaussian"):
            raise ValueError("multiplier_init must be 'zeros' or 'gaussian'")
        # Scalars only: float() of an array with ndim > 0 raises TypeError.
        self.rho0, self.nu0 = float(self.rho0), float(self.nu0)
        self.gamma0 = float(self.gamma0)
        if not (self.rho0 > 0 and self.nu0 > 0 and self.gamma0 > 0):
            raise ValueError("rho0, nu0 and gamma0 must be strictly positive")
        # Either rule must make the penalties grow, or rho stays at rho0.
        if self.variant is Variant.ALM:
            # The classical baseline grows its penalties geometrically only.
            if not (self.xi1 > 1 and self.xi2 > 1):
                raise ValueError("ALM needs xi1 > 1 and xi2 > 1")
            self.phi = GrowthFn.zero()
        elif not (self.phi.value > 0 and self.phi.alpha > 1):
            raise ValueError("P-BALM and BALM need phi = value * k**alpha "
                             "with value > 0 and alpha > 1")


@dataclass
class IterationRecord:
    k: int
    f1_value: float
    f2_value: float
    eq_infeas: float
    ineq_infeas: float
    E_norm: float
    stationarity: float
    rho_max: float
    nu_max: float
    gamma: float
    inner_iters: int
    inner_grad_evals: int  # cumulative over the whole solve
    inner_converged: bool
    reference_reset: bool
    al_bound_slack: float


# One row per outer iteration; this is the CSV surface of the bench CLI.
TRACE_COLUMNS = tuple(f.name for f in dataclasses.fields(IterationRecord))


@dataclass
class DiagnosticRecord:
    """Per-iteration invariant material (not part of the CSV trace); the
    record at index i belongs to the trace row at index i."""

    grad_identity_rel_err: float
    completed_square_rel_err: float
    mult_weighted_sq: float       # sum lam^2/(2 rho) + mu^2/(2 nu), post-update weights
    mult_weighted_sq_prev: float  # same at the pre-update multipliers/weights
    prox_step_sq: float           # ||x_new - ref||^2 / (2 gamma_k); 0 without prox
    lemma_a_ok: bool
    mu_nonneg: bool
    rho_increased: bool
    nu_increased: bool


class SolveStatus(enum.Enum):
    EPS_KKT = "eps_kkt"
    MAX_OUTER_REACHED = "max_outer_reached"
    INNER_FAILURE = "inner_failure"
    NUMERICAL_FAILURE = "numerical_failure"


@dataclass
class SolveResult:
    x: np.ndarray
    mult: Multipliers
    status: SolveStatus
    kkt: KktReport
    trace: List[IterationRecord]
    diagnostics: List[DiagnosticRecord]
    penalties: PenaltyState  # in force at exit: the failing ones on NUMERICAL_FAILURE
    grad_evals: int  # smooth-gradient calls of every inner solve, a failing one too


def al_bound(x0: np.ndarray, center: np.ndarray, f_x0: float, gamma: float,
             proximal: bool) -> float:
    """Bound anchored at the feasible x0: f(x0) = f_x0, plus
    ||x0 - center||^2/(2 gamma) for the proximal variant."""
    if not proximal:
        return f_x0
    d = x0 - center
    return f_x0 + float(d.dot(d)) / (2.0 * gamma)


def select_reference(sub: Subproblem, x: np.ndarray, x0: np.ndarray,
                     f_x0: float, cfg: OuterConfig) -> Tuple[np.ndarray, bool]:
    """Reference-point test: (x, False) while the augmented Lagrangian of
    the subproblem ``sub`` at the current iterate x stays below the bound
    anchored at the feasible x0, whose objective value is f_x0; otherwise
    the reset (x0, True).
    """
    if cfg.variant is Variant.ALM:
        return x, False
    f2_x = sub.prob.f2_value(x)
    if not np.isfinite(f2_x):
        return x0, True
    # The proximal term centered at x itself is exactly 0.
    lhs = eval_al(sub, x) + f2_x
    rhs = al_bound(x0, x, f_x0, sub.pen.gamma, cfg.variant is Variant.PBALM)
    return (x, False) if lhs <= rhs else (x0, True)


def update_multipliers(mult: Multipliers, pen: PenaltyState, h: np.ndarray,
                       g: np.ndarray) -> Multipliers:
    """First-order step: lam + rho h and max{0, mu + nu g}."""
    return Multipliers(lam=mult.lam + pen.rho * h,
                       mu=np.maximum(0.0, mult.mu + pen.nu * g))


def update_penalty(w: float, new_inf: float, old_inf: float, xi: float,
                   w0: float, cfg: OuterConfig, k: int) -> float:
    """rho or nu: ``w`` itself (same object) while new_inf <= beta old_inf,
    else max{xi w, w0 phi(k+1)}."""
    if new_inf <= cfg.beta * old_inf:
        return w
    return max(xi * w, w0 * cfg.phi(k + 1))


def update_gamma(x0: np.ndarray, x_new: np.ndarray, cfg: OuterConfig,
                 k: int) -> float:
    d = x0 - x_new
    return max(cfg.delta * float(d.dot(d)), cfg.gamma0 * cfg.phi(k + 1))


def _init_multipliers(prob: ProblemSpec, cfg: OuterConfig) -> Multipliers:
    if cfg.multiplier_init == "zeros":
        return Multipliers(np.zeros(prob.p), np.zeros(prob.m))
    rng = np.random.default_rng(cfg.seed)
    lam = rng.standard_normal(prob.p)
    mu = np.abs(rng.standard_normal(prob.m))
    return Multipliers(lam, mu)


def _weighted_sq(mult: Multipliers, pen: PenaltyState) -> float:
    """sum lam^2/(2 rho) + sum mu^2/(2 nu)."""
    return (float(np.sum(mult.lam**2 / (2.0 * pen.rho)))
            + float(np.sum(mult.mu**2 / (2.0 * pen.nu))))


def diagnose(prob: ProblemSpec, x: np.ndarray, x_hat: np.ndarray,
             mult: Multipliers, mult_new: Multipliers, pen: PenaltyState,
             pen_new: PenaltyState, g: np.ndarray, E: np.ndarray,
             value: float, grad: np.ndarray, proximal: bool):
    """(stationarity, DiagnosticRecord) of the iteration that went from
    x_hat to x under ``mult``/``pen`` and updated them to ``mult_new``/
    ``pen_new``: g, E and the subproblem's ``value`` and ``grad`` are
    taken at x."""
    # Exact identity: the Lagrangian gradient at the updated multipliers
    # equals the subproblem gradient minus the proximal correction.
    grad_L = grad_lagrangian(prob, x, mult_new)
    grad_sub = grad - (x - x_hat) / pen.gamma if proximal else grad
    grad_err = inf_norm(grad_L - grad_sub) / (1.0 + inf_norm(grad_L))

    # Centered at x, the proximal term of the completed square is exactly
    # 0, which matches the non-proximal subproblem value.
    cs = eval_pal_completed_square(prob, x, mult, pen,
                                   x_hat if proximal else x)
    cs_err = abs(value - cs) / max(abs(value), abs(cs), 1e-30)

    # Lemma (a): ||[g]_+|| <= ||E||, and mu' = 0 where g < -||E||.
    E_inf = inf_norm(E)
    lemma_a_ok = (inf_norm(np.maximum(0.0, g)) <= E_inf
                  and bool(np.all(mult_new.mu[g < -E_inf] == 0.0)))

    d = x - x_hat
    return natural_residual(prob.prox_f2, x, grad_L), DiagnosticRecord(
        grad_identity_rel_err=grad_err,
        completed_square_rel_err=cs_err,
        mult_weighted_sq=_weighted_sq(mult_new, pen_new),
        mult_weighted_sq_prev=_weighted_sq(mult, pen),
        prox_step_sq=float(d.dot(d)) / (2.0 * pen.gamma) if proximal else 0.0,
        lemma_a_ok=lemma_a_ok,
        mu_nonneg=bool(np.all(mult_new.mu >= 0)),
        rho_increased=pen_new.rho is not pen.rho,
        nu_increased=pen_new.nu is not pen.nu,
    )


_Out = TypeVar("_Out")


def _last_point(fn: Callable[[np.ndarray], _Out]
                ) -> Callable[[np.ndarray], _Out]:
    """``fn`` remembering its last argument and result: a repeated call
    on the same array object returns the stored result."""
    last_x, last_out = None, None

    def cached(x: np.ndarray) -> _Out:
        nonlocal last_x, last_out
        if x is not last_x:
            last_x, last_out = x, fn(x)
        return last_out

    return cached


def run(prob: ProblemSpec, x0: np.ndarray, cfg: OuterConfig,
        stop_when: Optional[Callable[[np.ndarray], bool]] = None) -> SolveResult:
    """Outer loop.  ``stop_when``, if given, replaces the default stopping
    rule max{||h||_inf, ||E||_inf} <= stop_tol (used by the phase-I driver,
    which terminates on feasibility of the base problem instead).

    ``f1``, ``f2``, ``h`` and ``g`` are evaluated once per point: the run
    remembers the last point each was called on and reuses the result
    when the same array comes back.  Each outer iteration builds one
    ``auglag.Subproblem``, shared by the reference test and the inner
    solve: it computes (1/2nu)||mu||^2 once, and the estimate
    [nu g(x) + mu]_+ once per point, for a value and a gradient there.
    The solver never changes an evaluated point in place, and
    ``stop_when`` must not modify ``x`` either.

    The exit KKT report reuses the h, g and Lagrangian-gradient residual
    that certify the last iterate, or the start when no row was written.

    A non-finite value inside a subproblem solve ends the run with status
    NUMERICAL_FAILURE at the last finite outer iterate; the result's
    ``penalties`` are then the ones that failed.

    P-BALM and BALM raise InfeasibleStartError unless x0 is feasible
    within FEAS_TOL; ALM accepts any finite x0."""
    prob = dataclasses.replace(prob, f1=_last_point(prob.f1),
                               f2_value=_last_point(prob.f2_value),
                               h=_last_point(prob.h), g=_last_point(prob.g))
    x = x0 = prob.check_x(x0).copy()
    if not np.all(np.isfinite(x0)):
        raise ValueError("initial point has non-finite entries")

    if (cfg.variant is not Variant.ALM
            and not check_feasible(prob, x0, FEAS_TOL)):
        raise InfeasibleStartError(
            f"initial point is not feasible within {FEAS_TOL}"
        )

    mult = _init_multipliers(prob, cfg)
    pen = PenaltyState(rho=cfg.rho0, nu=cfg.nu0, gamma=cfg.gamma0)
    proximal = cfg.variant is Variant.PBALM

    # The certificate of (x, mult), replaced by each iteration.
    h = prob.h(x0) if prob.p else np.zeros(0)
    g = prob.g(x0) if prob.m else np.zeros(0)
    stationarity = natural_residual(prob.prox_f2, x0,
                                    grad_lagrangian(prob, x0, mult))
    h_inf, E_inf = inf_norm(h), inf_norm(compute_E(g, mult.mu, pen.nu))
    f_x0 = eval_objective(prob, x0)

    trace: List[IterationRecord] = []
    diagnostics: List[DiagnosticRecord] = []
    cum_grad = 0
    status = SolveStatus.MAX_OUTER_REACHED
    tau_k = cfg.tau_schedule(0)

    for k in range(cfg.max_outer):
        tau_k = cfg.tau_schedule(k)
        # 1. Reference point.
        sub = Subproblem(prob, mult, pen)
        x_hat, reset = select_reference(sub, x, x0, f_x0, cfg)

        # 2. Subproblem, warm-started at the reference.
        if proximal:
            smooth_value = lambda z: eval_pal(sub, z, x_hat)
            smooth_grad = lambda z: grad_pal(sub, z, x_hat)
        else:
            smooth_value = lambda z: eval_al(sub, z)
            smooth_grad = lambda z: grad_al(sub, z)
        try:
            res = solve_subproblem(smooth_value, smooth_grad, prob.prox_f2,
                                   x_hat, tau_k, cfg.inner,
                                   nonsmooth_value=prob.f2_value)
        except NonFiniteValueError as exc:
            cum_grad += exc.grad_evals
            status = SolveStatus.NUMERICAL_FAILURE
            break
        cum_grad += res.grad_evals
        h = prob.h(res.x) if prob.p else np.zeros(0)
        g = prob.g(res.x) if prob.m else np.zeros(0)
        E = compute_E(g, mult.mu, pen.nu)

        # 3. Multipliers.
        mult_new = update_multipliers(mult, pen, h, g)

        # 4. Penalties, and the proximal stepsize.
        h_new_inf, E_new_inf = inf_norm(h), inf_norm(E)
        pen_new = PenaltyState(
            update_penalty(pen.rho, h_new_inf, h_inf, cfg.xi1, cfg.rho0, cfg, k),
            update_penalty(pen.nu, E_new_inf, E_inf, cfg.xi2, cfg.nu0, cfg, k),
            update_gamma(x0, res.x, cfg, k) if proximal else pen.gamma)

        f2_new = prob.f2_value(res.x)
        stationarity, diag = diagnose(prob, res.x, x_hat, mult, mult_new, pen,
                                      pen_new, g, E, res.value, res.grad,
                                      proximal)
        diagnostics.append(diag)
        # The classical baseline has no augmented-Lagrangian bound.
        slack = (np.nan if cfg.variant is Variant.ALM else res.value + f2_new
                 - al_bound(x0, x_hat, f_x0, pen.gamma, proximal))
        trace.append(IterationRecord(
            k=k,
            f1_value=prob.f1(res.x),
            f2_value=f2_new,
            eq_infeas=h_new_inf,
            ineq_infeas=inf_norm(np.maximum(0.0, g)),
            E_norm=E_new_inf,
            stationarity=stationarity,
            rho_max=pen.rho,
            nu_max=pen.nu,
            gamma=pen.gamma,
            inner_iters=res.iterations,
            inner_grad_evals=cum_grad,
            inner_converged=res.converged,
            reference_reset=reset,
            al_bound_slack=slack,
        ))

        x, mult, pen, h_inf, E_inf = res.x, mult_new, pen_new, h_new_inf, E_new_inf

        # 5. Stop.
        if stop_when is not None:
            stopped = stop_when(x)
        elif prob.p == 0 and prob.m == 0:
            # Without constraints the residuals are vacuously zero and the
            # loop is an inexact proximal point method, so stationarity is
            # the only meaningful stopping measure.
            stopped = stationarity <= cfg.stop_tol
        else:
            stopped = max(h_inf, E_inf) <= cfg.stop_tol
        if stopped:
            status = SolveStatus.EPS_KKT
            break

    if status is SolveStatus.MAX_OUTER_REACHED and trace and not trace[-1].inner_converged:
        status = SolveStatus.INNER_FAILURE

    report = kkt_report(stationarity, h, g, mult.mu, max(cfg.stop_tol, tau_k))
    return SolveResult(x=x, mult=mult, status=status, kkt=report,
                       trace=trace, diagnostics=diagnostics, penalties=pen,
                       grad_evals=cum_grad)
