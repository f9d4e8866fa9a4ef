"""Outer loop: proximal bounded ALM, its non-proximal variant, and a
classical ALM baseline with geometric penalty growth.

The three variants share one loop:

  1. pick the reference point (current iterate, or the initial feasible
     point when the augmented-Lagrangian bound test fails),
  2. approximately minimize the (proximal) augmented Lagrangian plus the
     proximable term, warm-started at the reference,
  3. first-order multiplier updates,
  4. penalty increases driven by the equality residual and the
     complementarity surrogate, with a growth schedule phi,
  5. (proximal variant only) proximal stepsize update.

Per-iteration algebraic identities and bound slacks are recorded in a
diagnostics trace so test suites can assert them on every run.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from .auglag import (
    KktReport,
    Multipliers,
    Penalty,
    PenaltyState,
    as_weight,
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

    ``power(alpha)`` is k**alpha with alpha > 1, which satisfies the
    bounded-ratio and superlinear-growth conditions.  ``zero`` is reserved
    for the classical-ALM baseline where only the geometric factor acts.
    """

    alpha: float = 0.0
    value: float = 1.0

    @staticmethod
    def power(alpha: float) -> "GrowthFn":
        if alpha <= 1:
            raise ValueError("power growth requires alpha > 1")
        return GrowthFn(alpha=alpha)

    @staticmethod
    def constant(value: float) -> "GrowthFn":
        if value < 0:
            raise ValueError("constant growth requires value >= 0")
        return GrowthFn(value=value)

    @staticmethod
    def zero() -> "GrowthFn":
        return GrowthFn.constant(0.0)

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
    rho0: Penalty = 1e-3
    nu0: Penalty = 1e-3
    gamma0: float = 0.1
    phi: GrowthFn = field(default_factory=lambda: GrowthFn.power(4.0))
    tau_schedule: Callable[[int], float] = default_tau_schedule
    stop_tol: float = 1e-5
    max_outer: int = 300
    inner: InnerConfig = field(default_factory=InnerConfig)
    multiplier_init: str = "gaussian"  # "zeros" or "gaussian"
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.beta < 1:
            raise ValueError("beta must lie in (0, 1)")
        if self.xi1 < 1 or self.xi2 < 1:
            raise ValueError("xi1 and xi2 must be >= 1")
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.multiplier_init not in ("zeros", "gaussian"):
            raise ValueError("multiplier_init must be 'zeros' or 'gaussian'")
        # The classical baseline grows its penalties geometrically only.
        if self.variant is Variant.ALM:
            self.phi = GrowthFn.zero()


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
    """Per-iteration invariant material (not part of the CSV trace)."""

    k: int
    dual_identity_rel_err: float
    grad_identity_rel_err: float
    completed_square_rel_err: float
    mult_weighted_sq: float       # sum lam^2/(2 rho) + mu^2/(2 nu), post-update weights
    mult_weighted_sq_prev: float  # same at the pre-update multipliers/weights
    prox_step_sq: float           # ||x_new - ref||^2 / (2 gamma_k); 0 without prox
    lemma_a_ok: bool
    mu_nonneg: bool
    rho_increased: bool
    nu_increased: bool
    inner_converged: bool


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


def select_reference(prob: ProblemSpec, x: np.ndarray, mult: Multipliers,
                     pen: PenaltyState, x0: np.ndarray, f_x0: float,
                     cfg: OuterConfig) -> np.ndarray:
    """Reference-point test: keep the current iterate x while the augmented
    Lagrangian there stays below the bound anchored at the feasible x0,
    whose objective value is f_x0; otherwise fall back to x0.  Returns x0
    itself (same object) on reset.
    """
    if cfg.variant is Variant.ALM:
        return x
    f2_x = prob.f2_value(x)
    if not np.isfinite(f2_x):
        return x0
    # The proximal term centered at x itself is exactly 0.
    lhs = eval_al(prob, x, mult, pen.rho, pen.nu) + f2_x
    rhs = f_x0
    if cfg.variant is Variant.PBALM:
        d = x0 - x
        rhs += float(d @ d) / (2.0 * pen.gamma)
    return x if lhs <= rhs else x0


def update_lambda(mult: Multipliers, rho: Penalty, h_x: np.ndarray) -> Multipliers:
    lam = mult.lam + rho * h_x if h_x.size else mult.lam.copy()
    return Multipliers(lam=lam, mu=mult.mu.copy())


def update_mu(mult: Multipliers, nu: Penalty, g_x: np.ndarray) -> Multipliers:
    if g_x.size:
        mu = np.maximum(0.0, mult.mu + nu * g_x)
    else:
        mu = mult.mu.copy()
    return Multipliers(lam=mult.lam.copy(), mu=mu)


def _grow(value: Penalty, xi: float, initial: Penalty, phi_next: float):
    floor = float(np.max(np.asarray(initial)))  # a vector's largest entry
    return np.maximum(xi * np.asarray(value, dtype=float), floor * phi_next)


def update_rho(rho: Penalty, h_new_inf: float, h_old_inf: float,
               cfg: OuterConfig, k: int) -> Penalty:
    if h_new_inf <= cfg.beta * h_old_inf:
        return rho
    return _grow(rho, cfg.xi1, cfg.rho0, cfg.phi(k + 1))


def update_nu(nu: Penalty, E_new_inf: float, E_old_inf: float,
              cfg: OuterConfig, k: int) -> Penalty:
    if E_new_inf <= cfg.beta * E_old_inf:
        return nu
    return _grow(nu, cfg.xi2, cfg.nu0, cfg.phi(k + 1))


def update_gamma(x0: np.ndarray, x_new: np.ndarray, cfg: OuterConfig,
                 k: int) -> float:
    d = x0 - x_new
    return max(cfg.delta * float(d @ d), cfg.gamma0 * cfg.phi(k + 1))


def _init_multipliers(prob: ProblemSpec, cfg: OuterConfig) -> Multipliers:
    if cfg.multiplier_init == "zeros":
        return Multipliers(np.zeros(prob.p), np.zeros(prob.m))
    rng = np.random.default_rng(cfg.seed)
    lam = rng.standard_normal(prob.p)
    mu = np.abs(rng.standard_normal(prob.m))
    return Multipliers(lam, mu)


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-30)


def _last_point(fn: Callable[[np.ndarray], np.ndarray]
                ) -> Callable[[np.ndarray], np.ndarray]:
    """``fn`` remembering its last argument and result: a repeated call
    on the same array object returns the stored result."""
    last_x, last_out = None, None

    def cached(x: np.ndarray) -> np.ndarray:
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

    ``h`` and ``g`` are evaluated once per point: the run remembers the
    last point each was called on and reuses the result when the same
    array comes back.  The solver never changes an evaluated point in
    place, and ``stop_when`` must not modify ``x`` either.

    A non-finite value inside a subproblem solve ends the run with status
    NUMERICAL_FAILURE at the last finite outer iterate.

    The penalties ``rho0``/``nu0`` (scalars or per-constraint vectors) and
    ``gamma0`` are checked here, once: a non-positive entry raises
    ValueError and a vector of the wrong length DimensionMismatchError.
    P-BALM and BALM raise InfeasibleStartError unless x0 is feasible
    within FEAS_TOL; ALM accepts any finite x0."""
    prob = dataclasses.replace(prob, h=_last_point(prob.h), g=_last_point(prob.g))
    x0 = prob.check_x(x0).copy()
    if not np.all(np.isfinite(x0)):
        raise ValueError("initial point has non-finite entries")
    as_weight(cfg.rho0, prob.p)
    as_weight(cfg.nu0, prob.m)
    if cfg.gamma0 <= 0:
        raise ValueError("gamma0 must be strictly positive")

    x = x0.copy()  # checked, so the first iteration reuses h(x) and g(x)
    if (cfg.variant is not Variant.ALM
            and not check_feasible(prob, x, FEAS_TOL)):
        raise InfeasibleStartError(
            f"initial point is not feasible within {FEAS_TOL}"
        )

    mult = _init_multipliers(prob, cfg)
    pen = PenaltyState(rho=cfg.rho0, nu=cfg.nu0, gamma=cfg.gamma0)
    proximal = cfg.variant is Variant.PBALM

    h_x = prob.h(x) if prob.p else np.zeros(0)
    g_x = prob.g(x) if prob.m else np.zeros(0)
    E = compute_E(g_x, mult.mu, pen.nu)
    f_x0 = eval_objective(prob, x0)

    trace: List[IterationRecord] = []
    diagnostics: List[DiagnosticRecord] = []
    cum_grad = 0
    status = SolveStatus.MAX_OUTER_REACHED
    tau_k = cfg.tau_schedule(0)

    for k in range(cfg.max_outer):
        tau_k = cfg.tau_schedule(k)
        x_hat = select_reference(prob, x, mult, pen, x0, f_x0, cfg)
        reset = x_hat is x0

        if proximal:
            smooth_value = lambda z: eval_pal(prob, z, mult, pen, x_hat)
            smooth_grad = lambda z: grad_pal(prob, z, mult, pen, x_hat)
        else:
            smooth_value = lambda z: eval_al(prob, z, mult, pen.rho, pen.nu)
            smooth_grad = lambda z: grad_al(prob, z, mult, pen.rho, pen.nu)

        try:
            res = solve_subproblem(smooth_value, smooth_grad, prob.prox_f2,
                                   x_hat, tau_k, cfg.inner,
                                   nonsmooth_value=prob.f2_value)
        except NonFiniteValueError:
            status = SolveStatus.NUMERICAL_FAILURE
            break
        x_new = res.x
        cum_grad += res.grad_evals
        h_new = prob.h(x_new) if prob.p else np.zeros(0)
        g_new = prob.g(x_new) if prob.m else np.zeros(0)
        f2_new = prob.f2_value(x_new)
        val_new = smooth_value(x_new)

        # Bound slack of the augmented Lagrangian at the new iterate
        # relative to the feasible-start anchor (meaningless for the
        # classical baseline, which has no such bound).
        if cfg.variant is Variant.ALM:
            al_bound_slack = np.nan
        else:
            rhs = f_x0
            if proximal:
                d0 = x0 - x_hat
                rhs += float(d0 @ d0) / (2.0 * pen.gamma)
            al_bound_slack = val_new + f2_new - rhs

        rho, nu, gamma_k = pen.rho, pen.nu, pen.gamma

        mult_new = update_mu(update_lambda(mult, rho, h_new), nu, g_new)
        E_new = compute_E(g_new, mult.mu, nu)

        # Exact identity: the scaled dual step equals the primal residuals.
        # The steps are recomputed from the same quantities the updates used
        # (rho * h and max{g, -mu/nu}) so cancellation in lam' - lam cannot
        # pollute the check.
        dual_lhs = 0.0
        if prob.p:
            dual_lhs += float(np.sum(((rho * h_new) / rho) ** 2))
        if prob.m:
            dual_lhs += float(np.sum(np.maximum(g_new, -(mult.mu / nu)) ** 2))
        dual_rhs = float(h_new @ h_new) + float(E_new @ E_new)
        dual_err = _rel_err(dual_lhs, dual_rhs) if max(dual_lhs, dual_rhs) > 0 else 0.0

        # Exact identity: the Lagrangian gradient at the updated multipliers
        # equals the subproblem gradient minus the proximal correction.
        grad_L = grad_lagrangian(prob, x_new, mult_new)
        grad_sub = smooth_grad(x_new)
        if proximal:
            grad_sub = grad_sub - (x_new - x_hat) / gamma_k
        grad_err = inf_norm(grad_L - grad_sub) / (1.0 + inf_norm(grad_L))

        # Centered at x_new, the proximal term of the completed square is
        # exactly 0, which matches the non-proximal subproblem value.
        cs_err = _rel_err(val_new, eval_pal_completed_square(
            prob, x_new, mult, pen, x_hat if proximal else x_new))

        stationarity = natural_residual(prob, x_new, grad_L)

        eps_E = inf_norm(E_new)
        ineq_infeas = inf_norm(np.maximum(0.0, g_new))
        lemma_a_ok = ineq_infeas <= eps_E and (
            prob.m == 0 or bool(np.all(mult_new.mu[g_new < -eps_E] == 0.0))
        )

        # Penalty schedule (steps 5-7).
        rho_next = update_rho(rho, inf_norm(h_new), inf_norm(h_x), cfg, k)
        nu_next = update_nu(nu, eps_E, inf_norm(E), cfg, k)
        gamma_next = update_gamma(x0, x_new, cfg, k) if proximal else gamma_k

        mult_sq_prev = 0.0
        mult_sq = 0.0
        if prob.p:
            mult_sq_prev += float(np.sum(mult.lam**2 / (2.0 * rho)))
            mult_sq += float(np.sum(mult_new.lam**2 / (2.0 * rho_next)))
        if prob.m:
            mult_sq_prev += float(np.sum(mult.mu**2 / (2.0 * nu)))
            mult_sq += float(np.sum(mult_new.mu**2 / (2.0 * nu_next)))
        d_hat = x_new - x_hat
        prox_step_sq = float(d_hat @ d_hat) / (2.0 * gamma_k) if proximal else 0.0

        trace.append(IterationRecord(
            k=k,
            f1_value=prob.f1(x_new),
            f2_value=f2_new,
            eq_infeas=inf_norm(h_new),
            ineq_infeas=ineq_infeas,
            E_norm=eps_E,
            stationarity=stationarity,
            rho_max=float(np.max(rho)),
            nu_max=float(np.max(nu)),
            gamma=gamma_k,
            inner_iters=res.iterations,
            inner_grad_evals=cum_grad,
            inner_converged=res.converged,
            reference_reset=reset,
            al_bound_slack=al_bound_slack,
        ))
        diagnostics.append(DiagnosticRecord(
            k=k,
            dual_identity_rel_err=dual_err,
            grad_identity_rel_err=grad_err,
            completed_square_rel_err=cs_err,
            mult_weighted_sq=mult_sq,
            mult_weighted_sq_prev=mult_sq_prev,
            prox_step_sq=prox_step_sq,
            lemma_a_ok=lemma_a_ok,
            mu_nonneg=bool(np.all(mult_new.mu >= 0)),
            rho_increased=rho_next is not rho,
            nu_increased=nu_next is not nu,
            inner_converged=res.converged,
        ))

        x, h_x, g_x, E, mult = x_new, h_new, g_new, E_new, mult_new
        pen = PenaltyState(rho=rho_next, nu=nu_next, gamma=gamma_next)

        if stop_when is not None:
            stopped = stop_when(x)
        else:
            stopped = max(inf_norm(h_x), inf_norm(E)) <= cfg.stop_tol
            # Without constraints the residuals above are vacuously zero and
            # the loop degenerates to an inexact proximal point method, so
            # stationarity is the only meaningful stopping measure.
            if prob.p == 0 and prob.m == 0:
                stopped = stationarity <= cfg.stop_tol
        if stopped:
            status = SolveStatus.EPS_KKT
            break

    if status is SolveStatus.MAX_OUTER_REACHED and trace and not trace[-1].inner_converged:
        status = SolveStatus.INNER_FAILURE

    eps = max(cfg.stop_tol, tau_k)
    report = kkt_report(prob, x, mult, eps)
    return SolveResult(x=x, mult=mult, status=status, kkt=report,
                       trace=trace, diagnostics=diagnostics)
