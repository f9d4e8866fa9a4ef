"""Feasibility bootstrap: lift (x, s), minimize ||h||^2/2 + s^2 subject to
g(x) <= s, then hand the x part back as a feasible start."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .outer import OuterConfig, Variant, _last_point, run
from .problem import ProblemSpec, check_feasible


class Phase1Failed(RuntimeError):
    """The lifted solve stalled above tolerance; the base problem may be
    infeasible."""


@dataclass
class Phase1Spec:
    lifted: ProblemSpec  # variable (x, s), the slack s last


def build_phase1(base: ProblemSpec) -> Phase1Spec:
    """Lift the base problem: variable (x, s), objective ||h(x)||^2/2 + s^2,
    inequalities g(x) - s <= 0, no equalities, f2 inherited on x with s free.
    f1 and grad_f1 share one h per lifted point, so do not modify it in place.
    """
    n = base.n
    h_at = _last_point(lambda z: base.h(z[:n]))

    def f1(z):
        s = z[n]
        if base.p:
            h = h_at(z)
            return 0.5 * float(h.dot(h)) + s * s
        return s * s

    def grad_f1(z):
        out = np.zeros(n + 1)
        if base.p:
            out[:n] = base.jac_h_transpose_apply(z[:n], h_at(z))
        out[n] = 2.0 * z[n]
        return out

    def g(z):
        x, s = z[:n], z[n]
        return base.g(x) - s

    def jac_g_T(z, y):
        x = z[:n]
        out = np.zeros(n + 1)
        out[:n] = base.jac_g_transpose_apply(x, y)
        out[n] = -float(np.sum(y))
        return out

    def f2_value(z):
        return base.f2_value(z[:n])

    def prox_f2(z, step):
        out = z.copy()
        out[:n] = base.prox_f2(z[:n], step)
        return out

    lifted = ProblemSpec(
        n=n + 1, p=0, m=base.m,
        f1=f1, grad_f1=grad_f1,
        g=g, jac_g_transpose_apply=jac_g_T,
        f2_value=f2_value, prox_f2=prox_f2,
        name=f"{base.name}-phase1",
    )
    return Phase1Spec(lifted=lifted)


def find_feasible(base: ProblemSpec, x_start: np.ndarray, tol: float,
                  cfg: OuterConfig) -> np.ndarray:
    """Return a point satisfying check_feasible(base, ., tol), or raise
    Phase1Failed.  Short-circuits when x_start is already feasible.

    The lifted start (prox(x_start), max(0, max g)) is feasible by
    construction; Phase1Failed is raised when g is not finite there.

    A P-BALM cfg runs the lifted solve as BALM.  Only feasibility of the
    base problem matters there, and the proximal term would tie the slack
    s to the previous iterate, so s would shrink only slowly.  BALM and
    ALM keep their own variant."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    x_start = base.check_x(x_start)
    if check_feasible(base, x_start, tol):
        return x_start.copy()

    spec = build_phase1(base)
    x_proj = base.prox_f2(x_start, 1.0)
    s0 = 0.0
    if base.m:
        g0 = base.g(x_proj)
        if not np.all(np.isfinite(g0)):
            raise Phase1Failed("phase-I cannot start: g is not finite at "
                               "the projected start point")
        s0 = max(0.0, float(np.max(g0)))
    z0 = np.concatenate([x_proj, [s0]])

    # Only feasibility of the base problem is needed, so the solve runs
    # with a tight inner tolerance and stops once the base point is feasible.
    tau = min(tol / 10.0, 1e-7)
    cfg1 = dataclasses.replace(
        cfg,
        variant=(Variant.BALM if cfg.variant is Variant.PBALM
                 else cfg.variant),
        stop_tol=min(cfg.stop_tol, tol / 2.0),
        tau_schedule=lambda k: tau,
        multiplier_init="zeros",
        max_outer=min(cfg.max_outer, 60),
    )
    result = run(
        spec.lifted, z0, cfg1,
        stop_when=lambda z: check_feasible(base, z[: base.n], tol),
    )
    x = result.x[: base.n]
    if not check_feasible(base, x, tol):
        raise Phase1Failed(
            f"phase-I solve did not reach feasibility within {tol}; "
            "the base problem may have no feasible point"
        )
    return x
