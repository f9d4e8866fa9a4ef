"""The benchmark's workloads: fixed seeded inputs, the timed set-up that
turns them into problems and starting points, the operations of one round,
and the checks each operation's output must pass.

The problem instances come from fixed generator seeds and do not depend on
the benchmark's ``--seed``, which only orders the operations of a round.
A solve's cost is chaotic in its input: on the same basis-pursuit instance,
switching BLAS from one thread to two (a change of rounding alone) moved
P-BALM from 21 to 27 outer iterations. Over seeded instances the cost is
heavy-tailed: one seed in fifteen took 60% more gradients on bp-dense, and
the qp-suite gradient count varied by 37% (quartile distance over median,
ten seeds). A run has room for one basis-pursuit instance, so seeded
instances would leave the figures unsteady; fixed ones make the iteration
counts repeat exactly, so a change in them is the program's doing.

Every check is computed here, apart from the package: the basis-pursuit
residual with this module's own product, the equality-QP optimum by a
null-space solve, and the QPS optimum planted by the writer below. The
package's own reports (status, trace) are read only for what they claim,
never trusted as the reference.

Solvers are called through module attributes (``pb_outer.run``,
``pb_phase1.find_feasible``, ...) at call time, so the traced run can wrap
them from outside the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from pbalm import outer as pb_outer
from pbalm import phase1 as pb_phase1
from pbalm import problem_gen as pb_gen
from pbalm import qps as pb_qps
from pbalm.outer import GrowthFn, OuterConfig, SolveStatus, Variant

@dataclass
class Op:
    """One operation of a round. ``solve`` is timed; it returns the value
    ``check`` judges and the main solves whose iterations are counted."""

    name: str
    solve: Callable[[], Tuple[object, list]]
    check: Callable[[object], bool]
    known_fault: bool = False


def _solved(result):
    return result, [result]


# --------------------------------------------------------------------------
# bp-dense: nonconvex basis pursuit with a dense Gaussian sensing matrix.

BP_VARIANTS = {
    "pbalm": dict(variant=Variant.PBALM, phi=GrowthFn.power(4.0)),
    "balm": dict(variant=Variant.BALM, phi=GrowthFn.power(4.0)),
    "alm": dict(variant=Variant.ALM, xi1=10.0, xi2=10.0, phi=GrowthFn.zero()),
}


def _check_bp(inst, res, stop_tol: float) -> bool:
    if res.status is not SolveStatus.EPS_KKT:
        return False
    n = inst.B.shape[1]
    z = res.x[:n] ** 2 - res.x[n:] ** 2
    recovery = np.linalg.norm(z - inst.z_star) / np.linalg.norm(inst.z_star)
    residual = float(np.max(np.abs(np.dot(inst.B, z) - inst.b)))
    rho = [r.rho_max for r in res.trace]
    nu = [r.nu_max for r in res.trace]
    monotone = all(a <= b for a, b in zip(rho, rho[1:])) and all(
        a <= b for a, b in zip(nu, nu[1:]))
    return recovery <= 1e-6 and residual <= stop_tol and monotone


class BasisPursuit:
    """Generator seed 0, the instance of the ROADMAP's reference table."""

    def __init__(self, small: bool = False):
        self.dims = (40, 128, 4) if small else (500, 2048, 20)

    def setup(self) -> List[Op]:
        inst, prob, x_feasible = pb_gen.gen_basis_pursuit(*self.dims, 0)
        ops = []
        for name, kw in BP_VARIANTS.items():
            cfg = OuterConfig(delta=1e-6, **kw)
            ops.append(Op(
                name=f"bp-{name}",
                solve=lambda cfg=cfg: _solved(
                    pb_outer.run(prob, x_feasible, cfg)),
                check=lambda res, cfg=cfg: _check_bp(inst, res, cfg.stop_tol),
            ))
        return ops


# --------------------------------------------------------------------------
# qp-suite: the acceptance suite's 20 seeded equality QPs, with its
# starting points, x the variant settings of its oracle criterion.

QP_SIZES = [(4, 1), (6, 2), (8, 3), (10, 4), (12, 5),
            (14, 6), (16, 7), (18, 8), (20, 8), (5, 2)]
# The acceptance suite's fourth setting, P-BALM with phi = k^12, is left
# out: on about 4% of seeded instances its penalties overflow
# (NonFiniteValueError) or it ends short of the oracle optimum.
QP_VARIANTS = {
    "pbalm-4": dict(variant=Variant.PBALM, phi=GrowthFn.power(4.0)),
    "balm-4": dict(variant=Variant.BALM, phi=GrowthFn.power(4.0)),
    "alm-10": dict(variant=Variant.ALM, xi1=10.0, xi2=10.0,
                   phi=GrowthFn.zero()),
}


def _tight_tau(k: int) -> float:
    return max(1e-9, 0.1 / (k + 1) ** 4)


def eq_qp_reference(Q, q, A, b) -> np.ndarray:
    """Optimum of min 1/2 x'Qx + q'x s.t. Ax = b by the null-space method:
    a particular solution plus the minimizer over null(A)."""
    x_p = np.linalg.lstsq(A, b, rcond=None)[0]
    Z = np.linalg.svd(A)[2][A.shape[0]:].T
    w = np.linalg.solve(Z.T @ Q @ Z, -Z.T @ (Q @ x_p + q))
    return x_p + Z @ w


def _check_eq_qp(qp, res) -> bool:
    if res.status is not SolveStatus.EPS_KKT:
        return False
    x_star = eq_qp_reference(qp.Q, qp.q, qp.A, qp.b)
    obj = lambda x: 0.5 * float(x @ qp.Q @ x) + float(qp.q @ x)
    f_star = obj(x_star)
    return (float(np.max(np.abs(res.x - x_star))) <= 1e-4
            and abs(obj(res.x) - f_star) <= 1e-6 * (1.0 + abs(f_star)))


class QpSuite:
    def __init__(self, small: bool = False):
        self.count = 2 if small else 20

    def setup(self) -> List[Op]:
        ops = []
        for i in range(self.count):
            n, m_eq = QP_SIZES[i % len(QP_SIZES)]
            qp = pb_gen.make_random_eq_qp(n, m_eq, i)
            x_start = qp.feasible_point(np.random.default_rng(1000 + i))
            prob = pb_gen.qp_problem(qp)
            for name, kw in QP_VARIANTS.items():
                cfg = OuterConfig(stop_tol=1e-7, rho0=10.0,
                                  tau_schedule=_tight_tau, max_outer=150, **kw)
                x0 = np.zeros(n) if kw["variant"] is Variant.ALM else x_start
                ops.append(Op(
                    name=f"qp{i}-{name}",
                    solve=lambda prob=prob, x0=x0, cfg=cfg: _solved(
                        pb_outer.run(prob, x0, cfg)),
                    check=lambda res, qp=qp: _check_eq_qp(qp, res),
                ))
        return ops


# --------------------------------------------------------------------------
# qps-ineq: seeded QPS texts for sparse strictly convex QPs with planted
# KKT points, parsed, assembled and solved the way ``pbalm --qps --phase1``
# does it.

@dataclass
class PlantedQp:
    """What the writer put in the text, and the optimum it planted."""

    text: str
    n: int
    Q_lower: list            # sorted (i, j, value), i >= j
    q: np.ndarray
    c: float
    A_entries: list          # sorted (row, col, value)
    row_lower: np.ndarray
    row_upper: np.ndarray
    var_lower: np.ndarray
    var_upper: np.ndarray
    x_star: np.ndarray

    def objective(self, x: np.ndarray) -> float:
        val = self.c + float(self.q @ x)
        for i, j, v in self.Q_lower:
            val += v * x[i] * x[j] * (0.5 if i == j else 1.0)
        return val

    def row_activity(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros(self.row_lower.size)
        for r, j, v in self.A_entries:
            out[r] += v * x[j]
        return out

    def feasible(self, x: np.ndarray, tol: float) -> bool:
        ax = self.row_activity(x)
        return bool(np.all(ax >= self.row_lower - tol)
                    and np.all(ax <= self.row_upper + tol)
                    and np.all(x >= self.var_lower - tol)
                    and np.all(x <= self.var_upper + tol))


def _fmt(v: float) -> str:
    return repr(float(v))


def _fmt_fortran(v: float) -> str:
    # 17 significant digits round-trip exactly through the D exponent.
    return f"{v:.16E}".replace("E", "D")


def write_planted_qps(n: int, seed: int) -> PlantedQp:
    """Seeded QPS text (QUADOBJ, L/G/E rows, RANGES, box and free bounds)
    of a strictly convex QP whose unique optimum x_star is planted with
    strictly complementary multipliers.

    The feasible set (rows, bounds, x_star and its active set) is drawn
    from seed 0 for every text of a size; ``seed`` draws the objective: Q,
    the multipliers and hence q, and the constant.
    """
    rs = np.random.default_rng(0)
    ro = np.random.default_rng(seed)
    m = n // 2

    # Bounds: default [0, inf), box, upper-only (lower stays 0), free, and
    # minus-infinity lower with a finite upper.
    kinds = rs.choice(["default", "box", "up", "free", "mi"], n,
                      p=[0.3, 0.25, 0.1, 0.25, 0.1])
    var_lower = np.zeros(n)
    var_upper = np.full(n, np.inf)
    x_star = np.zeros(n)
    z_sign = np.zeros(n)   # sign of grad f(x*)_j at an active bound
    for j, kind in enumerate(kinds):
        if kind == "box":
            var_lower[j] = np.round(rs.uniform(-2.0, -0.5), 6)
            var_upper[j] = np.round(rs.uniform(0.5, 2.0), 6)
        elif kind == "up":
            var_upper[j] = np.round(rs.uniform(1.0, 3.0), 6)
        elif kind == "free":
            var_lower[j] = -np.inf
        elif kind == "mi":
            var_lower[j] = -np.inf
            var_upper[j] = np.round(rs.uniform(-1.0, 1.0), 6)
        at = rs.random()
        if np.isfinite(var_lower[j]) and at < 0.3:
            x_star[j], z_sign[j] = var_lower[j], 1.0
        elif np.isfinite(var_upper[j]) and at > 0.7:
            x_star[j], z_sign[j] = var_upper[j], -1.0
        else:
            lo = var_lower[j] if np.isfinite(var_lower[j]) else var_upper[j] - 3.0
            hi = var_upper[j] if np.isfinite(var_upper[j]) else lo + 3.0
            if not np.isfinite(lo):
                lo, hi = -1.5, 1.5
            x_star[j] = lo + (hi - lo) * rs.uniform(0.2, 0.8)

    # Rows: four nonzeros each; sense E, L or G, a third of them ranged.
    # y_sign is the sign of the row multiplier y_r (grad f(x*) gets
    # -y_r a_r): +1 for an active upper side, -1 for an active lower side,
    # NaN for an equality row, whose multiplier has either sign.
    A = np.zeros((m, n))
    for r in range(m):
        cols = rs.choice(n, 4, replace=False)
        A[r, cols] = np.round(rs.uniform(-1.0, 1.0, 4), 6)
        A[r, cols[A[r, cols] == 0.0]] = 0.5
    activity = A @ x_star
    senses, rhs, ranges = [], np.zeros(m), {}
    row_lower = np.full(m, -np.inf)
    row_upper = np.full(m, np.inf)
    y_sign = np.zeros(m)
    for r in range(m):
        sense = rs.choice(["E", "L", "G"], p=[0.2, 0.4, 0.4])
        ranged = rs.random() < 1.0 / 3.0
        active = rs.random() < 0.5
        act = activity[r]
        width = rs.uniform(0.5, 2.0)
        if sense == "E" and not ranged:
            rhs[r], y_sign[r] = act, np.nan
        elif sense == "E":
            # Ranged E row: [b, b+R] for R > 0, [b+R, b] for R < 0; active at b.
            R = width if rs.random() < 0.5 else -width
            rhs[r], ranges[r] = act, R
            y_sign[r] = -1.0 if R > 0 else 1.0
        elif ranged and active and rs.random() < 0.5:
            # The side opposite the sense is the active one.
            ranges[r] = width
            rhs[r] = act + width if sense == "L" else act - width
            y_sign[r] = -1.0 if sense == "L" else 1.0
        else:
            slack = 0.0 if active else width
            rhs[r] = act + slack if sense == "L" else act - slack
            if active:
                y_sign[r] = 1.0 if sense == "L" else -1.0
            if ranged:
                ranges[r] = width + slack
        senses.append(sense)
        # Row bounds exactly as the MPS RANGES rules compute them.
        b = rhs[r]
        if sense == "E":
            row_lower[r] = row_upper[r] = b
        elif sense == "L":
            row_upper[r] = b
        else:
            row_lower[r] = b
        if r in ranges:
            R = ranges[r]
            if sense == "L":
                row_lower[r] = b - abs(R)
            elif sense == "G":
                row_upper[r] = b + abs(R)
            elif R >= 0:
                row_upper[r] = b + R
            else:
                row_lower[r] = b + R

    # Objective. Q: diagonal in [1.5, 2.5] plus off-diagonals of size
    # <= 0.25, at most four per row, so Q is diagonally dominant with
    # eigenvalues >= 0.5.
    Q = np.diag(np.round(ro.uniform(1.5, 2.5, n), 6))
    stride = max(2, n // 7)
    for j in range(n):
        for k in (j + 1, j + stride):
            if k < n and ro.random() < 0.7:
                Q[k, j] = Q[j, k] = np.round(ro.uniform(-0.25, 0.25), 6)
    Q_lower = [(i, j, float(Q[i, j])) for i in range(n) for j in range(i + 1)
               if Q[i, j] != 0.0]
    z_bound = z_sign * ro.uniform(0.5, 1.5, n)
    eq = np.isnan(y_sign)
    y = np.where(eq, ro.standard_normal(m),
                 np.nan_to_num(y_sign) * ro.uniform(0.5, 1.5, m))
    # Stationarity at x*: Qx* + q = z_bound - A'y fixes q.
    q = z_bound - A.T @ y - Q @ x_star
    c = float(np.round(ro.uniform(-5.0, 5.0), 6))
    A_entries = sorted((r, j, float(A[r, j])) for r, j in zip(*np.nonzero(A)))

    lines = [f"* seeded planted-KKT QP, n={n}, m={m}, seed={seed}",
             f"NAME          PLANTED{seed}", "ROWS", " N  COST"]
    lines += [f" {senses[r]}  R{r}" for r in range(m)]
    lines.append("COLUMNS")
    for j in range(n):
        pairs = [("COST", _fmt(q[j]))]
        pairs += [(f"R{r}", _fmt(A[r, j])) for r in np.flatnonzero(A[:, j])]
        for k in range(0, len(pairs), 2):
            fields = "  ".join(f"{a:<8}  {v:>24}" for a, v in pairs[k:k + 2])
            lines.append(f"    C{j:<7}  {fields}")
    lines.append("RHS")
    lines.append(f"    RHS       COST      {_fmt_fortran(-c)}")
    lines += [f"    RHS       R{r:<7}  {_fmt_fortran(rhs[r])}"
              for r in range(m) if rhs[r] != 0.0]
    lines.append("RANGES")
    lines += [f"    RNG       R{r:<7}  {_fmt(R)}" for r, R in sorted(ranges.items())]
    lines.append("BOUNDS")
    for j, kind in enumerate(kinds):
        if kind == "box":
            lines.append(f" LO BND       C{j:<7}  {_fmt(var_lower[j])}")
            lines.append(f" UP BND       C{j:<7}  {_fmt(var_upper[j])}")
        elif kind == "up":
            lines.append(f" UP BND       C{j:<7}  {_fmt(var_upper[j])}")
        elif kind == "free":
            lines.append(f" FR BND       C{j}")
        elif kind == "mi":
            lines.append(f" MI BND       C{j}")
            lines.append(f" UP BND       C{j:<7}  {_fmt(var_upper[j])}")
    lines.append("QUADOBJ")
    lines += [f"    C{j:<7}  C{i:<7}  {_fmt(v)}" for i, j, v in Q_lower]
    lines.append("ENDATA")

    return PlantedQp(text="\n".join(lines) + "\n", n=n, Q_lower=Q_lower,
                     q=q, c=c, A_entries=A_entries, row_lower=row_lower,
                     row_upper=row_upper, var_lower=var_lower,
                     var_upper=var_upper, x_star=x_star)


def parsed_equals_written(qp, planted: PlantedQp) -> bool:
    same = lambda a, b: a.shape == b.shape and bool(np.all(a == b))
    return (qp.n == planted.n
            and qp.m_rows == planted.row_lower.size
            and sorted(qp.Q.entries) == planted.Q_lower
            and sorted(qp.A.entries) == planted.A_entries
            and same(qp.q, planted.q) and qp.c == planted.c
            and same(qp.row_lower, planted.row_lower)
            and same(qp.row_upper, planted.row_upper)
            and same(qp.var_lower, planted.var_lower)
            and same(qp.var_upper, planted.var_upper))


# A one-variable maximization, max x1 over [0, 1], in the two OBJSENSE
# forms; its optimum is x1 = 1.
MAX_SECTION = """NAME          MAXONE
OBJSENSE
    MAX
ROWS
 N  OBJ
COLUMNS
    X1        OBJ       1.0
BOUNDS
 UP BND       X1        1.0
ENDATA
"""
MAX_ONE_LINE = MAX_SECTION.replace("OBJSENSE\n    MAX", "OBJSENSE MAX")

QPS_PHASE1_TOL = 1e-8
# The solves stop at the CLI's default tolerances, where the final inner
# tolerance tau_k is about 5e-3; x is judged at twice that.
QPS_X_TOL = 1e-2
QPS_F_TOL = 1e-5


def _qps_config(variant: Variant) -> OuterConfig:
    # The CLI's settings for a QPS source: delta = 1, alpha = 4, xi = 10.
    if variant is Variant.ALM:
        return OuterConfig(variant=variant, xi1=10.0, xi2=10.0,
                           phi=GrowthFn.zero(), delta=1.0)
    return OuterConfig(variant=variant, phi=GrowthFn.power(4.0), delta=1.0)


def _solution_ok(planted: PlantedQp, res, tol: float) -> bool:
    f_star = planted.objective(planted.x_star)
    return (res.status is SolveStatus.EPS_KKT
            and planted.feasible(res.x, tol)
            and float(np.max(np.abs(res.x - planted.x_star))) <= QPS_X_TOL
            and abs(planted.objective(res.x) - f_star)
            <= QPS_F_TOL * (1.0 + abs(f_star)))


class QpsIneq:
    """Four QPS texts (objective seeds 0-3) over one feasible set: the CLI
    flow on a family of objectives. Phase-I
    depends only on the feasible set; its cost on this set, about 0.8 s,
    is at the low end of the 0.04-10 s seen over other sets and sizes."""

    def __init__(self, small: bool = False):
        n, texts = (12, 1) if small else (160, 4)
        self.planted = [write_planted_qps(n, i) for i in range(texts)]

    def setup(self) -> List[Op]:
        cfg_p = _qps_config(Variant.PBALM)
        cfg_a = _qps_config(Variant.ALM)
        ops = []
        for i, planted in enumerate(self.planted):
            qp = pb_qps.parse_qps(planted.text)
            prob = pb_qps.qp_to_problem(qp)
            x0 = prob.prox_f2(np.zeros(prob.n), 1.0)

            def phase1_then_pbalm(prob=prob, x0=x0):
                x_feas = pb_phase1.find_feasible(prob, x0, tol=QPS_PHASE1_TOL,
                                                 cfg=cfg_p)
                res = pb_outer.run(prob, x_feas, cfg_p)
                return (x_feas, res), [res]

            def check_phase1_then_pbalm(out, qp=qp, planted=planted) -> bool:
                x_feas, res = out
                return (parsed_equals_written(qp, planted)
                        and planted.feasible(x_feas, QPS_PHASE1_TOL)
                        and _solution_ok(planted, res, cfg_p.stop_tol))

            ops.append(Op(f"qps{i}-phase1-pbalm", phase1_then_pbalm,
                          check_phase1_then_pbalm))
            ops.append(Op(
                f"qps{i}-alm",
                lambda prob=prob, x0=x0: _solved(pb_outer.run(prob, x0, cfg_a)),
                lambda res, planted=planted: _solution_ok(
                    planted, res, cfg_a.stop_tol)))
        # Known fault: the reader ignores OBJSENSE MAX and minimizes, so
        # these fail on every round; they are counted in ``failed``.
        for name, text in (("section", MAX_SECTION), ("one-line", MAX_ONE_LINE)):
            mprob = pb_qps.qp_to_problem(pb_qps.parse_qps(text))
            mx0 = mprob.prox_f2(np.zeros(1), 1.0)
            ops.append(Op(
                f"qps-objsense-max-{name}",
                lambda mprob=mprob, mx0=mx0: _solved(
                    pb_outer.run(mprob, mx0, cfg_p)),
                lambda res: (res.status is SolveStatus.EPS_KKT
                             and abs(res.x[0] - 1.0) <= 1e-6),
                known_fault=True,
            ))
        return ops


def make(name: str, small: bool = False):
    """The workload ``name``; ``small`` gives a warm-up sized version."""
    cls = {"bp-dense": BasisPursuit, "qp-suite": QpSuite,
           "qps-ineq": QpsIneq}[name]
    return cls(small)
