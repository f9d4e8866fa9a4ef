"""Benchmark command line: pick a problem and a variant, solve, write the
per-iteration trace as CSV or JSON.

Gradient-evaluation counting: the trace column ``inner_grad_evals`` is the
cumulative number of smooth-gradient evaluations of the subproblem
objective; each such evaluation internally applies both constraint
Jacobians once.  The summary's ``grad_evals`` is the whole solve's count,
a failing last subproblem included.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from importlib import resources
from typing import List, Optional

import numpy as np

from .inner import InnerConfig
from .outer import (
    FEAS_TOL,
    GrowthFn,
    InfeasibleStartError,
    IterationRecord,
    OuterConfig,
    SolveStatus,
    TRACE_COLUMNS,
    Variant,
    run,
)
from .phase1 import Phase1Failed, find_feasible
from .problem_gen import gen_basis_pursuit
from .qps import QpsParseError, parse_qps_file, qp_to_problem

FIXTURES = {
    "tiny_eq": "tiny_eq.qps",
    "tiny_box": "tiny_box.qps",
}


def fixture_path(name: str) -> str:
    return str(resources.files("pbalm.fixtures").joinpath(FIXTURES[name]))


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def trace_to_csv(trace: List[IterationRecord]) -> str:
    lines = [",".join(TRACE_COLUMNS)]
    for rec in trace:
        lines.append(",".join(_fmt(getattr(rec, col)) for col in TRACE_COLUMNS))
    return "\n".join(lines) + "\n"


def trace_to_json(trace: List[IterationRecord], config: dict, summary: dict) -> str:
    rows = [
        {col: getattr(rec, col) for col in TRACE_COLUMNS} for rec in trace
    ]
    return json.dumps({"config": config, "rows": rows, "summary": summary},
                      indent=2, default=float) + "\n"


def build_parser() -> argparse.ArgumentParser:
    outer, inner = OuterConfig(), InnerConfig()
    p = argparse.ArgumentParser(
        prog="pbalm",
        description="Augmented-Lagrangian benchmark runner "
                    "(proximal and classical variants).",
    )
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--qps", metavar="PATH", help="QPS/MPS problem file")
    src.add_argument("--basis-pursuit", metavar="p=..,n=..,k=..",
                     help="synthetic sparse-recovery instance, e.g. p=200,n=512,k=10")
    src.add_argument("--fixture", choices=sorted(FIXTURES),
                     help="bundled QPS fixture")

    p.add_argument("--variant", default="pbalm",
                   help="comma-separated subset of pbalm,balm,alm")
    p.add_argument("--alpha", type=float, default=outer.phi.alpha,
                   help="growth exponent for pbalm/balm (must be > 1)")
    p.add_argument("--xi", type=float, default=10.0,
                   help="geometric penalty factor for the alm baseline (> 1)")
    p.add_argument("--delta", type=float, default=None,
                   help="proximal stepsize constant; defaults to 1 for QP "
                        "sources and 1e-6 for basis pursuit")
    p.add_argument("--beta", type=float, default=outer.beta)
    p.add_argument("--rho0", type=float, default=outer.rho0)
    p.add_argument("--nu0", type=float, default=outer.nu0)
    p.add_argument("--gamma0", type=float, default=outer.gamma0)
    p.add_argument("--stop-tol", type=float, default=outer.stop_tol)
    p.add_argument("--max-outer", type=int, default=outer.max_outer)
    p.add_argument("--inner-memory", type=int, default=inner.memory)
    p.add_argument("--max-inner", type=int, default=inner.max_iters)
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.add_argument("--f1-star", type=float, default=None,
                   help="known optimal value, enables the suboptimality gap "
                        "in the summary")
    p.add_argument("--phase1", action="store_true",
                   help="bootstrap a feasible start via the phase-I problem")
    p.add_argument("--eq-as-h", action="store_true",
                   help="emit equality rows of a QPS file as true equalities")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="trace output path; '-' or omitted writes no trace")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    return p


def _parse_bp_dims(spec: str, parser: argparse.ArgumentParser):
    dims = {}
    try:
        for part in spec.split(","):
            key, val = part.split("=")
            dims[key.strip()] = int(val)
        return dims["p"], dims["n"], dims["k"]
    except (ValueError, KeyError):
        parser.error(f"cannot parse --basis-pursuit argument {spec!r}")


def _make_config(args, variant: Variant, delta: float, seed: int) -> OuterConfig:
    # OuterConfig sets the baseline's phi to 0 and checks its xi > 1.
    if variant is Variant.ALM:
        growth = dict(xi1=args.xi, xi2=args.xi)
    else:
        growth = dict(phi=GrowthFn.power(args.alpha))
    return OuterConfig(
        variant=variant,
        beta=args.beta,
        delta=delta,
        rho0=args.rho0,
        nu0=args.nu0,
        gamma0=args.gamma0,
        stop_tol=args.stop_tol,
        max_outer=args.max_outer,
        inner=InnerConfig(memory=args.inner_memory, max_iters=args.max_inner),
        seed=seed,
        **growth,
    )


def _solve_one(prob, x0, cfg, args, variant_name: str):
    t0 = time.perf_counter()
    result = run(prob, x0, cfg)
    wall = time.perf_counter() - t0

    last = result.trace[-1] if result.trace else None
    summary = {
        "problem": prob.name,
        "variant": variant_name,
        "status": result.status.value,
        "outer_iterations": len(result.trace),
        "grad_evals": result.grad_evals,
        # At result.x with the final multipliers, as in the last trace
        # row; a run that wrote no row still reports its residuals.
        "eq_infeas": result.kkt.eq_infeas,
        "ineq_infeas": result.kkt.ineq_infeas,
        "E_norm": last.E_norm if last else 0.0,
        "stationarity": result.kkt.stationarity,
        # The penalties in force at exit: those that failed, on a
        # numerical failure, which writes no trace row.
        "rho_max": result.penalties.rho,
        "nu_max": result.penalties.nu,
        "gamma": result.penalties.gamma,
        "f1_value": float(prob.f1(result.x)),
        "wall_time_s": wall,
    }
    if args.f1_star is not None and last is not None:
        denom = abs(float(prob.f1(x0)) - args.f1_star)
        if denom > 0:
            summary["suboptimality_gap"] = abs(last.f1_value - args.f1_star) / denom
    return result, summary


def _build_problem(args, seed: int):
    if args.basis_pursuit:
        p_dim, n_dim, k = _parse_bp_dims(args.basis_pursuit, build_parser())
        _, prob, x_feasible = gen_basis_pursuit(p_dim, n_dim, k, seed)
        return prob, x_feasible
    path = args.qps if args.qps else fixture_path(args.fixture)
    qp = parse_qps_file(path)
    prob = qp_to_problem(qp, eq_as_h=args.eq_as_h)
    x0 = prob.prox_f2(np.zeros(prob.n), 1.0)
    return prob, x0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    variants = [v.strip().lower() for v in args.variant.split(",") if v.strip()]
    for v in variants:
        if v not in ("pbalm", "balm", "alm"):
            parser.error(f"unknown variant {v!r}")

    delta = args.delta
    if delta is None:
        delta = 1e-6 if args.basis_pursuit else 1.0

    # Solve every variant before writing any trace, so an error exits 1
    # with no file written.
    outputs = []
    try:
        prob, x0 = _build_problem(args, args.seed)
        for v in variants:
            cfg = _make_config(args, Variant(v), delta, args.seed)
            start = x0
            if args.phase1:
                start = find_feasible(prob, x0, tol=FEAS_TOL, cfg=cfg)
            outputs.append(_solve_one(prob, start, cfg, args, v))
    except (OSError, QpsParseError, InfeasibleStartError, Phase1Failed,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    worst = 0
    for (result, summary), variant_name in zip(outputs, variants):
        if args.out and args.out != "-":
            out_path = args.out
            if len(variants) > 1:
                root, ext = os.path.splitext(args.out)
                out_path = f"{root}.{variant_name}{ext}"
            config_dict = {
                "variant": variant_name,
                "alpha": args.alpha,
                "xi": args.xi,
                "delta": delta,
                "beta": args.beta,
                "rho0": args.rho0,
                "nu0": args.nu0,
                "gamma0": args.gamma0,
                "stop_tol": args.stop_tol,
                "max_outer": args.max_outer,
                "seed": args.seed,
                "source": args.qps or args.basis_pursuit or args.fixture,
            }
            try:
                with open(out_path, "w", newline="") as fh:
                    if args.format == "csv":
                        fh.write(trace_to_csv(result.trace))
                    else:
                        fh.write(trace_to_json(result.trace, config_dict, summary))
            except OSError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
        parts = [f"{key}={_fmt(val) if isinstance(val, float) else val}"
                 for key, val in summary.items()]
        print(" ".join(parts))
        if result.status is not SolveStatus.EPS_KKT:
            worst = max(worst, 2)
    return worst


if __name__ == "__main__":
    sys.exit(main())
