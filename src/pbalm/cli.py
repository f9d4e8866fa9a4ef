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
import dataclasses
import json
import os
import sys
import time
from importlib import resources
from typing import List, Optional, Tuple

import numpy as np

from .auglag import compute_E, inf_norm
from .inner import InnerConfig
from .outer import (
    FEAS_TOL,
    GrowthFn,
    IterationRecord,
    OuterConfig,
    SolveStatus,
    TRACE_COLUMNS,
    Variant,
    run,
)
from .phase1 import Phase1Failed, find_feasible
from .problem_gen import gen_basis_pursuit
from .qps import parse_qps_file, qp_to_problem

# Bundled QPS fixtures, each in pbalm/fixtures/<name>.qps.
FIXTURES = ("tiny_box", "tiny_eq")

# The OuterConfig fields the CLI passes through: each is a flag (--stop-tol
# for stop_tol) with OuterConfig's default, and goes into the JSON config.
SETTINGS = ("beta", "rho0", "nu0", "gamma0", "stop_tol", "max_outer")


def fixture_path(name: str) -> str:
    return str(resources.files("pbalm.fixtures").joinpath(f"{name}.qps"))


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
    rows = [dataclasses.asdict(rec) for rec in trace]
    return json.dumps({"config": config, "rows": rows, "summary": summary},
                      indent=2, default=float) + "\n"


def variant_list(text: str) -> List[str]:
    """--variant: comma-separated, distinct names of pbalm, balm, alm."""
    names = [v.strip().lower() for v in text.split(",")]
    for i, name in enumerate(names):
        if name not in (v.value for v in Variant):
            raise argparse.ArgumentTypeError(f"unknown variant {name!r}")
        if name in names[:i]:
            raise argparse.ArgumentTypeError(f"variant {name!r} given twice")
    return names


def basis_pursuit_dims(text: str) -> Tuple[str, Tuple[int, int, int]]:
    """--basis-pursuit: 'p=..,n=..,k=..', each key once, returned as
    (text, (p, n, k))."""
    dims = {}
    try:
        for part in text.split(","):
            key, val = (field.strip() for field in part.split("="))
            if key in dims or key not in ("p", "n", "k"):
                raise argparse.ArgumentTypeError(
                    f"repeated or unknown key {key!r}")
            dims[key] = int(val)
        return text, (dims["p"], dims["n"], dims["k"])
    except (ValueError, KeyError):
        raise argparse.ArgumentTypeError(f"cannot parse {text!r}") from None


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
                     type=basis_pursuit_dims,
                     help="synthetic sparse-recovery instance, e.g. p=200,n=512,k=10")
    src.add_argument("--fixture", choices=FIXTURES,
                     help="bundled QPS fixture")

    p.add_argument("--variant", type=variant_list, default="pbalm",
                   help="comma-separated subset of pbalm,balm,alm")
    p.add_argument("--alpha", type=float, default=outer.phi.alpha,
                   help="growth exponent for pbalm/balm (must be > 1)")
    p.add_argument("--xi", type=float, default=10.0,
                   help="geometric penalty factor for the alm baseline (> 1)")
    p.add_argument("--delta", type=float, default=None,
                   help="proximal stepsize constant; defaults to 1 for QP "
                        "sources and 1e-6 for basis pursuit")
    for name in SETTINGS:
        default = getattr(outer, name)
        p.add_argument("--" + name.replace("_", "-"), type=type(default),
                       default=default)
    p.add_argument("--inner-memory", type=int, default=inner.memory)
    p.add_argument("--max-inner", type=int, default=inner.max_iters)
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.add_argument("--f1-star", type=float, default=None,
                   help="known optimal value, enables the suboptimality gap "
                        "in the summary")
    p.add_argument("--phase1", action="store_true",
                   help="bootstrap a feasible start via the phase-I problem")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="trace output path; '-' or omitted writes no trace")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    return p


def _make_config(args, variant: Variant, delta: float, seed: int) -> OuterConfig:
    # OuterConfig checks every setting, sets the baseline's phi to 0 and
    # checks its xi > 1; xi applies to the baseline alone.
    xi = dict(xi1=args.xi, xi2=args.xi) if variant is Variant.ALM else {}
    return OuterConfig(
        variant=variant,
        delta=delta,
        inner=InnerConfig(memory=args.inner_memory, max_iters=args.max_inner),
        phi=GrowthFn.power(args.alpha),
        seed=seed,
        **{name: getattr(args, name) for name in SETTINGS},
        **xi,
    )


def _solve_one(prob, x0, cfg, args, variant_name: str):
    t0 = time.perf_counter()
    result = run(prob, x0, cfg)
    wall = time.perf_counter() - t0

    summary = {
        "problem": prob.name,
        "variant": variant_name,
        "status": result.status.value,
        "outer_iterations": len(result.trace),
        "grad_evals": result.grad_evals,
        # At result.x with the final multipliers and penalties; a run that
        # wrote no row still reports its residuals.
        "eq_infeas": result.kkt.eq_infeas,
        "ineq_infeas": result.kkt.ineq_infeas,
        "E_norm": inf_norm(compute_E(prob.g(result.x), result.mult.mu,
                                     result.penalties.nu)),
        "stationarity": result.kkt.stationarity,
        # The penalties in force at exit: those that failed, on a
        # numerical failure, which writes no trace row.
        "rho_max": result.penalties.rho,
        "nu_max": result.penalties.nu,
        "gamma": result.penalties.gamma,
        "f1_value": float(prob.f1(result.x)),
        "wall_time_s": wall,
    }
    if args.f1_star is not None:
        denom = abs(float(prob.f1(x0)) - args.f1_star)
        if denom > 0:
            summary["suboptimality_gap"] = (abs(summary["f1_value"] - args.f1_star)
                                            / denom)
    return result, summary


def _build_problem(args, seed: int):
    if args.basis_pursuit:
        _, dims = args.basis_pursuit
        _, prob, x_feasible = gen_basis_pursuit(*dims, seed)
        return prob, x_feasible
    path = args.qps if args.qps else fixture_path(args.fixture)
    qp = parse_qps_file(path)
    prob = qp_to_problem(qp)
    x0 = prob.prox_f2(np.zeros(prob.n), 1.0)
    return prob, x0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    delta = args.delta
    if delta is None:
        delta = 1e-6 if args.basis_pursuit else 1.0

    # Solve every variant before writing any trace, so a failed solve exits
    # 1 with no file written; a failed write exits 1 as well.
    outputs = []
    try:
        prob, x0 = _build_problem(args, args.seed)
        for v in args.variant:
            cfg = _make_config(args, Variant(v), delta, args.seed)
            start = x0
            if args.phase1:
                start = find_feasible(prob, x0, tol=FEAS_TOL, cfg=cfg)
            outputs.append(_solve_one(prob, start, cfg, args, v))

        for (result, summary), variant_name in zip(outputs, args.variant):
            if args.out and args.out != "-":
                out_path = args.out
                if len(args.variant) > 1:
                    root, ext = os.path.splitext(args.out)
                    out_path = f"{root}.{variant_name}{ext}"
                config_dict = {
                    "variant": variant_name,
                    "alpha": args.alpha,
                    "xi": args.xi,
                    "delta": delta,
                    **{name: getattr(args, name) for name in SETTINGS},
                    "seed": args.seed,
                    "source": (args.qps or args.fixture
                               or args.basis_pursuit[0]),
                }
                with open(out_path, "w", newline="") as fh:
                    if args.format == "csv":
                        fh.write(trace_to_csv(result.trace))
                    else:
                        fh.write(trace_to_json(result.trace, config_dict, summary))
            parts = [f"{key}={_fmt(val) if isinstance(val, float) else val}"
                     for key, val in summary.items()]
            print(" ".join(parts))
    except (OSError, Phase1Failed, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if all(r.status is SolveStatus.EPS_KKT for r, _ in outputs) else 2


if __name__ == "__main__":
    sys.exit(main())
