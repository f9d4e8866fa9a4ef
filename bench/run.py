"""pbalm benchmark: runs one workload through the library API for a fixed
time and prints its metrics, then one JSON result line.

    python3 bench/run.py --workload {bp-dense,qp-suite,qps-ineq} \
        --seed N --seconds S --trace {0,1} [--blas-threads T]

Run from the root of a source checkout; the package is imported from
``src/`` next to this directory, never from an installed copy. With
``--trace 0`` the end-to-end metrics are reported; with ``--trace 1`` the
per-layer metrics of a traced run, whose spans and counters are written to
``.bench_out/trace-<workload>-seed<N>.json.gz``. See bench/README.md.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import random
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("bp-dense", "qp-suite", "qps-ineq")
# Set-ups per run; setup_s is their median. Fixed, so that ``attempted``
# does not depend on timing.
SETUP_REPEATS = {"bp-dense": 5, "qp-suite": 40, "qps-ineq": 20}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True,
                   help="orders the operations of a round; the problem "
                        "instances are fixed")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--blas-threads", type=int, default=1,
                   help="BLAS threads, capped at the CPUs this process may "
                        "use (default 1); iteration counts depend on it")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def pin_blas_threads(requested: int) -> int:
    """Must run before numpy is imported."""
    threads = max(1, min(requested, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def import_package() -> bool:
    src = ROOT / "src"
    if not (src / "pbalm" / "__init__.py").is_file():
        print(f"error: no package source at {src / 'pbalm'}", file=sys.stderr)
        return False
    sys.path.insert(0, str(src))
    import pbalm
    if Path(pbalm.__file__).resolve().parent != (src / "pbalm").resolve():
        print(f"error: imported pbalm from {pbalm.__file__}", file=sys.stderr)
        return False
    return True


@dataclass
class Round:
    solve_s: float
    outer_iters: int
    grad_evals: int
    attempted: int
    failed: int
    unexpected: int


def _passes(op, out) -> bool:
    try:
        return bool(op.check(out))
    except Exception:  # a malformed output fails its check
        traceback.print_exc()
        return False


def run_round(ops) -> Round:
    """Each operation once: solves timed, outputs checked after. An
    exception in a solve counts the operation as failed."""
    solve_s, iters, grads, failed, unexpected = 0.0, 0, 0, 0, 0
    for op in ops:
        t0 = perf_counter()
        try:
            out, mains = op.solve()
        except Exception:
            traceback.print_exc()
            out, mains = None, None
        solve_s += perf_counter() - t0
        if mains is not None:
            iters += sum(len(r.trace) for r in mains)
            grads += sum(r.trace[-1].inner_grad_evals for r in mains if r.trace)
        if mains is None or not _passes(op, out):
            failed += 1
            if not op.known_fault:
                unexpected += 1
                print(f"check failed: {op.name}", file=sys.stderr)
    return Round(solve_s, iters, grads, len(ops), failed, unexpected)


def in_seed_order(ops, seed: int) -> list:
    """The round's operations in an order drawn from ``seed``, the one use
    of the seed: the problem instances are fixed (see workloads.py)."""
    ops = list(ops)
    random.Random(seed).shuffle(ops)
    return ops


def timed_setups(wl, repeats: int):
    times, ops = [], None
    for _ in range(repeats):
        ops = None  # release the previous set before building the next
        t0 = perf_counter()
        ops = wl.setup()
        times.append(perf_counter() - t0)
    return statistics.median(times), ops


def rounds_for(seconds: float, run):
    """Whole rounds, at least one, while the next one still fits in
    ``seconds`` at the pace of the last."""
    out = []
    t_start = t_last = perf_counter()
    while True:
        out.append(run())
        now = perf_counter()
        if now + (now - t_last) > t_start + seconds:
            return out
        t_last = now


def traced_metrics(wl, plain_ops, args, threads):
    import tracing

    tracer = tracing.Tracer()
    setup_segments = []
    for _ in range(SETUP_REPEATS[args.workload]):
        tracer.reset()
        with tracer.patched():
            traced_ops = in_seed_order(wl.setup(), args.seed)
        setup_segments.append(tracing.layer_metrics(tracer.spans, tracer.counts))
    setup_spans = list(tracer.spans)

    round_segments = []

    def plain_then_traced():
        plain = run_round(plain_ops)
        tracer.reset()
        with tracer.patched():
            traced = run_round(traced_ops)
        round_segments.append(tracing.layer_metrics(tracer.spans, tracer.counts))
        return plain, traced

    pairs = rounds_for(args.seconds, plain_then_traced)
    rounds = [r for pair in pairs for r in pair]

    metrics = {}
    for name, (_, unit) in round_segments[-1].items():
        source = (setup_segments if name.startswith(("qps.", "problem_gen."))
                  else round_segments)
        metrics[name] = (statistics.median(seg[name][0] for seg in source), unit)
    untraced = statistics.median(p.solve_s for p, _ in pairs)
    traced = statistics.median(t.solve_s for _, t in pairs)
    metrics["trace.solve_s"] = (traced, "s")
    metrics["trace.untraced_solve_s"] = (untraced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    metrics["trace.overhead_pct"] = (100.0 * (traced - untraced) / untraced, "%")

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{args.workload}-seed{args.seed}.json.gz"
    with gzip.open(path, "wt") as fh:
        json.dump({
            "workload": args.workload,
            "seed": args.seed,
            "blas_threads": threads,
            "traced_rounds": len(pairs),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "counters": dict(tracer.counts),
            "span_fields": ["name", "start_us", "end_us", "parent_index"],
            "setup_spans": tracing.compact(setup_spans),
            "round_spans": tracing.compact(tracer.spans),
        }, fh, separators=(",", ":"))
    print(f"trace written to {path.relative_to(ROOT)}")
    return rounds, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = pin_blas_threads(args.blas_threads)
    if not import_package():
        return 2
    import workloads

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} blas_threads={threads}")
    warm = run_round(workloads.make(args.workload, small=True).setup())
    wl = workloads.make(args.workload)
    setup_s, ops = timed_setups(wl, SETUP_REPEATS[args.workload])
    ops = in_seed_order(ops, args.seed)

    if args.trace:
        rounds, metrics = traced_metrics(wl, ops, args, threads)
    else:
        rounds = rounds_for(args.seconds, lambda: run_round(ops))
        metrics = {
            "solve_s": (statistics.median(r.solve_s for r in rounds), "s"),
            "setup_s": (setup_s, "s"),
            "outer_iters": (statistics.median_low(r.outer_iters for r in rounds), "count"),
            "grad_evals": (statistics.median_low(r.grad_evals for r in rounds), "count"),
            "peak_rss_mib": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }

    # Iteration counts are deterministic at a fixed BLAS thread count; a
    # difference between rounds means a solve is not.
    repeatable = len({(r.outer_iters, r.grad_evals) for r in rounds}) == 1
    if not repeatable:
        print("error: iteration counts differ between rounds", file=sys.stderr)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    correct = repeatable and warm.unexpected == 0 and not any(
        r.unexpected for r in rounds)

    print(f"rounds={len(rounds)} attempted={attempted} failed={failed} "
          f"(known faults: {failed - sum(r.unexpected for r in rounds)})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
