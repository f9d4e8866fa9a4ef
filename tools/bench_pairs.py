"""Compare two source checkouts on the benchmark, in alternating pairs, and
write the record as JSON.

    python3 tools/bench_pairs.py PARENT CHANGE --out BENCH_N.json \
        [--workloads bp-dense qp-suite qps-ineq] [--pairs 10] \
        [--seed-base 100] [--seconds 30] [--note TEXT] \
        [--claim METRIC WORKLOAD TARGET] [--commits PARENT_SHA CHANGE_SHA]

PARENT and CHANGE are directories holding a checkout each (``git clone`` or
``git archive`` of the two commits).  The record names both commits:
``--commits`` gives them, and without it each is read from its checkout by
``git rev-parse``; a checkout that is not the top of its own git work tree
(an archive) then stops the tool before it runs anything.  For each
workload, pair i runs ``bench/run.py --seed <seed-base + i> --trace 0``
once in each checkout, one run at a time; the parent runs first in odd
pairs and the change in even ones, so a drift in the machine's load favours
neither side.  Each end-to-end metric is summarised by its median and
quartiles (linear interpolation, numpy.percentile 25/50/75) over the pairs,
with every run listed, and by the number of pairs in which the change reads
lower.  The record also holds each run's ``attempted``/``failed`` counts,
whether every run was correct, the iteration counts seen, and the sha256 of
``tools/op_digest.py``'s output in each checkout, which is equal when every
benchmark solve is bit-identical.  The file is rewritten after each
workload, so an interrupted comparison keeps the workloads it finished.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

WORKLOADS = ("bp-dense", "qp-suite", "qps-ineq")
SIDES = ("parent", "change")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path, help="checkout of the parent commit")
    p.add_argument("change", type=Path, help="checkout of the change")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                   default=list(WORKLOADS))
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed-base", type=int, default=100,
                   help="pair i runs with seed seed-base + i")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--note", default="", help="what the change does")
    p.add_argument("--claim", nargs=3, metavar=("METRIC", "WORKLOAD", "TARGET"))
    p.add_argument("--commits", nargs=2, metavar=("PARENT_SHA", "CHANGE_SHA"),
                   help="the two commits; default: read from each checkout")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    if args.seed_base < 0:
        p.error("--seed-base must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    for side in SIDES:
        if not (getattr(args, side) / "bench" / "run.py").is_file():
            p.error(f"no bench/run.py in {getattr(args, side)}")
    resolve_commits(p, args)
    return args


def resolve_commits(p: argparse.ArgumentParser, args) -> None:
    """Fill ``args.commits`` from the two checkouts unless ``--commits``
    gave it; a checkout that names no commit of its own stops the tool."""
    if args.commits is None:
        args.commits = [commit(getattr(args, side)) for side in SIDES]
        for side, sha in zip(SIDES, args.commits):
            if sha is None:
                p.error(f"{getattr(args, side)} is not a git work tree; "
                        "name the commits with --commits")


def env() -> dict:
    e = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        e[var] = "1"
    return e


def commit(checkout: Path):
    """HEAD's short hash when ``checkout`` is the top of a git work tree,
    else None (an archive, or a directory inside another repository)."""
    out = subprocess.run(["git", "rev-parse", "--show-toplevel", "--short",
                          "HEAD"], cwd=checkout, capture_output=True, text=True)
    lines = out.stdout.splitlines()
    if out.returncode or Path(lines[0]).resolve() != Path(checkout).resolve():
        return None
    return lines[1]


def bench_run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run; its last stdout line is the JSON result."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, env=env(), capture_output=True,
                         text=True)
    if out.returncode != 0:
        sys.exit(f"{checkout}: {' '.join(cmd[1:])} exited {out.returncode}:\n"
                 f"{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def op_digest(checkout: Path):
    """(sha256, lines) of ``tools/op_digest.py``'s output, or None when the
    checkout has no such tool."""
    if not (checkout / "tools" / "op_digest.py").is_file():
        return None
    out = subprocess.run([sys.executable, "tools/op_digest.py"], cwd=checkout,
                         env=env(), capture_output=True, check=True)
    return hashlib.sha256(out.stdout).hexdigest(), len(out.stdout.splitlines())


def machine() -> str:
    import scipy

    return (f"{os.cpu_count()}-CPU {platform.machine()} {platform.system()}, "
            f"Python {platform.python_version()}, numpy {np.__version__}, "
            f"scipy {scipy.__version__}, BLAS at 1 thread; no CPU pinning, "
            "no frequency control, load of other processes not controlled")


def summary(runs: list) -> dict:
    q1, med, q3 = np.percentile(runs, [25, 50, 75])
    return {"median": round(float(med), 6), "q1": round(float(q1), 6),
            "q3": round(float(q3), 6), "runs": [round(v, 6) for v in runs]}


def compare(args, workload: str) -> dict:
    seeds = [args.seed_base + i for i in range(1, args.pairs + 1)]
    results = {side: [] for side in SIDES}
    for i, seed in enumerate(seeds, start=1):
        order = SIDES if i % 2 else SIDES[::-1]
        for side in order:
            r = bench_run(getattr(args, side), workload, seed, args.seconds)
            results[side].append(r)
            solve = r["metrics"].get("solve_s", {}).get("value")
            print(f"{workload} pair {i}/{args.pairs} {side}: solve_s={solve}",
                  file=sys.stderr, flush=True)

    record = {"pairs": args.pairs,
              "parent_first_in_pairs": list(range(1, args.pairs + 1, 2)),
              "seeds": seeds}
    metrics = list(results["parent"][0]["metrics"])
    values = {side: {m: [r["metrics"][m]["value"] for r in results[side]]
                     for m in metrics} for side in SIDES}
    for side in SIDES:
        rs = results[side]
        record[side] = {m: summary(values[side][m]) for m in metrics}
        record[side].update({
            "correct_all": all(r["correct"] for r in rs),
            "attempted": [r["attempted"] for r in rs],
            "failed": [r["failed"] for r in rs],
        })
        if {"outer_iters", "grad_evals"} <= set(metrics):
            record[side]["counts_outer_iters/grad_evals"] = sorted({
                f"{o}/{g}" for o, g in zip(values[side]["outer_iters"],
                                           values[side]["grad_evals"])})
    lower = {m: sum(c < p for p, c in zip(values["parent"][m],
                                           values["change"][m]))
             for m in metrics}
    record["change_lower_in_pairs"] = {m: f"{k}/{args.pairs}"
                                       for m, k in lower.items()}
    return record


def main(argv=None) -> int:
    args = parse_args(argv)
    record = {
        "change": args.note,
        "parent_commit": args.commits[0],
        "change_commit": args.commits[1],
        "command": "OPENBLAS_NUM_THREADS=1 python3 bench/run.py --workload W "
                   f"--seed S --seconds {args.seconds:g} --trace 0",
        "method": "one run at a time; parent and change alternate, the side "
                  "that runs first switching each pair (odd pair numbers: "
                  "parent first); quartiles by linear interpolation "
                  "(numpy.percentile 25/50/75)",
        "machine": machine(),
    }
    if args.claim:
        metric, workload, target = args.claim
        record["claim"] = {"metric": metric, "workload": workload,
                           "target": target}
    digests = {side: op_digest(getattr(args, side)) for side in SIDES}
    if all(digests.values()):
        record["op_digest"] = {
            "command": "python3 tools/op_digest.py",
            "operations": digests["parent"][1],
            "parent_sha256": digests["parent"][0],
            "change_sha256": digests["change"][0],
            "identical": digests["parent"] == digests["change"],
        }
    record["workloads"] = {}
    for workload in args.workloads:
        record["workloads"][workload] = compare(args, workload)
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
