"""Time two source checkouts on one benchmark workload, operation by
operation, and print the change/parent ratio of their per-round times.

    python3 tools/bench_ab.py PARENT CHANGE --workload W [--rounds 20] \
        [--out FILE] [--note TEXT] [--commits PARENT_SHA CHANGE_SHA]

PARENT and CHANGE are directories holding a checkout each, named by commit
as ``tools/bench_pairs.py`` names them.  One worker process per checkout
imports that checkout's ``pbalm`` (from ``src/``) and ``bench/workloads.py``
and builds the workload's operations, BLAS at one thread.  Each round runs
every operation once on each side, back to back; the side that runs first
switches from one operation to the next and from one round to the next, so
a drift in the machine's load favours neither side.  A solve is timed by
the CPU time of its worker (``time.process_time``), which leaves out the
time the worker waited for a CPU on a shared machine.

Per round, each side's time is the sum over the operations.  The summary
gives the quartiles of the per-round ratio change/parent (linear
interpolation, numpy.percentile 25/50/75), the number of rounds in which
the change took less time, each side's median and quartiles, and the failed
operations.  Each solve's output is hashed with ``tools/op_digest.py``'s
``digest``; a side's digest is the sha256 over its operations' digests,
equal on both sides when every solve is bit-identical, and a digest that
differs between rounds of one side stops the tool.  With ``--out`` the
record is written as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path
from time import process_time

import numpy as np

from bench_pairs import SIDES, WORKLOADS, env, machine, resolve_commits, summary

TOOLS = Path(__file__).resolve().parent


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path, help="checkout of the parent commit")
    p.add_argument("change", type=Path, help="checkout of the change")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--rounds", type=int, default=20)
    p.add_argument("--out", type=Path, help="write the record as JSON here")
    p.add_argument("--note", default="", help="what the change does")
    p.add_argument("--commits", nargs=2, metavar=("PARENT_SHA", "CHANGE_SHA"),
                   help="the two commits; default: read from each checkout")
    args = p.parse_args(argv)
    if args.rounds < 1:
        p.error("--rounds must be at least 1")
    for side in SIDES:
        checkout = getattr(args, side)
        if not ((checkout / "src" / "pbalm").is_dir()
                and (checkout / "bench" / "workloads.py").is_file()):
            p.error(f"no src/pbalm and bench/workloads.py in {checkout}")
    resolve_commits(p, args)
    return args


def worker(checkout: str, workload: str, small: bool) -> int:
    """Serve one checkout's operations: read an operation index per line,
    answer with one JSON line {"s", "ok", "digest"}."""
    proto, sys.stdout = sys.stdout, sys.stderr  # solver output stays off the pipe
    root = Path(checkout)
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import pbalm
    import workloads
    from op_digest import digest

    if Path(pbalm.__file__).resolve().parent != root / "src" / "pbalm":
        print(f"error: imported pbalm from {pbalm.__file__}", file=sys.stderr)
        return 2
    ops = workloads.make(workload, small=small).setup()
    print(json.dumps([op.name for op in ops]), file=proto, flush=True)
    for line in sys.stdin:
        op = ops[int(line)]
        t0 = process_time()
        try:
            out, _ = op.solve()
        except Exception as exc:  # reported as a failed operation
            seconds = process_time() - t0
            reply = {"s": seconds, "ok": False,
                     "digest": f"raised {type(exc).__name__}: {exc}"}
        else:
            seconds = process_time() - t0
            try:
                ok = bool(op.check(out))
            except Exception:  # a malformed output fails its check
                ok = False
            reply = {"s": seconds, "ok": ok, "digest": digest(out)}
        print(json.dumps(reply), file=proto, flush=True)
    return 0


class Worker:
    def __init__(self, checkout: Path, workload: str, small: bool):
        code = ("import sys, bench_ab; "
                "sys.exit(bench_ab.worker(*sys.argv[1:3], sys.argv[3] == '1'))")
        self.proc = subprocess.Popen(
            [sys.executable, "-c", code, str(checkout.resolve()), workload,
             "1" if small else "0"],
            cwd=TOOLS, env=env(), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        try:
            self.names = self._read()
        except BaseException:
            self.close()
            raise

    def _read(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited {self.proc.wait()}")
        return json.loads(line)

    def run(self, i: int) -> dict:
        self.proc.stdin.write(f"{i}\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def ratio_summary(parent: list, change: list) -> dict:
    """Quartiles of the per-round ratio change/parent, and the number of
    rounds in which the change took less time."""
    ratios = [c / p for p, c in zip(parent, change)]
    q1, med, q3 = np.percentile(ratios, [25, 50, 75])
    lower = sum(c < p for p, c in zip(parent, change))
    return {"median": round(float(med), 4), "q1": round(float(q1), 4),
            "q3": round(float(q3), 4), "runs": [round(r, 4) for r in ratios],
            "change_lower_in_rounds": f"{lower}/{len(ratios)}"}


def compare(parent: Path, change: Path, workload: str, rounds: int,
            small: bool = False) -> dict:
    checkouts = {"parent": parent, "change": change}
    workers = {}
    try:
        for side in SIDES:
            workers[side] = Worker(checkouts[side], workload, small)
        names = workers["parent"].names
        if workers["change"].names != names:
            raise RuntimeError("the checkouts build different operations")
        times = {side: [] for side in SIDES}
        failed = {side: 0 for side in SIDES}
        digests = {side: [None] * len(names) for side in SIDES}
        for r in range(rounds):
            total = dict.fromkeys(SIDES, 0.0)
            for i in range(len(names)):
                for side in SIDES if (r + i) % 2 == 0 else SIDES[::-1]:
                    reply = workers[side].run(i)
                    total[side] += reply["s"]
                    failed[side] += not reply["ok"]
                    if digests[side][i] is None:
                        digests[side][i] = reply["digest"]
                    elif digests[side][i] != reply["digest"]:
                        raise RuntimeError(
                            f"{side} {names[i]}: output differs between rounds")
            for side in SIDES:
                times[side].append(total[side])
            print(f"{workload} round {r + 1}/{rounds}: parent "
                  f"{total['parent']:.4f} s, change {total['change']:.4f} s",
                  file=sys.stderr, flush=True)
    finally:
        for w in workers.values():
            w.close()
    sha = {side: hashlib.sha256("\n".join(digests[side]).encode()).hexdigest()
           for side in SIDES}
    record = {"rounds": rounds, "operations": len(names),
              "ratio_change_over_parent": ratio_summary(times["parent"],
                                                        times["change"])}
    for side in SIDES:
        record[side] = {"cpu_s": summary(times[side]),
                        "failed": failed[side], "op_digest_sha256": sha[side]}
    record["op_digest_identical"] = sha["parent"] == sha["change"]
    return record


def main(argv=None) -> int:
    args = parse_args(argv)
    rec = compare(args.parent, args.change, args.workload, args.rounds)
    ratio = rec["ratio_change_over_parent"]
    print(f"{args.workload}: {rec['rounds']} rounds of {rec['operations']} "
          f"operations; change/parent CPU-time ratio quartiles "
          f"{ratio['q1']:.3f}/{ratio['median']:.3f}/{ratio['q3']:.3f}; "
          f"change lower in {ratio['change_lower_in_rounds']} rounds")
    for side in SIDES:
        print(f"  {side}: median {rec[side]['cpu_s']['median']:.4f} s, "
              f"failed {rec[side]['failed']}, "
              f"op_digest {rec[side]['op_digest_sha256']}")
    print(f"  op_digest identical: {rec['op_digest_identical']}")
    if args.out:
        args.out.write_text(json.dumps({
            "change": args.note,
            "parent_commit": args.commits[0],
            "change_commit": args.commits[1],
            "command": f"python3 tools/bench_ab.py PARENT CHANGE --workload "
                       f"{args.workload} --rounds {args.rounds}",
            "method": "one worker process per checkout, BLAS at 1 thread; "
                      "each round runs every operation once per side, the "
                      "side that runs first switching per operation and per "
                      "round; CPU time of the worker per solve, summed per "
                      "round; quartiles by linear interpolation "
                      "(numpy.percentile 25/50/75)",
            "machine": machine(),
            "workloads": {args.workload: rec},
        }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
