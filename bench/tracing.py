"""Per-layer tracing from outside the package.

``Tracer`` wraps public entry points of pbalm (module attributes that the
package's own code looks up at call time) and the maps of every
``ProblemSpec`` the generators, ``qp_to_problem`` and ``build_phase1``
return. Each wrapped call records a span ``[name, start, end, parent]`` in
memory; counts taken from the results (inner iterations, outer traces, QPS
sizes) go into ``counts``. ``layer_metrics`` turns one segment of spans and
counts into the per-layer figures. Nothing here is imported by the
untraced run.
"""

from __future__ import annotations

import contextlib
import dataclasses
from collections import defaultdict
from time import perf_counter

from pbalm import outer as pb_outer
from pbalm import phase1 as pb_phase1
from pbalm import problem_gen as pb_gen
from pbalm import qps as pb_qps

# ProblemSpec field -> oracle map name.
ORACLE_MAPS = {
    "f1": "f1",
    "grad_f1": "grad_f1",
    "h": "h",
    "g": "g",
    "jac_h_transpose_apply": "jac_h_t",
    "jac_g_transpose_apply": "jac_g_t",
    "f2_value": "f2_value",
    "prox_f2": "prox_f2",
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts = defaultdict(float)
        self._open: list = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def wrap(self, name, fn, after=None):
        """``fn`` recording a span per call; ``after(out, args)`` may
        count from the result and returns the value handed back."""
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                open_.pop()
            return after(out, args) if after else out

        return traced

    def problem(self, prob):
        return dataclasses.replace(prob, **{
            field: self.wrap(f"oracle.{short}", getattr(prob, field))
            for field, short in ORACLE_MAPS.items()})

    # Result hooks -------------------------------------------------------

    def _after_run(self, res, args, phase1=False):
        c = self.counts
        iters = len(res.trace)
        grads = res.trace[-1].inner_grad_evals if res.trace else 0
        c["outer.iters"] += iters
        c["outer.reference_resets"] += sum(r.reference_reset for r in res.trace)
        c["outer.rho_increases"] += sum(d.rho_increased for d in res.diagnostics)
        c["outer.nu_increases"] += sum(d.nu_increased for d in res.diagnostics)
        if phase1:
            c["phase1.outer_iters"] += iters
            c["phase1.grad_evals"] += grads
        return res

    def _after_inner(self, res, args):
        c = self.counts
        c["inner.iters"] += res.iterations
        c["inner.grad_evals"] += res.grad_evals
        c["inner.converged"] += bool(res.converged)
        return res

    def _after_parse(self, qp, args):
        text = args[0]
        self.counts["qps.parse.lines"] += text.count("\n")
        self.counts["qps.parse.bytes"] += len(text.encode())
        return qp

    def _after_assemble(self, prob, args):
        qp = args[0]
        self.counts["qps.nnz"] += len(qp.Q.entries) + len(qp.A.entries)
        return self.problem(prob)

    def _after_bp(self, out, args):
        inst, prob, x_feasible = out
        return inst, self.problem(prob), x_feasible

    def _after_phase1_spec(self, spec, args):
        return dataclasses.replace(spec, lifted=self.problem(spec.lifted))

    @contextlib.contextmanager
    def patched(self):
        """Swap the wrapped entry points in for the duration."""
        value, grad = "auglag.value", "auglag.grad"
        plan = [
            (pb_outer, "run", "outer.run", self._after_run),
            (pb_outer, "select_reference", "outer.select_reference", None),
            (pb_outer, "solve_subproblem", "inner.solve", self._after_inner),
            (pb_outer, "eval_al", value, None),
            (pb_outer, "eval_pal", value, None),
            (pb_outer, "eval_pal_completed_square", value, None),
            (pb_outer, "grad_al", grad, None),
            (pb_outer, "grad_pal", grad, None),
            (pb_outer, "kkt_report", "auglag.kkt_report", None),
            (pb_outer, "natural_residual", "auglag.natural_residual", None),
            (pb_outer, "compute_E", "auglag.compute_E", None),
            (pb_phase1, "find_feasible", "phase1.find_feasible", None),
            (pb_phase1, "build_phase1", "phase1.build",
             self._after_phase1_spec),
            (pb_phase1, "run", "outer.run",
             lambda res, args: self._after_run(res, args, phase1=True)),
            (pb_qps, "parse_qps", "qps.parse", self._after_parse),
            (pb_qps, "qp_to_problem", "qps.assemble", self._after_assemble),
            (pb_gen, "gen_basis_pursuit", "problem_gen.gen_basis_pursuit",
             self._after_bp),
            (pb_gen, "make_random_eq_qp", "problem_gen.make_random_eq_qp", None),
            (pb_gen, "qp_problem", "problem_gen.qp_problem",
             lambda prob, args: self.problem(prob)),
        ]
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in plan]
        try:
            for mod, attr, name, after in plan:
                setattr(mod, attr, self.wrap(name, getattr(mod, attr), after))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)


def compact(spans) -> list:
    """Spans for the trace file: times in microseconds from the first
    start, to the nanosecond."""
    t0 = spans[0][1] if spans else 0.0
    return [[name, round((start - t0) * 1e6, 3), round((end - t0) * 1e6, 3),
             parent] for name, start, end, parent in spans]


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans, counts) -> dict:
    """Per-layer figures of one segment. Self time is a span's duration
    minus the time its child spans cover."""
    n = len(spans)
    dur = [end - start for _, start, end, _ in spans]
    child = [0.0] * n
    in_inner = [False] * n
    in_outer = [False] * n
    for i, (name, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
            in_inner[i] = in_inner[parent]
            in_outer[i] = in_outer[parent]
        in_inner[i] = in_inner[i] or name == "inner.solve"
        in_outer[i] = in_outer[i] or name == "outer.run"

    total = defaultdict(float)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    outside_inner = h_outside_inner = 0
    for i, (name, _, _, parent) in enumerate(spans):
        self_s[name.split(".")[0]] += dur[i] - child[i]
        # Oracle maps may call other maps (the phase-I lifting calls the
        # base problem's); such a call counts toward the calling map.
        if name.startswith("oracle.") and parent >= 0 and \
                spans[parent][0].startswith("oracle."):
            continue
        total[name] += dur[i]
        calls[name] += 1
        if name.startswith("oracle.") and in_outer[i] and not in_inner[i]:
            outside_inner += 1
            h_outside_inner += name == "oracle.h"
    oracle_s = sum(t for name, t in total.items() if name.startswith("oracle."))

    c = counts
    out = {}
    for short in ORACLE_MAPS.values():
        out[f"oracle.{short}.calls"] = (calls[f"oracle.{short}"], "count")
        out[f"oracle.{short}.s"] = (total[f"oracle.{short}"], "s")
    out["oracle.h_per_grad"] = (
        _ratio(calls["oracle.h"], c["inner.grad_evals"]), "ratio")
    out["oracle.s"] = (oracle_s, "s")
    for kind in ("value", "grad"):
        out[f"auglag.{kind}.calls"] = (calls[f"auglag.{kind}"], "count")
        out[f"auglag.{kind}.s"] = (total[f"auglag.{kind}"], "s")
    out["auglag.self_s"] = (self_s["auglag"], "s")
    out["inner.calls"] = (calls["inner.solve"], "count")
    out["inner.iters"] = (c["inner.iters"], "count")
    out["inner.grad_evals"] = (c["inner.grad_evals"], "count")
    out["inner.converged"] = (c["inner.converged"], "count")
    out["inner.converged_per_call"] = (
        _ratio(c["inner.converged"], calls["inner.solve"]), "ratio")
    out["inner.s"] = (total["inner.solve"], "s")
    out["inner.self_s"] = (self_s["inner"], "s")
    out["outer.s"] = (total["outer.run"], "s")
    out["outer.self_s"] = (self_s["outer"], "s")
    out["outer.oracle_calls_outside_inner"] = (outside_inner, "count")
    out["outer.h_per_iter"] = (_ratio(h_outside_inner, c["outer.iters"]), "ratio")
    for key in ("reference_resets", "rho_increases", "nu_increases"):
        out[f"outer.{key}"] = (c[f"outer.{key}"], "count")
    out["phase1.s"] = (total["phase1.find_feasible"], "s")
    out["phase1.outer_iters"] = (c["phase1.outer_iters"], "count")
    out["phase1.grad_evals"] = (c["phase1.grad_evals"], "count")
    out["qps.parse.s"] = (total["qps.parse"], "s")
    out["qps.parse.lines"] = (c["qps.parse.lines"], "count")
    out["qps.parse.bytes"] = (c["qps.parse.bytes"], "B")
    out["qps.assemble.s"] = (total["qps.assemble"], "s")
    out["qps.nnz"] = (c["qps.nnz"], "count")
    out["problem_gen.s"] = (sum(t for name, t in total.items()
                                if name.startswith("problem_gen.")), "s")
    return out
