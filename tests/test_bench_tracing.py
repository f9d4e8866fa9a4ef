"""The traced benchmark (``bench/run.py --trace 1``) patches pbalm entry
points by name; a rename must fail here rather than in a benchmark run."""

import os

import numpy as np

from pbalm import outer, problem_gen

BENCH = os.path.join(os.path.dirname(__file__), "..", "bench")


def test_tracer_patches_and_sees_each_layer(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import tracing

    tracer = tracing.Tracer()
    with tracer.patched():
        qp = problem_gen.make_random_eq_qp(6, 2, seed=0)
        prob = problem_gen.qp_problem(qp)
        outer.run(prob, qp.feasible_point(np.random.default_rng(0)),
                  outer.OuterConfig(max_outer=2))
    names = {span[0] for span in tracer.spans}
    assert {"problem_gen.make_random_eq_qp", "problem_gen.qp_problem",
            "outer.run", "outer.select_reference", "inner.solve",
            "auglag.value", "auglag.grad", "auglag.kkt_report",
            "auglag.natural_residual", "auglag.compute_E",
            "oracle.h", "oracle.jac_h_t"} <= names
    assert outer.run.__module__ == "pbalm.outer"  # restored on exit

    # The run's last-point cache wraps the traced maps, so the tracer
    # counts real evaluations only.
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts)
    assert metrics["oracle.h_per_grad"][0] <= 2.1
    assert metrics["outer.h_per_iter"][0] <= 1.0
    # Every augmented-Lagrangian gradient is one the inner solver counts.
    assert metrics["auglag.grad.calls"][0] == metrics["inner.grad_evals"][0]
