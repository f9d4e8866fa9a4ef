import os
import subprocess
import sys

import numpy as np
import pytest

from pbalm.inner import (InnerConfig, NonFiniteValueError, _LbfgsMemory,
                         solve_subproblem)
from pbalm.problem import box_problem_terms


def identity_prox(x, step):
    return x


class TestConfigValidation:
    def test_memory_positive(self):
        with pytest.raises(ValueError):
            InnerConfig(memory=0)

    def test_tol_positive(self):
        # tol = NaN ran all max_iters iterations and returned unconverged.
        for tol in (0.0, np.nan):
            with pytest.raises(ValueError, match="tol"):
                solve_subproblem(lambda x: 0.5 * float(x @ x), lambda x: x,
                                 identity_prox, np.ones(2), tol, InnerConfig())

    def test_max_iters_positive(self):
        # With no iteration allowed, run claimed eps_kkt at the unsolved
        # feasible start of make_random_eq_qp(8, 3, 2).
        with pytest.raises(ValueError, match="max_iters"):
            InnerConfig(max_iters=0)


class TestConvergence:
    def test_shifted_quadratic(self):
        a = np.array([3.0, -1.0, 0.5])
        res = solve_subproblem(
            lambda x: 0.5 * float((x - a) @ (x - a)),
            lambda x: x - a,
            identity_prox,
            np.zeros(3),
            1e-8, InnerConfig(),
        )
        assert res.converged
        assert res.residual <= 1e-8
        np.testing.assert_allclose(res.x, a, atol=1e-7)

    def test_ill_conditioned_quadratic(self):
        D = np.array([1.0, 100.0])
        res = solve_subproblem(
            lambda x: 0.5 * float(x @ (D * x)),
            lambda x: D * x,
            identity_prox,
            np.array([1.0, 1.0]),
            1e-8, InnerConfig(),
        )
        assert res.converged
        assert np.max(np.abs(res.x)) <= 1e-8
        assert res.grad_evals > 0

    def test_box_constrained(self):
        _, prox = box_problem_terms(np.zeros(2), np.ones(2))
        c = np.array([2.0, 2.0])
        res = solve_subproblem(
            lambda x: 0.5 * float((x - c) @ (x - c)),
            lambda x: x - c,
            prox,
            np.zeros(2),
            1e-8, InnerConfig(),
        )
        assert res.converged
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-7)

    def test_rosenbrock_like_nonconvex(self):
        def f(x):
            return (1 - x[0]) ** 2 + 5.0 * (x[1] - x[0] ** 2) ** 2

        def grad(x):
            return np.array([
                -2.0 * (1 - x[0]) - 20.0 * x[0] * (x[1] - x[0] ** 2),
                10.0 * (x[1] - x[0] ** 2),
            ])

        res = solve_subproblem(f, grad, identity_prox, np.array([-1.0, 1.0]),
                               1e-7, InnerConfig())
        assert res.converged
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-4)


class TestContract:
    def test_already_stationary_returns_immediately(self):
        res = solve_subproblem(
            lambda x: 0.5 * float(x @ x),
            lambda x: x,
            identity_prox,
            np.zeros(2),
            1e-6, InnerConfig(),
        )
        assert res.converged
        assert res.iterations == 0

    def test_zero_iteration_exit_returns_the_start_array(self):
        # The solver evaluates at x0 itself (no start copy), and an exit
        # with zero iterations returns that array unmodified.
        x0 = np.zeros(2)
        seen = []

        def value(x):
            seen.append(x)
            return 0.5 * float(x @ x)

        res = solve_subproblem(value, lambda x: x, identity_prox, x0,
                               1e-6, InnerConfig())
        assert seen[0] is x0
        assert res.iterations == 0
        assert res.x is x0
        np.testing.assert_array_equal(res.x, np.zeros(2))

    def test_residual_recomputed_fresh(self):
        a = np.array([1.0, 2.0])
        res = solve_subproblem(
            lambda x: 0.5 * float((x - a) @ (x - a)),
            lambda x: x - a,
            identity_prox,
            np.zeros(2),
            1e-6, InnerConfig(),
        )
        # the reported residual must match an independent recomputation
        fresh = np.max(np.abs(res.x - (res.x - (res.x - a))))
        assert res.residual == pytest.approx(fresh, abs=1e-15)

    def test_max_iters_returns_best_not_converged(self):
        D = np.array([1.0, 1e6])
        res = solve_subproblem(
            lambda x: 0.5 * float(x @ (D * x)),
            lambda x: D * x,
            identity_prox,
            np.array([1.0, 1.0]),
            1e-14, InnerConfig(max_iters=3),
        )
        assert not res.converged
        assert res.iterations == 3
        assert res.residual > 1e-14

    def test_max_iters_returns_the_best_prox_point(self):
        """Out of iterations, the solve returns the start or the iterates'
        prox point with the least f + f2, not its last iterate.  The prox
        points it weighs are those it evaluates f at; the unit-step
        residual's prox calls (step 1) are not among them."""
        f2, prox = box_problem_terms(np.zeros(3), np.ones(3))
        c = np.array([2.0, -1.0, 0.5])
        D = np.array([1.0, 10.0, 100.0])
        outputs, steps, valued = [], set(), set()

        def value(x):
            valued.add(x.tobytes())
            return 0.5 * float((x - c) @ (D * (x - c)))

        def recorded_prox(z, step):
            out = prox(z, step)
            outputs.append(out.copy())
            steps.add(step)
            return out

        x0 = np.full(3, 0.9)
        res = solve_subproblem(value, lambda x: D * (x - c), recorded_prox,
                               x0, 1e-10, InnerConfig(max_iters=5),
                               nonsmooth_value=f2)
        assert (res.iterations, res.converged) == (5, False)
        # No backtracking: every prox point f was evaluated at passed the
        # descent test, so each was a candidate for the best.
        assert len(steps - {1.0}) == 1
        points = [x0] + [p for p in outputs if p.tobytes() in valued]
        assert len(points) > 2
        best = min(points, key=lambda p: value(p) + f2(p))
        assert res.x.tobytes() == best.tobytes()
        assert res.x.tobytes() != x0.tobytes()

    def test_envelope_search_demands_sufficient_decrease(self):
        """A quasi-Newton candidate that lowers the envelope by less than
        sigma ||r||^2 / (2 gamma) is rejected, and the search halves tau.

        f(z) = z^2/2 + B bump(z/w), with the bump supported on |z| < w.
        From x0 = 1 the probe sees curvature 1, so gamma = 0.95, and the
        first step goes to x1 = 0.05, outside the bump.  The secant pair
        from x0 to x1 sends the first candidate of iteration 2 to 0, the
        minimizer of z^2/2, where B puts the envelope f - gamma f'^2/2
        below its value at x1 by half of sigma ||r||^2 / (2 gamma)."""
        w, gamma, sigma = 1e-3, 0.95, 1e-4
        x1 = 1.0 - gamma

        def envelope(z, bump):
            return 0.5 * z * z - 0.5 * gamma * z * z + bump

        required = sigma * (gamma * x1) ** 2 / (2.0 * gamma)
        B = envelope(x1, 0.0) - 0.5 * required

        def value(x):
            valued.append(float(x[0]))
            t = x[0] / w
            return 0.5 * x[0] ** 2 + (B * (1 - t * t) ** 3 if abs(t) < 1 else 0.0)

        def grad(x):
            t = x[0] / w
            bump = -6.0 * B * t * (1 - t * t) ** 2 / w if abs(t) < 1 else 0.0
            return np.array([x[0] + bump])

        valued = []
        solve_subproblem(value, grad, identity_prox, np.ones(1), 1e-12,
                         InnerConfig(max_iters=2))
        decrease = envelope(x1, 0.0) - envelope(0.0, B)
        assert 0 < decrease < required
        # x0, x1, then iteration 2: its prox point x1 - gamma x1, the
        # rejected candidate at tau = 1 and the one at tau = 1/2.
        assert valued == pytest.approx([1.0, x1, x1 * (1 - gamma), 0.0,
                                        0.5 * x1 * (1 - gamma)], abs=1e-9)

    def test_monotone_objective_vs_start(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((5, 5))
        Q = M @ M.T + np.eye(5)
        q = rng.standard_normal(5)
        x0 = rng.standard_normal(5)

        def f(x):
            return 0.5 * float(x @ (Q @ x)) + float(q @ x)

        res = solve_subproblem(f, lambda x: Q @ x + q, identity_prox, x0,
                               1e-9, InnerConfig())
        assert f(res.x) <= f(x0)

    def test_deterministic(self):
        a = np.array([0.3, -2.0, 1.0])

        def solve():
            return solve_subproblem(
                lambda x: 0.5 * float((x - a) @ (x - a)) + 0.1 * float(np.sum(x**4)),
                lambda x: (x - a) + 0.4 * x**3,
                identity_prox,
                np.ones(3),
                1e-9, InnerConfig(),
            )

        r1, r2 = solve(), solve()
        np.testing.assert_array_equal(r1.x, r2.x)
        assert r1.iterations == r2.iterations
        assert r1.grad_evals == r2.grad_evals

    def test_non_finite_raises(self):
        with pytest.raises(NonFiniteValueError):
            solve_subproblem(
                lambda x: float(np.exp(x[0])),
                lambda x: np.array([np.nan]),
                identity_prox,
                np.zeros(1),
                1e-6, InnerConfig(),
            )

    def test_curvature_beyond_step_floor_raises_before_stepping(self):
        # f = x0^2/2 + K (x1 - 1)^2 / 2 on the line x0 = x1.  At (1, 1)
        # the gradient is e1, so the probe sees curvature 1, but every
        # step moves along (1, 1), where the curvature is (1 + K)/2 and the
        # descent lemma needs gamma <= 2/(1 + K), far below gamma_min.
        K = 1e16
        grads = []

        def grad(x):
            grads.append(x)
            return np.array([x[0], K * (x[1] - 1.0)])

        def onto_diagonal(z, step):
            return np.full(2, 0.5 * (z[0] + z[1]))

        with pytest.raises(NonFiniteValueError) as exc:
            solve_subproblem(
                lambda x: 0.5 * x[0] ** 2 + 0.5 * K * (x[1] - 1.0) ** 2,
                grad, onto_diagonal, np.ones(2), 1e-8, InnerConfig())
        assert len(grads) == 2  # the start and the probe: no step taken
        assert exc.value.grad_evals == 2

    def test_step_probe_survives_huge_gradient(self):
        # ||g||^2 overflows here; a plain 2-norm would make the first
        # step 1 and jump to -1e160.
        prox_points = []

        def value(x):
            prox_points.append(x)
            return 0.5e160 * float(x @ x)

        res = solve_subproblem(value, lambda x: 1e160 * x, identity_prox,
                               np.ones(2), 1e-8, InnerConfig())
        assert res.converged and res.iterations == 3
        np.testing.assert_allclose(prox_points[1], [0.05, 0.05], rtol=1e-6)

    def test_backtracking_after_an_accepted_step_uses_the_new_prox_point(self):
        # f = (x1^2 + 2.5 x2^2)/2 from (4, 0.01): the probe along -g sees
        # curvature about 1, iteration 1 takes the prox-gradient step,
        # iteration 2 accepts its first L-BFGS candidate, and iteration 3
        # halves gamma twice at that candidate.  After a halving the upper
        # bound needs r.r and g.r of the new prox point; with the ones
        # carried from the accepted candidate it reads f(x), and the first
        # halving would pass.
        H = np.array([1.0, 2.5])
        seen = []

        def value(x):
            seen.append(x.copy())
            return 0.5 * float((H * x).dot(x))

        res = solve_subproblem(value, lambda x: H * x, identity_prox,
                               np.array([4.0, 0.01]), 1e-8, InnerConfig())
        assert res.converged and (res.iterations, res.grad_evals) == (7, 9)
        assert len(seen) == 14
        np.testing.assert_allclose(seen[:7], [
            [4.0, 0.01],
            [0.2003895731179104, -0.01374756516801306],    # iteration 1
            [0.010038995253594585, 0.018899554804876595],  # 2: prox point
            [-0.0003514080491733296, 0.022490115147093204],  # 2: accepted
            [-1.7604627241010274e-05, -0.030918432362078148],  # 3: gamma
            [-0.00018450633820716992, -0.004214158607492472],  # gamma/2
            [-0.00026795719369024975, 0.009137978269800366],  # gamma/4
        ], rtol=1e-9)
        # The three prox points of iteration 3 step from one x by gamma g,
        # gamma g / 2 and gamma g / 4.
        x, steps = seen[3], [p - seen[3] for p in seen[4:7]]
        np.testing.assert_allclose(steps[1], steps[0] / 2, rtol=1e-9)
        np.testing.assert_allclose(steps[2], steps[0] / 4, rtol=1e-9)
        assert np.all(np.sign(steps[0]) == -np.sign(H * x))

    def test_grad_evals_exact_count(self):
        calls = [0]
        a = np.array([1.0, 1.0])

        def grad(x):
            calls[0] += 1
            return x - a

        res = solve_subproblem(
            lambda x: 0.5 * float((x - a) @ (x - a)),
            grad, identity_prox, np.zeros(2), 1e-8, InnerConfig(),
        )
        assert res.grad_evals == calls[0]

    def test_f2_value_once_per_point(self):
        """f2 is evaluated at most once per point: the prox point's value
        serves the best-iterate test, the envelope and, carried with its
        forward-backward step, the next iteration."""
        f2, prox = box_problem_terms(np.zeros(3), np.ones(3))
        c = np.array([2.0, -1.0, 0.5])
        D = np.array([1.0, 10.0, 100.0])
        points = []
        calls = dict(value=0, grad=0, prox=0)

        def counting_f2(x):
            points.append(x)  # keeps every argument alive, so ids differ
            return f2(x)

        def value(x):
            calls["value"] += 1
            return 0.5 * float((x - c) @ (D * (x - c)))

        def grad(x):
            calls["grad"] += 1
            return D * (x - c)

        def counting_prox(x, step):
            calls["prox"] += 1
            return prox(x, step)

        res = solve_subproblem(value, grad, counting_prox, np.full(3, 0.9),
                               1e-10, InnerConfig(),
                               nonsmooth_value=counting_f2)
        assert res.converged and res.iterations > 1
        assert len({id(p) for p in points}) == len(points)
        # Every oracle call of this solve, pinned.
        assert (res.iterations, res.grad_evals) == (16, 19)
        assert calls == dict(value=32, grad=19, prox=20)
        assert len(points) == 19


def exit_zero_iterations():
    """Already stationary at the start."""
    a = np.array([1.0, -2.0])
    return (lambda x: 0.5 * float((x - a) @ (x - a)), lambda x: x - a,
            identity_prox, a.copy(), 1e-6, InnerConfig())


def exit_near_stationary():
    """A box-constrained quadratic that stops at the near-stationary test."""
    _, prox = box_problem_terms(np.zeros(3), np.ones(3))
    c = np.array([2.0, -1.0, 0.5])
    D = np.array([1.0, 10.0, 100.0])
    return (lambda x: 0.5 * float((x - c) @ (D * (x - c))),
            lambda x: D * (x - c), prox, np.full(3, 0.9), 1e-10, InnerConfig())


def exit_max_iters():
    """Too ill-conditioned to converge in three iterations."""
    D = np.array([1.0, 1e6])
    return (lambda x: 0.5 * float(x @ (D * x)), lambda x: D * x,
            identity_prox, np.array([1.0, 1.0]), 1e-14, InnerConfig(max_iters=3))


def ill_conditioned_identity_prox():
    """An ill-conditioned quadratic without a nonsmooth term."""
    D = np.array([1.0, 100.0])
    return (lambda x: 0.5 * float(x @ (D * x)), lambda x: D * x,
            identity_prox, np.array([1.0, 1.0]), 1e-8, InnerConfig())


class TestOneCallPerPoint:
    @pytest.mark.parametrize("case, f2", [
        (ill_conditioned_identity_prox, lambda x: 0.0),
        (exit_near_stationary, box_problem_terms(np.zeros(3), np.ones(3))[0]),
    ], ids=["ill-conditioned-identity-prox", "box"])
    def test_no_call_repeats_the_previous_argument(self, case, f2):
        """No oracle is called twice in a row on byte-equal arguments: a
        point's value, prox step and f2 are each computed once."""
        value, grad, prox, x0, tol, cfg = case()
        args = dict(value=[], prox=[], f2=[])

        def recorded(name, fn):
            def call(x, *step):
                args[name].append(np.asarray(x).tobytes())
                return fn(x, *step)
            return call

        res = solve_subproblem(recorded("value", value), grad,
                               recorded("prox", prox), x0, tol, cfg,
                               nonsmooth_value=recorded("f2", f2))
        assert res.converged and res.iterations > 1
        for name, seen in args.items():
            assert len(seen) > 1, name
            assert all(a != b for a, b in zip(seen, seen[1:])), name


class TestResultAtEachExit:
    """Every exit returns the smooth value, the gradient and the unit-step
    natural residual at its point: the start array itself on a
    zero-iteration exit, a fresh array otherwise."""

    @pytest.mark.parametrize("case, iterations, converged", [
        (exit_zero_iterations, 0, True),
        (exit_near_stationary, 16, True),
        (exit_max_iters, 3, False),
    ], ids=["zero-iterations", "near-stationary", "max-iters"])
    def test_value_grad_and_residual_at_the_returned_point(
            self, case, iterations, converged):
        value, grad, prox, x0, tol, cfg = case()
        res = solve_subproblem(value, grad, prox, x0, tol, cfg)
        assert (res.iterations, res.converged) == (iterations, converged)
        assert (res.x is x0) == (iterations == 0)
        assert res.value == value(res.x)
        assert res.grad.tobytes() == grad(res.x).tobytes()
        assert res.residual == np.max(np.abs(res.x - prox(res.x - res.grad, 1.0)))


def reference_two_loop(pairs, r):
    """Textbook two-loop recursion over (s, y) pairs, oldest first, with
    every s.y recomputed."""
    q = r.copy()
    alphas = []
    for s, y in reversed(pairs):
        a = float(s @ q) / float(s @ y)
        alphas.append(a)
        q -= a * y
    s, y = pairs[-1]
    q *= float(s @ y) / float(y @ y)
    for (s, y), a in zip(pairs, reversed(alphas)):
        b = float(y @ q) / float(s @ y)
        q += (a - b) * s
    return -q


def window_slid(mem, push):
    """Runs push() and says whether it moved the window back to row 0."""
    lo = mem.lo
    push()
    return mem.lo < lo


class TestLbfgsMemory:
    @pytest.mark.parametrize("n", [7, 4096])
    @pytest.mark.parametrize("memory", [1, 20])
    def test_direction_matches_reference(self, n, memory):
        """The compact form gives the two-loop direction to a relative
        1e-12, over a schedule that fills the memory, slides the window
        back to row 0 twice, resets it mid-buffer and rejects pairs, with
        curvatures s.y/s.s spread over e^-18..e^18."""
        rng = np.random.default_rng(n + memory)
        D = np.exp(rng.uniform(-3.0, 3.0, n))
        mem = _LbfgsMemory(memory, n)
        ref, pushed, slides, reset_mid_buffer = [], [], 0, False
        good, i = 0, 0
        # A reset after memory + 1 pairs, then 3 memory + 2 more, every
        # third push a rejected one.
        while good < 4 * memory + 3:
            i += 1
            s = rng.standard_normal(n)
            kind = "bad" if i % 3 == 0 else "good"
            if kind == "good" and good == memory + 1 and mem.lo > 0:
                mem.reset()
                ref.clear()
                reset_mid_buffer = True
            y = np.exp(rng.uniform(-18.0, 18.0)) * D * s if kind == "good" else -s
            pushed.append((s, y, s.copy(), y.copy()))
            slides += window_slid(mem, lambda: mem.push(s, y))
            if kind == "good":
                good += 1
                ref = (ref + [(s, y)])[-memory:]
            assert len(mem) == len(ref)
            r = rng.standard_normal(n)
            r_before = r.copy()
            d = mem.direction(r)
            want = reference_two_loop(ref, r)
            assert np.linalg.norm(d - want) <= 1e-12 * np.linalg.norm(want)
            assert r.tobytes() == r_before.tobytes()
            for s_, y_, s0, y0 in pushed:
                assert s_.tobytes() == s0.tobytes()
                assert y_.tobytes() == y0.tobytes()
        assert reset_mid_buffer
        assert slides >= 2

    @pytest.mark.parametrize("n", [7, 4096])
    def test_rejected_pair_leaves_the_direction_bit_identical(self, n):
        rng = np.random.default_rng(5)
        D = np.exp(rng.uniform(-3.0, 3.0, n))
        mem = _LbfgsMemory(3, n)
        r = rng.standard_normal(n)
        for _ in range(4):
            s = rng.standard_normal(n)
            mem.push(s, D * s)
        before = mem.direction(r)
        s = rng.standard_normal(n)
        y = rng.standard_normal(n)
        y -= (s @ y) / (s @ s) * s  # s.y at rounding level: no curvature
        for bad in (-s, y, np.zeros(n)):
            mem.push(s, bad)
            assert len(mem) == 3
            assert mem.direction(r).tobytes() == before.tobytes()


def test_dense_solves_import_no_scipy():
    """Importing pbalm, solving with dense maps, and parsing, assembling
    and solving (phase-I, then P-BALM) a QPS problem load no scipy
    module: the QPS maps call scipy's compiled kernels, loaded from their
    extension file alone.  On x86-64 Linux this script peaks at about
    36 MiB of resident memory; importing scipy.sparse would take it to
    about 51 MiB, and scipy.linalg would add about 8 MiB more."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    qps = os.path.join(src, "pbalm", "fixtures", "tiny_box.qps")
    script = "\n".join([
        "import sys",
        f"sys.path.insert(0, {os.path.abspath(src)!r})",
        "import numpy as np",
        "from pbalm import (OuterConfig, find_feasible, gen_basis_pursuit,",
        "                   make_random_eq_qp, parse_qps_file, qp_problem,",
        "                   qp_to_problem, run)",
        "def scipy_modules():",
        "    return sorted(m for m in sys.modules",
        "                  if m == 'scipy' or m.startswith('scipy.'))",
        "_, prob, x0 = gen_basis_pursuit(20, 50, 5, seed=0)",
        "print(run(prob, x0, OuterConfig()).status.value)",
        "eq = make_random_eq_qp(8, 3, seed=0)",
        "x0 = eq.feasible_point(np.random.default_rng(0))",
        "print(run(qp_problem(eq), x0, OuterConfig()).status.value)",
        f"prob = qp_to_problem(parse_qps_file({os.path.abspath(qps)!r}))",
        "print(scipy_modules())",
        "cfg = OuterConfig(delta=1.0)",
        "x0 = find_feasible(prob, prob.prox_f2(np.zeros(prob.n), 1.0),",
        "                   tol=1e-8, cfg=cfg)",
        "print(run(prob, x0, cfg).status.value)",
        "print(scipy_modules())",
    ])
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.split() == ["eps_kkt", "eps_kkt", "[]", "eps_kkt", "[]"]


def test_no_module_imports_scipy():
    """No module of the package has an ``import scipy...`` or ``from
    scipy... import`` statement; the QPS kernels are loaded from their
    extension file by importlib."""
    import ast
    import pathlib

    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "pbalm"
    modules = sorted(src.rglob("*.py"))
    assert len(modules) >= 9
    found = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            found += [(path.name, node.lineno, name) for name in names
                      if name == "scipy" or name.startswith("scipy.")]
    assert found == []
