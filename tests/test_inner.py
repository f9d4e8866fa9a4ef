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
        with pytest.raises(ValueError):
            solve_subproblem(lambda x: 0.5 * float(x @ x), lambda x: x,
                             identity_prox, np.ones(2), 0.0, InnerConfig())


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

    def test_returned_point_is_never_the_start_array(self):
        # The solver evaluates at x0 itself (no start copy); a returned
        # point must still be a distinct array, even with zero iterations.
        x0 = np.zeros(2)
        seen = []

        def value(x):
            seen.append(x)
            return 0.5 * float(x @ x)

        res = solve_subproblem(value, lambda x: x, identity_prox, x0,
                               1e-6, InnerConfig())
        assert seen[0] is x0
        assert res.x is not x0
        np.testing.assert_array_equal(res.x, x0)

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
        serves both the best-iterate test and the envelope."""
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
        assert calls == dict(value=34, grad=19, prox=35)
        assert len(points) == 33


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


class TestResultAtEachExit:
    """Every exit returns a fresh array with the smooth value, the
    gradient and the unit-step natural residual at it."""

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
        assert res.x is not x0
        assert res.value == value(res.x)
        assert res.grad.tobytes() == grad(res.x).tobytes()
        assert res.residual == np.max(np.abs(res.x - prox(res.x - res.grad, 1.0)))


def reference_two_loop(pairs, r):
    """Textbook two-loop recursion over (s, y) pairs, oldest first, with
    every s.y recomputed."""
    if not pairs:
        return -r
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


class TestLbfgsMemory:
    def test_direction_matches_reference_bitwise(self):
        rng = np.random.default_rng(3)
        n, memory = 7, 3
        M = rng.standard_normal((n, n))
        A = M @ M.T + np.eye(n)  # y = A s has positive curvature
        mem = _LbfgsMemory(memory)
        ref = []
        # Five good pairs (more than memory), a rejected one, a reset,
        # then two more good pairs.
        steps = ["good"] * 5 + ["bad", "reset", "good", "good"]
        for step in steps:
            if step == "reset":
                mem.reset()
                ref.clear()
            else:
                s = rng.standard_normal(n)
                y = A @ s if step == "good" else -s
                mem.push(s, y)
                if step == "good":
                    ref = (ref + [(s, y)])[-memory:]
            assert len(mem.pairs) == len(ref)
            r = rng.standard_normal(n)
            np.testing.assert_array_equal(mem.direction(r),
                                          reference_two_loop(ref, r))
