import numpy as np
import pytest

from pbalm.problem import check_feasible
from pbalm.problem_gen import (
    gen_basis_pursuit,
    make_random_eq_qp,
    qp_problem,
)
from conftest import fd_grad, rel_err


class TestBasisPursuit:
    def test_dimensions(self):
        inst, prob, xf = gen_basis_pursuit(20, 50, 5, seed=0)
        assert prob.n == 100
        assert prob.p == 20
        assert prob.m == 0
        assert inst.B.shape == (20, 50)
        assert xf.shape == (100,)

    def test_planted_solution(self):
        inst, _, _ = gen_basis_pursuit(20, 50, 5, seed=0)
        nz = inst.z_star[inst.z_star != 0]
        assert nz.size == 5
        assert np.all(nz == 10.0)
        assert np.sum(np.abs(inst.z_star)) == 50.0
        np.testing.assert_array_equal(inst.b, inst.B @ inst.z_star)

    def test_k10_l1_norm_is_100(self):
        inst, _, _ = gen_basis_pursuit(200, 512, 10, seed=0)
        assert np.sum(np.abs(inst.z_star)) == 100.0

    def test_feasible_start(self):
        _, prob, xf = gen_basis_pursuit(20, 50, 5, seed=0)
        h = prob.h(xf)
        assert np.max(np.abs(h)) <= 1e-10
        assert check_feasible(prob, xf, 1e-8)

    def test_constraint_identity_at_start(self):
        # [B, -B] x^2 = B z+ - B z- = B z = b by the split construction
        inst, prob, xf = gen_basis_pursuit(30, 80, 4, seed=3)
        n = inst.B.shape[1]
        z = xf[:n] ** 2 - xf[n:] ** 2
        np.testing.assert_allclose(inst.B @ z, inst.b, atol=1e-10)

    @pytest.mark.parametrize("p, n", [(20, 50), (200, 512), (49, 50),
                                      (199, 200)])
    def test_start_is_minimum_norm_solution(self, p, n):
        inst, _, xf = gen_basis_pursuit(p, n, 5, seed=0)
        z = xf[:n] ** 2 - xf[n:] ** 2
        z_min = np.linalg.lstsq(inst.B, inst.b, rcond=None)[0]
        assert np.linalg.norm(z - z_min) <= 1e-12 * np.linalg.norm(z_min)

    @pytest.mark.parametrize("seed", range(4))
    def test_repeated_row_rejected(self, monkeypatch, seed):
        # b = B z* stays consistent, so the residual test passes, and the
        # LU of B B^T leaves a small nonzero pivot on these seeds: only the
        # Cholesky rank test rejects B.
        default_rng = np.random.default_rng

        class RepeatedRow:
            def __init__(self, seed):
                self._rng = default_rng(seed)

            def standard_normal(self, shape):
                B = self._rng.standard_normal(shape)
                B[-1] = B[0]
                return B

            def __getattr__(self, name):
                return getattr(self._rng, name)

        monkeypatch.setattr(np.random, "default_rng", RepeatedRow)
        with pytest.raises(ValueError, match="rank-deficient") as exc:
            gen_basis_pursuit(20, 50, 5, seed=seed)
        assert not isinstance(exc.value, np.linalg.LinAlgError)

    def test_gradients_match_fd(self):
        _, prob, _ = gen_basis_pursuit(5, 12, 2, seed=1)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(prob.n)
        assert rel_err(prob.grad_f1(x), fd_grad(prob.f1, x)) <= 1e-5
        y = rng.standard_normal(prob.p)
        d = rng.standard_normal(prob.n)
        eps = 1e-6
        lhs = (y @ prob.h(x + eps * d) - y @ prob.h(x - eps * d)) / (2 * eps)
        rhs = d @ prob.jac_h_transpose_apply(x, y)
        assert abs(lhs - rhs) <= 1e-4 * (1.0 + abs(rhs))

    def test_oracle_matches_stacked_matrix(self):
        inst, prob, _ = gen_basis_pursuit(20, 50, 5, seed=1)
        B_bar = np.hstack([inst.B, -inst.B])
        rng = np.random.default_rng(7)
        for _ in range(10):
            x = rng.standard_normal(prob.n)
            y = rng.standard_normal(prob.p)
            # h sums terms of mixed sign; an entry that cancels to near zero
            # is compared against the size of the terms it sums.
            scale = np.max(np.abs(B_bar) @ (x * x) + np.abs(inst.b))
            np.testing.assert_allclose(prob.h(x), B_bar @ (x * x) - inst.b,
                                       rtol=1e-13, atol=1e-13 * scale)
            np.testing.assert_allclose(prob.jac_h_transpose_apply(x, y),
                                       2.0 * x * (B_bar.T @ y), rtol=1e-13)

    def test_seeded_determinism(self):
        a, _, xa = gen_basis_pursuit(20, 50, 5, seed=42)
        b, _, xb = gen_basis_pursuit(20, 50, 5, seed=42)
        np.testing.assert_array_equal(a.B, b.B)
        np.testing.assert_array_equal(a.z_star, b.z_star)
        np.testing.assert_array_equal(xa, xb)

    def test_different_seeds_differ(self):
        a, _, _ = gen_basis_pursuit(20, 50, 5, seed=0)
        b, _, _ = gen_basis_pursuit(20, 50, 5, seed=1)
        assert not np.array_equal(a.B, b.B)

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            gen_basis_pursuit(50, 20, 5, seed=0)  # p >= n
        with pytest.raises(ValueError):
            gen_basis_pursuit(10, 20, 25, seed=0)  # k > n


class TestRandomEqQp:
    def test_oracle_residuals(self):
        for seed in range(5):
            qp = make_random_eq_qp(8, 3, seed)
            prob, x_star, lam_star = qp_problem(qp), qp.x_star, qp.lambda_star
            assert np.max(np.abs(prob.h(x_star))) <= 1e-10
            grad = prob.grad_f1(x_star) + prob.jac_h_transpose_apply(x_star, lam_star)
            assert np.max(np.abs(grad)) <= 1e-9

    def test_hand_oracle(self):
        # Q = I, q = 0, x1 + x2 = 2 has x* = (1, 1), lambda* = -1; the
        # generator's KKT solve must reproduce that on an equivalent system.
        qp = make_random_eq_qp(2, 1, seed=0)
        qp.Q = np.eye(2)
        qp.q = np.zeros(2)
        qp.A = np.array([[1.0, 1.0]])
        qp.b = np.array([2.0])
        kkt = np.block([[qp.Q, qp.A.T], [qp.A, np.zeros((1, 1))]])
        sol = np.linalg.solve(kkt, np.concatenate([-qp.q, qp.b]))
        np.testing.assert_allclose(sol[:2], [1.0, 1.0])
        np.testing.assert_allclose(sol[2:], [-1.0])

    def test_feasible_point(self):
        qp = make_random_eq_qp(6, 2, seed=1)
        rng = np.random.default_rng(0)
        x = qp.feasible_point(rng)
        assert np.max(np.abs(qp.A @ x - qp.b)) <= 1e-8

    def test_determinism(self):
        a = make_random_eq_qp(5, 2, seed=9)
        b = make_random_eq_qp(5, 2, seed=9)
        np.testing.assert_array_equal(a.Q, b.Q)
        np.testing.assert_array_equal(a.x_star, b.x_star)

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            make_random_eq_qp(3, 3, seed=0)
