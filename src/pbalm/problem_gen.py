"""Seeded problem generators: the nonconvex basis-pursuit reformulation
and small random equality-constrained QPs with oracle solutions."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .problem import ProblemSpec


@dataclass
class BasisPursuitInstance:
    B: np.ndarray       # p x n sensing matrix
    b: np.ndarray       # p, equals B @ z_star exactly
    z_star: np.ndarray  # planted k-sparse solution
    seed: int


def gen_basis_pursuit(p: int, n: int, k: int, seed: int
                      ) -> Tuple[BasisPursuitInstance, ProblemSpec, np.ndarray]:
    """Nonconvex reformulation of sparse recovery over an underdetermined
    system: minimize ||x||^2 over x in R^{2n} subject to
    [B, -B] x^{.2} = b, with x^{.2} the elementwise square.

    Returns the instance, the problem over 2n variables, and a feasible
    start split from the minimum-norm solution z = B^T (B B^T)^{-1} b of
    B z = b; a B without full row rank raises ValueError.
    """
    if not (0 < p < n):
        raise ValueError("need 0 < p < n")
    if not (0 < k <= n):
        raise ValueError("need 0 < k <= n")
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((p, n))
    support = rng.permutation(n)[:k]
    z_star = np.zeros(n)
    z_star[support] = 10.0
    b = B @ z_star
    inst = BasisPursuitInstance(B=B, b=b, z_star=z_star, seed=seed)

    def f1(x):
        return float(x.dot(x))

    def grad_f1(x):
        return 2.0 * x

    # [B, -B] x^{.2} is applied as B (x1^{.2} - x2^{.2}), never stacked.
    def h(x):
        return B.dot(x[:n] * x[:n] - x[n:] * x[n:]) - b

    def jac_h_T(x, y):
        Bty = B.T.dot(y)
        return 2.0 * x * np.concatenate([Bty, -Bty])

    prob = ProblemSpec(
        n=2 * n, p=p, m=0,
        f1=f1, grad_f1=grad_f1,
        h=h, jac_h_transpose_apply=jac_h_T,
        name=f"basis-pursuit-p{p}-n{n}-k{k}-s{seed}",
    )

    # A B that loses rank need not zero an LU pivot of B B^T, but it takes
    # the Cholesky diagonal to about sqrt(eps) of its largest entry.
    G = B @ B.T
    try:
        d = np.diag(np.linalg.cholesky(G))
        z_ls = B.T @ np.linalg.solve(G, b)
        if (d.min() <= 1e-6 * d.max() or np.linalg.norm(B @ z_ls - b)
                > 1e-8 * (1.0 + np.linalg.norm(b))):
            raise np.linalg.LinAlgError("Gram matrix near singular")
    except np.linalg.LinAlgError as exc:
        raise ValueError("rank-deficient B; resample the seed") from exc
    x_feasible = np.sqrt(np.concatenate([np.maximum(z_ls, 0.0),
                                         np.maximum(-z_ls, 0.0)]))
    return inst, prob, x_feasible


@dataclass
class RandomEqQp:
    """Strictly convex QP  min 1/2 x'Qx + q'x  s.t.  Ax = b,
    with the optimum solved directly from the KKT linear system."""

    Q: np.ndarray
    q: np.ndarray
    A: np.ndarray
    b: np.ndarray
    x_star: np.ndarray
    lambda_star: np.ndarray
    seed: int

    def feasible_point(self, rng: np.random.Generator) -> np.ndarray:
        """x_star shifted along the nullspace of A; still satisfies Ax=b."""
        n = self.Q.shape[0]
        d = rng.standard_normal(n)
        # project d onto null(A)
        at = self.A.T
        d -= at @ np.linalg.solve(self.A @ at, self.A @ d)
        return self.x_star + d


def make_random_eq_qp(n: int, m_eq: int, seed: int) -> RandomEqQp:
    if not 0 < m_eq < n:
        raise ValueError("need 0 < m_eq < n")
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    Q = M @ M.T + n * np.eye(n)
    q = rng.standard_normal(n)
    A = rng.standard_normal((m_eq, n))
    b = rng.standard_normal(m_eq)
    kkt = np.block([[Q, A.T], [A, np.zeros((m_eq, m_eq))]])
    rhs = np.concatenate([-q, b])
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular KKT system; resample the seed") from exc
    x_star, lam_star = sol[:n], sol[n:]
    return RandomEqQp(Q=Q, q=q, A=A, b=b, x_star=x_star,
                      lambda_star=lam_star, seed=seed)


def qp_problem(qp: RandomEqQp) -> ProblemSpec:
    Q, q, A, b = qp.Q, qp.q, qp.A, qp.b

    return ProblemSpec(
        n=Q.shape[0], p=A.shape[0], m=0,
        f1=lambda x: 0.5 * float(x.dot(Q.dot(x))) + float(q.dot(x)),
        grad_f1=lambda x: Q.dot(x) + q,
        h=lambda x: A.dot(x) - b,
        jac_h_transpose_apply=lambda x, y: A.T.dot(y),
        name=f"random-eq-qp-n{Q.shape[0]}-m{A.shape[0]}-s{qp.seed}",
    )

