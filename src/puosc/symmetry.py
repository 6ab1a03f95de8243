"""Linear Lie symmetries of the flow and the structures they generate.

A linear vector field X = (Xi z).d commutes with the flow V = (A z).d exactly
when the matrices commute, so the symmetry algebra is the commutant of A.
For distinct nonzero frequencies A has four distinct eigenvalues and the
commutant is the abelian span of {I, A, A^2, A^3}; acting with its elements
on H1 produces the conserved charges, and solving J.grad(H) = flow for the
charge proportional to H2 (core.solve_bihamiltonian) produces the second
Hamiltonian structure.

For an interacting flow the invariance condition for a constant tensor J is
imposed pointwise: DV(z) J + J DV(z)^T = 0 at every sample z.  Any nonzero
interaction removes the dq^dqd block from the solution space, which collapses
from span{J1, J2} to span{J1}.

Every basis is a float stack (d, 4, 4), of generator matrices Xi or of
tensors J; one projection_residual measures a distance from either span.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from . import core
from .config import DEFAULT_SEED, EPS_ALGEBRA
from .core import (
    JET,
    JetState,
    PoissonTensor,
    PUParams,
    QuadraticObservable,
    VectorField,
)
from .errors import ChartMismatchError, InsufficientSamplesError


# ---------------------------------------------------------------------------
# commutant computation
# ---------------------------------------------------------------------------

def _commutant_stack(As: np.ndarray):
    """Commutants of a stack As (n, 4, 4), from one batched SVD of the 16x16
    operators Xi -> [Xi, A].

    Returns (V, dims).  V (n, 16, 4, 4) holds each operator's right singular
    vectors as matrices, in the SVD's order; the commutant of As[i] is
    spanned by the last dims[i] of them, the ones core._negligible counts as
    zero.
    """
    I = np.eye(4)
    # column k of each K is the row-major ravel of E_k A - A E_k
    K = np.kron(I, As.swapaxes(1, 2)) - np.kron(As, I)
    _, sv, vt = np.linalg.svd(K)
    dims = core._negligible(sv).sum(axis=1)
    return vt.reshape(-1, 16, 4, 4), dims


def commutant_basis(A: np.ndarray) -> np.ndarray:
    """Orthonormal (Frobenius) basis (d, 4, 4) of {Xi : Xi A - A Xi = 0}:
    _commutant_stack on a stack of one.  For the free flow with distinct
    frequencies d is exactly 4."""
    V, (dim,) = _commutant_stack(np.asarray(A, dtype=float)[None])
    return V[0, 16 - dim:]


def _known_stack(As: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """The known generators of each flow matrix of a stack As (n, 4, 4) with
    its alpha (n,), as a stack (n, 4, 4, 4) in known_generators' order."""
    A2 = As @ As
    G = np.empty((len(As), 4, 4, 4))
    G[:, 0] = As
    G[:, 1] = 0.5 * np.eye(4)
    G[:, 2] = 0.5 * A2
    G[:, 3] = A2 @ As + alpha[:, None, None] * As
    return G


def known_generators(params: PUParams) -> np.ndarray:
    """The four closed-form symmetries of the free flow:

        X1 = A           (the flow itself)
        X2 = I/2         (the Euler scaling operator)
        X3 = A^2 / 2
        X4 = A^3 + alpha*A,  i.e. (alpha*qd + qddd) dq
                             - beta*(q dqd + qd dqdd + qdd dqddd).

    All four commute pairwise (polynomials in A).  A stack (4, 4, 4):
    _known_stack on a stack of one.
    """
    return _known_stack(core.flow_matrix(params)[None],
                        np.array([params.alpha]))[0]


def projection_residual(basis, candidate: np.ndarray) -> float:
    """Relative distance of a candidate matrix from the span of a basis, a
    stack or sequence of matrices of the candidate's shape: _span_residual
    on a stack of one, so 1.0 for an empty basis."""
    x = np.asarray(candidate, dtype=float).reshape(1, 1, -1)
    G = np.reshape(np.asarray(basis, dtype=float), (1, -1, x.shape[-1]))
    return float(_span_residual(G, x)[0, 0])


def _span_residual(G: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Least-squares distance of each row of X[i] from the span of the rows
    of G[i], relative to max(|x|, 1), for stacks G (n, k, m) and X (n, t, m);
    shape (n, t), and 1.0 when k = 0.

    The least-squares coefficients come from the SVD of G[i]^T, under
    lstsq's rank rule: singular values at most eps * max(k, m) times the
    largest count as zero.
    """
    n, k, m = G.shape
    if k == 0:
        return np.ones(X.shape[:2])
    U, sv, Vt = np.linalg.svd(G.swapaxes(1, 2), full_matrices=False)
    keep = sv > np.finfo(float).eps * max(k, m) * sv[:, :1]
    inv = np.divide(1.0, sv, out=np.zeros_like(sv), where=keep)
    coef = (X @ U) * inv[:, None, :] @ Vt
    R = X - coef @ G
    return (core._frobenius(R[..., None, :])
            / np.maximum(core._frobenius(X[..., None, :]), 1.0))


def max_pairwise_commutator(basis) -> float:
    """Largest |[X_i, X_j]|_F over the normalized stack (d, 4, 4)."""
    G = np.reshape(np.asarray(basis, dtype=float), (1, -1, 4, 4))
    return float(_max_commutator(G)[0])


def _max_commutator(G: np.ndarray) -> np.ndarray:
    """max_pairwise_commutator of each basis G[i] of a stack (n, d, 4, 4)."""
    norms = core._frobenius(G)[..., None, None]
    G = G / np.where(norms > 0, norms, 1.0)
    i, j = np.triu_indices(G.shape[1], 1)
    X, Y = G[:, i], G[:, j]
    return core._frobenius(X @ Y - Y @ X).max(axis=1, initial=0.0)


def _commutant_checks(As: np.ndarray, candidates: np.ndarray):
    """The invariant suite's commutant section on a stack As (n, 4, 4), with
    t candidate generators per matrix (n, t, 4, 4).

    Returns (dims, commutators, residuals), each of shape (n,): the
    commutant's dimension, max_pairwise_commutator of its basis, and the
    largest projection_residual of the matrix's candidates.  One batched SVD
    finds every commutant; commutants of equal dimension are checked as one
    stack.
    """
    V, dims = _commutant_stack(As)
    comm, proj = np.empty(len(dims)), np.empty(len(dims))
    for d in set(dims.tolist()):  # np.unique would import numpy.ma
        sel = dims == d
        G = V[sel, 16 - d:]
        comm[sel] = _max_commutator(G)
        proj[sel] = _span_residual(
            G.reshape(len(G), d, 16),
            candidates[sel].reshape(len(G), -1, 16)).max(axis=1)
    return dims, comm, proj


# ---------------------------------------------------------------------------
# symmetry action and charges
# ---------------------------------------------------------------------------

def apply_symmetry(xi: np.ndarray,
                   f: QuadraticObservable) -> QuadraticObservable:
    """Directional derivative X(F) = (Xi z).grad(F), again quadratic.

    Coefficient matrix Xi^T S + S Xi.  For the free energy: X1(H1) = 0,
    X2(H1) = H1, X3(H1) = -beta*H2, X4(H1) = 0.
    """
    S = f.coeffs
    M = xi.T @ S + S @ xi
    return QuadraticObservable(0.5 * (M + M.T), chart=f.chart)


def resolve_structure_signs(params: PUParams) -> tuple[int, int]:
    """Brute-force the sign pair (sigma, epsilon) in

        H2(sigma): qdd^2 coefficient = sigma * alpha/(2 beta)
        J2(epsilon): dq^dqd block    = epsilon

    such that J2.grad(H2) equals the free flow exactly, entrywise to a
    relative EPS_ALGEBRA with no absolute floor (so the order-1 dq^dqd block
    stays resolved at any beta).  Exactly one of the four combinations works;
    core.h2/core.j2, which give every other entry, ship it as (+1, -1).
    ArithmeticError if not exactly one does (as when beta is subnormal).
    """
    A = core.flow_matrix(params)
    S2, J2 = np.array(core.h2(params).coeffs), np.array(core.j2(params).j)
    hits = []
    for sigma in (+1, -1):
        S2[2, 2] = sigma * params.alpha / params.beta
        for eps in (+1, -1):
            J2[0, 1], J2[1, 0] = eps, -eps
            if np.allclose(J2 @ S2, A, rtol=EPS_ALGEBRA, atol=0.0):
                hits.append((sigma, eps))
    if len(hits) != 1:
        raise ArithmeticError(
            "signs (sigma, epsilon) of H2 and J2 not resolved: "
            f"{len(hits)} of 4 pairs reproduce the flow")
    return hits[0]


def symmetry_charges(params: PUParams):
    """Charges X(H1) for each known generator, raw and normalized against H2.

    Returns a list of dicts with the charge matrix, the fitted constant c in
    X(H1) ~ c*H2 with its relative residual, and the norm of {X(H1), H1}
    under J1 (zero for genuine conserved charges).
    """
    H1 = core.h1(params)
    H2 = core.h2(params)
    J1 = core.j1(params)
    s2 = H2.coeffs.ravel()
    out = []
    for xi in known_generators(params):
        Q = apply_symmetry(xi, H1)
        q = Q.coeffs.ravel()
        c = float(q @ s2) / float(s2 @ s2)
        res = np.linalg.norm(q - c * s2) / max(np.linalg.norm(q), 1.0)
        br = core.poisson_bracket(params, Q, H1, J1)
        out.append({
            "charge": Q,
            "h2_coefficient": c,
            "h2_fit_residual": float(res),
            "bracket_with_h1": float(np.linalg.norm(br.coeffs)),
        })
    return out


# ---------------------------------------------------------------------------
# invariant-tensor scan
# ---------------------------------------------------------------------------

# column k is the row-major ravel of E_ij - E_ji for the k-th pair i < j
_I, _J = np.triu_indices(4, 1)
_ANTISYM = (np.eye(16)[4 * _I + _J] - np.eye(16)[4 * _J + _I]).T


def default_sample_points(
    n: int = 10, seed: int = DEFAULT_SEED
) -> list[JetState]:
    """n points drawn uniformly from [-2, 2]^4 with a fixed seed."""
    rng = np.random.default_rng(seed)
    return [JetState.from_array(z) for z in rng.uniform(-2.0, 2.0, (n, 4))]


def lie_derivative_residual(
    field: VectorField, j: PoissonTensor, z: JetState
) -> np.ndarray:
    """Invariance residual -(DV(z) J + J DV(z)^T) for a constant tensor.

    Zero matrix <=> J is invariant under the flow at z.  For the free flow
    this vanishes identically for J1 and J2; an interaction leaves only J1.
    """
    if j.chart != JET:
        raise ChartMismatchError("residual is computed in the jet chart")
    D = field.jacobian(z)
    return -(D @ j.j + j.j @ D.T)


def invariant_tensor_space(
    field: VectorField,
    sample_points: Optional[Sequence[JetState]] = None,
) -> np.ndarray:
    """Basis (d, 4, 4) of constant tensors invariant under the flow, each
    exactly antisymmetric; d = 0 gives shape (0, 4, 4).

    Linear field: solves A J + J A^T = 0 (samples are irrelevant and may be
    omitted).  Interacting field: the condition DV(z) J + J DV(z)^T = 0 is
    imposed at every sample point; at least 3 points with distinct q are
    required, otherwise the system degenerates to the free one and
    InsufficientSamplesError is raised.
    """
    if field.potential is None:
        D = field.linear[None]
    else:
        if sample_points is None:
            sample_points = default_sample_points()
        qs = {float(z.q) for z in sample_points}
        if len(qs) < 3:
            raise InsufficientSamplesError(
                f"need >= 3 sample points with distinct q, got {len(qs)}"
            )
        D = np.array([field.jacobian(z) for z in sample_points])
        if not np.all(np.isfinite(D)):
            raise ArithmeticError(
                "flow Jacobian is not finite at a sample point")

    # ravel(D J + J D^T) = (kron(D, I) + kron(I, D)) ravel(J), taken on J's
    # coordinates in the antisymmetric basis and scaled by max(|D|, 1)
    I = np.eye(4)
    M = (np.kron(D, I) + np.kron(I, D)) @ _ANTISYM
    M /= np.maximum(core._frobenius(D), 1.0)[:, None, None]
    _, sv, vt = np.linalg.svd(M.reshape(-1, 6), full_matrices=False)
    J = (vt[core._negligible(sv)] @ _ANTISYM.T).reshape(-1, 4, 4)
    return 0.5 * (J - J.swapaxes(1, 2))
