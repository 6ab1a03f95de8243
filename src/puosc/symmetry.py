"""Linear Lie symmetries of the flow and the structures they generate.

A linear vector field X = (Xi z).d commutes with the flow V = (A z).d exactly
when the matrices commute, so the symmetry algebra is the commutant of A.
For distinct nonzero frequencies A has four distinct eigenvalues and the
commutant is the abelian span of {I, A, A^2, A^3}; acting with its elements
on H1 produces the conserved charges, and X3 = A^2/2 generates the second
Hamiltonian structure from the first (generated_structure).

An interaction W(q) adds -W''(q) E30 (E30 = e3 e0^T) to the flow Jacobian.
Where W'' varies, invariance also needs E30 J + J E30^T = 0, i.e. J[0, 1] =
J[0, 2] = 0, which J1 meets and J2 does not: span{J1, J2} becomes span{J1}.

Every basis is a float stack (d, 4, 4), of generator matrices Xi or of
tensors J; one projection_residual measures a distance from either span.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from . import core
from .config import DEFAULT_SEED
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


def _known_stack(alpha, beta) -> np.ndarray:
    """The known generators of n (alpha, beta) pairs, a stack (n, 4, 4, 4)
    in known_generators' order, from tables in (alpha, beta) as every
    structure matrix of core is: no entry is a rounded sum and none
    overflows.  X1 and X3 are A and 0.5 (A @ A) bit for bit."""
    a, b = np.asarray(alpha, dtype=float), np.asarray(beta, dtype=float)
    x3 = ((0.0, 0.0, 0.5, 0.0), (0.0, 0.0, 0.0, 0.5),
          (-0.5 * b, 0.0, -0.5 * a, 0.0), (0.0, -0.5 * b, 0.0, -0.5 * a))
    x4 = ((0.0, a, 0.0, 1.0), (-b, 0.0, 0.0, 0.0),
          (0.0, -b, 0.0, 0.0), (0.0, 0.0, -b, 0.0))
    return np.stack([core._table_stack(table, len(a)) for table in (
        core._flow_entries(a, b), 0.5 * np.eye(4), x3, x4)], axis=1)


def known_generators(params: PUParams) -> np.ndarray:
    """The four closed-form symmetries of the free flow:

        X1 = A           (the flow itself)
        X2 = I/2         (the Euler scaling operator)
        X3 = A^2 / 2
        X4 = A^3 + alpha*A,  i.e. (alpha*qd + qddd) dq
                             - beta*(q dqd + qd dqdd + qdd dqddd).

    All four commute pairwise (polynomials in A).  A stack (4, 4, 4) of
    exact tables: _known_stack on a stack of one.
    """
    return _known_stack([params.alpha], [params.beta])[0]


def projection_residual(basis, candidate: np.ndarray) -> float:
    """Relative distance of a candidate matrix from the span of a basis, a
    stack or sequence of matrices of the candidate's shape: _span_residual
    on a stack of one, so 1.0 for an empty basis."""
    x = np.asarray(candidate, dtype=float).reshape(1, 1, -1)
    G = np.reshape(np.asarray(basis, dtype=float), (1, -1, x.shape[-1]))
    return float(_span_residual(G, x)[0, 0])


def _span_residual(G: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Least-squares distance of each row of X[i] from the span of the rows
    of G[i], relative to |x| (0 for x = 0), for stacks G (n, k, m) and
    X (n, t, m); shape (n, t), and 1.0 when k = 0.  The coefficients come
    from the SVD of G[i]^T under the one rank rule, core._negligible, so
    the residual of s X from the span of s G is that of X from that of G.
    """
    if G.shape[1] == 0:
        return np.ones(X.shape[:2])
    U, sv, Vt = np.linalg.svd(G.swapaxes(1, 2), full_matrices=False)
    keep = ~core._negligible(sv)
    inv = np.divide(1.0, sv, out=np.zeros_like(sv), where=keep)
    coef = (X @ U) * inv[:, None, :] @ Vt
    r, x = core._frobenius(np.stack([X - coef @ G, X])[..., None, :])
    return np.divide(r, x, out=r.copy(), where=x != 0)  # r: 0 or NaN


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

    Coefficient matrix Xi^T S + S Xi, symmetrised.  For the free energy:
    X1(H1) = 0, X2(H1) = H1, X3(H1) = -beta*H2, X4(H1) = 0.  Raises
    ArithmeticError when the matrix is not finite (X4(H1) from frequencies
    of about 1e51 on, X3(H1) from beta of about 1e308).
    """
    S = f.coeffs
    with np.errstate(over="ignore", invalid="ignore"):
        M = xi.T @ S + S @ xi
        M = core._require_finite(0.5 * (M + M.T),
                                 "the symmetry action Xi^T S + S Xi")
    return QuadraticObservable(M, chart=f.chart)


def generated_structure(params: PUParams) -> tuple[np.ndarray, np.ndarray]:
    """The second structure (J2, S2) that X3 = A^2/2 generates from (J1, H1):

        J2 = X3 J1 + J1 X3^T + alpha J1,   S2 = X3(H1) / -beta.

    Two float (4, 4) arrays.  J2 is Y J1 + J1 Y^T, Y = X3 + alpha X2 from
    known_generators' tables, whose diagonal alpha/2 - alpha/2 is exactly 0:
    core.j2, with no alpha^2 term to cancel.  S2 is core.h2 to a rounding
    error per entry (X3 fixes every sign), and inf, unwarned, where 1/beta is.
    """
    _, x2, x3, _ = known_generators(params)
    y, J1 = x3 + params.alpha * x2, core.j1(params).j
    S = apply_symmetry(x3, core.h1(params)).coeffs
    with np.errstate(over="ignore"):
        return y @ J1 + J1 @ y.T, S / -params.beta


def symmetry_charges(params: PUParams) -> np.ndarray:
    """Hessians X_k(H1) of the charges of the known generators, a stack
    (4, 4, 4) in known_generators' order."""
    H1 = core.h1(params)
    return np.array([apply_symmetry(xi, H1).coeffs
                     for xi in known_generators(params)])


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

    Solves A J + J A^T = 0, A = field.linear.  With a potential, W'' is taken
    at the samples (>= 3 distinct q, else InsufficientSamplesError; finite,
    else ArithmeticError).  One value k there: solves A - k E30 instead.  Two
    or more: also imposes E30 J + J E30^T = 0, that is J[0, 1] = J[0, 2] = 0.
    """
    D, cols = np.array(field.linear), slice(None)
    if field.potential is not None:
        if sample_points is None:
            sample_points = default_sample_points()
        qs = {float(z.q) for z in sample_points}
        if len(qs) < 3:
            raise InsufficientSamplesError(
                f"need >= 3 sample points with distinct q, got {len(qs)}")
        w = {float(field.potential.w_second(q)) for q in qs}
        if not np.isfinite([*w, *D.flat]).all():
            raise ArithmeticError(
                "flow Jacobian is not finite at a sample point")
        if len(w) == 1:
            D[3, 0] -= w.pop()
        else:  # E30 J + J E30^T = e3 r^T - r e3^T (r = J[0]) must vanish:
            cols = slice(2, None)  # drop the coordinates of J[0, 1], J[0, 2]

    # ravel(D J + J D^T) = (kron(D, I) + kron(I, D)) ravel(J), taken on J's
    # coordinates in the antisymmetric basis and divided by |D| unless 0
    B, I, d = _ANTISYM[:, cols], np.eye(4), core._frobenius(D)
    M = (np.kron(D, I) + np.kron(I, D)) @ B / (d if d > 0 else 1.0)
    _, sv, vt = np.linalg.svd(M, full_matrices=False)
    J = (vt[core._negligible(sv)] @ B.T).reshape(-1, 4, 4)
    return 0.5 * (J - J.swapaxes(1, 2))
