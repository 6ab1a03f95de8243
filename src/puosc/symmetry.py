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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import core
from .config import DEFAULT_SEED, EPS_ALGEBRA, SVD_RANK_CUTOFF
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
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearSymmetry:
    """Generator X = (xi @ z) . d of a linear point symmetry."""

    xi: np.ndarray

    def __post_init__(self):
        M = np.asarray(self.xi, dtype=float)
        if M.shape != (4, 4):
            raise ValueError("generator matrix must be 4x4")
        object.__setattr__(self, "xi", M)
        M.setflags(write=False)


@dataclass(frozen=True)
class SymmetryBasis:
    generators: tuple
    dimension: int


# ---------------------------------------------------------------------------
# commutant computation
# ---------------------------------------------------------------------------

def commutant_basis(A: np.ndarray) -> SymmetryBasis:
    """Orthonormal (Frobenius) basis of {Xi : Xi A - A Xi = 0}.

    Null space of the 16x16 operator Xi -> [Xi, A] via SVD; singular values
    below SVD_RANK_CUTOFF * sigma_max count as zero.  For the free flow with
    distinct frequencies the dimension is exactly 4.
    """
    A = np.asarray(A, dtype=float)
    # column k of K is the row-major ravel of E_k A - A E_k
    K = np.kron(np.eye(4), A.T) - np.kron(A, np.eye(4))
    _, sv, vt = np.linalg.svd(K)
    cutoff = SVD_RANK_CUTOFF * max(sv[0], 1.0)
    null_rows = vt[sv <= cutoff] if sv[0] > 0 else vt
    gens = tuple(LinearSymmetry(row.reshape(4, 4)) for row in null_rows)
    return SymmetryBasis(gens, len(gens))


def known_generators(params: PUParams) -> SymmetryBasis:
    """The four closed-form symmetries of the free flow:

        X1 = A           (the flow itself)
        X2 = I/2         (the Euler scaling operator)
        X3 = A^2 / 2
        X4 = A^3 + alpha*A,  i.e. (alpha*qd + qddd) dq
                             - beta*(q dqd + qd dqdd + qdd dqddd).

    All four commute pairwise (polynomials in A).
    """
    A = core.flow_matrix(params)
    gens = (
        LinearSymmetry(A),
        LinearSymmetry(0.5 * np.eye(4)),
        LinearSymmetry(0.5 * (A @ A)),
        LinearSymmetry(A @ A @ A + params.alpha * A),
    )
    return SymmetryBasis(gens, 4)


def projection_residual(basis: SymmetryBasis, candidate: np.ndarray) -> float:
    """Relative distance of a candidate generator from span(basis)."""
    return _span_residual([g.xi.ravel() for g in basis.generators],
                          np.asarray(candidate, dtype=float).ravel())


def _span_residual(columns: Sequence[np.ndarray], x: np.ndarray) -> float:
    """Least-squares distance of x from the span of columns, relative to
    max(|x|, 1); 1.0 when there are no columns."""
    if not columns:
        return 1.0
    B = np.stack(columns, axis=1)
    coef, *_ = np.linalg.lstsq(B, x, rcond=None)
    res = x - B @ coef
    return float(np.linalg.norm(res) / max(np.linalg.norm(x), 1.0))


def max_pairwise_commutator(basis: SymmetryBasis) -> float:
    """Largest Frobenius norm of [X_i, X_j] over normalized generators."""
    mats = []
    for g in basis.generators:
        n = np.linalg.norm(g.xi)
        mats.append(g.xi / n if n > 0 else g.xi)
    worst = 0.0
    for X, Y in itertools.combinations(mats, 2):
        worst = max(worst, float(np.linalg.norm(X @ Y - Y @ X)))
    return worst


# ---------------------------------------------------------------------------
# symmetry action and charges
# ---------------------------------------------------------------------------

def apply_symmetry(
    x: LinearSymmetry, f: QuadraticObservable
) -> QuadraticObservable:
    """Directional derivative X(F) = (Xi z).grad(F), again quadratic.

    Coefficient matrix Xi^T S + S Xi.  For the free energy: X1(H1) = 0,
    X2(H1) = H1, X3(H1) = -beta*H2, X4(H1) = 0.
    """
    S = f.coeffs
    M = x.xi.T @ S + S @ x.xi
    return QuadraticObservable(0.5 * (M + M.T), chart=f.chart)


def resolve_structure_signs(params: PUParams) -> tuple[int, int]:
    """Brute-force the sign pair (sigma, epsilon) in

        H2(sigma): qdd^2 coefficient = sigma * alpha/(2 beta)
        J2(epsilon): dq^dqd block    = epsilon

    such that J2.grad(H2) equals the free flow exactly, entrywise to a
    relative EPS_ALGEBRA (so the order-1 dq^dqd block stays resolved at any
    beta).  Exactly one of the four combinations works; core.h2/core.j2,
    which give every other entry, ship it as (+1, -1).
    """
    A = core.flow_matrix(params)
    S2, J2 = np.array(core.h2(params).coeffs), np.array(core.j2(params).j)
    hits = []
    for sigma in (+1, -1):
        S2[2, 2] = sigma * params.alpha / params.beta
        for eps in (+1, -1):
            J2[0, 1], J2[1, 0] = eps, -eps
            if np.allclose(J2 @ S2, A, rtol=EPS_ALGEBRA, atol=EPS_ALGEBRA):
                hits.append((sigma, eps))
    if len(hits) != 1:
        raise AssertionError(f"sign resolution not unique: {hits}")
    return hits[0]


def symmetry_charges(params: PUParams, basis: Optional[SymmetryBasis] = None):
    """Charges X(H1) for each generator, raw and normalized against H2.

    Returns a list of dicts with the charge matrix, the fitted constant c in
    X(H1) ~ c*H2 with its relative residual, and the norm of {X(H1), H1}
    under J1 (zero for genuine conserved charges).
    """
    if basis is None:
        basis = known_generators(params)
    H1 = core.h1(params)
    H2 = core.h2(params)
    J1 = core.j1(params)
    s2 = H2.coeffs.ravel()
    out = []
    for g in basis.generators:
        Q = apply_symmetry(g, H1)
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

_ANTISYM_BASIS = []
for _i in range(4):
    for _j in range(_i + 1, 4):
        _B = np.zeros((4, 4))
        _B[_i, _j], _B[_j, _i] = 1.0, -1.0
        _ANTISYM_BASIS.append(_B)


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
) -> list[PoissonTensor]:
    """Basis of constant antisymmetric tensors invariant under the flow.

    Linear field: solves A J + J A^T = 0 (samples are irrelevant and may be
    omitted).  Interacting field: the condition DV(z) J + J DV(z)^T = 0 is
    imposed at every sample point; at least 3 points with distinct q are
    required, otherwise the system degenerates to the free one and
    InsufficientSamplesError is raised.
    """
    if field.potential is None:
        jacobians = [np.asarray(field.linear, dtype=float)]
    else:
        if sample_points is None:
            sample_points = default_sample_points()
        qs = {float(z.q) for z in sample_points}
        if len(qs) < 3:
            raise InsufficientSamplesError(
                f"need >= 3 sample points with distinct q, got {len(qs)}"
            )
        jacobians = [field.jacobian(z) for z in sample_points]

    blocks = []
    for D in jacobians:
        scale = max(np.linalg.norm(D), 1.0)
        cols = [((D @ B + B @ D.T) / scale).ravel() for B in _ANTISYM_BASIS]
        blocks.append(np.stack(cols, axis=1))
    M = np.vstack(blocks)  # (16 * n_jacobians) x 6
    _, sv, vt = np.linalg.svd(M)
    cutoff = SVD_RANK_CUTOFF * max(sv[0], 1.0)
    null = vt[sv <= cutoff]
    out = []
    for coeffs in null:
        J = sum(c * B for c, B in zip(coeffs, _ANTISYM_BASIS))
        out.append(PoissonTensor(0.5 * (J - J.T), JET))
    return out


def tensor_projection_residual(
    basis: Sequence[PoissonTensor], candidate: PoissonTensor
) -> float:
    """Relative distance of a tensor from the span of a tensor basis."""
    return _span_residual([t.j.ravel() for t in basis], candidate.j.ravel())
