"""Model parameters, phase-space charts, Hamiltonians, Poisson tensors and
vector fields of the fourth-order two-frequency oscillator

    q'''' + alpha*q'' + beta*q = 0,   alpha = w1^2 + w2^2,  beta = w1^2 w2^2.

The canonical internal chart is the jet chart z = (q, qd, qdd, qddd); the
momentum chart (x1, x2, p1, p2) obtained from the higher-derivative Legendre
transform is a linear view of it.  Quadratic observables are stored as dense
symmetric 4x4 matrices S with F(z) = z.S.z/2, Poisson tensors as antisymmetric
4x4 matrices J with {F, G} = grad(F).J.grad(G), and the flow convention is
zdot = J.grad(H).

The second structure is the one the symmetry X3 = A^2/2 generates from the
first (symmetry.generated_structure), which fixes every sign:

* H2 = q*qdd - qd^2/2 + (alpha/2 beta)*qdd^2 + (1/2 beta)*qddd^2
* J2 = -dq^dqd + beta*dqdd^dqddd

An interaction W(q) enters the jerk equation as

    q'''' + alpha*q'' + beta*q + W'(q) = 0,

i.e. the vector field acquires -W'(q) in its qddd component, and the
conserved interacting energy is H1 - W(q).

The parameters, states, potentials and vector fields are defined on Python
floats in model, which imports no numpy, and re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import EPS_ALGEBRA, EPS_SINGULAR
from .errors import (
    ChartMismatchError,
    NotAntisymmetricError,
    SingularBlendError,
    SingularHessianError,
)
from .model import (  # noqa: F401  (the float types, re-exported)
    JET,
    OSTRO,
    JetState,
    OstroState,
    Potential,
    PUParams,
    VectorField,
    _coerce,
    _flow_entries,
    free_vector_field,
    jet_to_ostro,
    make_params,
    ostro_to_jet,
)

_CHARTS = {JET: JET, OSTRO: OSTRO, "ostro": OSTRO}


def _chart(name: str) -> str:
    """Canonical chart name; "ostro" abbreviates the momentum chart."""
    try:
        return _CHARTS[name]
    except KeyError:
        raise ChartMismatchError(f"unknown chart {name!r}") from None


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadraticObservable:
    """Quadratic phase-space function F(z) = z.S.z/2 with S symmetric.

    value and gradient take an array, or a state of the observable's chart.
    """

    coeffs: np.ndarray
    chart: str = JET

    def __post_init__(self):
        S = np.asarray(self.coeffs, dtype=float)
        if S.shape != (4, 4):
            raise ValueError("coefficient matrix must be 4x4")
        if not (S == S.T).all():
            raise ValueError("coefficient matrix must be exactly symmetric")
        object.__setattr__(self, "coeffs", S)
        S.setflags(write=False)

    def value(self, z) -> float:
        v = _coerce(z, self.chart)
        with np.errstate(over="ignore", invalid="ignore"):  # +-inf, NaN
            return 0.5 * float(v @ self.coeffs @ v)

    def gradient(self, z) -> np.ndarray:
        return self.coeffs @ _coerce(z, self.chart)


@dataclass(frozen=True)
class PoissonTensor:
    """Constant antisymmetric tensor J, tagged with its chart.

    Constant coefficients make the Jacobi identity automatic.
    """

    j: np.ndarray
    chart: str = JET

    def __post_init__(self):
        J = np.asarray(self.j, dtype=float)
        if J.shape != (4, 4):
            raise ValueError("tensor must be 4x4")
        if not (J == -J.T).all():
            raise ValueError("tensor must be exactly antisymmetric")
        object.__setattr__(self, "j", J)
        J.setflags(write=False)


# ---------------------------------------------------------------------------
# chart maps
# ---------------------------------------------------------------------------

def ostro_jacobian(params: PUParams) -> np.ndarray:
    """Constant jacobian L of the chart map (x1, x2, p1, p2) = L z.

    x1 = q, x2 = qd, p1 = -alpha*qd - qddd, p2 = qdd.
    """
    a = params.alpha
    return np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, -a, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
    ])


def ostro_jacobian_inv(params: PUParams) -> np.ndarray:
    """Exact inverse of ostro_jacobian (integer entries, no solve)."""
    a = params.alpha
    return np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, -a, -1.0, 0.0],
    ])


# ---------------------------------------------------------------------------
# Hamiltonians and Poisson tensors
# ---------------------------------------------------------------------------

# Each jet-chart structure matrix has its entries written once, as a table
# in a = alpha and b = beta (the flow's, _flow_entries, is model's).  Its
# single-params builder evaluates the table on the params' floats, and
# _structure_stack on (n,) arrays; negation and division are correctly
# rounded in both, so the matrices agree bit for bit.

def _h1_entries(a, b):
    return ((-b, 0.0, 0.0, 0.0),
            (0.0, -a, 0.0, -1.0),
            (0.0, 0.0, 1.0, 0.0),
            (0.0, -1.0, 0.0, 0.0))


def h1(params: PUParams) -> QuadraticObservable:
    """Legendre-transform energy in jet coordinates:

        H1 = -qd*qddd + qdd^2/2 - beta*q^2/2 - alpha*qd^2/2.

    In the momentum chart this is p2^2/2 + p1*x2 - beta*x1^2/2 + alpha*x2^2/2,
    linear in p1, hence unbounded below.
    """
    S = np.array(_h1_entries(params.alpha, params.beta))
    return QuadraticObservable(S)


def _h2_entries(a, b):
    return ((0.0, 0.0, 1.0, 0.0),
            (0.0, -1.0, 0.0, 0.0),
            (1.0, 0.0, a / b, 0.0),
            (0.0, 0.0, 0.0, 1.0 / b))


def h2(params: PUParams) -> QuadraticObservable:
    """Second Hamiltonian of the bi-Hamiltonian pair:

        H2 = q*qdd - qd^2/2 + (alpha/2 beta)*qdd^2 + (1/2 beta)*qddd^2.

    H2 = X3(H1) / -beta for X3 = A^2/2 (symmetry.generated_structure), which
    fixes the sign of the qdd^2 term; J2.grad(H2) equals the free flow.
    """
    S = np.array(_h2_entries(params.alpha, params.beta))
    return QuadraticObservable(S)


def h1_ostro_matrix(params: PUParams) -> np.ndarray:
    """Directly constructed coefficient matrix of H1 in the momentum chart.

    H1 = p2^2/2 + p1*x2 + alpha*x2^2/2 - beta*x1^2/2; note the missing p1^2
    term (row/column 2 has zero diagonal).
    """
    a, b = params.alpha, params.beta
    return np.array([
        [-b, 0.0, 0.0, 0.0],
        [0.0, a, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])


def _j1_entries(a, b):
    return ((0.0, 0.0, 0.0, -1.0),
            (0.0, 0.0, 1.0, 0.0),
            (0.0, -1.0, 0.0, a),
            (1.0, 0.0, -a, 0.0))


def j1(params: PUParams, chart: str = JET) -> PoissonTensor:
    """Canonical Poisson tensor.

    Momentum chart: {x_i, p_j} = delta_ij.  Jet chart: the same tensor pushed
    through the chart map, -dq^dqddd + dqd^dqdd + alpha*dqdd^dqddd.
    """
    if _chart(chart) == JET:
        return PoissonTensor(np.array(_j1_entries(params.alpha, params.beta)),
                             JET)
    J = np.array([
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, -1.0, 0.0, 0.0],
    ])
    return PoissonTensor(J, OSTRO)


def _j2_entries(a, b):
    return ((0.0, -1.0, 0.0, 0.0),
            (1.0, 0.0, 0.0, 0.0),
            (0.0, 0.0, 0.0, b),
            (0.0, 0.0, -b, 0.0))


def j2(params: PUParams) -> PoissonTensor:
    """Second Poisson tensor, J2 = -dq^dqd + beta*dqdd^dqddd (jet chart).

    J2 = X3 J1 + J1 X3^T + alpha J1 for X3 = A^2/2 (generated_structure),
    which fixes the dq^dqd orientation; J2.grad(H2) reproduces the flow.
    """
    return PoissonTensor(np.array(_j2_entries(params.alpha, params.beta)), JET)


def flow_matrix(params: PUParams) -> np.ndarray:
    """Companion matrix A of the jet-chart flow; A = J1 S1 exactly."""
    return np.array(_flow_entries(params.alpha, params.beta))


def _table_stack(rows, n: int) -> np.ndarray:
    """(n, 4, 4) stack of a 4x4 table of floats and (n,) arrays."""
    M = np.empty((n, 4, 4))
    for i, row in enumerate(rows):
        for j, value in enumerate(row):
            M[:, i, j] = value
    return M


def _structure_stack(alpha, beta) -> tuple:
    """flow_matrix, h1, h2, j1 and j2 (jet chart) of n (alpha, beta) pairs:
    five (n, 4, 4) stacks, matrix i of each bit for bit the builder's for
    alpha[i] and beta[i].  Take beta from make_params: a numpy square of
    omega1 omega2 can differ from its float power in the last bit.
    """
    a, b = np.asarray(alpha, dtype=float), np.asarray(beta, dtype=float)
    return tuple(_table_stack(entries(a, b), len(a))
                 for entries in (_flow_entries, _h1_entries, _h2_entries,
                                 _j1_entries, _j2_entries))


# ---------------------------------------------------------------------------
# blends
# ---------------------------------------------------------------------------

def _blend_stack(params: PUParams, c1, c2) -> tuple:
    """The blends c1*H1 + c2*H2 of 1-D arrays c1, c2 (n,) in closed form:
    (S, J, factors, singular), the Hessians c1*S1 + c2*S2, their tensors

        J = A S^-1 = (beta*c1*J1 + c2*J2) / ((c1*w1^2 + c2)(c1*w2^2 + c2))

    (each entry divided by the factors before beta multiplies it, so no
    finite entry overflows), the factors (n, 2) and where one _vanishes.
    Nothing is checked or warns: an overflow is infinite (H2 holds 1/beta),
    and a factor that is not finite reads as singular (inf <= inf)."""
    c1, c2 = (np.asarray(c, dtype=float) for c in (c1, c2))
    w1s, w2s = params.omega1 ** 2, params.omega2 ** 2
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        S = (c1[:, None, None] * h1(params).coeffs
             + c2[:, None, None] * h2(params).coeffs)
        d1, d2 = c1 * w1s + c2, c1 * w2s + c2
        singular = _vanishes(c1 * w1s, c2) | _vanishes(c1 * w2s, c2)
        b = params.beta / d2
        x, y, z = c1 / d1 * b, (c1 * params.alpha + c2) / d1 * b, c2 / d1 / d2
        J = _table_stack(((0.0, -z, 0.0, -x), (z, 0.0, x, 0.0),
                          (0.0, -x, 0.0, y), (x, 0.0, -y, 0.0)),
                         len(c1)) + 0.0    # no -0.0
    return S, J, np.stack([d1, d2], axis=1), singular


def blend_h(params: PUParams, c1: float, c2: float) -> QuadraticObservable:
    """Linear combination c1*H1 + c2*H2: _blend_stack on a stack of one."""
    return QuadraticObservable(_blend_stack(params, [c1], [c2])[0][0])


def solve_bihamiltonian(params: PUParams,
                        h_target: QuadraticObservable) -> PoissonTensor:
    """Solve J.grad(H_target) = flow for a constant tensor J = A S^-1: the
    one numerical solve, for any target (blend_j is its closed form).

    Raises SingularHessianError if sigma_min(S) is _negligible or not finite,
    and NotAntisymmetricError(|sym(J)|) if |sym(J)| > EPS_ALGEBRA |J| -- then
    no constant structure pairs with H_target; s * h_target gives J / s.
    """
    S = h_target.coeffs
    sv = np.linalg.svd(S, compute_uv=False)
    if _negligible(sv)[-1] or not np.isfinite(sv).all():
        raise SingularHessianError("target Hessian is singular")
    J = flow_matrix(params) @ np.linalg.inv(S)
    sym_norm, j_norm = _frobenius(np.stack([0.5 * (J + J.T), J]))
    if sym_norm > EPS_ALGEBRA * j_norm:
        raise NotAntisymmetricError(float(sym_norm))
    return PoissonTensor(0.5 * (J - J.T), JET)


def blend_j(params: PUParams, c1: float, c2: float) -> PoissonTensor:
    """The unique constant antisymmetric J with J.grad(c1*H1 + c2*H2) = flow:
    _blend_stack's closed form of A (c1*S1 + c2*S2)^-1 on a stack of one.
    ArithmeticError where a factor is not finite, then SingularBlendError
    where one _vanishes (c2 = -c1*w_i^2), then ArithmeticError where an
    entry is not finite."""
    c1, c2 = float(c1), float(c2)
    _, J, factors, singular = _blend_stack(params, [c1], [c2])
    _require_finite(factors[0], "the blend factors c1*w_i^2 + c2")
    if singular[0]:
        raise SingularBlendError(f"blend Hessian singular at ({c1}, {c2})")
    return PoissonTensor(_require_finite(J[0], "the blend tensor"), JET)


def blend_j_tabulated(params: PUParams, c1: float, c2: float) -> PoissonTensor:
    """Commonly quoted closed form for the blend tensor, kept as reference
    data:

        J' = (c1*J1 + beta*c2*J2) / ((c1 - c2*w1^2)(c1 - c2*w2^2)).

    It agrees with blend_j on the axes c1 = 0 and c2 = 0 but not in between,
    and its denominator vanishes on c1 = c2*w_i^2, where blend_j is regular.
    ArithmeticError where a factor c1 - c2*w_i^2 is not finite.
    """
    w1s, w2s = params.omega1 ** 2, params.omega2 ** 2
    f1, f2 = _require_finite((c1 - c2 * w1s, c1 - c2 * w2s),
                             "the tabulated factors c1 - c2*w_i^2")
    if _vanishes(c1, -c2 * w1s) or _vanishes(c1, -c2 * w2s):
        raise SingularBlendError("tabulated denominator vanishes")
    den = f1 * f2     # 0 where it underflows
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        J = (c1 * j1(params).j + params.beta * c2 * j2(params).j) / den
    return PoissonTensor(0.5 * (J - J.T), JET)


# ---------------------------------------------------------------------------
# brackets and symmetry action
# ---------------------------------------------------------------------------

def poisson_bracket(params: PUParams, f: QuadraticObservable,
                    g: QuadraticObservable, j: PoissonTensor
                    ) -> QuadraticObservable:
    """Bracket {F, G} = grad(F).J.grad(G) of two quadratics, again quadratic.

    Coefficient matrix is S_F J S_G + (S_F J S_G)^T.  All three inputs must
    live in the same chart.  Raises ArithmeticError when S_F J S_G is not
    finite (it overflows once the frequencies reach about 1e75).
    """
    if not (f.chart == g.chart == j.chart):
        raise ChartMismatchError(
            f"charts differ: F={f.chart}, G={g.chart}, J={j.chart}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        M = _require_finite(f.coeffs @ j.j @ g.coeffs,
                            "the Poisson bracket S_F J S_G")
    return QuadraticObservable(_sym_exact(M + M.T), chart=f.chart)


def _sym_exact(S: np.ndarray) -> np.ndarray:
    # bitwise symmetry (of each matrix of a stack), values moved by rounding
    return 0.5 * (S + S.swapaxes(-1, -2))


def _frobenius(X: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack (..., r, c).

    Each matrix is divided by 2^e, e the frexp exponent of its largest
    |entry| (0 for a zero matrix), summed as numpy.linalg.norm sums one
    matrix, and multiplied back (Blue, ACM TOMS 4 (1978) 15).  The scaling
    is exact: no square overflows, and the norm is numpy's bit for bit
    where that neither overflows nor squares below the normal range.  inf
    and NaN propagate; a norm above the largest float is inf, with no warning.
    """
    f = X.reshape(*X.shape[:-2], 1, X.shape[-2] * X.shape[-1])
    _, e = np.frexp(np.abs(f).max(axis=-1, keepdims=True))
    f = np.ldexp(f, -e)
    with np.errstate(over="ignore"):
        return np.ldexp(np.sqrt(f @ f.swapaxes(-1, -2)), e)[..., 0, 0]


def _negligible(sv: np.ndarray) -> np.ndarray:
    """The rank rule of every rank decision: in each descending row (..., k)
    the singular values at most EPS_SINGULAR * sigma_max, with no floor
    (Golub & Van Loan, 5.4.1), count as zero: a suffix, all of a zero row."""
    return sv <= EPS_SINGULAR * sv[..., :1]


def _vanishes(*terms, eps=EPS_SINGULAR) -> bool:
    """The one zero rule, the form of the summation error bound (Higham,
    Accuracy and Stability, 2nd ed., 4.2): |sum t| <= eps sum |t|, no floor,
    eps EPS_SINGULAR for a gate, EPS_ALGEBRA for an identity.  inf <= inf
    holds: where terms may overflow, check their sum with _require_finite."""
    return abs(sum(terms)) <= eps * sum(map(abs, terms))


def _identity(*terms, what: str) -> tuple:
    """The verdict (holds, max_ratio) of sum(terms) = 0 on arrays of one
    (broadcast) shape, entry by entry: _vanishes at EPS_ALGEBRA at every
    entry, and the largest |sum t| / sum |t| (0 where every term is 0).  Each
    entry's terms are divided by 2^e, e the frexp exponent of its largest
    |term| as in _frobenius, so finite terms cannot overflow sum |t|; a term
    that is not finite is named by _require_finite."""
    T = np.array(np.broadcast_arrays(*terms))
    _, e = np.frexp(_require_finite(np.abs(T).max(axis=0), what))  # NaN too
    T = np.ldexp(T, -e)
    bound = np.abs(T).sum(axis=0)       # axis 0 is summed in order
    ratio = np.divide(np.abs(T.sum(axis=0)), bound, out=np.zeros_like(bound),
                      where=bound > 0)
    return (bool(np.all(_vanishes(*T, eps=EPS_ALGEBRA))),
            float(ratio.max(initial=0.0)))


def _product_terms(X: np.ndarray, Y: np.ndarray) -> list:
    """The k terms X_ik Y_kj of each product of stacks X (..., m, k) and
    Y (..., k, n), for _identity; a product that overflows is infinite."""
    with np.errstate(over="ignore", invalid="ignore"):
        return [X[..., :, k, None] * Y[..., None, k, :]
                for k in range(X.shape[-1])]


def _require_finite(x, what: str):
    """x (a float, floats or an array) if it is finite, else ArithmeticError(
    "non-finite value in <what>"): the library's one name for an overflow."""
    if not np.isfinite(x).all():
        raise ArithmeticError(f"non-finite value in {what}")
    return x


# ---------------------------------------------------------------------------
# chart transport of tensors and observables
# ---------------------------------------------------------------------------

def transport_tensor(params: PUParams, t: PoissonTensor, chart: str) -> PoissonTensor:
    """Push a Poisson tensor to the other chart: J -> L J L^T."""
    target = _chart(chart)
    if t.chart == target:
        return t
    L = ostro_jacobian(params) if target == OSTRO else ostro_jacobian_inv(params)
    J = L @ t.j @ L.T
    return PoissonTensor(0.5 * (J - J.T), target)


def transport_observable(
    params: PUParams, f: QuadraticObservable, chart: str
) -> QuadraticObservable:
    """Carry a quadratic observable to the other chart: S -> L^-T S L^-1."""
    target = _chart(chart)
    if f.chart == target:
        return f
    Linv = ostro_jacobian_inv(params) if target == OSTRO else ostro_jacobian(params)
    S = Linv.T @ f.coeffs @ Linv
    return QuadraticObservable(_sym_exact(S), target)
