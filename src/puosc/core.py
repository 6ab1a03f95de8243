"""Model parameters, phase-space charts, Hamiltonians, Poisson tensors and
vector fields of the fourth-order two-frequency oscillator

    q'''' + alpha*q'' + beta*q = 0,   alpha = w1^2 + w2^2,  beta = w1^2 w2^2.

The canonical internal chart is the jet chart z = (q, qd, qdd, qddd); the
momentum chart (x1, x2, p1, p2) obtained from the higher-derivative Legendre
transform is a linear view of it.  Quadratic observables are stored as dense
symmetric 4x4 matrices S with F(z) = z.S.z/2, Poisson tensors as antisymmetric
4x4 matrices J with {F, G} = grad(F).J.grad(G), and the flow convention is
zdot = J.grad(H).

Sign conventions fixed at build time (resolved by requiring J2.grad(H2) to
reproduce the free flow exactly -- see symmetry.resolve_structure_signs):

* H2 = q*qdd - qd^2/2 + (alpha/2 beta)*qdd^2 + (1/2 beta)*qddd^2
* J2 = -dq^dqd + beta*dqdd^dqddd

An interaction W(q) enters the jerk equation as

    q'''' + alpha*q'' + beta*q + W'(q) = 0,

i.e. the vector field acquires -W'(q) in its qddd component, and the
conserved interacting energy is H1 - W(q).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .config import EPS_ALGEBRA, EPS_SINGULAR
from .errors import (
    ChartMismatchError,
    DegenerateFrequenciesError,
    NotAntisymmetricError,
    PreconditionViolatedError,
    SingularBlendError,
    SingularHessianError,
)

JET = "jet"
OSTRO = "ostrogradsky"
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
class PUParams:
    """Frequencies (omega1, omega2) with the derived alpha, beta."""

    omega1: float
    omega2: float
    alpha: float
    beta: float


def make_params(omega1: float, omega2: float) -> PUParams:
    """Validate frequencies and derive alpha = w1^2 + w2^2, beta = w1^2 w2^2.

    Raises DegenerateFrequenciesError unless 0 < omega1 != omega2; equal
    frequencies collapse the two-mode solution and the mode-projection
    formulas divide by w1^2 - w2^2.
    """
    w1, w2 = float(omega1), float(omega2)
    if not (np.isfinite(w1) and np.isfinite(w2)):
        raise DegenerateFrequenciesError("frequencies must be finite")
    if w1 <= 0.0 or w2 <= 0.0:
        raise DegenerateFrequenciesError("frequencies must be positive")
    if w1 == w2:
        raise DegenerateFrequenciesError("frequencies must be distinct")
    return PUParams(w1, w2, w1 * w1 + w2 * w2, (w1 * w2) ** 2)


@dataclass(frozen=True)
class JetState:
    """Point of the jet chart (q, qd, qdd, qddd)."""

    q: float
    qd: float
    qdd: float
    qddd: float

    def __post_init__(self):
        if not np.all(np.isfinite(self.as_array())):
            raise PreconditionViolatedError("jet state must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.q, self.qd, self.qdd, self.qddd], dtype=float)

    @classmethod
    def from_array(cls, z) -> "JetState":
        q, qd, qdd, qddd = np.asarray(z, dtype=float)
        return cls(q, qd, qdd, qddd)


@dataclass(frozen=True)
class OstroState:
    """Point of the momentum chart (x1, x2, p1, p2)."""

    x1: float
    x2: float
    p1: float
    p2: float

    def __post_init__(self):
        if not np.all(np.isfinite(self.as_array())):
            raise PreconditionViolatedError("momentum state must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.x1, self.x2, self.p1, self.p2], dtype=float)

    @classmethod
    def from_array(cls, s) -> "OstroState":
        x1, x2, p1, p2 = np.asarray(s, dtype=float)
        return cls(x1, x2, p1, p2)


@dataclass(frozen=True)
class QuadraticObservable:
    """Quadratic phase-space function F(z) = z.S.z/2 with S symmetric."""

    coeffs: np.ndarray
    chart: str = JET

    def __post_init__(self):
        S = np.asarray(self.coeffs, dtype=float)
        if S.shape != (4, 4):
            raise ValueError("coefficient matrix must be 4x4")
        if not np.array_equal(S, S.T):
            raise ValueError("coefficient matrix must be exactly symmetric")
        object.__setattr__(self, "coeffs", S)
        S.setflags(write=False)

    def value(self, z) -> float:
        v = _coerce(z)
        return 0.5 * float(v @ self.coeffs @ v)

    def gradient(self, z) -> np.ndarray:
        return self.coeffs @ _coerce(z)

    def hessian(self) -> np.ndarray:
        return self.coeffs


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
        if not np.array_equal(J, -J.T):
            raise ValueError("tensor must be exactly antisymmetric")
        object.__setattr__(self, "j", J)
        J.setflags(write=False)


@dataclass(frozen=True)
class Potential:
    """Interaction potential W with its first two derivatives."""

    w: Callable[[float], float]
    w_prime: Callable[[float], float]
    w_second: Callable[[float], float]
    label: str


@dataclass(frozen=True)
class VectorField:
    """Flow z -> linear @ z, plus an optional interaction potential W.

    The interaction contributes -W'(q) to the qddd component and -W''(q) to
    entry (3, 0) of the flow Jacobian; H1 - W(q) is conserved.
    """

    linear: np.ndarray
    potential: Optional[Potential] = None

    def __post_init__(self):
        A = np.asarray(self.linear, dtype=float)
        if A.shape != (4, 4):
            raise ValueError("linear part must be 4x4")
        object.__setattr__(self, "linear", A)
        A.setflags(write=False)

    def flow(self, z) -> np.ndarray:
        v = _coerce(z)
        dz = self.linear @ v
        if self.potential is not None:
            dz[3] -= self.potential.w_prime(v[0])
        return dz

    def jacobian(self, z) -> np.ndarray:
        """d(flow)/dz at z; the interaction only enters entry (3, 0)."""
        D = np.array(self.linear)
        if self.potential is not None:
            D[3, 0] -= self.potential.w_second(_coerce(z)[0])
        return D


def _coerce(z) -> np.ndarray:
    if isinstance(z, (JetState, OstroState)):
        return z.as_array()
    return np.asarray(z, dtype=float)


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


def jet_to_ostro(params: PUParams, z: JetState) -> OstroState:
    """x1 = q, x2 = qd, p1 = -alpha*qd - qddd, p2 = qdd."""
    return OstroState(z.q, z.qd, -params.alpha * z.qd - z.qddd, z.qdd)


def ostro_to_jet(params: PUParams, s: OstroState) -> JetState:
    """Exact inverse of jet_to_ostro."""
    return JetState(s.x1, s.x2, s.p2, -params.alpha * s.x2 - s.p1)


# ---------------------------------------------------------------------------
# Hamiltonians and Poisson tensors
# ---------------------------------------------------------------------------

def h1(params: PUParams) -> QuadraticObservable:
    """Legendre-transform energy in jet coordinates:

        H1 = -qd*qddd + qdd^2/2 - beta*q^2/2 - alpha*qd^2/2.

    In the momentum chart this is p2^2/2 + p1*x2 - beta*x1^2/2 + alpha*x2^2/2,
    linear in p1, hence unbounded below.
    """
    a, b = params.alpha, params.beta
    S = np.array([
        [-b, 0.0, 0.0, 0.0],
        [0.0, -a, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, -1.0, 0.0, 0.0],
    ])
    return QuadraticObservable(S)


def h2(params: PUParams) -> QuadraticObservable:
    """Second Hamiltonian of the bi-Hamiltonian pair:

        H2 = q*qdd - qd^2/2 + (alpha/2 beta)*qdd^2 + (1/2 beta)*qddd^2.

    The sign of the qdd^2 term is the build-time-resolved one: with it,
    J2.grad(H2) equals the free flow exactly, and X3(H1) = -beta*H2.
    """
    a, b = params.alpha, params.beta
    S = np.array([
        [0.0, 0.0, 1.0, 0.0],
        [0.0, -1.0, 0.0, 0.0],
        [1.0, 0.0, a / b, 0.0],
        [0.0, 0.0, 0.0, 1.0 / b],
    ])
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


def j1(params: PUParams, chart: str = JET) -> PoissonTensor:
    """Canonical Poisson tensor.

    Momentum chart: {x_i, p_j} = delta_ij.  Jet chart: the same tensor pushed
    through the chart map, -dq^dqddd + dqd^dqdd + alpha*dqdd^dqddd.
    """
    a = params.alpha
    if _chart(chart) == JET:
        J = np.array([
            [0.0, 0.0, 0.0, -1.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, -1.0, 0.0, a],
            [1.0, 0.0, -a, 0.0],
        ])
        return PoissonTensor(J, JET)
    J = np.array([
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, -1.0, 0.0, 0.0],
    ])
    return PoissonTensor(J, OSTRO)


def j2(params: PUParams) -> PoissonTensor:
    """Second Poisson tensor, J2 = -dq^dqd + beta*dqdd^dqddd (jet chart).

    The orientation of the dq^dqd block is the build-time-resolved one paired
    with h2: J2.grad(H2) reproduces the free flow exactly.
    """
    b = params.beta
    J = np.array([
        [0.0, -1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, b],
        [0.0, 0.0, -b, 0.0],
    ])
    return PoissonTensor(J, JET)


def flow_matrix(params: PUParams) -> np.ndarray:
    """Companion matrix A of the jet-chart flow; A = J1 S1 exactly."""
    a, b = params.alpha, params.beta
    return np.array([
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [-b, 0.0, -a, 0.0],
    ])


def free_vector_field(params: PUParams) -> VectorField:
    """Free flow qdot = qd, ..., qdddot = -beta*q - alpha*qdd."""
    return VectorField(flow_matrix(params))


# ---------------------------------------------------------------------------
# blends
# ---------------------------------------------------------------------------

def blend_h(params: PUParams, c1: float, c2: float) -> QuadraticObservable:
    """Linear combination c1*H1 + c2*H2."""
    S = c1 * h1(params).coeffs + c2 * h2(params).coeffs
    return QuadraticObservable(_sym_exact(S))


def solve_bihamiltonian(
    params: PUParams, h_target: QuadraticObservable
) -> PoissonTensor:
    """Solve J.grad(H_target) = flow for a constant tensor J = A S^-1.

    Raises SingularHessianError if the Hessian is singular, and
    NotAntisymmetricError (with the symmetric part's norm) if the solution is
    not a Poisson tensor -- then no constant structure pairs with H_target.
    """
    S = h_target.coeffs
    sv = np.linalg.svd(S, compute_uv=False)
    if sv[-1] <= EPS_SINGULAR * max(sv[0], 1.0):
        raise SingularHessianError("target Hessian is singular")
    J = flow_matrix(params) @ np.linalg.inv(S)
    sym = 0.5 * (J + J.T)
    if np.linalg.norm(sym) > EPS_ALGEBRA * max(1.0, np.linalg.norm(J)):
        raise NotAntisymmetricError(float(np.linalg.norm(sym)))
    return PoissonTensor(0.5 * (J - J.T), JET)


def blend_j(params: PUParams, c1: float, c2: float) -> PoissonTensor:
    """The unique constant antisymmetric J with J.grad(c1*H1 + c2*H2) = flow.

    solve_bihamiltonian applied to blend_h.  The blend Hessian is singular
    exactly on the rays c2 = -c1*w_i^2; there, and if the solution is not
    antisymmetric, a SingularBlendError is raised.  A quoted closed form for
    this tensor is available as blend_j_tabulated for comparison; see
    blend_report.
    """
    try:
        return solve_bihamiltonian(params, blend_h(params, c1, c2))
    except SingularHessianError as exc:
        raise SingularBlendError(
            f"blend Hessian singular at (c1, c2) = ({c1}, {c2})"
        ) from exc
    except NotAntisymmetricError as exc:
        raise SingularBlendError(
            "constructed blend tensor is not antisymmetric "
            f"(symmetric part norm {exc.symmetric_norm:.3e})"
        ) from exc


def blend_j_closed_form(params: PUParams, c1: float, c2: float) -> PoissonTensor:
    """Exact closed form of blend_j:

        J' = (beta*c1*J1 + c2*J2) / ((c1*w1^2 + c2)(c1*w2^2 + c2)).

    Agrees with the constructive A (c1*S1 + c2*S2)^-1 to rounding.
    """
    w1s, w2s = params.omega1 ** 2, params.omega2 ** 2
    den = (c1 * w1s + c2) * (c1 * w2s + c2)
    if abs(den) <= EPS_SINGULAR * max(1.0, (abs(c1) * w1s + abs(c2)) *
                                      (abs(c1) * w2s + abs(c2))):
        raise SingularBlendError("closed-form denominator vanishes")
    J = (params.beta * c1 * j1(params).j + c2 * j2(params).j) / den
    return PoissonTensor(0.5 * (J - J.T), JET)


def blend_j_tabulated(params: PUParams, c1: float, c2: float) -> PoissonTensor:
    """Commonly quoted closed form for the blend tensor, kept as reference
    data:

        J' = (c1*J1 + beta*c2*J2) / ((c1 - c2*w1^2)(c1 - c2*w2^2)).

    It agrees with blend_j on the axes c1 = 0 and c2 = 0 but not in between;
    blend_report records the discrepancy instead of silently accepting either.
    """
    w1s, w2s = params.omega1 ** 2, params.omega2 ** 2
    den = (c1 - c2 * w1s) * (c1 - c2 * w2s)
    if abs(den) <= EPS_SINGULAR * max(1.0, (abs(c1) + abs(c2) * w1s) *
                                      (abs(c1) + abs(c2) * w2s)):
        raise SingularBlendError("tabulated denominator vanishes")
    J = (c1 * j1(params).j + params.beta * c2 * j2(params).j) / den
    return PoissonTensor(0.5 * (J - J.T), JET)


def blend_report(params: PUParams, c1: float, c2: float) -> dict:
    """Compare the constructive blend tensor against both closed forms.

    Returns a dict with the three tensors (or the error that prevented each),
    and max-entry deltas against the constructive one.
    """
    out: dict = {"c1": c1, "c2": c2}
    variants = {
        "constructive": lambda: blend_j(params, c1, c2),
        "closed_form": lambda: blend_j_closed_form(params, c1, c2),
        "tabulated": lambda: blend_j_tabulated(params, c1, c2),
    }
    tensors = {}
    for name, build in variants.items():
        try:
            tensors[name] = build()
            out[name] = tensors[name].j.tolist()
        except SingularBlendError as exc:
            out[name] = f"singular: {exc}"
    if "constructive" in tensors:
        ref = tensors["constructive"].j
        for name in ("closed_form", "tabulated"):
            if name in tensors:
                out[f"delta_{name}"] = float(
                    np.max(np.abs(tensors[name].j - ref))
                )
    return out


# ---------------------------------------------------------------------------
# brackets and symmetry action
# ---------------------------------------------------------------------------

def poisson_bracket(
    params: PUParams,
    f: QuadraticObservable,
    g: QuadraticObservable,
    j: PoissonTensor,
) -> QuadraticObservable:
    """Bracket {F, G} = grad(F).J.grad(G) of two quadratics, again quadratic.

    Coefficient matrix is S_F J S_G + (S_F J S_G)^T.  All three inputs must
    live in the same chart.
    """
    if not (f.chart == g.chart == j.chart):
        raise ChartMismatchError(
            f"charts differ: F={f.chart}, G={g.chart}, J={j.chart}"
        )
    M = f.coeffs @ j.j @ g.coeffs
    return QuadraticObservable(_sym_exact(M + M.T), chart=f.chart)


def _sym_exact(S: np.ndarray) -> np.ndarray:
    # enforce bitwise symmetry without changing values beyond rounding
    return 0.5 * (S + S.T)


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
