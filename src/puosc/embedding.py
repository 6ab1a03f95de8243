"""Two-dimensional first-order representations of the fourth-order flow.

A model L_fo = a_x xd^2/2 + a_y yd^2/2 - b_x x^2/2 - b_y y^2/2 - g x y with
Euler-Lagrange expressions

    phi_1 = a_x xdd + b_x x + g y,      phi_2 = a_y ydd + b_y y + g x,

is matched to the oscillator through the affine substitution

    x = mu0 q + mu2 qdd,    y = nu0 q + nu2 qdd,

treating (q, qd, qdd, qddd, q4) as independent off-shell coordinates.  Family
'a' maps both phi_i to multiples of phi = q4 + alpha qdd + beta q; family 'b'
maps phi_1 to a multiple of phi and phi_2 to zero identically.  Four solution
families exist:

    Ta1 (singular transform, x and y proportional),
    Ta2 (invertible),
    Tb1 (invertible, nu2 = 0),
    Tb2 (degenerate model, a_y = 0, y proportional to x).

Two sets of family rows are shipped: tabulated_family transcribes a commonly
quoted table verbatim as reference data, and solve_family re-derives every
dependent parameter from the off-shell identity conditions; the two disagree
on several rows and reconciliation_report records the deltas.  verify_map is
the independent check: it recovers the polynomial coefficients of each phi_i
by probing and classifies them, never consulting how the map was built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import core
from .config import DEFAULT_SEED, EPS_ALGEBRA, EPS_SINGULAR
from .core import JET, PoissonTensor, PUParams, QuadraticObservable
from .errors import (
    ComplexBranchError,
    DegenerateModelError,
    NoSolutionError,
    NotInSpanError,
    PreconditionViolatedError,
    SingularCoefficientError,
    SingularMapError,
)

# The free parameters that fix each family; all else is dependent.
FREE_PARAMS = {"Ta1": ("a_x", "a_y", "g"), "Ta2": ("a_x", "a_y", "g"),
               "Tb1": ("a_x", "b_x", "g"), "Tb2": ("a_x", "b_y", "g")}
FAMILIES = tuple(FREE_PARAMS)
BRANCHES = (+1, -1)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwoDimModel:
    """Coefficients of the two-dimensional model; a_y = 0 marks the
    degenerate (first-order-in-y) case."""

    a_x: float
    a_y: float
    b_x: float
    b_y: float
    g: float

    def __post_init__(self):
        if self.a_x == 0.0:
            raise DegenerateModelError("a_x must be nonzero")

    @property
    def degenerate(self) -> bool:
        return self.a_y == 0.0


@dataclass(frozen=True)
class DerivedConstants:
    rho_g_plus: float
    rho_g_minus: float
    rho_0_plus: float
    rho_0_minus: float
    tau: float


@dataclass(frozen=True)
class BlendCoefficients:
    c1: float
    c2: float
    family: str


@dataclass(frozen=True)
class TransformMap:
    """Affine substitution plus the 4x4 phase-space jacobian it induces.

    jac maps (q, qd, qdd, qddd) to (x, p_x, y, p_y) with p_x = a_x xd and
    p_y = a_y yd (zero row when a_y = 0).
    """

    family: str
    branch: int
    mu0: float
    mu2: float
    nu0: float
    nu2: float
    model: TwoDimModel
    params: PUParams
    jac: np.ndarray

    def __post_init__(self):
        self.jac.setflags(write=False)

    @property
    def transform_det(self) -> float:
        """Determinant of the 2x2 coordinate block (mu0 nu2 - mu2 nu0)."""
        return self.mu0 * self.nu2 - self.mu2 * self.nu0

    @property
    def rank_deficient(self) -> bool:
        """The coordinate block is singular (x proportional to y)."""
        scale = max(1.0, abs(self.mu0), abs(self.mu2),
                    abs(self.nu0), abs(self.nu2))
        return abs(self.transform_det) <= EPS_SINGULAR * scale * scale

    @property
    def singular(self) -> bool:
        return self.model.degenerate or self.rank_deficient


def _build_map(family, branch, mu0, mu2, nu0, nu2, model, params):
    ax, ay = model.a_x, model.a_y
    jac = np.array([
        [mu0, 0.0, mu2, 0.0],
        [0.0, ax * mu0, 0.0, ax * mu2],
        [nu0, 0.0, nu2, 0.0],
        [0.0, ay * nu0, 0.0, ay * nu2],
    ])
    if not np.all(np.isfinite([*jac.flat, *vars(model).values()])):
        raise NoSolutionError(f"{family} row overflows for these parameters")
    return TransformMap(family, branch, float(mu0), float(mu2), float(nu0),
                        float(nu2), model, params, jac)


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

def _rho0(params: PUParams, branch: int) -> float:
    # alpha^2 - 4 beta = (w1^2 - w2^2)^2 >= 0 always
    return branch * abs(params.omega1 ** 2 - params.omega2 ** 2)


def _rho_g(params: PUParams, a_x: float, a_y: float, g: float,
           branch: int) -> float:
    if a_x * a_y == 0.0:
        raise DegenerateModelError("rho_g needs a_x * a_y != 0")
    radicand = params.alpha ** 2 - 4.0 * params.beta - 4.0 * g * g / (a_x * a_y)
    if radicand < 0.0:
        raise ComplexBranchError(
            f"radicand {radicand:.6g} < 0: branch is complex"
        )
    return branch * math.sqrt(radicand)


def _tau(params: PUParams, a_x: float, b_x: float) -> float:
    return b_x * b_x - a_x * b_x * params.alpha + a_x * a_x * params.beta


def derived_constants(model: TwoDimModel, params: PUParams) -> DerivedConstants:
    """rho_g(+/-), rho_0(+/-) and tau for a model.

    Raises DegenerateModelError when a_x a_y = 0 (rho_g undefined) and
    ComplexBranchError when the rho_g radicand is negative.
    """
    rg = _rho_g(params, model.a_x, model.a_y, model.g, +1)
    return DerivedConstants(
        rho_g_plus=rg,
        rho_g_minus=-rg,
        rho_0_plus=_rho0(params, +1),
        rho_0_minus=_rho0(params, -1),
        tau=_tau(params, model.a_x, model.b_x),
    )


def _need(family: str, branch: int, free: dict) -> tuple:
    """The family's free parameters as floats, in FREE_PARAMS order; an
    unknown family or branch, or a missing or extra key, is a precondition
    violation that names the offending value."""
    if family not in FREE_PARAMS:
        raise PreconditionViolatedError(f"unknown family {family!r}")
    if branch not in BRANCHES:
        raise PreconditionViolatedError("branch must be +1 or -1")
    keys = FREE_PARAMS[family]
    for key in (*keys, *free):
        if (key in keys) != (key in free):
            verb = "needs" if key in keys else "does not take"
            raise PreconditionViolatedError(
                f"{family} {verb} free parameter {key!r}")
    return tuple(float(free[k]) for k in keys)


# ---------------------------------------------------------------------------
# tabulated family rows (verbatim reference data)
# ---------------------------------------------------------------------------

def tabulated_family(family: str, branch: int, free: dict,
                     params: PUParams) -> TransformMap:
    """Transcription of the commonly quoted solution table, kept as reference
    data and not trusted: several rows fail the off-shell identities; compare
    with solve_family via verify_map / reconciliation_report.

    free holds exactly the family's FREE_PARAMS keys.
    """
    values = _need(family, branch, free)
    al = params.alpha
    if family in ("Ta1", "Ta2"):
        ax, ay, g = values
        if ax == 0.0 or ay == 0.0:
            raise PreconditionViolatedError("Ta rows need a_x, a_y nonzero")
        if family == "Ta1":
            r = _rho0(params, branch)
            bx = 0.5 * ax * (al - 2.0 * g / ay + r)
            by = 0.5 * ay * (al - 2.0 * g / ax + r)
            mu0 = (al + r) / (2.0 * ax)
            nu0 = (al + r) / (2.0 * ay)
        else:
            r = _rho_g(params, ax, ay, g, branch)
            bx = (al + r) / (2.0 * ax)
            by = (al + r) / (2.0 * ay)
            mu0 = (al - 2.0 * g / ay + r) / (2.0 * ax)
            nu0 = (al - 2.0 * g / ax + r) / (2.0 * ay)
        model = TwoDimModel(ax, ay, bx, by, g)
        return _build_map(family, branch, mu0, 1.0 / (2.0 * ax),
                          nu0, 1.0 / (2.0 * ay), model, params)
    if family == "Tb1":
        ax, bx, g = values
        if ax == 0.0 or g == 0.0:
            raise PreconditionViolatedError("Tb1 needs a_x, g nonzero")
        tau = _tau(params, ax, bx)
        if tau == 0.0:
            raise PreconditionViolatedError(
                "Tb1 needs b_x != a_x*(alpha + rho_0)/2, i.e. tau != 0"
            )
        ay = -ax * g / tau ** 2
        by = (g / tau) * (bx - ax * al)
        model = TwoDimModel(ax, ay, bx, by, g)
        return _build_map(family, branch, (al - bx / ax) / ax, 1.0 / ax,
                          tau / (g * ax * ax), 0.0, model, params)
    # Tb2
    ax, by, g = values
    if ax == 0.0 or by == 0.0:
        raise PreconditionViolatedError("Tb2 needs a_x, b_y nonzero")
    r = _rho0(params, branch)
    bx = g * g / by + 0.5 * ax * (al + r)
    mu0 = 2.0 * params.beta / (ax * (al + r))
    nu0 = 2.0 * params.beta * g / (ax * by * (al + r))
    model = TwoDimModel(ax, 0.0, bx, by, g)
    return _build_map(family, branch, mu0, 1.0 / ax, nu0, -g / (ax * by),
                      model, params)


# ---------------------------------------------------------------------------
# re-derived family rows
# ---------------------------------------------------------------------------

def solve_family(family: str, branch: int, free: dict,
                 params: PUParams) -> TransformMap:
    """Solve the off-shell identity conditions exactly for the dependent
    parameters, using the conventional normalization mu2 = 1/(2 a_x) (Ta) or
    mu2 = 1/a_x (Tb) to fix the overall coordinate scale.

    Family 'a' reduces to the quadratic 2u^2 - u(alpha - 2g/a_y) +
    (beta/2 - g S/a_y) = 0 in u = a_x mu0 (S = sum constraint from the
    symmetric-coupling condition), whose two roots are the branches; with
    u = v it degenerates to the singular Ta1 family.  Family 'b' is linear
    once the phi_2 = 0 alternative (nu2 = 0 vs a_y = 0) is chosen.  Every
    returned map passes verify_map with zero residual.
    """
    values = _need(family, branch, free)
    al, be = params.alpha, params.beta
    if family == "Ta1":
        ax, ay, g = values
        if ax == 0.0 or ay == 0.0:
            raise NoSolutionError("family a needs a_x, a_y nonzero")
        # u = v branch: alpha*u - 2u^2 = beta/2, g drops out
        u = (al + _rho0(params, branch)) / 4.0
        mu0, nu0 = u / ax, u / ay
        bx = ax * al - 2.0 * ax * ax * mu0 - ax * g / ay
        by = ay * al - 2.0 * ay * ay * nu0 - ay * g / ax
        model = TwoDimModel(ax, ay, bx, by, g)
        return _build_map(family, branch, mu0, 1.0 / (2.0 * ax),
                          nu0, 1.0 / (2.0 * ay), model, params)
    if family == "Ta2":
        ax, ay, g = values
        if ax == 0.0 or ay == 0.0:
            raise NoSolutionError("family a needs a_x, a_y nonzero")
        # u != v branch: u + v = S pins the sum, the quadratic splits via rho_g
        rg = _rho_g(params, ax, ay, g, branch)
        u = (al - 2.0 * g / ay + rg) / 4.0
        v = (al - 2.0 * g / ax - rg) / 4.0
        mu0, nu0 = u / ax, v / ay
        bx = ax * al - 2.0 * ax * ax * mu0 - ax * g / ay
        by = ay * al - 2.0 * ay * ay * nu0 - ay * g / ax
        model = TwoDimModel(ax, ay, bx, by, g)
        return _build_map(family, branch, mu0, 1.0 / (2.0 * ax),
                          nu0, 1.0 / (2.0 * ay), model, params)
    if family == "Tb1":
        ax, bx, g = values
        if ax == 0.0:
            raise NoSolutionError("a_x must be nonzero")
        if g == 0.0:
            raise NoSolutionError("Tb1 needs g != 0 (nu0 solves g*nu0 = tau/a_x^2)")
        tau = _tau(params, ax, bx)
        if tau == 0.0:
            raise PreconditionViolatedError("Tb1 needs tau != 0")
        mu0 = (al - bx / ax) / ax
        nu0 = tau / (g * ax * ax)
        ay = -ax * g * g / tau
        by = g * g * (bx - ax * al) / tau
        model = TwoDimModel(ax, ay, bx, by, g)
        return _build_map(family, branch, mu0, 1.0 / ax, nu0, 0.0,
                          model, params)
    # Tb2: a_y = 0, y = -(g/b_y) x identically
    ax, by, g = values
    if ax == 0.0:
        raise NoSolutionError("a_x must be nonzero")
    if by == 0.0:
        raise NoSolutionError("Tb2 needs b_y != 0")
    r = _rho0(params, branch)
    # effective coefficient bt = b_x - g^2/b_y solves bt^2 - alpha a_x bt
    # + beta a_x^2 = 0
    bt = 0.5 * ax * (al + r)
    bx = g * g / by + bt
    mu0 = (al - bt / ax) / ax
    mu2 = 1.0 / ax
    model = TwoDimModel(ax, 0.0, bx, by, g)
    return _build_map(family, branch, mu0, mu2,
                      -g * mu0 / by, -g * mu2 / by, model, params)


# ---------------------------------------------------------------------------
# independent verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhiReport:
    """Classification of one Euler-Lagrange expression under the map."""

    kind: str                 # "proportional" | "zero" | "neither"
    factor: float             # coefficient of q4 (the proportionality k)
    coefficients: tuple       # (q, qd, qdd, qddd, q4) coefficients
    residual: float           # max |coefficient mismatch| after removing k*phi


@dataclass(frozen=True)
class MapVerification:
    phi1: PhiReport
    phi2: PhiReport
    contract: str             # "(phi, phi)" for family a, "(phi, 0)" for b
    passes: bool
    rank_deficient: bool
    residual_norm: float


def _phi_coefficients(m: TransformMap):
    """Recover the (q, qd, qdd, qddd, q4) coefficients of phi_1, phi_2 by
    probing the composed expressions at unit jet vectors.

    The composition is linear in the five off-shell coordinates, so six
    probes determine the coefficients exactly.
    """
    mod = m.model

    def phi(j5):
        q, qd, qdd, qddd, q4 = j5
        x = m.mu0 * q + m.mu2 * qdd
        y = m.nu0 * q + m.nu2 * qdd
        xdd = m.mu0 * qdd + m.mu2 * q4
        ydd = m.nu0 * qdd + m.nu2 * q4
        return (mod.a_x * xdd + mod.b_x * x + mod.g * y,
                mod.a_y * ydd + mod.b_y * y + mod.g * x)

    base = phi((0.0,) * 5)
    cols = []
    for k in range(5):
        probe = [0.0] * 5
        probe[k] = 1.0
        v = phi(tuple(probe))
        cols.append((v[0] - base[0], v[1] - base[1]))
    c1 = tuple(c[0] for c in cols)
    c2 = tuple(c[1] for c in cols)
    return c1, c2


def _classify_phi(coeffs, params: PUParams, scale: float) -> PhiReport:
    cq, cqd, cqdd, cqddd, cq4 = coeffs
    tol = EPS_ALGEBRA * scale
    if max(abs(c) for c in coeffs) <= tol:
        return PhiReport("zero", 0.0, coeffs, max(abs(c) for c in coeffs))
    k = cq4
    mismatch = max(
        abs(cq - k * params.beta),
        abs(cqd),
        abs(cqdd - k * params.alpha),
        abs(cqddd),
    )
    if abs(k) > tol and mismatch <= tol * max(1.0, abs(k)):
        return PhiReport("proportional", k, coeffs, mismatch)
    return PhiReport("neither", k, coeffs, mismatch)


def verify_map(m: TransformMap) -> MapVerification:
    """Off-shell check of a transform map, independent of its construction.

    Substitutes the map into both Euler-Lagrange expressions with
    (q, qd, qdd, qddd, q4) treated as independent, recovers the polynomial
    coefficients, and classifies each phi_i as proportional to
    q4 + alpha qdd + beta q, identically zero, or neither (with residuals).
    A rank-deficient coordinate block (x proportional to y) is noted.
    """
    c1, c2 = _phi_coefficients(m)
    scale = max(1.0, *(abs(c) for c in c1 + c2))
    r1 = _classify_phi(c1, m.params, scale)
    r2 = _classify_phi(c2, m.params, scale)
    if m.family.startswith("Ta"):
        contract = "(phi, phi)"
        passes = (r1.kind == "proportional" and r2.kind == "proportional")
    else:
        contract = "(phi, 0)"
        passes = (r1.kind == "proportional" and r2.kind == "zero")
    return MapVerification(r1, r2, contract, passes, m.rank_deficient,
                           max(r1.residual, r2.residual))


# ---------------------------------------------------------------------------
# tensor pushforward and Hamiltonian pullback
# ---------------------------------------------------------------------------

def pushforward_poisson(m: TransformMap) -> PoissonTensor:
    """Carry the canonical (x, p_x, y, p_y) tensor to the jet chart:
    J_jet = T J_fo T^T with T = jac^-1.

    The dq^dqd component of the result is (nu2^2/a_x + mu2^2/a_y)/det^2 with
    det = mu0 nu2 - mu2 nu0; it vanishes only when a_x and a_y have opposite
    signs (for real transform entries).  Raises SingularMapError for the
    singular/degenerate families.
    """
    sv = np.linalg.svd(m.jac, compute_uv=False)
    if sv[-1] <= EPS_SINGULAR * max(sv[0], 1.0):
        raise SingularMapError(
            f"{m.family} jacobian is singular (smallest sv {sv[-1]:.3e})"
        )
    T = np.linalg.inv(m.jac)
    J_fo = np.array([
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ])
    J = T @ J_fo @ T.T
    return PoissonTensor(0.5 * (J - J.T), JET)


def qqdot_component(j: PoissonTensor) -> float:
    """Coefficient of dq^dqd in a jet-chart tensor."""
    return float(j.j[0, 1])


def model_hamiltonian_matrix(model: TwoDimModel) -> np.ndarray:
    """Hessian of H_fo = p_x^2/2a_x + p_y^2/2a_y + b_x x^2/2 + b_y y^2/2
    + g x y in (x, p_x, y, p_y).  Undefined for degenerate models."""
    if model.degenerate:
        raise DegenerateModelError("H_fo needs a_y != 0")
    return np.array([
        [model.b_x, 0.0, model.g, 0.0],
        [0.0, 1.0 / model.a_x, 0.0, 0.0],
        [model.g, 0.0, model.b_y, 0.0],
        [0.0, 0.0, 0.0, 1.0 / model.a_y],
    ])


def fit_blend(params: PUParams, S: np.ndarray):
    """Least-squares fit S ~ c1*S1 + c2*S2; returns (c1, c2, rel residual)."""
    s1 = core.h1(params).coeffs.ravel()
    s2 = core.h2(params).coeffs.ravel()
    B = np.stack([s1, s2], axis=1)
    target = np.asarray(S, dtype=float).ravel()
    coef, *_ = np.linalg.lstsq(B, target, rcond=None)
    res = np.linalg.norm(target - B @ coef) / max(np.linalg.norm(target), 1.0)
    return float(coef[0]), float(coef[1]), float(res)


def tabulated_blend_coefficients(m: TransformMap) -> BlendCoefficients:
    """Blend coefficients as quoted in the reference table for each family
    (kept for comparison; the fitted values from pullback_hamiltonian are the
    ground truth and generally differ in normalization)."""
    p, mod = m.params, m.model
    w1s, w2s = p.omega1 ** 2, p.omega2 ** 2
    big, small = max(w1s, w2s), min(w1s, w2s)
    M = big if m.branch > 0 else small
    if m.family == "Ta1":
        c2 = -(mod.a_x + mod.a_y) / (mod.a_x * mod.a_y)
        return BlendCoefficients(c2 * M, c2, m.family)
    if m.family == "Ta2":
        c2 = -(mod.a_x + mod.a_y) / (mod.a_x * mod.a_y)
        rg = _rho_g(p, mod.a_x, mod.a_y, mod.g, m.branch)
        c1 = (4.0 * mod.g - rg) / (2.0 * mod.a_x * mod.a_y) + 0.5 * p.alpha * c2
        return BlendCoefficients(c1, c2, m.family)
    if m.family == "Tb1":
        return BlendCoefficients(
            (mod.b_x / mod.a_x - p.alpha) / mod.a_x, -1.0 / mod.a_x, m.family)
    return BlendCoefficients(-M / mod.a_x, -1.0 / mod.a_x, m.family)


@dataclass(frozen=True)
class PullbackReport:
    observable: Optional[QuadraticObservable]
    fitted: Optional[BlendCoefficients]
    fit_residual: Optional[float]
    tabulated: Optional[BlendCoefficients]
    degenerate: bool
    note: str


def pullback_hamiltonian(m: TransformMap) -> PullbackReport:
    """Compose the model Hamiltonian with the map and fit it in span{H1, H2}.

    S_pull = jac^T K_fo jac, fitted by least squares to c1*S1 + c2*S2; the
    residual must be below 1e-10 for a dynamics-preserving map, otherwise
    NotInSpanError is raised.  Degenerate models (a_y = 0) have no model
    Hamiltonian; a report with fitted=None is returned instead.
    """
    if m.model.degenerate:
        return PullbackReport(None, None, None, None, True,
                              "a_y = 0: model Hamiltonian undefined")
    K = model_hamiltonian_matrix(m.model)
    S = m.jac.T @ K @ m.jac
    S = 0.5 * (S + S.T)
    c1, c2, res = fit_blend(m.params, S)
    if res > 1e-10:
        raise NotInSpanError(res)
    return PullbackReport(
        QuadraticObservable(S),
        BlendCoefficients(c1, c2, m.family),
        res,
        tabulated_blend_coefficients(m),
        False,
        "",
    )


# ---------------------------------------------------------------------------
# sum-of-squares form and positivity
# ---------------------------------------------------------------------------

def sum_of_squares(params: PUParams, ct1: float, ct2: float) -> QuadraticObservable:
    """Quadratic form built literally from the two-mode sum of squares

        sum_{i != j} w_i^2 / [2 (ct1 w_i^2 - ct2)(w_i^2 - w_j^2)]
                   * [(qddd + w_j^2 qd)^2 + w_i^2 (qdd + w_j^2 q)^2].

    The (ct1, ct2) parametrization is deliberately distinct from the blend
    (c1, c2): direct expansion shows (c1, c2) = beta/D * (ct1, -ct2) with
    D = (ct1 w1^2 - ct2)(ct1 w2^2 - ct2); see blend_coefficients_from_sos.
    """
    w = (params.omega1 ** 2, params.omega2 ** 2)
    S = np.zeros((4, 4))
    for i, jj in ((0, 1), (1, 0)):
        den = (ct1 * w[i] - ct2) * (w[i] - w[jj])
        gate = max(1.0, abs(ct1) * w[i] + abs(ct2))
        if abs(ct1 * w[i] - ct2) <= EPS_SINGULAR * gate:
            raise SingularCoefficientError(
                f"coefficient denominator ct1*w{i+1}^2 - ct2 vanishes"
            )
        weight = w[i] / (2.0 * den)
        v1 = np.array([0.0, w[jj], 0.0, 1.0])      # qddd + w_j^2 qd
        v2 = np.array([w[jj], 0.0, 1.0, 0.0])      # qdd + w_j^2 q
        S += 2.0 * weight * (np.outer(v1, v1) + w[i] * np.outer(v2, v2))
    return QuadraticObservable(0.5 * (S + S.T))


def definiteness_inequality(params: PUParams, ct1: float, ct2: float) -> bool:
    """Closed-form positivity test for the sum-of-squares form:

        (ct1 w1^2 - ct2)(w1^2 - w2^2) > 0  and  (ct1 w2^2 - ct2)(w2^2 - w1^2) > 0.
    """
    w1s, w2s = params.omega1 ** 2, params.omega2 ** 2
    return ((ct1 * w1s - ct2) * (w1s - w2s) > 0.0
            and (ct1 * w2s - ct2) * (w2s - w1s) > 0.0)


def blend_coefficients_from_sos(params: PUParams, ct1: float, ct2: float):
    """Exact mapping from sum-of-squares parameters to blend coefficients:

        (c1, c2) = beta / D * (ct1, -ct2),
        D = (ct1 w1^2 - ct2)(ct1 w2^2 - ct2).
    """
    w1s, w2s = params.omega1 ** 2, params.omega2 ** 2
    D = (ct1 * w1s - ct2) * (ct1 * w2s - ct2)
    return params.beta * ct1 / D, -params.beta * ct2 / D


@dataclass(frozen=True)
class PositivityVerdict:
    positive_definite: bool
    eigenvalues: tuple


def positivity(params: PUParams, h: QuadraticObservable) -> PositivityVerdict:
    """Symmetric-eigenvalue classification of a quadratic form; positive
    definite means every Hessian eigenvalue is strictly positive (the zero
    form is semidefinite, hence not positive definite)."""
    eig = np.linalg.eigvalsh(h.coeffs)
    return PositivityVerdict(bool(eig[0] > 0.0), tuple(float(e) for e in eig))


# ---------------------------------------------------------------------------
# reconciliation of tabulated rows against re-derived ones
# ---------------------------------------------------------------------------

_FIELDS = ("mu0", "mu2", "nu0", "nu2", "b_x", "b_y", "a_y")


def _row_values(m: TransformMap) -> dict:
    return {
        "mu0": m.mu0, "mu2": m.mu2, "nu0": m.nu0, "nu2": m.nu2,
        "b_x": m.model.b_x, "b_y": m.model.b_y, "a_y": m.model.a_y,
    }


def draw_free_params(family: str, rng: np.random.Generator,
                     params: PUParams) -> dict:
    """Random admissible free parameters for a family (rejection sampling on
    the real-branch and tau != 0 conditions), keyed by FREE_PARAMS."""
    for _ in range(200):
        ax = rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 2.0)
        if family in ("Ta1", "Ta2"):
            ay = rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 2.0)
            g = rng.uniform(-1.0, 1.0)
            if family == "Ta2":
                rad = params.alpha ** 2 - 4.0 * params.beta - 4.0 * g * g / (ax * ay)
                if rad < 1e-6:
                    continue
            return dict(zip(FREE_PARAMS[family], (ax, ay, g)))
        if family == "Tb1":
            bx = rng.uniform(-3.0, 3.0)
            g = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 1.5)
            if abs(_tau(params, ax, bx)) < 1e-3:
                continue
            return dict(zip(FREE_PARAMS[family], (ax, bx, g)))
        by = rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 2.0)
        g = rng.uniform(-1.0, 1.0)
        return dict(zip(FREE_PARAMS[family], (ax, by, g)))
    raise NoSolutionError(f"could not draw admissible parameters for {family}")


def reconciliation_report(params: PUParams, n_draws: int = 10,
                          seed: int = DEFAULT_SEED) -> dict:
    """Compare tabulated rows against re-derived ones over random draws.

    For every family x branch x draw the report records both rows, per-field
    deltas, and the verify_map outcome of each; rows where the tabulated
    values fail the off-shell identities are counted as discrepant.  The
    report never raises on a discrepant row.
    """
    rng = np.random.default_rng(seed)
    report = {"omega1": params.omega1, "omega2": params.omega2,
              "n_draws": n_draws, "families": {}}
    for family in FAMILIES:
        rows = []
        discrepant = 0
        for _ in range(n_draws):
            free = draw_free_params(family, rng, params)
            for branch in BRANCHES:
                entry = {"free": free, "branch": branch}
                try:
                    solved = solve_family(family, branch, free, params)
                    vs = verify_map(solved)
                    entry["solved"] = _row_values(solved)
                    entry["solved_passes"] = vs.passes
                    entry["solved_residual"] = vs.residual_norm
                except (ComplexBranchError, NoSolutionError,
                        PreconditionViolatedError) as exc:
                    entry["solved"] = f"skipped: {exc}"
                    rows.append(entry)
                    continue
                try:
                    tab = tabulated_family(family, branch, free, params)
                    vt = verify_map(tab)
                    entry["tabulated"] = _row_values(tab)
                    entry["tabulated_passes"] = vt.passes
                    entry["tabulated_residual"] = vt.residual_norm
                    entry["delta"] = {
                        k: entry["tabulated"][k] - entry["solved"][k]
                        for k in _FIELDS
                    }
                    if not vt.passes:
                        discrepant += 1
                except (ComplexBranchError, PreconditionViolatedError) as exc:
                    entry["tabulated"] = f"skipped: {exc}"
                rows.append(entry)
        report["families"][family] = {
            "rows": rows,
            "discrepant_tabulated_rows": discrepant,
            "total_rows": len(rows),
        }
    return report
