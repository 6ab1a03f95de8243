"""Two-dimensional first-order representations of the fourth-order flow.

A model L_fo = a_x xd^2/2 + a_y yd^2/2 - b_x x^2/2 - b_y y^2/2 - g x y with
Euler-Lagrange expressions

    phi_1 = a_x xdd + b_x x + g y,      phi_2 = a_y ydd + b_y y + g x,

is matched to the oscillator through the affine substitution

    x = mu0 q + mu2 qdd,    y = nu0 q + nu2 qdd,

treating (q, qd, qdd, qddd, q4) as independent off-shell coordinates; in
phase space it is the block C = [[mu0, mu2], [nu0, nu2]] (see TransformMap).
Family 'a' maps both phi_i to multiples of phi = q4 + alpha qdd + beta q;
family 'b' maps phi_1 to a multiple of phi and phi_2 to zero identically.
Four solution families exist:

    Ta1 (singular transform, x and y proportional),
    Ta2 (invertible),
    Tb1 (invertible, nu2 = 0),
    Tb2 (degenerate model, a_y = 0, y proportional to x).

Two sets of family rows are shipped: tabulated_family transcribes a commonly
quoted table verbatim as reference data, and solve_family re-derives every
dependent parameter from the off-shell identity conditions; the two disagree
on several rows and reconciliation_report records the deltas.  verify_map is
the independent check: it reads the polynomial coefficients of each phi_i off
the substitution in closed form and classifies them, never consulting how the
map was built.  pullback_hamiltonian returns (observable, c1, c2, fit_residual)
and raises DegenerateModelError when a_y = 0; tabulated_blend_coefficients
returns the table's (c1, c2), or raises NoSolutionError where one is not
finite.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import core
from .config import DEFAULT_SEED, EPS_ALGEBRA
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
# The free parameters each family divides by: an exact zero is a usage error.
_DIVISORS = {"Ta1": ("a_x", "a_y"), "Ta2": ("a_x", "a_y"),
             "Tb1": ("a_x", "g"), "Tb2": ("a_x", "b_y")}
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
class TransformMap:
    """Affine substitution x = mu0 q + mu2 qdd, y = nu0 q + nu2 qdd: its
    coordinate block C = [[mu0, mu2], [nu0, nu2]] takes (q, qdd) to (x, y),
    diag(a_x, a_y) C takes (qd, qddd) to (p_x, p_y) = (a_x xd, a_y yd);
    pushforward and pullback are congruences by C."""

    family: str
    branch: int
    mu0: float
    mu2: float
    nu0: float
    nu2: float
    model: TwoDimModel
    params: PUParams

    @property
    def transform_det(self) -> float:
        """det C = det(D C) / det D: no NaN where mu0 nu2 and mu2 nu0
        overflow, and +-inf where det C does."""
        s, (a, b, c, d) = self._scaled_block()
        try:
            return math.ldexp(a * d - b * c, -s[0] - s[1])
        except OverflowError:
            return math.copysign(math.inf, a * d - b * c)

    def _scaled_block(self):
        """(s, D C as (mu0, mu2, nu0, nu2)), D = diag(2^s), -s_i the frexp
        exponent of row i's largest |entry|, so that no product overflows."""
        rows = ((self.mu0, self.mu2), (self.nu0, self.nu2))
        s = [-math.frexp(max(map(abs, row)))[1] for row in rows]
        return s, tuple(math.ldexp(x, si) for si, row in zip(s, rows)
                        for x in row)

    @property
    def rank_deficient(self) -> bool:
        """x proportional to y: det(D C) _vanishes against its terms."""
        _, (a, b, c, d) = self._scaled_block()
        return core._vanishes(a * d, -(b * c))

    @property
    def singular(self) -> bool:
        """The one rule, read by embed and pushforward_poisson alike."""
        return self.model.degenerate or self.rank_deficient


def _build_map(family, branch, mu0, mu2, nu0, nu2, model, params):
    if not all(map(math.isfinite, (mu0, mu2, nu0, nu2,
                                   *vars(model).values()))):
        raise NoSolutionError(f"{family} row overflows for these parameters")
    return TransformMap(family, branch, float(mu0), float(mu2), float(nu0),
                        float(nu2), model, params)


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

def _rho0(params: PUParams, branch: int) -> float:
    # alpha^2 - 4 beta = (w1^2 - w2^2)^2 >= 0 always
    return branch * abs(params.omega1 ** 2 - params.omega2 ** 2)


def _radicand(params: PUParams, a_x: float, a_y: float, g: float) -> float:
    """alpha^2 - 4 beta - 4 g^2/(a_x a_y), the square of rho_g."""
    try:
        return params.alpha ** 2 - 4.0 * params.beta - 4.0 * g * g / (a_x * a_y)
    except OverflowError:  # a float power raises where a product gives inf
        raise OverflowError("rho_g radicand is not finite: alpha^2 overflows") from None


def _rho_g(params: PUParams, a_x: float, a_y: float, g: float,
           branch: int) -> float:
    if a_x * a_y == 0.0:
        raise DegenerateModelError("rho_g needs a_x * a_y != 0")
    radicand = _radicand(params, a_x, a_y, g)
    if radicand < 0.0:
        raise ComplexBranchError(
            f"radicand {radicand:.6g} < 0: branch is complex"
        )
    return branch * math.sqrt(radicand)


def _tau(params: PUParams, a_x: float, b_x: float) -> float:
    return b_x * b_x - a_x * b_x * params.alpha + a_x * a_x * params.beta


def _tb1_tau(params: PUParams, a_x: float, b_x: float, g: float) -> float:
    """tau of both Tb1 rows, checked: their nu0 solves g a_x^2 nu0 = tau."""
    if g * a_x * a_x == 0.0:    # the product underflows
        raise NoSolutionError(
            "Tb1 needs g a_x^2 != 0 (nu0 solves g a_x^2 nu0 = tau)")
    tau = _tau(params, a_x, b_x)
    if tau == 0.0:
        raise PreconditionViolatedError("Tb1 needs tau != 0")
    return tau


def _need(family: str, branch: int, free: dict) -> tuple:
    """The family's free parameters as floats, in FREE_PARAMS order; an
    unknown family or branch, a missing or extra key, or an exact zero in a
    parameter the family divides by, is a precondition violation that names
    the offending value."""
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
    values = tuple(float(free[k]) for k in keys)
    for key, value in zip(keys, values):
        if value == 0.0 and key in _DIVISORS[family]:
            raise PreconditionViolatedError(f"{family} needs {key} != 0")
    return values


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
        tau = _tb1_tau(params, ax, bx, g)
        try:    # a float power raises where it overflows
            tau2, fault = tau ** 2, "underflows to 0"
        except OverflowError:
            tau2, fault = 0.0, "overflows"
        if tau2 == 0.0:     # a_y = -a_x g / tau^2 is not finite
            raise NoSolutionError(
                f"non-finite value in the tabulated Tb1 row: tau^2 {fault}")
        ay = -ax * g / tau2
        by = (g / tau) * (bx - ax * al)
        model = TwoDimModel(ax, ay, bx, by, g)
        return _build_map(family, branch, (al - bx / ax) / ax, 1.0 / ax,
                          tau / (g * ax * ax), 0.0, model, params)
    # Tb2
    ax, by, g = values
    r = _rho0(params, branch)
    bx = g * g / by + 0.5 * ax * (al + r)
    den_mu, den_nu = ax * (al + r), ax * by * (al + r)
    if 0.0 in (den_mu, den_nu):
        raise NoSolutionError(
            "Tb2 row underflows: a_x (alpha + rho_0) or a_x b_y (alpha + "
            "rho_0) is 0")
    mu0 = 2.0 * params.beta / den_mu
    nu0 = 2.0 * params.beta * g / den_nu
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
    returned map passes verify_map with zero residual, Tb2 included where
    g^2 underflows (g^2/b_y is then formed as g (g/b_y)).
    """
    values = _need(family, branch, free)
    al = params.alpha
    # w_n^2 = (alpha + rho_0)/2 and the other squared frequency w_f^2, read
    # off the frequencies: alpha -+ rho_0 would cancel at large ratios
    lo, hi = sorted((params.omega1 ** 2, params.omega2 ** 2))
    wn, wf = (hi, lo) if branch > 0 else (lo, hi)
    if family in ("Ta1", "Ta2"):
        ax, ay, g = values
        if family == "Ta1":
            # u = v: alpha*u - 2u^2 = beta/2, g drops out; u = w_n^2 / 2
            mu0, nu0 = wn / 2.0 / ax, wn / 2.0 / ay
            bx, by = ax * (wf - g / ay), ay * (wf - g / ax)
        else:
            # u != v: the quadratic splits via rho_g.  b_x/a_x, b_y/a_y are
            # (alpha -+ rho_g)/2: the larger root z1, and the product over it
            rg = _rho_g(params, ax, ay, g, branch)
            mu0 = _ta2_root(params, g / ay, ay / ax, rg) / ax
            nu0 = _ta2_root(params, g / ax, ax / ay, -rg) / ay
            z1 = (al + abs(rg)) / 2.0
            z2 = (params.beta + g * g / (ax * ay)) / z1
            bx, by = (ax * z2, ay * z1) if rg > 0 else (ax * z1, ay * z2)
        model = TwoDimModel(ax, ay, bx, by, g)
        return _build_map(family, branch, mu0, 1.0 / (2.0 * ax),
                          nu0, 1.0 / (2.0 * ay), model, params)
    if family == "Tb1":
        ax, bx, g = values
        tau = _tb1_tau(params, ax, bx, g)
        mu0 = (al - bx / ax) / ax
        nu0 = tau / (g * ax * ax)
        ay = -ax * g * g / tau
        by = g * g * (bx - ax * al) / tau
        model = TwoDimModel(ax, ay, bx, by, g)
        return _build_map(family, branch, mu0, 1.0 / ax, nu0, 0.0,
                          model, params)
    # Tb2: a_y = 0, y = -(g/b_y) x identically
    ax, by, g = values
    # effective coefficient bt = b_x - g^2/b_y solves bt^2 - alpha a_x bt
    # + beta a_x^2 = 0: bt = a_x w_n^2
    bt = ax * wn
    gg = g * g
    bx = (g * (g / by) if g != 0.0 and gg < sys.float_info.min
          else gg / by) + bt
    mu0 = wf / ax
    mu2 = 1.0 / ax
    model = TwoDimModel(ax, 0.0, bx, by, g)
    return _build_map(family, branch, mu0, mu2,
                      -g * mu0 / by, -g * mu2 / by, model, params)


def _ta2_root(params: PUParams, t: float, r: float, rg: float) -> float:
    """The Ta2 root u = (X + rg)/4, X = alpha - 2t, t = g/a_y, r = a_y/a_x (v:
    g/a_x, a_x/a_y, -rg), or the product of the roots over the other one,
    (beta - alpha t + t^2 (1 + r)) / (X - rg), whichever cancels less.  With
    a, b and c the magnitudes of X + rg, of that numerator and of X - rg over
    the sums of their terms' magnitudes, the rounding errors go as 1/a and
    1/b + 1/c, so the product form is taken where a (b + c) < b c."""
    al, be = params.alpha, params.beta
    X = al - 2.0 * t
    size = al + 2.0 * abs(t) + abs(rg)
    numerator = be - al * t + t * t * (1.0 + r)
    a, c = abs(X + rg) / size, abs(X - rg) / size
    b = abs(numerator) / (be + abs(al * t) + t * t * (1.0 + abs(r)))
    if a * (b + c) < b * c:
        return numerator / (X - rg)
    return (X + rg) / 4.0


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
    residual_norm: float


def _phi_coefficients(m: TransformMap):
    """The terms of the q, qdd and q4 coefficients of phi_1 and phi_2 under
    the map, in closed form; their qd and qddd coefficients are 0.  x = mu0 q
    + mu2 qdd and xdd = mu0 qdd + mu2 q4, y and ydd likewise with nu0 and nu2,
    in phi_1 = a_x xdd + b_x x + g y and phi_2 = a_y ydd + b_y y + g x.  Adding
    0.0 writes a zero q4 term (a_y = 0 or nu2 = 0) as 0.0, never -0.0."""
    mod = m.model
    t1 = ((mod.b_x * m.mu0, mod.g * m.nu0),
          (mod.a_x * m.mu0, mod.b_x * m.mu2, mod.g * m.nu2),
          (mod.a_x * m.mu2 + 0.0,))
    t2 = ((mod.b_y * m.nu0, mod.g * m.mu0),
          (mod.a_y * m.nu0, mod.b_y * m.nu2, mod.g * m.mu2),
          (mod.a_y * m.nu2 + 0.0,))
    return t1, t2


def _classify_phi(terms, params: PUParams) -> PhiReport:
    """One phi from its (q, qdd, q4) terms, k the q4 coefficient: "zero"
    (k = 0) or "proportional" when the q terms with -k beta and the qdd terms
    with -k alpha each _vanish at EPS_ALGEBRA and sum to a finite value, else
    "neither".  It reports the sums of the terms in the closed form's order."""
    (q0, q1), (d0, d1, d2), (k,) = terms
    q, qdd = q0 + q1, d0 + d1 + d2
    kb, ka = k * params.beta, k * params.alpha
    dq, dqdd = q - kb, qdd - ka     # not finite if a term is not
    if (math.isfinite(dq) and math.isfinite(dqdd)
            and core._vanishes(q0, q1, -kb, eps=EPS_ALGEBRA)
            and core._vanishes(d0, d1, d2, -ka, eps=EPS_ALGEBRA)):
        kind = "proportional" if k else "zero"
    else:
        kind = "neither"
    return PhiReport(kind, k, (q, 0.0, qdd, 0.0, k), max(abs(dq), abs(dqdd)))


def verify_map(m: TransformMap) -> MapVerification:
    """Off-shell check of a transform map, independent of its construction.

    Substitutes the map into both Euler-Lagrange expressions with
    (q, qd, qdd, qddd, q4) treated as independent, reads off the polynomial
    coefficients, and classifies each phi_i as proportional to
    q4 + alpha qdd + beta q, identically zero, or neither (with residuals),
    each coefficient on its own terms (_classify_phi).  A rank-deficient
    coordinate block (x proportional to y) is left to m.rank_deficient.
    """
    t1, t2 = _phi_coefficients(m)
    r1, r2 = _classify_phi(t1, m.params), _classify_phi(t2, m.params)
    contract, want = (("(phi, phi)", "proportional")     # phi2's kind
                      if m.family.startswith("Ta") else ("(phi, 0)", "zero"))
    passes = r1.kind == "proportional" and r2.kind == want
    return MapVerification(r1, r2, contract, passes,
                           max(r1.residual, r2.residual))


# ---------------------------------------------------------------------------
# tensor pushforward and Hamiltonian pullback
# ---------------------------------------------------------------------------

def pushforward_poisson(m: TransformMap) -> PoissonTensor:
    """Carry the canonical (x, p_x, y, p_y) tensor to the jet chart: its
    one nonzero block is {(q, qdd), (qd, qddd)} = C^-1 diag(1/a_x, 1/a_y) C^-T.

    The dq^dqd entry, (nu2^2/a_x + mu2^2/a_y)/det(C)^2, vanishes only when
    a_x and a_y have opposite signs.  Raises SingularMapError exactly when
    m.singular, ArithmeticError when an entry is not finite.
    """
    if m.singular:
        raise SingularMapError(
            f"{m.family} map is singular (det C = {m.transform_det:.3e}, "
            f"a_y = {m.model.a_y:.3e})")
    s, (a, b, c, d) = m._scaled_block()     # C^-1 = (D C)^-1 D, D = diag(2^s)
    J = np.zeros((4, 4))
    with np.errstate(over="ignore", invalid="ignore"):
        Ci = np.ldexp(np.divide([[d, -b], [-c, a]], a * d - b * c), s)
        J[0::2, 1::2] = Ci / (m.model.a_x, m.model.a_y) @ Ci.T
    core._require_finite(J, "the pushforward C^-1 diag(1/a) C^-T")
    return PoissonTensor(J - J.T, JET)


def qqdot_component(j: PoissonTensor) -> float:
    """Coefficient of dq^dqd in a jet-chart tensor."""
    return float(j.j[0, 1])


def fit_blend(params: PUParams, S: np.ndarray):
    """Least-squares fit S ~ c1*S1 + c2*S2; returns (c1, c2, residual / |S|).

    The norms of S1 and S2 differ by about beta, so each column is divided
    by its core._frobenius norm before the fit and each coefficient by the
    same norm after it (on the raw columns lstsq's rank cutoff dropped S2
    from about omega 1e4).  The fit solves the 2x2 normal equations of the
    scaled columns: their Gram matrix has condition number below about 3,
    since S1 alone has a qd qddd entry and S2 alone a q qdd entry, and S2's
    column, zero on the q^2 entry of order beta^2 |c1|, never meets that
    entry's rounding, which an orthogonal factorization (lstsq) spreads
    into c2 (off by 4e-3 at omega 5.6e6).
    """
    basis = np.stack([core.h1(params).coeffs, core.h2(params).coeffs])
    norms = core._frobenius(basis)
    with np.errstate(invalid="ignore"):     # 1/beta = inf in S2: NaN fit
        B = (basis / norms[:, None, None]).reshape(2, 16)
    target = np.asarray(S, dtype=float).ravel()
    coef = np.linalg.solve(B @ B.T, B @ target)
    r, t = core._frobenius(np.stack([target - coef @ B, target])[:, None])
    c1, c2 = (coef / norms).tolist()
    return c1, c2, float(r / t if t != 0 else r)     # r: 0 or NaN


def tabulated_blend_coefficients(m: TransformMap):
    """Blend coefficients (c1, c2) as quoted in the reference table for each
    family (kept for comparison; the fitted values from pullback_hamiltonian
    are the ground truth and generally differ in normalization).

    Raises NoSolutionError naming c1 or c2 when it is not finite, as the Ta2
    c1 = (4 g - rho_g) / (2 a_x a_y) + ... is beyond the largest double at
    a_x = 1e-155, a_y = 3e-155, g = 0, where the fitted pair is finite.
    """
    p, mod = m.params, m.model
    w1s, w2s = p.omega1 ** 2, p.omega2 ** 2
    big, small = max(w1s, w2s), min(w1s, w2s)
    M = big if m.branch > 0 else small
    if m.family == "Ta1":
        c2 = -(mod.a_x + mod.a_y) / (mod.a_x * mod.a_y)
        c1 = c2 * M
    elif m.family == "Ta2":
        c2 = -(mod.a_x + mod.a_y) / (mod.a_x * mod.a_y)
        rg = _rho_g(p, mod.a_x, mod.a_y, mod.g, m.branch)
        c1 = (4.0 * mod.g - rg) / (2.0 * mod.a_x * mod.a_y) + 0.5 * p.alpha * c2
    elif m.family == "Tb1":
        c1, c2 = (mod.b_x / mod.a_x - p.alpha) / mod.a_x, -1.0 / mod.a_x
    else:
        c1, c2 = -M / mod.a_x, -1.0 / mod.a_x
    for name, c in (("c1", c1), ("c2", c2)):
        if not math.isfinite(c):
            raise NoSolutionError(f"non-finite value in the tabulated "
                                  f"{m.family} blend coefficients: {name}")
    return c1, c2


def pullback_hamiltonian(m: TransformMap):
    """Compose the model Hamiltonian with the map and fit it in span{H1, H2};
    returns (observable, c1, c2, fit_residual).

    H_fo = p_x^2/2a_x + p_y^2/2a_y + b_x x^2/2 + b_y y^2/2 + g x y pulls back
    to S_pull = C^T B C on (q, qdd), B = [[b_x, g], [g, b_y]], plus
    C^T diag(a_x, a_y) C on (qd, qddd), fitted to c1*S1 + c2*S2.  The fit's
    residual is over the norm of S_pull's terms (the products in absolute
    value), so it is rounding noise even where they cancel (Ta1 with a_y
    near -a_x); above 1e-10 NotInSpanError is raised.  ArithmeticError where
    S_pull (from about omega 1e51) or the residual (below omega about 6e-78,
    1/beta = inf in S2) is not finite; DegenerateModelError where a_y = 0.
    """
    mod = m.model
    if mod.degenerate:
        raise DegenerateModelError("a_y = 0: model Hamiltonian undefined")
    C = np.array([[m.mu0, m.mu2], [m.nu0, m.nu2]])
    S, T = np.zeros((2, 4, 4))      # S_pull and its terms' magnitudes
    with np.errstate(over="ignore", invalid="ignore"):
        for H, f in ((S, np.asarray), (T, np.abs)):
            c = f(C)
            H[0::2, 0::2] = c.T @ f([[mod.b_x, mod.g], [mod.g, mod.b_y]]) @ c
            H[1::2, 1::2] = c.T @ (c * f([[mod.a_x], [mod.a_y]]))
        S = core._require_finite(core._sym_exact(S), "the pullback Hessian "
                                 "C^T B C, C^T diag(a) C")
    c1, c2, res = fit_blend(m.params, S)
    res = float(res * core._frobenius(S) / core._frobenius(T))
    if not math.isfinite(res):
        raise ArithmeticError(f"pullback fit residual is not finite: {res}")
    if res > 1e-10:
        raise NotInSpanError(res)
    return QuadraticObservable(S), c1, c2, res


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
    Raises ArithmeticError when a factor of D or an entry is not finite (from
    about omega 1e51 at (ct1, ct2) = (1, 0.5): w_i^2 (qdd + w_j^2 q)^2).
    """
    w = (params.omega1 ** 2, params.omega2 ** 2)
    d = core._require_finite(tuple(ct1 * wi - ct2 for wi in w),
                             "the sum-of-squares factors ct1*w_i^2 - ct2")
    S = np.zeros((4, 4))
    for i, jj in ((0, 1), (1, 0)):
        if core._vanishes(ct1 * w[i], -ct2):
            raise SingularCoefficientError(
                f"coefficient denominator ct1*w{i+1}^2 - ct2 vanishes")
        weight = w[i] / (2.0 * d[i] * (w[i] - w[jj]))
        v1 = np.array([0.0, w[jj], 0.0, 1.0])      # qddd + w_j^2 qd
        v2 = np.array([w[jj], 0.0, 1.0, 0.0])      # qdd + w_j^2 q
        with np.errstate(over="ignore", invalid="ignore"):  # as core.h2
            S += 2.0 * weight * (np.outer(v1, v1) + w[i] * np.outer(v2, v2))
    S = core._require_finite(S, "the sum-of-squares form")
    return QuadraticObservable(0.5 * (S + S.T))


def definiteness_inequality(params: PUParams, ct1: float, ct2: float) -> bool:
    """Closed-form positivity test for the sum-of-squares form:

        (ct1 w1^2 - ct2)(w1^2 - w2^2) > 0  and  (ct1 w2^2 - ct2)(w2^2 - w1^2) > 0.
    """
    w1s, w2s = params.omega1 ** 2, params.omega2 ** 2
    return ((ct1 * w1s - ct2) * (w1s - w2s) > 0.0
            and (ct1 * w2s - ct2) * (w2s - w1s) > 0.0)


def blend_coefficients_from_sos(params: PUParams, ct1: float, ct2: float):
    """Exact mapping from sum-of-squares parameters to blend coefficients,
    raising sum_of_squares's errors where a factor of D vanishes or overflows:

        (c1, c2) = beta / D * (ct1, -ct2),
        D = (ct1 w1^2 - ct2)(ct1 w2^2 - ct2).
    """
    w1s, w2s = params.omega1 ** 2, params.omega2 ** 2
    d1, d2 = core._require_finite((ct1 * w1s - ct2, ct1 * w2s - ct2),
                                  "the sum-of-squares factors ct1*w_i^2 - ct2")
    if core._vanishes(ct1 * w1s, -ct2) or core._vanishes(ct1 * w2s, -ct2):
        raise SingularCoefficientError("a factor ct1*w_i^2 - ct2 vanishes")
    scale = params.beta / d1 / d2
    return scale * ct1, -scale * ct2


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
    values = {**vars(m), **vars(m.model)}
    return {k: values[k] for k in _FIELDS}


def draw_free_params(family: str, rng: np.random.Generator,
                     params: PUParams) -> dict:
    """Random admissible free parameters for a family (rejection sampling on
    the real-branch and tau != 0 conditions), keyed by FREE_PARAMS."""
    for _ in range(200):
        ax = (-1.0, 1.0)[rng.integers(2)] * rng.uniform(0.3, 2.0)
        if family in ("Ta1", "Ta2"):
            ay = (-1.0, 1.0)[rng.integers(2)] * rng.uniform(0.3, 2.0)
            g = rng.uniform(-1.0, 1.0)
            if family == "Ta2":
                if _radicand(params, ax, ay, g) < 1e-6:
                    continue
            return dict(zip(FREE_PARAMS[family], (ax, ay, g)))
        if family == "Tb1":
            bx = rng.uniform(-3.0, 3.0)
            g = (-1.0, 1.0)[rng.integers(2)] * rng.uniform(0.2, 1.5)
            if abs(_tau(params, ax, bx)) < 1e-3:
                continue
            return dict(zip(FREE_PARAMS[family], (ax, bx, g)))
        by = (-1.0, 1.0)[rng.integers(2)] * rng.uniform(0.3, 2.0)
        g = rng.uniform(-1.0, 1.0)
        return dict(zip(FREE_PARAMS[family], (ax, by, g)))
    raise NoSolutionError(f"could not draw admissible parameters for {family}")


def _record_row(entry: dict, name: str, build, *args):
    """Record build(*args) and its verify_map verdict in entry under name;
    a row with no solution is recorded as skipped and gives None."""
    try:
        m = build(*args)
        v = verify_map(m)
    except (ComplexBranchError, NoSolutionError,
            PreconditionViolatedError) as exc:
        entry[name] = f"skipped: {exc}"
        return None
    entry[name] = _row_values(m)
    entry[f"{name}_passes"] = v.passes
    entry[f"{name}_residual"] = v.residual_norm
    return v


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
                rows.append(entry)
                args = (family, branch, free, params)
                if _record_row(entry, "solved", solve_family, *args) is None:
                    continue
                vt = _record_row(entry, "tabulated", tabulated_family, *args)
                if vt is not None:
                    entry["delta"] = {
                        k: entry["tabulated"][k] - entry["solved"][k]
                        for k in _FIELDS
                    }
                    discrepant += not vt.passes
        report["families"][family] = {
            "rows": rows,
            "discrepant_tabulated_rows": discrepant,
            "total_rows": len(rows),
        }
    return report
