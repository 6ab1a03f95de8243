"""Trajectories, normal modes, conserved-quantity monitoring and runaway
detection.

Free motion is the superposition of two harmonic modes,

    q(t) = 2 Re[a1 exp(-i w1 t)] + 2 Re[a2 exp(-i w2 t)],

which gives a closed-form oracle for the integrator and an exact mode
decomposition of any jet state.  Every run, a sampled trajectory
(integrate) or one coupling of a scan (runaway_batch), is one Dormand-Prince
5(4) run with PI step-size control, written on Python floats because numpy
call overhead outweighs the arithmetic on a 4-vector.  For the same reason
its step loop calls no max, min or abs: on four floats a builtin call costs
more than the arithmetic it guards, so each is written as the conditional
expression that returns what the builtin returns.  Every field the library
builds has the companion shape of the jet chart, z' = (qd, qdd, qddd,
a30 q + a32 qdd - W'(q)), and runs in the companion lane (_companion_dp54),
which writes that field into the stage arithmetic: a stage is four state
components and one force row, with no right-hand-side call, and the tableau
is bound to locals.  Any other linear part runs the same algorithm in the
closure lane (_dp54) through a _float_rhs closure; the two lanes agree bit
for bit on a companion field.  A lane shortens a step only to land on a
stop: integrate's equidistant sample times, or t_end alone for a scan.
Stepping is deterministic, so repeated runs with the same settings reproduce
output bit for bit on one platform.

An interaction potential W destabilizes the model: the quartic family
W(q) = lam q^4 / 4 keeps trajectories bounded below a coupling threshold and
drives them to escape above it, while H1 - W stays conserved and the second
Hamiltonian H2 drifts, witnessing the broken second structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import core
from .config import (
    DEFAULT_SAMPLE_RATE,
    DEFAULT_TOL,
    ESCAPE_RADIUS_FACTOR,
    SCAN_BISECT_ITERS,
    SCAN_GRID_POINTS,
)
from .core import JetState, Potential, PUParams, VectorField
from .errors import (
    PreconditionViolatedError,
    ScanDegenerateError,
    StepUnderflowError,
)

# Largest t_end / sample_rate integrate accepts; the sample grid is allocated
# up front.
MAX_SAMPLES = 10 ** 7


# ---------------------------------------------------------------------------
# normal modes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModeAmplitudes:
    """Complex amplitudes of the two harmonic components."""

    a1: complex
    a2: complex


def mode_decompose(params: PUParams, z: JetState) -> ModeAmplitudes:
    """Solve the two 2x2 systems that match (q, qdd) to the real parts and
    (qd, qddd) to the imaginary parts of (a1, a2) at t = 0."""
    w1, w2 = params.omega1, params.omega2
    w1s, w2s = w1 * w1, w2 * w2
    d = w2s - w1s
    re1 = (w2s * z.q + z.qdd) / (2.0 * d)
    re2 = -(w1s * z.q + z.qdd) / (2.0 * d)
    im1 = (w2s * z.qd + z.qddd) / (2.0 * w1 * d)
    im2 = -(w1s * z.qd + z.qddd) / (2.0 * w2 * d)
    return ModeAmplitudes(complex(re1, im1), complex(re2, im2))


def mode_reconstruct(params: PUParams, m: ModeAmplitudes,
                     t: float = 0.0) -> JetState:
    """Jet state of the two-mode solution at time t."""
    return JetState.from_array(closed_form_states(params, m, np.array([t]))[0])


def closed_form_states(params: PUParams, m: ModeAmplitudes,
                       times: np.ndarray) -> np.ndarray:
    """Exact free trajectory (N x 4) from the mode amplitudes."""
    out = np.empty((len(times), 4))
    for k, (w, a) in enumerate(((params.omega1, m.a1), (params.omega2, m.a2))):
        phase = np.exp(-1j * w * np.asarray(times, dtype=float))
        for n in range(4):
            col = 2.0 * np.real(a * (-1j * w) ** n * phase)
            if k == 0:
                out[:, n] = col
            else:
                out[:, n] += col
    return out


def mode_energy(params: PUParams, m: ModeAmplitudes) -> dict:
    """Per-mode energies e1 = 2 R1 |a1|^2, e2 = -2 R2 |a2|^2 with
    R_i = w_i^2 (w1^2 - w2^2); total equals H1 on the reconstructed state.

    For w1 < w2 the first mode carries negative energy: it is the ghost
    sector of the model.
    """
    w1s, w2s = params.omega1 ** 2, params.omega2 ** 2
    r1 = w1s * (w1s - w2s)
    r2 = w2s * (w1s - w2s)
    e1 = 2.0 * r1 * abs(m.a1) ** 2
    e2 = -2.0 * r2 * abs(m.a2) ** 2
    return {"e1": e1, "e2": e2, "total": e1 + e2}


# ---------------------------------------------------------------------------
# interaction potentials
# ---------------------------------------------------------------------------

def quartic(lam: float) -> Potential:
    """Quartic coupling W(q) = lam q^4 / 4.

    With the library's sign convention the interacting jerk equation is
    q'''' + alpha q'' + beta q + lam q^3 = 0; lam > 0 is the destabilizing
    direction, with runaway above a finite coupling threshold.  Raises
    PreconditionViolatedError unless lam >= 0.
    """
    lam = float(lam)
    if not lam >= 0.0:
        raise PreconditionViolatedError("lambda must be non-negative")
    return Potential(
        lambda q: 0.25 * lam * q ** 4,      # W
        lambda q: lam * (q * q * q),        # W'
        lambda q: 3.0 * lam * q ** 2,       # W''
        f"quartic(lam={lam!r})",
    )


def field_for(params: PUParams, potential: Optional[Potential]) -> VectorField:
    """Free or interacting vector field for an optional potential."""
    if potential is None:
        return core.free_vector_field(params)
    return VectorField(core.flow_matrix(params), potential)


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray          # N x 4 jet states
    h1_series: np.ndarray
    h2_series: np.ndarray
    hint_series: np.ndarray     # H1 - W(q); equals H1 for free runs
    meta: dict

    def drift(self, which: str = "h1") -> float:
        series = {"h1": self.h1_series, "h2": self.h2_series,
                  "hint": self.hint_series}[which]
        return float(np.max(np.abs(series - series[0])))

    @property
    def escaped(self) -> bool:
        return self.meta.get("escape_time") is not None


# Dormand-Prince 5(4) tableau (FSAL: the last stage is next step's first)
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176,
                                -5103 / 18656)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (71 / 57600, -71 / 16695, 71 / 1920,
                                -17253 / 339200, 22 / 525, -1 / 40)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_PI_ALPHA = 0.7 / 5.0
_PI_BETA = 0.4 / 5.0

# the first three rows of every flow_matrix: q' = qd, qd' = qdd, qdd' = qddd
_SHIFT_ROWS = [[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]


def _no_force(q):
    """W' of a free field."""
    return 0.0


def _companion(field: VectorField):
    """(a30, a32, w_prime) when the field has the companion shape
    flow_matrix builds, z' = (qd, qdd, qddd, a30 q + a32 qdd - W'(q)), or
    None for any other linear part.  A free field gets _no_force."""
    A = field.linear.tolist()
    if A[:3] != _SHIFT_ROWS or not A[3][1] == A[3][3] == 0.0:
        return None
    wp = _no_force if field.potential is None else field.potential.w_prime
    return A[3][0], A[3][2], wp


def _float_rhs(field: VectorField):
    """The field as a closure (q0, q1, q2, q3) -> 4-tuple on Python floats,
    its linear part evaluated row by row; the interaction enters as -W'(q)
    on the last component, through the field's own Potential.w_prime."""
    (a00, a01, a02, a03), (a10, a11, a12, a13), \
        (a20, a21, a22, a23), (a30, a31, a32, a33) = field.linear.tolist()
    w = _no_force if field.potential is None else field.potential.w_prime

    def f(q0, q1, q2, q3):
        return (a00 * q0 + a01 * q1 + a02 * q2 + a03 * q3,
                a10 * q0 + a11 * q1 + a12 * q2 + a13 * q3,
                a20 * q0 + a21 * q1 + a22 * q2 + a23 * q3,
                a30 * q0 + a31 * q1 + a32 * q2 + a33 * q3 - w(q0))
    return f


def _rms(v, scale) -> float:
    return math.sqrt(sum((x / s) * (x / s) for x, s in zip(v, scale)) / 4.0)


def _initial_step(f, y, f0, tol) -> float:
    """First trial step from y and its slope f0 = f(y) (Hairer, Norsett and
    Wanner, Solving ODEs I, II.4)."""
    scale = [tol + tol * abs(x) for x in y]
    d0, d1 = _rms(y, scale), _rms(f0, scale)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    if not h0 > 0.0:
        return 0.0      # an infinite or NaN slope: the first step underflows
    f1 = f(*(x + h0 * k for x, k in zip(y, f0)))
    d2 = _rms([b - a for a, b in zip(f0, f1)], scale) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1)


def _dp54(rhs, y0, stops, tol, escape_radius):
    """One adaptive DP5(4) run with PI step control on Python floats.

    rhs is a _float_rhs closure, y0 a 4-tuple of floats, stops the
    increasing positive times the run must land on (the last ends it), tol
    and escape_radius floats (math.inf for no escape test).  A step that
    would reach a stop within 1e-14 max(1, |stop|) is shortened to end on
    it; such a capped step is exempt from the step-underflow check, since
    its size is the positive gap to the stop.  The run ends at the last
    stop or at the end of the first accepted step with |z| >= escape_radius.

    Returns (times, rows, escape_time, n_steps, n_rhs, n_rejected): the time
    and state after every capped step and after the escaping step, the
    escape time or None, and the step and right-hand-side counts.  Raises
    StepUnderflowError when an uncapped step falls below 1e-14 max(1, t),
    or when a capped step is rejected and its shrunk size would still be
    capped, since the retry would repeat the rejected step exactly.
    """
    sqrt = math.sqrt
    q0, q1, q2, q3 = y0
    k1 = rhs(q0, q1, q2, q3)
    h = _initial_step(rhs, y0, k1, tol)
    t = 0.0
    err_prev = 1e-4
    n_steps = n_rejected = 0
    times, rows = [], []
    neg_alpha, beta = -_PI_ALPHA, _PI_BETA
    for target in stops:
        reach = target - 1e-14 * max(1.0, abs(target))
        # no max/min/abs calls: each costs more than the arithmetic it guards
        while True:
            capped = t + h >= reach
            if capped:
                hs = target - t
            else:
                hs = h
                if hs < 1e-14 * (t if t > 1.0 else 1.0):
                    raise StepUnderflowError(t)

            a0, a1, a2, a3 = k1
            b0, b1, b2, b3 = rhs(q0 + hs * (_A21 * a0), q1 + hs * (_A21 * a1),
                                 q2 + hs * (_A21 * a2), q3 + hs * (_A21 * a3))
            c0, c1, c2, c3 = rhs(q0 + hs * (_A31 * a0 + _A32 * b0),
                                 q1 + hs * (_A31 * a1 + _A32 * b1),
                                 q2 + hs * (_A31 * a2 + _A32 * b2),
                                 q3 + hs * (_A31 * a3 + _A32 * b3))
            d0, d1, d2, d3 = rhs(
                q0 + hs * (_A41 * a0 + _A42 * b0 + _A43 * c0),
                q1 + hs * (_A41 * a1 + _A42 * b1 + _A43 * c1),
                q2 + hs * (_A41 * a2 + _A42 * b2 + _A43 * c2),
                q3 + hs * (_A41 * a3 + _A42 * b3 + _A43 * c3))
            e0, e1, e2, e3 = rhs(
                q0 + hs * (_A51 * a0 + _A52 * b0 + _A53 * c0 + _A54 * d0),
                q1 + hs * (_A51 * a1 + _A52 * b1 + _A53 * c1 + _A54 * d1),
                q2 + hs * (_A51 * a2 + _A52 * b2 + _A53 * c2 + _A54 * d2),
                q3 + hs * (_A51 * a3 + _A52 * b3 + _A53 * c3 + _A54 * d3))
            g0, g1, g2, g3 = rhs(
                q0 + hs * (_A61 * a0 + _A62 * b0 + _A63 * c0 + _A64 * d0
                           + _A65 * e0),
                q1 + hs * (_A61 * a1 + _A62 * b1 + _A63 * c1 + _A64 * d1
                           + _A65 * e1),
                q2 + hs * (_A61 * a2 + _A62 * b2 + _A63 * c2 + _A64 * d2
                           + _A65 * e2),
                q3 + hs * (_A61 * a3 + _A62 * b3 + _A63 * c3 + _A64 * d3
                           + _A65 * e3))
            p0 = q0 + hs * (_B1 * a0 + _B3 * c0 + _B4 * d0 + _B5 * e0 + _B6 * g0)
            p1 = q1 + hs * (_B1 * a1 + _B3 * c1 + _B4 * d1 + _B5 * e1 + _B6 * g1)
            p2 = q2 + hs * (_B1 * a2 + _B3 * c2 + _B4 * d2 + _B5 * e2 + _B6 * g2)
            p3 = q3 + hs * (_B1 * a3 + _B3 * c3 + _B4 * d3 + _B5 * e3 + _B6 * g3)
            k7 = s0, s1, s2, s3 = rhs(p0, p1, p2, p3)
            # the error scale 1 + max(|q_i|, |p_i|), each builtin written as
            # the conditional returning what it returns: max(a, b) is
            # (b if b > a else a), min(a, b) is (b if b < a else a)
            m0 = -q0 if q0 < 0.0 else q0
            m1 = -q1 if q1 < 0.0 else q1
            m2 = -q2 if q2 < 0.0 else q2
            m3 = -q3 if q3 < 0.0 else q3
            n0 = -p0 if p0 < 0.0 else p0
            n1 = -p1 if p1 < 0.0 else p1
            n2 = -p2 if p2 < 0.0 else p2
            n3 = -p3 if p3 < 0.0 else p3
            r0 = (hs * (_E1 * a0 + _E3 * c0 + _E4 * d0 + _E5 * e0 + _E6 * g0
                        + _E7 * s0) / (tol * (1.0 + (n0 if n0 > m0 else m0))))
            r1 = (hs * (_E1 * a1 + _E3 * c1 + _E4 * d1 + _E5 * e1 + _E6 * g1
                        + _E7 * s1) / (tol * (1.0 + (n1 if n1 > m1 else m1))))
            r2 = (hs * (_E1 * a2 + _E3 * c2 + _E4 * d2 + _E5 * e2 + _E6 * g2
                        + _E7 * s2) / (tol * (1.0 + (n2 if n2 > m2 else m2))))
            r3 = (hs * (_E1 * a3 + _E3 * c3 + _E4 * d3 + _E5 * e3 + _E6 * g3
                        + _E7 * s3) / (tol * (1.0 + (n3 if n3 > m3 else m3))))
            err = sqrt(0.25 * (r0 * r0 + r1 * r1 + r2 * r2 + r3 * r3))

            if not err <= 1.0:
                n_rejected += 1
                shrink = _SAFETY * err ** neg_alpha
                shrink = shrink if shrink > _MIN_FACTOR else _MIN_FACTOR
                h = hs * (shrink if shrink < 1.0 else 1.0)
                if capped and t + h >= reach:
                    raise StepUnderflowError(t)
                continue
            n_steps += 1
            t = target if capped else t + hs
            q0, q1, q2, q3 = p0, p1, p2, p3
            k1 = k7
            err_b = 1e-10 if 1e-10 > err else err
            factor = _SAFETY * err_b ** neg_alpha * err_prev ** beta
            err_prev = err_b
            factor = factor if factor > _MIN_FACTOR else _MIN_FACTOR
            h = hs * (factor if factor < _MAX_FACTOR else _MAX_FACTOR)
            escaped = sqrt(q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3) \
                >= escape_radius
            if capped or escaped:
                times.append(t)
                rows.append((q0, q1, q2, q3))
            if escaped:
                return (times, rows, t, n_steps,
                        2 + 6 * (n_steps + n_rejected), n_rejected)
            if capped:
                break
    return times, rows, None, n_steps, 2 + 6 * (n_steps + n_rejected), n_rejected


def _companion_dp54(a30, a32, w_prime, y0, stops, tol, escape_radius):
    """_dp54 for a field of the companion shape (see _companion), bit for bit
    _dp54 with the closure (q1, q2, q3, a30 q0 + a32 q2 - w_prime(q0)).

    The first three slope components of a stage are its state's last three,
    so each stage computes its four state components and one
    a30 u0 + a32 u2 - w_prime(u0), with no closure call and no tuple.  The
    FSAL slope is (q1, q2, q3, f3), and the accepted step's |p_i| are the
    next step's |q_i|.  The tableau and controller constants are locals.  A
    free field passes w_prime = _no_force: x - 0.0 == x for every float,
    -0.0, inf and NaN included.  Arguments, return value and errors are
    _dp54's.
    """
    sqrt = math.sqrt
    A21, A31, A32, A41, A42, A43 = _A21, _A31, _A32, _A41, _A42, _A43
    A51, A52, A53, A54 = _A51, _A52, _A53, _A54
    A61, A62, A63, A64, A65 = _A61, _A62, _A63, _A64, _A65
    B1, B3, B4, B5, B6 = _B1, _B3, _B4, _B5, _B6
    E1, E3, E4, E5, E6, E7 = _E1, _E3, _E4, _E5, _E6, _E7
    safety, min_factor, max_factor = _SAFETY, _MIN_FACTOR, _MAX_FACTOR
    neg_alpha, beta = -_PI_ALPHA, _PI_BETA

    def rhs(q0, q1, q2, q3):
        return q1, q2, q3, a30 * q0 + a32 * q2 - w_prime(q0)

    q0, q1, q2, q3 = y0
    k1 = rhs(q0, q1, q2, q3)
    f3 = k1[3]
    h = _initial_step(rhs, y0, k1, tol)
    m0 = -q0 if q0 < 0.0 else q0
    m1 = -q1 if q1 < 0.0 else q1
    m2 = -q2 if q2 < 0.0 else q2
    m3 = -q3 if q3 < 0.0 else q3
    t = 0.0
    err_prev = 1e-4
    n_steps = n_rejected = 0
    times, rows = [], []
    for target in stops:
        reach = target - 1e-14 * max(1.0, abs(target))
        # no call but sqrt, w_prime and StepUnderflowError: a call costs more
        # than the float arithmetic it stands for (see _dp54)
        while True:
            capped = t + h >= reach
            if capped:
                hs = target - t
            else:
                hs = h
                if hs < 1e-14 * (t if t > 1.0 else 1.0):
                    raise StepUnderflowError(t)

            u0 = q0 + hs * (A21 * q1)
            b0 = q1 + hs * (A21 * q2)
            b1 = q2 + hs * (A21 * q3)
            b2 = q3 + hs * (A21 * f3)
            b3 = a30 * u0 + a32 * b1 - w_prime(u0)
            u0 = q0 + hs * (A31 * q1 + A32 * b0)
            c0 = q1 + hs * (A31 * q2 + A32 * b1)
            c1 = q2 + hs * (A31 * q3 + A32 * b2)
            c2 = q3 + hs * (A31 * f3 + A32 * b3)
            c3 = a30 * u0 + a32 * c1 - w_prime(u0)
            u0 = q0 + hs * (A41 * q1 + A42 * b0 + A43 * c0)
            d0 = q1 + hs * (A41 * q2 + A42 * b1 + A43 * c1)
            d1 = q2 + hs * (A41 * q3 + A42 * b2 + A43 * c2)
            d2 = q3 + hs * (A41 * f3 + A42 * b3 + A43 * c3)
            d3 = a30 * u0 + a32 * d1 - w_prime(u0)
            u0 = q0 + hs * (A51 * q1 + A52 * b0 + A53 * c0 + A54 * d0)
            e0 = q1 + hs * (A51 * q2 + A52 * b1 + A53 * c1 + A54 * d1)
            e1 = q2 + hs * (A51 * q3 + A52 * b2 + A53 * c2 + A54 * d2)
            e2 = q3 + hs * (A51 * f3 + A52 * b3 + A53 * c3 + A54 * d3)
            e3 = a30 * u0 + a32 * e1 - w_prime(u0)
            u0 = q0 + hs * (A61 * q1 + A62 * b0 + A63 * c0 + A64 * d0
                            + A65 * e0)
            g0 = q1 + hs * (A61 * q2 + A62 * b1 + A63 * c1 + A64 * d1
                            + A65 * e1)
            g1 = q2 + hs * (A61 * q3 + A62 * b2 + A63 * c2 + A64 * d2
                            + A65 * e2)
            g2 = q3 + hs * (A61 * f3 + A62 * b3 + A63 * c3 + A64 * d3
                            + A65 * e3)
            g3 = a30 * u0 + a32 * g1 - w_prime(u0)
            p0 = q0 + hs * (B1 * q1 + B3 * c0 + B4 * d0 + B5 * e0 + B6 * g0)
            p1 = q1 + hs * (B1 * q2 + B3 * c1 + B4 * d1 + B5 * e1 + B6 * g1)
            p2 = q2 + hs * (B1 * q3 + B3 * c2 + B4 * d2 + B5 * e2 + B6 * g2)
            p3 = q3 + hs * (B1 * f3 + B3 * c3 + B4 * d3 + B5 * e3 + B6 * g3)
            s3 = a30 * p0 + a32 * p2 - w_prime(p0)
            n0 = -p0 if p0 < 0.0 else p0
            n1 = -p1 if p1 < 0.0 else p1
            n2 = -p2 if p2 < 0.0 else p2
            n3 = -p3 if p3 < 0.0 else p3
            r0 = (hs * (E1 * q1 + E3 * c0 + E4 * d0 + E5 * e0 + E6 * g0
                        + E7 * p1) / (tol * (1.0 + (n0 if n0 > m0 else m0))))
            r1 = (hs * (E1 * q2 + E3 * c1 + E4 * d1 + E5 * e1 + E6 * g1
                        + E7 * p2) / (tol * (1.0 + (n1 if n1 > m1 else m1))))
            r2 = (hs * (E1 * q3 + E3 * c2 + E4 * d2 + E5 * e2 + E6 * g2
                        + E7 * p3) / (tol * (1.0 + (n2 if n2 > m2 else m2))))
            r3 = (hs * (E1 * f3 + E3 * c3 + E4 * d3 + E5 * e3 + E6 * g3
                        + E7 * s3) / (tol * (1.0 + (n3 if n3 > m3 else m3))))
            err = sqrt(0.25 * (r0 * r0 + r1 * r1 + r2 * r2 + r3 * r3))

            if not err <= 1.0:
                n_rejected += 1
                shrink = safety * err ** neg_alpha
                shrink = shrink if shrink > min_factor else min_factor
                h = hs * (shrink if shrink < 1.0 else 1.0)
                if capped and t + h >= reach:
                    raise StepUnderflowError(t)
                continue
            n_steps += 1
            t = target if capped else t + hs
            q0, q1, q2, q3, f3 = p0, p1, p2, p3, s3
            m0, m1, m2, m3 = n0, n1, n2, n3
            err_b = 1e-10 if 1e-10 > err else err
            factor = safety * err_b ** neg_alpha * err_prev ** beta
            err_prev = err_b
            factor = factor if factor > min_factor else min_factor
            h = hs * (factor if factor < max_factor else max_factor)
            escaped = sqrt(q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3) \
                >= escape_radius
            if capped or escaped:
                break
        times.append(t)
        rows.append((q0, q1, q2, q3))
        if escaped:
            return (times, rows, t, n_steps,
                    2 + 6 * (n_steps + n_rejected), n_rejected)
    return times, rows, None, n_steps, 2 + 6 * (n_steps + n_rejected), n_rejected


def _sample_times(t_end: float, sample_rate: float) -> np.ndarray:
    """Sample times 0, sample_rate, 2 sample_rate, ... and t_end last: a grid
    time within 1e-9 max(1, t_end) below t_end becomes t_end."""
    if not sample_rate > 0.0:
        raise PreconditionViolatedError("sample_rate must be positive")
    if not t_end / sample_rate <= MAX_SAMPLES:
        raise PreconditionViolatedError(
            f"t_end / sample_rate must not exceed {MAX_SAMPLES}")
    n = int(math.floor(t_end / sample_rate + 1e-9))
    ts = np.arange(n + 1) * sample_rate
    if n and ts[-1] >= t_end - 1e-9 * max(1.0, t_end):
        ts[-1] = t_end
    else:
        ts = np.append(ts, t_end)
    return ts


def _state_norm(z0: JetState) -> float:
    """|z0| on Python floats, computed as the lane's escape test computes |z|.
    Raises OverflowError when it is not finite (a state too large to
    square)."""
    q0, q1, q2, q3 = z0.as_array().tolist()
    norm = math.sqrt(q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3)
    if not math.isfinite(norm):
        raise OverflowError("|z0| is not finite in floating point")
    return norm


def _check_run(z0: JetState, t_end, tol, escape_radius):
    """Preconditions shared by integrate and runaway_batch."""
    if not (1e-13 <= tol <= 1e-3):
        raise PreconditionViolatedError("tol must lie in [1e-13, 1e-3]")
    if not t_end > 0.0:
        raise PreconditionViolatedError("t_end must be positive")
    if escape_radius is not None and not escape_radius > _state_norm(z0):
        raise PreconditionViolatedError("escape_radius must exceed |z0|")


def integrate(
    params: PUParams,
    field: VectorField,
    z0: JetState,
    t_end: float,
    tol: float = DEFAULT_TOL,
    sample_rate: float = DEFAULT_SAMPLE_RATE,
    escape_radius: Optional[float] = None,
) -> Trajectory:
    """Adaptive embedded RK5(4) integration with PI step control.

    Output is recorded on the equidistant sample grid (steps are capped to
    land exactly on sample times, so samples carry full integrator accuracy).
    H1, H2 and the interacting energy H1 - W are recorded per sample.  When
    escape_radius (which must exceed |z0|) is set and |z| reaches it,
    integration terminates early and the escape time is recorded in meta.
    meta also counts accepted steps (n_steps), rejected steps (n_rejected)
    and right-hand-side evaluations, n_rhs = 2 + 6 (n_steps + n_rejected).
    """
    _check_run(z0, t_end, tol, escape_radius)
    pot = field.potential
    y0 = tuple(z0.as_array().tolist())
    stops = _sample_times(t_end, sample_rate)[1:].tolist()
    radius = math.inf if escape_radius is None else float(escape_radius)
    companion = _companion(field)
    if companion is None:
        lane = _dp54(_float_rhs(field), y0, stops, float(tol), radius)
    else:
        lane = _companion_dp54(*companion, y0, stops, float(tol), radius)
    row_times, rows, escape_time, n_steps, n_rhs, n_rejected = lane

    states = np.array([y0, *rows])
    times = np.array([0.0, *row_times])
    s1 = core.h1(params).coeffs
    s2 = core.h2(params).coeffs
    h1s = 0.5 * np.einsum("ni,ij,nj->n", states, s1, states)
    h2s = 0.5 * np.einsum("ni,ij,nj->n", states, s2, states)
    if pot is not None:
        hint = h1s - np.array([pot.w(q) for q in states[:, 0]])
    else:
        hint = h1s.copy()
    meta = {
        "omega1": params.omega1,
        "omega2": params.omega2,
        "tol": tol,
        "sample_rate": sample_rate,
        "escape_radius": escape_radius,
        "escape_time": escape_time,
        "t_end": t_end,
        "n_steps": n_steps,
        "n_rhs": n_rhs,
        "n_rejected": n_rejected,
        "interacting": pot is not None,
    }
    return Trajectory(times, states, h1s, h2s, hint, meta)


def default_escape_radius(z0: JetState) -> float:
    """ESCAPE_RADIUS_FACTOR max(1, |z0|); raises OverflowError when |z0| is
    not finite."""
    return ESCAPE_RADIUS_FACTOR * max(1.0, _state_norm(z0))


# ---------------------------------------------------------------------------
# runaway classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridPoint:
    lam: float
    bounded: bool
    escape_time: Optional[float]
    n_steps: int            # the run's accepted steps
    n_rejected: int         # and its rejected ones


def runaway_batch(
    params: PUParams,
    lams: Sequence[float],
    z0: JetState,
    t_end: float,
    escape_radius: float,
    tol: float = DEFAULT_TOL,
) -> tuple:
    """Classify each quartic coupling in lams as bounded or escaping up to
    t_end, one DP5(4) run per coupling.

    Each run is integrate's companion lane with t_end as its only stop: it
    records no samples, steps as its error control allows and caps only its
    last step, so the verdict is a function of (t_end, escape_radius, tol)
    alone.  Its escape time is the end of the first accepted step with
    |z| >= escape_radius, and its accepted and rejected step counts are
    n_steps and n_rejected, bit for bit integrate's with sample_rate = t_end.
    Couplings, times and tolerances are converted to Python floats first.
    Raises StepUnderflowError when a run underflows.
    """
    _check_run(z0, t_end, tol, escape_radius)
    y0 = tuple(z0.as_array().tolist())
    t_end, escape_radius, tol = float(t_end), float(escape_radius), float(tol)
    a30, _, a32, _ = core.flow_matrix(params)[3].tolist()
    points = []
    for lam in lams:
        lam = float(lam)
        _, _, t, n_steps, _, n_rejected = _companion_dp54(
            a30, a32, quartic(lam).w_prime, y0, (t_end,), tol, escape_radius)
        points.append(GridPoint(lam, t is None, t, n_steps, n_rejected))
    return tuple(points)


def analyze_grid_flags(flags: Sequence[bool]):
    """Monotonicity and first bounded-to-escaping transition of a grid.

    monotone means a bounded prefix followed by an escaping suffix; when the
    pattern interleaves (resonant escapes on long horizons), the first
    transition is still reported and the caller sets a caveat flag.
    """
    first_escape = flags.index(False)
    monotone = not any(flags[first_escape:])
    trans = None
    for i in range(len(flags) - 1):
        if flags[i] and not flags[i + 1]:
            trans = i
            break
    return monotone, trans


@dataclass(frozen=True)
class ThresholdReport:
    lambda_star: Optional[float]
    grid: tuple
    monotone: bool
    caveat: bool
    settings: dict


def threshold_search(
    params: PUParams,
    z0: JetState,
    t_end: float,
    escape_radius: float,
    lambda_range: Sequence[float],
    grid_points: int = SCAN_GRID_POINTS,
    bisect_iters: int = SCAN_BISECT_ITERS,
    tol: float = DEFAULT_TOL,
) -> ThresholdReport:
    """Locate the quartic-coupling threshold between bounded and escaping
    behavior for fixed initial data and horizon.

    A coarse geometric grid over the coupling range is classified first by
    runaway_batch, then bisect_iters bisection halvings refine the first
    bounded-to-escaping transition, one coupling at a time (see _bisect),
    stopping early once the bracket no longer splits.  The reported
    threshold is a
    function of (t_end, escape_radius, tol): longer horizons can only lower
    it.  A caveat flag is set when the grid classification is not
    monotone in the coupling.  Raises ScanDegenerateError when every grid
    point is bounded or every one escapes.
    """
    lam_lo, lam_hi = float(lambda_range[0]), float(lambda_range[1])
    if lam_lo < 0.0 or lam_hi < lam_lo:
        raise PreconditionViolatedError(
            "lambda range must satisfy 0 <= lo <= hi"
        )
    if grid_points < 2:
        raise PreconditionViolatedError("grid_points must be at least 2")
    if bisect_iters < 0:
        raise PreconditionViolatedError("bisect_iters must be non-negative")

    def classify(lams) -> tuple:
        return runaway_batch(params, lams, z0, t_end, escape_radius, tol=tol)

    if lam_hi == lam_lo:
        grid_vals = np.array([lam_lo])
    elif lam_lo == 0.0:
        if lam_hi * 1e-3 == 0.0:
            raise PreconditionViolatedError("lambda_max underflows the grid")
        grid_vals = np.concatenate(
            [[0.0], np.geomspace(lam_hi * 1e-3, lam_hi, grid_points - 1)]
        )
    else:
        grid_vals = np.geomspace(lam_lo, lam_hi, grid_points)

    grid = classify(grid_vals)

    flags = [p.bounded for p in grid]
    if all(flags):
        raise ScanDegenerateError("all-bounded", grid)
    if not any(flags):
        raise ScanDegenerateError("all-unbounded", grid)

    monotone, trans = analyze_grid_flags(flags)
    settings = {
        "t_end": t_end, "escape_radius": escape_radius, "tol": tol,
        "grid_points": int(len(grid_vals)), "bisect_iters": bisect_iters,
        "lambda_range": [lam_lo, lam_hi],
    }
    if trans is None:
        return ThresholdReport(None, grid, monotone, True, settings)

    lo, hi = _bisect(grid[trans].lam, grid[trans + 1].lam, bisect_iters,
                     lambda lam: classify([lam])[0].bounded)
    return ThresholdReport(0.5 * (lo + hi), grid, monotone, not monotone,
                           settings)


def _bisect(lo: float, hi: float, iters: int, bounded):
    """The bracket [lo, hi] after at most `iters` halvings at the midpoint
    0.5 * (lo + hi), keeping the bounded end in lo and the escaping end in
    hi; bounded(lam) classifies one coupling.  Stops early when the midpoint
    no longer splits the bracket."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if bounded(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

CSV_HEADER = "t,q,qd,qdd,qddd,x1,x2,p1,p2,H1,H2,Hint"


def trajectory_csv_rows(params: PUParams, traj: Trajectory) -> list:
    """CSV rows (no header) with both charts and the three energy series."""
    a = float(params.alpha)
    rows = []
    for t, (q, qd, qdd, qddd), h1, h2, hint in zip(
            traj.times.tolist(), traj.states.tolist(), traj.h1_series.tolist(),
            traj.h2_series.tolist(), traj.hint_series.tolist()):
        rows.append(",".join(map(repr, (t, q, qd, qdd, qddd, q, qd,
                                        -a * qd - qddd, qdd, h1, h2, hint))))
    return rows
