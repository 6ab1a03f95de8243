"""Trajectories, normal modes, conserved-quantity monitoring and runaway
detection.

Free motion is the superposition of two harmonic modes,

    q(t) = 2 Re[a1 exp(-i w1 t)] + 2 Re[a2 exp(-i w2 t)],

which gives a closed-form oracle for the integrator and an exact mode
decomposition of any jet state.  The integrator is a fixed-algorithm embedded
Runge-Kutta 5(4) pair with PI step-size control and deterministic stepping:
steps land exactly on the equidistant sample times, so repeated runs with the
same settings reproduce output bit for bit on one platform.

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
    direction, with runaway above a finite coupling threshold.
    """
    lam = float(lam)
    return Potential(
        lambda q: 0.25 * lam * q ** 4,      # W
        lambda q: lam * q ** 3,             # W'
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


# Dormand-Prince 5(4) tableau (FSAL: the last stage is next step's first).
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (9017 / 3168, -355 / 33, 46732 / 5247,
                                49 / 176, -5103 / 18656)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (71 / 57600, -71 / 16695, 71 / 1920,
                                -17253 / 339200, 22 / 525, -1 / 40)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_PI_ALPHA = 0.7 / 5.0
_PI_BETA = 0.4 / 5.0


def _error_norm(err, y_old, y_new, tol):
    scale = tol * (1.0 + np.maximum(np.abs(y_old), np.abs(y_new)))
    r = err / scale
    return math.sqrt(0.25 * float(r @ r))


def _initial_step(f, t0, z0, tol):
    f0 = f(t0, z0)
    scale = tol + tol * np.abs(z0)
    d0 = np.sqrt(np.mean((z0 / scale) ** 2))
    d1 = np.sqrt(np.mean((f0 / scale) ** 2))
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    z1 = z0 + h0 * f0
    f1 = f(t0 + h0, z1)
    d2 = np.sqrt(np.mean(((f1 - f0) / scale) ** 2)) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1), f0


def _sample_times(t_end: float, sample_rate: float) -> np.ndarray:
    n = int(math.floor(t_end / sample_rate + 1e-9))
    ts = np.arange(n + 1) * sample_rate
    if ts[-1] < t_end - 1e-9 * max(1.0, t_end):
        ts = np.append(ts, t_end)
    else:
        ts[-1] = min(ts[-1], t_end)
    return ts


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
    """
    if not (1e-13 <= tol <= 1e-3):
        raise PreconditionViolatedError("tol must lie in [1e-13, 1e-3]")
    if not t_end > 0.0:
        raise PreconditionViolatedError("t_end must be positive")
    if not sample_rate > 0.0:
        raise PreconditionViolatedError("sample_rate must be positive")
    if escape_radius is not None and not (
            escape_radius > float(np.linalg.norm(z0.as_array()))):
        raise PreconditionViolatedError("escape_radius must exceed |z0|")

    # hoist the flow out of the dataclass for the hot loop (autonomous system)
    A = field.linear
    pot = field.potential
    if pot is None:
        def f(t, z):
            return A @ z
    else:
        wp = pot.w_prime

        def f(t, z):
            dz = A @ z
            dz[3] -= wp(z[0])
            return dz

    ts = _sample_times(t_end, sample_rate)
    z = z0.as_array()
    t = 0.0

    h, k1 = _initial_step(f, t, z, tol)
    n_rhs = 2
    n_steps = 0
    err_prev = 1e-4

    rows = [z.copy()]
    row_times = [0.0]
    escape_time = None
    i_next = 1

    while i_next < len(ts) and escape_time is None:
        target = float(ts[i_next])
        capped = False
        if t + h >= target - 1e-14 * max(1.0, abs(target)):
            h_step = target - t
            capped = True
        else:
            h_step = h
        if h_step < 1e-14 * max(1.0, abs(t)):
            raise StepUnderflowError(t)

        # seven stages, FSAL (k7 is next step's k1)
        hs = h_step
        k2 = f(t + _C2 * hs, z + hs * (_A21 * k1))
        k3 = f(t + _C3 * hs, z + hs * (_A31 * k1 + _A32 * k2))
        k4 = f(t + _C4 * hs, z + hs * (_A41 * k1 + _A42 * k2 + _A43 * k3))
        k5 = f(t + _C5 * hs, z + hs * (_A51 * k1 + _A52 * k2 + _A53 * k3
                                       + _A54 * k4))
        k6 = f(t + hs, z + hs * (_A61 * k1 + _A62 * k2 + _A63 * k3
                                 + _A64 * k4 + _A65 * k5))
        z_new = z + hs * (_B1 * k1 + _B3 * k3 + _B4 * k4 + _B5 * k5
                          + _B6 * k6)
        k7 = f(t + hs, z_new)
        n_rhs += 6
        err_vec = hs * (_E1 * k1 + _E3 * k3 + _E4 * k4 + _E5 * k5
                        + _E6 * k6 + _E7 * k7)
        err = _error_norm(err_vec, z, z_new, tol)

        if err <= 1.0:
            n_steps += 1
            t = target if capped else t + h_step
            z = z_new
            k1 = k7
            err_b = max(err, 1e-10)
            factor = _SAFETY * err_b ** (-_PI_ALPHA) * err_prev ** _PI_BETA
            err_prev = err_b
            h = h_step * min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
            if capped:
                rows.append(z.copy())
                row_times.append(t)
                i_next += 1
            if escape_radius is not None and np.linalg.norm(z) >= escape_radius:
                escape_time = t
                if row_times[-1] < t:
                    rows.append(z.copy())
                    row_times.append(t)
        else:
            factor = _SAFETY * err ** (-_PI_ALPHA)
            h = h_step * min(1.0, max(_MIN_FACTOR, factor))

    states = np.array(rows)
    times = np.array(row_times)
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
        "interacting": pot is not None,
    }
    return Trajectory(times, states, h1s, h2s, hint, meta)


def default_escape_radius(z0: JetState) -> float:
    return ESCAPE_RADIUS_FACTOR * max(1.0, float(np.linalg.norm(z0.as_array())))


# ---------------------------------------------------------------------------
# runaway classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunawayVerdict:
    bounded: bool
    escape_time: Optional[float]
    max_norm: float
    escape_radius: float


def runaway_scan(
    params: PUParams,
    w: Optional[Potential],
    z0: JetState,
    t_end: float,
    escape_radius: float,
    tol: float = DEFAULT_TOL,
    sample_rate: float = DEFAULT_SAMPLE_RATE,
) -> RunawayVerdict:
    """Integrate and classify a run as bounded or escaping.

    Deterministic for fixed settings; the verdict's escape_time is present
    exactly when the state norm reached escape_radius before t_end.
    """
    field = field_for(params, w)
    traj = integrate(params, field, z0, t_end, tol, sample_rate,
                     escape_radius=escape_radius)
    max_norm = float(np.max(np.linalg.norm(traj.states, axis=1)))
    return RunawayVerdict(
        bounded=not traj.escaped,
        escape_time=traj.meta["escape_time"],
        max_norm=max_norm,
        escape_radius=escape_radius,
    )


@dataclass(frozen=True)
class GridPoint:
    lam: float
    bounded: bool
    escape_time: Optional[float]


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
    sample_rate: float = DEFAULT_SAMPLE_RATE,
) -> ThresholdReport:
    """Locate the quartic-coupling threshold between bounded and escaping
    behavior for fixed initial data and horizon.

    A coarse geometric grid over the coupling range is classified first, then
    bisection refines the first bounded-to-escaping transition.  The reported
    threshold is a function of (t_end, escape_radius): longer horizons can
    only lower it.  A caveat flag is set when the grid classification is not
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

    def classify(lam: float) -> RunawayVerdict:
        pot = quartic(lam) if lam > 0.0 else None
        return runaway_scan(params, pot, z0, t_end, escape_radius,
                            tol=tol, sample_rate=sample_rate)

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

    grid = []
    for lam in grid_vals:
        v = classify(float(lam))
        grid.append(GridPoint(float(lam), v.bounded, v.escape_time))

    flags = [p.bounded for p in grid]
    if all(flags):
        raise ScanDegenerateError("all-bounded", grid)
    if not any(flags):
        raise ScanDegenerateError("all-unbounded", grid)

    monotone, trans = analyze_grid_flags(flags)
    settings = {
        "t_end": t_end, "escape_radius": escape_radius, "tol": tol,
        "sample_rate": sample_rate, "grid_points": int(len(grid_vals)),
        "bisect_iters": bisect_iters,
        "lambda_range": [lam_lo, lam_hi],
    }
    if trans is None:
        return ThresholdReport(None, tuple(grid), monotone, True, settings)

    lo, hi = grid[trans].lam, grid[trans + 1].lam
    for _ in range(bisect_iters):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if classify(mid).bounded:
            lo = mid
        else:
            hi = mid
    return ThresholdReport(0.5 * (lo + hi), tuple(grid), monotone,
                           not monotone, settings)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

CSV_HEADER = "t,q,qd,qdd,qddd,x1,x2,p1,p2,H1,H2,Hint"


def trajectory_csv_rows(params: PUParams, traj: Trajectory) -> list:
    """CSV rows (no header) with both charts and the three energy series."""
    a = params.alpha
    rows = []
    for i, t in enumerate(traj.times):
        q, qd, qdd, qddd = traj.states[i]
        p1 = -a * qd - qddd
        vals = [t, q, qd, qdd, qddd, q, qd, p1, qdd,
                traj.h1_series[i], traj.h2_series[i], traj.hint_series[i]]
        rows.append(",".join(repr(float(v)) for v in vals))
    return rows
