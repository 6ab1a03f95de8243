"""Trajectories, normal modes, conserved-quantity monitoring and runaway
detection.

Free motion is the superposition of two harmonic modes,

    q(t) = 2 Re[a1 exp(-i w1 t)] + 2 Re[a2 exp(-i w2 t)],

which gives a closed-form oracle for the integrator and an exact mode
decomposition of any jet state.  The integrator is a fixed-algorithm embedded
Runge-Kutta 5(4) pair with PI step-size control and deterministic stepping:
steps land exactly on the equidistant sample times, so repeated runs with the
same settings reproduce output bit for bit on one platform.  Coupling scans
classify many couplings at once with a lane-batched copy of the same step
controller (runaway_batch), which records no samples: it steps freely and
caps only its last step to t_end.

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

# Lanes of one runaway_batch kernel run: a longer coupling list runs in
# batches of this many, so its integrator state stays this small.
LANES_PER_BATCH = 32
# Bisection halvings one threshold_search refinement round classifies in a
# single batch: 2**5 - 1 = 31 candidate midpoints.
SPECULATION_DEPTH = 5
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


# Dormand-Prince 5(4) tableau (FSAL: the last stage is next step's first),
# as 0-d arrays: numpy multiplies an array by one faster than by a float.
_A21 = np.array(1 / 5)
_A31, _A32 = map(np.array, (3 / 40, 9 / 40))
_A41, _A42, _A43 = map(np.array, (44 / 45, -56 / 15, 32 / 9))
_A51, _A52, _A53, _A54 = map(np.array, (19372 / 6561, -25360 / 2187,
                                        64448 / 6561, -212 / 729))
_A61, _A62, _A63, _A64, _A65 = map(np.array, (9017 / 3168, -355 / 33,
                                              46732 / 5247, 49 / 176,
                                              -5103 / 18656))
_B1, _B3, _B4, _B5, _B6 = map(np.array, (35 / 384, 500 / 1113, 125 / 192,
                                         -2187 / 6784, 11 / 84))
_E1, _E3, _E4, _E5, _E6, _E7 = map(np.array, (71 / 57600, -71 / 16695,
                                              71 / 1920, -17253 / 339200,
                                              22 / 525, -1 / 40))

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_PI_ALPHA = 0.7 / 5.0
_PI_BETA = 0.4 / 5.0


def _error_norm(err, y_old, y_new, tol):
    scale = tol * (1.0 + np.maximum(np.abs(y_old), np.abs(y_new)))
    r = err / scale
    return math.sqrt(0.25 * float(r @ r))


def _initial_step(f, z0, tol):
    f0 = f(z0)
    scale = tol + tol * np.abs(z0)
    d0 = np.sqrt(np.mean((z0 / scale) ** 2))
    d1 = np.sqrt(np.mean((f0 / scale) ** 2))
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    z1 = z0 + h0 * f0
    f1 = f(z1)
    d2 = np.sqrt(np.mean(((f1 - f0) / scale) ** 2)) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1), f0


def _dp_stages(f, z, k1, hs):
    """Stages k2..k7 of one DP5(4) step of size hs from z, whose first stage
    is k1: returns (z_new, k7, error vector).  Purely elementwise, so it
    serves one state (4,) with a float hs and a batch of states (N, 4),
    each row with its own step in hs, alike."""
    k2 = f(z + hs * (_A21 * k1))
    k3 = f(z + hs * (_A31 * k1 + _A32 * k2))
    k4 = f(z + hs * (_A41 * k1 + _A42 * k2 + _A43 * k3))
    k5 = f(z + hs * (_A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4))
    k6 = f(z + hs * (_A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4
                     + _A65 * k5))
    z_new = z + hs * (_B1 * k1 + _B3 * k3 + _B4 * k4 + _B5 * k5 + _B6 * k6)
    k7 = f(z_new)
    err_vec = hs * (_E1 * k1 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6
                    + _E7 * k7)
    return z_new, k7, err_vec


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


def _check_run(z0: JetState, t_end, tol, escape_radius):
    """Preconditions shared by integrate and runaway_batch."""
    if not (1e-13 <= tol <= 1e-3):
        raise PreconditionViolatedError("tol must lie in [1e-13, 1e-3]")
    if not t_end > 0.0:
        raise PreconditionViolatedError("t_end must be positive")
    if escape_radius is not None and not (
            escape_radius > float(np.linalg.norm(z0.as_array()))):
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
    """
    _check_run(z0, t_end, tol, escape_radius)

    # hoist the flow out of the dataclass for the hot loop (autonomous system)
    A = field.linear
    pot = field.potential
    if pot is None:
        def f(z):
            return A @ z
    else:
        wp = pot.w_prime

        def f(z):
            dz = A @ z
            dz[3] -= wp(z[0])
            return dz

    ts = _sample_times(t_end, sample_rate)
    z = z0.as_array()
    t = 0.0

    h, k1 = _initial_step(f, z, tol)
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
        z_new, k7, err_vec = _dp_stages(f, z, k1, h_step)
        n_rhs += 6
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
class GridPoint:
    lam: float
    bounded: bool
    escape_time: Optional[float]


def _quartic_companion(A: np.ndarray, lam: np.ndarray):
    """Right-hand side over an (N, 4) batch of jet states: the companion
    flow A (shift rows, last row A[3]) minus lam q**3 on qddd, lane k with
    coupling lam[k]."""
    a30, a32 = float(A[3, 0]), float(A[3, 2])

    def f(y):
        q = y[:, 0]
        dz = np.empty_like(y)
        dz[:, :3] = y[:, 1:]
        dz[:, 3] = a30 * q + a32 * y[:, 2] - lam * (q * q * q)
        return dz

    return f


def _escape_times(A, lams, z0, t_end, escape_radius, tol) -> list:
    """Escape time of each lane of one kernel run, None when it stays
    bounded up to t_end: integrate's step controller over an (N, 4) state,
    with no sample grid.

    Each lane carries its own t, h, err_prev and FSAL stage k1, and caps
    only the step that reaches t_end; a lane that escapes or reaches t_end
    leaves the arrays.  A lane's escape time is the end of its first
    accepted step with |z| >= escape_radius.  All arithmetic is elementwise
    per lane and the error norm sums in a fixed order, so lane k is bitwise
    the run of lams[k] alone.
    """
    n = len(lams)
    z = np.tile(z0, (n, 1))
    h = np.empty(n)
    k1 = np.empty((n, 4))
    for i in range(n):
        h[i], k1[i] = _initial_step(_quartic_companion(A, lams[i:i + 1]),
                                    z[i:i + 1], tol)
    f = _quartic_companion(A, lams)
    # the capping threshold of t_end, as integrate computes it
    reach = t_end - 1e-14 * max(1.0, t_end)
    lane = np.arange(n)
    t = np.zeros(n)
    err_prev = np.full(n, 1e-4)
    escape = [None] * n

    while len(lane):
        capped = t + h >= reach
        h_step = np.where(capped, t_end - t, h)
        small = h_step < 1e-14 * np.maximum(1.0, t)
        if np.count_nonzero(small):
            raise StepUnderflowError(float(t[small.argmax()]))

        # a full (N, 4) step array multiplies faster than an (N, 1) one
        z_new, k7, err_vec = _dp_stages(f, z, k1, h_step[:, None].repeat(4, 1))
        r = err_vec / (tol * (1.0 + np.maximum(np.abs(z), np.abs(z_new))))
        err = np.sqrt(0.25 * (r * r).sum(-1))
        ok = err <= 1.0
        err_b = np.maximum(err, 1e-10)
        # fmax and fmin drop a NaN factor, as integrate's max and min do
        grow = _SAFETY * err_b ** (-_PI_ALPHA) * err_prev ** _PI_BETA
        h_ok = h_step * np.fmin(_MAX_FACTOR, np.fmax(_MIN_FACTOR, grow))
        t_ok = np.where(capped, t_end, t + h_step)
        if np.count_nonzero(ok) == len(ok):
            t, z, k1, err_prev, h = t_ok, z_new, k7, err_b, h_ok
        else:
            shrink = _SAFETY * err ** (-_PI_ALPHA)
            h = np.where(ok, h_ok,
                         h_step * np.fmin(1.0, np.fmax(_MIN_FACTOR, shrink)))
            t = np.where(ok, t_ok, t)
            z = np.where(ok[:, None], z_new, z)
            k1 = np.where(ok[:, None], k7, k1)
            err_prev = np.where(ok, err_b, err_prev)

        escaped = np.sqrt((z * z).sum(-1)) >= escape_radius
        done = escaped | (ok & capped)
        if np.count_nonzero(done):
            for i in np.flatnonzero(escaped):
                escape[lane[i]] = float(t[i])
            keep = ~done
            lane, lams, z, k1 = lane[keep], lams[keep], z[keep], k1[keep]
            t, h, err_prev = t[keep], h[keep], err_prev[keep]
            f = _quartic_companion(A, lams)
    return escape


def runaway_batch(
    params: PUParams,
    lams: Sequence[float],
    z0: JetState,
    t_end: float,
    escape_radius: float,
    tol: float = DEFAULT_TOL,
) -> tuple:
    """Classify each quartic coupling in lams as bounded or escaping up to
    t_end, in lane-batched kernel runs of at most LANES_PER_BATCH couplings.

    The kernel keeps integrate's tableau, PI control, initial step,
    step-underflow check and escape test, per lane, but records no samples:
    only the last step is capped, to t_end.  The verdict is a function of
    (t_end, escape_radius, tol) alone.  It agrees with
    integrate(..., escape_radius=...) except where the different step
    sequence moves an escape across t_end or a marginal run across the
    radius; escape times differ by part of a step.  Lane k's GridPoint is
    bitwise that of a batch of lams[k] alone.  Raises StepUnderflowError
    when any lane underflows.
    """
    _check_run(z0, t_end, tol, escape_radius)
    A = core.flow_matrix(params)
    lams = [float(lam) for lam in lams]
    points = []
    for start in range(0, len(lams), LANES_PER_BATCH):
        batch = lams[start:start + LANES_PER_BATCH]
        times = _escape_times(A, np.array(batch), z0.as_array(), t_end,
                              escape_radius, tol)
        points += [GridPoint(lam, t is None, t) for lam, t in zip(batch, times)]
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

    A coarse geometric grid over the coupling range is classified first, in
    runaway_batch kernel runs, then bisect_iters bisection halvings refine
    the first bounded-to-escaping transition, SPECULATION_DEPTH halvings per
    batch (see _speculative_bisection).  The reported threshold is a
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

    lo, hi = _speculative_bisection(
        grid[trans].lam, grid[trans + 1].lam, bisect_iters,
        lambda lams: [p.bounded for p in classify(lams)])
    return ThresholdReport(0.5 * (lo + hi), grid, monotone, not monotone,
                           settings)


def _speculative_bisection(lo: float, hi: float, iters: int, bounded):
    """The bracket [lo, hi] after `iters` bisection halvings towards the
    bounded-to-escaping transition, with the classifications made
    SPECULATION_DEPTH halvings at a time.

    A round lays out the tree of the 2**k - 1 midpoints the next k halvings
    can visit (heap order: node j's escaping child is 2j+1, its bounded
    child 2j+2), classifies them with one call of bounded (couplings ->
    flags) and walks the bisection path through the tree.  Each midpoint is
    0.5 * (lo + hi) of the bracket sequential bisection would hold there, and
    a midpoint that no longer splits its bracket stops the walk, so the
    visited midpoints, the choices and the bracket are sequential
    bisection's.
    """
    while iters > 0:
        k = min(SPECULATION_DEPTH, iters)
        iters -= k
        brackets, mids = {0: (lo, hi)}, {}
        for j in range(2 ** k - 1):
            if j in brackets:
                a, b = brackets[j]
                mid = 0.5 * (a + b)
                if not (mid <= a or mid >= b):
                    mids[j] = mid
                    brackets[2 * j + 1] = (a, mid)
                    brackets[2 * j + 2] = (mid, b)
        if 0 not in mids:
            return lo, hi
        flags = dict(zip(mids, bounded(list(mids.values()))))
        j = 0
        for _ in range(k):
            if j not in mids:
                return lo, hi
            if flags[j]:
                lo, j = mids[j], 2 * j + 2
            else:
                hi, j = mids[j], 2 * j + 1
    return lo, hi


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
