"""Trajectories, normal modes, conserved-quantity monitoring and runaway
detection.

Free motion is the superposition of two harmonic modes,

    q(t) = 2 Re[a1 exp(-i w1 t)] + 2 Re[a2 exp(-i w2 t)],

which gives a closed-form oracle for the integrator and an exact mode
decomposition of any jet state.  Every run is an integrate call, a sampled
trajectory or one coupling of a scan (threshold_search, with t_end as its
only sample): one Dormand-Prince 5(4) run with PI step-size control, written
on Python floats because numpy call overhead outweighs the arithmetic on a
4-vector.  For the same reason its step loop calls no max, min or abs: on
four floats a builtin call costs more than the arithmetic it guards, so each
is written as the conditional expression that returns what the builtin
returns.  The run is written for the jet-chart field, z' = (qd, qdd, qddd,
a30 q + a32 qdd - W'(q)), the only one integrate accepts.  Its force reads
the positions (q, qdd) only, so the run takes the method's Runge-Kutta-Nystrom
form: a stage is two position sums and one force, with no stage velocities
and no right-hand-side call.  States move between charts through
ostro_jacobian.  The run shortens a step only to land on a stop, one of
integrate's equidistant sample times, and a shortened step does not hand its
small size on: the next step starts from the larger of the controller's
proposal and the size the stop cut short.  Stepping is deterministic, so
repeated runs with the same settings reproduce output bit for bit on one
platform.  numpy is imported only where arrays are built: by
closed_form_states and by a Trajectory's arrays when they are first read,
so a scan, which reads only its runs' meta, imports none.

An interaction potential W destabilizes the model: the quartic family
W(q) = lam q^4 / 4 keeps trajectories bounded below a coupling threshold and
drives them to escape above it, while H1 - W stays conserved and the second
Hamiltonian H2 drifts, witnessing the broken second structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .config import (
    DEFAULT_SAMPLE_RATE,
    DEFAULT_TOL,
    ESCAPE_RADIUS_FACTOR,
    SCAN_BISECT_ITERS,
    SCAN_GRID_POINTS,
)
from .errors import (
    ChartMismatchError,
    PreconditionViolatedError,
    ScanDegenerateError,
    StepUnderflowError,
)
from .model import (
    JetState,
    Potential,
    PUParams,
    VectorField,
    _flow_entries,
    free_vector_field,
)

# Largest t_end / sample_rate integrate accepts; the sample grid is
# allocated up front.
MAX_SAMPLES = 10 ** 7
# Largest grid_points threshold_search accepts: each grid coupling is one
# integration of about 17 ms at the reference settings, so about 3 minutes.
MAX_GRID_POINTS = 10 ** 4


# ---------------------------------------------------------------------------
# normal modes
# ---------------------------------------------------------------------------

def mode_decompose(params: PUParams, z: JetState) -> tuple:
    """The complex mode amplitudes (a1, a2) of z: two 2x2 systems match
    (q, qdd) to their real parts and (qd, qddd) to their imaginary parts at
    t = 0."""
    w1, w2 = params.omega1, params.omega2
    w1s, w2s = w1 * w1, w2 * w2
    d = w2s - w1s
    re1 = (w2s * z.q + z.qdd) / (2.0 * d)
    re2 = -(w1s * z.q + z.qdd) / (2.0 * d)
    im1 = (w2s * z.qd + z.qddd) / (2.0 * w1 * d)
    im2 = -(w1s * z.qd + z.qddd) / (2.0 * w2 * d)
    return complex(re1, im1), complex(re2, im2)


def closed_form_states(params: PUParams, m: tuple, times):
    """Exact free trajectory (N x 4) from the mode amplitudes m = (a1, a2)."""
    import numpy as np
    out = np.empty((len(times), 4))
    for k, (w, a) in enumerate(zip((params.omega1, params.omega2), m)):
        phase = np.exp(-1j * w * np.asarray(times, dtype=float))
        for n in range(4):
            col = 2.0 * np.real(a * (-1j * w) ** n * phase)
            if k == 0:
                out[:, n] = col
            else:
                out[:, n] += col
    return out


def mode_energy(params: PUParams, m: tuple) -> dict:
    """Per-mode energies e1 = 2 R1 |a1|^2, e2 = -2 R2 |a2|^2 of m = (a1, a2)
    with R_i = w_i^2 (w1^2 - w2^2); total equals H1 on the reconstructed
    state.

    For w1 < w2 the first mode carries negative energy: it is the ghost
    sector of the model.
    """
    w1s, w2s = params.omega1 ** 2, params.omega2 ** 2
    r1 = w1s * (w1s - w2s)
    r2 = w2s * (w1s - w2s)
    a1, a2 = m
    try:        # a float power raises where it overflows
        e1 = 2.0 * r1 * abs(a1) ** 2
        e2 = -2.0 * r2 * abs(a2) ** 2
    except OverflowError:
        raise OverflowError(
            "mode energy is not finite: |a_i|^2 in e_i = +-2 R_i |a_i|^2 "
            "overflows") from None
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
        return free_vector_field(params)
    return VectorField(_flow_entries(params.alpha, params.beta), potential)


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

class Trajectory:
    """Sample times, jet states (N x 4), the energies H1, H2 and H1 - W(q)
    (hint_series, H1 for a free run) at each sample, and the run's meta.

    Trajectory(times, states, h1_series, h2_series, hint_series, meta) holds
    the arrays it is given.  integrate's holds its run's floats instead and
    builds each array when it is first read, so a caller that reads only
    meta, such as threshold_search, builds none and imports no numpy.
    Trajectories are immutable.
    """

    def __init__(self, times, states, h1_series, h2_series, hint_series,
                 meta: dict):
        vars(self).update(times=times, states=states, h1_series=h1_series,
                          h2_series=h2_series, hint_series=hint_series,
                          meta=meta)

    @classmethod
    def _of_run(cls, params: PUParams, potential: Optional[Potential],
                times: list, rows: list, meta: dict) -> "Trajectory":
        traj = cls.__new__(cls)
        vars(traj).update(_run=(params, potential, times, rows), meta=meta)
        return traj

    def __setattr__(self, name, value):
        raise AttributeError(f"Trajectory is immutable: cannot set {name!r}")

    @cached_property
    def times(self):
        import numpy as np
        return np.array(self._run[2])

    @cached_property
    def states(self):
        import numpy as np
        return np.array(self._run[3])

    def _energy(self, observable):
        import numpy as np
        S = observable(self._run[0]).coeffs
        return 0.5 * np.einsum("ni,ij,nj->n", self.states, S, self.states)

    @cached_property
    def h1_series(self):
        from .core import h1
        return self._energy(h1)

    @cached_property
    def h2_series(self):
        from .core import h2
        return self._energy(h2)

    @cached_property
    def hint_series(self):
        import numpy as np
        pot = self._run[1]
        if pot is None:
            return self.h1_series.copy()
        return self.h1_series - np.array([pot.w(q) for q in self.states[:, 0]])

    def drift(self, which: str = "h1") -> float:
        import numpy as np
        series = {"h1": self.h1_series, "h2": self.h2_series,
                  "hint": self.hint_series}[which]
        return float(np.max(np.abs(series - series[0])))

    @property
    def escaped(self) -> bool:
        return self.meta.get("escape_time") is not None


# Dormand-Prince 5(4) in its induced Runge-Kutta-Nystrom form (Hairer,
# Norsett and Wanner, Solving ODEs I, II.14): nodes c, position weights
# Abar = A^2, bbar = b A and ebar = e A, velocity weights b and e.  FSAL:
# stage 7 is x_new.  abar_{i,i-1} = bbar_2 = bbar_6 = ebar_2 = 0.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9           # c_6 = c_7 = 1
_AB31, _AB41, _AB42 = 9 / 200, -12 / 25, 4 / 5
_AB51, _AB52, _AB53 = -12248 / 6561, 7208 / 2187, -6784 / 6561
_AB61, _AB62, _AB63, _AB64 = -533 / 264, 91 / 22, -56 / 33, 7 / 88
_BB1, _BB3, _BB4, _BB5 = 35 / 384, 50 / 159, 25 / 192, -243 / 6784
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_EB1, _EB3, _EB4, _EB5, _EB6 = (611 / 230400, -514 / 83475, 391 / 38400,
                                -4617 / 1356800, -11 / 3360)
_E1, _E3, _E4, _E5, _E6, _E7 = (71 / 57600, -71 / 16695, 71 / 1920,
                                -17253 / 339200, 22 / 525, -1 / 40)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_PI_ALPHA = 0.7 / 5.0
_PI_BETA = 0.4 / 5.0


def _no_force(q):
    """W' of a free field."""
    return 0.0


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


def _dp54(a30, a32, w_prime, y0, stops, tol, escape_radius):
    """One adaptive DP5(4) run with PI step control on Python floats, for
    the jet-chart field z' = (qd, qdd, qddd, a30 q + a32 qdd - w_prime(q)).

    integrate, the one caller, reduces its field to (a30, a32, w_prime) and
    passes y0 as a 4-tuple of floats, stops as the increasing positive
    sample times the run must land on (the last ends it), tol and
    escape_radius as floats (math.inf for no escape test).  A step that
    would reach a stop within 1e-14 max(1, |stop|) is shortened to end on
    it; such a capped step is exempt from the step-underflow check, since
    its size is the positive gap to the stop.  After an accepted capped step
    the next step size is the larger of the controller's proposal from the
    capped size and the proposal h the cap shortened (Boost.Odeint's
    integrate_times keeps its step the same way); err_prev is updated as
    after any accepted step.  The run ends at the last stop or at the end
    of the first accepted step with |z| >= escape_radius.

    The field is second order: its positions x = (q, qdd) have velocities
    v = (qd, qddd) and a force G(x) = (qdd, a30 q + a32 qdd - w_prime(q)),
    so the method runs in its Nystrom form and forms no stage velocities.
    Stage i is X_i = x + c_i h v + h^2 sum_{k <= i-2} abar_ik G_k and one
    force, with no right-hand-side call; the step is x + h v +
    h^2 sum bbar_k G_k and v + h sum b_k G_k, and its error
    h^2 sum ebar_k G_k on x (sum e_k = 0 cancels h v) and h sum e_k G_k on
    v.  The FSAL force is G_1 = (q2, f3), and the accepted step's |p_i| are
    the next step's |q_i|.  A free field passes w_prime = _no_force:
    x - 0.0 == x for every float, -0.0, inf and NaN included.

    Returns (times, rows, escape_time, n_steps, n_rhs, n_rejected): the time
    and state after every capped step and after the escaping step, the
    escape time or None, and the step and right-hand-side counts.  Raises
    StepUnderflowError when an uncapped step falls below 1e-14 max(1, t),
    or when a capped step is rejected and its shrunk size would still be
    capped, since the retry would repeat the rejected step exactly.
    """
    sqrt = math.sqrt
    C2, C3, C4, C5 = _C2, _C3, _C4, _C5
    AB31, AB41, AB42, AB51, AB52 = _AB31, _AB41, _AB42, _AB51, _AB52
    AB53, AB61, AB62, AB63, AB64 = _AB53, _AB61, _AB62, _AB63, _AB64
    BB1, BB3, BB4, BB5 = _BB1, _BB3, _BB4, _BB5
    B1, B3, B4, B5, B6 = _B1, _B3, _B4, _B5, _B6
    EB1, EB3, EB4, EB5, EB6 = _EB1, _EB3, _EB4, _EB5, _EB6
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
        # than the float arithmetic it stands for, so max(a, b) is written
        # (b if b > a else a), min(a, b) is (b if b < a else a)
        while True:
            capped = t + h >= reach
            if capped:
                hs = target - t
            else:
                hs = h
                if hs < 1e-14 * (t if t > 1.0 else 1.0):
                    raise StepUnderflowError(t)

            # stage k: positions (k0, k2), force k3 and G_k = (k2, k3)
            hv0, hv2, hh = hs * q1, hs * q3, hs * hs
            b0 = q0 + C2 * hv0
            b2 = q2 + C2 * hv2
            b3 = a30 * b0 + a32 * b2 - w_prime(b0)
            c0 = q0 + C3 * hv0 + hh * (AB31 * q2)
            c2 = q2 + C3 * hv2 + hh * (AB31 * f3)
            c3 = a30 * c0 + a32 * c2 - w_prime(c0)
            d0 = q0 + C4 * hv0 + hh * (AB41 * q2 + AB42 * b2)
            d2 = q2 + C4 * hv2 + hh * (AB41 * f3 + AB42 * b3)
            d3 = a30 * d0 + a32 * d2 - w_prime(d0)
            e0 = q0 + C5 * hv0 + hh * (AB51 * q2 + AB52 * b2 + AB53 * c2)
            e2 = q2 + C5 * hv2 + hh * (AB51 * f3 + AB52 * b3 + AB53 * c3)
            e3 = a30 * e0 + a32 * e2 - w_prime(e0)
            g0 = q0 + hv0 + hh * (AB61 * q2 + AB62 * b2 + AB63 * c2
                                  + AB64 * d2)
            g2 = q2 + hv2 + hh * (AB61 * f3 + AB62 * b3 + AB63 * c3
                                  + AB64 * d3)
            g3 = a30 * g0 + a32 * g2 - w_prime(g0)
            p0 = q0 + hv0 + hh * (BB1 * q2 + BB3 * c2 + BB4 * d2 + BB5 * e2)
            p2 = q2 + hv2 + hh * (BB1 * f3 + BB3 * c3 + BB4 * d3 + BB5 * e3)
            p1 = q1 + hs * (B1 * q2 + B3 * c2 + B4 * d2 + B5 * e2 + B6 * g2)
            p3 = q3 + hs * (B1 * f3 + B3 * c3 + B4 * d3 + B5 * e3 + B6 * g3)
            s3 = a30 * p0 + a32 * p2 - w_prime(p0)
            n0 = -p0 if p0 < 0.0 else p0
            n1 = -p1 if p1 < 0.0 else p1
            n2 = -p2 if p2 < 0.0 else p2
            n3 = -p3 if p3 < 0.0 else p3
            r0 = (hh * (EB1 * q2 + EB3 * c2 + EB4 * d2 + EB5 * e2 + EB6 * g2)
                  / (tol * (1.0 + (n0 if n0 > m0 else m0))))
            r1 = (hs * (E1 * q2 + E3 * c2 + E4 * d2 + E5 * e2 + E6 * g2
                        + E7 * p2) / (tol * (1.0 + (n1 if n1 > m1 else m1))))
            r2 = (hh * (EB1 * f3 + EB3 * c3 + EB4 * d3 + EB5 * e3 + EB6 * g3)
                  / (tol * (1.0 + (n2 if n2 > m2 else m2))))
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
            h_next = hs * (factor if factor < max_factor else max_factor)
            # a capped step hands on the proposal h it was shortened from
            # when that is the larger
            h = h_next if not capped or h_next > h else h
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


def _sample_times(t_end: float, sample_rate: float) -> list:
    """Sample times 0, sample_rate, 2 sample_rate, ... and t_end last: a grid
    time within 1e-9 max(1, t_end) below t_end becomes t_end.  Time k is the
    float k * sample_rate, which is np.arange(n + 1) * sample_rate's."""
    if not sample_rate > 0.0:
        raise PreconditionViolatedError("sample_rate must be positive")
    if not t_end / sample_rate <= MAX_SAMPLES:
        raise PreconditionViolatedError(
            f"t_end / sample_rate must not exceed {MAX_SAMPLES}")
    n = int(math.floor(t_end / sample_rate + 1e-9))
    ts = [k * sample_rate for k in range(n + 1)]
    if n and ts[-1] >= t_end - 1e-9 * max(1.0, t_end):
        ts[-1] = t_end
    else:
        ts.append(t_end)
    return ts


def _floats(z: JetState) -> tuple:
    """z's components as Python floats."""
    return float(z.q), float(z.qd), float(z.qdd), float(z.qddd)


def _state_norm(z0: JetState) -> float:
    """|z0| on Python floats, computed as the lane's escape test computes |z|.
    Raises OverflowError when it is not finite (a state too large to
    square)."""
    q0, q1, q2, q3 = _floats(z0)
    norm = math.sqrt(q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3)
    if not math.isfinite(norm):
        raise OverflowError("|z0| is not finite in floating point")
    return norm


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
    A capped step does not shrink the steps after it: the next step size is
    the larger of the controller's proposal and the size the cap shortened.
    H1, H2 and the interacting energy H1 - W are recorded per sample.  When
    escape_radius (which must exceed |z0|) is set and |z| reaches it,
    integration terminates early and the escape time is recorded in meta.
    meta also counts accepted steps (n_steps), rejected steps (n_rejected)
    and right-hand-side evaluations, n_rhs = 2 + 6 (n_steps + n_rejected).

    field is the jet-chart field of params, free_vector_field(params) or
    field_for(params, potential).  Raises ChartMismatchError when its linear
    part is not exactly flow_matrix(params).
    """
    A = _flow_entries(params.alpha, params.beta)
    if field.entries != A:
        raise ChartMismatchError(
            "the field's linear part is not flow_matrix(params); integrate "
            "runs the jet-chart field of its params (move states between "
            "charts with ostro_jacobian)")
    if not (1e-13 <= tol <= 1e-3):
        raise PreconditionViolatedError("tol must lie in [1e-13, 1e-3]")
    if not t_end > 0.0:
        raise PreconditionViolatedError("t_end must be positive")
    if escape_radius is not None and not escape_radius > _state_norm(z0):
        raise PreconditionViolatedError("escape_radius must exceed |z0|")
    pot = field.potential
    y0 = _floats(z0)
    stops = _sample_times(t_end, sample_rate)[1:]
    radius = math.inf if escape_radius is None else float(escape_radius)
    a30, _, a32, _ = A[3]
    row_times, rows, escape_time, n_steps, n_rhs, n_rejected = _dp54(
        a30, a32, _no_force if pot is None else pot.w_prime, y0, stops,
        float(tol), radius)

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
    return Trajectory._of_run(params, pot, [0.0, *row_times], [y0, *rows],
                              meta)


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
    refine: dict            # the bisection's runs, n_steps and n_rejected


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

    Each coupling is one run, integrate(params, field_for(params,
    quartic(lam)), z0, t_end, tol, sample_rate=t_end, escape_radius=
    escape_radius), whose only sample is t_end; its GridPoint takes
    escape_time, n_steps and n_rejected from the run's meta.  A coarse
    geometric grid over the coupling range (_coupling_grid) is classified
    first, then bisect_iters bisection halvings refine the first
    bounded-to-escaping transition (see _bisect), stopping early once the
    bracket no longer splits.  The reported threshold is a function of
    (t_end, escape_radius, tol): longer horizons can only lower it.  A
    caveat flag is set when the grid classification is not monotone in the
    coupling.  Raises
    ScanDegenerateError when every grid point is bounded or every one
    escapes.  The report's refine entry sums the bisection's runs: their
    count, n_steps and n_rejected.
    """
    lam_lo, lam_hi = float(lambda_range[0]), float(lambda_range[1])
    if lam_lo < 0.0 or lam_hi < lam_lo:
        raise PreconditionViolatedError(
            "lambda range must satisfy 0 <= lo <= hi")
    if grid_points < 2:
        raise PreconditionViolatedError("grid_points must be at least 2")
    if grid_points > MAX_GRID_POINTS:
        raise PreconditionViolatedError(
            f"grid_points must not exceed {MAX_GRID_POINTS}")
    if bisect_iters < 0:
        raise PreconditionViolatedError("bisect_iters must be non-negative")

    def classify(lam: float) -> GridPoint:
        meta = integrate(params, field_for(params, quartic(lam)), z0, t_end,
                         tol, sample_rate=t_end,
                         escape_radius=escape_radius).meta
        t = meta["escape_time"]
        return GridPoint(lam, t is None, t, meta["n_steps"],
                         meta["n_rejected"])

    grid_vals = _coupling_grid(lam_lo, lam_hi, grid_points)
    grid = tuple(classify(lam) for lam in grid_vals)

    flags = [p.bounded for p in grid]
    if all(flags):
        raise ScanDegenerateError("all-bounded", grid)
    if not any(flags):
        raise ScanDegenerateError("all-unbounded", grid)

    monotone, trans = analyze_grid_flags(flags)
    settings = {
        "t_end": t_end, "escape_radius": escape_radius, "tol": tol,
        "grid_points": len(grid_vals), "bisect_iters": bisect_iters,
        "lambda_range": [lam_lo, lam_hi],
    }
    runs = []

    def bounded(lam) -> bool:
        runs.append(classify(lam))
        return runs[-1].bounded

    lambda_star = None
    if trans is not None:
        lo, hi = _bisect(grid[trans].lam, grid[trans + 1].lam, bisect_iters,
                         bounded)
        lambda_star = 0.5 * (lo + hi)
    refine = {"runs": len(runs),
              "n_steps": sum(p.n_steps for p in runs),
              "n_rejected": sum(p.n_rejected for p in runs)}
    return ThresholdReport(lambda_star, grid, monotone,
                           trans is None or not monotone, settings, refine)


def _coupling_grid(lo: float, hi: float, n: int) -> list:
    """The scan's couplings: lo alone when lo == hi; for lo = 0, 0 and an
    n - 1 point geometric grid from hi * 1e-3 to hi; else an n point
    geometric grid from lo to hi (see _geomspace)."""
    if hi == lo:
        return [lo]
    if lo == 0.0:
        if hi * 1e-3 == 0.0:
            raise PreconditionViolatedError("lambda_max underflows the grid")
        return [0.0, *_geomspace(hi * 1e-3, hi, n - 1)]
    return _geomspace(lo, hi, n)


def _geomspace(lo: float, hi: float, n: int) -> list:
    """n >= 1 floats from 0 < lo < hi to hi in geometric progression, by
    numpy.geomspace's formula: point k is 10 ** (log10(lo) + k * step), step
    (log10(hi) - log10(lo)) / (n - 1), and the end points are lo and hi
    exactly.  One point is hi.  libm's log10 and power can differ from
    numpy's in the last bit, so an inner point can differ from
    numpy.geomspace's in the last bits.  Raises OverflowError where a float
    power overflows, which rounding allows next to the largest float."""
    if n == 1:
        return [hi]
    a = math.log10(lo)
    step = (math.log10(hi) - a) / (n - 1)
    try:
        inner = [10.0 ** (a + k * step) for k in range(1, n - 1)]
    except OverflowError:
        raise OverflowError(f"a coupling grid point between {lo!r} and "
                            f"{hi!r} overflows") from None
    return [lo, *inner, hi]


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
    """CSV rows (no header) with both charts and the three energy series.

    Each value is its float's repr.  x1 = q, x2 = qd and p2 = qdd repeat
    jet-chart columns, so q, qd and qdd are formatted once and their strings
    reused: 9 repr conversions a row, not 12.
    """
    a = float(params.alpha)
    rows = []
    for t, (q, qd, qdd, qddd), h1, h2, hint in zip(
            traj.times.tolist(), traj.states.tolist(), traj.h1_series.tolist(),
            traj.h2_series.tolist(), traj.hint_series.tolist()):
        p1 = -a * qd - qddd
        q, qd, qdd = repr(q), repr(qd), repr(qdd)
        rows.append(f"{t!r},{q},{qd},{qdd},{qddd!r},{q},{qd},{p1!r},{qdd},"
                    f"{h1!r},{h2!r},{hint!r}")
    return rows
