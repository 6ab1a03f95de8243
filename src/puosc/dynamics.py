"""Trajectories, normal modes, conserved-quantity monitoring and runaway
detection.

Free motion is the superposition of two harmonic modes,

    q(t) = 2 Re[a1 exp(-i w1 t)] + 2 Re[a2 exp(-i w2 t)],

which gives a closed-form oracle for the integrator and an exact mode
decomposition of any jet state.  Every run (integrate, a sampled trajectory
or one coupling of threshold_search) is one adaptive run of the Stormer rule
extrapolated in h^2 (_gbs) on the jet-chart field, whose force reads the
positions (q, qdd) only.  Its steps do not depend on the samples: a sample
inside a step is read off the step's interpolant of the same order
(_dense).  The lane is written on Python floats, since numpy call overhead
outweighs the arithmetic on a 4-vector, and is deterministic, so repeated
runs reproduce output bit for bit on one platform.  numpy is imported only
where arrays are built, batches of interpolants included, so a scan, whose
runs have one sample, imports none.

An interaction potential W destabilizes the model: the quartic family
W(q) = lam q^4 / 4 keeps trajectories bounded below a coupling threshold and
drives them to escape above it, while H1 - W stays conserved and the second
Hamiltonian H2 drifts, witnessing the broken second structure.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import cache, cached_property
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
# integration of about 5 ms at the reference settings, so about a minute.
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

def quartic(lam: float) -> Optional[Potential]:
    """Quartic coupling W(q) = lam q^4 / 4, and None, the free field, at
    lam = 0: a zero coupling runs as the free field wherever it is given.

    With the library's sign convention the interacting jerk equation is
    q'''' + alpha q'' + beta q + lam q^3 = 0; lam > 0 is the destabilizing
    direction, with runaway above a finite coupling threshold.  Raises
    PreconditionViolatedError unless lam >= 0.
    """
    lam = float(lam)
    if not lam >= 0.0:
        raise PreconditionViolatedError("lambda must be non-negative")
    if lam == 0.0:
        return None
    return Potential(
        lambda q: 0.25 * lam * q ** 4,      # W
        _Cubic(lam),                        # W'
        lambda q: 3.0 * lam * q ** 2,       # W''
        f"quartic(lam={lam!r})",
    )


@dataclass(frozen=True)
class _Cubic:
    """The quartic's W'(q) = lam q^3, holding the lam that _gbs inlines."""
    lam: float
    def __call__(self, q):
        return self.lam * (q * q * q)


def field_for(params: PUParams, potential: Optional[Potential]) -> VectorField:
    """Free or interacting vector field for an optional potential."""
    if potential is None:
        return free_vector_field(params)
    return VectorField(_flow_entries(params.alpha, params.beta), potential)


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

class Trajectory:
    """One run: its params, its potential (None for a free run), its sample
    times and jet states as Python floats, and its meta.

    The arrays times, states (N x 4) and the energies H1, H2 and H1 - W(q)
    (hint_series, H1 for a free run) at each sample are built when first
    read, so a caller that reads only meta, such as threshold_search, builds
    none and imports no numpy.  Trajectories are immutable.
    """

    def __init__(self, params: PUParams, potential: Optional[Potential],
                 times: list, rows: list, meta: dict):
        vars(self).update(_params=params, _potential=potential,
                          _times=times, _rows=rows, meta=meta)

    def __setattr__(self, name, value):
        raise AttributeError(f"Trajectory is immutable: cannot set {name!r}")

    @cached_property
    def times(self):
        import numpy as np
        return np.array(self._times)

    @cached_property
    def states(self):
        import numpy as np
        return np.array(self._rows)

    def _energy(self, observable):
        import numpy as np
        S = observable(self._params).coeffs
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
        pot = self._potential
        if pot is None:
            return self.h1_series.copy()
        return self.h1_series - np.array([pot.w(q) for q in self.states[:, 0]])

    def drift(self, which: str = "h1") -> float:
        import numpy as np
        with np.errstate(over="ignore", invalid="ignore"):  # inf, NaN
            series = getattr(self, f"{which}_series")
            return float(np.max(np.abs(series - series[0])))

    @property
    def escaped(self) -> bool:
        return self.meta.get("escape_time") is not None


# The Stormer rule extrapolated in h^2 (Gragg-Bulirsch-Stoer; Hairer, Norsett
# and Wanner, Solving ODEs I, II.9 and II.14).  Column j takes n_j substeps
# and costs n_j forces; Neville's rule, with the coefficients 1 / ((n_j /
# n_{j-l})^2 - 1) for l = i + 1, gives T_jj, of order 2j + 2.
_STEPS = (2, 4, 6, 8, 10, 12)
_NEVILLE = tuple(tuple((i, (j - i) ** 2 / ((j + 1) ** 2 - (j - i) ** 2))
                       for i in range(j)) for j in range(len(_STEPS)))
# the step factor after column j is _SAFETY err^(-1 / (2j + 1)), clipped
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.94, 0.2, 4.0
# Column j records qdd and the force of its substep i, 0 < i <= n_j, at
# _OFFSETS[j] + i for the step's interpolant; the step's start is at 0.
_OFFSETS = tuple(sum(_STEPS[:j]) for j in range(len(_STEPS)))
# column j: n_j, the records of its inner substeps, its Neville pairs, j,
# -1 / (2j + 1), whether a capped step may stop there, whether it is the
# last, and o + n_j, the record of its last substep, which is also the
# number of forces of columns 0..j
_COLUMNS = tuple((n, range(o + 1, o + n), _NEVILLE[j], j, -1.0 / (2 * j + 1),
                  j >= 2, j == len(_STEPS) - 1, o + n)
                 for j, (n, o) in enumerate(zip(_STEPS, _OFFSETS)))


def _extrapolation(columns, j, r):
    """(numerator, denominator) of n_j^r times column j's weight in the
    extrapolation to h = 0 over the columns: prod over l != j of n_j^2 /
    (n_j^2 - n_l^2), the Lagrange weight of h_j^2."""
    n = _STEPS[j]
    num, den = n ** r, 1
    for l in columns:
        if l != j:
            num, den = num * n * n, den * (n * n - _STEPS[l] ** 2)
    return num, den


def _difference(r):
    """The centered difference of order r >= 1 at substep m as (i, numerator,
    denominator, sign): the sum over i of c_i (G_{m+i} + sign G_{m-i}), sign
    1 for even r and -1 for odd r, which is (delta^(r-1) G_{m+1} -
    delta^(r-1) G_{m-1}) / 2.  G_m's coefficient is split over G_m + G_m."""
    s = r // 2
    if r % 2 == 0:
        return [(i, (-1) ** (s + i) * math.comb(2 * s, s + i), 2 if i == 0
                 else 1, 1) for i in range(s + 1)]
    return [(i, (-1) ** (s + i + 1) * (math.comb(2 * s, s + i - 1)
                                       - math.comb(2 * s, s + i + 1)), 2, -1)
            for i in range(1, s + 2)]


@cache
def _dense_table(k):
    """The weights of _dense's sums for steps accepted at column k: (i,
    weights) rows for the qdd records, giving S_0, S_1, S_2, and for the
    force records, giving S_3, ..., S_{2k+1}, weights an array.  Each weight
    is an exact ratio rounded once.

    Column j's midpoint substep m = n_j / 2 has x_m = q + m h qd + h^2 (m/2
    qdd + sum over l < m of (m - l) qdd_l) and the Verlet velocities qd + h
    (qdd / 2 + qdd_1 + ... + qdd_{m-1} + qdd_m / 2) and qddd + h (G_0 / 2 +
    G_1 + ... + G_m / 2), G the force, all expanding in h^2 (Hairer and
    Ostermann, Numer. Math. 58 (1990) 419).  So does n_j^r times the
    centered difference of order r of its forces at m, an estimate of H^r
    G^(r).  Extrapolated over columns 0..k with the Lagrange weights in h^2
    (for r >= 3 over the columns with r + 1 substeps about m), they give
    the midpoint jet: q = q0 + H/2 qd0 + H^2 S_0, qd = qd0 + H S_1, qdd =
    S_2, qddd = qddd0 + H S_3, and H^r q^(4+r) = S_{4+r} for r = 0, ...,
    2k - 3."""
    sums = [{} for _ in range(2 * k + 2)]

    def add(p, j, i, num, den):
        i = _OFFSETS[j] + i if i else 0
        a, b = sums[p].get(i, (0, 1))
        sums[p][i] = a * den + num * b, b * den

    for j in range(k + 1):
        n = _STEPS[j]
        m = n // 2
        num, den = _extrapolation(range(k + 1), j, 0)
        add(0, j, 0, num * m, den * n * n * 2)
        for l in range(1, m):
            add(0, j, l, num * (m - l), den * n * n)
            add(1, j, l, num, den * n)
            add(3, j, l, num, den * n)
        for i in (0, m):
            add(1, j, i, num, den * n * 2)
            add(3, j, i, num, den * n * 2)
        add(2, j, m, num, den)
        add(4, j, m, num, den)
    for r in range(1, 2 * k - 2):
        columns = range((r - 1) // 2, k + 1)
        for j in columns:
            num, den = _extrapolation(columns, j, r)
            m = _STEPS[j] // 2
            for i, c, d, sign in _difference(r):
                add(4 + r, j, m + i, num * c, den * d)
                add(4 + r, j, m - i, sign * num * c, den * d)

    def rows(group):
        import numpy as np
        return tuple((i, np.array([num / den for num, den in (
            sums[p].get(i, (0, 1)) for p in group)]))
            for i in sorted(set().union(*(sums[p] for p in group))))
    return rows(range(3)), rows(range(3, 2 * k + 2))


# 2^-m / m!, the weight of H^m z^(m) / m! at s = 1/2, and 1 / m!
_HALF_POWERS = tuple(1 / (2 ** m * math.factorial(m)) for m in range(12))
_FACTORIALS = tuple(1 / math.factorial(m) for m in range(12))
# the most steps whose records _Interpolants keeps before it reads them off
_BATCH = 1024


def _no_force(q):
    """W' of a free field."""
    return 0.0


def _initial_step(f, y, f0, tol) -> float:
    """First trial step from y and its slope f0 = f(y) (Hairer, Norsett and
    Wanner, Solving ODEs I, II.4)."""
    scale = [tol + tol * abs(x) for x in y]

    def rms(v):
        return math.sqrt(sum((x / s) * (x / s) for x, s in zip(v, scale)) / 4)
    d0, d1 = rms(y), rms(f0)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    if not h0 > 0.0:
        return 0.0      # an infinite or NaN slope: the first step underflows
    f1 = f(*(x + h0 * k for x, k in zip(y, f0)))
    d2 = rms([b - a for a, b in zip(f0, f1)]) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1)


def _dense(k, steps, qdd, force, samples, counts):
    """The states at the samples inside steps accepted at column k, read off
    each step's interpolant, as row tuples.

    steps has a row (H, t0, z0, f0, z1, f1) per step, f0 and f1 the force
    a30 q + a32 qdd - w_prime(q) at its start z0 and end z1; qdd and force
    hold its substep records (see _OFFSETS); counts[i] of the samples fall
    in step i.  In s = (t - t0) / H - 1/2, each component z_c is a
    polynomial of degree 2k + 2, the order of the step: its Taylor part at
    s = 0 to degree 2k - 2 has the midpoint jet H^m z_c^(m) / m! (of
    _dense_table), and four more terms, in s^(2k-1) to s^(2k+2), match z_c
    and its slope H z_(c+1) (H times the force for z_3) at both ends.  No
    coefficient is divided by a power of H, which may underflow.  Every
    array operation is elementwise, so each step's floats are those of the
    same operations on Python floats."""
    import numpy as np
    hs, t0, q0, q1, q2, q3, f0, e0, e1, e2, e3, f1 = steps.T
    qdd[:, 0], force[:, 0] = q2, f0
    sums = []
    for records, table in zip((qdd, force), _dense_table(k)):
        total = 0.0
        for i, weights in table:
            total = total + records[:, i, None] * weights
        sums.extend(total.T)
    h2 = hs * hs
    powers = (1.0, hs, h2, h2 * hs, h2 * h2)
    # the midpoint's z^(d) for d < 4 and H^(d-4) z^(d) for d >= 4
    mid = (q0 + 0.5 * hs * q1 + h2 * sums[0], q1 + hs * sums[1], sums[2],
           q3 + hs * sums[3], *sums[4:])
    top = 2 * k - 1
    step = np.repeat(np.arange(len(hs)), counts)
    s = (np.array(samples) - t0[step]) / hs[step] - 0.5
    z = []
    for c, (v0, v1, g0, g1) in enumerate(zip(
            (q0, q1, q2, q3), (e0, e1, e2, e3), (q1, q2, q3, f0),
            (e1, e2, e3, f1))):
        jet = [powers[m if m < 4 - c else 4 - c] * mid[c + m]
               for m in range(top)]
        # the even and odd parts at s = 1/2 of the Taylor part short of its
        # top even term, and of its slope
        even = odd = slope_even = slope_odd = 0.0
        for m in range(0, top - 2, 2):
            even = even + _HALF_POWERS[m] * jet[m]
            odd = odd + _HALF_POWERS[m + 1] * jet[m + 1]
            slope_even = slope_even + _HALF_POWERS[m] * jet[m + 1]
            slope_odd = slope_odd + _HALF_POWERS[m + 1] * jet[m + 2]
        r_even = 0.5 * (v1 + v0) - (even + _HALF_POWERS[top - 1] * jet[-1])
        r_odd = 0.5 * (v1 - v0) - odd
        s_even = 0.5 * (hs * g1 + hs * g0) - slope_even
        s_odd = 0.5 * (hs * g1 - hs * g0) - slope_odd
        # the terms in s^top and s^(top+2) take the odd residual and slope,
        # those in s^(top+1) and s^(top+3) the even ones; d and f are the
        # values at s = 1/2 of the terms in s^(top+2) and s^(top+3)
        d = 0.5 * (0.5 * s_even - top * r_odd)
        f = 0.5 * (0.5 * s_odd - (top + 1) * r_even)
        p = (f * 2.0 ** (top + 3))[step]
        for a in (d * 2.0 ** (top + 2), (r_even - f) * 2.0 ** (top + 1),
                  (r_odd - d) * 2.0 ** top,
                  *(jet[m] * _FACTORIALS[m] for m in range(top - 1, -1, -1))):
            p = p * s + a[step]
        z.append(p.tolist())
    return zip(*z)


class _Interpolants:
    """The samples inside accepted steps, read off the steps' interpolants
    by _dense in batches of at most _BATCH steps accepted at one column k.
    Until its batch is read, each sample's row holds its time.  Built and
    read off step by step on Python floats instead, the interpolants made
    the trajectory benchmark about a third slower."""

    def __init__(self):
        self.k, self.holes = None, []
        self.fill(None)         # starts the first batch

    def keep(self, rows, k, step, qdd, force, samples):
        """Keep a step's (H, t0, z0, f0, z1, f1), records and samples, and a
        row for each sample."""
        if k != self.k or len(self.counts) == _BATCH:
            self.fill(rows)
            self.k = k
        size = _COLUMNS[k][-1] + 1
        self.steps.extend(step)
        self.qdd.extend(qdd[:size])
        self.force.extend(force[:size])
        self.samples += samples
        self.counts.append(len(samples))
        self.holes += range(len(rows), len(rows) + len(samples))
        rows += samples

    def fill(self, rows):
        """Read off the kept samples into their rows and start a new batch."""
        if self.holes:
            import numpy as np
            size = _COLUMNS[self.k][-1] + 1
            with np.errstate(over="ignore", invalid="ignore"):  # as floats
                states = _dense(
                    self.k, np.frombuffer(self.steps).reshape(-1, 12),
                    np.frombuffer(self.qdd).reshape(-1, size),
                    np.frombuffer(self.force).reshape(-1, size),
                    self.samples, self.counts)
            for i, row in zip(self.holes, states):
                rows[i] = row
        self.steps, self.qdd, self.force = (array("d") for _ in range(3))
        self.samples, self.counts, self.holes = [], [], []


def _gbs(a30, a32, w_prime, y0, stops, tol, escape_radius):
    """One adaptive extrapolated Stormer run on Python floats, for the
    jet-chart field z' = (qd, qdd, qddd, a30 q + a32 qdd - w_prime(q)), from
    the 4-tuple y0 through the increasing positive stops (the last ends it).

    Positions x = (q, qdd) have velocities v = (qd, qddd) and the force G(x)
    = (qdd, a30 q + a32 qdd - w_prime(q)), inline for the quartic's _Cubic.
    Column j of a step H is n_j Stormer substeps h = H / n_j in summed form:
    D_0 = h (v + h/2 G(x)), x_{i+1} = x_i + D_i, D_i = D_{i-1} + h^2 G(x_i),
    and the end velocity v + h (G_0/2 + G_1 + ... + G_n/2) = D_{n-1} / h +
    h/2 G_n, which divides by no h that may underflow to 0.  Neville's rule
    updates the tableau, a list of 4-tuples, in place; the error is the
    scaled RMS of T_jj - T_j,j-1.  A step runs all columns; one that would
    reach the last stop within 1e-14 max(1, |stop|) is capped to end on it,
    is exempt from the underflow check and stops at the first column j >= 2
    that passes (err <= 1).  The other stops shorten no step: a stop inside
    an accepted step is read off its interpolant (_Interpolants), built from
    every substep's qdd and force, and a stop on a step's end takes its state.

    Returns (times, rows, escape_time, n_steps, n_rhs, n_rejected): every
    stop before the escape (the first accepted step with |z| >=
    escape_radius, located by _crossing) and the escape, their states, and
    the counts; n_rhs counts forces.  Raises StepUnderflowError when an
    uncapped step falls below 1e-14 max(1, t), or when a rejected capped
    step's retry would still be capped, since it would repeat the rejected
    step exactly.
    """
    sqrt = math.sqrt
    columns = _COLUMNS
    safety, min_factor, max_factor = _SAFETY, _MIN_FACTOR, _MAX_FACTOR
    r = [(0.0, 0.0, 0.0, 0.0)] * len(_STEPS)
    cubic = type(w_prime) is _Cubic
    lam = w_prime.lam if cubic else 0.0
    # qdd and the force at every substep of a step
    qdd, force = [0.0] * (sum(_STEPS) + 1), [0.0] * (sum(_STEPS) + 1)
    interpolants = _Interpolants() if len(stops) > 1 else None

    def rhs(q0, q1, q2, q3):
        return q1, q2, q3, a30 * q0 + a32 * q2 - w_prime(q0)

    q0, q1, q2, q3 = y0
    f3 = rhs(q0, q1, q2, q3)[3]
    h = _initial_step(rhs, y0, (q1, q2, q3, f3), tol)
    m0, m1, m2, m3 = (-q if q < 0.0 else q for q in y0)
    t = 0.0
    n_steps = n_rejected = 0
    n_rhs = 2
    t_end = stops[-1]
    reach = t_end - 1e-14 * max(1.0, abs(t_end))
    times, rows = [], []
    for first, target in enumerate(stops):
        if target <= t:         # on an earlier step
            continue
        # no call but sqrt, w_prime and StepUnderflowError: a call costs more
        # than the float arithmetic it stands for, so max(a, b) is written
        # (b if b > a else a), min(a, b) is (b if b < a else a)
        while True:
            capped = t + h >= reach
            if capped:
                hs = t_end - t
            else:
                hs = h
                if hs < 1e-14 * (t if t > 1.0 else 1.0):
                    raise StepUnderflowError(t)
            g0, g2 = 0.5 * q2, 0.5 * f3
            for n, inner, neville, k, expo, may_stop, last, i_end in columns:
                hn = hs / n
                hh = hn * hn
                d0 = hn * (q1 + hn * g0)
                d2 = hn * (q3 + hn * g2)
                x0, x2, s0, s2 = q0 + d0, q2 + d2, g0, g2
                for i in inner:
                    f = a30 * x0 + a32 * x2 - (lam * (x0 * x0 * x0) if cubic
                                               else w_prime(x0))
                    qdd[i] = x2
                    force[i] = f
                    s0 += x2
                    s2 += f
                    d0 += hh * x2
                    d2 += hh * f
                    x0 += d0
                    x2 += d2
                f = a30 * x0 + a32 * x2 - (lam * (x0 * x0 * x0) if cubic
                                           else w_prime(x0))
                force[i_end] = f
                p0, p2 = x0, x2
                p1 = q1 + hn * (s0 + 0.5 * x2)
                p3 = q3 + hn * (s2 + 0.5 * f)
                # Neville in place: r holds T_{j-1,0..j-1} and becomes
                # T_{j,0..j}, p becomes T_jj, and r[i] is T_j,j-1 at the end
                for i, c in neville:
                    e0, e1, e2, e3 = r[i]
                    r[i] = p0, p1, p2, p3
                    p0 += (p0 - e0) * c
                    p1 += (p1 - e1) * c
                    p2 += (p2 - e2) * c
                    p3 += (p3 - e3) * c
                r[k] = p0, p1, p2, p3
                if may_stop and (capped or last):
                    n0 = -p0 if p0 < 0.0 else p0
                    n1 = -p1 if p1 < 0.0 else p1
                    n2 = -p2 if p2 < 0.0 else p2
                    n3 = -p3 if p3 < 0.0 else p3
                    e0, e1, e2, e3 = r[i]
                    e0 = (p0 - e0) / (tol * (1.0 + (n0 if n0 > m0 else m0)))
                    e1 = (p1 - e1) / (tol * (1.0 + (n1 if n1 > m1 else m1)))
                    e2 = (p2 - e2) / (tol * (1.0 + (n2 if n2 > m2 else m2)))
                    e3 = (p3 - e3) / (tol * (1.0 + (n3 if n3 > m3 else m3)))
                    err = sqrt(0.25 * (e0 * e0 + e1 * e1 + e2 * e2 + e3 * e3))
                    if err <= 1.0:
                        break
            n_rhs += i_end      # the forces of columns 0..k

            if not err <= 1.0:
                n_rejected += 1
                shrink = safety * err ** expo
                shrink = shrink if shrink > min_factor else min_factor
                h = hs * (shrink if shrink < 1.0 else 1.0)
                if capped and t + h >= reach:
                    raise StepUnderflowError(t)
                continue
            n_steps += 1
            n_rhs += 1
            t_prev, z_prev, f_prev = t, (q0, q1, q2, q3), f3
            t = t_end if capped else t + hs
            q0, q1, q2, q3, m0, m1, m2, m3 = p0, p1, p2, p3, n0, n1, n2, n3
            f3 = a30 * q0 + a32 * q2 - (lam * (q0 * q0 * q0) if cubic
                                        else w_prime(q0))
            factor = safety * (err if err > 1e-10 else 1e-10) ** expo
            factor = factor if factor > min_factor else min_factor
            h = hs * (factor if factor < max_factor else max_factor)
            escaped = sqrt(q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3) \
                >= escape_radius
            if escaped or t >= target:
                break
        # the accepted step from t_prev to t reaches target or escapes
        end, z = t, (q0, q1, q2, q3)
        if escaped:
            counts = [(n_steps, n_rhs, n_rejected)]

            def run(z, d):
                _, (z_end,), _, *c = _gbs(a30, a32, w_prime, z, [d], tol,
                                          math.inf)
                counts.append(c)
                return z_end

            end, z = _crossing(run, t_prev, z_prev, t, z, tol, escape_radius)
        j = first               # stops[first:j] lie inside the step
        while stops[j] < end:
            j += 1
        if j > first:
            times += stops[first:j]
            interpolants.keep(rows, k, (hs, t_prev, *z_prev, f_prev, q0, q1, q2,
                                        q3, f3), qdd, force, stops[first:j])
        if escaped:
            if interpolants:
                interpolants.fill(rows)
            return ([*times, end], [*rows, z], end,
                    *map(sum, zip(*counts)))
        if stops[j] == t:
            times.append(t)
            rows.append(z)
    if interpolants:
        interpolants.fill(rows)
    return times, rows, None, n_steps, n_rhs, n_rejected


def _norm(q0, q1, q2, q3) -> float:
    """|z| as the lane's escape test computes it."""
    return math.sqrt(q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3)


def _crossing(run, t0, z0, t1, z1, tol, radius):
    """The escape inside the step from (t0, z0), |z0| < radius, to (t1, z1),
    |z1| >= radius: _bisect halves it to tol max(1, t1), classifying each
    midpoint t by the lane's run(z_lo, t - t_lo) -> z from the bounded end,
    and the escaping end (t, z) is returned."""
    ends = {True: (t0, z0), False: (t1, z1)}

    def bounded(t):
        t_lo, z_lo = ends[True]
        z = run(z_lo, t - t_lo)
        inside = _norm(*z) < radius
        ends[inside] = (t, z)
        return inside

    halvings = math.log2((t1 - t0) / (tol * max(1.0, t1)))
    _bisect(t0, t1, max(0, math.ceil(halvings)), bounded)
    return ends[False]


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
    norm = _norm(*_floats(z0))
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
    """Adaptive extrapolated Stormer integration (see _gbs).

    Output is recorded on the equidistant sample grid.  The samples shorten
    no step: each is read off the interpolant of the step that passes it,
    of the step's order, or is the step's own state where it falls on the
    step's end, as t_end does.  So a run takes the steps and forces of the
    same run with t_end its only sample.  H1, H2 and the interacting energy
    H1 - W are recorded per sample.  When escape_radius (which must exceed
    |z0|) is set and |z| reaches it, integration terminates at the located
    crossing, the end of an accepted step at most tol max(1, t) after a time
    with |z| below it, and the escape time is recorded in meta.  meta also
    counts accepted steps (n_steps), rejected steps (n_rejected) and force
    evaluations (n_rhs).

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
    row_times, rows, escape_time, n_steps, n_rhs, n_rejected = _gbs(
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
    return Trajectory(params, pot, [0.0, *row_times], [y0, *rows], meta)


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
    window: tuple           # (highest bounded, lowest escaping) coupling


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
    coupling.  Raises ScanDegenerateError when every grid point is bounded
    or every one escapes.  The report's refine entry sums the bisection's
    runs: their count, n_steps and n_rejected.  Its window is the highest
    bounded and the lowest escaping coupling among all runs: on a monotone
    scan it brackets lambda_star, and a first entry above the second shows
    interleaved verdicts.  A run's StepUnderflowError propagates with the
    run's coupling added to its message.
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
        try:
            meta = integrate(params, field_for(params, quartic(lam)), z0,
                             t_end, tol, sample_rate=t_end,
                             escape_radius=escape_radius).meta
        except StepUnderflowError as exc:   # name the run that failed
            exc.args = (f"{exc} in the run at lambda = {lam!r}",)
            raise
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
    every = grid + tuple(runs)
    window = (max(p.lam for p in every if p.bounded),
              min(p.lam for p in every if not p.bounded))
    return ThresholdReport(lambda_star, grid, monotone,
                           trans is None or not monotone, settings, refine,
                           window)


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


def trajectory_csv_rows(traj: Trajectory) -> list:
    """CSV rows (no header) with both charts and the three energy series;
    p1 = -alpha qd - qddd takes alpha from the run's params.

    Each value is its float's repr.  x1 = q, x2 = qd and p2 = qdd repeat
    jet-chart columns, so q, qd and qdd are formatted once and their strings
    reused: 9 repr conversions a row, not 12.
    """
    a = float(traj._params.alpha)
    rows = []
    for t, (q, qd, qdd, qddd), h1, h2, hint in zip(
            traj.times.tolist(), traj.states.tolist(), traj.h1_series.tolist(),
            traj.h2_series.tolist(), traj.hint_series.tolist()):
        p1 = -a * qd - qddd
        q, qd, qdd = repr(q), repr(qd), repr(qdd)
        rows.append(f"{t!r},{q},{qd},{qdd},{qddd!r},{q},{qd},{p1!r},{qdd},"
                    f"{h1!r},{h2!r},{hint!r}")
    return rows
