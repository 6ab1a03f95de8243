"""Integrator accuracy, conservation, mode decomposition, runaway detection."""

import ast
import collections
import contextlib
import functools
import inspect
import math
import signal
import tracemalloc
import warnings
from fractions import Fraction as Fr
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import puosc as p
from puosc.core import flow_matrix, ostro_jacobian, ostro_jacobian_inv
from puosc.dynamics import (
    _COLUMNS, _MAX_FACTOR, _MIN_FACTOR, _NEVILLE, _SAFETY, _STEPS,
    _Cubic,
    CSV_HEADER,
    MAX_GRID_POINTS,
    MAX_SAMPLES,
    GridPoint,
    _bisect,
    _coupling_grid,
    _gbs,
    _initial_step,
    _no_force,
    _sample_times,
    closed_form_states,
    default_escape_radius,
    field_for,
    trajectory_csv_rows,
)
from puosc.errors import (
    ChartMismatchError,
    PreconditionViolatedError,
    ScanDegenerateError,
    StepUnderflowError,
)

PAR = p.make_params(1.0, 2.0)
FIG_Z0 = p.ostro_to_jet(PAR, p.OstroState(0.0, 0.0, 0.5, -0.5))
# quartic(0.0) is the free field; this zero quartic keeps the lane's inline
# force at lam = 0, lam (q q q), whose 0 * inf turns NaN once q^3 overflows
ZERO_QUARTIC = p.Potential(lambda q: 0.0 * q ** 4, _Cubic(0.0),
                           lambda q: 0.0 * q ** 2, "quartic(lam=0.0)")


def scan_run(lam, t_end=200.0, radius=1000.0, tol=1e-10, z0=FIG_Z0):
    """One coupling of threshold_search: an integrate run whose only sample
    is t_end."""
    return p.integrate(PAR, field_for(PAR, p.quartic(lam)), z0, t_end, tol,
                       sample_rate=t_end, escape_radius=radius)


def scan_point(lam, t_end=200.0, radius=1000.0, tol=1e-10):
    """threshold_search's GridPoint for lam, from a one-point grid: the scan
    is degenerate and its error carries the grid."""
    with pytest.raises(ScanDegenerateError) as exc:
        p.threshold_search(PAR, FIG_Z0, t_end, radius, (lam, lam), tol=tol)
    (point,) = exc.value.grid
    return point


def random_params(rng):
    while True:
        w1, w2 = rng.uniform(0.3, 3.0, 2)
        if abs(w1 - w2) > 0.1:
            return p.make_params(w1, w2)


# ---------------------------------------------------------------------------
# mode decomposition
# ---------------------------------------------------------------------------

def test_mode_decompose_pure_modes():
    a1, a2 = p.mode_decompose(PAR, p.JetState(1, 0, -1, 0))
    assert a1 == pytest.approx(0.5 + 0j, abs=1e-14)
    assert a2 == pytest.approx(0.0 + 0j, abs=1e-14)
    a1, a2 = p.mode_decompose(PAR, p.JetState(1, 0, -4, 0))
    assert a1 == pytest.approx(0.0 + 0j, abs=1e-14)
    assert a2 == pytest.approx(0.5 + 0j, abs=1e-14)
    a1, a2 = p.mode_decompose(PAR, p.JetState(0, 0, 0, 0))
    assert a1 == 0 and a2 == 0
    assert all(type(a) is complex for a in (a1, a2))


def test_mode_round_trip_1000_states():
    rng = np.random.default_rng(21)
    for _ in range(1000):
        z = p.JetState.from_array(rng.uniform(-3, 3, 4))
        m = p.mode_decompose(PAR, z)
        back = closed_form_states(PAR, m, [0.0])[0]
        assert np.allclose(back, z.as_array(), rtol=0, atol=1e-12)


def test_mode_energy_spot_values():
    e = p.mode_energy(PAR, (0.5 + 0j, 0j))
    assert e["e1"] == pytest.approx(-1.5, abs=1e-14)
    assert e["total"] == pytest.approx(-1.5, abs=1e-14)
    e = p.mode_energy(PAR, (0j, 0.5 + 0j))
    assert e["e2"] == pytest.approx(6.0, abs=1e-14)
    assert e["total"] == pytest.approx(6.0, abs=1e-14)
    assert p.mode_energy(PAR, (0j, 0j))["total"] == 0.0


def test_mode_energy_overflow_is_named():
    # the float power |a_i|^2 raises where it overflows; the error names the
    # mode energy instead of an errno tuple
    for m in ((1e160 + 0j, 0j), (0j, 1e200j)):
        with pytest.raises(OverflowError, match="mode energy is not finite"):
            p.mode_energy(PAR, m)


def test_mode_energy_equals_h1():
    rng = np.random.default_rng(22)
    for _ in range(100):
        par = random_params(rng)
        z = p.JetState.from_array(rng.uniform(-2, 2, 4))
        m = p.mode_decompose(par, z)
        total = p.mode_energy(par, m)["total"]
        assert total == pytest.approx(p.h1(par).value(z), rel=1e-10, abs=1e-10)


def test_hamiltonians_are_mode_diagonal():
    # H_i(a1, a2) = H_i(a1, 0) + H_i(0, a2) for both Hamiltonians
    rng = np.random.default_rng(23)
    for _ in range(50):
        a1 = complex(*rng.uniform(-2, 2, 2))
        a2 = complex(*rng.uniform(-2, 2, 2))
        states = [closed_form_states(PAR, m, [0.0])[0]
                  for m in ((a1, a2), (a1, 0j), (0j, a2))]
        for H in (p.h1(PAR), p.h2(PAR)):
            full, only1, only2 = map(H.value, states)
            assert full == pytest.approx(only1 + only2, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# integration against the closed form
# ---------------------------------------------------------------------------

def test_integrate_matches_closed_form():
    z0 = p.JetState(1, 0, -1, 0)
    traj = p.integrate(PAR, p.free_vector_field(PAR), z0, 100.0, tol=1e-10)
    exact = closed_form_states(PAR, p.mode_decompose(PAR, z0), traj.times)
    assert np.max(np.abs(traj.states - exact)) < 1e-7
    assert traj.drift("h1") < 1e-8
    assert traj.drift("h2") < 1e-8


def test_integrate_pure_mode_is_cosine():
    z0 = p.JetState(1, 0, -1, 0)
    traj = p.integrate(PAR, p.free_vector_field(PAR), z0, 100.0, tol=1e-10)
    assert np.max(np.abs(traj.states[:, 0] - np.cos(traj.times))) < 1e-7


def test_integrate_fixed_point():
    traj = p.integrate(PAR, p.free_vector_field(PAR), p.JetState(0, 0, 0, 0),
                       10.0, tol=1e-10)
    assert np.max(np.abs(traj.states)) == 0.0


def test_free_conservation_random_draws():
    # drift bound scales with the magnitude of the quadratic form: h2 carries
    # 1/beta coefficients, so an absolute bound only makes sense at unit scale
    rng = np.random.default_rng(24)
    for _ in range(5):
        par = random_params(rng)
        for _ in range(4):
            z0 = p.JetState.from_array(rng.uniform(-1.5, 1.5, 4))
            traj = p.integrate(par, p.free_vector_field(par), z0, 100.0,
                               tol=1e-10, sample_rate=0.5)
            zmax = float(np.max(np.sum(traj.states ** 2, axis=1)))
            for name, S in (("h1", p.h1(par).coeffs), ("h2", p.h2(par).coeffs)):
                scale = max(1.0, np.linalg.norm(S, 2) * zmax)
                assert traj.drift(name) < 1e-8 * scale


def test_drift_of_an_overflowed_energy_warns_nothing():
    # H1(t) is -inf at both samples, so H1(t) - H1(0) is NaN: under the
    # error::RuntimeWarning filter the drift is that NaN, which the caller
    # names, not a bare numpy warning
    par = p.make_params(1e4, 2.0)
    traj = p.integrate(par, p.field_for(par, None),
                       p.JetState(1e152, 0, 0, 0), 1e-20)
    assert math.isnan(traj.drift("h1"))


def test_integrate_invalid_settings():
    V = p.free_vector_field(PAR)
    z0 = p.JetState(1, 0, 0, 0)
    with pytest.raises(PreconditionViolatedError):
        p.integrate(PAR, V, z0, 10.0, tol=1e-2)
    with pytest.raises(PreconditionViolatedError):
        p.integrate(PAR, V, z0, -1.0)
    with pytest.raises(PreconditionViolatedError):
        p.integrate(PAR, V, z0, 10.0, sample_rate=0.0)


@pytest.mark.parametrize("settings", [
    {"t_end": float("nan")},
    {"sample_rate": float("nan")},
    {"escape_radius": 0.5},            # below |z0| = 1
    {"escape_radius": float("nan")},
])
def test_integrate_rejects_nan_and_small_escape_radius(settings):
    kwargs = {"t_end": 10.0, **settings}
    with pytest.raises(PreconditionViolatedError):
        p.integrate(PAR, p.free_vector_field(PAR), p.JetState(1, 0, 0, 0),
                    **kwargs)


SHORT_HORIZONS = [1e-12, 1e-10, 9.9e-10, 1e-15, 1e-20, 1e-300]


@pytest.mark.parametrize("t_end", SHORT_HORIZONS)
def test_short_run_ends_at_t_end(t_end):
    # the last sample is t_end however short the run: the capped step to a
    # stop is exempt from the step-underflow check
    traj = p.integrate(PAR, p.free_vector_field(PAR), p.JetState(1, 0, 0, 0),
                       t_end)
    assert traj.times[-1] == t_end
    assert traj.times[0] == 0.0 and len(traj.times) == 2
    assert traj.meta["n_steps"] >= 1


@contextlib.contextmanager
def _within(seconds):
    """Fail, rather than hang, when the block runs longer than seconds."""
    def stop(*_):
        raise AssertionError(f"still running after {seconds} s")
    old = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


# W'(1e103) = lam * 1e309 overflows: an infinite slope at lam = 1 and
# 0 * inf = NaN for the zero quartic.  Neither a capped nor an uncapped
# first step can be taken, so the run must end in step underflow at t = 0.
@pytest.mark.parametrize("lam", [0.0, 1.0])
@pytest.mark.parametrize("t_end", [1e-15, 1e-300, 1.0])
def test_non_finite_slope_underflows_at_once(lam, t_end):
    z0 = p.JetState(1e103, 0, 0, 0)
    field = field_for(PAR, ZERO_QUARTIC if lam == 0.0 else p.quartic(lam))
    with _within(10), pytest.raises(StepUnderflowError) as exc:
        p.integrate(PAR, field, z0, t_end)
    assert exc.value.last_time == 0.0
    # as one coupling of threshold_search
    with _within(10), pytest.raises(StepUnderflowError) as exc:
        p.integrate(PAR, field, z0, t_end, 1e-10, sample_rate=t_end,
                    escape_radius=1e106)
    assert exc.value.last_time == 0.0


@pytest.mark.parametrize("argv", [
    "simulate --t-end 1e-15 --q0 1e103 --lambda 1",
    "scan --t-end 1e-15 --q0 1e103 --lambda-max 1e4"])
def test_short_run_with_non_finite_slope_exits_3(argv):
    from puosc import cli
    with _within(10):
        assert cli.main(argv.split()) == cli.EXIT_NUMERICAL


@pytest.mark.parametrize("t_end", SHORT_HORIZONS)
def test_short_horizon_batch_classifies(t_end):
    # one step, capped to land on t_end
    for lam in (0.0, 100.0):
        meta = scan_run(lam, t_end).meta
        assert (meta["escape_time"], meta["n_steps"], meta["n_rejected"]) == (
            None, 1, 0)
        assert scan_point(lam, t_end) == GridPoint(lam, True, None, 1, 0)


def _counting(pot):
    """pot with a W' that records its calls, and the record."""
    calls = []

    def w_prime(q):
        calls.append(q)
        return pot.w_prime(q)
    return p.Potential(pot.w, w_prime, pot.w_second, pot.label), calls


@pytest.mark.parametrize("lam, tol, radius", [
    (0.0, 1e-10, 1e3), (5.0, 1e-8, 1e3), (10.0, 1e-6, 1e3),
    # steps are rejected as a runaway blows up towards a far escape radius
    (100.0, 1e-4, 1e6)])
def test_step_counters(lam, tol, radius):
    # n_rhs counts the force evaluations, each one call of W': 2 for the
    # first step, 12, 20, 30 or 42 for each attempt's columns and one at
    # each accepted step's end, in the runs that locate an escape too
    # the samples of a run sampled every 0.5 cost no force
    pot, calls = _counting(ZERO_QUARTIC if lam == 0.0 else p.quartic(lam))
    traj = p.integrate(PAR, field_for(PAR, pot), FIG_Z0, 50.0, tol=tol,
                       sample_rate=50.0, escape_radius=radius)
    n_steps, n_rhs, n_rejected = (traj.meta[k] for k in (
        "n_steps", "n_rhs", "n_rejected"))
    assert n_rhs == len(calls)
    calls.clear()
    sampled = p.integrate(PAR, field_for(PAR, pot), FIG_Z0, 50.0, tol=tol,
                          sample_rate=0.5, escape_radius=radius).meta
    assert (sampled["n_steps"], sampled["n_rhs"], sampled["n_rejected"]) == (
        n_steps, len(calls), n_rejected) == (n_steps, n_rhs, n_rejected)
    assert 2 + 13 * n_steps + 12 * n_rejected <= n_rhs
    assert traj.escaped or n_rhs <= 2 + 43 * n_steps + 42 * n_rejected
    assert n_rejected > 0 or radius == 1e3


@pytest.mark.parametrize("lam", [0.0, 5.0, 10.0])
def test_sample_stops_keep_the_step_size(lam):
    # a sample inside a step is read off the step's interpolant and shortens
    # no step: sampled every 0.1, a run takes the steps of its one-stop run
    # (about 0.9 long) and the same forces, and ends or escapes on the same
    # state at the same time
    field = field_for(PAR, None if lam == 0.0 else p.quartic(lam))
    sampled, alone = (p.integrate(PAR, field, FIG_Z0, 200.0, tol=1e-10,
                                  sample_rate=rate, escape_radius=1000.0)
                      for rate in (0.1, 200.0))
    assert sampled.escaped == (lam == 10.0)
    assert len(sampled.times) > 100
    for key in ("n_steps", "n_rejected", "n_rhs", "escape_time"):
        assert sampled.meta[key] == alone.meta[key], key
    assert sampled.times[-1] == alone.times[-1]
    assert repr(sampled.states[-1].tolist()) == repr(
        alone.states[-1].tolist())


@pytest.mark.parametrize("a", [0.45, 0.5, 0.55])
def test_interior_samples_match_the_closed_form(a):
    # the trajectory workload's free runs: every sample, nearly all of them
    # read off an interpolant of the step's order, is within 1e-8 of the
    # closed form (the steps' own ends drift about 3e-9 by t = 200)
    z0 = p.ostro_to_jet(PAR, p.OstroState(0.0, 0.0, a, -a))
    traj = p.integrate(PAR, p.free_vector_field(PAR), z0, 200.0, tol=1e-10,
                       sample_rate=0.1)
    exact = closed_form_states(PAR, p.mode_decompose(PAR, z0), traj.times)
    assert len(traj.times) == 2001 and traj.meta["n_steps"] < 250
    assert np.max(np.abs(traj.states - exact)) <= 1e-8


@pytest.mark.parametrize("t_end", [1e-8, 1e-105, 1e-120, 1e-162, 1e-300])
def test_interior_samples_at_tiny_horizons(t_end):
    # one capped step carries ten samples; hs^3 underflows from about
    # 1e-103 on, and no coefficient of the interpolant is divided by a power
    # of hs, so every sample is finite and is the cubic Taylor polynomial of
    # the state to rounding
    a30, _, a32, _ = flow_matrix(PAR)[3].tolist()
    q, qd, qdd, qddd = FIG_Y0
    f = a30 * q + a32 * qdd
    traj = p.integrate(PAR, p.free_vector_field(PAR), FIG_Z0, t_end,
                       tol=1e-10, sample_rate=t_end / 10)
    assert traj.meta["n_steps"] == 1 and len(traj.times) == 11
    for t, z in zip(traj.times.tolist(), traj.states.tolist()):
        taylor = (q + t * (qd + t * (qdd / 2 + t * qddd / 6)),
                  qd + t * (qdd + t * qddd / 2), qdd + t * (qddd + t * f / 2),
                  qddd + t * f)
        for a, b in zip(z, taylor):
            assert abs(a - b) <= 1e-13 * abs(b), (t, z, taylor)


def test_a_stop_on_a_step_end_takes_the_state(monkeypatch):
    # stops placed on step ends, which are the next steps' starts, and
    # t_end take the state the step hands on bit for bit; the added stops
    # move no step
    from puosc import dynamics
    kept = []

    def spy(self, rows, k, step, *args, keep=dynamics._Interpolants.keep):
        kept.append((step[1], step[2:6], step[7:11]))   # t0, z0, z1
        return keep(self, rows, k, step, *args)

    monkeypatch.setattr(dynamics._Interpolants, "keep", spy)
    a30, _, a32, _ = flow_matrix(PAR)[3].tolist()
    w_prime = p.quartic(5.0).w_prime
    grid = _sample_times(20.0, 0.1)[1:]
    counts = _gbs(a30, a32, w_prime, FIG_Y0, grid, 1e-10, math.inf)[3:]
    starts = {t0: z0 for t0, z0, _ in kept[1:]}
    ends = sorted(starts)[::2]
    kept.clear()
    times, rows, *rest = _gbs(a30, a32, w_prime, FIG_Y0,
                              sorted({*grid, *ends}), 1e-10, math.inf)
    assert rest[1:] == list(counts) and len(ends) > 5
    states = dict(zip(times, rows))
    assert [repr(states[t]) for t in ends] == [repr(starts[t]) for t in ends]
    assert times[-1] == 20.0 and kept[-1][0] < 20.0 <= kept[-1][0] + 1.5
    assert repr(rows[-1]) == repr(kept[-1][2])


def test_trajectory_times_strictly_increasing():
    traj = p.integrate(PAR, p.free_vector_field(PAR), p.JetState(1, 0, -1, 0),
                       7.3, tol=1e-8, sample_rate=0.25)
    assert np.all(np.diff(traj.times) > 0)
    assert traj.times[-1] == pytest.approx(7.3, abs=1e-12)
    assert len(traj.times) == len(traj.states) == len(traj.h1_series)


def test_chart_equivalence():
    # the jet trajectory transported through the chart map is the exact
    # momentum-chart flow exp(A_ostro t) s0
    L = ostro_jacobian(PAR)
    Linv = ostro_jacobian_inv(PAR)
    ev, V = np.linalg.eig(L @ flow_matrix(PAR) @ Linv)

    z0 = p.JetState(0.2, -0.4, 1.0, 0.3)
    s0 = p.jet_to_ostro(PAR, z0).as_array()
    jet = p.integrate(PAR, p.free_vector_field(PAR), z0, 50.0, tol=1e-11)
    exact = np.real((V * np.linalg.solve(V, s0))
                    @ np.exp(np.outer(ev, jet.times))).T
    assert np.max(np.abs(jet.states @ L.T - exact)) < 1e-7


# ---------------------------------------------------------------------------
# interacting runs
# ---------------------------------------------------------------------------

def test_interacting_energy_conserved_and_h2_broken():
    pot = p.quartic(5.0)
    field = field_for(PAR, pot)
    traj = p.integrate(PAR, field, FIG_Z0, 200.0, tol=1e-10)
    assert not traj.escaped
    assert traj.drift("hint") < 1e-7
    assert traj.drift("h2") > 1e-2


def test_hint_is_h1_minus_w():
    pot = p.quartic(1.0)
    field = field_for(PAR, pot)
    traj = p.integrate(PAR, field, FIG_Z0, 5.0, tol=1e-9)
    w_vals = 0.25 * 1.0 * traj.states[:, 0] ** 4
    assert np.allclose(traj.hint_series, traj.h1_series - w_vals, atol=1e-14)


def test_quartic_label_and_values():
    pot = p.quartic(0.1)
    assert pot.w(2.0) == pytest.approx(0.4)
    assert pot.w_prime(2.0) == pytest.approx(0.8)
    assert pot.w_second(2.0) == pytest.approx(1.2)
    assert "0.1" in pot.label


# ---------------------------------------------------------------------------
# runaway classification
# ---------------------------------------------------------------------------

def test_runaway_free_is_bounded():
    v = scan_run(0.0)
    assert not v.escaped and v.meta["escape_time"] is None


def test_runaway_large_coupling_escapes():
    v = scan_run(10.0)
    assert v.escaped
    assert v.meta["escape_time"] < 200.0


def test_runaway_very_large_coupling_escapes():
    v = scan_run(100.0)
    assert v.escaped and v.meta["escape_time"] < 30.0


def test_runaway_precondition():
    with pytest.raises(PreconditionViolatedError):
        scan_run(0.0, 10.0, radius=0.1)


def test_default_escape_radius():
    assert default_escape_radius(FIG_Z0) == 1000.0
    big = p.JetState(10.0, 0, 0, 0)
    assert default_escape_radius(big) == pytest.approx(1e4)


def test_state_norm_overflow_is_a_numerical_failure():
    # |z0|^2 overflows a float: no radius can be compared with it, so the run
    # fails as arithmetic, not as a bad radius, and warns nothing
    huge = p.JetState(1e155, 0, 0, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError):
            default_escape_radius(huge)
        with pytest.raises(OverflowError):
            p.integrate(PAR, p.free_vector_field(PAR), huge, 0.5,
                        escape_radius=1e300)
        with pytest.raises(OverflowError):
            scan_run(1.0, 0.5, 1e300, z0=huge)
    assert default_escape_radius(p.JetState(1e154, 0, 0, 0)) == 1e157


def test_verdict_invariant():
    for lam in (0.0, 10.0):
        t = scan_run(lam).meta["escape_time"]
        assert scan_point(lam).bounded == (t is None)
        assert t is None or 0.0 < t <= 200.0


# ---------------------------------------------------------------------------
# threshold search
# ---------------------------------------------------------------------------

def test_threshold_search_trivial_range_all_bounded():
    with pytest.raises(ScanDegenerateError) as exc:
        p.threshold_search(PAR, FIG_Z0, 50.0, 1000.0, (0.0, 0.0), tol=1e-8)
    assert exc.value.kind == "all-bounded"


def test_threshold_search_inverted_range():
    with pytest.raises(PreconditionViolatedError):
        p.threshold_search(PAR, FIG_Z0, 50.0, 1000.0, (5.0, 1.0))


@pytest.mark.parametrize("grid_points", [0, 1])
def test_threshold_search_needs_two_grid_points(grid_points):
    with pytest.raises(PreconditionViolatedError, match="grid_points"):
        p.threshold_search(PAR, FIG_Z0, 5.0, 1000.0, (1.0, 2.0),
                           grid_points=grid_points)


def test_threshold_search_caps_the_grid(monkeypatch):
    # one grid point past the cap is rejected before the coupling grid is
    # allocated or integrated; the cap itself reaches integrate, which is
    # stubbed with a bounded run, so no scan of that size runs
    def never(*args, **kwargs):
        raise AssertionError("the grid was built")

    def bounded_run(*args, **kwargs):
        calls.append(args[1].potential.label)
        return SimpleNamespace(meta={"escape_time": None, "n_steps": 0,
                                     "n_rejected": 0})

    calls = []
    with monkeypatch.context() as m:
        m.setattr(p.dynamics, "_coupling_grid", never)
        m.setattr(p.dynamics, "integrate", never)
        with pytest.raises(PreconditionViolatedError,
                           match=f"must not exceed {MAX_GRID_POINTS}$"):
            p.threshold_search(PAR, FIG_Z0, 5.0, 1000.0, (1.0, 2.0),
                               grid_points=MAX_GRID_POINTS + 1)
    monkeypatch.setattr(p.dynamics, "integrate", bounded_run)
    with pytest.raises(ScanDegenerateError) as exc:
        p.threshold_search(PAR, FIG_Z0, 5.0, 1000.0, (1.0, 2.0),
                           grid_points=MAX_GRID_POINTS)
    assert len(calls) == len(exc.value.grid) == MAX_GRID_POINTS


def _ulps(x, y):
    return abs(x - y) / math.ulp(max(abs(x), abs(y)))


@pytest.mark.parametrize("decades", [6, 300])
def test_coupling_grid_is_numpy_geomspace(decades):
    # numpy.geomspace's formula on floats: the end points exactly; an inner
    # point within an ulp of numpy's where libm's log10 of both ends is
    # numpy's (the exponents are then numpy's bit for bit, and only the
    # powers round apart); and within 1e-12 relative everywhere, since a
    # log10 an ulp apart can move an exponent's rounding by an ulp of a
    # number up to 691
    rng = np.random.default_rng(decades)
    agreed = 0
    for _ in range(2000):
        lo, hi = np.sort(10.0 ** rng.uniform(-decades, decades, 2)).tolist()
        n = int(rng.integers(2, 40))
        grid = _coupling_grid(lo, hi, n)
        ref = np.geomspace(lo, hi, n).tolist()
        assert len(grid) == n and grid[0] == lo and grid[-1] == hi
        assert all(type(x) is float for x in grid)
        assert max(abs(x - y) / y for x, y in zip(grid, ref)) <= 1e-12
        if all(math.log10(x) == np.log10(x) for x in (lo, hi)):
            agreed += 1
            assert max(map(_ulps, grid, ref)) <= 1.0, (lo, hi, n)
    assert agreed > 1500


def test_coupling_grid_keeps_the_benchmark_transition_cell():
    # the reference scan's grid, 0 and 31 points from 1e-2 to 10: every
    # point within an ulp of numpy's, and the cell [10^0.9, 10] that holds
    # lambda* bit for bit
    grid = _coupling_grid(0.0, 10.0, 32)
    ref = [0.0, *np.geomspace(1e-2, 10.0, 31).tolist()]
    assert grid[0] == 0.0
    assert max(map(_ulps, grid[1:], ref[1:])) <= 1.0
    assert grid[30:] == ref[30:]
    assert math.isclose(grid[30], 10.0 ** 0.9) and grid[31] == 10.0


@pytest.mark.parametrize("lo, hi, n, expected", [
    (0.0, 10.0, 2, [0.0, 10.0]),
    (0.0, 10.0, 3, [0.0, 1e-2, 10.0]),
    (1.0, 4.0, 2, [1.0, 4.0]),
    (2.0, 2.0, 5, [2.0]),
])
def test_coupling_grid_ends_at_lambda_max(lo, hi, n, expected):
    # a one-point geometric part is lambda_max itself, not its start
    assert _coupling_grid(lo, hi, n) == expected


def test_two_point_scan_classifies_lambda_max():
    # grid [0, 10]: the escaping end is classified, so the cell is found
    rep = p.threshold_search(PAR, FIG_Z0, 200.0, 1000.0, (0.0, 10.0),
                             grid_points=2, bisect_iters=2, tol=1e-8)
    assert [g.lam for g in rep.grid] == [0.0, 10.0]
    assert [g.bounded for g in rep.grid] == [True, False]
    assert 0.0 < rep.lambda_star < 10.0


def test_threshold_search_rejects_underflowing_grid():
    # the geometric grid from lambda_max * 1e-3 would start at 0
    with pytest.raises(PreconditionViolatedError, match="underflows"):
        p.threshold_search(PAR, FIG_Z0, 5.0, 1000.0, (0.0, 5e-324))


def test_threshold_search_all_unbounded():
    with pytest.raises(ScanDegenerateError) as exc:
        p.threshold_search(PAR, FIG_Z0, 100.0, 1000.0, (50.0, 200.0),
                           grid_points=6, bisect_iters=5, tol=1e-8)
    assert exc.value.kind == "all-unbounded"


def test_threshold_search_small(monkeypatch):
    # coarse scan over a bracketing range; full-range scan lives in acceptance
    from puosc import dynamics
    metas = []

    def spy(*args, run=dynamics.integrate, **kwargs):
        traj = run(*args, **kwargs)
        metas.append(traj.meta)
        return traj

    monkeypatch.setattr(dynamics, "integrate", spy)
    rep = p.threshold_search(PAR, FIG_Z0, 120.0, 1000.0, (5.0, 12.0),
                             grid_points=6, bisect_iters=12, tol=1e-8)
    assert rep.lambda_star is not None
    assert 5.0 < rep.lambda_star < 12.0
    flags = [g.bounded for g in rep.grid]
    assert flags[0] and not flags[-1]
    # the grid reads its runs' meta; refine sums the bisection's runs, one
    # integrate call per coupling after the grid
    grid, runs = metas[:6], metas[6:]
    assert [(g.escape_time, g.n_steps, g.n_rejected) for g in rep.grid] == [
        (m["escape_time"], m["n_steps"], m["n_rejected"]) for m in grid]
    assert rep.refine == {"runs": 12,
                          "n_steps": sum(m["n_steps"] for m in runs),
                          "n_rejected": sum(m["n_rejected"] for m in runs)}


def test_window_comes_from_the_runs_and_brackets_lambda_star(monkeypatch):
    # the highest bounded and the lowest escaping coupling among all the
    # scan's runs, grid and bisection alike
    from puosc import dynamics
    lams, escaped = [], []

    def quartic(lam, make=dynamics.quartic):
        lams.append(lam)
        return make(lam)

    def spy(*args, run=dynamics.integrate, **kwargs):
        traj = run(*args, **kwargs)
        escaped.append(traj.escaped)
        return traj

    monkeypatch.setattr(dynamics, "quartic", quartic)
    monkeypatch.setattr(dynamics, "integrate", spy)
    rep = p.threshold_search(PAR, FIG_Z0, 120.0, 1000.0, (5.0, 12.0),
                             grid_points=6, bisect_iters=12, tol=1e-8)
    assert len(lams) == len(escaped) == 6 + rep.refine["runs"]
    bounded = [lam for lam, e in zip(lams, escaped) if not e]
    escaping = [lam for lam, e in zip(lams, escaped) if e]
    assert rep.window == (max(bounded), min(escaping))
    # the verdicts are monotone in the coupling, so the window is the
    # bisection's last bracket, whose midpoint is lambda_star
    assert rep.monotone and max(bounded) < min(escaping)
    assert rep.lambda_star == 0.5 * (rep.window[0] + rep.window[1])


def test_scan_with_the_force_called_is_the_same_bit_for_bit(monkeypatch):
    # the lane computes the force of quartic(lam) inline; a scan whose
    # potentials wrap the same W' in a plain function, which the lane calls,
    # reports the same floats and counts, escapes and their crossings too
    from puosc import dynamics
    calls = []

    def scan():
        return p.threshold_search(PAR, FIG_Z0, 120.0, 1000.0, (5.0, 12.0),
                                  grid_points=6, bisect_iters=8, tol=1e-8)

    def quartic(lam, make=dynamics.quartic):
        pot = make(lam)

        def wrapped(q):
            calls.append(q)
            return pot.w_prime(q)
        return p.Potential(pot.w, wrapped, pot.w_second, pot.label)

    inline = scan()
    monkeypatch.setattr(dynamics, "quartic", quartic)
    called = scan()
    # every force is a call: hundreds a run
    assert len(calls) > 100 * (6 + called.refine["runs"])
    assert repr(called) == repr(inline)
    assert inline.refine["runs"] > 0 and inline.grid[-1].escape_time


@pytest.mark.parametrize("lam", [0.0, -0.0])
def test_zero_coupling_is_the_free_field(lam):
    assert p.quartic(lam) is None
    assert field_for(PAR, p.quartic(lam)).potential is None


def test_scan_runs_a_zero_coupling_as_the_free_field(monkeypatch):
    # the grid's lambda = 0 point is the run of simulate --lambda 0: the
    # lane gets the free field's W', not a zero quartic's
    from puosc import dynamics
    forces = []

    def spy(a30, a32, w_prime, *args, run=dynamics._gbs):
        forces.append(w_prime)
        return run(a30, a32, w_prime, *args)

    monkeypatch.setattr(dynamics, "_gbs", spy)
    rep = p.threshold_search(PAR, FIG_Z0, 200.0, 1000.0, (0.0, 10.0),
                             grid_points=3, bisect_iters=0, tol=1e-8)
    monkeypatch.undo()
    assert [g.lam for g in rep.grid] == [0.0, 0.01, 10.0]
    assert forces[0] is _no_force
    assert all(type(w) is _Cubic and w.lam > 0.0 for w in forces[1:])
    free = p.integrate(PAR, p.free_vector_field(PAR), FIG_Z0, 200.0, 1e-8,
                       sample_rate=200.0, escape_radius=1000.0).meta
    assert free["interacting"] is False
    assert rep.grid[0] == GridPoint(0.0, True, None, free["n_steps"],
                                    free["n_rejected"])


def test_scan_underflow_names_its_coupling():
    # one line names the failing run of a scan, and keeps its time
    z0 = p.JetState(1e14, 0.0, 0.0, 0.0)
    with _within(10), pytest.raises(StepUnderflowError) as exc:
        p.threshold_search(PAR, z0, 1.0, default_escape_radius(z0),
                           (0.0, 1.0), grid_points=2, bisect_iters=1)
    assert exc.value.last_time == 0.0
    assert str(exc.value) == (
        "step size underflow at t = 0.0 in the run at lambda = 0.0")


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def test_csv_rows_shape_and_header():
    traj = p.integrate(PAR, p.free_vector_field(PAR), FIG_Z0, 1.0,
                       tol=1e-9, sample_rate=0.5)
    rows = trajectory_csv_rows(traj)
    assert CSV_HEADER == "t,q,qd,qdd,qddd,x1,x2,p1,p2,H1,H2,Hint"
    assert len(rows) == len(traj.times)
    first = rows[0].split(",")
    assert len(first) == 12
    # momentum-chart columns reproduce the initial data
    assert float(first[7]) == pytest.approx(0.5, abs=1e-14)   # p1
    assert float(first[8]) == pytest.approx(-0.5, abs=1e-14)  # p2


def test_csv_deterministic():
    t1 = p.integrate(PAR, field_for(PAR, p.quartic(0.5)), FIG_Z0, 3.0, tol=1e-9)
    t2 = p.integrate(PAR, field_for(PAR, p.quartic(0.5)), FIG_Z0, 3.0, tol=1e-9)
    assert trajectory_csv_rows(t1) == trajectory_csv_rows(t2)


def test_csv_rows_match_numpy_scalar_formatting():
    # reference: each value formatted as repr(float(numpy scalar)), with p1
    # computed on numpy scalars
    traj = p.integrate(PAR, field_for(PAR, p.quartic(0.5)), FIG_Z0, 3.0,
                       tol=1e-9)
    expected = []
    for i, t in enumerate(traj.times):
        q, qd, qdd, qddd = traj.states[i]
        vals = [t, q, qd, qdd, qddd, q, qd, -PAR.alpha * qd - qddd, qdd,
                traj.h1_series[i], traj.h2_series[i], traj.hint_series[i]]
        expected.append(",".join(repr(float(v)) for v in vals))
    assert trajectory_csv_rows(traj) == expected


def _verbatim_csv_rows(params, traj):
    # trajectory_csv_rows as it was before it reused the strings of q, qd
    # and qdd, copied verbatim
    a = float(params.alpha)
    rows = []
    for t, (q, qd, qdd, qddd), h1, h2, hint in zip(
            traj.times.tolist(), traj.states.tolist(), traj.h1_series.tolist(),
            traj.h2_series.tolist(), traj.hint_series.tolist()):
        rows.append(",".join(map(repr, (t, q, qd, qdd, qddd, q, qd,
                                        -a * qd - qddd, qdd, h1, h2, hint))))
    return rows


@pytest.mark.parametrize("lam", [0.0, 5.0], ids=["trajectory-free",
                                                 "trajectory-5"])
def test_csv_rows_are_the_verbatim_rows(lam):
    traj = p.integrate(PAR, field_for(PAR, None if lam == 0.0 else
                                      p.quartic(lam)),
                       FIG_Z0, 200.0, tol=1e-10, sample_rate=0.1)
    assert trajectory_csv_rows(traj) == _verbatim_csv_rows(PAR, traj)


def test_csv_rows_keep_signed_zeros():
    # a free run's record of one sample, at a state of signed zeros
    traj = p.Trajectory(PAR, None, [0.0], [(-0.0, 0.0, -0.0, 0.0)], {})
    (row,) = trajectory_csv_rows(traj)
    assert row == _verbatim_csv_rows(PAR, traj)[0]
    # p1 = -alpha * 0.0 - 0.0 is -0.0; the energies sum zeros to 0.0
    assert row == "0.0,-0.0,0.0,-0.0,0.0,-0.0,0.0,-0.0,-0.0,0.0,0.0,0.0"


def test_csv_rows_take_alpha_from_the_run():
    # p1 = -alpha qd - qddd with the alpha of the run's own params
    par = p.make_params(0.7, 3.1)
    traj = p.integrate(par, field_for(par, p.quartic(0.5)),
                       p.JetState(0.3, -0.2, 0.1, 0.4), 2.0, tol=1e-9,
                       sample_rate=0.5)
    rows = trajectory_csv_rows(traj)
    assert len(rows) == 5 and par.alpha != PAR.alpha
    for row, (q, qd, qdd, qddd) in zip(rows, traj.states.tolist()):
        assert row.split(",")[7] == repr(-par.alpha * qd - qddd)


def test_step_underflow_on_finite_time_blowup():
    # without an escape radius a blowing-up run ends in step underflow,
    # reporting the last good time
    with pytest.raises(StepUnderflowError) as exc:
        p.integrate(PAR, field_for(PAR, p.quartic(100.0)), FIG_Z0, 50.0,
                    tol=1e-8)
    assert 0.0 < exc.value.last_time < 50.0


def test_analyze_grid_flags():
    from puosc.dynamics import analyze_grid_flags
    assert analyze_grid_flags([True, True, False, False]) == (True, 1)
    # interleaved escapes: caveated, first transition still reported
    monotone, trans = analyze_grid_flags([True, False, True, False])
    assert not monotone and trans == 0
    monotone, trans = analyze_grid_flags([False, True, False])
    assert not monotone and trans == 1


# ---------------------------------------------------------------------------
# one integrate run per coupling, and the bisection
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("lam", [0.0, 5.0, 8.78, 10.0, 100.0])
def test_batch_escape_time_is_integrate_with_one_sample(lam):
    # a scan coupling is integrate's run with t_end as its only stop, so the
    # two take the same steps and agree bit for bit
    point = scan_point(lam, tol=1e-8)
    traj = p.integrate(PAR, field_for(PAR, p.quartic(lam)), FIG_Z0, 200.0,
                       tol=1e-8, sample_rate=200.0, escape_radius=1000.0)
    assert point.escape_time == traj.meta["escape_time"]
    assert point.bounded == (not traj.escaped)
    assert point.n_steps == traj.meta["n_steps"]
    assert point.n_rejected == traj.meta["n_rejected"]


def test_batch_verdicts_match_integrate():
    # a 16-point grid over criterion 8's range [0, 10]: each entry is its
    # own one-sample run bit for bit, and its verdict and escape time are
    # those of the run sampled every 0.1, which takes the same steps
    rep = p.threshold_search(PAR, FIG_Z0, 200.0, 1000.0, (0.0, 10.0),
                             grid_points=16, bisect_iters=0, tol=1e-8)
    lams = np.concatenate([[0.0], np.geomspace(1e-2, 10.0, 15)])
    assert [g.lam for g in rep.grid] == lams.tolist()
    for lam, point in zip(lams.tolist(), rep.grid):
        meta = scan_run(lam, tol=1e-8).meta
        assert (point.escape_time, point.n_steps, point.n_rejected) == (
            meta["escape_time"], meta["n_steps"], meta["n_rejected"]), lam
        pot = p.quartic(lam) if lam > 0 else None
        traj = p.integrate(PAR, field_for(PAR, pot), FIG_Z0, 200.0, tol=1e-8,
                           escape_radius=1000.0)
        assert point.bounded == (not traj.escaped), lam
        assert point.escape_time == traj.meta["escape_time"], lam
    assert any(g.bounded for g in rep.grid)
    assert not all(g.bounded for g in rep.grid)


@pytest.mark.parametrize("lam, crossing", [(10.0, 10.20715),
                                           (100.0, 3.94834)])
def test_escape_time_is_the_crossing(lam, crossing):
    # the escaping step's crossing of |z| = R is located, so escape_time does
    # not depend on how long the steps are: at criterion 8's tol 1e-8 it is
    # within 1e-2 of the escape time of a Dormand-Prince 5(4) run at tol
    # 1e-13, whose steps were short, and within 1e-6 of the crossing located
    # at tol 1e-12
    traj = scan_run(lam, tol=1e-8)
    t = traj.meta["escape_time"]
    assert abs(t - crossing) <= 1e-2
    assert abs(t - scan_run(lam, tol=1e-12).meta["escape_time"]) <= 1e-6
    # the escape is the end of an accepted step with |z| >= R, the last row
    assert traj.times[-1] == t and _norm(traj.states[-1].tolist()) >= 1000.0


def test_batch_preconditions():
    with pytest.raises(PreconditionViolatedError, match="escape_radius"):
        scan_run(1.0, 10.0, 0.1)
    with pytest.raises(PreconditionViolatedError, match="tol"):
        scan_run(1.0, 10.0, 1000.0, tol=1.0)


def test_numpy_scalar_inputs_give_float_fields():
    # numpy scalars are converted at the boundary, so each run steps on
    # Python floats and the report holds them
    rep = p.threshold_search(PAR, FIG_Z0, np.float64(120.0), np.float64(1000.0),
                             np.array([5.0, 12.0]), grid_points=4,
                             bisect_iters=3, tol=np.float64(1e-8))
    assert type(rep.lambda_star) is float
    assert all(type(g.lam) is float for g in rep.grid)
    assert not rep.grid[-1].bounded
    assert all(type(g.escape_time) is float for g in rep.grid if not g.bounded)


def _sequential_bisection(lo, hi, iters, bounded):
    # reference: bisection at 0.5 * (lo + hi), one coupling at a time
    visited = []
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        visited.append(mid)
        if bounded(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi, visited


PREDICATES = {
    "monotone": lambda lam: lam < 6.61592193163,
    # bounded below 6.375, escaping to 6.45, bounded again to 6.55
    "interleaved": lambda lam: lam < 6.375 or 6.45 <= lam < 6.55,
    "windows": lambda lam: int(lam * 997.0) % 3 != 0,
}


@pytest.mark.parametrize("iters", [0, 1, 4, 5, 6, 40])
@pytest.mark.parametrize("name", sorted(PREDICATES))
def test_speculative_bisection_is_sequential_bisection(name, iters):
    # threshold_search's bisection (_bisect) visits the midpoints, and makes
    # the choices, of sequential bisection, classifying one per call
    pred = PREDICATES[name]
    classified = []

    def classify(lam):
        classified.append(lam)
        return pred(lam)

    lo, hi, visited = _sequential_bisection(6.2, 6.8, iters, pred)
    assert _bisect(6.2, 6.8, iters, classify) == (lo, hi)
    assert classified == visited
    assert len(classified) == iters
    # lo moves only to bounded midpoints, hi only to escaping ones
    assert (lo == 6.2 or pred(lo)) and (hi == 6.8 or not pred(hi))


@pytest.mark.parametrize("always", [True, False])
@pytest.mark.parametrize("iters", [3, 40, 10 ** 9])
def test_speculative_bisection_stops_on_unsplittable_bracket(iters, always):
    # a bracket six ulps wide stops splitting after a few halvings
    lo = hi = 6.5
    for _ in range(6):
        hi = np.nextafter(hi, np.inf)
    calls = []

    def classify(lam):
        calls.append(lam)
        return always

    *expect, visited = _sequential_bisection(lo, hi, iters,
                                             lambda lam: always)
    got = _bisect(lo, hi, iters, classify)
    assert got == tuple(expect) and got != (lo, hi)
    assert calls == visited and len(calls) < 6
    # a bracket with no float inside classifies nothing
    assert _bisect(lo, lo, iters, None) == (lo, lo)


def test_threshold_search_rejects_negative_bisect_iters():
    with pytest.raises(PreconditionViolatedError, match="bisect_iters"):
        p.threshold_search(PAR, FIG_Z0, 5.0, 1000.0, (1.0, 2.0),
                           bisect_iters=-1)


def test_sample_grid_cap_rejects_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(PreconditionViolatedError, match="sample_rate"):
            p.integrate(PAR, p.free_vector_field(PAR), FIG_Z0, 1e3,
                        sample_rate=1e3 / (MAX_SAMPLES + 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


# ---------------------------------------------------------------------------
# the lane against its references
# ---------------------------------------------------------------------------

# The extrapolated Stormer rule (Gragg-Bulirsch-Stoer; Hairer, Norsett and
# Wanner, Solving ODEs I, II.9 and II.14): column j takes n_j = 2 (j + 1)
# substeps of h = H / n_j, and Neville's rule extrapolates the columns in
# h^2, T_{j,l} = T_{j,l-1} + (T_{j,l-1} - T_{j-1,l-1}) / ((n_j / n_{j-l})^2
# - 1).
GBS_STEPS = [2, 4, 6, 8, 10, 12]
NEVILLE = [[1 / (Fr(GBS_STEPS[j], GBS_STEPS[j - l]) ** 2 - 1)
            for l in range(1, j + 1)] for j in range(len(GBS_STEPS))]


def _neville(bases, coefficients):
    """The diagonal row T_{j,0..j} of the tableau over the column values
    bases = [T_{0,0}, ..., T_{j,0}] (4-vectors)."""
    row = [bases[0]]
    for j in range(1, len(bases)):
        prev, row = row, [bases[j]]
        for l in range(1, j + 1):
            a, b, c = row[l - 1], prev[l - 1], coefficients[j][l - 1]
            row.append([x + (x - y) * c for x, y in zip(a, b)])
    return row


def test_lane_constants_are_the_extrapolation_coefficients():
    assert _STEPS == tuple(GBS_STEPS)
    assert _NEVILLE == tuple(tuple((l, float(c)) for l, c in enumerate(row))
                             for row in NEVILLE)
    for j, column in enumerate(_COLUMNS):
        n, inner, neville, k, expo, may_stop, last, cost = column
        # substep i of column j is recorded at the forces of the columns
        # before it plus i, its last substep at cost
        offset = sum(GBS_STEPS[:j])
        assert (n, list(inner), neville, k) == (
            GBS_STEPS[j], list(range(offset + 1, offset + n)), _NEVILLE[j], j)
        assert expo == -1.0 / (2 * j + 1)       # T_j,j-1 has order 2j
        assert (may_stop, last) == (j >= 2, j == len(GBS_STEPS) - 1)
        assert cost == offset + n == (j + 1) * (j + 2)
    assert (_SAFETY, _MIN_FACTOR, _MAX_FACTOR) == (0.94, 0.2, 4.0)
    # T_jj is exact on every polynomial of degree <= j in h^2 = 1 / n_j^2
    # and not on (h^2)^(j+1): column j gains two orders
    for j in range(len(GBS_STEPS)):
        for degree in range(j + 2):
            bases = [[Fr(1, n * n) ** degree] for n in GBS_STEPS[:j + 1]]
            (t_jj,) = _neville(bases, NEVILLE)[j]
            assert (t_jj == (degree == 0)) == (degree <= j)


def _force(a30, a32, w_prime):
    """G(x) = (qdd, a30 q + a32 qdd - w_prime(q)) at the positions x = (q,
    qdd)."""
    def force(x):
        return x[1], a30 * x[0] + a32 * x[1] - w_prime(x[0])
    return force


def _summed_column(force):
    """T_{j,0}: n Stormer substeps of h = hs / n from z, with G = force(z),
    in the lane's summed form and order: D_0 = h (v + h G_0 / 2), x_{i+1} =
    x_i + D_i, D_i = D_{i-1} + h^2 G_i, and the end velocity v + h (G_0 / 2
    + G_1 + ... + G_{n-1} + G_n / 2); and G_1, ..., G_n."""
    def column(z, g, hs, n):
        h = hs / n
        hh = h * h
        x, v, s = [z[0], z[2]], [z[1], z[3]], [0.5 * c for c in g]
        d = [h * (a + h * b) for a, b in zip(v, s)]
        x = [a + b for a, b in zip(x, d)]
        forces = []
        for _ in range(n - 1):
            forces.append(force(x))
            s = [a + b for a, b in zip(s, forces[-1])]
            d = [a + hh * b for a, b in zip(d, forces[-1])]
            x = [a + b for a, b in zip(x, d)]
        forces.append(force(x))
        v = [a + h * (b + 0.5 * c) for a, b, c in zip(v, s, forces[-1])]
        return [x[0], v[0], x[1], v[1]], forces
    return column


def _textbook_column(force):
    """T_{j,0} by Stormer's two-step rule: x_1 = x_0 + h v_0 + h^2/2 G_0,
    x_{i+1} = 2 x_i - x_{i-1} + h^2 G_i, and the trapezoidal end velocity
    v_0 + h (G_0 / 2 + G_1 + ... + G_{n-1} + G_n / 2), which equals
    (x_n - x_{n-1}) / h + h/2 G_n but divides by no h (h = 0 when hs is
    the least subnormal); and G_1, ..., G_n."""
    def column(z, g, hs, n):
        h = hs / n
        x0, v = [z[0], z[2]], [z[1], z[3]]
        x = [a + h * b + h * h / 2 * c for a, b, c in zip(x0, v, g)]
        s = [c / 2 for c in g]
        forces = []
        for _ in range(n - 1):
            forces.append(force(x))
            s = [a + b for a, b in zip(s, forces[-1])]
            x, x0 = [2 * a - b + h * h * c
                     for a, b, c in zip(x, x0, forces[-1])], x
        forces.append(force(x))
        v = [a + h * (b + c / 2) for a, b, c in zip(v, s, forces[-1])]
        return [x[0], v[0], x[1], v[1]], forces
    return column


def _norm(z):
    q0, q1, q2, q3 = z
    return math.sqrt(q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3)


def _reference_crossing(run, t0, z0, t1, z1, tol, radius):
    """The lane's escape location, plainly: halve the step [t0, t1] at its
    midpoint ceil(log2(w)) times, w = (t1 - t0) / (tol max(1, t1)) > 1, or
    until the midpoint no longer splits it, classifying the midpoint by
    run(z_lo, d) -> z from the bracket's bounded end."""
    (ta, za), (tb, zb) = (t0, z0), (t1, z1)
    width = (t1 - t0) / (tol * max(1.0, t1))
    for _ in range(math.ceil(math.log2(width)) if width > 1.0 else 0):
        mid = 0.5 * (ta + tb)
        if mid <= ta or mid >= tb:
            break
        z = run(za, mid - ta)
        if _norm(z) < radius:
            ta, za = mid, z
        else:
            tb, zb = mid, z
    return tb, zb


def _lagrange(columns):
    """Column j's weight in the extrapolation to h = 0 of the polynomial in
    h^2 through (1 / n_j^2, T_j) for the columns."""
    h2 = {j: Fr(1, GBS_STEPS[j] ** 2) for j in columns}
    return {j: math.prod((h2[l] / (h2[l] - h2[j]) for l in columns if l != j),
                         start=Fr(1)) for j in columns}


def _centered(r):
    """{offset: coefficient} of the centered difference of order r: delta^r
    for even r, (delta^(r-1) at +1 - delta^(r-1) at -1) / 2 for odd r."""
    c = {0: Fr(1)}
    for _ in range(r // 2):
        c = {o: c.get(o - 1, 0) - 2 * c.get(o, 0) + c.get(o + 1, 0)
             for o in range(-len(c) // 2 - 1, len(c) // 2 + 2)}
    if r % 2:
        c = {o: (c.get(o - 1, 0) - c.get(o + 1, 0)) / 2
             for o in range(-len(c) // 2 - 1, len(c) // 2 + 2)}
    return {o: w for o, w in c.items() if w}


@functools.lru_cache
def _dense_weights(k):
    """{record index: weight} for each midpoint sum S_p, p = 0..2k+1, of a
    step accepted at column k, as Fractions; records are flat, the step's
    start first and then each column's substeps 1..n_j."""
    def at(j, i):
        return sum(GBS_STEPS[:j]) + i if i else 0
    sums = [collections.defaultdict(Fr) for _ in range(2 * k + 2)]
    for j, w in _lagrange(range(k + 1)).items():
        n = GBS_STEPS[j]
        m = n // 2
        # q at m = q + H/2 qd + h^2 (m/2 qdd + sum over l < m of (m - l)
        # qdd_l); the Verlet velocity h-sums are trapezoidal over 0..m
        sums[0][0] += w * m / 2 / n ** 2
        for l in range(1, m):
            sums[0][at(j, l)] += w * (m - l) / n ** 2
        for p in (1, 3):
            for l in range(m + 1):
                sums[p][at(j, l)] += w / n / (2 if l in (0, m) else 1)
        for p in (2, 4):
            sums[p][at(j, m)] += w
    for r in range(1, 2 * k - 2):
        for j, w in _lagrange(range((r - 1) // 2, k + 1)).items():
            n = GBS_STEPS[j]
            for o, c in _centered(r).items():
                sums[4 + r][at(j, n // 2 + o)] += w * n ** r * c
    return sums


def _reference_dense(k, forces, hs, t0, z0, f0, z1, f1):
    """The lane's interpolant of the step of size hs from (t0, z0) to z1,
    accepted at column k, as a function t -> state, plainly on floats:
    forces[j] are column j's (qdd, force) at substeps 1..n_j, f0 and f1 the
    force at z0 and z1.  Each sum runs over the records of its group in the
    lane's order, zero weights included, and each component's polynomial
    is built in the component's own units, with no division by a power of
    hs."""
    records = [(z0[2], f0)] + [f for column in forces for f in column]
    sums = []
    for group in (range(3), range(3, 2 * k + 2)):
        weights = _dense_weights(k)
        support = sorted(set().union(*(weights[p] for p in group)))
        for p in group:
            e = 0.0
            for i in support:
                e = e + records[i][p >= 3] * float(weights[p].get(i, 0))
            sums.append(e)
    top = 2 * k - 1
    q0, q1, q2, q3 = z0
    # z^(d) at the midpoint for d < 4, hs^(d-4) z^(d) for d >= 4
    mid = [q0 + 0.5 * hs * q1 + hs * hs * sums[0], q1 + hs * sums[1],
           sums[2], q3 + hs * sums[3], *sums[4:]]
    powers = [1.0, hs, hs * hs, hs * hs * hs, hs * hs * (hs * hs)]
    slopes0, slopes1 = (*z0[1:], f0), (*z1[1:], f1)
    half = [float(Fr(1, 2 ** m * math.factorial(m))) for m in range(top)]
    polys = []
    for c in range(4):
        # hs^m z_c^(m) at the midpoint: the Taylor part at s = 0, then the
        # four end terms at s = +-1/2
        jet = [powers[min(m, 4 - c)] * mid[c + m] for m in range(top)]
        even = odd = slope_even = slope_odd = 0.0
        for m in range(0, top - 2, 2):
            even = even + half[m] * jet[m]
            odd = odd + half[m + 1] * jet[m + 1]
            slope_even = slope_even + half[m] * jet[m + 1]
            slope_odd = slope_odd + half[m + 1] * jet[m + 2]
        r_even = 0.5 * (z1[c] + z0[c]) - (even + half[-1] * jet[-1])
        r_odd = 0.5 * (z1[c] - z0[c]) - odd
        s_even = 0.5 * (hs * slopes1[c] + hs * slopes0[c]) - slope_even
        s_odd = 0.5 * (hs * slopes1[c] - hs * slopes0[c]) - slope_odd
        d = 0.5 * (0.5 * s_even - top * r_odd)
        f = 0.5 * (0.5 * s_odd - (top + 1) * r_even)
        polys.append([f * 2.0 ** (top + 3), d * 2.0 ** (top + 2),
                      (r_even - f) * 2.0 ** (top + 1), (r_odd - d) * 2.0 ** top,
                      *(jet[m] * float(Fr(1, math.factorial(m)))
                        for m in reversed(range(top)))])

    def state(t):
        s = (t - t0) / hs - 0.5
        z = []
        for poly in polys:
            p = poly[0]
            for a in poly[1:]:
                p = p * s + a
            z.append(p)
        return tuple(z)
    return state


def _reference_run(make_column, force, y0, stops, tol, escape_radius):
    """The lane's run on Python lists around make_column(force) -> column(z,
    G(z), hs, n) -> (T_{j,0}, G_1..G_n), with max, min and abs calls where
    the lane writes conditionals that return what they return.

    Only a step that would reach the last stop within 1e-14 max(1, |stop|)
    is shortened to end on it; it is exempt from the step-underflow check
    and stops at the first column j >= 2 whose error, the scaled RMS of
    T_jj - T_j,j-1, is at most 1.  Every other step runs all six columns.
    A rejected step shrinks by 0.94 err^(-1 / (2j + 1)) clipped to [0.2,
    1]; an accepted one proposes that factor clipped to [0.2, 4].  A stop
    inside an accepted step is read off the step's interpolant
    (_reference_dense), a stop on its end takes its state.  The run ends at
    the last stop or at the first accepted step with |z| >= escape_radius,
    whose crossing _reference_crossing locates by runs of this reference.

    Returns (times, rows, escape_time, n_steps, n_rhs, n_rejected), n_rhs
    the number of force calls, and raises StepUnderflowError as the lane
    does.
    """
    calls = []

    def counted(x):
        calls.append(x)
        return force(x)

    def rhs(q0, q1, q2, q3):
        return q1, q2, q3, counted((q0, q2))[1]

    column = make_column(counted)
    coefficients = [[float(c) for c in row] for row in NEVILLE]
    z = list(y0)
    g = (z[2], rhs(*z)[3])
    h = _initial_step(rhs, y0, (z[1], z[2], z[3], g[1]), tol)
    t = 0.0
    n_steps = n_rejected = 0
    times, rows = [], []
    upcoming = list(stops)
    t_end = stops[-1]
    reach = t_end - 1e-14 * max(1.0, abs(t_end))
    while True:
        capped = t + h >= reach
        if capped:
            hs = t_end - t
        else:
            hs = h
            if hs < 1e-14 * max(1.0, t):
                raise StepUnderflowError(t)
        bases, forces = [], []
        for j, n in enumerate(GBS_STEPS):
            base, column_forces = column(z, g, hs, n)
            bases.append(base)
            forces.append(column_forces)
            if j >= 2 and (capped or j == len(GBS_STEPS) - 1):
                row = _neville(bases, coefficients)
                r0, r1, r2, r3 = (
                    (a - b) / (tol * (1.0 + max(abs(c), abs(a))))
                    for a, b, c in zip(row[j], row[j - 1], z))
                err = math.sqrt(0.25 * (r0 * r0 + r1 * r1 + r2 * r2
                                        + r3 * r3))
                if err <= 1.0:
                    break
        expo = -1.0 / (2 * j + 1)
        if not err <= 1.0:
            n_rejected += 1
            h = hs * min(1.0, max(_MIN_FACTOR, _SAFETY * err ** expo))
            if capped and t + h >= reach:
                raise StepUnderflowError(t)
            continue
        n_steps += 1
        t_prev, z_prev, g_prev = t, tuple(z), g
        t = t_end if capped else t + hs
        z = row[j]
        g = counted((z[0], z[2]))
        factor = _SAFETY * max(err, 1e-10) ** expo
        h = hs * min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
        end, z_end = t, tuple(z)
        escaped = _norm(z) >= escape_radius
        if escaped:
            def run(zs, d):
                nonlocal n_steps, n_rejected
                _, (z_run,), _, steps, _, rejected = _reference_run(
                    make_column, counted, zs, [d], tol, math.inf)
                n_steps, n_rejected = n_steps + steps, n_rejected + rejected
                return z_run

            end, z_end = _reference_crossing(run, t_prev, z_prev, t, z_end,
                                             tol, escape_radius)
        inside = [s for s in upcoming if s < end]
        if inside:
            state = _reference_dense(j, forces, hs, t_prev, z_prev, g_prev[1],
                                     tuple(z), g[1])
            times += inside
            rows += map(state, inside)
            del upcoming[:len(inside)]
        if escaped:
            return ([*times, end], [*rows, z_end], end, n_steps, len(calls),
                    n_rejected)
        if upcoming[0] == t:
            times.append(t)
            rows.append(z_end)
            del upcoming[0]
        if not upcoming:
            return times, rows, None, n_steps, len(calls), n_rejected


def _outcome(run, y0, stops, tol, radius):
    # repr tells -0.0 from 0.0, so signed zeros must match too
    try:
        return repr(run(y0, stops, tol, radius))
    except StepUnderflowError as exc:
        return f"StepUnderflowError at {exc.last_time!r}"


# W = 2 (1 - cos q): a bounded, non-polynomial force
PENDULUM = p.Potential(lambda q: 2.0 * (1.0 - math.cos(q)),
                       lambda q: 2.0 * math.sin(q),
                       lambda q: 2.0 * math.cos(q), "pendulum")
FIG_Y0 = tuple(FIG_Z0.as_array().tolist())
SAMPLE_STOPS = _sample_times(200.0, 0.1)[1:]
# (potential, y0, stops, tol, escape_radius)
LANE_CASES = {
    # trajectory workload runs: sample-grid stops, tol 1e-10
    "trajectory-free": (None, FIG_Y0, SAMPLE_STOPS, 1e-10, math.inf),
    "trajectory-5": (p.quartic(5.0), FIG_Y0, SAMPLE_STOPS, 1e-10, math.inf),
    # stops 0.01 apart: each step, about 1.0 long, reads about 100 of them
    # off its interpolant
    "dense-stops": (p.quartic(5.0), FIG_Y0,
                    _sample_times(20.0, 0.01)[1:], 1e-10, math.inf),
    # an escape at 7.13 among stops 0.01 apart: the stops before the located
    # crossing are read off the escaping step's interpolant
    "capped-rejected": (p.quartic(20.0), FIG_Y0,
                        _sample_times(20.0, 0.01)[1:], 1e-8, 1e6),
    # the step capped to t_end is rejected at t = 9.48 (err 2.4) and
    # retried, and the stops on the way are read off interpolants
    "end-rejected": (p.quartic(5.0), FIG_Y0, _sample_times(10.5, 0.25)[1:],
                     1e-10, math.inf),
    # scan lanes on both sides of lambda* = 8.79..., the zero quartic's
    # inline force at 0 (a scan runs lambda = 0 as the free field)
    **{f"scan-{lam}": (ZERO_QUARTIC if lam == 0.0 else p.quartic(lam),
                       FIG_Y0, [200.0], 1e-8, 1000.0)
       for lam in (0.0, 6.6, 8.78, 100.0)},
    # the rejecting run of test_step_counters
    "rejecting": (p.quartic(100.0), FIG_Y0, [50.0], 1e-4, 1e6),
    # finite-time blow-up with no radius: underflow at t > 1
    "blowup": (p.quartic(100.0), FIG_Y0,
               _sample_times(50.0, 0.1)[1:], 1e-8, math.inf),
    "signed-zeros-free": (None, (0.0, -0.0, 0.0, -0.0), [0.5, 1.0], 1e-8,
                          math.inf),
    "signed-zeros-1": (p.quartic(1.0), (-0.0, 0.0, -0.0, 0.0), [1.0], 1e-8,
                       1000.0),
    "t-end-1e-15": (None, FIG_Y0, [1e-15], 1e-8, 1000.0),
    # every substep h = 5e-324 / n rounds to 0
    "t-end-5e-324": (None, FIG_Y0, [5e-324], 1e-8, 1000.0),
    # 0 * q^3 turns NaN once q^3 overflows at a substep: uncapped steps are
    # rejected on a NaN error until the step underflows
    "nan-error-uncapped": (ZERO_QUARTIC,
                           (-5e102, -2.5e102, -7e101, -3.5e102), [50.0],
                           1e-8, math.inf),
    # the non-finite slopes of test_non_finite_slope_underflows_at_once
    **{f"nan-slope-{lam}-{t_end}": (
        ZERO_QUARTIC if lam == 0.0 else p.quartic(lam),
        (1e103, 0.0, 0.0, 0.0), [t_end], 1e-8, 1e106)
       for lam in (0.0, 1.0) for t_end in (1e-15, 1e-300, 1.0)},
    # a force that is not a quartic
    "pendulum": (PENDULUM, (3.0, 0.0, -1.0, 0.5), _sample_times(
        50.0, 0.5)[1:], 1e-9, 1000.0),
}


def _lane_and_references(name):
    pot, *args = LANE_CASES[name]
    a30, _, a32, _ = flow_matrix(PAR)[3].tolist()
    w_prime = _no_force if pot is None else pot.w_prime
    force = _force(a30, a32, w_prime)
    return (args, lambda *a: _gbs(a30, a32, w_prime, *a),
            lambda *a: _reference_run(_summed_column, force, *a),
            lambda *a: _reference_run(_textbook_column, force, *a))


@pytest.mark.parametrize("name", sorted(LANE_CASES))
def test_lane_is_its_reference_bit_for_bit(name):
    args, lane, summed, _ = _lane_and_references(name)
    with _within(30):
        assert _outcome(lane, *args) == _outcome(summed, *args)


@pytest.mark.parametrize("name", sorted(
    name for name, (pot, *_) in LANE_CASES.items()
    if pot is not None and pot.label.startswith("quartic(")))
def test_quartic_force_inline_is_the_call_bit_for_bit(name, monkeypatch):
    # the quartic's W' holds lam, so the lane computes lam (q q q) inline at
    # every substep and step end and calls W' only for the first step's
    # slopes, at most twice a run (its own and those locating the escape);
    # its run is that of the lane calling a plain W', and the reference's
    from puosc import dynamics
    pot, *args = LANE_CASES[name]
    a30, _, a32, _ = flow_matrix(PAR)[3].tolist()
    lam, cubic = pot.w_prime.lam, type(pot.w_prime)
    calls, runs = [], []

    def counted(self, q, call=cubic.__call__):
        calls.append(q)
        return call(self, q)

    def lane(*a, run=dynamics._gbs):
        runs.append(a)
        return run(*a)

    def plain(q):
        return lam * (q * q * q)

    monkeypatch.setattr(cubic, "__call__", counted)
    monkeypatch.setattr(dynamics, "_gbs", lane)
    with _within(30):
        inline = _outcome(lambda *a: lane(a30, a32, pot.w_prime, *a), *args)
        assert 0 < len(calls) <= 2 * len(runs)
        monkeypatch.undo()
        called = _outcome(lambda *a: _gbs(a30, a32, plain, *a), *args)
        reference = _outcome(lambda *a: _reference_run(
            _summed_column, _force(a30, a32, plain), *a), *args)
    assert inline == called == reference


def _outcome_kind(run, args):
    # (kind, escape or underflow time, (n_steps, n_rejected))
    try:
        _, _, escape_time, n_steps, _, n_rejected = run(*args)
    except StepUnderflowError as exc:
        return "underflow", exc.last_time, None
    kind = "ended" if escape_time is None else "escaped"
    return kind, escape_time, (n_steps, n_rejected)


# how each case ends, unchanged from the Dormand-Prince 5(4) lane this lane
# replaced
LANE_OUTCOMES = {
    **{name: "underflow" for name in LANE_CASES
       if name.startswith(("nan-", "blowup"))},
    **{name: "escaped" for name in (
        "capped-rejected", "rejecting", "scan-100.0")},
}


@pytest.mark.parametrize("name", sorted(LANE_CASES))
def test_lane_has_the_textbook_outcome(name):
    # the summed and two-step forms differ by rounding only: the same
    # outcome, the same underflow time to 1e-10, and the same counts on the
    # runs of one stop (the sampled runs land on hundreds of stops and may
    # differ by a step)
    args, lane, _, textbook = _lane_and_references(name)
    with _within(30):
        kind, t, counts = _outcome_kind(lane, args)
        ref_kind, ref_t, ref_counts = _outcome_kind(textbook, args)
    assert kind == ref_kind == LANE_OUTCOMES.get(name, "ended")
    if kind == "underflow":
        assert abs(t - ref_t) <= 1e-10 * ref_t
    if name.startswith(("scan-", "rejecting", "signed-zeros-", "t-end-")):
        assert counts == ref_counts


def test_lane_step_is_the_textbook_step_to_rounding():
    # one step of size h below the first trial step, so it is capped to land
    # on the one stop h and taken once
    rng = np.random.default_rng(3001)
    for _ in range(1000):
        par = random_params(rng)
        a30, _, a32, _ = flow_matrix(par)[3].tolist()
        w_prime = p.quartic(rng.uniform(0.0, 100.0)).w_prime
        force = _force(a30, a32, w_prime)
        y0 = tuple((rng.normal(size=4) * 10.0 ** rng.uniform(-2, 1)).tolist())
        tol = 10.0 ** rng.uniform(-10, -3)
        rhs = _companion_rhs(a30, a32, w_prime)
        h = rng.uniform(0.1, 1.0) * _initial_step(rhs, y0, rhs(*y0), tol)
        lane = _gbs(a30, a32, w_prime, y0, [h], tol, math.inf)
        ref = _reference_run(_textbook_column, force, y0, [h], tol, math.inf)
        assert lane[3:] == ref[3:] and (lane[3], lane[5]) == (1, 0)
        (y,), (y_ref,) = lane[1], ref[1]
        bound = 1e-14 * max(1.0, math.hypot(*y_ref))
        assert max(abs(a - b) for a, b in zip(y, y_ref)) <= bound


def _companion_rhs(a30, a32, wp):
    # the jet-chart field as a closure
    def f(q0, q1, q2, q3):
        return q1, q2, q3, a30 * q0 + a32 * q2 - wp(q0)
    return f


def _damped(A33=0.0, A31=0.0):
    A = flow_matrix(PAR).copy()
    A[3, 3], A[3, 1] = A33, A31
    return p.VectorField(A, p.quartic(1.0))


# the free flow in the momentum chart, L A L^-1
MOMENTUM_FIELD = p.VectorField(
    ostro_jacobian(PAR) @ flow_matrix(PAR) @ ostro_jacobian_inv(PAR))


@pytest.mark.parametrize("field", [
    _damped(A33=-0.1), _damped(A31=0.05), MOMENTUM_FIELD,
    p.free_vector_field(p.make_params(1.0, 3.0))],
    ids=["damped", "a31", "momentum-chart", "foreign-params"])
def test_integrate_rejects_a_foreign_linear_part(field):
    # integrate runs the jet-chart field of its params and computes H1, H2
    # from those params, so any other linear part is refused: a damped or
    # a31 row, another chart, or another model's flow
    with pytest.raises(ChartMismatchError, match="ostro_jacobian"):
        p.integrate(PAR, field, FIG_Z0, 20.0, tol=1e-9, sample_rate=0.5)


@pytest.mark.parametrize("pot", [None, p.quartic(5.0), PENDULUM])
def test_integrate_runs_the_lane_on_its_params_field(pot):
    # integrate takes (a30, a32) = (-beta, -alpha) from flow_matrix(params)
    # and the force from the field's potential
    traj = p.integrate(PAR, field_for(PAR, pot), FIG_Z0, 20.0, tol=1e-9,
                       sample_rate=0.5)
    times, rows, _, n_steps, n_rhs, n_rejected = _gbs(
        -PAR.beta, -PAR.alpha, _no_force if pot is None else pot.w_prime,
        FIG_Y0, _sample_times(20.0, 0.5)[1:], 1e-9, math.inf)
    assert repr(traj.times.tolist()) == repr([0.0, *times])
    assert repr(traj.states.tolist()) == repr([list(FIG_Y0),
                                               *map(list, rows)])
    assert (traj.meta["n_steps"], traj.meta["n_rhs"],
            traj.meta["n_rejected"]) == (n_steps, n_rhs, n_rejected)


def test_batch_counts_rejections_as_integrate_does():
    # the rejecting run of test_step_counters, as one scan coupling
    point = scan_point(100.0, 50.0, 1e6, tol=1e-4)
    traj = p.integrate(PAR, field_for(PAR, p.quartic(100.0)), FIG_Z0, 50.0,
                       tol=1e-4, sample_rate=50.0, escape_radius=1e6)
    assert point.n_rejected == traj.meta["n_rejected"] > 0
    assert point.n_steps == traj.meta["n_steps"]


def test_each_scan_coupling_is_one_integrate_run(monkeypatch):
    from puosc import dynamics
    calls = []

    def spy(*args, run=dynamics.integrate, **kwargs):
        calls.append((args, kwargs))
        return run(*args, **kwargs)

    monkeypatch.setattr(dynamics, "integrate", spy)
    rep = p.threshold_search(PAR, FIG_Z0, 120.0, 1000.0, (5.0, 12.0),
                             grid_points=6, bisect_iters=4, tol=1e-8)
    assert rep.refine["runs"] > 0
    assert len(calls) == 6 + rep.refine["runs"]
    for lam, (args, kwargs) in zip([g.lam for g in rep.grid], calls):
        assert args[1].potential.label == f"quartic(lam={lam!r})"
        assert args[3] == 120.0 and args[4] == 1e-8   # t_end and tol
        assert kwargs == {"sample_rate": 120.0, "escape_radius": 1000.0}


def test_only_integrate_calls_the_lane():
    # and the lane itself, whose escape location runs it from inside the
    # escaping step
    from puosc import dynamics
    callers = []
    for path in sorted(Path(dynamics.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in tree.body:
            callers += [(path.name, getattr(fn, "name", None))
                        for n in ast.walk(fn) if isinstance(n, ast.Call)
                        and "_gbs" in ast.unparse(n.func)]
    assert callers == [("dynamics.py", "_gbs"), ("dynamics.py", "integrate")]


def _called_in_loops(fn) -> set:
    tree = ast.parse(inspect.getsource(fn))
    loops = [n for n in ast.walk(tree) if isinstance(n, ast.While)]
    assert loops
    return {n.func.id if isinstance(n.func, ast.Name) else ast.unparse(n.func)
            for loop in loops for n in ast.walk(loop)
            if isinstance(n, ast.Call)}


def test_lane_step_loop_calls_only_sqrt_and_the_force():
    """No closure, builtin (max, min, abs) or method call per stage: a call
    costs more than the float arithmetic it stands for.  The quartic's force
    is written inline, so w_prime is called in the loop only for the free
    field and any other potential."""
    assert _called_in_loops(_gbs) == {
        "sqrt", "w_prime", "StepUnderflowError"}
