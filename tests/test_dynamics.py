"""Integrator accuracy, conservation, mode decomposition, runaway detection."""

import ast
import contextlib
import inspect
import math
import operator
import re
import signal
import tracemalloc
import warnings
from fractions import Fraction as Fr
from functools import reduce
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import puosc as p
from puosc.core import flow_matrix, ostro_jacobian, ostro_jacobian_inv
from puosc.dynamics import (
    _MAX_FACTOR, _MIN_FACTOR, _PI_ALPHA, _PI_BETA, _SAFETY,
    CSV_HEADER,
    MAX_GRID_POINTS,
    MAX_SAMPLES,
    GridPoint,
    _bisect,
    _coupling_grid,
    _dp54,
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
# 0 * inf = NaN at lam = 0.  Neither a capped nor an uncapped first step
# can be taken, so the run must end in step underflow at t = 0.
@pytest.mark.parametrize("lam", [0.0, 1.0])
@pytest.mark.parametrize("t_end", [1e-15, 1e-300, 1.0])
def test_non_finite_slope_underflows_at_once(lam, t_end):
    z0 = p.JetState(1e103, 0, 0, 0)
    with _within(10), pytest.raises(StepUnderflowError) as exc:
        p.integrate(PAR, field_for(PAR, p.quartic(lam)), z0, t_end)
    assert exc.value.last_time == 0.0
    with _within(10), pytest.raises(StepUnderflowError) as exc:
        scan_run(lam, t_end, 1e106, z0=z0)
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


@pytest.mark.parametrize("lam, tol, radius", [
    (0.0, 1e-10, 1e3), (5.0, 1e-8, 1e3), (10.0, 1e-6, 1e3),
    # steps are rejected as a runaway blows up towards a far escape radius
    (100.0, 1e-4, 1e6)])
def test_step_counters(lam, tol, radius):
    traj = p.integrate(PAR, field_for(PAR, p.quartic(lam)), FIG_Z0, 50.0,
                       tol=tol, sample_rate=50.0, escape_radius=radius)
    meta = traj.meta
    assert meta["n_rhs"] == 2 + 6 * (meta["n_steps"] + meta["n_rejected"])
    assert meta["n_rejected"] > 0 or radius == 1e3


@pytest.mark.parametrize("lam", [0.0, 5.0])
def test_sample_stops_keep_the_step_size(lam):
    # a step capped to land on a sample time hands on the larger of its own
    # proposal and the step it was shortened from, so sampling every 0.1
    # costs at most 30% more accepted steps than t_end alone (43% and 42%
    # when each capped step handed on only its own proposal)
    field = field_for(PAR, None if lam == 0.0 else p.quartic(lam))
    sampled, alone = (p.integrate(PAR, field, FIG_Z0, 200.0, tol=1e-10,
                                  sample_rate=rate).meta["n_steps"]
                      for rate in (0.1, 200.0))
    assert sampled <= 1.3 * alone


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


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def test_csv_rows_shape_and_header():
    traj = p.integrate(PAR, p.free_vector_field(PAR), FIG_Z0, 1.0,
                       tol=1e-9, sample_rate=0.5)
    rows = trajectory_csv_rows(PAR, traj)
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
    assert trajectory_csv_rows(PAR, t1) == trajectory_csv_rows(PAR, t2)


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
    assert trajectory_csv_rows(PAR, traj) == expected


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
    assert trajectory_csv_rows(PAR, traj) == _verbatim_csv_rows(PAR, traj)


def test_csv_rows_keep_signed_zeros():
    zero = np.array([0.0])
    traj = p.Trajectory(zero, np.array([[-0.0, 0.0, -0.0, 0.0]]), -zero,
                        zero, -zero, {})
    (row,) = trajectory_csv_rows(PAR, traj)
    assert row == _verbatim_csv_rows(PAR, traj)[0]
    # p1 = -alpha * 0.0 - 0.0 is -0.0
    assert row == "0.0,-0.0,0.0,-0.0,0.0,-0.0,0.0,-0.0,-0.0,-0.0,0.0,-0.0"


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
    # own one-sample run bit for bit, and its verdict is that of a run
    # stepping on the 0.1 sample grid
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
        if traj.escaped:
            gap = abs(point.escape_time - traj.meta["escape_time"])
            assert gap <= 1e-2, lam
    assert any(g.bounded for g in rep.grid)
    assert not all(g.bounded for g in rep.grid)


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

# The Dormand-Prince 5(4) tableau: rows of A (row 7 is b: FSAL), b and the
# error weights e = b - bhat.  The lane runs its induced Runge-Kutta-Nystrom
# form (Hairer, Norsett and Wanner, Solving ODEs I, II.14): nodes c = A 1,
# position weights Abar = A^2, bbar = b A and ebar = e A.
DP_A = [[Fr(0)] * 7 for _ in range(7)]
for _i, _row in enumerate([
        [Fr(1, 5)],
        [Fr(3, 40), Fr(9, 40)],
        [Fr(44, 45), Fr(-56, 15), Fr(32, 9)],
        [Fr(19372, 6561), Fr(-25360, 2187), Fr(64448, 6561), Fr(-212, 729)],
        [Fr(9017, 3168), Fr(-355, 33), Fr(46732, 5247), Fr(49, 176),
         Fr(-5103, 18656)],
        [Fr(35, 384), Fr(0), Fr(500, 1113), Fr(125, 192), Fr(-2187, 6784),
         Fr(11, 84)]], start=1):
    DP_A[_i][:len(_row)] = _row
DP_B = DP_A[6]
DP_E = [Fr(71, 57600), Fr(0), Fr(-71, 16695), Fr(71, 1920),
        Fr(-17253, 339200), Fr(22, 525), Fr(-1, 40)]
DP_C = [sum(row) for row in DP_A]
ABAR = [[sum(DP_A[i][j] * DP_A[j][k] for j in range(7)) for k in range(7)]
        for i in range(7)]
BBAR, EBAR = ([sum(w[j] * DP_A[j][k] for j in range(7)) for k in range(7)]
              for w in (DP_B, DP_E))


def test_lane_constants_are_the_nystrom_form_of_the_tableau():
    from puosc import dynamics
    # stage i reads c_i for i <= 5 (c_6 = c_7 = 1) and abar_ik for
    # k <= i - 2; the step reads the nonzero bbar_k, b_k, ebar_k and e_k
    expected = {f"_C{i + 1}": DP_C[i] for i in range(1, 5)}
    expected.update({f"_AB{i + 1}{k + 1}": ABAR[i][k]
                     for i in range(2, 6) for k in range(i - 1)})
    for name, w in (("BB", BBAR), ("B", DP_B), ("EB", EBAR), ("E", DP_E)):
        expected.update({f"_{name}{k + 1}": x for k, x in enumerate(w) if x})
    lane = {name: value for name, value in vars(dynamics).items()
            if re.fullmatch(r"_(C|AB|BB|B|EB|E)\d+", name)}
    assert sorted(lane) == sorted(expected)
    assert all(lane[name] == float(x) for name, x in expected.items())
    assert all(x != 0 for x in expected.values())   # no product with 0
    # the zeros the lane leaves out
    assert DP_C[5] == DP_C[6] == 1 and sum(DP_E) == 0
    assert all(ABAR[i][i - 1] == 0 for i in range(1, 7))
    assert ABAR[6] == BBAR and BBAR[1] == BBAR[5] == BBAR[6] == 0
    assert EBAR[1] == EBAR[6] == 0


def _floats(weights):
    return [float(w) for w in weights]


def _lincomb(weights, vectors):
    # sum_k w_k v_k over the nonzero weights, added left to right from the
    # first term, as the lane writes its sums (0.0 + -0.0 would drop a
    # signed zero); [] when every weight is 0
    terms = [[w * x for x in v] for w, v in zip(weights, vectors) if w]
    return [reduce(operator.add, col) for col in zip(*terms)]


def _textbook_step(rhs):
    """One DP5(4) step of size hs on the 4-vector z with FSAL slope k1:
    K_i = rhs(z + hs sum_j a_ij K_j), z_new = z + hs sum_j b_j K_j, and the
    error numerators hs sum_j e_j K_j."""
    a, b, e = [_floats(row) for row in DP_A], _floats(DP_B), _floats(DP_E)

    def step(z, k1, hs):
        ks = [k1]
        for row in a[1:6]:
            ks.append(rhs(*(x + hs * s for x, s in zip(z, _lincomb(row, ks)))))
        z_new = tuple(x + hs * s for x, s in zip(z, _lincomb(b, ks)))
        ks.append(rhs(*z_new))
        return z_new, ks[6], [hs * s for s in _lincomb(e, ks)]
    return step


def _nystrom_step(a30, a32, w_prime):
    """The lane's step, summed in the lane's order from the Fraction-derived
    weights: positions x = (q, qdd), velocities v = (qd, qddd), forces
    G_k = (qdd, a30 q + a32 qdd - w_prime(q)) at X_k, and c_i hs v with
    c_i = 1 written 1.0 * hs v, which is hs v bit for bit."""
    c, b, bbar, e, ebar = map(_floats, (DP_C, DP_B, BBAR, DP_E, EBAR))
    abar = [_floats(row) for row in ABAR]

    def step(z, k1, hs):
        x, hv, hh = (z[0], z[2]), (hs * z[1], hs * z[3]), hs * hs
        gs = [(k1[1], k1[3])]

        def position(ci, weights):
            s = _lincomb(weights, gs)
            return [xj + ci * hvj + hh * sj for xj, hvj, sj in zip(x, hv, s)] \
                if s else [xj + ci * hvj for xj, hvj in zip(x, hv)]

        def force(xi):
            return xi[1], a30 * xi[0] + a32 * xi[1] - w_prime(xi[0])

        for i in range(1, 6):
            gs.append(force(position(c[i], abar[i])))
        x_new = position(c[6], bbar)
        v_new = [vj + hs * s for vj, s in zip((z[1], z[3]), _lincomb(b, gs))]
        gs.append(force(x_new))
        se, seb = _lincomb(e, gs), _lincomb(ebar, gs)
        return ((x_new[0], v_new[0], x_new[1], v_new[1]),
                (v_new[0], x_new[1], v_new[1], gs[6][1]),
                [hh * seb[0], hs * se[0], hh * seb[1], hs * se[1]])
    return step


def _reference_run(step, rhs, y0, stops, tol, escape_radius):
    """The lane's run on Python floats around step(z, k1, hs) ->
    (z_new, k7, error numerators), written with max, min and abs calls where
    the lane writes conditionals that return what they return.

    rhs is a closure (q0, q1, q2, q3) -> 4-tuple of floats, y0 a 4-tuple
    of floats, stops the increasing positive times the run must land on
    (the last ends it), tol and escape_radius floats (math.inf for no escape
    test).  A step that would reach a stop within 1e-14 max(1, |stop|) is
    shortened to end on it; such a capped step is exempt from the
    step-underflow check, since its size is the positive gap to the stop.
    The step after an accepted capped step takes the larger of the proposal
    the cap shortened and the controller's proposal from the capped size.
    The run ends at the last stop or at the end of the first accepted step
    with |z| >= escape_radius.

    Returns (times, rows, escape_time, n_steps, n_rhs, n_rejected) and
    raises StepUnderflowError as the lane does.
    """
    z = y0
    k1 = rhs(*z)
    h = _initial_step(rhs, y0, k1, tol)
    t = 0.0
    err_prev = 1e-4
    n_steps = n_rejected = 0
    times, rows = [], []
    neg_alpha, beta = -_PI_ALPHA, _PI_BETA
    for target in stops:
        reach = target - 1e-14 * max(1.0, abs(target))
        while True:
            capped = t + h >= reach
            if capped:
                hs = target - t
            else:
                hs = h
                if hs < 1e-14 * max(1.0, t):
                    raise StepUnderflowError(t)

            p_new, k7, num = step(z, k1, hs)
            r0, r1, r2, r3 = (n / (tol * (1.0 + max(abs(a), abs(b))))
                              for n, a, b in zip(num, z, p_new))
            err = math.sqrt(0.25 * (r0 * r0 + r1 * r1 + r2 * r2 + r3 * r3))

            if not err <= 1.0:
                n_rejected += 1
                h = hs * min(1.0, max(_MIN_FACTOR, _SAFETY * err ** neg_alpha))
                if capped and t + h >= reach:
                    raise StepUnderflowError(t)
                continue
            n_steps += 1
            t = target if capped else t + hs
            z, k1 = p_new, k7
            err_b = max(err, 1e-10)
            factor = _SAFETY * err_b ** neg_alpha * err_prev ** beta
            err_prev = err_b
            h_next = hs * min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
            h = max(h, h_next) if capped else h_next
            q0, q1, q2, q3 = z
            escaped = math.sqrt(q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3) \
                >= escape_radius
            if capped or escaped:
                times.append(t)
                rows.append(z)
            if escaped:
                return (times, rows, t, n_steps,
                        2 + 6 * (n_steps + n_rejected), n_rejected)
            if capped:
                break
    return times, rows, None, n_steps, 2 + 6 * (n_steps + n_rejected), n_rejected


def _reference_dp54(rhs, y0, stops, tol, escape_radius):
    """The textbook DP5(4) run on the 4-vector, with the lane's control."""
    return _reference_run(_textbook_step(rhs), rhs, y0, stops, tol,
                          escape_radius)


def _companion_rhs(a30, a32, wp):
    # the jet-chart field as a closure
    if wp is None:
        def f(q0, q1, q2, q3):
            return q1, q2, q3, a30 * q0 + a32 * q2
    else:
        def f(q0, q1, q2, q3):
            return q1, q2, q3, a30 * q0 + a32 * q2 - wp(q0)
    return f


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
    # stops 0.01 apart, closer than the mean step of the one-stop run
    # (20 / 1097 steps, about 0.018): most steps are capped
    "dense-stops": (p.quartic(5.0), FIG_Y0,
                    _sample_times(20.0, 0.01)[1:], 1e-10, math.inf),
    # a capped step is rejected at t = 6.73, before the escape at 7.13; its
    # shrunk retry is uncapped
    "capped-rejected": (p.quartic(20.0), FIG_Y0,
                        _sample_times(20.0, 0.01)[1:], 1e-8, 1e6),
    # scan lanes on both sides of lambda* = 8.78...
    **{f"scan-{lam}": (p.quartic(lam), FIG_Y0, [200.0], 1e-8, 1000.0)
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
    "t-end-5e-324": (None, FIG_Y0, [5e-324], 1e-8, 1000.0),
    # 0 * q^3 turns NaN once q^3 overflows at a stage: uncapped steps are
    # rejected on a NaN error until the step underflows
    "nan-error-uncapped": (p.quartic(0.0),
                           (-5e102, -2.5e102, -7e101, -3.5e102), [50.0],
                           1e-8, math.inf),
    # the non-finite slopes of test_non_finite_slope_underflows_at_once
    **{f"nan-slope-{lam}-{t_end}": (p.quartic(lam), (1e103, 0.0, 0.0, 0.0),
                                    [t_end], 1e-8, 1e106)
       for lam in (0.0, 1.0) for t_end in (1e-15, 1e-300, 1.0)},
    # a force that is not a quartic
    "pendulum": (PENDULUM, (3.0, 0.0, -1.0, 0.5), _sample_times(
        50.0, 0.5)[1:], 1e-9, 1000.0),
}


def _lane_and_references(name):
    pot, *args = LANE_CASES[name]
    a30, _, a32, _ = flow_matrix(PAR)[3].tolist()
    w_prime = _no_force if pot is None else pot.w_prime
    rhs = _companion_rhs(a30, a32, None if pot is None else pot.w_prime)
    return (args, lambda *a: _dp54(a30, a32, w_prime, *a),
            lambda *a: _reference_run(_nystrom_step(a30, a32, w_prime), rhs,
                                      *a),
            lambda *a: _reference_dp54(rhs, *a))


@pytest.mark.parametrize("name", sorted(LANE_CASES))
def test_lane_is_its_reference_bit_for_bit(name):
    args, lane, nystrom, _ = _lane_and_references(name)
    with _within(30):
        assert _outcome(lane, *args) == _outcome(nystrom, *args)


def _outcome_kind(run, args):
    # (kind, escape or underflow time, (n_steps, n_rejected))
    try:
        _, _, escape_time, n_steps, _, n_rejected = run(*args)
    except StepUnderflowError as exc:
        return "underflow", exc.last_time, None
    kind = "ended" if escape_time is None else "escaped"
    return kind, escape_time, (n_steps, n_rejected)


@pytest.mark.parametrize("name", sorted(LANE_CASES))
def test_lane_has_the_textbook_outcome(name):
    # the two forms differ by rounding only: the same outcome, the same
    # underflow time to 1e-10, and the same counts on the runs of one stop
    # (the sampled runs land on hundreds of stops and may differ by a step)
    args, lane, _, textbook = _lane_and_references(name)
    with _within(30):
        kind, t, counts = _outcome_kind(lane, args)
        ref_kind, ref_t, ref_counts = _outcome_kind(textbook, args)
    assert kind == ref_kind
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
        rhs = _companion_rhs(a30, a32, w_prime)
        y0 = tuple((rng.normal(size=4) * 10.0 ** rng.uniform(-2, 1)).tolist())
        tol = 10.0 ** rng.uniform(-10, -3)
        h = rng.uniform(0.1, 1.0) * _initial_step(rhs, y0, rhs(*y0), tol)
        lane = _dp54(a30, a32, w_prime, y0, [h], tol, math.inf)
        ref = _reference_dp54(rhs, y0, [h], tol, math.inf)
        assert lane[3:] == ref[3:] == (1, 8, 0)
        (y,), (y_ref,) = lane[1], ref[1]
        bound = 1e-14 * max(1.0, math.hypot(*y_ref))
        assert max(abs(a - b) for a, b in zip(y, y_ref)) <= bound


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
    times, rows, _, n_steps, n_rhs, n_rejected = _dp54(
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
    from puosc import dynamics
    callers = []
    for path in sorted(Path(dynamics.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in tree.body:
            callers += [(path.name, getattr(fn, "name", None))
                        for n in ast.walk(fn) if isinstance(n, ast.Call)
                        and "_dp54" in ast.unparse(n.func)]
    assert callers == [("dynamics.py", "integrate")]


def _called_in_loops(fn) -> set:
    tree = ast.parse(inspect.getsource(fn))
    loops = [n for n in ast.walk(tree) if isinstance(n, ast.While)]
    assert loops
    return {n.func.id if isinstance(n.func, ast.Name) else ast.unparse(n.func)
            for loop in loops for n in ast.walk(loop)
            if isinstance(n, ast.Call)}


def test_lane_step_loop_calls_only_sqrt_and_the_force():
    # no closure, builtin (max, min, abs) or method call per stage: a call
    # costs more than the float arithmetic it stands for
    assert _called_in_loops(_dp54) == {
        "sqrt", "w_prime", "StepUnderflowError"}
