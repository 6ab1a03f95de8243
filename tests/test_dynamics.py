"""Integrator accuracy, conservation, mode decomposition, runaway detection."""

import ast
import contextlib
import inspect
import math
import signal
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import puosc as p
from puosc.core import flow_matrix, ostro_jacobian, ostro_jacobian_inv
from puosc.dynamics import (
    _A21, _A31, _A32, _A41, _A42, _A43, _A51, _A52, _A53, _A54,
    _A61, _A62, _A63, _A64, _A65, _B1, _B3, _B4, _B5, _B6,
    _E1, _E3, _E4, _E5, _E6, _E7, _MAX_FACTOR, _MIN_FACTOR,
    _PI_ALPHA, _PI_BETA, _SAFETY,
    CSV_HEADER,
    MAX_SAMPLES,
    GridPoint,
    _bisect,
    _companion,
    _companion_dp54,
    _dp54,
    _float_rhs,
    _initial_step,
    _sample_times,
    closed_form_states,
    default_escape_radius,
    field_for,
    runaway_batch,
    trajectory_csv_rows,
)
from puosc.errors import (
    PreconditionViolatedError,
    ScanDegenerateError,
    StepUnderflowError,
)

PAR = p.make_params(1.0, 2.0)
FIG_Z0 = p.ostro_to_jet(PAR, p.OstroState(0.0, 0.0, 0.5, -0.5))


def random_params(rng):
    while True:
        w1, w2 = rng.uniform(0.3, 3.0, 2)
        if abs(w1 - w2) > 0.1:
            return p.make_params(w1, w2)


# ---------------------------------------------------------------------------
# mode decomposition
# ---------------------------------------------------------------------------

def test_mode_decompose_pure_modes():
    m1 = p.mode_decompose(PAR, p.JetState(1, 0, -1, 0))
    assert m1.a1 == pytest.approx(0.5 + 0j, abs=1e-14)
    assert m1.a2 == pytest.approx(0.0 + 0j, abs=1e-14)
    m2 = p.mode_decompose(PAR, p.JetState(1, 0, -4, 0))
    assert m2.a1 == pytest.approx(0.0 + 0j, abs=1e-14)
    assert m2.a2 == pytest.approx(0.5 + 0j, abs=1e-14)
    m0 = p.mode_decompose(PAR, p.JetState(0, 0, 0, 0))
    assert m0.a1 == 0 and m0.a2 == 0


def test_mode_round_trip_1000_states():
    rng = np.random.default_rng(21)
    for _ in range(1000):
        z = p.JetState.from_array(rng.uniform(-3, 3, 4))
        m = p.mode_decompose(PAR, z)
        back = p.mode_reconstruct(PAR, m, 0.0)
        assert np.allclose(back.as_array(), z.as_array(), rtol=0, atol=1e-12)


def test_mode_energy_spot_values():
    e = p.mode_energy(PAR, p.ModeAmplitudes(0.5 + 0j, 0j))
    assert e["e1"] == pytest.approx(-1.5, abs=1e-14)
    assert e["total"] == pytest.approx(-1.5, abs=1e-14)
    e = p.mode_energy(PAR, p.ModeAmplitudes(0j, 0.5 + 0j))
    assert e["e2"] == pytest.approx(6.0, abs=1e-14)
    assert e["total"] == pytest.approx(6.0, abs=1e-14)
    assert p.mode_energy(PAR, p.ModeAmplitudes(0j, 0j))["total"] == 0.0


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
        for H in (p.h1(PAR), p.h2(PAR)):
            full = H.value(p.mode_reconstruct(PAR, p.ModeAmplitudes(a1, a2)))
            only1 = H.value(p.mode_reconstruct(PAR, p.ModeAmplitudes(a1, 0j)))
            only2 = H.value(p.mode_reconstruct(PAR, p.ModeAmplitudes(0j, a2)))
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
        runaway_batch(PAR, [lam], z0, t_end, 1e106)
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
    assert runaway_batch(PAR, [0.0, 100.0], FIG_Z0, t_end, 1000.0) == (
        GridPoint(0.0, True, None, 1, 0), GridPoint(100.0, True, None, 1, 0))


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


def test_trajectory_times_strictly_increasing():
    traj = p.integrate(PAR, p.free_vector_field(PAR), p.JetState(1, 0, -1, 0),
                       7.3, tol=1e-8, sample_rate=0.25)
    assert np.all(np.diff(traj.times) > 0)
    assert traj.times[-1] == pytest.approx(7.3, abs=1e-12)
    assert len(traj.times) == len(traj.states) == len(traj.h1_series)


def test_chart_equivalence():
    # integrating the momentum-chart equations directly matches transporting
    # the jet trajectory through the chart map
    L = ostro_jacobian(PAR)
    Linv = ostro_jacobian_inv(PAR)
    A_ostro = L @ flow_matrix(PAR) @ Linv

    z0 = p.JetState(0.2, -0.4, 1.0, 0.3)
    s0 = p.jet_to_ostro(PAR, z0)
    jet = p.integrate(PAR, p.free_vector_field(PAR), z0, 50.0, tol=1e-11)
    ostro = p.integrate(PAR, p.VectorField(A_ostro),
                        p.JetState.from_array(s0.as_array()), 50.0, tol=1e-11)
    transported = jet.states @ L.T
    assert np.max(np.abs(transported - ostro.states)) < 1e-7


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
    (v,) = runaway_batch(PAR, [0.0], FIG_Z0, 200.0, 1000.0)
    assert v.bounded and v.escape_time is None


def test_runaway_large_coupling_escapes():
    (v,) = runaway_batch(PAR, [10.0], FIG_Z0, 200.0, 1000.0)
    assert not v.bounded
    assert v.escape_time is not None and v.escape_time < 200.0


def test_runaway_very_large_coupling_escapes():
    (v,) = runaway_batch(PAR, [100.0], FIG_Z0, 200.0, 1000.0)
    assert not v.bounded and v.escape_time < 30.0


def test_runaway_precondition():
    with pytest.raises(PreconditionViolatedError):
        runaway_batch(PAR, [0.0], FIG_Z0, 10.0, escape_radius=0.1)


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
            runaway_batch(PAR, [1.0], huge, 0.5, 1e300)
    assert default_escape_radius(p.JetState(1e154, 0, 0, 0)) == 1e157


def test_verdict_invariant():
    for v in runaway_batch(PAR, [0.0, 10.0], FIG_Z0, 200.0, 1000.0):
        assert (not v.bounded) == (v.escape_time is not None
                                   and 0.0 < v.escape_time <= 200.0)


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


def test_threshold_search_rejects_underflowing_grid():
    # the geometric grid from lambda_max * 1e-3 would start at 0
    with pytest.raises(PreconditionViolatedError, match="underflows"):
        p.threshold_search(PAR, FIG_Z0, 5.0, 1000.0, (0.0, 5e-324))


def test_threshold_search_all_unbounded():
    with pytest.raises(ScanDegenerateError) as exc:
        p.threshold_search(PAR, FIG_Z0, 100.0, 1000.0, (50.0, 200.0),
                           grid_points=6, bisect_iters=5, tol=1e-8)
    assert exc.value.kind == "all-unbounded"


def test_threshold_search_small():
    # coarse scan over a bracketing range; full-range scan lives in acceptance
    rep = p.threshold_search(PAR, FIG_Z0, 120.0, 1000.0, (5.0, 12.0),
                             grid_points=6, bisect_iters=12, tol=1e-8)
    assert rep.lambda_star is not None
    assert 5.0 < rep.lambda_star < 12.0
    flags = [g.bounded for g in rep.grid]
    assert flags[0] and not flags[-1]


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
# one lane per coupling, and the bisection
# ---------------------------------------------------------------------------

@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(lams=st.lists(st.floats(0.0, 300.0), min_size=1, max_size=6),
       pick=st.integers(0, 5),
       tol=st.floats(1e-10, 1e-6),
       t_end=st.floats(0.2, 5.0),
       radius=st.floats(2.0, 1000.0))
def test_batch_lane_equals_batch_of_one(lams, pick, tol, t_end, radius):
    k = pick % len(lams)
    batch = runaway_batch(PAR, lams, FIG_Z0, t_end, radius, tol=tol)
    alone = runaway_batch(PAR, [lams[k]], FIG_Z0, t_end, radius, tol=tol)
    assert len(batch) == len(lams)
    assert batch[k] == alone[0]     # float fields compared bitwise


def test_batch_spans_several_kernel_runs():
    lams = np.linspace(0.0, 400.0, 35)
    batch = runaway_batch(PAR, lams, FIG_Z0, 5.0, 20.0, tol=1e-8)
    assert [g.lam for g in batch] == [float(x) for x in lams]
    assert batch[-1] == runaway_batch(PAR, lams[-1:], FIG_Z0, 5.0, 20.0,
                                      tol=1e-8)[0]
    assert batch[0].bounded and not batch[-1].bounded


@pytest.mark.parametrize("lam", [0.0, 5.0, 8.78, 10.0, 100.0])
def test_batch_escape_time_is_integrate_with_one_sample(lam):
    # a scan lane is integrate's lane with t_end as its only stop, so the
    # two take the same steps and agree bit for bit
    (point,) = runaway_batch(PAR, [lam], FIG_Z0, 200.0, 1000.0, tol=1e-8)
    traj = p.integrate(PAR, field_for(PAR, p.quartic(lam)), FIG_Z0, 200.0,
                       tol=1e-8, sample_rate=200.0, escape_radius=1000.0)
    assert point.escape_time == traj.meta["escape_time"]
    assert point.bounded == (not traj.escaped)
    assert point.n_steps == traj.meta["n_steps"]
    assert point.n_rejected == traj.meta["n_rejected"]


def test_batch_verdicts_match_integrate():
    # the 16-point criterion-8 grid threshold_search builds over [0, 10];
    # integrate steps on the 0.1 sample grid, the batch on its own steps
    lams = np.concatenate([[0.0], np.geomspace(1e-2, 10.0, 15)])
    batch = runaway_batch(PAR, lams, FIG_Z0, 200.0, 1000.0, tol=1e-8)
    for lam, point in zip(lams, batch):
        pot = p.quartic(lam) if lam > 0 else None
        traj = p.integrate(PAR, field_for(PAR, pot), FIG_Z0, 200.0, tol=1e-8,
                           escape_radius=1000.0)
        assert point.bounded == (not traj.escaped), lam
        if traj.escaped:
            gap = abs(point.escape_time - traj.meta["escape_time"])
            assert gap <= 1e-2, lam
    assert any(g.bounded for g in batch) and not all(g.bounded for g in batch)


def test_batch_preconditions():
    with pytest.raises(PreconditionViolatedError, match="escape_radius"):
        runaway_batch(PAR, [1.0], FIG_Z0, 10.0, 0.1)
    with pytest.raises(PreconditionViolatedError, match="tol"):
        runaway_batch(PAR, [1.0], FIG_Z0, 10.0, 1000.0, tol=1.0)
    assert runaway_batch(PAR, [], FIG_Z0, 10.0, 1000.0) == ()


def test_numpy_scalar_inputs_give_float_fields():
    # numpy scalars are converted at the boundary, so the lane runs on
    # Python floats and returns them
    grid = runaway_batch(PAR, np.array([0.0, 100.0]), FIG_Z0, np.float64(50.0),
                         np.float64(1000.0), tol=np.float64(1e-8))
    assert not grid[1].bounded
    for g in grid:
        assert type(g.lam) is float
    assert type(grid[1].escape_time) is float
    rep = p.threshold_search(PAR, FIG_Z0, np.float64(120.0), np.float64(1000.0),
                             np.array([5.0, 12.0]), grid_points=4,
                             bisect_iters=3, tol=np.float64(1e-8))
    assert type(rep.lambda_star) is float
    assert all(type(g.lam) is float for g in rep.grid)


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
# the lane against its reference
# ---------------------------------------------------------------------------

# The lane as it was written with max, min and abs calls in its step loop,
# copied verbatim.  Both lanes write each call as a conditional returning
# what the builtin returns, and the companion lane writes the companion
# closure into its stage arithmetic, so all three must agree bit for bit.
def _reference_dp54(rhs, y0, stops, tol, escape_radius):
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
        while True:
            capped = t + h >= reach
            if capped:
                hs = target - t
            else:
                hs = h
                if hs < 1e-14 * max(1.0, t):
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
            r0 = (hs * (_E1 * a0 + _E3 * c0 + _E4 * d0 + _E5 * e0 + _E6 * g0
                        + _E7 * s0) / (tol * (1.0 + max(abs(q0), abs(p0)))))
            r1 = (hs * (_E1 * a1 + _E3 * c1 + _E4 * d1 + _E5 * e1 + _E6 * g1
                        + _E7 * s1) / (tol * (1.0 + max(abs(q1), abs(p1)))))
            r2 = (hs * (_E1 * a2 + _E3 * c2 + _E4 * d2 + _E5 * e2 + _E6 * g2
                        + _E7 * s2) / (tol * (1.0 + max(abs(q2), abs(p2)))))
            r3 = (hs * (_E1 * a3 + _E3 * c3 + _E4 * d3 + _E5 * e3 + _E6 * g3
                        + _E7 * s3) / (tol * (1.0 + max(abs(q3), abs(p3)))))
            err = math.sqrt(0.25 * (r0 * r0 + r1 * r1 + r2 * r2 + r3 * r3))

            if not err <= 1.0:
                n_rejected += 1
                h = hs * min(1.0, max(_MIN_FACTOR, _SAFETY * err ** neg_alpha))
                if capped and t + h >= reach:
                    raise StepUnderflowError(t)
                continue
            n_steps += 1
            t = target if capped else t + hs
            q0, q1, q2, q3 = p0, p1, p2, p3
            k1 = k7
            err_b = max(err, 1e-10)
            factor = _SAFETY * err_b ** neg_alpha * err_prev ** beta
            err_prev = err_b
            h = hs * min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
            escaped = math.sqrt(q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3) \
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


def _companion_rhs(a30, a32, wp):
    # the reference closure for a companion-shaped field, as the closure
    # lane evaluated it before the companion lane took these fields over
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
SAMPLE_STOPS = _sample_times(200.0, 0.1)[1:].tolist()
# (potential, y0, stops, tol, escape_radius)
LANE_CASES = {
    # trajectory workload runs: sample-grid stops, tol 1e-10
    "trajectory-free": (None, FIG_Y0, SAMPLE_STOPS, 1e-10, math.inf),
    "trajectory-5": (p.quartic(5.0), FIG_Y0, SAMPLE_STOPS, 1e-10, math.inf),
    # scan lanes on both sides of lambda* = 8.78...
    **{f"scan-{lam}": (p.quartic(lam), FIG_Y0, [200.0], 1e-8, 1000.0)
       for lam in (0.0, 6.6, 8.78, 100.0)},
    # the rejecting run of test_step_counters
    "rejecting": (p.quartic(100.0), FIG_Y0, [50.0], 1e-4, 1e6),
    # finite-time blow-up with no radius: underflow at t > 1
    "blowup": (p.quartic(100.0), FIG_Y0,
               _sample_times(50.0, 0.1)[1:].tolist(), 1e-8, math.inf),
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
        50.0, 0.5)[1:].tolist(), 1e-9, 1000.0),
}


def _lane_case(name):
    # the case's companion coefficients and force, and its reference closure
    pot, y0, stops, tol, radius = LANE_CASES[name]
    a30, a32, w_prime = _companion(field_for(PAR, pot))
    rhs = _companion_rhs(a30, a32, None if pot is None else pot.w_prime)
    return (a30, a32, w_prime), rhs, (y0, stops, tol, radius)


@pytest.mark.parametrize("name", sorted(LANE_CASES))
def test_lane_is_its_reference_bit_for_bit(name):
    companion, rhs, args = _lane_case(name)
    with _within(30):
        assert (_outcome(lambda *a: _companion_dp54(*companion, *a), *args)
                == _outcome(lambda *a: _reference_dp54(rhs, *a), *args))


@pytest.mark.parametrize("name", sorted(LANE_CASES))
def test_closure_lane_is_its_reference_bit_for_bit(name):
    _, rhs, args = _lane_case(name)
    with _within(30):
        assert (_outcome(lambda *a: _dp54(rhs, *a), *args)
                == _outcome(lambda *a: _reference_dp54(rhs, *a), *args))


def _damped(A33=0.0, A31=0.0):
    A = flow_matrix(PAR).copy()
    A[3, 3], A[3, 1] = A33, A31
    return p.VectorField(A, p.quartic(1.0))


# the momentum-chart flow of test_chart_equivalence
MOMENTUM_FIELD = p.VectorField(
    ostro_jacobian(PAR) @ flow_matrix(PAR) @ ostro_jacobian_inv(PAR))


@pytest.mark.parametrize("field", [
    _damped(A33=-0.1), _damped(A31=0.05), MOMENTUM_FIELD],
    ids=["damped", "a31", "momentum-chart"])
def test_other_linear_parts_take_the_closure_lane(field, monkeypatch):
    # companion rows with a nonzero A[3][3] or A[3][1], or no companion rows
    # at all, are not the companion shape: integrate runs the closure lane,
    # bit for bit
    from puosc import dynamics

    def companion_lane(*_):
        raise AssertionError("the companion lane ran")

    assert _companion(field) is None
    monkeypatch.setattr(dynamics, "_companion_dp54", companion_lane)
    traj = p.integrate(PAR, field, FIG_Z0, 20.0, tol=1e-9, sample_rate=0.5)
    times, rows, escape_time, n_steps, n_rhs, n_rejected = _dp54(
        _float_rhs(field), FIG_Y0, _sample_times(20.0, 0.5)[1:].tolist(),
        1e-9, math.inf)
    assert repr(traj.times.tolist()) == repr([0.0, *times])
    assert repr(traj.states.tolist()) == repr([list(FIG_Y0),
                                               *map(list, rows)])
    assert (traj.meta["n_steps"], traj.meta["n_rhs"],
            traj.meta["n_rejected"]) == (n_steps, n_rhs, n_rejected)


@pytest.mark.parametrize("pot", [None, p.quartic(5.0), PENDULUM])
def test_library_fields_take_the_companion_lane(pot, monkeypatch):
    # every field flow_matrix, free_vector_field and field_for build has the
    # companion shape, so integrate never runs the closure lane on them
    from puosc import dynamics

    def closure_lane(*_):
        raise AssertionError("the closure lane ran")

    field = field_for(PAR, pot)
    a30, a32, _ = _companion(field)
    assert (a30, a32) == (-PAR.beta, -PAR.alpha)
    monkeypatch.setattr(dynamics, "_dp54", closure_lane)
    traj = p.integrate(PAR, field, FIG_Z0, 20.0, tol=1e-9, sample_rate=0.5)
    assert traj.meta["n_steps"] > 0


def test_batch_counts_rejections_as_integrate_does():
    # the rejecting run of test_step_counters, as one scan lane
    (point,) = runaway_batch(PAR, [100.0], FIG_Z0, 50.0, 1e6, tol=1e-4)
    traj = p.integrate(PAR, field_for(PAR, p.quartic(100.0)), FIG_Z0, 50.0,
                       tol=1e-4, sample_rate=50.0, escape_radius=1e6)
    assert point.n_rejected == traj.meta["n_rejected"] > 0
    assert point.n_steps == traj.meta["n_steps"]


def _called_in_loops(fn) -> set:
    tree = ast.parse(inspect.getsource(fn))
    loops = [n for n in ast.walk(tree) if isinstance(n, ast.While)]
    assert loops
    return {n.func.id if isinstance(n.func, ast.Name) else ast.unparse(n.func)
            for loop in loops for n in ast.walk(loop)
            if isinstance(n, ast.Call)}


def test_lane_step_loop_calls_no_min_max_abs():
    # a builtin call costs more than the float arithmetic it guards
    assert not _called_in_loops(_dp54) & {"max", "min", "abs"}


def test_companion_step_loop_calls_only_sqrt_and_the_force():
    # no closure, builtin or method call per stage
    assert _called_in_loops(_companion_dp54) == {
        "sqrt", "w_prime", "StepUnderflowError"}
