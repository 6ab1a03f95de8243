"""Core types, chart maps, Hamiltonians, Poisson tensors and blends."""

import numpy as np
import pytest

import puosc as p
from puosc.core import flow_matrix, h1_ostro_matrix, ostro_jacobian, ostro_jacobian_inv
from puosc.errors import (
    ChartMismatchError,
    DegenerateFrequenciesError,
    PreconditionViolatedError,
    SingularBlendError,
)

PAR = p.make_params(1.0, 2.0)


def random_params(rng):
    while True:
        w1, w2 = rng.uniform(0.1, 10.0, 2)
        if abs(w1 - w2) > 0.05:
            return p.make_params(w1, w2)


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

def test_make_params_fig_values():
    assert PAR.alpha == 5.0
    assert PAR.beta == 4.0


def test_make_params_derived():
    par = p.make_params(0.5, 1.5)
    assert par.alpha == pytest.approx(2.5, abs=1e-15)
    assert par.beta == pytest.approx(0.5625, abs=1e-15)


@pytest.mark.parametrize("w1,w2", [(1.0, 1.0), (0.0, 2.0), (-1.0, 2.0), (2.0, 0.0)])
def test_make_params_degenerate(w1, w2):
    with pytest.raises(DegenerateFrequenciesError):
        p.make_params(w1, w2)


# ---------------------------------------------------------------------------
# chart maps
# ---------------------------------------------------------------------------

def test_jet_to_ostro_examples():
    assert p.jet_to_ostro(PAR, p.JetState(0, 0, 0, 0)) == p.OstroState(0, 0, 0, 0)
    assert p.jet_to_ostro(PAR, p.JetState(1, 0, 0, 0)) == p.OstroState(1, 0, 0, 0)
    s = p.jet_to_ostro(PAR, p.JetState(0, 1, 2, 3))
    assert (s.x1, s.x2, s.p1, s.p2) == (0, 1, -8, 2)


def test_non_finite_states_are_precondition_errors():
    with pytest.raises(PreconditionViolatedError):
        p.JetState(float("nan"), 0, 0, 0)
    with pytest.raises(PreconditionViolatedError):
        p.OstroState(0, 0, float("inf"), 0)
    # a finite momentum-chart state whose jet image overflows
    with pytest.raises(PreconditionViolatedError):
        p.ostro_to_jet(PAR, p.OstroState(0, 1e308, 0, 0))


def test_ostro_to_jet_inverse_example():
    z = p.ostro_to_jet(PAR, p.OstroState(0, 1, -8, 2))
    assert (z.q, z.qd, z.qdd, z.qddd) == (0, 1, 2, 3)


def test_chart_round_trip_100_random_states():
    rng = np.random.default_rng(1)
    for _ in range(100):
        z = p.JetState.from_array(rng.uniform(-5, 5, 4))
        back = p.ostro_to_jet(PAR, p.jet_to_ostro(PAR, z))
        assert np.allclose(back.as_array(), z.as_array(), rtol=0, atol=1e-14)


def test_chart_round_trip_random_params():
    # at large alpha the p1 = -alpha*qd - qddd cancellation sets the scale
    rng = np.random.default_rng(11)
    for _ in range(100):
        par = random_params(rng)
        z = p.JetState.from_array(rng.uniform(-5, 5, 4))
        back = p.ostro_to_jet(par, p.jet_to_ostro(par, z))
        tol = 1e-14 * max(1.0, par.alpha * np.max(np.abs(z.as_array())))
        assert np.allclose(back.as_array(), z.as_array(), rtol=0, atol=tol)


def test_ostro_jacobian_consistency():
    L = ostro_jacobian(PAR)
    assert np.allclose(L @ ostro_jacobian_inv(PAR), np.eye(4), atol=0)
    z = p.JetState(0.3, -1.2, 0.7, 2.0)
    assert np.allclose(L @ z.as_array(),
                       p.jet_to_ostro(PAR, z).as_array(), atol=1e-15)


# ---------------------------------------------------------------------------
# Hamiltonians
# ---------------------------------------------------------------------------

def test_h1_spot_values():
    H1 = p.h1(PAR)
    assert H1.value(p.JetState(1, 0, -1, 0)) == pytest.approx(-1.5, abs=1e-14)
    assert H1.value(p.JetState(0, 0, 0, 0)) == 0.0
    assert H1.value(p.JetState(0, 1, 0, -1)) == pytest.approx(-1.5, abs=1e-14)


def test_h2_spot_values():
    H2 = p.h2(PAR)
    assert H2.value(p.JetState(1, 0, -4, 0)) == pytest.approx(6.0, abs=1e-14)
    assert H2.value(p.JetState(0, 0, 0, 0)) == 0.0
    assert H2.value(p.JetState(1, 0, -1, 0)) == pytest.approx(-0.375, abs=1e-14)


def test_observable_gradient_and_hessian():
    H1 = p.h1(PAR)
    z = np.array([0.5, -1.0, 2.0, 0.25])
    assert np.allclose(H1.gradient(z), H1.coeffs @ z, atol=0)
    assert np.array_equal(H1.hessian(), H1.hessian().T)


# ---------------------------------------------------------------------------
# Poisson tensors
# ---------------------------------------------------------------------------

def test_j1_jet_entries():
    J = p.j1(PAR).j
    assert J[0][3] == -1.0
    assert J[1][2] == 1.0
    assert J[2][3] == 5.0
    assert np.array_equal(J, -J.T)


def test_j1_ostro_canonical():
    J = p.j1(PAR, chart="ostrogradsky").j
    assert J[0][2] == 1.0 and J[1][3] == 1.0
    expected = np.zeros((4, 4))
    expected[0, 2] = expected[1, 3] = 1.0
    expected[2, 0] = expected[3, 1] = -1.0
    assert np.array_equal(J, expected)


def test_j1_chart_congruence():
    J_ostro = p.j1(PAR, chart="ostrogradsky")
    pushed = p.transport_tensor(PAR, J_ostro, "jet")
    assert np.allclose(pushed.j, p.j1(PAR).j, rtol=0, atol=1e-14)


def test_j2_entries_and_antisymmetry():
    J = p.j2(PAR).j
    assert abs(J[0][1]) == 1.0
    assert abs(J[2][3]) == 4.0
    off = J.copy()
    off[0, 1] = off[1, 0] = off[2, 3] = off[3, 2] = 0.0
    assert np.all(off == 0.0)
    assert np.array_equal(J, -J.T)


def test_j2_grad_h2_is_free_flow():
    rng = np.random.default_rng(2)
    J2, S2, A = p.j2(PAR).j, p.h2(PAR).coeffs, flow_matrix(PAR)
    for _ in range(100):
        z = rng.uniform(-3, 3, 4)
        assert np.allclose(J2 @ (S2 @ z), A @ z, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# vector fields
# ---------------------------------------------------------------------------

def test_free_field_structure():
    V = p.free_vector_field(PAR)
    assert np.array_equal(V.linear[3], np.array([-4.0, 0.0, -5.0, 0.0]))
    assert np.allclose(V.flow(p.JetState(1, 0, 0, 0)), [0, 0, 0, -4], atol=0)
    eig = np.sort_complex(np.linalg.eigvals(V.linear))
    expected = np.sort_complex(np.array([1j, -1j, 2j, -2j]))
    assert np.allclose(eig, expected, atol=1e-12)


def test_hamilton_identity_exact():
    assert np.array_equal(p.j1(PAR).j @ p.h1(PAR).coeffs, flow_matrix(PAR))


def test_interacting_field_sign():
    # flow satisfies q'''' + alpha qdd + beta q + W'(q) = 0
    lam = 0.1
    V = p.field_for(PAR, p.quartic(lam))
    dz = V.flow(p.JetState(2, 0, 0, 0))
    assert dz[3] == pytest.approx(-4.0 * 2 - lam * 8, abs=1e-14)
    q4 = dz[3]
    assert q4 + PAR.alpha * 0.0 + PAR.beta * 2.0 + lam * 8 == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("lam", [-1.0, -1e-300, float("nan")])
def test_quartic_rejects_negative_coupling(lam):
    with pytest.raises(PreconditionViolatedError):
        p.quartic(lam)


def test_interacting_field_zero_potential_matches_free():
    V = p.field_for(PAR, p.quartic(0.0))
    z = p.JetState(1.0, -0.5, 0.25, 2.0)
    assert np.allclose(V.flow(z), p.free_vector_field(PAR).flow(z), atol=0)


def test_field_jacobian_exact():
    lam, q = 0.7, 1.5
    V = p.field_for(PAR, p.quartic(lam))
    D = V.jacobian(p.JetState(q, 0, 0, 0))
    assert D[3, 0] == pytest.approx(-PAR.beta - 3 * lam * q ** 2, rel=1e-14)


# ---------------------------------------------------------------------------
# blends
# ---------------------------------------------------------------------------

def test_blend_h_axes():
    assert np.array_equal(p.blend_h(PAR, 1, 0).coeffs, p.h1(PAR).coeffs)
    assert np.array_equal(p.blend_h(PAR, 0, 1).coeffs, p.h2(PAR).coeffs)


def test_blend_h_positive_example():
    S = p.blend_h(PAR, -1.0, 2.0).coeffs
    assert np.all(np.linalg.eigvalsh(S) > 0)
    # mode-weight oracle: per-|a|^2 weights are 3 and 24 for this blend
    H = p.blend_h(PAR, -1.0, 2.0)
    assert H.value(p.JetState(1, 0, -1, 0)) == pytest.approx(3 * 0.25, abs=1e-14)
    assert H.value(p.JetState(1, 0, -4, 0)) == pytest.approx(24 * 0.25, abs=1e-14)


def test_blend_j_axes():
    assert np.allclose(p.blend_j(PAR, 1, 0).j, p.j1(PAR).j, atol=1e-14)
    assert np.allclose(p.blend_j(PAR, 0, 1).j, p.j2(PAR).j, atol=1e-14)


def test_blend_j_singular_rays():
    # blend Hessian degenerates on c2 = -c1 * w_i^2
    with pytest.raises(SingularBlendError):
        p.blend_j(PAR, 1.0, -1.0)
    with pytest.raises(SingularBlendError):
        p.blend_j(PAR, 1.0, -4.0)


def test_blend_j_grid_identity():
    # J'(c1, c2) (c1 S1 + c2 S2) = A on every nonsingular grid point
    A = flow_matrix(PAR)
    vals = np.linspace(-2.0, 2.0, 20)
    checked = 0
    for c1 in vals:
        for c2 in vals:
            try:
                J = p.blend_j(PAR, c1, c2).j
            except SingularBlendError:
                continue
            S = p.blend_h(PAR, c1, c2).coeffs
            assert np.allclose(J @ S, A, rtol=0, atol=1e-11 * (1 + abs(c1) + abs(c2)))
            checked += 1
    assert checked > 350


def test_blend_j_closed_form_matches_constructive():
    rng = np.random.default_rng(3)
    for _ in range(50):
        par = random_params(rng)
        c1, c2 = rng.uniform(-3, 3, 2)
        try:
            J = p.blend_j(par, c1, c2)
        except SingularBlendError:
            continue
        Jc = p.blend_j_closed_form(par, c1, c2)
        assert np.allclose(J.j, Jc.j, rtol=1e-9, atol=1e-9 * np.linalg.norm(J.j))


def test_blend_j_tabulated_agrees_only_on_axes():
    # quoted closed form matches on the axes but deviates in between
    assert np.allclose(p.blend_j_tabulated(PAR, 2.0, 0.0).j,
                       p.blend_j(PAR, 2.0, 0.0).j, atol=1e-13)
    assert np.allclose(p.blend_j_tabulated(PAR, 0.0, 3.0).j,
                       p.blend_j(PAR, 0.0, 3.0).j, atol=1e-13)
    rep = p.blend_report(PAR, 1.0, 2.0)
    assert rep["delta_closed_form"] < 1e-12
    assert rep["delta_tabulated"] > 1e-3


def test_blend_report_on_tabulated_singularity():
    # (1, 1) is regular constructively; the quoted denominator vanishes there
    rep = p.blend_report(PAR, 1.0, 1.0)
    assert isinstance(rep["constructive"], list)
    assert isinstance(rep["tabulated"], str) and "singular" in rep["tabulated"]


# ---------------------------------------------------------------------------
# brackets
# ---------------------------------------------------------------------------

def test_bracket_self_vanishes():
    B = p.poisson_bracket(PAR, p.h1(PAR), p.h1(PAR), p.j1(PAR))
    assert np.all(B.coeffs == 0.0)


def test_bracket_h1_h2_vanishes_20_param_sets():
    rng = np.random.default_rng(4)
    for _ in range(20):
        par = random_params(rng)
        B = p.poisson_bracket(par, p.h1(par), p.h2(par), p.j1(par))
        scale = np.linalg.norm(p.h1(par).coeffs) * np.linalg.norm(p.h2(par).coeffs)
        assert np.linalg.norm(B.coeffs) <= 1e-12 * max(scale, 1.0)


def test_bracket_chart_mismatch():
    with pytest.raises(ChartMismatchError):
        p.poisson_bracket(PAR, p.h1(PAR), p.h2(PAR), p.j1(PAR, chart="ostrogradsky"))


def test_coordinate_brackets_under_j1():
    J = p.j1(PAR).j
    assert J[1, 2] == 1.0      # {qd, qdd} = 1
    assert J[0, 3] == -1.0     # {q, qddd} = -1
    assert J[2, 3] == PAR.alpha  # {qdd, qddd} = alpha


# ---------------------------------------------------------------------------
# module-level invariants
# ---------------------------------------------------------------------------

def test_hamilton_and_bihamilton_identities_random():
    rng = np.random.default_rng(5)
    for _ in range(100):
        par = random_params(rng)
        A = flow_matrix(par)
        scale = max(1.0, np.linalg.norm(A))
        assert np.allclose(p.j1(par).j @ p.h1(par).coeffs, A,
                           rtol=0, atol=1e-14 * scale)
        assert np.allclose(p.j2(par).j @ p.h2(par).coeffs, A,
                           rtol=0, atol=1e-12 * scale)


def test_compatibility_condition():
    rng = np.random.default_rng(6)
    for _ in range(50):
        par = random_params(rng)
        S1, S2, J1 = p.h1(par).coeffs, p.h2(par).coeffs, p.j1(par).j
        C = S1 @ J1 @ S2 - S2 @ J1 @ S1
        scale = max(1.0, np.linalg.norm(S1) * np.linalg.norm(S2))
        assert np.linalg.norm(C) <= 1e-12 * scale


def test_chart_covariance_of_structures():
    # transported tensors/observables equal their directly built counterparts
    J1_ostro = p.transport_tensor(PAR, p.j1(PAR), "ostrogradsky")
    assert np.allclose(J1_ostro.j, p.j1(PAR, chart="ostrogradsky").j, atol=1e-14)
    H1_ostro = p.transport_observable(PAR, p.h1(PAR), "ostrogradsky")
    assert np.allclose(H1_ostro.coeffs, h1_ostro_matrix(PAR), atol=1e-14)
    back = p.transport_observable(PAR, H1_ostro, "jet")
    assert np.allclose(back.coeffs, p.h1(PAR).coeffs, atol=1e-14)


@pytest.mark.parametrize("chart", ["bogus", "Ostro", "momentum", ""])
def test_unknown_chart_name_rejected(chart):
    with pytest.raises(ChartMismatchError):
        p.j1(PAR, chart=chart)
    with pytest.raises(ChartMismatchError):
        p.transport_tensor(PAR, p.j1(PAR), chart)
    with pytest.raises(ChartMismatchError):
        p.transport_observable(PAR, p.h1(PAR), chart)


def test_chart_names_and_abbreviation():
    for name, chart in (("jet", "jet"), ("ostro", "ostrogradsky"),
                        ("ostrogradsky", "ostrogradsky")):
        assert p.j1(PAR, chart=name).chart == chart
        assert p.transport_tensor(PAR, p.j1(PAR), name).chart == chart
        assert p.transport_observable(PAR, p.h1(PAR), name).chart == chart


def test_h1_linear_in_p1():
    # no p1^2 term: the energy has no lower bound
    S = p.transport_observable(PAR, p.h1(PAR), "ostrogradsky").coeffs
    assert S[2, 2] == 0.0
    assert S[1, 2] == 1.0  # the p1*x2 cross term carries the instability
