"""Core types, chart maps, Hamiltonians, Poisson tensors and blends."""

import itertools
import math

import numpy as np
import pytest

import puosc as p
from puosc.config import DEFAULT_SEED, EPS_ALGEBRA, EPS_SINGULAR
from puosc.core import flow_matrix, h1_ostro_matrix, ostro_jacobian, ostro_jacobian_inv
from puosc.errors import (
    ChartMismatchError,
    DegenerateFrequenciesError,
    PreconditionViolatedError,
    SingularBlendError,
    SingularCoefficientError,
    SingularHessianError,
    SingularMapError,
)
from test_cli import BLEND_GRID, NEAR_SINGULAR, STRUCTURE_101

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


@pytest.mark.parametrize("w1,w2,name", [
    (1e80, 2e80, "beta"),       # w1 w2 is finite, its square is not
    (1e-300, 1e155, "alpha"),   # beta is finite, alpha is not
    (1e154, 2e154, "alpha"),    # both overflow; alpha is checked first
])
def test_make_params_names_the_overflowing_quantity(w1, w2, name):
    with pytest.raises(OverflowError, match=f"^{name} = .* is not finite$"):
        p.make_params(w1, w2)


@pytest.mark.parametrize("w1,w2", [(0.5, 1.5), (1e76, 2e76), (3e-150, 1e-3)])
def test_make_params_beta_is_the_float_power(w1, w2):
    assert p.make_params(w1, w2).beta == (w1 * w2) ** 2


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


def test_value_that_overflows_warns_nothing():
    # under the error::RuntimeWarning filter z.S.z overflows to -inf, the
    # value a caller's own check names, not a bare numpy warning
    H1 = p.h1(p.make_params(1.5, 2.0))
    assert H1.value(p.JetState(4.4692693099808655e+153, 0, 0, 0)) == -math.inf


def test_observable_gradient_and_hessian():
    H1 = p.h1(PAR)
    z = np.array([0.5, -1.0, 2.0, 0.25])
    assert np.allclose(H1.gradient(z), H1.coeffs @ z, atol=0)
    assert np.array_equal(H1.coeffs, H1.coeffs.T)


def test_a_state_is_evaluated_only_in_its_own_chart():
    z = p.JetState(1, 0.5, -1, 0.2)
    s = p.jet_to_ostro(PAR, z)
    H1, H1o = p.h1(PAR), p.transport_observable(PAR, p.h1(PAR), "ostro")
    assert H1.value(z) == pytest.approx(-2.225, abs=1e-14)
    assert H1o.value(s) == pytest.approx(-2.225, abs=1e-14)
    free = p.free_vector_field(PAR)
    interacting = p.field_for(PAR, p.quartic(1.0))
    for call, state in ((H1.value, s), (H1.gradient, s), (H1o.value, z),
                        (H1o.gradient, z), (free.flow, s),
                        (free.jacobian, s), (interacting.flow, s),
                        (interacting.jacobian, s)):
        with pytest.raises(ChartMismatchError, match="state of chart"):
            call(state)
    # an array is read in the observable's or the field's own chart
    assert H1.value(z.as_array()) == H1.value(z)
    assert H1o.value(s.as_array()) == H1o.value(s)
    assert np.array_equal(free.flow(z.as_array()), free.flow(z))
    assert np.array_equal(interacting.jacobian(z.as_array()),
                          interacting.jacobian(z))


# each guard's own error; deleting the guard lets the input through or
# fails it with another error
CORE_GUARDS = [
    ("make-params-nan", lambda: p.make_params(float("nan"), 2.0),
     DegenerateFrequenciesError, "frequencies must be finite"),
    ("make-params-inf", lambda: p.make_params(1.0, float("inf")),
     DegenerateFrequenciesError, "frequencies must be finite"),
    ("observable-shape", lambda: p.QuadraticObservable(np.eye(3)),
     ValueError, "must be 4x4"),
    ("observable-asymmetric",
     lambda: p.QuadraticObservable(np.triu(np.ones((4, 4)))),
     ValueError, "exactly symmetric"),
    ("tensor-shape", lambda: p.PoissonTensor(np.zeros((3, 3))),
     ValueError, "must be 4x4"),
    ("tensor-not-antisymmetric", lambda: p.PoissonTensor(np.eye(4)),
     ValueError, "exactly antisymmetric"),
    ("field-shape", lambda: p.VectorField(np.eye(3)),
     ValueError, "must be 4x4"),
    # c2 = -c1 w1^2 at (1, 2): a factor of the closed form's denominator
    ("closed-form-denominator", lambda: p.blend_j(PAR, 1.0, -1.0),
     SingularBlendError, "blend Hessian singular"),
    # S_F J S_G overflows: named, not a numpy overflow warning
    ("bracket-overflow",
     lambda: p.poisson_bracket(PAR, p.QuadraticObservable(1e200 * np.eye(4)),
                               p.QuadraticObservable(1e200 * np.eye(4)),
                               p.j1(PAR)),
     ArithmeticError, "non-finite value in the Poisson bracket"),
]


@pytest.mark.parametrize("call, error, message", [
    pytest.param(call, error, message, id=name)
    for name, call, error, message in CORE_GUARDS])
def test_core_guards(call, error, message):
    with pytest.raises(error, match=message):
        call()


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


def test_blend_j_with_a_non_finite_hessian_is_j2_over_2():
    # beta = 1.02e-308 is finite, but 2 H2 holds 2/beta = inf; the closed
    # form never inverts the Hessian and gives J2/2 bit for bit.  The
    # overflow warns nowhere, which the RuntimeWarning filter checks
    par = p.make_params(1e-77, 1.01e-77)
    S = p.blend_h(par, 0.0, 2.0).coeffs
    assert S[3, 3] == np.inf and np.isfinite(np.delete(S.ravel(), 15)).all()
    J = p.blend_j(par, 0.0, 2.0).j
    assert J.tobytes() == (p.j2(par).j / 2).tobytes()


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
            Jc = p.blend_j(par, c1, c2)
        except SingularBlendError:
            continue
        J = p.solve_bihamiltonian(par, p.blend_h(par, c1, c2))
        assert np.allclose(J.j, Jc.j, rtol=1e-9, atol=1e-9 * np.linalg.norm(J.j))


def test_blend_j_tabulated_agrees_only_on_axes():
    # quoted closed form matches on the axes but deviates in between
    assert np.allclose(p.blend_j_tabulated(PAR, 2.0, 0.0).j,
                       p.blend_j(PAR, 2.0, 0.0).j, atol=1e-13)
    assert np.allclose(p.blend_j_tabulated(PAR, 0.0, 3.0).j,
                       p.blend_j(PAR, 0.0, 3.0).j, atol=1e-13)
    J = p.solve_bihamiltonian(PAR, p.blend_h(PAR, 1.0, 2.0)).j
    assert np.max(np.abs(p.blend_j(PAR, 1.0, 2.0).j - J)) < 1e-12
    assert np.max(np.abs(p.blend_j_tabulated(PAR, 1.0, 2.0).j - J)) > 1e-3


def test_blend_j_regular_on_tabulated_singularity():
    # (1, 1) is regular constructively; the quoted denominator vanishes there
    assert isinstance(p.blend_j(PAR, 1.0, 1.0), p.PoissonTensor)
    with pytest.raises(SingularBlendError,
                       match="tabulated denominator vanishes"):
        p.blend_j_tabulated(PAR, 1.0, 1.0)


@pytest.mark.parametrize("blend, c, what", [
    pytest.param(p.blend_j, (1e300, 1.0), r"blend factors c1\*w_i\^2 \+ c2",
                 id="blend_j"),
    pytest.param(p.blend_j_tabulated, (1.0, 1e300),
                 r"tabulated factors c1 - c2\*w_i\^2",
                 id="blend_j_tabulated")])
def test_blend_factor_overflow_is_not_a_singularity(blend, c, what):
    # a factor about 1e320 overflows: _vanishes would read inf <= inf as a
    # zero, so the factors are checked for finiteness first
    with pytest.raises(ArithmeticError,
                       match=f"^non-finite value in the {what}$") as got:
        blend(p.make_params(1e10, 2e10), *c)
    assert type(got.value) is ArithmeticError


@pytest.mark.parametrize("blend, w, finite", [
    pytest.param(p.blend_j, 1e60, True, id="blend_j-1e+60"),
    pytest.param(p.blend_j_tabulated, 1e40, False,
                 id="blend_j_tabulated-1e+40")])
def test_blend_closed_forms_overflow_warns_nothing(blend, w, finite):
    # under the error::RuntimeWarning filter, the tensor formed under
    # errstate(all="ignore"), not a bare numpy warning: blend_j
    # divides before beta multiplies and stays finite, the quoted form
    # overflows
    par = p.make_params(w, 2 * w)
    with np.errstate(all="ignore"):
        expected = blend(par, -1.0, 2.0).j
    got = blend(par, -1.0, 2.0).j
    assert np.isfinite(got).all() == finite
    assert got.tobytes() == expected.tobytes()


# every quarter decade of omega1 from 1e-75 to 1e75, at three ratios
SWEEP = [p.make_params(10.0 ** (k / 4), r * 10.0 ** (k / 4))
         for k in range(-300, 301) for r in (1.2, 2.0, 5.0)]


def test_blend_j_sweep_solves_every_regular_blend_and_no_ray():
    # the positive blend (-1, alpha/2), the axes, a blend between the rays
    # and two blends a relative 1e-6 off them each give a finite tensor
    # with J S = A entrywise to 1e-12 of |J| |S|; each ray raises
    for par in SWEEP:
        a, b = par.omega1 ** 2, par.omega2 ** 2
        A = flow_matrix(par)
        for c1, c2 in ((-1.0, par.alpha / 2), (1.0, 0.0), (0.0, 1.0),
                       (2.5, -0.7 * a - 0.3 * b), (1.0, -a * (1 + 1e-6)),
                       (1.0, -b * (1 - 1e-6))):
            J = p.blend_j(par, c1, c2).j
            S = p.blend_h(par, c1, c2).coeffs
            assert np.isfinite(J).all()
            assert (np.abs(J @ S - A) <= 1e-12 * (np.abs(J) @ np.abs(S))
                    ).all(), (par, c1, c2)
        for c1, c2 in ((1.0, -a), (1.0, -b), (-3.0, 3.0 * b)):
            with pytest.raises(SingularBlendError):
                p.blend_j(par, c1, c2)


def _grid_stacks(par):
    # the suite's blend grid: its Hessians and tensors at its regular points
    grid = np.linspace(-2, 2, 20)
    S, J, _, singular = p.core._blend_stack(par, np.repeat(grid, 20),
                                            np.tile(grid, 20))
    S, J = S[~singular], J[~singular]
    return [S, J, J @ S - flow_matrix(par), 0.5 * (J + J.swapaxes(1, 2))]


def _blend_h_scalar(S1, S2, c1, c2):
    # blend_h on one matrix, symmetrised as it used to be: 0.5 (S + S^T) is
    # S bit for bit unless an entry passes 2^1023, which no pair tested has
    S = float(c1) * S1 + float(c2) * S2
    return 0.5 * (S + S.T)


def _blend_j_scalar(par, c1, c2):
    # blend_j on Python floats, its checks in order; None where it raises
    c1, c2 = float(c1), float(c2)
    w1s, w2s = par.omega1 ** 2, par.omega2 ** 2
    d1, d2 = c1 * w1s + c2, c1 * w2s + c2
    if not (math.isfinite(d1) and math.isfinite(d2)):
        return None
    if p.core._vanishes(c1 * w1s, c2) or p.core._vanishes(c1 * w2s, c2):
        return None
    b = par.beta / d2
    x, y, z = c1 / d1 * b, (c1 * par.alpha + c2) / d1 * b, c2 / d1 / d2
    J = np.array([[0.0, -z, 0.0, -x], [z, 0.0, x, 0.0],
                  [0.0, -x, 0.0, y], [x, 0.0, -y, 0.0]]) + 0.0
    return J if np.isfinite(J).all() else None


def _blend_rows(par):
    # (c1, c2, Hessian, tensor or None) of the scalar forms on the grid
    S1, S2 = p.h1(par).coeffs, p.h2(par).coeffs
    return [(c1, c2, _blend_h_scalar(S1, S2, c1, c2),
             _blend_j_scalar(par, c1, c2)) for c1, c2 in BLEND_GRID]


@pytest.mark.parametrize("w1, w2", [
    *STRUCTURE_101, (float(NEAR_SINGULAR[1]), float(NEAR_SINGULAR[3])),
    (1.0, 2.0)])
def test_blends_are_their_scalar_forms_bit_for_bit(w1, w2):
    # blend_h and blend_j, each a stack of one of the closed form, are the
    # scalar forms bit for bit at every point of the suite's grid
    par = p.make_params(w1, w2)
    for c1, c2, S, J in _blend_rows(par):
        assert p.blend_h(par, c1, c2).coeffs.tobytes() == S.tobytes()
        if J is None:
            with pytest.raises((SingularBlendError, ArithmeticError)):
                p.blend_j(par, c1, c2)
        else:
            assert p.blend_j(par, c1, c2).j.tobytes() == J.tobytes()


def test_blend_stack_is_the_scalar_forms_on_the_sweep():
    # the grid's stack is the scalar forms bit for bit at every tenth SWEEP
    # pair: a pair every 0.83 decades, each ratio every 2.5 (blend_h and
    # blend_j are its stack of one)
    c1, c2 = np.array(BLEND_GRID).T
    for par in SWEEP[::10]:
        S, J, _, _ = p.core._blend_stack(par, c1, c2)
        for k, (_, _, S_k, J_k) in enumerate(_blend_rows(par)):
            assert S[k].tobytes() == S_k.tobytes(), (par, k)
            assert J_k is None or J[k].tobytes() == J_k.tobytes(), (par, k)


def test_frobenius_is_the_per_matrix_norm_bit_for_bit():
    rng = np.random.default_rng(25)
    stacks = [*_grid_stacks(PAR), *_grid_stacks(random_params(rng))]
    for scale in (1e-150, 1e-5, 1.0, 1e5, 1e150):
        stacks.append(scale * rng.normal(size=(50, 4, 4)))
        stacks.append(scale * rng.normal(size=(3, 7, 2, 8)))
    for X in stacks:
        want = [np.linalg.norm(x) for x in X.reshape(-1, *X.shape[-2:])]
        got = p.core._frobenius(X)
        assert got.tobytes() == np.reshape(want, X.shape[:-2]).tobytes()


def test_frobenius_cannot_overflow():
    # 16 entries of 1e200 have the norm 4e200 exactly; their squares overflow
    X = np.full((2, 4, 4), 1e200)
    X[1, 2, 3] = -1e200
    assert p.core._frobenius(X).tolist() == [4e200, 4e200]
    X = np.diag([3e300, 4e300, 0.0, 1e-300])
    assert p.core._frobenius(X) == 5e300
    assert p.core._frobenius(np.zeros((4, 4))) == 0.0
    # a norm above the largest float is infinite; inf and NaN propagate
    assert p.core._frobenius(np.full((4, 4), 1e308)) == np.inf
    assert p.core._frobenius(np.array([[np.inf, 1e200]])) == np.inf
    assert np.isnan(p.core._frobenius(np.array([[np.nan, 1e200]])))


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


# a near-equal pair, and pairs near make_params' overflow limits: alpha
# overflows above omega about 1.34e154, beta's power above omega1 omega2
# about 1.34e154; 1/beta is subnormal at (1e77, 1.3e77), and alpha/beta
# and 1/beta are near 1e299 and 1e305 at (3e-150, 1e-3)
EDGE_PARAMS = [p.make_params(1.0, np.nextafter(1.0, 2.0)),
               p.make_params(1e77, 1.3e77), p.make_params(1.3e154, 1e-3),
               p.make_params(3e-150, 1e-3)]


def suite_draws(seed):
    from puosc import cli
    from puosc.config import SUITE_DRAWS
    rng = np.random.default_rng(seed)
    return cli._random_params(rng, SUITE_DRAWS)


STACKED_DRAWS = [pytest.param(suite_draws(seed), id=f"suite-seed-{seed}")
                 for seed in (DEFAULT_SEED, 0, 349503)]
STACKED_DRAWS.append(pytest.param(EDGE_PARAMS, id="edge-pairs"))


@pytest.mark.parametrize("draws", STACKED_DRAWS)
def test_structure_stack_is_the_builders_bit_for_bit(draws):
    stacks = p.core._structure_stack([par.alpha for par in draws],
                                     [par.beta for par in draws])
    builders = (flow_matrix, lambda par: p.h1(par).coeffs,
                lambda par: p.h2(par).coeffs, lambda par: p.j1(par).j,
                lambda par: p.j2(par).j)
    assert len(stacks) == len(builders)
    for stack, build in zip(stacks, builders):
        assert stack.shape == (len(draws), 4, 4)
        for M, par in zip(stack, draws):
            assert M.tobytes() == build(par).tobytes()


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


def test_every_rank_decision_reads_the_one_rule(monkeypatch):
    # with every singular value counted as zero, each singular-value
    # decision of the library flips: it reads core._negligible
    monkeypatch.setattr(p.core, "_negligible",
                        lambda sv: np.ones(np.shape(sv), dtype=bool))
    for S in (p.h1(PAR).coeffs, p.h2(PAR).coeffs, np.eye(4)):
        with pytest.raises(SingularHessianError):
            p.solve_bihamiltonian(PAR, p.QuadraticObservable(S))
    assert len(p.commutant_basis(flow_matrix(PAR))) == 16
    assert len(p.invariant_tensor_space(p.free_vector_field(PAR))) == 6
    # with no coefficient kept, a candidate is its own residual
    assert p.symmetry.projection_residual(p.known_generators(PAR),
                                          flow_matrix(PAR)) == 1.0
    # a map's singularity is not a singular-value decision: the pushforward
    # follows m.singular, which the patch does not move
    m = p.solve_family("Ta2", +1, {"a_x": 1.0, "a_y": 2.0, "g": 0.5}, PAR)
    assert not m.singular
    p.pushforward_poisson(m)
    m = p.solve_family("Ta1", +1, {"a_x": 1.0, "a_y": 2.0, "g": 0.5}, PAR)
    assert m.singular
    with pytest.raises(SingularMapError):
        p.pushforward_poisson(m)


def test_vanishes_keeps_the_two_term_verdict():
    # every gate passes two terms; for each pair the n-term rule gives the
    # verdict of the two-term formula |a + b| <= EPS_SINGULAR (|a| + |b|),
    # signed zeros, overflow, inf and NaN included
    rng = np.random.default_rng(43)
    special = [0.0, -0.0, 1.0, -1.0, 1e308, -1e308, 5e-324, math.inf,
               -math.inf, math.nan]
    a = [*special, *(rng.choice([-1.0, 1.0], 400)
                     * 10.0 ** rng.uniform(-300, 300, 400)).tolist()]
    near = 10.0 ** rng.uniform(-16, -8, 400)    # pairs that nearly cancel
    pairs = [*itertools.product(special, special), *zip(a, a[::-1]),
             *((x, -x * (1.0 + d)) for x, d in zip(a[10:], near))]
    for x, y in pairs:
        assert p.core._vanishes(x, y) == (
            abs(x + y) <= EPS_SINGULAR * (abs(x) + abs(y))), (x, y)
    # n terms at the identity tolerance: 1 - 1/3 - 1/3 - 1/3 vanishes, a
    # remainder of 1e-11 of the terms does not
    assert p.core._vanishes(1.0, -1 / 3, -1 / 3, -1 / 3, eps=EPS_ALGEBRA)
    assert not p.core._vanishes(1.0, -0.5, -0.5 + 2e-11, eps=EPS_ALGEBRA)


def test_identity_is_the_zero_rule_at_eps_algebra():
    # the verify suite's verdict: _vanishes at EPS_ALGEBRA at each entry,
    # with the largest ratio |sum t| / sum |t|
    identity = p.core._identity
    holds, ratio = identity(np.array([1.0, 2.0]),
                            np.array([-1.0 + 1e-12, -2.0]), what="x")
    assert holds and ratio == pytest.approx(5e-13, rel=1e-3)
    holds, ratio = identity(np.array([1.0, 2.0]),
                            np.array([-1.0 + 3e-12, -2.0]), what="x")
    assert not holds and ratio == pytest.approx(1.5e-12, rel=1e-3)
    # all-zero entries read 0; a flipped sign reads 1
    assert identity(np.zeros(3), np.zeros(3), what="x") == (True, 0.0)
    assert identity(np.ones(2), np.ones(2), what="x") == (False, 1.0)
    # scalars and a broadcast term; terms whose sum |t| would overflow
    assert identity(1.0, 2.0, -3.0, what="x") == (True, 0.0)
    assert identity(np.ones((2, 2)), -np.ones(2), what="x") == (True, 0.0)
    big = np.full(3, 1.5e308)
    assert identity(big, big, -big, -big, what="x") == (True, 0.0)
    with pytest.raises(ArithmeticError, match="^non-finite value in x$"):
        identity(big, np.array([0.0, np.nan, 0.0]), what="x")


def test_every_closed_form_gate_reads_the_one_rule(monkeypatch):
    # with every sum counted as zero, each closed-form singularity gate
    # fires and every finite map verifies, and with none, none does: they
    # read core._vanishes, the gates at its default tolerance and
    # verify_map at EPS_ALGEBRA
    ta2 = p.solve_family("Ta2", +1, {"a_x": 1.0, "a_y": 2.0, "g": 0.5}, PAR)
    wrong = p.embedding._build_map("Ta2", +1, 1.0, 1.0, 1.0, 1.0,
                                   p.TwoDimModel(1.0, 1.0, 1.0, 1.0, 0.0), PAR)
    assert p.verify_map(ta2).passes and not p.verify_map(wrong).passes
    calls = [(p.blend_j, SingularBlendError),
             (p.blend_j_tabulated, SingularBlendError),
             (p.sum_of_squares, SingularCoefficientError),
             (p.embedding.blend_coefficients_from_sos,
              SingularCoefficientError)]
    seen = []

    def always(*terms, **kw):
        seen.append(kw)
        return np.full(np.broadcast(*terms).shape, True)

    monkeypatch.setattr(p.core, "_vanishes", always)
    for fn, error in calls:
        with pytest.raises(error):
            fn(PAR, 1.0, 2.0)
    assert ta2.rank_deficient and ta2.singular
    with pytest.raises(SingularMapError):
        p.pushforward_poisson(ta2)
    assert seen and all(kw == {} for kw in seen)
    seen.clear()
    v = p.verify_map(wrong)
    assert v.passes and v.phi1.kind == v.phi2.kind == "proportional"
    assert seen and all(kw == {"eps": EPS_ALGEBRA} for kw in seen)
    # (1, -1) is on a ray of blend_j, (1, 1) on one of the quoted form and
    # of the sum of squares, and the Ta1 map has x proportional to y
    monkeypatch.setattr(p.core, "_vanishes", lambda *terms, **kw: np.full(
        np.broadcast(*terms).shape, False))
    for fn, _ in calls:
        with np.errstate(divide="ignore", invalid="ignore"):
            for c1, c2 in ((1.0, -1.0), (1.0, 1.0)):
                try:
                    fn(PAR, c1, c2)
                except (SingularBlendError, SingularCoefficientError):
                    raise AssertionError(f"{fn.__name__} gated {(c1, c2)}")
                except (ArithmeticError, ValueError):
                    pass    # the division the gate guards
    v = p.verify_map(ta2)
    assert not v.passes and v.phi1.kind == v.phi2.kind == "neither"
    ta1 = p.solve_family("Ta1", +1, {"a_x": 1.0, "a_y": 2.0, "g": 0.5}, PAR)
    assert not ta1.rank_deficient
