"""Commutant computation, symmetry actions, bi-Hamiltonian solve and the
invariant-tensor scan."""

import numpy as np
import pytest

import puosc as p
from puosc.config import EPS_ALGEBRA
from puosc.core import flow_matrix
from puosc.embedding import fit_blend
from puosc.errors import (
    InsufficientSamplesError,
    NotAntisymmetricError,
    SingularHessianError,
)
from puosc.symmetry import (
    _commutant_stack,
    _known_stack,
    default_sample_points,
    invariant_tensor_space,
    max_pairwise_commutator,
    projection_residual,
)
from test_cli import STRUCTURE_101
from test_core import STACKED_DRAWS
from test_dynamics import PENDULUM

PAR = p.make_params(1.0, 2.0)


def random_params(rng):
    while True:
        w1, w2 = rng.uniform(0.1, 10.0, 2)
        if abs(w1 - w2) > 0.05:
            return p.make_params(w1, w2)


# ---------------------------------------------------------------------------
# commutant
# ---------------------------------------------------------------------------

def test_commutant_dimension_free_flow():
    basis = p.commutant_basis(flow_matrix(PAR))
    assert len(basis) == 4


def test_commutant_dimension_zero_matrix():
    basis = p.commutant_basis(np.zeros((4, 4)))
    assert len(basis) == 16


def test_commutant_dimension_50_random_draws():
    rng = np.random.default_rng(7)
    for _ in range(50):
        par = random_params(rng)
        assert len(p.commutant_basis(flow_matrix(par))) == 4


def test_known_generators_in_computed_span():
    basis = p.commutant_basis(flow_matrix(PAR))
    for xi in p.known_generators(PAR):
        assert projection_residual(basis, xi) < 1e-12


def test_generators_commute_pairwise():
    assert max_pairwise_commutator(p.known_generators(PAR)) < 1e-12


def test_computed_basis_abelian_50_draws():
    rng = np.random.default_rng(8)
    for _ in range(50):
        par = random_params(rng)
        basis = p.commutant_basis(flow_matrix(par))
        assert max_pairwise_commutator(basis) < 1e-12


def _loop_commutator_operator(A):
    K = np.empty((16, 16))
    for k in range(16):
        E = np.zeros(16)
        E[k] = 1.0
        E = E.reshape(4, 4)
        K[:, k] = (E @ A - A @ E).ravel()
    return K


def _loop_invariant_tensor_space(field):
    # one 16x6 block per Jacobian, one column per antisymmetric basis matrix
    basis = []
    for i in range(4):
        for j in range(i + 1, 4):
            B = np.zeros((4, 4))
            B[i, j], B[j, i] = 1.0, -1.0
            basis.append(B)
    if field.potential is None:
        jacobians = [np.asarray(field.linear, dtype=float)]
    else:
        jacobians = [field.jacobian(z) for z in default_sample_points()]
    blocks = []
    for D in jacobians:
        scale = np.linalg.norm(D)
        cols = [((D @ B + B @ D.T) / scale).ravel() for B in basis]
        blocks.append(np.stack(cols, axis=1))
    _, sv, vt = np.linalg.svd(np.vstack(blocks))
    out = []
    for coeffs in vt[sv <= 1e-10 * sv[0]]:
        J = sum(c * B for c, B in zip(coeffs, basis))
        out.append(0.5 * (J - J.T))
    return out


@pytest.mark.parametrize("w1, w2", STRUCTURE_101)
def test_invariant_tensor_space_is_the_basis_loop(w1, w2):
    # a linear field's kernel returns the per-basis-matrix loop's tensors
    # bit for bit.  The free flow in a dense chart is there because the flow
    # matrix's norm comes out the same in any summation order, and a dense
    # matrix's does not: the scale must be the loop's np.linalg.norm(D), as
    # core._frobenius sums it.  For the quartic and a non-polynomial
    # potential the kernel solves the constrained free system, not the
    # loop's stack of sampled Jacobians: the spans agree, each way
    par = p.make_params(w1, w2)
    P = np.random.default_rng(12).normal(size=(4, 4))
    linear = [p.free_vector_field(par),
              p.VectorField(P @ flow_matrix(par) @ np.linalg.inv(P))]
    interacting = [p.field_for(par, PENDULUM),
                   *(p.field_for(par, p.quartic(lam))
                     for lam in (0.01, 0.1, 1.0, 1e3))]
    for field in linear + interacting:
        got = invariant_tensor_space(field)
        want = np.reshape(_loop_invariant_tensor_space(field), (-1, 4, 4))
        assert got.shape == want.shape
        if field.potential is None:
            assert got.tobytes() == want.tobytes()
        else:
            for a, b in ((got, want), (want, got)):
                assert max(projection_residual(a, J) for J in b) < 1e-12
        assert np.array_equal(got, -got.swapaxes(1, 2))


def test_bases_are_float_stacks():
    # every basis is a plain (d, 4, 4) float array; a diagonal flow whose
    # eigenvalues sum to 0 in no pair keeps no invariant tensor
    none = p.VectorField(np.diag([1.0, 2.0, 3.0, 4.0]))
    quartic = p.field_for(PAR, p.quartic(0.1))
    bases = [(p.commutant_basis(flow_matrix(PAR)), 4),
             (p.commutant_basis(np.zeros((4, 4))), 16),
             (p.known_generators(PAR), 4),
             (invariant_tensor_space(p.free_vector_field(PAR)), 2),
             (invariant_tensor_space(quartic, default_sample_points(10)), 1),
             (invariant_tensor_space(none), 0)]
    for basis, d in bases:
        assert type(basis) is np.ndarray and basis.dtype == np.float64
        assert basis.shape == (d, 4, 4)
    # nothing is in the span of an empty basis
    assert projection_residual(invariant_tensor_space(none), p.j1(PAR).j) == 1.0


def test_commutant_operator_is_the_column_loop(monkeypatch):
    # the 16x16 operators X -> XA - AX, as the commutant kernel hands them
    # to one batched SVD, equal the column-by-column build bit for bit
    seen = []
    svd = np.linalg.svd

    def spy(K, *args, **kwargs):
        seen.append(np.array(K))
        return svd(K, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    rng = np.random.default_rng(11)
    mats = [np.zeros((4, 4)),
            flow_matrix(p.make_params(9.450664502595535, 9.60169554945272)),
            *(flow_matrix(random_params(rng)) for _ in range(50))]
    _commutant_stack(np.array(mats))
    K, = seen
    assert K.shape == (len(mats), 16, 16)
    for A, K_A in zip(mats, K):
        assert np.array_equal(K_A, _loop_commutator_operator(A))
    # commutant_basis is the stack of one
    seen.clear()
    p.commutant_basis(mats[1])
    K, = seen
    assert np.array_equal(K, _loop_commutator_operator(mats[1])[None])


def test_generators_orthonormal_frobenius():
    basis = p.commutant_basis(flow_matrix(PAR))
    G = basis.reshape(len(basis), 16)
    assert np.allclose(G @ G.T, np.eye(len(basis)), atol=1e-12)


def test_x2_is_half_identity_x1_is_flow():
    gens = p.known_generators(PAR)
    assert np.array_equal(gens[0], flow_matrix(PAR))
    assert np.array_equal(gens[1], 0.5 * np.eye(4))
    assert np.array_equal(gens[2], 0.5 * flow_matrix(PAR) @ flow_matrix(PAR))


@pytest.mark.parametrize("draws", STACKED_DRAWS)
def test_known_stack_is_known_generators_bit_for_bit(draws):
    alpha = np.array([par.alpha for par in draws])
    G = _known_stack(alpha, [par.beta for par in draws])
    assert G.shape == (len(draws), 4, 4, 4)
    for stacked, par in zip(G, draws):
        A = flow_matrix(par)
        a, b = par.alpha, par.beta
        # X1-X3 are the per-matrix products bit for bit; X4 = A^3 + alpha A
        # is its exact table, which the computed product is not
        reference = (A, 0.5 * np.eye(4), 0.5 * (A @ A),
                     np.array([[0.0, a, 0.0, 1.0], [-b, 0.0, 0.0, 0.0],
                               [0.0, -b, 0.0, 0.0], [0.0, 0.0, -b, 0.0]]))
        gens = p.known_generators(par)
        assert stacked.tobytes() == gens.tobytes()
        for X, R in zip(stacked, reference, strict=True):
            assert X.tobytes() == R.tobytes()


def test_x4_explicit_entries():
    # (alpha*qd + qddd) dq - beta (q dqd + qd dqdd + qdd dqddd)
    X4 = p.known_generators(PAR)[3]
    expected = np.array([
        [0.0, 5.0, 0.0, 1.0],
        [-4.0, 0.0, 0.0, 0.0],
        [0.0, -4.0, 0.0, 0.0],
        [0.0, 0.0, -4.0, 0.0],
    ])
    assert np.allclose(X4, expected, atol=1e-13)


# ---------------------------------------------------------------------------
# symmetry actions on H1
# ---------------------------------------------------------------------------

def test_actions_on_h1():
    H1 = p.h1(PAR)
    g1, g2, g3, g4 = p.known_generators(PAR)
    assert np.linalg.norm(p.apply_symmetry(g1, H1).coeffs) < 1e-12
    assert np.allclose(p.apply_symmetry(g2, H1).coeffs, H1.coeffs, atol=0)
    assert np.linalg.norm(p.apply_symmetry(g4, H1).coeffs) < 1e-12


def test_x3_action_value_and_h2_proportionality():
    H1, H2 = p.h1(PAR), p.h2(PAR)
    X3 = p.known_generators(PAR)[2]
    Q = p.apply_symmetry(X3, H1)
    z = p.JetState(1, 0, -1, 0)
    assert Q.value(z) == pytest.approx(1.5, abs=1e-14)
    assert Q.value(z) == pytest.approx(-PAR.beta * H2.value(z), abs=1e-14)
    assert np.allclose(Q.coeffs, -PAR.beta * H2.coeffs, atol=1e-13)


def test_x3_charge_explicit_form():
    # beta qd^2/2 - alpha qdd^2/2 - qddd^2/2 - beta q qdd
    Q = p.apply_symmetry(p.known_generators(PAR)[2], p.h1(PAR))
    expected = np.array([
        [0.0, 0.0, -4.0, 0.0],
        [0.0, 4.0, 0.0, 0.0],
        [-4.0, 0.0, -5.0, 0.0],
        [0.0, 0.0, 0.0, -1.0],
    ])
    assert np.allclose(Q.coeffs, expected, atol=1e-13)


def test_x3_fit_constant_random_draws():
    # X3(H1) = -beta H2 is the derived H2, and every charge commutes with H1
    rng = np.random.default_rng(9)
    for _ in range(20):
        par = random_params(rng)
        charges = p.symmetry_charges(par)
        assert charges.shape == (4, 4, 4)
        _, S2 = p.generated_structure(par)
        assert np.array_equal(S2, charges[2] / -par.beta)
        assert np.allclose(S2, p.h2(par).coeffs, rtol=EPS_ALGEBRA, atol=0)
        for Q in charges:
            br = p.poisson_bracket(par, p.QuadraticObservable(Q), p.h1(par),
                                   p.j1(par))
            assert np.linalg.norm(br.coeffs) < 1e-10 * max(1.0, par.beta ** 2)


def test_charges_are_the_symmetry_actions():
    H1 = p.h1(PAR)
    charges = p.symmetry_charges(PAR)
    for Q, xi in zip(charges, p.known_generators(PAR), strict=True):
        assert Q.tobytes() == p.apply_symmetry(xi, H1).coeffs.tobytes()


def test_symmetry_action_overflow_is_a_numerical_failure():
    # X4 is a finite table at (1e60, 2e60), but X4(H1) overflows: a named
    # ArithmeticError, not a NaN that QuadraticObservable rejects as
    # asymmetric
    par = p.make_params(1e60, 2e60)
    X4 = p.known_generators(par)[3]
    assert np.isfinite(X4).all()
    with pytest.raises(ArithmeticError,
                       match="non-finite value in the symmetry action"):
        p.apply_symmetry(X4, p.h1(par))
    with pytest.raises(ArithmeticError,
                       match="non-finite value in the symmetry action"):
        p.symmetry_charges(par)


def test_charges_conserved_along_trajectory():
    # the generated charge is constant along an integrated free trajectory
    Q = p.apply_symmetry(p.known_generators(PAR)[2], p.h1(PAR))
    z0 = p.JetState(0.4, -0.3, 0.8, 0.2)
    traj = p.integrate(PAR, p.free_vector_field(PAR), z0, 100.0, tol=1e-10)
    vals = 0.5 * np.einsum("ni,ij,nj->n", traj.states, Q.coeffs, traj.states)
    assert np.max(np.abs(vals - vals[0])) < 1e-8


# ---------------------------------------------------------------------------
# bi-Hamiltonian solve
# ---------------------------------------------------------------------------

def test_solve_bihamiltonian_h1_returns_j1():
    J = p.solve_bihamiltonian(PAR, p.h1(PAR))
    assert np.allclose(J.j, p.j1(PAR).j, atol=1e-13)


def test_solve_bihamiltonian_h2_returns_j2():
    J = p.solve_bihamiltonian(PAR, p.h2(PAR))
    assert np.allclose(J.j, p.j2(PAR).j, atol=1e-13)
    assert abs(J.j[0, 1]) == pytest.approx(1.0, abs=1e-13)
    assert abs(J.j[2, 3]) == pytest.approx(PAR.beta, abs=1e-13)


def test_solve_bihamiltonian_matches_shipped_bitwise():
    J = p.solve_bihamiltonian(PAR, p.h2(PAR))
    assert np.array_equal(J.j, p.j2(PAR).j)


def test_solve_bihamiltonian_identity_hessian_fails():
    with pytest.raises(NotAntisymmetricError) as exc:
        p.solve_bihamiltonian(PAR, p.QuadraticObservable(np.eye(4)))
    assert exc.value.symmetric_norm > 0.1


def test_solve_bihamiltonian_singular_hessian():
    S = np.zeros((4, 4))
    S[0, 0] = 1.0
    with pytest.raises(SingularHessianError):
        p.solve_bihamiltonian(PAR, p.QuadraticObservable(S))


def _is_shipped_structure(par):
    # entrywise relative with no absolute floor: an absolute tolerance
    # would swallow the order-1 dq^dqd block next to a large beta
    J, S = p.generated_structure(par)
    assert J.dtype == S.dtype == float and J.shape == S.shape == (4, 4)
    return (np.allclose(J, p.j2(par).j, rtol=EPS_ALGEBRA, atol=0)
            and np.allclose(S, p.h2(par).coeffs, rtol=EPS_ALGEBRA, atol=0))


def test_generated_structure_is_shipped():
    assert _is_shipped_structure(PAR)
    rng = np.random.default_rng(10)
    for _ in range(10):
        assert _is_shipped_structure(random_params(rng))


def test_generated_structure_from_small_to_large_frequencies():
    for w in [*np.geomspace(1e-77, 1e75, 400), 1e-77, 1e75]:
        for ratio in (1.01, 1.2, 1.5, 2.0, 3.0, 5.0):
            assert _is_shipped_structure(p.make_params(w, ratio * w))


def test_generated_structure_at_subnormal_beta_is_not_finite():
    # beta is subnormal at (1e-78, 2e-78): 1/beta overflows in the table and
    # in the derived H2 alike, so no finite comparison is left
    par = p.make_params(1e-78, 2e-78)
    J, S = p.generated_structure(par)
    assert np.isfinite(J).all()
    assert S[3, 3] == p.h2(par).coeffs[3, 3] == np.inf


def test_commutant_generates_exactly_span_j1_j2():
    # X J1 + J1 X^T is 0 for X1 and X4, J1 for X2 and J2 - alpha J1 for X3
    rng = np.random.default_rng(11)
    for par in (PAR, *(random_params(rng) for _ in range(10))):
        J1, J2 = p.j1(par).j, p.j2(par).j
        X1, X2, X3, X4 = p.known_generators(par)
        A = p.flow_matrix(par)
        assert (0.5 * (A @ A)).tobytes() == X3.tobytes()
        T = [X @ J1 + J1 @ X.T for X in (X1, X2, X3, X4)]
        scale = np.linalg.norm(X4) * np.linalg.norm(J1)
        assert np.allclose(T[0], 0.0, rtol=0, atol=EPS_ALGEBRA * scale)
        assert np.array_equal(T[1], J1)
        assert np.allclose(T[2], J2 - par.alpha * J1, rtol=EPS_ALGEBRA,
                           atol=EPS_ALGEBRA * scale)
        assert np.allclose(T[3], 0.0, rtol=0, atol=EPS_ALGEBRA * scale)
        span = np.array([J1, J2])
        assert np.linalg.matrix_rank(np.reshape(T, (4, 16))) == 2
        assert max(projection_residual(span, t) for t in T) < EPS_ALGEBRA


@pytest.mark.parametrize("s", [10.0 ** k for k in range(-30, 31, 5)])
def test_rank_and_residual_decisions_are_scale_covariant(s):
    # every rank cut and residual is relative to its own operand, with no
    # floor, so s times an input gives the unscaled answer.  A floor of
    # max(1, .) gave 16 commutant elements, 6 invariant tensors and a
    # singular Hessian below s of about 1e-10, and residuals of 0.80 s and
    # 0.12 s below s = 1
    A, X = flow_matrix(PAR), np.diag([1.0, 0.0, 0.0, 0.0])
    assert len(p.commutant_basis(s * A)) == 4
    assert len(invariant_tensor_space(p.VectorField(s * A))) == 2
    J = p.solve_bihamiltonian(PAR, p.blend_h(PAR, s, 0.0)).j
    assert np.abs(J * s - p.j1(PAR).j).max() <= 1e-15
    B = p.commutant_basis(A)
    r = projection_residual(B, X)
    assert 0.80 < r < 0.81
    assert abs(projection_residual(s * B, s * X) - r) <= 1e-15
    S = p.h1(PAR).coeffs + X    # X is not in span{S1, S2}
    c1, c2, r = fit_blend(PAR, S)
    assert 0.12 < r < 0.13
    got = fit_blend(PAR, s * S)
    assert got == pytest.approx((s * c1, s * c2, r), rel=1e-14, abs=0)


# ---------------------------------------------------------------------------
# invariant-tensor scan
# ---------------------------------------------------------------------------

def test_free_field_invariant_space_dimension_2():
    basis = p.invariant_tensor_space(p.free_vector_field(PAR))
    assert len(basis) == 2
    assert projection_residual(basis, p.j1(PAR).j) < 1e-10
    assert projection_residual(basis, p.j2(PAR).j) < 1e-10


def test_interacting_field_collapses_to_j1():
    field = p.field_for(PAR, p.quartic(0.1))
    basis = p.invariant_tensor_space(field, default_sample_points(10))
    assert len(basis) == 1
    assert projection_residual(basis, p.j1(PAR).j) < 1e-10
    assert projection_residual(basis, p.j2(PAR).j) > 1e-3


def test_interacting_scan_insufficient_samples():
    field = p.field_for(PAR, p.quartic(1.0))
    pts = [p.JetState(0.0, float(k), 0.5, -1.0) for k in range(10)]
    with pytest.raises(InsufficientSamplesError):
        p.invariant_tensor_space(field, pts)


def test_non_finite_jacobian_is_a_numerical_failure():
    # W'' = 3 lam q^2 is inf at the sample points: named before the SVD
    field = p.field_for(PAR, p.quartic(1e308))
    with pytest.raises(ArithmeticError, match="flow Jacobian is not finite"):
        p.invariant_tensor_space(field)


def test_lie_derivative_residual_free_field():
    field = p.free_vector_field(PAR)
    z = p.JetState(0.7, -1.1, 0.2, 0.9)
    for J in (p.j1(PAR), p.j2(PAR)):
        assert np.linalg.norm(p.lie_derivative_residual(field, J, z)) < 1e-14


def test_lie_derivative_residual_interacting_j2_pattern():
    lam = 1.0
    field = p.field_for(PAR, p.quartic(lam))
    z = p.JetState(1.0, 0.0, 0.0, 0.0)
    R = p.lie_derivative_residual(field, p.j2(PAR), z)
    # only the (qd, qddd) pair picks up the broken dq^dqd block:
    # residual = 3 lam q^2 (E41 J2 + J2 E14)
    expected = np.zeros((4, 4))
    expected[3, 1] = 3.0 * lam * p.j2(PAR).j[0, 1]
    expected[1, 3] = -3.0 * lam * p.j2(PAR).j[0, 1]
    assert np.allclose(R, expected, atol=1e-13)
    assert np.linalg.norm(R) == pytest.approx(
        3.0 * lam * abs(p.j2(PAR).j[0, 1]) * np.sqrt(2), abs=1e-12)


def test_lie_derivative_residual_j2_vanishes_at_q_zero():
    field = p.field_for(PAR, p.quartic(2.0))
    z = p.JetState(0.0, 1.3, -0.4, 0.8)
    assert np.linalg.norm(p.lie_derivative_residual(field, p.j2(PAR), z)) < 1e-14


def test_lie_derivative_residual_j1_immune_to_interaction():
    field = p.field_for(PAR, p.quartic(5.0))
    z = p.JetState(2.0, -1.0, 0.5, 0.3)
    assert np.linalg.norm(p.lie_derivative_residual(field, p.j1(PAR), z)) < 1e-14


def test_max_invariance_residual_over_default_samples():
    field = p.field_for(PAR, p.quartic(0.5))

    def worst(J):
        return max(np.linalg.norm(p.lie_derivative_residual(field, J, z))
                   for z in default_sample_points())

    assert worst(p.j1(PAR)) < 1e-13
    assert worst(p.j2(PAR)) > 1e-3


# every twentieth decade from 1e-300 to 1e300, plus 1e-8 and 1e12, where a
# scan that weighs W'' against |A| loses J1 at (1, 2)
COUPLINGS = [0.01, 0.1, 1.0, 1e-8, 1e12,
             *(10.0 ** e for e in range(-300, 301, 20))]


def test_interacting_collapse_various_couplings():
    # W'' enters only through whether it varies over the samples, so the
    # collapse to span{J1} does not depend on the coupling's size
    for w1, w2 in ((1.0, 2.0), (8.0, 40.0), (0.3, 0.7), (1e-3, 2e-3)):
        par = p.make_params(w1, w2)
        for pot in (*map(p.quartic, COUPLINGS), PENDULUM):
            basis = p.invariant_tensor_space(p.field_for(par, pot),
                                             default_sample_points(10))
            assert len(basis) == 1
            assert projection_residual(basis, p.j1(par).j) < 1e-10
            if par == PAR:
                assert projection_residual(basis, p.j2(par).j) > 1e-3


def test_constant_w_second_solves_the_shifted_linear_field():
    # W = q^2 has W'' = 2 at every sample: the field is the linear one of
    # A - 2 E30, the flow of alpha 5, beta 6, i.e. omega^2 = 2 and 3
    harmonic = p.Potential(lambda q: q * q, lambda q: 2.0 * q,
                           lambda q: 2.0, "harmonic")
    field = p.VectorField(flow_matrix(PAR), harmonic)
    basis = p.invariant_tensor_space(field, default_sample_points(10))
    shifted = p.make_params(np.sqrt(2.0), np.sqrt(3.0))
    assert len(basis) == 2
    assert projection_residual(basis, p.j1(shifted).j) < 1e-12
    assert projection_residual(basis, p.j2(shifted).j) < 1e-12
    # W'' = 0: the free span, bit for bit
    free = p.invariant_tensor_space(p.free_vector_field(PAR))
    lam0 = p.invariant_tensor_space(p.field_for(PAR, p.quartic(0.0)))
    assert lam0.tobytes() == free.tobytes()


def test_lie_derivative_residual_chart_mismatch():
    from puosc.errors import ChartMismatchError
    field = p.free_vector_field(PAR)
    with pytest.raises(ChartMismatchError):
        p.lie_derivative_residual(field, p.j1(PAR, chart="ostrogradsky"),
                                  p.JetState(0, 0, 0, 0))
