"""Acceptance suite: every release criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one timed pass/fail
line per criterion.
"""

import time

import numpy as np
import pytest

import puosc as p
from puosc.core import flow_matrix
from puosc.dynamics import closed_form_states, field_for
from puosc.embedding import BRANCHES, FAMILIES, draw_free_params, qqdot_component
from puosc.errors import ComplexBranchError, SingularCoefficientError
from puosc.symmetry import (
    default_sample_points,
    max_pairwise_commutator,
    projection_residual,
)

PAR = p.make_params(1.0, 2.0)
FIG_Z0 = p.ostro_to_jet(PAR, p.OstroState(0.0, 0.0, 0.5, -0.5))


def _draws(seed, n=100):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        w1, w2 = rng.uniform(0.1, 10.0, 2)
        if abs(w1 - w2) > 0.05:
            out.append(p.make_params(w1, w2))
    return out


def _report(num, label, elapsed, budget):
    print(f"ACCEPTANCE {num}: PASS ({elapsed:.2f}s < {budget:.0f}s) - {label}")
    assert elapsed < budget


def test_criterion_1_hamilton_identities():
    t0 = time.time()
    for par in _draws(101):
        A = flow_matrix(par)
        assert np.max(np.abs(p.j1(par).j @ p.h1(par).coeffs - A)) < 1e-12
        assert np.max(np.abs(p.j2(par).j @ p.h2(par).coeffs - A)) < 1e-12
    _report(1, "J1 S1 = A and J2 S2 = A over 100 frequency draws",
            time.time() - t0, 1.0)


def test_criterion_2_commutant():
    t0 = time.time()
    for par in _draws(102):
        basis = p.commutant_basis(flow_matrix(par))
        assert len(basis) == 4
        assert max_pairwise_commutator(basis) < 1e-12
        for xi in p.known_generators(par):
            assert projection_residual(basis, xi) < 1e-12
    _report(2, "commutant dimension 4, abelian, closed-form generators in span",
            time.time() - t0, 5.0)


def test_criterion_3_symmetry_actions():
    t0 = time.time()
    for par in [PAR] + _draws(103, 30):
        H1, H2 = p.h1(par), p.h2(par)
        g1, g2, g3, g4 = p.known_generators(par)
        s1n = np.linalg.norm(H1.coeffs)
        assert np.linalg.norm(p.apply_symmetry(g1, H1).coeffs) \
            < 1e-12 * np.linalg.norm(g1) * s1n
        assert np.allclose(p.apply_symmetry(g2, H1).coeffs, H1.coeffs,
                           rtol=0, atol=1e-12 * s1n)
        assert np.linalg.norm(p.apply_symmetry(g4, H1).coeffs) \
            < 1e-12 * np.linalg.norm(g4) * s1n
        q3 = p.apply_symmetry(g3, H1).coeffs
        c = float(q3.ravel() @ H2.coeffs.ravel()
                  / (H2.coeffs.ravel() @ H2.coeffs.ravel()))
        assert c == pytest.approx(-par.beta, rel=1e-10)
        assert np.linalg.norm(q3 - c * H2.coeffs) < 1e-10 * np.linalg.norm(q3)
    _report(3, "X1(H1)=0, X2(H1)=H1, X4(H1)=0, X3(H1) = -beta H2",
            time.time() - t0, 5.0)


def test_criterion_4_invariant_tensor_scan():
    t0 = time.time()
    free_basis = p.invariant_tensor_space(p.free_vector_field(PAR))
    assert len(free_basis) == 2
    assert projection_residual(free_basis, p.j1(PAR).j) < 1e-10
    assert projection_residual(free_basis, p.j2(PAR).j) < 1e-10
    for lam in (0.01, 0.1, 1.0):
        field = p.field_for(PAR, p.quartic(lam))
        basis = p.invariant_tensor_space(field, default_sample_points(10))
        assert len(basis) == 1
        assert projection_residual(basis, p.j1(PAR).j) < 1e-10
        assert projection_residual(basis, p.j2(PAR).j) > 1e-3
    _report(4, "free scan -> span{J1, J2}; interacting scan -> span{J1}",
            time.time() - t0, 5.0)


def test_criterion_5_embedding_contracts():
    t0 = time.time()
    rng = np.random.default_rng(105)
    for family in FAMILIES:
        for _ in range(50):
            par = _draws(int(rng.integers(1 << 30)), 1)[0]
            free = draw_free_params(family, rng, par)
            for branch in BRANCHES:
                m = p.solve_family(family, branch, free, par)
                v = p.verify_map(m)
                assert v.passes
                scale = max(1.0, *(abs(c) for c in
                                   v.phi1.coefficients + v.phi2.coefficients))
                assert v.residual_norm < 1e-12 * scale
                if family in ("Ta1", "Tb2"):
                    assert m.singular
                else:
                    comp = qqdot_component(p.pushforward_poisson(m))
                    if abs(comp) < 1e-10:
                        assert np.sign(m.model.a_x) != np.sign(m.model.a_y)
    # vanishing dq^dqd component only with opposite kinetic signs, and
    # J1-preserving maps always carry an indefinite model Hamiltonian
    for ax in (0.5, 1.0, -1.3):
        try:
            m = p.solve_family("Ta2", +1,
                               {"a_x": ax, "a_y": -ax, "g": 0.2}, PAR)
        except ComplexBranchError:
            continue
        J = p.pushforward_poisson(m)
        assert abs(qqdot_component(J)) < 1e-12
        S, _, _, _ = p.pullback_hamiltonian(m)
        assert np.linalg.eigvalsh(S.coeffs)[0] < 0
    rec = p.reconciliation_report(PAR, n_draws=5, seed=105)
    assert rec["families"]["Tb1"]["discrepant_tabulated_rows"] > 0
    _report(5, "50 draws/family verify clean; singular families flagged; "
               "ghost trade-off holds; reconciliation report generated",
            time.time() - t0, 30.0)


def test_criterion_6_positivity():
    t0 = time.time()
    # spot verdicts at (1, 2)
    assert p.positivity(PAR, p.blend_h(PAR, -1.0, 2.0)).positive_definite
    assert not p.positivity(PAR, p.blend_h(PAR, 1.0, 0.0)).positive_definite
    assert not p.positivity(PAR, p.blend_h(PAR, 0.0, 1.0)).positive_definite
    # closed-form inequality vs eigenvalue test on a 50x50 grid x 5 params
    for par in _draws(106, 5):
        w1s, w2s = par.omega1 ** 2, par.omega2 ** 2
        vals = np.linspace(-3.0, 3.0, 50)
        agree = total = 0
        for ct1 in vals:
            for ct2 in vals:
                near_locus = (
                    abs(ct1 * w1s - ct2) <= 1e-10 * max(1, abs(ct1) * w1s + abs(ct2))
                    or abs(ct1 * w2s - ct2) <= 1e-10 * max(1, abs(ct1) * w2s + abs(ct2))
                )
                if near_locus:
                    continue
                try:
                    S = p.sum_of_squares(par, float(ct1), float(ct2))
                except SingularCoefficientError:
                    continue
                total += 1
                agree += int(p.positivity(par, S).positive_definite
                             == p.definiteness_inequality(par, float(ct1),
                                                          float(ct2)))
        assert total > 2000
        assert agree == total
    _report(6, "eigenvalue test matches the closed-form inequality (100%)",
            time.time() - t0, 30.0)


def test_criterion_7_free_dynamics():
    t0 = time.time()
    z0 = p.JetState(1, 0, -1, 0)
    traj = p.integrate(PAR, p.free_vector_field(PAR), z0, 100.0, tol=1e-10)
    exact = closed_form_states(PAR, p.mode_decompose(PAR, z0), traj.times)
    assert np.max(np.abs(traj.states - exact)) < 1e-6
    assert traj.drift("h1") < 1e-8
    assert traj.drift("h2") < 1e-8
    # mode-energy identity with the spot values
    rng = np.random.default_rng(107)
    for _ in range(200):
        z = p.JetState.from_array(rng.uniform(-2, 2, 4))
        total = p.mode_energy(PAR, p.mode_decompose(PAR, z))["total"]
        assert total == pytest.approx(p.h1(PAR).value(z), rel=1e-10, abs=1e-10)
    e1 = p.mode_energy(PAR, p.mode_decompose(PAR, p.JetState(1, 0, -1, 0)))
    e2 = p.mode_energy(PAR, p.mode_decompose(PAR, p.JetState(1, 0, -4, 0)))
    assert e1["total"] == pytest.approx(-1.5, abs=1e-10)
    assert e2["total"] == pytest.approx(6.0, abs=1e-10)
    _report(7, "trajectory matches closed form to 1e-6; drifts < 1e-8; "
               "mode energies reproduce H1 (-1.5 and 6 spot values)",
            time.time() - t0, 10.0)


def test_criterion_8_figure_experiment():
    t0 = time.time()
    # free run with the reference initial data is bounded
    v0 = p.integrate(PAR, field_for(PAR, p.quartic(0.0)), FIG_Z0, 200.0,
                     1e-8, sample_rate=200.0, escape_radius=1000.0)
    assert not v0.escaped
    # threshold scan over [0, 10]: bounded below, escaping above
    rep = p.threshold_search(PAR, FIG_Z0, 200.0, 1000.0, (0.0, 10.0), tol=1e-8)
    assert rep.lambda_star is not None
    assert 0.0 < rep.lambda_star < 10.0
    flags = [g.bounded for g in rep.grid]
    assert flags[0] and not flags[-1]
    below = [g for g in rep.grid if g.lam < rep.lambda_star]
    above = [g for g in rep.grid if g.lam > rep.lambda_star]
    assert all(g.bounded for g in below) or rep.caveat
    assert any(not g.bounded for g in above)
    # on a bounded interacting run the interacting energy H1 - W is conserved
    # while the second Hamiltonian drifts, witnessing the broken structure
    pot = p.quartic(5.0)
    traj = p.integrate(PAR, field_for(PAR, pot), FIG_Z0, 200.0, tol=1e-10)
    assert not traj.escaped
    assert traj.drift("hint") < 1e-7
    assert traj.drift("h2") > 1e-2
    _report(8, f"bounded at lam=0; threshold lam*={rep.lambda_star:.3f} in "
               "(0, 10); interacting energy conserved to 1e-7 while H2 drifts",
            time.time() - t0, 60.0)
