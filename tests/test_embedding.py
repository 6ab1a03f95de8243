"""Family classification, off-shell verification, tensor pushforward,
Hamiltonian pullback, sum-of-squares positivity."""

import ast
import collections
import functools
import inspect
import itertools
import json
import math
import operator
import sys
from fractions import Fraction

import numpy as np
import pytest

import puosc as p
from puosc import cli, embedding
from puosc.config import DEFAULT_SEED, EPS_ALGEBRA
from puosc.embedding import (
    BRANCHES,
    FAMILIES,
    FREE_PARAMS,
    draw_free_params,
    fit_blend,
    blend_coefficients_from_sos,
    qqdot_component,
    tabulated_blend_coefficients,
)
from puosc.errors import (
    ComplexBranchError,
    DegenerateModelError,
    NoSolutionError,
    NotInSpanError,
    PreconditionViolatedError,
    PuoscError,
    SingularCoefficientError,
    SingularMapError,
)
from test_cli import STRUCTURE_101

PAR = p.make_params(1.0, 2.0)


def random_params(rng):
    while True:
        w1, w2 = rng.uniform(0.1, 10.0, 2)
        if abs(w1 - w2) > 0.05:
            return p.make_params(w1, w2)


# ---------------------------------------------------------------------------
# derived constants
# ---------------------------------------------------------------------------

def test_rho0_value():
    assert embedding._rho0(PAR, +1) == 3.0
    assert embedding._rho0(PAR, -1) == -3.0
    # g = 0 reduces to rho_0
    assert embedding._rho_g(PAR, 1.0, 1.0, 0.0, +1) == 3.0


def test_tau_value():
    assert embedding._tau(PAR, 1.0, 2.0) == pytest.approx(4.0 - 10.0 + 4.0,
                                                          abs=1e-15)


def test_complex_branch_error():
    with pytest.raises(ComplexBranchError):
        embedding._rho_g(PAR, 1.0, 1.0, 2.0, +1)


def test_degenerate_model_error():
    with pytest.raises(DegenerateModelError):
        embedding._rho_g(PAR, 1.0, 0.0, 1.0, +1)


# ---------------------------------------------------------------------------
# tabulated rows (verbatim reference data)
# ---------------------------------------------------------------------------

def test_tabulated_ta1_example():
    m = p.tabulated_family("Ta1", +1, {"a_x": 1.0, "a_y": 2.0, "g": 1.0}, PAR)
    assert m.mu2 == 0.5
    assert m.nu2 == 0.25
    assert m.mu0 == 4.0      # (alpha + rho_0)/2 with a_x = 1
    assert m.nu0 == 2.0


def test_tabulated_tb1_example():
    m = p.tabulated_family("Tb1", +1, {"a_x": 1.0, "b_x": 2.0, "g": 1.0}, PAR)
    assert m.mu0 == 3.0
    assert m.mu2 == 1.0
    assert m.nu2 == 0.0
    assert m.nu0 == -2.0
    assert m.model.a_y == -0.25
    assert m.model.b_y == 1.5


def test_tabulated_tb1_phi2_residual():
    # the verbatim row leaves phi2 = (3/2) qdd, flagged by verify_map
    m = p.tabulated_family("Tb1", +1, {"a_x": 1.0, "b_x": 2.0, "g": 1.0}, PAR)
    v = p.verify_map(m)
    assert v.phi1.kind == "proportional" and v.phi1.factor == 1.0
    assert v.phi2.kind == "neither"
    assert v.phi2.coefficients[2] == pytest.approx(1.5, abs=1e-14)
    assert not v.passes


def test_tabulated_tb2_degenerate_flag():
    m = p.tabulated_family("Tb2", +1, {"a_x": 1.0, "b_y": 1.0, "g": 0.5}, PAR)
    assert m.model.degenerate
    assert m.singular


# ---------------------------------------------------------------------------
# re-derived rows
# ---------------------------------------------------------------------------

def test_solve_ta1_example_values():
    m = p.solve_family("Ta1", +1, {"a_x": 1.0, "a_y": 2.0, "g": 1.0}, PAR)
    assert m.mu0 == pytest.approx(2.0, abs=1e-14)
    assert m.nu0 == pytest.approx(1.0, abs=1e-14)
    assert m.model.b_x == pytest.approx(0.5, abs=1e-14)
    assert m.model.b_y == pytest.approx(0.0, abs=1e-14)
    assert m.singular  # x and y proportional by construction
    assert p.verify_map(m).passes


def test_solve_ta2_opposite_sign_kinetic():
    m = p.solve_family("Ta2", +1, {"a_x": 1.0, "a_y": -1.0, "g": 0.0}, PAR)
    v = p.verify_map(m)
    assert v.passes and v.residual_norm < 1e-12
    assert not m.singular


def test_solve_tb1_example():
    m = p.solve_family("Tb1", +1, {"a_x": 1.0, "b_x": 2.0, "g": 1.0}, PAR)
    assert m.model.a_y == pytest.approx(0.5, abs=1e-14)
    assert m.model.b_y == pytest.approx(1.5, abs=1e-14)
    v = p.verify_map(m)
    assert v.phi2.kind == "zero"
    assert v.passes and v.residual_norm < 1e-12


def test_solve_family_bad_inputs():
    # a zero divisor is a usage error, named by the parameter
    with pytest.raises(PreconditionViolatedError,
                       match="^Ta2 needs a_x != 0$"):
        p.solve_family("Ta2", +1, {"a_x": 0.0, "a_y": 1.0, "g": 0.0}, PAR)
    with pytest.raises(PreconditionViolatedError,
                       match="^Tb2 needs b_y != 0$"):
        p.solve_family("Tb2", +1, {"a_x": 1.0, "b_y": 0.0, "g": 1.0}, PAR)
    with pytest.raises(ComplexBranchError):
        p.solve_family("Ta2", +1, {"a_x": 1.0, "a_y": 1.0, "g": 2.0}, PAR)
    with pytest.raises(PreconditionViolatedError):
        p.solve_family("bogus", +1, {}, PAR)


@pytest.mark.parametrize("build", [p.solve_family, p.tabulated_family])
@pytest.mark.parametrize("free, key", [
    ({"a_x": 1.0, "g": 1.0}, "'b_x'"),                          # missing
    ({"a_x": 1.0, "b_x": 2.0, "g": 1.0, "a_y": 1.0}, "'a_y'"),  # extra
])
def test_free_parameters_must_match_family_exactly(build, free, key):
    with pytest.raises(PreconditionViolatedError, match=key):
        build("Tb1", +1, free, PAR)


DIVISORS = [("Ta1", "a_x"), ("Ta1", "a_y"), ("Ta2", "a_x"), ("Ta2", "a_y"),
            ("Tb1", "a_x"), ("Tb1", "g"), ("Tb2", "a_x"), ("Tb2", "b_y")]


@pytest.mark.parametrize("build", [p.solve_family, p.tabulated_family])
@pytest.mark.parametrize("family, key", DIVISORS)
@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_zero_divisor_is_a_usage_error(build, family, key, zero):
    # both builders reject an exact zero in a parameter the family divides
    # by, with the same line; every other parameter is 1
    free = dict.fromkeys(embedding.FREE_PARAMS[family], 1.0)
    free[key] = zero
    with pytest.raises(PreconditionViolatedError,
                       match=f"^{family} needs {key} != 0$"):
        build(family, +1, free, PAR)


@pytest.mark.parametrize("build", [p.solve_family, p.tabulated_family])
def test_overflowing_row_is_no_solution(build):
    # a subnormal a_y puts 1/(2 a_y) beyond the float range
    free = {"a_x": 0.76, "a_y": 2.2e-311, "g": -2.6}
    with pytest.raises(NoSolutionError, match="overflows"):
        build("Ta1", +1, free, PAR)


def test_underflowing_denominator_is_no_solution():
    # g a_x^2 of the Tb1 rows underflows to 0
    free = {"a_x": 1e-300, "b_x": 1.0, "g": 1.0}
    with pytest.raises(NoSolutionError, match="g a_x\\^2"):
        p.solve_family("Tb1", +1, free, PAR)
    with pytest.raises(NoSolutionError, match="g a_x\\^2"):
        p.tabulated_family("Tb1", +1, free, PAR)
    # a_x b_y (alpha + rho_0) of the tabulated Tb2 row underflows to 0
    free = {"a_x": 1e-300, "b_y": 1e-300, "g": 1e-300}
    assert p.solve_family("Tb2", +1, free, PAR).family == "Tb2"
    with pytest.raises(NoSolutionError, match="Tb2 row underflows"):
        p.tabulated_family("Tb2", +1, free, PAR)


@pytest.mark.parametrize("g", [1e-300, -1e-300])
def test_tb2_underflowing_coupling_square_verifies(g):
    # g^2 underflows to 0, so b_x = g^2/b_y + bt is formed as g (g/b_y):
    # 1e-300 + 4e-300, where g*g/b_y gave 4e-300 and a map failing its check
    m = p.solve_family("Tb2", +1, {"a_x": 1e-300, "b_y": 1e-300, "g": g}, PAR)
    assert m.model.b_x == pytest.approx(5e-300, rel=1e-12)
    assert p.verify_map(m).passes
    # elsewhere b_x keeps the g*g/b_y order bit for bit
    m = p.solve_family("Tb2", -1, {"a_x": 1.0, "b_y": 0.7, "g": 0.3}, PAR)
    assert m.model.b_x == 0.3 * 0.3 / 0.7 + 0.5 * (PAR.alpha - 3.0)


def test_reconciliation_skips_an_underflowing_tabulated_row():
    # alpha + rho_0 = 2 omega1^2 underflows to 0 beside omega2^2 on the "-"
    # branch; the solved row stands, the tabulated one is skipped
    par = p.make_params(1e-5, 1e10)
    rep = p.reconciliation_report(par, n_draws=2, seed=5)
    rows = [r for r in rep["families"]["Tb2"]["rows"] if r["branch"] == -1]
    assert rows and all(isinstance(r["solved"], dict) for r in rows)
    assert all(r["tabulated"].startswith("skipped: Tb2 row underflows")
               for r in rows)


def test_drawn_free_parameters_match_table():
    rng = np.random.default_rng(0)
    for family in FAMILIES:
        free = draw_free_params(family, rng, PAR)
        assert tuple(free) == FREE_PARAMS[family]


def _draw_free_params_by_choice(family, rng, params, tries):
    # reference: draw_free_params with its signs from rng.choice; tries
    # counts the passes, so a rejecting stream can be told apart
    for _ in range(200):
        tries.append(family)
        ax = rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 2.0)
        if family in ("Ta1", "Ta2"):
            ay = rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 2.0)
            g = rng.uniform(-1.0, 1.0)
            if family == "Ta2":
                if embedding._radicand(params, ax, ay, g) < 1e-6:
                    continue
            return dict(zip(FREE_PARAMS[family], (ax, ay, g)))
        if family == "Tb1":
            bx = rng.uniform(-3.0, 3.0)
            g = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 1.5)
            if abs(embedding._tau(params, ax, bx)) < 1e-3:
                continue
            return dict(zip(FREE_PARAMS[family], (ax, bx, g)))
        by = rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 2.0)
        g = rng.uniform(-1.0, 1.0)
        return dict(zip(FREE_PARAMS[family], (ax, by, g)))
    raise NoSolutionError(f"could not draw admissible parameters for {family}")


@pytest.mark.parametrize("family", FAMILIES)
def test_draw_free_params_is_the_choice_stream(family):
    # (1, 1.02) makes Ta2 reject most draws; equal values and an equal next
    # draw mean the integer sign index consumes what rng.choice consumed
    tries = []
    for seed, par in itertools.product((0, 5, DEFAULT_SEED),
                                       (PAR, p.make_params(1.0, 1.02))):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(200):
            free = draw_free_params(family, rng, par)
            ref = _draw_free_params_by_choice(family, ref_rng, par, tries)
            assert free == ref
            assert json.dumps(free) == json.dumps(ref)
        assert rng.uniform() == ref_rng.uniform()
    if family == "Ta2":     # the rejection branch ran
        assert len(tries) > 1200


def test_scalar_paths_call_no_numpy():
    # a numpy call on one Python float costs 1 to 14 us, math or a builtin
    # well under 1 us; a map is its four scalars, so _build_map needs none
    def numpy_calls(fn):
        return [ast.unparse(n.func) for n in ast.walk(
                    ast.parse(inspect.getsource(fn)))
                if isinstance(n, ast.Call)
                and ast.unparse(n.func).startswith(("np.", "numpy."))]
    for fn in (p.make_params, embedding._build_map, draw_free_params,
               embedding._classify_phi, p.verify_map):
        assert numpy_calls(fn) == [], fn.__name__


def test_solved_rows_pass_50_draws_per_family():
    rng = np.random.default_rng(12)
    for family in FAMILIES:
        count = 0
        while count < 50:
            par = random_params(rng)
            free = draw_free_params(family, rng, par)
            for branch in BRANCHES:
                m = p.solve_family(family, branch, free, par)
                v = p.verify_map(m)
                assert v.passes, (family, branch, free)
                assert v.residual_norm < 1e-12 * max(
                    1.0, max(abs(c) for c in v.phi1.coefficients + v.phi2.coefficients))
            count += 1


@pytest.mark.parametrize("w1, w2", [(1.0, 300.0), (1.0, 1e4), (1e-3, 1e3),
                                    (1.0, 1e7)])
def test_ta1_and_tb2_rows_verify_at_large_frequency_ratios(w1, w2):
    # Ta1 and Tb2 read w_n^2 = (alpha + rho_0)/2 and the other squared
    # frequency off the frequencies: formed as alpha -+ rho_0, they cancel,
    # and about half the rows failed verify_map from a ratio of 300 on
    par = p.make_params(w1, w2)
    rng = np.random.default_rng(14)
    for family in ("Ta1", "Tb2"):
        for _ in range(25):
            free = draw_free_params(family, rng, par)
            for branch in BRANCHES:
                m = p.solve_family(family, branch, free, par)
                assert p.verify_map(m).passes, (family, branch, free)


def test_singularity_flags_per_family():
    rng = np.random.default_rng(13)
    for _ in range(10):
        par = random_params(rng)
        fa = draw_free_params("Ta1", rng, par)
        assert p.solve_family("Ta1", +1, fa, par).singular
        fb = draw_free_params("Tb2", rng, par)
        assert p.solve_family("Tb2", -1, fb, par).singular
        f2 = draw_free_params("Ta2", rng, par)
        assert not p.solve_family("Ta2", +1, f2, par).singular
        f1 = draw_free_params("Tb1", rng, par)
        assert not p.solve_family("Tb1", +1, f1, par).singular


def test_rank_deficient_is_the_exact_verdict_on_extreme_maps():
    # the rule |det C| <= EPS_SINGULAR (|mu0 nu2| + |mu2 nu0|) in rational
    # arithmetic on the map's floats, against rank_deficient on maps whose
    # entries span 1e-300 to 1e300; the row scaling keeps every product
    # finite, and a Tb1 map whose rows differ by 1e267 keeps its mu2 nu0
    rng = np.random.default_rng(29)
    checked = 0
    for _ in range(1500):
        family = str(rng.choice(["Ta1", "Ta2", "Tb1", "Tb2"]))
        w = 10.0 ** rng.uniform(-24, 24)
        free = {k: float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-150, 150))
                for k in FREE_PARAMS[family]}
        try:
            m = p.solve_family(family, int(rng.choice(BRANCHES)), free,
                               p.make_params(w, 2.0 * w))
        except (PuoscError, ArithmeticError):
            continue
        t1, t2 = Fraction(m.mu0) * Fraction(m.nu2), Fraction(m.mu2) * Fraction(m.nu0)
        assert m.rank_deficient == (
            abs(t1 - t2) <= Fraction(1e-10) * (abs(t1) + abs(t2))), m
        checked += 1
    assert checked > 1000
    m = p.solve_family("Tb1", +1, {"a_x": -6.894619401653748e53,
                                   "b_x": -1.7850733641590704e-65,
                                   "g": -1.5901892544433946e-142},
                       p.make_params(6.947325262689798e35, 2 * 6.947325262689798e35))
    assert m.mu2 * m.nu0 > 1e231 and not m.rank_deficient


def test_verify_map_rank_deficiency_note():
    # x proportional to y cannot carry fourth-order dynamics
    model = p.TwoDimModel(1.0, 1.0, 1.0, 1.0, 0.0)
    from puosc.embedding import _build_map
    m = _build_map("Ta1", +1, 1.0, 0.0, 1.0, 0.0, model, PAR)
    v = p.verify_map(m)
    assert v.phi1.kind == "neither"
    assert m.rank_deficient


def _probe_phi_terms(m):
    # the terms read off by probing: each summand of phi_1 = a_x xdd + b_x x
    # + g y and of phi_2 = a_y ydd + b_y y + g x, composed with the map, at
    # each unit jet (q, qd, qdd, qddd, q4) less its value at the zero jet
    mod = m.model

    def summands(j5):
        q, qd, qdd, qddd, q4 = j5
        x = m.mu0 * q + m.mu2 * qdd
        y = m.nu0 * q + m.nu2 * qdd
        xdd = m.mu0 * qdd + m.mu2 * q4
        ydd = m.nu0 * qdd + m.nu2 * q4
        return ((mod.a_x * xdd, mod.b_x * x, mod.g * y),
                (mod.a_y * ydd, mod.b_y * y, mod.g * x))

    base = summands((0.0,) * 5)
    cols = [summands(tuple(float(i == k) for i in range(5))) for k in range(5)]
    return tuple(tuple(tuple(t - b for t, b in zip(col[i], base[i]))
                       for col in cols) for i in (0, 1))


# the verify pairs of the structure benchmark round at seed 101, then
# extreme and widely split frequencies, past the (300, 1000) at which a
# shared tolerance once stopped proportional verdicts
PHI_FREQUENCIES = [*STRUCTURE_101, (1e-3, 2e-3), (3e2, 1e3), (1e-3, 1e3),
                   (7e2, 3e-2), (1e6, 2e6), (1e10, 3e10), (1e-20, 2e-20)]


def _probe_terms_in_closed_form_shape(m):
    # x and y carry q and qdd, xdd and ydd carry qdd and q4: the q terms
    # are the x and y summands, the qdd terms all three, the q4 term the
    # xdd summand; every summand left out probes to exactly 0
    terms = []
    for q, _, qdd, _, q4 in _probe_phi_terms(m):
        assert q[0] == q4[1] == q4[2] == 0.0
        terms.append((q[1:], qdd, q4[:1]))
    return tuple(terms)


@pytest.mark.parametrize("w1, w2", PHI_FREQUENCIES)
def test_phi_coefficients_are_the_probe(w1, w2, monkeypatch):
    # the closed-form terms sum to the probed coefficients, term for term
    # they are the probed summands, and verify_map gives the same reports on
    # the probe's terms, for every family, branch and row set
    par = p.make_params(w1, w2)
    rng = np.random.default_rng(18)
    maps, seen = [], set()
    for family in FAMILIES:
        for _ in range(10):
            free = draw_free_params(family, rng, par)
            for branch in BRANCHES:
                for build in (p.solve_family, p.tabulated_family):
                    try:
                        maps.append(build(family, branch, free, par))
                    except (PuoscError, OverflowError):
                        continue
                    seen.add((family, branch, build.__name__))
    assert len(seen) == 16
    closed = [(embedding._phi_coefficients(m), p.verify_map(m))
              for m in maps]
    monkeypatch.setattr(embedding, "_phi_coefficients",
                        _probe_terms_in_closed_form_shape)
    kinds = set()
    for m, (terms, v) in zip(maps, closed):
        assert terms == _probe_terms_in_closed_form_shape(m)
        for phi_probe, r in zip(_probe_phi_terms(m), (v.phi1, v.phi2)):
            sums = tuple(functools.reduce(operator.add, t) for t in phi_probe)
            assert sums[1] == sums[3] == 0.0
            assert r.coefficients == sums
        w = p.verify_map(m)
        assert (v.passes, v.contract, v.residual_norm) == (
            w.passes, w.contract, w.residual_norm)
        for r, s in ((v.phi1, w.phi1), (v.phi2, w.phi2)):
            assert (r.kind, r.factor, r.coefficients, r.residual) == (
                s.kind, s.factor, s.coefficients, s.residual)
            kinds.add(r.kind)
    assert kinds == {"proportional", "zero", "neither"}


@pytest.mark.parametrize("branch", BRANCHES)
def test_tb1_map_verifies_at_every_decade(branch):
    # the map's free parameters are not balanced against the frequencies;
    # a tolerance shared by both phis failed it from (1000, 2000) on
    for e in range(-10, 41):
        par = p.make_params(10.0 ** e, 2 * 10.0 ** e)
        m = p.solve_family("Tb1", branch, {"a_x": 1.0, "b_x": 2.0, "g": 1.0},
                           par)
        v = p.verify_map(m)
        assert v.passes, (e, v)
        assert (v.phi1.kind, v.phi2.kind) == ("proportional", "zero")


def test_solved_maps_verify_at_every_scale():
    # frequencies and free parameters from 1e-30 to 1e30.  Each family's
    # admissible draws are carried by the model's exact scalings (time by
    # s: b and g take s^2; the Lagrangian by lam), and every family also
    # takes free parameters drawn one by one: Ta2's there include
    # a_x a_y < 0 with 4 g^2 / |a_x a_y| far above alpha^2, where a root
    # formed as (X + rho_g)/4 cancels
    rng = np.random.default_rng(40)
    checked = dict.fromkeys(FAMILIES, 0)
    for k in range(4000):
        family = FAMILIES[k % 4]
        r1, r2 = rng.uniform(0.1, 10.0, 2)
        s, lam = 10.0 ** rng.uniform(-30, 30, 2)
        if k % 8 < 4:
            base = draw_free_params(family, rng, p.make_params(r1, r2))
            free = {key: v * lam * (1.0 if key.startswith("a") else s * s)
                    for key, v in base.items()}
        else:
            free = {key: float(rng.choice([-1.0, 1.0])
                               * 10.0 ** rng.uniform(-30, 30))
                    for key in FREE_PARAMS[family]}
        try:
            m = p.solve_family(family, int(rng.choice(BRANCHES)), free,
                               p.make_params(r1 * s, r2 * s))
        except (PuoscError, ArithmeticError):
            continue
        assert p.verify_map(m).passes, m
        checked[family] += 1
    assert min(checked.values()) > 400, checked


def test_solved_ta2_root_that_cancels_verifies():
    # a_x a_y < 0 and 4 g^2 / |a_x a_y| far above alpha^2: X = alpha - 2t
    # and rho_g nearly cancel in one root, which then comes from the
    # product of the roots; the map passes, in floats and in exact arithmetic
    m = p.solve_family("Ta2", -1, {"a_x": 1.0, "a_y": -1.0, "g": 1e6}, PAR)
    v = p.verify_map(m)
    assert v.passes, v
    assert _exact_kind(m)[0] == ["proportional", "proportional"]


def _exact_kind(m):
    # the rule of _classify_phi in rational arithmetic on the map's floats,
    # with the smallest distance of a row's |sum t| / sum |t| from
    # EPS_ALGEBRA, as a factor
    mu0, mu2, nu0, nu2 = map(Fraction, (m.mu0, m.mu2, m.nu0, m.nu2))
    ax, ay, bx, by, g = map(Fraction, (m.model.a_x, m.model.a_y,
                                       m.model.b_x, m.model.b_y, m.model.g))
    al, be = Fraction(m.params.alpha), Fraction(m.params.beta)
    kinds, margin = [], math.inf
    for q, qdd, k in (((bx * mu0, g * nu0), (ax * mu0, bx * mu2, g * nu2),
                       ax * mu2),
                      ((by * nu0, g * mu0), (ay * nu0, by * nu2, g * mu2),
                       ay * nu2)):
        vanish = True
        for row in ((*q, -k * be), (*qdd, -k * al)):
            size = sum(map(abs, row))
            ratio = abs(sum(row)) / size if size else Fraction(0)
            vanish &= ratio <= Fraction(EPS_ALGEBRA)
            if ratio:
                margin = min(margin,
                             abs(math.log2(ratio / Fraction(EPS_ALGEBRA))))
        kinds.append(("proportional" if k else "zero") if vanish
                     else "neither")
    return kinds, margin


def test_verdicts_are_the_exact_rule_on_the_map():
    # random solved and tabulated maps of every family, frequencies and free
    # parameters from 1e-20 to 1e20: each phi's kind is the one the same
    # rule gives in exact arithmetic, except within a factor 2 of
    # EPS_ALGEBRA, where rounding may decide
    rng = np.random.default_rng(41)
    counts = collections.Counter()
    for k in range(3000):
        family = FAMILIES[k % 4]
        w1 = 10.0 ** rng.uniform(-20, 20)
        w2 = w1 * 10.0 ** rng.uniform(-1, 1)
        free = {key: float(rng.choice([-1.0, 1.0])
                           * 10.0 ** rng.uniform(-20, 20))
                for key in FREE_PARAMS[family]}
        build = (p.solve_family, p.tabulated_family)[k % 8 // 4]
        try:
            m = build(family, int(rng.choice(BRANCHES)), free,
                      p.make_params(w1, w2))
        except (PuoscError, ArithmeticError):
            continue
        kinds, margin = _exact_kind(m)
        if margin < 1.0:
            counts["skipped"] += 1
            continue
        v = p.verify_map(m)
        assert [v.phi1.kind, v.phi2.kind] == kinds, m
        counts.update(kinds)
    assert min(counts[k] for k in ("proportional", "zero", "neither")) > 100
    assert counts["skipped"] < 60, counts


def test_overflowed_phi_is_not_zero():
    # the tabulated Ta2 row at a_x = 1e-155: b_x mu0 overflows, and a
    # shared tolerance of inf read both phis as zero
    m = p.tabulated_family("Ta2", +1, {"a_x": 1e-155, "a_y": 3e-155,
                                       "g": 0.0}, PAR)
    v = p.verify_map(m)
    assert not math.isfinite(v.phi1.coefficients[0])
    assert (v.phi1.kind, v.phi2.kind) == ("neither", "neither")
    assert not v.passes


@pytest.mark.parametrize("branch", BRANCHES)
def test_wrong_tabulated_row_at_small_frequencies_fails(branch):
    # phi_2's q coefficient is all of its terms (1e-14 or 4e-14, exactly
    # nonzero); a tolerance floored at 1 passed the row
    par = p.make_params(1e-7, 2e-7)
    m = p.tabulated_family("Tb2", branch, {"a_x": 1.0, "b_y": 2.0, "g": 0.5},
                           par)
    v = p.verify_map(m)
    assert v.phi2.kind == "neither" and v.phi2.coefficients[0] > 0.0
    assert not v.passes
    assert p.verify_map(p.solve_family("Tb2", branch, {
        "a_x": 1.0, "b_y": 2.0, "g": 0.5}, par)).passes


# ---------------------------------------------------------------------------
# pushforward
# ---------------------------------------------------------------------------

def test_pushforward_tb1_example():
    m = p.solve_family("Tb1", +1, {"a_x": 1.0, "b_x": 2.0, "g": 1.0}, PAR)
    J = p.pushforward_poisson(m)
    expected = np.array([
        [0.0, 0.5, 0.0, -1.5],
        [-0.5, 0.0, 1.5, 0.0],
        [0.0, -1.5, 0.0, 5.5],
        [1.5, 0.0, -5.5, 0.0],
    ])
    assert np.allclose(J.j, expected, atol=1e-13)


def test_pushforward_component_closed_form():
    rng = np.random.default_rng(14)
    for _ in range(25):
        par = random_params(rng)
        for family in ("Ta2", "Tb1"):
            free = draw_free_params(family, rng, par)
            m = p.solve_family(family, +1, free, par)
            J = p.pushforward_poisson(m)
            det = m.transform_det
            pred = (m.nu2 ** 2 / m.model.a_x + m.mu2 ** 2 / m.model.a_y) / det ** 2
            assert qqdot_component(J) == pytest.approx(pred, rel=1e-9, abs=1e-12)


def test_pushforward_vanishing_only_for_opposite_signs():
    rng = np.random.default_rng(15)
    vanish_count = 0
    for _ in range(50):
        par = random_params(rng)
        family = ("Ta2", "Tb1")[int(rng.integers(2))]
        free = draw_free_params(family, rng, par)
        m = p.solve_family(family, +1, free, par)
        J = p.pushforward_poisson(m)
        if abs(qqdot_component(J)) < 1e-10:
            vanish_count += 1
            assert np.sign(m.model.a_x) != np.sign(m.model.a_y)
    # engineered vanishing case: Ta2 with a_y = -a_x
    m = p.solve_family("Ta2", +1, {"a_x": 1.0, "a_y": -1.0, "g": 0.3}, PAR)
    J = p.pushforward_poisson(m)
    assert abs(qqdot_component(J)) < 1e-12
    assert np.sign(m.model.a_x) != np.sign(m.model.a_y)


# mu0 nu2 and mu2 nu0 overflow in all three maps: det C was NaN; the first
# two are singular (det C = 0), the Ta2 map's det C is beyond the largest
# float
@pytest.mark.parametrize("family, free", [
    ("Ta1", {"a_x": 1e-155, "a_y": 3e-155, "g": 0.0}),
    ("Tb2", {"a_x": 1e-155, "b_y": 3e-155, "g": 1e-155}),
    ("Ta2", {"a_x": 1e-155, "a_y": 3e-155, "g": 0.0})])
@pytest.mark.parametrize("branch", BRANCHES)
def test_transform_det_is_the_scaled_determinant(family, free, branch):
    m = p.solve_family(family, branch, free, PAR)
    assert math.isnan(m.mu0 * m.nu2 - m.mu2 * m.nu0)
    exact = (Fraction(m.mu0) * Fraction(m.nu2)
             - Fraction(m.mu2) * Fraction(m.nu0))
    if abs(exact) > Fraction(sys.float_info.max):
        assert m.transform_det == (math.inf if exact > 0 else -math.inf)
        assert not m.singular
    else:
        assert m.transform_det == exact == 0 and m.singular
    # where the products are finite, the scaled form is the direct one
    rng = np.random.default_rng(42)
    for _ in range(50):
        par = random_params(rng)
        m = p.solve_family(family, branch,
                           draw_free_params(family, rng, par), par)
        assert m.transform_det == m.mu0 * m.nu2 - m.mu2 * m.nu0


def test_pushforward_singular_families_raise():
    m1 = p.solve_family("Ta1", +1, {"a_x": 1.0, "a_y": 2.0, "g": 1.0}, PAR)
    with pytest.raises(SingularMapError):
        p.pushforward_poisson(m1)
    m2 = p.solve_family("Tb2", +1, {"a_x": 1.0, "b_y": 1.0, "g": 0.5}, PAR)
    with pytest.raises(SingularMapError):
        p.pushforward_poisson(m2)


# the two regular maps are extreme: an absolute rank floor called the Ta2
# map singular, a singular-value gate refused the Tb1 one
@pytest.mark.parametrize("family, free, singular", [
    ("Ta2", {"a_x": 1e5, "a_y": 1e5, "g": 0.1}, False),
    ("Tb1", {"a_x": 1.0, "b_x": 2.0, "g": 1e-6}, False),
    ("Ta1", {"a_x": 1.0, "a_y": 2.0, "g": 1.0}, True),
    ("Tb2", {"a_x": 1.0, "b_y": 1.0, "g": 0.5}, True),
])
def test_pushforward_raises_exactly_when_singular(family, free, singular):
    rng = np.random.default_rng(31)
    draws = [free, *(draw_free_params(family, rng, PAR) for _ in range(10))]
    for free, branch in itertools.product(draws, BRANCHES):
        m = p.solve_family(family, branch, free, PAR)
        assert m.singular is singular, (free, branch)
        if singular:
            with pytest.raises(SingularMapError, match=f"^{family} map is "):
                p.pushforward_poisson(m)
        else:
            p.pushforward_poisson(m)


def _exact_pushforward_block(m):
    """C^-1 diag(1/a_x, 1/a_y) C^-T in rational arithmetic on the map's
    float entries."""
    mu0, mu2, nu0, nu2, ax, ay = map(Fraction, (
        m.mu0, m.mu2, m.nu0, m.nu2, m.model.a_x, m.model.a_y))
    det = mu0 * nu2 - mu2 * nu0
    inv = ((nu2 / det, -mu2 / det), (-nu0 / det, mu0 / det))
    return [[inv[i][0] * inv[j][0] / ax + inv[i][1] * inv[j][1] / ay
             for j in (0, 1)] for i in (0, 1)]


def _exact_rational_maps():
    # 50 random Ta2 and Tb1 maps, and a Ta2 map whose det C terms overflow
    # (mu0 nu2 and mu2 nu0 are inf) while its pushforward is about 1e-155
    rng = np.random.default_rng(1729)
    for k in range(50):
        par = random_params(rng)
        family = ("Ta2", "Tb1")[k % 2]
        free = draw_free_params(family, rng, par)
        yield p.solve_family(family, BRANCHES[k // 2 % 2], free, par)
    yield p.solve_family("Ta2", +1, {"a_x": 1e-155, "a_y": 3e-155, "g": 0.0},
                         PAR)


def test_pushforward_matches_exact_rationals():
    # rounding is amplified by cancellation where a_x a_y < 0 (an entry such
    # as (a_x mu0^2 + a_y nu0^2)/(a_x a_y det^2) nearly vanishes); at these
    # draws the worst error is below the bound
    for k, m in enumerate(_exact_rational_maps()):
        assert not m.rank_deficient
        J = p.pushforward_poisson(m).j
        # the block {(q, qdd), (qd, qddd)} and its negative, zeros elsewhere
        assert np.array_equal(J, -J.T)
        assert not J[0::2, 0::2].any() and not J[1::2, 1::2].any()
        exact = _exact_pushforward_block(m)
        err = max(abs(Fraction(J[2 * i, 2 * j + 1]) - exact[i][j])
                  for i in (0, 1) for j in (0, 1))
        assert err <= 2e-14 * max(abs(x) for row in exact for x in row), k


def test_pushforward_round_trip():
    m = p.solve_family("Tb1", +1, {"a_x": 1.0, "b_x": 2.0, "g": 1.0}, PAR)
    J = p.pushforward_poisson(m)
    # the 4x4 jacobian of (q, qd, qdd, qddd) -> (x, p_x, y, p_y)
    ax, ay = m.model.a_x, m.model.a_y
    jac = np.array([
        [m.mu0, 0.0, m.mu2, 0.0],
        [0.0, ax * m.mu0, 0.0, ax * m.mu2],
        [m.nu0, 0.0, m.nu2, 0.0],
        [0.0, ay * m.nu0, 0.0, ay * m.nu2],
    ])
    J_fo = jac @ J.j @ jac.T
    expected = np.array([
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ])
    assert np.allclose(J_fo, expected, atol=1e-13)


# ---------------------------------------------------------------------------
# pullback
# ---------------------------------------------------------------------------

def test_pullback_tb1_fitted_and_tabulated():
    m = p.solve_family("Tb1", +1, {"a_x": 1.0, "b_x": 2.0, "g": 1.0}, PAR)
    _, c1, c2, res = p.pullback_hamiltonian(m)
    t1, t2 = tabulated_blend_coefficients(m)
    assert res < 1e-12
    assert c1 == pytest.approx(-3.0, abs=1e-12)
    assert c2 == pytest.approx(4.0, abs=1e-12)
    assert t1 == pytest.approx(-3.0, abs=1e-14)
    assert t2 == pytest.approx(-1.0, abs=1e-14)


def test_pullback_blend_tensor_consistency():
    # blend_j at the fitted coefficients reproduces the pushforward tensor
    rng = np.random.default_rng(16)
    for _ in range(20):
        par = random_params(rng)
        family = ("Ta2", "Tb1")[int(rng.integers(2))]
        free = draw_free_params(family, rng, par)
        m = p.solve_family(family, +1, free, par)
        _, c1, c2, _ = p.pullback_hamiltonian(m)
        J_push = p.pushforward_poisson(m)
        J_blend = p.blend_j(par, c1, c2)
        scale = max(1.0, np.linalg.norm(J_push.j))
        assert np.allclose(J_blend.j, J_push.j, rtol=0, atol=1e-9 * scale)


TB1_FREE = {"a_x": 1.0, "b_x": 2.0, "g": 1.0}


def test_pullback_non_finite_hessian_is_a_numerical_failure(monkeypatch):
    # at (1e40, 2e40) the fit and its residual are finite: the residual's
    # norms are scaled before they square
    m = p.solve_family("Tb1", +1, TB1_FREE, p.make_params(1e40, 2e40))
    _, c1, c2, res = p.pullback_hamiltonian(m)
    assert np.isfinite([c1, c2]).all() and 0.0 <= res < 1e-10
    # at (1e60, 2e60) C^T B C overflows: named before the fit, with no
    # numpy warning first (the repo's filter makes one an error)
    for w in (1e60, 1e76):
        par = p.make_params(w, 2 * w)
        maps = [p.solve_family("Tb1", +1, TB1_FREE, par)]
        for family, build in itertools.product(("Ta1", "Ta2"),
                                               (p.solve_family,
                                                p.tabulated_family)):
            maps.append(build(family, +1,
                              {"a_x": 1.0, "a_y": 1.0, "g": 0.1}, par))
        for m in maps:
            with pytest.raises(ArithmeticError, match=(
                    "non-finite value in the pullback Hessian C\\^T B C, "
                    "C\\^T diag\\(a\\) C$")):
                p.pullback_hamiltonian(m)
    # the in-span gate must not let a residual that is not finite through
    m = p.solve_family("Tb1", +1, TB1_FREE, PAR)
    monkeypatch.setattr(embedding, "fit_blend",
                        lambda params, S: (0.0, 0.0, float("nan")))
    with pytest.raises(ArithmeticError, match="fit residual is not finite"):
        p.pullback_hamiltonian(m)


def test_pullback_with_infinite_h2_is_a_numerical_failure():
    # at (1e-78, 2e-78) the 1/beta entry of H2 overflows: the fit is NaN and
    # the residual check names it, with no numpy warning or LinAlgError.
    # The Ta1 map with a_y = -a_x pulls back to S_pull = 0 there, whose
    # NaN fit must not read as a residual of 0
    par = p.make_params(1e-78, 2e-78)
    assert p.h2(par).coeffs[3, 3] == np.inf
    for family, free in (("Tb1", TB1_FREE),
                         ("Ta1", {"a_x": 1.0, "a_y": 1.0, "g": 0.1}),
                         ("Ta1", {"a_x": -1.0, "a_y": 1.0, "g": 0.67})):
        m = p.solve_family(family, +1, free, par)
        with pytest.raises(ArithmeticError,
                           match="^pullback fit residual is not finite: nan$"):
            p.pullback_hamiltonian(m)


@pytest.mark.parametrize("w", [1.0, 1e4, 3e4, 1e5, 5.62e6, 1e10, 1e40])
def test_embed_fits_c2_at_large_frequencies(w, tmp_path):
    # on the raw columns lstsq dropped S2 (exit 3 at 1e4 and 3e4, c2 = 0
    # from 1e5); on norm-scaled columns it spread the q^2 entry's rounding
    # into c2 (4e-3 off at 5.62e6)
    out = tmp_path / "tb1.json"
    assert cli.main(["embed", "--family", "tb1", "--omega1", repr(w),
                     "--omega2", repr(2 * w), "--ax", "1", "--bx", "2",
                     "--g", "1", "--out", str(out)]) == 0
    pull = json.loads(out.read_text())["pullback"]
    beta = p.make_params(w, 2 * w).beta
    assert pull["fitted_c2"] == pytest.approx(beta, rel=1e-12)
    assert pull["fit_residual"] < 1e-15


def test_fit_blend_keeps_c2_across_scales():
    # every quarter decade of omega from 1e-75 to 1e50, the range where the
    # pullback Hessian of this Tb1 map is finite
    for e in range(-300, 201):
        par = p.make_params(10 ** (e / 4), 2 * 10 ** (e / 4))
        m = p.solve_family("Tb1", +1, TB1_FREE, par)
        _, _, c2, res = p.pullback_hamiltonian(m)
        assert c2 == pytest.approx(par.beta, rel=1e-12), e
        assert res < 1e-15, e


def test_sum_of_squares_overflow_warns_nothing():
    # an overflowing form (inf + -inf is NaN) is named before the observable
    # is built, the same under errstate(all="ignore") and under the
    # error::RuntimeWarning filter, with no bare numpy warning first
    par = p.make_params(1e60, 2e60)
    message = "^non-finite value in the sum-of-squares form$"
    with np.errstate(all="ignore"), pytest.raises(ArithmeticError,
                                                  match=message):
        p.sum_of_squares(par, 1.0, 0.5)
    with pytest.raises(ArithmeticError, match=message) as got:
        p.sum_of_squares(par, 1.0, 0.5)
    assert type(got.value) is ArithmeticError


@pytest.mark.parametrize("free, error, message", [
    # tau = b_x^2 - a_x b_x alpha + a_x^2 beta = 16 - 20 + 4
    ({"a_x": 1.0, "b_x": 4.0, "g": 0.5}, PreconditionViolatedError,
     "Tb1 needs tau != 0"),
    ({"a_x": 1e-300, "b_x": 1.0, "g": 1.0}, NoSolutionError,
     "Tb1 needs g a_x^2 != 0 (nu0 solves g a_x^2 nu0 = tau)"),
])
def test_tb1_rows_share_their_preconditions(free, error, message):
    for build in (p.solve_family, p.tabulated_family):
        with pytest.raises(error) as err:
            build("Tb1", +1, free, PAR)
        assert str(err.value) == message


class _StuckRng:
    """Every Tb1 draw is a_x = b_x = 1, where tau = 0 at (1, 2)."""

    def integers(self, n):
        return 1

    def uniform(self, low, high):
        return 1.0


# a pullback outside span{H1, H2}: C = I pulls the model Hamiltonian back
# to itself, whose (1, 3) entry is 0 and (0, 2) entry is g
_IDENTITY_MAP = embedding.TransformMap(
    "Ta2", +1, 1.0, 0.0, 0.0, 1.0,
    embedding.TwoDimModel(1.0, 1.0, 1.0, 1.0, 0.5), PAR)

# each guard's own error; deleting the guard lets the input through or
# fails it with another error
EMBEDDING_GUARDS = [
    ("model-a-x-zero", lambda: embedding.TwoDimModel(0.0, 1.0, 1.0, 1.0, 1.0),
     DegenerateModelError, "a_x must be nonzero"),
    ("need-bad-branch",
     lambda: p.solve_family("Ta1", 0, {"a_x": 1.0, "a_y": 1.0, "g": 0.1}, PAR),
     PreconditionViolatedError, "branch must be"),
    # tau = b_x^2 - a_x b_x alpha + a_x^2 beta = 16 - 20 + 4
    ("tabulated-tb1-tau-zero",
     lambda: p.tabulated_family("Tb1", +1,
                                {"a_x": 1.0, "b_x": 4.0, "g": 0.5}, PAR),
     PreconditionViolatedError, "tau != 0"),
    ("pullback-not-in-span", lambda: p.pullback_hamiltonian(_IDENTITY_MAP),
     NotInSpanError, "above tolerance"),
    ("draw-exhausted", lambda: draw_free_params("Tb1", _StuckRng(), PAR),
     NoSolutionError, "could not draw admissible parameters for Tb1"),
]


@pytest.mark.parametrize("call, error, message", [
    pytest.param(call, error, message, id=name)
    for name, call, error, message in EMBEDDING_GUARDS])
def test_embedding_guards(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_pullback_degenerate_tb2():
    m = p.solve_family("Tb2", +1, {"a_x": 1.0, "b_y": 1.0, "g": 0.5}, PAR)
    with pytest.raises(DegenerateModelError) as err:
        p.pullback_hamiltonian(m)
    assert str(err.value) == "a_y = 0: model Hamiltonian undefined"


def test_pullback_ta1_fits_despite_singular_transform():
    m = p.solve_family("Ta1", +1, {"a_x": 1.0, "a_y": 2.0, "g": 1.0}, PAR)
    _, c1, c2, res = p.pullback_hamiltonian(m)
    assert res < 1e-12
    assert c1 == pytest.approx(-1.5, abs=1e-12)
    assert c2 == pytest.approx(1.5, abs=1e-12)


@pytest.mark.parametrize("eps", [0.0, 1e-13, 1e-9, 1e-7, 1e-5])
def test_pullback_ta1_fits_where_its_hessian_cancels(eps):
    # with a_y = -a_x (1 + eps) the Ta1 pullback Hessian is eps of its
    # terms (0 at eps = 0): over its own norm the fit residual reads 0.59 to
    # 6e-12, rounding of the terms, which the gate at 1e-10 of |S_pull|
    # refused from eps = 1e-7 on.  Over the terms it is at most 3e-17, and
    # the blend is eps times a fixed pair
    par = p.make_params(1.1137278500593453, 1.5969508142278117)
    m = p.solve_family("Ta1", -1, {"a_x": -1.0, "a_y": 1.0 + eps, "g": 0.67},
                       par)
    _, c1, c2, res = p.pullback_hamiltonian(m)
    assert 0.0 <= res <= 3e-17
    assert c1 == pytest.approx(0.31010 * eps, rel=1e-4, abs=1e-16)
    assert c2 == pytest.approx(-0.79082 * eps, rel=1e-4, abs=1e-16)


def test_ghost_tradeoff_j1_preserving_maps():
    # pushforward equal to J1 forces an indefinite model Hamiltonian
    rng = np.random.default_rng(17)
    for _ in range(40):
        par = random_params(rng)
        ax = rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 2.0)
        g = rng.uniform(-0.5, 0.5)
        try:
            m = p.solve_family("Ta2", +1, {"a_x": ax, "a_y": -ax, "g": g}, par)
        except ComplexBranchError:
            continue
        S, c1, c2, _ = p.pullback_hamiltonian(m)
        # a_y = -a_x kills the dq^dqd block and the blend reduces to H1 alone
        assert abs(c2) < 1e-10 * max(1.0, abs(c1))
        eig = np.linalg.eigvalsh(S.coeffs)
        assert eig[0] < 0  # at least one negative eigenvalue


# ---------------------------------------------------------------------------
# sum of squares and positivity
# ---------------------------------------------------------------------------

def test_sos_reduces_to_h1_at_unit_ct():
    S = p.sum_of_squares(PAR, 1.0, 0.0)
    assert np.allclose(S.coeffs, p.h1(PAR).coeffs, atol=1e-13)


@pytest.mark.parametrize("fn", [p.sum_of_squares,
                                blend_coefficients_from_sos])
def test_sos_factor_overflow_is_not_a_singularity(fn):
    # ct1 w_i^2 - ct2 is about 1e320: an overflow, not a vanishing factor
    with pytest.raises(ArithmeticError, match=(
            r"^non-finite value in the sum-of-squares factors "
            r"ct1\*w_i\^2 - ct2$")) as got:
        fn(p.make_params(1e10, 2e10), 1e300, 1.0)
    assert type(got.value) is ArithmeticError


def test_sos_singular_coefficient():
    with pytest.raises(SingularCoefficientError):
        p.sum_of_squares(PAR, 1.0, 1.0)  # ct1 w1^2 - ct2 = 0


@pytest.mark.parametrize("w", [1e-3, 1.0, 1e60])
def test_blend_coefficients_from_sos_singular_on_the_rays(w):
    # the rays ct2 = ct1 w_i^2 of sum_of_squares, at every scale
    par = p.make_params(w, 2 * w)
    for ws in (par.omega1 ** 2, par.omega2 ** 2):
        for fn in (p.sum_of_squares, blend_coefficients_from_sos):
            with pytest.raises(SingularCoefficientError):
                fn(par, 1.0, ws)
            with pytest.raises(SingularCoefficientError):
                fn(par, -2.5, -2.5 * ws)
    # off the rays: beta / D * (ct1, -ct2) with D = (1 - 0.5)(4 - 0.5) at PAR
    assert blend_coefficients_from_sos(PAR, 1.0, 0.5) == pytest.approx(
        (4.0 / 1.75, -2.0 / 1.75), rel=1e-15)


def test_sos_always_fits_blend_span():
    rng = np.random.default_rng(18)
    for _ in range(50):
        par = random_params(rng)
        ct1, ct2 = rng.uniform(-2, 2, 2)
        try:
            S = p.sum_of_squares(par, ct1, ct2)
        except SingularCoefficientError:
            continue
        c1, c2, res = fit_blend(par, S.coeffs)
        assert res < 1e-10
        c1p, c2p = blend_coefficients_from_sos(par, ct1, ct2)
        assert c1 == pytest.approx(c1p, rel=1e-8, abs=1e-10)
        assert c2 == pytest.approx(c2p, rel=1e-8, abs=1e-10)


def test_positivity_examples():
    assert not p.positivity(PAR, p.h1(PAR)).positive_definite
    assert not p.positivity(PAR, p.h2(PAR)).positive_definite
    assert p.positivity(PAR, p.blend_h(PAR, -1.0, 2.0)).positive_definite
    zero = p.QuadraticObservable(np.zeros((4, 4)))
    assert not p.positivity(PAR, zero).positive_definite


def test_positivity_matches_inequality_on_grid():
    rng = np.random.default_rng(19)
    for _ in range(5):
        par = random_params(rng)
        vals = np.linspace(-3.0, 3.0, 50)
        w1s, w2s = par.omega1 ** 2, par.omega2 ** 2
        agree = total = 0
        for ct1 in vals:
            for ct2 in vals:
                if (abs(ct1 * w1s - ct2) < 1e-10 * max(1, abs(ct1) * w1s + abs(ct2))
                        or abs(ct1 * w2s - ct2) < 1e-10 * max(1, abs(ct1) * w2s + abs(ct2))):
                    continue
                try:
                    S = p.sum_of_squares(par, ct1, ct2)
                except SingularCoefficientError:
                    continue
                total += 1
                eig_pd = p.positivity(par, S).positive_definite
                ineq_pd = p.definiteness_inequality(par, ct1, ct2)
                agree += int(eig_pd == ineq_pd)
        assert total > 2000
        assert agree == total


# ---------------------------------------------------------------------------
# reconciliation report
# ---------------------------------------------------------------------------

def test_reconciliation_report_runs_and_flags():
    rep = p.reconciliation_report(PAR, n_draws=5, seed=123)
    assert set(rep["families"]) == set(FAMILIES)
    for family in FAMILIES:
        fam = rep["families"][family]
        assert fam["total_rows"] > 0
        for row in fam["rows"]:
            if isinstance(row.get("solved"), dict):
                assert row["solved_passes"]
    # the verbatim Ta1 and Tb1 rows are known-discrepant
    assert rep["families"]["Ta1"]["discrepant_tabulated_rows"] > 0
    assert rep["families"]["Tb1"]["discrepant_tabulated_rows"] > 0


def _loop_reconciliation_report(params, n_draws, seed):
    # the two-block body that one row builder replaced: the solved row,
    # then the tabulated row, each with its own try
    rng = np.random.default_rng(seed)
    report = {"omega1": params.omega1, "omega2": params.omega2,
              "n_draws": n_draws, "families": {}}
    skips = (ComplexBranchError, NoSolutionError, PreconditionViolatedError)
    for family in FAMILIES:
        rows = []
        discrepant = 0
        for _ in range(n_draws):
            free = draw_free_params(family, rng, params)
            for branch in BRANCHES:
                entry = {"free": free, "branch": branch}
                try:
                    solved = embedding.solve_family(family, branch, free,
                                                    params)
                    vs = p.verify_map(solved)
                    entry["solved"] = embedding._row_values(solved)
                    entry["solved_passes"] = vs.passes
                    entry["solved_residual"] = vs.residual_norm
                except skips as exc:
                    entry["solved"] = f"skipped: {exc}"
                    rows.append(entry)
                    continue
                try:
                    tab = p.tabulated_family(family, branch, free, params)
                    vt = p.verify_map(tab)
                    entry["tabulated"] = embedding._row_values(tab)
                    entry["tabulated_passes"] = vt.passes
                    entry["tabulated_residual"] = vt.residual_norm
                    entry["delta"] = {
                        k: entry["tabulated"][k] - entry["solved"][k]
                        for k in embedding._FIELDS
                    }
                    if not vt.passes:
                        discrepant += 1
                except skips as exc:
                    entry["tabulated"] = f"skipped: {exc}"
                rows.append(entry)
        report["families"][family] = {
            "rows": rows,
            "discrepant_tabulated_rows": discrepant,
            "total_rows": len(rows),
        }
    return report


@pytest.mark.parametrize("withhold", [False, True])
def test_reconciliation_report_is_the_two_block_loop(withhold, monkeypatch):
    # no drawn solved row is skipped at these pairs, so one run withholds
    # every solved "+" row to reach that branch too
    if withhold:
        solve = embedding.solve_family

        def solve_or_skip(family, branch, free, params):
            if branch > 0:
                raise NoSolutionError(f"{family} '+' row withheld")
            return solve(family, branch, free, params)
        monkeypatch.setattr(embedding, "solve_family", solve_or_skip)
    skipped = set()
    for w1, w2 in ((1.0, 2.0), (1e-5, 1e10), (1e40, 2e40)):
        par = p.make_params(w1, w2)
        for seed in (5, 101):
            rep = p.reconciliation_report(par, n_draws=5, seed=seed)
            ref = _loop_reconciliation_report(par, 5, seed)
            assert (json.dumps(rep, sort_keys=True)
                    == json.dumps(ref, sort_keys=True))
            skipped |= {(name, row[name].split()[1])
                        for fam in rep["families"].values()
                        for row in fam["rows"]
                        for name in ("solved", "tabulated")
                        if str(row.get(name)).startswith("skipped")}
    # the Tb2 underflow and the Tb1 tau^2 overflow skip tabulated rows
    assert {"Tb2", "non-finite"} <= {w for name, w in skipped
                                     if name == "tabulated"}
    assert any(name == "solved" for name, _ in skipped) == withhold


def test_tabulated_blend_coefficients_name_a_non_finite_coefficient():
    # c1 = (4 g - rho_g) / (2 a_x a_y) + ... = -3 / 6e-310 + ... overflows
    m = p.solve_family("Ta2", +1, {"a_x": 1e-155, "a_y": 3e-155, "g": 0.0},
                       PAR)
    with pytest.raises(NoSolutionError,
                       match="tabulated Ta2 blend coefficients: c1$"):
        tabulated_blend_coefficients(m)


def test_tabulated_blend_coefficients_all_families():
    rng = np.random.default_rng(20)
    for family in FAMILIES:
        free = draw_free_params(family, rng, PAR)
        m = p.solve_family(family, +1, free, PAR)
        bc = tabulated_blend_coefficients(m)
        assert len(bc) == 2
        assert all(isinstance(c, float) and np.isfinite(c) for c in bc)


def _structure_ta2_rows(seeds):
    """(omega1, omega2, branch, a_x, a_y, g) of every Ta2 embed call in the
    structure benchmark's rounds for the seeds."""
    import importlib.util
    from pathlib import Path
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", Path(__file__).parents[1] / "perfbench/inputs.py")
    inputs = sys.modules.setdefault(spec.name,
                                    importlib.util.module_from_spec(spec))
    spec.loader.exec_module(inputs)
    for seed in seeds:
        for call in inputs.make_round("structure", seed):
            flags = dict(zip(call.argv[1::2], call.argv[2::2]))
            if flags.get("--family") == "ta2":
                yield (*(float(flags[k]) for k in ("--omega1", "--omega2")),
                       1 if flags["--branch"] == "+" else -1,
                       *(float(flags[k]) for k in ("--ax", "--ay", "--g")))


def _ta2_errors(m, params, branch, ax, ay, g):
    """Relative errors of the solved Ta2 row's (mu0, nu0) and (b_x, b_y)
    against their 60-digit values."""
    from decimal import Decimal, localcontext
    with localcontext(prec=60):
        al, be, dx, dy, dg = map(Decimal, (params.alpha, params.beta,
                                           ax, ay, g))
        rg = branch * (al * al - 4 * be - 4 * dg * dg / (dx * dy)).sqrt()
        return [max(abs(float((Decimal(got) - exact) / exact))
                    for got, exact in pairs) for pairs in (
            ((m.mu0, (al - 2 * dg / dy + rg) / (4 * dx)),
             (m.nu0, (al - 2 * dg / dx - rg) / (4 * dy))),
            ((m.model.b_x, dx * (al - rg) / 2),
             (m.model.b_y, dy * (al + rg) / 2)))]


def test_ta2_roots_take_the_form_that_cancels_less():
    # each Ta2 root is (X + rho_g)/4 or the product form, whichever cancels
    # less: on the structure benchmark's 200 Ta2 rows (seeds 101-110) mu0
    # and nu0 are within 6.3e-15 of their 60-digit values (the product form
    # wherever |X + rho_g| < |X - rho_g| reached 8.9e-15), and every map
    # passes.  b_x and b_y are within 2.8e-15 (5.1e-15 when the smaller
    # root was formed as alpha -+ rho_g)
    rows = list(_structure_ta2_rows(range(101, 111)))
    worst = [0.0, 0.0]
    for w1, w2, branch, ax, ay, g in rows:
        params = p.make_params(w1, w2)
        m = p.solve_family("Ta2", branch, {"a_x": ax, "a_y": ay, "g": g},
                           params)
        assert p.verify_map(m).passes
        worst = np.maximum(worst, _ta2_errors(m, params, branch, ax, ay, g))
    assert len(rows) == 200
    assert worst[0] <= 6.3e-15 and worst[1] <= 2.8e-15, worst


@pytest.mark.parametrize("w1, w2", [(1, 300), (1, 1e3), (1, 1e4),
                                    (1e-3, 1e3), (1, 1e5)])
def test_ta2_rows_verify_at_large_frequency_ratios(w1, w2):
    # b_x/a_x and b_y/a_y are the roots (alpha -+ rho_g)/2: the larger is
    # formed with no cancellation and the other as the product of the roots
    # over it.  Formed as alpha -+ rho_g, the smaller cancelled, and 195 to
    # all 400 of these rows failed verify_map (b_x off by 2.5e-3 at
    # (1e-3, 1e3))
    par = p.make_params(w1, w2)
    rng = np.random.default_rng(5)
    worst = 0.0
    for i in range(400):
        free = draw_free_params("Ta2", rng, par)
        branch = BRANCHES[i % 2]
        m = p.solve_family("Ta2", branch, free, par)
        assert p.verify_map(m).passes, (free, branch)
        worst = max(worst, _ta2_errors(m, par, branch, *free.values())[1])
    assert worst <= 1.5e-14, worst
