"""CLI subcommands, exit codes, and output determinism."""

import argparse
import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from puosc import cli, core
from puosc.config import EPS_ALGEBRA
from puosc.embedding import FREE_PARAMS

FIG_FLAGS = ["--chart", "ostro", "--p1", "0.5", "--p2", "-0.5"]


def run(argv):
    return cli.main(argv)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_default_passes(tmp_path):
    out = tmp_path / "verify.json"
    assert run(["verify", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["passed"] is True
    assert rep["first_failure"] is None
    names = {c["name"] for c in rep["checks"]}
    assert "hamilton_identity" in names
    assert "invariant_tensors_interacting" in names
    assert rep["version"]
    assert rep["config"]["omega1"] == 1.0
    # the echoed coupling is the one the interacting check ran at
    check, = _suite_checks(rep, "invariant_tensors_interacting")
    assert rep["config"]["lam"] == check["detail"]["lambda"] == 0.1


def test_verify_degenerate_frequencies(tmp_path, capsys):
    # equal frequencies are a usage error, not a failed invariant: exit 1
    # is kept for "an invariant failed"
    out = tmp_path / "verify.json"
    assert run(["verify", "--omega1", "2", "--omega2", "2",
                "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: frequencies must be distinct\n"
    assert not out.exists()


def test_verify_interacting_dimension_reported(tmp_path):
    out = tmp_path / "verify.json"
    assert run(["verify", "--lambda", "0.1", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    check = next(c for c in rep["checks"]
                 if c["name"] == "invariant_tensors_interacting")
    assert check["detail"]["dimension"] == 1
    assert check["detail"]["lambda"] == 0.1


@pytest.mark.parametrize("kwargs", [
    {"lam": 0.0}, {"lam": -0.0}, {"lam": -1.0}, {"lam": float("nan")},
    {"seed": -1},
])
def test_invariant_suite_preconditions(kwargs):
    from puosc.errors import PreconditionViolatedError
    with pytest.raises(PreconditionViolatedError):
        cli.run_invariant_suite(core.make_params(1.0, 2.0), **kwargs)


# omega of the suite's draw at seed 349503, |A| = 8236
SEED_349503 = (9.450664502595535, 9.60169554945272)


def _suite_checks(report, *names):
    return [next(c for c in report["checks"] if c["name"] == n) for n in names]


def test_verify_commutant_checks_scale_with_the_flow(tmp_path):
    # seed 349503 draws omega = (9.45, 9.60), |A| = 8236: correct commutant
    # residuals of 1.1e-12 in absolute terms, 1.4e-16 relative to |A|
    out = tmp_path / "verify.json"
    assert run(["verify", "--seed", "349503", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    for check in _suite_checks(rep, "commutant_abelian", "generator_projection"):
        assert check["passed"]
        assert max(check["detail"].values()) < 1e-15


def test_verify_commutant_checks_reject_a_wrong_basis(monkeypatch):
    # at the seed-349503 draw (|A| = 8236) a commutant generator bent along
    # A^T fails each check once its absolute residual passes 1e-12 |A|, and
    # not before: both residuals are scaled by |A| exactly once
    from puosc import symmetry
    par = core.make_params(*SEED_349503)
    A = core.flow_matrix(par)
    bound = 1e-12 * float(np.linalg.norm(A))
    right = symmetry.commutant_basis(A)
    stack = symmetry._commutant_stack

    def bent_stack(As, c):
        # the stacked kernel, with each first generator bent as bent(c) is
        V, dims = stack(As)
        assert (dims == 4).all()
        V = V.copy()
        V[:, 12] += c * As.swapaxes(1, 2)
        return V, dims

    def bent(c):
        basis = right.copy()
        basis[0] += c * A.T
        return basis

    residuals = {
        "commutant_abelian": lambda c: symmetry.max_pairwise_commutator(bent(c)),
        "generator_projection": lambda c: max(
            symmetry.projection_residual(bent(c), xi)
            for xi in symmetry.known_generators(par)),
    }
    monkeypatch.setattr(cli, "_random_params", lambda rng, n: [par] * n)
    for name, residual in residuals.items():
        per_bend = residual(1e-9) / 1e-9     # linear in c at these sizes
        for factor in (0.5, 2.0):
            c = factor * bound / per_bend
            assert residual(c) == pytest.approx(factor * bound, rel=0.05)
            monkeypatch.setattr(symmetry, "_commutant_stack",
                                lambda As, c=c: bent_stack(As, c))
            check, = _suite_checks(cli.run_invariant_suite(par), name)
            assert check["passed"] is (factor < 1.0)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_free_bounded(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = run(["simulate", *FIG_FLAGS, "--t-end", "20",
                "--out", str(out)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["bounded"] is True
    assert summary["drift_h1"] < 1e-8
    text = out.read_text().splitlines()
    assert text[0].startswith("# puosc trajectory")
    assert any(line.startswith("# config:") for line in text[:3])
    assert text[3] == "t,q,qd,qdd,qddd,x1,x2,p1,p2,H1,H2,Hint"
    assert len(text) > 100


def test_simulate_escaping_run(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = run(["simulate", *FIG_FLAGS, "--lambda", "10", "--t-end", "200",
                "--tol", "1e-8", "--out", str(out)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["bounded"] is False
    assert summary["escape_time"] < 200.0


def test_simulate_summary_counts_the_run(tmp_path, capsys):
    # a trajectory-workload run: the summary carries the run's accepted and
    # rejected steps and its right-hand-side evaluations
    out = tmp_path / "traj.csv"
    assert run(["simulate", "--omega1", "1", "--omega2", "2",
                "--chart", "ostro", "--x1", "0", "--x2", "0", "--p1", "0.5",
                "--p2=-0.5", "--lambda", "5", "--tol", "1e-10",
                "--t-end", "200", "--sample-rate", "0.1", "--format", "csv",
                "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    n_steps, n_rejected = summary["n_steps"], summary["n_rejected"]
    assert n_steps > 2000 and n_rejected >= 0
    assert summary["n_rhs"] == 2 + 6 * (n_steps + n_rejected)


def test_simulate_sample_rate_zero_usage_error(tmp_path):
    assert run(["simulate", "--sample-rate", "0",
                "--out", str(tmp_path / "x.csv")]) == 2


def test_simulate_json_format(tmp_path):
    out = tmp_path / "traj.json"
    assert run(["simulate", *FIG_FLAGS, "--t-end", "5", "--format", "json",
                "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["t_end"] == 5.0
    assert len(payload["times"]) == len(payload["states"])


def test_simulate_deterministic(tmp_path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", *FIG_FLAGS, "--lambda", "0.5", "--t-end", "10",
            "--tol", "1e-9"]
    run([*args, "--out", str(out1)])
    first = capsys.readouterr().out
    run([*args, "--out", str(out2)])
    second = capsys.readouterr().out
    a, b = out1.read_text(), out2.read_text()
    # config echoes differ only through the output path
    assert a.replace(str(out1), "X") == b.replace(str(out2), "X")
    assert first.replace(str(out1), "X") == second.replace(str(out2), "X")


# ---------------------------------------------------------------------------
# embed
# ---------------------------------------------------------------------------

def test_embed_tb1_report(tmp_path):
    out = tmp_path / "embed.json"
    assert run(["embed", "--family", "tb1", "--ax", "1", "--bx", "2",
                "--g", "1", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["solved"]["verify"]["passes"] is True
    assert rep["tabulated"]["verify"]["passes"] is False
    assert rep["pullback"]["fitted_c1"] == pytest.approx(-3.0, abs=1e-10)
    assert rep["pullback"]["fitted_c2"] == pytest.approx(4.0, abs=1e-10)
    assert rep["pullback"]["tabulated_c1"] == pytest.approx(-3.0)
    assert rep["pullback"]["tabulated_c2"] == pytest.approx(-1.0)
    assert rep["singular_pushforward"] is False
    assert rep["qqdot_component"] != 0.0


def test_embed_ta1_singular_pushforward(tmp_path):
    out = tmp_path / "embed.json"
    assert run(["embed", "--family", "ta1", "--ax", "1", "--ay", "2",
                "--g", "1", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["singular_pushforward"] is True
    assert rep["solved"]["singular"] is True


# mu0 nu2 and mu2 nu0 overflow: the note read det C = nan; det C is formed
# on the row-scaled block and scaled back
@pytest.mark.parametrize("flags", [
    ["--family", "ta1", "--ax", "1e-155", "--ay", "3e-155", "--g", "0"],
    ["--family", "tb2", "--ax", "1e-155", "--by", "3e-155", "--g", "1e-155"],
])
def test_embed_singular_note_reads_a_finite_det(flags, tmp_path):
    out = tmp_path / "embed.json"
    assert run(["embed", *flags, "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["solved"]["singular"] is rep["singular_pushforward"] is True
    assert "(det C = 0.000e+00, a_y = " in rep["pushforward_note"]


# two extreme regular maps: an absolute rank floor called the first
# singular, a singular-value gate refused the second's pushforward
@pytest.mark.parametrize("flags", [
    ["--family", "ta2", "--ax", "1e5", "--ay", "1e5", "--g", "0.1"],
    ["--family", "tb1", "--ax", "1", "--bx", "2", "--g", "1e-6"],
])
def test_embed_regular_extremes_push_forward(flags, tmp_path):
    out = tmp_path / "embed.json"
    assert run(["embed", *flags, "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["solved"]["singular"] is rep["singular_pushforward"] is False
    assert np.isfinite(rep["pushforward"]).all()


def test_embed_singular_pullback_is_not_positive_definite(tmp_path):
    # a Ta1 pullback Hessian is singular in exact arithmetic; here both
    # rounded eigenvalues at the bottom are positive (2.8e-17, 5.6e-17)
    out = tmp_path / "embed.json"
    assert run(["embed", "--omega1", "1.347643987920152",
                "--omega2", "0.8109349411813733", "--family", "ta1",
                "--branch", "+", "--ax", "1.9563413842338238",
                "--ay", "1.1029923502064853", "--g", "0.17573573132458442",
                "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["solved"]["singular"] is True
    assert rep["pullback"]["positive_definite"] is False


def test_embed_tb2_degenerate(tmp_path):
    out = tmp_path / "embed.json"
    assert run(["embed", "--family", "tb2", "--ax", "1", "--by", "1",
                "--g", "0.5", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["solved"]["singular"] is rep["singular_pushforward"] is True
    assert rep["pullback"] == {"degenerate": True,
                               "note": "a_y = 0: model Hamiltonian undefined"}


def test_embed_ta2_non_finite_tabulated_pair(tmp_path):
    # the tabulated c1 = (4 g - rho_g) / (2 a_x a_y) + ... is about -5e309,
    # and the tabulated row's off-shell check overflows: both are reported
    # as unavailable, and the solved map keeps its fitted pair
    out = tmp_path / "embed.json"
    assert run(["embed", "--family", "ta2", "--ax", "1e-155", "--ay", "3e-155",
                "--g", "0", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    pull = rep["pullback"]
    assert pull["tabulated"] == ("unavailable: non-finite value in the "
                                 "tabulated Ta2 blend coefficients: c1")
    assert set(pull) == {"degenerate", "fitted_c1", "fitted_c2",
                         "fit_residual", "positive_definite", "eigenvalues",
                         "tabulated"}
    assert pull["positive_definite"] is True
    assert rep["tabulated"] == ("unavailable: non-finite value in the "
                                "tabulated row at verify.phi1.coefficients[0]")
    assert "delta" not in rep
    assert rep["solved"]["verify"]["passes"] is True


def test_embed_missing_parameter_usage_error():
    assert run(["embed", "--family", "tb1", "--ax", "1", "--g", "1"]) == 2


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def test_scan_degenerate_all_bounded(tmp_path):
    out = tmp_path / "scan.json"
    code = run(["scan", "--lambda-min", "0", "--lambda-max", "0",
                "--t-end", "20", *FIG_FLAGS, "--out", str(out)])
    assert code == 4
    rep = json.loads(out.read_text())
    assert rep["degenerate"] == "all-bounded"
    assert rep["grid"][0]["bounded"] is True


def test_scan_two_point_grid_classifies_lambda_max(tmp_path):
    # the grid is 0 and --lambda-max, so the transition cell is found
    out = tmp_path / "scan.json"
    code = run(["scan", *FIG_FLAGS, "--tol", "1e-8", "--t-end", "200",
                "--escape-radius", "1000", "--lambda-max", "10",
                "--grid-points", "2", "--bisect-iters", "2",
                "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert [(g["lam"], g["bounded"]) for g in rep["grid"]] == [
        (0.0, True), (10.0, False)]
    assert 0.0 < rep["lambda_star"] < 10.0


def test_scan_inverted_range_usage_error():
    assert run(["scan", "--lambda-min", "5", "--lambda-max", "1"]) == 2


def test_scan_finds_threshold_small(tmp_path):
    out = tmp_path / "scan.json"
    code = run(["scan", "--lambda-min", "5", "--lambda-max", "12",
                "--grid-points", "5", "--bisect-iters", "8",
                "--t-end", "120", "--tol", "1e-8", *FIG_FLAGS,
                "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert 5.0 < rep["lambda_star"] < 12.0
    assert rep["settings"]["t_end"] == 120.0
    flags = [g["bounded"] for g in rep["grid"]]
    assert flags[0] is True and flags[-1] is False
    assert rep["refine"]["runs"] == 8
    assert rep["refine"]["n_steps"] > 0
    assert set(rep["refine"]) == {"runs", "n_steps", "n_rejected"}


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

def test_modes_pure_mode(capsys):
    assert run(["modes", "--q0", "1", "--qdd0", "-1"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["a1"]["re"] == pytest.approx(0.5)
    assert rep["a2"]["abs"] == pytest.approx(0.0, abs=1e-14)
    assert rep["total"] == pytest.approx(-1.5)
    assert rep["total"] == pytest.approx(rep["h1"], abs=1e-12)


def test_modes_ostro_chart(capsys):
    assert run(["modes", *FIG_FLAGS]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["h1"] == pytest.approx(0.125)


# ---------------------------------------------------------------------------
# flag contract: each subcommand accepts only the flags it reads
# ---------------------------------------------------------------------------

FREQ = ["--omega1", "1.5", "--omega2", "0.5"]
STATE = ["--chart", "jet", "--q0", "1", "--qd0", "0", "--qdd0", "-1",
         "--qddd0", "0", "--x1", "0", "--x2", "0", "--p1", "0", "--p2", "0"]
INTEGRATOR = ["--t-end", "5", "--tol", "1e-9", "--escape-radius", "100"]
KEPT_FLAGS = {
    "verify": [*FREQ, "--lambda", "0.2", "--seed", "3", "--out", "o"],
    "simulate": [*FREQ, "--lambda", "0.2", *STATE, *INTEGRATOR,
                 "--sample-rate", "0.5", "--out", "o", "--format", "json"],
    "embed": [*FREQ, "--out", "o", "--family", "tb1", "--branch", "-",
              "--ax", "1", "--ay", "1", "--bx", "2", "--by", "1", "--g", "1"],
    "scan": [*FREQ, *STATE, *INTEGRATOR, "--out", "o", "--lambda-min", "1",
             "--lambda-max", "2", "--grid-points", "4", "--bisect-iters", "3"],
    "modes": [*FREQ, *STATE, "--out", "o"],
}


@pytest.mark.parametrize("argv", [
    ["embed", "--family", "tb1", "--q0", "1"],
    ["embed", "--family", "tb1", "--lambda", "1"],
    ["verify", "--t-end", "5"],
    ["verify", "--chart", "ostro"],
    ["modes", "--tol", "1e-9"],
    ["modes", "--lambda", "1"],
    ["scan", "--lambda", "3"],
    ["scan", "--seed", "1"],
    ["scan", "--format", "json"],
    ["simulate", "--seed", "1"],
    ["scan", "--sample-rate", "0.5"],
])
def test_subcommand_rejects_unread_flag(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    assert exc.value.code == 2
    # "unrecognized arguments", or "ambiguous option" for scan --lambda,
    # which abbreviates --lambda-min and --lambda-max
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(KEPT_FLAGS))
def test_subcommand_parses_kept_flags(command, monkeypatch):
    args = cli.build_parser().parse_args([command, *KEPT_FLAGS[command]])
    assert args.command == command
    assert args.omega1 == 1.5 and args.out == "o"
    # main runs the module's cmd_<command> as bound when it is called, so a
    # rebinding (a spy here, a tracer's wrapper elsewhere) is what runs
    calls = []
    monkeypatch.setattr(cli, f"cmd_{command}",
                        lambda parsed: calls.append(parsed) or 0)
    assert cli.main([command, *KEPT_FLAGS[command]]) == 0
    assert calls == [args]


@pytest.mark.parametrize("command", sorted(KEPT_FLAGS))
def test_main_reuses_one_parser_without_leaking_state(command, monkeypatch):
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)).choices[command]
    required = {"family": "tb1"} if command == "embed" else {}
    defaults = {a.dest: a.default for a in sub._actions
                if a.dest != "help"} | required

    def rebuilt():
        raise AssertionError("main rebuilt its parser")

    monkeypatch.setattr(cli, "build_parser", rebuilt)
    assert cli.main(["modes", "--q0", "1"]) == 0
    # every flag set, then a usage error, then no flag set, in one process
    seen = []
    monkeypatch.setattr(cli, f"cmd_{command}",
                        lambda parsed: seen.append(cli._config(parsed)) or 0)
    assert cli.main([command, *KEPT_FLAGS[command]]) == 0
    with pytest.raises(SystemExit) as exc:
        cli.main([command, *KEPT_FLAGS[command], "--nope", "1"])
    assert exc.value.code == 2
    unset = [command, *(f"--{k}={v}" for k, v in required.items())]
    assert cli.main(unset) == 0
    assert seen[0] != defaults and seen[1] == defaults


@pytest.mark.parametrize("command", sorted(KEPT_FLAGS))
def test_config_is_the_subcommands_flags(command):
    parser = cli.build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction)).choices[command]
    flags = [a for a in sub._actions if a.dest != "help"]
    # KEPT_FLAGS sets every flag of the subcommand
    assert all(set(a.option_strings) & set(KEPT_FLAGS[command]) for a in flags)
    args = parser.parse_args([command, *KEPT_FLAGS[command]])
    assert cli._config(args) == {a.dest: getattr(args, a.dest) for a in flags}
    # unset flags echo their defaults
    required = {"family": "tb1"} if command == "embed" else {}
    args = parser.parse_args(
        [command, *(f"--{k}={v}" for k, v in required.items())])
    assert cli._config(args) == {a.dest: a.default for a in flags} | required


def _float_flags():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return [(command, a.option_strings[0], a.dest)
            for command, sp in sorted(sub.choices.items())
            for a in sp._actions if a.type is cli._finite_float]


@pytest.mark.parametrize("command, flag, dest", _float_flags())
def test_float_flag_reads_a_separate_negative_exponent(command, flag, dest):
    required = ["--family", "tb1"] if command == "embed" else []
    args = cli.build_parser().parse_args([command, *required, flag, "-1e-05"])
    assert cli._config(args)[dest] == -1e-05


# ---------------------------------------------------------------------------
# exit-code contract: every rejected input exits with its code, no traceback
# ---------------------------------------------------------------------------

def exit_code(argv):
    """main's return value, or argparse's exit status for a rejected flag.

    Fails on an "internal error:" line: exit 3 also means a numerical or io
    failure, so a defect must not pass as one.
    """
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            return cli.main(argv)
    except SystemExit as exc:
        return exc.code
    finally:
        sys.stderr.write(err.getvalue())
        assert not err.getvalue().startswith("internal error:"), err.getvalue()


NEAR_SINGULAR = ["--omega1", "4.120375483143782",
                 "--omega2", "4.22334286248707"]
TB1 = ["embed", "--family", "tb1", "--ax", "1", "--bx", "2"]

# "{tmp}" is a writable directory, "{missing}" one that does not exist
EXIT_CASES = [
    # NaN and inf flags are usage errors before any command runs
    ("simulate-q0-nan",
     ["simulate", "--q0", "nan", "--out", "{tmp}/t.csv"], 2),
    ("simulate-t-end-nan",
     ["simulate", "--t-end", "nan", "--out", "{tmp}/t.csv"], 2),
    ("simulate-sample-rate-nan",
     ["simulate", "--sample-rate", "nan", "--out", "{tmp}/t.csv"], 2),
    ("scan-q0-nan",
     ["scan", "--q0", "nan", "--t-end", "1", "--out", "{tmp}/s.json"], 2),
    ("embed-g-nan", [*TB1, "--g", "nan", "--out", "{tmp}/e.json"], 2),
    ("embed-g-inf", [*TB1, "--g", "inf", "--out", "{tmp}/e.json"], 2),
    ("embed-g-negative-inf",
     [*TB1, "--g", "-inf", "--out", "{tmp}/e.json"], 2),
    # a negative value in exponent form is a value, not a flag
    ("embed-g-negative-exponent",
     [*TB1, "--g", "-7.46098001800366e-05", "--out", "{tmp}/e.json"], 0),
    # an --out path that cannot be written is an io error
    ("verify-unwritable-out", ["verify", "--out", "{missing}/v.json"], 3),
    ("embed-unwritable-out",
     [*TB1, "--g", "1", "--out", "{missing}/e.json"], 3),
    ("scan-unwritable-out",
     ["scan", "--lambda-min", "0", "--lambda-max", "0", "--t-end", "1",
      "--out", "{missing}/s.json"], 3),
    ("modes-unwritable-out", ["modes", "--out", "{missing}/m.json"], 3),
    # no silent substitution of the coupling or the scan grid
    ("simulate-negative-lambda",
     ["simulate", "--lambda", "-1", "--out", "{tmp}/t.csv"], 2),
    ("verify-negative-lambda",
     ["verify", "--lambda", "-5", "--out", "{tmp}/v.json"], 2),
    ("scan-grid-points-0",
     ["scan", "--grid-points", "0", "--t-end", "1", "--out", "{tmp}/s.json"],
     2),
    ("scan-grid-points-1",
     ["scan", "--grid-points", "1", "--t-end", "1", "--out", "{tmp}/s.json"],
     2),
    ("scan-negative-bisect-iters",
     ["scan", "--bisect-iters=-1", "--t-end", "1", "--out", "{tmp}/s.json"],
     2),
    ("verify-negative-seed", ["verify", "--seed=-1", "--out", "{tmp}/v.json"],
     2),
    ("verify-degenerate-negative-seed",
     ["verify", "--omega1", "2", "--omega2", "2", "--seed=-1",
      "--out", "{tmp}/v.json"], 2),
    # the interacting check needs a coupling; it is not replaced by another
    ("verify-zero-lambda",
     ["verify", "--lambda", "0", "--out", "{tmp}/v.json"], 2),
    # the sample grid is capped before it is allocated
    ("simulate-sample-grid-too-large",
     ["simulate", "--t-end=5.8e-15", "--sample-rate=2.2e-311",
      "--out", "{tmp}/t.csv"], 2),
    # escape radius inside the initial state
    ("simulate-escape-radius-below-z0",
     ["simulate", "--q0", "1", "--escape-radius", "0.5",
      "--out", "{tmp}/t.csv"], 2),
    # |z0| overflows a float: no default radius exists, a numerical failure
    ("simulate-z0-norm-overflows",
     ["simulate", "--q0", "1e155", "--t-end", "0.5",
      "--out", "{tmp}/t.csv"], 3),
    ("scan-z0-norm-overflows",
     ["scan", "--q0", "1e155", "--t-end", "0.5", "--out", "{tmp}/s.json"], 3),
    # a flag the family does not take
    ("embed-extra-family-flag",
     [*TB1, "--g", "1", "--ay", "1", "--out", "{tmp}/e.json"], 2),
    # a NaN or infinity in the output is a numerical failure, not JSON
    ("modes-non-finite-energy",
     ["modes", "--omega1=1.5", "--q0=4.4692693099808655e+153",
      "--out", "{tmp}/m.json"], 3),
    ("simulate-non-finite-drift",
     ["simulate", "--q0", "1e152", "--omega1", "1e4", "--t-end", "1e-20",
      "--out", "{tmp}/t.csv"], 3),
    # a Poisson bracket that overflows is a numerical failure, not a defect
    ("verify-bracket-overflows",
     ["verify", "--omega1", "1e75", "--omega2", "2e75",
      "--out", "{tmp}/v.json"], 3),
    # frequencies whose alpha or beta overflows: the line names the quantity
    ("verify-beta-overflows",
     ["verify", "--omega1", "1e154", "--omega2", "2e154",
      "--out", "{tmp}/v.json"], 3),
    ("verify-beta-power-overflows",
     ["verify", "--omega1", "1e80", "--omega2", "2e80",
      "--out", "{tmp}/v.json"], 3),
    ("modes-beta-power-overflows",
     ["modes", "--omega1", "1e80", "--omega2", "2e80",
      "--out", "{tmp}/m.json"], 3),
    # tau^2 of the tabulated Tb1 row overflows under the reconciliation
    # check: the row is skipped, and the suite gives its verdict
    ("verify-tau-power-overflows",
     ["verify", "--omega1", "1e40", "--omega2", "2e40",
      "--out", "{tmp}/v.json"], 1),
    # frequencies whose beta underflows to 0: the line names the quantity
    ("modes-beta-underflows",
     ["modes", "--omega1", "1e-200", "--omega2", "2e-200", "--q0", "1",
      "--out", "{tmp}/m.json"], 3),
    ("verify-beta-underflows",
     ["verify", "--omega1", "1e-100", "--omega2", "2e-100",
      "--out", "{tmp}/v.json"], 3),
    # the tabulated row's tau^2 overflow is reported as unavailable; the
    # solved map's pullback fit residual is finite, as no norm overflows
    ("embed-tau-power-overflows",
     ["embed", "--family", "tb1", "--omega1", "1e40", "--omega2", "2e40",
      "--ax", "1", "--bx", "2", "--g", "1", "--out", "{tmp}/e.json"], 0),
    # tau = -2e-206, so the tabulated row's tau^2 underflows to 0: it is
    # reported as unavailable, and the solved row, which divides by tau, holds
    ("embed-tau-square-underflows",
     ["embed", "--family", "tb1", "--ax", "1e-103", "--bx", "2e-103",
      "--g", "1", "--out", "{tmp}/e.json"], 0),
    # the tabulated Ta2 c1 is about -5e309 and the tabulated row's off-shell
    # check overflows: both are reported as unavailable, the solved map holds
    ("embed-tabulated-ta2-c1-overflows",
     ["embed", "--family", "ta2", "--ax", "1e-155", "--ay", "3e-155",
      "--g", "0", "--out", "{tmp}/e.json"], 0),
    # small frequencies generate the structure, and the suite gives its
    # verdict (blend_grid keeps no point)
    ("verify-small-frequencies-resolve-signs",
     ["verify", "--omega1", "1e-8", "--omega2", "2e-8",
      "--out", "{tmp}/v.json"], 1),
    # a subnormal beta makes 1/beta infinite in the table and in the derived
    # H2 alike: the comparison is not finite
    ("verify-beta-subnormal",
     ["verify", "--omega1", "1e-78", "--omega2", "2e-78",
      "--out", "{tmp}/v.json"], 3),
    # beta is finite, but the grid's c2 = 2 blend Hessian holds 2/beta = inf:
    # that point counts as singular, and the suite gives its verdict
    ("verify-blend-hessian-not-finite",
     ["verify", "--omega1", "1e-77", "--omega2", "1.01e-77",
      "--out", "{tmp}/v.json"], 1),
    # X4 = A^3 + alpha A overflows: the symmetry action names it
    ("verify-symmetry-action-overflows",
     ["verify", "--omega1", "1e60", "--omega2", "2e60",
      "--out", "{tmp}/v.json"], 3),
    # alpha^2 overflows a float power in rho_g's radicand: named in the line
    ("embed-ta2-alpha-square-overflows",
     ["embed", "--family", "ta2", "--omega1", "1e77", "--omega2", "1.3e77",
      "--ax", "1", "--ay", "1", "--g", "0.1", "--out", "{tmp}/e.json"], 3),
    # |a_i|^2 of a mode energy overflows: the line names the mode energy
    ("modes-mode-energy-power-overflows",
     ["modes", "--q0", "1e160", "--out", "{tmp}/m.json"], 3),
    ("modes-mode-energy-power-overflows-qddd0",
     ["modes", "--qddd0", "1e200", "--out", "{tmp}/m.json"], 3),
    # W'' = 3 lam q^2 is inf at the sample points: named before the SVD
    ("verify-jacobian-not-finite",
     ["verify", "--lambda", "1e308", "--out", "{tmp}/v.json"], 3),
    # any finite positive coupling collapses the invariant tensors to J1
    ("verify-tiny-coupling",
     ["verify", "--lambda", "1e-12", "--out", "{tmp}/v.json"], 0),
    ("verify-huge-coupling",
     ["verify", "--lambda", "1e150", "--out", "{tmp}/v.json"], 0),
    # the coupling grid is capped before it is allocated
    ("scan-grid-points-exceed-cap",
     ["scan", "--grid-points", "1000000000000", "--t-end", "1",
      "--out", "{tmp}/s.json"], 2),
    # the largest coupling: its grid is finite, and its runs underflow
    ("scan-lambda-max-largest-float",
     ["scan", "--q0", "1", "--t-end", "2", "--lambda-max",
      "1.7976931348623157e308", "--out", "{tmp}/s.json"], 3),
    # a float power of the grid overflows next to the largest float: named
    ("scan-grid-power-overflows",
     ["scan", "--q0", "1", "--t-end", "1",
      "--lambda-min", "1.797693134862314e+308",
      "--lambda-max", "1.7976931348623157e308", "--grid-points", "3",
      "--out", "{tmp}/s.json"], 3),
    # a denominator that underflows to 0 is named: the solved Tb1 row's
    # g a_x^2 fails the call, the tabulated Tb2 row's is reported unavailable
    ("embed-tb1-denominator-underflows",
     ["embed", "--family", "tb1", "--ax", "1e-300", "--bx", "1", "--g", "1",
      "--out", "{tmp}/e.json"], 3),
    ("embed-tabulated-tb2-denominator-underflows",
     ["embed", "--family", "tb2", "--ax", "1e-300", "--by", "1e-300",
      "--g", "1e-300", "--out", "{tmp}/e.json"], 0),
    # a nonzero state flag of the chart --chart does not read: the run would
    # echo a value it never used
    ("simulate-off-chart-flag",
     ["simulate", "--chart", "jet", "--q0", "1", "--p1", "0.5", "--t-end",
      "1", "--out", "{tmp}/t.csv"], 2),
    ("scan-off-chart-flag",
     ["scan", "--chart", "ostro", "--x1", "1", "--qd0", "0.5", "--t-end",
      "1", "--out", "{tmp}/s.json"], 2),
    ("modes-off-chart-flag",
     ["modes", "--chart", "ostro", "--q0", "3", "--p1", "0.5",
      "--out", "{tmp}/m.json"], 2),
    # a free parameter the family divides by is zero: a usage error
    ("embed-zero-free-parameter",
     ["embed", "--family", "ta2", "--ax", "0", "--ay", "1", "--g", "0.1",
      "--out", "{tmp}/e.json"], 2),
    # correct tensors near the singular blend rays pass the suite
    ("verify-near-singular-blend",
     ["verify", *NEAR_SINGULAR, "--out", "{tmp}/v.json"], 0),
]


@pytest.mark.parametrize("argv, code", [
    pytest.param(argv, code, id=name) for name, argv, code in EXIT_CASES])
def test_exit_code_contract(argv, code, tmp_path, capsys):
    argv = [a.format(tmp=tmp_path, missing=tmp_path / "missing")
            for a in argv]
    assert exit_code(argv) == code
    err = capsys.readouterr().err
    # a non-finite output value is named by its key path
    assert ("non-finite value in output" not in err
            or "non-finite value in output at " in err), err
    # an "error:" message (argparse's, or the exit table's "error" and "io
    # error" rows), or the "numerical failure" row's; exit_code fails on
    # the "internal error" row's.  A verdict (0 or 1) says nothing there.
    said = "error:" in err or err.startswith("numerical failure: ")
    assert said == (code not in (0, 1))
    assert "Traceback" not in err
    # a numerical failure names what failed, not a bare errno tuple such as
    # (34, 'Numerical result out of range') or Python's "float division by
    # zero"
    assert not err.startswith(("numerical failure: (",
                               "numerical failure: float division")), err
    # a rejected input writes no file
    assert code in (0, 1) or not any(tmp_path.iterdir())
    # one line: the exit table's, or argparse's error after its usage
    lines = err.splitlines()
    if lines and lines[0].startswith("usage: "):
        assert lines[-1].startswith("puosc "), err
        lines = lines[-1:]
    assert len(lines) == (code not in (0, 1)), err


def test_exit_code_messages(tmp_path, capsys):
    assert exit_code(["scan", "--lambda-min", "5", "--lambda-max", "1"]) == 2
    assert capsys.readouterr().err == (
        "error: lambda range must satisfy 0 <= lo <= hi\n")
    assert exit_code(["simulate", "--q0", "nan"]) == 2
    assert "invalid finite float value: 'nan'" in capsys.readouterr().err
    assert exit_code(["modes", "--out", str(tmp_path / "no" / "m")]) == 3
    assert capsys.readouterr().err.startswith("io error: ")
    assert exit_code([*TB1[:-2], "--g", "1"]) == 2
    assert capsys.readouterr().err == "error: Tb1 needs free parameter 'b_x'\n"
    assert exit_code(["simulate", "--chart", "jet", "--q0", "1", "--p1", "0.5",
                      "--t-end", "1", "--out", str(tmp_path / "t.csv")]) == 2
    assert capsys.readouterr().err == (
        "error: --p1 belongs to --chart ostro, but --chart is jet\n")
    assert exit_code(["scan", "--grid-points", "10001"]) == 2
    assert capsys.readouterr().err == (
        "error: grid_points must not exceed 10000\n")
    assert exit_code(["modes", "--q0", "1e160"]) == 3
    assert capsys.readouterr().err.startswith(
        "numerical failure: mode energy is not finite")
    assert exit_code(["verify", "--lambda", "1e308"]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: flow Jacobian is not finite at a sample point\n")
    assert exit_code(["embed", "--family", "tb1", "--ax", "1e-300",
                      "--bx", "1", "--g", "1"]) == 3
    assert capsys.readouterr().err == (
        "error: Tb1 needs g a_x^2 != 0 (nu0 solves g a_x^2 nu0 = tau)\n")
    assert exit_code(["embed", "--family", "ta2", "--ax", "0", "--ay", "1",
                      "--g", "0.1"]) == 2
    assert capsys.readouterr().err == "error: Ta2 needs a_x != 0\n"
    out = tmp_path / "e.json"
    assert exit_code(["embed", "--family", "tb2", "--ax", "1e-300", "--by",
                      "1e-300", "--g", "1e-300", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["tabulated"] == (
        "unavailable: Tb2 row underflows: a_x (alpha + rho_0) or "
        "a_x b_y (alpha + rho_0) is 0")
    assert exit_code(["verify", "--omega1", "1e-78", "--omega2", "2e-78"]) == 3
    assert capsys.readouterr().err.startswith(
        "numerical failure: non-finite value in output at "
        "checks[0].detail.h2_residual ")
    assert exit_code(["verify", "--omega1", "1e60", "--omega2", "2e60"]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: non-finite value in the symmetry action "
        "Xi^T S + S Xi\n")
    assert exit_code(["embed", "--family", "ta2", "--omega1", "1e77",
                      "--omega2", "1.3e77", "--ax", "1", "--ay", "1",
                      "--g", "0.1"]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: rho_g radicand is not finite: "
        "alpha^2 overflows\n")
    tb1 = ["embed", "--family", "tb1", "--ax", "1", "--bx", "2", "--g", "1"]
    out = tmp_path / "tb1.json"
    assert exit_code([*tb1, "--omega1", "1e40", "--omega2", "2e40",
                      "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["tabulated"].startswith(
        "unavailable: non-finite value in the tabulated Tb1 row: "
        "tau^2 overflows")
    assert 0.0 <= report["pullback"]["fit_residual"] < 1e-10
    assert exit_code([*tb1, "--omega1", "1e60", "--omega2", "2e60"]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: non-finite value in the pullback Hessian "
        "C^T B C, C^T diag(a) C\n")


@pytest.mark.parametrize("argv", [
    ["modes", "--omega1=1.5", "--q0=4.4692693099808655e+153"],
    ["simulate", "--q0", "1e152", "--omega1", "1e4", "--t-end", "1e-20"],
    ["verify", "--omega1", "1e75", "--omega2", "2e75"],
    ["verify", "--omega1", "1e-78", "--omega2", "2e-78"],
])
def test_non_finite_output_writes_nothing(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert exit_code([*argv, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("numerical failure: non-finite value")
    assert captured.out == ""
    assert not out.exists()


def test_unexpected_error_is_an_internal_error(monkeypatch, capsys):
    from puosc import dynamics

    def broken(*_):
        raise KeyError("a1")

    monkeypatch.setattr(dynamics, "mode_decompose", broken)
    assert cli.main(["modes", "--q0", "1"]) == 3
    assert capsys.readouterr().err == "internal error: KeyError: 'a1'\n"


def _blend_grid(params):
    report = cli.run_invariant_suite(params)
    return next(c for c in report["checks"] if c["name"] == "blend_grid")


def test_blend_grid_passes_near_singular_rays():
    params = core.make_params(float(NEAR_SINGULAR[1]), float(NEAR_SINGULAR[3]))
    check = _blend_grid(params)
    assert check["passed"]
    assert check["detail"]["max_residual"] < 1e-15


BLEND_GRID = [(float(c1), float(c2)) for c1 in np.linspace(-2, 2, 20)
              for c2 in np.linspace(-2, 2, 20)]


def test_blend_grid_rejects_tabulated_tensors(monkeypatch):
    # the check must still tell wrong tensors from right ones: the stacked
    # solve is replaced by the quoted closed form on the same grid
    from puosc.errors import SingularBlendError
    params = core.make_params(float(NEAR_SINGULAR[1]), float(NEAR_SINGULAR[3]))

    def tabulated_stack(A, S):
        assert len(S) == len(BLEND_GRID)
        J = np.zeros_like(S)
        valid = np.zeros(len(S), dtype=bool)
        for k, (c1, c2) in enumerate(BLEND_GRID):
            try:
                J[k] = core.blend_j_tabulated(params, c1, c2).j
                valid[k] = True
            except SingularBlendError:
                pass
        return J, valid, ~valid, np.zeros(len(S))

    monkeypatch.setattr(core, "_solve_stack", tabulated_stack)
    check = _blend_grid(params)
    assert check["detail"]["points"] > 300
    assert not check["passed"]
    assert check["detail"]["max_residual"] > 1e-3


# the verify pairs of the structure benchmark round at seed 101
STRUCTURE_101 = [
    (1.180747251012575, 0.5807904164130182),
    (0.4273154236932234, 0.7826856102264192),
    (1.1137278500593453, 1.5969508142278117),
    (1.347643987920152, 0.8109349411813733),
    (0.8108105047603087, 1.483574569656432),
    (0.6043844141654439, 1.3068185911263874),
    (1.2886614571656034, 1.0554301273389854),
    (0.5462849766287746, 1.2597967129781555),
    (1.8005948516043022, 0.7236549242737289),
    (1.7278695411243916, 1.4898523676711746),
]


def _pointwise_blend_j(params, c1, c2):
    # the per-matrix solve of one blend, with the library's gates; None
    # where there is no Poisson tensor
    S = c1 * core.h1(params).coeffs + c2 * core.h2(params).coeffs
    S = 0.5 * (S + S.T)
    sv = np.linalg.svd(S, compute_uv=False)
    if sv[-1] <= 1e-10 * max(sv[0], 1.0):
        return None, S
    J = core.flow_matrix(params) @ np.linalg.inv(S)
    if np.linalg.norm(0.5 * (J + J.T)) > 1e-12 * max(1.0, np.linalg.norm(J)):
        return None, S
    return 0.5 * (J - J.T), S


@pytest.mark.parametrize("w1, w2", [
    *STRUCTURE_101, (float(NEAR_SINGULAR[1]), float(NEAR_SINGULAR[3])),
    (1.0, 2.0)])
def test_blend_grid_stacked_solve_is_pointwise(w1, w2):
    params = core.make_params(w1, w2)
    A = core.flow_matrix(params)
    c1, c2 = np.array(BLEND_GRID).T
    J, valid, _, _ = core._solve_stack(A, core._blend_hessians(params, c1, c2))
    worst, points = 0.0, 0
    for k, (c1, c2) in enumerate(BLEND_GRID):
        ref, S = _pointwise_blend_j(params, c1, c2)
        assert valid[k] == (ref is not None)
        if ref is None:
            continue
        assert np.array_equal(J[k], ref)
        scale = max(1.0, float(np.linalg.norm(ref) * np.linalg.norm(S)))
        worst = max(worst, float(np.linalg.norm(ref @ S - A)) / scale)
        points += 1
    assert _blend_grid(params)["detail"] == {"max_residual": worst,
                                             "points": points}


def test_invariant_suite_calls_no_pointwise_blend(monkeypatch):
    calls = []
    for name in ("blend_j", "blend_h"):
        def counted(*args, fn=getattr(core, name), name=name):
            calls.append(name)
            return fn(*args)
        monkeypatch.setattr(core, name, counted)
    assert cli.run_invariant_suite(core.make_params(1.0, 2.0))["passed"]
    assert calls == []


def _pointwise_commutant(A, candidates):
    # the per-draw commutant section: one SVD, pairwise commutators of the
    # unit generators and one lstsq projection per candidate
    K = np.kron(np.eye(4), A.T) - np.kron(A, np.eye(4))
    _, sv, vt = np.linalg.svd(K)
    rows = vt[sv <= 1e-10 * max(sv[0], 1.0)] if sv[0] > 0 else vt
    gens = [row.reshape(4, 4) for row in rows]
    unit = [g / np.linalg.norm(g) if np.linalg.norm(g) > 0 else g
            for g in gens]
    comm = 0.0
    for X, Y in itertools.combinations(unit, 2):
        comm = max(comm, float(np.linalg.norm(X @ Y - Y @ X)))
    B = np.stack([g.ravel() for g in gens], axis=1)
    proj = 0.0
    for x in candidates:
        coef, *_ = np.linalg.lstsq(B, x.ravel(), rcond=None)
        proj = max(proj, float(np.linalg.norm(x.ravel() - B @ coef)
                               / max(np.linalg.norm(x), 1.0)))
    return gens, comm, proj


# the span residuals are rounding noise of a 16-entry projection; the
# stacked SVD and lstsq round differently, by up to 3e-16 on these inputs
SPAN_ATOL = 16 * np.finfo(float).eps


def test_stacked_commutant_section_is_pointwise():
    from puosc import symmetry
    # None is the zero matrix, whose commutant is every 4x4 matrix; its
    # candidates are the (1, 2) generators
    pairs = [*STRUCTURE_101[:5], None, *STRUCTURE_101[5:], SEED_349503]
    As, candidates = [], []
    for w in pairs:
        par = core.make_params(*(w or (1.0, 2.0)))
        As.append(core.flow_matrix(par) if w else np.zeros((4, 4)))
        candidates.append(symmetry.known_generators(par))
    As, candidates = np.array(As), np.array(candidates)
    V, dims = symmetry._commutant_stack(As)
    got = symmetry._commutant_checks(As, candidates)
    assert dims.tolist() == got[0].tolist() == [4] * 5 + [16] + [4] * 6
    for i, (A, C) in enumerate(zip(As, candidates)):
        gens, comm, proj = _pointwise_commutant(A, C)
        assert np.array_equal(V[i, 16 - dims[i]:], gens)
        assert (symmetry.commutant_basis(A).tobytes()
                == np.array(gens).tobytes())
        assert got[1][i] == comm
        assert abs(got[2][i] - proj) <= SPAN_ATOL
    # and the suite's report is the loop's over the suite's 50 draws
    params = core.make_params(1.0, 2.0)
    rng = np.random.default_rng(cli.DEFAULT_SEED)
    draws = cli._random_params(rng, 100)[:50]
    dims, comm, proj = set(), 0.0, 0.0
    for par in draws:
        A = core.flow_matrix(par)
        gens, c, r = _pointwise_commutant(
            A, symmetry.known_generators(par))
        scale = max(1.0, float(np.linalg.norm(A)))
        dims.add(len(gens))
        comm, proj = max(comm, c / scale), max(proj, r / scale)
    report = cli.run_invariant_suite(params)
    dim, abelian, projection = _suite_checks(
        report, "commutant_dimension", "commutant_abelian",
        "generator_projection")
    assert dim["detail"]["dimensions"] == sorted(dims) == [4]
    assert abelian["detail"]["max_commutator"] == comm
    assert abs(projection["detail"]["max_residual"] - proj) <= SPAN_ATOL


def _random_pair_at_a_time(rng):
    # reference: one pair per uniform call, redrawn until it is separated
    while True:
        w1, w2 = rng.uniform(0.1, 10.0, 2)
        if abs(w1 - w2) > 0.05:
            return core.make_params(w1, w2)


@pytest.mark.parametrize("seed", [cli.DEFAULT_SEED, 3, 349503])
@pytest.mark.parametrize("n", [1, 37, cli.SUITE_DRAWS])
def test_random_params_is_the_pair_at_a_time_stream(seed, n):
    # seed 3's stream rejects its 37th and a later pair, so n = 37 needs a
    # second pass; equal params and an equal next draw mean equal streams
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = cli._random_params(rng, n)
    ref = [_random_pair_at_a_time(ref_rng) for _ in range(n)]
    assert got == ref
    assert all(type(f) is float for par in got for f in vars(par).values())
    assert rng.uniform() == ref_rng.uniform()


def test_random_params_stream_has_rejections():
    # the seed above whose stream holds rejected pairs, counted
    rng = np.random.default_rng(3)
    pairs = rng.uniform(0.1, 10.0, (cli.SUITE_DRAWS + 2, 2))
    rejected = np.flatnonzero(np.abs(pairs[:, 0] - pairs[:, 1]) <= 0.05)
    assert rejected.tolist()[0] == 36 and len(rejected) == 2


def test_invariant_suite_calls_no_pointwise_commutant(monkeypatch):
    # the two invariant-tensor checks project J1 and J2 once each; the 50
    # draws' commutant section calls none of these per draw
    from puosc import symmetry
    calls = []
    for name in ("commutant_basis", "projection_residual",
                 "max_pairwise_commutator"):
        def counted(*args, fn=getattr(symmetry, name), name=name):
            calls.append(name)
            return fn(*args)
        monkeypatch.setattr(symmetry, name, counted)
    assert cli.run_invariant_suite(core.make_params(1.0, 2.0))["passed"]
    assert calls == ["projection_residual"] * 4


def test_invariant_suite_builds_no_per_draw_matrices(monkeypatch):
    # the draws' matrices come from the stacked builders; the single-params
    # builders see only the suite's own params
    from puosc import symmetry
    params = core.make_params(1.0, 2.0)
    calls = []
    for module, name in ((core, "flow_matrix"), (core, "h1"), (core, "h2"),
                         (core, "j1"), (core, "j2"),
                         (symmetry, "known_generators")):
        def counted(par, *args, fn=getattr(module, name), name=name,
                    **kwargs):
            calls.append((name, par))
            return fn(par, *args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    assert cli.run_invariant_suite(params)["passed"]
    assert calls and all(par is params for _, par in calls)


def test_symmetry_actions_rejects_an_inexact_euler_charge(monkeypatch):
    # X2 = I/2 makes X2(H1) = H1 exact; a charge 1e-9 off (relative) fails
    from puosc import symmetry
    charges = symmetry.symmetry_charges

    def scaled(params):
        out = charges(params)
        out[1] *= 1 + 1e-9
        return out

    params = core.make_params(1.0, 2.0)
    check, = _suite_checks(cli.run_invariant_suite(params), "symmetry_actions")
    assert check["passed"]
    monkeypatch.setattr(symmetry, "symmetry_charges", scaled)
    check, = _suite_checks(cli.run_invariant_suite(params), "symmetry_actions")
    assert not check["passed"]


@pytest.mark.parametrize("w1, w2", [(1e40, 2e40), (1e44, 2e44),
                                    (1e45, 2e45), (1e-78, 2e-78)])
def test_invariant_suite_at_extreme_frequencies_warns_nothing(w1, w2):
    # under the error::RuntimeWarning filter the suite returns the report of
    # main's errstate(all="ignore") path, not a bare numpy warning
    params = core.make_params(w1, w2)
    report = cli.run_invariant_suite(params)
    with np.errstate(all="ignore"):
        expected = cli.run_invariant_suite(params)
    assert json.dumps(report) == json.dumps(expected)
    assert report["passed"] is False


@pytest.mark.parametrize("w1, w2", [(1e44, 2e44), (1e45, 2e45)])
def test_verify_where_squares_overflow_is_a_verdict(w1, w2, tmp_path,
                                                    capsys):
    # every residual's norm is scaled before it squares, so the report is
    # finite where |J2|^2 overflows (4e180 is J2's largest entry at 1e45)
    out = tmp_path / "v.json"
    assert exit_code(["verify", "--omega1", str(w1), "--omega2", str(w2),
                      "--out", str(out)]) == 1
    assert capsys.readouterr().err == ""
    report = json.loads(out.read_text(), parse_constant=pytest.fail)
    assert report["first_failure"] == "blend_grid"
    check, = _suite_checks(report, "invariant_tensors_free")
    assert check["detail"]["dimension"] == 4
    assert max(check["detail"]["j1_residual"],
               check["detail"]["j2_residual"]) < 1e-10
    check, = _suite_checks(report, "symmetry_actions")
    assert check["passed"]


def test_invariant_suite_names_the_symmetry_action_overflow():
    with pytest.raises(ArithmeticError,
                       match="non-finite value in the symmetry action"):
        cli.run_invariant_suite(core.make_params(1e60, 2e60))


def test_verify_at_large_frequencies_is_a_verdict(tmp_path, capsys):
    # the generated structure is compared with no absolute floor, so the
    # order-1 dq^dqd block still counts next to beta = 4e12
    out = tmp_path / "v.json"
    assert exit_code(["verify", "--omega1", "1000", "--omega2", "2000",
                      "--out", str(out)]) == 1
    assert capsys.readouterr().err == ""
    report = json.loads(out.read_text())
    check = report["checks"][0]
    assert check["name"] == "symmetry_generated_structure"
    assert check["passed"]
    assert max(check["detail"].values()) <= EPS_ALGEBRA
    # every solved map verifies: each phi is judged on its own terms, so a
    # tolerance shared by both phis no longer fails them from beta = 4e12
    for report in (report, cli.run_invariant_suite(
            core.make_params(1e40, 2e40))):
        check, = _suite_checks(report, "embedding_reconciliation")
        assert check["passed"]


@pytest.mark.parametrize("name, entries", [
    pytest.param("j2", [(0, 1), (1, 0)], id="j2-dq-dqd-block"),
    pytest.param("h2", [(2, 2)], id="h2-qdd-square")])
@pytest.mark.parametrize("w1, w2", [(1.0, 2.0), (1000.0, 2000.0),
                                    (1e-8, 2e-8)])
def test_generated_structure_rejects_a_flipped_sign(name, entries, w1, w2,
                                                    monkeypatch):
    # a table whose dq^dqd block or qdd^2 term has the other sign is not
    # the structure X3 generates, at any beta
    params = core.make_params(w1, w2)
    check, = _suite_checks(cli.run_invariant_suite(params),
                           "symmetry_generated_structure")
    assert check["passed"]
    table = getattr(core, name)

    def flipped(par):
        t = table(par)
        M = np.array(t.j if name == "j2" else t.coeffs)
        for ij in entries:
            M[ij] = -M[ij]
        return type(t)(M)

    monkeypatch.setattr(core, name, flipped)
    check, = _suite_checks(cli.run_invariant_suite(params),
                           "symmetry_generated_structure")
    assert not check["passed"]
    assert check["detail"][f"{name}_residual"] == 2.0


# ---------------------------------------------------------------------------
# property: no argument values make main raise or exit outside {0, 2, 3, 4}
# ---------------------------------------------------------------------------

SPECIAL = st.sampled_from(["nan", "inf", "-inf", "0", "-0.0", "-1"])
WIDE = st.floats(allow_nan=False, allow_infinity=False)


def _value(typical, *finite):
    """A flag value: three times in four a typical float, else any other
    given finite float, or NaN, inf, zero or a negative."""
    rare = st.one_of(*(f.map(repr) for f in finite), SPECIAL)
    return st.integers(0, 3).flatmap(
        lambda i: typical.map(repr) if i else rare)


def _argv(command, fixed=(), required=None, **optional):
    """`command` and `fixed`, then every `required` flag and any subset of
    the `optional` ones, each as `--flag=value`."""
    def flags(d):
        return {f"--{k.replace('_', '-')}": v for k, v in d.items()}

    return st.fixed_dictionaries(flags(required or {}),
                                 optional=flags(optional)).map(
        lambda d: [command, *fixed, *(f"{k}={v}" for k, v in d.items())])


STATE_FLAGS = ("q0", "qd0", "qdd0", "qddd0", "x1", "x2", "p1", "p2")
STATE = {k: _value(st.floats(-2.0, 2.0), WIDE) for k in STATE_FLAGS}
COUPLING = _value(st.floats(0.0, 20.0), WIDE)
# Cost bounds, not validity bounds: the step count grows with omega and
# t_end, and every simulate sample time ends a step (up to
# dynamics.MAX_SAMPLES of them), so tiny sample rates are left out.
OMEGA = _value(st.floats(0.1, 5.0), st.floats(max_value=5.0))
INTEGRATOR = {
    "omega1": OMEGA,
    "omega2": OMEGA,
    "tol": _value(st.floats(1e-10, 1e-3), WIDE),
    "escape_radius": _value(st.floats(0.0, 1e4), WIDE),
}
SAMPLE_RATE = _value(st.floats(0.01, 1.0), st.floats(max_value=0.0),
                     st.floats(min_value=0.01))
T_END = {"t_end": _value(st.floats(0.0, 2.0), st.floats(max_value=2.0))}
CHART = st.sampled_from([("--chart", "jet"), ("--chart", "ostro")])
FREQ = _value(st.floats(0.1, 5.0), WIDE)
# embed and modes run no integrator, so extreme values are cheap to try
EMBED = _value(WIDE, st.floats(-3.0, 3.0))


def _embed(family, branch):
    # the family's own flags always, any of the others as extras
    keys = [k.replace("_", "") for k in FREE_PARAMS[family]]
    extras = [k for k in ("ax", "ay", "bx", "by", "g") if k not in keys]
    return _argv("embed", ("--family", family.lower(), "--branch", branch),
                 required={k: EMBED for k in keys}, omega1=FREQ, omega2=FREQ,
                 **{k: EMBED for k in extras})


# scan draws that bracket a transition, so that scan exits 0 and its echo is
# checked: a kicked state, a short horizon, couplings up to 1e4
SCAN_TRANSITION = _argv(
    "scan", ("--chart", "jet", "--lambda-min=0", "--lambda-max=1e4"),
    required={"q0": st.floats(0.5, 1.5).map(repr),
              "qd0": st.floats(-1.0, 1.0).map(repr),
              "t_end": st.floats(1.0, 3.0).map(repr),
              "grid_points": st.integers(3, 5).map(str),
              "bisect_iters": st.integers(0, 3).map(str)},
    tol=st.floats(1e-8, 1e-6).map(repr))

ARGV = st.one_of(
    SCAN_TRANSITION,
    CHART.flatmap(lambda chart: _argv(
        "simulate", chart, required=T_END, **{"lambda": COUPLING}, **STATE,
        **INTEGRATOR, sample_rate=SAMPLE_RATE)),
    CHART.flatmap(lambda chart: _argv(
        "scan", chart, required={
            **T_END, "grid_points": st.integers(-1, 4).map(str),
            "bisect_iters": st.integers(-1, 2).map(str)},
        lambda_min=COUPLING, lambda_max=COUPLING, **STATE, **INTEGRATOR)),
    st.tuples(st.sampled_from(sorted(FREE_PARAMS)),
              st.sampled_from("+-")).flatmap(lambda fb: _embed(*fb)),
    CHART.flatmap(lambda chart: _argv(
        "modes", chart, omega1=FREQ, omega2=FREQ,
        **{k: EMBED for k in STATE_FLAGS})),
)


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("property")


def _drawn_config(argv):
    """Config key -> flag text, for every flag in argv: `--flag=value` or
    `--flag value`; `--lambda` is stored as `lam`."""
    items = iter(argv[1:])
    drawn = {}
    for item in items:
        flag, eq, value = item.partition("=")
        name = flag[2:].replace("-", "_")
        value = value if eq else next(items)
        drawn["lam" if name == "lambda" else name] = value
    return drawn


def _echoed_config(out):
    if out.suffix == ".csv":
        line = next(li for li in out.read_text().splitlines()
                    if li.startswith("# config: "))
        return json.loads(line[len("# config: "):])
    return json.loads(out.read_text())["config"]


# six draw families, about 60 draws each
@settings(derandomize=True, deadline=None, database=None, max_examples=360)
@given(argv=ARGV)
def test_main_exit_code_property(argv, out_dir):
    out = out_dir / ("out.csv" if argv[0] == "simulate" else "out.json")
    code = exit_code([*argv, "--out", str(out)])
    assert code in (0, 2, 3, 4)
    if code == 0:
        # no silent substitution: the output echoes every value it was given
        echoed = _echoed_config(out)
        drawn = _drawn_config(argv)
        for name, value in drawn.items():
            assert echoed[name] == type(echoed[name])(value), name
        # and it read every state flag it echoes: another chart's is 0
        if "chart" in drawn:
            jet = drawn["chart"] == "jet"
            other = STATE_FLAGS[4:] if jet else STATE_FLAGS[:4]
            assert all(float(drawn[k]) == 0.0 for k in other if k in drawn)


def test_scan_transition_draws_exit_zero(out_dir):
    # the property test's scan echo check is reached: some draw of the
    # transition family exits 0
    out = out_dir / "transition.json"
    argv = find(SCAN_TRANSITION,
                lambda argv: exit_code([*argv, "--out", str(out)]) == 0,
                settings=settings(derandomize=True, database=None,
                                  max_examples=20,
                                  phases=[Phase.generate]))
    assert argv[0] == "scan"


# ---------------------------------------------------------------------------
# start-up: fresh processes
# ---------------------------------------------------------------------------

SRC = str(Path(cli.__file__).resolve().parents[1])
SMALL_SCAN = ["scan", "--q0", "1", "--t-end", "2", "--lambda-max", "1e4",
              "--grid-points", "4", "--bisect-iters", "3"]
# the names the package exported by importing its modules, by module
PACKAGE_NAMES = {
    "config": ("EPS_ALGEBRA", "EPS_SINGULAR"),
    "core": (
        "JET", "OSTRO", "JetState", "OstroState", "PoissonTensor",
        "Potential", "PUParams", "QuadraticObservable", "VectorField",
        "blend_h", "blend_j", "blend_j_tabulated", "flow_matrix",
        "free_vector_field", "h1", "h2", "j1", "j2", "jet_to_ostro",
        "make_params", "ostro_to_jet", "poisson_bracket",
        "solve_bihamiltonian", "transport_observable", "transport_tensor"),
    "dynamics": (
        "ThresholdReport", "Trajectory", "closed_form_states", "field_for",
        "integrate", "mode_decompose", "mode_energy", "quartic",
        "threshold_search"),
    "embedding": (
        "TransformMap", "TwoDimModel", "definiteness_inequality",
        "positivity", "pullback_hamiltonian", "pushforward_poisson",
        "reconciliation_report", "solve_family", "sum_of_squares",
        "tabulated_family", "verify_map"),
    "symmetry": (
        "apply_symmetry", "commutant_basis", "generated_structure",
        "invariant_tensor_space", "known_generators",
        "lie_derivative_residual", "symmetry_charges"),
}


def fresh(code: str, *args: str) -> str:
    """stdout of `code` run by a new interpreter that imports puosc from
    this tree, with numpy's RuntimeWarnings as errors; it must exit 0."""
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", code, *args],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_loads_no_numpy():
    assert fresh("import sys, puosc.cli; print('numpy' in sys.modules)") \
        == "False\n"


def test_scan_process_imports_no_numpy(tmp_path):
    out = tmp_path / "scan.json"
    argv = json.dumps([*SMALL_SCAN, "--out", str(out)])
    assert fresh("import json, sys\n"
                 "from puosc import cli\n"
                 "code = cli.main(json.loads(sys.argv[1]))\n"
                 "print(code, 'numpy' in sys.modules)", argv) == "0 False\n"
    report = json.loads(out.read_text())
    assert len(report["grid"]) == 4 and report["refine"]["runs"] == 3
    # the same bytes as a run in this process, which has numpy loaded
    first = out.read_bytes()
    assert run(json.loads(argv)) == 0
    assert out.read_bytes() == first


def test_package_names_resolve_lazily():
    # each name is the object its module binds, and dir() lists it
    missing = fresh(
        "import importlib, json, sys, puosc\n"
        "assert 'numpy' not in sys.modules\n"
        "names = json.loads(sys.argv[1])\n"
        "print(json.dumps([[m, n] for m, ns in names.items() for n in ns\n"
        "    if getattr(puosc, n) is not getattr(\n"
        "        importlib.import_module('puosc.' + m), n)\n"
        "    or n not in dir(puosc)]))", json.dumps(PACKAGE_NAMES))
    assert json.loads(missing) == []


def test_package_rejects_unknown_names():
    import puosc
    assert not hasattr(puosc, "no_such_name")
    assert {"core", "dynamics", "__version__"} <= set(dir(puosc))


def test_array_commands_warn_nothing_in_a_fresh_process(tmp_path):
    # numpy is imported by the commands that use it: each of their
    # exit-code rows still writes one stderr line (none for a verdict) and
    # no numpy warning, which -W error would turn into an internal error
    rows = [(name, [a.format(tmp=tmp_path, missing=tmp_path / "missing")
                    for a in argv], code)
            for name, argv, code in EXIT_CASES
            if argv[0] in ("verify", "embed", "simulate")]
    results = json.loads(fresh(
        "import contextlib, io, json, sys\n"
        "from puosc import cli\n"
        "results = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    err = io.StringIO()\n"
        "    with contextlib.redirect_stderr(err):\n"
        "        try:\n"
        "            code = cli.main(argv)\n"
        "        except SystemExit as exc:\n"
        "            code = exc.code\n"
        "    results.append([code, err.getvalue()])\n"
        "print(json.dumps(results))",
        json.dumps([argv for _, argv, _ in rows])))
    assert len(results) == len(rows) > 30
    for (name, _, code), (got, err) in zip(rows, results):
        assert got == code, (name, err)
        lines = err.splitlines()
        if lines and lines[0].startswith("usage: "):
            lines = lines[-1:]
        assert len(lines) == (code not in (0, 1)), (name, err)
        assert not err.startswith("internal error"), (name, err)
