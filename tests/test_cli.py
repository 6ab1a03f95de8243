"""CLI subcommands, exit codes, and output determinism."""

import argparse
import contextlib
import io
import json
import sys

import numpy as np
import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from puosc import cli, core
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


def test_verify_degenerate_frequencies(tmp_path):
    out = tmp_path / "verify.json"
    assert run(["verify", "--omega1", "2", "--omega2", "2",
                "--out", str(out)]) == 1
    rep = json.loads(out.read_text())
    assert rep["passed"] is False
    assert rep["first_failure"] == "degenerate-frequencies"


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
    par = core.make_params(9.450664502595535, 9.60169554945272)
    A = core.flow_matrix(par)
    bound = 1e-12 * float(np.linalg.norm(A))
    right = symmetry.commutant_basis(A)

    def bent(c):
        first, *rest = right.generators
        return symmetry.SymmetryBasis(
            (symmetry.LinearSymmetry(first.xi + c * A.T), *rest), 4)

    residuals = {
        "commutant_abelian": lambda c: symmetry.max_pairwise_commutator(bent(c)),
        "generator_projection": lambda c: max(
            symmetry.projection_residual(bent(c), g.xi)
            for g in symmetry.known_generators(par).generators),
    }
    monkeypatch.setattr(cli, "_random_params", lambda rng: par)
    for name, residual in residuals.items():
        per_bend = residual(1e-9) / 1e-9     # linear in c at these sizes
        for factor in (0.5, 2.0):
            c = factor * bound / per_bend
            assert residual(c) == pytest.approx(factor * bound, rel=0.05)
            monkeypatch.setattr(symmetry, "commutant_basis",
                                lambda _A, c=c: bent(c))
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


def test_embed_tb2_degenerate(tmp_path):
    out = tmp_path / "embed.json"
    assert run(["embed", "--family", "tb2", "--ax", "1", "--by", "1",
                "--g", "0.5", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["singular_pushforward"] is True
    assert rep["pullback"]["degenerate"] is True


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
def test_subcommand_parses_kept_flags(command):
    args = cli.build_parser().parse_args([command, *KEPT_FLAGS[command]])
    assert args.func is getattr(cli, f"cmd_{command}")
    assert args.omega1 == 1.5 and args.out == "o"


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
    # an "error:" message (argparse's, or the exit table's "error" and "io
    # error" rows), or the "numerical failure" row's; exit_code fails on
    # the "internal error" row's
    said = "error:" in err or err.startswith("numerical failure: ")
    assert said == (code != 0)
    assert "Traceback" not in err
    # one line: the exit table's, or argparse's error after its usage
    lines = err.splitlines()
    if lines and lines[0].startswith("usage: "):
        assert lines[-1].startswith("puosc "), err
        lines = lines[-1:]
    assert len(lines) == (code != 0), err


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


@pytest.mark.parametrize("argv", [
    ["modes", "--omega1=1.5", "--q0=4.4692693099808655e+153"],
    ["simulate", "--q0", "1e152", "--omega1", "1e4", "--t-end", "1e-20"],
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


def test_blend_grid_rejects_tabulated_tensors(monkeypatch):
    # the check must still tell wrong tensors from right ones
    monkeypatch.setattr(core, "blend_j", core.blend_j_tabulated)
    params = core.make_params(float(NEAR_SINGULAR[1]), float(NEAR_SINGULAR[3]))
    check = _blend_grid(params)
    assert not check["passed"]
    assert check["detail"]["max_residual"] > 1e-3


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
    the `optional` ones, each as `--flag=value` (argparse reads a separate
    "-1e-05" as a flag, not as a value)."""
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
        for name, value in _drawn_config(argv).items():
            assert echoed[name] == type(echoed[name])(value), name


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
