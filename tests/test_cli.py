"""CLI subcommands, exit codes, and output determinism."""

import json

import pytest

from puosc import cli

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
INTEGRATOR = ["--t-end", "5", "--tol", "1e-9", "--sample-rate", "0.5",
              "--escape-radius", "100"]
KEPT_FLAGS = {
    "verify": [*FREQ, "--lambda", "0.2", "--seed", "3", "--out", "o"],
    "simulate": [*FREQ, "--lambda", "0.2", *STATE, *INTEGRATOR,
                 "--out", "o", "--format", "json"],
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


def test_unset_config_fields_keep_defaults():
    args = cli.build_parser().parse_args(["embed", "--family", "ta1"])
    assert cli._config_from_args(args) == cli.RunConfig()
