"""Tests of the benchmark's own logic: span arithmetic, counter derivation,
output gates and the BENCHMARK.json contract.

    python3 -m pytest perfbench -q
"""

import json
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import gates
import inputs
import run
import speed
import tracing
from tracing import Span

ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def _span(i, parent, name, start, end, extra=None):
    return Span(i, parent, 0, name, start, end, extra)


# cli.main [0, 10] -> cli.cmd_scan [1, 9] -> threshold_search [2, 8]
#   -> runaway_scan [2, 4] -> integrate [2.5, 3.5] -> core.h1 [3, 3.25]
#   -> runaway_scan [5, 7] -> integrate [5, 6.5]
NESTED = [
    _span(0, -1, "cli.main", 0.0, 10.0),
    _span(1, 0, "cli.cmd_scan", 1.0, 9.0),
    _span(2, 1, "dynamics.threshold_search", 2.0, 8.0, 1),
    _span(3, 2, "dynamics.runaway_scan", 2.0, 4.0, False),
    _span(4, 3, "dynamics.integrate", 2.5, 3.5, (10, 2 + 6 * 12, None, 5)),
    _span(5, 4, "core.h1", 3.0, 3.25),
    _span(6, 2, "dynamics.runaway_scan", 5.0, 7.0, True),
    _span(7, 6, "dynamics.integrate", 5.0, 6.5, (20, 2 + 6 * 20, None, 3)),
]


def test_self_time_subtracts_direct_children_only():
    own = tracing.self_times(NESTED)
    assert own[0] == pytest.approx(10.0 - 8.0)
    assert own[2] == pytest.approx(6.0 - 2.0 - 2.0)
    assert own[3] == pytest.approx(2.0 - 1.0)
    assert own[4] == pytest.approx(1.0 - 0.25)
    assert own[5] == pytest.approx(0.25)
    # self times partition the top-level span
    assert sum(own.values()) == pytest.approx(10.0)


def test_layer_metrics_busy_self_and_counters():
    m = tracing.layer_metrics(NESTED)
    assert m["dynamics.integrate.calls"] == 2
    assert m["dynamics.integrate.busy_s"] == pytest.approx(2.5)
    assert m["dynamics.integrate.self_s"] == pytest.approx(2.25)
    assert m["dynamics.integrate.self_s"] <= m["dynamics.integrate.busy_s"]
    assert m["dynamics.integrate.steps"] == 30
    assert m["dynamics.integrate.rhs"] == 2 + 6 * 12 + 2 + 6 * 20
    assert m["dynamics.integrate.rejected"] == 2
    assert m["dynamics.integrate.accept_ratio"] == pytest.approx(30 / 32)
    assert m["dynamics.integrate.samples"] == 8
    assert m["dynamics.integrate.us_per_step"] == pytest.approx(1e6 * 2.5 / 30)
    assert m["dynamics.runaway_scan.escaped"] == 1
    # one grid point, then one refinement classification
    assert m["dynamics.threshold_search.grid_s"] == pytest.approx(2.0)
    assert m["dynamics.threshold_search.refine_s"] == pytest.approx(2.0)
    assert m["dynamics.threshold_search.integrations"] == 2
    # layer busy time counts the outermost span of the layer once
    assert m["dynamics.busy_s"] == pytest.approx(6.0)
    assert m["dynamics.calls"] == 5
    assert m["cli.busy_s"] == pytest.approx(10.0)
    assert m["cli.scan.self_s"] == pytest.approx(8.0 - 6.0)
    assert m["core.calls"] == 1
    assert m["core.busy_s"] == pytest.approx(0.25)
    assert m["symmetry.calls"] == 0 and m["symmetry.busy_s"] == 0.0


def test_recursive_function_busy_time_counted_once():
    spans = [_span(0, -1, "core.blend_j", 0.0, 4.0),
             _span(1, 0, "core.blend_j", 1.0, 3.0)]
    m = tracing.layer_metrics(spans)
    assert m["core.blend_j.busy_s"] == pytest.approx(4.0)
    assert m["core.busy_s"] == pytest.approx(4.0)
    assert m["core.calls"] == 2


def test_metric_names_cover_the_per_layer_table():
    names = set(tracing.layer_metrics([])) | set(tracing.MEASURED_OUTSIDE)
    assert names == set(tracing.PER_LAYER)


# ---------------------------------------------------------------------------
# rejected steps and accept ratio
# ---------------------------------------------------------------------------

def test_rejected_derived_from_rhs_count():
    # 2 initial evaluations + 6 per attempt; 100 accepted of 107 attempts
    assert tracing.derive_attempts(100, 2 + 6 * 107) == (107, 7)
    assert tracing.derive_attempts(0, 2) == (0, 0)


def test_rejected_prefers_recorded_count():
    assert tracing.derive_attempts(100, 2 + 6 * 107, n_rejected=3) == (103, 3)


# ---------------------------------------------------------------------------
# tracer wiring
# ---------------------------------------------------------------------------

def test_tracer_wraps_names_bound_by_from_import():
    sys.path.insert(0, str(ROOT / "src"))
    import puosc
    from puosc import core, dynamics

    original = puosc.make_params
    tracer = tracing.Tracer()
    assert tracer.install() > 0
    try:
        assert puosc.make_params is core.make_params is not original
        tracer.recording = True
        params = puosc.make_params(1.0, 2.0)
        dynamics.field_for(params, None)
        tracer.recording = False
        dynamics.field_for(params, None)        # not recorded
    finally:
        tracer.uninstall()
    assert puosc.make_params is original
    spans = tracer.take()
    names = [s.name for s in spans]
    assert names.count("dynamics.field_for") == 1
    field = next(s for s in spans if s.name == "dynamics.field_for")
    child = next(s for s in spans if s.name == "core.free_vector_field")
    assert child.parent == field.id
    assert field.start <= child.start <= child.end <= field.end


# ---------------------------------------------------------------------------
# output gates fail on corrupted outputs
# ---------------------------------------------------------------------------

def _scan_payload():
    lams = [0.0, 1.0, 2.0, 4.0, 8.0]
    bounded = [True, True, True, False, False]
    return {"lambda_star": 3.0, "caveat": False,
            "grid": [{"lam": l, "bounded": b} for l, b in zip(lams, bounded)]}


def test_scan_gate_accepts_good_output():
    assert gates.check_scan(0, _scan_payload()) == []


@pytest.mark.parametrize("corrupt", [
    lambda p: p.update(lambda_star=5.0),                  # outside the cell
    lambda p: p.update(lambda_star=None),
    lambda p: p["grid"][0].update(bounded=False),         # first escapes
    lambda p: p["grid"][-1].update(bounded=True),         # last bounded
    lambda p: p["grid"][1].update(bounded=False),         # escape below lam*
])
def test_scan_gate_rejects_corrupted_output(corrupt):
    payload = _scan_payload()
    corrupt(payload)
    assert gates.check_scan(0, payload)


def test_scan_gate_rejects_exit_code_and_missing_output():
    assert gates.check_scan(4, _scan_payload())
    assert gates.check_scan(0, None)


def test_free_simulate_gate():
    exact = np.linspace(0.0, 1.0, 40).reshape(10, 4)
    summary = {"drift_h1": 1e-9, "drift_h2": 1e-9}
    assert gates.check_simulate_free(0, summary, exact + 1e-8, exact) == []
    assert gates.check_simulate_free(0, summary, exact + 1e-5, exact)
    assert gates.check_simulate_free(0, summary, exact[:-1], exact)
    assert gates.check_simulate_free(0, {**summary, "drift_h1": 2e-8}, exact, exact)
    assert gates.check_simulate_free(0, {**summary, "drift_h2": 2e-8}, exact, exact)
    assert gates.check_simulate_free(3, summary, exact, exact)
    assert gates.check_simulate_free(0, None, None, exact)


def test_interacting_simulate_gate():
    good = {"bounded": True, "escape_time": None,
            "drift_hint": 1e-9, "drift_h2": 0.05}
    assert gates.check_simulate_interacting(0, good) == []
    assert gates.check_simulate_interacting(
        0, {**good, "bounded": False, "escape_time": 12.0})
    assert gates.check_simulate_interacting(0, {**good, "drift_hint": 2e-7})
    assert gates.check_simulate_interacting(0, {**good, "drift_h2": 1e-3})
    assert gates.check_simulate_interacting(2, good)


def test_verify_and_embed_gates():
    assert gates.check_verify(0, {"passed": True}) == []
    assert gates.check_verify(1, {"passed": False, "first_failure": "blend_grid"})
    assert gates.check_verify(0, {"passed": False})
    good = {"solved": {"verify": {"passes": True}}}
    assert gates.check_embed(0, good) == []
    assert gates.check_embed(0, {"solved": {"verify": {"passes": False}}})
    assert gates.check_embed(0, {"solved": "skipped"})
    assert gates.check_embed(3, good)


def test_determinism_mismatch_is_a_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "STATE", tmp_path)
    # within a run: the second round is compared with the first
    n, bad = run.check_determinism([{"lam": 8.79}, {"lam": 8.79, "steps": 10}], "k")
    assert (n, bad) == (1, [])
    # across runs of the same key: both counters compared, one differs
    n, bad = run.check_determinism([{"lam": 8.79, "steps": 11}], "k")
    assert n == 2 and len(bad) == 1 and "steps" in bad[0]
    # another key (source, workload or seed) starts afresh
    assert run.check_determinism([{"lam": 1.0}], "other") == (0, [])


# ---------------------------------------------------------------------------
# speed probe
# ---------------------------------------------------------------------------

def test_speed_factor_scales_to_the_reference_slice():
    ref = speed.REFERENCE_SLICE_S
    assert speed.speed_factor([ref] * 10) == pytest.approx(1.0)
    # a machine running slices at half speed doubles measured times; one
    # slice in ten at each end is trimmed
    assert speed.speed_factor([0.1 * ref] + [2 * ref] * 8 + [50 * ref]) \
        == pytest.approx(0.5)
    # half the slices in the slow state: the factor sits between the states
    assert speed.speed_factor([ref] * 5 + [2 * ref] * 5) \
        == pytest.approx(1 / 1.5)


def test_speed_probe_samples_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe(period=0.01) as probe:
        t_end = time.perf_counter() + 0.2
        while time.perf_counter() < t_end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.slices) >= 2
    assert probe.spent >= sum(probe.slices)


def test_round_time_is_cpu_time_without_probe_slices(tmp_path):
    class SlowProbe:
        spent = 0.0

    class Cli:
        def main(self, argv):
            c_end = time.process_time() + 0.05
            while time.process_time() < c_end:
                pass
            probe.spent += 0.04         # as if a slice took that much of it
            return 0

    probe = SlowProbe()
    call = inputs.Call("verify", "verify", ("verify",))
    runner = run.Runner(Cli(), [call], tmp_path, probe=probe)
    result = runner.round()
    (command, seconds), = result["times"]
    assert command == "verify" and 0.0 < seconds < 0.03
    assert result["cpu"] == seconds and result["wall"] >= 0.05


# ---------------------------------------------------------------------------
# inputs and the BENCHMARK.json contract
# ---------------------------------------------------------------------------

def test_inputs_repeat_for_a_seed():
    for workload in ("coupling_scan", "trajectory"):
        assert inputs.make_round(workload, 7) == inputs.make_round(workload, 7)
        assert inputs.make_round(workload, 7) != inputs.make_round(workload, 8)
    scan = inputs.make_round("coupling_scan", 3)[0]
    assert 0.5 <= scan.info["amplitude"] <= 0.65


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
