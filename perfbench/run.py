"""Benchmark of the puosc CLI.

    python3 perfbench/run.py --workload coupling_scan --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports `puosc` from its `src/`
directory.  Each workload is a closed loop in one process: the next
`puosc.cli.main(argv)` call is issued when the previous returns, with
`--out` pointing into a temporary directory under `.perfbench/`.  A round
(the calls `inputs.make_round` generates from the seed) runs at least once
and is repeated while the next one is expected to end within `--seconds`.
Every call's output goes through a gate in `gates.py`, and the deterministic
counters of every round are compared with the other rounds and with earlier
runs of the same source, workload and seed.

With `--trace 0` the last stdout line carries the end-to-end metrics, with
`--trace 1` the per-layer metrics of `tracing.py`, measured on traced rounds
that alternate with untraced ones.  Human-readable lines before it give the
environment, each metric with its sample count, the per-command times and
every failure.  Exits non-zero without a result when `puosc` cannot be
imported from the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import inputs
import speed
import tracing

# numpy, and gates.py which imports it, are imported where they are used, so
# that numpy's import time falls inside the set-up probe's cli.import_s

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SETUP_PROBES = 9
SETUP_SLICES = 10           # reference slices timed before each set-up probe
# the plain single-threaded baseline; set before numpy is first imported
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
# per-layer counters that must repeat exactly for a fixed source and seed
DETERMINISTIC_LAYER_COUNTERS = ("dynamics.integrate.steps", "dynamics.integrate.rhs",
                                "dynamics.threshold_search.integrations")


def load_program():
    """Import puosc.cli from the checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import puosc.cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import puosc from {SRC}: {exc}")
    if not Path(puosc.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: puosc was imported from "
                         f"{puosc.cli.__file__}, not from {SRC}")
    return puosc.cli


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "puosc").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for entry in packed.read_text().splitlines():
            if entry.endswith(" " + ref[5:]):
                return entry.split()[0]
    return None


def cpu_model() -> str:
    with contextlib.suppress(OSError):
        for entry in Path("/proc/cpuinfo").read_text().splitlines():
            if entry.startswith("model name"):
                return entry.split(":", 1)[1].strip()
    return platform.processor() or platform.machine()


def environment(workload: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "cpu": cpu_model(),
        "git_sha": git_sha(), "source_sha256": source_digest(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------

def setup_probe(workload: str, seed: int) -> int:
    """Child side of measure_setup: import, generate inputs, report the
    process's CPU time since it started and the wall-clock time."""
    t0 = time.perf_counter()
    load_program()
    import_s = time.perf_counter() - t0
    inputs.make_round(workload, seed)
    print(json.dumps({"ready": time.time(), "cpu": time.process_time(),
                      "import_s": import_s}))
    return 0


def measure_setup(workload: str, seed: int, probes: int) -> tuple:
    """Fresh-process set-up CPU and wall times, puosc.cli import times
    (seconds) and the reference slices timed just before each probe."""
    setup, walls, imports, slices = [], [], [], []
    for _ in range(probes):
        slices += [speed.timed_slice() for _ in range(SETUP_SLICES)]
        t0 = time.time()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        rec = json.loads(proc.stdout.splitlines()[-1])
        setup.append(rec["cpu"])
        walls.append(rec["ready"] - t0)
        imports.append(rec["import_s"])
    return setup, walls, imports, slices


# ---------------------------------------------------------------------------
# one round of calls
# ---------------------------------------------------------------------------

def invoke(cli, argv) -> tuple:
    """(exit code, stdout, stderr) of one in-process CLI call; an exception
    escaping main gives exit code None and its traceback on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            code = None
            traceback.print_exc(file=err)
    return code, out.getvalue(), err.getvalue()


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def _read_states(path: Path):
    """(times, jet states) of a trajectory CSV, or (None, None)."""
    import numpy as np
    try:
        lines = [ln for ln in path.read_text().splitlines()
                 if ln and not ln.startswith("#")][1:]
        table = np.array([[float(v) for v in ln.split(",")] for ln in lines])
    except (OSError, ValueError):
        return None, None
    if table.ndim != 2 or table.shape[1] < 5:
        return None, None
    return table[:, 0], table[:, 1:5]


def closed_form(info: dict, times):
    from puosc import core, dynamics
    params = core.make_params(*info["omega"])
    z0 = core.ostro_to_jet(params, core.OstroState(*info["ostro"]))
    return dynamics.closed_form_states(
        params, dynamics.mode_decompose(params, z0), times)


def check_call(call, code, stdout: str, out: Path) -> tuple:
    """(failure messages, deterministic counters) of one call."""
    import gates
    if call.gate == "scan":
        payload = _read_json(out)
        lam = payload.get("lambda_star") if payload else None
        return gates.check_scan(code, payload), {"lambda_star": lam}
    if call.gate in ("simulate_free", "simulate_interacting"):
        try:
            summary = json.loads(stdout)
        except ValueError:
            summary = None
        counters = {"n_steps": summary.get("n_steps") if summary else None}
        if call.gate == "simulate_interacting":
            return gates.check_simulate_interacting(code, summary), counters
        times, states = _read_states(out)
        exact = closed_form(call.info, times) if times is not None else None
        return gates.check_simulate_free(code, summary, states, exact), counters
    payload = _read_json(out)
    if call.gate == "verify":
        return gates.check_verify(code, payload), {}
    return gates.check_embed(code, payload), {}


class Runner:
    """Issues the calls of a round one after another and checks each."""

    def __init__(self, cli, calls, workdir: Path, tracer=None, probe=None):
        self.cli, self.calls, self.workdir = cli, calls, workdir
        self.tracer, self.probe = tracer, probe

    def warm_up(self) -> None:
        """Run the first call of each gate once, untimed and unchecked, so
        that lazy imports and first-call costs fall outside the rounds.  A
        scan is left out: it takes half a minute, against milliseconds of
        first-call cost."""
        seen = set()
        for k, call in enumerate(self.calls):
            if call.gate in seen or call.command == "scan":
                continue
            seen.add(call.gate)
            invoke(self.cli, (*call.argv, "--out",
                              str(self.workdir / f"warm{k}{call.suffix}")))

    def round(self, traced: bool = False) -> dict:
        """Run every call once.  A call's time is the CPU time it used,
        without the speed probe's slices that ran during it; the round's
        wall-clock time is kept beside it."""
        times, fails, counters = [], [], {}
        wall = 0.0
        for k, call in enumerate(self.calls):
            out = self.workdir / f"{k}{call.suffix}"
            if out.exists():
                out.unlink()
            argv = (*call.argv, "--out", str(out))
            if self.tracer is not None:
                self.tracer.request = k
                self.tracer.recording = traced
            probed = self.probe.spent if self.probe is not None else 0.0
            t0, c0 = time.perf_counter(), time.process_time()
            code, stdout, stderr = invoke(self.cli, argv)
            seconds = time.process_time() - c0
            wall += time.perf_counter() - t0
            if self.probe is not None:
                seconds -= self.probe.spent - probed
            if self.tracer is not None:
                self.tracer.recording = False
            times.append((call.command, seconds))
            try:
                msgs, found = check_call(call, code, stdout, out)
            except (KeyError, TypeError, ValueError) as exc:
                msgs, found = [f"malformed output: {exc!r}"], {}
            if msgs:
                detail = stderr.strip().splitlines()[-1:] if stderr else []
                fails.append(f"call {k} ({' '.join(call.argv)}): "
                             + "; ".join(msgs + detail))
            counters.update({f"{k}.{call.command}.{name}": v
                             for name, v in found.items()})
        return {"cpu": sum(s for _, s in times), "wall": wall, "times": times,
                "fails": fails, "counters": counters,
                "spans": self.tracer.take() if traced else None}


# ---------------------------------------------------------------------------
# determinism cross-check
# ---------------------------------------------------------------------------

def compare_counters(reference: dict, counters: dict) -> tuple:
    """(comparisons made, mismatch messages) for names in both dicts."""
    common = [k for k in counters if k in reference]
    bad = [f"determinism: {k} was {reference[k]!r}, now {counters[k]!r}"
           for k in common if reference[k] != counters[k]]
    return len(common), bad


def check_determinism(per_round, key: str) -> tuple:
    """(comparisons made, mismatch messages): every round's counters
    against the first round that had them, then against earlier runs."""
    reference, checks, fails = {}, 0, []
    for counters in per_round:
        n, bad = compare_counters(reference, counters)
        checks, fails = checks + n, fails + bad
        for k, v in counters.items():
            reference.setdefault(k, v)
    n, bad = cross_check_store(key, reference)
    return checks + n, fails + bad


def cross_check_store(key: str, counters: dict) -> tuple:
    """Compare with, then extend, the counters earlier runs recorded under
    `key` (source digest, workload, seed) in .perfbench/determinism.json."""
    path = STATE / "determinism.json"
    store = _read_json(path) or {}
    seen = store.setdefault(key, {})
    result = compare_counters(seen, counters)
    for k, v in counters.items():
        seen.setdefault(k, v)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return result


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def tail_percentile(values) -> str:
    """Highest of p99/p90 with at least ten samples beyond it, as text."""
    for p in (99, 90):
        if len(values) * (100 - p) / 100 >= 10:
            q = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
            return f" p{p} {q:.6g}"
    return ""


def metric_line(name: str, values, unit: str) -> str:
    return (f"  {name:<40} median {statistics.median(values):.6g} {unit}"
            f"{tail_percentile(values)}  n={len(values)}")


def run(args) -> int:
    cli = load_program()
    calls = inputs.make_round(args.workload, args.seed)
    env = environment(args.workload, args.seed, args.seconds, args.trace)
    # half the set-up probes before the rounds and half after, so that they
    # sample the machine over the whole run like the timed rounds do
    setup, setup_walls, imports, setup_slices = measure_setup(
        args.workload, args.seed, SETUP_PROBES // 2)
    STATE.mkdir(exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    # the end-to-end rounds run under the speed probe; traced rounds do not,
    # so that its slices fall inside no span
    probe = None if args.trace else speed.SpeedProbe()

    plain, traced = [], []
    with tempfile.TemporaryDirectory(dir=STATE) as tmp, \
            (probe or contextlib.nullcontext()):
        runner = Runner(cli, calls, Path(tmp), tracer, probe)
        runner.warm_up()
        if tracer is not None:
            tracer.install()
        try:
            # start another round while it is expected to end in time
            t_start = time.perf_counter()
            while True:
                plain.append(runner.round())
                if tracer is not None:
                    traced.append(runner.round(traced=True))
                elapsed = time.perf_counter() - t_start
                if elapsed * (len(plain) + 1) / len(plain) > args.seconds:
                    break
        finally:
            if tracer is not None:
                tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    late = measure_setup(args.workload, args.seed,
                         SETUP_PROBES - SETUP_PROBES // 2)
    for values, more in zip((setup, setup_walls, imports, setup_slices), late):
        values += more

    rounds = plain + traced
    fails = [msg for r in rounds for msg in r["fails"]]
    attempted = sum(len(r["times"]) for r in rounds)

    layer_rounds = [tracing.layer_metrics(r["spans"]) for r in traced]
    per_round = [r["counters"] for r in plain] + [
        {**r["counters"], **{k: lm[k] for k in DETERMINISTIC_LAYER_COUNTERS}}
        for r, lm in zip(traced, layer_rounds)]
    checks, bad = check_determinism(
        per_round, f"{env['source_sha256']}/{args.workload}/{args.seed}")
    fails += bad
    attempted += checks

    print("perfbench env " + json.dumps(env, sort_keys=True))
    print(f"perfbench {args.workload} seed={args.seed} rounds={len(plain)}"
          f"+{len(traced)} traced, calls/round={len(calls)}")
    setup_factor = speed.speed_factor(setup_slices)
    print(metric_line("set-up CPU time (measured)", setup, "s"))
    print(metric_line("set-up wall time (measured)", setup_walls, "s"))
    if args.trace:
        metrics = {k: statistics.median(lm[k] for lm in layer_rounds)
                   for k in tracing.PER_LAYER if k not in tracing.MEASURED_OUTSIDE}
        metrics["cli.import_s"] = statistics.median(imports)
        metrics["trace.overhead_s"] = (statistics.mean(r["cpu"] for r in traced)
                                       - statistics.mean(r["cpu"] for r in plain))
        for name, unit in tracing.PER_LAYER.items():
            print(f"  {name:<40} {metrics[name]:.6g} {unit}")
        units = tracing.PER_LAYER
    else:
        cpus = [r["cpu"] for r in plain]
        round_factor = speed.speed_factor(probe.slices)
        metrics = {"setup_s": statistics.median(setup) * setup_factor,
                   "cpu_s": statistics.mean(cpus) * round_factor,
                   "peak_rss_mb": peak_rss_mb}
        print(f"  {'round CPU time (measured)':<40} mean "
              f"{statistics.mean(cpus):.6g} s  n={len(cpus)}")
        print(f"  {'round wall time (measured)':<40} mean "
              f"{statistics.mean(r['wall'] for r in plain):.6g} s"
              f"  (probe slices included)")
        print(f"  {'speed factor':<40} rounds {round_factor:.4g} "
              f"(n={len(probe.slices)}), set-up {setup_factor:.4g} "
              f"(n={len(setup_slices)}), probe {probe.spent:.3g} s")
        print(f"  {'setup_s':<40} {metrics['setup_s']:.6g} s at reference speed")
        print(f"  {'cpu_s':<40} {metrics['cpu_s']:.6g} s at reference speed")
        for command in sorted({c.command for c in calls}):
            per_call = [s for r in plain for c, s in r["times"] if c == command]
            print(metric_line(f"{command}_s", per_call, "s"))
        print(f"  {'peak_rss_mb':<40} {peak_rss_mb:.6g} MB")
        units = END_TO_END
    print(f"  {'fail_ratio':<40} {len(fails)}/{attempted} = "
          f"{len(fails) / attempted:.6g}")
    for msg in fails:
        print("FAIL " + msg)

    record = {"env": env, "metrics": metrics, "failures": fails,
              "attempted": attempted, "setup_s": setup,
              "setup_wall_s": setup_walls, "import_s": imports,
              "setup_slices": setup_slices,
              "round_slices": probe.slices if probe is not None else [],
              "rounds": [{"cpu": r["cpu"], "wall": r["wall"], "times": r["times"],
                          "counters": r["counters"]} for r in rounds]}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (STATE / f"result-{stem}.json").write_text(json.dumps(record, indent=1))
    if traced:
        with open(STATE / f"spans-{stem}.csv", "w") as fh:
            fh.write("round,id,parent,request,name,start,end\n")
            for i, r in enumerate(traced):
                for s in r["spans"]:
                    fh.write(f"{i},{s.id},{s.parent},{s.request},{s.name},"
                             f"{s.start!r},{s.end!r}\n")

    print(json.dumps({
        "correct": not fails, "attempted": attempted, "failed": len(fails),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    os.environ.update({v: "1" for v in THREAD_VARS})
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
