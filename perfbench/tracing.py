"""Per-layer tracing of puosc from outside the package.

`Tracer.install` replaces every public function of the layer modules
(`core`, `dynamics`, `symmetry`, `embedding`, `cli`) with a wrapper, in
every `puosc` module namespace that binds it, including names bound by
`from .core import ...`.  While `recording` is set, each call appends one
`Span` (id, parent id, request, name, start, end, extra counters) to an
in-memory list; `layer_metrics` turns one round's spans into the per-layer
metrics.  Names that do not exist are skipped, so the tracer keeps working
when a function is removed.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Optional

LAYERS = ("core", "dynamics", "symmetry", "embedding", "cli")

# name -> unit; the `per_layer` list of BENCHMARK.json, in the same order
PER_LAYER = {
    "dynamics.integrate.calls": "count",
    "dynamics.integrate.busy_s": "s",
    "dynamics.integrate.self_s": "s",
    "dynamics.integrate.us_per_step": "us",
    "dynamics.integrate.us_per_rhs": "us",
    "dynamics.integrate.steps": "count",
    "dynamics.integrate.rejected": "count",
    "dynamics.integrate.rhs": "count",
    "dynamics.integrate.accept_ratio": "ratio",
    "dynamics.integrate.samples": "count",
    "dynamics.runaway_scan.calls": "count",
    "dynamics.runaway_scan.busy_s": "s",
    "dynamics.runaway_scan.self_s": "s",
    "dynamics.runaway_scan.escaped": "count",
    "dynamics.threshold_search.busy_s": "s",
    "dynamics.threshold_search.self_s": "s",
    "dynamics.threshold_search.grid_s": "s",
    "dynamics.threshold_search.refine_s": "s",
    "dynamics.threshold_search.integrations": "count",
    "dynamics.trajectory_csv_rows.busy_s": "s",
    "dynamics.calls": "count",
    "dynamics.busy_s": "s",
    "cli.simulate.self_s": "s",
    "cli.run_invariant_suite.busy_s": "s",
    "cli.verify.self_s": "s",
    "cli.embed.self_s": "s",
    "cli.scan.self_s": "s",
    "cli.calls": "count",
    "cli.busy_s": "s",
    "cli.import_s": "s",
    "core.calls": "count",
    "core.busy_s": "s",
    "core.blend_j.busy_s": "s",
    "symmetry.calls": "count",
    "symmetry.busy_s": "s",
    "symmetry.commutant_basis.busy_s": "s",
    "symmetry.invariant_tensor_space.busy_s": "s",
    "symmetry.symmetry_charges.busy_s": "s",
    "embedding.calls": "count",
    "embedding.busy_s": "s",
    "embedding.reconciliation_report.busy_s": "s",
    "embedding.solve_family.busy_s": "s",
    "embedding.verify_map.busy_s": "s",
    "embedding.pullback_hamiltonian.busy_s": "s",
    "trace.overhead_s": "s",
}

# per-layer metrics that are not span aggregates: run.py measures them
MEASURED_OUTSIDE = ("cli.import_s", "trace.overhead_s")


@dataclass
class Span:
    id: int
    parent: int           # -1 for a top-level span
    request: int          # index of the CLI call the span belongs to
    name: str             # "<layer>.<function>"
    start: float
    end: float
    extra: Any = None     # counters read from the return value

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _integrate_extra(traj):
    meta = getattr(traj, "meta", None) or {}
    return (meta.get("n_steps", 0), meta.get("n_rhs", 0),
            meta.get("n_rejected"), len(getattr(traj, "times", ())))


def _runaway_extra(verdict):
    return not verdict.bounded


def _threshold_extra(report):
    return report.settings.get("grid_points")


EXTRAS = {
    "dynamics.integrate": _integrate_extra,
    "dynamics.runaway_scan": _runaway_extra,
    "dynamics.threshold_search": _threshold_extra,
}


class Tracer:
    """Attribute-replacement tracer; spans are recorded only while
    `recording` is true, so output checks can call the library untraced."""

    def __init__(self):
        self.recording = False
        self.request = -1
        self.spans: list = []
        self._stack: list = []
        self._next_id = 0
        self._patched: list = []      # (module, name, original)

    def _wrap(self, fn, name):
        extra_of = EXTRAS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(span_id, parent, name, start)
                raise
            span = self._close(span_id, parent, name, start)
            if extra_of is not None:
                span.extra = extra_of(result)
            return result

        return wrapper

    def _close(self, span_id, parent, name, start) -> Span:
        end = perf_counter()
        self._stack.pop()
        span = Span(span_id, parent, self.request, name, start, end)
        self.spans.append(span)
        return span

    def install(self) -> int:
        """Wrap every public layer function in every loaded puosc module;
        returns the number of bindings replaced."""
        layer_modules = {f"puosc.{layer}" for layer in LAYERS}
        wrappers = {}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "puosc" and not mod_name.startswith("puosc."):
                continue
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ not in layer_modules):
                    continue
                if id(obj) not in wrappers:
                    layer = obj.__module__.rsplit(".", 1)[1]
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{obj.__name__}")
                setattr(module, attr, wrappers[id(obj)])
                self._patched.append((module, attr, obj))
        return len(self._patched)

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def take(self) -> list:
        """Return the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans


def derive_attempts(n_steps: int, n_rhs: int,
                    n_rejected: Optional[int] = None) -> tuple:
    """(attempts, rejected) of one integration.

    The DP5(4) loop evaluates the right-hand side twice for the initial step
    and six times per attempted step (FSAL), so n_rhs = 2 + 6 * attempts.
    A `n_rejected` recorded by the integrator is preferred when present.
    """
    if n_rejected is not None:
        return n_steps + n_rejected, n_rejected
    attempts = (n_rhs - 2) // 6 if n_rhs >= 2 else 0
    return attempts, max(attempts - n_steps, 0)


def self_times(spans) -> dict:
    """Span id -> duration minus the time covered by its direct children.
    Children run inside their parent on one thread, so they never overlap
    each other."""
    covered = defaultdict(float)
    for s in spans:
        covered[s.parent] += s.duration
    return {s.id: s.duration - covered[s.id] for s in spans}


def _ancestors(span, by_id):
    parent = by_id.get(span.parent)
    while parent is not None:
        yield parent
        parent = by_id.get(parent.parent)


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one round of spans (all but MEASURED_OUTSIDE).

    busy_s of a function or layer counts each span that has no ancestor of
    the same function or layer, so nested calls are not counted twice;
    self_s sums span self times.
    """
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    fn = defaultdict(lambda: {"calls": 0, "busy": 0.0, "self": 0.0})
    layer = defaultdict(lambda: {"calls": 0, "busy": 0.0})
    children = defaultdict(list)
    steps = rhs = rejected = samples = 0
    escaped = 0
    for s in spans:
        anc = list(_ancestors(s, by_id))
        f = fn[s.name]
        f["calls"] += 1
        f["self"] += own[s.id]
        if all(a.name != s.name for a in anc):
            f["busy"] += s.duration
        lay = layer[s.layer]
        lay["calls"] += 1
        if all(a.layer != s.layer for a in anc):
            lay["busy"] += s.duration
        children[s.parent].append(s)
        if s.name == "dynamics.integrate" and s.extra is not None:
            n_steps, n_rhs, n_rej, n_samples = s.extra
            _, rej = derive_attempts(n_steps, n_rhs, n_rej)
            steps, rhs, rejected = steps + n_steps, rhs + n_rhs, rejected + rej
            samples += n_samples
        elif s.name == "dynamics.runaway_scan" and s.extra:
            escaped += 1

    grid_s = refine_s = 0.0
    integrations = 0
    for t in spans:
        if t.name != "dynamics.threshold_search":
            continue
        scans = sorted((c for c in children[t.id]
                        if c.name == "dynamics.runaway_scan"),
                       key=lambda c: c.start)
        n_grid = t.extra if t.extra is not None else len(scans)
        grid_s += sum(c.duration for c in scans[:n_grid])
        refine_s += sum(c.duration for c in scans[n_grid:])
        integrations += sum(
            1 for s in spans if s.name == "dynamics.integrate"
            and any(a.id == t.id for a in _ancestors(s, by_id)))

    integ = fn["dynamics.integrate"]
    attempts = steps + rejected
    m = {
        "dynamics.integrate.calls": integ["calls"],
        "dynamics.integrate.busy_s": integ["busy"],
        "dynamics.integrate.self_s": integ["self"],
        "dynamics.integrate.us_per_step": 1e6 * integ["busy"] / steps if steps else 0.0,
        "dynamics.integrate.us_per_rhs": 1e6 * integ["busy"] / rhs if rhs else 0.0,
        "dynamics.integrate.steps": steps,
        "dynamics.integrate.rejected": rejected,
        "dynamics.integrate.rhs": rhs,
        "dynamics.integrate.accept_ratio": steps / attempts if attempts else 0.0,
        "dynamics.integrate.samples": samples,
        "dynamics.runaway_scan.calls": fn["dynamics.runaway_scan"]["calls"],
        "dynamics.runaway_scan.busy_s": fn["dynamics.runaway_scan"]["busy"],
        "dynamics.runaway_scan.self_s": fn["dynamics.runaway_scan"]["self"],
        "dynamics.runaway_scan.escaped": escaped,
        "dynamics.threshold_search.busy_s": fn["dynamics.threshold_search"]["busy"],
        "dynamics.threshold_search.self_s": fn["dynamics.threshold_search"]["self"],
        "dynamics.threshold_search.grid_s": grid_s,
        "dynamics.threshold_search.refine_s": refine_s,
        "dynamics.threshold_search.integrations": integrations,
        "dynamics.trajectory_csv_rows.busy_s": fn["dynamics.trajectory_csv_rows"]["busy"],
        "cli.simulate.self_s": fn["cli.cmd_simulate"]["self"],
        "cli.run_invariant_suite.busy_s": fn["cli.run_invariant_suite"]["busy"],
        "cli.verify.self_s": fn["cli.cmd_verify"]["self"],
        "cli.embed.self_s": fn["cli.cmd_embed"]["self"],
        "cli.scan.self_s": fn["cli.cmd_scan"]["self"],
        "core.blend_j.busy_s": fn["core.blend_j"]["busy"],
        "symmetry.commutant_basis.busy_s": fn["symmetry.commutant_basis"]["busy"],
        "symmetry.invariant_tensor_space.busy_s": fn["symmetry.invariant_tensor_space"]["busy"],
        "symmetry.symmetry_charges.busy_s": fn["symmetry.symmetry_charges"]["busy"],
        "embedding.reconciliation_report.busy_s": fn["embedding.reconciliation_report"]["busy"],
        "embedding.solve_family.busy_s": fn["embedding.solve_family"]["busy"],
        "embedding.verify_map.busy_s": fn["embedding.verify_map"]["busy"],
        "embedding.pullback_hamiltonian.busy_s": fn["embedding.pullback_hamiltonian"]["busy"],
    }
    for name in LAYERS:
        m[f"{name}.calls"] = layer[name]["calls"]
        m[f"{name}.busy_s"] = layer[name]["busy"]
    return m
