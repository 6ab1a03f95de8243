"""Output gates: correctness checks on every call the benchmark makes.

Each gate takes the call's exit code and its parsed output and returns a
list of failure messages; an empty list means the call passed.  The bounds
are those of acceptance criteria 7 and 8 and of the invariant suite, and
none is loosened here.  Gates are pure, so the tests can feed them
deliberately corrupted outputs.
"""

from __future__ import annotations

import numpy as np

STATE_TOL = 1e-6          # free run vs closed form (criterion 7)
FREE_DRIFT_TOL = 1e-8     # H1 and H2 drift of a free run (criterion 7)
HINT_DRIFT_TOL = 1e-7     # H1 - W drift of a bounded interacting run (criterion 8)
H2_DRIFT_MIN = 1e-2       # H2 must drift once the interaction breaks it


def _exit(code) -> list:
    return [] if code == 0 else [f"exit code {code!r}, expected 0"]


def check_scan(code, payload) -> list:
    fails = _exit(code)
    if payload is None:
        return fails + ["no scan output"]
    grid = payload.get("grid") or []
    lam = payload.get("lambda_star")
    if not grid:
        return fails + ["empty grid"]
    if not grid[0]["bounded"]:
        fails.append("first grid point escapes")
    if grid[-1]["bounded"]:
        fails.append("last grid point is bounded")
    if lam is None:
        return fails + ["no lambda_star"]
    if not payload.get("caveat") and not all(
            g["bounded"] for g in grid if g["lam"] < lam):
        fails.append("grid point below lambda_star escapes without caveat")
    cell = next((i for i in range(len(grid) - 1)
                 if grid[i]["bounded"] and not grid[i + 1]["bounded"]), None)
    if cell is None:
        fails.append("no bounded-to-escaping grid cell")
    elif not grid[cell]["lam"] <= lam <= grid[cell + 1]["lam"]:
        fails.append(f"lambda_star {lam!r} outside the first transition cell "
                     f"[{grid[cell]['lam']!r}, {grid[cell + 1]['lam']!r}]")
    return fails


def check_simulate_free(code, summary, states, exact) -> list:
    """`states` are the jet columns of the CSV, `exact` the closed form at
    the same sample times."""
    fails = _exit(code)
    if summary is None or states is None:
        return fails + ["no simulate output"]
    if states.shape != exact.shape:
        return fails + [f"state table shape {states.shape} != {exact.shape}"]
    err = float(np.max(np.abs(states - exact)))
    if not err <= STATE_TOL:
        fails.append(f"state error {err!r} > {STATE_TOL}")
    for key in ("drift_h1", "drift_h2"):
        if not summary[key] <= FREE_DRIFT_TOL:
            fails.append(f"{key} {summary[key]!r} > {FREE_DRIFT_TOL}")
    return fails


def check_simulate_interacting(code, summary) -> list:
    fails = _exit(code)
    if summary is None:
        return fails + ["no simulate output"]
    if not summary["bounded"] or summary["escape_time"] is not None:
        fails.append("interacting run escaped")
    if not summary["drift_hint"] <= HINT_DRIFT_TOL:
        fails.append(f"drift_hint {summary['drift_hint']!r} > {HINT_DRIFT_TOL}")
    if not summary["drift_h2"] > H2_DRIFT_MIN:
        fails.append(f"drift_h2 {summary['drift_h2']!r} <= {H2_DRIFT_MIN}")
    return fails


def check_verify(code, payload) -> list:
    fails = _exit(code)
    if payload is None:
        return fails + ["no verify output"]
    if payload.get("passed") is not True:
        fails.append(f"invariant suite failed at {payload.get('first_failure')!r}")
    return fails


def check_embed(code, payload) -> list:
    fails = _exit(code)
    if payload is None:
        return fails + ["no embed output"]
    try:
        passes = payload["solved"]["verify"]["passes"]
    except (KeyError, TypeError):
        return fails + ["embed output lacks solved.verify.passes"]
    if passes is not True:
        fails.append("solved map fails verify_map")
    return fails
