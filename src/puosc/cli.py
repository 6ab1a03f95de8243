"""Command-line interface: reproducible experiments over the library.

Subcommands

    verify    run the full invariant suite, emit a pass/fail JSON report
    simulate  integrate one trajectory, write CSV, print a JSON summary
    embed     solve one two-dimensional family and report the comparison
    scan      threshold search over the quartic coupling
    modes     mode amplitudes and energies of an initial state

Exit codes: 0 success, 1 invariant failure, 2 usage/config error,
3 numerical failure, 4 degenerate scan (all bounded or all unbounded).
Identical configs (including the seed) produce byte-identical outputs on one
platform; every output embeds its config and the library version.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from typing import Optional

import numpy as np

from . import __version__, core, dynamics, embedding, symmetry
from .config import (
    DEFAULT_SAMPLE_RATE,
    DEFAULT_SEED,
    DEFAULT_T_END,
    DEFAULT_TOL,
    SCAN_BISECT_ITERS,
    SCAN_GRID_POINTS,
    SUITE_LAMBDA,
)
from .core import JetState, OstroState, PUParams
from .errors import (
    DegenerateFrequenciesError,
    PreconditionViolatedError,
    PuoscError,
    ScanDegenerateError,
    StepUnderflowError,
)

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_SCAN_DEGENERATE = 4


# ---------------------------------------------------------------------------
# configuration and output
# ---------------------------------------------------------------------------

def _config(args) -> dict:
    """The subcommand's parsed flags, defaults included: the config that
    every output echoes and that the run is reproducible from."""
    return {k: v for k, v in vars(args).items()
            if k not in ("func", "command")}


def _initial_state(args, params: PUParams) -> JetState:
    if args.chart == "jet":
        return JetState(args.q0, args.qd0, args.qdd0, args.qddd0)
    return core.ostro_to_jet(
        params, OstroState(args.x1, args.x2, args.p1, args.p2))


def _escape_radius(args, z0: JetState) -> float:
    if args.escape_radius is not None:
        return args.escape_radius
    return dynamics.default_escape_radius(z0)


def _json_text(payload: dict) -> str:
    """Sorted, indented JSON; a NaN or infinity is a numerical failure."""
    try:
        return json.dumps(payload, indent=2, sort_keys=True,
                          allow_nan=False) + "\n"
    except ValueError as exc:
        raise ArithmeticError(f"non-finite value in output ({exc})") from None


def _emit_json(payload: dict, out: Optional[str]) -> None:
    text = _json_text(payload)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _random_params(rng) -> PUParams:
    while True:
        w1, w2 = rng.uniform(0.1, 10.0, 2)
        if abs(w1 - w2) > 0.05:
            return core.make_params(w1, w2)


def _check_suite_args(lam: float, seed: int) -> None:
    if not lam > 0.0:
        raise PreconditionViolatedError(
            "lambda must be positive: the interacting check needs a coupling")
    if seed < 0:
        raise PreconditionViolatedError("seed must be non-negative")


def run_invariant_suite(params: PUParams, lam: float = SUITE_LAMBDA,
                        seed: int = DEFAULT_SEED, n_draws: int = 100) -> dict:
    """Every structural identity of the library as one pass/fail report.

    Randomized sections draw n_draws frequency pairs from (0.1, 10) with
    separation > 0.05, all driven by one seed; the interacting check runs
    at coupling lam.  Raises PreconditionViolatedError unless lam > 0 and
    seed >= 0.
    """
    _check_suite_args(lam, seed)
    rng = np.random.default_rng(seed)
    checks = []

    def record(name: str, passed: bool, detail: dict) -> None:
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    sigma_eps = symmetry.resolve_structure_signs(params)
    record("sign_resolution", sigma_eps == (1, -1), {"sigma_eps": list(sigma_eps)})

    draws = [_random_params(rng) for _ in range(n_draws)]
    worst_h = worst_bi = worst_comp = 0.0
    for par in draws:
        A = core.flow_matrix(par)
        scale = max(1.0, float(np.linalg.norm(A)))
        worst_h = max(worst_h, float(np.linalg.norm(
            core.j1(par).j @ core.h1(par).coeffs - A)) / scale)
        worst_bi = max(worst_bi, float(np.linalg.norm(
            core.j2(par).j @ core.h2(par).coeffs - A)) / scale)
        S1, S2, J1 = core.h1(par).coeffs, core.h2(par).coeffs, core.j1(par).j
        cscale = max(1.0, float(np.linalg.norm(S1) * np.linalg.norm(S2)))
        worst_comp = max(worst_comp, float(np.linalg.norm(
            S1 @ J1 @ S2 - S2 @ J1 @ S1)) / cscale)
    record("hamilton_identity", worst_h < 1e-12, {"max_residual": worst_h})
    record("bihamilton_identity", worst_bi < 1e-12, {"max_residual": worst_bi})
    record("compatibility", worst_comp < 1e-12, {"max_residual": worst_comp})

    A = core.flow_matrix(params)
    worst_blend = 0.0
    n_blend = 0
    for c1 in np.linspace(-2, 2, 20):
        for c2 in np.linspace(-2, 2, 20):
            try:
                J = core.blend_j(params, float(c1), float(c2)).j
            except PuoscError:
                continue
            S = core.blend_h(params, float(c1), float(c2)).coeffs
            bscale = max(1.0, float(np.linalg.norm(J) * np.linalg.norm(S)))
            worst_blend = max(worst_blend,
                              float(np.linalg.norm(J @ S - A)) / bscale)
            n_blend += 1
    record("blend_grid", worst_blend < 1e-10 and n_blend > 300,
           {"max_residual": worst_blend, "points": n_blend})

    J1o = core.transport_tensor(params, core.j1(params), "ostrogradsky")
    d1 = float(np.max(np.abs(J1o.j - core.j1(params, chart="ostrogradsky").j)))
    H1o = core.transport_observable(params, core.h1(params), "ostrogradsky")
    d2 = float(np.max(np.abs(H1o.coeffs - core.h1_ostro_matrix(params))))
    record("chart_covariance", max(d1, d2) < 1e-12, {"max_delta": max(d1, d2)})
    record("h1_linear_in_p1", H1o.coeffs[2, 2] == 0.0,
           {"p1_squared_coefficient": float(H1o.coeffs[2, 2])})

    dims = []
    worst_proj = worst_comm = 0.0
    for par in draws[:50]:
        A = core.flow_matrix(par)
        basis = symmetry.commutant_basis(A)
        dims.append(basis.dimension)
        # both residuals are already relative to their operands (unit
        # generators, |g|), so they measure the basis's own error; the basis
        # is a numerical null space of X -> AX - XA, whose rounding error
        # grows with |A|, and that growth is divided out
        scale = max(1.0, float(np.linalg.norm(A)))
        worst_comm = max(worst_comm,
                         symmetry.max_pairwise_commutator(basis) / scale)
        for g in symmetry.known_generators(par).generators:
            worst_proj = max(worst_proj,
                             symmetry.projection_residual(basis, g.xi) / scale)
    record("commutant_dimension", all(d == 4 for d in dims),
           {"dimensions": sorted(set(dims))})
    record("commutant_abelian", worst_comm < 1e-12, {"max_commutator": worst_comm})
    record("generator_projection", worst_proj < 1e-12, {"max_residual": worst_proj})

    charges = symmetry.symmetry_charges(params)
    H1n = float(np.linalg.norm(core.h1(params).coeffs))
    a_ok = (np.linalg.norm(charges[0]["charge"].coeffs) < 1e-12 * H1n
            and np.allclose(charges[1]["charge"].coeffs,
                            core.h1(params).coeffs, atol=1e-13)
            and np.linalg.norm(charges[3]["charge"].coeffs) < 1e-10 * H1n
            and abs(charges[2]["h2_coefficient"] + params.beta)
            <= 1e-10 * params.beta
            and charges[2]["h2_fit_residual"] < 1e-10)
    record("symmetry_actions", a_ok, {
        "x3_coefficient": charges[2]["h2_coefficient"],
        "x3_fit_residual": charges[2]["h2_fit_residual"],
    })

    free_basis = symmetry.invariant_tensor_space(core.free_vector_field(params))
    r1 = symmetry.tensor_projection_residual(free_basis, core.j1(params))
    r2 = symmetry.tensor_projection_residual(free_basis, core.j2(params))
    record("invariant_tensors_free",
           len(free_basis) == 2 and max(r1, r2) < 1e-10,
           {"dimension": len(free_basis), "j1_residual": r1, "j2_residual": r2})

    field = dynamics.field_for(params, dynamics.quartic(lam))
    pts = symmetry.default_sample_points(10, seed)
    int_basis = symmetry.invariant_tensor_space(field, pts)
    ri1 = symmetry.tensor_projection_residual(int_basis, core.j1(params))
    ri2 = symmetry.tensor_projection_residual(int_basis, core.j2(params))
    record("invariant_tensors_interacting",
           len(int_basis) == 1 and ri1 < 1e-10 and ri2 > 1e-3,
           {"lambda": lam, "dimension": len(int_basis),
            "j1_residual": ri1, "j2_residual": ri2})

    rec = embedding.reconciliation_report(params, n_draws=5, seed=seed)
    solved_ok = all(
        row.get("solved_passes", True)
        for fam in rec["families"].values() for row in fam["rows"]
        if isinstance(row.get("solved"), dict)
    )
    record("embedding_reconciliation", solved_ok, {
        "discrepant_tabulated_rows": {
            f: rec["families"][f]["discrepant_tabulated_rows"]
            for f in rec["families"]},
    })

    m1 = dynamics.mode_decompose(params, JetState(1, 0, -params.omega1 ** 2, 0))
    e1 = dynamics.mode_energy(params, m1)["total"]
    h1v = core.h1(params).value(JetState(1, 0, -params.omega1 ** 2, 0))
    record("mode_energy_identity", abs(e1 - h1v) < 1e-10 * max(1, abs(h1v)),
           {"total": e1, "h1": h1v})

    passed = all(c["passed"] for c in checks)
    first_failure = next((c["name"] for c in checks if not c["passed"]), None)
    return {"passed": passed, "first_failure": first_failure, "checks": checks}


def cmd_verify(args) -> int:
    _check_suite_args(args.lam, args.seed)   # a bad flag exits 2 first
    try:
        params = core.make_params(args.omega1, args.omega2)
    except DegenerateFrequenciesError as exc:
        _emit_json({"passed": False, "first_failure": "degenerate-frequencies",
                    "error": str(exc), "config": _config(args),
                    "version": __version__}, args.out)
        return EXIT_INVARIANT
    report = run_invariant_suite(params, lam=args.lam, seed=args.seed)
    report["config"] = _config(args)
    report["version"] = __version__
    _emit_json(report, args.out)
    return EXIT_OK if report["passed"] else EXIT_INVARIANT


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    params = core.make_params(args.omega1, args.omega2)
    z0 = _initial_state(args, params)
    # lambda = 0 keeps the free field, with no W' call per RHS evaluation
    potential = dynamics.quartic(args.lam) if args.lam != 0.0 else None
    traj = dynamics.integrate(params, dynamics.field_for(params, potential),
                              z0, args.t_end, args.tol,
                              sample_rate=args.sample_rate,
                              escape_radius=_escape_radius(args, z0))

    config = _config(args)
    out_path = args.out or "pu_trajectory.csv"
    summary = _json_text({
        "bounded": not traj.escaped,
        "escape_time": traj.meta["escape_time"],
        "drift_h1": traj.drift("h1"),
        "drift_h2": traj.drift("h2"),
        "drift_hint": traj.drift("hint"),
        "n_steps": traj.meta["n_steps"],
        "out": out_path,
        "config": config,
        "version": __version__,
    })  # before any output, so a non-finite drift writes no file
    header = [
        "# puosc trajectory",
        f"# version: {__version__}",
        "# config: " + json.dumps(config, sort_keys=True),
    ]
    if args.fmt == "csv":
        rows = dynamics.trajectory_csv_rows(params, traj)
        with open(out_path, "w") as fh:
            fh.write("\n".join(header) + "\n")
            fh.write(dynamics.CSV_HEADER + "\n")
            fh.write("\n".join(rows) + "\n")
    else:
        payload = {
            "config": config, "version": __version__,
            "times": traj.times.tolist(),
            "states": traj.states.tolist(),
            "h1": traj.h1_series.tolist(),
            "h2": traj.h2_series.tolist(),
            "hint": traj.hint_series.tolist(),
            "meta": traj.meta,
        }
        _emit_json(payload, out_path)
    sys.stdout.write(summary)
    return EXIT_OK


# ---------------------------------------------------------------------------
# embed
# ---------------------------------------------------------------------------

def _map_payload(m: embedding.TransformMap) -> dict:
    v = embedding.verify_map(m)
    return {
        "mu0": m.mu0, "mu2": m.mu2, "nu0": m.nu0, "nu2": m.nu2,
        "model": dataclasses.asdict(m.model),
        "singular": m.singular,
        "verify": {
            "passes": v.passes,
            "contract": v.contract,
            "phi1": dataclasses.asdict(v.phi1),
            "phi2": dataclasses.asdict(v.phi2),
        },
    }


def cmd_embed(args) -> int:
    family = args.family.capitalize()  # ta1 -> Ta1
    branch = +1 if args.branch == "+" else -1
    supplied = {"a_x": args.ax, "a_y": args.ay, "b_x": args.bx,
                "b_y": args.by, "g": args.g}
    free = {k: v for k, v in supplied.items() if v is not None}
    params = core.make_params(args.omega1, args.omega2)
    solved = embedding.solve_family(family, branch, free, params)
    payload = {
        "config": _config(args), "version": __version__,
        "family": family, "branch": branch, "free": free,
        "solved": _map_payload(solved),
    }
    try:
        tab = embedding.tabulated_family(family, branch, free, params)
        payload["tabulated"] = _map_payload(tab)
        payload["delta"] = {
            k: payload["tabulated"][k] - payload["solved"][k]
            for k in ("mu0", "mu2", "nu0", "nu2")
        }
    except PuoscError as exc:
        payload["tabulated"] = f"unavailable: {exc}"

    try:
        push = embedding.pushforward_poisson(solved)
        payload["pushforward"] = push.j.tolist()
        payload["qqdot_component"] = embedding.qqdot_component(push)
        payload["singular_pushforward"] = False
    except PuoscError as exc:
        payload["pushforward"] = None
        payload["singular_pushforward"] = True
        payload["pushforward_note"] = str(exc)

    rep = embedding.pullback_hamiltonian(solved)
    if rep.degenerate:
        payload["pullback"] = {"degenerate": True, "note": rep.note}
    else:
        pos = embedding.positivity(params, rep.observable)
        payload["pullback"] = {
            "degenerate": False,
            "fitted_c1": rep.fitted.c1, "fitted_c2": rep.fitted.c2,
            "fit_residual": rep.fit_residual,
            "tabulated_c1": rep.tabulated.c1,
            "tabulated_c2": rep.tabulated.c2,
            "delta_c1": rep.fitted.c1 - rep.tabulated.c1,
            "delta_c2": rep.fitted.c2 - rep.tabulated.c2,
            "positive_definite": pos.positive_definite,
            "eigenvalues": list(pos.eigenvalues),
        }

    _emit_json(payload, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def cmd_scan(args) -> int:
    params = core.make_params(args.omega1, args.omega2)
    z0 = _initial_state(args, params)
    try:
        report = dynamics.threshold_search(
            params, z0, args.t_end, _escape_radius(args, z0),
            (args.lambda_min, args.lambda_max),
            grid_points=args.grid_points, bisect_iters=args.bisect_iters,
            tol=args.tol)
    except ScanDegenerateError as exc:
        payload = {
            "config": _config(args), "version": __version__,
            "degenerate": exc.kind,
            "grid": [dataclasses.asdict(gp) for gp in (exc.grid or [])],
        }
        _emit_json(payload, args.out)
        return EXIT_SCAN_DEGENERATE

    payload = {
        "config": _config(args), "version": __version__,
        "lambda_star": report.lambda_star,
        "monotone": report.monotone,
        "caveat": report.caveat,
        "settings": report.settings,
        "grid": [dataclasses.asdict(gp) for gp in report.grid],
    }
    _emit_json(payload, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

def cmd_modes(args) -> int:
    params = core.make_params(args.omega1, args.omega2)
    z0 = _initial_state(args, params)
    m = dynamics.mode_decompose(params, z0)
    e = dynamics.mode_energy(params, m)
    payload = {
        "config": _config(args), "version": __version__,
        "a1": {"re": m.a1.real, "im": m.a1.imag, "abs": abs(m.a1)},
        "a2": {"re": m.a2.real, "im": m.a2.imag, "abs": abs(m.a2)},
        "e1": e["e1"], "e2": e["e2"], "total": e["total"],
        "h1": core.h1(params).value(z0),
        "h2": core.h2(params).value(z0),
    }
    _emit_json(payload, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _finite_float(text: str) -> float:
    """argparse type of every float flag: NaN and inf are usage errors."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


_finite_float.__name__ = "finite float"  # named in argparse's error message


def _add_frequencies(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--omega1", type=_finite_float, default=1.0)
    sp.add_argument("--omega2", type=_finite_float, default=2.0)


def _add_coupling(sp: argparse.ArgumentParser, default: float) -> None:
    sp.add_argument("--lambda", dest="lam", type=_finite_float,
                    default=default, help="quartic coupling strength")


def _add_state(sp: argparse.ArgumentParser) -> None:
    for name in ("q0", "qd0", "qdd0", "qddd0", "x1", "x2", "p1", "p2"):
        sp.add_argument(f"--{name}", type=_finite_float, default=0.0)
    sp.add_argument("--chart", choices=("jet", "ostro"), default="jet",
                    help="which set of initial-state flags to read")


def _add_integrator(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--t-end", dest="t_end", type=_finite_float,
                    default=DEFAULT_T_END)
    sp.add_argument("--tol", type=_finite_float, default=DEFAULT_TOL)
    sp.add_argument("--escape-radius", dest="escape_radius",
                    type=_finite_float, default=None)


def _add_output(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--out", type=str, default=None)


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, each with only the flags it reads."""
    ap = argparse.ArgumentParser(
        prog="puosc",
        description="fourth-order two-frequency oscillator experiments",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("verify", help="run the invariant suite")
    _add_frequencies(sp)
    _add_coupling(sp, default=SUITE_LAMBDA)
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_output(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("simulate", help="integrate one trajectory to CSV")
    _add_frequencies(sp)
    _add_coupling(sp, default=0.0)
    _add_state(sp)
    _add_integrator(sp)
    sp.add_argument("--sample-rate", dest="sample_rate", type=_finite_float,
                    default=DEFAULT_SAMPLE_RATE)
    _add_output(sp)
    sp.add_argument("--format", dest="fmt", choices=("csv", "json"),
                    default="csv")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("embed", help="two-dimensional family report")
    _add_frequencies(sp)
    _add_output(sp)
    sp.add_argument("--family", required=True,
                    choices=("ta1", "ta2", "tb1", "tb2"))
    sp.add_argument("--branch", choices=("+", "-"), default="+")
    for name in ("ax", "ay", "bx", "by", "g"):
        sp.add_argument(f"--{name}", type=_finite_float, default=None)
    sp.set_defaults(func=cmd_embed)

    sp = sub.add_parser("scan", help="coupling-threshold search")
    _add_frequencies(sp)
    _add_state(sp)
    _add_integrator(sp)
    _add_output(sp)
    sp.add_argument("--lambda-min", dest="lambda_min", type=_finite_float,
                    default=0.0)
    sp.add_argument("--lambda-max", dest="lambda_max", type=_finite_float,
                    default=10.0)
    sp.add_argument("--grid-points", dest="grid_points", type=int,
                    default=SCAN_GRID_POINTS)
    sp.add_argument("--bisect-iters", dest="bisect_iters", type=int,
                    default=SCAN_BISECT_ITERS)
    sp.set_defaults(func=cmd_scan)

    sp = sub.add_parser("modes", help="mode amplitudes of an initial state")
    _add_frequencies(sp)
    _add_state(sp)
    _add_output(sp)
    sp.set_defaults(func=cmd_modes)

    return ap


# (error classes, exit code, stderr line); the first isinstance match wins
_EXIT_TABLE = (
    ((StepUnderflowError, ArithmeticError), EXIT_NUMERICAL,
     "numerical failure: {exc}"),
    ((DegenerateFrequenciesError, PreconditionViolatedError), EXIT_USAGE,
     "error: {exc}"),
    (OSError, EXIT_NUMERICAL, "io error: {exc}"),
    (PuoscError, EXIT_NUMERICAL, "error: {exc}"),
    # anything else is a defect, not a verdict on the input: never exit 1
    (Exception, EXIT_NUMERICAL, "internal error: {kind}: {exc}"),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a non-finite result is reported by the exit table's one line, not
        # also by a numpy warning
        with np.errstate(all="ignore"):
            return args.func(args)
    except Exception as exc:
        for kind, code, line in _EXIT_TABLE:
            if isinstance(exc, kind):
                print(line.format(exc=exc, kind=type(exc).__name__),
                      file=sys.stderr)
                return code

if __name__ == "__main__":
    sys.exit(main())
