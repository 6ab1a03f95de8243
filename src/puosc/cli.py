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

A command imports the modules it uses when it runs.  scan computes on Python
floats and imports no numpy; the other commands import it and run under
np.errstate(all="ignore") (see _array_command).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from typing import Optional

# dynamics is imported here, not in cmd_scan, so that a tracer that wraps
# its functions once the CLI is imported also wraps the first scan's
from . import __version__, dynamics
from .config import (
    DEFAULT_SAMPLE_RATE,
    DEFAULT_SEED,
    DEFAULT_T_END,
    DEFAULT_TOL,
    EPS_ALGEBRA,
    SCAN_BISECT_ITERS,
    SCAN_GRID_POINTS,
    SUITE_DRAWS,
    SUITE_LAMBDA,
)
from .errors import (
    DegenerateFrequenciesError,
    DegenerateModelError,
    PreconditionViolatedError,
    PuoscError,
    ScanDegenerateError,
    StepUnderflowError,
)
from .model import JetState, OstroState, PUParams, make_params, ostro_to_jet

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
            if k != "command"}


# the initial-state flags of each --chart value, in the state's field order
_STATE_FLAGS = {"jet": ("q0", "qd0", "qdd0", "qddd0"),
                "ostro": ("x1", "x2", "p1", "p2")}


def _initial_state(args, params: PUParams) -> JetState:
    """The state the --chart flags give; a nonzero flag of the other chart
    is a usage error, as the run would echo a value it never read."""
    other = "ostro" if args.chart == "jet" else "jet"
    for name in _STATE_FLAGS[other]:
        if getattr(args, name) != 0.0:
            raise PreconditionViolatedError(
                f"--{name} belongs to --chart {other}, but --chart is "
                f"{args.chart}")
    values = [getattr(args, name) for name in _STATE_FLAGS[args.chart]]
    if args.chart == "jet":
        return JetState(*values)
    return ostro_to_jet(params, OstroState(*values))


def _escape_radius(args, z0: JetState) -> float:
    if args.escape_radius is not None:
        return args.escape_radius
    return dynamics.default_escape_radius(z0)


def _non_finite_path(value, path: str = "") -> Optional[str]:
    """Key path, such as "pullback.eigenvalues[1]", of the first NaN or
    infinity in json.dumps's sorted-key order; None when there is none."""
    if isinstance(value, float):
        return None if math.isfinite(value) else path
    if isinstance(value, dict):
        items = [(f"{path}.{k}" if path else str(k), value[k])
                 for k in sorted(value)]
    elif isinstance(value, (list, tuple)):
        items = [(f"{path}[{i}]", v) for i, v in enumerate(value)]
    else:
        return None
    for sub_path, sub in items:
        found = _non_finite_path(sub, sub_path)
        if found is not None:
            return found
    return None


def _json_text(payload: dict) -> str:
    """Sorted, indented JSON; a NaN or infinity is a numerical failure, and
    its error names the first non-finite field."""
    try:
        return json.dumps(payload, indent=2, sort_keys=True,
                          allow_nan=False) + "\n"
    except ValueError as exc:
        field = _non_finite_path(payload)
        where = f" at {field}" if field else ""
        raise ArithmeticError(
            f"non-finite value in output{where} ({exc})") from None


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

def _random_params(rng, n: int) -> list:
    """n frequency pairs from (0.1, 10) with separation > 0.05.  Each pass
    draws the pairs still missing as one (k, 2) array, which is the stream
    of k draws of one pair each, so no pair is drawn beyond the n-th kept."""
    draws = []
    while len(draws) < n:
        pairs = rng.uniform(0.1, 10.0, (n - len(draws), 2)).tolist()
        draws += [make_params(w1, w2) for w1, w2 in pairs
                  if abs(w1 - w2) > 0.05]
    return draws


def _check_suite_args(lam: float, seed: int) -> None:
    if not lam > 0.0:
        raise PreconditionViolatedError(
            "lambda must be positive: the interacting check needs a coupling")
    if seed < 0:
        raise PreconditionViolatedError("seed must be non-negative")


def _entrywise_residual(M, T) -> float:
    """Largest |M - T| / max(|M|, |T|) over the entries where M - T != 0."""
    import numpy as np
    with np.errstate(invalid="ignore"):    # inf - inf is a NaN residual
        d = np.abs(M - T)
    return float(np.divide(d, np.maximum(np.abs(M), np.abs(T)),
                           out=np.zeros_like(d), where=d != 0).max())


def run_invariant_suite(params: PUParams, lam: float = SUITE_LAMBDA,
                        seed: int = DEFAULT_SEED) -> dict:
    """Every structural identity of the library as one pass/fail report.

    Randomized sections draw SUITE_DRAWS frequency pairs from (0.1, 10) with
    separation > 0.05, all driven by one seed; the interacting check runs
    at coupling lam.  Raises PreconditionViolatedError unless lam > 0 and
    seed >= 0.
    """
    import numpy as np

    from . import core, embedding, symmetry

    _check_suite_args(lam, seed)
    rng = np.random.default_rng(seed)
    checks = []

    def record(name: str, passed: bool, detail: dict) -> None:
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    # X3 generates the second structure; compared entrywise with no absolute
    # floor, which would hide the order-1 dq^dqd block next to beta
    J2g, S2g = symmetry.generated_structure(params)
    gen = {"j2_residual": _entrywise_residual(J2g, core.j2(params).j),
           "h2_residual": _entrywise_residual(S2g, core.h2(params).coeffs)}
    record("symmetry_generated_structure",
           all(r <= EPS_ALGEBRA for r in gen.values()), gen)

    # the draws' matrices as stacks, from one builder call each;
    # core._frobenius sums each matrix as numpy.linalg.norm sums one, so
    # every residual is the per-draw one bit for bit, and no norm overflows
    draws = _random_params(rng, SUITE_DRAWS)
    alpha = np.array([par.alpha for par in draws])
    As, S1, S2, J1, J2 = core._structure_stack(
        alpha, [par.beta for par in draws])
    fro = core._frobenius
    scale = np.maximum(1.0, fro(As))
    worst_h = float((fro(J1 @ S1 - As) / scale).max(initial=0.0))
    worst_bi = float((fro(J2 @ S2 - As) / scale).max(initial=0.0))
    cscale = np.maximum(1.0, fro(S1) * fro(S2))
    worst_comp = float((fro(S1 @ J1 @ S2 - S2 @ J1 @ S1) / cscale)
                       .max(initial=0.0))
    record("hamilton_identity", worst_h < 1e-12, {"max_residual": worst_h})
    record("bihamilton_identity", worst_bi < 1e-12, {"max_residual": worst_bi})
    record("compatibility", worst_comp < 1e-12, {"max_residual": worst_comp})

    # the 20x20 blend grid as one stacked solve; points with no tensor masked
    A = core.flow_matrix(params)
    grid = np.linspace(-2, 2, 20)
    S = core._blend_hessians(params, np.repeat(grid, 20), np.tile(grid, 20))
    J, valid, _, _ = core._solve_stack(A, S)
    J, S = J[valid], S[valid]
    residuals = fro(J @ S - A) / np.maximum(1.0, fro(J) * fro(S))
    worst_blend = float(residuals.max(initial=0.0))
    n_blend = int(valid.sum())
    record("blend_grid", worst_blend < 1e-10 and n_blend > 300,
           {"max_residual": worst_blend, "points": n_blend})

    J1o = core.transport_tensor(params, core.j1(params), "ostrogradsky")
    d1 = float(np.max(np.abs(J1o.j - core.j1(params, chart="ostrogradsky").j)))
    H1o = core.transport_observable(params, core.h1(params), "ostrogradsky")
    d2 = float(np.max(np.abs(H1o.coeffs - core.h1_ostro_matrix(params))))
    record("chart_covariance", max(d1, d2) < 1e-12, {"max_delta": max(d1, d2)})
    record("h1_linear_in_p1", H1o.coeffs[2, 2] == 0.0,
           {"p1_squared_coefficient": float(H1o.coeffs[2, 2])})

    known = symmetry._known_stack(As[:50], alpha[:50])
    dims, comm, proj = symmetry._commutant_checks(As[:50], known)
    # both residuals are already relative to their operands (unit
    # generators, |g|), so they measure the basis's own error; the basis
    # is a numerical null space of X -> AX - XA, whose rounding error
    # grows with |A|, and that growth is divided out
    worst_comm = float((comm / scale[:50]).max(initial=0.0))
    worst_proj = float((proj / scale[:50]).max(initial=0.0))
    record("commutant_dimension", bool((dims == 4).all()),
           {"dimensions": sorted(set(dims.tolist()))})
    record("commutant_abelian", worst_comm < 1e-12, {"max_commutator": worst_comm})
    record("generator_projection", worst_proj < 1e-12, {"max_residual": worst_proj})

    charges = symmetry.symmetry_charges(params)
    S1 = core.h1(params).coeffs
    n0, n1, n3, H1n = fro(np.stack([charges[0], charges[1] - S1, charges[3],
                                    S1]))
    a_ok = n0 < 1e-12 * H1n and n1 <= 1e-13 * H1n and n3 < 1e-10 * H1n
    record("symmetry_actions", a_ok, {})

    free_basis = symmetry.invariant_tensor_space(core.free_vector_field(params))
    r1 = symmetry.projection_residual(free_basis, core.j1(params).j)
    r2 = symmetry.projection_residual(free_basis, core.j2(params).j)
    record("invariant_tensors_free",
           len(free_basis) == 2 and max(r1, r2) < 1e-10,
           {"dimension": len(free_basis), "j1_residual": r1, "j2_residual": r2})

    field = dynamics.field_for(params, dynamics.quartic(lam))
    pts = symmetry.default_sample_points(10, seed)
    int_basis = symmetry.invariant_tensor_space(field, pts)
    ri1 = symmetry.projection_residual(int_basis, core.j1(params).j)
    ri2 = symmetry.projection_residual(int_basis, core.j2(params).j)
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


def _array_command(command):
    """command as a command that computes on numpy arrays: numpy is imported
    when it runs, and it runs under np.errstate(all="ignore"), so that a
    non-finite result is reported by the exit table's one line, not also by
    a numpy warning."""
    @functools.wraps(command)
    def run(args) -> int:
        import numpy as np
        with np.errstate(all="ignore"):
            return command(args)
    return run


@_array_command
def cmd_verify(args) -> int:
    _check_suite_args(args.lam, args.seed)   # a bad flag exits 2 first
    params = make_params(args.omega1, args.omega2)
    report = run_invariant_suite(params, lam=args.lam, seed=args.seed)
    report["config"] = _config(args)
    report["version"] = __version__
    _emit_json(report, args.out)
    return EXIT_OK if report["passed"] else EXIT_INVARIANT


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

@_array_command
def cmd_simulate(args) -> int:
    params = make_params(args.omega1, args.omega2)
    z0 = _initial_state(args, params)
    # lambda = 0 runs the free field, so meta["interacting"] is False
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
        "n_rejected": traj.meta["n_rejected"],
        "n_rhs": traj.meta["n_rhs"],
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

def _map_payload(m) -> dict:
    """The JSON of an embedding.TransformMap and of its verify_map verdict."""
    from . import embedding
    v = embedding.verify_map(m)
    return {
        "mu0": m.mu0, "mu2": m.mu2, "nu0": m.nu0, "nu2": m.nu2,
        "model": vars(m.model),
        "singular": m.singular,
        "verify": {
            "passes": v.passes,
            "contract": v.contract,
            "phi1": vars(v.phi1),
            "phi2": vars(v.phi2),
        },
    }


@_array_command
def cmd_embed(args) -> int:
    from . import embedding

    family = args.family.capitalize()  # ta1 -> Ta1
    branch = +1 if args.branch == "+" else -1
    supplied = {"a_x": args.ax, "a_y": args.ay, "b_x": args.bx,
                "b_y": args.by, "g": args.g}
    free = {k: v for k, v in supplied.items() if v is not None}
    params = make_params(args.omega1, args.omega2)
    solved = embedding.solve_family(family, branch, free, params)
    payload = {
        "config": _config(args), "version": __version__,
        "family": family, "branch": branch, "free": free,
        "solved": _map_payload(solved),
    }
    try:
        tab = _map_payload(
            embedding.tabulated_family(family, branch, free, params))
    except PuoscError as exc:
        payload["tabulated"] = f"unavailable: {exc}"
    else:
        # a comparison row whose off-shell check overflows is not written
        field = _non_finite_path(tab)
        if field is not None:
            payload["tabulated"] = ("unavailable: non-finite value in the "
                                    f"tabulated row at {field}")
        else:
            payload["tabulated"] = tab
            payload["delta"] = {k: tab[k] - payload["solved"][k]
                                for k in ("mu0", "mu2", "nu0", "nu2")}

    try:
        push = embedding.pushforward_poisson(solved)
        payload["pushforward"] = push.j.tolist()
        payload["qqdot_component"] = embedding.qqdot_component(push)
        payload["singular_pushforward"] = False
    except PuoscError as exc:
        payload["pushforward"] = None
        payload["singular_pushforward"] = True
        payload["pushforward_note"] = str(exc)

    try:
        observable, c1, c2, res = embedding.pullback_hamiltonian(solved)
    except DegenerateModelError as exc:
        payload["pullback"] = {"degenerate": True, "note": str(exc)}
    else:
        pos = embedding.positivity(params, observable)
        payload["pullback"] = {
            "degenerate": False,
            "fitted_c1": c1, "fitted_c2": c2, "fit_residual": res,
            # det S = det(C)^4 det(B) a_x a_y: 0 for a singular map
            "positive_definite": pos.positive_definite and not solved.singular,
            "eigenvalues": list(pos.eigenvalues),
        }
        try:
            t1, t2 = embedding.tabulated_blend_coefficients(solved)
        except PuoscError as exc:
            payload["pullback"]["tabulated"] = f"unavailable: {exc}"
        else:
            payload["pullback"].update({
                "tabulated_c1": t1, "tabulated_c2": t2,
                "delta_c1": c1 - t1, "delta_c2": c2 - t2})

    _emit_json(payload, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def cmd_scan(args) -> int:
    params = make_params(args.omega1, args.omega2)
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
            "grid": [vars(gp) for gp in exc.grid],
        }
        _emit_json(payload, args.out)
        return EXIT_SCAN_DEGENERATE

    payload = {
        "config": _config(args), "version": __version__,
        "lambda_star": report.lambda_star,
        "monotone": report.monotone,
        "caveat": report.caveat,
        "settings": report.settings,
        "grid": [vars(gp) for gp in report.grid],
        "refine": report.refine,
    }
    _emit_json(payload, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

@_array_command
def cmd_modes(args) -> int:
    from . import core

    params = make_params(args.omega1, args.omega2)
    z0 = _initial_state(args, params)
    a1, a2 = m = dynamics.mode_decompose(params, z0)
    e = dynamics.mode_energy(params, m)
    payload = {
        "config": _config(args), "version": __version__,
        "a1": {"re": a1.real, "im": a1.imag, "abs": abs(a1)},
        "a2": {"re": a2.real, "im": a2.imag, "abs": abs(a2)},
        "e1": e["e1"], "e2": e["e2"], "total": e["total"],
        "h1": core.h1(params).value(z0),
        "h2": core.h2(params).value(z0),
    }
    _emit_json(payload, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads a negative number in exponent form, such as
    the "-1e-05" of "--g -1e-05", as a value.  argparse's own pattern of a
    negative number has no exponent, so it read "-1e-05" as a flag.
    Subparsers are made of the same class.  "-inf" is still a flag.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


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
    for name in (*_STATE_FLAGS["jet"], *_STATE_FLAGS["ostro"]):
        sp.add_argument(f"--{name}", type=_finite_float, default=0.0)
    sp.add_argument("--chart", choices=tuple(_STATE_FLAGS), default="jet",
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
    """A fresh parser: one subparser per command, each with only the flags
    it reads.  `main` parses with the one built at import, `_PARSER`; call
    this for a parser of your own.  It binds no handler: `main` looks up
    `cmd_<command>` when it runs."""
    ap = _Parser(
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

    sp = sub.add_parser("embed", help="two-dimensional family report")
    _add_frequencies(sp)
    _add_output(sp)
    sp.add_argument("--family", required=True,
                    choices=("ta1", "ta2", "tb1", "tb2"))
    sp.add_argument("--branch", choices=("+", "-"), default="+")
    for name in ("ax", "ay", "bx", "by", "g"):
        sp.add_argument(f"--{name}", type=_finite_float, default=None)

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

    sp = sub.add_parser("modes", help="mode amplitudes of an initial state")
    _add_frequencies(sp)
    _add_state(sp)
    _add_output(sp)

    return ap


# parse_args makes a new Namespace per call and does not change the parser;
# argparse reads the terminal width and sys.stdout/sys.stderr when it prints
_PARSER = build_parser()


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
    args = _PARSER.parse_args(argv)
    # the handler is looked up at call time, so a rebinding of cmd_<command>
    # (a tracer's wrapper, a test's spy) is the function that runs
    handler = globals()[f"cmd_{args.command}"]
    try:
        return handler(args)
    except Exception as exc:
        for kind, code, line in _EXIT_TABLE:
            if isinstance(exc, kind):
                print(line.format(exc=exc, kind=type(exc).__name__),
                      file=sys.stderr)
                return code

if __name__ == "__main__":
    sys.exit(main())
