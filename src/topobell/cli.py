"""Command-line interface: simulate, sweep, optimize, verify.

Angles are radians; append ``deg`` to a value to pass degrees
(``--theta-r 90deg``). All numeric output is printed with 12 fractional
digits in scientific notation so CSV and JSON round-trip well below the
package tolerances, and identical invocations produce byte-identical
output. Exit codes: 0 success, 1 verification or budget failure, 2 usage
error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import chsh, verify
from .entangled import Scenario, TopoPhaseSpec, run_scenario
from .oracle import BudgetExceededError, GridSpec, grid_search_max_S

_TOPO_FLAGS = ("mu", "lambda_l", "lambda_r", "flux", "i_u_l", "i_d_l", "i_u_r", "i_d_r")


class UsageError(ValueError):
    """Invalid flag combination; reported as a single line with exit code 2."""


_ALLOWED_TOPO = {
    Scenario.A: {"mu", "i_u_l", "i_d_l", "i_u_r", "i_d_r"},
    Scenario.B: set(),
    Scenario.C: {"mu", "lambda_l", "lambda_r"},
    Scenario.AB: {"flux"},
}


def _fmt(value: float) -> str:
    return f"{value:.12e}"


def _parse_angle(text: str) -> float:
    """Radians, or degrees with a 'deg' suffix; NaN and inf are rejected."""
    stripped = text.strip()
    if stripped.lower().endswith("deg"):
        value = float(stripped[:-3]) * np.pi / 180.0
    else:
        value = float(stripped)
    if not np.isfinite(value):
        raise ValueError(f"angle must be finite, got {text!r}")
    return value


def _angle_arg(text: str) -> float:
    try:
        return _parse_angle(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid angle {text!r}") from None


def _finite_arg(text: str) -> float:
    """A plain float flag value; NaN and inf are rejected like malformed numbers."""
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"invalid finite number {text!r}")
    return value


def _positive_int_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(f"invalid positive integer {text!r}")
    return value


def _checked_contrast(mu_lambda: float) -> float:
    """c = cos(2*mu*lambda), with the library's rejection as a usage error."""
    try:
        return chsh.contrast(mu_lambda)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _emit_records(records: list[dict], fmt: str) -> None:
    """Print records as CSV (header + rows) or a JSON array of flat objects."""
    if fmt == "csv":
        columns = list(records[0].keys())
        print(",".join(columns))
        for record in records:
            print(",".join(record[c] if isinstance(record[c], str) else _fmt(record[c])
                           for c in columns))
    else:
        rounded = [
            {key: (value if isinstance(value, str) else float(_fmt(value)))
             for key, value in record.items()}
            for record in records
        ]
        print(json.dumps(rounded, indent=2))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topobell",
        description="Entangled two-quanton interferometer simulation and CHSH analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="joint detection probabilities for one scenario")
    sim.add_argument("--scenario", required=True, type=str.upper,
                     choices=[s.value for s in Scenario])
    sim.add_argument("--theta-l", required=True, type=_angle_arg)
    sim.add_argument("--theta-r", required=True, type=_angle_arg)
    sim.add_argument("--mu", type=_finite_arg, default=None)
    sim.add_argument("--lambda-l", type=_finite_arg, default=None)
    sim.add_argument("--lambda-r", type=_finite_arg, default=None)
    sim.add_argument("--flux", type=_finite_arg, default=None)
    sim.add_argument("--i-u-l", type=_finite_arg, default=None)
    sim.add_argument("--i-d-l", type=_finite_arg, default=None)
    sim.add_argument("--i-u-r", type=_finite_arg, default=None)
    sim.add_argument("--i-d-r", type=_finite_arg, default=None)
    sim.add_argument("--format", choices=("json", "csv"), default="json")

    swp = sub.add_parser("sweep", help="sweep mu*lambda and tabulate the S curves")
    swp.add_argument("--min", required=True, type=_finite_arg, help="smallest mu*lambda (radians)")
    swp.add_argument("--max", required=True, type=_finite_arg, help="largest mu*lambda (radians)")
    swp.add_argument("--points", required=True, type=int)
    swp.add_argument("--roles", choices=[r.value for r in chsh.RoleAssignment],
                     default=chsh.RoleAssignment.STANDARD.value)
    swp.add_argument("--format", choices=("csv", "json"), default="csv")
    swp.add_argument("--budget", type=_positive_int_arg, default=GridSpec().budget,
                     help="total grid-search evaluation budget for the sweep")

    opt = sub.add_parser("optimize", help="maximize S at fixed contrast")
    opt.add_argument("--mu", type=_finite_arg, default=1.0)
    opt.add_argument("--lambda-l", type=_finite_arg, default=0.0)
    opt.add_argument("--lambda-r", type=_finite_arg, default=0.0)
    opt.add_argument("--method", choices=("analytic", "grid"), default="analytic")
    opt.add_argument("--roles", choices=[r.value for r in chsh.RoleAssignment],
                     default=chsh.RoleAssignment.STANDARD.value)
    opt.add_argument("--budget", type=_positive_int_arg, default=GridSpec().budget)
    opt.add_argument("--format", choices=("json", "csv"), default="json")

    ver = sub.add_parser("verify", help="run every invariant suite")
    ver.add_argument("--budget", type=_positive_int_arg, default=None,
                     help="random draws for the heavy suites (default 10000)")
    ver.add_argument("--inject-fault", choices=verify.KNOWN_FAULTS, default=None,
                     help="test-harness hook: force a known failure")

    return parser


def _topo_from_flags(args: argparse.Namespace, scenario: Scenario) -> TopoPhaseSpec | None:
    allowed = _ALLOWED_TOPO[scenario]
    for name in _TOPO_FLAGS:
        if getattr(args, name) is not None and name not in allowed:
            flag = "--" + name.replace("_", "-")
            raise UsageError(f"{flag} is not valid for scenario {scenario.value}")
    if scenario is Scenario.B:
        return None
    if scenario is Scenario.A and not any(getattr(args, n) is not None for n in allowed):
        return None
    mu = args.mu if args.mu is not None else 1.0
    try:
        if scenario is Scenario.A:
            return TopoPhaseSpec.path_integrals(
                mu, args.i_u_l or 0.0, args.i_d_l or 0.0,
                args.i_u_r or 0.0, args.i_d_r or 0.0)
        if scenario is Scenario.C:
            return TopoPhaseSpec.spin_conditioned(
                mu, args.lambda_l or 0.0, args.lambda_r or 0.0)
        return TopoPhaseSpec.aharonov_bohm(args.flux or 0.0)
    except ValueError as exc:  # finite flags whose phase products overflow
        raise UsageError(str(exc)) from None


def _cmd_simulate(args: argparse.Namespace) -> int:
    scenario = Scenario(args.scenario)
    topo = _topo_from_flags(args, scenario)
    dist = run_scenario(scenario, args.theta_l, args.theta_r, topo)

    record: dict[str, float | str] = {
        "scenario": scenario.value,
        "theta_l": args.theta_l,
        "theta_r": args.theta_r,
    }
    if scenario is Scenario.C:
        record["mu"] = topo.mu
        record["lambda_l"] = topo.lambda_l
        record["lambda_r"] = topo.lambda_r
        record["mu_lambda"] = topo.mu * (topo.lambda_l - topo.lambda_r)
    elif scenario is Scenario.AB:
        record["flux"] = topo.flux
    elif scenario is Scenario.A and topo is not None:
        record.update(mu=topo.mu, i_u_l=topo.i_u_l, i_d_l=topo.i_d_l,
                      i_u_r=topo.i_u_r, i_d_r=topo.i_d_r)
    p = dist.as_array()
    record.update(
        p_d0p_d0=dist.p_d0p_d0, p_d0p_d1=dist.p_d0p_d1,
        p_d1p_d0=dist.p_d1p_d0, p_d1p_d1=dist.p_d1p_d1,
        expectation=chsh.expectation_from_distribution(dist),
        norm_residual=abs(float(p.sum()) - 1.0),
    )
    _emit_records([record], args.format)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.points < 2:
        raise UsageError("--points must be at least 2")
    if not args.min < args.max:
        raise UsageError("--min must be smaller than --max")
    if not np.isfinite(args.max - args.min):
        raise UsageError("--max - --min must be finite")
    roles = chsh.RoleAssignment(args.roles)
    spec = GridSpec(budget=args.budget)
    needed = args.points * spec.total_evaluations()
    if needed > args.budget:
        print(f"error: sweep needs {needed} grid evaluations, budget is {args.budget}",
              file=sys.stderr)
        return 1

    mu_lambdas = np.linspace(args.min, args.max, args.points)
    contrasts = [_checked_contrast(mu_lambda) for mu_lambda in mu_lambdas]
    records = []
    for mu_lambda, c in zip(mu_lambdas, contrasts):
        search = grid_search_max_S(c, roles, spec)
        records.append({
            "mu_lambda": float(mu_lambda),
            "c": c,
            "s_fixed_angles": chsh.fixed_angle_curve_S(mu_lambda),
            "s_max_analytic": chsh.analytic_max_S(c),
            "s_max_grid": search.best_s,
            "theta_r_opt": chsh.analytic_optimal_angles(mu_lambda).theta_r,
        })
    _emit_records(records, args.format)
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    mu_lambda = args.mu * (args.lambda_l - args.lambda_r)
    roles = chsh.RoleAssignment(args.roles)
    c = _checked_contrast(mu_lambda)
    if args.method == "analytic":
        standard = chsh.analytic_optimal_angles(mu_lambda)
        angles = roles.bell_angles(*chsh.RoleAssignment.STANDARD.slots(standard))
        best_s = chsh.chsh_S(angles, c, roles)
        evaluations = 0
    else:
        try:
            result = grid_search_max_S(c, roles, GridSpec(budget=args.budget))
        except BudgetExceededError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        angles, best_s, evaluations = result.best_angles, result.best_s, result.evaluations

    record = {
        "method": args.method,
        "roles": roles.value,
        "mu_lambda": mu_lambda,
        "c": c,
        "theta_l": angles.theta_l,
        "theta_r": angles.theta_r,
        "theta_lp": angles.theta_lp,
        "theta_rp": angles.theta_rp,
        "s": best_s,
        "evaluations": float(evaluations),
    }
    _emit_records([record], args.format)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    heavy = args.budget
    light = None if args.budget is None else max(1, args.budget // 10)
    results = verify.run_suites(heavy_draws=heavy, light_draws=light,
                                inject_fault=args.inject_fault)
    all_passed = True
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{result.name}: {status}  worst residual {result.worst_residual:.3e} "
              f"(tol {result.tolerance:.1e})")
        all_passed &= result.passed
    return 0 if all_passed else 1


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    commands = {
        "simulate": _cmd_simulate,
        "sweep": _cmd_sweep,
        "optimize": _cmd_optimize,
        "verify": _cmd_verify,
    }
    try:
        return commands[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
