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
import functools
import json
import re
import sys

import numpy as np

from . import _checks, chsh, verify
from .entangled import PhaseMode, Scenario, TopoPhaseSpec, _spec_mode, run_scenario
from .oracle import _EVALUATIONS, _search, grid_search_max_S

#: Default of ``--budget`` for sweep and optimize: grid evaluations a run may take.
_GRID_BUDGET = 50_000_000


class UsageError(ValueError):
    """Invalid flag combination; like any ``ValueError``, one line with exit code 2."""


def _fmt(value: float) -> str:
    return f"{value:.12e}"


def _flag(field: str) -> str:
    return "--" + field.replace("_", "-")


def _angle_arg(text: str) -> float:
    """Radians, or degrees with a 'deg' suffix; NaN and inf are rejected."""
    stripped = text.strip()
    try:
        if stripped.lower().endswith("deg"):
            degrees = float(stripped[:-3])
            radians = degrees * np.pi / 180.0
            if abs(radians) == np.inf:  # degrees * pi overflowed, or degrees is inf: rejected below
                radians = degrees / 180.0 * np.pi
            return _checks.finite_scalar("angle", radians)
        return _checks.finite_scalar("angle", stripped)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid angle {text!r}") from None


def _finite_arg(text: str) -> float:
    """A plain float flag value; NaN and inf are rejected like malformed numbers."""
    try:
        return _checks.finite_scalar("value", text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid finite number {text!r}") from None


def _positive_int_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(f"invalid positive integer {text!r}")
    return value


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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and reused by later ones in the process."""
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
    for name in TopoPhaseSpec._FIELD_NAMES:
        sim.add_argument(_flag(name), type=_finite_arg, default=None)
    sim.add_argument("--format", choices=("json", "csv"), default="json")

    swp = sub.add_parser("sweep", help="sweep mu*lambda and tabulate the S curves")
    swp.add_argument("--min", required=True, type=_finite_arg, help="smallest mu*lambda (radians)")
    swp.add_argument("--max", required=True, type=_finite_arg, help="largest mu*lambda (radians)")
    swp.add_argument("--points", required=True, type=int)
    swp.add_argument("--format", choices=("csv", "json"), default="csv")
    swp.add_argument("--budget", type=_positive_int_arg, default=_GRID_BUDGET,
                     help=f"most grid evaluations the sweep may take, {_EVALUATIONS} "
                          "a point (default %(default)s)")

    opt = sub.add_parser("optimize", help="maximize S at fixed contrast")
    opt.add_argument("--mu", type=_finite_arg, default=1.0)
    opt.add_argument("--lambda-l", type=_finite_arg, default=0.0)
    opt.add_argument("--lambda-r", type=_finite_arg, default=0.0)
    opt.add_argument("--method", choices=("analytic", "grid"), default="analytic")
    opt.add_argument("--roles", choices=[r.value for r in chsh.RoleAssignment],
                     default=chsh.RoleAssignment.STANDARD.value)
    opt.add_argument("--budget", type=_positive_int_arg, default=_GRID_BUDGET,
                     help=f"most grid evaluations --method grid may take; it needs "
                          f"{_EVALUATIONS} (default %(default)s)")
    opt.add_argument("--format", choices=("json", "csv"), default="json")

    ver = sub.add_parser("verify", help="run every invariant suite")
    ver.add_argument("--budget", type=_positive_int_arg, default=None,
                     help="random-draw budget (default 10000); pairwise suites take a tenth")

    # argparse takes a token that starts with "-" for a flag unless it is a plain negative
    # decimal; here "-1e-3", "-90deg" and "-inf" are values too, for the flag's type to check
    for command in sub.choices.values():
        command._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

    return parser


def _topo_from_flags(args: argparse.Namespace, scenario: Scenario) -> TopoPhaseSpec | None:
    """The scenario's phase spec from its flags, or None; ``mu`` defaults to 1, the rest to 0."""
    given = {name: getattr(args, name) for name in TopoPhaseSpec._FIELD_NAMES
             if getattr(args, name) is not None}
    mode = _spec_mode(scenario, bool(given))
    wanted = TopoPhaseSpec._FIELDS_BY_MODE.get(mode, ())
    for name in given:
        if name not in wanted:
            raise UsageError(f"{_flag(name)} is not valid for scenario {scenario.value}")
    if mode is None:
        return None
    fields = {name: given.get(name, 0.0) for name in wanted}
    if "mu" in fields:
        fields["mu"] = given.get("mu", 1.0)
    return TopoPhaseSpec(mode, **fields)


def _cmd_simulate(args: argparse.Namespace) -> int:
    scenario = Scenario(args.scenario)
    topo = _topo_from_flags(args, scenario)
    dist = run_scenario(scenario, args.theta_l, args.theta_r, topo)

    record: dict[str, float | str] = {
        "scenario": scenario.value,
        "theta_l": args.theta_l,
        "theta_r": args.theta_r,
    }
    if topo is not None:
        record.update(topo.field_values())
        if topo.mode is PhaseMode.SPIN_CONDITIONED:
            record["mu_lambda"] = topo.mu * (topo.lambda_l - topo.lambda_r)
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
    _checks.finite_scalar("--max - --min", args.max - args.min)
    needed = args.points * _EVALUATIONS
    if needed > args.budget:
        print(f"error: sweep needs {needed} grid evaluations, budget is {args.budget}",
              file=sys.stderr)
        return 1

    # only the last point can round past the float range, and linspace then sets it to --max
    with np.errstate(over="ignore"):
        mu_lambdas = np.linspace(args.min, args.max, args.points)
    contrasts = chsh.contrast(mu_lambdas)
    # element by element these columns equal the one-point calls
    columns = {
        "mu_lambda": mu_lambdas,
        "c": contrasts,
        "s_fixed_angles": chsh.fixed_angle_curve_S(mu_lambdas),
        "s_max_analytic": [chsh.analytic_max_S(c) for c in contrasts.tolist()],
        "s_max_grid": _search(contrasts)[4],
        "theta_r_opt": np.arctan(contrasts),  # analytic_optimal_angles(mu_lambda).theta_r
    }
    rows = zip(*(np.asarray(column).tolist() for column in columns.values()))
    _emit_records([dict(zip(columns, row)) for row in rows], args.format)
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    mu_lambda = args.mu * (args.lambda_l - args.lambda_r)
    roles = chsh.RoleAssignment(args.roles)
    c = chsh.contrast(mu_lambda)
    if args.method == "analytic":
        standard = chsh.analytic_optimal_angles(mu_lambda)
        angles = roles.bell_angles(*chsh.RoleAssignment.STANDARD.slots(standard))
        best_s = chsh.chsh_S(angles, c, roles)
        evaluations = 0
    else:
        if _EVALUATIONS > args.budget:
            print(f"error: grid search needs {_EVALUATIONS} evaluations, budget is {args.budget}",
                  file=sys.stderr)
            return 1
        result = grid_search_max_S(c, roles)
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
    results = verify.run_suites(args.budget)
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{result.name}: {status}  worst residual {result.worst_residual:.3e} "
              f"(tol {result.tolerance:.1e})")
    return 0 if all(result.passed for result in results) else 1


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
    except ValueError as exc:  # a UsageError or an input the library rejects
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
