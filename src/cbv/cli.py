"""Command-line front end.

Exit codes: 0 success, 1 validation findings at error severity, 2 computation
error, 64 usage error.  Every number printed comes straight from the library
call; nothing is recomputed or rounded on the way out.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .clearing import ClearingProblem, clear, net_boundary_flows
from .control import build_control
from .engine import SOLVER_METHODS, SolverConfig, evaluate_for_observer
from .errors import CbvError, DomainError, MembershipError
from .fisher import cross_priced_quad, fisher_indices
from .network import Perimeter
from .observer import OPTION_ALIASES, ControlRuleSpec
from .payoffs import delta_max
from .report import (
    build_cut_summary,
    load_package,
    matrix_csv_lines,
    parse_pov,
    read_matrix_csv,
    render_disclosure_sheet,
    validate_directory,
    write_matrix_csv,
)
from .robustness import monte_carlo_band

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_COMPUTE = 2
EXIT_USAGE = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _given(**values) -> dict:
    """The values a user gave: those not None.  The library fills in the rest."""
    return {key: value for key, value in values.items() if value is not None}


def _solver_config(args) -> SolverConfig:
    """The solver flags given; unset eps/max-iters follow each observer's declaration."""
    return SolverConfig(**_given(method=args.method, eps=args.eps, max_iters=args.max_iters))


def _add_solver_flags(parser):
    parser.add_argument("--method", default=None, choices=SOLVER_METHODS,
                        help="regime-B solver; auto (the default) runs Neumann sweeps "
                             "where the stability certificate allows them, up to the "
                             "price of one LU of I - O_PP, and the LU if they have "
                             "not converged")
    parser.add_argument("--eps", type=float, default=None)
    parser.add_argument("--max-iters", dest="max_iters", type=int, default=None)


def build_parser() -> _Parser:
    parser = _Parser(prog="cbv", description="cut-based valuation toolkit")
    parser.add_argument("--version", action="version", version=f"cbv {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="validate a data package")
    p_validate.add_argument("package")
    p_validate.add_argument("--format", choices=["json", "table"], default="table")

    p_compute = sub.add_parser("compute", help="valuate a package and write the cut summary")
    p_compute.add_argument("--package", required=True)
    p_compute.add_argument("--pov", default=None)
    p_compute.add_argument("--regime", choices=["A", "B"], default=None)
    # the working directory, not the package: the package is what was audited
    p_compute.add_argument("-o", "--output", default="cut_summary.json")
    p_compute.add_argument("--format", choices=["json", "table"], default="table")
    p_compute.add_argument("--band-noise", type=float, default=None,
                           help="uniform noise amplitude for an uncertainty band")
    p_compute.add_argument("--band-draws", type=int, default=0)
    p_compute.add_argument("--band-seed", type=int, default=None,
                           help="required whenever a band is requested")
    _add_solver_flags(p_compute)

    p_fisher = sub.add_parser("fisher", help="chained indices from two period packages")
    p_fisher.add_argument("--prev", required=True)
    p_fisher.add_argument("--curr", required=True)
    p_fisher.add_argument("-o", "--output", default=None)
    p_fisher.add_argument("--format", choices=["json", "table"], default="table")
    _add_solver_flags(p_fisher)

    p_clear = sub.add_parser("clearing", help="run the clearing engine")
    p_clear.add_argument("--spec", required=True,
                         help="JSON problem file (classes, resources, costs)")
    p_clear.add_argument("--selection", choices=["greatest", "least"], default=None)
    p_clear.add_argument("-o", "--output", default=None)

    p_control = sub.add_parser("control", help="control matrix from a share matrix")
    p_control.add_argument("--shares", required=True, help="CSV share matrix (id header)")
    p_control.add_argument("--option", default=None,
                           choices=sorted(set(OPTION_ALIASES.values())))
    p_control.add_argument("--tau", type=float, default=None)
    p_control.add_argument("--alpha", type=float, default=None)
    p_control.add_argument("--normalize", action="store_true", default=None)
    p_control.add_argument("--depth", type=int, default=None)
    p_control.add_argument("-o", "--output", default=None)

    p_pwa = sub.add_parser("pwa", help="grid granularity for a target error")
    p_pwa.add_argument("--eps", type=float, required=True)
    p_pwa.add_argument("--gamma", type=float, required=True)
    p_pwa.add_argument("--format", choices=["json", "table"], default="table")

    p_report = sub.add_parser("report", help="render the disclosure sheet")
    p_report.add_argument("--package", required=True)
    p_report.add_argument("--no-compute", action="store_true",
                          help="render without running the valuation")
    _add_solver_flags(p_report)
    return parser


def _load_observer(args, pkg):
    observer = pkg.observer
    if args.pov:
        observer, _ = parse_pov(Path(args.pov).read_bytes())
    if getattr(args, "regime", None):
        observer = replace(observer, regime=args.regime)
    return observer


def _cmd_validate(args) -> int:
    report = validate_directory(args.package)
    if args.format == "json":
        payload = [
            {"rule": f.rule, "severity": f.severity, "message": f.message,
             "location": f.location}
            for f in report.findings
        ]
        print(json.dumps(payload, indent=2))
    else:
        print(report.render())
    return EXIT_FINDINGS if report.has_errors else EXIT_OK


def _cmd_compute(args) -> int:
    band_requested = args.band_noise is not None or args.band_draws
    if band_requested and args.band_seed is None:
        raise UsageError("Monte Carlo bands need an explicit --band-seed")
    pkg = load_package(args.package)
    observer = _load_observer(args, pkg)
    # resolved here too: the band solves outside evaluate_for_observer
    cfg = _solver_config(args).resolved(observer.tolerances)
    result = evaluate_for_observer(pkg.cut_statistics(), observer, cfg)
    band = None
    if band_requested:  # on the statistics W priced
        band = monte_carlo_band(
            result.stats, cfg, noise=args.band_noise or 0.0,
            draws=args.band_draws, seed=args.band_seed,
        )
    doc = build_cut_summary(result, observer)
    out = Path(args.output)
    out.write_bytes(doc.to_json_bytes())
    if args.format == "json":
        payload = {
            "consolidated_value": result.w,
            "base_total": result.base_total,
            "T_out": result.t_out,
            "T_in": result.t_in,
            "output": str(out),
        }
        if band is not None:
            payload["band"] = {
                "low": band.low, "high": band.high,
                "evaluated": band.evaluated, "excluded": band.excluded,
            }
        print(json.dumps(payload, indent=2))
    else:
        print(f"base_total = {result.base_total!r}")
        print(f"T_out = {result.t_out!r}")
        print(f"T_in = {result.t_in!r}")
        print(f"W(P) = {result.w!r}")
        if band is not None:
            print(f"band = [{band.low!r}, {band.high!r}] "
                  f"({band.evaluated} evaluated, {band.excluded} excluded)")
        print(f"cut summary written to {out}")
    return EXIT_OK


def _cmd_fisher(args) -> int:
    pkg_prev = load_package(args.prev)
    pkg_curr = load_package(args.curr)
    # each cell fills unset solver fields from the tolerances of the
    # observer it is priced under
    quad = cross_priced_quad(
        pkg_prev.cut_statistics(), pkg_curr.cut_statistics(),
        pkg_prev.observer, pkg_curr.observer, _solver_config(args),
    )
    indices = fisher_indices(quad)
    payload = {
        "W": {
            "prev_prev_obs": quad.w_prev_prev_obs,
            "curr_prev_obs": quad.w_curr_prev_obs,
            "prev_curr_obs": quad.w_prev_curr_obs,
            "curr_curr_obs": quad.w_curr_curr_obs,
        },
        "indices": {
            "IV_L": indices.iv_l, "IP_L": indices.ip_l,
            "IV_P": indices.iv_p, "IP_P": indices.ip_p,
            "IV_F": indices.iv_f, "IP_F": indices.ip_f, "G_F": indices.g_f,
        },
        "excluded_nodes": list(quad.excluded_nodes),
    }
    blob = (json.dumps(payload, indent=2) + "\n").encode("utf-8")
    if args.output:
        Path(args.output).write_bytes(blob)
    if args.format == "json" or not args.output:
        print(blob.decode("utf-8"), end="")
    else:
        print(f"G_F = {indices.g_f!r}")
        print(f"index block written to {args.output}")
    return EXIT_OK


def _problem_from_spec(spec: dict) -> tuple[ClearingProblem, dict]:
    nodes = tuple(spec["nodes"])
    index = {node: k for k, node in enumerate(nodes)}

    def at(node) -> int:
        try:
            return index[node]
        except KeyError:
            raise MembershipError(f"clearing spec names unknown node {node!r}") from None

    classes = []
    for block in spec["classes"]:
        mat = np.zeros((len(nodes), len(nodes)))
        for payer, row in block.get("liabilities", {}).items():
            for payee, amount in row.items():
                mat[at(payer), at(payee)] = float(amount)
        classes.append(mat)
    missing = [n for n in nodes if n not in spec["resources"]]
    if missing:
        raise MembershipError(f"clearing spec gives no resources for nodes {missing}")
    gamma = np.array([
        [float(block.get("default_costs", {}).get(n, block.get("default_cost", 0.0)))
         for n in nodes]
        for block in spec["classes"]
    ])
    problem = ClearingProblem(
        node_ids=nodes,
        liabilities=tuple(classes),
        resources=np.array([float(spec["resources"][n]) for n in nodes]),
        default_costs=gamma,
    )
    params = spec.get("params", {})
    return problem, params


def _cmd_clearing(args) -> int:
    try:
        spec = json.loads(Path(args.spec).read_text("utf-8"))
        problem, params = _problem_from_spec(spec)
        # what the spec and the flags give; `clear` fills in the rest
        given = {key: params[key] for key in ("eps", "max_iters") if key in params}
        if "eps" in given:
            given["eps"] = float(given["eps"])
        if "selection" in spec:
            given["selection"] = spec["selection"]
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        # bytes that are not JSON, absent keys, values of the wrong type
        raise DomainError(f"malformed clearing spec: {exc!r}") from None
    given.update(_given(selection=args.selection))
    outcome = clear(problem, **given)
    payload = {
        "engine": spec.get("engine", "seniority-clearing"),
        "selection": outcome.selection,
        "iterations": outcome.iterations,
        "residual": outcome.residual,
        "payments": {
            f"class_{k + 1}": {n: float(outcome.payments[k][i])
                               for i, n in enumerate(problem.node_ids)}
            for k in range(problem.n_classes)
        },
        "payout_ratios": {
            f"class_{k + 1}": {n: float(outcome.payout_ratios[k][i])
                               for i, n in enumerate(problem.node_ids)}
            for k in range(problem.n_classes)
        },
    }
    if "perimeter" in spec:
        flows = net_boundary_flows(problem, outcome, Perimeter(spec["perimeter"]))
        payload["net_flows"] = {
            "X_PO": {p: {o: float(flows.x_po[i, j]) for j, o in enumerate(flows.o_ids)}
                     for i, p in enumerate(flows.p_ids)},
            "X_OP": {o: {p: float(flows.x_op[i, j]) for j, p in enumerate(flows.p_ids)}
                     for i, o in enumerate(flows.o_ids)},
        }
    blob = (json.dumps(payload, indent=2) + "\n").encode("utf-8")
    if args.output:
        Path(args.output).write_bytes(blob)
        print(f"clearing outcome written to {args.output}")
    else:
        print(blob.decode("utf-8"), end="")
    return EXIT_OK


def _cmd_control(args) -> int:
    row_ids, col_ids, shares = read_matrix_csv(Path(args.shares))
    if row_ids != col_ids:
        raise CbvError("share matrix must carry identical row and column ids")
    spec = ControlRuleSpec(**_given(option=args.option, tau=args.tau, alpha=args.alpha,
                                    normalize=args.normalize, reachability_depth=args.depth))
    control = build_control(shares, spec, ids=tuple(row_ids))
    if args.output:
        write_matrix_csv(Path(args.output), control.ids, control.ids,
                         control.omega, "id")
        print(f"control matrix written to {args.output}")
    else:
        sys.stdout.writelines(matrix_csv_lines(control.ids, control.ids, control.omega, "id"))
    return EXIT_OK


def _cmd_pwa(args) -> int:
    result = delta_max(args.eps, args.gamma)
    if args.format == "json":
        print(json.dumps({"delta_max": result.delta_max,
                          "segments": result.segments}, indent=2))
    else:
        print(f"Δ_max={result.delta_max:.4f}, N={result.segments}")
    return EXIT_OK


def _cmd_report(args) -> int:
    pkg = load_package(args.package)
    result = None
    if not args.no_compute:
        result = evaluate_for_observer(
            pkg.cut_statistics(), pkg.observer, _solver_config(args)
        )
    print(render_disclosure_sheet(pkg, result), end="")
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "compute": _cmd_compute,
    "fisher": _cmd_fisher,
    "clearing": _cmd_clearing,
    "control": _cmd_control,
    "pwa": _cmd_pwa,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a CbvError, an unreadable file, or a fault: never exit 1
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
