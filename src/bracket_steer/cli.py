"""Command-line interface.

Subcommands: run (simulate a scenario and export CSV/JSON), sweep (rerun a
single-system scenario over several sampling periods), validate (certify a
scenario's rank condition), list (show registered names).  Exit codes:
0 success, 2 invalid input, 3 numeric failure, 4 I/O failure.
"""

import argparse
import dataclasses
# Not used here: perfbench/tracer.py installs its timing shim as cli.json,
# so the name must stay.
import json  # noqa: F401
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import library, scenarios
from .errors import (BracketSteerError, InvalidInputError, NumericError,
                     RankDegeneracyError, UnknownScenarioError)
from .formation import gain_condition_report, simulate_formation, simulate_leader
from .simulate import (SimConfig, _sweep_epsilons, decay_report, epsilon_sweep,
                       simulate_pi_epsilon)

log = logging.getLogger("bracket_steer.cli")

_FMT = "%.17g"


def _fmt(v):
    return _FMT % float(v)


def _configure_logging():
    # Diagnostics only; the level never influences any computed number.
    level_name = os.environ.get("BRACKET_STEER_LOG", "").upper()
    if level_name:
        level = getattr(logging, level_name, logging.INFO)
        logging.basicConfig(level=level, stream=sys.stderr,
                            format="%(name)s %(levelname)s: %(message)s")


def _load_bundle(source):
    """Resolve a scenario argument: built-in name first, then file path."""
    if source in scenarios.builtin_names():
        return scenarios.builtin_scenario(source)
    if os.path.exists(source):
        return scenarios.load_scenario(source)
    raise UnknownScenarioError(
        f"unknown scenario '{source}': not a built-in "
        f"{sorted(scenarios.builtin_names())} and not an existing file")


def _apply_overrides(bundle, args, epsilon=None):
    """The bundle with the run's epsilon and --gamma/--t-final/--substeps applied."""
    gains = bundle.gains
    sim = bundle.sim
    overrides = {}
    if epsilon is not None:
        gains = dataclasses.replace(gains, epsilon=epsilon)
        overrides["epsilon"] = epsilon
    if args.gamma is not None:
        gains = dataclasses.replace(gains, gamma=args.gamma)
        overrides["gamma"] = args.gamma
        if bundle.kind == scenarios.FORMATION:
            agents = tuple(dataclasses.replace(a, gamma=args.gamma) for a in bundle.agents)
            bundle = dataclasses.replace(bundle, agents=agents)
    if args.t_final is not None:
        sim = dataclasses.replace(sim, t_final=args.t_final)
        overrides["t_final"] = args.t_final
    if args.substeps is not None:
        sim = dataclasses.replace(sim, substeps_per_period=args.substeps)
        overrides["substeps"] = args.substeps
    return dataclasses.replace(bundle, gains=gains, sim=sim), overrides


def _certificates(bundle):
    """scenarios.validate_bundle's certificate, or one per agent, as a tuple."""
    cert = scenarios.validate_bundle(bundle)
    return cert if isinstance(cert, tuple) else (cert,)


def _certify(bundle):
    """Validate before simulating; a failed certificate is a numeric failure."""
    certs = _certificates(bundle)
    for c in certs:
        if not c.rank_ok:
            raise RankDegeneracyError(
                f"scenario '{bundle.name}' failed rank validation over its probe box "
                f"(worst condition {c.worst_condition:.3g}, cap {c.cond_cap:.3g})",
                condition=c.worst_condition)
    return certs


def _rho_for(bundle, args):
    """--rho, else the scenario's expected.rho, else 0.1; finite and > 0."""
    if args.rho is not None:
        rho = args.rho
    else:
        rho = float(bundle.expected.get("rho", 0.1))
    if not 0.0 < rho < math.inf:
        raise InvalidInputError(f"rho must be finite and > 0, got {rho}")
    return rho


def _write_text(path, text):
    path = Path(path)
    if path.parent and not path.parent.exists():
        raise OSError(f"output directory {path.parent} does not exist")
    path.write_text(text, encoding="utf-8")
    return path


def _csv_table(header, columns):
    """CSV text: the header, then one row per line of the column-stacked arrays."""
    table = np.column_stack(columns)
    row_fmt = ",".join([_FMT] * table.shape[1])
    lines = [",".join(header)]
    lines += [row_fmt % tuple(row) for row in table.tolist()]
    lines.append("")
    return "\n".join(lines)


def _csv_single(traj, n, m):
    header = ["t"] + [f"x{i}" for i in range(1, n + 1)] \
        + [f"u{k}" for k in range(1, m + 1)] + ["err_y"]
    return _csv_table(header, [traj.dense_times, traj.dense_states,
                               traj.dense_controls, traj.y_error])


def _csv_formation(ftraj, agents):
    # State/control block is agent 1's; every agent contributes an error
    # column; full per-agent trajectories are available via --format json.
    first = ftraj.agent_trajs[0]
    p = first.dense_states.shape[1]
    m = agents[0].system.m
    header = ["t"] + [f"x{i}" for i in range(1, p + 1)] \
        + [f"u{k}" for k in range(1, m + 1)] + ["err_y"] \
        + [f"xL{i}" for i in range(1, p + 1)] \
        + [f"err_{a + 1}" for a in range(len(agents))]
    return _csv_table(header, [ftraj.dense_times, first.dense_states,
                               first.dense_controls, first.y_error,
                               ftraj.leader_states, *ftraj.error_series])


def _traj_json_single(traj):
    return {
        "t": traj.dense_times.tolist(),
        "x": traj.dense_states.tolist(),
        "u": traj.dense_controls.tolist(),
        "err_y": traj.y_error.tolist(),
    }


def _traj_json_formation(ftraj):
    return {
        "t": ftraj.dense_times.tolist(),
        "leader": ftraj.leader_states.tolist(),
        "agents": [
            {
                "x": traj.dense_states.tolist(),
                "u": traj.dense_controls.tolist(),
                "err": err.tolist(),
            }
            for traj, err in zip(ftraj.agent_trajs, ftraj.error_series)
        ],
    }


def _cert_json(bundle, certs):
    """One certificate's dict for a single system, a list of them for a formation."""
    if bundle.kind == scenarios.FORMATION:
        return [c.to_dict() for c in certs]
    return certs[0].to_dict()


def _cmd_run(args):
    epsilon = None
    if args.epsilon is not None:
        try:
            epsilon = float(args.epsilon)
        except ValueError:
            raise InvalidInputError(f"--epsilon must be a number, got '{args.epsilon}'") from None
    bundle, overrides = _apply_overrides(_load_bundle(args.scenario), args, epsilon)
    rho = _rho_for(bundle, args)
    certs = _certify(bundle)

    sidecar = {
        "scenario": bundle.name,
        "kind": bundle.kind,
        "overrides": overrides,
        "certificate": _cert_json(bundle, certs),
    }
    as_csv = args.format == "csv"

    if bundle.kind == scenarios.SINGLE:
        log.info("running single-system scenario %s", bundle.name)
        traj = simulate_pi_epsilon(bundle.system, bundle.selection, bundle.gains,
                                   np.array(bundle.x0), bundle.sim)
        report = decay_report(traj, bundle.gains, rho)
        sidecar["decay_report"] = report.to_dict()
        body = (_csv_single(traj, bundle.system.n, bundle.system.m) if as_csv
                else _traj_json_single(traj))
    else:
        log.info("running formation scenario %s", bundle.name)
        ftraj = simulate_formation(bundle.agents, bundle.leader, bundle.agent_x0s,
                                   bundle.gains, bundle.sim)
        report = decay_report(ftraj.displacement_trajs[0], bundle.gains, rho)
        sidecar["decay_report"] = report.to_dict()
        sidecar["gain_condition"] = [
            row.to_dict() for row in gain_condition_report(
                bundle.leader, bundle.agents, rho,
                ftraj.dense_times, ftraj.leader_states)
        ]
        body = _csv_formation(ftraj, bundle.agents) if as_csv else _traj_json_formation(ftraj)

    out = Path(args.out or f"{bundle.name}.{args.format}")
    if as_csv:
        _write_text(out, body)
        side_path = out.with_name(out.stem + ".report.json")
        _write_text(side_path, scenarios.json_text(sidecar))
        print(f"wrote {out} and {side_path}")
    else:
        sidecar["trajectory"] = body
        _write_text(out, scenarios.json_text(sidecar))
        print(f"wrote {out}")

    lam = report.lambda_fit
    print(f"scenario={bundle.name} rho={_fmt(rho)} t1={_fmt(report.t1)} "
          f"lambda_fit={'n/a' if lam is None else _fmt(lam)}")
    return 0


def _cmd_sweep(args):
    # Here --epsilon is the list of sampling periods to sweep, not an override.
    if args.epsilon is None:
        raise InvalidInputError("sweep requires --epsilon with a comma-separated list")
    try:
        eps_list = [float(tok) for tok in args.epsilon.split(",") if tok.strip()]
    except ValueError:
        raise InvalidInputError(
            f"--epsilon must be a comma-separated list of numbers, got '{args.epsilon}'") from None
    eps_list = _sweep_epsilons(eps_list)
    bundle, overrides = _apply_overrides(_load_bundle(args.scenario), args)
    if bundle.kind != scenarios.SINGLE:
        raise InvalidInputError("sweep supports single-system scenarios only")
    certs = _certify(bundle)
    rows = epsilon_sweep(bundle.system, bundle.selection, bundle.gains,
                         np.array(bundle.x0), bundle.sim.t_final, eps_list,
                         substeps_per_period=bundle.sim.substeps_per_period)

    out = Path(args.out or f"{bundle.name}-sweep.{args.format}")
    if args.format == "csv":
        _write_text(out, _csv_table(["epsilon", "max_deviation"], [np.array(rows, dtype=float)]))
    else:
        payload = {"scenario": bundle.name, "overrides": overrides,
                   "certificate": _cert_json(bundle, certs),
                   "rows": [{"epsilon": e, "max_deviation": d} for e, d in rows]}
        _write_text(out, scenarios.json_text(payload))
    print(f"wrote {out}")
    for eps, dev in rows:
        print(f"epsilon={_fmt(eps)} max_deviation={_fmt(dev)}")
    return 0


def _cmd_validate(args):
    bundle = _load_bundle(args.scenario)
    rho = _rho_for(bundle, args)
    certs = _certificates(bundle)
    payload = {"scenario": bundle.name, "certificate": _cert_json(bundle, certs)}

    if bundle.kind == scenarios.FORMATION:
        kmax = max(a.selection.kappa_max for a in bundle.agents)
        times, states = simulate_leader(bundle.leader, bundle.gains, bundle.sim, kmax)
        payload["gain_condition"] = [
            row.to_dict() for row in gain_condition_report(
                bundle.leader, bundle.agents, rho, times, states)]

    text = scenarios.json_text(payload)
    if args.out:
        _write_text(Path(args.out), text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")

    if not all(c.rank_ok for c in certs):
        raise RankDegeneracyError(
            f"scenario '{bundle.name}' failed rank validation over its probe box")
    return 0


def _cmd_list(args):
    print("built-in scenarios:")
    for name in scenarios.builtin_names():
        print(f"  {name}")
    print("registered systems:")
    for name in library.available_systems():
        print(f"  {name}")
    print("registered leader fields:")
    for name in library.available_leader_fields():
        print(f"  {name}")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="bracket-steer",
        description="Synthesize oscillatory stabilizing feedback and simulate "
                    "the sampled closed loop.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, epsilon_help):
        p.add_argument("scenario", help="built-in scenario name or JSON scenario file")
        p.add_argument("--epsilon", help=epsilon_help)
        p.add_argument("--gamma", type=float, help="override the gain")
        p.add_argument("--t-final", dest="t_final", type=float, help="override the horizon")
        p.add_argument("--substeps", type=int, help="override RK4 sub-steps per period")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", help="output path")

    p_run = sub.add_parser("run", help="simulate a scenario and export the trajectory")
    add_common(p_run, "override the sampling period")
    p_run.add_argument("--rho", type=float, help="floor radius for the decay report")
    p_run.set_defaults(fn=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="rerun over a list of sampling periods")
    add_common(p_sweep, "comma-separated sampling periods, strictly decreasing")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_val = sub.add_parser("validate", help="certify the rank condition over the probe box")
    p_val.add_argument("scenario")
    p_val.add_argument("--rho", type=float, help="rho for the leader gain condition")
    p_val.add_argument("--out", help="write the certificate JSON here")
    p_val.set_defaults(fn=_cmd_validate)

    p_list = sub.add_parser("list", help="list built-ins and registered names")
    p_list.set_defaults(fn=_cmd_list)
    return parser


def main(argv=None):
    _configure_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)

    try:
        return args.fn(args)
    except InvalidInputError as exc:
        _print_error(exc)
        return 2
    except NumericError as exc:
        _print_error(exc)
        return 3
    except OSError as exc:
        _print_error(exc)
        return 4
    except BracketSteerError as exc:  # pragma: no cover - safety net
        _print_error(exc)
        return 2


def _print_error(exc):
    msg = str(exc).replace("\n", " ")
    print(f"error:{type(exc).__name__}:{msg}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
