"""Command-line interface.

Subcommands: run (simulate a scenario and export CSV/JSON), sweep (rerun a
single-system scenario over several sampling periods), validate (certify a
scenario's rank condition), list (show registered names).  Exit codes:
0 success, 2 invalid input, 3 numeric failure, 4 I/O failure.
"""

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import library, scenarios
from .errors import (BracketSteerError, InvalidInputError, NumericError,
                     RankDegeneracyError, UnknownScenarioError)
from .formation import gain_condition_report, simulate_formation
from .simulate import SimConfig, decay_report, epsilon_sweep, simulate_pi_epsilon

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


def _apply_overrides(bundle, args):
    gains = bundle.gains
    sim = bundle.sim
    overrides = {}
    if getattr(args, "epsilon", None) is not None:
        gains = dataclasses.replace(gains, epsilon=args.epsilon)
        overrides["epsilon"] = args.epsilon
    if getattr(args, "gamma", None) is not None:
        gains = dataclasses.replace(gains, gamma=args.gamma)
        overrides["gamma"] = args.gamma
        if bundle.kind == scenarios.FORMATION:
            agents = tuple(dataclasses.replace(a, gamma=args.gamma) for a in bundle.agents)
            bundle = dataclasses.replace(bundle, agents=agents)
    if getattr(args, "t_final", None) is not None:
        sim = dataclasses.replace(sim, t_final=args.t_final)
        overrides["t_final"] = args.t_final
    if getattr(args, "substeps", None) is not None:
        sim = dataclasses.replace(sim, substeps_per_period=args.substeps)
        overrides["substeps"] = args.substeps
    return dataclasses.replace(bundle, gains=gains, sim=sim), overrides


def _certify(bundle):
    """Validate before simulating; a failed certificate is a numeric failure."""
    cert = scenarios.validate_bundle(bundle)
    certs = cert if isinstance(cert, tuple) else (cert,)
    for c in certs:
        if not c.rank_ok:
            raise RankDegeneracyError(
                f"scenario '{bundle.name}' failed rank validation over its probe box "
                f"(worst condition {c.worst_condition:.3g}, cap {c.cond_cap:.3g})",
                condition=c.worst_condition)
    return cert


def _rho_for(bundle, args):
    if getattr(args, "rho", None) is not None:
        return args.rho
    return float(bundle.expected.get("rho", 0.1))


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


def _cert_json(cert):
    if isinstance(cert, tuple):
        return [c.to_dict() for c in cert]
    return cert.to_dict()


def _cmd_run(args):
    bundle, overrides = _apply_overrides(_load_bundle(args.scenario), args)
    cert = _certify(bundle)
    rho = _rho_for(bundle, args)

    sidecar = {
        "scenario": bundle.name,
        "kind": bundle.kind,
        "overrides": overrides,
        "certificate": _cert_json(cert),
    }

    if bundle.kind == scenarios.SINGLE:
        log.info("running single-system scenario %s", bundle.name)
        traj = simulate_pi_epsilon(bundle.system, bundle.selection, bundle.gains,
                                   np.array(bundle.x0), bundle.sim)
        report = decay_report(traj, bundle.gains, rho)
        sidecar["decay_report"] = report.to_dict()
        csv_text = _csv_single(traj, bundle.system.n, bundle.system.m)
        traj_json = _traj_json_single(traj)
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
        csv_text = _csv_formation(ftraj, bundle.agents)
        traj_json = _traj_json_formation(ftraj)

    if args.format == "csv":
        out = Path(args.out) if args.out else Path(f"{bundle.name}.csv")
        _write_text(out, csv_text)
        side_path = out.with_name(out.stem + ".report.json")
        _write_text(side_path, json.dumps(sidecar, indent=2) + "\n")
        print(f"wrote {out} and {side_path}")
    else:
        out = Path(args.out) if args.out else Path(f"{bundle.name}.json")
        sidecar["trajectory"] = traj_json
        _write_text(out, json.dumps(sidecar, indent=2) + "\n")
        print(f"wrote {out}")

    t1 = sidecar["decay_report"]["t1"]
    lam = sidecar["decay_report"]["lambda_fit"]
    print(f"scenario={bundle.name} rho={_fmt(rho)} t1={_fmt(t1)} "
          f"lambda_fit={'n/a' if lam is None else _fmt(lam)}")
    return 0


def _cmd_sweep(args):
    # The epsilon flag holds the sweep list here, not a gains override.
    eps_spec = args.epsilon
    args.epsilon = None
    bundle, overrides = _apply_overrides(_load_bundle(args.scenario), args)
    if bundle.kind != scenarios.SINGLE:
        raise InvalidInputError("sweep supports single-system scenarios only")
    cert = _certify(bundle)
    try:
        eps_list = [float(tok) for tok in eps_spec.split(",") if tok.strip()]
    except ValueError:
        raise InvalidInputError(
            f"--epsilon must be a comma-separated list of numbers, got '{eps_spec}'")
    rows = epsilon_sweep(bundle.system, bundle.selection, bundle.gains,
                         np.array(bundle.x0), bundle.sim.t_final, eps_list,
                         substeps_per_period=bundle.sim.substeps_per_period)

    csv_text = _csv_table(["epsilon", "max_deviation"], [np.array(rows, dtype=float)])

    out = Path(args.out) if args.out else Path(f"{bundle.name}-sweep.csv")
    if args.format == "csv":
        _write_text(out, csv_text)
    else:
        out = out if args.out else Path(f"{bundle.name}-sweep.json")
        payload = {"scenario": bundle.name, "overrides": overrides,
                   "certificate": _cert_json(cert),
                   "rows": [{"epsilon": e, "max_deviation": d} for e, d in rows]}
        _write_text(out, json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")
    for eps, dev in rows:
        print(f"epsilon={_fmt(eps)} max_deviation={_fmt(dev)}")
    return 0


def _cmd_validate(args):
    bundle, _ = _apply_overrides(_load_bundle(args.scenario), args)
    cert = scenarios.validate_bundle(bundle)
    payload = {"scenario": bundle.name, "certificate": _cert_json(cert)}

    if bundle.kind == scenarios.FORMATION:
        from .formation import simulate_leader
        rho = _rho_for(bundle, args)
        kmax = max(a.selection.kappa_max for a in bundle.agents)
        times, states = simulate_leader(bundle.leader, bundle.gains, bundle.sim, kmax)
        payload["gain_condition"] = [
            row.to_dict() for row in gain_condition_report(
                bundle.leader, bundle.agents, rho, times, states)]

    text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        _write_text(Path(args.out), text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")

    certs = cert if isinstance(cert, tuple) else (cert,)
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

    # run takes a single float epsilon; sweep parses its own list.
    if args.command == "run" and getattr(args, "epsilon", None) is not None:
        try:
            args.epsilon = float(args.epsilon)
        except ValueError:
            _print_error(InvalidInputError(f"--epsilon must be a number, got '{args.epsilon}'"))
            return 2
    if args.command == "sweep" and getattr(args, "epsilon", None) is None:
        _print_error(InvalidInputError("sweep requires --epsilon with a comma-separated list"))
        return 2

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
