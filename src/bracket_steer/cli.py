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
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import library, scenarios
from .errors import (BracketSteerError, InvalidInputError, NumericError,
                     RankDegeneracyError, UnknownScenarioError)
from .formation import gain_condition_report, simulate_formation, simulate_leader
from .model import _as_positive
from .simulate import _sweep_epsilons, decay_report, epsilon_sweep, simulate_pi_epsilon

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


def _certify(bundle, certs):
    """certs, the bundle's certificates; the first that failed is refused
    as a numeric failure."""
    for c in certs:
        if not c.rank_ok:
            raise RankDegeneracyError(
                f"scenario '{bundle.name}' failed rank validation over its probe box "
                f"(worst condition {c.worst_condition:.3g}, cap {c.cond_cap:.3g})",
                condition=c.worst_condition)
    return certs


def _rho_for(bundle, args):
    """--rho, else the scenario's expected.rho, else 0.1; finite and > 0."""
    return _as_positive(bundle.expected.get("rho", 0.1) if args.rho is None else args.rho, "rho")


def _write_chunks(path, chunks):
    """Write an iterable of str chunks to path as one UTF-8 file.

    The file is opened once the first chunk is formed, so a first chunk
    that raises leaves the path as it was.  A later chunk that raises, or a
    write or close that fails, removes the partial file and re-raises: a
    failed export leaves no file behind."""
    path = Path(path)
    if path.parent and not path.parent.exists():
        raise OSError(f"output directory {path.parent} does not exist")
    chunks = iter(chunks)
    first = next(chunks, "")
    fh = open(path, "w", encoding="utf-8")
    try:
        with fh:
            fh.write(first)
            fh.writelines(chunks)
    except BaseException:
        if path.is_file():  # never a device such as /dev/null
            path.unlink()
        raise
    return path


def _write_text(path, text):
    return _write_chunks(path, (text,))


def _csv_chunks(header, columns):
    """CSV text in chunks: the rows of the column-stacked arrays, one
    float_text block per chunk, each value as "%.17g" writes it, the first
    led by the header line.  Only a block's rows are ever stacked."""
    cols = sum(1 if c.ndim == 1 else c.shape[1] for c in columns)
    step = scenarios.block_rows(cols)
    head = ",".join(header) + "\n"
    for start in range(0, len(columns[0]), step):
        block = np.column_stack([c[start:start + step] for c in columns])
        yield head + scenarios.float_text(block, False, ",", "\n")
        head = ""
    if head:  # no rows
        yield head


def _csv_single(traj, n, m):
    header = ["t"] + [f"x{i}" for i in range(1, n + 1)] \
        + [f"u{k}" for k in range(1, m + 1)] + ["err_y"]
    return _csv_chunks(header, [traj.dense_times, traj.dense_states,
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
    return _csv_chunks(header, [ftraj.dense_times, first.dense_states,
                                first.dense_controls, first.y_error,
                                ftraj.leader_states, *ftraj.error_series])


def _traj_json_single(traj):
    return {
        "t": traj.dense_times,
        "x": traj.dense_states,
        "u": traj.dense_controls,
        "err_y": traj.y_error,
    }


def _traj_json_formation(ftraj):
    return {
        "t": ftraj.dense_times,
        "leader": ftraj.leader_states,
        "agents": [
            {
                "x": traj.dense_states,
                "u": traj.dense_controls,
                "err": err,
            }
            for traj, err in zip(ftraj.agent_trajs, ftraj.error_series)
        ],
    }


def _cert_json(bundle, certs):
    """One certificate's dict for a single system, a list of them for a formation."""
    if bundle.kind == scenarios.FORMATION:
        return [c.to_dict() for c in certs]
    return certs[0].to_dict()


def _gain_condition(bundle, rho, ftraj=None):
    """The gain_condition rows along the leader's path at every sub-step: a
    run's own leader record when it kept every sub-step (record_stride 1),
    else the leader alone (simulate_leader), so run and validate agree."""
    if ftraj is not None and bundle.sim.record_stride == 1:
        times, states = ftraj.dense_times, ftraj.leader_states
    else:
        kmax = max(a.selection.kappa_max for a in bundle.agents)
        times, states = simulate_leader(bundle.leader, bundle.gains, bundle.sim, kmax)
    return [row.to_dict() for row in gain_condition_report(
        bundle.leader, bundle.agents, rho, times, states)]


def _cmd_run(args):
    epsilon = None
    if args.epsilon is not None:
        try:
            epsilon = float(args.epsilon)
        except ValueError:
            raise InvalidInputError(f"--epsilon must be a number, got '{args.epsilon}'") from None
    bundle, overrides = _apply_overrides(_load_bundle(args.scenario), args, epsilon)
    rho = _rho_for(bundle, args)
    certs = _certify(bundle, _certificates(bundle))

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
        sidecar["gain_condition"] = _gain_condition(bundle, rho, ftraj)
        body = _csv_formation(ftraj, bundle.agents) if as_csv else _traj_json_formation(ftraj)

    out = Path(args.out or f"{bundle.name}.{args.format}")
    if as_csv:
        _write_chunks(out, body)
        side_path = out.with_name(out.stem + ".report.json")
        try:
            _write_text(side_path, scenarios.json_text(sidecar))
        except BaseException:  # a failed run leaves no output file
            if out.is_file():  # never a device such as /dev/null
                out.unlink()
            raise
        print(f"wrote {out} and {side_path}")
    else:
        sidecar["trajectory"] = body
        _write_chunks(out, scenarios.json_chunks(sidecar))
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
    certs = _certify(bundle, _certificates(bundle))
    rows = epsilon_sweep(bundle.system, bundle.selection, bundle.gains,
                         np.array(bundle.x0), bundle.sim.t_final, eps_list,
                         substeps_per_period=bundle.sim.substeps_per_period)

    out = Path(args.out or f"{bundle.name}-sweep.{args.format}")
    if args.format == "csv":
        _write_chunks(out, _csv_chunks(["epsilon", "max_deviation"], [np.array(rows, dtype=float)]))
    else:
        payload = {"scenario": bundle.name, "overrides": overrides,
                   "certificate": _cert_json(bundle, certs),
                   "rows": [{"epsilon": e, "max_deviation": d} for e, d in rows]}
        _write_chunks(out, scenarios.json_chunks(payload))
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
        payload["gain_condition"] = _gain_condition(bundle, rho)

    text = scenarios.json_text(payload)
    if args.out:
        _write_text(Path(args.out), text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")

    _certify(bundle, certs)
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

    # A warning the filters let through is shown as one line, like an
    # error; the filters themselves, and so which warnings show, are kept.
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
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


def _print_error(exc, kind="error"):
    msg = str(exc).replace("\n", " ")
    print(f"{kind}:{type(exc).__name__}:{msg}", file=sys.stderr)


def _print_warning(message, *_):
    """warnings.showwarning for the CLI: message is the Warning instance."""
    _print_error(message, "warning")


if __name__ == "__main__":
    sys.exit(main())
