"""Command-line interface.

Subcommands: run (simulate a scenario and export CSV/JSON), sweep (rerun a
single-system scenario over several sampling periods), validate (certify a
scenario's rank condition), list (show registered names).  Exit codes:
0 success, 2 invalid input, 3 numeric failure, 4 I/O failure.
"""

import argparse
import dataclasses
import functools
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


# CSV text is "%.17g" per value, written by numpy in blocks of rows.  A finite
# v with 1e-4 <= |v| < 1e16 takes the fast path: with X = floor(log10|v|) and
# k = 16 - X, 10^k is an exact double and Dekker's TwoProduct gives
# |v| 10^k = hi + lo exactly; hi >= 1e16 > 2^53 is an integer, so the 17
# significant digits are D = hi + rint(lo), rounded half to even as "%.17g"
# rounds.  %g writes such a v in fixed notation, so each field is D's digits
# gathered by a template chosen by (X, digits kept, sign), padded with NUL
# bytes that are deleted at the end.  Every other value (zeros, |v| < 1e-4,
# |v| >= 1e16, inf, NaN, an X estimate that missed, a D that rounds up to
# 10^17) is formatted by "%" itself.
_CSV_CHUNK_ROWS = 1024
_FIELD = 25  # the widest text, "-2.2250738585072014e-308", and a separator
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter for binary64
# A value's 24 source bytes, as six 4-byte words: "," "\n" NUL d0, the digit
# groups d1..d4 to d13..d16, then NUL "." "-" "0".  Written out with digit j
# as the letter chr(97 + j), they are _SOURCE.
_SOURCE = b",\n\0abcdefghijklmnopq\0.-0"


@functools.cache
def _csv_tables():
    """The formatter's lookup tables, built by the first CSV written, so that
    importing the CLI does not pay for them: 10^k and its Veltkamp halves,
    the source words of each leading digit, of each 4-digit group and of the
    tail, the digits each group keeps, and the field templates."""
    pow10 = np.array([10.0 ** k for k in range(23)])  # each exact
    pow10_hi = pow10 * _SPLIT - (pow10 * _SPLIT - pow10)
    lead_words = np.array([_SOURCE[:3] + b"%d" % d for d in range(10)]).view(np.uint32)
    digits = np.frombuffer(b"0123456789", dtype=np.uint8)
    # "0000" to "9999": every choice of four digits, in lexicographic order.
    group_words = np.stack(np.broadcast_arrays(*np.ix_(*[digits] * 4)), axis=-1).view(np.uint32).ravel()
    tail_word = np.frombuffer(_SOURCE[20:], dtype=np.uint32)
    groups = np.arange(10000)
    # D's digits d0.. through the last nonzero one of group i = 0..3, 0 for 0000.
    trailing_zeros = sum(groups % m == 0 for m in (10, 100, 1000))
    group_keep = [np.where(groups > 0, 4 * i + 5 - trailing_zeros, 0).astype(np.int8)
                  for i in range(4)]
    return (pow10, pow10_hi, pow10 - pow10_hi, lead_words, group_words, tail_word, group_keep,
            _csv_templates())


def _csv_templates():
    """Source byte of each field byte, by ((X + 4) * 18 + digits kept) * 2 + sign.

    Each template is written as the field's text with digit j as the letter
    chr(97 + j), then translated to positions in _SOURCE."""
    letters = _SOURCE[3:20].decode()
    texts = []
    for x in range(-4, 16):
        for keep in range(18):
            kept = letters[:max(keep, 1)]
            if x < 0:
                body = "0." + "0" * (-x - 1) + kept
            elif keep > x + 1:
                body = kept[:x + 1] + "." + kept[x + 1:]
            else:
                body = kept
            texts += [body.ljust(_FIELD - 1, "\0") + ",", ("-" + body).ljust(_FIELD - 1, "\0") + ","]
    to_source = bytes.maketrans(_SOURCE[:20] + _SOURCE[21:], bytes(range(20)) + bytes(range(21, 24)))
    text = "".join(texts).encode().translate(to_source)
    return np.frombuffer(text, dtype=np.uint8).reshape(-1, _FIELD).astype(np.intp)


def _csv_rows(block):
    """The CSV lines of a 2-d block, each value exactly as "%.17g" writes it."""
    (pow10, pow10_hi, pow10_lo, lead_words, group_words, tail_word, group_keep,
     templates) = _csv_tables()
    rows, cols = block.shape
    v = np.asarray(block, dtype=np.float64).reshape(-1)
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e16)
    a[~fast] = 1.0
    x = np.floor(np.log10(a)).astype(np.intp)
    k = 16 - x
    hi = a * pow10[k]
    t = a * _SPLIT
    ah = t - (t - a)
    al = a - ah
    ph = pow10_hi[k]
    pl = pow10_lo[k]
    lo = ((ah * ph - hi) + ah * pl + al * ph) + al * pl
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    # hi + lo in [1e16, 1e17) confirms X; D = 10^17 would carry into X + 1.
    ok = fast & (hi >= 1e16) & ((hi > 1e16) | (lo >= 0.0)) & (d < 10 ** 17)
    d[~ok] = 10 ** 16
    x[~ok] = 0
    q, r8 = np.divmod(d, 10 ** 8)
    d0, r = np.divmod(q, 10 ** 8)
    g1, g2 = np.divmod(r, 10 ** 4)
    g3, g4 = np.divmod(r8, 10 ** 4)
    words = np.empty((v.size, 6), dtype=np.uint32)
    words[:, 0] = lead_words[d0]
    for i, g in enumerate((g1, g2, g3, g4), 1):
        words[:, i] = group_words[g]
    words[:, 5] = tail_word
    keep = np.maximum(np.maximum(group_keep[0][g1], group_keep[1][g2]),
                      np.maximum(group_keep[2][g3], group_keep[3][g4]))
    # %g strips trailing zeros after the point only: keep X + 1 digits at least.
    keep = np.maximum(keep, x + 1)
    src = templates[((x + 4) * 18 + keep) * 2 + np.signbit(v)]
    src += np.arange(0, len(_SOURCE) * v.size, len(_SOURCE))[:, None]
    out = np.take(words.view(np.uint8), src)
    out.reshape(rows, cols, _FIELD)[:, -1, -1] = ord("\n")
    slow = np.flatnonzero(~ok)
    if slow.size:
        text = np.array([_FMT % f for f in v[slow].tolist()], dtype=f"S{_FIELD - 1}")
        out[slow, :-1] = text.view(np.uint8).reshape(-1, _FIELD - 1)
    return out.tobytes().translate(None, b"\0").decode("ascii")


def _csv_table(header, columns):
    """CSV text: the header, then one row per line of the column-stacked arrays."""
    table = np.column_stack(columns)
    parts = [",".join(header), "\n"]
    for start in range(0, len(table), _CSV_CHUNK_ROWS):
        parts.append(_csv_rows(table[start:start + _CSV_CHUNK_ROWS]))
    return "".join(parts)


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
