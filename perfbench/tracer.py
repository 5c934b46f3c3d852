"""Timing wrappers installed on the package's module-level names.

The traced pass replaces functions such as ``formation._rk4_step`` with a
wrapper that records one span (name, start, end, parent, operation id) per
call, then restores the originals.  Spans live in flat arrays in memory and
are written once, when the benchmark ends.  A span's self time is its
duration minus the durations of its direct children.

Modules that import a function into their own namespace call it through that
namespace, so every copy is wrapped: ``formation`` holds its own
``_rk4_step``, ``held_control``, ``extension_matrix`` and
``_solve_steering``, and ``scenarios`` its own ``validate_selection``.
Field and leader evaluations in ``library`` are not wrapped; they stay inside
``rk4_step`` self time.  No layer queues or waits, so there are no wait
metrics.
"""

import json
from array import array
from time import perf_counter

import numpy as np

from bracket_steer import cli, formation, model, scenarios, simulate, synthesis

# (namespace, attribute, span name, unit counter or None)
TARGETS = (
    (cli, "_load_bundle", "cli.load", None),
    (cli, "_certify", "cli.certify", None),
    (cli, "simulate_formation", "cli.simulate_formation", None),
    (cli, "simulate_pi_epsilon", "cli.simulate_pi_epsilon", None),
    (cli, "epsilon_sweep", "cli.epsilon_sweep", None),
    (cli, "decay_report", "cli.decay_report", None),
    (cli, "gain_condition_report", "cli.gain_condition_report", None),
    (cli, "_csv_formation", "cli.export", None),
    (cli, "_csv_single", "cli.export", None),
    (cli, "_traj_json_formation", "cli.export", None),
    (cli, "_traj_json_single", "cli.export", None),
    (cli, "_write_text", "cli.write", lambda args: len(args[1])),
    (scenarios, "validate_bundle", "scenarios.validate_bundle", None),
    (scenarios, "load_scenario", "scenarios.load_scenario", None),
    (scenarios, "validate_selection", "validate_selection", lambda args: len(args[2])),
    (model, "lie_bracket", "lie_bracket", None),
    (synthesis, "steering_coefficients", "steering", None),
    (synthesis, "extension_matrix", "extension_matrix", None),
    (synthesis, "_solve_steering", "solve", None),
    (synthesis, "validate_selection", "validate_selection", lambda args: len(args[2])),
    (synthesis, "held_control", "held_control", None),
    (synthesis, "lie_bracket", "lie_bracket", None),
    (simulate, "steering_coefficients", "steering", None),
    (simulate, "held_control", "held_control", None),
    (simulate, "_rk4_step", "rk4_step", None),
    (simulate, "_guard_state", "guard", None),
    (simulate, "simulate_pi_epsilon", "simulate_pi_epsilon", None),
    (simulate, "decay_report", "decay_report", None),
    (simulate._Recorder, "record", "recorder.record", None),
    (simulate._Recorder, "build", "recorder.build", None),
    (formation, "follower_steering", "steering", None),
    (formation, "extension_matrix", "extension_matrix", None),
    (formation, "_solve_steering", "solve", None),
    (formation, "held_control", "held_control", None),
    (formation, "_rk4_step", "rk4_step", None),
    (formation, "_guard", "guard", None),
    (formation, "simulate_leader", "simulate_leader", None),
    (formation, "gain_condition_report", "gain_condition_report", None),
)

CLI_PHASES = {
    "cli.load_s": ("cli.load",),
    "cli.certify_s": ("cli.certify",),
    "cli.integrate_s": ("cli.simulate_formation", "cli.simulate_pi_epsilon", "cli.epsilon_sweep"),
    "cli.report_s": ("cli.decay_report", "cli.gain_condition_report"),
    "cli.export_s": ("cli.export", "cli.json_dumps"),
    "cli.write_s": ("cli.write",),
}

# name -> (unit, span names, statistic); statistics are per traced operation.
# "s": summed duration; "self_s": summed self time; "calls": span count;
# "us_per_call"/"self_us_per_call": mean per span; "units": counted units
# (bytes written, probes validated); "us_per_unit": duration per unit;
# "per_work": calls per unit of workload work; "coverage": share of the
# traced wall time inside the cli phases; "spans": all spans recorded.
# A layer the workload never calls reads 0.
PER_LAYER = {
    **{k: ("s", v, "s") for k, v in CLI_PHASES.items()},
    "cli.bytes_written": ("bytes", ("cli.write",), "units"),
    "cli.phase_coverage": ("frac", (), "coverage"),
    "scenarios.validate_bundle.s": ("s", ("scenarios.validate_bundle",), "s"),
    "scenarios.load_scenario.s": ("s", ("scenarios.load_scenario",), "s"),
    "synthesis.steering.calls": ("count", ("steering",), "calls"),
    "synthesis.steering.us_per_call": ("us", ("steering",), "us_per_call"),
    "synthesis.extension_matrix.self_us_per_call": ("us", ("extension_matrix",), "self_us_per_call"),
    "synthesis.solve.us_per_call": ("us", ("solve",), "us_per_call"),
    "synthesis.validate_selection.us_per_probe": ("us", ("validate_selection",), "us_per_unit"),
    "synthesis.held_control.calls": ("count", ("held_control",), "calls"),
    "synthesis.held_control.us_per_call": ("us", ("held_control",), "us_per_call"),
    "synthesis.held_control.calls_per_substep": ("calls/substep", ("held_control",), "per_work"),
    "model.lie_bracket.calls": ("count", ("lie_bracket",), "calls"),
    "model.lie_bracket.us_per_call": ("us", ("lie_bracket",), "us_per_call"),
    "simulate.rk4_step.calls": ("count", ("rk4_step",), "calls"),
    "simulate.rk4_step.self_us_per_call": ("us", ("rk4_step",), "self_us_per_call"),
    "simulate.guard.calls": ("count", ("guard",), "calls"),
    "simulate.guard.s": ("s", ("guard",), "s"),
    "simulate.recorder.rows": ("count", ("recorder.record",), "calls"),
    "simulate.recorder.record_s": ("s", ("recorder.record",), "s"),
    "simulate.recorder.build_s": ("s", ("recorder.build",), "s"),
    "simulate.decay_report.s": ("s", ("cli.decay_report", "decay_report"), "s"),
    "simulate.epsilon_sweep.self_s": ("s", ("cli.epsilon_sweep",), "self_s"),
    "formation.simulate_formation.self_s": ("s", ("cli.simulate_formation",), "self_s"),
    "formation.simulate_leader.s": ("s", ("simulate_leader",), "s"),
    "formation.gain_condition_report.s": (
        "s", ("cli.gain_condition_report", "gain_condition_report"), "s"),
    "trace.spans": ("count", (), "spans"),
}


class _JsonShim:
    """Stands in for the ``json`` module inside ``cli`` so dumps is timed."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, attr):
        return getattr(json, attr)


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.units = {}
        self._stack = [-1]
        self._saved = []
        self.op_id = -1

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, span_name, fn, count=None):
        nid = self._id(span_name)
        name, parent, op, start, end = self.name, self.parent, self.op, self.start, self.end
        stack = self._stack
        units = self.units

        def traced(*args, **kwargs):
            if count is not None:
                units[nid] = units.get(nid, 0) + count(args)
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1])
            op.append(self.op_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every target for one operation; uninstall() restores them."""
        self.op_id += 1
        for ns, attr, span_name, count in TARGETS:
            orig = ns.__dict__[attr]
            self._saved.append((ns, attr, orig))
            setattr(ns, attr, self.wrap(span_name, orig, count))
        self._saved.append((cli, "json", cli.json))
        cli.json = _JsonShim(self.wrap("cli.json_dumps", json.dumps))

    def uninstall(self):
        while self._saved:
            ns, attr, orig = self._saved.pop()
            setattr(ns, attr, orig)

    def arrays(self):
        return (np.frombuffer(self.name, dtype=np.int32), np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.op, dtype=np.int32), np.frombuffer(self.start),
                np.frombuffer(self.end))

    def per_layer(self, n_ops, wall_s, work):
        """Per-operation layer metrics from the recorded spans.

        wall_s is the mean wall time of the traced operations; work is the
        workload's work units per operation.
        """
        name, parent, _, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_t = dur - child
        n_names = len(self.names)
        calls = np.bincount(name, minlength=n_names)
        total = np.bincount(name, weights=dur, minlength=n_names)
        self_total = np.bincount(name, weights=self_t, minlength=n_names)

        def ids(span_names):
            return [self._ids[s] for s in span_names if s in self._ids]

        phase_total = sum(total[i] for k in CLI_PHASES for i in ids(CLI_PHASES[k]))
        out = {}
        for metric, (unit, spans, stat) in PER_LAYER.items():
            sel = ids(spans)
            n = float(sum(calls[i] for i in sel))
            if stat == "s":
                v = sum(total[i] for i in sel) / n_ops
            elif stat == "self_s":
                v = sum(self_total[i] for i in sel) / n_ops
            elif stat == "calls":
                v = n / n_ops
            elif stat == "us_per_call":
                v = 1e6 * sum(total[i] for i in sel) / n if n else 0.0
            elif stat == "self_us_per_call":
                v = 1e6 * sum(self_total[i] for i in sel) / n if n else 0.0
            elif stat == "units":
                v = sum(self.units.get(i, 0) for i in sel) / n_ops
            elif stat == "us_per_unit":
                u = sum(self.units.get(i, 0) for i in sel)
                v = 1e6 * sum(total[i] for i in sel) / u if u else 0.0
            elif stat == "per_work":
                v = n / n_ops / work if work else 0.0
            elif stat == "coverage":
                v = phase_total / n_ops / wall_s if wall_s else 0.0
            elif stat == "spans":
                v = len(dur) / n_ops
            out[metric] = {"value": float(v), "unit": unit}
        return out

    def save(self, path):
        name, parent, op, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent, op=op,
                 start=start, end=end)
