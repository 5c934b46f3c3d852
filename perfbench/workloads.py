"""The four benchmark workloads: seeded inputs, one operation, and its check.

Each workload turns a seed into inputs (scenario files written to a work
directory, or probe arrays), runs one operation through the package's
public entry points, and checks the operation's output independently of
the timing.  The default seed reproduces the shipped built-ins unchanged,
so the output digests at that seed are the golden hashes in golden.json.

Every call into the package goes through a module attribute
(``cli.main``, ``synthesis.validate_selection``, ...), so the traced pass
can wrap those attributes from outside.
"""

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from bracket_steer import cli, formation, scenarios, simulate, synthesis

DEFAULT_SEED = 0
# Rows whose stored controls are recomputed bitwise in every check.
CONTROL_SAMPLES = 48


@dataclass
class Outcome:
    """What one operation left behind, and what its check found."""

    ok: bool = True
    reason: str = ""
    output_bytes: int = 0
    track_dev: float = math.nan
    digest: str = ""

    def fail(self, reason):
        self.ok = False
        self.reason = self.reason or reason
        return self


def _cli(argv):
    """Run one CLI command in-process; its chatter on stdout is discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _box(bundle):
    return np.asarray(bundle.probe_box, dtype=float)


def _sha(*chunks):
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def _held_matches(sel, eps, m, a, t, u_stored):
    u = synthesis.held_control(sel, eps, m, a, t)
    return all(float(x) == float(y) for x, y in zip(u, u_stored)) and len(u) == len(u_stored)


def _grid(cfg, gains, kappa_max):
    """Whole intervals and sub-steps per interval, as the library resolves them.

    The workloads are built with no partial tail interval.
    """
    t_final, nsub = simulate.resolve_config(cfg, gains, kappa_max)
    n_int, tail = simulate.interval_grid(t_final, gains.epsilon)
    if tail:
        raise ValueError("benchmark workloads must use whole sampling intervals")
    return n_int, nsub


def _kappa_max(bundle):
    return max(agent.selection.kappa_max for agent in bundle.agents)


def _follower_dev(agent, gains, times, xs, xls, nsub):
    """max_j ||y(tau_j) - yhat(tau_j)|| for one follower.

    y is the displacement x - x_L - d at the sampling instants (every nsub-th
    dense row) and yhat is the averaged flow of that displacement toward 0
    at the agent's own gain.
    """
    g = synthesis.ControllerGains(epsilon=gains.epsilon, gamma=agent.gamma,
                                  y_star=(0.0,) * agent.system.n)
    d = agent.offset_vec()
    y0 = np.asarray(xs[0]) - np.asarray(xls[0]) - d
    dev = 0.0
    for i in range(0, len(times), nsub):
        y = np.asarray(xs[i]) - np.asarray(xls[i]) - d
        ref = simulate.averaged_reference(y0, g, float(times[i]))
        dev = max(dev, float(np.linalg.norm(y - ref)))
    return dev


def _check_follower_controls(agent, gains, times, xs, us, xls, nsub, rows):
    """Stored controls must recompute bitwise from the frozen sample pair."""
    sel = agent.selection
    for i in rows:
        s = (i // nsub) * nsub
        a = formation.follower_steering(agent, gains, np.asarray(xs[s]), np.asarray(xls[s]))
        if not _held_matches(sel, gains.epsilon, agent.system.m, a, float(times[i]), us[i]):
            return f"control at row {i} does not recompute bitwise"
    return ""


class Workload:
    """One workload at one seed.

    Subclasses set ``source`` (the scenario argument the CLI receives) and
    ``work`` (units of ``work_unit`` per operation) in ``__init__``.
    """

    name = ""
    why = ""
    work_unit = ""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = Path(workdir)
        self.rng = np.random.default_rng(seed)

    def _write_scenario(self, data):
        """Write a generated scenario file; its path becomes the CLI argument."""
        path = self.workdir / f"{self.name}-{self.seed}.json"
        path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
        self.source = str(path)
        return scenarios.scenario_from_dict(data)

    def setup_code(self):
        """Python run in a fresh interpreter to time import plus scenario set-up."""
        if self.source in scenarios.builtin_names():
            return f"from bracket_steer import scenarios; scenarios.builtin_scenario({self.source!r})"
        return f"from bracket_steer import scenarios; scenarios.load_scenario({self.source!r})"

    def operation(self, outdir):
        raise NotImplementedError

    def check(self, result, outdir, check_rng):
        raise NotImplementedError

    def _sample_rows(self, check_rng, n_rows):
        return sorted(int(i) for i in check_rng.choice(n_rows, size=min(CONTROL_SAMPLES, n_rows),
                                                      replace=False))


class FormationRun(Workload):
    name = "formation-run"
    why = ("the headline user path: run unicycle-leader as CSV (1 follower, 24 000 sub-steps, "
           "5.2 MB); integration dominates and N=1 bypasses any batching")
    work_unit = "agent RK4 sub-steps"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        bundle = scenarios.builtin_scenario("unicycle-leader")
        if seed == DEFAULT_SEED:
            self.source = "unicycle-leader"
        else:
            data = scenarios.scenario_to_dict(bundle)
            box = _box(bundle)
            spec = data["agents"][0]
            spec["x0"] = self.rng.uniform(box[:, 0], box[:, 1]).tolist()
            spec["offset"] = self.rng.uniform(box[:, 0], box[:, 1]).tolist()
            bundle = self._write_scenario(data)
        self.bundle = bundle
        self.n_int, self.nsub = _grid(bundle.sim, bundle.gains, _kappa_max(bundle))
        self.work = len(bundle.agents) * self.n_int * self.nsub

    def operation(self, outdir):
        return _cli(["run", self.source, "--format", "csv", "--out", str(outdir / "out.csv")])

    def check(self, rc, outdir, check_rng):
        out = Outcome()
        if rc != 0:
            return out.fail(f"exit code {rc}")
        csv_bytes = (outdir / "out.csv").read_bytes()
        side_bytes = (outdir / "out.report.json").read_bytes()
        out.output_bytes = len(csv_bytes) + len(side_bytes)
        out.digest = _sha(csv_bytes, b"\0", side_bytes)
        lines = csv_bytes.decode("ascii").splitlines()
        rows = self.n_int * self.nsub + 1
        if len(lines) != rows + 1:
            return out.fail(f"expected {rows} rows, got {len(lines) - 1}")
        b = self.bundle
        agent = b.agents[0]
        p, m = agent.system.n, agent.system.m
        inst = list(range(0, rows, self.nsub))
        sampled = self._sample_rows(check_rng, rows)
        parsed = {i: [float(v) for v in lines[i + 1].split(",")] for i in set(inst + sampled)}
        times = {i: r[0] for i, r in parsed.items()}
        xs = {i: r[1:1 + p] for i, r in parsed.items()}
        us = {i: r[1 + p:1 + p + m] for i, r in parsed.items()}
        xls = {i: r[2 + p + m:2 + 2 * p + m] for i, r in parsed.items()}
        reason = _check_follower_controls(agent, b.gains, times, xs, us, xls, self.nsub, sampled)
        if reason:
            return out.fail(reason)
        out.track_dev = _follower_dev(agent, b.gains, [times[i] for i in inst],
                                      [xs[i] for i in inst], [xls[i] for i in inst], 1)
        return out


class SwarmJson(Workload):
    name = "swarm-json"
    why = ("16 seeded unicycle followers loaded from a scenario file and exported as JSON: "
           "the per-agent Python loop and the JSON export path")
    work_unit = "agent RK4 sub-steps"
    agents = 16
    # Shorter than the built-in horizon so that a whole run, including the
    # operation under tracemalloc (about seven times slower), stays near
    # half a minute.
    t_final = 4.0

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        base = scenarios.builtin_scenario("unicycle-leader")
        data = scenarios.scenario_to_dict(base)
        box = _box(base)
        template = data["agents"][0]
        specs = []
        for _ in range(self.agents):
            spec = json.loads(json.dumps(template))
            spec["x0"] = self.rng.uniform(box[:, 0], box[:, 1]).tolist()
            spec["offset"] = self.rng.uniform(box[:, 0], box[:, 1]).tolist()
            specs.append(spec)
        data["name"] = "swarm"
        data["agents"] = specs
        data["sim"]["t_final"] = self.t_final
        self.bundle = self._write_scenario(data)
        self.n_int, self.nsub = _grid(self.bundle.sim, self.bundle.gains,
                                      _kappa_max(self.bundle))
        self.work = self.agents * self.n_int * self.nsub

    def operation(self, outdir):
        return _cli(["run", self.source, "--format", "json", "--out", str(outdir / "out.json")])

    def check(self, rc, outdir, check_rng):
        out = Outcome()
        if rc != 0:
            return out.fail(f"exit code {rc}")
        raw = (outdir / "out.json").read_bytes()
        out.output_bytes = len(raw)
        out.digest = _sha(raw)
        traj = json.loads(raw)["trajectory"]
        rows = self.n_int * self.nsub + 1
        times, leader, agents = traj["t"], traj["leader"], traj["agents"]
        if len(times) != rows or len(leader) != rows or len(agents) != self.agents:
            return out.fail(f"expected {rows} rows for {self.agents} agents")
        for spec in agents:
            if not len(spec["x"]) == len(spec["u"]) == len(spec["err"]) == rows:
                return out.fail("agent series length mismatch")
        b = self.bundle
        picks = check_rng.integers(0, self.agents, size=CONTROL_SAMPLES)
        for k, i in zip(picks, self._sample_rows(check_rng, rows)):
            spec = agents[int(k)]
            reason = _check_follower_controls(b.agents[int(k)], b.gains, times, spec["x"],
                                              spec["u"], leader, self.nsub, [i])
            if reason:
                return out.fail(f"agent {int(k)}: {reason}")
        out.track_dev = max(
            _follower_dev(agent, b.gains, times, spec["x"], leader, self.nsub)
            for agent, spec in zip(b.agents, agents))
        return out


class DiscSweep(Workload):
    name = "disc-sweep"
    why = ("rolling-disc epsilon sweep: the only path through simulate_pi_epsilon, a plant "
           "with free states, and the paper's epsilon-sweep deviation; export is negligible")
    work_unit = "RK4 sub-steps"
    gamma = 2.0
    t_final = 10.0
    eps_list = (0.4, 0.2, 0.1, 0.05, 0.025)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        bundle = scenarios.builtin_scenario("rolling-disc")
        if seed == DEFAULT_SEED:
            self.source = "rolling-disc"
        else:
            data = scenarios.scenario_to_dict(bundle)
            box = _box(bundle)
            data["x0"] = self.rng.uniform(box[:, 0], box[:, 1]).tolist()
            bundle = self._write_scenario(data)
        self.bundle = bundle
        # epsilon_sweep simulates each epsilon with only t_final set.
        cfg = simulate.SimConfig(t_final=self.t_final)
        self.work = 0
        for e in self.eps_list:
            n_int, nsub = _grid(cfg, replace(bundle.gains, epsilon=e),
                                bundle.selection.kappa_max)
            self.work += n_int * nsub

    def operation(self, outdir):
        return _cli(["sweep", self.source, "--gamma", str(self.gamma),
                     "--t-final", str(self.t_final),
                     "--epsilon", ",".join(str(e) for e in self.eps_list),
                     "--out", str(outdir / "sweep.csv")])

    def check(self, rc, outdir, check_rng):
        out = Outcome()
        if rc != 0:
            return out.fail(f"exit code {rc}")
        raw = (outdir / "sweep.csv").read_bytes()
        out.output_bytes = len(raw)
        out.digest = _sha(raw)
        lines = raw.decode("ascii").splitlines()
        if lines[0] != "epsilon,max_deviation" or len(lines) != len(self.eps_list) + 1:
            return out.fail("sweep output has the wrong header or row count")
        rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
        if [r[0] for r in rows] != list(self.eps_list):
            return out.fail("sweep rows do not list the requested epsilons")
        if not all(math.isfinite(r[1]) and r[1] >= 0.0 for r in rows):
            return out.fail("non-finite deviation")
        # Recompute the coarsest row from a trajectory the library returns.
        b = self.bundle
        gains = synthesis.ControllerGains(epsilon=self.eps_list[0], gamma=self.gamma,
                                          y_star=b.gains.y_star, cond_cap=b.gains.cond_cap)
        traj = simulate.simulate_pi_epsilon(b.system, b.selection, gains, np.array(b.x0),
                                            simulate.SimConfig(t_final=self.t_final))
        n1 = b.system.n1
        y0 = np.asarray(b.x0[:n1])
        dev = 0.0
        for tau, state in zip(traj.sample_times, traj.sample_states):
            ref = simulate.averaged_reference(y0, gains, float(tau))
            dev = max(dev, float(np.linalg.norm(state[:n1] - ref)))
        if dev != rows[0][1]:
            return out.fail(f"epsilon={self.eps_list[0]} deviation {rows[0][1]!r} "
                            f"does not recompute ({dev!r})")
        n_dense = traj.dense_times.shape[0]
        for i in self._sample_rows(check_rng, n_dense):
            a = synthesis.steering_coefficients(
                b.system, b.selection, gains, traj.sample_states[traj.interval_index[i]])
            if not _held_matches(b.selection, gains.epsilon, b.system.m, a,
                                 float(traj.dense_times[i]), traj.dense_controls[i]):
                return out.fail(f"control at dense row {i} does not recompute bitwise")
        out.track_dev = max(r[1] for r in rows)
        return out


class CertifyProbes(Workload):
    name = "certify-probes"
    why = ("about 4000 seeded probe states per built-in through validate_selection and one "
           "steering solve each: the steering layer without integration")
    work_unit = "probe states"
    probes = 4000

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.specs = []
        for name in scenarios.builtin_names():
            b = scenarios.builtin_scenario(name)
            box = _box(b)
            probes = self.rng.uniform(box[:, 0], box[:, 1], size=(self.probes, box.shape[0]))
            leaders = (self.rng.uniform(box[:, 0], box[:, 1], size=probes.shape)
                       if b.kind == scenarios.FORMATION else None)
            self.specs.append((b, probes, leaders))
        self.work = self.probes * len(self.specs)

    def setup_code(self):
        return ("from bracket_steer import scenarios; "
                "[scenarios.builtin_scenario(n) for n in scenarios.builtin_names()]")

    def operation(self, outdir):
        results = []
        for b, probes, leaders in self.specs:
            if b.kind == scenarios.SINGLE:
                cert = synthesis.validate_selection(b.system, b.selection, probes, b.gains)
                coeffs = [synthesis.steering_coefficients(b.system, b.selection, b.gains, x)
                          for x in probes]
            else:
                agent = b.agents[0]
                cert = synthesis.validate_selection(agent.system, agent.selection, probes, b.gains)
                coeffs = [formation.follower_steering(agent, b.gains, x, xl)
                          for x, xl in zip(probes, leaders)]
            results.append((cert, np.array(coeffs)))
        return results

    def check(self, results, outdir, check_rng):
        out = Outcome()
        certs = []
        blobs = []
        for (b, probes, leaders), (cert, coeffs) in zip(self.specs, results):
            certs.append(cert.to_dict())
            blobs.append(np.ascontiguousarray(coeffs, dtype="<f8").tobytes())
            if not cert.rank_ok:
                return out.fail(f"{b.name}: rank_ok is false")
            if not (math.isfinite(cert.worst_condition) and math.isfinite(cert.alpha_estimate)):
                return out.fail(f"{b.name}: non-finite condition number")
            if coeffs.shape[0] != self.probes or not np.all(np.isfinite(coeffs)):
                return out.fail(f"{b.name}: missing or non-finite steering coefficients")
            # A seeded sample of solutions must satisfy F(x) a = rhs.
            for i in check_rng.choice(self.probes, size=CONTROL_SAMPLES, replace=False):
                x = probes[i]
                if b.kind == scenarios.SINGLE:
                    sys_, sel = b.system, b.selection
                    rhs = -b.gains.gamma * (x[:sys_.n1] - b.gains.y_star_vec())
                else:
                    agent = b.agents[0]
                    sys_, sel = agent.system, agent.selection
                    rhs = -agent.gamma * (x - leaders[i] - agent.offset_vec())
                F = synthesis.extension_matrix(sys_, sel, x)
                if np.linalg.norm(F @ coeffs[i] - rhs) > 1e-9 * (1.0 + np.linalg.norm(rhs)):
                    return out.fail(f"{b.name}: steering solve residual too large at probe {i}")
        cert_bytes = json.dumps(certs, sort_keys=True).encode("ascii")
        out.output_bytes = len(cert_bytes) + sum(len(x) for x in blobs)
        out.digest = _sha(cert_bytes, *blobs)
        # No trajectory: the fidelity figure here is the worst conditioning seen.
        out.track_dev = max(c["worst_condition"] for c in certs)
        return out


WORKLOADS = {w.name: w for w in (FormationRun, SwarmJson, DiscSweep, CertifyProbes)}
