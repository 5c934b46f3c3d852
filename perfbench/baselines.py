"""Reproduce the roadmap's re-anchor baselines as single timings.

    python3 perfbench/baselines.py

Prints one JSON object: for each baseline the median, minimum and maximum
over REPEATS runs, in seconds (micro-benchmarks in microseconds per call).
These are reference figures for ROADMAP.md and RESULTS.md; the benchmark
proper is run.py.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib
import io
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from bracket_steer import cli, formation, scenarios, simulate, synthesis  # noqa: E402

REPEATS = 5


def _timed(fn, repeats):
    walls = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - t0)
    return {"median": statistics.median(walls), "min": min(walls), "max": max(walls),
            "n": repeats}


def _per_call_us(fn, args_list, repeats):
    def batch():
        for args in args_list:
            fn(*args)
    t = _timed(batch, repeats)
    return {k: (v * 1e6 / len(args_list) if k != "n" else v) for k, v in t.items()}


def main():
    k = REPEATS

    disc = scenarios.builtin_scenario("rolling-disc")
    uni = scenarios.builtin_scenario("unicycle-leader")
    out = {}
    out["disc_simulate_s"] = _timed(lambda: simulate.simulate_pi_epsilon(
        disc.system, disc.selection, disc.gains, np.array(disc.x0), disc.sim), k)
    out["formation_simulate_s"] = _timed(lambda: formation.simulate_formation(
        uni.agents, uni.leader, uni.agent_x0s, uni.gains, uni.sim), k)

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for fmt in ("csv", "json"):
            argv_run = ["run", "unicycle-leader", "--format", fmt, "--out", f"{tmp}/out.{fmt}"]

            def run_cli(argv_run=argv_run):
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = cli.main(argv_run)
                if rc != 0:
                    raise RuntimeError(f"bracket-steer {' '.join(argv_run)} exited {rc}")
            out[f"cli_run_{fmt}_s"] = _timed(run_cli, k)

    ftraj = formation.simulate_formation(uni.agents, uni.leader, uni.agent_x0s, uni.gains, uni.sim)
    out["csv_format_s"] = _timed(lambda: cli._csv_formation(ftraj, uni.agents), k)

    box = np.asarray(disc.probe_box)
    probes = np.random.default_rng(0).uniform(box[:, 0], box[:, 1], size=(500, 4))
    out["steering_us"] = _per_call_us(
        synthesis.steering_coefficients,
        [(disc.system, disc.selection, disc.gains, x) for x in probes], k)
    out["extension_matrix_us"] = _per_call_us(
        synthesis.extension_matrix, [(disc.system, disc.selection, x) for x in probes], k)
    a = synthesis.steering_coefficients(disc.system, disc.selection, disc.gains, probes[0])
    out["held_control_us"] = _per_call_us(
        synthesis.held_control,
        [(disc.selection, disc.gains.epsilon, disc.system.m, a, 0.001 * i) for i in range(5000)],
        k)
    print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
