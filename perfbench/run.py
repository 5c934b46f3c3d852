"""bracket-steer benchmark: one seeded workload, end-to-end or traced.

    python3 perfbench/run.py --workload formation-run --seed 1 --seconds 8 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` and nothing needs to be built.  Scratch files go to ``.perfbench/``
under the checkout root.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines before it
repeat every metric with its unit plus diagnostics.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median over 11 fresh interpreters of importing
  ``bracket_steer.cli`` and building or loading the workload's scenario.
* ``peak_mem_mb``, ``track_dev``, ``digest_ok``: from one operation at the
  default seed run under tracemalloc.  That operation is also the warm-up,
  and its output digest is compared with golden.json.
* ``wall_s``, ``work_per_s``, ``output_mb``, ``ok_frac``: from operations on
  the seeded inputs, run back to back in this warm process until their
  summed wall time reaches ``--seconds``; every operation's output is checked.

``wall_s`` and ``work_per_s`` are in seconds at a nominal machine speed,
because the shared host's speed changes by tens of percent within seconds:
every timed operation is sampled by the fixed kernel in ``reference.py``
from a timer signal, and its time is scaled by the mean speed the kernel saw
(see that module).  The raw times are printed on the ``diagnostics`` line.
``setup_s`` is likewise at nominal speed, with another yardstick: each
set-up sample is followed by a fresh interpreter that imports a fixed set
of standard-library modules (``reference.IMPORTS``), and the sample is
scaled by that import time's nominal over measured value.  The benchmark
pins itself and its children to one CPU, so it does not migrate between
CPUs whose speeds differ.

``--trace 1`` reports the per-layer metrics.  It alternates untraced and
traced operations on the default-seed inputs, so call, row and byte counts
repeat exactly across runs, and writes the spans to
``.perfbench/spans-<workload>.npz`` when it ends.
"""

import os

# Pin BLAS before numpy is imported anywhere in this process or its children.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
import traceback
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
NAMES = ("formation-run", "swarm-json", "disc-sweep", "certify-probes")
SETUP_SAMPLES = 11
MIN_OPS = 3
MIN_TRACE_PAIRS = 2
MAX_FAILED = 3


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment():
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": _cpu_model(),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def _fresh_seconds(code):
    """Wall time of code run in a fresh interpreter, timed inside it."""
    timed = ("import sys, time\n"
             "t0 = time.perf_counter()\n"
             f"{code}\n"
             "print(time.perf_counter() - t0)\n")
    proc = subprocess.run([sys.executable, "-c", timed], cwd=ROOT, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def _setup_sample(workload):
    """One set-up sample: (raw seconds, seconds at nominal speed).

    A fresh interpreter imports the CLI and sets up the scenario; the next
    one runs reference.IMPORTS, which scales the first to nominal speed.
    """
    raw = _fresh_seconds(f"sys.path.insert(0, {str(SRC)!r})\n"
                         "import bracket_steer.cli\n"
                         f"{workload.setup_code()}")
    yardstick = _fresh_seconds(reference.IMPORTS)
    return raw, raw * reference.IMPORTS_NOMINAL_S / yardstick


class Runner:
    """Runs and checks operations of one workload, counting failures."""

    def __init__(self, workload, workdir, check_seed):
        import numpy as np
        self.workload = workload
        self.workdir = Path(workdir)
        self.check_rng = np.random.default_rng(check_seed)
        self.attempted = 0
        self.failed = 0

    def run(self, around=None, sample=False):
        """Run and check one operation; returns (wall seconds, corrected, Outcome).

        around, if given, is a (start, stop) pair called just outside the
        timed call, for tracemalloc or the tracer.  With sample, the call
        runs under a reference.Sampler and corrected is its time at nominal
        speed; otherwise corrected is None.  A crash counts as a failed
        operation and its wall time runs to the crash.
        """
        from workloads import Outcome
        outdir = Path(tempfile.mkdtemp(dir=self.workdir))
        self.attempted += 1
        gc.collect()
        t0 = time.perf_counter()
        wall = corrected = None
        try:
            if around is not None:
                around[0]()
            try:
                if sample:
                    with reference.Sampler() as sampler:
                        result = self.workload.operation(outdir)
                    wall, corrected = sampler.wall, sampler.corrected()
                else:
                    t0 = time.perf_counter()
                    result = self.workload.operation(outdir)
                    wall = time.perf_counter() - t0
            finally:
                if around is not None:
                    around[1]()
            outcome = self.workload.check(result, outdir, self.check_rng)
        except Exception:  # any crash is a failed operation, reported below
            traceback.print_exc()
            wall = wall if wall is not None else time.perf_counter() - t0
            outcome = Outcome().fail("operation raised")
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        if not outcome.ok:
            self.failed += 1
            print(f"FAILED {self.workload.name}: {outcome.reason}", file=sys.stderr)
        return wall, corrected, outcome


def _timed_loop(seconds, min_ops, step, runner):
    """Call step() until it has run min_ops times and its times sum to seconds.

    Stops early once MAX_FAILED operations have failed: the run is then
    incorrect whatever else it measures.
    """
    total, n = 0.0, 0
    while (total < seconds or n < min_ops) and runner.failed < MAX_FAILED:
        total += step()
        n += 1


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def _end_to_end(args, wl, workdir):
    golden_hashes = json.loads((HERE / "golden.json").read_text())
    make = wl.WORKLOADS[args.workload]
    golden = make(wl.DEFAULT_SEED, workdir)
    seeded = golden if args.seed == wl.DEFAULT_SEED else make(args.seed, workdir)

    _setup_sample(seeded)  # warms the file cache; not a sample
    setup_raw, setup = zip(*(_setup_sample(seeded) for _ in range(SETUP_SAMPLES)))

    runner = Runner(golden, workdir, args.seed)
    peak = []

    def traced_start():
        tracemalloc.start()

    def traced_stop():
        peak.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()

    _, _, g = runner.run(around=(traced_start, traced_stop))
    digest_ok = 1.0 if g.ok and g.digest == golden_hashes[args.workload] else 0.0
    if g.ok and not digest_ok:
        print(f"digest mismatch: {g.digest}", file=sys.stderr)

    runner.workload = seeded
    walls, raw_walls, sizes = [], [], []

    def step():
        wall, corrected, outcome = runner.run(sample=True)
        if outcome.ok:
            walls.append(corrected)
            raw_walls.append(wall)
            sizes.append(outcome.output_bytes)
        return wall

    _timed_loop(args.seconds, MIN_OPS, step, runner)
    if not walls:
        raise SystemExit("no operation succeeded")
    wall = statistics.median(walls)
    metrics = {
        "setup_s": _metric(statistics.median(setup), "s"),
        "wall_s": _metric(wall, "s"),
        "work_per_s": _metric(seeded.work / wall, "work/s"),
        "peak_mem_mb": _metric(peak[0] / 1e6, "MB"),
        "output_mb": _metric(statistics.median(sizes) / 1e6, "MB"),
        "track_dev": _metric(g.track_dev, "norm"),
        "ok_frac": _metric((runner.attempted - runner.failed) / runner.attempted, "frac"),
        "digest_ok": _metric(digest_ok, "bool"),
    }
    q = statistics.quantiles(walls, n=10, method="inclusive") if len(walls) > 1 else walls
    diag = {"ops": len(walls), "wall_s_p90": q[-1], "wall_s_min": min(walls),
            "wall_s_max": max(walls), "raw_wall_s": statistics.median(raw_walls),
            "raw_setup_s": statistics.median(setup_raw), "setup_samples": setup,
            "failed_frac": runner.failed / runner.attempted,
            "work": f"{seeded.work} {seeded.work_unit} per operation"}
    return runner, metrics, diag


def _traced(args, wl, workdir):
    from tracer import Tracer
    work = wl.WORKLOADS[args.workload](wl.DEFAULT_SEED, workdir)
    runner = Runner(work, workdir, args.seed)
    tracer = Tracer()
    runner.run()  # warm-up
    plain, traced = [], []

    def step():
        a, _, _ = runner.run()
        b, _, _ = runner.run(around=(tracer.install, tracer.uninstall))
        plain.append(a)
        traced.append(b)
        return a + b

    _timed_loop(args.seconds, MIN_TRACE_PAIRS, step, runner)
    t_wall = statistics.median(traced)
    u_wall = statistics.median(plain)
    metrics = tracer.per_layer(len(traced), statistics.fmean(traced), work.work)
    metrics["trace.traced_wall_s"] = _metric(t_wall, "s")
    metrics["trace.untraced_wall_s"] = _metric(u_wall, "s")
    metrics["trace.overhead_s"] = _metric(t_wall - u_wall, "s")
    tracer.save(workdir.parent / f"spans-{args.workload}.npz")
    diag = {"pairs": len(traced), "spans": len(tracer.name)}
    return runner, metrics, diag


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bracket_steer" / "__init__.py").is_file():
        print(f"error: no bracket_steer sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as wl

    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    env = _environment()
    print("environment " + json.dumps(env))
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        body = _traced if args.trace else _end_to_end
        runner, metrics, diag = body(args, wl, Path(tmp))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print("diagnostics " + json.dumps(diag))
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
