"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 perfbench/spread.py --workload formation-run --seeds 1-10 [--trace 1]

Runs run.py once per seed, one run at a time, and prints for every metric
its median, its quartiles and the distance between them as a share of the
median (statistics.quantiles(values, n=4)), next to the bound in
BENCHMARK.json, and how long each whole run took.  A spread above a third
of its bound is flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    for workload in args.workload:
        runs = []
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["run_s"] = time.perf_counter() - t0
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect\n{proc.stderr}", file=sys.stderr)
            runs.append(result)
        run_s = [r["run_s"] for r in runs]
        print(f"{workload} ({len(runs)} runs, trace {args.trace}; each run took "
              f"{min(run_s):.1f}-{max(run_s):.1f} s, median {statistics.median(run_s):.1f} s)")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            rel = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = " !" if bound is not None and rel > bound / 3 else ""
            print(f"  {name:44s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {rel:.4f} bound {bound}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
