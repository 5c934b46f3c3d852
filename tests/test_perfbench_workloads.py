"""Every benchmark workload passes its own check at the default seed.

perfbench/workloads.py defines each workload's operation, its independent
check and, through golden.json, the SHA-256 of its output at DEFAULT_SEED.
Here each workload runs one operation in a temporary directory, outside
the benchmark's timing loop, so a change to any output byte (the
16-follower swarm JSON included) fails tier 1.  The module is loaded by
path, as tests/test_tracer_targets.py loads the tracer.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads()
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())


def test_every_workload_has_a_golden_digest():
    assert sorted(WORKLOADS.WORKLOADS) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_workload_default_seed_check_and_digest(tmp_path, name):
    workload = WORKLOADS.WORKLOADS[name](WORKLOADS.DEFAULT_SEED, tmp_path)
    outdir = tmp_path / "out"
    outdir.mkdir()
    result = workload.operation(outdir)
    outcome = workload.check(result, outdir, np.random.default_rng(0))
    assert outcome.ok, outcome.reason
    assert outcome.digest == GOLDEN[name]
