"""`run --format csv` streams: the run's recorder drains its rows to the file
a block at a time, and the gain condition is folded over every sub-step.

The bytes are those of the recorded path, the failures exit as they did, and
the two outcomes that streaming changes are pinned here: a missing --out
directory is refused before the run, and a failure after the first written
block removes a file that was already at --out.
"""

import contextlib
import dataclasses
import io
import json
import tracemalloc

import numpy as np
import pytest

from bracket_steer import (DivergenceError, SimConfig, builtin_scenario, cli, formation,
                           gain_condition_report, model, scenario_to_dict, simulate,
                           simulate_formation, simulate_leader, simulate_pi_epsilon)
from bracket_steer.cli import main

# Horizons of about 400 sub-steps, each with and without a partial tail.
_HORIZONS = {"rolling-disc": {False: 10.0, True: 10.3},
             "unicycle-leader": {False: 1.0, True: 1.07}}


def _scenario(tmp_path, name, stride, t_final):
    data = scenario_to_dict(builtin_scenario(name))
    data["sim"]["record_stride"] = stride
    data["sim"]["t_final"] = t_final
    path = tmp_path / f"{name}-{stride}.json"
    path.write_text(json.dumps(data))
    return path


def _recorded_csv(name, stride, t_final):
    """cli._csv_chunks over the recorded trajectory of the public run."""
    b = builtin_scenario(name)
    cfg = SimConfig(t_final=t_final, record_stride=stride)
    if b.kind == "formation":
        traj = simulate_formation(b.agents, b.leader, b.agent_x0s, b.gains, cfg)
        return "".join(cli._csv_formation(traj, b.agents)).encode()
    traj = simulate_pi_epsilon(b.system, b.selection, b.gains, np.array(b.x0), cfg)
    return "".join(cli._csv_single(traj, b.system.n, b.system.m)).encode()


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


@pytest.mark.parametrize("tail", [False, True], ids=["whole", "tail"])
@pytest.mark.parametrize("table", [7, 40, 256])
@pytest.mark.parametrize("stride", [1, 3, 7, 40, 41])
@pytest.mark.parametrize("name", ["rolling-disc", "unicycle-leader"])
def test_streamed_csv_bytes_equal_the_recorded_path(tmp_path, monkeypatch, name, stride, table,
                                                    tail):
    # The reference is formatted from the whole recorded trajectory at the
    # default table blocks and block size.  The streamed run takes table
    # blocks of `table` sub-steps and blocks of 16 values, so its recorder
    # drains every 32 or 16 rows (two float_text blocks of 2 rows, or one
    # of 1 row, at the 8 and 11 columns): each stride's rows are split
    # across drains at every phase.
    t_final = _HORIZONS[name][tail]
    want = _recorded_csv(name, stride, t_final)
    monkeypatch.setattr(simulate, "TABLE_SUBSTEPS", table)
    monkeypatch.setattr(model, "BLOCK_VALUES", 16)
    monkeypatch.setattr(cli, "_DRAIN_BLOCKS", 2)
    out = tmp_path / "out.csv"
    assert _run(["run", str(_scenario(tmp_path, name, stride, t_final)),
                 "--out", str(out)]) == 0
    assert out.read_bytes() == want


def test_a_csv_run_keeps_no_trajectory(tmp_path, monkeypatch):
    # The CSV run's recorder drains: the trajectory it returns holds its
    # sampling instants and no dense point, and every drained block is at
    # most the drain's rows.
    drained = []
    flush = simulate._Recorder._flush

    def counted(rec):
        drained.append(len(rec.times))
        flush(rec)

    built = []
    run = cli.simulate_formation

    def kept(*args):
        built.append(run(*args))
        return built[-1]

    monkeypatch.setattr(simulate._Recorder, "_flush", counted)
    monkeypatch.setattr(cli, "simulate_formation", kept)
    assert _run(["run", "unicycle-leader", "--out", str(tmp_path / "x.csv")]) == 0
    rows = cli._DRAIN_BLOCKS * model.block_rows(11)
    assert sum(drained) == 24_001 and len(drained) == -(-24_001 // rows)
    assert drained[:-1] == [rows] * (len(drained) - 1)
    traj, = built
    assert traj.dense_times.size == 0 and traj.sample_times.size == 601


# The disc at gamma 50 diverges at t = 22.95, 918 rows in: inside the first
# drained block (8192 rows of its 8 columns), past it at blocks of 64 values
# (drains of 8 rows).
_DIVERGING_DISC = ["run", "rolling-disc", "--gamma", "50", "--t-final", "30"]


def _small_drains(monkeypatch):
    monkeypatch.setattr(model, "BLOCK_VALUES", 64)
    monkeypatch.setattr(cli, "_DRAIN_BLOCKS", 1)


def _public_divergence():
    b = builtin_scenario("rolling-disc")
    gains = dataclasses.replace(b.gains, gamma=50.0)
    with pytest.raises(DivergenceError) as info:
        simulate_pi_epsilon(b.system, b.selection, gains, np.array(b.x0), SimConfig(t_final=30.0))
    assert info.value.t == 22.95 and len(info.value.partial.dense_times) == 918
    return str(info.value)


def _written_chunks(monkeypatch):
    chunks = []
    write = cli._Output.write

    def counted(out, chunk):
        chunks.append(len(chunk))
        write(out, chunk)

    monkeypatch.setattr(cli._Output, "write", counted)
    return chunks


def test_divergence_after_the_first_block_exits_3_and_leaves_no_file(tmp_path, capsys,
                                                                      monkeypatch):
    _small_drains(monkeypatch)
    chunks = _written_chunks(monkeypatch)
    out = tmp_path / "x.csv"
    assert main([*_DIVERGING_DISC, "--out", str(out)]) == 3
    assert chunks  # the file was opened and written before the run failed
    assert capsys.readouterr().err == f"error:DivergenceError:{_public_divergence()}\n"
    assert list(tmp_path.iterdir()) == []


def test_failure_after_the_first_block_removes_a_file_already_at_out(tmp_path, capsys,
                                                                    monkeypatch):
    # The CSV is opened by its first drained block, so a run that fails
    # after it removes what was at --out (before streaming, the run ended
    # before the file was opened and left it as it was).
    _small_drains(monkeypatch)
    out = tmp_path / "x.csv"
    out.write_text("earlier run\n")
    assert main([*_DIVERGING_DISC, "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("error:DivergenceError:")
    assert list(tmp_path.iterdir()) == []


def test_failure_before_the_first_block_keeps_a_file_already_at_out(tmp_path, capsys):
    # The run diverges inside the first drained block: the file is never
    # opened, as before streaming.
    out = tmp_path / "x.csv"
    out.write_text("earlier run\n")
    assert main([*_DIVERGING_DISC, "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("error:DivergenceError:")
    assert out.read_text() == "earlier run\n"


def test_missing_out_directory_exits_4_before_the_run(tmp_path, capsys, monkeypatch):
    # The CSV is written as the run goes, so its directory is checked before
    # the run: a run that would diverge exits 4, not 3, and never starts.
    def no_run(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(simulate, "_run_sampled", no_run)
    missing = tmp_path / "missing"
    assert main([*_DIVERGING_DISC, "--out", str(missing / "x.csv")]) == 4
    assert capsys.readouterr().err == (
        f"error:OSError:output directory {missing} does not exist\n")


def _gain_rows(path):
    return json.loads(path.read_text())["gain_condition"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_gain_condition_rows_equal_at_strides_1_and_10(tmp_path, fmt):
    # The fold sees every sub-step whatever the record stride, so the rows
    # are the same at strides 1 and 10, and bitwise those of
    # gain_condition_report over the leader's whole path.
    b = builtin_scenario("unicycle-leader")
    times, states = simulate_leader(b.leader, b.gains, SimConfig(t_final=6.0))
    want = [row.to_dict() for row in gain_condition_report(b.leader, b.agents, 0.3,
                                                           times, states)]
    for stride in (1, 10):
        out = tmp_path / f"run-{stride}.{fmt}"
        assert _run(["run", str(_scenario(tmp_path, "unicycle-leader", stride, 6.0)),
                     "--format", fmt, "--out", str(out)]) == 0
        side = out.with_name(out.stem + ".report.json") if fmt == "csv" else out
        assert _gain_rows(side) == want


def test_speed_fold_raises_the_first_nan_after_the_run(monkeypatch):
    # A NaN speed is kept, not raised, while the run goes on; rows() raises
    # it, naming the first NaN t, as gain_condition_report does over the
    # same path.
    b = builtin_scenario("unicycle-leader")
    times, states = simulate_leader(b.leader, b.gains, SimConfig(t_final=1.0))
    bad = times[57]

    def field(t, x):
        return (np.nan, 0.0, 0.0) if t >= bad else b.leader.dynamics(t, x)

    nan_leader = type(b.leader)(name="nan-leader", dynamics=field, x0=b.leader.x0)
    with pytest.raises(Exception) as want:
        gain_condition_report(nan_leader, b.agents, 0.3, times, states)
    fold = formation._SpeedFold(nan_leader)
    step = 40  # feed the recorded path as blocks of 40 sub-steps
    for lo in range(0, len(times) - 1, step):
        ts = np.repeat(times[lo:lo + step + 1], 3)[:3 * step + 1]
        fold.record(ts, states[lo][None], states[lo + 1:lo + step + 1], 0, [],
                    lo + step == len(times) - 1)
    with pytest.raises(type(want.value)) as info:
        fold.rows(b.agents, 0.3)
    assert str(info.value) == str(want.value) == (
        f"leader field 'nan-leader' returned NaN at t={bad:.6g}")


def _validate_peak(tmp_path, t_final):
    path = _scenario(tmp_path, "unicycle-leader", 1, t_final)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert _run(["validate", str(path), "--out", str(tmp_path / "v.json")]) == 0
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_validate_peak_does_not_grow_with_the_horizon(tmp_path):
    # validate's gain condition folds the leader alone over every sub-step
    # and records nothing, not even its sampling instants: 240 000
    # sub-steps peak no higher than 24 000.  simulate_leader's path took
    # about 40 bytes a sub-step (8.6 MB more at 600).
    _validate_peak(tmp_path, 60.0)  # warms every cache
    short = _validate_peak(tmp_path, 60.0)
    long = _validate_peak(tmp_path, 600.0)
    assert long <= short, (short, long)


def test_validate_gain_condition_is_the_leader_path_report(tmp_path):
    # The rows are bitwise gain_condition_report's over simulate_leader's
    # path, which validate read before the fold.
    b = builtin_scenario("unicycle-leader")
    times, states = simulate_leader(b.leader, b.gains, b.sim)
    want = [row.to_dict() for row in gain_condition_report(b.leader, b.agents, 0.3,
                                                           times, states)]
    assert _run(["validate", "unicycle-leader", "--out", str(tmp_path / "v.json")]) == 0
    assert _gain_rows(tmp_path / "v.json") == want
