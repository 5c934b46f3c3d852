import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bracket_steer.cli import main


def _lines(path):
    return path.read_text().splitlines()


def test_run_disc_csv(tmp_path, capsys):
    out = tmp_path / "disc.csv"
    rc = main(["run", "rolling-disc", "--out", str(out)])
    assert rc == 0
    lines = _lines(out)
    assert lines[0] == "t,x1,x2,x3,x4,u1,u2,err_y"
    first = lines[1].split(",")
    assert len(first) == 8
    assert float(first[0]) == 0.0
    assert [float(v) for v in first[1:5]] == [2.0, 1.0, 0.0, math.pi]
    assert float(first[7]) == pytest.approx(math.sqrt(5.0), rel=1e-15)
    # Every row has the full column count.
    assert all(len(l.split(",")) == 8 for l in lines[1:])

    side = tmp_path / "disc.report.json"
    report = json.loads(side.read_text())
    assert report["scenario"] == "rolling-disc"
    assert report["certificate"]["rank_ok"] is True
    assert "decay_report" in report
    assert report["decay_report"]["rho"] == 0.1


def test_run_is_byte_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["run", "rolling-disc", "--out", str(a)]) == 0
    assert main(["run", "rolling-disc", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    ra = json.loads((tmp_path / "a.report.json").read_text())
    rb = json.loads((tmp_path / "b.report.json").read_text())
    assert ra == rb


def test_run_override_changes_output(tmp_path):
    base = tmp_path / "base.csv"
    mod = tmp_path / "mod.csv"
    assert main(["run", "rolling-disc", "--t-final", "5", "--out", str(base)]) == 0
    assert main(["run", "rolling-disc", "--t-final", "5", "--epsilon", "0.5",
                 "--out", str(mod)]) == 0
    assert base.read_bytes() != mod.read_bytes()
    report = json.loads((tmp_path / "mod.report.json").read_text())
    assert report["overrides"] == {"epsilon": 0.5, "t_final": 5.0}


def test_run_formation_csv(tmp_path):
    out = tmp_path / "form.csv"
    rc = main(["run", "unicycle-leader", "--t-final", "5", "--out", str(out)])
    assert rc == 0
    lines = _lines(out)
    assert lines[0] == "t,x1,x2,x3,u1,u2,err_y,xL1,xL2,xL3,err_1"
    first = lines[1].split(",")
    assert [float(v) for v in first[1:4]] == [1.0, 0.5, 0.0]
    assert [float(v) for v in first[7:10]] == [0.0, 0.0, math.pi / 4]
    want_err = float(np.linalg.norm([0.9, 0.4, -math.pi / 4]))
    assert float(first[10]) == want_err
    report = json.loads((tmp_path / "form.report.json").read_text())
    assert isinstance(report["certificate"], list)
    assert report["gain_condition"][0]["satisfied"] is True


def test_run_json_format(tmp_path):
    out = tmp_path / "disc.json"
    rc = main(["run", "rolling-disc", "--t-final", "3", "--format", "json",
               "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "single-system"
    traj = doc["trajectory"]
    assert traj["t"][0] == 0.0
    assert traj["x"][0] == [2.0, 1.0, 0.0, math.pi]
    assert len(traj["t"]) == len(traj["u"]) == len(traj["err_y"])


def test_run_scenario_file(tmp_path):
    from bracket_steer import builtin_scenario, save_scenario
    path = tmp_path / "my.json"
    save_scenario(builtin_scenario("rolling-disc"), path)
    out = tmp_path / "my.csv"
    assert main(["run", str(path), "--t-final", "2", "--out", str(out)]) == 0
    assert out.exists()


def test_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "rolling-disc", "--gamma", "2", "--t-final", "2",
               "--epsilon", "0.2,0.1,0.05", "--out", str(out)])
    assert rc == 0
    lines = _lines(out)
    assert lines[0] == "epsilon,max_deviation"
    rows = [tuple(map(float, l.split(","))) for l in lines[1:]]
    assert [e for e, _ in rows] == [0.2, 0.1, 0.05]
    devs = [d for _, d in rows]
    assert devs[0] > devs[1] > devs[2]


def test_sweep_substeps_override(tmp_path):
    base = tmp_path / "base.csv"
    fine = tmp_path / "fine.csv"
    common = ["sweep", "rolling-disc", "--gamma", "2", "--t-final", "2",
              "--epsilon", "0.2,0.1"]
    assert main(common + ["--out", str(base)]) == 0
    assert main(common + ["--substeps", "80", "--out", str(fine)]) == 0
    assert _lines(base)[0] == _lines(fine)[0] == "epsilon,max_deviation"
    base_devs = [l.split(",")[1] for l in _lines(base)[1:]]
    fine_devs = [l.split(",")[1] for l in _lines(fine)[1:]]
    assert all(a != b for a, b in zip(base_devs, fine_devs))


def test_sweep_rejects_rho(tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["sweep", "rolling-disc", "--epsilon", "0.2,0.1", "--rho", "0.1",
              "--out", str(tmp_path / "x.csv")])
    assert info.value.code == 2


def test_sweep_requires_epsilon(tmp_path, capsys):
    rc = main(["sweep", "rolling-disc", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "error:InvalidInputError" in capsys.readouterr().err


def _refuse(*args, **kwargs):
    raise AssertionError("called for an output format the run does not write")


@pytest.mark.parametrize("name", ["rolling-disc", "unicycle-leader"])
@pytest.mark.parametrize("fmt, unused", [
    ("csv", ("_traj_json_single", "_traj_json_formation")),
    ("json", ("_csv_single", "_csv_formation")),
])
def test_run_builds_only_the_requested_format(tmp_path, monkeypatch, name, fmt, unused):
    from bracket_steer import cli
    for attr in unused:
        monkeypatch.setattr(cli, attr, _refuse)
    out = tmp_path / f"out.{fmt}"
    assert main(["run", name, "--t-final", "2", "--format", fmt, "--out", str(out)]) == 0
    assert out.stat().st_size > 0


def test_sweep_parses_epsilon_before_any_work(tmp_path, capsys, monkeypatch):
    from bracket_steer import scenarios

    def no_certify(bundle):
        raise AssertionError("the sweep certified before parsing --epsilon")

    monkeypatch.setattr(scenarios, "validate_bundle", no_certify)
    # The list's emptiness, signs and order are checked where it is parsed.
    for extra, message in ((["--epsilon", "abc"], "--epsilon must be a comma-separated"),
                           ([], "sweep requires --epsilon"),
                           (["--epsilon", "0.1,0.2"], "eps_list must be strictly decreasing"),
                           (["--epsilon", ","], "eps_list must be non-empty"),
                           (["--epsilon", "0.2,-0.1"], "eps_list entries must be > 0"),
                           (["--epsilon", "0.5,nan"], "eps_list entries must be > 0"),
                           (["--epsilon", "inf,0.5"], "eps_list entries must be finite, got inf"),
                           (["--epsilon", "1e400"], "eps_list entries must be finite, got inf")):
        assert main(["sweep", "rolling-disc", *extra, "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err.startswith(f"error:InvalidInputError:{message}")
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("name", ["../escaped", "", ".", "..", "a/b", "a\\b", "a\0b"])
def test_unsafe_scenario_name_exit_2_writes_nothing(tmp_path, capsys, monkeypatch, name):
    # The name becomes the default output path, so one that leaves the
    # working directory, or is no file name at all, is bad input.
    from bracket_steer import builtin_scenario, scenario_to_dict
    d = scenario_to_dict(builtin_scenario("rolling-disc"))
    d["name"] = name
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(d))
    work = tmp_path / "work" / "deeper"
    work.mkdir(parents=True)
    monkeypatch.chdir(work)
    for command in ("validate", "run"):
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:ScenarioFormatError:name")
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["deeper", "scenario.json", "work"]


# SHA-256 of `run <name> --format csv` for the shipped built-ins.  Any
# change to these bytes is a change to a computed trajectory.
GOLDEN_CSV_SHA256 = {
    "rolling-disc": "44233fc42abc7fd6a4c39e5d0445fddd0a3737fc49b8e61beae9e3c5a6542e80",
    "unicycle-leader": "91700b1feb822fcb5acfe86a9571eac94d3115df5647bb18f73a5c77ac47c431",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CSV_SHA256))
def test_builtin_csv_golden_bytes(tmp_path, name):
    out = tmp_path / f"{name}.csv"
    assert main(["run", name, "--format", "csv", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_CSV_SHA256[name]


# SHA-256 of the JSON and sweep writers' bytes, one command each.
GOLDEN_OTHER_SHA256 = {
    "run-disc-json": (["run", "rolling-disc", "--format", "json"],
                      "0d16e158a29073a290641cf072fe2cd040e3ce3064e934e72208f7b77b8248cb"),
    "run-leader-json": (["run", "unicycle-leader", "--format", "json", "--t-final", "6"],
                        "4661297b9e21e65c337b8e97fd36efbb721b748cd49b82fa3e6a901915b6323a"),
    "sweep-disc-csv": (["sweep", "rolling-disc", "--gamma", "2", "--t-final", "10",
                        "--epsilon", "0.4,0.2,0.1,0.05,0.025"],
                       "9bf3596de3c1fdc0dc5e3c5f1563109af1cba53087e89289d5c2b3b2b79f71f4"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_OTHER_SHA256))
def test_json_and_sweep_golden_bytes(tmp_path, case):
    argv, digest = GOLDEN_OTHER_SHA256[case]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_validate_prints_certificate(capsys):
    rc = main(["validate", "rolling-disc"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["certificate"]["rank_ok"] is True
    assert doc["certificate"]["worst_condition"] <= 1.0 + 1e-9


def test_validate_formation_gain_condition(tmp_path):
    out = tmp_path / "cert.json"
    rc = main(["validate", "unicycle-leader", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["certificate"][0]["rank_ok"] is True
    gc = doc["gain_condition"][0]
    assert gc["satisfied"] is True
    assert 0.28 < gc["sup_leader_speed"] < 0.45


@pytest.mark.parametrize("command", ["validate", "run"])
def test_leader_dimension_mismatch_exit_2(tmp_path, capsys, command):
    from bracket_steer import builtin_scenario, scenario_to_dict
    d = scenario_to_dict(builtin_scenario("unicycle-leader"))
    d["leader"]["x0"] = [0.0, 0.0]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    rc = main([command, str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:ScenarioFormatError:leader.x0")


_PAIR = "selection: s2 entry must be a pair of indices, got "
_ZEROS = "gains.y_star must be 3 zeros in a formation, got "


@pytest.mark.parametrize("name, block, key, value, message", [
    # A longer S2 entry used to be cut to its first two indices.
    ("rolling-disc", "selection", "s2", [[1, 2, 7]], _PAIR + "(1, 2, 7)"),
    ("rolling-disc", "selection", "s2", [[1]], _PAIR + "(1,)"),
    # Followers steer x - x_L - d to zero and never read y*, but the run's
    # decay report would measure the displacement against it.
    ("unicycle-leader", "gains", "y_star", [5.0, 5.0, 5.0], _ZEROS + "[5.0, 5.0, 5.0]"),
    ("unicycle-leader", "gains", "y_star", [0.0], _ZEROS + "[0.0]"),
    ("unicycle-leader", "gains", "y_star", [0.0, 0.0, 1e-300], _ZEROS + "[0.0, 0.0, 1e-300]"),
])
def test_refused_scenario_entry_exit_2(tmp_path, capsys, name, block, key, value, message):
    from bracket_steer import builtin_scenario, scenario_to_dict
    d = scenario_to_dict(builtin_scenario(name))
    d[block][key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    for args in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path / "x.csv")]):
        assert main(args) == 2
        assert capsys.readouterr().err == f"error:ScenarioFormatError:{message}\n"
    assert not (tmp_path / "x.csv").exists()


def test_malformed_scenario_values_exit_2(tmp_path, capsys):
    from bracket_steer import builtin_scenario, scenario_to_dict
    gains = scenario_to_dict(builtin_scenario("rolling-disc"))["gains"]
    for key, value in (("x0", ["a", 1, 2, 3]), ("probe_box", 5),
                       ("sim", {"t_final": math.inf}),
                       ("gains", dict(gains, gamma=math.inf)),
                       ("gains", dict(gains, y_star=[math.nan, 0]))):
        d = scenario_to_dict(builtin_scenario("rolling-disc"))
        d[key] = value
        path = tmp_path / f"bad-{key}.json"
        path.write_text(json.dumps(d))
        for args in (["validate", str(path)],
                     ["run", str(path), "--out", str(tmp_path / "x.csv")]):
            assert main(args) == 2
            assert capsys.readouterr().err.startswith(f"error:ScenarioFormatError:{key}")


@pytest.mark.parametrize("where, key, value", [
    ("agents[0]", "offset", [math.nan, 0, 0]),
    ("agents[0]", "gamma", math.inf),
    ("leader", "x0", [math.nan, 0, 0]),
])
def test_malformed_formation_values_exit_2(tmp_path, capsys, where, key, value):
    # A non-finite agent gain, offset or leader state is bad input (exit 2),
    # named by its key, not a divergence found mid-run (exit 3).
    from bracket_steer import builtin_scenario, scenario_to_dict
    d = scenario_to_dict(builtin_scenario("unicycle-leader"))
    (d["leader"] if where == "leader" else d["agents"][0])[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    for args in (["validate", str(path)],
                 ["run", str(path), "--out", str(tmp_path / "x.csv")]):
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error:ScenarioFormatError:{where}: "), err
        assert key in err
    assert not (tmp_path / "x.csv").exists()


def _no_integration(*args):
    raise AssertionError("a refused run reached the integrator")


def test_runs_reach_the_patched_integrator(tmp_path, monkeypatch):
    # The refused-run tests below patch simulate._row_integrators, the one
    # lookup of every row's integrators: each row's generic sub-step and,
    # for the built-ins, its block kernel.  An accepted run takes them from
    # it and advances every interval, sub-step and row through them; the
    # built-ins' blocks take every sub-step, none falling back.
    from bracket_steer import simulate

    generic, blocked = [], []
    row_integrators = simulate._row_integrators

    def counted(rows):
        steps, blocks = row_integrators(rows)

        def step(real):
            def wrapped(*args):
                generic.append(1)
                return real(*args)
            return wrapped

        def block(real):
            def wrapped(x, h, ts, U):
                blocked.append(len(ts) // 3)
                return real(x, h, ts, U)
            return wrapped

        return list(map(step, steps)), blocks and list(map(block, blocks))

    monkeypatch.setattr(simulate, "_row_integrators", counted)
    # rolling-disc: 2 intervals (epsilon = 1) x 40 sub-steps x 1 row;
    # unicycle-leader: 2 intervals and a tail (epsilon = 0.1) x 40 x 2 rows.
    for args, want in ((["run", "rolling-disc", "--t-final", "2"], 2 * 40 * 1),
                       (["run", "unicycle-leader", "--t-final", "0.25"], 3 * 40 * 2),
                       (["sweep", "rolling-disc", "--t-final", "2", "--epsilon", "1,0.5"],
                        (2 + 4) * 40 * 1)):
        generic.clear()
        blocked.clear()
        assert main(args + ["--out", str(tmp_path / "x.csv")]) == 0
        assert (len(generic), sum(blocked)) == (0, want), args


def test_overflowing_grid_exit_2(tmp_path, capsys, monkeypatch):
    # epsilon = 1e-320 makes t_final / epsilon, or with "t_final": null the
    # default horizon's 1 / (gamma * epsilon), overflow to inf.  The sweep
    # is refused before its first entry (epsilon = 0.5) runs.
    from bracket_steer import builtin_scenario, scenario_to_dict, simulate
    monkeypatch.setattr(simulate, "_row_integrators", _no_integration)
    d = scenario_to_dict(builtin_scenario("rolling-disc"))
    d["sim"]["t_final"] = None
    path = tmp_path / "default-horizon.json"
    path.write_text(json.dumps(d))
    out = tmp_path / "x.csv"
    for args in (["run", "rolling-disc", "--epsilon", "1e-320"],
                 ["run", "unicycle-leader", "--epsilon", "1e-320"],
                 ["sweep", "rolling-disc", "--epsilon", "0.5,1e-320"],
                 ["run", str(path), "--epsilon", "1e-320"]):
        assert main(args + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:InvalidInputError:") and "is not finite" in err, err
        assert not out.exists()


def test_infinite_t_final_override_exit_2(tmp_path, capsys):
    rc = main(["run", "rolling-disc", "--t-final", "inf",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "error:InvalidInputError" in capsys.readouterr().err


def test_over_budget_run_exit_2_without_integrating(tmp_path, capsys, monkeypatch):
    # kappa = 1e6 resolves 40 000 000 sub-steps per period: the run and the
    # sweep are refused before the first sub-step, which would raise here.
    # So is a sweep whose last entry alone is over the budget, and one whose
    # entries are each within it but sum to 13 000 000 row sub-steps.
    from bracket_steer import builtin_scenario, scenario_to_dict, simulate

    d = scenario_to_dict(builtin_scenario("rolling-disc"))
    d["selection"]["kappa"] = [1000000]
    path = tmp_path / "fast-disc.json"
    path.write_text(json.dumps(d))
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(simulate, "_row_integrators", _no_integration)
    for args in (["run", str(path)], ["sweep", str(path), "--epsilon", "1,0.5"],
                 ["sweep", "rolling-disc", "--t-final", "10", "--epsilon", "0.5,1e-7"],
                 ["sweep", "rolling-disc", "--t-final", "1000", "--epsilon", "0.008,0.005"]):
        assert main(args + ["--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:InvalidInputError:"), err
        assert "MAX_ROW_SUBSTEPS = 10000000" in err
    assert not (tmp_path / "x.csv").exists()


def test_bad_rho_exit_2(tmp_path, capsys, monkeypatch):
    # rho, from --rho or the scenario's expected.rho, must be finite and
    # > 0; run and validate refuse it before anything is integrated.
    from bracket_steer import builtin_scenario, scenario_to_dict, simulate
    monkeypatch.setattr(simulate, "_row_integrators", _no_integration)
    out = tmp_path / "x.csv"
    for name in ("rolling-disc", "unicycle-leader"):
        d = scenario_to_dict(builtin_scenario(name))
        d["expected"]["rho"] = -1.0
        path = tmp_path / f"{name}-bad-rho.json"
        path.write_text(json.dumps(d))
        for cmd in ("run", "validate"):
            cases = [[name, f"--rho={rho}"] for rho in ("-1", "0", "nan", "inf")]
            for args in cases + [[str(path)]]:
                assert main([cmd, *args, "--out", str(out)]) == 2
                err = capsys.readouterr().err
                assert err.startswith("error:InvalidInputError:rho must be finite and > 0"), err
                assert not out.exists()


def test_wrong_length_field_exit_2(tmp_path, capsys, monkeypatch):
    # A registered drift of the wrong length passes validate, which never
    # evaluates the drift, and exits 2 before the run starts, for a single
    # system and for a formation's agent.
    import dataclasses

    from bracket_steer import builtin_scenario, library, scenario_to_dict

    builtins = library.available_systems()
    with monkeypatch.context() as m:
        m.setattr(library, "_SYSTEMS", dict(library._SYSTEMS))
        for base, name, n in (("rolling-disc", "disc-long-drift", 5),
                              ("unicycle", "unicycle-short-drift", 2)):
            library.register_system(dataclasses.replace(
                library.system(base), name=name, drift=lambda t, x, n=n: (0.0,) * n),
                replace=True)
        cases = {"rolling-disc": ("disc-long-drift", "field 0 returned length 5"),
                 "unicycle-leader": ("unicycle-short-drift", "agent 0 field 0 returned length 2")}
        for name, (sys_name, message) in cases.items():
            d = scenario_to_dict(builtin_scenario(name))
            for owner in d.get("agents", [d]):
                owner["system"] = sys_name
            path = tmp_path / f"{sys_name}.json"
            path.write_text(json.dumps(d))
            assert main(["validate", str(path)]) == 0
            capsys.readouterr()
            assert main(["run", str(path), "--out", str(tmp_path / "x.csv")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:InvalidInputError:"), err
            assert message in err and "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()
    # The registered copies went with the swapped-in table.
    assert library.available_systems() == builtins == ("rolling-disc", "unicycle")


def test_unknown_scenario_exit_2(capsys):
    rc = main(["run", "no-such-thing"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:UnknownScenarioError:")


def test_bad_override_exit_2(tmp_path, capsys):
    rc = main(["run", "rolling-disc", "--epsilon", "-1",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "error:InvalidInputError" in capsys.readouterr().err


def test_non_numeric_epsilon_exit_2(tmp_path, capsys):
    rc = main(["run", "rolling-disc", "--epsilon", "fast",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "error:InvalidInputError" in capsys.readouterr().err


def test_divergence_exit_3(tmp_path, capsys):
    rc = main(["run", "rolling-disc", "--gamma", "50",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 3
    assert "error:DivergenceError" in capsys.readouterr().err


def test_divergence_stderr_is_the_error_line(tmp_path):
    # gamma = 1e300 overflows the guard's squared norm: the run exits 3
    # with the one error line on stderr, no numpy warning before it.
    proc = _cli_process("run", "rolling-disc", "--gamma", "1e300", "--t-final", "2",
                        "--out", str(tmp_path / "x.csv"))
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == [
        "error:DivergenceError:state diverged at t=0.025 (non-finite or norm > 1e+09)"]


@pytest.mark.parametrize("name", ["unicycle-leader", "rolling-disc"])
def test_undefined_decay_fit_exit_0(tmp_path, name):
    # Sampling instants near 1e-300 square to 0 in polyfit's column scale;
    # the fit is reported as undefined, with no LAPACK message, traceback
    # or warning.
    out = tmp_path / "x.csv"
    proc = _cli_process("run", name, "--epsilon", "1e-300", "--t-final", "1e-299",
                        "--out", str(out))
    assert (proc.returncode, proc.stderr) == (0, "")
    report = json.loads((tmp_path / "x.report.json").read_text())["decay_report"]
    assert (report["lambda_fit"], report["zeta_fit"]) == (None, None)
    assert "lambda_fit=n/a" in proc.stdout


def test_unwritable_output_exit_4(capsys):
    rc = main(["run", "rolling-disc", "--t-final", "2",
               "--out", "/nonexistent-dir/deep/out.csv"])
    assert rc == 4
    assert "error:" in capsys.readouterr().err


def test_log_env_does_not_change_output(tmp_path, monkeypatch):
    quiet = tmp_path / "q.csv"
    loud = tmp_path / "l.csv"
    assert main(["run", "rolling-disc", "--t-final", "3", "--out", str(quiet)]) == 0
    monkeypatch.setenv("BRACKET_STEER_LOG", "DEBUG")
    assert main(["run", "rolling-disc", "--t-final", "3", "--out", str(loud)]) == 0
    assert quiet.read_bytes() == loud.read_bytes()


def _cli_process(*args):
    """The CLI in a fresh interpreter, importing the package from this
    checkout's src/ whatever PYTHONPATH the test run was given."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, "-m", "bracket_steer.cli", *args],
                          capture_output=True, text=True, timeout=60, env=env)


def test_console_script_smoke():
    proc = _cli_process("list")
    assert proc.returncode == 0
    assert "rolling-disc" in proc.stdout
    assert "unicycle-leader" in proc.stdout
