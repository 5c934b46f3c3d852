import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bracket_steer import NumericError, cli, scenarios, simulate
from bracket_steer.cli import main
from oracles import csv_text_reference, json_text_reference


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


def test_budget_message_writes_huge_counts_short_exit_2(tmp_path, capsys):
    # A count of 10**15 or more is written as "%.3g" writes it, not in its
    # hundreds of digits; a count past the float range too (a --substeps
    # of 401 digits).  Smaller counts are written in full.
    out = tmp_path / "x.csv"
    huge = "1" + "0" * 400
    for args, counts in ((["sweep", "rolling-disc", "--epsilon", "1e-300"],
                          "5e+301 x 40 x 1=2e+303"),
                         (["sweep", "rolling-disc", "--epsilon", "0.1", "--substeps", huge],
                          "500 x 1e+400 x 1=5e+402"),
                         (["run", "rolling-disc", "--substeps", "999999999999999"],
                          "50 x 999999999999999 x 1=5e+16"),
                         (["run", "unicycle-leader", "--substeps", "1000000000000000"],
                          "600 x 1e+15 x 2=1.2e+18")):
        assert main([*args, "--out", str(out)]) == 2
        factors, work = counts.split("=")
        intervals, substeps, rows = factors.split(" x ")
        assert capsys.readouterr().err == (
            f"error:InvalidInputError:{intervals} intervals x {substeps} sub-steps x {rows} "
            f"rows={work} exceeds the budget MAX_ROW_SUBSTEPS = 10000000\n")
    assert not out.exists()


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
                           (["--epsilon", "0.2,-0.1"],
                            "eps_list entry must be finite and > 0, got -0.1"),
                           (["--epsilon", "0.5,nan"],
                            "eps_list entry must be finite and > 0, got nan"),
                           (["--epsilon", "inf,0.5"],
                            "eps_list entry must be finite and > 0, got inf"),
                           (["--epsilon", "1e400"],
                            "eps_list entry must be finite and > 0, got inf")):
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
    "sweep-disc-json": (["sweep", "rolling-disc", "--gamma", "2", "--t-final", "10",
                         "--epsilon", "0.4,0.2,0.1,0.05,0.025", "--format", "json"],
                        "e7372616cb69ba0fadf4e22d96defd20b20db34c4f0a054958b213f0e05b5d29"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_OTHER_SHA256))
def test_json_and_sweep_golden_bytes(tmp_path, case):
    argv, digest = GOLDEN_OTHER_SHA256[case]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def _float_bits(bits):
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


def _csv_value_families():
    """Values on which a "%.17g" writer is easy to get wrong, by family."""
    rng = np.random.default_rng(20)
    # Every biased exponent (subnormals, inf and NaN included), both signs,
    # random mantissas; then bit patterns drawn at random.
    exponents = np.repeat(np.arange(2048, dtype=np.uint64), 8)
    mantissas = rng.integers(0, 1 << 52, size=exponents.size, dtype=np.uint64)
    signs = rng.integers(0, 2, size=exponents.size, dtype=np.uint64)
    by_exponent = _float_bits((signs << np.uint64(63)) | (exponents << np.uint64(52)) | mantissas)
    random_bits = _float_bits(rng.integers(0, 2**64 - 1, size=20000, dtype=np.uint64))
    decades = []
    for k in range(-7, 19):
        for direction in (-math.inf, math.inf):
            v = 10.0 ** k
            for _ in range(4):
                decades.append(v)
                v = math.nextafter(v, direction)
    # Exact ties at the 17th digit, which "%.17g" rounds half to even.
    ties = [1 + 2**-17] + [1 + (2 * i + 1) * 2**-20 for i in range(64)] \
        + [1 - (2 * i + 1) * 2**-20 for i in range(64)]
    specials = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 2.2250738585072014e-308,
                1e-4, 1e16, 1e17, 0.1, 123456789012345.67]
    return {
        "every-exponent": by_exponent,
        "random-bits": random_bits,
        "decade-neighbours": np.array(decades),
        "dyadic-ties": np.array(ties),
        "specials": np.array(specials),
    }


_CSV_FAMILIES = _csv_value_families()


@pytest.mark.parametrize("family", sorted(_CSV_FAMILIES))
@pytest.mark.parametrize("cols", [1, 3])
def test_csv_table_matches_percent_formatting(family, cols):
    values = _CSV_FAMILIES[family]
    values = np.concatenate([values, -values])
    table = np.resize(values, (-(-values.size // cols), cols))
    header = [f"c{i}" for i in range(cols)]
    assert "".join(cli._csv_chunks(header, [table])) == csv_text_reference(header, [table])


# Rows per float_text block of a 4-column table.
_CHUNK = scenarios.block_rows(4)


@pytest.mark.parametrize("rows", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3])
def test_csv_table_row_counts_around_the_chunk(rows):
    pool = np.concatenate(list(_CSV_FAMILIES.values()))
    columns = [np.resize(pool[i::4], rows) for i in range(4)]
    header = ["a", "b", "c", "d"]
    assert "".join(cli._csv_chunks(header, columns)) == csv_text_reference(header, columns)


@pytest.mark.parametrize("cols", [1, 2, 3, 11, 26])
@pytest.mark.parametrize("offset", [-1, 0, 1, "2x+3"])
def test_csv_chunks_at_the_block_boundary(cols, offset):
    # One chunk per block of block_rows(cols) rows, each within
    # BLOCK_VALUES values, the first led by the header; together the
    # reference text.  The columns mix 1-d and 2-d arrays, as a run's do.
    block = scenarios.block_rows(cols)
    assert block * cols <= scenarios.BLOCK_VALUES or block == 1
    rows = 2 * block + 3 if offset == "2x+3" else block + offset
    pool = np.concatenate(list(_CSV_FAMILIES.values()))
    table = np.resize(pool, (rows, cols))
    columns = [table[:, 0], table[:, 1:]] if cols > 1 else [table[:, 0]]
    header = [f"c{i}" for i in range(cols)]
    chunks = list(cli._csv_chunks(header, columns))
    assert "".join(chunks) == csv_text_reference(header, [table])
    rows_per_chunk = [min(block, rows - start) for start in range(0, rows, block)]
    assert [c.count("\n") for c in chunks] == [rows_per_chunk[0] + 1, *rows_per_chunk[1:]]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=60), st.integers(1, 5))
def test_csv_table_matches_percent_formatting_hypothesis(values, cols):
    table = np.resize(np.array(values), (-(-len(values) // cols), cols))
    header = [f"c{i}" for i in range(cols)]
    assert "".join(cli._csv_chunks(header, [table])) == csv_text_reference(header, [table])


def _near_midpoints():
    """Doubles a, on both sides of a midpoint m = M 2^e between two of them
    (M odd), where a decimal of 16 or 15 digits lies within 5^q 2^-s of m
    on the scale E = a 10^k, s = -(e + k) up to 52 - q: M 5^(k - q) = +-1
    (mod 2^(s + q)) puts m 10^k at +-5^q / 2^s from a multiple of 10^q.  So
    the decimal reads back as one of the pair by a hair, not the other."""
    out = []
    for x in range(-4, 16):
        k = 16 - x
        for q in (1, 2):
            for e in range(-120, 1):
                s = -(e + k)
                if not 1 <= s <= 53 - q:
                    continue
                mod = 2 ** (s + q)
                for j in (1, -1):
                    m0 = j * pow(5, q - k, mod) % mod
                    for i in range(3):
                        m = m0 + ((2 ** 53 - m0) // mod + 1 + i) * mod
                        out += [a for a in (math.ldexp(m - 1, e), math.ldexp(m + 1, e))
                                if 10.0 ** x <= a < 10.0 ** (x + 1)]
    return np.array(out)


def _json_value_families():
    """Values on which a float.__repr__ writer is easy to get wrong, by family:
    the CSV families, then powers of two (whose rounding interval is
    asymmetric) and their neighbours, exact decimal ties at the 15th, 16th
    and 17th digit, values whose shortest form has 1 to 15 digits, and
    values with a 15- or 16-digit decimal a hair from a rounding boundary."""
    rng = np.random.default_rng(21)
    powers = 2.0 ** np.arange(-1074, 1024)
    # m 5^j, with m odd and j >= 1, is the decimal expansion of m / 2^j:
    # n digits ending in 5, so exactly halfway at the (n - 1)-th digit.
    ties = []
    for n in (16, 17, 18):
        for j in range(1, 24):
            lo, hi = -(-10 ** (n - 1) // 5 ** j), 10 ** n // 5 ** j
            if hi > lo and hi < 2 ** 53:
                for m in rng.integers(lo, hi, size=8).tolist():
                    ties.append(((m | 1) * 5 ** j) / 10 ** j)
    digits = rng.integers(1, 16, size=6000)
    short = [float(f"{rng.integers(10 ** (n - 1), 10 ** n)}e{e}")
             for n, e in zip(digits.tolist(), rng.integers(-22, 3, size=digits.size).tolist())]
    return dict(_CSV_FAMILIES, **{
        "powers-of-two": np.concatenate([powers, np.nextafter(powers, 0.0),
                                         np.nextafter(powers, math.inf)]),
        "decimal-ties": np.array(ties),
        "short-decimals": np.array(short),
        "near-midpoints": _near_midpoints(),
    })


_JSON_FAMILIES = _json_value_families()


@pytest.mark.parametrize("family", sorted(_JSON_FAMILIES))
@pytest.mark.parametrize("cols", [1, 3])
def test_json_text_matches_repr(family, cols):
    values = _JSON_FAMILIES[family]
    values = np.concatenate([values, -values])
    doc = {"v": values, "table": np.resize(values, (-(-values.size // cols), cols)),
           "list": values[:200].tolist()}
    assert scenarios.json_text(doc) == json_text_reference(doc)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=60), st.integers(1, 5))
def test_json_text_matches_repr_hypothesis(bits, cols):
    values = _float_bits(bits)
    doc = [values, np.resize(values, (-(-values.size // cols), cols))]
    assert scenarios.json_text(doc) == json_text_reference(doc)


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


def test_run_and_validate_agree_on_gain_condition(tmp_path):
    # The gain condition is a supremum over the leader's whole path: a run
    # that records every 97th sub-step still reports it over every
    # sub-step, as validate does, and at stride 1 the run's own record is
    # that path.
    from bracket_steer import builtin_scenario, scenario_to_dict
    rows = []
    for stride in (97, 1):
        d = scenario_to_dict(builtin_scenario("unicycle-leader"))
        d["sim"]["record_stride"] = stride
        path = tmp_path / f"stride-{stride}.json"
        path.write_text(json.dumps(d))
        assert main(["run", str(path), "--out", str(tmp_path / "x.csv")]) == 0
        ran = json.loads((tmp_path / "x.report.json").read_text())["gain_condition"]
        assert main(["validate", str(path), "--out", str(tmp_path / "v.json")]) == 0
        assert json.loads((tmp_path / "v.json").read_text())["gain_condition"] == ran
        rows.append(ran)
    assert rows[0] == rows[1]
    assert rows[0][0]["sup_leader_speed"] == 0.39549422133443085


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
        # A constructor's refusal names its block; the loader's (each x0) the full path.
        named = f"{where}.{key} " if key == "x0" else f"{where}: "
        assert err.startswith(f"error:ScenarioFormatError:{named}"), err
        assert key in err
    assert not (tmp_path / "x.csv").exists()


def _no_certifying(*args):
    raise AssertionError("a refused file reached validate_selection")


@pytest.mark.parametrize("name, path, value, message", [
    ("rolling-disc", ("x0",), math.inf, "x0 must be finite, got (inf, 0.0, 0.0, 0.0)"),
    ("unicycle-leader", ("agents", 0, "x0"), math.nan,
     "agents[0].x0 must be finite, got (nan, 0.0, 0.0)"),
])
def test_non_finite_x0_exits_2_before_certifying(tmp_path, capsys, monkeypatch, name, path,
                                                 value, message):
    # Such a file once loaded: validate certified it and exited 0, and run
    # refused its state only after certifying, without naming the key.
    from bracket_steer import builtin_scenario, scenario_to_dict, scenarios
    monkeypatch.setattr(scenarios, "validate_selection", _no_certifying)
    d = scenario_to_dict(builtin_scenario(name))
    block = d
    for key in path:
        block = block[key]
    block[:] = [value] + [0.0] * (len(block) - 1)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    for args in (["validate", str(bad)], ["run", str(bad), "--out", str(tmp_path / "x.csv")]):
        assert main(args) == 2
        assert capsys.readouterr().err == f"error:ScenarioFormatError:{message}\n"
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
            def wrapped(X, h, ts, U):
                blocked.append(len(X) * (len(ts) // 3))
                return real(X, h, ts, U)
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


# Each numeric flag of each subcommand, on both built-ins; a run that
# proceeds is kept short.
_NUMERIC_FLAGS = [(cmd, name, flag) for name in ("rolling-disc", "unicycle-leader")
                  for cmd in ("run", "sweep")
                  for flag in ("--epsilon", "--gamma", "--t-final", "--substeps", "--rho")]
_NUMERIC_FLAGS += [("validate", name, "--rho") for name in ("rolling-disc", "unicycle-leader")]


@pytest.mark.parametrize("cmd, name, flag", _NUMERIC_FLAGS)
def test_numeric_flags_exit_typed(tmp_path, capsys, cmd, name, flag):
    # Any value exits 0, 2 or 3: argparse's usage error, or one
    # error:Type:message line and no output file, never a traceback.
    base = {"run": {"--t-final": "1"}, "sweep": {"--epsilon": "0.5,0.25", "--t-final": "1"},
            "validate": {}}[cmd]
    for i, value in enumerate(["nan", "inf", "-inf", "-1", "0", "1e308", "5e-324", "x"]):
        out = tmp_path / f"{i}.{'json' if cmd == 'validate' else 'csv'}"
        args = [cmd, name, *(f"{k}={v}" for k, v in base.items() if k != flag),
                f"{flag}={value}", "--out", str(out)]
        try:
            rc = main(args)
        except SystemExit as exc:  # argparse refuses the flag or the value
            assert exc.code == 2, args
            assert capsys.readouterr().err.startswith("usage: "), args
            continue
        err = capsys.readouterr().err
        assert rc in (0, 2, 3), args
        if rc:
            assert len(err.splitlines()) == 1 and err.startswith("error:"), (args, err)
            assert list(tmp_path.iterdir()) == [], args
        else:
            assert err == "", (args, err)
            for path in tmp_path.iterdir():
                path.unlink()


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


def test_substeps_warning_is_one_line(tmp_path):
    # One sub-step per period warns: the CLI shows the RuntimeWarning as
    # one warning:Type:msg line, like the error line after it, with no
    # source location or source line.
    proc = _cli_process("run", "rolling-disc", "--substeps", "1",
                        "--out", str(tmp_path / "x.csv"))
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == [
        "warning:RuntimeWarning:substeps_per_period=1 resolves the fastest oscillation "
        "(kappa=1) with fewer than 20 sub-steps",
        "error:DivergenceError:state diverged at t=15 (non-finite or norm > 1e+09)"]


@pytest.mark.parametrize("name", ["unicycle-leader", "rolling-disc"])
def test_subnormal_epsilon_exit_3(tmp_path, capsys, name):
    # A subnormal epsilon overflows the control amplitude: one typed error
    # line naming epsilon and no output.  In process, a numpy warning from
    # the package would fail the test (tier 1 makes it an error).
    out = tmp_path / "x.csv"
    assert main(["run", name, "--epsilon", "1e-310", "--t-final", "1e-309",
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "error:NonFiniteError:control amplitude 2 sqrt(pi kappa |a| / epsilon) of S2 pair "
        "(1, 2) is not finite at epsilon=1e-310"]
    assert not out.exists()


@pytest.mark.parametrize("name, line", [
    ("rolling-disc", "error:NonFiniteError:steering right-hand side -gamma r is not finite "
                     "at gamma=1e+308"),
    ("unicycle-leader", "error:NonFiniteError:control amplitude 2 sqrt(pi kappa |a| / epsilon) "
                        "of S2 pair (1, 2) is not finite at a=4.0000000000000004e+307, "
                        "epsilon=0.1"),
])
def test_huge_gamma_exit_3(tmp_path, capsys, name, line):
    # gamma = 1e308 overflows -gamma r on the disc and the control amplitude
    # on the unicycle: one typed error line naming the cause, no output,
    # and no numpy warning (tier 1 makes one from the package an error).
    out = tmp_path / "x.csv"
    assert main(["run", name, "--gamma", "1e308", "--out", str(out)]) == 3
    assert capsys.readouterr().err.splitlines() == [line]
    assert not out.exists()


def test_group_error_names_the_first_agent_exit_3(tmp_path, capsys):
    # Eight built-in followers steered as one group, two of them with a
    # gain whose control amplitude overflows: exit 3 with the error line a
    # lone run of the first such agent (agent 2) gives, whichever of the
    # two gains it has, and no output.
    from bracket_steer import builtin_scenario, scenario_to_dict
    base = scenario_to_dict(builtin_scenario("unicycle-leader"))
    out = tmp_path / "x.csv"

    def run(gammas):
        d = json.loads(json.dumps(base))
        d["agents"] = [dict(base["agents"][0], gamma=g) for g in gammas]
        path = tmp_path / "swarm.json"
        path.write_text(json.dumps(d))
        assert main(["run", str(path), "--out", str(out)]) == 3
        assert not out.exists()
        return capsys.readouterr().err.splitlines()

    for first, second in ((1e308, 1.5e308), (1.5e308, 1e308)):
        alone = run([first])
        assert len(alone) == 1 and alone[0].startswith("error:NonFiniteError:control amplitude")
        assert run([10.0, 10.0, first, 10.0, 10.0, second, 10.0, 10.0]) == alone


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


def _chunks_then(exc, *chunks):
    yield from chunks
    raise exc


@pytest.mark.parametrize("exc", [OSError("disk full"), NumericError("late failure"),
                                 KeyboardInterrupt()], ids=lambda e: type(e).__name__)
def test_failed_chunk_leaves_no_file(tmp_path, exc):
    # A chunk that raises after the first was written removes the partial
    # file and re-raises the chunk's own exception.
    out = tmp_path / "out.csv"
    with pytest.raises(type(exc)) as info:
        cli._write_chunks(out, _chunks_then(exc, "t,x1\n"))
    assert info.value is exc
    assert list(tmp_path.iterdir()) == []


def test_failed_first_chunk_keeps_what_was_there(tmp_path):
    # The file is opened only once the first chunk is formed.
    out = tmp_path / "out.csv"
    out.write_text("earlier run\n")
    with pytest.raises(NumericError):
        cli._write_chunks(out, _chunks_then(NumericError("at once")))
    assert out.read_text() == "earlier run\n"


def test_failed_write_leaves_no_file(tmp_path):
    # The second chunk cannot be encoded: the write fails part-way.
    out = tmp_path / "out.json"
    with pytest.raises(UnicodeEncodeError):
        cli._write_chunks(out, iter(["[1.0,\n", "\ud800"]))
    assert list(tmp_path.iterdir()) == []


def test_failed_open_keeps_what_was_there(tmp_path, capsys):
    # A path that cannot be opened for writing is left as it was.
    (tmp_path / "out.csv").mkdir()
    assert main(["run", "rolling-disc", "--t-final", "2", "--out", str(tmp_path / "out.csv")]) == 4
    assert capsys.readouterr().err.startswith("error:IsADirectoryError:")
    assert (tmp_path / "out.csv").is_dir()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_failed_export_exit_4_leaves_no_file(tmp_path, capsys, monkeypatch, fmt):
    # The CLI streams its output: a failure after the first block exits 4
    # as before, with no trajectory file; the CSV's sidecar is not written.
    float_text = scenarios.float_text
    calls = []

    def failing_float_text(*args):
        calls.append(1)
        if len(calls) == 2:
            raise OSError("disk full")
        return float_text(*args)

    monkeypatch.setattr(scenarios, "float_text", failing_float_text)
    out = tmp_path / f"out.{fmt}"
    assert main(["run", "unicycle-leader", "--t-final", "12", "--format", fmt,
                 "--out", str(out)]) == 4
    assert capsys.readouterr().err == "error:OSError:disk full\n"
    assert list(tmp_path.iterdir()) == []


def test_failed_report_exit_4_leaves_no_csv(tmp_path, capsys):
    # The CSV is whole when its .report.json write fails (here the report's
    # path is a directory): the run exits 4 and removes the CSV too.
    out = tmp_path / "x.csv"
    (tmp_path / "x.report.json").mkdir()
    assert main(["run", "rolling-disc", "--t-final", "2", "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error:IsADirectoryError:") and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["x.report.json"]
    assert not any((tmp_path / "x.report.json").iterdir())


def _recorder_bytes_per_substep(monkeypatch):
    """Bytes of the recorder's buffers per dense row, read as it is built."""
    sizes = []
    build = simulate._Recorder.build

    def measured(rec):
        bufs = (rec.times, rec.states, rec.controls, rec.intervals,
                rec.sample_times, rec.sample_states)
        sizes.append(sum(len(b) * b.itemsize for b in bufs) / len(rec.times))
        return build(rec)

    monkeypatch.setattr(simulate._Recorder, "build", measured)
    return sizes


def _trajectory_bytes(monkeypatch):
    """Traced bytes held by each trajectory cli's simulate_formation returns."""
    sizes = []
    simulate_formation = cli.simulate_formation

    def measured(*args):
        before = tracemalloc.get_traced_memory()[0]
        ftraj = simulate_formation(*args)
        sizes.append(tracemalloc.get_traced_memory()[0] - before)
        return ftraj

    monkeypatch.setattr(cli, "simulate_formation", measured)
    return sizes


def _float_text_block_transient():
    """Traced peak of one float_text call on a block of the formation CSV's
    11 columns, its tables already built."""
    block = np.random.default_rng(0).uniform(-3.0, 3.0, (scenarios.block_rows(11), 11))
    scenarios.float_text(block, False, ",", "\n")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        scenarios.float_text(block, False, ",", "\n")
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_run_peak_memory_grows_with_the_record_not_the_text(tmp_path, monkeypatch, fmt):
    # Traced peak of `run unicycle-leader` at four horizons: 4800 and 9600
    # sub-steps, both past every float_text block (4096 values at most), and
    # 24 000 and 48 000.
    #
    # A CSV run keeps no record: its rows go to the file a drained block at
    # a time, and the gain condition is folded as the run goes.  It holds
    # its sampling instants (about 56 bytes an interval) and at most one
    # drained block of rows, so a horizon ten times as long peaks within
    # one float_text block's transient (about 0.44 MB) of the short one.
    # Its whole record grew the peak by about 113 bytes per sub-step,
    # 4.9 MB from 4800 to 48 000 sub-steps.
    #
    # A JSON run keeps its record, about 81 recorder bytes per sub-step.
    # The trajectory built from it holds those buffers themselves
    # (np.frombuffer) and the displacements and error series: about 113
    # traced bytes per sub-step.  Everything else (norms, leader speeds,
    # text) is made one block at a time, so the peak grows by under twice
    # the recorder's bytes per sub-step, and by under 1.3 times the
    # trajectory's.  A whole JSON text was held (about 830 bytes per
    # sub-step); with the export streamed, the build's copies of the
    # buffers and the whole-run norm and speed temporaries still made
    # about 226 bytes per sub-step.
    if fmt == "json":
        sizes = _recorder_bytes_per_substep(monkeypatch)
        held = _trajectory_bytes(monkeypatch)
    peaks = {}
    for t_final in (12, 12, 24, 60, 120):  # the first run warms every cache
        argv = ["run", "unicycle-leader", "--t-final", str(t_final), "--format", fmt,
                "--out", str(tmp_path / f"out.{fmt}")]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert main(argv) == 0
            peaks[t_final] = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    if fmt == "csv":
        transient = _float_text_block_transient()
        assert 0 < peaks[120] - peaks[12] <= transient, (peaks, transient)
        return
    short = (peaks[24] - peaks[12]) / 4800
    long = (peaks[120] - peaks[60]) / 24_000
    built = (held[-1] - held[-2]) / 24_000
    assert 70 < sizes[-1] < 90
    assert 100 < built < 140, held
    assert 0 < short < 2 * sizes[-1], (short, sizes)
    assert 0 < long <= 1.3 * built, (long, built, peaks)


def test_log_env_does_not_change_output(tmp_path, monkeypatch):
    quiet = tmp_path / "q.csv"
    loud = tmp_path / "l.csv"
    assert main(["run", "rolling-disc", "--t-final", "3", "--out", str(quiet)]) == 0
    monkeypatch.setenv("BRACKET_STEER_LOG", "DEBUG")
    assert main(["run", "rolling-disc", "--t-final", "3", "--out", str(loud)]) == 0
    assert quiet.read_bytes() == loud.read_bytes()


def _python_process(*args):
    """A fresh interpreter, importing the package from this checkout's src/
    whatever PYTHONPATH the test run was given."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, timeout=60, env=env)


def _cli_process(*args):
    """The CLI in a fresh interpreter (see _python_process)."""
    return _python_process("-m", "bracket_steer.cli", *args)


def test_import_builds_no_float_tables():
    # The formatter's lookup tables are built by the first text written, so
    # that a fresh interpreter's import does not pay for them.
    proc = _python_process(
        "-c", "import bracket_steer.cli; from bracket_steer import scenarios; "
        "print(scenarios._float_tables.cache_info().currsize)")
    assert (proc.returncode, proc.stdout) == (0, "0\n")


def test_console_script_smoke():
    proc = _cli_process("list")
    assert proc.returncode == 0
    assert "rolling-disc" in proc.stdout
    assert "unicycle-leader" in proc.stdout


@pytest.mark.parametrize("rho", [0.0, -1.0, math.nan, math.inf, -math.inf], ids=repr)
def test_rho_is_refused_alike_at_every_entry(tmp_path, capsys, monkeypatch, rho):
    # One rule, model._as_positive, refuses rho in decay_report,
    # gain_condition_report, run --rho and validate --rho, with one message.
    from bracket_steer import (InvalidInputError, builtin_scenario, decay_report,
                               gain_condition_report, simulate_formation, SimConfig)
    message = f"rho must be finite and > 0, got {rho!r}"
    b = builtin_scenario("unicycle-leader")
    ftraj = simulate_formation(b.agents, b.leader, b.agent_x0s, b.gains, SimConfig(t_final=0.5))
    for call in (lambda: decay_report(ftraj.displacement_trajs[0], b.gains, rho),
                 lambda: gain_condition_report(b.leader, b.agents, rho, ftraj.dense_times,
                                               ftraj.leader_states)):
        with pytest.raises(InvalidInputError) as info:
            call()
        assert str(info.value) == message
    monkeypatch.setattr(simulate, "_row_integrators", _no_integration)
    out = tmp_path / "x.csv"
    for cmd in ("run", "validate"):
        assert main([cmd, "unicycle-leader", f"--rho={rho!r}", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error:InvalidInputError:{message}\n"
        assert not out.exists()


def test_failed_certificate_is_one_refusal(tmp_path, capsys):
    # A certificate over its cap is refused by run and validate with one
    # message, naming the worst condition and the cap, exit 3; validate
    # writes its certificate JSON first.
    from bracket_steer import builtin_scenario, scenario_to_dict
    d = scenario_to_dict(builtin_scenario("unicycle-leader"))
    d["gains"]["cond_cap"] = math.nextafter(1.0, 2.0)
    path = tmp_path / "tight.json"
    path.write_text(json.dumps(d))
    errs = []
    for cmd in ("run", "validate"):
        out = tmp_path / f"{cmd}.out"
        assert main([cmd, str(path), "--out", str(out)]) == 3
        errs.append(capsys.readouterr().err)
        assert out.exists() == (cmd == "validate")
    assert errs[0] == errs[1]
    assert errs[0] == ("error:RankDegeneracyError:scenario 'unicycle-leader' failed rank "
                       "validation over its probe box (worst condition 1, cap 1)\n")
    cert = json.loads((tmp_path / "validate.out").read_text())["certificate"][0]
    assert cert["rank_ok"] is False and cert["worst_condition"] > cert["cond_cap"]
