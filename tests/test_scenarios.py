import copy
import dataclasses
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from bracket_steer import (BracketSelection, BracketSteerError, InvalidInputError,
                           ScenarioFormatError, SelectionShapeError,
                           UnknownScenarioError, builtin_names, builtin_scenario,
                           follower_steering, load_scenario, save_scenario,
                           scenario_from_dict, scenario_to_dict, steering_coefficients,
                           validate_bundle, validate_selection)
from bracket_steer import library, scenarios
from bracket_steer.scenarios import SINGLE, json_text, probe_states
from bracket_steer.simulate import SimConfig
from oracles import csv_text_reference, json_text_reference


def test_builtin_names():
    assert set(builtin_names()) == {"rolling-disc", "unicycle-leader"}
    with pytest.raises(UnknownScenarioError):
        builtin_scenario("no-such-scenario")


def test_disc_bundle_shape():
    b = builtin_scenario("rolling-disc")
    assert b.kind == "single-system"
    assert b.system.name == "rolling-disc"
    assert b.x0 == (2.0, 1.0, 0.0, math.pi)
    assert b.gains.epsilon == 1.0
    assert b.gains.gamma == 5.0
    assert b.sim.t_final == 50.0
    assert b.expected["rho"] == 0.1


def test_unicycle_bundle_shape():
    b = builtin_scenario("unicycle-leader")
    assert b.kind == "formation"
    assert len(b.agents) == 1
    agent = b.agents[0]
    assert agent.system.name == "unicycle"
    assert agent.gamma == 10.0
    assert agent.offset == (0.1, 0.1, 0.0)
    assert b.leader.name == "figure-eight"
    assert b.leader.x0 == (0.0, 0.0, math.pi / 4)
    assert b.agent_x0s == ((1.0, 0.5, 0.0),)
    assert b.gains.epsilon == 0.1
    # The worked initial error, recorded to full precision.
    assert b.expected["initial_error"] == pytest.approx(
        float(np.linalg.norm([0.9, 0.4, -math.pi / 4])), abs=1e-15)


def test_probe_states_deterministic():
    b = builtin_scenario("rolling-disc")
    p1 = probe_states(b)
    p2 = probe_states(b)
    assert p1.shape == (100, 4)
    assert np.array_equal(p1, p2)
    box = np.asarray(b.probe_box)
    assert np.all(p1 >= box[:, 0]) and np.all(p1 <= box[:, 1])


def test_validate_bundle_disc():
    cert = validate_bundle(builtin_scenario("rolling-disc"))
    assert cert.rank_ok
    assert cert.worst_condition <= 1.0 + 1e-9
    assert len(cert.sampled_states) == 100


@pytest.mark.parametrize("n_probes, message", [
    (0, "n_probes must be >= 1, got 0"),
    (-1, "n_probes must be >= 1, got -1"),
    (1.5, "n_probes must be an integer, got 1.5"),
    (True, "n_probes must be an integer, got True"),
    # Refused before any probe is drawn: the work budget bounds the count.
    (10_000_001, "n_probes=10000001 exceeds the budget MAX_ROW_SUBSTEPS = 10000000"),
    (1e308, "n_probes=1e+308 exceeds the budget MAX_ROW_SUBSTEPS = 10000000"),
])
def test_validate_bundle_refuses_a_bad_probe_count(n_probes, message):
    with pytest.raises(InvalidInputError) as info:
        validate_bundle(builtin_scenario("rolling-disc"), n_probes=n_probes)
    assert str(info.value) == message


@pytest.mark.parametrize("seed, message", [
    (1.5, "seed must be an integer, got 1.5"),
    ("x", "seed must be an integer, got 'x'"),
    (True, "seed must be an integer, got True"),
    (-1, "seed must be >= 0, got -1"),
])
def test_validate_bundle_refuses_a_bad_seed(seed, message):
    with pytest.raises(InvalidInputError) as info:
        validate_bundle(builtin_scenario("rolling-disc"), seed=seed)
    assert str(info.value) == message


def test_validate_bundle_formation():
    certs = validate_bundle(builtin_scenario("unicycle-leader"))
    assert isinstance(certs, tuple) and len(certs) == 1
    assert certs[0].rank_ok
    assert certs[0].worst_condition < 10.0


# SHA-256 of each built-in's certificates, json.dumps(to_dict(),
# sort_keys=True) one after another, then the float64 bytes of the steering
# coefficients at its default probe states (a formation's agents steered
# against the leader's x0).  Any change to these bytes is a change to a
# certified or computed number.
GOLDEN_CERTIFY_SHA256 = {
    "rolling-disc": "0939649cb19f2c1657bb9b0722fa16d1cab30a289118338886690fd5d3abb0c7",
    "unicycle-leader": "a387da5da24e86d356efe16091b59927862b824b20d1ed494b43d0caab88a657",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CERTIFY_SHA256))
def test_certification_golden_bytes(name):
    b = builtin_scenario(name)
    certs = validate_bundle(b)
    h = hashlib.sha256()
    for cert in (certs if isinstance(certs, tuple) else (certs,)):
        h.update(json.dumps(cert.to_dict(), sort_keys=True).encode())
    probes = probe_states(b)
    if b.kind == SINGLE:
        coeffs = [steering_coefficients(b.system, b.selection, b.gains, x) for x in probes]
    else:
        coeffs = [follower_steering(agent, b.gains, x, b.leader.x0)
                  for agent in b.agents for x in probes]
    h.update(np.array(coeffs).tobytes())
    assert h.hexdigest() == GOLDEN_CERTIFY_SHA256[name]


def test_round_trip_dict():
    for name in builtin_names():
        b = builtin_scenario(name)
        d = scenario_to_dict(b)
        # The dict must be plain-JSON serializable.
        json.dumps(d)
        assert scenario_from_dict(d) == b


def test_round_trip_file(tmp_path):
    for name in builtin_names():
        b = builtin_scenario(name)
        path = tmp_path / f"{name}.json"
        save_scenario(b, path)
        assert load_scenario(path) == b


@pytest.mark.parametrize("name", ["rolling-disc", "unicycle-leader"])
def test_save_scenario_writes_indented_json_bytes(tmp_path, name):
    b = builtin_scenario(name)
    path = tmp_path / f"{name}.json"
    save_scenario(b, path)
    assert path.read_bytes() == (json.dumps(scenario_to_dict(b), indent=2) + "\n").encode()


def test_shipped_data_files_match_builtins():
    # The values the shipped data/*.json files hold, beyond the bundle-shape
    # tests above.
    disc = builtin_scenario("rolling-disc")
    assert disc.probe_box == ((-3.0, 3.0),) * 4
    assert disc.gains.cond_cap == 1e6
    assert disc.sim == SimConfig(t_final=50.0, substeps_per_period=None, record_stride=1)
    assert disc.expected == {"rho": 0.1, "settle_time": 20.0, "hold_until": 50.0,
                             "tail_window_start": 40.0, "tail_variation_cap": 0.05}
    form = builtin_scenario("unicycle-leader")
    assert form.probe_box == ((-3.0, 3.0),) * 3
    assert form.gains.cond_cap == 1e6
    assert form.sim == SimConfig(t_final=60.0, substeps_per_period=None, record_stride=1)
    assert form.expected == {"rho": 0.3, "settle_time": 30.0,
                             "initial_error": 1.2597024549742233}


def test_missing_key_rejected():
    d = scenario_to_dict(builtin_scenario("rolling-disc"))
    del d["gains"]
    with pytest.raises(ScenarioFormatError, match="missing required key 'gains'"):
        scenario_from_dict(d)


def test_bad_gamma_rejected():
    d = scenario_to_dict(builtin_scenario("rolling-disc"))
    d["gains"]["gamma"] = 0.0
    with pytest.raises(ScenarioFormatError, match="gamma"):
        scenario_from_dict(d)


def test_malformed_selection_names_invariant():
    d = scenario_to_dict(builtin_scenario("rolling-disc"))
    d["selection"]["s1"] = [1, 2]
    with pytest.raises(SelectionShapeError, match="selection shape invariant"):
        scenario_from_dict(d)


def test_plain_names_accepted():
    # Unsafe names are refused in tests/test_cli.py; these stay in the directory.
    d = scenario_to_dict(builtin_scenario("rolling-disc"))
    for name in ("swarm", "disc.v2", "...", " x "):
        d["name"] = name
        assert scenario_from_dict(d).name == name


def test_wrong_x0_dimension():
    d = scenario_to_dict(builtin_scenario("rolling-disc"))
    d["x0"] = [1.0, 2.0]
    with pytest.raises(ScenarioFormatError, match="dimension"):
        scenario_from_dict(d)


def test_unknown_system_name():
    d = scenario_to_dict(builtin_scenario("rolling-disc"))
    d["system"] = "hovercraft"
    with pytest.raises(ScenarioFormatError, match="hovercraft"):
        scenario_from_dict(d)


def test_unknown_kind():
    d = scenario_to_dict(builtin_scenario("rolling-disc"))
    d["kind"] = "swarm"
    with pytest.raises(ScenarioFormatError, match="kind"):
        scenario_from_dict(d)


def test_formation_needs_agents():
    d = scenario_to_dict(builtin_scenario("unicycle-leader"))
    d["agents"] = []
    with pytest.raises(ScenarioFormatError, match="at least one agent"):
        scenario_from_dict(d)


def test_json_parse_error_carries_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "name": "x",\n  oops\n}\n')
    with pytest.raises(ScenarioFormatError, match=r"broken\.json:3:3"):
        load_scenario(path)


def test_non_object_top_level(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]\n")
    with pytest.raises(ScenarioFormatError, match="top level must be an object"):
        load_scenario(path)


def test_missing_file():
    with pytest.raises(ScenarioFormatError, match="cannot read"):
        load_scenario("/nonexistent/path/to/scenario.json")


@pytest.mark.parametrize("box", [5, [[-3.0, 3.0]] * 3, [[-3.0, 3.0, 1.0]] * 4,
                                 [[3.0, -3.0]] + [[-3.0, 3.0]] * 3,
                                 [[-math.inf, 3.0]] + [[-3.0, 3.0]] * 3,
                                 [[math.nan, 3.0]] + [[-3.0, 3.0]] * 3])
def test_bad_probe_box_rejected(box):
    d = scenario_to_dict(builtin_scenario("rolling-disc"))
    d["probe_box"] = box
    with pytest.raises(ScenarioFormatError, match="probe_box"):
        scenario_from_dict(d)


_BUILTIN_DICTS = {name: scenario_to_dict(builtin_scenario(name)) for name in builtin_names()}

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8)


def _paths(node, prefix=()):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def _mutated_scenarios(draw):
    """A built-in's dict with one to three values replaced or keys deleted."""
    d = copy.deepcopy(_BUILTIN_DICTS[draw(st.sampled_from(sorted(_BUILTIN_DICTS)))])
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(d))))
        parent = d
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(_JSON_VALUES)
    return d


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_mutated_scenarios() | _JSON_VALUES)
def test_scenario_from_dict_raises_only_package_errors(data):
    try:
        scenario_from_dict(data)
    except BracketSteerError:
        pass



_INTEGER_KEYS = {
    # key: (the scenario block holding it, the dataclass built from one value)
    "substeps_per_period": ("sim", lambda v: SimConfig(substeps_per_period=v)),
    "record_stride": ("sim", lambda v: SimConfig(record_stride=v)),
    "kappa": ("selection", lambda v: BracketSelection(s1=(1,), s2=((1, 2),), kappa=(v,))),
    "s1": ("selection", lambda v: BracketSelection(s1=(v,), s2=((1, 2),))),
    "s2": ("selection", lambda v: BracketSelection(s1=(1,), s2=((1, v),))),
}


def _disc_with(block, key, value):
    d = scenario_to_dict(builtin_scenario("rolling-disc"))
    d[block][key] = {"kappa": [value], "s1": [value], "s2": [[1, value]]}.get(key, value)
    return d


@pytest.mark.parametrize("key", sorted(_INTEGER_KEYS))
@pytest.mark.parametrize("value", [2.5, 1.9, True, False, math.inf, math.nan, "2"])
def test_integer_fields_refuse_non_integers(key, value):
    # Ints, numpy integers and integral floats are stored as int; a bool or
    # a non-integral value is refused instead of truncated.
    block, build = _INTEGER_KEYS[key]
    with pytest.raises(ScenarioFormatError, match=key):
        scenario_from_dict(_disc_with(block, key, value))
    with pytest.raises(InvalidInputError, match="must be an integer"):
        build(value)
    for ok in (2, 2.0, np.int64(2), np.float32(2.0)):
        loaded = getattr(scenario_from_dict(_disc_with(block, key, ok)), block)
        for got in (getattr(loaded, key), getattr(build(ok), key)):
            assert repr(got) in ("2", "(2,)", "((1, 2),)"), (ok, got)


@pytest.mark.parametrize("key, value, message", [
    ("s1", 1.5, "s1 must be a list, got 1.5"),
    ("s1", None, "s1 must be a list, got None"),
    ("s2", 2, "s2 must be a list, got 2"),
    ("s2", [1, 2], "s2 entry must be a list, got 1"),
    ("s2", [None], "s2 entry must be a list, got None"),
    ("kappa", 1, "kappa must be a list, got 1"),
])
def test_selection_lists_refuse_a_number_or_none(key, value, message):
    # BracketSelection types its own lists, so the loader reports its
    # refusal under the block's name.
    d = scenario_to_dict(builtin_scenario("rolling-disc"))
    d["selection"][key] = value
    with pytest.raises(ScenarioFormatError) as info:
        scenario_from_dict(d)
    assert str(info.value) == f"selection: {message}"


def _edited(name, path, value):
    """The built-in's scenario dict with the entry at path set to value."""
    d = scenario_to_dict(builtin_scenario(name))
    parent = d
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return d


# A number field, its path in the disc's scenario dict, how to read it back
# from the bundle, and its name in the loader's message: the block's name
# and the constructor's message where a constructor types the value.
_NUMBER_FIELDS = {
    "gains.gamma": (("gains", "gamma"), lambda b: b.gains.gamma, "gains: gamma"),
    "x0 entry": (("x0", 0), lambda b: b.x0[0], "x0 entry"),
    "expected.rho": (("expected", "rho"), lambda b: b.expected["rho"], "expected.rho"),
}


@pytest.mark.parametrize("where", sorted(_NUMBER_FIELDS))
@pytest.mark.parametrize("value", ["5", "nan", True, False, np.True_, None, [5.0]])
def test_number_fields_refuse_strings_and_bools(where, value):
    # Only ints, floats and numpy reals are numbers: a string or a bool is
    # refused instead of converted.
    path, read, named = _NUMBER_FIELDS[where]
    with pytest.raises(ScenarioFormatError) as info:
        scenario_from_dict(_edited("rolling-disc", path, value))
    assert str(info.value) == f"{named} must be a real number, got {value!r}"
    for ok in (5, 5.0, np.int64(5), np.float32(5.0)):
        got = read(scenario_from_dict(_edited("rolling-disc", path, ok)))
        assert type(got) is float and got == 5.0, (ok, got)


# Each constructor's refusal, as the loader reports it, the leader's x0 (the
# loader refuses it itself, before the agents), and each registry refusal,
# pinned as exact (type, message) pairs.
_EXACT_ERRORS = {
    "gains": (lambda: scenario_from_dict(_edited("rolling-disc", ("gains", "epsilon"), -1.0)),
              ScenarioFormatError, "gains: epsilon must be finite and > 0, got -1.0"),
    "sim": (lambda: scenario_from_dict(_edited("rolling-disc", ("sim", "record_stride"), 0)),
            ScenarioFormatError, "sim: record_stride must be >= 1, got 0"),
    "selection": (lambda: scenario_from_dict(
        _edited("rolling-disc", ("selection", "kappa"), [1, 2])),
        ScenarioFormatError, "selection: kappa has 2 entries for 1 bracket pairs"),
    "agents[i]": (lambda: scenario_from_dict(
        _edited("unicycle-leader", ("agents", 0, "gamma"), -1.0)),
        ScenarioFormatError, "agents[0]: gamma must be finite and > 0, got -1.0"),
    "agents[i]-value": (lambda: scenario_from_dict(
        _edited("unicycle-leader", ("agents", 0, "gamma"), "x")),
        ScenarioFormatError, "agents[0]: gamma must be a real number, got 'x'"),
    "leader": (lambda: scenario_from_dict(
        _edited("unicycle-leader", ("leader", "x0"), [math.inf, 0.0, 0.0])),
        ScenarioFormatError, "leader.x0 must be finite, got (inf, 0.0, 0.0)"),
    "system-duplicate": (lambda: library.register_system(library.system("unicycle")),
                         InvalidInputError, "system 'unicycle' is already registered"),
    "leader-field-duplicate": (
        lambda: library.register_leader_field("stationary", library.leader_field("stationary")),
        InvalidInputError, "leader field 'stationary' is already registered"),
    "system-unknown": (lambda: library.system("nope"), InvalidInputError,
                       "unknown system 'nope'; registered: ['rolling-disc', 'unicycle']"),
    "leader-field-unknown": (
        lambda: library.leader_field("nope"), InvalidInputError,
        "unknown leader field 'nope'; registered: ['figure-eight', 'stationary']"),
}


@pytest.mark.parametrize("case", sorted(_EXACT_ERRORS))
def test_exact_loader_and_registry_errors(monkeypatch, case):
    # Tables holding the built-ins only: other tests register more names.
    monkeypatch.setattr(library, "_SYSTEMS", {
        name: library.system(name) for name in ("rolling-disc", "unicycle")})
    monkeypatch.setattr(library, "_LEADER_FIELDS", {
        name: library.leader_field(name) for name in ("figure-eight", "stationary")})
    call, error, message = _EXACT_ERRORS[case]
    with pytest.raises(InvalidInputError) as info:
        call()
    assert (type(info.value), str(info.value)) == (error, message)


# Every value field of a scenario file, fed a non-number and a value out of
# its range, with the loader's exact message: the block's name and the
# message of the constructor that types the value, or the full path alone
# where the loader types it (x0 entries, finite, the leader's before the
# agents, and expected values).  None marks a value the loader takes: it
# has no range rule for expected values (run refuses a rho that is not
# finite and > 0).
_LOADER_MESSAGES = [
    ("rolling-disc", ("gains", "epsilon"), "x", "gains: epsilon must be a real number, got 'x'"),
    ("rolling-disc", ("gains", "epsilon"), -1, "gains: epsilon must be finite and > 0, got -1"),
    ("rolling-disc", ("gains", "gamma"), None, "gains: gamma must be a real number, got None"),
    ("rolling-disc", ("gains", "gamma"), math.inf, "gains: gamma must be finite and > 0, got inf"),
    ("rolling-disc", ("gains", "cond_cap"), "1e6",
     "gains: cond_cap must be a real number, got '1e6'"),
    ("rolling-disc", ("gains", "cond_cap"), 1, "gains: cond_cap must be > 1, got 1"),
    ("rolling-disc", ("gains", "y_star"), [0.0, "0"],
     "gains: y_star entry must be a real number, got '0'"),
    ("rolling-disc", ("gains", "y_star"), [0.0, math.nan],
     "gains: y_star must be finite, got (0.0, nan)"),
    ("rolling-disc", ("sim", "t_final"), True, "sim: t_final must be a real number, got True"),
    ("rolling-disc", ("sim", "t_final"), 0, "sim: t_final must be finite and > 0, got 0"),
    ("rolling-disc", ("sim", "substeps_per_period"), 2.5,
     "sim: substeps_per_period must be an integer, got 2.5"),
    ("rolling-disc", ("sim", "substeps_per_period"), 0,
     "sim: substeps_per_period must be >= 1, got 0"),
    ("rolling-disc", ("sim", "record_stride"), "2", "sim: record_stride must be an integer, got '2'"),
    ("rolling-disc", ("sim", "record_stride"), -1, "sim: record_stride must be >= 1, got -1"),
    ("unicycle-leader", ("agents", 0, "gamma"), "x", "agents[0]: gamma must be a real number, got 'x'"),
    ("unicycle-leader", ("agents", 0, "gamma"), math.inf,
     "agents[0]: gamma must be finite and > 0, got inf"),
    ("unicycle-leader", ("agents", 0, "offset"), [0.1, "x", 0.0],
     "agents[0]: offset entry must be a real number, got 'x'"),
    ("unicycle-leader", ("agents", 0, "offset"), [math.inf, 0.1, 0.0],
     "agents[0]: offset must be finite, got (inf, 0.1, 0.0)"),
    ("unicycle-leader", ("agents", 0, "x0"), [0.0, None, 0.0],
     "agents[0].x0 entry must be a real number, got None"),
    ("unicycle-leader", ("agents", 0, "x0"), [0.0, 0.0], "agents[0].x0 has dimension 2, expected 3"),
    ("unicycle-leader", ("agents", 0, "x0"), [math.inf, 0.0, 0.0],
     "agents[0].x0 must be finite, got (inf, 0.0, 0.0)"),
    ("unicycle-leader", ("leader", "x0"), [0.0, False, 0.0],
     "leader.x0 entry must be a real number, got False"),
    ("unicycle-leader", ("leader", "x0"), [math.inf, 0.0, 0.0],
     "leader.x0 must be finite, got (inf, 0.0, 0.0)"),
    ("rolling-disc", ("x0",), [0.0, 0.0, 0.0, "x"], "x0 entry must be a real number, got 'x'"),
    ("rolling-disc", ("x0",), [0.0, 0.0], "x0 has dimension 2, expected 4"),
    ("rolling-disc", ("x0",), [math.inf, 0.0, 0.0, 0.0],
     "x0 must be finite, got (inf, 0.0, 0.0, 0.0)"),
    ("rolling-disc", ("expected", "rho"), [0.1], "expected.rho must be a real number, got [0.1]"),
    ("rolling-disc", ("expected", "rho"), -1.0, None),
]


@pytest.mark.parametrize("name, path, value, message", _LOADER_MESSAGES,
                         ids=[".".join(map(str, row[1])) + f"={row[2]!r}"
                              for row in _LOADER_MESSAGES])
def test_loader_names_each_field_once(name, path, value, message):
    data = _edited(name, path, value)
    if message is None:
        scenario_from_dict(data)
        return
    with pytest.raises(ScenarioFormatError) as info:
        scenario_from_dict(data)
    assert (type(info.value), str(info.value)) == (ScenarioFormatError, message)
    # The field, and the block or agent holding it, are each named once,
    # and no other field of that block is blamed.
    field = path[-1]
    assert message.count(field) == 1
    if len(path) > 1:
        block = _edited(name, path, value)
        for key in path[:-1]:
            block = block[key]
        owner = "agents[0]" if path[0] == "agents" else path[0]
        assert message.count(owner) == 1
        assert [key for key in block if key != field and key in message] == []


def test_validate_bundle_certifies_each_distinct_follower_once(monkeypatch):
    b = builtin_scenario("unicycle-leader")
    first = b.agents[0]
    other = dataclasses.replace(first, selection=BracketSelection(
        s1=(1, 2), s2=((2, 1),), kappa=(2,)))
    agents = (first, other, first, first, other)
    b = dataclasses.replace(b, agents=agents, agent_x0s=b.agent_x0s * len(agents))
    probes = probe_states(b)
    expected = tuple(validate_selection(a.system, a.selection, probes, b.gains) for a in agents)
    calls = []

    def counted(system, selection, *args):
        calls.append((system, selection))
        return validate_selection(system, selection, *args)

    monkeypatch.setattr(scenarios, "validate_selection", counted)
    assert validate_bundle(b) == expected
    assert calls == [(first.system, first.selection), (other.system, other.selection)]


# json_text must write json.dumps(doc, indent=2) + "\n" byte for byte, each
# ndarray as its tolist(): the numpy float path (float64 arrays and float
# lists) next to every leaf json encodes its own way.
_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1e-05, 0.1,
                           math.inf, -math.inf, math.nan]) | st.floats()
_ARRAYS = hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=5),
                     elements=_FLOATS)
_LEAVES = (_FLOATS | _FLOATS.map(np.float64) | st.integers() | st.booleans() | st.none()
           | st.text())
_FLOAT_LISTS = st.lists(_FLOATS, max_size=5) | st.lists(st.lists(_FLOATS, max_size=4), max_size=4)
_DOCS = st.recursive(
    _LEAVES | _FLOAT_LISTS | _ARRAYS,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(), kids, max_size=4),
    max_leaves=40)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_DOCS)
def test_json_text_matches_json_dumps(doc):
    assert json_text(doc) == json_text_reference(doc)


# Rows per float_text block of a 4-column array.
_BLOCK = scenarios.block_rows(4)
_POOL = np.array([0.1, -2.5, 1e-300, 123456.789, -0.0, 0.0, math.inf, math.nan, 1 / 3, 7e22])


@pytest.mark.parametrize("doc", [
    [], {}, [[]], [[1.0], []], [[1.0, 2.0, 3.0], [4.0]], [1.0, 2], [[1.0, True]],
    [[1.0], [2.0, math.inf]], {1: [1.0], 2.5: 0.5, None: [[1.0]], True: {}},
    {"\u00e9\u2202 key": ["caf\u00e9", [0.5, -0.0]], "": {"x": [[5e-324, 1e308]]}},
    [{"x": [[1.0, 2.0], [3.0, 4.0]], "err": [0.25]}, [], {}], (1.0, 2.0),
    [np.float64(1.5), 2.0], 1.0, "text", None,
    # ndarray leaves: empty, (0, n) and (n, 0), -0.0, inf and NaN, one row,
    # strided and Fortran-ordered views, and keys json sorts out itself.
    np.array([]), np.zeros((0, 3)), np.zeros((3, 0)), {"x": np.zeros((2, 0)), "y": [np.zeros(0)]},
    np.array([-0.0, math.inf, -math.inf, math.nan]),
    np.array([[-0.0, math.inf], [math.nan, 1.5]]), np.array([[0.1, 0.2, 0.3]]),
    np.array([0.1]), {"t": np.arange(12.0)[::3], "x": np.arange(12.0).reshape(3, 4)[:, ::2],
                      "u": np.asfortranarray(np.arange(6.0).reshape(3, 2) / 7)},
    [np.array([1.0, 2.0]), {"leader": np.array([[1e-5, 1e16]])}, np.array([[1.0]])],
])
def test_json_text_edge_cases(doc):
    assert json_text(doc) == json_text_reference(doc)


@pytest.mark.parametrize("rows", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
def test_json_text_row_counts_around_the_block(rows):
    doc = {"t": np.resize(_POOL, rows), "x": np.resize(_POOL[::-1], (rows, 4)),
           "u": np.resize(_POOL, (rows, 1))}
    assert json_text(doc) == json_text_reference(doc)


@pytest.mark.parametrize("cols", [1, 11])
@pytest.mark.parametrize("exponents", [(-3, 3), (-8, 3), (-12, -5)], ids=["fast", "mixed", "slow"])
def test_float_text_block_peak_per_value(cols, exponents):
    # One block of BLOCK_VALUES values, on the fast path, partly below 1e-4
    # (the "%" and float.__repr__ fallback) and wholly below it, holds at
    # most 250 traced bytes per value (about 460 while every intermediate
    # and the whole block's source indices lived to the end), and writes
    # the references' bytes.
    rng = np.random.default_rng(5)
    rows = scenarios.block_rows(cols)
    block = rng.standard_normal((rows, cols)) * 10.0 ** rng.uniform(*exponents, (rows, cols))
    block[::7, 0] = np.resize([0.0, -0.0, math.inf, math.nan, 1e300, -5e-324], len(block[::7]))
    want = {False: csv_text_reference(["h"], [block])[2:],
            True: "".join(",".join(map(json.dumps, row)) + "\n" for row in block.tolist())}
    for shortest in (False, True):
        scenarios.float_text(block, shortest, ",", "\n")  # builds the tables
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            text = scenarios.float_text(block, shortest, ",", "\n")
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert text == want[shortest]
        assert peak <= 250 * block.size, (shortest, peak / block.size)


@pytest.mark.parametrize("cols", [1, 2, 3, 11, 26])
@pytest.mark.parametrize("offset", [-1, 0, 1, "2x+3"])
def test_json_chunks_at_the_block_boundary(cols, offset):
    # Each array is streamed as its head, one chunk per block of
    # block_rows(cols) rows, and its tail; together the reference text.
    # A 1-column table is written both as a 1-d and as a 2-d array.
    block = scenarios.block_rows(cols)
    assert block * cols <= scenarios.BLOCK_VALUES or block == 1
    rows = 2 * block + 3 if offset == "2x+3" else block + offset
    table = np.resize(_POOL, (rows, cols))
    doc = {"x": table, "t": table[:, 0]} if cols == 1 else {"x": table}
    chunks = list(scenarios.json_chunks(doc))
    assert "".join(chunks) == json_text_reference(doc)
    per_array = 2 + len(range(0, rows, block))
    # Each array: "{" or "," and its key, then its chunks; the document's "}" and "\n".
    assert len(chunks) == len(doc) * (1 + per_array) + 2
