import copy
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bracket_steer import (BracketSelection, BracketSteerError, InvalidInputError,
                           ScenarioFormatError, SelectionShapeError,
                           UnknownScenarioError, builtin_names, builtin_scenario,
                           follower_steering, load_scenario, save_scenario,
                           scenario_from_dict, scenario_to_dict, steering_coefficients,
                           validate_bundle)
from bracket_steer import library
from bracket_steer.scenarios import SINGLE, probe_states
from bracket_steer.simulate import SimConfig


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


def _edited(name, path, value):
    """The built-in's scenario dict with the entry at path set to value."""
    d = scenario_to_dict(builtin_scenario(name))
    parent = d
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return d


# Each constructor's refusal, as the loader reports it, and each registry
# refusal, pinned as exact (type, message) pairs.
_EXACT_ERRORS = {
    "gains": (lambda: scenario_from_dict(_edited("rolling-disc", ("gains", "epsilon"), -1.0)),
              ScenarioFormatError, "gains: epsilon must be > 0, got -1.0"),
    "sim": (lambda: scenario_from_dict(_edited("rolling-disc", ("sim", "record_stride"), 0)),
            ScenarioFormatError, "sim: record_stride must be >= 1"),
    "selection": (lambda: scenario_from_dict(
        _edited("rolling-disc", ("selection", "kappa"), [1, 2])),
        ScenarioFormatError, "selection: kappa has 2 entries for 1 bracket pairs"),
    "agents[i]": (lambda: scenario_from_dict(
        _edited("unicycle-leader", ("agents", 0, "gamma"), -1.0)),
        ScenarioFormatError, "agents[0]: agent gamma must be > 0, got -1.0"),
    "agents[i]-value": (lambda: scenario_from_dict(
        _edited("unicycle-leader", ("agents", 0, "gamma"), "x")),
        ScenarioFormatError, "agents[0]: agents[0].gamma must be a number, got 'x'"),
    "leader": (lambda: scenario_from_dict(
        _edited("unicycle-leader", ("leader", "x0"), [math.inf, 0.0, 0.0])),
        ScenarioFormatError, "leader: x0 must be finite, got (inf, 0.0, 0.0)"),
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
