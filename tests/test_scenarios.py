import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bracket_steer import (BracketSteerError, ScenarioFormatError, SelectionShapeError,
                           UnknownScenarioError, builtin_names, builtin_scenario,
                           load_scenario, save_scenario, scenario_from_dict,
                           scenario_to_dict, validate_bundle)
from bracket_steer.scenarios import probe_states
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
