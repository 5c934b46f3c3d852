"""The JSON scenario-file format and the built-in scenarios.

A scenario bundles everything one run needs: system(s) by registry name,
bracket selection, gains, initial data, sim config, a probe box on which the
selection must validate before any simulation, and an expected-properties
block carrying the thresholds acceptance runs check against.  The built-ins
are scenario files shipped in the package's data/ directory.
"""

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import library
from .errors import InvalidInputError, ScenarioFormatError, UnknownScenarioError
from .formation import FollowerAgent, LeaderModel
from .simulate import SimConfig
from .synthesis import BracketSelection, ControllerGains, check_selection, validate_selection

SINGLE = "single-system"
FORMATION = "formation"

PROBE_SEED = 20240901
DEFAULT_PROBES = 100


@dataclass(frozen=True)
class ScenarioBundle:
    """A complete, runnable experiment description."""

    name: str
    kind: str
    gains: ControllerGains
    sim: SimConfig
    probe_box: tuple
    expected: dict
    # single-system fields
    system: Optional[object] = None
    selection: Optional[BracketSelection] = None
    x0: Optional[tuple] = None
    # formation fields
    agents: Optional[tuple] = None
    leader: Optional[LeaderModel] = None
    agent_x0s: Optional[tuple] = None


_BUILTINS = {
    "rolling-disc": "rolling_disc.json",
    "unicycle-leader": "unicycle_leader.json",
}
_DATA_DIR = Path(__file__).with_name("data")


def builtin_scenario(name):
    """Load a built-in bundle by name from its file in the package's data/."""
    if name not in _BUILTINS:
        raise UnknownScenarioError(
            f"unknown scenario '{name}'; built-ins: {sorted(_BUILTINS)}")
    return load_scenario(_DATA_DIR / _BUILTINS[name])


def builtin_names():
    return tuple(sorted(_BUILTINS))


# ---------------------------------------------------------------------------
# serialization

def _selection_to_dict(sel):
    return {"s1": list(sel.s1), "s2": [list(p) for p in sel.s2], "kappa": list(sel.kappa)}


def _gains_to_dict(g):
    return {"epsilon": g.epsilon, "gamma": g.gamma,
            "y_star": list(g.y_star), "cond_cap": g.cond_cap}


def _sim_to_dict(s):
    return {"t_final": s.t_final, "substeps_per_period": s.substeps_per_period,
            "record_stride": s.record_stride}


def scenario_to_dict(bundle):
    out = {
        "name": bundle.name,
        "kind": bundle.kind,
        "gains": _gains_to_dict(bundle.gains),
        "sim": _sim_to_dict(bundle.sim),
        "probe_box": [list(pair) for pair in bundle.probe_box],
        "expected": dict(bundle.expected),
    }
    if bundle.kind == SINGLE:
        out["system"] = bundle.system.name
        out["selection"] = _selection_to_dict(bundle.selection)
        out["x0"] = list(bundle.x0)
    else:
        out["leader"] = {"field": bundle.leader.name, "x0": list(bundle.leader.x0)}
        out["agents"] = [
            {
                "system": agent.system.name,
                "selection": _selection_to_dict(agent.selection),
                "gamma": agent.gamma,
                "offset": list(agent.offset),
                "x0": list(x0),
            }
            for agent, x0 in zip(bundle.agents, bundle.agent_x0s)
        ]
    return out


def _require(mapping, key, where):
    if key not in mapping:
        raise ScenarioFormatError(f"scenario config missing required key '{key}' in {where}")
    return mapping[key]


def _selection_from_dict(d, where):
    s1 = tuple(_require(d, "s1", where))
    s2 = tuple(tuple(p) for p in _require(d, "s2", where))
    kappa = d.get("kappa")
    try:
        return BracketSelection(s1=s1, s2=s2, kappa=tuple(kappa) if kappa is not None else None)
    except InvalidInputError as exc:
        raise ScenarioFormatError(f"{where}: {exc}") from exc


def _gains_from_dict(d, where):
    try:
        return ControllerGains(
            epsilon=float(_require(d, "epsilon", where)),
            gamma=float(_require(d, "gamma", where)),
            y_star=tuple(_require(d, "y_star", where)),
            cond_cap=float(d.get("cond_cap", 1e6)),
        )
    except InvalidInputError as exc:
        raise ScenarioFormatError(f"{where}: {exc}") from exc


def _sim_from_dict(d, where):
    try:
        t_final = d.get("t_final")
        nsub = d.get("substeps_per_period")
        return SimConfig(
            t_final=float(t_final) if t_final is not None else None,
            substeps_per_period=int(nsub) if nsub is not None else None,
            record_stride=int(d.get("record_stride", 1)),
        )
    except InvalidInputError as exc:
        raise ScenarioFormatError(f"{where}: {exc}") from exc


def scenario_from_dict(data):
    """Build a bundle from parsed config, naming any violated invariant."""
    name = str(_require(data, "name", "top level"))
    kind = str(_require(data, "kind", "top level"))
    if kind not in (SINGLE, FORMATION):
        raise ScenarioFormatError(
            f"kind must be '{SINGLE}' or '{FORMATION}', got '{kind}'")
    gains = _gains_from_dict(_require(data, "gains", "top level"), "gains")
    sim = _sim_from_dict(data.get("sim", {}), "sim")
    probe_box = tuple(
        (float(lo), float(hi)) for lo, hi in _require(data, "probe_box", "top level"))
    expected = dict(data.get("expected", {}))

    if kind == SINGLE:
        try:
            system = library.system(str(_require(data, "system", "top level")))
        except InvalidInputError as exc:
            raise ScenarioFormatError(str(exc)) from exc
        selection = _selection_from_dict(_require(data, "selection", "top level"), "selection")
        check_selection(system, selection)  # raises naming the invariant
        x0 = tuple(float(v) for v in _require(data, "x0", "top level"))
        if len(x0) != system.n:
            raise ScenarioFormatError(
                f"x0 has dimension {len(x0)}, system '{system.name}' has n = {system.n}")
        return ScenarioBundle(name=name, kind=kind, system=system, selection=selection,
                              x0=x0, gains=gains, sim=sim, probe_box=probe_box,
                              expected=expected)

    leader_spec = _require(data, "leader", "top level")
    try:
        dynamics = library.leader_field(str(_require(leader_spec, "field", "leader")))
    except InvalidInputError as exc:
        raise ScenarioFormatError(str(exc)) from exc
    leader = LeaderModel(
        name=str(leader_spec["field"]),
        dynamics=dynamics,
        x0=tuple(float(v) for v in _require(leader_spec, "x0", "leader")),
    )
    agents = []
    x0s = []
    agent_specs = _require(data, "agents", "top level")
    if not agent_specs:
        raise ScenarioFormatError("formation scenarios need at least one agent")
    for i, spec in enumerate(agent_specs):
        where = f"agents[{i}]"
        try:
            system = library.system(str(_require(spec, "system", where)))
        except InvalidInputError as exc:
            raise ScenarioFormatError(str(exc)) from exc
        selection = _selection_from_dict(_require(spec, "selection", where), where)
        check_selection(system, selection)
        try:
            agent = FollowerAgent(
                system=system, selection=selection,
                gamma=float(_require(spec, "gamma", where)),
                offset=tuple(float(v) for v in _require(spec, "offset", where)),
            )
        except InvalidInputError as exc:
            raise ScenarioFormatError(f"{where}: {exc}") from exc
        agents.append(agent)
        x0s.append(tuple(float(v) for v in _require(spec, "x0", where)))
    return ScenarioBundle(name=name, kind=kind, agents=tuple(agents), leader=leader,
                          agent_x0s=tuple(x0s), gains=gains, sim=sim,
                          probe_box=probe_box, expected=expected)


def load_scenario(path):
    """Load a scenario bundle from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioFormatError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(
            f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ScenarioFormatError(f"{path}: top level must be an object")
    return scenario_from_dict(data)


def save_scenario(bundle, path):
    """Write a bundle as JSON; load_scenario(path) returns an equal bundle."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(bundle), fh, indent=2)
        fh.write("\n")


def probe_states(bundle, n_probes=DEFAULT_PROBES, seed=PROBE_SEED):
    """Deterministic uniform probe states drawn from the bundle's probe box."""
    box = np.asarray(bundle.probe_box, dtype=float)
    rng = np.random.default_rng(seed)
    return rng.uniform(box[:, 0], box[:, 1], size=(n_probes, box.shape[0]))


def validate_bundle(bundle, n_probes=DEFAULT_PROBES, seed=PROBE_SEED):
    """Certify the bundle's selection(s) over its probe box.

    Returns one RankCertificate for a single-system bundle, or a tuple with
    one certificate per agent for a formation bundle.
    """
    probes = probe_states(bundle, n_probes, seed)
    if bundle.kind == SINGLE:
        return validate_selection(bundle.system, bundle.selection, probes, bundle.gains)
    return tuple(
        validate_selection(agent.system, agent.selection, probes, bundle.gains)
        for agent in bundle.agents)
