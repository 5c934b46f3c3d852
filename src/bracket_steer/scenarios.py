"""The JSON scenario-file format and the built-in scenarios.

A scenario bundles everything one run needs: system(s) by registry name,
bracket selection, gains, initial data, sim config, a probe box on which the
selection must validate before any simulation, and an expected-properties
block carrying the thresholds acceptance runs check against.  The built-ins
are scenario files shipped in the package's data/ directory.
"""

import json
import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Optional

import numpy as np

from . import library
from .errors import InvalidInputError, ScenarioFormatError, UnknownScenarioError
from .formation import FollowerAgent, LeaderModel
from .model import _as_int
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


def scenario_to_dict(bundle):
    out = {
        "name": bundle.name,
        "kind": bundle.kind,
        "gains": dict(asdict(bundle.gains), y_star=list(bundle.gains.y_star)),
        "sim": asdict(bundle.sim),
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


def _object(value, where):
    if not isinstance(value, dict):
        raise ScenarioFormatError(f"{where} must be an object, got {value!r}")
    return value


def _require(mapping, key, where):
    if key not in _object(mapping, where):
        raise ScenarioFormatError(f"scenario config missing required key '{key}' in {where}")
    return mapping[key]


def _optional(mapping, key, default, where):
    return _object(mapping, where).get(key, default)


def _number(value, where):
    """value as a float: an int, a float or a numpy real, never a bool or a string."""
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ScenarioFormatError(f"{where} must be a number, got {value!r}")


def _integer(value, where):
    return _as_int(value, where, ScenarioFormatError)


def _numbers(value, where, n=None):
    """A list of numbers as a tuple of floats, of length n when n is given."""
    if not isinstance(value, (list, tuple)):
        raise ScenarioFormatError(f"{where} must be a list of numbers, got {value!r}")
    out = tuple(_number(v, f"{where} entry") for v in value)
    if n is not None and len(out) != n:
        raise ScenarioFormatError(f"{where} has dimension {len(out)}, expected {n}")
    return out


def _probe_box(value, n):
    """One finite [lo, hi] pair with lo <= hi per state coordinate."""
    if not isinstance(value, (list, tuple)) or len(value) != n:
        raise ScenarioFormatError(
            f"probe_box must hold {n} [lo, hi] pairs, one per state coordinate, "
            f"got {value!r}")
    box = tuple(_numbers(pair, "probe_box pair", 2) for pair in value)
    for lo, hi in box:
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise ScenarioFormatError(
                f"probe_box pair [{lo!r}, {hi!r}] must be finite with lo <= hi")
    return box


@contextmanager
def _constructing(where):
    """Re-raise a constructor's InvalidInputError as ScenarioFormatError(f"{where}: {exc}")."""
    try:
        yield
    except InvalidInputError as exc:
        raise ScenarioFormatError(f"{where}: {exc}") from exc


def _registered(lookup, name):
    try:
        return lookup(str(name))
    except InvalidInputError as exc:
        raise ScenarioFormatError(str(exc)) from exc


def _selection_from_dict(d, where):
    s1 = _require(d, "s1", where)
    s2 = _require(d, "s2", where)
    kappa = _optional(d, "kappa", None, where)
    try:
        with _constructing(where):
            return BracketSelection(s1=tuple(s1), s2=tuple(tuple(p) for p in s2),
                                    kappa=tuple(kappa) if kappa is not None else None)
    except (TypeError, ValueError, IndexError, OverflowError):
        raise ScenarioFormatError(
            f"{where}: s1 must list integers, s2 integer pairs and kappa integers, "
            f"got {d!r}") from None


def _gains_from_dict(d, where):
    epsilon = _number(_require(d, "epsilon", where), f"{where}.epsilon")
    gamma = _number(_require(d, "gamma", where), f"{where}.gamma")
    y_star = _numbers(_require(d, "y_star", where), f"{where}.y_star")
    cond_cap = _number(_optional(d, "cond_cap", 1e6, where), f"{where}.cond_cap")
    with _constructing(where):
        return ControllerGains(epsilon=epsilon, gamma=gamma, y_star=y_star, cond_cap=cond_cap)


def _sim_from_dict(d, where):
    t_final = _optional(d, "t_final", None, where)
    if t_final is not None:
        t_final = _number(t_final, f"{where}.t_final")
    nsub = _optional(d, "substeps_per_period", None, where)
    if nsub is not None:
        nsub = _integer(nsub, f"{where}.substeps_per_period")
    stride = _integer(_optional(d, "record_stride", 1, where), f"{where}.record_stride")
    with _constructing(where):
        return SimConfig(t_final=t_final, substeps_per_period=nsub, record_stride=stride)


def scenario_from_dict(data):
    """Build a bundle from parsed config, naming any violated invariant.

    Every malformed value raises ScenarioFormatError, or SelectionShapeError
    for a selection that breaks a structural invariant.
    """
    name = str(_require(data, "name", "top level"))
    # The name is the default output file name, so it must stay in the directory.
    if name in ("", ".", "..") or any(c in name for c in "/\\\0"):
        raise ScenarioFormatError(f"name must be a plain file name, got {name!r}")
    kind = str(_require(data, "kind", "top level"))
    if kind not in (SINGLE, FORMATION):
        raise ScenarioFormatError(
            f"kind must be '{SINGLE}' or '{FORMATION}', got '{kind}'")
    gains = _gains_from_dict(_require(data, "gains", "top level"), "gains")
    sim = _sim_from_dict(_optional(data, "sim", {}, "top level"), "sim")
    probe_spec = _require(data, "probe_box", "top level")
    expected = {key: _number(v, f"expected.{key}") for key, v in
                _object(_optional(data, "expected", {}, "top level"), "expected").items()}

    if kind == SINGLE:
        system = _registered(library.system, _require(data, "system", "top level"))
        selection = _selection_from_dict(_require(data, "selection", "top level"), "selection")
        check_selection(system, selection)  # raises naming the invariant
        x0 = _numbers(_require(data, "x0", "top level"), "x0", system.n)
        return ScenarioBundle(name=name, kind=kind, system=system, selection=selection,
                              x0=x0, gains=gains, sim=sim,
                              probe_box=_probe_box(probe_spec, system.n), expected=expected)

    leader_spec = _require(data, "leader", "top level")
    leader_name = str(_require(leader_spec, "field", "leader"))
    dynamics = _registered(library.leader_field, leader_name)
    leader_x0 = _numbers(_require(leader_spec, "x0", "leader"), "leader.x0")
    agents = []
    x0s = []
    agent_specs = _require(data, "agents", "top level")
    if not isinstance(agent_specs, (list, tuple)) or not agent_specs:
        raise ScenarioFormatError("formation scenarios need at least one agent")
    for i, spec in enumerate(agent_specs):
        where = f"agents[{i}]"
        system = _registered(library.system, _require(spec, "system", where))
        selection = _selection_from_dict(_require(spec, "selection", where), where)
        check_selection(system, selection)
        with _constructing(where):
            agent = FollowerAgent(
                system=system, selection=selection,
                gamma=_number(_require(spec, "gamma", where), f"{where}.gamma"),
                offset=_numbers(_require(spec, "offset", where), f"{where}.offset"),
            )
        agents.append(agent)
        x0s.append(_numbers(_require(spec, "x0", where), f"{where}.x0", system.n))
    p = agents[0].system.n
    if len(leader_x0) != p:
        raise ScenarioFormatError(
            f"leader.x0 has dimension {len(leader_x0)}, the agents' states have {p}")
    if gains.y_star != (0.0,) * p:
        raise ScenarioFormatError(
            f"gains.y_star must be {p} zeros in a formation, got {list(gains.y_star)}")
    with _constructing("leader"):
        leader = LeaderModel(name=leader_name, dynamics=dynamics, x0=leader_x0)
    return ScenarioBundle(name=name, kind=kind, agents=tuple(agents), leader=leader,
                          agent_x0s=tuple(x0s), gains=gains, sim=sim,
                          probe_box=_probe_box(probe_spec, p), expected=expected)


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


def json_text(doc):
    """The text of every JSON document the package writes: json.dumps(doc, indent=2) + "\n".

    A float list, or a list of float lists, is one repr() laid out by
    str.replace: json writes a finite float with float.__repr__, which
    list.__repr__ calls too.  Everything else goes to json.dumps itself.
    """
    return _json(doc, "\n") + "\n"


def _json(o, nl):
    """o's indent=2 text, its nested lines starting with nl (a newline and o's indent)."""
    inner = nl + "  "
    if type(o) is dict and o and all(type(k) is str for k in o):
        return "{" + inner + ("," + inner).join(
            encode_basestring_ascii(k) + ": " + _json(v, inner) for k, v in o.items()) + nl + "}"
    if type(o) is list and o:
        types = {*map(type, o)}
        if types == {float}:
            text = repr(o)
            if "n" not in text:  # inf and nan are json's Infinity and NaN
                return "[" + inner + text[1:-1].replace(", ", "," + inner) + nl + "]"
        elif types == {list} and all(o) and {*map(type, chain.from_iterable(o))} == {float}:
            text = repr(o)
            if "n" not in text:
                row = inner + "  "
                text = text[2:-2].replace("], [", inner + "]," + inner + "[" + row)
                return ("[" + inner + "[" + row + text.replace(", ", "," + row)
                        + inner + "]" + nl + "]")
        return "[" + inner + ("," + inner).join(_json(v, inner) for v in o) + nl + "]"
    return json.dumps(o, indent=2).replace("\n", nl)


def save_scenario(bundle, path):
    """Write a bundle as JSON; load_scenario(path) returns an equal bundle."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json_text(scenario_to_dict(bundle)))


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
    # A certificate depends only on the system, the selection, the probes and
    # the gains, so identical followers share one.
    certs = {}
    for agent in bundle.agents:
        key = (agent.system, agent.selection)
        if key not in certs:
            certs[key] = validate_selection(*key, probes, bundle.gains)
    return tuple(certs[agent.system, agent.selection] for agent in bundle.agents)
