"""The JSON scenario-file format and the built-in scenarios.

A scenario bundles everything one run needs: system(s) by registry name,
bracket selection, gains, initial data, sim config, a probe box on which the
selection must validate before any simulation, and an expected-properties
block carrying the thresholds acceptance runs check against.  The built-ins
are scenario files shipped in the package's data/ directory.
"""

import functools
import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Optional

import numpy as np

from . import library
from .errors import InvalidInputError, ScenarioFormatError, UnknownScenarioError
from .formation import FollowerAgent, LeaderModel
from .model import (BLOCK_VALUES, _as_count, _as_finite_reals, _as_int, _as_real, _within_budget,
                    block_rows)
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


def _list(value, where):
    """value, which must be a list; its entries are left to whatever types them."""
    if not isinstance(value, (list, tuple)):
        raise ScenarioFormatError(f"{where} must be a list of numbers, got {value!r}")
    return value


def _numbers(value, where, n=None):
    """A list of finite numbers as a tuple of floats, of length n when n is given."""
    with _constructing():
        out = _as_finite_reals(_list(value, where), where)
    if n is not None and len(out) != n:
        raise ScenarioFormatError(f"{where} has dimension {len(out)}, expected {n}")
    return out


def _probe_box(value, n):
    """One finite [lo, hi] pair (_numbers) with lo <= hi per state coordinate."""
    if not isinstance(value, (list, tuple)) or len(value) != n:
        raise ScenarioFormatError(
            f"probe_box must hold {n} [lo, hi] pairs, one per state coordinate, "
            f"got {value!r}")
    box = tuple(_numbers(pair, "probe_box pair", 2) for pair in value)
    for lo, hi in box:
        if not lo <= hi:
            raise ScenarioFormatError(f"probe_box pair [{lo!r}, {hi!r}] must have lo <= hi")
    return box


@contextmanager
def _constructing(where=None):
    """Re-raise an InvalidInputError as ScenarioFormatError: as f"{where}: {exc}" where
    a constructor names only the field, else as it is (the call named the full path)."""
    try:
        yield
    except InvalidInputError as exc:
        raise ScenarioFormatError(f"{where}: {exc}" if where else str(exc)) from exc


def _selection_from_dict(d, where):
    s1 = _require(d, "s1", where)
    s2 = _require(d, "s2", where)
    kappa = _optional(d, "kappa", None, where)
    with _constructing(where):
        return BracketSelection(s1=s1, s2=s2, kappa=kappa)


def _gains_from_dict(d, where):
    epsilon = _require(d, "epsilon", where)
    gamma = _require(d, "gamma", where)
    y_star = _list(_require(d, "y_star", where), f"{where}.y_star")
    cond_cap = _optional(d, "cond_cap", 1e6, where)
    with _constructing(where):
        return ControllerGains(epsilon=epsilon, gamma=gamma, y_star=y_star, cond_cap=cond_cap)


def _sim_from_dict(d, where):
    t_final = _optional(d, "t_final", None, where)
    nsub = _optional(d, "substeps_per_period", None, where)
    stride = _optional(d, "record_stride", 1, where)
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
    expected = _object(_optional(data, "expected", {}, "top level"), "expected")
    with _constructing():
        expected = {k: _as_real(v, f"expected.{k}") for k, v in expected.items()}

    if kind == SINGLE:
        with _constructing():
            system = library.system(str(_require(data, "system", "top level")))
        selection = _selection_from_dict(_require(data, "selection", "top level"), "selection")
        check_selection(system, selection)  # raises naming the invariant
        x0 = _numbers(_require(data, "x0", "top level"), "x0", system.n)
        return ScenarioBundle(name=name, kind=kind, system=system, selection=selection,
                              x0=x0, gains=gains, sim=sim,
                              probe_box=_probe_box(probe_spec, system.n), expected=expected)

    leader_spec = _require(data, "leader", "top level")
    leader_name = str(_require(leader_spec, "field", "leader"))
    with _constructing():
        dynamics = library.leader_field(leader_name)
    # Checked before the agents: a bad entry outranks their SelectionShapeError.
    leader_x0 = _numbers(_require(leader_spec, "x0", "leader"), "leader.x0")
    agents = []
    x0s = []
    agent_specs = _require(data, "agents", "top level")
    if not isinstance(agent_specs, (list, tuple)) or not agent_specs:
        raise ScenarioFormatError("formation scenarios need at least one agent")
    for i, spec in enumerate(agent_specs):
        where = f"agents[{i}]"
        with _constructing():
            system = library.system(str(_require(spec, "system", where)))
        selection = _selection_from_dict(_require(spec, "selection", where), where)
        check_selection(system, selection)
        gamma = _require(spec, "gamma", where)
        offset = _list(_require(spec, "offset", where), f"{where}.offset")
        with _constructing(where):
            agents.append(FollowerAgent(system=system, selection=selection,
                                        gamma=gamma, offset=offset))
        x0s.append(_numbers(_require(spec, "x0", where), f"{where}.x0", system.n))
    p = agents[0].system.n
    if len(leader_x0) != p:
        raise ScenarioFormatError(
            f"leader.x0 has dimension {len(leader_x0)}, the agents' states have {p}")
    if gains.y_star != (0.0,) * p:
        raise ScenarioFormatError(
            f"gains.y_star must be {p} zeros in a formation, got {list(gains.y_star)}")
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
    """The text of every JSON document the package writes: json_chunks(doc)
    joined."""
    return "".join(json_chunks(doc))


def json_chunks(doc):
    """json_text(doc) as a stream of str chunks.

    json.dumps(doc, indent=2) + "\n", with each 1-d or 2-d float64 ndarray
    in doc written as its tolist() would be.  Those arrays are formatted by
    float_text, one block of rows (block_rows) per chunk, each value as
    float.__repr__ (which json uses) writes it; everything else goes to
    json.dumps itself.
    """
    yield from _json(doc, "\n")
    yield "\n"


def _json(o, nl):
    """Yield o's indent=2 text, its nested lines starting with nl (a newline
    and o's indent)."""
    inner = nl + "  "
    if type(o) is dict and o and all(type(k) is str for k in o):
        sep = "{" + inner
        for k, v in o.items():
            yield sep + encode_basestring_ascii(k) + ": "
            yield from _json(v, inner)
            sep = "," + inner
        yield nl + "}"
    elif type(o) is np.ndarray and o.dtype == np.float64 and o.ndim in (1, 2):
        if o.size:
            yield from _json_floats(o, nl)
        else:
            yield from _json(o.tolist(), nl)  # [] or rows of []
    elif type(o) is list and o:
        sep = "[" + inner
        for v in o:
            yield sep
            yield from _json(v, inner)
            sep = "," + inner
        yield nl + "]"
    else:
        yield json.dumps(o, indent=2).replace("\n", nl)


def _json_floats(a, nl):
    """Yield the indent=2 text of a non-empty 1-d or 2-d float64 array's
    tolist(), one float_text block at a time."""
    inner = nl + "  "
    if a.ndim == 1:
        a = a[:, None]
        head, sep, row_end, tail = "[" + inner, "," + inner, "," + inner, nl + "]"
    else:
        row = inner + "  "
        head, sep, row_end, tail = ("[" + inner + "[" + row, "," + row,
                                    inner + "]," + inner + "[" + row, inner + "]" + nl + "]")
    step = block_rows(a.shape[1])
    yield head
    for start in range(0, len(a), step):
        text = float_text(a[start:start + step], True, sep, row_end)
        # The last row ends in tail, not row_end.
        yield text if start + step < len(a) else text[:-len(row_end)]
    yield tail


# ---------------------------------------------------------------------------
# float text

# float_text writes a float64 block with one of two digit rules: "%.17g"
# (the CSV's) or float.__repr__'s shortest round-trip digits (JSON's).  A
# finite v with 1e-4 <= |v| < 1e16 takes the fast path, where both rules
# write fixed notation: with X = floor(log10|v|) and k = 16 - X, 10^k is an
# exact double and Dekker's TwoProduct gives E = |v| 10^k = hi + lo exactly,
# hi >= 1e16 > 2^53 an integer.  A 17-digit integer D, the value's digits
# followed by zeros, is gathered into text by a template chosen by (rule,
# X, digits kept, sign), padded with NUL bytes that are deleted at the end.
# Every other value (zeros, |v| < 1e-4, |v| >= 1e16, inf, NaN, an X
# estimate that missed, and each case _shortest_digits cannot decide) is
# formatted by "%" or float.__repr__ itself.
_FIELD = 24  # the widest text, "-2.2250738585072014e-308"
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter for binary64
# A value's 24 source bytes, as six 4-byte words: NUL "." "-" "0", NUL NUL
# NUL d0, then the digit groups d1..d4 to d13..d16.  Written out with digit
# j as the letter chr(97 + j), they are _SOURCE.
_SOURCE = b"\0.-0\0\0\0abcdefghijklmnopq"
_JSON_NONFINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}
# Values per gather of text bytes in float_text: its source indices take
# 192 bytes per value, so a block's are built a few slices at a time.
_GATHER_VALUES = BLOCK_VALUES // 8


@functools.cache
def _float_tables():
    """float_text's lookup tables, built by the first text written, so that
    importing the package does not pay for them: 10^k and its Veltkamp
    halves, the first two source words of each leading digit, the source
    word of each 4-digit group, the digits each group keeps, and the text
    templates of each rule."""
    pow10 = np.array([10.0 ** k for k in range(23)])  # each exact
    pow10_hi = pow10 * _SPLIT - (pow10 * _SPLIT - pow10)
    lead_words = np.array([_SOURCE[:7] + b"%d" % d for d in range(10)]).view(np.uint64)
    digits = np.frombuffer(b"0123456789", dtype=np.uint8)
    # "0000" to "9999": every choice of four digits, in lexicographic order.
    group_words = np.stack(np.broadcast_arrays(*np.ix_(*[digits] * 4)), axis=-1).view(np.uint32).ravel()
    groups = np.arange(10000)
    # D's digits d0.. through the last nonzero one of group i = 0..3, 0 for 0000.
    trailing_zeros = sum(groups % m == 0 for m in (10, 100, 1000))
    group_keep = [np.where(groups > 0, 4 * i + 5 - trailing_zeros, 0).astype(np.int8)
                  for i in range(4)]
    return (pow10, pow10_hi, pow10 - pow10_hi, lead_words, group_words, group_keep,
            (_templates(False), _templates(True)))


def _templates(shortest):
    """Source byte of each text byte, by ((X + 4) * 18 + digits kept) * 2 + sign.

    Each template is written as the text with digit j as the letter
    chr(97 + j), then translated to positions in _SOURCE.  repr writes a
    whole number with ".0", where %g writes no point."""
    letters = _SOURCE[7:].decode()
    texts = []
    for x in range(-4, 16):
        for keep in range(18):
            kept = letters[:max(keep, 1)]
            if x < 0:
                body = "0." + "0" * (-x - 1) + kept
            elif keep > x + 1:
                body = kept[:x + 1] + "." + kept[x + 1:]
            else:
                body = kept + ".0" * shortest
            texts += [body.ljust(_FIELD, "\0"), ("-" + body).ljust(_FIELD, "\0")]
    to_source = bytes.maketrans(_SOURCE[1:4] + _SOURCE[7:], bytes(range(1, 4)) + bytes(range(7, 24)))
    text = "".join(texts).encode().translate(to_source)
    return np.frombuffer(text, dtype=np.uint8).reshape(-1, _FIELD).astype(np.intp)


def _nearest(h, f, p, t):
    """The multiple c of p nearest to E = h + f (h an integer, f in [0, 1)),
    whether c lies within t of E, and whether E is also halfway between two
    multiples that do.

    With divmod(h, p) = (q, r), c is q p at r + f from E or (q + 1) p at
    p - r - f; see _shortest_digits for why comparing that distance, rounded
    to a double, with t is exact."""
    q, r = np.divmod(h, p)
    down = r < p // 2
    inside = np.where(down, r + f, (p - r) - f) < t
    return (q + ~down) * p, inside, inside & (r == p // 2) & (f == 0.0)


def _shortest_digits(a, scale, hi, lo, d, ok):
    """float.__repr__'s digits of each a = |v| with ok set, as a 17-digit D
    padded with zeros, given "%.17g"'s D; ok is cleared where they are not
    decided here.

    repr writes the shortest digits that read back as a, the nearest to a
    of those.  A decimal strictly within t = 0.5 spacing(a) 10^k of E (on
    E's scale) reads back as a.  E = hi + lo is normalised to h + f, h an
    integer and f in [0, 1); E >= 1e16, a's 53-bit significand and 10^k <=
    10^20 make E a multiple of 2^-46, so this is exact, and a distance to a
    candidate other than t differs from t by 2^-47 or more, more than its
    rounding error (2^-50 below 16).  Nor is the nearest candidate ever
    exactly t away: the midpoint a + ulp/2 or a - ulp/2 has an odd 54-bit
    significand, so it has 17 or more digits unless it is an odd integer M
    < 10^16; then a = M -+ 1 is an integer, E = 10 a is its own nearest
    multiple of 10, and 10 M is no multiple of 100.  The interval is
    narrower than 2 t < 22.2, so it holds at most one multiple of 100, and
    never two equally near: when the nearest one lies in it, it is repr's
    digits (fewer digits are a multiple of 100 too), whose trailing zeros
    the template drops.  Otherwise the nearest multiple of 10, when within
    t, is repr's 16 digits, and else "%.17g"'s 17 are.  Below a power of two
    the interval is half as wide; every such a in range is in the tests.
    No candidate carries into 10^17: a would be 10^(X + 1) rounded down,
    and no power of ten from 1e-3 to 1e16 rounds down.  Left to
    float.__repr__: a tie of two candidates and a tie of the 17th digit.
    """
    floor_lo = np.floor(lo)
    h = hi.astype(np.int64) + floor_lo.astype(np.int64)
    f = lo - floor_lo
    t = 0.5 * np.spacing(a) * scale
    c16, in16, tie16 = _nearest(h, f, 10, t)
    c15, in15, _ = _nearest(h, f, 100, t)
    ok &= ~tie16 & (f != 0.5)
    return np.where(in15, c15, np.where(in16, c16, d)), ok


def float_text(block, shortest, sep, row_end):
    """The text of a 2-d float64 block: each value followed by sep, the last
    of each row by row_end (no shorter than sep).  Each value is written as
    float.__repr__ writes it when shortest is true, else as "%.17g" does,
    except that a non-finite value is JSON's NaN, Infinity or -Infinity
    under shortest.

    Each intermediate is dropped once consumed, and the text's source
    indices are gathered _GATHER_VALUES values at a time, so a call's
    transient memory is about 110 bytes per value of the block for "%.17g"
    and 140 for the shortest digits, and under 200 when every value falls
    back to "%" or float.__repr__."""
    pow10, pow10_hi, pow10_lo, lead_words, group_words, group_keep, templates = _float_tables()
    rows, cols = block.shape
    v = np.asarray(block, dtype=np.float64).reshape(-1)
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e16)
    a[~fast] = 1.0
    x = np.floor(np.log10(a)).astype(np.intp)
    k = 16 - x
    scale = np.take(pow10, k)
    hi = a * scale
    t = a * _SPLIT
    ah = t - (t - a)
    del t
    al = a - ah
    ph = np.take(pow10_hi, k)
    pl = np.take(pow10_lo, k)
    del k
    lo = ((ah * ph - hi) + ah * pl + al * ph) + al * pl
    del ah, al, ph, pl
    # "%.17g"'s digits: hi is even, so rint rounds half to even as it does.
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    # hi + lo in [1e16, 1e17) confirms X; D = 10^17 would carry into X + 1.
    ok = fast & (hi >= 1e16) & ((hi > 1e16) | (lo >= 0.0)) & (d < 10 ** 17)
    del fast
    if shortest:
        d, ok = _shortest_digits(a, scale, hi, lo, d, ok)
    del a, scale, hi, lo
    d[~ok] = 10 ** 16
    x[~ok] = 0
    q, r8 = np.divmod(d, 10 ** 8)
    del d
    d0, r = np.divmod(q, 10 ** 8)
    del q
    g1, g2 = np.divmod(r, 10 ** 4)
    g3, g4 = np.divmod(r8, 10 ** 4)
    del r, r8
    words = np.empty((v.size, 6), dtype=np.uint32)
    words.view(np.uint64)[:, 0] = np.take(lead_words, d0)
    del d0
    for i, g in enumerate((g1, g2, g3, g4), 2):
        words[:, i] = np.take(group_words, g)
    keep = np.maximum(np.maximum(np.take(group_keep[0], g1), np.take(group_keep[1], g2)),
                      np.maximum(np.take(group_keep[2], g3), np.take(group_keep[3], g4)))
    del g, g1, g2, g3, g4
    # Both rules write every digit before the point: keep X + 1 at least.
    keep = np.maximum(keep, x + 1)
    template = ((x + 4) * 18 + keep) * 2 + np.signbit(v)
    del x, keep
    # Each row: cols fields of _FIELD text bytes and sep, then row_end over
    # the last sep and the len(row_end) - len(sep) bytes after it.
    width = _FIELD + len(sep)
    out = np.empty((rows, cols * width + len(row_end) - len(sep)), dtype=np.uint8)
    fields = out[:, :cols * width].reshape(rows, cols, width)
    source = words.view(np.uint8).reshape(v.size, len(_SOURCE))
    step = max(1, _GATHER_VALUES // cols)
    offsets = np.arange(0, len(_SOURCE) * step * cols, len(_SOURCE))[:, None]
    for r in range(0, rows, step):
        stop = min(r + step, rows)
        span = slice(r * cols, stop * cols)
        src = np.take(templates[shortest], template[span], axis=0)
        src += offsets[:len(src)]
        fields[r:stop, :, :_FIELD] = np.take(source[span], src).reshape(stop - r, cols, _FIELD)
    del words, source, template
    fields[..., _FIELD:] = np.frombuffer(sep.encode(), dtype=np.uint8)
    out[:, cols * width - len(sep):] = np.frombuffer(row_end.encode(), dtype=np.uint8)
    slow = np.flatnonzero(~ok)
    if slow.size:
        if shortest:
            text = [_JSON_NONFINITE.get(s, s) for s in map(float.__repr__, v[slow].tolist())]
        else:
            text = ["%.17g" % f for f in v[slow].tolist()]
        fields[(*np.divmod(slow, cols), slice(_FIELD))] = np.array(
            text, dtype=f"S{_FIELD}").view(np.uint8).reshape(-1, _FIELD)
    return out.tobytes().translate(None, b"\0").decode("ascii")


def save_scenario(bundle, path):
    """Write a bundle as JSON; load_scenario(path) returns an equal bundle."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json_text(scenario_to_dict(bundle)))


def probe_states(bundle, n_probes=DEFAULT_PROBES, seed=PROBE_SEED):
    """Deterministic uniform probe states drawn from the bundle's probe box."""
    n_probes = _within_budget(_as_count(n_probes, "n_probes"), "n_probes")
    seed = _as_int(seed, "seed")
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")
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
