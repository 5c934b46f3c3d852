"""Registry of named systems and leader fields.

Scenario files refer to vector fields by name only; the fields themselves
are code registered here (built-ins below, user fields via register_*).
Keeping fields out of config files keeps every Jacobian analytic.
"""

import math

import numpy as np

from .errors import InvalidInputError
from .model import PartitionedSystem

_SYSTEMS = {}
_LEADER_FIELDS = {}


def _register(table, kind, name, value, replace):
    if name in table and not replace:
        raise InvalidInputError(f"{kind} '{name}' is already registered")
    table[name] = value
    return value


def _lookup(table, kind, name):
    if name not in table:
        raise InvalidInputError(f"unknown {kind} '{name}'; registered: {sorted(table)}")
    return table[name]


# Each call passes the table as it is at call time: tests swap it for a copy.
def register_system(system, replace=False):
    """Add a PartitionedSystem to the registry under system.name."""
    return _register(_SYSTEMS, "system", system.name, system, replace)


def register_leader_field(name, dynamics, replace=False):
    """Add a leader field (t, x_L) -> dx_L/dt under the given name."""
    return _register(_LEADER_FIELDS, "leader field", name, dynamics, replace)


def system(name):
    return _lookup(_SYSTEMS, "system", name)


def leader_field(name):
    return _lookup(_LEADER_FIELDS, "leader field", name)


def available_systems():
    return tuple(sorted(_SYSTEMS))


def available_leader_fields():
    return tuple(sorted(_LEADER_FIELDS))


# ---------------------------------------------------------------------------
# rolling disc: x = (contact point, steering angle, rolling angle),
# y = (x1, x2), z = (x3, x4); driftless, two controls.

def _zero_drift4(t, x):
    return (0.0, 0.0, 0.0, 0.0)


def _disc_f1(x):
    return (math.cos(x[2]), math.sin(x[2]), 0.0, 1.0)


def _disc_f1_jac(x):
    J = np.zeros((4, 4))
    J[0, 2] = -math.sin(x[2])
    J[1, 2] = math.cos(x[2])
    return J


def _disc_f2(x):
    return (0.0, 0.0, 1.0, 0.0)


def _zero_jac4(x):
    return np.zeros((4, 4))


def _disc_stage(t, x, u):
    """0 + u1 _disc_f1(x) + u2 _disc_f2(x) as floats, in the generic sum's order.

    Bitwise simulate's generic row stage on these fields: a term is added
    only when its control is non-zero (cos and sin are not taken otherwise),
    and the 0.0 + and * 0.0 / * 1.0 terms stay, for signed zeros and inf * 0.
    """
    u1, u2 = u
    o0 = o1 = o2 = o3 = 0.0
    if u1 != 0.0:
        o0 = 0.0 + u1 * math.cos(x[2])
        o1 = 0.0 + u1 * math.sin(x[2])
        o2 = 0.0 + u1 * 0.0
        o3 = 0.0 + u1 * 1.0
    if u2 != 0.0:
        o0 = o0 + u2 * 0.0
        o1 = o1 + u2 * 0.0
        o2 = o2 + u2 * 1.0
        o3 = o3 + u2 * 0.0
    return [o0, o1, o2, o3]


ROLLING_DISC = register_system(PartitionedSystem(
    name="rolling-disc", n=4, n1=2, n2=2, m=2,
    drift=_zero_drift4,
    control_fields=(_disc_f1, _disc_f2),
    control_jacobians=(_disc_f1_jac, _zero_jac4),
))


# ---------------------------------------------------------------------------
# unicycle: x = (position, heading), fully stabilized block (n2 = 0).

def _zero_drift3(t, x):
    return (0.0, 0.0, 0.0)


def _uni_f1(x):
    return (math.cos(x[2]), math.sin(x[2]), 0.0)


def _uni_f1_jac(x):
    J = np.zeros((3, 3))
    J[0, 2] = -math.sin(x[2])
    J[1, 2] = math.cos(x[2])
    return J


def _uni_f2(x):
    return (0.0, 0.0, 1.0)


def _zero_jac3(x):
    return np.zeros((3, 3))


def _unicycle_stage(t, x, u):
    """0 + u1 _uni_f1(x) + u2 _uni_f2(x) as floats; see _disc_stage."""
    u1, u2 = u
    o0 = o1 = o2 = 0.0
    if u1 != 0.0:
        o0 = 0.0 + u1 * math.cos(x[2])
        o1 = 0.0 + u1 * math.sin(x[2])
        o2 = 0.0 + u1 * 0.0
    if u2 != 0.0:
        o0 = o0 + u2 * 0.0
        o1 = o1 + u2 * 0.0
        o2 = o2 + u2 * 1.0
    return [o0, o1, o2]


UNICYCLE = register_system(PartitionedSystem(
    name="unicycle", n=3, n1=3, n2=0, m=2,
    drift=_zero_drift3,
    control_fields=(_uni_f1, _uni_f2),
    control_jacobians=(_uni_f1_jac, _zero_jac3),
))


# ---------------------------------------------------------------------------
# leader fields

def _figure_eight(t, xL):
    c = math.cos(0.1 * t)
    s = math.sin(0.1 * t)
    c2 = c * c
    # Denominator 4 c^4 - 3 c^2 + 1 >= 7/16 for all t; no singularities.
    den = 4.0 * c2 * c2 - 3.0 * c2 + 1.0
    return (0.2 * c, -0.2, -0.2 * s * (c2 + 0.5) / den)


def _figure_eight_stage(t, x, u):
    """The uncontrolled leader row: _figure_eight's floats, with no ndarray."""
    return [*_figure_eight(t, x)]


def _stationary(t, xL):
    return (0.0,) * len(xL)


register_leader_field("figure-eight", _figure_eight)
register_leader_field("stationary", _stationary)


# Fused row stages, keyed by the ids of the exact function objects
# (drift, *control_fields); ids, because a user's field need not be
# hashable.  Every other system or leader field, and a copy with any
# function swapped, misses and takes the generic field sum.
_FUSED_STAGES = {
    tuple(map(id, funcs)): stage for funcs, stage in (
        ((ROLLING_DISC.drift, *ROLLING_DISC.control_fields), _disc_stage),
        ((UNICYCLE.drift, *UNICYCLE.control_fields), _unicycle_stage),
        ((_figure_eight,), _figure_eight_stage))
}


def _fused_stage(drift, fields):
    """The fused stage (t, x, u) -> floats of exactly these functions, or None."""
    # A tuple display, not tuple(map(...)): that one is built by resizing,
    # and each lookup would leave a freshly allocated tuple on the free list.
    return _FUSED_STAGES.get((id(drift), *map(id, fields)))
