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
# Shared by the built-ins, each sized by len(x): the zero field (both
# drifts and the stationary leader), the Jacobian of a field whose first
# two entries are (cos x3, sin x3) and whose others are constant, and the
# Jacobian of a constant field.

def _zero_field(t, x):
    return (0.0,) * len(x)


def _heading_jac(x):
    J = np.zeros((len(x), len(x)))
    J[0, 2] = -math.sin(x[2])
    J[1, 2] = math.cos(x[2])
    return J


def _zero_jac(x):
    return np.zeros((len(x), len(x)))


# ---------------------------------------------------------------------------
# rolling disc: x = (contact point, steering angle, rolling angle),
# y = (x1, x2), z = (x3, x4); driftless, two controls.

def _disc_f1(x):
    return (math.cos(x[2]), math.sin(x[2]), 0.0, 1.0)


def _disc_f2(x):
    return (0.0, 0.0, 1.0, 0.0)


ROLLING_DISC = register_system(PartitionedSystem(
    name="rolling-disc", n=4, n1=2, n2=2, m=2,
    drift=_zero_field,
    control_fields=(_disc_f1, _disc_f2),
    control_jacobians=(_heading_jac, _zero_jac),
))


# ---------------------------------------------------------------------------
# unicycle: x = (position, heading), fully stabilized block (n2 = 0).

def _uni_f1(x):
    return (math.cos(x[2]), math.sin(x[2]), 0.0)


def _uni_f2(x):
    return (0.0, 0.0, 1.0)


UNICYCLE = register_system(PartitionedSystem(
    name="unicycle", n=3, n1=3, n2=0, m=2,
    drift=_zero_field,
    control_fields=(_uni_f1, _uni_f2),
    control_jacobians=(_heading_jac, _zero_jac),
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


register_leader_field("figure-eight", _figure_eight)
register_leader_field("stationary", _zero_field)


def _identity_key(*funcs):
    """The table key of exactly these function objects: their ids.

    ids, because a user's field need not be hashable.  A tuple display, not
    tuple(map(...)): that one is built by resizing, and each lookup would
    leave a freshly allocated tuple on the free list.
    """
    return (*map(id, funcs),)


def _heading_rates(theta, u):
    """0 + ua f1 + ub f2 with (ua, ub) = u, for the disc's fields
    f1 = (cos theta, sin theta, 0, 1) and f2 = (0, 0, 1, 0), in the generic
    field sum's order; the unicycle's rates are the first three.

    Bitwise simulate's generic row stage on these fields: a term is added
    only when its control is non-zero (cos and sin are not taken otherwise),
    and the 0.0 + and * 0.0 / * 1.0 terms stay, for signed zeros and inf * 0.
    """
    ua, ub = u
    o0 = o1 = o2 = o3 = 0.0
    if ua != 0.0:
        o0 = 0.0 + ua * math.cos(theta)
        o1 = 0.0 + ua * math.sin(theta)
        o2 = 0.0 + ua * 0.0
        o3 = 0.0 + ua * 1.0
    if ub != 0.0:
        o0 = o0 + ub * 0.0
        o1 = o1 + ub * 0.0
        o2 = o2 + ub * 1.0
        o3 = o3 + ub * 0.0
    return o0, o1, o2, o3


# The fused RK4 sub-steps (t, x, h, u0, uh, u1) -> floats repeat simulate's
# generic _rk4_step on the generic stage bit for bit, on scalar locals.  The
# heading x3 is the only state entry the fields read, so it is the only
# intermediate state formed.

def _unicycle_step(t, x, h, u0, uh, u1):
    x1, x2, x3 = x
    hh = 0.5 * h
    a1, a2, a3, _ = _heading_rates(x3, u0)
    b1, b2, b3, _ = _heading_rates(x3 + hh * a3, uh)
    c1, c2, c3, _ = _heading_rates(x3 + hh * b3, uh)
    d1, d2, d3, _ = _heading_rates(x3 + h * c3, u1)
    h6 = h / 6.0
    return [x1 + h6 * (((a1 + 2.0 * b1) + 2.0 * c1) + d1),
            x2 + h6 * (((a2 + 2.0 * b2) + 2.0 * c2) + d2),
            x3 + h6 * (((a3 + 2.0 * b3) + 2.0 * c3) + d3)]


def _disc_step(t, x, h, u0, uh, u1):
    x1, x2, x3, x4 = x
    hh = 0.5 * h
    a1, a2, a3, a4 = _heading_rates(x3, u0)
    b1, b2, b3, b4 = _heading_rates(x3 + hh * a3, uh)
    c1, c2, c3, c4 = _heading_rates(x3 + hh * b3, uh)
    d1, d2, d3, d4 = _heading_rates(x3 + h * c3, u1)
    h6 = h / 6.0
    return [x1 + h6 * (((a1 + 2.0 * b1) + 2.0 * c1) + d1),
            x2 + h6 * (((a2 + 2.0 * b2) + 2.0 * c2) + d2),
            x3 + h6 * (((a3 + 2.0 * b3) + 2.0 * c3) + d3),
            x4 + h6 * (((a4 + 2.0 * b4) + 2.0 * c4) + d4)]


def _figure_eight_step(t, x, h, u0, uh, u1):
    """The uncontrolled leader row.  The field ignores x, so the two midpoint
    stages are one evaluation: k2 = k3 bit for bit."""
    x1, x2, x3 = x
    hh = 0.5 * h
    a1, a2, a3 = _figure_eight(t, x)
    b1, b2, b3 = _figure_eight(t + hh, x)
    d1, d2, d3 = _figure_eight(t + h, x)
    h6 = h / 6.0
    return [x1 + h6 * (((a1 + 2.0 * b1) + 2.0 * b1) + d1),
            x2 + h6 * (((a2 + 2.0 * b2) + 2.0 * b2) + d2),
            x3 + h6 * (((a3 + 2.0 * b3) + 2.0 * b3) + d3)]


# Fused row steps, keyed by (drift, *control_fields): the built-ins share
# their drift, so their own f1 and f2 keep the keys distinct.  Every other
# system or leader field (the stationary one too), and a copy with any
# function swapped, misses and takes simulate's generic step.
_FUSED_STEPS = {
    _identity_key(*funcs): step for funcs, step in (
        ((ROLLING_DISC.drift, *ROLLING_DISC.control_fields), _disc_step),
        ((UNICYCLE.drift, *UNICYCLE.control_fields), _unicycle_step),
        ((_figure_eight,), _figure_eight_step))
}


def _heading_columns(x):
    """Every column a valid unicycle or disc selection can ask for at x: f1,
    f2, [1,2] and [2,1], first three rows, as floats in the operations of
    synthesis's generic construction, so the matrix is bitwise the same.

    The bracket [i1,i2] is J_i2 f_i1 - J_i1 f_i2.  J_2 = 0, so J_2 f_1 is a
    sum of zeros with a +0.0 term, which is +0.0.  J_1 f_2 is (-s, c, 0)
    summed with +0.0 terms, so its entries are b = 0.0 - s, d = 0.0 + c and
    +0.0 for every sign of a zero.  No finite check is needed: the state is
    finite (as_state checked it), and so are its cos and sin.
    """
    c = math.cos(x[2])
    s = math.sin(x[2])
    b = 0.0 - s
    d = 0.0 + c
    return {1: (c, s, 0.0), 2: (0.0, 0.0, 1.0),
            (1, 2): (0.0 - b, 0.0 - d, 0.0), (2, 1): (b - 0.0, d - 0.0, 0.0)}


# Fused extension-matrix columns, keyed by (*control_fields,
# *control_jacobians): the built-ins share their Jacobians, so their own f1
# and f2 keep the keys distinct.  The disc's y-block is the unicycle's first
# two rows.  A miss takes synthesis's generic construction.
_FUSED_COLUMNS = {
    _identity_key(*sys.control_fields, *sys.control_jacobians): _heading_columns
    for sys in (ROLLING_DISC, UNICYCLE)
}


def _fused_columns(sys):
    """x -> {column key: floats} for exactly sys's fields and Jacobians, or None."""
    return _FUSED_COLUMNS.get(_identity_key(*sys.control_fields, *sys.control_jacobians))
