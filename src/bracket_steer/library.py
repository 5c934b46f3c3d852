"""Registry of named systems and leader fields.

Scenario files refer to vector fields by name only; the fields themselves
are code registered here (built-ins below, user fields via register_*).
Keeping fields out of config files keeps every Jacobian analytic.

The built-ins also carry fast paths that simulate and synthesis choose by
the identity of their exact function objects: a whole-block RK4 kernel per
built-in row (_BLOCK_STEPS) and fused extension-matrix columns
(_FUSED_COLUMNS), each bitwise the generic computation it replaces.
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

def _figure_eight_rates(c, s):
    """The figure-eight leader's velocity from c = cos(0.1 t), s = sin(0.1 t),
    on floats or on arrays of them (the constant -0.2 stays a scalar)."""
    c2 = c * c
    # Denominator 4 c^4 - 3 c^2 + 1 >= 7/16 for all t; no singularities.
    den = 4.0 * c2 * c2 - 3.0 * c2 + 1.0
    return 0.2 * c, -0.2, -0.2 * s * (c2 + 0.5) / den


def _figure_eight(t, xL):
    return _figure_eight_rates(math.cos(0.1 * t), math.sin(0.1 * t))


def _figure_eight_velocities(ts):
    """_figure_eight at each of a 1-d array of times, as a (len(ts), 3) array:
    bitwise the scalar field, since np.cos and np.sin match math's."""
    wt = 0.1 * ts
    v = np.empty((len(ts), 3))
    v[:, 0], v[:, 1], v[:, 2] = _figure_eight_rates(np.cos(wt), np.sin(wt))
    return v


register_leader_field("figure-eight", _figure_eight)
register_leader_field("stationary", _zero_field)


def _identity_key(*funcs):
    """The table key of exactly these function objects: their ids.

    ids, because a user's field need not be hashable.  A tuple display, not
    tuple(map(...)): that one is built by resizing, and each lookup would
    leave a freshly allocated tuple on the free list.
    """
    return (*map(id, funcs),)


# Whole-block RK4 kernels (x, h, ts, U) -> (n, p): a row's states after each
# of n sub-steps of length h from x, given the block's times ts and control
# table U as simulate tabulates them (each sub-step's start, midpoint and end
# at rows 3i, 3i + 1 and 3i + 2, then the block's end).  Each repeats
# simulate's generic _rk4_step on the generic stage in array form, so a
# block whose states are all finite is bitwise n generic sub-steps; a
# non-finite one is left to simulate's generic path.

# Each sub-step's four RK4 stages read the table at its start, midpoint
# (twice) and end.
_RK4_STAGES = np.array([0, 1, 1, 2])


def _rk4_states(x, h, k):
    """The (n + 1, p) states x_0 = x, x_{i+1} = x_i + h/6 (((k1 + 2 k2) + 2 k3)
    + k4) from stage rates k of shape (n, 4, p): np.add.accumulate adds
    strictly left to right, as the sub-steps do one after another."""
    out = np.empty((len(k) + 1, len(x)))
    out[0] = x
    out[1:] = (h / 6.0) * (((k[:, 0] + 2.0 * k[:, 1]) + 2.0 * k[:, 2]) + k[:, 3])
    return np.add.accumulate(out, out=out)


def _heading_block(x, h, ts, U):
    """The unicycle's (p = 3) or the disc's (p = 4) block.  Their stage is
    0 + ua f1 + ub f2 with f1 = (cos x3, sin x3, 0, 1), f2 = (0, 0, 1, 0).
    For finite controls and heading the generic sum (a term only for a
    non-zero control, the * 0.0 and * 1.0 terms kept) reduces to
    (0.0 + ua cos x3, 0.0 + ua sin x3, 0.0 + ub, 0.0 + ua) bit for bit, signed
    zeros included; a non-finite control or heading makes the block
    non-finite.  The heading rate is ub alone, so every stage heading is
    known once the headings are accumulated, and one np.cos and one np.sin
    take all four stages of every sub-step."""
    n = len(ts) // 3
    u = U[:3 * n].reshape(n, 3, 2)[:, _RK4_STAGES]
    ua = u[..., 0]
    w = 0.0 + u[..., 1]
    heading = _rk4_states(x[2:3], h, w[..., None])[:-1]  # at each sub-step's start
    # The stage headings x3, x3 + (h/2) k1, x3 + (h/2) k2 and x3 + h k3.
    theta = np.empty((n, 4))
    theta[:, :1] = heading
    theta[:, 1:] = heading + np.array([0.5 * h, 0.5 * h, h]) * w[:, :3]
    k = np.empty((n, 4, len(x)))
    k[..., 0] = 0.0 + ua * np.cos(theta)
    k[..., 1] = 0.0 + ua * np.sin(theta)
    k[..., 2] = w
    if len(x) == 4:
        k[..., 3] = 0.0 + ua
    return _rk4_states(x, h, k)[1:]


def _figure_eight_block(x, h, ts, U):
    """The uncontrolled leader's block: the field ignores x, so its stages
    are the field at each sub-step's start, midpoint (twice) and end."""
    n = len(ts) // 3
    v = _figure_eight_velocities(ts[:3 * n]).reshape(n, 3, 3)
    return _rk4_states(x, h, v[:, _RK4_STAGES])[1:]


# Block kernels, keyed by (drift, *control_fields): the built-ins share
# their drift, so their own f1 and f2 keep the keys distinct.  Every other
# system or leader field (the stationary one too), and a copy with any
# function swapped, misses and takes simulate's generic step.
_BLOCK_STEPS = {
    _identity_key(*funcs): block for funcs, block in (
        ((ROLLING_DISC.drift, *ROLLING_DISC.control_fields), _heading_block),
        ((UNICYCLE.drift, *UNICYCLE.control_fields), _heading_block),
        ((_figure_eight,), _figure_eight_block))
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
