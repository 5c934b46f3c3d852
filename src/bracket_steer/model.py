"""Partitioned control-affine systems and Lie-bracket evaluation.

A system is dx/dt = f0(t, x) + sum_k f_k(x) u_k with a declared split of the
state into a stabilized block y (the first n1 entries) and a free block z
(the last n2 entries).  Control fields carry analytic Jacobians; a
finite-difference Jacobian is provided as an independent cross-check, not as
a substitute.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InvalidInputError, NonFiniteError


def as_state(x, n=None):
    """Coerce x to a finite 1-d float64 vector, optionally of dimension n."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise InvalidInputError(f"state must be a 1-d vector, got shape {arr.shape}")
    if n is not None and arr.shape[0] != n:
        raise InvalidInputError(f"state has dimension {arr.shape[0]}, expected {n}")
    if not np.isfinite(arr).all():
        raise InvalidInputError("state contains non-finite entries")
    return arr


def _as_int(value, what, error=InvalidInputError):
    """value as an int: an int, a numpy integer or an integral float.

    A bool or any other value raises error naming what; nothing is truncated.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise error(f"{what} must be an integer, got {value!r}")


@dataclass(frozen=True, eq=False)
class PartitionedSystem:
    """Control-affine system with a y/z state partition.

    drift is f0(t, x); control_fields[k-1] is f_k(x); control_jacobians[k-1]
    is the analytic d f_k / dx.  domain_check, if given, returns True inside
    the admissible region D.
    """

    name: str
    n: int
    n1: int
    n2: int
    m: int
    drift: Callable[[float, np.ndarray], np.ndarray]
    control_fields: tuple
    control_jacobians: tuple
    domain_check: Optional[Callable[[np.ndarray], bool]] = None

    def __post_init__(self):
        if self.n1 < 1 or self.n2 < 0 or self.n1 + self.n2 != self.n:
            raise InvalidInputError(
                f"partition invariant violated: n1={self.n1}, n2={self.n2}, n={self.n} "
                "(need n1 >= 1, n2 >= 0, n1 + n2 = n)")
        if self.m < 1:
            raise InvalidInputError("at least one control field is required")
        object.__setattr__(self, "control_fields", tuple(self.control_fields))
        object.__setattr__(self, "control_jacobians", tuple(self.control_jacobians))
        if len(self.control_fields) != self.m or len(self.control_jacobians) != self.m:
            raise InvalidInputError(
                f"expected {self.m} control fields and {self.m} Jacobians, got "
                f"{len(self.control_fields)} and {len(self.control_jacobians)}")

    def split(self, x):
        """Return (y, z) views of a state vector."""
        return x[:self.n1], x[self.n1:]


def _check_finite(out, what):
    if not np.isfinite(out).all():
        raise NonFiniteError(f"{what} produced non-finite entries")
    return out


def _field(sys, field_id, t, x):
    """eval_field on a state x that as_state has already checked."""
    if not 0 <= field_id <= sys.m:
        raise InvalidInputError(f"field_id {field_id} out of range 0..{sys.m}")
    if field_id == 0:
        out = np.asarray(sys.drift(t, x), dtype=float)
    else:
        out = np.asarray(sys.control_fields[field_id - 1](x), dtype=float)
    if out.shape != (sys.n,):
        raise InvalidInputError(f"field {field_id} returned shape {out.shape}, expected ({sys.n},)")
    return _check_finite(out, f"field {field_id}")


def _jac(sys, field_id, x):
    """jacobian on a state x that as_state has already checked."""
    if not 1 <= field_id <= sys.m:
        raise InvalidInputError(f"field_id {field_id} out of range 1..{sys.m}")
    out = np.asarray(sys.control_jacobians[field_id - 1](x), dtype=float)
    if out.shape != (sys.n, sys.n):
        raise InvalidInputError(
            f"Jacobian {field_id} returned shape {out.shape}, expected ({sys.n}, {sys.n})")
    return _check_finite(out, f"jacobian {field_id}")


def eval_field(sys, field_id, t, x):
    """Evaluate field field_id at (t, x); id 0 is the drift, 1..m the controls."""
    return _field(sys, field_id, t, as_state(x, sys.n))


def jacobian(sys, field_id, x):
    """Analytic Jacobian of control field field_id (1..m) at x."""
    return _jac(sys, field_id, as_state(x, sys.n))


def _bracket(sys, j1, j2, x):
    """lie_bracket on a state x that as_state has already checked."""
    v1 = _field(sys, j1, 0.0, x)
    v2 = _field(sys, j2, 0.0, x)
    out = _jac(sys, j2, x) @ v1 - _jac(sys, j1, x) @ v2
    return _check_finite(out, f"bracket [{j1},{j2}]")


def lie_bracket(sys, j1, j2, x):
    """[f_j1, f_j2](x) = (df_j2/dx) f_j1(x) - (df_j1/dx) f_j2(x)."""
    return _bracket(sys, j1, j2, as_state(x, sys.n))


def finite_diff_jacobian(field, x, h=1e-6):
    """Central-difference Jacobian of an arbitrary field x -> vector.

    Test oracle for analytic Jacobians; column i is
    (field(x + h e_i) - field(x - h e_i)) / (2h).
    """
    if h <= 0:
        raise InvalidInputError("finite-difference step h must be > 0")
    x = as_state(x)
    cols = []
    for i in range(x.shape[0]):
        e = np.zeros_like(x)
        e[i] = h
        hi = np.asarray(field(x + e), dtype=float)
        lo = np.asarray(field(x - e), dtype=float)
        cols.append((hi - lo) / (2.0 * h))
    return _check_finite(np.column_stack(cols), "finite-difference jacobian")
