"""Partitioned control-affine systems and Lie-bracket evaluation.

A system is dx/dt = f0(t, x) + sum_k f_k(x) u_k with a declared split of the
state into a stabilized block y (the first n1 entries) and a free block z
(the last n2 entries).  Control fields carry analytic Jacobians; a
finite-difference Jacobian is provided as an independent cross-check, not as
a substitute.
"""

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InvalidInputError, NonFiniteError


MAX_ROW_SUBSTEPS = 10_000_000  # work budget: intervals x sub-steps x rows

# Values per block of every whole-run array pass: float_text's calls, the
# error norms and the leader speeds.  A block's temporaries grow with its
# values, so a run's peak memory is its trajectory plus one block's
# temporaries, a few MB at most, whatever its length or a table's width.
BLOCK_VALUES = 4096


def block_rows(cols):
    """Rows per block of a table of cols columns: BLOCK_VALUES values, and
    one row at least."""
    return max(1, BLOCK_VALUES // cols)


def as_state(x, n=None):
    """Coerce x to a finite 1-d float64 vector, optionally of dimension n."""
    try:
        arr = np.asarray(x, dtype=float)
    except (TypeError, ValueError, OverflowError):  # the gate names the entry at fault
        arr = np.array(_as_reals(x, "state"))
    if arr.ndim != 1:
        raise InvalidInputError(f"state must be a 1-d vector, got shape {arr.shape}")
    if n is not None and arr.shape[0] != n:
        raise InvalidInputError(f"state has dimension {arr.shape[0]}, expected {n}")
    # Over the entries as Python floats (exact): a state has one entry per
    # dimension, and on so few this is cheaper than np.isfinite(arr).all().
    if not all(map(math.isfinite, arr.tolist())):
        raise InvalidInputError("state contains non-finite entries")
    return arr


def _as_int(value, what):
    """value as an int: an int, a numpy integer or an integral float.

    A bool or any other value raises InvalidInputError naming what; nothing is truncated.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise InvalidInputError(f"{what} must be an integer, got {value!r}")


def _as_count(value, what):
    """value as _as_int's int, refused with InvalidInputError naming what unless >= 1."""
    count = _as_int(value, what)
    if count < 1:
        raise InvalidInputError(f"{what} must be >= 1, got {value}")
    return count


def _as_real(value, what):
    """value as a float: a real number (int, float, Fraction, a numpy
    integer or floating) that float() takes.  A bool, a numpy bool or any
    other value raises InvalidInputError naming what."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an int past the float range
            pass
    raise InvalidInputError(f"{what} must be a real number, got {value!r}")


def _as_positive(value, what):
    """value as the float _as_real gives, refused with InvalidInputError
    naming what unless it is finite and > 0."""
    number = _as_real(value, what)
    if not 0 < number < math.inf:
        raise InvalidInputError(f"{what} must be finite and > 0, got {value}")
    return number


def _as_reals(value, what):
    """value, a real number or a list, tuple or 1-d array of them, as a tuple of floats:
    _as_real of a number as what, of each entry as f"{what} entry" (so none may nest)."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return tuple(_as_real(v, f"{what} entry") for v in value)
    return (_as_real(value, what),)


def _as_finite_reals(value, what):
    """The tuple _as_reals gives, refused with InvalidInputError naming what
    unless every entry is finite."""
    values = _as_reals(value, what)
    if not all(map(math.isfinite, values)):
        raise InvalidInputError(f"{what} must be finite, got {values}")
    return values


def _as_list(value, what):
    """value as a sequence: an array of one or more dimensions as it is, any
    other iterable as the tuple of its items.  A value that is not iterable
    (a number, None, a 0-d array) raises InvalidInputError naming what."""
    if isinstance(value, np.ndarray) and value.ndim:
        return value
    try:
        items = iter(value)
    except TypeError:
        raise InvalidInputError(f"{what} must be a list, got {value!r}") from None
    return tuple(items)


def _count(n):
    """An int count as message text: in full below 10**15, else in "%.3g" form from
    the exact int (5e+299 for 300 digits), so a count past the float range prints too."""
    if n < 10**15:
        return str(n)
    # Imported here, on this error path only: importing decimal costs every
    # run about 2 ms.
    from decimal import Decimal
    mantissa, _, exponent = format(Decimal(n), ".2e").partition("e")
    return f"{mantissa.rstrip('0').rstrip('.')}e{exponent}"


def _within_budget(n, what):
    """An int count n of what, refused past MAX_ROW_SUBSTEPS before anything
    of its size exists: the package's one work-budget check and message."""
    if n > MAX_ROW_SUBSTEPS:
        raise InvalidInputError(
            f"{what}={_count(n)} exceeds the budget MAX_ROW_SUBSTEPS = {MAX_ROW_SUBSTEPS}")
    return n


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
        for key, gate in (("n", _as_int), ("n1", _as_count), ("n2", _as_int), ("m", _as_count)):
            object.__setattr__(self, key, gate(getattr(self, key), key))
        if self.n2 < 0 or self.n1 + self.n2 != self.n:
            raise InvalidInputError(
                f"partition invariant violated: n1={self.n1}, n2={self.n2}, n={self.n} "
                "(need n2 >= 0, n1 + n2 = n)")
        for key in ("control_fields", "control_jacobians"):
            object.__setattr__(self, key, tuple(_as_list(getattr(self, key), key)))
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
    return _field(sys, _as_int(field_id, "field_id"), t, as_state(x, sys.n))


def jacobian(sys, field_id, x):
    """Analytic Jacobian of control field field_id (1..m) at x."""
    return _jac(sys, _as_int(field_id, "field_id"), as_state(x, sys.n))


def _bracket(sys, j1, j2, x):
    """lie_bracket on a state x that as_state has already checked."""
    v1 = _field(sys, j1, 0.0, x)
    v2 = _field(sys, j2, 0.0, x)
    out = _jac(sys, j2, x) @ v1 - _jac(sys, j1, x) @ v2
    return _check_finite(out, f"bracket [{j1},{j2}]")


def lie_bracket(sys, j1, j2, x):
    """[f_j1, f_j2](x) = (df_j2/dx) f_j1(x) - (df_j1/dx) f_j2(x)."""
    return _bracket(sys, _as_int(j1, "j1"), _as_int(j2, "j2"), as_state(x, sys.n))


def finite_diff_jacobian(field, x, h=1e-6):
    """Central-difference Jacobian of an arbitrary field x -> vector.

    Test oracle for analytic Jacobians; column i is
    (field(x + h e_i) - field(x - h e_i)) / (2h).
    """
    h = _as_positive(h, "h")
    x = as_state(x)
    cols = []
    for i in range(x.shape[0]):
        e = np.zeros_like(x)
        e[i] = h
        hi = np.asarray(field(x + e), dtype=float)
        lo = np.asarray(field(x - e), dtype=float)
        cols.append((hi - lo) / (2.0 * h))
    return _check_finite(np.column_stack(cols), "finite-difference jacobian")
