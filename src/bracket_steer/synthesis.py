"""Extension matrix, steering coefficients, and the periodic control family.

The control drives the y-block toward y* by realizing the average motion
-gamma (y - y*): constant inputs along the fields selected in S1, plus
high-frequency cos/sin pairs whose second-order interaction moves the state
along the selected Lie brackets in S2.

The built-in unicycle and rolling disc, chosen by the identity of their
exact fields and Jacobians, build the extension matrix from library's fused
columns: a cos, a sin and one np.array, bitwise the generic construction.
Every other registered system takes that construction, the definition:
one model field per S1 column and one model bracket per S2 column, each
bracket evaluating its own fields and Jacobians; no benchmark workload
reaches it.  validate_selection certifies its probes with one SVD per stack
of at most PROBE_CHUNK matrices; each steering solve keeps one SVD for its
condition guard and one np.linalg.solve.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidInputError, RankDegeneracyError, SelectionShapeError
from .library import _fused_columns
from .model import _as_int, _bracket, _field, as_state
# Not called here: perfbench/tracer.py wraps synthesis.lie_bracket by name.
from .model import lie_bracket  # noqa: F401

TWO_PI = 2.0 * math.pi
# Probe matrices per SVD call in validate_selection, and the most entries
# one stack holds unless a single matrix is larger: the stack's memory does
# not grow with the probe count (the built-ins' 2x2 and 3x3 matrices go 256
# at a time, an n1 > 4 system's fewer, down to one).
PROBE_CHUNK = 256
PROBE_STACK_ENTRIES = PROBE_CHUNK * 16


@dataclass(frozen=True)
class BracketSelection:
    """Index data defining the extension matrix: S1, S2, and frequencies.

    s1 lists direct field indices (1-based); s2 lists ordered index pairs
    whose brackets are used; kappa assigns each pair its integer frequency.
    kappa may be given as a sequence aligned with s2, as a mapping from
    pairs, or omitted to default to 1, 2, 3, ... in s2 order.
    """

    s1: tuple
    s2: tuple
    kappa: Optional[tuple] = None

    def __post_init__(self):
        s1 = tuple(_as_int(i, "s1 entry") for i in self.s1)
        s2 = tuple(tuple(_as_int(i, "s2 entry") for i in p) for p in self.s2)
        for p in s2:
            if len(p) != 2:
                raise InvalidInputError(f"s2 entry must be a pair of indices, got {p!r}")
        kappa = self.kappa
        if kappa is None:
            kappa = tuple(range(1, len(s2) + 1))
        elif isinstance(kappa, dict):
            try:
                kappa = tuple(_as_int(kappa[p], "kappa entry") for p in s2)
            except KeyError as exc:
                raise InvalidInputError(f"kappa mapping is missing pair {exc.args[0]}") from None
        else:
            kappa = tuple(_as_int(k, "kappa entry") for k in kappa)
            if len(kappa) != len(s2):
                raise InvalidInputError(
                    f"kappa has {len(kappa)} entries for {len(s2)} bracket pairs")
        object.__setattr__(self, "s1", s1)
        object.__setattr__(self, "s2", s2)
        object.__setattr__(self, "kappa", kappa)

    @property
    def width(self):
        return len(self.s1) + len(self.s2)

    @property
    def kappa_max(self):
        return max(self.kappa) if self.kappa else 1


def check_selection(sys, sel):
    """Raise SelectionShapeError naming the violated invariant, if any."""
    if sel.width != sys.n1:
        raise SelectionShapeError(
            f"selection shape invariant violated: |S1| + |S2| = {sel.width} "
            f"must equal n1 = {sys.n1}")
    for i in sel.s1:
        if not 1 <= i <= sys.m:
            raise SelectionShapeError(f"S1 index invariant violated: {i} outside 1..{sys.m}")
    for (i1, i2) in sel.s2:
        if i1 == i2:
            raise SelectionShapeError(
                f"bracket pair invariant violated: pair ({i1}, {i2}) has i1 = i2, "
                "and the bracket of a field with itself vanishes")
        if not (1 <= i1 <= sys.m and 1 <= i2 <= sys.m):
            raise SelectionShapeError(
                f"S2 index invariant violated: pair ({i1}, {i2}) outside 1..{sys.m}")
    for k in sel.kappa:
        if k < 1:
            raise SelectionShapeError(f"kappa positivity invariant violated: {k} < 1")
    if len(set(sel.kappa)) != len(sel.kappa):
        raise SelectionShapeError(
            f"kappa distinctness invariant violated: duplicate values in {sel.kappa}")


@dataclass(frozen=True)
class ControllerGains:
    """Sampling period epsilon, gain gamma, target y*, and condition cap."""

    epsilon: float
    gamma: float
    y_star: tuple
    cond_cap: float = 1e6

    def __post_init__(self):
        if not self.epsilon > 0:
            raise InvalidInputError(f"epsilon must be > 0, got {self.epsilon}")
        if not self.gamma > 0:
            raise InvalidInputError(f"gamma must be > 0, got {self.gamma}")
        if not self.cond_cap > 1:
            raise InvalidInputError(f"cond_cap must be > 1, got {self.cond_cap}")
        object.__setattr__(self, "y_star", tuple(float(v) for v in np.atleast_1d(self.y_star)))
        for key in ("epsilon", "gamma", "y_star"):
            if not np.isfinite(getattr(self, key)).all():
                raise InvalidInputError(f"{key} must be finite, got {getattr(self, key)}")

    def y_star_vec(self):
        return np.array(self.y_star, dtype=float)


@dataclass(frozen=True)
class RankCertificate:
    """Empirical record of extension-matrix invertibility over probe states."""

    sampled_states: tuple
    worst_condition: float
    rank_ok: bool
    alpha_estimate: float  # max of ||F^{-1}|| (spectral) over the probes
    cond_cap: float

    def to_dict(self):
        return {
            "worst_condition": self.worst_condition,
            "rank_ok": self.rank_ok,
            "alpha_estimate": self.alpha_estimate,
            "cond_cap": self.cond_cap,
            "n_probes": len(self.sampled_states),
        }


def extension_matrix(sys, sel, x):
    """Columns: y-rows of f_i for i in S1, then y-rows of [f_i1, f_i2] for S2."""
    check_selection(sys, sel)
    return _extension_matrix(sys, sel, as_state(x, sys.n))


def _extension_matrix(sys, sel, x):
    """extension_matrix for a checked selection and a checked state x.

    The built-in unicycle and disc (their exact fields and Jacobians) take
    library's fused columns: one np.array of the selected columns' y-rows,
    bitwise the generic construction.  Every other system, which no
    benchmark workload runs, takes the definition: model's _field for each
    S1 column and _bracket, J_i2 f_i1 - J_i1 f_i2, for each S2 pair.
    """
    n1 = sys.n1
    columns = _fused_columns(sys)
    if columns is not None:
        # No finite check can fail here: every caller passes a state that
        # as_state found finite, and cos and sin of a finite float are finite.
        col = columns(x)
        # The selected columns transposed; rows past n1 are the z-block's.
        return np.array([*zip(*[col[k] for k in (*sel.s1, *sel.s2)])][:n1])
    cols = [_field(sys, i, 0.0, x)[:n1] for i in sel.s1]
    cols += [_bracket(sys, i1, i2, x)[:n1] for (i1, i2) in sel.s2]
    return np.column_stack(cols)


def _ratio(smax, smin):
    """(smax / smin, smin); the ratio is inf when smin = 0."""
    return (math.inf if smin == 0.0 else float(smax / smin)), smin


def _conditioning(F):
    """_ratio of one matrix F, or an iterator of them for a (k, n1, n1) stack.

    numpy's SVD makes the same LAPACK call on each matrix of a stack, so
    each pair is bitwise that of the matrix alone.  The pairs are made one
    at a time: a list of k would leave k tuples on the free list.
    """
    sv = np.linalg.svd(F, compute_uv=False)
    if sv.ndim == 1:
        return _ratio(sv[0], sv[-1])
    return map(_ratio, sv[:, 0].tolist(), sv[:, -1].tolist())


def _solve_steering(F, rhs, cond_cap, x):
    """Solve F a = rhs with a condition-number guard; never forms F^{-1}."""
    cond, _ = _conditioning(F)
    if cond > cond_cap:
        raise RankDegeneracyError(
            f"extension matrix condition number {cond:.3g} exceeds cap {cond_cap:.3g} "
            f"at state {np.asarray(x).tolist()}",
            state=np.array(x, dtype=float), condition=cond)
    try:
        return np.linalg.solve(F, rhs)
    except np.linalg.LinAlgError as exc:  # cond_cap = inf lets a singular F pass
        raise RankDegeneracyError(
            f"extension matrix is singular at state {np.asarray(x).tolist()}",
            state=np.array(x, dtype=float), condition=cond) from exc


def _steer(sys, sel, x, r, gamma, cond_cap):
    """a solving F(x) a = -gamma r for a checked selection and state x:
    r = y - y* for one system, x - x_L - d for a follower."""
    return _solve_steering(_extension_matrix(sys, sel, x), -gamma * r, cond_cap, x)


def steering_coefficients(sys, sel, gains, x):
    """a(x) solving F(x) a = -gamma (y - y*), ordered as (S1 entries, S2 entries)."""
    x = as_state(x, sys.n)
    y_star = gains.y_star_vec()
    if y_star.shape != (sys.n1,):
        raise InvalidInputError(f"y_star has dimension {y_star.size}, expected n1 = {sys.n1}")
    check_selection(sys, sel)
    return _steer(sys, sel, x, x[: sys.n1] - y_star, gains.gamma, gains.cond_cap)


def _sign(v):
    # sign(0) = 0: the amplitude vanishes with the coefficient anyway.
    return math.copysign(1.0, v) if v != 0.0 else 0.0


def frozen_control(sel, epsilon, m, a):
    """The control family t -> u for coefficients a held over an interval.

    u_k(t) = sum_{i in S1} delta_{ki} a_i
           + sum_{(i1,i2) in S2} 2 sqrt(pi kappa |a_{i1i2}| / eps)
             [ delta_{k,i1} cos(2 pi kappa t / eps)
               + delta_{k,i2} sign(a_{i1i2}) sin(2 pi kappa t / eps) ].

    The S1 part, each pair's amplitude and signed amplitude, and each
    pair's rate 2 pi kappa depend only on a, so they are computed here once.
    The returned table(ts) maps a 1-d float64 array of times to the
    (len(ts), m) float64 array of u at each: one numpy pass per pair, each
    element taking the scalar operations in the scalar order (fmod, /, *,
    cos, sin, then the two adds), so every row is bitwise the control at
    that time alone.  The phase is reduced with fmod(t, epsilon), so the
    evaluation is epsilon-periodic exactly whenever t and t + epsilon round
    to the same remainder (always true on dyadic grids).
    """
    base = np.zeros(m)
    for idx, i in enumerate(sel.s1):
        base[i - 1] += a[idx]
    off = len(sel.s1)
    pairs = []
    for p, (i1, i2) in enumerate(sel.s2):
        ap = a[off + p]
        kap = sel.kappa[p]
        amp = 2.0 * math.sqrt(math.pi * kap * abs(ap) / epsilon)
        pairs.append((i1 - 1, i2 - 1, amp, _sign(ap) * amp, TWO_PI * kap))

    def table(ts):
        u = np.empty((len(ts), m))
        u[:] = base
        phase = np.fmod(ts, epsilon) / epsilon
        for k1, k2, amp, signed_amp, rate in pairs:
            ang = rate * phase
            u[:, k1] += amp * np.cos(ang)
            u[:, k2] += signed_amp * np.sin(ang)
        return u

    return table


def held_control(sel, epsilon, m, a, t):
    """Evaluate the control family at absolute time t for held coefficients a.

    The frozen control's table at the one time t.  Each input is checked
    here and a bad one raises InvalidInputError naming it: t finite, epsilon
    finite and > 0, m an integer covering every selection index, each kappa
    >= 1, and a finite with sel.width entries.  frozen_control, the sampled
    loop's path, takes them unchecked.
    """
    if not math.isfinite(t):
        raise InvalidInputError(f"t must be finite, got {t}")
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise InvalidInputError(f"epsilon must be finite and > 0, got {epsilon}")
    m = _as_int(m, "m")
    for i in (*sel.s1, *(i for pair in sel.s2 for i in pair)):
        if not 1 <= i <= m:
            raise InvalidInputError(f"selection index {i} outside 1..m, m = {m}")
    for k in sel.kappa:
        if k < 1:
            raise InvalidInputError(f"kappa entry {k} must be >= 1")
    a = np.asarray(a, dtype=float)
    if a.shape != (sel.width,):
        raise InvalidInputError(f"a has shape {a.shape}, expected (sel.width,) = ({sel.width},)")
    if not np.isfinite(a).all():
        raise InvalidInputError(f"a must be finite, got {a.tolist()}")
    return frozen_control(sel, epsilon, m, a)(np.array([t], dtype=float))[0]


def control_value(sys, sel, gains, t, x_hold):
    """The applied input u(t) with the state argument frozen at x_hold."""
    a = steering_coefficients(sys, sel, gains, x_hold)
    return held_control(sel, gains.epsilon, sys.m, a, t)


def validate_selection(sys, sel, probes, gains):
    """Probe the rank condition over sample states and certify the result.

    Raises SelectionShapeError for structurally malformed selections;
    conditioning failures are reported in the certificate, not raised.
    The probes' matrices fill one reused stack of at most PROBE_CHUNK
    matrices and PROBE_STACK_ENTRIES entries (but at least one matrix), and
    each full stack, then the rest, takes one _conditioning call.
    """
    check_selection(sys, sel)
    if len(probes) == 0:
        raise InvalidInputError("at least one probe state is required")
    worst = 0.0
    alpha = 0.0
    ok = True
    states = []
    chunk = max(1, min(PROBE_CHUNK, PROBE_STACK_ENTRIES // (sys.n1 * sys.n1)))
    stack = np.empty((chunk, sys.n1, sys.n1))
    for start in range(0, len(probes), chunk):
        block = probes[start:start + chunk]
        for k, x in enumerate(block):
            x = as_state(x, sys.n)
            states.append(tuple(x.tolist()))
            stack[k] = _extension_matrix(sys, sel, x)
        for cond, smin in _conditioning(stack[:len(block)]):
            if smin == 0.0:
                ok = False
                worst = math.inf
                alpha = math.inf
                continue
            worst = max(worst, cond)
            alpha = max(alpha, float(1.0 / smin))
    if worst > gains.cond_cap:
        ok = False
    return RankCertificate(
        sampled_states=tuple(states), worst_condition=worst,
        rank_ok=ok, alpha_estimate=alpha, cond_cap=gains.cond_cap)
