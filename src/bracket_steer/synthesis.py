"""Extension matrix, steering coefficients, and the periodic control family.

The control drives the y-block toward y* by realizing the average motion
-gamma (y - y*): constant inputs along the fields selected in S1, plus
high-frequency cos/sin pairs whose second-order interaction moves the state
along the selected Lie brackets in S2.

Every extension matrix and steering solve goes through one private plan
per (system, selection) pair, _SteeringPlan, built per public call or per
run and never kept across calls.  For the built-in unicycle and rolling
disc, chosen by the identity of their exact fields and Jacobians, it picks
the selection's entries from library's fused columns once: one matrix
takes a cos, a sin and one np.array, and a stack of them one np.cos and one
np.sin over the stack, each bitwise the generic construction.  Every other
registered system takes that construction, the definition: one model field
per S1 column and one model bracket per S2 column, each bracket evaluating
its own fields and Jacobians, row by row; no benchmark workload reaches it.
validate_selection checks its probes in one pass (or per probe, in order)
and certifies them by one stacked build and SVD per PROBE_CHUNK matrices;
each steering solve keeps one SVD for its condition guard and one LU
solve, and a stack of solves (solve_many) one of each for the whole stack.
Both are the LAPACK gufuncs that np.linalg.svd and np.linalg.solve call,
called without those wrappers: the same routines, so the same bytes, but a
failure comes back as NaN, never as LinAlgError, and the guards below test
for it.  At each sampling instant every run steers by one step per group
of rows, the plan's held: a single system is a group of one row.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from sys import float_info
from typing import Optional

import numpy as np
from numpy.linalg._umath_linalg import solve1 as _lapack_solve1
from numpy.linalg._umath_linalg import svd as _lapack_svd

from .errors import InvalidInputError, NonFiniteError, RankDegeneracyError, SelectionShapeError
from .library import _FUSED_KEYS, _fused_columns
from .model import (_as_int, _as_list, _as_positive, _as_real, _as_reals, _bracket, _field,
                    _within_budget, as_state, block_rows)
# Not called here: perfbench/tracer.py wraps synthesis.lie_bracket by name.
from .model import lie_bracket  # noqa: F401

TWO_PI = 2.0 * math.pi
# Probe matrices per SVD call in validate_selection, at most one block of
# model.BLOCK_VALUES entries unless a single matrix is larger: the stack's
# memory does not grow with the probe count (the built-ins' 2x2 and 3x3
# matrices go 256 at a time, an n1 > 4 system's fewer, down to one).
PROBE_CHUNK = 256


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
        s1 = tuple(_as_int(i, "s1 entry") for i in _as_list(self.s1, "s1"))
        s2 = tuple(tuple(_as_int(i, "s2 entry") for i in _as_list(p, "s2 entry"))
                   for p in _as_list(self.s2, "s2"))
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
            kappa = tuple(_as_int(k, "kappa entry") for k in _as_list(kappa, "kappa"))
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
    """Sampling period epsilon, gain gamma, target y*, and condition cap,
    each stored as the float (y*, the tuple of floats) its gate returns."""

    epsilon: float
    gamma: float
    y_star: tuple
    cond_cap: float = 1e6

    def __post_init__(self):
        for key, low in (("epsilon", 0), ("gamma", 0), ("cond_cap", 1)):
            value = _as_real(getattr(self, key), key)
            if not value > low:
                raise InvalidInputError(f"{key} must be > {low}, got {getattr(self, key)}")
            object.__setattr__(self, key, value)
        object.__setattr__(self, "y_star", _as_reals(self.y_star, "y_star"))
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
    x = as_state(x, sys.n)
    return _SteeringPlan(sys, sel).matrix(x)


class _ControlTerms:
    """A selection's constants in its control family, for frozen_control:
    each S1 entry's (coefficient index, 0-based input), each S2 pair's
    (coefficient index, i1, i2, pi kappa) for its amplitude and its
    (0-based i1, 0-based i2, 2 pi kappa) for its table."""

    def __init__(self, sel):
        self.s1 = [(idx, i - 1) for idx, i in enumerate(sel.s1)]
        off = len(sel.s1)
        self.pairs = [(off + p, i1, i2, math.pi * float(kap))
                      for p, ((i1, i2), kap) in enumerate(zip(sel.s2, sel.kappa))]
        self.rates = [(i1 - 1, i2 - 1, TWO_PI * float(kap))
                      for (i1, i2), kap in zip(sel.s2, sel.kappa)]


class _SteeringPlan:
    """The steering layer of one (system, selection) pair that
    check_selection passed: its extension matrices and steering solves.

    It is built once per public call, per validate_selection, per
    simulate_pi_epsilon run and per formation group and run, and lives no
    longer.  It resolves once the system's fused columns (library's rule
    for exactly the built-in unicycle's and disc's fields and Jacobians,
    chosen by their identity) and the entries of the rule's 3 x 4 matrix
    that the selection picks; a run steers through its held, which takes
    the selection's control constants (terms) for frozen_control.  Every
    other system takes the definition: model's _field for each S1 column
    and _bracket, J_i2 f_i1 - J_i1 f_i2, for each S2 pair; no benchmark
    workload reaches it.  Every state it is given has passed as_state, so no finite check
    is made here: cos and sin of a finite float are finite.
    """

    def __init__(self, sys, sel):
        self.sys = sys
        self.sel = sel
        self.columns = _fused_columns(sys)
        if self.columns is not None:
            # F's entries, row-major: row i picks the selection's columns
            # from row i of the rule's 3 x 4 matrix (rows past n1 are the
            # z-block's).
            cols = [_FUSED_KEYS[key] for key in (*sel.s1, *sel.s2)]
            self.flat = [i + c for i in range(0, 4 * sys.n1, 4) for c in cols]
            self.take = itemgetter(*self.flat)

    @cached_property
    def terms(self):
        """The selection's control constants, for frozen_control."""
        return _ControlTerms(self.sel)

    def matrix(self, x):
        """The extension matrix (n1, n1) at a state x (n,)."""
        sys, sel = self.sys, self.sel
        if self.columns is None:
            n1 = sys.n1
            cols = [_field(sys, i, 0.0, x)[:n1] for i in sel.s1]
            cols += [_bracket(sys, i1, i2, x)[:n1] for (i1, i2) in sel.s2]
            return np.column_stack(cols)
        return np.array(self.take(self.columns(x))).reshape(sys.n1, sys.n1)

    def matrices(self, X, out=None):
        """The extension matrices (k, n1, n1) at each row of X (k, n), into
        out (C-contiguous) if given.  The fused columns take one np.cos and
        one np.sin over the stack and one strided assignment per entry,
        elementwise, so each matrix is bitwise matrix(x); any other system
        builds them row by row, so a field's error is raised at its row."""
        n1 = self.sys.n1
        F = np.empty((len(X), n1, n1)) if out is None else out
        if self.columns is None:
            for k, x in enumerate(X):
                F[k] = self.matrix(x)
        else:
            values = self.columns(X, np)
            # Entry q of every matrix is row q of this (n1 * n1, k) view: an
            # integer index, which numpy assigns faster than F[:, i, j].
            entries = F.reshape(len(X), n1 * n1).T
            for q, e in enumerate(self.flat):
                entries[q] = values[e]
        return F

    def solve(self, x, r, gamma, cond_cap):
        """a solving F(x) a = -gamma r at a state x (r, n1 floats, is y - y*
        for one system and x - x_L - d for a follower): _steering_rhs, then
        F(x) and the solve, _solve_steering, looked up by name."""
        return _solve_steering(self.matrix(x), _steering_rhs(gamma, r), cond_cap, x)

    def solve_many(self, X, R, gammas, cond_cap):
        """solve for each row of a stack: the (k, width) coefficients a_l
        solving F(x_l) a_l = -gamma_l r_l for states X (k, n), r_l the rows
        of R (k, n1) and one gain per row, or None when any row's solve
        would raise.

        Each right-hand side is _steering_rhs's, as in solve, and matrices
        builds the (k, n1, n1) stack; then one _lapack_svd and one
        _lapack_solve1 over it make the same LAPACK call on each matrix, so
        each row is bitwise its own solve.  A non-finite right-hand side,
        an error building a matrix, a condition number over cond_cap or
        NaN, or a NaN solve gives None, and held takes the rows one by one.
        """
        try:
            rhs = [_steering_rhs(g, r) for g, r in zip(gammas, R.tolist())]
            F = self.matrices(X)
        except Exception:  # the per-row pass raises it again, in its place
            return None
        with np.errstate(all="ignore"):
            cond, _ = _conditioning(F)
            if not (cond <= cond_cap).all():
                return None
            a = _lapack_solve1(F, rhs, signature="dd->d")
        return None if any(map(math.isnan, a.ravel().tolist())) else a

    def coefficients(self, X, R, gammas, cond_cap, eps, labels):
        """A group's coefficients (k, width) at a sampling instant from its
        states X (k, n), residuals R (k, n1), and one gain and label per
        row.  More than one row takes solve_many; one row, or a stack it
        refuses, goes row by row (solve, then the row's amplitude checks
        before the next row's solve), so the first failure in row order is
        raised as that row alone raises it, a RankDegeneracyError naming
        labels[row] in .agent_index; the last row's amplitudes are left to
        frozen_control."""
        a = self.solve_many(X, R, gammas, cond_cap) if len(X) > 1 else None
        if a is None:
            a = []
            for k, (r, gamma, label) in enumerate(zip(R.tolist(), gammas, labels)):
                if k:
                    frozen_control(self.terms, eps, self.sys.m, a[-1])
                try:
                    a.append(self.solve(X[k], r, gamma, cond_cap))
                except RankDegeneracyError as exc:
                    exc.agent_index = label
                    raise
            a = np.array(a)
        return a

    def held(self, X, R, gammas, cond_cap, eps, labels):
        """A group's frozen control at a sampling instant: frozen_control of
        its coefficients."""
        return frozen_control(self.terms, eps, self.sys.m,
                              self.coefficients(X, R, gammas, cond_cap, eps, labels))


def _steering_rhs(gamma, r):
    """-gamma r in Python floats for a row r of them: a gain that overflows
    it raises NonFiniteError naming gamma, without a numpy warning."""
    gain = -float(gamma)
    rhs = [gain * v for v in r]
    if not all(map(math.isfinite, rhs)):
        raise NonFiniteError(f"steering right-hand side -gamma r is not finite at gamma={-gain!r}")
    return rhs


def _conditioning(F):
    """(smax / smin, smin) of one matrix F as floats, the ratio inf when
    smin = 0; or, for a (k, n1, n1) stack, the (k,) arrays of them.

    The singular values come from _lapack_svd, the gufunc np.linalg.svd
    calls, so every pair is bitwise the wrapper's.  An SVD that does not
    converge gives NaN singular values, so a NaN pair, where the wrapper
    raised LinAlgError; callers hold np.errstate(all="ignore") so that its
    floating-point flag, and a stack's division by a zero smin, stay
    silent.  The gufunc makes the same LAPACK call on each matrix of a
    stack, and numpy's division is the float one, so each pair is bitwise
    that of the matrix alone.
    """
    sv = _lapack_svd(F, signature="d->d")
    if sv.ndim == 1:
        smax, smin = sv[0], sv[-1]
        return (math.inf if smin == 0.0 else float(smax / smin)), smin
    smax, smin = sv[:, 0], sv[:, -1]
    return np.where(smin == 0.0, math.inf, smax / smin), smin


def _solve_steering(F, rhs, cond_cap, x):
    """Solve F a = rhs with a condition-number guard; never forms F^{-1}.

    A NaN condition number (an SVD that did not converge) fails the guard.
    A cond_cap of inf lets an exactly singular F reach _lapack_solve1, the
    gufunc np.linalg.solve calls, whose LU then fails and fills a with NaN.
    Either way the refusal is a RankDegeneracyError, and the one errstate
    keeps both gufuncs' floating-point flags from warning.
    """
    with np.errstate(all="ignore"):
        cond, _ = _conditioning(F)
        if not cond <= cond_cap:
            raise RankDegeneracyError(
                f"extension matrix condition number {cond:.3g} exceeds cap {cond_cap:.3g} "
                f"at state {np.asarray(x).tolist()}",
                state=np.array(x, dtype=float), condition=cond)
        a = _lapack_solve1(F, rhs, signature="dd->d")
    if any(map(math.isnan, a.tolist())):
        raise RankDegeneracyError(
            f"extension matrix is singular at state {np.asarray(x).tolist()}",
            state=np.array(x, dtype=float), condition=cond)
    return a


def _check_target(gains, n1):
    """Refuse a y* whose dimension is not n1, the stabilized block's."""
    if len(gains.y_star) != n1:
        raise InvalidInputError(f"y_star has dimension {len(gains.y_star)}, expected n1 = {n1}")


def steering_coefficients(sys, sel, gains, x):
    """a(x) solving F(x) a = -gamma (y - y*), ordered as (S1 entries, S2 entries)."""
    x = as_state(x, sys.n)
    _check_target(gains, sys.n1)
    check_selection(sys, sel)
    # y - y* in Python floats: the same subtraction as numpy's.
    r = [v - t for v, t in zip(x.tolist(), gains.y_star)]
    return _SteeringPlan(sys, sel).solve(x, r, gains.gamma, gains.cond_cap)


def _sign(v):
    # sign(0) = 0: the amplitude vanishes with the coefficient anyway.
    return math.copysign(1.0, v) if v != 0.0 else 0.0


def frozen_control(terms, epsilon, m, a):
    """The control family t -> u for coefficients a held over an interval.

    u_k(t) = sum_{i in S1} delta_{ki} a_i
           + sum_{(i1,i2) in S2} 2 sqrt(pi kappa |a_{i1i2}| / eps)
             [ delta_{k,i1} cos(2 pi kappa t / eps)
               + delta_{k,i2} sign(a_{i1i2}) sin(2 pi kappa t / eps) ].

    terms are a selection's _ControlTerms (its index pairs, pi kappa and
    2 pi kappa), which a run takes once from its steering plan.  a is one
    coefficient vector (sel.width,) or a block (k, sel.width) of them, one
    per row.  The S1 part and each pair's amplitude and signed amplitude
    per row depend only on a, so they are computed here once, in Python
    float arithmetic, row by row; an amplitude that is not finite (a
    subnormal epsilon or a huge coefficient overflows it) raises
    NonFiniteError naming epsilon, and the coefficient unless epsilon is
    subnormal.
    The returned table(ts) maps a 1-d float64 array of times to the
    time-major (len(ts), m) float64 array of u at each, or (len(ts), k, m)
    for a block: one cos and one sin pass over the times per pair, shared
    by every row, each element taking the scalar operations in the scalar
    order (fmod, /, *, cos, sin, then the two adds), so every entry is
    bitwise the control of that row at that time alone.  The phase is
    reduced with fmod(t, epsilon), so the evaluation is epsilon-periodic
    exactly whenever t and t + epsilon round to the same remainder (always
    true on dyadic grids).
    """
    a = np.asarray(a, dtype=float)
    rows = [a.tolist()] if a.ndim == 1 else a.tolist()
    eps = float(epsilon)
    base = []
    amps = []  # (amplitude, signed amplitude) per row and pair
    for r in rows:
        b = [0.0] * m
        for idx, k in terms.s1:
            b[k] += r[idx]
        base.append(b)
        for idx, i1, i2, pik in terms.pairs:
            ap = r[idx]
            amp = 2.0 * math.sqrt(pik * abs(ap) / eps)
            if not math.isfinite(amp):
                # A subnormal epsilon overflows every amplitude; at a normal
                # one the coefficient is as much the cause.
                at = "" if eps < float_info.min else f"a={ap!r}, "
                raise NonFiniteError(
                    f"control amplitude 2 sqrt(pi kappa |a| / epsilon) of S2 pair ({i1}, {i2}) "
                    f"is not finite at {at}epsilon={eps!r}")
            amps.append((amp, _sign(ap) * amp))
    base = np.array(base)
    # A block broadcasts each pair's (k,) amplitudes against (len(ts), 1)
    # phases.  One row takes float amplitudes and 1-d passes over its
    # column instead, the same bytes: numpy's scalar loops skip the
    # broadcasting set-up, a fixed cost per operation that outweighs a
    # one-row table's arithmetic (the single-system run, disc-sweep).
    one = len(rows) == 1
    if not one:  # per pair, the rows' amplitudes and signed amplitudes
        amps = np.array(amps).reshape(len(rows), -1, 2).transpose(1, 2, 0)
    shape = (*a.shape[:-1], m)
    rates = terms.rates

    def table(ts):
        u = np.empty((len(ts), len(rows), m))
        u[:] = base
        phase = np.fmod(ts, eps) / eps
        cols = u[:, 0] if one else u
        if not one:
            phase = phase[:, None]
        for (k1, k2, rate), (amp, signed_amp) in zip(rates, amps):
            ang = rate * phase
            cols[..., k1] += amp * np.cos(ang)
            cols[..., k2] += signed_amp * np.sin(ang)
        return u.reshape(len(ts), *shape)

    return table


def held_control(sel, epsilon, m, a, t):
    """Evaluate the control family at absolute time t for held coefficients a.

    The frozen control's table at the one time t.  Each input is checked
    here and a bad one raises InvalidInputError naming it: t finite, epsilon
    finite and > 0, m an integer covering every selection index, each kappa
    >= 1, and a finite with sel.width entries.  frozen_control, the sampled
    loop's path, takes them unchecked.
    """
    t = _as_real(t, "t")
    if not math.isfinite(t):
        raise InvalidInputError(f"t must be finite, got {t}")
    epsilon = _as_positive(epsilon, "epsilon")
    m = _within_budget(_as_int(m, "m"), "m")
    for i in (*sel.s1, *(i for pair in sel.s2 for i in pair)):
        if not 1 <= i <= m:
            raise InvalidInputError(f"selection index {i} outside 1..m, m = {m}")
    for k in sel.kappa:
        if k < 1:
            raise InvalidInputError(f"kappa entry {k} must be >= 1")
    a = np.array(_as_reals(a, "a"))
    if a.shape != (sel.width,):
        raise InvalidInputError(f"a has shape {a.shape}, expected (sel.width,) = ({sel.width},)")
    if not np.isfinite(a).all():
        raise InvalidInputError(f"a must be finite, got {a.tolist()}")
    return frozen_control(_ControlTerms(sel), epsilon, m, a)(np.array([t]))[0]


def control_value(sys, sel, gains, t, x_hold):
    """The applied input u(t) with the state argument frozen at x_hold."""
    a = steering_coefficients(sys, sel, gains, x_hold)
    return held_control(sel, gains.epsilon, sys.m, a, t)


def _probe_array(probes, n):
    """probes as one (len(probes), n) finite float64 array, or None.

    One np.asarray and one shape and finiteness test stand for every
    probe's as_state.  None, when any probe would fail it or the
    conversion itself fails, sends the caller to its per-probe pre-pass.
    """
    try:
        arr = np.asarray(probes, dtype=float)
    except Exception:  # the per-probe pre-pass raises it again, in its place
        return None
    if arr.shape != (len(probes), n) or not np.isfinite(arr).all():
        return None
    return arr


def validate_selection(sys, sel, probes, gains):
    """Probe the rank condition over sample states and certify the result.

    Raises SelectionShapeError for structurally malformed selections;
    conditioning failures are reported in the certificate, not raised.
    The probes are checked in one pass (_probe_array); if that fails, a
    pre-pass checks each by as_state and builds its matrix alone, so errors
    keep the per-probe order, and probes that pass go on as the rows.  The
    rows' matrices (the plan's matrices) fill one reused stack of at most
    PROBE_CHUNK matrices and one block_rows block of entries (but at least
    one matrix).  Each full stack, then the rest, takes one _conditioning
    call and one max of its ratios and of its 1 / smin, which is the per-probe
    loop's result to the bit.  A zero or NaN (not converged) smallest
    singular value fails the rank and makes both inf.
    """
    check_selection(sys, sel)
    probes = _as_list(probes, "probes")
    if len(probes) == 0:
        raise InvalidInputError("at least one probe state is required")
    worst = alpha = 0.0
    ok = True
    plan = _SteeringPlan(sys, sel)
    rows = _probe_array(probes, sys.n)
    if rows is None:
        rows = []
        for x in probes:
            rows.append(as_state(x, sys.n))
            plan.matrix(rows[-1])
        rows = np.array(rows)
    chunk = min(PROBE_CHUNK, block_rows(sys.n1 * sys.n1))
    stack = np.empty((chunk, sys.n1, sys.n1))
    for start in range(0, len(rows), chunk):
        block = rows[start:start + chunk]
        F = plan.matrices(block, out=stack[:len(block)])
        with np.errstate(all="ignore"):
            cond, smin = _conditioning(F)
            if (smin > 0.0).all():
                # max over the probes in order skips a NaN ratio, as fmax does.
                worst = max(worst, float(np.fmax.reduce(cond)))
                alpha = max(alpha, float((1.0 / smin).max()))
            else:
                ok = False
                worst = alpha = math.inf
    if worst > gains.cond_cap:
        ok = False
    return RankCertificate(
        sampled_states=tuple(map(tuple, rows.tolist())), worst_condition=worst,
        rank_ok=ok, alpha_estimate=alpha, cond_cap=gains.cond_cap)
