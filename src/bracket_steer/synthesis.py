"""Extension matrix, steering coefficients, and the periodic control family.

The control drives the y-block toward y* by realizing the average motion
-gamma (y - y*): constant inputs along the fields selected in S1, plus
high-frequency cos/sin pairs whose second-order interaction moves the state
along the selected Lie brackets in S2.

A selection's rules are written once: check_selection's width, and the
rest in _control_terms, one memo per (selection, m) of the control
family's constants.  Every extension matrix and steering solve goes
through one plan per (system, selection) pair, _SteeringPlan, which _plan
checks, builds once and keeps in a memo of at most PLAN_CACHE_SIZE pairs,
the least recently used dropped first.  For the built-in unicycle and
rolling disc, chosen by the identity of their exact fields and Jacobians,
the plan picks the selection's entries from library's fused columns once:
one matrix takes a cos, a sin and one np.array, and a stack one np.cos and
one np.sin, each bitwise the generic construction.  Every other registered
system takes the definition: one model field per S1 column and one model
bracket per S2 column, row by row; no benchmark workload reaches it.
validate_selection checks its probes in one pass (or per probe, in order)
and certifies them by one stacked build and SVD per model.block_rows block
of matrices (1024 of the disc's 2x2, 455 of the unicycle's 3x3), so the
stack's memory does not grow with the probe count;
each steering solve keeps one SVD for its condition guard and one LU
solve, and a stack of solves (solve_many) one of each.  Both are the
LAPACK gufuncs that np.linalg.svd and np.linalg.solve call, without those
wrappers: the same bytes, but a failure comes back as NaN, never as
LinAlgError, and the guards below test for it.  At each sampling instant
every run steers by one step per group of rows (a single system is one
row), the plan's held.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from sys import float_info
from typing import Optional

import numpy as np
from numpy.linalg._umath_linalg import solve1 as _lapack_solve1
from numpy.linalg._umath_linalg import svd as _lapack_svd

from .errors import InvalidInputError, NonFiniteError, RankDegeneracyError, SelectionShapeError
from .library import _FUSED_KEYS, _fused_columns
from .model import (_as_count, _as_finite_reals, _as_int, _as_list, _as_positive, _as_real,
                    _bracket, _field, _within_budget, as_state, block_rows)
# Not called here: perfbench/tracer.py wraps synthesis.lie_bracket by name.
from .model import lie_bracket  # noqa: F401

TWO_PI = 2.0 * math.pi


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
    """Raise SelectionShapeError naming the violated invariant: width, then _control_terms's."""
    if sel.width != sys.n1:
        raise SelectionShapeError(
            f"selection shape invariant violated: |S1| + |S2| = {sel.width} "
            f"must equal n1 = {sys.n1}")
    _control_terms(sel, sys.m)


@dataclass(frozen=True)
class ControllerGains:
    """Sampling period epsilon, gain gamma, target y*, and condition cap,
    each stored as the float (y*, the tuple of floats) its gate returns."""

    epsilon: float
    gamma: float
    y_star: tuple
    cond_cap: float = 1e6

    def __post_init__(self):
        for key in ("epsilon", "gamma"):
            object.__setattr__(self, key, _as_positive(getattr(self, key), key))
        cond_cap = _as_real(self.cond_cap, "cond_cap")
        if not cond_cap > 1:  # inf is a cap that never refuses
            raise InvalidInputError(f"cond_cap must be > 1, got {self.cond_cap}")
        object.__setattr__(self, "cond_cap", cond_cap)
        object.__setattr__(self, "y_star", _as_finite_reals(self.y_star, "y_star"))

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
    plan = _plan(sys, sel)
    return plan.matrix(as_state(x, sys.n))


class _ControlTerms:
    """A selection's constants in its control family for m inputs, for
    frozen_control: m, each S1 entry's (coefficient index, 0-based input),
    each S2 pair's (coefficient index, i1, i2, pi kappa) for its amplitude
    and its (0-based i1, 0-based i2, 2 pi kappa) for its table."""

    def __init__(self, sel, m):
        self.m = m
        self.s1 = [(idx, i - 1) for idx, i in enumerate(sel.s1)]
        off = len(sel.s1)
        self.pairs = [(off + p, i1, i2, math.pi * float(kap))
                      for p, ((i1, i2), kap) in enumerate(zip(sel.s2, sel.kappa))]
        self.rates = [(i1 - 1, i2 - 1, TWO_PI * float(kap))
                      for (i1, i2), kap in zip(sel.s2, sel.kappa)]


# Entries each memo (_plan, _control_terms) keeps, the least recently used
# dropped first.  A plan holds its system, and so its functions, alive, so
# the bound caps the memo's memory; a workload steers a few pairs, and past
# the bound a pair is checked and built again, the same.
PLAN_CACHE_SIZE = 64


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _control_terms(sel, m):
    """The _ControlTerms of sel for m inputs, memoized as _plan is, after the
    rules that need no system, in order: S1 indices in 1..m; per S2 pair,
    i1 != i2, then both in 1..m; every kappa >= 1; distinct kappas.  A
    failing pair raises SelectionShapeError on every call and is never kept."""
    for i in sel.s1:
        if not 1 <= i <= m:
            raise SelectionShapeError(f"S1 index invariant violated: {i} outside 1..{m}")
    for (i1, i2) in sel.s2:
        if i1 == i2:
            raise SelectionShapeError(
                f"bracket pair invariant violated: pair ({i1}, {i2}) has i1 = i2, "
                "and the bracket of a field with itself vanishes")
        if not (1 <= i1 <= m and 1 <= i2 <= m):
            raise SelectionShapeError(
                f"S2 index invariant violated: pair ({i1}, {i2}) outside 1..{m}")
    for k in sel.kappa:
        if k < 1:
            raise SelectionShapeError(f"kappa positivity invariant violated: {k} < 1")
    if len(set(sel.kappa)) != len(sel.kappa):
        raise SelectionShapeError(
            f"kappa distinctness invariant violated: duplicate values in {sel.kappa}")
    return _ControlTerms(sel, m)


class _SteeringPlan:
    """The steering layer of one (system, selection) pair that
    check_selection passed: its extension matrices and steering solves.

    Only _plan builds it, once per pair while its memo keeps the pair, and
    every public call, validate_selection, run and formation group on the
    pair shares it; nothing in it changes after construction.  It takes
    its control constants (terms) from _control_terms, and resolves once
    the system's fused columns (library's rule for exactly the built-in
    unicycle's and disc's fields and Jacobians, chosen by their identity)
    and the entries of the rule's 3 x 4 matrix that the selection picks.
    Every other system takes the definition: model's _field per S1 column
    and _bracket, J_i2 f_i1 - J_i1 f_i2, per S2 pair.  Every state it is
    given has passed as_state, so no finite check is made here.
    """

    def __init__(self, sys, sel):
        self.sys = sys
        self.sel = sel
        self.terms = _control_terms(sel, sys.m)
        self.columns = _fused_columns(sys)
        if self.columns is not None:
            # F's entries, row-major: row i picks the selection's columns
            # from row i of the rule's 3 x 4 matrix (rows past n1 are the
            # z-block's).
            cols = [_FUSED_KEYS[key] for key in (*sel.s1, *sel.s2)]
            self.flat = [i + c for i in range(0, 4 * sys.n1, 4) for c in cols]
            self.take = itemgetter(*self.flat)

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
                    frozen_control(self.terms, eps, a[-1])
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
        return frozen_control(self.terms, eps,
                              self.coefficients(X, R, gammas, cond_cap, eps, labels))


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _plan(sys, sel):
    """The steering plan of (sys, sel), after check_selection, memoized.

    Sound because both keys are immutable.  A PartitionedSystem is frozen
    and hashes by identity (eq=False), and the memo holds it, so its id is
    not reused; a BracketSelection is frozen and holds tuples of ints, so
    equal selections share a plan; and a plan picks its fused columns by
    the identity of its system's functions, which a frozen system keeps.
    A pair that fails the check raises on every call and is never kept
    (lru_cache stores no exception).  A plan built before library's fused
    table changes keeps its columns until _plan.cache_clear().
    """
    check_selection(sys, sel)
    return _SteeringPlan(sys, sel)


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
    plan = _plan(sys, sel)
    # y - y* in Python floats: the same subtraction as numpy's.
    r = [v - t for v, t in zip(x.tolist(), gains.y_star)]
    return plan.solve(x, r, gains.gamma, gains.cond_cap)


def _sign(v):
    # sign(0) = 0: the amplitude vanishes with the coefficient anyway.
    return math.copysign(1.0, v) if v != 0.0 else 0.0


def frozen_control(terms, epsilon, a):
    """The control family t -> u for coefficients a held over an interval.

    u_k(t) = sum_{i in S1} delta_{ki} a_i
           + sum_{(i1,i2) in S2} 2 sqrt(pi kappa |a_{i1i2}| / eps)
             [ delta_{k,i1} cos(2 pi kappa t / eps)
               + delta_{k,i2} sign(a_{i1i2}) sin(2 pi kappa t / eps) ].

    terms are _control_terms(sel, m), which a run takes from its plan.  a
    is one coefficient vector (sel.width,) or a block (k, sel.width) of
    them, one per row.  The S1 part and each pair's amplitude and signed
    amplitude per row depend only on a, so they are computed here once, in
    Python float arithmetic, row by row; an amplitude that is not finite (a
    subnormal epsilon or a huge coefficient overflows it) raises
    NonFiniteError naming epsilon, and the coefficient unless epsilon is subnormal.
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
    m = terms.m
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
    here, in order, and a bad one raises InvalidInputError naming it: t
    finite, epsilon finite and > 0, m a count within the work budget, the
    selection by _control_terms, and a finite a with sel.width entries.
    frozen_control, the sampled loop's path, takes them unchecked.
    """
    t = _as_real(t, "t")
    if not math.isfinite(t):
        raise InvalidInputError(f"t must be finite, got {t}")
    epsilon = _as_positive(epsilon, "epsilon")
    terms = _control_terms(sel, _within_budget(_as_count(m, "m"), "m"))
    a = np.array(_as_finite_reals(a, "a"))
    if a.shape != (sel.width,):
        raise InvalidInputError(f"a has shape {a.shape}, expected (sel.width,) = ({sel.width},)")
    return frozen_control(terms, epsilon, a)(np.array([t]))[0]


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
    rows' matrices (the plan's matrices) fill one reused stack of
    block_rows(n1 * n1) matrices: one block of model.BLOCK_VALUES entries,
    or one matrix if it is larger.  Each full stack, then the rest, takes
    one _conditioning call and one max of its ratios and of its 1 / smin,
    which is the per-probe loop's result to the bit.  A zero or NaN (not
    converged) smallest singular value fails the rank and makes both inf.
    """
    plan = _plan(sys, sel)
    probes = _as_list(probes, "probes")
    if len(probes) == 0:
        raise InvalidInputError("at least one probe state is required")
    worst = alpha = 0.0
    ok = True
    rows = _probe_array(probes, sys.n)
    if rows is None:
        rows = []
        for x in probes:
            rows.append(as_state(x, sys.n))
            plan.matrix(rows[-1])
        rows = np.array(rows)
    chunk = block_rows(sys.n1 * sys.n1)
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
