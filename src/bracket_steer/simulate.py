"""Sample-and-hold closed-loop integration and decay diagnostics.

The closed loop is integrated as a sampled solution: on each interval
[tau_j, tau_j + epsilon) the feedback's state argument is frozen at
x(tau_j) while its time argument advances continuously.  One private
driver, _run_sampled, owns that clock and the stacked rows for every
caller: the interval grid and its partial tail, the sub-step and boundary
times, each row's step and divergence guard, resampling at each sampling
instant, handing each table block once to the run's consumers (the
recorder, _Recorder, which keeps the record stride and the horizon's end
point, and any fold of the run's path), and the partial trajectory
attached to a failure.  It runs one system
(simulate_pi_epsilon, one row) or the formation's rows, in groups of
consecutive rows that share their functions: the leader, then each run
of followers that share one system and selection.  Each row is advanced by
its own fixed-step RK4 sub-step in the operation order of the float64
array form, so results are bitwise those of arrays.

At each sampling instant each steered group, a single system's row too,
takes one steering step (synthesis._SteeringPlan.held), whose held
controls are evaluated once per table block, as one time-major table
(len(ts), k, m) of its k rows' controls over every time the block uses
(synthesis.frozen_control), and each row's sub-step (t, x, h, u0, uh, u1)
takes its controls at the start, midpoint and end from its rows of that
table.  The leader is an open-loop row: no control, no table.  The clock,
every time the sub-steps use, is tabulated a chunk of consecutive table
blocks at a time, each block's times a slice of the chunk's.  The generic
sub-step is _rk4_step on the stage (t, x, u) -> f0(t, x) + sum_k u_k f_k(x)
(_row_stage), on the row as a list of floats.  Fields receive their row as
a 1-d float64 ndarray and may return any sequence of numbers, each entry
taken as a float64.  Groups of the built-in unicycle and rolling disc, and
the figure-eight leader, skip that contract: their exact function objects
select a block kernel in library (_row_integrators), which advances all
the group's rows over a whole table block in one numpy pass and repeats
the generic sub-steps' operations bit for bit on each row.  The driver
does the same for every table block: advance it, hand it to each consumer
in one call, and raise the failure handed back.  When every group has a
kernel, the open-loop rows advance a whole chunk in one kernel call, and a
block is their slice, one kernel call per steered group and one vector
guard (_advance_block); otherwise, or when that block is not finite and well
inside the guard's cap, it is the generic sub-steps of all rows together,
guarded after each (_generic_block), so a failure is raised as they raise
it.  Every other system or leader field, and a copy with any function
swapped, puts the whole run on the generic sub-steps.

epsilon_sweep runs on this clock once for a whole sweep when that is
bitwise the per-epsilon runs: the system is driftless (library._zero_field,
by identity), every entry's period is its first's over a power of two and
divides its horizon into whole intervals, and the values stay in the range
where a power-of-two rescaling of time is exact.  A driftless loop is
invariant under t -> t / c with (gamma, epsilon) -> (c gamma, epsilon / c),
so each entry is a row at the first entry's period with its gain scaled
down; the rows retire one by one at their own interval counts, every table
keeping the rows left, and only sampling instants are recorded
(_one_clock_sweep).  Any other sweep, or one whose stacked run raises or
leaves that range, runs one simulate_pi_epsilon per entry.
"""

import math
import warnings
from array import array
from dataclasses import asdict, dataclass, replace
from functools import partial
from itertools import accumulate, chain
from sys import maxsize
from typing import Optional

import numpy as np

from . import library
from .errors import DivergenceError, InvalidInputError, RankDegeneracyError
from .model import (_as_count, _as_list, _as_positive, _as_real, _as_reals, _count,
                    _within_budget, as_state, block_rows)
from .synthesis import _check_target, _plan, frozen_control
# Not called here: perfbench/tracer.py wraps simulate.held_control and
# simulate.steering_coefficients by name.
from .synthesis import held_control, steering_coefficients  # noqa: F401

DIVERGENCE_NORM_CAP = 1e9
# The guard compares squared norms: sqrt is correctly rounded and
# sqrt(1e18) = 1e9 exactly, so x.x <= cap**2 iff ||x|| <= cap.
DIVERGENCE_SQNORM_CAP = DIVERGENCE_NORM_CAP * DIVERGENCE_NORM_CAP
# Every row's norm is at most the stacked state's, math.hypot is within one
# ulp of that and x.x within a few ulp of the squared norm, so a stacked
# state whose hypot is under this passes each row's exact test; anything
# else (near the cap, NaN, inf, an overflowing x.x) takes the exact per-row
# test, so the decision is the same.
_GUARD_PASS_NORM = DIVERGENCE_NORM_CAP * (1 - 1e-12)
# Sub-steps per control table: a table holds 3 entries per sub-step and row,
# so long intervals are tabulated in blocks of this many sub-steps.
TABLE_SUBSTEPS = 256
# Snap tolerance for t_final/epsilon: absorbs quotients like 2/0.2 = 9.999...
GRID_SNAP = 1e-9


@dataclass(frozen=True)
class SimConfig:
    """Horizon and sub-stepping; None fields resolve to defaults at run time.

    t_final defaults to 50 * epsilon * ceil(1 / (gamma * epsilon));
    substeps_per_period defaults to 40 * kappa_max.
    """

    t_final: Optional[float] = None
    substeps_per_period: Optional[int] = None
    record_stride: int = 1

    def __post_init__(self):
        if self.t_final is not None:
            object.__setattr__(self, "t_final", _as_positive(self.t_final, "t_final"))
        if self.substeps_per_period is not None:
            object.__setattr__(self, "substeps_per_period",
                               _as_count(self.substeps_per_period, "substeps_per_period"))
        object.__setattr__(self, "record_stride", _as_count(self.record_stride, "record_stride"))


@dataclass(frozen=True, eq=False)
class SampledTrajectory:
    """A sampled closed-loop solution.

    sample_times[j] = j * epsilon holds the sampling instants and
    sample_states the states there; the dense_* arrays hold the recorded
    sub-step grid.  dense_controls[i] is exactly
    held_control(..., a(sample_states[interval_index[i]]), dense_times[i]):
    the state argument frozen at the enclosing interval's sample, the time
    argument live.  y_error is the recorded stabilization error per dense
    point.
    """

    epsilon: float
    n1: int
    sample_times: np.ndarray
    sample_states: np.ndarray
    dense_times: np.ndarray
    dense_states: np.ndarray
    dense_controls: np.ndarray
    y_error: np.ndarray
    interval_index: np.ndarray


@dataclass(frozen=True)
class DecayReport:
    """Empirical convergence summary of a sampled trajectory.

    t1 is the first sampling instant after which the error stays at or
    below rho for the rest of the horizon (inf when that never happens);
    (zeta_fit, lambda_fit) are the least-squares fit of
    error ~ zeta * exp(-lambda t) over samples with error > rho, defined
    only when at least three samples qualify and the fit is numerically
    defined (None otherwise).
    """

    rho: float
    t1: float
    lambda_fit: Optional[float]
    zeta_fit: Optional[float]
    monotone_fraction: float

    def to_dict(self):
        return asdict(self)


def default_t_final(gains):
    ge = gains.gamma * gains.epsilon
    if ge == 0.0 or not math.isfinite(1.0 / ge):
        raise InvalidInputError(f"1 / (gamma * epsilon) is not finite, gamma * epsilon = {ge}")
    return 50.0 * gains.epsilon * math.ceil(1.0 / ge)


def default_substeps(kappa_max):
    return 40 * _as_count(kappa_max, "kappa_max")


def resolve_config(cfg, gains, kappa_max):
    """(t_final, substeps per period) with the defaulted fields filled in."""
    nsub = cfg.substeps_per_period
    if nsub is None:
        nsub = default_substeps(kappa_max)
    t_final = cfg.t_final if cfg.t_final is not None else default_t_final(gains)
    return t_final, nsub


def interval_grid(t_final, epsilon):
    """Number of whole sampling intervals and the partial-tail length."""
    if not math.isfinite(t_final / epsilon):
        raise InvalidInputError(f"t_final / epsilon is not finite: {t_final} / {epsilon}")
    n_int = int(math.floor(t_final / epsilon + GRID_SNAP))
    tail = t_final - n_int * epsilon
    if tail <= GRID_SNAP * epsilon:
        tail = 0.0
    return n_int, tail


def _rk4_step(stage, t, x, h, u0, uh, u1):
    """One row's RK4 sub-step from t; u0, uh and u1 are its held control at
    t, t + h/2 and t + h."""
    hh = 0.5 * h
    th = t + hh
    k1 = stage(t, x, u0)
    k2 = stage(th, [xi + hh * k for xi, k in zip(x, k1)], uh)
    k3 = stage(th, [xi + hh * k for xi, k in zip(x, k2)], uh)
    k4 = stage(t + h, [xi + h * k for xi, k in zip(x, k3)], u1)
    h6 = h / 6.0
    # strict: a field of the wrong length fails here instead of truncating.
    return [xi + h6 * (((a + 2.0 * b) + 2.0 * c) + d)
            for xi, a, b, c, d in zip(x, k1, k2, k3, k4, strict=True)]


def _due(n, done, last, start=0, stride=1):
    """The boundaries of a table block of n sub-steps, done of them passed,
    taken every stride from start: boundary i is the block's start at
    i = 0, else the state after its i-th sub-step.  They run to the last
    sub-step done; the block's end, i = n, is the next block's start, so
    it is taken only when last, the run's last block."""
    return range(start, done + (done < n or last), stride)


class _Recorder:
    """Flat float64 buffers of the dense grid and sampling instants of one run.

    A consumer of _run_sampled's blocks.  record() is handed each table
    block of the run once, in order, and appends its due dense points: t,
    the rows' states X (n_rows, p), each steered row's held control at t
    from the group tables, and the interval index.  A dense point is
    recorded at t = 0, every stride (cfg.record_stride) sub-steps and at
    the end of the horizon; with stride None (the one-clock sweep) only
    sampling instants are.  sample() appends a sampling instant and the
    rows' states there; build() hands the recorder to the caller's build,
    which wraps each buffer with np.frombuffer, no copy, and reshapes it
    into the caller's trajectory type.  The buffers so become the
    trajectory: nothing is appended after build, which either ends the run
    or makes the failure's .partial (and an array.array that exports its
    buffer refuses to grow).

    With a drain, the recorder holds at most drain.rows dense points: each
    time it holds that many, and at the end of the horizon, it hands them
    to drain as the build of a recorder holding only them, and keeps none.
    Its own build then holds the sampling instants alone.
    """

    def __init__(self, build, stride, drain=None):
        self._build = build
        self._stride = stride
        self._drain = drain
        self._rows = maxsize if drain is None else drain.rows
        self._substeps = 0  # handed over so far
        self.times = array("d")
        self.states = array("d")
        self.controls = array("d")
        self.intervals = array("q")
        self.sample_times = array("d")
        self.sample_states = array("d")

    def record(self, ts, X, states, j, tables, last):
        """Append the due boundaries of a table block of interval j: its
        times ts, rows' start X, stacked states (done, width) after each
        sub-step done and group tables.  Boundary i is X at i = 0, else
        states[i - 1], at ts[3 i] with controls tab[3 i], and is due when
        the run's sub-step count there is a multiple of the stride (_due).
        The end of the horizon is appended when last, due or not; a failed
        block appends its due boundaries up to its last sub-step done."""
        if self._stride is None:
            return
        n, done = len(ts) // 3, len(states)
        due = _due(n, done, last, -self._substeps % self._stride, self._stride)
        self._substeps += n
        # As strided slices, each filling the drain's block at most; then,
        # for the last block, its end when not due.
        for rows in (due, range(n, n + (last and done == n and n not in due))):
            while rows:
                room = self._rows - len(self.times)
                self._append(rows[:room], ts, X, states, j, tables)
                rows = rows[room:]
                if len(self.times) == self._rows:
                    self._flush()
        if last and self.times and self._drain is not None:
            self._flush()

    def _append(self, rows, ts, X, states, j, tables):
        at = slice(3 * rows.start, 3 * rows.stop, 3 * rows.step)
        self.times.frombytes(ts[at].tobytes())
        if rows.start == 0:
            self.states.frombytes(X.tobytes())
        # Past the start, rows' first boundary is rows.step when it holds the start.
        self.states.frombytes(
            states[(rows.start or rows.step) - 1:rows.stop - 1:rows.step].tobytes())
        if tables:
            parts = [tab[at].reshape(len(rows), -1) for tab in tables]
            block = np.concatenate(parts, axis=1) if parts[1:] else parts[0]
            self.controls.frombytes(block.tobytes())
        self.intervals.extend([j] * len(rows))

    def _flush(self):
        """Hand the dense points held to the drain, as the build of a
        recorder that holds them and no sampling instant, and keep none."""
        block = _Recorder(self._build, None)
        for name in ("times", "states", "controls", "intervals"):
            empty = getattr(block, name)
            setattr(block, name, getattr(self, name))
            setattr(self, name, empty)
        self._drain(block.build())

    def sample(self, t, X):
        self.sample_times.append(t)
        self.sample_states.frombytes(X.tobytes())

    def build(self):
        # A failed run's partial holds x0, which no guard checked: a norm
        # past the float range there is inf, not a warning.
        with np.errstate(over="ignore"):
            return self._build(self)


def _error_norms(rows, target):
    """np.linalg.norm(rows - target, axis=1), a block of BLOCK_VALUES values
    of rows at a time: each row's norm is the same, bit for bit, and the
    temporaries are one block's."""
    norms = np.empty(len(rows))
    step = block_rows(rows.shape[1])
    for lo in range(0, len(rows), step):
        norms[lo:lo + step] = np.linalg.norm(rows[lo:lo + step] - target, axis=1)
    return norms


def _guard_state(x, t, what):
    # row.dot(row) is the sum np.linalg.norm takes the root of; NaN and inf
    # fail the comparison, and an overflow to inf is a failure, not a warning.
    row = np.array(x, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        if row.dot(row) <= DIVERGENCE_SQNORM_CAP:
            return
    raise DivergenceError(
        f"{what} diverged at t={t:.6g} (non-finite or norm > {DIVERGENCE_NORM_CAP:g})",
        t=t, state=row)


def _guard_rows(xs, t, names):
    """Guard every row: one norm test of the stacked state passes them all;
    only when it fails is each row, in order, given the exact _guard_state."""
    # The list, not chain(*xs): the call's argument tuple is then built at
    # its size, not resized, so no fresh tuple is left on the free list.
    if not math.hypot(*[v for x in xs for v in x]) < _GUARD_PASS_NORM:
        for x, name in zip(xs, names):
            _guard_state(x, t, name)


def _check_field_length(value, n, what):
    """Refuse a field value at x0 whose length is not n, before the first solve,
    so it exits as bad input instead of failing the kernel's strict zip."""
    if len(value) != n:
        raise InvalidInputError(
            f"{what} returned length {len(value)} at x0, expected shape ({n},)")


def _check_field_lengths(sys, x0, who=""):
    """x0's domain check, then _check_field_length for each field (0 the drift)."""
    if sys.domain_check is not None and not sys.domain_check(x0):
        raise InvalidInputError(f"{who}x0 lies outside the system's declared domain")
    for k in range(sys.m + 1):
        value = sys.drift(0.0, x0) if k == 0 else sys.control_fields[k - 1](x0)
        _check_field_length(value, sys.n, f"{who}field {k}")


def _row_stage(drift, fields):
    """A row's generic stage (t, x, u) -> floats f0(t, x) + sum_k u_k f_k(x)."""

    def stage(t, x, u):
        state = np.array(x, dtype=float)
        # float() takes every entry to float64, as np.asarray(f, float) did:
        # a float32 field must not drop the run to single precision.
        out = list(map(float, drift(t, state)))
        for uk, fk in zip(u, fields):
            if uk != 0.0:
                out = [o + uk * float(v) for o, v in zip(out, fk(state), strict=True)]
        return out

    return stage


def _row_integrators(groups):
    """The one lookup of a run's integrators, per group of rows that share
    (drift, fields): the group's generic RK4 sub-step of one row
    (t, x, h, u0, uh, u1) -> floats (_rk4_step on _row_stage), and the
    group's whole-block kernel in library when every group has one, else
    None.

    Exactly the built-in unicycle's, rolling disc's and figure-eight
    leader's functions select a block kernel; any other functions, in any
    group, leave the whole run on the generic sub-steps.
    """
    steps = [partial(_rk4_step, _row_stage(drift, fields)) for _, drift, fields in groups]
    blocks = [library._BLOCK_STEPS.get(library._identity_key(drift, *fields))
              for _, drift, fields in groups]
    return steps, (blocks if all(blocks) else None)


def _advance_block(blocks, Xs, h, ts, tables, ahead=None):
    """The stacked states (n, width) after each of a table block's n
    sub-steps, from one block kernel call per group on its rows Xs[g]
    (k, p) and its table (len(ts), k, m), after ahead, the leading
    open-loop rows' states (n, columns) over the block when they were
    advanced ahead, or None unless every entry is finite and
    max |v| * sqrt(width) < _GUARD_PASS_NORM.  That bounds every
    sub-step's stacked norm well inside the cap, so no row would fail its
    exact guard; a block that fails the test is redone by the generic
    sub-steps, so any failure is raised as the generic path raises it."""
    with np.errstate(all="ignore"):
        parts = [block(X, h, ts, tab).reshape(len(ts) // 3, -1)
                 for block, X, tab in zip(blocks, Xs, tables)]
        states = np.concatenate(parts if ahead is None else [ahead, *parts], axis=1)
        if np.abs(states).max() * math.sqrt(states.shape[1]) < _GUARD_PASS_NORM:
            return states
    return None


def _generic_block(steps, Xs, h, ts, tables, names):
    """A table block by every row's generic sub-step (its group's, on its
    own rows of the group's table, or with no controls where the table is
    None), all rows guarded (_guard_rows) after each: the stacked states
    (k, width) after each sub-step that passed, and None, or the
    DivergenceError of the first sub-step that failed.  An exception a
    field raises propagates."""
    width = sum(X.size for X in Xs)
    tl = ts.tolist()
    free = [()] * len(tl)
    rows = [(step, free if tab is None else tab[:, r].tolist())
            for step, X, tab in zip(steps, Xs, tables) for r in range(len(X))]
    xs = [x for X in Xs for x in X.tolist()]
    done, error = [], None
    for c in range(0, len(tl) - 1, 3):  # a sub-step's start in the tables
        xs = [step(tl[c], x, h, tab[c], tab[c + 1], tab[c + 2])
              for (step, tab), x in zip(rows, xs)]
        try:
            _guard_rows(xs, tl[c + 3], names)
        except DivergenceError as exc:
            error = exc
            break
        done.append(xs)
    return np.array(done, dtype=float).reshape(len(done), width), error


def _warn_substeps(nsub, kappa_max):
    """A run's one RuntimeWarning when nsub gives the fastest oscillation
    fewer than 20 sub-steps."""
    if nsub < 20 * kappa_max:
        warnings.warn(
            f"substeps_per_period={nsub} resolves the fastest oscillation "
            f"(kappa={kappa_max}) with fewer than 20 sub-steps", RuntimeWarning)


def _plan_run(cfg, gains, kappa_max, n_rows):
    """(t_final, nsub, n_int, tail, n_intervals) of a run, refused if empty or over budget."""
    eps = gains.epsilon
    t_final, nsub = resolve_config(cfg, gains, kappa_max)
    n_int, tail = interval_grid(t_final, eps)
    n_intervals = n_int + (1 if tail > 0.0 else 0)
    if n_intervals == 0:
        raise InvalidInputError(f"t_final={t_final} is too short for epsilon={eps}")
    _within_budget(n_intervals * nsub * n_rows, f"{_count(n_intervals)} intervals x "
                   f"{_count(nsub)} sub-steps x {_count(n_rows)} rows")
    return t_final, nsub, n_int, tail, n_intervals


def _run_sampled(cfg, gains, kappa_max, x0, groups, steer, consumers, ends=None):
    """Integrate a sampled closed loop from x0; the package's one clock.

    x0 is (n_rows, p), its rows in group order, and groups[g] =
    (names, drift, fields) describes the consecutive rows, one per name,
    that share the functions drift and fields.  Groups with no control
    fields are open-loop rows (a formation's leader) and lead the stack.
    At each sampling instant tau_j = j * epsilon, steer(X), X the rows'
    states (n_rows, p), returns one frozen control per steered group (each
    group after the open-loop ones), a function from an array of times to
    the time-major table (len(ts), k, m) of each of its k rows' u at each
    (synthesis.frozen_control).  It is evaluated once per table block of
    an interval (TABLE_SUBSTEPS sub-steps, or the whole of a shorter
    interval) at every time the block uses: each sub-step's start
    tau_j + (i - 1) h, midpoint and end, and the block's end.  Each group's
    integrators are looked up once per run (_row_integrators: _rk4_step on
    the stage drift + sum_k u_k fields[k], and the built-ins' block
    kernels).  Over [tau_j, tau_j + epsilon) each row advances by its own
    sub-step, nsub per interval, taking u at the sub-step's start, midpoint
    and end from its table, while the time argument runs on; one
    RuntimeWarning per run says when nsub gives kappa_max fewer than 20
    sub-steps.  A final partial interval ends exactly at t_final.

    The clock is tabulated a chunk of consecutive table blocks at a time,
    in one pass: the start j epsilon + i h, midpoint and end of every
    sub-step, and the chunk's end, j epsilon + hi h inside an interval,
    else (j + 1) epsilon or t_final.  Each block's times are a contiguous
    slice of the chunk's, ending at the next block's start, the same
    value.  A chunk holds the whole intervals' blocks, or the tail's, or
    the end of a horizon without a tail (an interval of length 0, h = 0,
    a chunk of that one time), as many as keep its largest arrays (the
    3 times per sub-step, and the open-loop rows' 4 stage rates per
    sub-step and column) within one model.block_rows block, and one block
    at least.  When every group has a kernel, the open-loop groups advance
    the whole chunk in one kernel call each, and each block takes its
    slice of those states.

    Every interval, and the end of a horizon without a tail, begins with
    one step: sample, steer and tabulate.  Each table block is then
    advanced whole, by one block kernel call per steered group beside the
    open-loop rows' slice (_advance_block) or, when a group has no kernel,
    the kernels' vector guard fails or the block has no sub-steps (the end
    of a horizon without a tail), by _generic_block from the block's start
    for every row: every row's generic sub-step, after each of which one
    norm test of the stacked state passes every row and only when it fails
    is each row guarded, under its name, by the exact _guard_state
    (_guard_rows).  The block is handed once to each of the run's
    consumers, in order, as record(ts, X, states, j, tables, last), and
    then a failure it handed back is raised, so states computed ahead past
    it are never seen; each sampling instant is handed to them as
    sample(t, X) before its steering step.  The consumers are the run's
    only output: a _Recorder, which keeps the record policy, and any folds
    (formation._SpeedFold).  Returns the first consumer's build(); a
    DivergenceError or RankDegeneracyError leaves with its build() of the
    run so far attached as .partial.

    ends, given for one group whose rows are separate runs of one clock
    with no tail, holds each row's own interval count, non-increasing in
    row order, the first the run's: row k takes its steering step at
    tau_{ends[k]} and then leaves, so the stack shrinks to its first rows.
    Such a run records its sampling instants only (a _Recorder of stride
    None), and its caller budgets and warns for each row's run (the plan
    here checks the first row).
    """
    cfg = SimConfig() if cfg is None else cfg
    eps = gains.epsilon
    dense = ends is None
    t_final, nsub, n_int, tail, n_intervals = _plan_run(cfg, gains, kappa_max,
                                                        len(x0) if dense else 1)
    if dense:
        _warn_substeps(nsub, kappa_max)
    # The rows left after each instant at which some retire.
    retire = {} if dense else {e: sum(f > e for f in ends) for e in ends if e < n_int}
    names = [name for group, _, _ in groups for name in group]
    p = x0.shape[1]
    bounds = [0, *accumulate(len(group) for group, _, _ in groups)]
    steps, blocks = _row_integrators(groups)
    n_open = sum(not fields for _, _, fields in groups)
    per_interval = -(-nsub // TABLE_SUBSTEPS)  # table blocks per interval
    per_chunk = block_rows(max(3, 4 * bounds[n_open] * p) * min(TABLE_SUBSTEPS, nsub))

    def chunks():
        """The run's table blocks (j, lo, n), interval j's sub-steps
        lo + 1 .. lo + n, in chunks of per_chunk blocks at most that share
        one sub-step length: the whole intervals', the tail's, and the end
        of a tail-less horizon, (n_int, 0, 0), alone."""
        whole = n_int * per_interval
        for first, stop in ((0, whole), (whole, n_intervals * per_interval)):
            for c in range(first, stop, per_chunk):
                yield [(b // per_interval, lo, min(TABLE_SUBSTEPS, nsub - lo))
                       for b in range(c, min(c + per_chunk, stop))
                       for lo in [b % per_interval * TABLE_SUBSTEPS]]
        if n_intervals == n_int:
            yield [(n_int, 0, 0)]

    def clock(chunk):
        """The chunk's sub-step length and times, in one pass: every
        sub-step's start j eps + i h, midpoint and end, then the chunk's end
        in the grid expression, not accumulated sub-steps, to match the
        sampling clock exactly."""
        (j, lo, _), (last, last_lo, n) = chunk[0], chunk[-1]
        hi = last_lo + n
        h = (tail if j == n_int else eps) / nsub
        jj, ii = np.divmod(np.arange(j * nsub + lo, last * nsub + hi), nsub)
        starts = jj * eps + ii * h
        end = 3 * len(starts)
        times = np.empty(end + 1)
        times[0:end:3] = starts
        times[1:end:3] = starts + 0.5 * h
        times[2:end:3] = starts + h
        times[end] = (last * eps + hi * h if hi < nsub
                      else t_final if last == n_int else (last + 1) * eps)
        return h, times

    X = x0
    try:
        for chunk in chunks():
            h, times = clock(chunk)
            if blocks and n_open and len(times) > 1:
                # The open-loop rows over the whole chunk, one kernel call per group.
                with np.errstate(all="ignore"):
                    ahead = np.concatenate(
                        [block(X[a:b], h, times, None).reshape(len(times) // 3, (b - a) * p)
                         for block, a, b in zip(blocks, bounds, bounds[1:n_open + 1])], axis=1)
            s = 0  # the block's first sub-step in the chunk
            for j, lo, n in chunk:
                ts = times[3 * s:3 * (s + n) + 1]
                if lo == 0:
                    # Sampling instant tau_j: sample and resample the held controls.
                    for consumer in consumers:
                        consumer.sample(j * eps, X)
                    held = steer(X)
                    if j in retire:
                        X = X[:retire[j]]
                tables = [control(ts)[:, :len(X)] for control in held]
                Xs = [X[a:b] for a, b in zip(bounds, bounds[1:])]
                states = (_advance_block(blocks[n_open:], Xs[n_open:], h, ts, tables,
                                         ahead[s:s + n] if n_open else None)
                          if blocks and n else None)
                error = None
                if states is None:
                    states, error = _generic_block(steps, Xs, h, ts, [None] * n_open + tables,
                                                   names)
                # The run's last block: the tail's, or the end of a tail-less horizon.
                last = j == n_int and lo + n in (0, nsub)
                for consumer in consumers:
                    consumer.record(ts, X, states, j, tables, last)
                if error is not None:
                    raise error
                if n == 0:  # the end of a tail-less horizon
                    break
                s += n
                X = states[-1].reshape(len(X), p)
    except (DivergenceError, RankDegeneracyError) as exc:
        exc.partial = consumers[0].build()
        raise
    return consumers[0].build()


def simulate_pi_epsilon(sys, sel, gains, x0, cfg=None):
    """Integrate the sampled closed loop and record the trajectory.

    Raises RankDegeneracyError (with the partial trajectory and offending
    state attached) if the extension matrix degenerates at a sampling
    instant, and DivergenceError if the state leaves the guarded region.
    """
    return _simulate_single(sys, sel, gains, x0, cfg)


def _simulate_single(sys, sel, gains, x0, cfg, drain=None):
    """simulate_pi_epsilon's run, its _Recorder given drain."""
    cfg = SimConfig() if cfg is None else cfg
    plan = _plan(sys, sel)
    x0 = as_state(x0, sys.n)
    _check_field_lengths(sys, x0)
    eps = gains.epsilon
    m = sys.m
    n1 = sys.n1
    y_star = gains.y_star_vec()

    def steer(X):
        """The held control at a sampling instant: the public solve's y*
        check, then the plan's step for a group of one row.  The row needs
        no as_state: x0 passed it, and the guard passes only finite
        states."""
        # Only the first instant's check can fail (gains are frozen); made
        # here, a bad y* is refused after the run's budget check.
        _check_target(gains, n1)
        return [plan.held(X, X[:, :n1] - y_star, (gains.gamma,), gains.cond_cap, eps, (None,))]

    def build(rec):
        states = np.frombuffer(rec.states).reshape(-1, sys.n)
        return SampledTrajectory(
            epsilon=eps,
            n1=n1,
            sample_times=np.frombuffer(rec.sample_times),
            sample_states=np.frombuffer(rec.sample_states).reshape(-1, sys.n),
            dense_times=np.frombuffer(rec.times),
            dense_states=states,
            dense_controls=np.frombuffer(rec.controls).reshape(-1, m),
            y_error=_error_norms(states[:, :n1], y_star),
            interval_index=np.frombuffer(rec.intervals, dtype=np.int64),
        )

    return _run_sampled(cfg, gains, sel.kappa_max, x0[None],
                        [(("state",), sys.drift, sys.control_fields)], steer,
                        [_Recorder(build, cfg.record_stride, drain)])


def _averaged_flow(y0, gains, times):
    """y* + exp(-gamma t) (y0 - y*), a row per t in times: math.exp per t, then elementwise."""
    y_star = gains.y_star_vec()
    decay = np.array([math.exp(-gains.gamma * t) for t in times])
    return y_star + decay[:, None] * (y0 - y_star)


def averaged_reference(y0, gains, t):
    """The averaged flow y* + exp(-gamma t) (y0 - y*) the control emulates, at t >= 0."""
    t = _as_real(t, "t")
    if not t >= 0:
        raise InvalidInputError(f"t must be >= 0, got {t}")
    y0 = as_state(_as_reals(y0, "y0"))
    _check_target(gains, len(y0))
    return _averaged_flow(y0, gains, [t])[0]


def decay_report(traj, gains, rho):
    """Summarize the sampled stabilization error ||y - y*|| against a floor
    radius rho, finite and > 0; y* must have traj.n1 entries."""
    rho = _as_positive(rho, "rho")
    times = np.asarray(traj.sample_times, dtype=float)
    if times.size < 2:
        raise InvalidInputError("decay report needs at least 2 samples")
    _check_target(gains, traj.n1)
    errs = _error_norms(np.asarray(traj.sample_states)[:, :traj.n1], gains.y_star_vec())

    t1 = math.inf
    # Scan from the end: t1 is the earliest instant whose whole suffix is <= rho.
    for j in range(times.size - 1, -1, -1):
        if errs[j] <= rho:
            t1 = float(times[j])
        else:
            break

    lambda_fit = None
    zeta_fit = None
    above = errs > rho
    if int(above.sum()) >= 3:
        x = times[above]
        # polyfit scales the times' column by sqrt(sum x^2): where that is 0
        # or inf (times near 1e-300 or 1e300), or log(err) is not finite, its
        # least squares would see NaN, so the fit is left undefined.
        with np.errstate(all="ignore"):
            y = np.log(errs[above])
            scale = math.sqrt((x * x).sum())
        if 0.0 < scale < math.inf and np.isfinite(y).all():
            slope, intercept = np.polyfit(x, y, 1)
            lambda_fit = float(-slope)
            zeta_fit = float(math.exp(intercept))

    monotone = float(np.mean(errs[1:] <= errs[:-1]))
    return DecayReport(rho=rho, t1=t1, lambda_fit=lambda_fit,
                       zeta_fit=zeta_fit, monotone_fraction=monotone)


def _sweep_epsilons(eps_list):
    """eps_list, any iterable of reals, as a list of floats, refused unless
    non-empty, positive, finite and strictly decreasing."""
    eps_list = [_as_positive(e, "eps_list entry") for e in _as_list(eps_list, "eps_list")]
    if not eps_list:
        raise InvalidInputError("eps_list must be non-empty")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise InvalidInputError("eps_list must be strictly decreasing")
    return eps_list


def _max_deviation(y0, gains, times, ys):
    """max_j ||ys[j] - averaged_reference(y0, gains, times[j])||, at least 0.0,
    bitwise the per-sample loop's: the references in one _averaged_flow
    pass, averaged_reference's own, and the maximum over each row's
    np.linalg.norm.

    That norm's length-n dot product rounds its sum of squares unlike an
    array sum, but each is within gamma_n = n u / (1 - n u) of the exact sum
    in ratio (u = 2^-53), so the row of largest norm has an array square
    within 1 - ((1 - gamma_n) / (1 + gamma_n))^2 < 8 (n + 1) u of the largest
    one, and only the rows that close take np.linalg.norm.  When the largest
    square lies outside [2^-900, 2^900), inf included, where underflow or
    overflow voids that bound, every row does.  A NaN row is never the
    maximum, as in the loop's max.
    """
    residuals = ys - _averaged_flow(y0, gains, times)
    with np.errstate(over="ignore"):  # an inf square sends every row to the norm
        squares = (residuals * residuals).sum(axis=1)
    top = np.fmax.reduce(squares, initial=0.0)
    if 2.0 ** -900 <= top < 2.0 ** 900:
        margin = 8 * (residuals.shape[1] + 1) * 2.0 ** -53
        residuals = residuals[squares >= top * (1 - margin)]
    return max(0.0, *map(float, map(np.linalg.norm, residuals)))


# A one-clock sweep's row for entry k runs that entry's loop at the period
# eps0 = c eps_k, c a power of two, with the gain gamma / c: its times and
# sub-step lengths are c times its own run's, and its steering right-hand
# sides, coefficients and controls 1 / c times, exactly, while every one of
# them and of their products is a normal float.  So a sweep takes one clock
# only with c <= _MAX_SCALE (the work budget's own bound when t_final is
# given) and epsilon, gamma and kappa_max within _SWEEP_RANGE of 1 in ratio,
# and leaves it as soon as a row's state, residual y - y* or coefficients
# have a non-zero entry not within _STEP_RANGE of 1 in ratio.
_MAX_SCALE = 2.0 ** 24
_SWEEP_RANGE = 2.0 ** 100
_STEP_RANGE = 2.0 ** 300


class _OutOfScale(Exception):
    """A one-clock sweep left its exact-scaling range."""


def _in_range(values, limit):
    """Whether every non-zero value has 1 / limit <= |value| <= limit."""
    sizes = list(map(abs, filter(None, values)))
    return not sizes or 1.0 / limit <= min(sizes) and max(sizes) <= limit


def _one_clock_sweep(sys, sel, runs, x0, plans):
    """The sweep's rows from one stacked run on its first entry's clock, or
    None when the sweep is not eligible or the run raises or leaves the
    exact-scaling range.

    Eligible: a driftless system (library._zero_field, by identity), every
    eps0 / eps_k a power of two (equal math.frexp mantissas), every entry
    whole intervals, and the ranges above.  Entry k is a row at eps0 with
    gain gamma eps_k / eps0 over its own interval count; the rows are
    stacked finest first, so each retires after its final instant's
    steering step and the stack shrinks to a prefix (_run_sampled's ends).
    Only sampling instants are recorded, and each row's deviation is
    _max_deviation at its own times j eps_k, so every row is bitwise its
    per-epsilon run's.
    """
    eps0 = runs[0].epsilon
    scales = [eps0 / gains.epsilon for gains in runs]
    if not (sys.drift is library._zero_field
            and all(math.frexp(gains.epsilon)[0] == math.frexp(eps0)[0] for gains in runs)
            and all(tail == 0.0 for _, _, _, tail, _ in plans)
            and scales[-1] <= _MAX_SCALE
            and _in_range([eps0, runs[-1].epsilon, runs[0].gamma, sel.kappa_max], _SWEEP_RANGE)):
        return None
    n1, size = sys.n1, len(runs)
    ends = [n_int for _, _, n_int, _, _ in reversed(plans)]
    gammas = [runs[0].gamma / c for c in reversed(scales)]
    labels = (None,) * size
    y_star = runs[0].y_star_vec()
    # The finest entry's horizon on the eps0 clock: the same quotient
    # t_final / epsilon, so the same interval count.
    t_final, nsub = plans[-1][:2]
    cfg = SimConfig(t_final=t_final * scales[-1], substeps_per_period=nsub)

    def steer(X):
        R = X[:, :n1] - y_star
        a = plan.coefficients(X, R, gammas[:len(X)], runs[0].cond_cap, eps0, labels)
        if not _in_range(chain(X.ravel().tolist(), R.ravel().tolist(), a.ravel().tolist()),
                         _STEP_RANGE):
            raise _OutOfScale
        return [frozen_control(plan.terms, eps0, a)]

    try:
        plan = _plan(sys, sel)
        _check_field_lengths(sys, x0)
        _check_target(runs[0], n1)
        rec = _run_sampled(cfg, runs[0], sel.kappa_max, np.tile(x0, (size, 1)),
                           [(("state",) * size, sys.drift, sys.control_fields)],
                           steer, [_Recorder(lambda rec: rec, None)], ends)
    except Exception:  # the per-epsilon runs raise it again, as they raise it
        return None
    samples = np.frombuffer(rec.sample_states).reshape(-1, sys.n)
    # The first sample of each instant: instant j samples the rows with ends >= j.
    live = (np.array(ends) >= np.arange(ends[0] + 1)[:, None]).sum(axis=1)
    first = np.cumsum(live) - live
    rows = []
    for k, (gains, (_, _, n_int, _, _)) in enumerate(zip(runs, plans)):
        e = gains.epsilon
        rows.append((e, _max_deviation(x0[:n1], gains, [j * e for j in range(n_int + 1)],
                                       samples[first[:n_int + 1] + size - 1 - k, :n1])))
    return rows


def epsilon_sweep(sys, sel, gains_base, x0, t_final, eps_list,
                  substeps_per_period=None):
    """Max sampled deviation from the averaged flow, one row per epsilon.

    eps_list, any iterable of periods, must be strictly decreasing, positive
    and finite; returns a list of (epsilon, max_j ||y(tau_j) - yhat(tau_j)||)
    rows.  Every run uses SimConfig(t_final, substeps_per_period); None
    fields take the defaults.
    Every entry is planned before the first run, and the sweep as a whole
    must stay within model.MAX_ROW_SUBSTEPS.  An eligible sweep runs on one
    clock (_one_clock_sweep); any other, or one whose stacked run raises or
    leaves its exact-scaling range, runs each epsilon by simulate_pi_epsilon.
    Either way the rows, and any failure, are the per-epsilon runs'.
    """
    eps_list = _sweep_epsilons(eps_list)
    x0 = as_state(x0, sys.n)
    cfg = SimConfig(t_final=t_final, substeps_per_period=substeps_per_period)
    runs = [replace(gains_base, epsilon=e) for e in eps_list]
    # Every entry is refused here, before the first run, if it is bad.
    plans = [_plan_run(cfg, gains, sel.kappa_max, 1) for gains in runs]
    _within_budget(sum(nsub * n for _, nsub, _, _, n in plans), "the sweep's row sub-steps")
    rows = _one_clock_sweep(sys, sel, runs, x0, plans)
    if rows is not None:
        for _ in runs:  # the warning each entry's own run gives
            _warn_substeps(plans[0][1], sel.kappa_max)
        return rows
    rows = []
    for gains in runs:
        traj = simulate_pi_epsilon(sys, sel, gains, x0, cfg)
        rows.append((gains.epsilon, _max_deviation(x0[:sys.n1], gains, traj.sample_times.tolist(),
                                                   traj.sample_states[:, :sys.n1])))
    return rows
