"""Sample-and-hold closed-loop integration and decay diagnostics.

The closed loop is integrated as a sampled solution: on each interval
[tau_j, tau_j + epsilon) the feedback's state argument is frozen at
x(tau_j) while its time argument advances continuously.  One private
driver, _run_sampled, owns that clock and the stacked rows for every
caller: the interval grid and its partial tail, the sub-step and boundary
times, each row's step, divergence guard and control record, resampling at
each sampling instant, the record stride, and the partial trajectory
attached to a failure.  It runs one system (simulate_pi_epsilon, one row)
or the formation's rows, each row a list of floats advanced by its own
fixed-step RK4 sub-step in the operation order of the float64 array form,
so results are bitwise those of arrays.

At each sampling instant every row's held control is evaluated once, as a
table over every time the interval uses (synthesis.frozen_control), and
each row's sub-step (t, x, h, u0, uh, u1) takes its controls at the start,
midpoint and end from that table.  The generic sub-step is _rk4_step on the
stage (t, x, u) -> f0(t, x) + sum_k u_k f_k(x) (_row_stage).  Fields receive
their row as a 1-d float64 ndarray and may return any sequence of numbers,
each entry taken as a float64.  Rows of the built-in unicycle and rolling
disc, and the figure-eight leader, skip that contract: their exact function
objects select a block kernel in library (_row_integrators), which
advances the row over a whole table block in one numpy pass and repeats
the generic sub-steps' operations bit for bit.  When every row of a run has
one, each block is one kernel call per row, one vector guard and one
strided record append; a block that is not finite and well inside the
guard's cap is redone by the generic sub-steps, so a failure is raised as
they raise it.  Every other system or leader field, and a copy with any
function swapped, puts the whole run on the generic sub-steps.
"""

import math
import warnings
from array import array
from dataclasses import asdict, dataclass, replace
from functools import partial
from typing import Optional

import numpy as np

from . import library
from .errors import DivergenceError, InvalidInputError, RankDegeneracyError
from .model import _as_int, as_state
from .synthesis import check_selection, frozen_control, steering_coefficients
# Not called here: perfbench/tracer.py wraps simulate.held_control by name.
from .synthesis import held_control  # noqa: F401

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
MAX_ROW_SUBSTEPS = 10_000_000  # work budget: intervals x sub-steps x rows
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
        if self.t_final is not None and not 0 < self.t_final < math.inf:
            raise InvalidInputError(f"t_final must be finite and > 0, got {self.t_final}")
        if self.substeps_per_period is not None:
            nsub = _as_int(self.substeps_per_period, "substeps_per_period")
            if nsub < 1:
                raise InvalidInputError("substeps_per_period must be >= 1")
            object.__setattr__(self, "substeps_per_period", nsub)
        object.__setattr__(self, "record_stride", _as_int(self.record_stride, "record_stride"))
        if self.record_stride < 1:
            raise InvalidInputError("record_stride must be >= 1")


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
    return 40 * kappa_max


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


class _Recorder:
    """Flat float64 buffers of the dense grid and sampling instants of one run.

    record() appends t, the rows' states, each row's held control at t and
    the interval index; sample() appends a sampling instant and the rows'
    states there; build() hands the recorder to the caller's build, which
    reshapes each buffer once into the caller's trajectory type.
    """

    def __init__(self, build):
        self._build = build
        self.times = array("d")
        self.states = array("d")
        self.controls = array("d")
        self.intervals = array("q")
        self.sample_times = array("d")
        self.sample_states = array("d")

    def record(self, t, xs, j, tables, e):
        self.times.append(t)
        for x in xs:
            self.states.extend(x)
        for tab in tables:
            self.controls.extend(tab[e])
        self.intervals.append(j)

    def record_block(self, ts, states, j, tables, subs):
        """record() at the end of each listed sub-step (1-based, an int
        array) of a table block, from its times and tables and its stacked
        states (n, width) after each sub-step."""
        ends = 3 * subs
        self.times.frombytes(ts[ends].tobytes())
        self.states.frombytes(states[subs - 1].tobytes())
        self.controls.frombytes(np.concatenate([tab[ends] for tab in tables], axis=1).tobytes())
        self.intervals.extend([j] * len(subs))

    def sample(self, t, xs):
        self.sample_times.append(t)
        for x in xs:
            self.sample_states.extend(x)

    def build(self):
        return self._build(self)


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
    """_check_field_length for the drift (field 0) and each control field."""
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


def _row_integrators(rows):
    """The one lookup of a run's integrators: each row's generic RK4 sub-step
    (t, x, h, u0, uh, u1) -> floats (_rk4_step on _row_stage), and each row's
    whole-block kernel in library when every row has one, else None.

    Exactly the built-in unicycle's, rolling disc's and figure-eight
    leader's functions select a block kernel; any other functions, in any
    row, leave the whole run on the generic sub-steps.
    """
    steps = [partial(_rk4_step, _row_stage(drift, fields)) for _, drift, fields in rows]
    blocks = [library._BLOCK_STEPS.get(library._identity_key(drift, *fields))
              for _, drift, fields in rows]
    return steps, (blocks if all(blocks) else None)


def _advance_block(blocks, xs, h, ts, tables):
    """The stacked states (n, width) after each of a table block's n
    sub-steps, from each row's block kernel, or None unless every entry is
    finite and max |v| * sqrt(width) < _GUARD_PASS_NORM.  That bounds every
    sub-step's stacked norm well inside the cap, so no row would fail its
    exact guard; a block that fails the test is redone by the generic
    sub-steps, so any failure is raised as the generic path raises it."""
    with np.errstate(all="ignore"):
        states = np.concatenate([block(x, h, ts, tab)
                                 for block, x, tab in zip(blocks, xs, tables)], axis=1)
        if np.abs(states).max() * math.sqrt(states.shape[1]) < _GUARD_PASS_NORM:
            return states
    return None


def _plan_run(cfg, gains, kappa_max, n_rows):
    """(t_final, nsub, n_int, tail, n_intervals) of a run, refused if empty or over budget."""
    eps = gains.epsilon
    t_final, nsub = resolve_config(cfg, gains, kappa_max)
    n_int, tail = interval_grid(t_final, eps)
    n_intervals = n_int + (1 if tail > 0.0 else 0)
    if n_intervals == 0:
        raise InvalidInputError(f"t_final={t_final} is too short for epsilon={eps}")
    if n_intervals * nsub * n_rows > MAX_ROW_SUBSTEPS:
        raise InvalidInputError(f"{n_intervals} intervals x {nsub} sub-steps x {n_rows} rows "
                                f"exceed the budget MAX_ROW_SUBSTEPS = {MAX_ROW_SUBSTEPS}")
    return t_final, nsub, n_int, tail, n_intervals


def _run_sampled(cfg, gains, kappa_max, x0, rows, steer, build):
    """Integrate a sampled closed loop from x0; the package's one clock.

    x0 is (n_rows, p) and rows[r] = (name, drift, fields) describes row r.
    At each sampling instant tau_j = j * epsilon, steer(row_states) returns
    one frozen control per row, a function from an array of times to the
    table of u at each (synthesis.frozen_control).  It is evaluated once
    per interval (per TABLE_SUBSTEPS sub-steps of a longer one) at every
    time the interval uses: each sub-step's start tau_j + (i - 1) h,
    midpoint and end, and the interval's end.  Each row's integrators are
    looked up once per run (_row_integrators: _rk4_step on the stage
    drift + sum_k u_k fields[k], and the built-ins' block kernels).  Over
    [tau_j, tau_j + epsilon) each row advances by its own sub-step, nsub
    per interval, taking u at the sub-step's start, midpoint and end from
    its table, while the time argument runs on; one RuntimeWarning per run
    says when nsub gives kappa_max fewer than 20 sub-steps.  A final
    partial interval ends exactly at t_final.  When every row has a block
    kernel, each table block is advanced whole (_advance_block) and its
    due dense points appended at once; otherwise, or when the block's
    vector guard fails, sub-step by sub-step: after every sub-step one
    norm test of the stacked state passes every row; only when it fails is
    each row guarded, under its name, by the exact _guard_state
    (_guard_rows).  A dense point (t, rows, interval, each row's held
    control at t) is recorded at t = 0, every cfg.record_stride sub-steps
    and at the end of the horizon.  Returns build(recorder); a DivergenceError or
    RankDegeneracyError leaves with build(recorder) of the run so far
    attached as .partial.
    """
    cfg = SimConfig() if cfg is None else cfg
    eps = gains.epsilon
    t_final, nsub, n_int, tail, n_intervals = _plan_run(cfg, gains, kappa_max, len(x0))
    if nsub < 20 * kappa_max:
        warnings.warn(
            f"substeps_per_period={nsub} resolves the fastest oscillation "
            f"(kappa={kappa_max}) with fewer than 20 sub-steps", RuntimeWarning)
    total_substeps = n_intervals * nsub
    stride = cfg.record_stride
    names = [name for name, _, _ in rows]
    p = x0.shape[1]
    steps, blocks = _row_integrators(rows)

    def tabulate(held, j, lo):
        """Interval j's sub-step length, the times its sub-steps lo + 1 .. hi
        use, and each row's held control at each, as arrays: every
        sub-step's start base_t + (i - 1) h, midpoint and end, then the
        block's end (the next sub-step's start, or the interval's end).
        Past the last interval, its start alone, for the final record."""
        base_t = j * eps
        if j == n_intervals:
            h, times = 0.0, np.array([base_t])
        else:
            is_tail = j == n_int
            h = (tail if is_tail else eps) / nsub
            hi = min(lo + TABLE_SUBSTEPS, nsub)
            starts = base_t + np.arange(lo, hi) * h
            n = 3 * (hi - lo)
            times = np.empty(n + 1)
            times[0:n:3] = starts
            times[1:n:3] = starts + 0.5 * h
            times[2:n:3] = starts + h
            # Boundary instants use the grid expression, not accumulated
            # sub-steps, to match the sampling clock exactly.
            times[n] = (base_t + hi * h if hi < nsub
                        else t_final if is_tail else (j + 1) * eps)
        return h, times, [control(times) for control in held]

    rec = _Recorder(build)
    xs = x0.tolist()
    try:
        rec.sample(0.0, xs)
        held = steer(xs)
        h, ts, tables = tabulate(held, 0, 0)
        rec.record(0.0, xs, 0, tables, 0)
        g = 0  # global sub-step counter, drives record_stride
        for j in range(n_intervals):
            for lo in range(0, nsub, TABLE_SUBSTEPS):
                if lo:
                    h, ts, tables = tabulate(held, j, lo)
                end = len(ts) - 1  # the block's end in its tables
                states = blocks and _advance_block(blocks, xs, h, ts, tables)
                if states is None:
                    # One generic sub-step per row at a time, guarded and
                    # recorded after each; the block's end is done below.
                    tl = ts.tolist()
                    tabs = [tab.tolist() for tab in tables]
                    for c in range(0, end, 3):  # a sub-step's start in the tables
                        xs = [step(tl[c], x, h, tab[c], tab[c + 1], tab[c + 2])
                              for step, x, tab in zip(steps, xs, tabs)]
                        g += 1
                        _guard_rows(xs, tl[c + 3], names)
                        if c + 3 < end and g % stride == 0:
                            rec.record(tl[c + 3], xs, j, tabs, c + 3)
                else:
                    # The block's sub-steps before its end that are due,
                    # in one append.
                    rec.record_block(ts, states, j, tables,
                                     np.arange(stride - g % stride, end // 3, stride))
                    g += end // 3
                    last = states[-1].tolist()
                    xs = [last[r:r + p] for r in range(0, len(last), p)]
                t = float(ts[end])
                k, e = j, end
                if j < n_int and lo + TABLE_SUBSTEPS >= nsub:
                    # Sampling instant tau_{j+1}: resample the held controls.
                    rec.sample(t, xs)
                    held = steer(xs)
                    h, ts, tables = tabulate(held, j + 1, 0)
                    k, e = j + 1, 0
                if g % stride == 0 or g == total_substeps:
                    rec.record(t, xs, k, tables, e)
    except (DivergenceError, RankDegeneracyError) as exc:
        exc.partial = rec.build()
        raise
    return rec.build()


def simulate_pi_epsilon(sys, sel, gains, x0, cfg=None):
    """Integrate the sampled closed loop and record the trajectory.

    Raises RankDegeneracyError (with the partial trajectory and offending
    state attached) if the extension matrix degenerates at a sampling
    instant, and DivergenceError if the state leaves the guarded region.
    """
    check_selection(sys, sel)
    x0 = as_state(x0, sys.n)
    if sys.domain_check is not None and not sys.domain_check(x0):
        raise InvalidInputError("x0 lies outside the system's declared domain")
    _check_field_lengths(sys, x0)
    eps = gains.epsilon
    m = sys.m
    n1 = sys.n1
    y_star = gains.y_star_vec()

    def build(rec):
        states = np.array(rec.states).reshape(-1, sys.n)
        # The error is taken right after stacking: later, its temporary
        # would sit on top of every other array and raise peak memory.
        y_err = np.linalg.norm(states[:, :n1] - y_star, axis=1)
        return SampledTrajectory(
            epsilon=eps,
            n1=n1,
            sample_times=np.array(rec.sample_times),
            sample_states=np.array(rec.sample_states).reshape(-1, sys.n),
            dense_times=np.array(rec.times),
            dense_states=states,
            dense_controls=np.array(rec.controls).reshape(-1, m),
            y_error=y_err,
            interval_index=np.array(rec.intervals, dtype=int),
        )

    return _run_sampled(
        cfg, gains, sel.kappa_max, x0[None], [("state", sys.drift, sys.control_fields)],
        lambda xs: [frozen_control(sel, eps, m, steering_coefficients(sys, sel, gains, xs[0]))],
        build)


def averaged_reference(y0, gains, t):
    """The averaged flow y* + exp(-gamma t) (y0 - y*) the control emulates."""
    if t < 0:
        raise InvalidInputError(f"t must be >= 0, got {t}")
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    y_star = gains.y_star_vec()
    return y_star + math.exp(-gains.gamma * t) * (y0 - y_star)


def decay_report(traj, gains, rho):
    """Summarize the sampled stabilization error against a floor radius rho."""
    times = np.asarray(traj.sample_times, dtype=float)
    if times.size < 2:
        raise InvalidInputError("decay report needs at least 2 samples")
    y_star = gains.y_star_vec()
    k = y_star.size
    errs = np.linalg.norm(np.asarray(traj.sample_states)[:, :k] - y_star, axis=1)

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
    return DecayReport(rho=float(rho), t1=t1, lambda_fit=lambda_fit,
                       zeta_fit=zeta_fit, monotone_fraction=monotone)


def _sweep_epsilons(eps_list):
    """eps_list as floats, refused unless non-empty, positive, finite and strictly decreasing."""
    eps_list = [float(e) for e in eps_list]
    if not eps_list:
        raise InvalidInputError("eps_list must be non-empty")
    if not all(e > 0 for e in eps_list):  # NaN fails e > 0 as well
        raise InvalidInputError("eps_list entries must be > 0")
    if math.inf in eps_list:
        raise InvalidInputError(f"eps_list entries must be finite, got {math.inf}")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise InvalidInputError("eps_list must be strictly decreasing")
    return eps_list


def epsilon_sweep(sys, sel, gains_base, x0, t_final, eps_list,
                  substeps_per_period=None):
    """Max sampled deviation from the averaged flow, one row per epsilon.

    eps_list must be strictly decreasing, positive and finite; returns a list of
    (epsilon, max_j ||y(tau_j) - yhat(tau_j)||) rows.  Every run uses
    SimConfig(t_final, substeps_per_period); None fields take the defaults.
    Every entry is planned before the first run, and the sweep as a whole
    must stay within MAX_ROW_SUBSTEPS.
    """
    eps_list = _sweep_epsilons(eps_list)
    x0 = as_state(x0, sys.n)
    y0 = x0[: sys.n1]
    cfg = SimConfig(t_final=t_final, substeps_per_period=substeps_per_period)
    runs = [replace(gains_base, epsilon=e) for e in eps_list]
    total = 0
    for gains in runs:  # refuse a bad entry before the first run
        _, nsub, _, _, n_intervals = _plan_run(cfg, gains, sel.kappa_max, 1)
        total += n_intervals * nsub
    if total > MAX_ROW_SUBSTEPS:
        raise InvalidInputError(f"the sweep's {total} row sub-steps exceed the budget "
                                f"MAX_ROW_SUBSTEPS = {MAX_ROW_SUBSTEPS}")
    rows = []
    for e, gains in zip(eps_list, runs):
        traj = simulate_pi_epsilon(sys, sel, gains, x0, cfg)
        dev = 0.0
        for tau, state in zip(traj.sample_times, traj.sample_states):
            ref = averaged_reference(y0, gains, float(tau))
            dev = max(dev, float(np.linalg.norm(state[: sys.n1] - ref)))
        rows.append((e, dev))
    return rows
