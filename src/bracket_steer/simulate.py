"""Sample-and-hold closed-loop integration and decay diagnostics.

The closed loop is integrated as a sampled solution: on each interval
[tau_j, tau_j + epsilon) the feedback's state argument is frozen at
x(tau_j) while its time argument advances continuously.  One private
driver, _run_sampled, owns that clock and the stacked rows for every
caller: the interval grid and its partial tail, the sub-step and boundary
times, each row's field, divergence guard and control record, resampling at
each sampling instant, the record stride, and the partial trajectory
attached to a failure.  It runs one system (simulate_pi_epsilon, one row)
or the formation's rows laid end to end in one float list, by fixed-step
RK4 in the operation order of the float64 array form, so results are
bitwise those of arrays.  Fields receive their row as a 1-d float64 ndarray
and may return any sequence of numbers, each entry taken as a float64.
Rows of the built-in unicycle and rolling disc skip that contract: their
exact function objects select a fused stage in library, which repeats the
generic field sum's operations bit for bit.  Every other system, a copy
with any function swapped, and the leader row take the generic sum.
"""

import math
import warnings
from array import array
from dataclasses import asdict, dataclass, replace
from typing import Optional

import numpy as np

from .errors import DivergenceError, InvalidInputError, RankDegeneracyError
from .library import _fused_stage
from .model import _as_int, as_state
from .synthesis import check_selection, frozen_control, steering_coefficients
# Not called here: perfbench/tracer.py wraps simulate.held_control by name.
from .synthesis import held_control  # noqa: F401

DIVERGENCE_NORM_CAP = 1e9
# The guard compares squared norms: sqrt is correctly rounded and
# sqrt(1e18) = 1e9 exactly, so x.x <= cap**2 iff ||x|| <= cap.
DIVERGENCE_SQNORM_CAP = DIVERGENCE_NORM_CAP * DIVERGENCE_NORM_CAP
MAX_ROW_SUBSTEPS = 10_000_000  # work budget: intervals x sub-steps x rows
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
    only when at least three samples qualify.
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


def _rk4_step(rhs, t, x, h):
    hh = 0.5 * h
    k1 = rhs(t, x)
    k2 = rhs(t + hh, [xi + hh * k for xi, k in zip(x, k1)])
    k3 = rhs(t + hh, [xi + hh * k for xi, k in zip(x, k2)])
    k4 = rhs(t + h, [xi + h * k for xi, k in zip(x, k3)])
    # strict: a field of the wrong length fails here instead of truncating.
    return [xi + (h / 6.0) * (((a + 2.0 * b) + 2.0 * c) + d)
            for xi, a, b, c, d in zip(x, k1, k2, k3, k4, strict=True)]


class _Recorder:
    """Flat float64 buffers of the dense grid and sampling instants of one run.

    record() appends t, the flat state, each row's held u_of(t) and the
    interval index; build() hands the recorder to the caller's build,
    which reshapes each buffer once into the caller's trajectory type.
    """

    def __init__(self, build):
        self._build = build
        self.times = array("d")
        self.states = array("d")
        self.controls = array("d")
        self.intervals = array("q")
        self.sample_times = array("d")
        self.sample_states = array("d")

    def record(self, t, x, j, held):
        self.times.append(t)
        self.states.extend(x)
        for u_of in held:
            self.controls.extend(u_of(t))
        self.intervals.append(j)

    def build(self):
        return self._build(self)


def _guard_state(x, t, what="state"):
    # row.dot(row) is the sum np.linalg.norm takes the root of; NaN and inf
    # fail the comparison.
    row = np.array(x, dtype=float)
    if row.dot(row) <= DIVERGENCE_SQNORM_CAP:
        return
    raise DivergenceError(
        f"{what} diverged at t={t:.6g} (non-finite or norm > {DIVERGENCE_NORM_CAP:g})",
        t=t, state=row)


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


def _closed_loop_rhs(drift, fields, u_of):
    """Floats f0(t, x) + sum_k u_k(t) f_k(x), u = u_of(t) a frozen control.

    The built-in unicycle's and rolling disc's functions run their fused
    stage from library instead, which repeats this sum bit for bit.
    """
    stage = _fused_stage(drift, fields)
    if stage is not None:
        return lambda t, x: stage(x, u_of(t))

    def rhs(t, x):
        state = np.array(x, dtype=float)
        # float() takes every entry to float64, as np.asarray(f, float) did:
        # a float32 field must not drop the run to single precision.
        out = list(map(float, drift(t, state)))
        if fields:  # a row without control fields never evaluates u_of
            for uk, fk in zip(u_of(t), fields):
                if uk != 0.0:
                    out = [o + uk * float(v) for o, v in zip(out, fk(state), strict=True)]
        return out

    return rhs


def _stacked_rhs(rows, held, p):
    """Each row's closed-loop field under its held control, joined in row order."""
    first, *rest = [_closed_loop_rhs(d, f, u) for (_, d, f), u in zip(rows, held, strict=True)]

    def rhs(t, x):
        out = first(t, x[:p])
        for f, lo in zip(rest, range(p, len(x), p)):
            out += f(t, x[lo:lo + p])
        return out

    return rhs if rest else first


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
    one frozen control u_of per row; over [tau_j, tau_j + epsilon) each row's
    drift + sum_k u_of(t)[k] fields[k] is integrated with nsub RK4 sub-steps
    while the time argument runs on; one RuntimeWarning per run says when
    nsub gives kappa_max fewer than 20 sub-steps.  A final partial interval
    ends exactly at t_final.  Each row is guarded under its name after every
    sub-step.
    A dense point (t, x, interval, each row's u_of(t)) is recorded at t = 0,
    every cfg.record_stride sub-steps and at the end of the horizon.
    Returns build(recorder); a DivergenceError or RankDegeneracyError
    leaves with build(recorder) of the run so far attached as .partial.
    """
    cfg = SimConfig() if cfg is None else cfg
    eps = gains.epsilon
    n_rows, p = x0.shape
    t_final, nsub, n_int, tail, n_intervals = _plan_run(cfg, gains, kappa_max, n_rows)
    if nsub < 20 * kappa_max:
        warnings.warn(
            f"substeps_per_period={nsub} resolves the fastest oscillation "
            f"(kappa={kappa_max}) with fewer than 20 sub-steps", RuntimeWarning)
    total_substeps = n_intervals * nsub
    stride = cfg.record_stride
    offsets = range(0, n_rows * p, p)
    guarded = [(lo, name) for lo, (name, _, _) in zip(offsets, rows)]

    rec = _Recorder(build)
    x = x0.ravel().tolist()
    try:
        rec.sample_times.append(0.0)
        rec.sample_states.extend(x)
        held = steer([x[lo:lo + p] for lo in offsets])
        rec.record(0.0, x, 0, held)
        g = 0  # global sub-step counter, drives record_stride
        for j in range(n_intervals):
            is_tail = j == n_int
            h = (tail if is_tail else eps) / nsub
            base_t = j * eps
            # Boundary instants use the grid expression, not accumulated
            # sub-steps, to match the sampling clock exactly.
            t_end = t_final if is_tail else (j + 1) * eps
            rhs = _stacked_rhs(rows, held, p)
            for i in range(1, nsub + 1):
                x = _rk4_step(rhs, base_t + (i - 1) * h, x, h)
                g += 1
                t = base_t + i * h if i < nsub else t_end
                for lo, name in guarded:
                    _guard_state(x[lo:lo + p], t, name)
                k = j
                if i == nsub and not is_tail:
                    # Sampling instant tau_{j+1}: resample the held controls.
                    rec.sample_times.append(t)
                    rec.sample_states.extend(x)
                    held = steer([x[lo:lo + p] for lo in offsets])
                    k = j + 1
                if g % stride == 0 or g == total_substeps:
                    rec.record(t, x, k, held)
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
        slope, intercept = np.polyfit(times[above], np.log(errs[above]), 1)
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
