"""Sample-and-hold closed-loop integration and decay diagnostics.

The closed loop is integrated as a sampled solution: on each interval
[tau_j, tau_j + epsilon) the feedback's state argument is frozen at
x(tau_j) while its time argument advances continuously.  One private
driver, _run_sampled, owns that clock for every caller: the interval grid
and its partial tail, the sub-step and boundary times, the divergence
guard, resampling at each sampling instant, the record stride, and the
partial trajectory attached to a failure.  Integration is classical
fixed-step RK4, which keeps runs deterministic and aligned with the
sampling grid.  simulate_pi_epsilon runs one system through the driver;
the formation module runs the stacked leader-and-followers state through
the same driver.
"""

import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import DivergenceError, InvalidInputError, RankDegeneracyError
from .model import as_state
from .synthesis import check_selection, frozen_control, steering_coefficients
# Not called here: perfbench/tracer.py wraps simulate.held_control by name.
from .synthesis import held_control  # noqa: F401

DIVERGENCE_NORM_CAP = 1e9
# The guard compares squared norms: sqrt is correctly rounded and
# sqrt(1e18) = 1e9 exactly, so x.x <= cap**2 iff ||x|| <= cap.
DIVERGENCE_SQNORM_CAP = DIVERGENCE_NORM_CAP * DIVERGENCE_NORM_CAP
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
        if self.substeps_per_period is not None and self.substeps_per_period < 1:
            raise InvalidInputError("substeps_per_period must be >= 1")
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
        return {
            "rho": self.rho,
            "t1": self.t1,
            "lambda_fit": self.lambda_fit,
            "zeta_fit": self.zeta_fit,
            "monotone_fraction": self.monotone_fraction,
        }


def default_t_final(gains):
    return 50.0 * gains.epsilon * math.ceil(1.0 / (gains.gamma * gains.epsilon))


def default_substeps(kappa_max):
    return 40 * kappa_max


def resolve_config(cfg, gains, kappa_max):
    """Fill in defaulted fields and warn on under-resolved oscillations."""
    nsub = cfg.substeps_per_period
    if nsub is None:
        nsub = default_substeps(kappa_max)
    if nsub < 20 * kappa_max:
        warnings.warn(
            f"substeps_per_period={nsub} resolves the fastest oscillation "
            f"(kappa={kappa_max}) with fewer than 20 sub-steps", RuntimeWarning)
    t_final = cfg.t_final if cfg.t_final is not None else default_t_final(gains)
    return t_final, nsub


def interval_grid(t_final, epsilon):
    """Number of whole sampling intervals and the partial-tail length."""
    n_int = int(math.floor(t_final / epsilon + GRID_SNAP))
    tail = t_final - n_int * epsilon
    if tail <= GRID_SNAP * epsilon:
        tail = 0.0
    return n_int, tail


def _rk4_step(rhs, t, x, h):
    k1 = rhs(t, x)
    k2 = rhs(t + 0.5 * h, x + (0.5 * h) * k1)
    k3 = rhs(t + 0.5 * h, x + (0.5 * h) * k2)
    k4 = rhs(t + h, x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


class _Recorder:
    """Lists of the dense grid and sampling instants of one run.

    record() stores control(held, t) beside each dense point; build() hands
    the recorder to the caller's build(recorder), which assembles the
    caller's trajectory type from the lists.
    """

    def __init__(self, control, build):
        self.control = control
        self._build = build
        self.times = []
        self.states = []
        self.controls = []
        self.intervals = []
        self.sample_times = []
        self.sample_states = []

    def record(self, t, x, j, held):
        self.times.append(t)
        self.states.append(x.copy())
        self.controls.append(self.control(held, t))
        self.intervals.append(j)

    def build(self):
        return self._build(self)


def _guard_state(x, t, what="state"):
    # x.dot(x) is the sum np.linalg.norm takes the root of; NaN and inf
    # fail the comparison.
    if x.dot(x) <= DIVERGENCE_SQNORM_CAP:
        return
    raise DivergenceError(
        f"{what} diverged at t={t:.6g} (non-finite or norm > {DIVERGENCE_NORM_CAP:g})",
        t=t, state=x.copy())


def _closed_loop_rhs(sys, u_of):
    """The field f0(t, x) + sum_k u_k(t) f_k(x), u = u_of(t) a frozen control."""
    drift = sys.drift
    fields = sys.control_fields
    m = sys.m

    def rhs(t, state):
        u = u_of(t)
        out = np.array(drift(t, state), dtype=float)
        for k in range(m):
            uk = u[k]
            if uk != 0.0:
                out += uk * np.asarray(fields[k](state), dtype=float)
        return out

    return rhs


def _run_sampled(cfg, gains, kappa_max, x0, steer, rhs_for, control, guard, build):
    """Integrate a sampled closed loop from x0; the package's one clock.

    At each sampling instant tau_j = j * epsilon the held value
    steer(x(tau_j)) is computed; over [tau_j, tau_j + epsilon) the field
    rhs_for(held) is integrated with nsub RK4 sub-steps while its time
    argument runs on.  A final partial interval ends exactly at t_final.
    guard(x, t) runs after every sub-step.  A dense point (t, x, interval,
    control(held, t)) is recorded at t = 0, every cfg.record_stride
    sub-steps and at the end of the horizon.  Returns build(recorder); a
    DivergenceError or RankDegeneracyError leaves with build(recorder) of
    the run so far attached as .partial.
    """
    eps = gains.epsilon
    t_final, nsub = resolve_config(cfg, gains, kappa_max)
    n_int, tail = interval_grid(t_final, eps)
    n_intervals = n_int + (1 if tail > 0.0 else 0)
    if n_intervals == 0:
        raise InvalidInputError(f"t_final={t_final} is too short for epsilon={eps}")
    total_substeps = n_intervals * nsub
    stride = cfg.record_stride

    rec = _Recorder(control, build)
    x = x0
    try:
        rec.sample_times.append(0.0)
        rec.sample_states.append(x.copy())
        held = steer(x)
        rec.record(0.0, x, 0, held)
        g = 0  # global sub-step counter, drives record_stride
        for j in range(n_intervals):
            is_tail = j == n_int
            h = (tail if is_tail else eps) / nsub
            base_t = j * eps
            # Boundary instants use the grid expression, not accumulated
            # sub-steps, to match the sampling clock exactly.
            t_end = t_final if is_tail else (j + 1) * eps
            rhs = rhs_for(held)
            for i in range(1, nsub + 1):
                x = _rk4_step(rhs, base_t + (i - 1) * h, x, h)
                g += 1
                t = base_t + i * h if i < nsub else t_end
                guard(x, t)
                k = j
                if i == nsub and not is_tail:
                    # Sampling instant tau_{j+1}: resample the held value.
                    rec.sample_times.append(t)
                    rec.sample_states.append(x.copy())
                    held = steer(x)
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
    if cfg is None:
        cfg = SimConfig()
    check_selection(sys, sel)
    x0 = as_state(x0, sys.n)
    if sys.domain_check is not None and not sys.domain_check(x0):
        raise InvalidInputError("x0 lies outside the system's declared domain")
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
            sample_states=np.array(rec.sample_states),
            dense_times=np.array(rec.times),
            dense_states=states,
            dense_controls=np.array(rec.controls).reshape(-1, m),
            y_error=y_err,
            interval_index=np.array(rec.intervals, dtype=int),
        )

    return _run_sampled(
        cfg, gains, sel.kappa_max, x0,
        steer=lambda x: frozen_control(sel, eps, m, steering_coefficients(sys, sel, gains, x)),
        rhs_for=lambda u_of: _closed_loop_rhs(sys, u_of),
        control=lambda u_of, t: u_of(t),
        guard=_guard_state,
        build=build)


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


def epsilon_sweep(sys, sel, gains_base, x0, t_final, eps_list,
                  substeps_per_period=None):
    """Max sampled deviation from the averaged flow, one row per epsilon.

    eps_list must be strictly decreasing and positive; returns a list of
    (epsilon, max_j ||y(tau_j) - yhat(tau_j)||) rows.  Every run uses
    SimConfig(t_final, substeps_per_period); None fields take the defaults.
    """
    eps_list = [float(e) for e in eps_list]
    if not eps_list:
        raise InvalidInputError("eps_list must be non-empty")
    if any(e <= 0 for e in eps_list):
        raise InvalidInputError("eps_list entries must be > 0")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise InvalidInputError("eps_list must be strictly decreasing")
    x0 = as_state(x0, sys.n)
    y0 = x0[: sys.n1]
    cfg = SimConfig(t_final=t_final, substeps_per_period=substeps_per_period)
    rows = []
    for e in eps_list:
        gains = replace(gains_base, epsilon=e)
        traj = simulate_pi_epsilon(sys, sel, gains, x0, cfg)
        dev = 0.0
        for tau, state in zip(traj.sample_times, traj.sample_states):
            ref = averaged_reference(y0, gains, float(tau))
            dev = max(dev, float(np.linalg.norm(state[: sys.n1] - ref)))
        rows.append((e, dev))
    return rows
