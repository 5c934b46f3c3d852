"""Leader-following formations.

Each follower is a control-affine agent steered so that its state tracks
the leader's state plus a fixed offset.  Stacking the displacement
variables y_l = x_l - x_L - d_l turns the formation into one partial
stabilization problem whose extension matrix is block-diagonal.  A run
hands simulate's sampled-loop engine the rows (x_L, x_1, ..., x_N): row 0
is the leader's field with no control, an open-loop row the engine advances
a chunk of table blocks at a time, row l + 1 agent l's f0 + sum_k u_k f_k
held at its own frozen pair (x_l(tau_j), x_L(tau_j)).  The blocks are
independent, so the followers are steered and advanced in groups: each run
of consecutive agents that share one system object and an equal selection
takes one steering step (synthesis._SteeringPlan.held, the single-system
run's too) and so one control table per sampling instant, and one block
kernel call per table block.  The engine advances each row by its own RK4
sub-step, bit for bit, so each row follows exactly the trajectory it would
have alone.  simulate_leader is the same run with no followers.
"""

import math
from dataclasses import asdict, dataclass, replace
from typing import Callable

import numpy as np

from . import library
from .errors import InvalidInputError, NonFiniteError
from .model import (BLOCK_VALUES, _as_count, _as_finite_reals, _as_int, _as_list, _as_positive,
                    _as_reals, as_state)
from .simulate import (SampledTrajectory, SimConfig, _check_field_length, _check_field_lengths,
                       _error_norms, _run_sampled)
from .synthesis import _plan, held_control
# Not called here: perfbench/tracer.py wraps formation._guard, _rk4_step,
# extension_matrix and _solve_steering by name.
from .simulate import _guard_state as _guard, _rk4_step  # noqa: F401
from .synthesis import extension_matrix, _solve_steering  # noqa: F401


@dataclass(frozen=True)
class FollowerAgent:
    """A follower: its own system, bracket selection, gain, and offset, the
    gain stored as the float and the offset as the tuple of floats their
    gates return.

    The agent's whole state is the stabilized block (n2 = 0); offset d is
    the desired displacement from the leader.
    """

    system: object
    selection: object
    gamma: float
    offset: tuple

    def __post_init__(self):
        if self.system.n2 != 0:
            raise InvalidInputError(
                f"follower systems must have n2 = 0, got n2 = {self.system.n2}")
        object.__setattr__(self, "gamma", _as_positive(self.gamma, "gamma"))
        object.__setattr__(self, "offset", _as_finite_reals(self.offset, "offset"))
        if len(self.offset) != self.system.n:
            raise InvalidInputError(
                f"offset has dimension {len(self.offset)}, expected {self.system.n}")

    def offset_vec(self):
        return np.array(self.offset, dtype=float)


@dataclass(frozen=True)
class LeaderModel:
    """Leader dynamics dx_L/dt = f(t, x_L) with its initial state.

    name identifies the dynamics in the field registry so scenarios can be
    serialized; dynamics must stay bounded along simulated paths (runs are
    divergence-guarded, not proven safe).
    """

    name: str
    dynamics: Callable[[float, np.ndarray], np.ndarray]
    x0: tuple

    def __post_init__(self):
        object.__setattr__(self, "x0", _as_finite_reals(self.x0, "x0"))

    def x0_vec(self):
        return np.array(self.x0, dtype=float)


@dataclass(frozen=True, eq=False)
class FormationTrajectory:
    """Shared-grid record of a formation run.

    agent_trajs hold each agent's own states; their y_error series (and
    error_series here) are the displacement norms ||x_l - x_L - d_l|| on the
    dense grid, which are exactly the stacked system's stabilization errors.
    displacement_trajs hold the same runs expressed in displacement
    coordinates, ready for decay_report with target zero.
    """

    epsilon: float
    dense_times: np.ndarray
    leader_states: np.ndarray
    sample_times: np.ndarray
    leader_samples: np.ndarray
    agent_trajs: tuple
    displacement_trajs: tuple
    error_series: tuple


@dataclass(frozen=True)
class GainConditionRow:
    """Empirical check of the gain bound gamma > sup_t ||f(t, x_L)|| / rho."""

    agent_index: int
    gamma: float
    sup_leader_speed: float
    rho: float
    satisfied: bool

    def to_dict(self):
        return asdict(self)


def follower_steering(agent, gains, x_agent, x_leader):
    """a = -gamma_agent * F(x_agent)^{-1} (x_agent - x_leader - d)."""
    p = agent.system.n
    x_agent = as_state(x_agent, p)
    x_leader = as_state(x_leader, p)
    plan = _plan(agent.system, agent.selection)
    # x - x_L - d in Python floats: the same subtractions as numpy's.
    r = [(v - vl) - d for v, vl, d in zip(x_agent.tolist(), x_leader.tolist(), agent.offset)]
    return plan.solve(x_agent, r, agent.gamma, gains.cond_cap)


def follower_controller(agent, gains):
    """Controller (t, x_agent, x_leader) -> u for one agent.

    Same control family as the single-system law, with y - y* replaced by
    the displacement from the leader-plus-offset target.
    """
    _plan(agent.system, agent.selection)

    def controller(t, x_agent, x_leader):
        a = follower_steering(agent, gains, x_agent, x_leader)
        return held_control(agent.selection, gains.epsilon, agent.system.m, a, t)

    return controller


def formation_error(traj, agent_index):
    """Dense ||x_l(t) - x_L(t) - d_l|| series for one agent."""
    agent_index = _as_int(agent_index, "agent_index")
    if not 0 <= agent_index < len(traj.error_series):
        raise InvalidInputError(
            f"agent_index {agent_index} out of range 0..{len(traj.error_series) - 1}")
    return traj.error_series[agent_index]


def simulate_formation(agents, leader, x0s, gains, cfg=None):
    """Integrate the leader and every agent together, on one grid.

    Per the sampling semantics, each agent's control over
    [tau_j, tau_j + epsilon) is built from the frozen pair
    (x_l(tau_j), x_L(tau_j)).  Agents never interact, so a joint run is
    state-for-state identical to simulating each agent alone.  A
    DivergenceError or RankDegeneracyError carries the FormationTrajectory
    up to the failure as .partial; a RankDegeneracyError also names the
    agent in .agent_index.
    """
    agents = tuple(_as_list(agents, "agents"))
    if not agents:
        raise InvalidInputError("at least one agent is required")
    p = agents[0].system.n
    for agent in agents:
        if agent.system.n != p:
            raise InvalidInputError("all agents must share one state dimension")
        _plan(agent.system, agent.selection)
    x0s = [as_state(x0, p) for x0 in _as_list(x0s, "x0s")]
    if len(x0s) != len(agents):
        raise InvalidInputError(f"got {len(x0s)} initial states for {len(agents)} agents")
    if len(leader.x0) != p:
        raise InvalidInputError(
            f"leader state has dimension {len(leader.x0)}, agents have {p}")
    kappa_max = max(agent.selection.kappa_max for agent in agents)
    return _simulate_stacked(agents, leader, x0s, gains, cfg, kappa_max)


def simulate_leader(leader, gains, cfg=None, kappa_max=1):
    """Integrate the leader alone on the sampling-aligned grid.

    Returns (dense_times, dense_states) with every sub-step recorded; used
    by the scenario validator when no full formation run is wanted.
    """
    kappa_max = _as_count(kappa_max, "kappa_max")
    cfg = replace(SimConfig() if cfg is None else cfg, record_stride=1)
    ftraj = _simulate_stacked((), leader, (), gains, cfg, kappa_max)
    return ftraj.dense_times, ftraj.leader_states


def _follower_groups(agents):
    """The runs of consecutive agents that share one system object and an
    equal selection, as (index of the first, agents) pairs."""
    groups = []
    for idx, agent in enumerate(agents):
        if groups and (agent.system is groups[-1][1][0].system
                       and agent.selection == groups[-1][1][0].selection):
            groups[-1][1].append(agent)
        else:
            groups.append((idx, [agent]))
    return groups


def _simulate_stacked(agents, leader, x0s, gains, cfg, kappa_max):
    """Run the stacked state, row 0 the leader and row l + 1 agent l.

    The followers advance in groups (_follower_groups), each with its
    pair's steering plan (synthesis._plan) for the run: at each sampling
    instant a group takes the plan's held, one control table for all its
    agents from their residuals x_l - x_L - d_l, and the engine advances
    it by one block kernel call per table block.  The leader, row 0, has
    no control fields, so steer gives it no control: the engine advances
    it as an open-loop row.  held raises the first failure in agent order,
    a RankDegeneracyError naming its agent_index.
    """
    eps = gains.epsilon
    x0 = np.array([leader.x0_vec(), *x0s])
    n_rows, p = x0.shape
    ms = [agent.system.m for agent in agents]
    _check_field_length(leader.dynamics(0.0, leader.x0_vec()), p, "leader field")
    for idx, (agent, x) in enumerate(zip(agents, x0s)):
        _check_field_lengths(agent.system, x, f"agent {idx} ")
    groups = _follower_groups(agents)
    rows = [(("leader",), leader.dynamics, ())]
    rows += [(tuple(f"agent {idx}" for idx in range(lo, lo + len(group))),
              group[0].system.drift, group[0].system.control_fields) for lo, group in groups]
    plans = [_plan(group[0].system, group[0].selection) for _, group in groups]
    offsets = [np.array([agent.offset for agent in group]) for _, group in groups]
    gammas = [[agent.gamma for agent in group] for _, group in groups]

    def steer(X):
        held = []
        for (lo, group), plan, d, gamma in zip(groups, plans, offsets, gammas):
            Xg = X[lo + 1:lo + 1 + len(group)]
            held.append(plan.held(Xg, Xg - X[0] - d, gamma, gains.cond_cap, eps,
                                  range(lo, lo + len(group))))
        return held

    def build(rec):
        dense = np.frombuffer(rec.states).reshape(-1, n_rows, p)
        samples = np.frombuffer(rec.sample_states).reshape(-1, n_rows, p)
        sample_times = np.frombuffer(rec.sample_times)
        dense_times = np.frombuffer(rec.times)
        intervals = np.frombuffer(rec.intervals, dtype=np.int64)
        controls = np.split(np.frombuffer(rec.controls).reshape(len(dense_times), sum(ms)),
                            np.cumsum(ms)[:-1], axis=1)
        leader_states = dense[:, 0]
        leader_samples = samples[:, 0]
        agent_trajs = []
        displacement_trajs = []
        errors = []
        for idx, agent in enumerate(agents):
            states = dense[:, idx + 1]
            d = agent.offset_vec()
            # (x - x_L) - d, rounded as states - leader_states - d is, with
            # no second whole-run temporary.
            disp_dense = np.subtract(states, leader_states)
            disp_dense -= d
            err = _error_norms(disp_dense, 0.0)
            shared = dict(epsilon=eps, n1=p, sample_times=sample_times,
                          dense_times=dense_times, dense_controls=controls[idx],
                          y_error=err, interval_index=intervals)
            agent_trajs.append(SampledTrajectory(
                sample_states=samples[:, idx + 1], dense_states=states, **shared))
            displacement_trajs.append(SampledTrajectory(
                sample_states=samples[:, idx + 1] - leader_samples - d,
                dense_states=disp_dense, **shared))
            errors.append(err)
        return FormationTrajectory(
            epsilon=eps,
            dense_times=dense_times,
            leader_states=leader_states,
            sample_times=sample_times,
            leader_samples=leader_samples,
            agent_trajs=tuple(agent_trajs),
            displacement_trajs=tuple(displacement_trajs),
            error_series=tuple(errors),
        )

    return _run_sampled(cfg, gains, kappa_max, x0, rows, steer, build)


def _leader_speeds(leader, dense_times, leader_states):
    """||f(t, x_L(t))|| = sqrt(v . v) at each dense point, as an array, one
    per leader state: unequal counts are refused.

    The figure-eight leader, chosen by identity, fills the speeds one block
    of BLOCK_VALUES times at a time, in numpy passes over the times
    (np.vecdot sums v . v as v.dot(v) does on a 3-vector); any other field
    is called point by point.  A NaN speed raises NonFiniteError naming the
    first such t, on either path.
    """
    try:
        times = np.asarray(dense_times, dtype=float)
    except (TypeError, ValueError, OverflowError):  # the gate names the entry at fault
        times = np.array(_as_reals(dense_times, "dense_times"))
    if len(times) != len(leader_states):
        raise InvalidInputError(
            f"got {len(times)} dense_times for {len(leader_states)} leader_states")
    if leader.dynamics is library._figure_eight:
        speeds = np.empty(len(times))
        with np.errstate(invalid="ignore"):
            for lo in range(0, len(times), BLOCK_VALUES):
                v = library._figure_eight_velocities(times[lo:lo + BLOCK_VALUES])
                speeds[lo:lo + BLOCK_VALUES] = np.sqrt(np.vecdot(v, v))
        nan = np.flatnonzero(np.isnan(speeds))
        if nan.size:
            raise _nan_speed(leader, times[nan[0]])
        return speeds
    speeds = []
    for t, xL in zip(times.tolist(), leader_states):
        v = np.asarray(leader.dynamics(t, xL), float)
        speed = math.sqrt(v.dot(v))
        if math.isnan(speed):
            raise _nan_speed(leader, t)
        speeds.append(speed)
    return np.array(speeds)


def _nan_speed(leader, t):
    return NonFiniteError(f"leader field {leader.name!r} returned NaN at t={float(t):.6g}")


def gain_condition_report(leader, agents, rho, dense_times, leader_states):
    """Check gamma_l > sup_t ||f(t, x_L(t))|| / rho along a leader path,
    for a rho finite and > 0.

    A leader speed of NaN at any point raises NonFiniteError naming t: max()
    would keep the supremum so far and report the condition as met.
    """
    rho = _as_positive(rho, "rho")
    agents = _as_list(agents, "agents")
    dense_times = _as_list(dense_times, "dense_times")
    leader_states = _as_list(leader_states, "leader_states")
    sup = float(_leader_speeds(leader, dense_times, leader_states).max(initial=0.0))
    return tuple(GainConditionRow(agent_index=idx, gamma=agent.gamma, sup_leader_speed=sup,
                                  rho=rho, satisfied=agent.gamma > sup / rho)
                 for idx, agent in enumerate(agents))
