"""Leader-following formations.

Each follower is a control-affine agent steered so that its state tracks
the leader's state plus a fixed offset.  Stacking the displacement
variables y_l = x_l - x_L - d_l turns the formation into one partial
stabilization problem whose extension matrix is block-diagonal.  A run
hands simulate's sampled-loop engine the rows (x_L, x_1, ..., x_N): row 0
is the leader's field with no control, row l + 1 agent l's f0 + sum_k u_k f_k
held at its own frozen pair (x_l(tau_j), x_L(tau_j)).  The engine advances
each row by its own RK4 sub-step, so each row follows exactly the
trajectory it would have alone.  simulate_leader is the same run with no
followers.
"""

import math
from dataclasses import asdict, dataclass, replace
from typing import Callable

import numpy as np

from .errors import InvalidInputError, RankDegeneracyError
from .model import as_state
from .simulate import (SampledTrajectory, SimConfig, _check_field_length, _check_field_lengths,
                       _run_sampled)
from .synthesis import _steer, check_selection, frozen_control, held_control
# Not called here: perfbench/tracer.py wraps formation._guard, _rk4_step,
# extension_matrix and _solve_steering by name.
from .simulate import _guard_state as _guard, _rk4_step  # noqa: F401
from .synthesis import extension_matrix, _solve_steering  # noqa: F401


@dataclass(frozen=True)
class FollowerAgent:
    """A follower: its own system, bracket selection, gain, and offset.

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
        if not self.gamma > 0:
            raise InvalidInputError(f"agent gamma must be > 0, got {self.gamma}")
        offset = tuple(float(v) for v in np.atleast_1d(self.offset))
        if len(offset) != self.system.n:
            raise InvalidInputError(
                f"offset has dimension {len(offset)}, expected {self.system.n}")
        if not np.isfinite([self.gamma, *offset]).all():
            raise InvalidInputError(f"agent gamma {self.gamma} and offset {offset} must be finite")
        object.__setattr__(self, "offset", offset)

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
        object.__setattr__(self, "x0", tuple(float(v) for v in np.atleast_1d(self.x0)))
        if not np.isfinite(self.x0).all():
            raise InvalidInputError(f"x0 must be finite, got {self.x0}")

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
    check_selection(agent.system, agent.selection)
    return _steer(agent.system, agent.selection, x_agent,
                  x_agent - x_leader - agent.offset_vec(), agent.gamma, gains.cond_cap)


def follower_controller(agent, gains):
    """Controller (t, x_agent, x_leader) -> u for one agent.

    Same control family as the single-system law, with y - y* replaced by
    the displacement from the leader-plus-offset target.
    """
    check_selection(agent.system, agent.selection)
    m = agent.system.m
    eps = gains.epsilon

    def controller(t, x_agent, x_leader):
        a = follower_steering(agent, gains, x_agent, x_leader)
        return held_control(agent.selection, eps, m, a, t)

    return controller


def formation_error(traj, agent_index):
    """Dense ||x_l(t) - x_L(t) - d_l|| series for one agent."""
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
    agents = tuple(agents)
    if not agents:
        raise InvalidInputError("at least one agent is required")
    p = agents[0].system.n
    for agent in agents:
        if agent.system.n != p:
            raise InvalidInputError("all agents must share one state dimension")
        check_selection(agent.system, agent.selection)
    x0s = [as_state(x0, p) for x0 in x0s]
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
    cfg = replace(SimConfig() if cfg is None else cfg, record_stride=1)
    ftraj = _simulate_stacked((), leader, (), gains, cfg, kappa_max)
    return ftraj.dense_times, ftraj.leader_states


def _no_control(ts):
    """The leader's control table: no entries at any time."""
    return np.empty((len(ts), 0))


def _simulate_stacked(agents, leader, x0s, gains, cfg, kappa_max):
    """Run the stacked state, row 0 the leader and row l + 1 agent l."""
    eps = gains.epsilon
    x0 = np.array([leader.x0_vec(), *x0s])
    n_rows, p = x0.shape
    ms = [agent.system.m for agent in agents]
    _check_field_length(leader.dynamics(0.0, leader.x0_vec()), p, "leader field")
    rows = [("leader", leader.dynamics, ())]
    for idx, (agent, x) in enumerate(zip(agents, x0s)):
        _check_field_lengths(agent.system, x, f"agent {idx} ")
        rows.append((f"agent {idx}", agent.system.drift, agent.system.control_fields))

    def steer(row_states):
        held = [_no_control]
        for idx, agent in enumerate(agents):
            try:
                a = follower_steering(agent, gains, row_states[idx + 1], row_states[0])
            except RankDegeneracyError as exc:
                exc.agent_index = idx
                raise
            held.append(frozen_control(agent.selection, eps, agent.system.m, a))
        return held

    def build(rec):
        dense = np.array(rec.states).reshape(-1, n_rows, p)
        samples = np.array(rec.sample_states).reshape(-1, n_rows, p)
        sample_times = np.array(rec.sample_times)
        dense_times = np.array(rec.times)
        intervals = np.array(rec.intervals, dtype=int)
        controls = np.split(np.array(rec.controls).reshape(len(dense_times), sum(ms)),
                            np.cumsum(ms)[:-1], axis=1)
        leader_states = dense[:, 0]
        leader_samples = samples[:, 0]
        agent_trajs = []
        displacement_trajs = []
        errors = []
        for idx, agent in enumerate(agents):
            states = dense[:, idx + 1]
            d = agent.offset_vec()
            disp_dense = states - leader_states - d
            err = np.linalg.norm(disp_dense, axis=1)
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


def gain_condition_report(leader, agents, rho, dense_times, leader_states):
    """Check gamma_l > sup_t ||f(t, x_L(t))|| / rho along a leader path."""
    if not rho > 0:
        raise InvalidInputError(f"rho must be > 0, got {rho}")
    sup = 0.0
    for t, xL in zip(dense_times, leader_states):
        v = np.asarray(leader.dynamics(float(t), xL), float)
        sup = max(sup, math.sqrt(v.dot(v)))
    rows = []
    for idx, agent in enumerate(agents):
        rows.append(GainConditionRow(
            agent_index=idx, gamma=agent.gamma, sup_leader_speed=sup,
            rho=float(rho), satisfied=agent.gamma > sup / rho))
    return tuple(rows)
