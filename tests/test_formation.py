import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from bracket_steer import (ControllerGains, DivergenceError, FollowerAgent,
                           FormationTrajectory, InvalidInputError,
                           LeaderModel, NonFiniteError, RankDegeneracyError, SimConfig,
                           follower_controller, follower_steering,
                           formation_error, gain_condition_report, leader_field,
                           simulate_formation, simulate_leader, simulate_pi_epsilon)
from bracket_steer import builtin_scenario, library, simulate
from bracket_steer import formation as formation_module

from bracket_steer.simulate import DIVERGENCE_NORM_CAP, _guard_state

from oracles import control_series, guard_accepts_reference, pi_eps_solve


FIG8_X0 = (0.0, 0.0, math.pi / 4)
AGENT_X0 = np.array([1.0, 0.5, 0.0])
OFFSET = (0.1, 0.1, 0.0)


@pytest.fixture
def uni_agent(uni, uni_sel):
    return FollowerAgent(system=uni, selection=uni_sel, gamma=10.0, offset=OFFSET)


@pytest.fixture
def fig8_leader():
    return LeaderModel(name="figure-eight", dynamics=leader_field("figure-eight"),
                       x0=FIG8_X0)


@pytest.fixture
def still_leader():
    # Dyadic coordinates so x0 = xL + d has exactly zero displacement.
    return LeaderModel(name="stationary", dynamics=leader_field("stationary"),
                       x0=(0.5, -0.5, 0.25))


@pytest.fixture
def dyadic_agent(uni, uni_sel):
    return FollowerAgent(system=uni, selection=uni_sel, gamma=10.0,
                         offset=(0.25, 0.5, 0.0))


@pytest.fixture
def form_gains():
    return ControllerGains(epsilon=0.1, gamma=10.0, y_star=(0.0, 0.0, 0.0))


def test_agent_validation(uni, uni_sel, disc, disc_sel):
    with pytest.raises(InvalidInputError):
        FollowerAgent(system=disc, selection=disc_sel, gamma=1.0,
                      offset=(0.0, 0.0, 0.0, 0.0))  # n2 != 0
    with pytest.raises(InvalidInputError):
        FollowerAgent(system=uni, selection=uni_sel, gamma=0.0, offset=OFFSET)
    with pytest.raises(InvalidInputError):
        FollowerAgent(system=uni, selection=uni_sel, gamma=1.0, offset=(0.0, 0.0))


def test_follower_steering_worked_values(uni_agent, form_gains):
    # displacement (0.9, 0.4, -pi/4) at zero heading:
    # a1 = -10 * 0.9, a2 = -10 * (-pi/4), a12 = -10 * (-0.4).
    a = follower_steering(uni_agent, form_gains, AGENT_X0, np.array(FIG8_X0))
    assert np.allclose(a, [-9.0, 2.5 * math.pi, 4.0], atol=1e-12)


def test_follower_zero_displacement(dyadic_agent, form_gains, still_leader):
    xL = still_leader.x0_vec()
    x = xL + dyadic_agent.offset_vec()
    ctrl = follower_controller(dyadic_agent, form_gains)
    for t in (0.0, 0.013, 0.05, 0.099):
        assert np.array_equal(ctrl(t, x, xL), np.zeros(2))


def test_follower_controller_periodicity(uni_agent, form_gains):
    # Frozen arguments: shifting t by whole periods reproduces the control.
    ctrl = follower_controller(uni_agent, form_gains)
    xL = np.array(FIG8_X0)
    eps = form_gains.epsilon
    for t in (0.0, 0.025, 0.075):
        u0 = ctrl(t, AGENT_X0, xL)
        ushift = ctrl(t + 4 * eps, AGENT_X0, xL)
        # 0.1 is not dyadic, so allow one ulp of phase slip.
        assert np.allclose(u0, ushift, rtol=1e-9, atol=1e-9)


def test_follower_controller_matches_series(uni_agent, form_gains):
    sel = uni_agent.selection
    eps = form_gains.epsilon
    a = follower_steering(uni_agent, form_gains, AGENT_X0, np.array(FIG8_X0))
    series = control_series(2, sel.s1, sel.s2, sel.kappa, eps, a)
    ctrl = follower_controller(uni_agent, form_gains)
    for t in np.linspace(0.0, 2 * eps, 23):
        assert np.allclose(ctrl(t, AGENT_X0, np.array(FIG8_X0)), series(t),
                           atol=1e-9)


def test_exact_formation_stationary_leader(dyadic_agent, form_gains, still_leader):
    x0 = still_leader.x0_vec() + dyadic_agent.offset_vec()
    traj = simulate_formation([dyadic_agent], still_leader, [x0], form_gains,
                              SimConfig(t_final=1.0))
    assert np.array_equal(traj.agent_trajs[0].dense_states,
                          np.tile(x0, (traj.dense_times.shape[0], 1)))
    assert np.array_equal(formation_error(traj, 0),
                          np.zeros(traj.dense_times.shape[0]))


def test_initial_error_worked_value(uni_agent, form_gains, fig8_leader):
    traj = simulate_formation([uni_agent], fig8_leader, [AGENT_X0], form_gains,
                              SimConfig(t_final=0.5))
    err = formation_error(traj, 0)
    want = float(np.linalg.norm([0.9, 0.4, -math.pi / 4]))
    assert err[0] == want
    assert abs(want - 1.25664) < 0.01


def test_formation_convergence(uni_agent, form_gains, fig8_leader):
    traj = simulate_formation([uni_agent], fig8_leader, [AGENT_X0], form_gains,
                              SimConfig(t_final=40.0, record_stride=4))
    err = formation_error(traj, 0)
    late = err[traj.dense_times >= 30.0]
    assert late.size > 0
    assert float(late.max()) <= 0.3


def test_identical_agents_identical_trajectories(uni_agent, form_gains, fig8_leader):
    traj = simulate_formation([uni_agent, uni_agent], fig8_leader,
                              [AGENT_X0, AGENT_X0], form_gains,
                              SimConfig(t_final=2.0))
    a0, a1 = traj.agent_trajs
    assert np.array_equal(a0.dense_states, a1.dense_states)
    assert np.array_equal(traj.error_series[0], traj.error_series[1])


def test_block_diagonal_equivalence(uni_agent, form_gains, fig8_leader):
    # A joint run must reproduce each agent's solo run bitwise: the stacked
    # extension matrix is block-diagonal and agents only couple through the
    # leader.
    other = FollowerAgent(system=uni_agent.system, selection=uni_agent.selection,
                          gamma=10.0, offset=(-0.2, 0.3, 0.0))
    x0_other = np.array([-0.5, 0.1, 0.4])
    joint = simulate_formation([uni_agent, other], fig8_leader,
                               [AGENT_X0, x0_other], form_gains,
                               SimConfig(t_final=3.0))
    solo0 = simulate_formation([uni_agent], fig8_leader, [AGENT_X0], form_gains,
                               SimConfig(t_final=3.0))
    solo1 = simulate_formation([other], fig8_leader, [x0_other], form_gains,
                               SimConfig(t_final=3.0))
    assert np.array_equal(joint.agent_trajs[0].dense_states,
                          solo0.agent_trajs[0].dense_states)
    assert np.array_equal(joint.agent_trajs[1].dense_states,
                          solo1.agent_trajs[0].dense_states)
    assert np.array_equal(joint.leader_states, solo0.leader_states)
    assert np.array_equal(joint.error_series[0], solo0.error_series[0])

    # 16 seeded followers, one group with one stacked solve, control table
    # and kernel call per step, and a mixed formation whose groups
    # interleave: a second selection with another kappa, and an agent whose
    # swapped field (an equal function) puts the run on the generic path.
    # Every array of every agent is bitwise that agent's run alone, on the
    # same grid.
    rng = np.random.default_rng(16)
    uni, sel = uni_agent.system, uni_agent.selection
    swarm = [FollowerAgent(system=uni, selection=sel, gamma=float(g), offset=tuple(d))
             for g, d in zip(rng.uniform(5.0, 15.0, 16), rng.uniform(-1.0, 1.0, (16, 3)))]
    swarm_x0 = list(rng.uniform(-2.0, 2.0, (16, 3)))
    fast = dataclasses.replace(sel, kappa=(2,))
    swapped = dataclasses.replace(uni, control_fields=(
        lambda x: uni.control_fields[0](x), uni.control_fields[1]))
    mixed = [swarm[0], dataclasses.replace(swarm[1], selection=fast), swarm[2], swarm[3],
             dataclasses.replace(swarm[4], system=swapped), dataclasses.replace(
                 swarm[5], selection=fast), dataclasses.replace(swarm[6], selection=fast),
             swarm[7]]
    assert len(formation_module._follower_groups(mixed)) == 6
    cfg = SimConfig(t_final=0.6, substeps_per_period=80, record_stride=3)
    for agents, x0s in ((swarm, swarm_x0), (mixed, swarm_x0[:len(mixed)])):
        joint = simulate_formation(agents, fig8_leader, x0s, form_gains, cfg)
        for agent, x0, got, disp in zip(agents, x0s, joint.agent_trajs,
                                        joint.displacement_trajs, strict=True):
            solo = simulate_formation([agent], fig8_leader, [x0], form_gains, cfg)
            assert solo.leader_states.tobytes() == joint.leader_states.tobytes()
            for name in ("dense_times", "dense_states", "dense_controls", "y_error",
                         "sample_times", "sample_states", "interval_index"):
                for g, w in ((got, solo.agent_trajs[0]), (disp, solo.displacement_trajs[0])):
                    assert getattr(g, name).tobytes() == getattr(w, name).tobytes(), name


def test_follower_drift_is_integrated(uni, uni_sel):
    # Following a still leader at the origin with zero offset is the
    # single-system loop with target zero, the agent's drift included.
    windy = dataclasses.replace(uni, name="windy-unicycle",
                                drift=lambda t, x: np.array([0.3, 0.0, 0.0]))
    agent = FollowerAgent(system=windy, selection=uni_sel, gamma=2.0,
                          offset=(0.0, 0.0, 0.0))
    origin = LeaderModel(name="stationary", dynamics=leader_field("stationary"),
                         x0=(0.0, 0.0, 0.0))
    gains = ControllerGains(epsilon=0.1, gamma=2.0, y_star=(0.0, 0.0, 0.0))
    cfg = SimConfig(t_final=1.0)
    joint = simulate_formation([agent], origin, [AGENT_X0], gains, cfg)
    solo = simulate_pi_epsilon(windy, uni_sel, gains, AGENT_X0, cfg)
    assert np.array_equal(joint.agent_trajs[0].dense_states, solo.dense_states)
    assert np.array_equal(joint.agent_trajs[0].dense_controls, solo.dense_controls)


def test_error_invariant_under_relabeling(uni_agent, form_gains, fig8_leader):
    other = FollowerAgent(system=uni_agent.system, selection=uni_agent.selection,
                          gamma=10.0, offset=(-0.2, 0.3, 0.0))
    x0_other = np.array([-0.5, 0.1, 0.4])
    ab = simulate_formation([uni_agent, other], fig8_leader,
                            [AGENT_X0, x0_other], form_gains,
                            SimConfig(t_final=1.0))
    ba = simulate_formation([other, uni_agent], fig8_leader,
                            [x0_other, AGENT_X0], form_gains,
                            SimConfig(t_final=1.0))
    assert np.array_equal(ab.error_series[0], ba.error_series[1])
    assert np.array_equal(ab.error_series[1], ba.error_series[0])


def test_offset_shift_covariance(uni_agent, form_gains, fig8_leader):
    # Translating d and x(0) by the same planar vector translates the whole
    # trajectory: the unicycle fields do not depend on x1, x2.
    shift = np.array([0.7, -1.1, 0.0])
    shifted_agent = FollowerAgent(
        system=uni_agent.system, selection=uni_agent.selection, gamma=10.0,
        offset=tuple(uni_agent.offset_vec() + shift))
    base = simulate_formation([uni_agent], fig8_leader, [AGENT_X0], form_gains,
                              SimConfig(t_final=2.0))
    moved = simulate_formation([shifted_agent], fig8_leader, [AGENT_X0 + shift],
                               form_gains, SimConfig(t_final=2.0))
    assert np.allclose(moved.agent_trajs[0].dense_states,
                       base.agent_trajs[0].dense_states + shift, atol=1e-10)
    assert np.allclose(moved.error_series[0], base.error_series[0], atol=1e-10)


def test_displacement_trajs_feed_decay_report(uni_agent, form_gains, fig8_leader):
    from bracket_steer import decay_report
    traj = simulate_formation([uni_agent], fig8_leader, [AGENT_X0], form_gains,
                              SimConfig(t_final=10.0, record_stride=4))
    rep = decay_report(traj.displacement_trajs[0], form_gains, rho=0.3)
    assert rep.t1 < 10.0
    assert rep.lambda_fit is None or rep.lambda_fit > 0


def test_leader_path_and_gain_condition(uni_agent, form_gains, fig8_leader):
    times, states = simulate_leader(fig8_leader, form_gains,
                                    SimConfig(t_final=60.0), kappa_max=1)
    # The final instant is the grid point fl(600 * 0.1), one ulp off 60.
    assert times[0] == 0.0 and times[-1] == 600 * 0.1
    assert np.array_equal(states[0], fig8_leader.x0_vec())
    rows = gain_condition_report(fig8_leader, [uni_agent], 0.3, times, states)
    assert len(rows) == 1
    row = rows[0]
    # sup ||f|| is a touch under 0.4; gamma = 10 clears sup/rho by a wide
    # margin.
    assert 0.28 < row.sup_leader_speed < 0.45
    assert row.satisfied

    weak = FollowerAgent(system=uni_agent.system, selection=uni_agent.selection,
                         gamma=1.0, offset=OFFSET)
    rows = gain_condition_report(fig8_leader, [weak], 0.3, times, states)
    assert not rows[0].satisfied


def test_gain_condition_refuses_a_nan_leader_speed(uni_agent, fig8_leader):
    # max(sup, nan) keeps sup, so a NaN speed would be skipped and the
    # condition reported as met (sup 0.0 for a field NaN everywhere).  It
    # raises NonFiniteError naming the first t where the field is NaN.
    times, states = simulate_leader(fig8_leader, ControllerGains(
        epsilon=0.1, gamma=10.0, y_star=(0.0, 0.0, 0.0)), SimConfig(t_final=1.0))
    bad = times[17]
    for nan_at, first in ((lambda t: True, 0.0), (lambda t: t >= bad, bad)):
        def field(t, x, nan_at=nan_at):
            return (math.nan, 0.0, 0.0) if nan_at(t) else fig8_leader.dynamics(t, x)

        leader = dataclasses.replace(fig8_leader, name="nan-leader", dynamics=field)
        with pytest.raises(NonFiniteError) as info:
            gain_condition_report(leader, [uni_agent], 0.3, times, states)
        assert str(info.value) == f"leader field 'nan-leader' returned NaN at t={first:.6g}"


def test_figure_eight_speeds_match_the_loop_per_point(uni_agent, form_gains, fig8_leader):
    # The figure-eight's speeds come from one numpy pass over the times.
    # At each of the built-in run's 24 001 dense points the speed is, bit
    # for bit, the point-by-point loop's sqrt(v.dot(v)) on the scalar field,
    # which a wrapped field (no identity match) takes; so is the supremum.
    times, states = simulate_leader(fig8_leader, form_gains, SimConfig(t_final=60.0))
    assert times.size == 24_001
    wrapped = dataclasses.replace(fig8_leader, dynamics=lambda t, x: fig8_leader.dynamics(t, x))
    fast = formation_module._leader_speeds(fig8_leader, times, states)
    loop = formation_module._leader_speeds(wrapped, times, states)
    want = np.array([math.sqrt(v.dot(v)) for v in (
        np.asarray(library._figure_eight(float(t), x), float) for t, x in zip(times, states))])
    assert fast.tobytes() == loop.tobytes() == want.tobytes()
    for leader in (fig8_leader, wrapped):
        row, = gain_condition_report(leader, [uni_agent], 0.3, times, states)
        assert row.sup_leader_speed == max(want)
    # On the numpy pass too, a NaN speed (here at a NaN time) raises,
    # naming the first such t.
    times = times[:40].copy()
    times[17:19] = math.nan
    with pytest.raises(NonFiniteError) as info:
        gain_condition_report(fig8_leader, [uni_agent], 0.3, times, states[:40])
    assert str(info.value) == "leader field 'figure-eight' returned NaN at t=nan"


def test_gain_condition_peak_grows_by_the_speeds_only(uni_agent, fig8_leader):
    # The figure-eight's speeds are filled one block of times at a time, so
    # the traced peak of the report grows with the path by the speeds array
    # alone (8 bytes a point); whole-path velocities and their temporaries
    # grew it by about 100 bytes a point.
    peaks = {}
    for n in (100_001, 100_001, 200_001):  # the first call warms every cache
        times = np.arange(n) * 0.0025
        states = np.zeros((n, 3))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            row, = gain_condition_report(fig8_leader, [uni_agent], 0.3, times, states)
            peaks[n] = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert row.sup_leader_speed > 0
    assert peaks[200_001] - peaks[100_001] <= 8 * 200_001, peaks


def test_leader_horizon_too_short(fig8_leader, form_gains):
    with pytest.raises(InvalidInputError, match="too short"):
        simulate_leader(fig8_leader, form_gains, SimConfig(t_final=1e-12))


def test_figure_eight_denominator_bounded():
    # 4 c^4 - 3 c^2 + 1 attains its minimum 7/16 at c^2 = 3/8.
    f = leader_field("figure-eight")
    vals = []
    for t in np.linspace(0.0, 20 * math.pi, 4001):
        c2 = math.cos(0.1 * t) ** 2
        vals.append(4.0 * c2 * c2 - 3.0 * c2 + 1.0)
    assert min(vals) >= 7.0 / 16.0 - 1e-12
    # And the field itself stays bounded.
    sup = max(float(np.linalg.norm(f(t, np.zeros(3))))
              for t in np.linspace(0.0, 200.0, 2001))
    assert sup < 0.45


def test_formation_against_adaptive_oracle(uni_agent, form_gains, fig8_leader):
    eps = form_gains.epsilon
    sel = uni_agent.selection

    def control_of_state(x_hold, xL_hold):
        a = follower_steering(uni_agent, form_gains, x_hold, xL_hold)
        return control_series(2, sel.s1, sel.s2, sel.kappa, eps, a)

    fields = [lambda x: np.array([math.cos(x[2]), math.sin(x[2]), 0.0]),
              lambda x: np.array([0.0, 0.0, 1.0])]

    def leader_rhs(t, xL):
        return fig8_leader.dynamics(t, xL)

    n_int = 50
    ref_agent, ref_leader = pi_eps_solve(
        fields, control_of_state, AGENT_X0, eps, n_int,
        leader=leader_rhs, xL0=np.array(FIG8_X0))
    traj = simulate_formation([uni_agent], fig8_leader, [AGENT_X0], form_gains,
                              SimConfig(t_final=n_int * eps))
    assert np.allclose(traj.leader_samples, ref_leader, atol=1e-8)
    assert np.allclose(traj.agent_trajs[0].sample_states, ref_agent, atol=1e-4)


def test_rank_degeneracy_names_agent(uni_agent, form_gains, pinch, pinch_sel,
                                     still_leader):
    bad = FollowerAgent(system=pinch, selection=pinch_sel, gamma=1.0,
                        offset=(0.0, 0.0))
    x_bad = np.array([0.0, 1.0])
    lead2 = LeaderModel(name="stationary", dynamics=lambda t, x: np.zeros(2),
                        x0=(0.0, 0.0))
    with pytest.raises(RankDegeneracyError) as info:
        simulate_formation([bad], lead2, [x_bad],
                           ControllerGains(epsilon=0.1, gamma=1.0,
                                           y_star=(0.0, 0.0)),
                           SimConfig(t_final=1.0))
    assert info.value.agent_index == 0
    assert isinstance(info.value.partial, FormationTrajectory)


def test_stacked_steering_raises_in_agent_order(pinch, pinch_sel):
    # Eight pinch followers in one group, F = diag(1, x1).  At the fourth
    # sampling instant (t = 0.3) one agent's x1 has decayed to 0.729, a
    # condition number of 1.37 over the cap 1.3, and the leader's jump
    # makes another's -gamma r overflow at gamma = 1e308.  The stacked
    # solve fails and the agents are steered one by one, so the first
    # failure in agent order is raised: agent 2's RankDegeneracyError, its
    # .partial that of agents 0..2 alone, or with the two swapped, the
    # NonFiniteError naming agent 2's gamma (agent 7's gamma would
    # overflow too).
    leader = LeaderModel(name="jump", dynamics=lambda t, x: (0.0, 0.0) if t < 0.25
                         else (0.0, 50.0), x0=(0.0, 0.0))
    gains = ControllerGains(epsilon=0.1, gamma=1.0, y_star=(0.0, 0.0), cond_cap=1.3)
    cfg = SimConfig(t_final=1.0)
    calm = FollowerAgent(system=pinch, selection=pinch_sel, gamma=1.0, offset=(1.0, 0.0))
    decaying = dataclasses.replace(calm, offset=(0.0, 0.0))
    huge = dataclasses.replace(calm, gamma=1e308)
    x0s = [(1.0, 0.0)] * 8

    def agents(at2, at5):
        return [calm, calm, at2, calm, calm, at5, calm, dataclasses.replace(huge, gamma=1.5e308)]

    with pytest.raises(RankDegeneracyError) as info:
        simulate_formation(agents(decaying, huge), leader, x0s, gains, cfg)
    exc = info.value
    with pytest.raises(RankDegeneracyError) as alone:
        simulate_formation([calm, calm, decaying], leader, x0s[:3], gains, cfg)
    assert exc.agent_index == alone.value.agent_index == 2
    assert (str(exc), exc.condition) == (str(alone.value), alone.value.condition)
    assert exc.state.tobytes() == alone.value.state.tobytes()
    partial, want = exc.partial, alone.value.partial
    assert partial.sample_times.tolist() == [0.0, 0.1, 0.2, 0.30000000000000004]
    assert partial.dense_times.tobytes() == want.dense_times.tobytes()
    assert partial.leader_states.tobytes() == want.leader_states.tobytes()
    for got, ref in zip(partial.agent_trajs, want.agent_trajs):
        assert got.dense_states.tobytes() == ref.dense_states.tobytes()
        assert got.dense_controls.tobytes() == ref.dense_controls.tobytes()
        assert got.sample_states.tobytes() == ref.sample_states.tobytes()
    assert len(partial.agent_trajs) == 8

    with pytest.raises(NonFiniteError) as info:
        simulate_formation(agents(huge, decaying), leader, x0s, gains, cfg)
    assert str(info.value) == (
        "steering right-hand side -gamma r is not finite at gamma=1e+308")


def test_one_solve_table_and_kernel_call_per_group(monkeypatch, uni_agent, form_gains,
                                                    fig8_leader):
    # A formation of 16 followers in two groups (two selections, eight
    # agents each) takes one _lapack_svd and one frozen_control per group
    # per sampling instant, and one block kernel call per group per table
    # block, whose stack holds all the group's rows: no per-agent work.
    # The leader, an open-loop row, takes one kernel call per chunk of
    # table blocks: 4 blocks of 80 sub-steps keep its 4 x 80 x 3 stage
    # rates within BLOCK_VALUES (4 x 4 x 80 x 3 = 3840), 5 would not.
    from bracket_steer import synthesis
    counts = {"svd": 0, "table": 0}
    kernel_rows = []
    svd, frozen = synthesis._lapack_svd, synthesis.frozen_control

    def counted_svd(*args, **kwargs):
        counts["svd"] += 1
        return svd(*args, **kwargs)

    def counted_table(*args):
        counts["table"] += 1
        return frozen(*args)

    def counted_blocks(real):
        def row_integrators(groups):
            steps, blocks = real(groups)

            def counted(block):
                def wrapped(X, h, ts, U):
                    kernel_rows.append(len(X))
                    return block(X, h, ts, U)
                return wrapped
            return steps, blocks and [counted(b) for b in blocks]
        return row_integrators

    monkeypatch.setattr(synthesis, "_lapack_svd", counted_svd)
    monkeypatch.setattr(synthesis, "frozen_control", counted_table)
    monkeypatch.setattr(simulate, "_row_integrators", counted_blocks(simulate._row_integrators))
    fast = dataclasses.replace(uni_agent.selection, kappa=(2,))
    rng = np.random.default_rng(7)
    agents = [dataclasses.replace(uni_agent, selection=fast if i >= 8 else uni_agent.selection,
                                  offset=tuple(rng.uniform(-1.0, 1.0, 3))) for i in range(16)]
    x0s = list(rng.uniform(-2.0, 2.0, (16, 3)))
    # 5 intervals of 80 sub-steps (kappa_max 2), one table block each, in
    # chunks of 4 and 1, and 6 sampling instants with the end.
    simulate_formation(agents, fig8_leader, x0s, form_gains, SimConfig(t_final=0.5))
    assert counts == {"svd": 6 * 2, "table": 6 * 2}
    assert kernel_rows == [1, *[8, 8] * 4, 1, 8, 8]


def test_builtin_leader_takes_one_kernel_call_per_chunk(monkeypatch):
    # The built-in formation run (600 intervals of 40 sub-steps) advances
    # its figure-eight leader 8 intervals at a time, 4 x 8 x 40 x 3 = 3840
    # stage rates within BLOCK_VALUES: 75 kernel calls, not one per
    # interval, while the follower keeps one call per table block.  The
    # run is bitwise the uncounted one.
    uni = builtin_scenario("unicycle-leader")
    calls = {}

    def counted(name, block):
        def wrapped(*args):
            calls[name] = calls.get(name, 0) + 1
            return block(*args)
        return wrapped

    def run():
        ftraj = simulate_formation(uni.agents, uni.leader, uni.agent_x0s, uni.gains, uni.sim)
        return [ftraj.dense_times.tobytes(), ftraj.leader_states.tobytes(),
                ftraj.agent_trajs[0].dense_states.tobytes(),
                ftraj.agent_trajs[0].dense_controls.tobytes()]

    want = run()
    leader_key = library._identity_key(library._figure_eight)
    monkeypatch.setattr(library, "_BLOCK_STEPS", {
        key: counted("leader" if key == leader_key else "follower", block)
        for key, block in library._BLOCK_STEPS.items()})
    assert run() == want
    assert calls == {"leader": 75, "follower": 600}


def test_recorder_takes_one_call_per_table_block(monkeypatch):
    # The driver hands the recorder each table block once: at blocks of 7
    # sub-steps the built-in run's 600 intervals of 40 are 6 blocks each,
    # and the end of the tail-less horizon is one more.  The record policy
    # lives in that one method; there is no second appending method.
    assert not hasattr(simulate._Recorder, "record_block")
    uni = builtin_scenario("unicycle-leader")
    want = simulate_formation(uni.agents, uni.leader, uni.agent_x0s, uni.gains, uni.sim)
    calls = []
    real = simulate._Recorder.record

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(simulate, "TABLE_SUBSTEPS", 7)
    monkeypatch.setattr(simulate._Recorder, "record", counted)
    got = simulate_formation(uni.agents, uni.leader, uni.agent_x0s, uni.gains, uni.sim)
    assert len(calls) == 600 * 6 + 1
    assert got.dense_times.tobytes() == want.dense_times.tobytes()
    assert got.leader_states.tobytes() == want.leader_states.tobytes()
    assert (got.agent_trajs[0].dense_controls.tobytes()
            == want.agent_trajs[0].dense_controls.tobytes())


def test_solve_many_only_for_groups_of_more_than_one(monkeypatch, uni_agent, form_gains,
                                                     fig8_leader):
    # A group of one is steered by the plan's solve alone; a group of eight
    # takes one solve_many per sampling instant (6 with the end).
    from bracket_steer import synthesis
    calls = []
    real = synthesis._SteeringPlan.solve_many

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(synthesis._SteeringPlan, "solve_many", counted)
    cfg = SimConfig(t_final=0.5)
    simulate_formation([uni_agent], fig8_leader, [AGENT_X0], form_gains, cfg)
    assert calls == []
    rng = np.random.default_rng(3)
    simulate_formation([uni_agent] * 8, fig8_leader, list(rng.uniform(-2.0, 2.0, (8, 3))),
                       form_gains, cfg)
    assert len(calls) == 6


def test_failing_group_of_one_raises_as_follower_steering(pinch, pinch_sel):
    # Agent 1, a group of one, decays toward x1 = 0, where F = diag(1, x1)
    # pinches: at t = 0.3 its condition number 1 / 0.729 passes the cap
    # 1.3.  The run raises what follower_steering raises at that sampled
    # state, naming agent 1; agent 0 (another system object, so another
    # group) holds still.
    gains = ControllerGains(epsilon=0.1, gamma=1.0, y_star=(0.0, 0.0), cond_cap=1.3)
    leader = LeaderModel(name="stationary", dynamics=lambda t, x: np.zeros(2), x0=(0.0, 0.0))
    calm = FollowerAgent(system=dataclasses.replace(pinch, name="pinch-copy"),
                         selection=pinch_sel, gamma=1.0, offset=(1.0, 0.0))
    decaying = FollowerAgent(system=pinch, selection=pinch_sel, gamma=1.0, offset=(0.0, 0.0))
    with pytest.raises(RankDegeneracyError) as info:
        simulate_formation([calm, decaying], leader, [(1.0, 0.0)] * 2, gains,
                           SimConfig(t_final=1.0))
    exc = info.value
    assert exc.agent_index == 1
    partial = exc.partial
    assert partial.sample_times.tolist() == [0.0, 0.1, 0.2, 0.30000000000000004]
    x_agent = partial.agent_trajs[1].sample_states[-1]
    with pytest.raises(RankDegeneracyError) as alone:
        follower_steering(decaying, gains, x_agent, partial.leader_samples[-1])
    assert (type(exc), str(exc), exc.condition) == (
        type(alone.value), str(alone.value), alone.value.condition)
    assert exc.state.tobytes() == alone.value.state.tobytes() == x_agent.tobytes()


def test_domain_check_rejects_agent_x0(uni, uni_sel, uni_gains, form_gains, fig8_leader):
    # The x0 check both runs share refuses an x0 outside a system's domain,
    # naming the agent in a formation.
    guarded = dataclasses.replace(uni, name="guarded-unicycle",
                                  domain_check=lambda x: bool(np.linalg.norm(x) < 0.1))
    agent = FollowerAgent(system=guarded, selection=uni_sel, gamma=10.0, offset=OFFSET)
    with pytest.raises(InvalidInputError) as info:
        simulate_pi_epsilon(guarded, uni_sel, uni_gains, AGENT_X0)
    assert str(info.value) == "x0 lies outside the system's declared domain"
    with pytest.raises(InvalidInputError) as info:
        simulate_formation([agent], fig8_leader, [AGENT_X0], form_gains)
    assert str(info.value) == "agent 0 x0 lies outside the system's declared domain"


@pytest.mark.parametrize("kappa_max", [0, -1, 1.5, True, "2"])
def test_simulate_leader_refuses_a_bad_kappa_max(fig8_leader, form_gains, kappa_max):
    with pytest.raises(InvalidInputError, match="^kappa_max must be"):
        simulate_leader(fig8_leader, form_gains, SimConfig(t_final=0.5), kappa_max=kappa_max)


def test_divergent_leader_carries_partial(uni_agent, form_gains):
    # x_L' = 50 x_L leaves the guarded region near t = ln(1e9 / |x_L(0)|) / 50.
    runaway = LeaderModel(name="runaway", dynamics=lambda t, x: 50.0 * x, x0=FIG8_X0)
    with pytest.raises(DivergenceError) as info:
        simulate_formation([uni_agent], runaway, [AGENT_X0], form_gains,
                           SimConfig(t_final=1.0))
    exc = info.value
    assert str(exc).startswith("leader diverged")
    assert 0.4 < exc.t < 0.45
    partial = exc.partial
    assert isinstance(partial, FormationTrajectory)
    assert 0 < partial.dense_times.shape[0] == partial.leader_states.shape[0]
    assert partial.dense_times[-1] < exc.t
    assert partial.agent_trajs[0].dense_states.shape == (partial.dense_times.shape[0], 3)
    with pytest.raises(DivergenceError, match="^leader diverged"):
        simulate_leader(runaway, form_gains, SimConfig(t_final=1.0))


def test_mismatched_inputs(uni_agent, form_gains, fig8_leader):
    with pytest.raises(InvalidInputError):
        simulate_formation([], fig8_leader, [], form_gains)
    with pytest.raises(InvalidInputError):
        simulate_formation([uni_agent], fig8_leader, [AGENT_X0, AGENT_X0],
                           form_gains)
    planar = LeaderModel(name="stationary", dynamics=leader_field("stationary"),
                         x0=(0.0, 0.0))
    with pytest.raises(InvalidInputError):
        simulate_formation([uni_agent], planar, [AGENT_X0], form_gains)
    with pytest.raises(InvalidInputError):
        formation_error(simulate_formation([uni_agent], fig8_leader, [AGENT_X0],
                                           form_gains, SimConfig(t_final=0.5)), 3)


def test_wrong_length_agent_field_refused(uni, uni_sel, uni_agent, form_gains, fig8_leader):
    # The leader field and each agent's drift and control fields are
    # length-checked at x0 before the first solve; a non-finite value of the
    # right length still reaches the divergence guard.
    short = dataclasses.replace(
        uni, control_fields=(uni.control_fields[0], lambda x: (0.0, 0.0, 1.0, 0.0)))
    bad = FollowerAgent(system=short, selection=uni_sel, gamma=10.0, offset=OFFSET)
    with pytest.raises(InvalidInputError) as info:
        simulate_formation([uni_agent, bad], fig8_leader, [AGENT_X0, AGENT_X0], form_gains,
                           SimConfig(t_final=1.0))
    assert str(info.value) == "agent 1 field 2 returned length 4 at x0, expected shape (3,)"
    long_leader = dataclasses.replace(fig8_leader, dynamics=lambda t, x: (0.0,) * 4)
    for run in (lambda: simulate_formation([uni_agent], long_leader, [AGENT_X0], form_gains),
                lambda: simulate_leader(long_leader, form_gains)):
        with pytest.raises(InvalidInputError, match=r"^leader field returned length 4 at x0, "
                                                    r"expected shape \(3,\)$"):
            run()
    nan_drift = dataclasses.replace(uni, drift=lambda t, x: (math.nan,) * 3)
    bad = FollowerAgent(system=nan_drift, selection=uni_sel, gamma=10.0, offset=OFFSET)
    with pytest.raises(DivergenceError, match="^agent 0 diverged"):
        simulate_formation([bad], fig8_leader, [AGENT_X0], form_gains, SimConfig(t_final=1.0))
    with pytest.raises(DivergenceError, match="^agent 1 diverged"):
        simulate_formation([uni_agent, bad], fig8_leader, [AGENT_X0, AGENT_X0], form_gains,
                           SimConfig(t_final=1.0))


def _guard_cases():
    """Rows on both sides of the guard's norm cap, and non-finite rows."""
    cap = DIVERGENCE_NORM_CAP
    rows = [np.array([v, 0.5, -1.0]) for v in (math.nan, math.inf, -math.inf)]
    rows.append(np.array([math.inf, -math.inf, 0.0]))
    for scale in (1 - 1e-12, 1 + 1e-12):
        rows.append(cap * scale * np.array([0.6, 0.8, 0.0]))
        rows.append(cap * scale * np.array([1.0, 0.0, 0.0]))
    rows.append(np.array([cap, 0.0, 0.0]))
    rows.append(np.array([np.nextafter(cap, math.inf), 0.0, 0.0]))
    rows.append(np.array([1e300, 1e300, 0.0]))
    return rows


# The 1e300 row overflows the squared norm, as np.linalg.norm's does,
# without a warning.
def test_guard_state_matches_norm_test():
    for row in _guard_cases():
        for what in ("leader", "agent 1"):
            try:
                _guard_state(row, 1.5, what)
            except DivergenceError as exc:
                assert not guard_accepts_reference(row, DIVERGENCE_NORM_CAP), row
                assert str(exc).startswith(f"{what} diverged at t=1.5 "), exc
                assert exc.t == 1.5
                assert exc.state.tobytes() == row.tobytes()
            else:
                assert guard_accepts_reference(row, DIVERGENCE_NORM_CAP), row


def _stacked_guard_cases():
    """(stacked state, row names): norms within a few ulp of the cap and at
    the fast test's margin, one row or split over rows each under the cap;
    NaN and infinite rows; entries near 1e200, whose x.x overflows while
    hypot stays finite; three rows of which only one or two fail."""
    cap = DIVERGENCE_NORM_CAP
    ulp = 2.0 ** -52
    one, two, three = ("leader",), ("leader", "agent 0"), ("leader", "agent 0", "agent 1")
    cases = []
    scales = [1 + k * ulp for k in range(-4, 5)]
    scales += [(1 - 1e-12) * (1 + k * ulp) for k in range(-3, 4)] + [1 - 2e-12, 0.5]
    for s in scales:
        cases.append(([[cap * s, 0.0, 0.0]], one))
        cases.append(([[0.0, 0.6 * cap * s, -0.8 * cap * s]], one))
        cases.append(([[0.6 * cap * s, 0.0, 0.0], [0.0, 0.0, 0.8 * cap * s]], two))
    for v in (math.nan, math.inf, -math.inf):
        cases.append(([[0.0, 0.0, 0.0], [v, 0.5, -1.0]], two))
        cases.append(([[v, 0.0, 0.0], [0.1, 0.5, -1.0]], two))
    cases.append(([[math.inf, math.nan, 0.0]], one))
    cases.append(([[1e200, 1e200, 0.0]], one))
    cases.append(([[0.0, 0.0, 0.0], [-1e200, 3e199, 1e200]], two))
    ok, bad = [0.1, -0.2, 0.3], [2 * cap, 0.0, 0.0]
    for rows in ([ok, bad, ok], [ok, ok, bad], [ok, bad, [math.nan, 0.0, 0.0]]):
        cases.append((rows, three))
    return cases


def _guard_outcome(guard, xs, names):
    try:
        guard(xs, 2.25, names)
    except DivergenceError as exc:
        return type(exc), str(exc), exc.t, exc.state.tobytes()
    return None


def test_guard_fast_path_matches_exact_guard(monkeypatch):
    # One hypot test of the stacked state passes or hands over to the exact
    # per-row guard; pass or fail, and the raised error's type, message
    # (with the failing row's name), t and state, equal the exact guard's.
    def exact(xs, t, names):
        for x, name in zip(xs, names):
            _guard_state(x, t, name)

    exact_calls = []

    def counted(*args):
        exact_calls.append(1)
        return _guard_state(*args)

    monkeypatch.setattr(simulate, "_guard_state", counted)
    fast_passed = failed = 0
    for xs, names in _stacked_guard_cases():
        want = _guard_outcome(exact, xs, names)
        exact_calls.clear()
        assert _guard_outcome(simulate._guard_rows, xs, names) == want, xs
        fast_passed += not exact_calls
        failed += want is not None
        if want is not None:
            assert want[1].startswith(f"{names[len(exact_calls) - 1]} diverged at t=2.25 ")
    # Both branches are taken: 17 states pass on the one hypot test alone,
    # and 20 fail the exact test.
    assert (fast_passed, failed) == (17, 20)


def test_array_returning_fields_match_builtins_bitwise(monkeypatch):
    # The built-in fields return tuples.  Registered copies whose fields
    # return arrays run the built-in formation bit for bit, and every field
    # call, in the kernel and in steering, receives a 1-d float64 ndarray.
    # Fields returning float32 run in float64, as their values widened to
    # float64 arrays do, not in single precision.
    monkeypatch.setattr(library, "_SYSTEMS", dict(library._SYSTEMS))
    monkeypatch.setattr(library, "_LEADER_FIELDS", dict(library._LEADER_FIELDS))
    seen = set()
    calls = []

    def returning(field, dtype, widen=False):
        def wrapped(*args):
            x = args[-1]
            seen.add((type(x), x.dtype, x.ndim))
            calls.append(1)
            out = np.array(field(*args), dtype=dtype)
            return out.astype(float) if widen else out
        return wrapped

    uni = library.system("unicycle")
    fig8 = library.leader_field("figure-eight")
    kinds = {"arrays": (float, False), "f32": (np.float32, False),
             "f32-widened": (np.float32, True)}
    runs = {}
    bundle = builtin_scenario("unicycle-leader")
    cfg = SimConfig(t_final=6.0)
    for kind, (dtype, widen) in kinds.items():
        library.register_system(dataclasses.replace(
            uni, name=f"unicycle-{kind}", drift=returning(uni.drift, dtype, widen),
            control_fields=tuple(returning(f, dtype, widen) for f in uni.control_fields)))
        library.register_leader_field(f"figure-eight-{kind}", returning(fig8, dtype, widen))
        agents = [dataclasses.replace(a, system=library.system(f"unicycle-{kind}"))
                  for a in bundle.agents]
        leader = dataclasses.replace(bundle.leader, name=f"figure-eight-{kind}",
                                     dynamics=library.leader_field(f"figure-eight-{kind}"))
        runs[kind] = simulate_formation(agents, leader, bundle.agent_x0s, bundle.gains, cfg)
    builtin = simulate_formation(bundle.agents, bundle.leader, bundle.agent_x0s,
                                 bundle.gains, cfg)

    assert len(calls) > 3 * 4 * 2400 * 3
    assert seen == {(np.ndarray, np.dtype(np.float64), 1)}
    # float32 values differ from the built-in's, so the run must too.
    assert runs["f32"].leader_states.tobytes() != builtin.leader_states.tobytes()
    for got, want in ((runs["arrays"], builtin), (runs["f32"], runs["f32-widened"])):
        assert got.dense_times.tobytes() == want.dense_times.tobytes()
        assert got.leader_states.tobytes() == want.leader_states.tobytes()
        assert got.leader_samples.tobytes() == want.leader_samples.tobytes()
        for g, w in zip(got.agent_trajs, want.agent_trajs, strict=True):
            assert g.dense_states.tobytes() == w.dense_states.tobytes()
            assert g.dense_controls.tobytes() == w.dense_controls.tobytes()
            assert g.sample_states.tobytes() == w.sample_states.tobytes()
