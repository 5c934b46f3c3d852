import dataclasses
import inspect
import math
import re
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bracket_steer
from bracket_steer import (BracketSelection, BracketSteerError, ControllerGains,
                           InvalidInputError, NonFiniteError, PartitionedSystem, SimConfig,
                           as_state, averaged_reference, builtin_scenario, control_value,
                           decay_report, default_substeps, epsilon_sweep, eval_field,
                           extension_matrix, finite_diff_jacobian, follower_steering,
                           formation_error, gain_condition_report, held_control, jacobian,
                           lie_bracket, simulate_formation, simulate_leader,
                           simulate_pi_epsilon, steering_coefficients, validate_bundle,
                           validate_selection)

from oracles import disc_fields, fd_bracket, fd_jacobian, unicycle_fields


def test_as_state_converts_and_checks():
    x = as_state([1, 2, 3])
    assert x.dtype == np.float64
    assert x.shape == (3,)
    with pytest.raises(InvalidInputError):
        as_state([1.0, 2.0], n=3)
    with pytest.raises(InvalidInputError):
        as_state([[1.0, 2.0]])
    with pytest.raises(InvalidInputError):
        as_state([1.0, math.nan])
    # An entry np.asarray cannot take is named by the gate.
    with pytest.raises(InvalidInputError, match=r"^state entry must be a real number, got 'x'$"):
        as_state([1.0, "x"])


def test_partitioned_system_validation():
    f = lambda x: np.zeros(2)
    J = lambda x: np.zeros((2, 2))
    drift = lambda t, x: np.zeros(2)
    with pytest.raises(InvalidInputError):
        PartitionedSystem(name="bad", n=2, n1=2, n2=1, m=1, drift=drift,
                          control_fields=(f,), control_jacobians=(J,))
    with pytest.raises(InvalidInputError):
        PartitionedSystem(name="bad", n=2, n1=1, n2=1, m=2, drift=drift,
                          control_fields=(f,), control_jacobians=(J,))
    # n1 and m are counts (model._as_count); the partition rule keeps the rest.
    for kw, message in ((dict(n1=0, n2=2), "n1 must be >= 1, got 0"),
                        (dict(n1=1, n2=1, m=0), "m must be >= 1, got 0"),
                        (dict(n1=3, n2=-1), "partition invariant violated: n1=3, n2=-1, n=2 "
                                            "(need n2 >= 0, n1 + n2 = n)")):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            PartitionedSystem(**dict(dict(name="bad", n=2, m=1, drift=drift,
                                          control_fields=(f,), control_jacobians=(J,)), **kw))


def test_split(disc):
    y, z = disc.split(np.array([1.0, 2.0, 3.0, 4.0]))
    assert np.array_equal(y, [1.0, 2.0])
    assert np.array_equal(z, [3.0, 4.0])


def test_eval_field_disc(disc):
    x = np.array([0.3, -1.2, 0.0, 2.0])
    assert np.array_equal(eval_field(disc, 0, 0.0, x), np.zeros(4))
    assert np.allclose(eval_field(disc, 1, 0.0, x), [1.0, 0.0, 0.0, 1.0])
    assert np.allclose(eval_field(disc, 2, 0.0, x), [0.0, 0.0, 1.0, 0.0])


def test_eval_field_heading_dependence(disc, uni):
    th = 0.77
    x4 = np.array([0.0, 0.0, th, 0.0])
    assert np.allclose(eval_field(disc, 1, 0.0, x4),
                       [math.cos(th), math.sin(th), 0.0, 1.0])
    x3 = np.array([5.0, -2.0, th])
    assert np.allclose(eval_field(uni, 1, 0.0, x3),
                       [math.cos(th), math.sin(th), 0.0])


def test_eval_field_bad_id(disc):
    with pytest.raises(InvalidInputError):
        eval_field(disc, 3, 0.0, np.zeros(4))
    with pytest.raises(InvalidInputError):
        jacobian(disc, 0, np.zeros(4))


def test_eval_field_does_not_mutate(disc):
    x = np.array([1.0, 2.0, 3.0, 4.0])
    keep = x.copy()
    eval_field(disc, 1, 0.0, x)
    jacobian(disc, 1, x)
    lie_bracket(disc, 1, 2, x)
    assert np.array_equal(x, keep)


def test_jacobian_matches_finite_differences(disc, uni):
    rng = np.random.default_rng(7)
    f1d, f2d = disc_fields()
    f1u, f2u = unicycle_fields()
    for _ in range(20):
        x = rng.uniform(-3, 3, size=4)
        assert np.allclose(jacobian(disc, 1, x), fd_jacobian(f1d, x), atol=1e-6)
        assert np.allclose(jacobian(disc, 2, x), fd_jacobian(f2d, x), atol=1e-6)
        x = rng.uniform(-3, 3, size=3)
        assert np.allclose(jacobian(uni, 1, x), fd_jacobian(f1u, x), atol=1e-6)
        assert np.allclose(jacobian(uni, 2, x), fd_jacobian(f2u, x), atol=1e-6)


def test_bracket_disc_at_zero_heading(disc):
    # [f1, f2] = (sin x3, -cos x3, 0, 0); at x3 = 0 that is (0, -1, 0, 0).
    x = np.array([2.0, 1.0, 0.0, math.pi])
    assert np.allclose(lie_bracket(disc, 1, 2, x), [0.0, -1.0, 0.0, 0.0],
                       atol=1e-14)


def test_bracket_unicycle(uni):
    th = -1.3
    x = np.array([0.4, 0.2, th])
    assert np.allclose(lie_bracket(uni, 1, 2, x),
                       [math.sin(th), -math.cos(th), 0.0], atol=1e-14)


def test_bracket_antisymmetry_exact(disc):
    rng = np.random.default_rng(11)
    for _ in range(10):
        x = rng.uniform(-4, 4, size=4)
        ab = lie_bracket(disc, 1, 2, x)
        ba = lie_bracket(disc, 2, 1, x)
        # J2 f1 - J1 f2 negates term-by-term: IEEE arithmetic keeps it exact.
        assert np.array_equal(ab, -ba)


def test_bracket_with_itself_is_zero(disc):
    x = np.array([0.5, -0.5, 1.1, 0.0])
    assert np.array_equal(lie_bracket(disc, 1, 1, x), np.zeros(4))


def test_bracket_against_oracle(disc, uni):
    rng = np.random.default_rng(23)
    f1d, f2d = disc_fields()
    f1u, f2u = unicycle_fields()
    for _ in range(25):
        x = rng.uniform(-3, 3, size=4)
        ref = fd_bracket(f1d, f2d, x)
        got = lie_bracket(disc, 1, 2, x)
        assert np.linalg.norm(got - ref) <= 1e-6 * max(1.0, np.linalg.norm(ref))
        x = rng.uniform(-3, 3, size=3)
        ref = fd_bracket(f1u, f2u, x)
        got = lie_bracket(uni, 1, 2, x)
        assert np.linalg.norm(got - ref) <= 1e-6 * max(1.0, np.linalg.norm(ref))


def test_finite_diff_jacobian_on_known_map():
    field = lambda x: np.array([x[0] ** 2, x[0] * x[1]])
    x = np.array([1.5, -2.0])
    exact = np.array([[3.0, 0.0], [-2.0, 1.5]])
    assert np.allclose(finite_diff_jacobian(field, x), exact, atol=1e-6)


def test_nonfinite_field_detected():
    bad = lambda x: np.array([math.inf, 0.0])
    J = lambda x: np.zeros((2, 2))
    sysb = PartitionedSystem(name="bad", n=2, n1=2, n2=0, m=1,
                             drift=lambda t, x: np.zeros(2),
                             control_fields=(bad,), control_jacobians=(J,))
    with pytest.raises(NonFiniteError):
        eval_field(sysb, 1, 0.0, np.zeros(2))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-10, max_value=10,
                          allow_nan=False, allow_infinity=False),
                min_size=4, max_size=4))
def test_bracket_properties_hypothesis(xs):
    from bracket_steer import system
    disc = system("rolling-disc")
    x = np.array(xs)
    ab = lie_bracket(disc, 1, 2, x)
    assert np.all(np.isfinite(ab))
    assert np.array_equal(ab, -lie_bracket(disc, 2, 1, x))
    # The disc bracket has unit norm everywhere: (sin, -cos, 0, 0).
    assert abs(np.linalg.norm(ab) - 1.0) < 1e-12


@pytest.fixture(scope="module")
def short_formation():
    b = builtin_scenario("unicycle-leader")
    ftraj = simulate_formation(b.agents, b.leader, b.agent_x0s, b.gains, SimConfig(t_final=0.5))
    return b, ftraj


def _gains(**kw):
    return ControllerGains(**dict(dict(epsilon=0.1, gamma=1.0, y_star=(0.0,)), **kw))


DISC = builtin_scenario("rolling-disc")
SYS, SEL = DISC.system, DISC.selection
FOLLOWER = builtin_scenario("unicycle-leader").agents[0]
DISC_GAINS = ControllerGains(epsilon=0.5, gamma=1.0, y_star=(0.0, 0.0))
SHORT = SimConfig(t_final=1.0)


def _state(v, n=4):
    """A state with v as its first entry."""
    return [v, 0.5, 0.25, 0.0][:n]


def _system(**kw):
    f = lambda x: np.ones(2)
    J = lambda x: np.zeros((2, 2))
    return PartitionedSystem(**dict(dict(name="p", n=2, n1=2, n2=0, m=1,
                                         drift=lambda t, x: np.zeros(2), control_fields=(f,),
                                         control_jacobians=(J,)), **kw))


# Every numeric parameter of a callable in bracket_steer.__all__, or an
# entry of one that takes a list of numbers, as "callable.parameter": a
# call with the value v in its place (f is the short_formation fixture),
# a value the call takes, and the refusal that model's gate gives a value
# of the wrong type ("y_star entry must be a real number"), or None where
# the call's own checks type every value (a state's entries go through
# as_state's np.asarray and its finite check, so True is 1.0 there).
_NUMBERS = {
    "PartitionedSystem.n": (lambda v, _: _system(n=v), 2, "n must be an integer"),
    "PartitionedSystem.n1": (lambda v, _: _system(n1=v), 2, "n1 must be an integer"),
    "PartitionedSystem.n2": (lambda v, _: _system(n2=v), 0, "n2 must be an integer"),
    "PartitionedSystem.m": (lambda v, _: _system(m=v), 1, "m must be an integer"),
    "as_state.x": (lambda v, _: as_state(_state(v)), 0.0, None),
    "as_state.n": (lambda v, _: as_state(_state(0.0), v), 4, None),
    "eval_field.field_id": (lambda v, _: eval_field(SYS, v, 0.0, _state(0.0)), 1,
                            "field_id must be an integer"),
    "eval_field.t": (lambda v, _: eval_field(SYS, 0, v, _state(0.0)), 0.0, None),
    "eval_field.x": (lambda v, _: eval_field(SYS, 1, 0.0, _state(v)), 0.0, None),
    "jacobian.field_id": (lambda v, _: jacobian(SYS, v, _state(0.0)), 1,
                          "field_id must be an integer"),
    "jacobian.x": (lambda v, _: jacobian(SYS, 1, _state(v)), 0.0, None),
    "lie_bracket.j1": (lambda v, _: lie_bracket(SYS, v, 2, _state(0.0)), 1,
                       "j1 must be an integer"),
    "lie_bracket.j2": (lambda v, _: lie_bracket(SYS, 1, v, _state(0.0)), 2,
                       "j2 must be an integer"),
    "lie_bracket.x": (lambda v, _: lie_bracket(SYS, 1, 2, _state(v)), 0.0, None),
    "finite_diff_jacobian.x": (lambda v, _: finite_diff_jacobian(np.sin, _state(v)), 0.0, None),
    "finite_diff_jacobian.h": (lambda v, _: finite_diff_jacobian(np.sin, _state(0.0), v), 1e-6,
                               "h must be a real number"),
    "BracketSelection.s1": (lambda v, _: BracketSelection(s1=(v,), s2=()), 1,
                            "s1 entry must be an integer"),
    "BracketSelection.s2": (lambda v, _: BracketSelection(s1=(), s2=((v, 2),)), 1,
                            "s2 entry must be an integer"),
    "BracketSelection.kappa": (lambda v, _: BracketSelection(s1=(), s2=((1, 2),), kappa=(v,)),
                               1, "kappa entry must be an integer"),
    "ControllerGains.epsilon": (lambda v, _: _gains(epsilon=v), 0.1,
                                "epsilon must be a real number"),
    "ControllerGains.gamma": (lambda v, _: _gains(gamma=v), 1.0, "gamma must be a real number"),
    "ControllerGains.y_star": (lambda v, _: _gains(y_star=(v, 0.0)), 0.0,
                               "y_star entry must be a real number"),
    "ControllerGains.cond_cap": (lambda v, _: _gains(cond_cap=v), 1e6,
                                 "cond_cap must be a real number"),
    "extension_matrix.x": (lambda v, _: extension_matrix(SYS, SEL, _state(v)), 0.0, None),
    "steering_coefficients.x": (
        lambda v, _: steering_coefficients(SYS, SEL, DISC_GAINS, _state(v)), 0.0, None),
    "control_value.t": (lambda v, _: control_value(SYS, SEL, DISC_GAINS, v, _state(0.0)), 0.0,
                        "t must be a real number"),
    "control_value.x_hold": (lambda v, _: control_value(SYS, SEL, DISC_GAINS, 0.0, _state(v)),
                             0.0, None),
    "held_control.epsilon": (lambda v, _: held_control(SEL, v, 2, [1.0, 2.0], 0.3), 0.5,
                             "epsilon must be a real number"),
    "held_control.m": (lambda v, _: held_control(SEL, 0.5, v, [1.0, 2.0], 0.3), 2,
                       "m must be an integer"),
    "held_control.a": (lambda v, _: held_control(SEL, 0.5, 2, [v, 2.0], 0.3), 1.0,
                       "a entry must be a real number"),
    "held_control.t": (lambda v, _: held_control(SEL, 0.5, 2, [1.0, 2.0], v), 0.3,
                       "t must be a real number"),
    "validate_selection.probes": (
        lambda v, _: validate_selection(SYS, SEL, [_state(0.0), _state(v)], DISC_GAINS), 0.0,
        None),
    "SimConfig.t_final": (lambda v, _: SimConfig(t_final=v), 1.0, "t_final must be a real number"),
    "SimConfig.substeps_per_period": (lambda v, _: SimConfig(substeps_per_period=v), 40,
                                      "substeps_per_period must be an integer"),
    "SimConfig.record_stride": (lambda v, _: SimConfig(record_stride=v), 1,
                                "record_stride must be an integer"),
    "simulate_pi_epsilon.x0": (
        lambda v, _: simulate_pi_epsilon(SYS, SEL, DISC_GAINS, _state(v), SHORT), 0.0, None),
    # At t = 1e308, exp(-gamma t) = 0: an infinite entry would make 0 * inf.
    "averaged_reference.y0": (lambda v, _: [averaged_reference([v, 0.0], DISC_GAINS, t)
                                            for t in (0.5, 1e308)], 1.0,
                              "y0 entry must be a real number"),
    "averaged_reference.t": (lambda v, _: averaged_reference([1.0], _gains(), v),
                             0.5, "t must be a real number"),
    "decay_report.rho": (lambda v, f: decay_report(f[1].displacement_trajs[0], f[0].gains, v),
                         0.1, "rho must be a real number"),
    "epsilon_sweep.x0": (
        lambda v, _: epsilon_sweep(SYS, SEL, DISC_GAINS, _state(v), 1.0, [0.5]), 0.0, None),
    "epsilon_sweep.t_final": (
        lambda v, _: epsilon_sweep(SYS, SEL, DISC_GAINS, _state(0.0), v, [0.5]), 1.0,
        "t_final must be a real number"),
    "epsilon_sweep.eps_list": (
        lambda v, _: epsilon_sweep(SYS, SEL, DISC_GAINS, _state(0.0), 1.0, [v]), 0.5,
        "eps_list entry must be a real number"),
    "epsilon_sweep.substeps_per_period": (
        lambda v, _: epsilon_sweep(SYS, SEL, DISC_GAINS, _state(0.0), 1.0, [0.5], v), 40,
        "substeps_per_period must be an integer"),
    "default_substeps.kappa_max": (lambda v, _: default_substeps(v), 1,
                                   "kappa_max must be an integer"),
    "FollowerAgent.gamma": (
        lambda v, f: dataclasses.replace(f[0].agents[0], gamma=v), 2.0,
        "gamma must be a real number"),
    "FollowerAgent.offset": (
        lambda v, f: dataclasses.replace(f[0].agents[0], offset=(v, 0.0, 0.0)), 0.0,
        "offset entry must be a real number"),
    "LeaderModel.x0": (lambda v, f: dataclasses.replace(f[0].leader, x0=(v, 0.0, 0.0)), 0.0,
                       "x0 entry must be a real number"),
    "follower_steering.x_agent": (
        lambda v, f: follower_steering(f[0].agents[0], f[0].gains, _state(v, 3), _state(0.0, 3)),
        0.0, None),
    "follower_steering.x_leader": (
        lambda v, f: follower_steering(f[0].agents[0], f[0].gains, _state(0.0, 3), _state(v, 3)),
        0.0, None),
    "simulate_formation.x0s": (
        lambda v, f: simulate_formation(f[0].agents[:1], f[0].leader, [_state(v, 3)], f[0].gains,
                                        SimConfig(t_final=0.2)), 0.0, None),
    "simulate_leader.kappa_max": (
        lambda v, f: simulate_leader(f[0].leader, f[0].gains, SimConfig(t_final=0.2), v), 1,
        "kappa_max must be an integer"),
    "formation_error.agent_index": (lambda v, f: formation_error(f[1], v), 0,
                                    "agent_index must be an integer"),
    "gain_condition_report.rho": (
        lambda v, f: gain_condition_report(f[0].leader, f[0].agents, v,
                                           f[1].dense_times, f[1].leader_states),
        0.1, "rho must be a real number"),
    "gain_condition_report.dense_times": (
        lambda v, f: gain_condition_report(f[0].leader, f[0].agents, 0.1, [0.0, v],
                                           f[1].leader_states[:2]), 0.1, None),
    "gain_condition_report.leader_states": (
        lambda v, f: gain_condition_report(f[0].leader, f[0].agents, 0.1, f[1].dense_times[:1],
                                           [_state(v, 3)]), 0.0, None),
    "validate_bundle.n_probes": (lambda v, _: validate_bundle(DISC, n_probes=v), 3,
                                 "n_probes must be an integer"),
    "validate_bundle.seed": (lambda v, _: validate_bundle(DISC, n_probes=3, seed=v), 1,
                             "seed must be an integer"),
}

# Every list-valued parameter of a callable in bracket_steer.__all__, as
# "callable.parameter": a call with the value v in the whole list's place
# (f is the short_formation fixture), a list the call takes, and the
# refusal of a number or None in its place ("s1 must be a list"), or None
# where the call's own checks type them: a list of numbers takes one number
# as its one entry, and a state goes through as_state.
_LISTS = {
    "PartitionedSystem.control_fields": (lambda v, _: _system(control_fields=v), (np.sin,),
                                         "control_fields must be a list"),
    "PartitionedSystem.control_jacobians": (lambda v, _: _system(control_jacobians=v),
                                            (np.sin,), "control_jacobians must be a list"),
    "as_state.x": (lambda v, _: as_state(v), [0.0], None),
    "eval_field.x": (lambda v, _: eval_field(SYS, 1, 0.0, v), _state(0.0), None),
    "jacobian.x": (lambda v, _: jacobian(SYS, 1, v), _state(0.0), None),
    "lie_bracket.x": (lambda v, _: lie_bracket(SYS, 1, 2, v), _state(0.0), None),
    "finite_diff_jacobian.x": (lambda v, _: finite_diff_jacobian(np.sin, v), _state(0.0), None),
    "BracketSelection.s1": (lambda v, _: BracketSelection(s1=v, s2=()), (1,), "s1 must be a list"),
    "BracketSelection.s2": (lambda v, _: BracketSelection(s1=(), s2=v), ((1, 2),),
                            "s2 must be a list"),
    "BracketSelection.kappa": (lambda v, _: BracketSelection(s1=(), s2=((1, 2),), kappa=v),
                               (1,), "kappa must be a list"),
    "ControllerGains.y_star": (lambda v, _: _gains(y_star=v), (0.0,), None),
    "extension_matrix.x": (lambda v, _: extension_matrix(SYS, SEL, v), _state(0.0), None),
    "steering_coefficients.x": (lambda v, _: steering_coefficients(SYS, SEL, DISC_GAINS, v),
                                _state(0.0), None),
    "control_value.x_hold": (lambda v, _: control_value(SYS, SEL, DISC_GAINS, 0.0, v),
                             _state(0.0), None),
    "held_control.a": (lambda v, _: held_control(SEL, 0.5, 2, v, 0.3), [1.0, 2.0], None),
    "validate_selection.probes": (lambda v, _: validate_selection(SYS, SEL, v, DISC_GAINS),
                                  [_state(0.0)], "probes must be a list"),
    "simulate_pi_epsilon.x0": (lambda v, _: simulate_pi_epsilon(SYS, SEL, DISC_GAINS, v, SHORT),
                               _state(0.0), None),
    "averaged_reference.y0": (lambda v, _: averaged_reference(v, DISC_GAINS, 0.5), [1.0, 0.0],
                              None),
    "epsilon_sweep.x0": (lambda v, _: epsilon_sweep(SYS, SEL, DISC_GAINS, v, 1.0, [0.5]),
                         _state(0.0), None),
    "epsilon_sweep.eps_list": (
        lambda v, _: epsilon_sweep(SYS, SEL, DISC_GAINS, _state(0.0), 1.0, v), [0.5],
        "eps_list must be a list"),
    "FollowerAgent.offset": (lambda v, f: dataclasses.replace(f[0].agents[0], offset=v),
                             (0.0, 0.0, 0.0), None),
    "LeaderModel.x0": (lambda v, f: dataclasses.replace(f[0].leader, x0=v), (0.0, 0.0, 0.0),
                       None),
    "follower_steering.x_agent": (
        lambda v, f: follower_steering(f[0].agents[0], f[0].gains, v, _state(0.0, 3)),
        _state(0.0, 3), None),
    "follower_steering.x_leader": (
        lambda v, f: follower_steering(f[0].agents[0], f[0].gains, _state(0.0, 3), v),
        _state(0.0, 3), None),
    "simulate_formation.agents": (
        lambda v, f: simulate_formation(v, f[0].leader, [_state(0.0, 3)], f[0].gains,
                                        SimConfig(t_final=0.2)), (FOLLOWER,),
        "agents must be a list"),
    "simulate_formation.x0s": (
        lambda v, f: simulate_formation(f[0].agents[:1], f[0].leader, v, f[0].gains,
                                        SimConfig(t_final=0.2)), [_state(0.0, 3)],
        "x0s must be a list"),
    "gain_condition_report.agents": (
        lambda v, f: gain_condition_report(f[0].leader, v, 0.1, f[1].dense_times,
                                           f[1].leader_states), (FOLLOWER,),
        "agents must be a list"),
    "gain_condition_report.dense_times": (
        lambda v, f: gain_condition_report(f[0].leader, f[0].agents, 0.1, v,
                                           f[1].leader_states[:1]), [0.0],
        "dense_times must be a list"),
    "gain_condition_report.leader_states": (
        lambda v, f: gain_condition_report(f[0].leader, f[0].agents, 0.1, f[1].dense_times[:1],
                                           v), [_state(0.0, 3)], "leader_states must be a list"),
}
# None asks these for their default.
_LIST_TAKES_NONE = {"BracketSelection.kappa"}

# Parameters that hold no number and no list: systems, selections, gains,
# configs, agents, runs, names, paths, callables and flags.
_NOT_NUMBERS = {"sys", "sel", "gains", "gains_base", "cfg", "system", "selection", "agent",
                "leader", "traj", "bundle", "data", "path", "name", "dynamics", "drift",
                "domain_check", "field", "replace"}
# Records: exceptions and results keep what they are given, unchecked; a
# ScenarioBundle is built by the loader, which checks every field.
_RECORDS = {"BracketSteerError", "InvalidInputError", "SelectionShapeError",
            "ScenarioFormatError", "UnknownScenarioError", "NumericError", "NonFiniteError",
            "RankDegeneracyError", "DivergenceError", "RankCertificate", "SampledTrajectory",
            "DecayReport", "FormationTrajectory", "GainConditionRow", "ScenarioBundle"}

_BAD = [math.nan, math.inf, -math.inf, -1, 0, 1.5, True, "x", None, 1e308, 5e-324, [1.0]]


def test_number_table_covers_every_public_parameter():
    # A numeric parameter added to a public callable fails here until the
    # table holds it, and so until it is typed.
    listed = set()
    for name in bracket_steer.__all__:
        obj = getattr(bracket_steer, name)
        if not callable(obj) or name in _RECORDS:
            continue
        for param in inspect.signature(obj).parameters:
            key = f"{name}.{param}"
            assert key in _NUMBERS or key in _LISTS or param in _NOT_NUMBERS, key
            listed.add(key)
    assert set(_NUMBERS) | set(_LISTS) <= listed and _RECORDS <= set(bracket_steer.__all__)


@pytest.mark.parametrize("param", sorted(_NUMBERS))
def test_public_numbers_are_typed(short_formation, param):
    # Each bad value either is taken or is refused with a package error;
    # never a bare TypeError, ValueError or OverflowError, and never a
    # numpy warning.
    call, good, _ = _NUMBERS[param]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(good, short_formation)
        for bad in _BAD:
            try:
                call(bad, short_formation)
            except BracketSteerError:
                pass


# None asks these for their default.
_TAKES_NONE = {"SimConfig.t_final", "SimConfig.substeps_per_period", "epsilon_sweep.t_final",
               "epsilon_sweep.substeps_per_period"}


@pytest.mark.parametrize("bad", ["x", None, [1.0], True, np.bool_(False)], ids=repr)
@pytest.mark.parametrize("param", sorted(k for k, row in _NUMBERS.items() if row[2]))
def test_public_numeric_parameters_refuse_non_numbers(short_formation, param, bad):
    # The gate's refusal, naming the parameter or its entry.
    call, _, refusal = _NUMBERS[param]
    if bad is None and param in _TAKES_NONE:
        return
    with pytest.raises(InvalidInputError) as info:
        call(bad, short_formation)
    assert str(info.value) == f"{refusal}, got {bad!r}"


@pytest.mark.parametrize("bad", [1.5, None], ids=repr)
@pytest.mark.parametrize("param", sorted(_LISTS))
def test_public_lists_refuse_a_number_or_none(short_formation, param, bad):
    # A number or None where a list belongs is taken, or refused with a
    # package error, naming the parameter where the row gives its refusal;
    # never a bare TypeError from iterating it.
    call, good, refusal = _LISTS[param]
    call(good, short_formation)
    if refusal is None or (bad is None and param in _LIST_TAKES_NONE):
        try:
            call(bad, short_formation)
        except BracketSteerError:
            pass
        return
    with pytest.raises(InvalidInputError) as info:
        call(bad, short_formation)
    assert str(info.value) == f"{refusal}, got {bad!r}"


def test_list_entries_and_paired_lengths_are_typed(short_formation):
    # A number or None in place of an S2 pair, and a leader path whose
    # times and states differ in count, on the per-point path, which pairs
    # them, and on the figure-eight's numpy pass, which reads the times.
    for bad in (1, None):
        with pytest.raises(InvalidInputError) as info:
            BracketSelection(s1=(), s2=(bad,))
        assert str(info.value) == f"s2 entry must be a list, got {bad!r}"
    b, ftraj = short_formation
    wrapped = dataclasses.replace(b.leader, dynamics=lambda t, x: b.leader.dynamics(t, x))
    for leader in (wrapped, b.leader):
        for times, states in ((5, 3), (3, 5)):
            with pytest.raises(InvalidInputError) as info:
                gain_condition_report(leader, b.agents, 0.1, ftraj.dense_times[:times],
                                      ftraj.leader_states[:states])
            assert str(info.value) == f"got {times} dense_times for {states} leader_states"


def test_agent_index_refuses_a_fraction(short_formation):
    with pytest.raises(InvalidInputError, match=r"^agent_index must be an integer, got 5e-324$"):
        formation_error(short_formation[1], 5e-324)
    assert formation_error(short_formation[1], 0.0) is short_formation[1].error_series[0]


def _bytes(value):
    """Every array and number a run returns, as bytes, in field order."""
    if dataclasses.is_dataclass(value):
        return b"".join(_bytes(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, (tuple, list)):
        return b"".join(map(_bytes, value))
    return np.asarray(value, dtype=float).tobytes()


def _three_paths(epsilon=1.0, gamma=5.0, cond_cap=1e6, t_final=3.0, agent_gamma=1.0):
    """The stored numbers, and the disc run, the formation run and the
    sweep as bytes, with each given number in its place."""
    disc = dataclasses.replace(DISC.gains, epsilon=epsilon, gamma=gamma, cond_cap=cond_cap)
    cfg = SimConfig(t_final=t_final)
    b = builtin_scenario("unicycle-leader")
    form = dataclasses.replace(b.gains, epsilon=epsilon, gamma=gamma, cond_cap=cond_cap)
    agents = tuple(dataclasses.replace(a, gamma=agent_gamma) for a in b.agents)
    stored = (disc.epsilon, disc.gamma, disc.cond_cap, cfg.t_final, agents[0].gamma)
    runs = (simulate_pi_epsilon(SYS, SEL, disc, np.array(DISC.x0), cfg),
            simulate_formation(agents, b.leader, b.agent_x0s, form, cfg),
            epsilon_sweep(SYS, SEL, dataclasses.replace(disc, epsilon=1.0), np.array(DISC.x0),
                          t_final, [epsilon, epsilon / 2]))
    return stored, [_bytes(run) for run in runs]


@pytest.mark.parametrize("kind", [int, Fraction, np.float32, np.float64],
                         ids=lambda k: k.__name__)
@pytest.mark.parametrize("param, value", [("epsilon", 1), ("gamma", 5), ("cond_cap", 10**6),
                                          ("t_final", 3), ("agent_gamma", 1)])
def test_gated_numbers_are_stored_as_floats(param, value, kind):
    # Each public number is kept as the float its gate returns, so an int, a
    # Fraction or a numpy float of an exactly representable value runs the
    # disc, the formation and the sweep bitwise as the Python float does
    # (an np.float32 epsilon once sub-stepped in float32, and a Fraction
    # one reached np.fmod).
    stored, runs = _three_paths(**{param: kind(value)})
    want_stored, want_runs = _three_paths(**{param: float(value)})
    assert [type(v) for v in stored] == [float] * 5
    assert stored == want_stored
    assert runs == want_runs


def test_fraction_epsilon_runs_as_its_float():
    # A Fraction period once reached np.fmod as an object and raised a bare
    # AttributeError on every run path and in control_value and held_control.
    assert _three_paths(epsilon=Fraction(1, 2)) == _three_paths(epsilon=0.5)
    x = np.array(DISC.x0)
    got, want = ([control_value(SYS, SEL, _gains(epsilon=e, y_star=(0.0, 0.0)), t, x).tobytes(),
                  held_control(SEL, e, 2, [1.0, 2.0], t).tobytes()]
                 for e, t in ((Fraction(1, 2), Fraction(3, 10)), (0.5, 0.3)))
    assert got == want


def test_averaged_reference_keeps_the_float_of_t():
    # -gamma t is taken in float64: an np.float32 t once made it a float32
    # product.
    gains = _gains(gamma=5.0, y_star=(0.0, 0.0))
    got, want = (averaged_reference([1.0, 0.0], gains, t) for t in (np.float32(0.3),
                                                                     float(np.float32(0.3))))
    assert got.tobytes() == want.tobytes()


def test_float32_horizon_runs_as_its_float():
    # np.float32(2.3) is the float 2.299999952316284: its run is that
    # float's, not a run whose t_final / epsilon is taken in float32.
    gains = dataclasses.replace(DISC.gains, epsilon=0.1)
    runs = [simulate_pi_epsilon(SYS, SEL, gains, np.array(DISC.x0), SimConfig(t_final=t))
            for t in (np.float32(2.3), float(np.float32(2.3)))]
    assert len(runs[0].sample_times) == len(runs[1].sample_times) == 23
    assert _bytes(runs[0]) == _bytes(runs[1])


def test_each_gate_rule_is_written_once():
    # model's gates raise InvalidInputError only; a caller that needs
    # another error maps it (scenarios._constructing), so no gate takes an
    # error parameter.  Their four rules are written in model alone: any
    # other module that refuses a value for its type, for not being finite
    # and > 0, or a count below 1, calls a gate.
    from bracket_steer import model
    gates = [name for name, value in vars(model).items()
             if name.startswith("_as_") and inspect.isfunction(value)]
    assert {"_as_int", "_as_count", "_as_real", "_as_reals", "_as_list",
            "_as_positive"} <= set(gates)
    assert [name for name in gates
            if "error" in inspect.signature(getattr(model, name)).parameters] == []
    rules = ("must be finite and > 0", "must be a real number", "must be an integer",
             "must be >= 1")
    written = {path.name: [rule for rule in rules if rule in path.read_text()]
               for path in sorted(Path(model.__file__).parent.glob("*.py"))}
    assert {name: found for name, found in written.items() if found} == {"model.py": list(rules)}
