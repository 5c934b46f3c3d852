import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bracket_steer import (ControllerGains, InvalidInputError, NonFiniteError,
                           PartitionedSystem, SimConfig, as_state, averaged_reference,
                           builtin_scenario, decay_report, eval_field, finite_diff_jacobian,
                           formation_error, gain_condition_report, jacobian, lie_bracket,
                           simulate_formation)

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


# Each public numeric parameter checked by model._as_real or _as_int: a
# call with the value in its place, the value the table's bad values
# replace, and the rule it is held to.
_TYPED_PARAMETERS = {
    "ControllerGains.epsilon": (lambda v, _: _gains(epsilon=v), 0.1, "a real number"),
    "ControllerGains.gamma": (lambda v, _: _gains(gamma=v), 1.0, "a real number"),
    "ControllerGains.cond_cap": (lambda v, _: _gains(cond_cap=v), 1e6, "a real number"),
    "decay_report.rho": (lambda v, f: decay_report(f[1].displacement_trajs[0], f[0].gains, v),
                         0.1, "a real number"),
    "averaged_reference.t": (lambda v, _: averaged_reference([1.0], _gains(), v),
                             0.5, "a real number"),
    "gain_condition_report.rho": (
        lambda v, f: gain_condition_report(f[0].leader, f[0].agents, v,
                                           f[1].dense_times, f[1].leader_states),
        0.1, "a real number"),
    "formation_error.agent_index": (lambda v, f: formation_error(f[1], v), 0, "an integer"),
}


@pytest.mark.parametrize("bad", ["x", None, [1.0], True, np.bool_(False)], ids=repr)
@pytest.mark.parametrize("param", sorted(_TYPED_PARAMETERS))
def test_public_numeric_parameters_refuse_non_numbers(short_formation, param, bad):
    call, good, rule = _TYPED_PARAMETERS[param]
    call(good, short_formation)
    with pytest.raises(InvalidInputError) as info:
        call(bad, short_formation)
    name = param.rpartition(".")[2]
    assert str(info.value) == f"{name} must be {rule}, got {bad!r}"


def test_agent_index_refuses_a_fraction(short_formation):
    with pytest.raises(InvalidInputError, match=r"^agent_index must be an integer, got 5e-324$"):
        formation_error(short_formation[1], 5e-324)
    assert formation_error(short_formation[1], 0.0) is short_formation[1].error_series[0]


def test_gains_store_their_values_as_given():
    # The check reads each value as a float; the dataclass keeps it as given.
    gains = _gains(epsilon=1, gamma=np.float32(2.0), cond_cap=10)
    assert (type(gains.epsilon), type(gains.gamma), type(gains.cond_cap)) == (
        int, np.float32, int)
