import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bracket_steer import (BracketSelection, ControllerGains, InvalidInputError,
                           RankDegeneracyError, SelectionShapeError,
                           check_selection, control_value, extension_matrix,
                           held_control, steering_coefficients,
                           validate_selection)

from bracket_steer.synthesis import frozen_control

from oracles import (antisym_iterated_integral, control_series, disc_extension,
                     held_control_reference, steering, unicycle_extension)


# --- selection construction -------------------------------------------------

def test_kappa_defaults_in_pair_order():
    sel = BracketSelection(s1=(1,), s2=((1, 2), (2, 3), (1, 3)))
    assert sel.kappa == (1, 2, 3)
    assert sel.kappa_max == 3
    assert sel.width == 4


def test_kappa_from_mapping():
    sel = BracketSelection(s1=(), s2=((1, 2), (2, 3)), kappa={(2, 3): 5, (1, 2): 2})
    assert sel.kappa == (2, 5)


def test_kappa_mapping_missing_pair():
    with pytest.raises(InvalidInputError):
        BracketSelection(s1=(), s2=((1, 2), (2, 3)), kappa={(1, 2): 1})


def test_kappa_length_mismatch():
    with pytest.raises(InvalidInputError):
        BracketSelection(s1=(), s2=((1, 2),), kappa=(1, 2))


def test_check_selection_accepts_builtins(disc, disc_sel, uni, uni_sel):
    check_selection(disc, disc_sel)
    check_selection(uni, uni_sel)


def test_check_selection_width(disc):
    bad = BracketSelection(s1=(1, 2), s2=((1, 2),))
    with pytest.raises(SelectionShapeError, match="selection shape invariant"):
        check_selection(disc, bad)


def test_check_selection_self_pair(disc):
    bad = BracketSelection(s1=(1,), s2=((2, 2),))
    with pytest.raises(SelectionShapeError, match="bracket pair invariant"):
        check_selection(disc, bad)


def test_check_selection_duplicate_kappa(uni):
    bad = BracketSelection(s1=(1,), s2=((1, 2), (2, 1)), kappa=(3, 3))
    with pytest.raises(SelectionShapeError, match="kappa distinctness invariant"):
        check_selection(uni, bad)


def test_check_selection_index_range(disc):
    with pytest.raises(SelectionShapeError, match="S1 index invariant"):
        check_selection(disc, BracketSelection(s1=(3,), s2=((1, 2),)))
    with pytest.raises(SelectionShapeError, match="S2 index invariant"):
        check_selection(disc, BracketSelection(s1=(1,), s2=((1, 5),)))


def test_check_selection_kappa_positive(disc):
    bad = BracketSelection(s1=(1,), s2=((1, 2),), kappa=(0,))
    with pytest.raises(SelectionShapeError, match="kappa positivity invariant"):
        check_selection(disc, bad)


def test_gains_validation():
    with pytest.raises(InvalidInputError):
        ControllerGains(epsilon=0.0, gamma=1.0, y_star=(0.0,))
    with pytest.raises(InvalidInputError):
        ControllerGains(epsilon=1.0, gamma=-2.0, y_star=(0.0,))
    with pytest.raises(InvalidInputError):
        ControllerGains(epsilon=1.0, gamma=1.0, y_star=(0.0,), cond_cap=1.0)


# --- extension matrix -------------------------------------------------------

def test_extension_matrix_disc_zero_heading(disc, disc_sel):
    x = np.array([2.0, 1.0, 0.0, math.pi])
    F = extension_matrix(disc, disc_sel, x)
    assert np.allclose(F, [[1.0, 0.0], [0.0, -1.0]], atol=1e-15)


def test_extension_matrix_disc_is_orthogonal_involution(disc, disc_sel):
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.uniform(-3, 3, size=4)
        F = extension_matrix(disc, disc_sel, x)
        assert np.allclose(F @ F, np.eye(2), atol=1e-15)
        assert np.allclose(F, disc_extension(x), atol=1e-9)


def test_extension_matrix_unicycle(uni, uni_sel):
    th = 0.9
    x = np.array([0.1, -0.4, th])
    F = extension_matrix(uni, uni_sel, x)
    c, s = math.cos(th), math.sin(th)
    expected = np.array([[c, 0.0, s], [s, 0.0, -c], [0.0, 1.0, 0.0]])
    assert np.allclose(F, expected, atol=1e-15)
    assert np.allclose(F, unicycle_extension(x), atol=1e-9)


def test_extension_matrix_rejects_bad_selection(disc):
    with pytest.raises(SelectionShapeError):
        extension_matrix(disc, BracketSelection(s1=(1, 2), s2=((1, 2),)),
                         np.zeros(4))


# --- steering coefficients --------------------------------------------------

def test_steering_disc_worked_value(disc, disc_sel, disc_gains):
    # At x = (2, 1, 0, pi): F = [[1,0],[0,-1]], a = -5 F^{-1} (2,1) = (-10, 5).
    a = steering_coefficients(disc, disc_sel, disc_gains, np.array([2.0, 1.0, 0.0, math.pi]))
    assert np.allclose(a, [-10.0, 5.0], atol=1e-12)


def test_steering_zero_at_target(disc, disc_sel, disc_gains):
    a = steering_coefficients(disc, disc_sel, disc_gains,
                              np.array([0.0, 0.0, 1.3, -2.0]))
    assert np.array_equal(a, np.zeros(2))


def test_steering_matches_inverse_oracle(disc, disc_sel, disc_gains, uni, uni_sel, uni_gains):
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.uniform(-2, 2, size=4)
        F = extension_matrix(disc, disc_sel, x)
        want = steering(F, disc_gains.gamma, x[:2] - np.array(disc_gains.y_star))
        got = steering_coefficients(disc, disc_sel, disc_gains, x)
        assert np.allclose(got, want, atol=1e-10)
        x = rng.uniform(-2, 2, size=3)
        F = extension_matrix(uni, uni_sel, x)
        want = steering(F, uni_gains.gamma, x - np.array(uni_gains.y_star))
        got = steering_coefficients(uni, uni_sel, uni_gains, x)
        assert np.allclose(got, want, atol=1e-10)


def test_steering_solves_linear_system(disc, disc_sel, disc_gains):
    rng = np.random.default_rng(9)
    for _ in range(20):
        x = rng.uniform(-3, 3, size=4)
        a = steering_coefficients(disc, disc_sel, disc_gains, x)
        F = extension_matrix(disc, disc_sel, x)
        resid = F @ a + disc_gains.gamma * (x[:2] - np.array(disc_gains.y_star))
        assert np.linalg.norm(resid) <= 1e-10


def test_steering_wrong_target_dim(disc, disc_sel):
    gains = ControllerGains(epsilon=1.0, gamma=5.0, y_star=(0.0, 0.0, 0.0))
    with pytest.raises(InvalidInputError):
        steering_coefficients(disc, disc_sel, gains, np.zeros(4))


def test_conditioning_cap_trips(pinch, pinch_sel):
    gains = ControllerGains(epsilon=0.1, gamma=1.0, y_star=(0.0, 0.0))
    # cond F = 1/|x1|; the default cap is 1e6.
    with pytest.raises(RankDegeneracyError) as info:
        steering_coefficients(pinch, pinch_sel, gains, np.array([1e-7, 1.0]))
    assert info.value.condition > 1e6

    with pytest.raises(RankDegeneracyError) as info:
        steering_coefficients(pinch, pinch_sel, gains, np.array([0.0, 1.0]))
    assert math.isinf(info.value.condition)

    # Comfortably conditioned states pass.
    a = steering_coefficients(pinch, pinch_sel, gains, np.array([0.5, 1.0]))
    assert np.allclose(a, [-0.5, -2.0])


def test_cond_cap_is_configurable(pinch, pinch_sel):
    tight = ControllerGains(epsilon=0.1, gamma=1.0, y_star=(0.0, 0.0), cond_cap=3.0)
    with pytest.raises(RankDegeneracyError):
        steering_coefficients(pinch, pinch_sel, tight, np.array([0.25, 1.0]))


# --- control law ------------------------------------------------------------

def test_control_disc_worked_value(disc, disc_sel, disc_gains):
    x_hold = np.array([2.0, 1.0, 0.0, math.pi])
    u0 = control_value(disc, disc_sel, disc_gains, 0.0, x_hold)
    amp = 2.0 * math.sqrt(math.pi * 1 * 5.0 / 1.0)
    assert u0[0] == pytest.approx(-10.0 + amp, abs=1e-12)
    assert u0[1] == pytest.approx(0.0, abs=1e-12)

    # A quarter period later the cosine dies and the sine peaks.
    uq = control_value(disc, disc_sel, disc_gains, 0.25, x_hold)
    assert uq[0] == pytest.approx(-10.0, abs=1e-12)
    assert uq[1] == pytest.approx(amp, abs=1e-12)


def test_control_sign_flips_with_bracket_coefficient(disc, disc_sel, disc_gains):
    # Mirroring the displacement flips a12, which must flip the sine branch.
    up = control_value(disc, disc_sel, disc_gains, 0.25, np.array([2.0, 1.0, 0.0, 0.0]))
    un = control_value(disc, disc_sel, disc_gains, 0.25, np.array([2.0, -1.0, 0.0, 0.0]))
    assert up[1] == pytest.approx(-un[1], abs=1e-12)


def test_control_zero_bracket_coefficient_kills_oscillation(pinch, pinch_sel):
    # No S2 pairs at all: the control is the plain steering vector.
    gains = ControllerGains(epsilon=0.5, gamma=2.0, y_star=(0.0, 0.0))
    u = control_value(pinch, pinch_sel, gains, 0.33, np.array([1.0, 1.0]))
    assert np.allclose(u, [-2.0, -2.0], atol=1e-12)


def test_held_control_periodicity_bitwise(disc_sel):
    # Dyadic epsilon and dyadic t: fmod is exact, so whole-period shifts
    # reproduce the control bitwise.
    eps = 0.25
    a = np.array([-1.5, 2.75])
    for t in (0.0, 0.0625, 0.125, 0.1875):
        u0 = held_control(disc_sel, eps, 2, a, t)
        for k in (1, 2, 7, 64):
            uk = held_control(disc_sel, eps, 2, a, t + k * eps)
            assert np.array_equal(u0, uk)


@pytest.mark.parametrize("sel, m", [
    (BracketSelection(s1=(1,), s2=((1, 2),), kappa=(1,)), 2),
    (BracketSelection(s1=(1, 2), s2=((1, 2),), kappa=(1,)), 2),
    (BracketSelection(s1=(3,), s2=((1, 2), (1, 3)), kappa=(1, 3)), 3),
])
def test_frozen_control_matches_reference_bitwise(sel, m):
    # One frozen control per coefficient vector, evaluated over a seeded
    # time grid, against the per-call construction it replaces.
    rng = np.random.default_rng(20261018)
    specials = [0.0, -0.0, -1.0, 2.5, -3e-9, 7e4]
    coeffs = [np.array(rng.choice(specials, size=sel.width)) for _ in range(12)]
    coeffs += [rng.normal(scale=3.0, size=sel.width) for _ in range(12)]
    for eps in (1.0, 0.1, 0.4, 0.025):
        ts = np.concatenate([[0.0, eps, 7 * eps], rng.uniform(0.0, 60.0, size=40)])
        for a in coeffs:
            u_of = frozen_control(sel, eps, m, a)
            for t in ts:
                got = u_of(float(t))
                want = held_control_reference(sel, eps, m, a, float(t))
                assert got.tobytes() == want.tobytes()
                assert held_control(sel, eps, m, a, float(t)).tobytes() == want.tobytes()


def test_oscillatory_part_has_zero_mean(disc_sel):
    eps = 0.7
    a = np.array([0.8, -2.3])
    ts = np.linspace(0.0, eps, 20001)
    us = np.array([held_control(disc_sel, eps, 2, a, t) for t in ts])
    means = np.trapezoid(us, ts, axis=0) / eps
    # Constant part survives, oscillation integrates away.
    assert means[0] == pytest.approx(a[0], abs=1e-8)
    assert means[1] == pytest.approx(0.0, abs=1e-8)


def test_control_matches_independent_series(uni_sel):
    # Same coefficients through a separately written construction.
    eps = 0.2
    a = np.array([0.3, -1.1, 0.9])
    series = control_series(2, (1, 2), ((1, 2),), (1,), eps, a)
    for t in np.linspace(0.0, 3 * eps, 37):
        got = held_control(uni_sel, eps, 2, a, t)
        assert np.allclose(got, series(t), atol=1e-9)


def test_oscillatory_averaging_generic_state(uni_sel):
    # With the constant part stripped, the antisymmetric iterated integral
    # of the oscillatory pair over one period equals epsilon * a12.
    eps = 0.2
    for a12 in (0.9, -1.7, 3.0):
        a = np.array([0.0, 0.0, a12])
        series = control_series(2, (1, 2), ((1, 2),), (1,), eps, a)
        got = antisym_iterated_integral(lambda t: series(t)[0],
                                        lambda t: series(t)[1], eps)
        assert got == pytest.approx(eps * a12, abs=1e-6)


# --- validate_selection -----------------------------------------------------

def test_validate_selection_disc(disc, disc_sel, disc_gains):
    rng = np.random.default_rng(77)
    probes = [rng.uniform(-3, 3, size=4) for _ in range(50)]
    cert = validate_selection(disc, disc_sel, probes, disc_gains)
    assert cert.rank_ok
    assert cert.worst_condition <= 1.0 + 1e-9
    assert cert.alpha_estimate <= 1.0 + 1e-9
    assert len(cert.sampled_states) == 50


def test_validate_selection_degenerate_probe(pinch, pinch_sel):
    gains = ControllerGains(epsilon=0.1, gamma=1.0, y_star=(0.0, 0.0))
    cert = validate_selection(pinch, pinch_sel, [np.array([0.0, 1.0])], gains)
    assert not cert.rank_ok
    assert math.isinf(cert.worst_condition)

    cert = validate_selection(pinch, pinch_sel, [np.array([1e-8, 1.0])], gains)
    assert not cert.rank_ok
    assert cert.worst_condition > gains.cond_cap


def test_validate_selection_rejects_malformed(disc, disc_gains):
    bad = BracketSelection(s1=(1, 2), s2=((1, 2),))
    with pytest.raises(SelectionShapeError):
        validate_selection(disc, bad, [np.zeros(4)], disc_gains)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-8, max_value=8, allow_nan=False),
       st.floats(min_value=-8, max_value=8, allow_nan=False),
       st.floats(min_value=-8, max_value=8, allow_nan=False))
def test_steering_contract_hypothesis(x1, x2, th):
    from bracket_steer import system
    disc = system("rolling-disc")
    sel = BracketSelection(s1=(1,), s2=((1, 2),))
    gains = ControllerGains(epsilon=0.5, gamma=3.0, y_star=(0.0, 0.0))
    x = np.array([x1, x2, th, 0.0])
    a = steering_coefficients(disc, sel, gains, x)
    F = extension_matrix(disc, sel, x)
    assert np.linalg.norm(F @ a + 3.0 * x[:2]) <= 1e-9 * max(1.0, np.linalg.norm(x))
