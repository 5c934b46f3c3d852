import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bracket_steer import (ROLLING_DISC, UNICYCLE, BracketSelection, ControllerGains,
                           FollowerAgent, InvalidInputError, PartitionedSystem,
                           RankDegeneracyError, SelectionShapeError, builtin_scenario,
                           check_selection, control_value, extension_matrix,
                           follower_controller, follower_steering, held_control,
                           steering_coefficients, validate_selection)
from bracket_steer import formation, library, model, synthesis
from bracket_steer.model import as_state
from bracket_steer.scenarios import probe_states
from bracket_steer.simulate import interval_grid
from bracket_steer.synthesis import frozen_control

from oracles import (antisym_iterated_integral, control_series, disc_extension,
                     extension_matrix_reference, held_control_reference, steering,
                     unicycle_extension)


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


def test_infinite_cond_cap_reaches_singular_solve(pinch, pinch_sel):
    # cond_cap = inf is accepted, and cond = inf does not exceed it, so an
    # exactly singular F reaches np.linalg.solve; its error stays typed.
    gains = ControllerGains(epsilon=0.1, gamma=1.0, y_star=(0.0, 0.0), cond_cap=math.inf)
    with pytest.raises(RankDegeneracyError,
                       match=r"^extension matrix is singular at state \[0\.0, 1\.0\]$") as info:
        steering_coefficients(pinch, pinch_sel, gains, np.array([0.0, 1.0]))
    assert math.isinf(info.value.condition)
    with pytest.raises(RankDegeneracyError,
                       match=r"^extension matrix is singular at state \[0\.0, 0\.0\]$"):
        synthesis._solve_steering(np.zeros((2, 2)), np.zeros(2), gains.cond_cap, np.zeros(2))


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


def _interval_times(base_t, h, nsub, t_end):
    """The times one interval's control table covers, in the integrator's
    float expressions: each sub-step's start, midpoint and end, then t_end."""
    times = []
    for i in range(1, nsub + 1):
        t = base_t + (i - 1) * h
        times += [t, t + 0.5 * h, t + h]
    return times + [t_end]


@pytest.mark.parametrize("sel, m", [
    (BracketSelection(s1=(1,), s2=((1, 2),), kappa=(1,)), 2),
    (BracketSelection(s1=(1, 2), s2=((1, 2),), kappa=(1,)), 2),
    (BracketSelection(s1=(3,), s2=((1, 2), (1, 3)), kappa=(1, 3)), 3),
])
def test_frozen_control_matches_reference_bitwise(sel, m):
    # One frozen control per coefficient vector, tabulated in one numpy pass
    # over whole intervals (the first, one near t = 1e6, and partial tails
    # whose t_end is not their last sub-step's t + h) and over a seeded grid
    # up to t = 1e6, against the per-call math.cos / math.sin construction,
    # byte for byte.  This pins the premise that numpy's fmod, cos and sin
    # round as math's do on this numpy build.
    rng = np.random.default_rng(20261018)
    specials = [0.0, -0.0, -1.0, 2.5, -3e-9, 7e4]
    coeffs = [np.array(rng.choice(specials, size=sel.width)) for _ in range(12)]
    coeffs += [rng.normal(scale=3.0, size=sel.width) for _ in range(12)]
    nsub = 40
    for eps in (1.0, 0.1, 0.4, 0.025):
        late = int(1e6 / eps)
        grids = [_interval_times(0.0, eps / nsub, nsub, eps),
                 _interval_times(late * eps, eps / nsub, nsub, (late + 1) * eps)]
        tails = []
        for t_final in rng.uniform(3.0, 9.0, size=40) * eps:
            n_int, tail = interval_grid(t_final, eps)
            ts = _interval_times(n_int * eps, tail / nsub, nsub, t_final)
            if tail > 0.0 and ts[-2] != t_final:  # last sub-step's t + h is not t_end
                tails.append(ts)
        assert tails, eps
        grids += tails[:2]
        grid = [0.0, eps, 7 * eps, *rng.uniform(0.0, 60.0, size=40),
                *rng.uniform(0.0, 1e6, size=40)]
        grids.append(grid)
        for a in coeffs:
            table = frozen_control(sel, eps, m, a)
            for ts in grids:
                got = table(np.array(ts))
                assert got.shape == (len(ts), m)
                for t, row in zip(ts, got):
                    want = held_control_reference(sel, eps, m, a, t)
                    assert row.tobytes() == want.tobytes(), (eps, a, t)
            for t in grid:
                want = held_control_reference(sel, eps, m, a, t)
                assert held_control(sel, eps, m, a, t).tobytes() == want.tobytes()


def test_held_control_refuses_non_finite_time(disc_sel):
    a = np.array([-1.5, 2.75])
    for t in (math.inf, -math.inf, math.nan):
        with pytest.raises(InvalidInputError, match="t must be finite"):
            held_control(disc_sel, 0.25, 2, a, t)


@pytest.mark.parametrize("kappa, epsilon, m, a, match", [
    (1, 0.0, 2, [1.0, 2.0], "epsilon must be finite and > 0, got 0.0"),
    (1, -0.5, 2, [1.0, 2.0], "epsilon must be finite and > 0, got -0.5"),
    (1, math.nan, 2, [1.0, 2.0], "epsilon must be finite and > 0, got nan"),
    (1, 0.25, 1, [1.0, 2.0], r"selection index 2 outside 1..m, m = 1"),
    (1, 0.25, 2, [1.0], r"a has shape \(1,\), expected \(sel.width,\) = \(2,\)"),
    (1, 0.25, 2, [1.0, math.nan], r"a must be finite, got \[1.0, nan\]"),
    (-1, 0.25, 2, [1.0, 2.0], "kappa entry -1 must be >= 1"),
], ids=["epsilon-zero", "epsilon-negative", "epsilon-nan", "m-below-index", "a-short",
        "a-nan", "kappa-negative"])
def test_held_control_refuses_bad_inputs(kappa, epsilon, m, a, match):
    # Each once failed untyped (ZeroDivisionError, math domain error,
    # IndexError) or returned a silent NaN row.
    sel = BracketSelection(s1=(1,), s2=((1, 2),), kappa=(kappa,))
    with pytest.raises(InvalidInputError, match=match):
        held_control(sel, epsilon, m, a, 0.3)


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


def _per_probe_certificate(sys, sel, probes, gains):
    """validate_selection as one _conditioning call per probe: its reference."""
    worst = alpha = 0.0
    ok = True
    states = []
    for x in probes:
        x = as_state(x, sys.n)
        states.append(tuple(float(v) for v in x))
        cond, smin = synthesis._conditioning(synthesis._extension_matrix(sys, sel, x))
        if smin == 0.0:
            ok, worst, alpha = False, math.inf, math.inf
            continue
        worst = max(worst, cond)
        alpha = max(alpha, float(1.0 / smin))
    return synthesis.RankCertificate(tuple(states), worst, ok and worst <= gains.cond_cap,
                                     alpha, gains.cond_cap)


def _counting(monkeypatch, module, name, record):
    """Wrap module.name so each call appends record(*args) to the returned list."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(record(*args))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_validate_selection_chunks_match_per_probe(monkeypatch, disc, disc_sel, disc_gains,
                                                   pinch, pinch_sel):
    # The probes' matrices go through one SVD per chunk of PROBE_CHUNK; at
    # every count around a chunk boundary the certificate, sampled states
    # included, is the per-probe loop's to the bit.
    C = synthesis.PROBE_CHUNK
    assert C == 256
    rng = np.random.default_rng(15)
    shapes = _counting(monkeypatch, np.linalg, "svd", lambda F, *_: np.shape(F))
    for count in (1, C - 1, C, C + 1, 2 * C + 1):
        probes = list(rng.uniform(-3.0, 3.0, size=(count, 4)))
        want = _per_probe_certificate(disc, disc_sel, probes, disc_gains)
        shapes.clear()
        got = validate_selection(disc, disc_sel, probes, disc_gains)
        assert shapes == [(C, 2, 2)] * (count // C) + [(count % C, 2, 2)] * (count % C > 0)
        assert repr(got) == repr(want)
        assert len(got.sampled_states) == count
    # A singular probe in the second chunk, on the generic path.
    gains = ControllerGains(epsilon=0.1, gamma=1.0, y_star=(0.0, 0.0))
    probes = [np.array([x1, 1.0]) for x1 in rng.uniform(0.5, 2.0, size=C + 5)]
    probes[C + 3] = np.array([0.0, 1.0])
    want = _per_probe_certificate(pinch, pinch_sel, probes, gains)
    shapes.clear()
    cert = validate_selection(pinch, pinch_sel, probes, gains)
    assert shapes == [(C, 2, 2), (5, 2, 2)]
    assert not cert.rank_ok
    assert math.isinf(cert.worst_condition) and math.isinf(cert.alpha_estimate)
    assert repr(cert) == repr(want)
    # An n1 = 8 system's stacks hold PROBE_STACK_ENTRIES entries: 64 matrices.
    assert synthesis.PROBE_STACK_ENTRIES == 16 * C
    n = 8
    unit = PartitionedSystem(
        name="unit", n=n, n1=n, n2=0, m=n, drift=lambda t, x: np.zeros(n),
        control_fields=tuple(lambda x, k=k: np.eye(n)[k] for k in range(n)),
        control_jacobians=(lambda x: np.zeros((n, n)),) * n)
    unit_sel = BracketSelection(s1=tuple(range(1, n + 1)), s2=())
    probes = list(rng.normal(size=(130, n)))
    want = _per_probe_certificate(unit, unit_sel, probes, gains)
    shapes.clear()
    cert = validate_selection(unit, unit_sel, probes, gains)
    assert shapes == [(64, n, n), (64, n, n), (2, n, n)]
    assert repr(cert) == repr(want)


# --- the extension matrix against its per-bracket reference ------------------

def _with_reference(monkeypatch, fn):
    """fn() with every extension matrix built by the reference; and its count."""
    calls = []

    def reference(sys, sel, x):
        calls.append(1)
        return extension_matrix_reference(sys, sel, x)

    with monkeypatch.context() as mp:
        mp.setattr(synthesis, "_extension_matrix", reference)
        mp.setattr(synthesis, "extension_matrix", reference)
        mp.setattr(formation, "extension_matrix", reference)
        return fn(), len(calls)


def _steering_layer(sys, sel, gains, probes, steer):
    # Looked up on the module, so _with_reference swaps it too.
    cert = validate_selection(sys, sel, probes, gains)
    return (b"".join(synthesis.extension_matrix(sys, sel, x).tobytes() for x in probes),
            json.dumps(cert.to_dict(), sort_keys=True), cert.sampled_states,
            None if steer is None else np.array([steer(x) for x in probes]).tobytes())


def _reference_cases(pinch):
    disc_b = builtin_scenario("rolling-disc")
    uni_b = builtin_scenario("unicycle-leader")
    agent = uni_b.agents[0]
    uni_gains = ControllerGains(epsilon=0.1, gamma=10.0, y_star=(0.0, 0.0, 0.0))
    permuted = BracketSelection(s1=(2, 1), s2=((2, 1),))
    # Every field and Jacobian feeds several brackets; F is singular.
    repeated = BracketSelection(s1=(), s2=((1, 2), (2, 1), (1, 2)), kappa=(1, 2, 3))
    disc_probes = probe_states(disc_b, 200, seed=7)
    uni_probes = probe_states(uni_b, 200, seed=7)
    # pinch is no built-in: F = [[1, 0], [0, x1]], and [[1, 0], [0, -1]] with [2,1].
    pinch_gains = ControllerGains(epsilon=0.1, gamma=1.0, y_star=(0.0, 0.0))
    pinch_probes = np.random.default_rng(7).uniform([0.5, -2.0], [2.0, 2.0], size=(200, 2))
    pinch_sel = BracketSelection(s1=(1, 2), s2=())
    pinch_bracket = BracketSelection(s1=(1,), s2=((2, 1),))
    return {
        "rolling-disc": (disc_probes, disc_b.system, disc_b.selection, disc_b.gains,
                         lambda x: steering_coefficients(
                             disc_b.system, disc_b.selection, disc_b.gains, x)),
        "unicycle-leader": (uni_probes, agent.system, agent.selection, uni_b.gains,
                            lambda x: follower_steering(agent, uni_b.gains, x, uni_b.leader.x0)),
        "unicycle-permuted": (uni_probes, agent.system, permuted, uni_gains,
                              lambda x: steering_coefficients(agent.system, permuted, uni_gains, x)),
        "unicycle-repeated-pairs": (uni_probes, agent.system, repeated, uni_gains, None),
        "pinch": (pinch_probes, pinch, pinch_sel, pinch_gains,
                  lambda x: steering_coefficients(pinch, pinch_sel, pinch_gains, x)),
        "pinch-bracket": (pinch_probes, pinch, pinch_bracket, pinch_gains,
                          lambda x: steering_coefficients(pinch, pinch_bracket, pinch_gains, x)),
    }


BUILTIN_CASES = ("rolling-disc", "unicycle-leader", "unicycle-permuted", "unicycle-repeated-pairs")


def _matches_reference(monkeypatch, pinch, case):
    probes, sys, sel, gains, steer = _reference_cases(pinch)[case]
    got = _steering_layer(sys, sel, gains, probes, steer)
    want, calls = _with_reference(monkeypatch, lambda: _steering_layer(
        sys, sel, gains, probes, steer))
    assert calls == (3 if steer else 2) * len(probes)
    assert got == want


@pytest.mark.parametrize("case", BUILTIN_CASES + ("pinch", "pinch-bracket"))
def test_extension_matrix_matches_reference_bitwise(monkeypatch, pinch, case):
    # Matrices, certificates and steering coefficients must be the
    # per-bracket reference's to the bit: the built-ins' fused columns, and
    # the generic construction a non-built-in system (pinch) takes.
    _matches_reference(monkeypatch, pinch, case)


@pytest.mark.parametrize("case", BUILTIN_CASES)
def test_generic_extension_matrix_matches_reference_bitwise(monkeypatch, pinch, case):
    # The built-ins again with the fused table emptied: the generic
    # construction on their fields.
    monkeypatch.setattr(library, "_FUSED_COLUMNS", {})
    _matches_reference(monkeypatch, pinch, case)


def _heading_states(n, seed=15):
    """States with every edge heading, then 20 seeded normal states."""
    rng = np.random.default_rng(seed)
    headings = [k * math.pi / 2 for k in range(-4, 5)]
    headings += [v for h in (0.0, 5e-324, 1e-300, 1e9) for v in (h, -h)]
    states = []
    for i, heading in enumerate(headings):
        x = [(-1.0) ** i * 0.5 * (j + 1) for j in range(n)]
        x[2] = heading
        states.append(np.array(x))
    return states + list(rng.normal(scale=3.0, size=(20, n)))


FUSED_MATRIX_CASES = {
    "rolling-disc": (ROLLING_DISC, (
        BracketSelection(s1=(1,), s2=((1, 2),)),
        BracketSelection(s1=(2,), s2=((2, 1),)),
        BracketSelection(s1=(2, 1), s2=()),
        BracketSelection(s1=(), s2=((1, 2), (2, 1))))),
    "unicycle": (UNICYCLE, (
        BracketSelection(s1=(1, 2), s2=((1, 2),)),
        BracketSelection(s1=(2, 1), s2=((2, 1),)),
        BracketSelection(s1=(), s2=((1, 2), (2, 1), (1, 2)), kappa=(1, 2, 3)))),
}


def test_fused_extension_matrices_match_generic_bitwise(monkeypatch):
    # The built-ins' fused columns give, bit for bit, the generic matrix on
    # the same fields: zero, subnormal, tiny and huge headings of both
    # signs (sin(+-0.0) is a signed zero the bracket's sums turn to +0.0).
    assert len(library._FUSED_COLUMNS) == len(FUSED_MATRIX_CASES)
    disc_sels, uni_sels = FUSED_MATRIX_CASES["rolling-disc"][1], FUSED_MATRIX_CASES["unicycle"][1]
    assert builtin_scenario("rolling-disc").selection in disc_sels
    assert builtin_scenario("unicycle-leader").agents[0].selection in uni_sels
    jac_calls = _counting(monkeypatch, model, "_jac", lambda *_: 1)
    for name, (sys, sels) in FUSED_MATRIX_CASES.items():
        assert library._fused_columns(sys) is library._heading_columns
        for sel in sels:
            for x in _heading_states(sys.n):
                jac_calls.clear()
                got = synthesis.extension_matrix(sys, sel, x)
                assert jac_calls == []
                with monkeypatch.context() as m:
                    m.setattr(library, "_FUSED_COLUMNS", {})
                    want = synthesis.extension_matrix(sys, sel, x)
                assert jac_calls or not sel.s2
                assert got.flags.c_contiguous and got.shape == want.shape == (sys.n1, sys.n1)
                assert got.tobytes() == want.tobytes(), (name, sel, x.tolist())


def test_swapped_jacobian_takes_generic_matrix(monkeypatch):
    # A copy of the unicycle with one Jacobian swapped, here for an equal
    # function, misses the table: the generic construction calls _jac.
    jac_calls = _counting(monkeypatch, model, "_jac", lambda *_: 1)
    sel = BracketSelection(s1=(1, 2), s2=((1, 2),))
    x = np.array([0.4, -1.2, 0.9])
    for k in range(2):
        jacs = list(UNICYCLE.control_jacobians)
        jacs[k] = lambda x, f=jacs[k]: f(x)
        copy = dataclasses.replace(UNICYCLE, control_jacobians=tuple(jacs))
        assert library._fused_columns(copy) is None
        jac_calls.clear()
        got = synthesis.extension_matrix(copy, sel, x)
        assert jac_calls == [1, 1]
        jac_calls.clear()
        assert got.tobytes() == synthesis.extension_matrix(UNICYCLE, sel, x).tobytes()
        assert jac_calls == []


def _fault_system(f1=None, f2=None, j1=None, j2=None):
    # F = [[1, x0], [x0, -x1]] for S1 = (1,), S2 = ((1, 2),) when unfaulted.
    return PartitionedSystem(
        name="faulty", n=2, n1=2, n2=0, m=2,
        drift=lambda t, x: np.zeros(2),
        control_fields=(f1 or (lambda x: np.array([1.0, x[0]])),
                        f2 or (lambda x: np.array([x[1], 1.0]))),
        control_jacobians=(j1 or (lambda x: np.array([[0.0, 0.0], [1.0, 0.0]])),
                           j2 or (lambda x: np.array([[0.0, 1.0], [0.0, 0.0]]))))


FAULTS = {
    "shape-f1-nonfinite-f2": _fault_system(
        f1=lambda x: np.zeros(3), f2=lambda x: np.array([math.nan, 1.0])),
    "nonfinite-j2-shape-j1": _fault_system(
        j1=lambda x: np.zeros((2, 3)), j2=lambda x: np.array([[math.inf, 0.0], [0.0, 0.0]])),
    "nonfinite-bracket": _fault_system(
        f1=lambda x: np.array([1e300, 1e300]), j2=lambda x: np.full((2, 2), 1e300)),
}


def _raised(fn):
    try:
        fn()
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc), str(exc)
    return None


def test_extension_matrix_errors_match_reference(monkeypatch):
    # Each bracket evaluates its own fields and Jacobians in the
    # reference's order, so the same failing field, Jacobian or bracket is
    # named.
    gains = ControllerGains(epsilon=0.1, gamma=1.0, y_star=(0.0, 0.0))
    x = np.array([0.5, 0.25])
    sels = [BracketSelection(s1=s1, s2=(pair,)) for s1 in ((1,), (2,)) for pair in ((1, 2), (2, 1))]
    sels += [BracketSelection(s1=(2, 1), s2=()),
             BracketSelection(s1=(), s2=((1, 2), (2, 1))),
             BracketSelection(s1=(), s2=((2, 1), (1, 2)))]
    messages = set()
    with np.errstate(over="ignore", invalid="ignore"):
        for name, sys in FAULTS.items():
            for sel in sels:
                calls = (lambda: synthesis.extension_matrix(sys, sel, x),
                         lambda: validate_selection(sys, sel, [x], gains))
                for call in calls:
                    got = _raised(call)
                    want, _ = _with_reference(monkeypatch, lambda: _raised(call))
                    assert got == want, (name, sel)
                    if got is not None:
                        messages.add(got[1])
    for expected in ("field 1 returned shape (3,), expected (2,)",
                     "field 2 produced non-finite entries",
                     "jacobian 2 produced non-finite entries",
                     "Jacobian 1 returned shape (2, 3), expected (2, 2)",
                     "bracket [1,2] produced non-finite entries",
                     "bracket [2,1] produced non-finite entries"):
        assert expected in messages


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


# --- each public steering entry checks each input once ------------------------

def test_steering_entries_check_each_input_once(monkeypatch, disc, disc_sel, disc_gains,
                                                uni, uni_sel, uni_gains):
    # as_state and check_selection are counted in every namespace that
    # calls them: one state and one selection check per single-system
    # solve, two states (agent, leader) and one selection per follower.
    counts = {"as_state": 0, "check_selection": 0}
    for module in (synthesis, formation):
        for name in counts:
            def counted(*args, _orig=getattr(module, name), _name=name):
                counts[_name] += 1
                return _orig(*args)
            monkeypatch.setattr(module, name, counted)
    agent = FollowerAgent(uni, uni_sel, 2.0, (0.5, 0.0, 0.0))
    for _ in range(3):
        steering_coefficients(disc, disc_sel, disc_gains, [2.0, 1.0, 0.0, 3.0])
    assert counts == {"as_state": 3, "check_selection": 3}
    counts.update(as_state=0, check_selection=0)
    for _ in range(3):
        follower_steering(agent, uni_gains, [0.1, 0.2, 0.3], [0.0, 0.0, 0.0])
    assert counts == {"as_state": 6, "check_selection": 3}


# (type, message) pairs as the public entries raised them before they
# shared one solve; the cases with several faults pin the order of checks.
NONFINITE = ("InvalidInputError", "state contains non-finite entries")
YSTAR3 = ("InvalidInputError", "y_star has dimension 3, expected n1 = 2")
DIM2 = ("InvalidInputError", "state has dimension 2, expected 3")
DISC_PAIR = ("SelectionShapeError", "bracket pair invariant violated: pair (1, 1) has i1 = i2, "
             "and the bracket of a field with itself vanishes")
UNI_PAIR = ("SelectionShapeError", "bracket pair invariant violated: pair (2, 2) has i1 = i2, "
            "and the bracket of a field with itself vanishes")


def _bad_input_calls():
    nan = math.nan
    good, bad = BracketSelection((1,), ((1, 2),)), BracketSelection((1,), ((1, 1),))
    g2 = ControllerGains(1.0, 5.0, (0.0, 0.0))
    g3 = ControllerGains(1.0, 5.0, (0.0, 0.0, 0.0))
    agent = FollowerAgent(UNICYCLE, BracketSelection((1, 2), ((1, 2),)), 2.0, (0.5, 0.0, 0.0))
    bad_agent = FollowerAgent(UNICYCLE, BracketSelection((1, 2), ((2, 2),)), 2.0, (0.5, 0.0, 0.0))
    x, p, origin = [2.0, 1.0, 0.0, 3.0], [0.1, 0.2, 0.3], [0.0, 0.0, 0.0]

    def steer(sel, gains, state):
        return lambda: steering_coefficients(ROLLING_DISC, sel, gains, state)

    def control(sel, gains, state):
        return lambda: control_value(ROLLING_DISC, sel, gains, 0.3, state)

    def follow(a, xa, xl):
        return lambda: follower_steering(a, g3, xa, xl)

    def controller(xa, xl):
        return lambda: follower_controller(agent, g3)(0.3, xa, xl)

    return {
        "steer-nan-state-bad-sel": (steer(bad, g2, [nan, 1.0, 0.0, 3.0]), NONFINITE),
        "steer-ystar3-bad-sel": (steer(bad, g3, x), YSTAR3),
        "steer-bad-sel": (steer(bad, g2, x), DISC_PAIR),
        "steer-short-state": (steer(good, g2, [1.0, 2.0, 3.0]),
                              ("InvalidInputError", "state has dimension 3, expected 4")),
        "steer-2d-state": (steer(good, g2, [x]), (
            "InvalidInputError", "state must be a 1-d vector, got shape (1, 4)")),
        "steer-inf-state": (steer(good, g2, [1.0, math.inf, 0.0, 0.0]), NONFINITE),
        "control-nan-state-bad-sel": (control(bad, g2, [nan, 1.0, 0.0, 3.0]), NONFINITE),
        "control-ystar3-bad-sel": (control(bad, g3, x), YSTAR3),
        "control-bad-sel": (control(bad, g2, x), DISC_PAIR),
        "follow-leader2-bad-sel": (follow(bad_agent, p, [0.0, 0.0]), DIM2),
        "follow-nan-agent-leader2-bad-sel": (follow(bad_agent, [nan, 0.0, 0.0], [0.0, 0.0]),
                                             NONFINITE),
        "follow-nan-leader-bad-sel": (follow(bad_agent, p, [0.0, nan, 0.0]), NONFINITE),
        "follow-bad-sel": (follow(bad_agent, p, origin), UNI_PAIR),
        "follow-short-agent": (follow(agent, [0.0, 0.0], origin), DIM2),
        "controller-leader2": (controller(p, [0.0, 0.0]), DIM2),
        "controller-nan-agent-leader2": (controller([nan, 0.0, 0.0], [0.0, 0.0]), NONFINITE),
        "controller-inf-leader": (controller(p, [0.0, 0.0, math.inf]), NONFINITE),
        "controller-bad-sel": (lambda: follower_controller(bad_agent, g3), UNI_PAIR),
    }


@pytest.mark.parametrize("case", sorted(_bad_input_calls()))
def test_steering_entries_bad_input_errors(case):
    call, expected = _bad_input_calls()[case]
    got = _raised(call)
    assert got is not None and (got[0].__name__, got[1]) == expected
