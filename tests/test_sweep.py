"""The closed loop's time-rescaling, x4 and SE(2) rotation symmetries, and the
epsilon sweep pinned against its per-epsilon oracle
(tests/oracles.sweep_reference)."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bracket_steer import (ControllerGains, DivergenceError, FollowerAgent, InvalidInputError,
                           LeaderModel, RankDegeneracyError, SimConfig, averaged_reference,
                           builtin_scenario, epsilon_sweep, leader_field, simulate_formation,
                           simulate_pi_epsilon)
from bracket_steer import simulate as simulate_module

from oracles import sweep_reference

DISC = builtin_scenario("rolling-disc")
FOLLOWER = builtin_scenario("unicycle-leader").agents[0]
BOX = np.array(DISC.probe_box)


def _box_states(**floats):
    """States drawn coordinate by coordinate from the disc's probe box."""
    return st.tuples(*(st.floats(lo, hi, **floats) for lo, hi in BOX)).map(np.array)


def _disc_run(gamma, eps, t_final, x0):
    gains = ControllerGains(epsilon=eps, gamma=gamma, y_star=(0.0, 0.0))
    return simulate_pi_epsilon(DISC.system, DISC.selection, gains, x0, SimConfig(t_final=t_final))


# The rescaling scales every sub-step length, control and steering
# right-hand side by a power of two, which is exact only while they are
# normal floats: a subnormal y - y* is outside the relation.
@settings(max_examples=60, derandomize=True, deadline=None)
@given(_box_states(allow_subnormal=False), st.sampled_from([0.25, 0.5, 2.0, 4.0]),
       st.sampled_from([0.7, 2.0, 5.0]), st.sampled_from([0.3, 0.4, 1.0]), st.integers(1, 6))
def test_time_rescaling_is_bitwise(x0, c, gamma, eps, n):
    # The driftless loop is invariant under t -> t / c with
    # (gamma, epsilon) -> (c gamma, epsilon / c): the same states, at times
    # divided by c, under controls multiplied by c.
    base = _disc_run(gamma, eps, n * eps, x0)
    scaled = _disc_run(c * gamma, eps / c, n * eps / c, x0)
    assert scaled.sample_states.tobytes() == base.sample_states.tobytes()
    assert scaled.dense_states.tobytes() == base.dense_states.tobytes()
    assert scaled.y_error.tobytes() == base.y_error.tobytes()
    assert scaled.interval_index.tobytes() == base.interval_index.tobytes()
    assert scaled.sample_times.tobytes() == (base.sample_times / c).tobytes()
    assert scaled.dense_times.tobytes() == (base.dense_times / c).tobytes()
    assert scaled.dense_controls.tobytes() == (base.dense_controls * c).tobytes()


@settings(max_examples=40, derandomize=True, deadline=None)
@given(_box_states(), st.floats(*BOX[3]), st.sampled_from([0.7, 2.0, 5.0]),
       st.sampled_from([0.3, 0.4, 1.0]))
def test_rolling_angle_does_not_enter_the_loop(x0, x4, gamma, eps):
    # x4 enters no field, so changing it moves x4 alone.
    other = x0.copy()
    other[3] = x4
    runs = [_disc_run(gamma, eps, 4 * eps, x) for x in (x0, other)]
    for name in ("sample_states", "dense_states"):
        a, b = (getattr(run, name)[:, :3] for run in runs)
        assert a.tobytes() == b.tobytes()
    for name in ("dense_controls", "y_error", "dense_times", "sample_times"):
        assert getattr(runs[0], name).tobytes() == getattr(runs[1], name).tobytes()


def _still_formation(c):
    """Two unicycle followers of the stationary leader, their gains scaled
    by c and epsilon and t_final by 1 / c."""
    agents = [FollowerAgent(system=FOLLOWER.system, selection=FOLLOWER.selection,
                            gamma=c * gamma, offset=offset)
              for gamma, offset in ((2.0, (0.3, -0.2, 0.0)), (3.0, (-0.4, 0.1, 0.0)))]
    leader = LeaderModel(name="stationary", dynamics=leader_field("stationary"),
                         x0=(0.2, -0.1, 0.5))
    gains = ControllerGains(epsilon=0.2 / c, gamma=1.0, y_star=(0.0, 0.0, 0.0))
    return simulate_formation(agents, leader, [(1.0, 0.5, 0.3), (-0.7, 0.8, -1.1)], gains,
                              SimConfig(t_final=4.0 / c))


@pytest.mark.parametrize("c", [0.25, 0.5, 2.0, 4.0])
def test_stationary_leader_formation_time_rescaling_is_bitwise(c):
    # The stationary leader has no block kernel, so the whole run takes the
    # generic sub-steps, and its two followers steer as one group: the
    # rescaling pins that path's stage times and sums, which no benchmark
    # workload reaches.
    base, scaled = _still_formation(1.0), _still_formation(c)
    assert scaled.leader_states.tobytes() == base.leader_states.tobytes()
    assert scaled.dense_times.tobytes() == (base.dense_times / c).tobytes()
    assert scaled.sample_times.tobytes() == (base.sample_times / c).tobytes()
    for got, want in zip(scaled.agent_trajs, base.agent_trajs):
        assert got.dense_states.tobytes() == want.dense_states.tobytes()
        assert got.sample_states.tobytes() == want.sample_states.tobytes()
        assert got.dense_controls.tobytes() == (want.dense_controls * c).tobytes()
    for got, want in zip(scaled.error_series, base.error_series):
        assert got.tobytes() == want.tobytes()


# SE(2) equivariance: rotating every position by phi about the origin, and
# adding phi to every heading, rotates the whole run under the same
# controls.  It holds to rounding, not bitwise, and the bracket amplitude
# 2 sqrt(pi kappa |a| / epsilon) magnifies rounding where a coefficient
# nears 0: once y - y* (or x - x_L - d) has converged, its last-bit
# difference delta ~ 1e-16 |y*| moves an amplitude by up to
# 2 sqrt(pi kappa gamma delta / epsilon), about 1e-7 here.  Calibrated once
# over the draw in _rotation_runs (ROTATION_SEED; phi in _ANGLES; t <= 10):
# worst state difference 3.84e-8 (the disc, phi = 1.0, either path), worst
# control difference 5.77e-7 (the formation, phi = 0.3).  With y* = 0 and
# the built-in x0 there is no cancellation, and the disc agrees within
# 1.1e-14 (states) and 8.4e-14 (controls).  The tolerances keep a 5x
# margin over the worst observed values.
ROTATION_SEED = 20261020
ROTATION_STATE_TOL = 2e-7
ROTATION_CONTROL_TOL = 3e-6
_ANGLES = (0.3, 1.0, 2.5)


def _rotate(phi, x, heading=True):
    """x (..., p) with its first two entries rotated by phi, and phi added
    to its third, the heading, when heading is set."""
    c, s = np.cos(phi), np.sin(phi)
    out = np.array(x, dtype=float)
    out[..., 0], out[..., 1] = c * out[..., 0] - s * out[..., 1], s * out[..., 0] + c * out[..., 1]
    if heading:
        out[..., 2] += phi
    return out


def _rotation_runs(case, phi):
    """The dense states and controls of case's seeded runs, everything
    rotated by phi: the disc from three probe-box x0s toward seeded y*
    (the block kernel, or "generic", a copy with wrapped fields, the
    generic sub-steps and matrix), or "formation", two unicycle followers
    of a stationary leader (the generic sub-steps), whose x0s, offsets and
    leader state turn together."""
    rng = np.random.default_rng(ROTATION_SEED)
    runs = []
    if case == "formation":
        offsets = [(*rng.uniform(-0.5, 0.5, size=2), 0.0) for _ in range(2)]
        x0s = rng.uniform(-1.5, 1.5, size=(2, 3))
        agents = [FollowerAgent(system=FOLLOWER.system, selection=FOLLOWER.selection,
                                gamma=gamma, offset=tuple(_rotate(phi, d, heading=False)))
                  for gamma, d in zip((2.0, 3.0), offsets)]
        leader = LeaderModel(name="stationary", dynamics=leader_field("stationary"),
                             x0=tuple(_rotate(phi, rng.uniform(-1.0, 1.0, size=3))))
        gains = ControllerGains(epsilon=0.2, gamma=1.0, y_star=(0.0, 0.0, 0.0))
        ftraj = simulate_formation(agents, leader, _rotate(phi, x0s), gains,
                                   SimConfig(t_final=10.0))
        runs.append((ftraj.leader_states, np.empty(0)))
        runs += [(traj.dense_states, traj.dense_controls) for traj in ftraj.agent_trajs]
        return runs
    system = SYSTEMS["wrapped-fields" if case == "generic" else "disc"]
    for x0, y_star in zip(rng.uniform(BOX[:, 0], BOX[:, 1], size=(3, 4)),
                          rng.uniform(-1.0, 1.0, size=(3, 2))):
        gains = ControllerGains(epsilon=0.4, gamma=2.0,
                                y_star=tuple(_rotate(phi, y_star, heading=False)))
        traj = simulate_pi_epsilon(system, DISC.selection, gains, _rotate(phi, x0),
                                   SimConfig(t_final=10.0))
        runs.append((traj.dense_states, traj.dense_controls))
    return runs


def _rotation_differences(case, phi):
    """The largest state and control differences between case's runs
    rotated by phi and its unrotated runs turned by phi afterwards."""
    pairs = list(zip(_rotation_runs(case, phi), _rotation_runs(case, 0.0)))
    return (max(np.abs(got - _rotate(phi, want)).max() for (got, _), (want, _) in pairs),
            max(np.abs(got - want).max(initial=0.0) for (_, got), (_, want) in pairs))


@pytest.mark.parametrize("phi", _ANGLES)
@pytest.mark.parametrize("case", ["disc", "generic", "formation"])
def test_rotation_equivariance(case, phi):
    states, controls = _rotation_differences(case, phi)
    assert states <= ROTATION_STATE_TOL
    assert controls <= ROTATION_CONTROL_TOL


# ---------------------------------------------------------------------------
# epsilon_sweep against the per-epsilon loop

def _wrapped(f):
    def wrapped(*args):
        return np.array(f(*args), dtype=float)
    return wrapped


# The built-in disc; a copy whose drift is wrapped, so the sweep is not
# driftless by identity and runs per epsilon; and a copy whose control
# fields alone are wrapped, a driftless sweep that runs on one clock on the
# generic sub-steps.
SYSTEMS = {
    "disc": DISC.system,
    "wrapped-drift": dataclasses.replace(DISC.system, drift=_wrapped(DISC.system.drift)),
    "wrapped-fields": dataclasses.replace(
        DISC.system, control_fields=tuple(map(_wrapped, DISC.system.control_fields))),
}


@st.composite
def _sweeps(draw):
    """(system, gains, x0, t_final, eps_list, substeps_per_period)."""
    eps0 = draw(st.sampled_from([0.3, 0.4, 1.0]))
    halvings = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True))
    eps_list = draw(st.sampled_from([
        [eps0 / 2 ** k for k in sorted(halvings)],  # exact powers of two
        [eps0, 0.75 * eps0],                        # not powers of two
        [eps0, eps0 / 2, 0.3 * eps0]]))
    t_final = draw(st.sampled_from([
        eps0 * draw(st.integers(1, 4)),             # whole intervals
        eps0 * draw(st.integers(1, 4)) + eps0 / 3,  # a tail
        None]))                                     # the default horizon
    x0 = draw(st.one_of(
        _box_states(allow_subnormal=False),
        # y - y* subnormal: the rescaling is not exact there.
        st.tuples(st.floats(*BOX[2]), st.floats(*BOX[3])).map(
            lambda z: np.array([1e-310, 2e-310, *z]))))
    gains = ControllerGains(epsilon=eps0, gamma=draw(st.sampled_from([0.7, 2.0, 5.0])),
                            y_star=(0.0, 0.0))
    return (SYSTEMS[draw(st.sampled_from(sorted(SYSTEMS)))], gains, x0, t_final, eps_list,
            draw(st.sampled_from([None, 8])))


def _rows(sweep, system, gains, x0, t_final, eps_list, nsub):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return np.array(sweep(system, DISC.selection, gains, x0, t_final, eps_list,
                              substeps_per_period=nsub)).tobytes()


def _case(system, x0, t_final, eps_list, gamma=2.0, nsub=None):
    gains = ControllerGains(epsilon=eps_list[0], gamma=gamma, y_star=(0.0, 0.0))
    return (SYSTEMS[system], gains, np.array(x0), t_final, eps_list, nsub)


HALVINGS = [0.4, 0.2, 0.1, 0.05, 0.025]


@settings(max_examples=50, derandomize=True, deadline=None)
@given(_sweeps())
@example(_case("disc", DISC.x0, 10.0, HALVINGS))
@example(_case("disc", DISC.x0, 2.0, [0.4, 0.3]))
@example(_case("disc", DISC.x0, 2.1, [0.4, 0.2]))
# The default horizon gives both entries 50 intervals: no row retires early.
@example(_case("disc", DISC.x0, None, [1.0, 0.5], gamma=5.0))
@example(_case("wrapped-drift", DISC.x0, 2.0, HALVINGS))
@example(_case("wrapped-fields", DISC.x0, 2.0, HALVINGS, nsub=8))
# y - y* subnormal: the stacked run leaves its range and runs per epsilon.
@example(_case("disc", [1e-310, 2e-310, 0.5, 0.0], 2.0, [0.4, 0.2, 0.1]))
@example(_case("disc", [1e-310, 2e-310, 0.0, 0.0], 4.0, [1.0, 0.25, 0.125], gamma=5.0))
def test_sweep_rows_match_the_per_epsilon_oracle(case):
    assert _rows(epsilon_sweep, *case) == _rows(sweep_reference, *case)


def _outcome(sweep, *args, **kwargs):
    """A sweep's rows, or its error's type, message, state, condition,
    agent_index and every array of its .partial; and the number of
    "fewer than 20 sub-steps" warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = np.array(sweep(*args, **kwargs)).tobytes()
        except (DivergenceError, RankDegeneracyError) as exc:
            partial = exc.partial
            result = (type(exc), str(exc), exc.state.tobytes(), exc.condition,
                      getattr(exc, "agent_index", None),
                      *(getattr(partial, f.name).tobytes() for f in dataclasses.fields(partial)
                        if isinstance(getattr(partial, f.name), np.ndarray)))
    return result, sum("fewer than 20 sub-steps" in str(w.message) for w in caught)


def test_failing_sweep_raises_as_the_per_epsilon_runs(failing_sweep):
    # The stacked run fails, so the sweep runs per epsilon: the second
    # entry's error, with its partial trajectory, after two runs' warnings.
    args = failing_sweep
    got = _outcome(epsilon_sweep, *args, substeps_per_period=10)
    assert got == _outcome(sweep_reference, *args, substeps_per_period=10)
    (kind, message, *_), warned = got
    assert kind is RankDegeneracyError and "exceeds cap 10" in message
    assert warned == 2


@pytest.mark.parametrize("system", ["disc", "wrapped-fields"])
def test_driftless_sweep_runs_on_one_clock(monkeypatch, system):
    # With every per-epsilon run refused, the paper's sweep still returns
    # its rows: one stacked run, whether its rows take the block kernel or
    # the generic sub-steps.
    gains = dataclasses.replace(DISC.gains, gamma=2.0)
    args = (SYSTEMS[system], DISC.selection, gains, np.array(DISC.x0), 10.0,
            [0.4, 0.2, 0.1, 0.05, 0.025])
    want = np.array(sweep_reference(*args)).tobytes()

    def refused(*_):
        raise AssertionError("the sweep ran per epsilon")

    monkeypatch.setattr(simulate_module, "simulate_pi_epsilon", refused)
    assert np.array(epsilon_sweep(*args)).tobytes() == want


def _loop_deviation(y0, gains, times, ys):
    """The per-sample loop _max_deviation replaces, as sweep_reference runs it."""
    dev = 0.0
    for t, y in zip(times, ys):
        dev = max(dev, float(np.linalg.norm(y - averaged_reference(y0, gains, t))))
    return dev


def _tied_rows(rng, n, scale):
    """Seven rows of dimension n that tie to the last ulp: each a
    permutation of one random base row with one entry moved by one ulp and
    signs flipped, scaled by a power of two.  For n > 1 an array sum of
    squares ranks 6 to 10 groups in a hundred unlike np.linalg.norm."""
    base = rng.standard_normal(n)
    rows = [base]
    for _ in range(6):
        row = base.copy()
        i = rng.integers(n)
        row[i] = np.nextafter(row[i], rng.choice([-np.inf, np.inf]))
        rows.append(rng.permutation(row) * rng.choice([-1.0, 1.0], n))
    return np.array(rows) * scale


# At 2^-520 the squares are subnormal, at 2^-700 zero, at 2^511 some
# overflow and at 2^600 all do: each past the array pass's range, where
# every row takes the norm.
@pytest.mark.parametrize("exponent", [0, -400, 400, -520, -700, 511, 600])
def test_max_deviation_is_the_per_sample_loop(exponent):
    # With y0 = y* = 0 the references are exactly 0, so the rows are the
    # residuals: their maximum norm, NaN rows skipped as the loop's max
    # skips them, is the loop's bitwise, with the loop's warnings (an
    # overflowing norm's).
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 4):
        zero = (0.0,) * n
        gains = ControllerGains(epsilon=0.25, gamma=2.0, y_star=zero)
        for extra in [[]] * 150 + [[np.nan], [np.inf], [-np.inf, np.nan]]:
            ys = np.vstack([_tied_rows(rng, n, 2.0 ** exponent),
                            np.zeros((len(extra), n)) + np.array(extra)[:, None]])
            times = [0.25 * j for j in range(len(ys))]
            results = []
            for deviation in (simulate_module._max_deviation, _loop_deviation):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    value = deviation(np.array(zero), gains, times, ys)
                results.append((np.float64(value).tobytes(), [str(w.message) for w in caught]))
            assert results[0] == results[1], (n, ys)


@pytest.mark.parametrize("t_final, eps_list, message", [
    ("x", [0.4], "t_final must be a real number, got 'x'"),
    ([1.0], [0.4], "t_final must be a real number, got [1.0]"),
    (True, [0.4], "t_final must be a real number, got True"),
    (np.bool_(True), [0.4], f"t_final must be a real number, got {np.bool_(True)!r}"),
    (2.0, ["x"], "eps_list entry must be a real number, got 'x'"),
    (2.0, [[1.0]], "eps_list entry must be a real number, got [1.0]"),
    (2.0, [0.4, False], "eps_list entry must be a real number, got False"),
    (2.0, 0.4, "eps_list must be a list, got 0.4"),
    (2.0, None, "eps_list must be a list, got None"),
])
def test_sweep_refuses_untyped_numbers(t_final, eps_list, message):
    with pytest.raises(InvalidInputError) as info:
        epsilon_sweep(DISC.system, DISC.selection, DISC.gains, np.array(DISC.x0),
                      t_final, eps_list)
    assert str(info.value) == message


def test_sweep_default_horizon_and_integral_inputs():
    # t_final=None takes each entry's default horizon; ints are reals.
    gains = dataclasses.replace(DISC.gains, gamma=5.0)
    x0 = np.array(DISC.x0)
    for t_final, eps_list in ((None, [0.4, 0.2]), (2, [1, 0.5])):
        got = epsilon_sweep(DISC.system, DISC.selection, gains, x0, t_final, eps_list)
        want = sweep_reference(DISC.system, DISC.selection, gains, x0, t_final,
                               [float(e) for e in eps_list])
        assert np.array(got).tobytes() == np.array(want).tobytes()


def test_sweep_takes_any_iterable_of_periods():
    # eps_list goes through model._as_list, as every list parameter does: a
    # tuple, a range, a generator or an array of periods gives the list's
    # rows, bit for bit.
    gains = dataclasses.replace(DISC.gains, gamma=0.2)
    x0 = np.array(DISC.x0)
    periods = [3, 2, 1]
    want = epsilon_sweep(DISC.system, DISC.selection, gains, x0, 6.0, periods)
    for eps_list in (tuple(periods), range(3, 0, -1), (e for e in periods), np.array(periods)):
        got = epsilon_sweep(DISC.system, DISC.selection, gains, x0, 6.0, eps_list)
        assert np.array(got).tobytes() == np.array(want).tobytes()
