import dataclasses
import itertools
import math

import numpy as np
import pytest

from bracket_steer import (ControllerGains, DivergenceError, InvalidInputError,
                           RankDegeneracyError, SampledTrajectory, SimConfig,
                           averaged_reference, decay_report, default_substeps,
                           default_t_final, epsilon_sweep, held_control,
                           simulate_pi_epsilon, steering_coefficients)
from bracket_steer import FollowerAgent, LeaderModel, leader_field, simulate_formation
from bracket_steer import builtin_scenario, library
from bracket_steer import simulate as simulate_module
from bracket_steer.simulate import interval_grid

from oracles import control_series, pi_eps_solve


def test_defaults():
    gains = ControllerGains(epsilon=0.25, gamma=2.0, y_star=(0.0, 0.0))
    # 50 * eps * ceil(1/(gamma eps)) = 50 * 0.25 * 2 = 25.
    assert default_t_final(gains) == pytest.approx(25.0)
    assert default_substeps(3) == 120


def test_interval_grid_snaps_float_quotients():
    n, tail = interval_grid(2.0, 0.2)
    assert n == 10 and tail == 0.0
    n, tail = interval_grid(0.35, 0.2)
    assert n == 1 and tail == pytest.approx(0.15)


def test_work_budget_is_intervals_x_substeps_x_rows(monkeypatch, disc, disc_sel,
                                                   disc_gains_moderate, uni, uni_sel):
    # Each run is allowed at a budget of exactly its own work and refused
    # one row sub-step below it, before anything is integrated.
    assert simulate_module.MAX_ROW_SUBSTEPS == 10_000_000
    x0 = np.array([1.0, 0.5, 0.0, 0.0])
    still = LeaderModel(name="stationary", dynamics=leader_field("stationary"),
                        x0=(0.0, 0.0, 0.0))
    agent = FollowerAgent(system=uni, selection=uni_sel, gamma=10.0, offset=(0.1, 0.1, 0.0))
    form_gains = ControllerGains(epsilon=0.1, gamma=10.0, y_star=(0.0, 0.0, 0.0))
    cases = [
        # 2 whole intervals x 20 sub-steps x 1 row
        (40, "2 intervals x 20 sub-steps x 1 rows", lambda cfg: simulate_pi_epsilon(
            disc, disc_sel, disc_gains_moderate, x0, cfg), SimConfig(0.5, 20)),
        # 2 whole intervals and a partial tail x 20 sub-steps x 1 row
        (60, "3 intervals x 20 sub-steps x 1 rows", lambda cfg: simulate_pi_epsilon(
            disc, disc_sel, disc_gains_moderate, x0, cfg), SimConfig(0.6, 20)),
        # 3 intervals x 20 sub-steps x (leader + 2 agents)
        (180, "3 intervals x 20 sub-steps x 3 rows", lambda cfg: simulate_formation(
            [agent, agent], still, [(1.0, 0.5, 0.0), (0.5, 1.0, 0.0)], form_gains, cfg),
         SimConfig(0.3, 20)),
    ]
    for work, factors, run, cfg in cases:
        monkeypatch.setattr(simulate_module, "MAX_ROW_SUBSTEPS", work)
        run(cfg)
        monkeypatch.setattr(simulate_module, "MAX_ROW_SUBSTEPS", work - 1)
        with pytest.raises(InvalidInputError) as info:
            run(cfg)
        assert str(info.value) == (
            f"{factors} exceed the budget MAX_ROW_SUBSTEPS = {work - 1}")


def test_wrong_length_drift_fails_the_run(disc, disc_sel, disc_gains_moderate):
    # A drift one entry too long or too short is refused before the first
    # solve, whether the held control would be zero (x0 at the target) or
    # not; no entry is dropped to let the run go on.
    for n in (5, 3):
        bad = dataclasses.replace(disc, drift=lambda t, x, n=n: (0.0,) * n)
        for x0 in ([0.0, 0.0, 0.3, 0.7], [1.0, 0.5, 0.0, 0.0]):
            with pytest.raises(InvalidInputError) as info:
                simulate_pi_epsilon(bad, disc_sel, disc_gains_moderate, np.array(x0),
                                    SimConfig(t_final=1.0))
            assert str(info.value) == (
                f"field 0 returned length {n} at x0, expected shape (4,)")


NAN = float("nan")
INF = math.inf
# 0, -0, +-tiny, +-subnormal, +-large, +-inf and NaN of both signs.
EDGE_CONTROLS = (0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 1e300, -1e300,
                 INF, -INF, NAN, -NAN)
EDGE_TIMES = (0.0, -0.0, 0.37, -5.2, 5e-324, 1e6, 1e15, -1e300, INF, -INF, NAN)
# (drift, control fields, state dimension, fused stage) of each table entry.
FUSED = ((library.ROLLING_DISC.drift, library.ROLLING_DISC.control_fields, 4,
          library._disc_stage),
         (library.UNICYCLE.drift, library.UNICYCLE.control_fields, 3,
          library._unicycle_stage),
         (library._figure_eight, (), 3, library._figure_eight_stage))


def _outcome(stage, t, x, u):
    try:
        return np.array(stage(t, x, u), dtype=float).tobytes()
    except (ValueError, ArithmeticError) as exc:
        return type(exc)


def _edge_states(n, seed=5):
    rng = np.random.default_rng(seed)
    states = [list(map(float, row)) for row in rng.normal(scale=3.0, size=(20, n))]
    headings = [k * math.pi / 2 for k in range(-4, 5)] + [-0.0, 1e9, -1e9, NAN, INF, -INF]
    fill = (0.0, -0.0, 1e9, NAN, INF)
    for i, heading in enumerate(headings):
        row = [fill[(i + j) % len(fill)] for j in range(n)]
        row[2] = heading
        states.append(row)
    return states


def _edge_cases(fields):
    """(t, u) pairs: every edge control pair at one time for the controlled
    systems, every edge time for the uncontrolled leader."""
    if fields:
        return [(0.37, list(u)) for u in itertools.product(EDGE_CONTROLS, repeat=len(fields))]
    return [(t, []) for t in EDGE_TIMES]


def test_fused_stages_match_generic_sum_bitwise(monkeypatch):
    # Each table entry gives, bit for bit, the generic stage's output on the
    # same functions, or raises the same exception type (cos(inf)).
    assert len(library._FUSED_STAGES) == len(FUSED)
    seen = set()
    for drift, fields, n, stage in FUSED:
        assert library._fused_stage(drift, fields) is stage
        assert simulate_module._row_stage(drift, fields) is stage
        with monkeypatch.context() as m:
            m.setattr(library, "_FUSED_STAGES", {})
            generic = simulate_module._row_stage(drift, fields)
        assert generic.__code__ is not stage.__code__
        for t, u in _edge_cases(fields):
            for x in _edge_states(n):
                want = _outcome(generic, t, x, u)
                assert _outcome(stage, t, x, u) == want, (stage.__name__, t, u, x)
                seen.add((stage, want if isinstance(want, type) else bytes))
    assert seen == {(stage, kind) for *_, stage in FUSED for kind in (bytes, ValueError)}


def test_swapped_function_takes_generic_path():
    # A copy with any one of (drift, *control_fields) swapped, here for an
    # equal function, misses the table: the generic sum calls the swap.  So
    # does a wrapped figure-eight leader field.
    for drift, fields, n, stage in FUSED:
        x = [0.4, -1.2, 0.9, 2.0][:n]
        u = [0.7, -1.3][:len(fields)]
        want = _outcome(stage, 12.5, x, u)
        for k in range(1 + len(fields)):
            calls = []
            funcs = [drift, *fields]

            def swap(*args, f=funcs[k]):
                calls.append(1)
                return f(*args)

            funcs[k] = swap
            assert library._fused_stage(funcs[0], tuple(funcs[1:])) is None
            generic = simulate_module._row_stage(funcs[0], tuple(funcs[1:]))
            assert _outcome(generic, 12.5, x, u) == want
            assert calls == [1]


def _arrays(traj):
    return [getattr(traj, name).tobytes() for name in (
        "dense_times", "dense_states", "dense_controls", "y_error",
        "sample_times", "sample_states", "interval_index")]


def test_control_tables_in_blocks_match_whole_intervals(monkeypatch):
    # An interval is tabulated in blocks of TABLE_SUBSTEPS sub-steps, so a
    # long one never holds all its controls at once; blocks of 1, 7 and 40
    # sub-steps (a last block shorter than the rest, and the whole interval)
    # give every output bitwise, with a partial tail and a record stride.
    assert simulate_module.TABLE_SUBSTEPS == 256
    disc = builtin_scenario("rolling-disc")
    uni = builtin_scenario("unicycle-leader")

    def runs():
        single = simulate_pi_epsilon(disc.system, disc.selection, disc.gains,
                                     np.array(disc.x0), SimConfig(t_final=2.5, record_stride=3))
        form = simulate_formation(uni.agents, uni.leader, uni.agent_x0s, uni.gains,
                                  SimConfig(t_final=0.35, record_stride=3))
        return _arrays(single), [*_arrays(form.agent_trajs[0]), form.leader_states.tobytes()]

    want = runs()
    for block in (1, 7, 40):
        monkeypatch.setattr(simulate_module, "TABLE_SUBSTEPS", block)
        assert runs() == want, block


def test_array_returning_disc_matches_builtin_bitwise(monkeypatch):
    # A registered copy of the rolling disc whose functions return float64
    # arrays takes the generic sum; its runs and sweeps are bitwise the
    # built-in's, which take the fused stage.
    monkeypatch.setattr(library, "_SYSTEMS", dict(library._SYSTEMS))
    calls = []

    def arrays(f):
        def wrapped(*args):
            calls.append(1)
            return np.array(f(*args), dtype=float)
        return wrapped

    disc = library.system("rolling-disc")
    copy = library.register_system(dataclasses.replace(
        disc, name="rolling-disc-arrays", drift=arrays(disc.drift),
        control_fields=tuple(map(arrays, disc.control_fields))))
    assert library._fused_stage(copy.drift, copy.control_fields) is None
    bundle = builtin_scenario("rolling-disc")
    x0 = np.array(bundle.x0)
    got = simulate_pi_epsilon(copy, bundle.selection, bundle.gains, x0, bundle.sim)
    want = simulate_pi_epsilon(disc, bundle.selection, bundle.gains, x0, bundle.sim)
    assert len(calls) > 4 * want.dense_times.size
    assert _arrays(got) == _arrays(want)
    gains = dataclasses.replace(bundle.gains, gamma=2.0)
    sweeps = [epsilon_sweep(s, bundle.selection, gains, x0, 10.0, [0.4, 0.2, 0.1])
              for s in (copy, disc)]
    assert np.array(sweeps[0]).tobytes() == np.array(sweeps[1]).tobytes()


def test_constant_at_target(disc, disc_sel, disc_gains_moderate):
    # y(0) = y*: steering vanishes, so the loop holds u = 0 and the state
    # never moves.
    x0 = np.array([0.0, 0.0, 0.3, 0.7])
    traj = simulate_pi_epsilon(disc, disc_sel, disc_gains_moderate, x0,
                               SimConfig(t_final=2.0))
    assert np.array_equal(traj.dense_states,
                          np.tile(x0, (traj.dense_states.shape[0], 1)))
    assert np.array_equal(traj.dense_controls,
                          np.zeros_like(traj.dense_controls))
    rep = decay_report(traj, disc_gains_moderate, rho=0.1)
    assert rep.t1 == 0.0
    assert rep.lambda_fit is None


def test_determinism_bitwise(disc, disc_sel, disc_gains_moderate):
    x0 = np.array([1.0, 0.5, 0.0, 0.0])
    cfg = SimConfig(t_final=2.0)
    t1 = simulate_pi_epsilon(disc, disc_sel, disc_gains_moderate, x0, cfg)
    t2 = simulate_pi_epsilon(disc, disc_sel, disc_gains_moderate, x0, cfg)
    for name in ("sample_times", "sample_states", "dense_times",
                 "dense_states", "dense_controls", "y_error", "interval_index"):
        assert np.array_equal(getattr(t1, name), getattr(t2, name))


def test_grid_structure(disc, disc_sel, disc_gains_moderate):
    traj = simulate_pi_epsilon(disc, disc_sel, disc_gains_moderate,
                               np.array([1.0, 0.5, 0.0, 0.0]),
                               SimConfig(t_final=2.0))
    eps = disc_gains_moderate.epsilon
    # Sampling instants are exactly j * eps as floats.
    assert np.array_equal(traj.sample_times,
                          np.array([j * eps for j in range(9)]))
    assert np.all(np.diff(traj.dense_times) > 0)
    assert traj.dense_times[0] == 0.0
    assert traj.dense_times[-1] == 2.0
    # Each dense point sits inside its interval's half-open window; the
    # shared boundary instant belongs to the new interval.
    for t, j in zip(traj.dense_times, traj.interval_index):
        assert j * eps - 1e-12 <= t <= (j + 1) * eps + 1e-12


def test_tail_interval_records_exact_t_final(disc, disc_sel, disc_gains_moderate):
    traj = simulate_pi_epsilon(disc, disc_sel, disc_gains_moderate,
                               np.array([1.0, 0.5, 0.0, 0.0]),
                               SimConfig(t_final=0.35))
    # One full interval of 0.25 plus a 0.10 tail.
    assert np.array_equal(traj.sample_times, [0.0, 0.25])
    assert traj.dense_times[-1] == 0.35
    # Tail points keep the coefficients sampled at tau_1.
    assert traj.interval_index[-1] == 1


def test_sample_and_hold_fidelity(disc, disc_sel, disc_gains_moderate):
    # Every recorded control must reproduce bitwise from the held state and
    # the live time: that is the definition of the sampled loop.
    traj = simulate_pi_epsilon(disc, disc_sel, disc_gains_moderate,
                               np.array([1.0, 0.5, 0.2, 0.0]),
                               SimConfig(t_final=1.5))
    eps = disc_gains_moderate.epsilon
    for i in range(0, traj.dense_times.shape[0], 7):
        j = traj.interval_index[i]
        j_eff = min(j, len(traj.sample_states) - 1)
        a = steering_coefficients(disc, disc_sel, disc_gains_moderate,
                                  traj.sample_states[j_eff])
        u = held_control(disc_sel, eps, disc.m, a, traj.dense_times[i])
        assert np.array_equal(u, traj.dense_controls[i])


def test_record_stride(disc, disc_sel, disc_gains_moderate):
    x0 = np.array([1.0, 0.5, 0.0, 0.0])
    full = simulate_pi_epsilon(disc, disc_sel, disc_gains_moderate, x0,
                               SimConfig(t_final=1.0))
    thin = simulate_pi_epsilon(disc, disc_sel, disc_gains_moderate, x0,
                               SimConfig(t_final=1.0, record_stride=5))
    assert thin.dense_times.shape[0] < full.dense_times.shape[0]
    assert thin.dense_times[0] == 0.0
    assert thin.dense_times[-1] == 1.0
    # The sampling-instant data is stride-independent.
    assert np.array_equal(thin.sample_times, full.sample_times)
    assert np.array_equal(thin.sample_states, full.sample_states)
    # Thinned points agree with the dense run where they coincide.
    common = np.isin(full.dense_times, thin.dense_times)
    assert np.array_equal(full.dense_states[common], thin.dense_states)


def test_substeps_warning(disc, disc_sel, disc_gains_moderate):
    with pytest.warns(RuntimeWarning, match="fewer than 20 sub-steps"):
        simulate_pi_epsilon(disc, disc_sel, disc_gains_moderate,
                            np.array([1.0, 0.5, 0.0, 0.0]),
                            SimConfig(t_final=0.5, substeps_per_period=10))


def test_sweep_warns_once_per_entry(disc, disc_sel, disc_gains_moderate):
    # The sweep plans every entry before its first run; only the runs warn.
    import warnings
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        epsilon_sweep(disc, disc_sel, disc_gains_moderate, np.array([1.0, 0.5, 0.0, 0.0]),
                      0.5, [0.25, 0.125], substeps_per_period=10)
    messages = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    assert sum("fewer than 20 sub-steps" in m for m in messages) == 2


def test_refinement_stability(disc, disc_sel, disc_gains_moderate):
    # Doubling the sub-step count must not move the endpoint appreciably.
    x0 = np.array([1.0, 0.5, 0.0, 0.0])
    coarse = simulate_pi_epsilon(disc, disc_sel, disc_gains_moderate, x0,
                                 SimConfig(t_final=2.0, substeps_per_period=40))
    fine = simulate_pi_epsilon(disc, disc_sel, disc_gains_moderate, x0,
                               SimConfig(t_final=2.0, substeps_per_period=80))
    yc = coarse.dense_states[-1][:2]
    yf = fine.dense_states[-1][:2]
    rel = np.linalg.norm(yc - yf) / max(1.0, np.linalg.norm(yf))
    assert rel <= 1e-6


def test_against_adaptive_oracle(disc, disc_sel, disc_gains_moderate):
    # Eight intervals re-integrated with an adaptive high-order method.
    x0 = np.array([1.0, 0.5, 0.0, 0.0])
    eps = disc_gains_moderate.epsilon
    traj = simulate_pi_epsilon(disc, disc_sel, disc_gains_moderate, x0,
                               SimConfig(t_final=2.0))

    def control_of_state(x_hold):
        a = steering_coefficients(disc, disc_sel, disc_gains_moderate, x_hold)
        return control_series(2, disc_sel.s1, disc_sel.s2, disc_sel.kappa, eps, a)

    fields = [lambda x: np.array([math.cos(x[2]), math.sin(x[2]), 0.0, 1.0]),
              lambda x: np.array([0.0, 0.0, 1.0, 0.0])]
    ref = pi_eps_solve(fields, control_of_state, x0, eps, 8)
    assert np.allclose(traj.sample_states, ref, atol=1e-6)


def test_divergent_gains_match_oracle(disc, disc_sel, disc_gains):
    # Three intervals at the aggressive gains: the loop amplifies the error,
    # and the fixed-step integrator must track the adaptive one through it.
    x0 = np.array([2.0, 1.0, 0.0, math.pi])
    eps = disc_gains.epsilon
    traj = simulate_pi_epsilon(disc, disc_sel, disc_gains, x0,
                               SimConfig(t_final=3.0))

    def control_of_state(x_hold):
        a = steering_coefficients(disc, disc_sel, disc_gains, x_hold)
        return control_series(2, disc_sel.s1, disc_sel.s2, disc_sel.kappa, eps, a)

    fields = [lambda x: np.array([math.cos(x[2]), math.sin(x[2]), 0.0, 1.0]),
              lambda x: np.array([0.0, 0.0, 1.0, 0.0])]
    ref = pi_eps_solve(fields, control_of_state, x0, eps, 3)
    for got, want in zip(traj.sample_states, ref):
        assert np.linalg.norm(got - want) <= 1e-3 * max(1.0, np.linalg.norm(want))
    # The sampled error grows rather than contracts at these gains.
    errs = np.linalg.norm(traj.sample_states[:, :2], axis=1)
    assert errs[1] > errs[0]


def test_divergence_guard(runaway, runaway_sel):
    gains = ControllerGains(epsilon=0.1, gamma=0.1, y_star=(0.0,))
    with pytest.raises(DivergenceError) as info:
        simulate_pi_epsilon(runaway, runaway_sel, gains, np.array([1.0]),
                            SimConfig(t_final=1.0))
    exc = info.value
    assert str(exc).startswith("state diverged at t=")
    assert exc.t is not None and exc.t <= 1.0
    assert isinstance(exc.partial, SampledTrajectory)
    assert exc.partial.dense_times.shape[0] > 0


def test_rank_degeneracy_mid_run(pinch, pinch_sel):
    # The feedback drives x1 to zero, where the extension matrix pinches;
    # the failure must carry the partial trajectory and the bad state.
    gains = ControllerGains(epsilon=0.1, gamma=2.0, y_star=(0.0, 0.0))
    with pytest.raises(RankDegeneracyError) as info:
        simulate_pi_epsilon(pinch, pinch_sel, gains, np.array([1.0, 0.5]),
                            SimConfig(t_final=20.0))
    exc = info.value
    assert exc.condition > gains.cond_cap or math.isinf(exc.condition)
    assert isinstance(exc.partial, SampledTrajectory)
    assert exc.partial.sample_times.shape[0] > 10


def test_domain_check_rejects_x0(disc, disc_sel, disc_gains_moderate):
    import dataclasses
    guarded = dataclasses.replace(disc, name="guarded-disc",
                                  domain_check=lambda x: bool(np.linalg.norm(x) < 1.0))
    with pytest.raises(InvalidInputError):
        simulate_pi_epsilon(guarded, disc_sel, disc_gains_moderate,
                            np.array([2.0, 0.0, 0.0, 0.0]))


def test_averaged_reference():
    gains = ControllerGains(epsilon=0.25, gamma=2.0, y_star=(1.0, -1.0))
    y0 = np.array([3.0, 0.0])
    ref = averaged_reference(y0, gains, 0.5)
    want = gains.y_star_vec() + math.exp(-1.0) * (y0 - gains.y_star_vec())
    assert np.allclose(ref, want, atol=1e-15)
    assert np.array_equal(averaged_reference(y0, gains, 0.0), y0)
    with pytest.raises(InvalidInputError):
        averaged_reference(y0, gains, -0.1)


def _synthetic_traj(times, errs):
    states = np.column_stack([errs, np.zeros_like(errs)])
    return SampledTrajectory(
        epsilon=0.5, n1=2,
        sample_times=np.asarray(times, float),
        sample_states=states,
        dense_times=np.asarray(times, float),
        dense_states=states,
        dense_controls=np.zeros((len(times), 1)),
        y_error=np.abs(np.asarray(errs, float)),
        interval_index=np.arange(len(times)))


def test_decay_report_exact_exponential():
    gains = ControllerGains(epsilon=0.5, gamma=1.0, y_star=(0.0, 0.0))
    times = 0.5 * np.arange(25)
    errs = 2.0 * np.exp(-0.7 * times)
    rep = decay_report(_synthetic_traj(times, errs), gains, rho=0.05)
    assert rep.lambda_fit == pytest.approx(0.7, abs=1e-9)
    assert rep.zeta_fit == pytest.approx(2.0, abs=1e-9)
    assert rep.monotone_fraction == 1.0
    # 2 exp(-0.7 t) <= 0.05 first holds at t = 5.269...; samples are half
    # second apart so the suffix starts at 5.5.
    assert rep.t1 == pytest.approx(5.5)


def test_decay_report_never_settles():
    gains = ControllerGains(epsilon=0.5, gamma=1.0, y_star=(0.0, 0.0))
    times = 0.5 * np.arange(10)
    errs = np.full(10, 3.0)
    rep = decay_report(_synthetic_traj(times, errs), gains, rho=0.1)
    assert math.isinf(rep.t1)


def test_decay_report_settled_from_start():
    gains = ControllerGains(epsilon=0.5, gamma=1.0, y_star=(0.0, 0.0))
    times = 0.5 * np.arange(10)
    errs = np.zeros(10)
    rep = decay_report(_synthetic_traj(times, errs), gains, rho=0.1)
    assert rep.t1 == 0.0
    assert rep.lambda_fit is None


def test_decay_report_needs_samples():
    gains = ControllerGains(epsilon=0.5, gamma=1.0, y_star=(0.0, 0.0))
    with pytest.raises(InvalidInputError):
        decay_report(_synthetic_traj([0.0], [1.0]), gains, rho=0.1)


def test_epsilon_sweep_input_validation(disc, disc_sel, disc_gains_moderate):
    x0 = np.array([1.0, 0.5, 0.0, 0.0])
    with pytest.raises(InvalidInputError):
        epsilon_sweep(disc, disc_sel, disc_gains_moderate, x0, 2.0, [])
    with pytest.raises(InvalidInputError):
        epsilon_sweep(disc, disc_sel, disc_gains_moderate, x0, 2.0, [0.1, 0.2])
    with pytest.raises(InvalidInputError):
        epsilon_sweep(disc, disc_sel, disc_gains_moderate, x0, 2.0, [0.2, -0.1])


def test_epsilon_sweep_rows(disc, disc_sel):
    gains = ControllerGains(epsilon=0.2, gamma=2.0, y_star=(0.0, 0.0))
    rows = epsilon_sweep(disc, disc_sel, gains, np.array([1.0, 0.5, 0.0, 0.0]),
                         2.0, [0.2, 0.1])
    assert [e for e, _ in rows] == [0.2, 0.1]
    assert all(dev > 0 for _, dev in rows)
    assert rows[1][1] < rows[0][1]
