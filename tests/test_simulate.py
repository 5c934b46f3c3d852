import dataclasses
import itertools
import math

import numpy as np
import pytest

from bracket_steer import (BracketSelection, ControllerGains, DivergenceError, InvalidInputError,
                           RankDegeneracyError, SampledTrajectory, SimConfig,
                           averaged_reference, decay_report, default_substeps,
                           default_t_final, epsilon_sweep, held_control,
                           simulate_pi_epsilon, steering_coefficients)
from bracket_steer import (FollowerAgent, LeaderModel, leader_field, simulate_formation,
                           simulate_leader)
from bracket_steer import builtin_scenario, library, model, synthesis
from bracket_steer import simulate as simulate_module
from bracket_steer.scenarios import probe_states
from bracket_steer.simulate import interval_grid

from oracles import control_series, disc_interval_map, pi_eps_solve, sweep_reference


def test_defaults():
    gains = ControllerGains(epsilon=0.25, gamma=2.0, y_star=(0.0, 0.0))
    # 50 * eps * ceil(1/(gamma eps)) = 50 * 0.25 * 2 = 25.
    assert default_t_final(gains) == pytest.approx(25.0)
    assert default_substeps(3) == 120
    # A count below 1 once gave 0 or a negative sub-step count.
    for kappa_max in (0, -1):
        with pytest.raises(InvalidInputError, match=f"^kappa_max must be >= 1, got {kappa_max}$"):
            default_substeps(kappa_max)


def test_interval_grid_snaps_float_quotients():
    n, tail = interval_grid(2.0, 0.2)
    assert n == 10 and tail == 0.0
    n, tail = interval_grid(0.35, 0.2)
    assert n == 1 and tail == pytest.approx(0.15)


def test_work_budget_is_intervals_x_substeps_x_rows(monkeypatch, disc, disc_sel,
                                                   disc_gains_moderate, uni, uni_sel):
    # Each run is allowed at a budget of exactly its own work and refused
    # one row sub-step below it, before anything is integrated.
    assert model.MAX_ROW_SUBSTEPS == 10_000_000
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
        monkeypatch.setattr(model, "MAX_ROW_SUBSTEPS", work)
        run(cfg)
        monkeypatch.setattr(model, "MAX_ROW_SUBSTEPS", work - 1)
        with pytest.raises(InvalidInputError) as info:
            run(cfg)
        assert str(info.value) == (
            f"{factors}={work} exceeds the budget MAX_ROW_SUBSTEPS = {work - 1}")


def test_model_owns_every_work_budget(monkeypatch, disc, disc_sel, disc_gains_moderate):
    # model.MAX_ROW_SUBSTEPS is the one patch point, and model._within_budget
    # the one check, of a sweep's total, held_control's m and probe_states'
    # n_probes, as of a run's (test_work_budget_is_intervals_x_substeps_x_rows).
    assert not hasattr(simulate_module, "MAX_ROW_SUBSTEPS")
    assert not hasattr(synthesis, "PROBE_CHUNK")
    x0 = np.array([1.0, 0.5, 0.0, 0.0])

    def refusal(budget, fn, *args):
        monkeypatch.setattr(model, "MAX_ROW_SUBSTEPS", budget)
        with pytest.raises(InvalidInputError) as info:
            fn(*args)
        return str(info.value)

    # A sweep of 2 x 20 and 4 x 20 row sub-steps: admitted at a budget of
    # its total 120, refused one sub-step below, where each entry alone fits.
    sweep = (disc, disc_sel, disc_gains_moderate, x0, 1.0, [0.5, 0.25], 20)
    monkeypatch.setattr(model, "MAX_ROW_SUBSTEPS", 120)
    assert len(epsilon_sweep(*sweep)) == 2
    assert refusal(119, epsilon_sweep, *sweep) == (
        "the sweep's row sub-steps=120 exceeds the budget MAX_ROW_SUBSTEPS = 119")
    sel = BracketSelection(s1=(1,), s2=((1, 2),))
    monkeypatch.setattr(model, "MAX_ROW_SUBSTEPS", 3)
    assert len(held_control(sel, 0.25, 3, [1.0, 2.0], 0.1)) == 3
    assert refusal(2, held_control, sel, 0.25, 3, [1.0, 2.0], 0.1) == (
        "m=3 exceeds the budget MAX_ROW_SUBSTEPS = 2")
    bundle = builtin_scenario("rolling-disc")
    monkeypatch.setattr(model, "MAX_ROW_SUBSTEPS", 7)
    assert probe_states(bundle, 7).shape == (7, 4)
    assert refusal(6, probe_states, bundle, 7) == (
        "n_probes=7 exceeds the budget MAX_ROW_SUBSTEPS = 6")


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
# (drift, control fields, state dimension) of each row with a block kernel.
BUILTIN_ROWS = ((library.ROLLING_DISC.drift, library.ROLLING_DISC.control_fields, 4),
                (library.UNICYCLE.drift, library.UNICYCLE.control_fields, 3),
                (library._figure_eight, (), 3))
# Sub-step lengths: zero, the least subnormal and the built-ins' own size.
EDGE_STEPS = (0.0, 5e-324, 0.0025)
# The leader's times: every sign of zero, near 1e15 (where t + h/2 and
# t + h round to t or to a neighbour), infinities and NaN.
EDGE_TIMES = (0.0, -0.0, 0.37, -5.2, 5e-324, 1e6, 1e15, 1e15 + 0.125, -1e15,
              -1e300, INF, -INF, NAN)


def _outcome(step, *args):
    try:
        return np.array(step(*args), dtype=float).tobytes()
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
    # Finite rows whose other entries are -0.0, which stays -0.0 only where
    # every increment is -0.0 too.
    states += [[-0.0, -0.0, heading, -0.0][:n] for heading in (-0.0, 0.0, math.pi, -1e9)]
    return states


def _edge_cases(fields):
    """(t, h, u0, uh, u1) cases: for the controlled systems, every edge
    control pair in each of the three control positions, the other two held
    at an ordinary pair, and in all three at once (so a signed zero can
    reach the sum), at one time; for the uncontrolled leader, every edge
    time.  Each at every edge sub-step length."""
    cases = []
    for h in EDGE_STEPS:
        if not fields:
            cases += [(t, h, [], [], []) for t in EDGE_TIMES]
            continue
        for u in itertools.product(EDGE_CONTROLS, repeat=len(fields)):
            u = list(u)
            cases.append((0.37, h, u, u, u))
            for k in range(3):
                controls = [[0.7, -1.3], [-0.4, 2.1], [1.9, 0.6]]
                controls[k] = u
                cases.append((0.37, h, *controls))
    return cases


def _block_table(cases, m):
    """The times and control table simulate tabulates for consecutive
    sub-steps (t, h, u0, uh, u1): each one's start, midpoint and end, then
    the block's end."""
    ts, table = [], []
    for t, h, u0, uh, u1 in cases:
        ts += [t, t + 0.5 * h, t + h]
        table += [u0, uh, u1]
    ts.append(ts[-1])
    table.append(table[-1])
    return np.array(ts), np.array(table, dtype=float).reshape(len(ts), m)


def _block_states(block, x, h, cases, m):
    """The block kernel on the one row x, as a stack of one: (n, p)."""
    ts, table = _block_table(cases, m)
    with np.errstate(all="ignore"):
        return block(np.array([x], dtype=float), h, ts, table[:, None])[:, 0]


def test_block_kernels_match_generic_steps_bitwise():
    # Each block kernel on one sub-step gives, bit for bit, the generic
    # sub-step's output on the same functions (_rk4_step on the generic
    # stage) whenever it is finite; where the generic step is non-finite or
    # raises (cos(inf)), the block is non-finite, so the run falls back.
    assert len(library._BLOCK_STEPS) == len(BUILTIN_ROWS)
    for drift, fields, n in BUILTIN_ROWS:
        (generic,), blocks = simulate_module._row_integrators([("row", drift, fields)])
        assert generic.func is simulate_module._rk4_step
        block, = blocks
        seen = set()
        for t, h, u0, uh, u1 in _edge_cases(fields):
            for x in _edge_states(n):
                want = _outcome(generic, t, x, h, u0, uh, u1)
                got = _block_states(block, x, h, [(t, h, u0, uh, u1)], len(fields))
                assert got.shape == (1, n)
                if np.isfinite(got).all():
                    assert got.tobytes() == want, (block.__name__, t, x, h, u0, uh, u1)
                    seen.add("equal")
                else:
                    assert isinstance(want, type) or not np.isfinite(
                        np.frombuffer(want)).all(), (block.__name__, t, x, h, u0, uh, u1)
                    seen.add("raised" if isinstance(want, type) else "non-finite")
        assert seen == {"equal", "raised", "non-finite"}, block.__name__


def test_block_kernels_chain_sub_steps_bitwise():
    # A block of n sub-steps is n generic sub-steps one after another, bit
    # for bit, for every finite edge state and control, signed zeros and
    # subnormals included; from the first sub-step the generic chain leaves
    # finite numbers on, the block's states are non-finite.
    finite = [u for u in EDGE_CONTROLS if math.isfinite(u)]
    for drift, fields, n in BUILTIN_ROWS:
        (generic,), (block,) = simulate_module._row_integrators([("row", drift, fields)])
        for h in EDGE_STEPS:
            if fields:
                us = [[a, b] for a in finite for b in finite]
                cases = [(0.37 + i * h, h, us[i % len(us)], us[(3 * i + 1) % len(us)],
                          us[(7 * i + 2) % len(us)]) for i in range(3 * len(us))]
            else:
                cases = [(t + i * h, h, [], [], []) for t in (0.37, 1e15, -5.2)
                         for i in range(40)]
            for x in _edge_states(n):
                got = _block_states(block, x, h, cases, len(fields))
                want, state = [], x
                for t, _, u0, uh, u1 in cases:
                    out = _outcome(generic, t, state, h, u0, uh, u1)
                    if isinstance(out, type) or not np.isfinite(np.frombuffer(out)).all():
                        break
                    want.append(out)
                    state = np.frombuffer(out).tolist()
                assert [row.tobytes() for row in got[:len(want)]] == want, (block.__name__, h, x)
                assert not np.isfinite(got[len(want):]).all(axis=1).any(), (block.__name__, h, x)


def _stack_rows(fields, n):
    """(ts, h, rows) blocks of the two tests above, rows a list of (state,
    control table (len(ts), m)) that share the block's times: every edge
    case and every edge state at least once, each paired with others, and
    the chained controls at four rotations."""
    m = len(fields)
    states = _edge_states(n)
    finite = [u for u in EDGE_CONTROLS if math.isfinite(u)]
    us = [[a, b] for a in finite for b in finite]
    for h in EDGE_STEPS:
        cases = [case for case in _edge_cases(fields) if case[1] == h]
        # One sub-step: the controlled systems' cases share t = 0.37, the
        # leader's each have their own time.
        by_time = [cases] if fields else [[case] for case in cases]
        for group in by_time:
            size = 2 * max(len(states), len(group))
            tables = [_block_table([group[i % len(group)]], m) for i in range(size)]
            yield tables[0][0], h, [(states[i % len(states)], tab) for i, (_, tab) in
                                    enumerate(tables)]
        # Chained sub-steps.
        if fields:
            chains = [[(0.37 + i * h, h, us[(i + r) % len(us)], us[(3 * i + 1 + r) % len(us)],
                        us[(7 * i + 2 + r) % len(us)]) for i in range(40)] for r in range(4)]
        else:
            chains = [[(-5.2 + i * h, h, [], [], []) for i in range(40)]]
        tables = [_block_table(chain, m) for chain in chains]
        yield tables[0][0], h, [(x, tab) for x in states for _, tab in tables]


@pytest.mark.parametrize("k", [16, 256])
def test_stacked_block_kernels_match_single_rows_bitwise(k):
    # Each block kernel advances a stack of k rows with one time axis: row
    # r of the stack, whatever the other rows hold, is bitwise that row
    # advanced alone, finite or not.  A row alone is a stack of one, which
    # the two tests above pin to the generic sub-steps.  Every edge case
    # and state of those tests lands at seeded rows of stacks of 16 and 256.
    rng = np.random.default_rng(k)
    for drift, fields, n in BUILTIN_ROWS:
        _, (block,) = simulate_module._row_integrators([("row", drift, fields)])
        for ts, h, rows in _stack_rows(fields, n):
            with np.errstate(all="ignore"):
                alone = [block(np.array([x]), h, ts, tab[:, None])[:, 0].tobytes()
                         for x, tab in rows]
                order = rng.permutation(len(rows))
                for start in range(0, len(rows), k):
                    pick = order[np.arange(start, start + k) % len(rows)]
                    got = block(np.array([rows[i][0] for i in pick]), h, ts,
                                np.stack([rows[i][1] for i in pick], axis=1))
                    assert got.shape == (len(ts) // 3, k, n)
                    for r, i in enumerate(pick):
                        assert got[:, r].tobytes() == alone[i], (block.__name__, h, rows[i])


def test_block_guard_passes_only_blocks_inside_the_cap():
    # _advance_block keeps a block only when every entry is finite and
    # max |v| * sqrt(width) is under the generic guard's pass norm, so every
    # sub-step it keeps passes the exact per-row guard; any other block (a
    # norm over the cap from entries each under it, NaN, inf, or merely
    # near the cap) goes back to the generic sub-steps.
    disc = library.ROLLING_DISC
    blocks = [library._BLOCK_STEPS[library._identity_key(disc.drift, *disc.control_fields)]]
    ts, table = np.zeros(4), np.zeros((4, 2))
    cap = simulate_module.DIVERGENCE_NORM_CAP
    kept = []
    for x in ([0.45 * cap] * 4, [0.49 * cap, 0.0, -0.49 * cap, 0.0],
              [0.8 * cap, 0.8 * cap, 0.0, 0.0], [0.0, 0.99 * cap, 0.0, 0.0],
              [NAN, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, -INF]):
        states = simulate_module._advance_block(blocks, [np.array([x])], 0.0, ts,
                                                [table[:, None]])
        assert (states is not None) == (
            np.isfinite(x).all() and max(map(abs, x)) * 2.0 < simulate_module._GUARD_PASS_NORM), x
        if states is not None:
            assert states.tolist() == [x]
            simulate_module._guard_rows([x], 0.0, ["state"])
            kept.append(x)
    assert len(kept) == 2


def test_swapped_function_takes_generic_path():
    # A copy with any one of (drift, *control_fields) swapped, here for an
    # equal function, finds no block kernel: the run's rows get the generic
    # step alone, which calls the swap at each of its four stages and gives
    # the block kernel's sub-step bit for bit.  So does a wrapped
    # figure-eight leader field.
    for drift, fields, n in BUILTIN_ROWS:
        x = [0.4, -1.2, 0.9, 2.0][:n]
        case = (12.5, 0.0025, [0.7, -1.3][:len(fields)], [-0.4, 2.1][:len(fields)],
                [1.9, 0.6][:len(fields)])
        _, (block,) = simulate_module._row_integrators([("row", drift, fields)])
        want = _block_states(block, x, 0.0025, [case], len(fields))[0].tobytes()
        for k in range(1 + len(fields)):
            calls = []
            funcs = [drift, *fields]

            def swap(*args, f=funcs[k]):
                calls.append(1)
                return f(*args)

            funcs[k] = swap
            rows = [("row", drift, fields), ("swapped", funcs[0], tuple(funcs[1:]))]
            steps, blocks = simulate_module._row_integrators(rows)
            assert blocks is None
            assert steps[1].func is simulate_module._rk4_step
            assert _outcome(steps[1], case[0], x, *case[1:]) == want
            assert calls == [1] * 4


def _arrays(traj):
    return [getattr(traj, name).tobytes() for name in (
        "dense_times", "dense_states", "dense_controls", "y_error",
        "sample_times", "sample_states", "interval_index")]


def test_control_tables_in_blocks_match_whole_intervals(monkeypatch):
    # An interval is tabulated in blocks of TABLE_SUBSTEPS sub-steps, so a
    # long one never holds all its controls at once; blocks of 1, 7 and 40
    # sub-steps (a last block shorter than the rest, and the whole interval)
    # give every output bitwise, with a partial tail and a record stride.
    # The clock, and the leader's states, are taken a chunk of blocks at a
    # time: 8 intervals of the built-in formation at 256 and 40, 48 blocks
    # of 7 and 341 of 1, so 5.25 time units span six chunks and more,
    # chunks that end inside an interval, and a tail.  The leader alone
    # records every sub-step, each at the grid expression j epsilon + i h
    # (at sub-step 2046, a chunk's end at blocks of 1, an accumulated
    # (j epsilon + (i - 1) h) + h would differ from it).
    assert simulate_module.TABLE_SUBSTEPS == 256
    disc = builtin_scenario("rolling-disc")
    uni = builtin_scenario("unicycle-leader")

    def runs():
        single = simulate_pi_epsilon(disc.system, disc.selection, disc.gains,
                                     np.array(disc.x0), SimConfig(t_final=2.5, record_stride=3))
        form = simulate_formation(uni.agents, uni.leader, uni.agent_x0s, uni.gains,
                                  SimConfig(t_final=0.35, record_stride=3))
        chunked = simulate_formation(uni.agents, uni.leader, uni.agent_x0s, uni.gains,
                                     SimConfig(t_final=5.25, record_stride=7))
        # The leader alone, recorded at every sub-step, is the formation's
        # leader at each of its points.
        times, leader = simulate_leader(uni.leader, uni.gains, SimConfig(t_final=5.25))
        at = np.searchsorted(times, chunked.dense_times)
        assert times[at].tobytes() == chunked.dense_times.tobytes()
        assert leader[at].tobytes() == chunked.leader_states.tobytes()
        eps = uni.gains.epsilon
        tail = 5.25 - 52 * eps
        assert times.tolist() == [j * eps + i * (eps / 40) for j in range(52) for i in range(40)] + [
            52 * eps + i * (tail / 40) for i in range(40)] + [5.25]
        return (_arrays(single), [*_arrays(form.agent_trajs[0]), form.leader_states.tobytes()],
                [*_arrays(chunked.agent_trajs[0]), chunked.leader_states.tobytes()],
                [times.tobytes(), leader.tobytes()])

    want = runs()

    # Failures at block edges: a divergence in the first sub-step, two
    # mid-run (one with a record stride, one in a formation) and a
    # RankDegeneracyError at the fourth sampling instant give the same
    # error, t, state and .partial at every block size, with and without
    # the block kernels.  A block of 1 sub-step makes every divergence hit
    # a block's first sub-step, so the generic sub-steps hand back none.
    def single(gamma, t_final, stride=1):
        gains = dataclasses.replace(disc.gains, gamma=gamma)
        return lambda: simulate_pi_epsilon(disc.system, disc.selection, gains, np.array(disc.x0),
                                           SimConfig(t_final=t_final, record_stride=stride))

    def degenerate():
        real, calls = synthesis._SteeringPlan.solve, []

        def steer(plan, x, *args):
            calls.append(1)
            if len(calls) == 4:
                raise RankDegeneracyError("degenerate here", state=np.asarray(x))
            return real(plan, x, *args)

        with monkeypatch.context() as m:
            m.setattr(synthesis._SteeringPlan, "solve", steer)
            return single(5.0, 4.5, 3)()

    agents = [dataclasses.replace(agent, gamma=50.0) for agent in uni.agents] * 2
    failures = [single(1e300, 2.0), single(100.0, 15.5, 3), degenerate,
                lambda: simulate_formation(agents, uni.leader, uni.agent_x0s * 2, uni.gains,
                                           SimConfig(t_final=2.0, record_stride=7)),
                *_leaders_past_the_cap(uni)]
    outcomes = [_run_outcome(run) for run in failures]
    assert [type(got) for got in outcomes] == [tuple] * 6
    assert [got[0] for got in outcomes] == [DivergenceError] * 2 + [RankDegeneracyError,
                                                                    *[DivergenceError] * 3]
    # The leader crosses the cap inside the second chunk at every block size.
    assert [0.86 < got[2] < 1.6 for got in outcomes[4:]] == [True, True]

    for block in (1, 7, 40):
        monkeypatch.setattr(simulate_module, "TABLE_SUBSTEPS", block)
        assert runs() == want, block
        for run, got in zip(failures, outcomes):
            assert _run_outcome(run) == got, block
            with monkeypatch.context() as m:
                m.setattr(library, "_BLOCK_STEPS", {})
                assert _run_outcome(run) == got, block


def _leaders_past_the_cap(uni):
    """A figure-eight leader started just inside DIVERGENCE_NORM_CAP, whose
    norm grows by 0.2 per unit time until it crosses the cap near t = 1.1,
    alone (simulate_leader) and followed by the built-in's agent at its
    offset: runs that raise DivergenceError."""
    x0 = (0.0, 0.22 - simulate_module.DIVERGENCE_NORM_CAP, 0.0)
    leader = dataclasses.replace(uni.leader, x0=x0)
    cfg = SimConfig(t_final=2.65, record_stride=7)
    agent_x0 = [np.add(x0, agent.offset) for agent in uni.agents]
    return [lambda: simulate_leader(leader, uni.gains, cfg),
            lambda: simulate_formation(uni.agents, leader, agent_x0, uni.gains, cfg)]


def _run_outcome(run):
    """A run's every output array, or its error's type, message, t, state
    and every array of its .partial (and .agent_index, when set)."""
    def arrays(traj):
        if isinstance(traj, tuple):  # simulate_leader's (dense_times, dense_states)
            return [a.tobytes() for a in traj]
        if hasattr(traj, "agent_trajs"):
            return [traj.dense_times.tobytes(), traj.leader_states.tobytes(),
                    *(a for agent in traj.agent_trajs for a in _arrays(agent))]
        return _arrays(traj)

    try:
        return arrays(run())
    except (DivergenceError, RankDegeneracyError) as exc:
        state = getattr(exc, "state", None)
        return (type(exc), str(exc), getattr(exc, "t", None),
                None if state is None else np.asarray(state).tobytes(),
                getattr(exc, "agent_index", None), arrays(exc.partial))


def test_runs_match_the_generic_path_bitwise(monkeypatch):
    # With the block-kernel table emptied every row takes the generic
    # sub-steps: the reference.  Completed runs (a partial tail, a record
    # stride), diverging runs (in the first sub-step, and mid-run after
    # blocks that passed) and a RankDegeneracyError at a later sampling
    # instant give the same arrays, or the same error, t, state and
    # .partial, on both paths.
    disc = builtin_scenario("rolling-disc")
    uni = builtin_scenario("unicycle-leader")
    x0 = np.array(disc.x0)

    def single(gamma, t_final, stride=1):
        gains = dataclasses.replace(disc.gains, gamma=gamma)
        return lambda: simulate_pi_epsilon(disc.system, disc.selection, gains, x0,
                                           SimConfig(t_final=t_final, record_stride=stride))

    def formation(gamma, t_final, stride=1):
        agents = [dataclasses.replace(agent, gamma=gamma) for agent in uni.agents] * 2
        return lambda: simulate_formation(agents, uni.leader, uni.agent_x0s * 2, uni.gains,
                                          SimConfig(t_final=t_final, record_stride=stride))

    def failing(run, calls):
        # The plan's solve raises at its calls-th call: the run's
        # calls-th sampling instant.
        def patched():
            real = synthesis._SteeringPlan.solve
            count = []

            def steer(plan, x, *args):
                count.append(1)
                if len(count) == calls:
                    raise RankDegeneracyError("degenerate here", state=np.asarray(x))
                return real(plan, x, *args)

            with monkeypatch.context() as m:
                m.setattr(synthesis._SteeringPlan, "solve", steer)
                return run()
        return patched

    def falling_back(run, calls):
        # The stacked solve refuses at its calls-th call, as on a failing
        # row, and the first agent's own solve on the row-by-row fallback
        # raises, so the run's error carries that agent's agent_index.
        def patched():
            real = synthesis._SteeringPlan.solve_many
            count = []

            def steer_many(*args):
                count.append(1)
                return None if len(count) == calls else real(*args)

            def steer(plan, x_agent, *args):
                raise RankDegeneracyError("degenerate here", state=np.asarray(x_agent))

            with monkeypatch.context() as m:
                m.setattr(synthesis._SteeringPlan, "solve_many", steer_many)
                m.setattr(synthesis._SteeringPlan, "solve", steer)
                return run()
        return patched

    # Chunks of the clock and of the leader's states: a horizon of three
    # chunks and more with a tail and a record stride, the leader alone
    # over it, and leaders that cross the cap inside a chunk.
    chunked = [formation(10.0, 5.25, 7),
               lambda: simulate_leader(uni.leader, uni.gains, SimConfig(t_final=5.25)),
               *_leaders_past_the_cap(uni)]
    runs = [single(5.0, 7.5, 3), formation(10.0, 0.35, 3), single(1e300, 2.0),
            formation(50.0, 2.0), formation(50.0, 2.0, 7),
            *chunked,
            failing(single(5.0, 7.0), 4),
            falling_back(formation(10.0, 1.0), 5)]
    kinds = []
    for run in runs:
        got = _run_outcome(run)
        with monkeypatch.context() as m:
            m.setattr(library, "_BLOCK_STEPS", {})
            assert _run_outcome(run) == got
        kinds.append(got[0] if isinstance(got, tuple) else "done")
    assert kinds == ["done", "done", *[DivergenceError] * 3, "done", "done",
                     *[DivergenceError] * 2, *[RankDegeneracyError] * 2]
    assert got[4] == 0


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
    assert simulate_module._row_integrators([("state", copy.drift, copy.control_fields)])[1] is None
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


@pytest.mark.parametrize("p", [1, 2, 3, 4, 9, 33])
def test_error_norms_in_blocks_are_the_whole_array_norms(p):
    # Error series are taken one block of BLOCK_VALUES values at a time:
    # each row's norm is, bit for bit, np.linalg.norm's over the whole
    # array, around the block boundary, with a one-row last block and on a
    # strided view of the first p columns, as a run's y block is.
    rng = np.random.default_rng(p)
    block = simulate_module.block_rows(p)
    for rows in (1, block - 1, block, block + 1, 3 * block + 1):
        states = (rng.standard_normal((rows, p + 2))
                  * 10.0 ** rng.uniform(-30, 30, (rows, p + 2)))[:, :p]
        target = rng.standard_normal(p)
        want = np.linalg.norm(states - target, axis=1)
        assert simulate_module._error_norms(states, target).tobytes() == want.tobytes()


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


def test_record_stride(monkeypatch, disc, disc_sel, disc_gains_moderate):
    x0 = np.array([1.0, 0.5, 0.0, 0.0])
    builtin = builtin_scenario("rolling-disc")
    steep = dataclasses.replace(builtin.gains, gamma=100.0)
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

    # Exactly the due boundaries, with and without a tail, at every table
    # block size (one sub-step, blocks that do not divide an interval of
    # 40, the whole interval, and one longer than it) and every stride,
    # one longer than the run too.
    for block in (1, 7, 40, 256):
        monkeypatch.setattr(simulate_module, "TABLE_SUBSTEPS", block)
        for t_final, stride in itertools.product((1.0, 1.1), (1, 3, 7, 40, 41, 1000)):
            traj = simulate_pi_epsilon(disc, disc_sel, disc_gains_moderate, x0,
                                       SimConfig(t_final, 40, stride))
            assert (list(zip(traj.dense_times.tolist(), traj.interval_index.tolist()))
                    == _due_points(t_final, 0.25, 40, stride)), (block, t_final, stride)
        # A run that diverges in sub-step 12 of interval 13, inside a table
        # block at sizes 7, 40 and 256, keeps the due boundaries before it.
        with pytest.raises(DivergenceError) as info:
            simulate_pi_epsilon(builtin.system, builtin.selection, steep, np.array(builtin.x0),
                                SimConfig(15.5, 40, 3))
        assert info.value.t == 13 * 1.0 + 12 * 0.025
        partial = info.value.partial
        assert list(zip(partial.dense_times.tolist(), partial.interval_index.tolist())) == [
            point for point in _due_points(15.5, 1.0, 40, 3) if point[0] < info.value.t], block


def _due_points(t_final, eps, nsub, stride):
    """(time, interval) of every boundary b = j nsub + i, b sub-steps from
    the start, with b % stride == 0, at the grid expression j eps + i h,
    and of the horizon's end: t_final after a tail, else n_int eps."""
    n_int, tail = interval_grid(t_final, eps)
    total = (n_int + (tail > 0.0)) * nsub
    points = []
    for b in [*range(0, total, stride), total]:
        j, i = divmod(b, nsub)
        h = (tail if j == n_int else eps) / nsub
        points.append((t_final if b == total and tail else j * eps + i * h, min(j, n_int)))
    return points


def test_substeps_warning(disc, disc_sel, disc_gains_moderate):
    with pytest.warns(RuntimeWarning, match="fewer than 20 sub-steps"):
        simulate_pi_epsilon(disc, disc_sel, disc_gains_moderate,
                            np.array([1.0, 0.5, 0.0, 0.0]),
                            SimConfig(t_final=0.5, substeps_per_period=10))


def test_sweep_warns_once_per_entry(disc, disc_sel, disc_gains_moderate, failing_sweep):
    # The sweep plans every entry before its first run; only the runs warn,
    # one warning per entry run, on one clock or not.  A sweep whose second
    # entry fails warns for the two entries that ran, as the per-epsilon
    # loop does.
    import warnings

    def warned(sweep, *args):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                sweep(*args, substeps_per_period=10)
            except RankDegeneracyError:
                pass
        messages = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
        return sum("fewer than 20 sub-steps" in m for m in messages)

    for args, count in (((disc, disc_sel, disc_gains_moderate, np.array([1.0, 0.5, 0.0, 0.0]),
                          0.5, [0.25, 0.125]), 2),
                        (failing_sweep, 2)):
        assert warned(epsilon_sweep, *args) == count == warned(sweep_reference, *args)


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


def test_rk4_converges_to_the_disc_closed_form_map(disc, disc_sel, disc_gains):
    # Criterion 1's first interval (epsilon = 1, gamma = 5) against the
    # integrator-free map: its gain is the 3.333 the acceptance test reports,
    # and the fixed-step RK4 state's largest error (2.3e-5 at 40 sub-steps)
    # falls 16-fold per halving of the sub-step, RK4's fourth order.
    x0 = np.array([2.0, 1.0, 0.0, math.pi])
    eps = disc_gains.epsilon
    want = disc_interval_map(x0, steering_coefficients(disc, disc_sel, disc_gains, x0), eps)
    assert np.linalg.norm(want[:2]) / np.linalg.norm(x0[:2]) == pytest.approx(3.33347, abs=5e-6)
    errs = [np.abs(simulate_pi_epsilon(disc, disc_sel, disc_gains, x0, SimConfig(eps, nsub))
                   .sample_states[1] - want).max() for nsub in (40, 80, 160, 320)]
    for coarse, fine in itertools.pairwise(errs):
        assert 15.5 <= coarse / fine <= 16.5, errs


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
    assert exc.agent_index is None  # a single system names no agent
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
    # A NaN t once passed the t < 0 test and gave a NaN reference; inf is
    # the flow's limit, y*, bitwise.
    with pytest.raises(InvalidInputError, match="^t must be >= 0, got nan$"):
        averaged_reference(y0, gains, math.nan)
    assert averaged_reference(y0, gains, math.inf).tobytes() == gains.y_star_vec().tobytes()


def test_averaged_reference_refuses_a_y_star_of_another_dimension():
    # y* and y0 are both the stabilized block: neither broadcasts against
    # the other, and the refusal is the steering solve's.
    gains2 = ControllerGains(epsilon=0.25, gamma=2.0, y_star=(1.0, -1.0))
    gains1 = ControllerGains(epsilon=0.25, gamma=2.0, y_star=(1.0,))
    gains3 = ControllerGains(epsilon=0.25, gamma=2.0, y_star=(1.0, -1.0, 0.0))
    for y0, gains, message in (([3.0, 0.0], gains1, "y_star has dimension 1, expected n1 = 2"),
                               ([3.0], gains2, "y_star has dimension 2, expected n1 = 1"),
                               ([3.0, 0.0], gains3, "y_star has dimension 3, expected n1 = 2")):
        with pytest.raises(InvalidInputError) as info:
            averaged_reference(y0, gains, 0.5)
        assert str(info.value) == message


def test_decay_report_measures_the_stabilized_block_of_the_trajectory():
    # A formation's displacement trajectory has n1 = 3: its y* has three
    # entries, and a shorter or longer one is refused, not cut to its own
    # length or broadcast.
    b = builtin_scenario("unicycle-leader")
    traj = simulate_formation(b.agents[:1], b.leader, b.agent_x0s[:1], b.gains,
                              SimConfig(t_final=2.0)).displacement_trajs[0]
    assert traj.n1 == 3
    want = decay_report(traj, b.gains, 0.3)
    errs = np.linalg.norm(traj.sample_states, axis=1)
    assert want.t1 == traj.sample_times[np.flatnonzero(errs > 0.3)[-1] + 1]
    for y_star in ((0.0,), (0.0,) * 4):
        gains = dataclasses.replace(b.gains, y_star=y_star)
        with pytest.raises(InvalidInputError) as info:
            decay_report(traj, gains, 0.3)
        assert str(info.value) == f"y_star has dimension {len(y_star)}, expected n1 = 3"


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
