"""IDM baseline: hand-computed accelerations, platoon integration, GA behavior."""

import functools
import json
import math
from collections import Counter
from dataclasses import asdict, astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from platoonkit import cli, data, idm


STD = idm.IdmParams(v0=30.0, T=1.0, s0=2.0, a_max=1.0, b=1.5)


def _accel(v, s, dv, p):
    """One follower's IDM acceleration on the simulator's path; ``dv`` is
    the speed ahead minus the follower's own."""
    return idm.IdmController([p]).accel(0, v, s, dv)[0]


def _idm_formula(v, s, dv, v0, T, s0, a_max, b):
    """The IDM acceleration as published, with allocating numpy operations;
    its approach rate v - v_ahead is -dv."""
    s_star = s0 + np.maximum(0.0, v * T + v * -dv / (2.0 * np.sqrt(a_max * b)))
    return a_max * (1.0 - (v / v0) ** 4.0 - (s_star / s) ** 2)


def test_equilibrium_spacing_gives_zero_acceleration():
    # s_eq = (s0 + v*T) / sqrt(1 - (v/v0)^4); at v=15 that is 17/sqrt(0.9375)
    s_eq = idm.equilibrium_gap(15.0, STD)
    assert abs(s_eq - 17.0 / math.sqrt(1.0 - 0.5 ** 4)) < 1e-12
    a = _accel(15.0, s_eq, 0.0, STD)
    assert abs(float(a)) < 1e-12


def test_free_road_limit_and_desired_speed():
    # Huge gap at v=0: only the jam-spacing term remains, a -> a_max
    a = _accel(0.0, 1e6, 0.0, STD)
    assert abs(float(a) - STD.a_max) < 1e-9
    # At v=v0 with s=1000 and s*=32: a = 1*(1 - 1 - (32/1000)^2) = -0.001024
    a = _accel(30.0, 1000.0, 0.0, STD)
    assert abs(float(a) - (-0.001024)) < 1e-12


def test_approach_rate_sign_convention():
    # dv = v_leader - v_follower, as in the platoon features. Closing in
    # (negative) must brake harder than steady following; hand value locks
    # the convention.
    p = idm.IdmParams(v0=30.0, T=1.5, s0=2.0, a_max=1.0, b=2.0)
    closing = float(_accel(20.0, 50.0, -5.0, p))
    neutral = float(_accel(20.0, 50.0, 0.0, p))
    receding = float(_accel(20.0, 50.0, 5.0, p))
    assert closing < neutral <= receding
    s_star = 2.0 + 20.0 * 1.5 + 20.0 * 5.0 / (2.0 * math.sqrt(2.0))
    expect = 1.0 * (1.0 - (20.0 / 30.0) ** 4 - (s_star / 50.0) ** 2)
    assert abs(closing - expect) < 1e-12


def test_platoon_at_equilibrium_stays_constant():
    n_follow = 3
    v = 20.0
    params = [STD] * n_follow
    lengths = np.full(n_follow + 1, 4.5)
    s_eq = idm.equilibrium_gap(v, STD)
    pos = np.zeros(n_follow + 1)
    for i in range(1, n_follow + 1):
        pos[i] = pos[i - 1] - lengths[i - 1] - s_eq
    lead = np.full(200, v)
    sim, = idm.simulate_idm_platoon([lead], [pos], [np.full(n_follow + 1, v)],
                                    [lengths], [params])
    assert sim.collision_frame is None
    assert np.abs(sim.speeds - v).max() < 1e-9
    gaps = sim.positions[:-1] - lengths[:-1, None] - sim.positions[1:]
    assert np.abs(gaps - s_eq).max() < 1e-9


def test_lead_stop_converges_to_jam_spacing():
    # Leader eases to a stop; followers settle near s0 (within 10%). A hard
    # stop would overshoot further: stopped vehicles cannot back up, so the
    # frozen gap undercuts s0 by however much the approach overshot.
    params = [STD] * 2
    lengths = np.full(3, 4.5)
    v_init = 8.0
    s_eq = idm.equilibrium_gap(v_init, STD)
    pos = np.array([0.0, -(4.5 + s_eq), -2 * (4.5 + s_eq)])
    lead = np.concatenate([np.maximum(v_init - 0.3 * 0.1 * np.arange(270), 0.0),
                           np.zeros(600)])
    sim, = idm.simulate_idm_platoon([lead], [pos], [np.full(3, v_init)],
                                    [lengths], [params])
    assert sim.collision_frame is None
    assert np.abs(sim.speeds[:, -1]).max() < 0.05
    final_gaps = sim.positions[:-1, -1] - lengths[:-1] - sim.positions[1:, -1]
    assert np.abs(final_gaps - STD.s0).max() < 0.1 * STD.s0


def test_collision_truncates_with_frame():
    # Tiny opening gap with a fast follower and stopped leader: overlap is
    # immediate no matter how hard IDM brakes.
    p = idm.IdmParams(v0=30.0, T=1.0, s0=2.0, a_max=1.0, b=1.5)
    lead = np.zeros(50)
    pos = np.array([0.0, -5.0])
    sim, = idm.simulate_idm_platoon([lead], [pos], [[0.0, 25.0]],
                                    [np.full(2, 4.5)], [[p]])
    assert sim.collision_frame is not None
    assert sim.positions.shape[1] == sim.collision_frame
    if sim.collision_frame > 0:
        last_gap = sim.positions[0, -1] - 4.5 - sim.positions[1, -1]
        assert last_gap > 0.0


def test_simulation_euler_identities():
    params = [STD] * 2
    lengths = np.full(3, 4.5)
    v = 18.0
    s_eq = idm.equilibrium_gap(v, STD)
    pos = np.array([0.0, -(4.5 + s_eq), -2 * (4.5 + s_eq)])
    lead = v + np.sin(0.2 * np.arange(120))
    sim, = idm.simulate_idm_platoon([lead], [pos], [np.full(3, v)], [lengths],
                                    [params])
    dx = sim.positions[:, 1:] - sim.positions[:, :-1]
    assert np.abs(dx - 0.1 * sim.speeds[:, :-1]).max() < 1e-12


_CONTROLLER_STATES = {
    "float": lambda x: float(x[0, 0]),
    "vector": lambda x: x[0],
    "batch": lambda x: x,
    "live rows": lambda x: x[np.array([True, False, True, True])],
}


@pytest.mark.parametrize("state", sorted(_CONTROLLER_STATES))
def test_controller_gives_the_formula_bits_on_every_state_shape(state):
    # datagen steps (N,) states, closed-loop simulation (B, N) states and
    # their live rows, the hand-value tests floats
    params = [STD, idm.IdmParams(25.0, 1.6, 3.0, 2.2, 0.7),
              idm.IdmParams(35.0, 0.8, 1.2, 0.6, 4.1)]
    rng = np.random.default_rng(4)
    v, s, dv = (_CONTROLLER_STATES[state](x) for x in (
        rng.uniform(0.0, 30.0, (4, 3)), rng.uniform(0.5, 60.0, (4, 3)),
        rng.normal(0.0, 3.0, (4, 3))))
    got = idm.IdmController(params).accel(0, v, s, dv)
    genes = np.array([astuple(p) for p in params]).T
    want = _idm_formula(v, s, dv, *genes)
    assert got.shape == want.shape == np.broadcast_shapes(np.shape(v), (3,))
    assert got.tobytes() == want.tobytes()


def _reference_platoon(lead, positions, speeds, lengths, params, noise):
    """``simulate_idm_platoon`` as a plain allocating Euler loop over the
    published formula: gap form, speeds clamped at zero, the leader stepped
    by x + DT*v and followers placed behind it by their gaps, truncated
    before the first non-positive gap. Returns (positions, speeds,
    collision frame, clamp count)."""
    genes = np.array([astuple(p) for p in params]).T
    v = speeds[1:]
    s = positions[:-1] - lengths[:-1] - positions[1:]
    x = positions[0]
    rows, clamps, collision = [], 0, None
    for k in range(len(lead)):
        if (s <= 0.0).any():
            collision = k
            break
        rows.append((x, v, s))
        if k == len(lead) - 1:
            break
        dv = np.concatenate(([lead[k]], v[:-1])) - v
        v = v + data.DT * (_idm_formula(v, s, dv, *genes) + noise[k])
        clamps += int((v < 0.0).sum())
        v = np.where(v < 0.0, 0.0, v)
        s = s + data.DT * dv
        x = x + data.DT * lead[k]
    pos = np.empty((len(params) + 1, len(rows)))
    pos[0] = [r[0] for r in rows]
    for i in range(len(params)):
        pos[i + 1] = pos[i] - lengths[i] - np.array([r[2][i] for r in rows])
    spd = np.vstack([lead[:len(rows)], np.array([r[1] for r in rows]).T])
    return pos, spd, collision, clamps


# (params, leader speeds, initial positions, initial speeds) per case
_DATAGEN_CASES = {
    # desired speeds near the driven ones and steps as large as the speeds:
    # a last-bit change of the law shows in the speeds
    "creeping": ([idm.IdmParams(3.0, 1.2, 2.0, 4.0, 1.8),
                  idm.IdmParams(4.0, 1.5, 3.0, 3.5, 2.0)],
                 1.5 + 0.9 * np.sin(0.1 * np.arange(200)),
                 [0.0, -12.0, -25.0], [1.5, 0.2, 0.0]),
    # the leader stops hard and a long jam gap makes the last follower
    # brake below zero speed
    "clamped": ([idm.IdmParams(28.0, 1.2, 2.0, 1.4, 1.8),
                 idm.IdmParams(30.0, 1.5, 6.0, 2.5, 2.0)],
                np.maximum(8.0 - 0.5 * np.arange(120), 0.0),
                [0.0, -22.0, -33.0], [8.0, 8.0, 3.0]),
    # the leader stops dead in front of a follower with a tiny headway
    "collided": ([idm.IdmParams(30.0, 0.05, 0.2, 1.4, 1.8),
                  idm.IdmParams(28.0, 1.2, 2.0, 1.4, 1.8)],
                 np.where(np.arange(60) < 15, 8.0, 0.0),
                 [0.0, -5.3, -20.0], [8.0, 8.0, 3.0]),
}


@pytest.mark.parametrize("case", sorted(_DATAGEN_CASES))
def test_datagen_path_is_bit_identical_to_the_allocating_reference(case):
    params, lead, positions, speeds = _DATAGEN_CASES[case]
    positions, speeds = np.array(positions), np.array(speeds)
    lengths = np.array([4.5, 4.7, 4.4])
    noise = np.random.default_rng(6).normal(0.0, 0.3, (len(lead) - 1, 2))
    sim, = idm.simulate_idm_platoon([lead], [positions], [speeds], [lengths],
                                    [params], [noise])
    pos, spd, collision, clamps = _reference_platoon(
        lead, positions, speeds, lengths, params, noise)
    assert sim.collision_frame == collision
    assert (collision is not None) == (case == "collided")
    assert clamps > 0 or case != "clamped"
    assert sim.positions.tobytes() == pos.tobytes()
    assert sim.speeds.tobytes() == spd.tobytes()


def _make_observation(true_params, frames=400, seed=5):
    # Leader explores acceleration, braking, and cruise so each parameter
    # actually shapes the follower's response.
    t = np.arange(frames) * 0.1
    lead_v = 18.0 + 6.0 * np.sin(2.0 * np.pi * t / 20.0)
    lead_v[frames // 2:] = np.maximum(lead_v[frames // 2:] - 4.0, 3.0)
    lead_x = np.concatenate([[0.0], np.cumsum(0.1 * lead_v[:-1])])
    s_init = idm.equilibrium_gap(lead_v[0], true_params)
    sim, = idm.simulate_idm_platoon(
        [lead_v], [[0.0, -(4.5 + s_init)]], [[lead_v[0], lead_v[0]]],
        [np.full(2, 4.5)], [[true_params]])
    assert sim.collision_frame is None
    return idm.FollowerObservation(
        lead_speeds=sim.speeds[0], speeds=sim.speeds[1],
        gaps=sim.positions[0] - 4.5 - sim.positions[1])


def test_calibration_deterministic_and_monotone():
    obs = _make_observation(idm.IdmParams(28.0, 1.4, 2.2, 1.1, 1.8))
    r1 = idm.calibrate_ga(obs, seed=11, budget=8)
    r2 = idm.calibrate_ga(obs, seed=11, budget=8)
    assert r1.params == r2.params and r1.fitness == r2.fitness
    # generation g draws from the g-th child stream, so a shorter budget
    # runs a prefix of a longer one: elites make the best non-increasing
    best = [idm.calibrate_followers([obs], [11], b)[0].fitness
            for b in range(9)]
    assert best[-1] == r1.fitness
    assert np.all(np.diff(best) <= 0.0)
    r3 = idm.calibrate_ga(obs, seed=12, budget=8)
    assert r3.fitness != r1.fitness or r3.params != r1.params


def test_budget_zero_returns_best_of_initial_population():
    obs = _make_observation(idm.IdmParams(28.0, 1.4, 2.2, 1.1, 1.8))
    r = idm.calibrate_ga(obs, seed=3, budget=0)
    assert r.fitness < idm.COLLISION_FITNESS


def test_calibration_improves_fit():
    obs = _make_observation(idm.IdmParams(28.0, 1.4, 2.2, 1.1, 1.8))
    short = idm.calibrate_ga(obs, seed=7, budget=0)
    longer = idm.calibrate_ga(obs, seed=7, budget=25)
    assert longer.fitness <= short.fitness
    assert longer.fitness < 0.5  # decent fit well before the full budget


def test_observation_validation():
    with pytest.raises(ValueError, match="2 frames"):
        idm.FollowerObservation(np.zeros(1), np.zeros(1), np.zeros(1))
    for short in range(3):
        series = [np.zeros(5), np.zeros(5), np.zeros(5)]
        series[short] = np.zeros(4)
        with pytest.raises(ValueError, match="lengths disagree"):
            idm.FollowerObservation(*series)


@pytest.mark.parametrize("name", ["lead_positions", "lead_speeds",
                                  "lead_length", "positions", "speeds"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_observation_rejects_non_finite_fields(name, bad):
    # a bad leader position, leader length or own position reaches the
    # observation through the gap built from it
    record = {"lead_positions": np.arange(5.0) + 20.0,
              "lead_speeds": np.full(5, 10.0), "lead_length": 4.5,
              "positions": np.arange(5.0), "speeds": np.full(5, 10.0)}
    if name == "lead_length":
        record[name] = bad
    else:
        record[name][2] = bad
    gaps = record["lead_positions"] - record["lead_length"] - record["positions"]
    with pytest.raises(ValueError, match=name if "speeds" in name else "gaps"):
        idm.FollowerObservation(record["lead_speeds"], record["speeds"], gaps)


@pytest.mark.parametrize("dt", [0.0, -0.1, math.nan, math.inf])
def test_observation_rejects_bad_dt(dt):
    # the GA steps every follower at data.DT; an observation takes no step
    # of its own, so no bad one can reach the fit
    with pytest.raises(TypeError, match="dt"):
        idm.FollowerObservation(np.zeros(5), np.zeros(5), np.zeros(5), dt=dt)


# -- lockstep calibration --------------------------------------------------------

# (true params, frames, leader seed): three length groups, one leader per
# follower
_FLEET = [(idm.IdmParams(28.0, 1.4, 2.2, 1.1, 1.8), 60, 5),
          (idm.IdmParams(24.0, 1.0, 3.0, 1.5, 2.4), 80, 6),
          (idm.IdmParams(32.0, 1.8, 1.5, 0.9, 1.2), 60, 7),
          (idm.IdmParams(26.0, 1.2, 2.6, 1.3, 2.0), 80, 8),
          (idm.IdmParams(30.0, 1.6, 2.0, 1.0, 1.5), 40, 9)]


def _fleet_observation(true_params, frames, seed):
    # a leader of its own per seed, so swapped leaders change every fit
    t = np.arange(frames) * data.DT
    phase = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi)
    lead_v = 16.0 + 5.0 * np.sin(2.0 * np.pi * t / 6.0 + phase)
    s_init = idm.equilibrium_gap(lead_v[0], true_params)
    sim, = idm.simulate_idm_platoon(
        [lead_v], [[0.0, -(4.5 + s_init)]], [[lead_v[0], lead_v[0]]],
        [np.full(2, 4.5)], [[true_params]])
    assert sim.collision_frame is None
    return idm.FollowerObservation(
        lead_speeds=sim.speeds[0], speeds=sim.speeds[1],
        gaps=sim.positions[0] - 4.5 - sim.positions[1])


FLEET = [_fleet_observation(*spec) for spec in _FLEET]
SOLO_BUDGET = 3


@functools.lru_cache(maxsize=None)
def _solo(i, seed):
    return idm.calibrate_ga(FLEET[i], seed=seed, budget=SOLO_BUDGET)


def _reference_breed(pop, fitness, rng, lo, hi):
    """A generation drawn with numpy's own uniform and normal, one batched
    call each: picks, blends, mutation masks, noise."""
    n = idm.POPULATION - idm.ELITES
    order = np.argsort(fitness, kind="stable")
    picks = rng.integers(0, idm.POPULATION, size=(n, 2, idm.TOURNAMENT))
    winners = np.array([[t[np.argmin(fitness[t])] for t in pair]
                        for pair in picks])
    p1, p2 = pop[winners[:, 0]], pop[winners[:, 1]]
    g_lo, g_hi = np.minimum(p1, p2), np.maximum(p1, p2)
    d = g_hi - g_lo
    child = rng.uniform(g_lo - idm.BLEND_ALPHA * d, g_hi + idm.BLEND_ALPHA * d)
    mutate = rng.random((n, 5)) < idm.MUTATION_PROB
    child = child + mutate * rng.normal(0.0, idm.MUTATION_SIGMA * (hi - lo),
                                        (n, 5))
    return np.concatenate([pop[order[:idm.ELITES]], np.clip(child, lo, hi)])


def _generation(seed, fitness_levels=(0.5, 1.0, 2.0, idm.COLLISION_FITNESS)):
    # ties and collided candidates, as real generations have
    lo, hi = idm.DEFAULT_BOUNDS[:, 0], idm.DEFAULT_BOUNDS[:, 1]
    rng = np.random.default_rng(seed)
    pop = lo + rng.uniform(size=(idm.POPULATION, 5)) * (hi - lo)
    return pop, rng.choice(fitness_levels, idm.POPULATION)


def _bred(pop, fitness, rng):
    """``_breed`` of a one-follower batch."""
    lo, hi = idm.DEFAULT_BOUNDS[:, 0], idm.DEFAULT_BOUNDS[:, 1]
    return idm._breed(pop[None], fitness[None], [rng], lo, hi,
                      idm.MUTATION_SIGMA * (hi - lo))[0]


@pytest.mark.parametrize("seed", range(5))
def test_breed_matches_reference_draws(seed):
    lo, hi = idm.DEFAULT_BOUNDS[:, 0], idm.DEFAULT_BOUNDS[:, 1]
    pop, fitness = _generation(seed)
    out = _bred(pop, fitness, np.random.default_rng(seed + 10))
    expect = _reference_breed(pop, fitness, np.random.default_rng(seed + 10),
                              lo, hi)
    assert out.tobytes() == expect.tobytes()


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4))
def test_breed_batch_rows_match_one_follower_batches(seeds):
    # each follower draws from its own stream: its children do not depend
    # on which populations share the batch
    lo, hi = idm.DEFAULT_BOUNDS[:, 0], idm.DEFAULT_BOUNDS[:, 1]
    pops, fitness = (np.stack(part) for part in zip(*map(_generation, seeds)))
    out = idm._breed(pops, fitness, [np.random.default_rng(s) for s in seeds],
                     lo, hi, idm.MUTATION_SIGMA * (hi - lo))
    for f, seed in enumerate(seeds):
        assert out[f].tobytes() == _bred(pops[f], fitness[f],
                                         np.random.default_rng(seed)).tobytes()


_breed_cases = given(st.integers(0, 2**32 - 1),
                     st.lists(st.floats(0.0, 10.0), min_size=1, max_size=4))


@settings(max_examples=40, deadline=None)
@_breed_cases
def test_breed_children_stay_within_bounds(seed, levels):
    out = _bred(*_generation(seed, levels), np.random.default_rng(seed))
    lo, hi = idm.DEFAULT_BOUNDS[:, 0], idm.DEFAULT_BOUNDS[:, 1]
    assert ((out >= lo) & (out <= hi)).all()


@settings(max_examples=40, deadline=None)
@_breed_cases
def test_breed_keeps_the_elites_in_stable_order(seed, levels):
    pop, fitness = _generation(seed, levels)
    out = _bred(pop, fitness, np.random.default_rng(seed))
    best = sorted(range(idm.POPULATION), key=lambda i: (fitness[i], i))
    assert out[:idm.ELITES].tobytes() == pop[best[:idm.ELITES]].tobytes()


@settings(max_examples=40, deadline=None)
@_breed_cases
def test_breed_makes_exactly_four_draws(seed, levels):
    # a per-child draw loop consumes the stream differently and fails here
    n = idm.POPULATION - idm.ELITES
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    _bred(*_generation(seed, levels), rng)
    twin.integers(0, idm.POPULATION, size=(n, 2, idm.TOURNAMENT))
    twin.random((n, 5))
    twin.random((n, 5))
    twin.standard_normal((n, 5))
    assert rng.bit_generator.state == twin.bit_generator.state


def test_generation_streams_are_spawned_one_at_a_time(monkeypatch):
    # eager spawning of budget + 1 children would cost memory in the budget;
    # one child per generation gives the same streams, keys (0,)..(budget,)
    asked, keys = [], []

    class Recording(np.random.SeedSequence):
        def spawn(self, n_children):
            asked.append(n_children)
            children = super().spawn(n_children)
            keys.extend(c.spawn_key for c in children)
            return children

    monkeypatch.setattr(np.random, "SeedSequence", Recording)
    budget = 4
    idm.calibrate_followers(FLEET[:2], [1, 2], budget=budget)
    assert set(asked) == {1}
    assert sorted(keys) == sorted([(g,) for g in range(budget + 1)] * 2)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_lockstep_equals_solo_runs(n):
    # the first n of the fleet: one group for n=1, up to three after that
    seeds = [100 + i for i in range(n)]
    results = idm.calibrate_followers(FLEET[:n], seeds, budget=SOLO_BUDGET)
    assert len(results) == n
    for i, (seed, result) in enumerate(zip(seeds, results)):
        assert result == _solo(i, seed), f"follower {i}"


@settings(max_examples=12, deadline=None)
@given(st.lists(st.integers(1, len(FLEET) - 1), unique=True,
                max_size=len(FLEET) - 1),
       st.integers(0, len(FLEET) - 1),
       st.lists(st.integers(0, 2), min_size=len(FLEET), max_size=len(FLEET)))
def test_lockstep_result_ignores_batch_companions(companions, slot, seeds):
    # follower 0 among any others, in any order: every result is still that
    # follower's solo run with its own seed
    members = list(companions)
    members.insert(min(slot, len(members)), 0)
    results = idm.calibrate_followers([FLEET[i] for i in members],
                                      [seeds[i] for i in members],
                                      budget=SOLO_BUDGET)
    for i, result in zip(members, results):
        assert result == _solo(i, seeds[i]), f"follower {i}"


def test_lockstep_one_euler_pass_per_generation_and_group(monkeypatch):
    calls = Counter()
    euler = idm.dyn.euler_platoon

    def counting(speeds, gaps, lead_speeds, accel):
        calls[speeds.shape] += 1
        return euler(speeds, gaps, lead_speeds, accel)

    monkeypatch.setattr(idm.dyn, "euler_platoon", counting)
    budget = 2
    idm.calibrate_followers(FLEET, [1, 2, 3, 4, 5], budget=budget)
    # every candidate of a length group is a row of one call
    assert calls == {(2, idm.POPULATION, 1, 60): budget + 1,
                     (2, idm.POPULATION, 1, 80): budget + 1,
                     (1, idm.POPULATION, 1, 40): budget + 1}


def test_lockstep_fitness_matches_independent_simulation():
    # each row re-simulated on its own behind its own follower's leader
    rng = np.random.default_rng(0)
    lo, span = idm.DEFAULT_BOUNDS[:, 0], np.ptp(idm.DEFAULT_BOUNDS, axis=1)
    pops = lo + rng.uniform(size=(2, idm.POPULATION, 5)) * span
    group = [FLEET[0], FLEET[2]]
    fitness = idm._evaluate_population(
        pops, idm._stack_observations(group)).reshape(2, -1)
    for f, obs in enumerate(group):
        lengths = np.full(2, 4.5)
        for m in range(0, idm.POPULATION, 7):
            sim, = idm.simulate_idm_platoon(
                [obs.lead_speeds], [[obs.gaps[0] + 4.5, 0.0]],
                [[obs.lead_speeds[0], obs.speeds[0]]], [lengths],
                [[idm.IdmParams(*pops[f, m])]])
            if sim.collision_frame is not None:
                assert fitness[f, m] == idm.COLLISION_FITNESS
                continue
            gaps = sim.positions[0] - 4.5 - sim.positions[1]
            expect = (np.sqrt(np.mean((gaps - obs.gaps) ** 2))
                      + np.sqrt(np.mean((sim.speeds[1] - obs.speeds) ** 2)))
            assert abs(fitness[f, m] - expect) < 1e-9


def _reference_fitness(pops, observations):
    """The fitness step as a plain allocating loop: strided gene views,
    the published IDM formula, a leader-first row copy per step.
    Returns the flat fitness and the number of speeds clamped at zero."""
    F, M = pops.shape[:2]
    v0, Th, s0, a_max, b = np.moveaxis(pops, -1, 0)[..., None]
    obs_gaps, obs_speeds, lead = (
        np.stack([getattr(o, name) for o in observations])[:, None]
        for name in ("gaps", "speeds", "lead_speeds"))          # (F, 1, T)
    T = obs_speeds.shape[-1]
    spd = np.empty((F, M, T))
    gaps = np.empty((F, M, T))
    spd[..., 0], gaps[..., 0] = obs_speeds[..., 0], obs_gaps[..., 0]
    v, s = spd[..., :1], gaps[..., :1]
    collision = np.full((F, M), T)
    clamps = 0
    row = np.empty((F, M, 2))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for k in range(T):
            hit = (s <= 0.0).any(axis=-1) & (collision == T)
            collision = np.where(hit, k, collision)
            if (collision < T).all() or k == T - 1:
                break
            row[..., 0] = lead[..., k]
            row[..., 1:] = v
            dv = row[..., :-1] - v
            v = v + data.DT * _idm_formula(v, s, dv, v0, Th, s0, a_max, b)
            neg = v < 0.0
            clamps += int((neg[..., 0] & (collision == T)).sum())
            v[neg] = 0.0
            s = s + data.DT * dv
            spd[..., k + 1], gaps[..., k + 1] = v[..., 0], s[..., 0]
        fitness = (np.sqrt(np.mean((gaps - obs_gaps) ** 2, axis=-1))
                   + np.sqrt(np.mean((spd - obs_speeds) ** 2, axis=-1)))
    fitness[collision < T] = idm.COLLISION_FITNESS
    return fitness.reshape(-1), clamps


def test_fitness_is_bit_identical_to_the_allocating_reference():
    # one length group; gene rows that drive into the leader (no headway,
    # no jam gap, a strong engine and a weak brake term) or brake to a
    # standstill (a jam gap far beyond the observed gap)
    rng = np.random.default_rng(1)
    lo, span = idm.DEFAULT_BOUNDS[:, 0], np.ptp(idm.DEFAULT_BOUNDS, axis=1)
    pops = lo + rng.uniform(size=(2, idm.POPULATION, 5)) * span
    pops[:, ::5] = [40.0, 1e-3, 1e-3, 4.0, 1e6]
    pops[:, 1::7] = [20.0, 3.0, 200.0, 4.0, 5.0]
    group = [FLEET[0], FLEET[2]]
    fitness = idm._evaluate_population(pops, idm._stack_observations(group))
    expect, clamps = _reference_fitness(pops, group)
    collided = expect == idm.COLLISION_FITNESS
    assert collided.any() and not collided.all() and clamps > 0
    assert fitness.shape == (2 * idm.POPULATION,)
    assert fitness.tobytes() == expect.tobytes()


def test_lockstep_validates_before_any_generation(monkeypatch):
    def fail(*_):
        raise AssertionError("a generation ran")

    monkeypatch.setattr(idm, "_evaluate_population", fail)
    with pytest.raises(ValueError, match="seeds"):
        idm.calibrate_followers(FLEET[:2], [1])
    with pytest.raises(ValueError, match="budget"):
        idm.calibrate_followers(FLEET[:2], [1, 2], budget=-1)
    assert idm.calibrate_followers([], []) == []


@pytest.fixture(scope="module")
def mixed_corpus(tmp_path_factory):
    # 6 s platoons of 2 followers beside 8 s platoons of 3
    out = tmp_path_factory.mktemp("mixed")
    for seed, followers, duration in ((1, "2", "6.0"), (2, "3", "8.0")):
        part = tmp_path_factory.mktemp(f"part{seed}")
        assert cli.dispatch(["datagen", "--out", str(part), "--platoons", "2",
                             "--followers", followers, "--duration-s", duration,
                             "--seed", str(seed)]) == 0
        for f in part.glob("*.csv"):
            f.rename(out / f.name)
    return out


@pytest.mark.parametrize("vehicle", [None, 2])
def test_cli_calibrate_mixed_durations_equals_solo_runs(mixed_corpus, capsys,
                                                        vehicle):
    argv = ["calibrate-idm", "--data", str(mixed_corpus), "--budget", "2",
            "--seed", "9"]
    if vehicle is not None:
        argv += ["--vehicle", str(vehicle)]
    assert cli.dispatch(argv) == 0
    report = json.loads(capsys.readouterr().out)
    records = data.load_trajectories(mixed_corpus)
    assert {r.duration for r in records} == {60, 80}
    assert sorted(report) == sorted(r.platoon_id for r in records)
    for ri, rec in enumerate(records):
        indices = [vehicle] if vehicle else range(1, rec.n_followers + 1)
        rows = report[rec.platoon_id]
        assert sorted(rows) == [str(vi) for vi in indices]
        for vi in indices:
            seed = np.random.SeedSequence((9, ri, vi)).generate_state(1)[0]
            solo = idm.calibrate_ga(data.follower_observation(rec, vi),
                                    seed=int(seed), budget=2)
            row = rows[str(vi)]
            assert row["params"] == asdict(solo.params)
            assert row["gap_rmse"] == solo.fitness
            assert row["generations"] == 2


def test_params_validation():
    with pytest.raises(ValueError):
        idm.IdmParams(v0=-1.0, T=1.0, s0=2.0, a_max=1.0, b=1.5)
    with pytest.raises(ValueError):
        idm.IdmParams(v0=30.0, T=1.0, s0=0.0, a_max=1.0, b=1.5)
