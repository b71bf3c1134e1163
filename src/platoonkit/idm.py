"""Intelligent Driver Model car-following baseline and GA calibration.

Sign convention: ``dv_approach = v_follower - v_leader`` (positive while
closing in). Callers holding the platoon-feature convention
``dv = v_leader - v_follower`` must negate at this boundary.

Platoon simulation and GA fitness (one batch row per candidate) step the
followers in gap form with ``dynamics.euler_platoon``, coupled to the
leader's speed series; positions are cascaded from the leader's afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import dynamics as dyn


class CollisionError(Exception):
    pass


@dataclass(frozen=True)
class IdmParams:
    """Per-vehicle IDM parameters. ``delta`` is fixed at 4 by convention."""

    v0: float      # desired speed, m/s
    T: float       # desired time headway, s
    s0: float      # jam spacing, m
    a_max: float   # max acceleration, m/s^2
    b: float       # comfortable deceleration, m/s^2
    delta: float = 4.0

    def __post_init__(self):
        for name in ("v0", "T", "s0", "a_max", "b", "delta"):
            if not getattr(self, name) > 0:
                raise ValueError(f"IdmParams.{name} must be positive")

    def as_array(self) -> np.ndarray:
        return np.array([self.v0, self.T, self.s0, self.a_max, self.b])


# Calibration search space; gene order matches IdmParams field order.
GENE_NAMES = ("v0", "T", "s0", "a_max", "b")
DEFAULT_BOUNDS = np.array([
    [10.0, 40.0],   # v0
    [0.5, 3.0],     # T
    [0.5, 5.0],     # s0
    [0.5, 4.0],     # a_max
    [0.5, 5.0],     # b
])

POPULATION = 50
TOURNAMENT = 3
BLEND_ALPHA = 0.5
MUTATION_PROB = 0.2
MUTATION_SIGMA = 0.05   # fraction of each gene's bound range
ELITES = 2
COLLISION_FITNESS = 1e9


def _accel_raw(v, s, dv_approach, v0, T, s0, a_max, b, delta=4.0):
    """IDM acceleration without spacing validation; broadcasts on every input."""
    s_star = s0 + np.maximum(0.0, v * T + v * dv_approach / (2.0 * np.sqrt(a_max * b)))
    return a_max * (1.0 - (v / v0) ** delta - (s_star / s) ** 2)


def idm_acceleration(v, s, dv_approach, p: IdmParams):
    """Acceleration for speed ``v``, gap ``s``, approach rate ``dv_approach``.

    Unbounded below (hard braking allowed); bounded above by ``p.a_max``.
    """
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr <= 0.0):
        raise CollisionError("non-positive gap handed to idm_acceleration")
    return _accel_raw(np.asarray(v, dtype=float), s_arr,
                      np.asarray(dv_approach, dtype=float),
                      p.v0, p.T, p.s0, p.a_max, p.b, p.delta)


def equilibrium_gap(v: float, p: IdmParams) -> float:
    """Gap with zero acceleration at steady speed ``v`` (requires v < v0)."""
    if not 0.0 <= v < p.v0:
        raise ValueError(f"no equilibrium at v={v} for v0={p.v0}")
    return (p.s0 + v * p.T) / np.sqrt(1.0 - (v / p.v0) ** p.delta)


class IdmController:
    """IDM law with known per-follower parameters, as a closed-loop controller."""

    history_len = 1
    horizon = 1

    def __init__(self, params):
        if isinstance(params, IdmParams):
            raise TypeError("pass one IdmParams per follower (a list)")
        if not params:
            raise ValueError("need at least one follower")
        cols = np.stack([p.as_array() for p in params], axis=1)
        self._v0, self._T, self._s0, self._a_max, self._b = cols
        self._delta = np.array([p.delta for p in params])

    def replan(self, history, lead_future, platoons):
        pass

    def accel(self, k: int, v, s, dv):
        # approach rate is follower minus leader speed: the negative of dv
        return _accel_raw(v, s, -dv, self._v0, self._T, self._s0,
                          self._a_max, self._b, self._delta)


@dataclass(frozen=True)
class IdmSimulation:
    """Result arrays of a platoon simulation; row 0 is the leader."""

    positions: np.ndarray            # (n_vehicles, T)
    speeds: np.ndarray               # (n_vehicles, T)
    collision_frame: Optional[int]   # first frame with a non-positive gap, or None


def simulate_idm_platoon(lead_speeds, initial_positions, initial_speeds,
                         lengths, params: list, dt: float = 0.1,
                         accel_noise=None) -> IdmSimulation:
    """Integrate followers behind a speed-scripted leader.

    Gap-form Euler update (``dynamics.euler_platoon``) from frame-t states;
    the leader moves by x(t+1) = x(t) + dt*v(t). Gap of follower n is
    x_{n-1} - length_{n-1} - x_n (rear bumper to front bumper).
    ``accel_noise``, if given, is a (T-1, n_followers) array added to
    follower accelerations. On a collision the output is truncated to the
    frames strictly before the first non-positive gap.
    """
    lead_speeds = np.asarray(lead_speeds, dtype=float)
    T = lead_speeds.shape[0]
    n_follow = len(params)
    n = n_follow + 1
    initial_positions = np.asarray(initial_positions, dtype=float)
    initial_speeds = np.asarray(initial_speeds, dtype=float)
    lengths = np.asarray(lengths, dtype=float)
    if initial_positions.shape != (n,) or initial_speeds.shape != (n,) or lengths.shape != (n,):
        raise ValueError("initial state arrays must cover leader and every follower")
    law = IdmController(params)
    accel = law.accel
    if accel_noise is not None:
        accel_noise = np.asarray(accel_noise, dtype=float)
        if accel_noise.shape != (T - 1, n_follow):
            raise ValueError(f"accel_noise must have shape {(T - 1, n_follow)}")
        accel = lambda k, v, s, dv: law.accel(k, v, s, dv) + accel_noise[k]

    spd = np.empty((n_follow, T))
    gaps = np.empty((n_follow, T))
    spd[:, 0] = initial_speeds[1:]
    gaps[:, 0] = initial_positions[:-1] - lengths[:-1] - initial_positions[1:]
    _, collision = dyn.euler_platoon(spd, gaps, lead_speeds, accel, dt)
    valid = int(collision)
    if valid == 0:
        raise CollisionError("initial platoon state already overlaps")
    # cumsum adds in sequence: the same sums as stepping x(t) + dt*v(t)
    lead_pos = np.cumsum(np.concatenate(
        ([initial_positions[0]], dt * lead_speeds[:valid - 1])))
    positions = dyn.cascade_positions(lead_pos, lengths, gaps[:, :valid])
    return IdmSimulation(
        np.vstack([lead_pos, positions]),
        np.vstack([lead_speeds[:valid], spd[:, :valid]]),
        None if valid == T else valid)


# -- GA calibration ------------------------------------------------------------

@dataclass(frozen=True)
class FollowerObservation:
    """One follower's trajectory plus its (observed, fixed) leader. The GA
    couples to the leader's speeds; its positions only define observed gaps."""

    dt: float
    lead_positions: np.ndarray
    lead_speeds: np.ndarray
    lead_length: float
    positions: np.ndarray
    speeds: np.ndarray

    def __post_init__(self):
        T = len(self.positions)
        if T < 2:
            raise ValueError("observation needs at least 2 frames")
        if len(self.lead_positions) != T or len(self.lead_speeds) != T \
                or len(self.speeds) != T:
            raise ValueError("observation series lengths disagree")

    @property
    def gaps(self) -> np.ndarray:
        return self.lead_positions - self.lead_length - self.positions


@dataclass(frozen=True)
class CalibrationResult:
    params: IdmParams
    fitness: float
    generations_used: int
    best_history: list = field(default_factory=list)


def _evaluate_population(pop: np.ndarray, obs: FollowerObservation) -> np.ndarray:
    """Fitness = gap RMSE + speed RMSE of re-simulating against the observed
    leader; collided candidates get COLLISION_FITNESS."""
    M = pop.shape[0]
    v0, Th, s0, a_max, b = pop.T[:, :, None]
    T = len(obs.speeds)
    obs_gaps = obs.gaps
    spd = np.empty((M, 1, T))
    gaps = np.empty((M, 1, T))
    spd[..., 0] = obs.speeds[0]
    gaps[..., 0] = obs_gaps[0]

    def accel(k, v, s, dv):
        return _accel_raw(v, s, -dv, v0, Th, s0, a_max, b)

    # collided rows step on with non-positive gaps; their values are discarded
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        _, collision = dyn.euler_platoon(spd, gaps, obs.lead_speeds, accel, obs.dt)
        fitness = (np.sqrt(np.mean((gaps[:, 0] - obs_gaps) ** 2, axis=-1))
                   + np.sqrt(np.mean((spd[:, 0] - obs.speeds) ** 2, axis=-1)))
    fitness[collision < T] = COLLISION_FITNESS
    return fitness


def calibrate_ga(observation: FollowerObservation, bounds=None, seed: int = 0,
                 budget: int = 100) -> CalibrationResult:
    """Real-coded GA fit of IDM parameters to one observed follower.

    Population 50, tournament size 3, blend crossover (alpha=0.5), Gaussian
    mutation (sigma = 5% of range, per-gene prob 0.2), 2 elites. ``budget``
    counts generations; 0 returns the best of the seeded initial population.
    Deterministic for a given seed: every generation draws from its own
    SeedSequence-spawned stream.
    """
    bounds = np.asarray(DEFAULT_BOUNDS if bounds is None else bounds, dtype=float)
    if bounds.shape != (5, 2) or np.any(bounds[:, 0] >= bounds[:, 1]):
        raise ValueError("bounds must be (5, 2) with low < high")
    if budget < 0:
        raise ValueError("budget must be >= 0")
    lo, hi = bounds[:, 0], bounds[:, 1]
    span = hi - lo

    streams = np.random.SeedSequence(seed).spawn(budget + 1)
    rng = np.random.default_rng(streams[0])
    pop = lo + rng.uniform(size=(POPULATION, 5)) * span
    fitness = _evaluate_population(pop, observation)

    best_idx = int(np.argmin(fitness))
    best = pop[best_idx].copy()
    best_fit = float(fitness[best_idx])
    history = [best_fit]

    for g in range(budget):
        rng = np.random.default_rng(streams[g + 1])
        order = np.argsort(fitness, kind="stable")
        children = [pop[order[:ELITES]]]
        produced = ELITES
        while produced < POPULATION:
            picks = rng.integers(0, POPULATION, size=(2, TOURNAMENT))
            p1 = pop[picks[0][np.argmin(fitness[picks[0]])]]
            p2 = pop[picks[1][np.argmin(fitness[picks[1]])]]
            g_lo = np.minimum(p1, p2)
            g_hi = np.maximum(p1, p2)
            d = g_hi - g_lo
            child = rng.uniform(g_lo - BLEND_ALPHA * d, g_hi + BLEND_ALPHA * d)
            mutate = rng.random(5) < MUTATION_PROB
            child = child + mutate * rng.normal(0.0, MUTATION_SIGMA * span)
            children.append(np.clip(child, lo, hi)[None, :])
            produced += 1
        pop = np.concatenate(children, axis=0)
        fitness = _evaluate_population(pop, observation)
        idx = int(np.argmin(fitness))
        if fitness[idx] < best_fit:
            best_fit = float(fitness[idx])
            best = pop[idx].copy()
        history.append(best_fit)

    params = IdmParams(*[float(x) for x in best])
    return CalibrationResult(params, best_fit, budget, history)
