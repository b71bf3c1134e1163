"""Intelligent Driver Model car-following baseline and GA calibration.

``_accel`` is the one IDM law (Treiber, Hennecke & Helbing, 2000). It takes
the platoon's ``dv = v_ahead - v``, as ``dynamics`` does, and writes into
two buffers its caller passes: ``IdmController`` (closed-loop simulation)
passes fresh ones per step, the datagen platoon step and the GA's fitness
step reused ones.

Platoon simulation and GA fitness step followers in gap form with
``dynamics.euler_platoon`` at ``dynamics.DT`` behind the leader's speeds and
cascade positions afterwards. ``simulate_idm_platoon`` steps a batch of
platoons, one row each behind its own leader. Calibration runs followers in
lockstep: each generation is one batch row per candidate of every follower
of one length, each behind its own leader, and one breeding pass over all of
their populations, in which each follower draws from a stream of its own,
four draws per generation (``_breed``).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from . import dynamics as dyn


class CollisionError(Exception):
    pass


# The GA's genes, in IdmParams field order.
GENE_NAMES = ("v0", "T", "s0", "a_max", "b")
DELTA = 4.0   # acceleration exponent, fixed by convention


@dataclass(frozen=True)
class IdmParams:
    """Per-vehicle IDM parameters."""

    v0: float      # desired speed, m/s
    T: float       # desired time headway, s
    s0: float      # jam spacing, m
    a_max: float   # max acceleration, m/s^2
    b: float       # comfortable deceleration, m/s^2

    def __post_init__(self):
        for name in GENE_NAMES:
            if not getattr(self, name) > 0:
                raise ValueError(f"IdmParams.{name} must be positive")


# Calibration search space, one row per gene.
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


def _accel(v, s, dv, v0, T, s0, a_max, c, s_star, out):
    """IDM acceleration a_max*(1 - (v/v0)^DELTA - (s*/s)^2), with
    s* = s0 + max(0, v*T - v*dv/c) and c = 2*sqrt(a_max*b), written into
    ``out`` and returned; ``s_star`` holds s*. Both buffers have the
    broadcast shape of the inputs. Gaps are not validated."""
    np.multiply(v, T, out=s_star)
    np.multiply(v, dv, out=out)
    np.divide(out, c, out=out)
    np.subtract(s_star, out, out=s_star)
    np.maximum(0.0, s_star, out=s_star)
    np.add(s0, s_star, out=s_star)
    np.divide(v, v0, out=out)
    np.power(out, DELTA, out=out)     # pow: two squarings round apart
    np.subtract(1.0, out, out=out)
    np.divide(s_star, s, out=s_star)
    np.square(s_star, out=s_star)
    np.subtract(out, s_star, out=out)
    return np.multiply(a_max, out, out=out)


def equilibrium_gap(v: float, p: IdmParams) -> float:
    """Gap with zero acceleration at steady speed ``v`` (requires v < v0)."""
    if not 0.0 <= v < p.v0:
        raise ValueError(f"no equilibrium at v={v} for v0={p.v0}")
    return (p.s0 + v * p.T) / np.sqrt(1.0 - (v / p.v0) ** DELTA)


class IdmController:
    """IDM law with known per-follower parameters, as a closed-loop controller.

    ``params`` is one IdmParams per follower (a list), or one such list per
    batch row; the genes are then contiguous (N,) or (B, N) arrays."""

    history_len = 1
    horizon = 1

    def __init__(self, params):
        if isinstance(params, IdmParams):
            raise TypeError("pass one IdmParams per follower (a list)")
        table = np.array(params, dtype=object)
        if not table.size:
            raise ValueError("need at least one follower")
        genes = np.array([[getattr(p, name) for name in GENE_NAMES]
                          for p in table.flat], dtype=float)
        v0, T, s0, a_max, b = genes.T.reshape(-1, *table.shape)
        self._genes = (v0, T, s0, a_max, 2.0 * np.sqrt(a_max * b))

    def replan(self, history, lead_future, platoons):
        pass

    def accel(self, k: int, v, s, dv):
        shape = np.broadcast(v, self._genes[0]).shape
        return _accel(v, s, dv, *self._genes, np.empty(shape), np.empty(shape))


@dataclass(frozen=True)
class IdmSimulation:
    """Result arrays of one platoon's simulation; row 0 is the leader."""

    positions: np.ndarray            # (n_vehicles, T)
    speeds: np.ndarray               # (n_vehicles, T)
    collision_frame: Optional[int]   # first frame with a non-positive gap, or None


def simulate_idm_platoon(lead_speeds, initial_positions, initial_speeds,
                         lengths, params, accel_noise=None) -> list:
    """Integrate the followers of B platoons, each behind its own
    speed-scripted leader, as the rows of one ``dynamics.euler_platoon`` call.

    ``lead_speeds`` is (B, T); ``initial_positions``, ``initial_speeds`` and
    ``lengths`` are (B, V), leader first; ``params`` holds B lists of V - 1
    IdmParams. ``accel_noise``, if given, is a (B, T-1, V-1) array added to
    follower accelerations. The step is ``_accel`` on the (B, V-1) gene
    arrays of ``IdmController(params)``, with both buffers reused. A leader
    moves by x(t+1) = x(t) + DT*v(t); the gap of follower n is
    x_{n-1} - length_{n-1} - x_n (rear bumper to front bumper).

    Returns one IdmSimulation per row. On a collision a row's output is
    truncated to the frames strictly before its first non-positive gap; a
    collided row steps on with the others, and its later values are
    discarded, so no row depends on which others share the call.
    """
    lead_speeds = np.asarray(lead_speeds, dtype=float)
    if lead_speeds.ndim != 2:
        raise ValueError(f"lead_speeds must be (B, T), got {lead_speeds.shape}")
    B, T = lead_speeds.shape
    genes = IdmController(params)._genes
    N = genes[0].shape[-1]
    initial_positions, initial_speeds, lengths = (
        np.asarray(a, dtype=float)
        for a in (initial_positions, initial_speeds, lengths))
    if not (genes[0].shape == (B, N) and initial_positions.shape
            == initial_speeds.shape == lengths.shape == (B, N + 1)):
        raise ValueError("params and initial state arrays must cover the "
                         "leader and every follower of every row")
    s_star, out = np.empty((B, N)), np.empty((B, N))
    if accel_noise is None:
        accel = lambda k, v, s, dv: _accel(v, s, dv, *genes, s_star, out)
    else:
        accel_noise = np.asarray(accel_noise, dtype=float)
        if accel_noise.shape != (B, T - 1, N):
            raise ValueError(f"accel_noise must have shape {(B, T - 1, N)}")
        accel = lambda k, v, s, dv: np.add(
            _accel(v, s, dv, *genes, s_star, out), accel_noise[:, k], out=out)

    speeds = np.empty((B, N + 1, T))
    speeds[:, 0] = lead_speeds
    speeds[:, 1:, 0] = initial_speeds[:, 1:]
    gaps = np.empty((B, N, T))
    gaps[..., 0] = (initial_positions[:, :-1] - lengths[:, :-1]
                    - initial_positions[:, 1:])
    # collided rows step on with non-positive gaps; their values are discarded
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        _, collision = dyn.euler_platoon(speeds[:, 1:], gaps, lead_speeds, accel)
        if (collision == 0).any():
            raise CollisionError(f"row {int(np.argmin(collision))}: initial "
                                 f"platoon state already overlaps")
        # cumsum adds in sequence: the same sums as stepping x(t) + DT*v(t)
        lead_pos = np.cumsum(np.concatenate(
            (initial_positions[:, :1], dyn.DT * lead_speeds[:, :-1]), axis=1),
            axis=1)
        positions = dyn.cascade_positions(lead_pos, lengths, gaps)
    return [IdmSimulation(positions[row, :, :valid], speeds[row, :, :valid],
                          None if valid == T else valid)
            for row, valid in enumerate(collision.tolist())]


# -- GA calibration ------------------------------------------------------------

@dataclass(frozen=True)
class FollowerObservation:
    """One follower's speeds and gaps behind its (observed, fixed) leader's
    speeds: the series the GA fits to."""

    lead_speeds: np.ndarray
    speeds: np.ndarray
    gaps: np.ndarray

    def __post_init__(self):
        T = len(self.speeds)
        if T < 2:
            raise ValueError("observation needs at least 2 frames")
        for f in fields(self):
            series = getattr(self, f.name)
            if len(series) != T:
                raise ValueError("observation series lengths disagree")
            if not np.isfinite(series).all():
                raise ValueError(f"FollowerObservation.{f.name} is not finite")


@dataclass(frozen=True)
class CalibrationResult:
    """Best candidate of a GA run, which always runs its full budget of
    generations. ``fitness`` is its gap RMSE (m) plus its speed RMSE (m/s)
    against the observation, not the gap RMSE alone."""

    params: IdmParams
    fitness: float


def _stack_observations(observations):
    """(gaps, speeds, lead_speeds) of observations of one length, each
    (F, 1, T): the per-group constants of ``_evaluate_population``."""
    return tuple(np.stack([getattr(o, name) for o in observations])[:, None]
                 for name in ("gaps", "speeds", "lead_speeds"))


def _evaluate_population(pops: np.ndarray, stacks) -> np.ndarray:
    """Fitness of every candidate, flat in (follower, candidate) order.

    ``pops`` is (F, M, 5), one population per observation of one length;
    ``stacks`` is ``_stack_observations`` of those observations. All F*M
    candidates re-simulate as batch rows of one ``euler_platoon`` call, each
    behind its own follower's observed leader. The step is ``_accel`` on
    contiguous gene columns, with ``c`` formed once and both buffers reused.
    Fitness = gap RMSE + speed RMSE against that follower's observation;
    collided candidates get COLLISION_FITNESS.
    """
    obs_gaps, obs_speeds, lead = stacks
    F, M = pops.shape[:2]
    v0, Th, s0, a_max, b = np.ascontiguousarray(
        np.moveaxis(pops, -1, 0))[..., None]                    # (F, M, 1)
    c = 2.0 * np.sqrt(a_max * b)
    s_star, out = np.empty((F, M, 1)), np.empty((F, M, 1))
    T = obs_speeds.shape[-1]
    spd = np.empty((F, M, 1, T))
    gaps = np.empty((F, M, 1, T))
    spd[..., 0, 0] = obs_speeds[..., 0]
    gaps[..., 0, 0] = obs_gaps[..., 0]
    accel = lambda k, v, s, dv: _accel(v, s, dv, v0, Th, s0, a_max, c,
                                       s_star, out)

    # collided rows step on with non-positive gaps; their values are discarded
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        _, collision = dyn.euler_platoon(spd, gaps, lead, accel)
        fitness = (np.sqrt(np.mean((gaps[..., 0, :] - obs_gaps) ** 2, axis=-1))
                   + np.sqrt(np.mean((spd[..., 0, :] - obs_speeds) ** 2, axis=-1)))
    fitness[collision < T] = COLLISION_FITNESS
    return fitness.reshape(-1)


def _breed(pops, fitness, rngs, lo, hi, sigma) -> np.ndarray:
    """The generation after ``pops`` (F, M, 5), one population per follower:
    each population's ELITES best, then tournament-picked blend children with
    Gaussian mutation (per-gene sigma), clipped to [lo, hi].

    Follower f's children come from four draws on ``rngs[f]``, in this
    order: picks (children, 2, TOURNAMENT), blends, mutation masks and noise
    (each (children, 5)); each tournament's winner is the first arg-min of
    its picks. The arithmetic then runs once over all F populations.
    The blend and the noise are ``rng.uniform(low, high)`` and
    ``rng.normal(0, sigma)`` spelled out: numpy computes those as
    ``low + (high - low) * u`` and ``0 + sigma * z`` from the same stream
    draws, so the children are bit-identical.
    """
    n = POPULATION - ELITES
    picks, blend, mutate, noise = (np.stack(d) for d in zip(*[
        (rng.integers(0, POPULATION, size=(n, 2, TOURNAMENT)),
         rng.random((n, 5)), rng.random((n, 5)), rng.standard_normal((n, 5)))
        for rng in rngs]))
    rows = np.arange(len(pops))[:, None]
    out = np.empty_like(pops)
    out[:, :ELITES] = pops[rows, np.argsort(fitness, kind="stable")[:, :ELITES]]
    scores = np.take_along_axis(fitness, picks.reshape(len(pops), -1), 1)
    won = np.take_along_axis(
        picks, scores.reshape(picks.shape).argmin(-1)[..., None], -1)[..., 0]
    p1, p2 = pops[rows, won[..., 0]], pops[rows, won[..., 1]]
    g_lo = np.minimum(p1, p2)
    g_hi = np.maximum(p1, p2)
    reach = BLEND_ALPHA * (g_hi - g_lo)
    low = g_lo - reach
    x = low + (g_hi + reach - low) * blend
    x += (mutate < MUTATION_PROB) * (sigma * noise)
    np.minimum(np.maximum(x, lo, out=x), hi, out=out[:, ELITES:])
    return out


def calibrate_followers(observations, seeds, budget: int = 100) -> list:
    """Real-coded GA fit of IDM parameters to each observed follower.

    Population 50, tournament size 3, blend crossover (alpha=0.5), Gaussian
    mutation (sigma = 5% of range, per-gene prob 0.2), 2 elites. ``budget``
    counts generations; 0 returns the best of the seeded initial population.
    Follower i is deterministic for ``seeds[i]``: every generation draws from
    its own stream, the next child of ``SeedSequence(seeds[i])``, spawned when
    that generation is drawn.

    Followers run in lockstep: per generation, the populations of all
    observations with the same length are evaluated in one batched Euler
    pass and bred in one batched pass, each follower drawing from its own
    streams. A follower's result does not depend on which others share its
    batch. Returns one CalibrationResult per observation, in input order.
    """
    observations, seeds = list(observations), list(seeds)
    if len(seeds) != len(observations):
        raise ValueError(f"{len(seeds)} seeds for {len(observations)} "
                         f"observations")
    if budget < 0:
        raise ValueError("budget must be >= 0")
    lo, hi = DEFAULT_BOUNDS[:, 0], DEFAULT_BOUNDS[:, 1]
    span = hi - lo
    sigma = MUTATION_SIGMA * span

    groups = {}
    for i, obs in enumerate(observations):
        groups.setdefault(len(obs.speeds), []).append(i)
    results = [None] * len(observations)
    for members in groups.values():
        stacks = _stack_observations([observations[i] for i in members])
        streams = [np.random.SeedSequence(seeds[i]) for i in members]
        rows = np.arange(len(members))
        pops = np.empty((len(members), POPULATION, 5))
        for pop, stream in zip(pops, streams):
            rng = np.random.default_rng(stream.spawn(1)[0])
            pop[...] = lo + rng.uniform(size=(POPULATION, 5)) * span
        fitness = _evaluate_population(pops, stacks).reshape(len(members), -1)

        idx = fitness.argmin(axis=1)
        best = pops[rows, idx]
        best_fit = fitness[rows, idx]

        for _ in range(budget):
            pops = _breed(pops, fitness, [np.random.default_rng(s.spawn(1)[0])
                                          for s in streams], lo, hi, sigma)
            fitness = _evaluate_population(pops, stacks).reshape(len(members), -1)
            idx = fitness.argmin(axis=1)
            better = np.flatnonzero(fitness[rows, idx] < best_fit)
            best_fit[better] = fitness[better, idx[better]]
            best[better] = pops[better, idx[better]]

        for i, genes, fit in zip(members, best, best_fit):
            params = IdmParams(*[float(x) for x in genes])
            results[i] = CalibrationResult(params, float(fit))
    return results


def calibrate_ga(observation: FollowerObservation, seed: int = 0,
                 budget: int = 100) -> CalibrationResult:
    """GA fit of IDM parameters to one observed follower: the one-observation
    case of ``calibrate_followers``."""
    return calibrate_followers([observation], [seed], budget)[0]
