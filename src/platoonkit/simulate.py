"""Closed-loop platoon simulation behind a recorded leader.

The simulator replays each record's reference leader trajectory and
integrates its followers under a controller. After a warmup prefix copied
from the reference, the controller is re-planned every ``replan_interval``
steps from the *simulated* history (errors feed back, as they would on the
road) plus the true future leader speeds; between replans it supplies
accelerations step by step.

``simulate_platoons`` runs every record of one shape (follower count and
duration) as one batch: ``dynamics.euler_platoon`` steps all of their
followers together in (speed, gap) state, each batch row behind its own
leader, and each replan is one controller call for the whole group.
A row that has collided is left out of later replans and gets zero
acceleration, so it cannot disturb the rows still running; a record's run is
the same whichever records share its batch. Positions are materialized
afterwards by cascading gaps down from the true leader positions, so speeds,
gaps, and positions stay mutually consistent to machine precision. A run
carries them as a ``data.PlatoonRecord`` whose row 0 is the replayed leader.

Every run steps at ``dynamics.DT``. A controller has ``history_len`` and
``horizon``, ``replan(history, lead_future, platoons)`` taking (B, N, P, 3)
histories, (B, F) leader futures and the B indices of the planned records in
the list handed to ``simulate_platoons``, and ``accel(k, v, s, dv)`` on the
(B, N) states of those rows. Histories come from ``data.features`` and the law
from ``dynamics.linear_accel``, as for windows and the rollout.

Speeds are clamped at zero (vehicles do not reverse); the number of clamped
entries is reported. A non-positive gap truncates the run strictly before
the offending frame and records the collision. The controllers are the
learned ``ModelController`` here and ``idm.IdmController``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import data
from . import dynamics as dyn
from . import network as net


class SimulationError(Exception):
    pass


# -- controllers ----------------------------------------------------------------

class ModelController:
    """Plans a batch of platoons with one pass of the neural pipeline.

    Each replan keeps the predicted parameter blocks and expected state;
    ``accel`` then applies ``dynamics.linear_accel``, block j = k // m of the
    plan steering step k. Latents stay at their means unless a ``seed`` is
    given; then platoon i draws its noise from child i of
    ``SeedSequence(seed)``, so its run does not depend on which platoons
    share its batch. The weights run as constants, so a replan records no
    node.
    """

    def __init__(self, params: net.ModelParams, config: net.ModelConfig,
                 seed: int = None):
        self.params = params.constants()
        self.config = config
        self.seed = seed
        self._rngs = {}
        self._theta = None
        self.history_len = config.history_len
        self.horizon = config.horizon
        self.m = config.param_window

    def _rng(self, platoon: int) -> np.random.Generator:
        if platoon not in self._rngs:
            self._rngs[platoon] = np.random.default_rng(
                np.random.SeedSequence(self.seed, spawn_key=(platoon,)))
        return self._rngs[platoon]

    def replan(self, history, lead_future, platoons):
        noise = None
        if self.seed is not None:
            shape = (history.shape[1], self.config.d_model)
            noise = np.stack([self._rng(int(i)).standard_normal(shape)
                              for i in platoons])
        out = net.model_forward(self.params, self.config,
                                history, lead_future, noise=noise)
        self._theta = out.theta.data
        self._v_star = out.xstar.v_star
        self._s_star = out.xstar.s_star

    def accel(self, k: int, v, s, dv):
        if self._theta is None:
            raise SimulationError("accel called before the first replan")
        return dyn.linear_accel(self._theta[..., k // self.m, :], v, s, dv,
                                self._v_star, self._s_star)


# -- simulator --------------------------------------------------------------------

@dataclass
class SimulationRun:
    record: data.PlatoonRecord  # (V, T') leader replayed, followers simulated
    warmup_steps: int
    clamp_count: int
    collision_frame: int = None

    @property
    def viable(self) -> bool:
        return self.collision_frame is None

    @property
    def duration(self) -> int:
        return self.record.duration


def simulate_platoons(records, controller, warmup_steps: int = None,
                      replan_interval: int = None) -> list:
    """Roll the followers of every record forward under ``controller``.

    Returns one SimulationRun per record, in input order. Records of one
    shape (follower count, duration) run as one batch; see the module
    docstring for the controller interface. warmup_steps frames are copied
    verbatim (default: the controller's required history length); the
    simulation starts from the last copied frame. Near the end of a record
    the leader-future handed to the planner is padded by holding its last
    value; only the steps that fit in the record are applied.
    """
    P = controller.history_len if warmup_steps is None else warmup_steps
    R = controller.horizon if replan_interval is None else replan_interval
    groups = {}
    for i, record in enumerate(records):
        _check_record(record, controller, P, R)
        key = (record.n_followers, record.duration)
        groups.setdefault(key, []).append(i)
    runs = [None] * len(records)
    for rows in groups.values():
        group = [records[i] for i in rows]
        for i, run in zip(rows, _simulate_group(group, rows, controller, P, R)):
            runs[i] = run
    return runs


def closed_loop_simulate(record: data.PlatoonRecord, controller,
                         warmup_steps: int = None,
                         replan_interval: int = None) -> SimulationRun:
    """``simulate_platoons`` of one record; returns its run."""
    return simulate_platoons([record], controller, warmup_steps,
                             replan_interval)[0]


def _check_record(record, controller, P: int, R: int) -> None:
    if P < controller.history_len:
        problem = (f"warmup of {P} frames cannot feed a history of "
                   f"{controller.history_len}")
    elif record.duration <= P:
        problem = (f"record has {record.duration} frames, warmup needs more "
                   f"than {P}")
    elif not 1 <= R <= controller.horizon:
        problem = f"replan interval {R} outside 1..{controller.horizon}"
    else:
        return
    raise SimulationError(f"{record.platoon_id}: {problem}")


def _simulate_group(records, rows, controller, P: int, R: int) -> list:
    """Batch rows for records of one shape; ``rows`` are their input indices."""
    B, N, T = len(records), records[0].n_followers, records[0].duration
    F = controller.horizon
    lead_spd = np.stack([rec.speeds[0] for rec in records])
    # futures past the record's end hold its last leader speed
    lead_pad = np.concatenate([lead_spd, np.repeat(lead_spd[:, -1:], F, axis=1)],
                              axis=1)
    platoons = np.asarray(rows)
    spd = np.zeros((B, N, T))
    gaps = np.zeros((B, N, T))
    spd[..., :P] = [rec.speeds[1:, :P] for rec in records]
    gaps[..., :P] = [rec.gaps()[:, :P] for rec in records]

    H = controller.history_len
    live = None     # rows the current plan covers

    def accel(k, v, s, dv):
        # step k leaves frame t = P-1+k; the history is frames t-H+1..t
        nonlocal live
        k_plan = k % R
        if k_plan == 0:
            t = P - 1 + k
            # a NaN gap is not a hit: such a row stays live
            hit = (gaps[:, :, P - 1:t + 1] <= 0.0).any(axis=(1, 2))
            live = np.flatnonzero(~hit)
            frames = slice(t + 1 - H, t + 1)
            seg_spd = np.concatenate([lead_spd[live, None, frames],
                                      spd[live, :, frames]], axis=1)
            history = data.features(seg_spd, gaps[live, :, frames])
            controller.replan(history, lead_pad[live, t + 1:t + 1 + F],
                              platoons[live])
        a = np.zeros_like(v)
        a[live] = controller.accel(k_plan, v[live], s[live], dv[live])
        return a

    clamps, collision = dyn.euler_platoon(
        spd[..., P - 1:], gaps[..., P - 1:], lead_spd[:, P - 1:], accel)
    runs = []
    for b, rec in enumerate(records):
        T_eff = P - 1 + int(collision[b])
        positions = dyn.cascade_positions(rec.positions[0, :T_eff], rec.lengths,
                                          gaps[b, :, :T_eff])
        speeds = np.vstack([lead_spd[b, :T_eff], spd[b, :, :T_eff]])
        runs.append(SimulationRun(
            record=data.PlatoonRecord(rec.platoon_id, positions, speeds,
                                      rec.lengths),
            warmup_steps=P, clamp_count=int(clamps[b]),
            collision_frame=None if T_eff == T else T_eff))
    return runs


# -- comparison -------------------------------------------------------------------

@dataclass
class DeviationReport:
    """Simulated-minus-true deviations over the post-warmup frames."""

    frames: np.ndarray            # (W,) frame indices compared
    speed_dev: np.ndarray         # (N, W)
    position_dev: np.ndarray      # (N, W)
    rmse_speed: float
    rmse_position: float


def compare_runs(record: data.PlatoonRecord, run: SimulationRun) -> DeviationReport:
    if run.duration <= run.warmup_steps:
        raise SimulationError("run truncated inside its warmup; nothing to compare")
    lo, hi = run.warmup_steps, run.duration
    frames = np.arange(lo, hi)
    speed_dev = run.record.speeds[1:, lo:hi] - record.speeds[1:, lo:hi]
    position_dev = run.record.positions[1:, lo:hi] - record.positions[1:, lo:hi]
    return DeviationReport(
        frames=frames, speed_dev=speed_dev, position_dev=position_dev,
        rmse_speed=float(np.sqrt(np.mean(speed_dev ** 2))),
        rmse_position=float(np.sqrt(np.mean(position_dev ** 2))))


def write_deviations_csv(report: DeviationReport, path: str) -> None:
    """One row per follower per frame; vehicle_index matches the source file."""
    with open(path, "w", newline="\n", encoding="utf-8") as f:
        f.write("vehicle_index,frame,speed_dev_mps,position_dev_m\n")
        for i, (speed, position) in enumerate(zip(report.speed_dev,
                                                  report.position_dev)):
            f.write(data.format_rows(f"{i + 1},%d,{data.NUMBER},{data.NUMBER}\n",
                                     report.frames, speed, position))
