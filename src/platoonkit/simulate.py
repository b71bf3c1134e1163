"""Closed-loop platoon simulation behind a recorded leader.

The simulator replays the reference leader trajectory and integrates the
followers under a controller. After a warmup prefix copied from the
reference, the controller is re-planned every ``replan_interval`` steps from
the *simulated* history (errors feed back, as they would on the road) plus
the true future leader speeds; between replans it supplies accelerations
step by step. The followers are stepped in (speed, gap) state by
``dynamics.euler_platoon``, the integrator shared with synthetic data and
IDM calibration, and positions are materialized afterwards by cascading
gaps down from the true leader positions, so speeds, gaps, and positions
stay mutually consistent to machine precision.

Speeds are clamped at zero (vehicles do not reverse); the number of clamped
entries is reported. A non-positive gap truncates the run strictly before
the offending frame and records the collision. ``IdmController`` lives in
``idm`` and is re-exported here.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import data
from . import dynamics as dyn
from . import network as net
from .idm import IdmController  # re-exported: simulate.IdmController


class SimulationError(Exception):
    pass


# -- controllers ----------------------------------------------------------------

class _LinearLaw:
    """The linear car-following law a = f_v (v - v*) + f_s (s - s*) + f_dv dv.

    Subclasses set ``_theta`` (N, S, 3), ``_v_star``, ``_s_star`` (N,) and
    ``m``; block j = k // m of the current plan steers step k.
    """

    _theta = None

    def accel(self, k: int, v, s, dv):
        if self._theta is None:
            raise SimulationError("accel called before the first replan")
        th = self._theta[:, k // self.m, :]
        return (th[:, 0] * (v - self._v_star) + th[:, 1] * (s - self._s_star)
                + th[:, 2] * dv)


class ScriptedThetaController(_LinearLaw):
    """Fixed parameter schedule around a fixed expected state.

    theta: (N, S, 3) sign-constrained triples; block j steers steps
    j*steps_per_block .. (j+1)*steps_per_block - 1 of each plan.
    """

    history_len = 1

    def __init__(self, theta, v_star, s_star, steps_per_block: int):
        self._theta = np.asarray(theta, dtype=float)
        dyn.validate_theta(self._theta)
        if self._theta.ndim != 3:
            raise ValueError(f"theta must be (N, S, 3), got {self._theta.shape}")
        self._v_star = np.asarray(v_star, dtype=float)
        self._s_star = np.asarray(s_star, dtype=float)
        if steps_per_block < 1:
            raise ValueError("steps_per_block must be >= 1")
        self.m = steps_per_block
        self.horizon = self._theta.shape[1] * steps_per_block

    def replan(self, history, lead_future):
        pass


class ModelController(_LinearLaw):
    """Plans with the neural pipeline; deterministic unless given an rng.

    ``dt`` is the step the model was trained at; ``closed_loop_simulate``
    refuses records sampled at any other step.
    """

    def __init__(self, params: net.ModelParams, config: net.ModelConfig,
                 rng: np.random.Generator = None):
        self.params = params
        self.config = config
        self.rng = rng
        self.dt = config.dt
        self.history_len = config.history_len
        self.horizon = config.horizon
        self.m = config.param_window

    def replan(self, history, lead_future):
        noise = None
        if self.rng is not None:
            noise = self.rng.standard_normal(
                (1,) + history.shape[:1] + (self.config.d_model,))
        with ad.no_grad():
            out = net.model_forward(self.params, self.config,
                                    history[None], lead_future[None], noise=noise)
        self._theta = out.theta.data[0]
        self._v_star = out.xstar.v_star.data[0]
        self._s_star = out.xstar.s_star.data[0]


# -- simulator --------------------------------------------------------------------

@dataclass
class SimulationRun:
    platoon_id: str
    dt: float
    warmup_steps: int
    speeds: np.ndarray          # (N, T') simulated follower speeds
    gaps: np.ndarray            # (N, T')
    positions: np.ndarray       # (N, T') cascaded from the true leader
    lead_speeds: np.ndarray     # (T',)
    lead_positions: np.ndarray  # (T',)
    clamp_count: int
    collision_frame: int = None

    @property
    def viable(self) -> bool:
        return self.collision_frame is None

    @property
    def duration(self) -> int:
        return self.speeds.shape[1]


def closed_loop_simulate(record: data.PlatoonRecord, controller,
                         warmup_steps: int = None,
                         replan_interval: int = None) -> SimulationRun:
    """Roll the followers of ``record`` forward under ``controller``.

    warmup_steps frames are copied verbatim (default: the controller's
    required history length); the simulation starts from the last copied
    frame. Near the end of the record the leader-future handed to the
    planner is padded by holding its last value; only the steps that fit in
    the record are applied. A controller with a ``dt`` attribute must plan at
    the record's sampling step.
    """
    dt = record.dt
    T = record.duration
    N = record.n_followers
    plan_dt = getattr(controller, "dt", dt)
    if plan_dt != dt:
        raise SimulationError(
            f"controller plans at dt={plan_dt} s but record {record.platoon_id} "
            f"is sampled at dt={dt} s")
    P = controller.history_len if warmup_steps is None else warmup_steps
    if P < controller.history_len:
        raise SimulationError(
            f"warmup of {P} frames cannot feed a history of "
            f"{controller.history_len}")
    if T <= P:
        raise SimulationError(f"record has {T} frames, warmup needs more than {P}")
    R = controller.horizon if replan_interval is None else replan_interval
    if not 1 <= R <= controller.horizon:
        raise SimulationError(
            f"replan interval {R} outside 1..{controller.horizon}")

    lead_spd = record.vehicles[0].speed
    lead_pos = record.vehicles[0].position
    F = controller.horizon

    spd = np.zeros((N, T))
    gaps = np.zeros((N, T))
    spd[:, :P] = record.speeds()[1:, :P]
    gaps[:, :P] = record.gaps()[:, :P]

    def accel(k, v, s, dv):
        # step k leaves frame t = P-1+k; frames k..t are the last P frames
        k_plan = k % R
        if k_plan == 0:
            t = P - 1 + k
            seg_spd = spd[:, k:t + 1]
            seg_gap = gaps[:, k:t + 1]
            ahead = np.vstack([lead_spd[None, k:t + 1], seg_spd[:-1]])
            history = np.stack([seg_spd, seg_gap, ahead - seg_spd], axis=-1)
            future = lead_spd[t + 1:t + 1 + F]
            if future.shape[0] < F:
                future = np.concatenate(
                    [future, np.full(F - future.shape[0], lead_spd[-1])])
            controller.replan(history, future)
        return controller.accel(k_plan, v, s, dv)

    clamp_count, collision = dyn.euler_platoon(
        spd[:, P - 1:], gaps[:, P - 1:], lead_spd[P - 1:], accel, dt)
    T_eff = P - 1 + int(collision)
    return SimulationRun(
        platoon_id=record.platoon_id, dt=dt, warmup_steps=P,
        speeds=spd[:, :T_eff], gaps=gaps[:, :T_eff],
        positions=dyn.cascade_positions(lead_pos[:T_eff], record.lengths(),
                                        gaps[:, :T_eff]),
        lead_speeds=lead_spd[:T_eff].copy(),
        lead_positions=lead_pos[:T_eff].copy(),
        clamp_count=clamp_count,
        collision_frame=None if T_eff == T else T_eff)


# -- comparison -------------------------------------------------------------------

@dataclass
class DeviationReport:
    """Simulated-minus-true deviations over the post-warmup frames."""

    platoon_id: str
    frames: np.ndarray            # (W,) frame indices compared
    speed_dev: np.ndarray         # (N, W)
    position_dev: np.ndarray      # (N, W)
    rmse_speed: float
    rmse_position: float
    per_vehicle_speed_rmse: np.ndarray
    per_vehicle_position_rmse: np.ndarray
    collision_frame: int
    clamp_count: int


def compare_runs(record: data.PlatoonRecord, run: SimulationRun) -> DeviationReport:
    if run.duration <= run.warmup_steps:
        raise SimulationError("run truncated inside its warmup; nothing to compare")
    lo, hi = run.warmup_steps, run.duration
    frames = np.arange(lo, hi)
    speed_dev = run.speeds[:, lo:hi] - record.speeds()[1:, lo:hi]
    position_dev = run.positions[:, lo:hi] - record.positions()[1:, lo:hi]
    return DeviationReport(
        platoon_id=record.platoon_id,
        frames=frames, speed_dev=speed_dev, position_dev=position_dev,
        rmse_speed=float(np.sqrt(np.mean(speed_dev ** 2))),
        rmse_position=float(np.sqrt(np.mean(position_dev ** 2))),
        per_vehicle_speed_rmse=np.sqrt(np.mean(speed_dev ** 2, axis=1)),
        per_vehicle_position_rmse=np.sqrt(np.mean(position_dev ** 2, axis=1)),
        collision_frame=run.collision_frame,
        clamp_count=run.clamp_count)


def write_deviations_csv(report: DeviationReport, path: str) -> None:
    """One row per follower per frame; vehicle_index matches the source file."""
    n = report.speed_dev.shape[0]
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["vehicle_index", "frame", "speed_dev_mps",
                         "position_dev_m"])
        for i in range(n):
            for j, frame in enumerate(report.frames):
                writer.writerow([i + 1, int(frame),
                                 data._fmt(report.speed_dev[i, j]),
                                 data._fmt(report.position_dev[i, j])])
