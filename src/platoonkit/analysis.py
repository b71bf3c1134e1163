"""Accuracy metrics, string-stability spectra, and surrogate safety measures.

The stability analysis treats each follower as the continuous-time linear
system dv/dt = f_v (v - v*) + f_s (s - s*) + f_dv dv, ds/dt = dv, whose
speed-perturbation transfer function from the vehicle ahead is

    G(jw) = (f_dv jw + f_s) / ((jw)^2 + (f_dv - f_v) jw + f_s).

|G| <= 1 at every frequency (string stability) reduces to the closed-form
margin (f_dv - f_v)^2 - f_dv^2 - 2 f_s >= 0; the worst frequency is always
the low end, so instability shows up as amplification below
sqrt(f_dv^2 + 2 f_s - (f_dv - f_v)^2) rad/s.

Safety surrogates follow the usual conventions: PET is the interpolated time
for a follower's front bumper to reach the position the leader's rear bumper
occupied at the reference instant, and SSDD compares stopping distances with
a 1.0 s reaction time and 3.4 m/s^2 comfortable deceleration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import DT

REACTION_TIME = 1.0        # s
COMFORT_DECEL = 3.4        # m/s^2
MAPE_THRESHOLD = 0.5       # |truth| below this is left out of MAPE
DIV_EPS = 1e-9
OMEGA_MIN = 0.05           # rad/s
OMEGA_MAX = 5.0
OMEGA_POINTS = 200
PET_BIN_EDGES = np.arange(0.0, 10.0 + 0.5, 0.5)
SSDD_BIN_EDGES = np.arange(-100.0, 100.0 + 5.0, 5.0)


class AnalysisError(Exception):
    pass


# -- accuracy metrics -----------------------------------------------------------

def rmse(pred, truth) -> float:
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if pred.shape != truth.shape:
        raise AnalysisError(f"shape mismatch {pred.shape} vs {truth.shape}")
    if pred.size == 0:
        raise AnalysisError("rmse of an empty selection")
    return float(np.sqrt(np.mean((pred - truth) ** 2)))


def mape(pred, truth) -> float:
    """Mean absolute percentage error, excluding |truth| < MAPE_THRESHOLD."""
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if pred.shape != truth.shape:
        raise AnalysisError(f"shape mismatch {pred.shape} vs {truth.shape}")
    keep = np.abs(truth) >= MAPE_THRESHOLD
    if not keep.any():
        raise AnalysisError(f"every truth value is below the "
                            f"{MAPE_THRESHOLD} exclusion threshold")
    return float(100.0 * np.mean(np.abs(truth[keep] - pred[keep])
                                 / np.abs(truth[keep])))


# -- string stability -----------------------------------------------------------

def default_omega_grid() -> np.ndarray:
    return np.geomspace(OMEGA_MIN, OMEGA_MAX, OMEGA_POINTS)


def transfer_function_magnitude(theta, omega) -> np.ndarray:
    """|G(jw)| for parameter triples theta (..., 3) on grid omega (W,).

    Returns (..., W). Pure arithmetic; sign constraints are not enforced here
    so boundary and textbook cases can be evaluated too.
    """
    theta = np.asarray(theta, dtype=float)
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    if theta.shape[-1] != 3:
        raise AnalysisError(f"theta last axis must be 3, got {theta.shape}")
    f_v = theta[..., 0:1]
    f_s = theta[..., 1:2]
    f_dv = theta[..., 2:3]
    num = f_s ** 2 + (f_dv * omega) ** 2
    den = (f_s - omega ** 2) ** 2 + ((f_dv - f_v) * omega) ** 2
    # poles (possible only for unconstrained triples) evaluate to inf
    with np.errstate(divide="ignore"):
        return np.sqrt(num / den)


def string_stability_margin(theta) -> np.ndarray:
    """Nonnegative iff |G(jw)| <= 1 for all w."""
    theta = np.asarray(theta, dtype=float)
    f_v = theta[..., 0]
    f_s = theta[..., 1]
    f_dv = theta[..., 2]
    return (f_dv - f_v) ** 2 - f_dv ** 2 - 2.0 * f_s


@dataclass(frozen=True)
class StabilitySpectrum:
    omega: np.ndarray              # (W,)
    per_vehicle: np.ndarray        # (N, W)
    chain: np.ndarray              # (W,) head-to-tail product
    theta_used: np.ndarray         # (N, 3) horizon-averaged triples
    amplified: bool
    peak_gain: float
    peak_omega: float


def head_to_tail_gain(theta) -> StabilitySpectrum:
    """Disturbance transmission spectrum for a platoon's parameter schedule.

    theta: (N, S, 3) per-vehicle parameter blocks, averaged over S; an
    already-averaged schedule is passed as (N, 1, 3).
    """
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 3 or theta.shape[-1] != 3:
        raise AnalysisError(f"theta must be (N, S, 3), got {theta.shape}")
    theta_used = theta.mean(axis=1)
    grid = default_omega_grid()
    per_vehicle = transfer_function_magnitude(theta_used, grid)
    chain = per_vehicle.prod(axis=0)
    peak = int(np.argmax(chain))
    return StabilitySpectrum(
        omega=grid, per_vehicle=per_vehicle, chain=chain, theta_used=theta_used,
        amplified=bool(chain[peak] > 1.0),
        peak_gain=float(chain[peak]), peak_omega=float(grid[peak]))


# -- surrogate safety -----------------------------------------------------------

def pet_series(positions, lengths) -> np.ndarray:
    """Post-encroachment time per follower and frame; NaN when never reached.

    positions: (V, T) front-bumper positions, leader first; lengths: (V,).
    PET(n, t) is the interpolated time for vehicle n to reach the position
    the rear bumper of vehicle n-1 occupied at frame t.
    """
    positions = np.asarray(positions, dtype=float)
    lengths = np.asarray(lengths, dtype=float)
    if positions.ndim != 2 or positions.shape[0] < 2:
        raise AnalysisError(f"need (V>=2, T) positions, got {positions.shape}")
    if lengths.shape != (positions.shape[0],):
        raise AnalysisError("lengths must match the vehicle count")
    V, T = positions.shape
    out = np.full((V - 1, T), np.nan)
    t_idx = np.arange(T)
    for i in range(V - 1):
        x = positions[i + 1]
        if np.min(np.diff(x), initial=0.0) < -1e-9:
            raise AnalysisError(
                f"follower {i + 1} moves backwards; PET is undefined")
        xm = np.maximum.accumulate(x)
        target = positions[i] - lengths[i]
        k = np.searchsorted(xm, target, side="left")
        ok = k < T
        kk = np.where(ok, k, T - 1)
        lo = xm[kk - 1]
        hi = xm[kk]
        frac = np.divide(target - lo, hi - lo,
                         out=np.zeros(T), where=(hi > lo))
        tau = ((kk - 1) - t_idx + frac) * DT
        out[i] = np.where(ok, tau, np.nan)
    return out


def ssdd_series(speeds, gaps) -> np.ndarray:
    """Safe stopping distance difference per follower and frame.

    speeds: (V, T) leader first; gaps: (V-1, T). Positive values mean the
    follower could stop behind a hard-braking leader with margin. Speeds
    whose squares overflow (beyond ~1e154 m/s) raise ``AnalysisError``.
    """
    speeds = np.asarray(speeds, dtype=float)
    gaps = np.asarray(gaps, dtype=float)
    if speeds.ndim != 2 or speeds.shape[0] < 2:
        raise AnalysisError(f"need (V>=2, T) speeds, got {speeds.shape}")
    if gaps.shape != (speeds.shape[0] - 1, speeds.shape[1]):
        raise AnalysisError(f"gaps shape {gaps.shape} does not match speeds")
    v_lead = speeds[:-1]
    v = speeds[1:]
    # grouped so the braking terms cancel exactly at matched speeds; an
    # overflow is reported once, below
    with np.errstate(over="ignore", invalid="ignore"):
        ssdd = gaps - v * REACTION_TIME \
            + (v_lead ** 2 - v ** 2) / (2.0 * COMFORT_DECEL)
    if not np.isfinite(ssdd).all():
        raise AnalysisError(f"non-finite SSDD: speeds (up to "
                            f"{np.abs(speeds).max():.3g} m/s) or gaps out of "
                            f"range")
    return ssdd


# -- distribution comparison ------------------------------------------------------

def histogram_counts(samples, bin_edges) -> np.ndarray:
    """Integer counts of the finite samples on ``bin_edges``; out-of-range
    samples are clipped into the edge bins, NaN and infinities dropped."""
    samples = np.asarray(samples, dtype=float).ravel()
    edges = np.asarray(bin_edges, dtype=float)
    clipped = np.clip(samples[np.isfinite(samples)], edges[0], edges[-1])
    return np.histogram(clipped, bins=edges)[0]


def histogram_probabilities(samples, bin_edges) -> np.ndarray:
    """``histogram_counts`` smoothed by DIV_EPS and normalized to
    probabilities."""
    counts = histogram_counts(samples, bin_edges)
    if counts.sum() == 0:
        raise AnalysisError("no finite samples to histogram")
    smoothed = counts.astype(float) + DIV_EPS
    return smoothed / smoothed.sum()


def histogram_divergences(p_samples, q_samples, bin_edges) -> dict:
    """KL(p || q) in nats and the Hellinger distance of binned samples."""
    p = histogram_probabilities(p_samples, bin_edges)
    q = histogram_probabilities(q_samples, bin_edges)
    kl = float(np.sum(p * np.log(p / q)))
    bc = float(np.sum(np.sqrt(p * q)))
    return {"kl": kl, "hellinger": float(np.sqrt(max(0.0, 1.0 - bc)))}


# -- horizon evaluation tables -----------------------------------------------------

HORIZONS_S = (0.5, 1.0, 1.5, 2.0)


def persistence_prediction(history, horizon: int):
    """Hold the anchor speed and gap constant: the no-model baseline."""
    history = np.asarray(history, dtype=float)
    v = np.repeat(history[..., -1:, 0], horizon, axis=-1)
    s = np.repeat(history[..., -1:, 1], horizon, axis=-1)
    return v, s


def horizon_metrics(pred_v, true_v, pred_s, true_s,
                    horizons=HORIZONS_S) -> dict:
    """Per-lead-time and pooled error table.

    Inputs are (..., F) stacks of predicted and true speeds/gaps. Each named
    horizon h scores only the step at lead time h; "avg" pools every step.
    """
    pred_v, true_v = np.asarray(pred_v, float), np.asarray(true_v, float)
    pred_s, true_s = np.asarray(pred_s, float), np.asarray(true_s, float)
    F = pred_v.shape[-1]
    table = {}
    for h in horizons:
        idx = int(round(h / DT)) - 1
        if not 0 <= idx < F:
            raise AnalysisError(f"horizon {h} s is outside the {F}-step window")
        table[f"{h:g}s"] = {
            "rmse_speed": rmse(pred_v[..., idx], true_v[..., idx]),
            "rmse_gap": rmse(pred_s[..., idx], true_s[..., idx]),
            "mape_speed": mape(pred_v[..., idx], true_v[..., idx]),
            "mape_gap": mape(pred_s[..., idx], true_s[..., idx]),
        }
    table["avg"] = {
        "rmse_speed": rmse(pred_v, true_v),
        "rmse_gap": rmse(pred_s, true_s),
        "mape_speed": mape(pred_v, true_v),
        "mape_gap": mape(pred_s, true_s),
    }
    return table
