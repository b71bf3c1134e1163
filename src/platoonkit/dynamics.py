"""Sign-constrained linear car-following dynamics, rollout and Euler kernel.

Each follower's acceleration is a linear response around an expected state:

    a = f_v * (v - v*) + f_s * (s - s*) + f_dv * (dv - 0)

with the sign pattern f_v < 0, f_s > 0, f_dv > 0 enforced by construction
(softplus magnitudes times fixed signs), which guarantees local stability of
the single-vehicle closed loop. ``linear_accel``, the law's one
implementation, serves the rollout and ``simulate``'s controllers. The
rollout steps all followers jointly by explicit Euler at ``DT``, the one
sampling step (``data`` re-exports it); s(k+1) = s(k) + dt * dv(k) keeps
gaps, speeds, and positions consistent to machine precision. Only the
rollout takes another step, so that finer steps can check its spectrum
against the analytic one.

``encode_parameters`` and ``rollout`` are the differentiable path, one
autodiff node each. The rollout's inputs may be Tensors or plain arrays
(constants), and its hand-written backward pass is the adjoint of the Euler
recursion. ``expected_state`` reads the recorded history, so its means are
plain arrays and record nothing. ``euler_platoon`` is the numpy integrator
behind synthetic data, IDM calibration and closed-loop simulation: the same
step at ``DT`` under any acceleration law, with speeds clamped at zero and
collisions detected per batch row, so a NaN in one row leaves the others as
they would run alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad

DT = 0.1                   # s, the sampling and integration step
SIGN_PATTERN = np.array([-1.0, 1.0, 1.0])


def encode_parameters(raw):
    """Map raw decoder outputs (..., 3) to sign-constrained parameters.

    theta = [-softplus(r0), softplus(r1), softplus(r2)], as one autodiff
    node, computed in float64 whatever the input's dtype (a float32 softplus
    underflows to 0 below about -104); strictly signed for any finite input
    with |raw| < ~745.
    """
    t = ad.as_tensor(raw)
    if t.shape[-1] != 3:
        raise ad.ShapeMismatch(f"encode_parameters: last axis must be 3, got {t.shape}")
    soft = ad.softplus(t.data.astype(np.float64))

    def vjp(g):
        # softplus' = sigmoid = 1 - exp(-softplus), which cannot overflow
        ad.accumulate(t, g * SIGN_PATTERN * -np.expm1(-soft))

    return ad.primitive(soft * SIGN_PATTERN, "encode", (t,), vjp)


def linear_accel(theta, v, s, dv, v_star, s_star):
    """The linear law on numpy arrays; theta (..., 3) holds [f_v, f_s, f_dv]
    for states that broadcast against theta[..., 0]."""
    return (theta[..., 0] * (v - v_star) + theta[..., 1] * (s - s_star)) \
        + theta[..., 2] * dv


@dataclass(frozen=True)
class ExpectedState:
    """Anchor state: per-follower means over the history window; dv* is 0."""

    v_star: np.ndarray   # (..., N)
    s_star: np.ndarray


def expected_state(history) -> ExpectedState:
    """Means of speed and gap over the history window (raw physical units),
    as numpy arrays: the history is data, so they are constants."""
    h = np.asarray(history, dtype=float)
    if h.ndim < 3 or h.shape[-1] != 3:
        raise ad.ShapeMismatch(f"expected_state: need (..., N, P, 3), got {h.shape}")
    return ExpectedState(h[..., 0].mean(axis=-1), h[..., 1].mean(axis=-1))


@dataclass(frozen=True)
class RolloutResult:
    """Predicted speeds and gaps, one entry per future step: v[..., k] and
    s[..., k] are the states at t+k+1, as (..., N, F) Tensors."""

    v: object
    s: object


def rollout(initial, lead_future, theta, xstar: ExpectedState,
            dt: float = DT) -> RolloutResult:
    """Integrate the platoon forward through the full horizon, as one node.

    initial: (..., N, 3) follower states [v, s, dv] at anchor time t.
    lead_future: (..., F) leader speeds at t+1..t+F.
    theta: (..., N, S, 3) parameter blocks; each block steers F/S consecutive
    steps (S must divide F).
    Follower 1 couples to the scripted leader; follower n couples to the
    just-updated speed of follower n-1.

    Every input may be an autodiff Tensor or a plain array (a constant). The
    speeds and gaps are computed in numpy and recorded as one (2, ..., N, F)
    node. The relative speeds dv stay in a buffer that only the backward
    pass reads; it runs the adjoint of the Euler recursion, carrying the
    adjoints of the state (v, s, dv) from the last step to the first.
    """
    parents = tuple(ad.as_tensor(a) for a in (initial, lead_future, theta,
                                              xstar.v_star, xstar.s_star))
    init, lead, th, v_star, s_star = parents
    if init.shape[-1] != 3:
        raise ad.ShapeMismatch(f"rollout: initial must be (..., N, 3), got {init.shape}")
    if th.shape[-1] != 3 or th.data.ndim < 3:
        raise ad.ShapeMismatch(f"rollout: theta must be (..., N, S, 3), got {th.shape}")
    F = lead.shape[-1]
    S = th.shape[-2]
    if F % S != 0:
        raise ValueError(f"horizon {F} is not a multiple of the {S} parameter steps")
    m = F // S
    n_veh = init.shape[-2]
    if th.shape[-3] != n_veh:
        raise ad.ShapeMismatch(
            f"rollout: theta covers {th.shape[-3]} vehicles, state has {n_veh}")
    x0, lead_v, f, vs, ss = (t.data for t in parents)
    state = np.broadcast_shapes(x0.shape[:-1], lead_v.shape[:-1] + (1,),
                                f.shape[:-2], vs.shape, ss.shape)   # (..., N)

    out = np.empty((2,) + state + (F,))
    v_out, s_out = out
    dv_out = np.empty(state + (F,))
    v, s, dv = x0[..., 0], x0[..., 1], x0[..., 2]
    for k in range(F):
        a = linear_accel(f[..., k // m, :], v, s, dv, vs, ss)
        v, s, dv = v + a * dt, s + dv * dt, dv_out[..., k]
        dv[..., 0] = lead_v[..., k] - v[..., 0]
        dv[..., 1:] = v[..., :-1] - v[..., 1:]
        v_out[..., k], s_out[..., k] = v, s

    def vjp(g):
        g_v, g_s = g
        g_lead = np.empty(state[:-1] + (F,))
        g_f = np.zeros(state + (S, 3))
        g_vs, g_ss = np.zeros(state), np.zeros(state)
        # adjoints of the state (v, s, dv) entering step k, from steps > k
        lam_v, lam_s, lam_dv = np.zeros(state), np.zeros(state), np.zeros(state)
        for k in range(F - 1, -1, -1):
            j = k // m
            g_lead[..., k] = lam_dv[..., 0]
            gv = lam_v + g_v[..., k] - lam_dv   # dv_next = ahead - v_next
            gv[..., :-1] += lam_dv[..., 1:]     # v_next[n] is ahead of n+1
            gs = lam_s + g_s[..., k]
            ga = gv * dt
            if k == 0:
                v, s, dv = x0[..., 0], x0[..., 1], x0[..., 2]
            else:
                v, s, dv = v_out[..., k - 1], s_out[..., k - 1], dv_out[..., k - 1]
            g_f[..., j, 0] += ga * (v - vs)
            g_f[..., j, 1] += ga * (s - ss)
            g_f[..., j, 2] += ga * dv
            g_vs -= ga * f[..., j, 0]
            g_ss -= ga * f[..., j, 1]
            lam_v = gv + ga * f[..., j, 0]
            lam_s = gs + ga * f[..., j, 1]
            lam_dv = gs * dt + ga * f[..., j, 2]
        ad.accumulate(init, np.stack([lam_v, lam_s, lam_dv], axis=-1))
        ad.accumulate(lead, g_lead)
        ad.accumulate(th, g_f)
        ad.accumulate(v_star, g_vs)
        ad.accumulate(s_star, g_ss)

    series = ad.primitive(out, "rollout", parents, vjp)
    return RolloutResult(v=series[0], s=series[1])


def euler_platoon(speeds: np.ndarray, gaps: np.ndarray, lead_speeds, accel):
    """Integrate follower speeds and gaps in place with explicit Euler at
    ``DT``, one step per frame.

    speeds, gaps: (..., N, T) buffers holding the initial state at frame 0;
    frames 1.. are overwritten. Leading axes are independent rows, each
    behind its own leader: follower 0 of a row sees ``lead_speeds[..., k]``
    at step k, and a (T,) series is shared by every row.
    Step k applies a = accel(k, v, s, dv), with dv = v_ahead - v and frames
    0..k already filled: v' = max(0, v + DT*a), s' = s + DT*dv.

    ``v``, ``s`` and ``dv`` are the integrator's own contiguous (..., N)
    buffers, overwritten by the next step: ``accel`` must neither keep nor
    write them. Its return value is consumed before the next call, so the
    callback may hand back the same output buffer every step.

    Returns (clamp_count, collision_frame), both per row: the number of
    speeds clamped at zero by the steps before the row's collision frame,
    and the first frame with a non-positive gap (T if none). Frames from a
    row's collision on are meaningless; stepping stops once every row has
    collided.
    """
    T = speeds.shape[-1]
    collision = np.full(speeds.shape[:-2], T)
    clamps = np.zeros(speeds.shape[:-2], dtype=int)
    v, s = speeds[..., 0].copy(), gaps[..., 0].copy()
    dv, step = np.empty_like(v), np.empty_like(v)
    # views made once: the buffers are only ever written in place
    first, ahead, behind = v[..., 0], v[..., :-1], v[..., 1:]
    dv_first, dv_behind = dv[..., 0], dv[..., 1:]
    for k in range(T):
        # fmin skips NaN, where min returns it: a NaN row hides no other row
        if np.fmin.reduce(s, axis=None) <= 0.0:
            collision = np.where((s <= 0.0).any(axis=-1) & (collision == T),
                                 k, collision)
            if (collision < T).all():
                break
        if k == T - 1:
            break
        np.subtract(lead_speeds[..., k], first, out=dv_first)
        np.subtract(ahead, behind, out=dv_behind)
        np.multiply(DT, accel(k, v, s, dv), out=step)
        np.add(v, step, out=v)
        if np.fmin.reduce(v, axis=None) < 0.0:
            neg = v < 0.0
            clamps += np.where(collision == T, neg.sum(axis=-1), 0)
            v[neg] = 0.0
        np.multiply(DT, dv, out=step)
        np.add(s, step, out=s)
        speeds[..., k + 1] = v
        gaps[..., k + 1] = s
    return clamps, collision


def cascade_positions(lead_positions, lengths, gaps) -> np.ndarray:
    """Positions (..., N+1, T), leader first: the leader's (..., T), then
    x_n = x_{n-1} - length_{n-1} - s_n cascaded rearward from (..., N, T)
    gaps; lengths (..., N+1) start with the leader. Leading axes are
    independent platoons."""
    *rows, n, T = np.shape(gaps)
    positions = np.empty((*rows, n + 1, T))
    positions[..., 0, :] = lead_positions
    for i in range(n):
        positions[..., i + 1, :] = (positions[..., i, :] - lengths[..., i, None]
                                    - gaps[..., i, :])
    return positions
