"""Neural pipeline mapping platoon histories to dynamics parameters.

Per window the model sees follower features (speed, gap, relative speed) over
a fixed history, plus the scripted leader speeds over the horizon, and emits
one sign-constrained parameter triple per follower per parameter block. The
stages are:

  embed        affine lift of normalized features to the model width
  tfl_forward  temporal state-space block (gated selective scan) per vehicle
  ful_forward  variational head on the last temporal state: mu, logvar, sample
  pfl_forward  platoon self-attention across vehicles, leader-to-tail masked
  narp_decode  cross-attention of horizon queries over the temporal memory

All learnable state lives in a flat name -> Tensor mapping, listed by
``weight_shapes``; ``model_forward`` is the one entry to the pipeline, also
for ``gradcheck_model``. Each stage, and each attention layer within PFL and
NARP, is one autodiff node whose forward pass runs the numpy operations of
the step-by-step composition it replaced, in their order (so its output has
the same bits), with a hand-written VJP. Inside TFL the selective scan and
the causal conv are numpy kernels that return their own VJPs; the scan runs
in cache-sized blocks of rows in numpy's summation order, so its output does
not depend on the batch. Initial draws are quantized to float32 so a float32
checkpoint reproduces the exact float64 forward pass.
"""

from __future__ import annotations

import logging
import math
import numbers
from collections import OrderedDict
from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np

from . import autodiff as ad
from . import dynamics as dyn

log = logging.getLogger(__name__)

NORM_STD_FLOOR = 1e-6
EMBED_MAGNITUDE_WARN = 100.0


def check_field_types(config) -> None:
    """Raise ValueError naming the first field of a config dataclass whose
    value has the wrong type: ``int`` fields take integers, ``float`` fields
    finite reals and ``bool`` fields bools; a bool is never a number here."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type == "bool":
            ok, kind = isinstance(value, bool), "a bool"
        elif f.type == "int":
            ok, kind = isinstance(value, numbers.Integral), "an integer"
        else:
            ok = isinstance(value, numbers.Real) and math.isfinite(value)
            kind = "a finite number"
        if not ok or (f.type != "bool" and isinstance(value, bool)):
            raise ValueError(f"{f.name} must be {kind}, got {value!r}")


@dataclass(frozen=True)
class ModelConfig:
    """Architecture and window geometry. Defaults match the reference setup."""

    d_model: int = 64
    n_state: int = 8           # state-space order per channel
    conv_kernel: int = 4
    ve_hidden: int = 0         # 0 -> d_model
    attn_layers: int = 2
    attn_heads: int = 4
    history_len: int = 21
    horizon: int = 20
    param_window: int = 5      # steps steered by one parameter triple
    disable_tfl: bool = False
    disable_pfl: bool = False

    def __post_init__(self):
        check_field_types(self)
        for name in ("d_model", "n_state", "conv_kernel", "attn_layers",
                     "attn_heads", "history_len", "horizon", "param_window"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.ve_hidden < 0:
            raise ValueError(
                f"ve_hidden must be >= 0 (0 means d_model), got {self.ve_hidden}")
        if self.horizon % self.param_window != 0:
            raise ValueError(
                f"horizon {self.horizon} is not a multiple of "
                f"param_window {self.param_window}")
        if self.d_model % self.attn_heads != 0:
            raise ValueError(
                f"d_model {self.d_model} not divisible by {self.attn_heads} heads")

    @property
    def n_param_steps(self) -> int:
        return self.horizon // self.param_window

    @property
    def d_inner(self) -> int:
        return 2 * self.d_model

    @property
    def dt_rank(self) -> int:
        return max(1, self.d_model // 16)

    @property
    def hidden(self) -> int:
        return self.ve_hidden if self.ve_hidden else self.d_model


@dataclass
class ModelParams:
    """Learnable weights plus the frozen feature normalization."""

    weights: "OrderedDict[str, ad.Tensor]"
    norm_mean: np.ndarray = field(default_factory=lambda: np.zeros(3))
    norm_std: np.ndarray = field(default_factory=lambda: np.ones(3))


def _q32(a: np.ndarray) -> np.ndarray:
    """Snap to float32-representable float64 values."""
    return np.asarray(a, dtype=np.float32).astype(np.float64)


def count_parameters(params: ModelParams) -> int:
    return sum(t.data.size for t in params.weights.values())


def weight_shapes(config: ModelConfig) -> "OrderedDict[str, tuple]":
    """Name -> shape of every learnable weight, in draw and checkpoint order."""
    d, di, n = config.d_model, config.d_inner, config.n_state
    r, K, h = config.dt_rank, config.conv_kernel, config.hidden
    shapes = OrderedDict([
        ("embed.w", (3, d)), ("embed.b", (d,)),
        ("tfl.norm.g", (d,)), ("tfl.in_proj.w", (d, 2 * di)),
        ("tfl.conv.w", (di, K)), ("tfl.conv.b", (di,)),
        ("tfl.x_proj.w", (di, r + 2 * n)),
        ("tfl.dt_proj.w", (r, di)), ("tfl.dt_proj.b", (di,)),
        ("tfl.a_log", (di, n)), ("tfl.d", (di,)), ("tfl.out_proj.w", (di, d)),
        ("ful.fc1.w", (d, h)), ("ful.fc1.b", (h,)),
        ("ful.fc2.w", (h, h)), ("ful.fc2.b", (h,)),
        ("ful.mu.w", (h, d)), ("ful.mu.b", (d,)),
        ("ful.logvar.w", (h, d)), ("ful.logvar.b", (d,)),
    ])
    for prefix in ("pfl", "dec"):
        for i in range(config.attn_layers):
            base = f"{prefix}.{i}"
            for name in ("q", "k", "v", "o"):
                shapes[f"{base}.attn.{name}.w"] = (d, d)
            shapes.update([
                (f"{base}.ln1.g", (d,)), (f"{base}.ln1.b", (d,)),
                (f"{base}.ff.w1", (d, 4 * d)), (f"{base}.ff.b1", (4 * d,)),
                (f"{base}.ff.w2", (4 * d, d)), (f"{base}.ff.b2", (d,)),
                (f"{base}.ln2.g", (d,)), (f"{base}.ln2.b", (d,))])
    shapes["dec.head.w"] = (d, 3)
    shapes["dec.head.b"] = (3,)
    return shapes


def _initial_value(name: str, shape: tuple, rng) -> np.ndarray:
    """One weight's initial value; drawn in ``weight_shapes`` order."""
    if name == "tfl.conv.w":
        return rng.uniform(-1.0, 1.0, size=shape) / math.sqrt(shape[1])
    if name == "tfl.dt_proj.w":
        return rng.uniform(-1.0, 1.0, size=shape) / math.sqrt(shape[0])
    if name == "tfl.dt_proj.b":
        # bias chosen so initial step sizes softplus(b) land log-uniformly in
        # [1e-3, 1e-1], keeping early state updates small but nonzero
        dt0 = np.exp(rng.uniform(math.log(1e-3), math.log(1e-1), size=shape))
        return np.log(np.expm1(dt0))
    if name == "tfl.a_log":
        return np.tile(np.log(np.arange(1.0, shape[1] + 1.0)), (shape[0], 1))
    if name.endswith(".g") or name == "tfl.d":
        return np.ones(shape)
    if len(shape) == 1:
        return np.zeros(shape)
    fan_in, fan_out = shape                  # Glorot-uniform matrix
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_params(config: ModelConfig, seed: int = 0) -> ModelParams:
    """Deterministic initialization; draw order is the ``weight_shapes`` order."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    tensors = OrderedDict(
        (name, ad.param(_q32(_initial_value(name, shape, rng))))
        for name, shape in weight_shapes(config).items())
    return ModelParams(weights=tensors)


def fit_normalization(windows) -> tuple:
    """Per-feature mean/std over all history entries of the given windows."""
    if not windows:
        raise ValueError("cannot fit normalization on an empty window list")
    flat = np.concatenate([w.history.reshape(-1, 3) for w in windows], axis=0)
    mean = _q32(flat.mean(axis=0))
    std = _q32(np.maximum(flat.std(axis=0), NORM_STD_FLOOR))
    return mean, std


@lru_cache(maxsize=64)
def sinusoidal_encoding(length: int, d_model: int) -> np.ndarray:
    """Standard interleaved sin/cos position table, cached, read-only."""
    pos = np.arange(length, dtype=float)[:, None]
    i = np.arange(d_model, dtype=float)[None, :]
    angle = pos / np.power(10000.0, 2.0 * np.floor(i / 2.0) / d_model)
    enc = np.where(i.astype(int) % 2 == 0, np.sin(angle), np.cos(angle))
    enc.flags.writeable = False
    return enc


# -- kernels ------------------------------------------------------------------

# State elements per row block of the selective scan: 48 rows of an (8, 128)
# state, ~400 KB per float64 buffer, so a block's buffers stay in L2.
_SCAN_BLOCK = 48 * 8 * 128
_PAIRWISE_BLOCK = 128        # numpy's PW_BLOCKSIZE


def _sigmoid(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _rows(a):
    """(..., n) -> (rows, n), so a weight gradient is one 2-D GEMM."""
    return a.reshape(-1, a.shape[-1])


def _linear_vjp(g, x, w, b=None):
    """Gradients of y = x @ w + b: accumulate w's (one 2-D GEMM) and b's,
    and return x's."""
    ad.accumulate(w, _rows(x).T @ _rows(g))
    if b is not None:
        ad.accumulate(b, _rows(g).sum(axis=0))
    return (_rows(g) @ w.data.T).reshape(x.shape)


def _sum_states(p):
    """Sum p (rows, S, C) over S in place; return the (rows, C) sum, a view.

    The terms are added in the order numpy's pairwise sum adds a contiguous
    last axis, so the result equals ``swapaxes(p, -1, -2).sum(-1)`` bit for
    bit apart from that sum's +0.0 start value: fewer than 8 terms one after
    another; up to 128 in 8 running sums combined as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the rest one after another;
    more by recursive halving at a multiple of 8.
    """
    n = p.shape[1]
    if n < 8:
        for i in range(1, n):
            p[:, 0] += p[:, i]
        return p[:, 0]
    if n > _PAIRWISE_BLOCK:
        half = n // 2
        half -= half % 8
        left = _sum_states(p[:, :half])
        return np.add(left, _sum_states(p[:, half:]), out=left)
    r = p[:, :8]
    tail = n - n % 8
    for i in range(8, tail, 8):
        r += p[:, i:i + 8]
    r[:, 0::2] += r[:, 1::2]                  # r0+r1, r2+r3, r4+r5, r6+r7
    r[:, 0::4] += r[:, 2::4]
    r[:, 0] += r[:, 4]
    for i in range(tail, n):
        r[:, 0] += p[:, i]
    return r[:, 0]


def selective_scan(u, delta, a_mat, b_seq, c_seq, d_gain, keep_states=False):
    """Input-dependent diagonal state-space recurrence on numpy arrays.

    u, delta: (..., T, C); a_mat: (C, S); b_seq, c_seq: (..., T, S);
    d_gain: (C,). Per step: h = exp(delta*A) h + delta*B_t u_t, and the output
    is y_t = sum_s C_t h + D u_t. Zero initial state. Returns (y, vjp): with
    ``keep_states`` the state history is kept and vjp(g) returns the
    gradients of the six inputs; otherwise vjp is None and only one row
    block's buffers are allocated besides y. sum_s C_t h adds its S products
    in numpy's pairwise order (``_sum_states``), so y is bit-identical to a
    per-step loop over the whole batch.
    """
    batch, (T, C), S = u.shape[:-2], u.shape[-2:], a_mat.shape[-1]
    # States are held as (rows, S, C) so every elementwise op runs along the
    # long channel axis. Rows are independent, so the recurrence runs over
    # one cache-sized block of rows at a time in reused buffers.
    R = math.prod(batch)
    rows = max(1, min(R, _SCAN_BLOCK // (S * C)))
    a_t = np.ascontiguousarray(a_mat.T)
    y = np.empty(u.shape)
    H = np.empty(batch + (T, S, C)) if keep_states else None
    U2, DT2, y2 = (a.reshape(R, T, C) for a in (u, delta, y))
    B2, C2 = b_seq.reshape(R, T, S), c_seq.reshape(R, T, S)
    H2 = H.reshape(R, T, S, C) if keep_states else None
    h = None if keep_states else np.empty((rows, S, C))
    # one scratch buffer holds the decay, then the injection, then the
    # products C_t h summed into y_t
    work = np.empty((rows, S, C))
    du = np.empty((rows, 1, C))
    with np.errstate(over="ignore", invalid="ignore"):
        for r0 in range(0, R, rows):
            blk = slice(r0, min(r0 + rows, R))
            n = blk.stop - r0
            Ub, DTb, Bb, Cb, yb = U2[blk], DT2[blk], B2[blk], C2[blk], y2[blk]
            w, du_b = work[:n], du[:n]
            # y_t = sum_s C_t h + D u_t. numpy's sum starts from +0.0, which
            # turns an all -0.0 sum into +0.0; added to D u instead, that
            # +0.0 gives the same bits
            np.multiply(d_gain, Ub, out=yb)
            yb += 0.0
            for t in range(T):
                dt_t = DTb[:, t, None, :]                    # (n, 1, C)
                np.multiply(dt_t, Ub[:, t, None, :], out=du_b)
                h_t = H2[blk, t] if keep_states else h[:n]
                if t == 0:
                    np.multiply(du_b, Bb[:, t, :, None], out=h_t)
                else:
                    np.multiply(dt_t, a_t, out=w)
                    np.exp(w, out=w)
                    np.multiply(w, h_prev, out=h_t)
                    np.multiply(du_b, Bb[:, t, :, None], out=w)
                    h_t += w
                np.multiply(h_t, Cb[:, t, :, None], out=w)
                np.add(_sum_states(w), yb[:, t], out=yb[:, t])
                h_prev = h_t
    if not keep_states:
        return y, None

    def vjp(g):
        # the reverse recurrence gh_t = g_t C_t + exp(delta_{t+1} A) gh_{t+1},
        # recomputing each decay one step at a time (the fused scan of Mamba,
        # arXiv 2312.00752)
        gU, gDT = np.empty(u.shape), np.empty(u.shape)
        gB, gC = np.empty(b_seq.shape), np.empty(b_seq.shape)
        gA = np.zeros(batch + (S, C))       # summed over rows at the end
        gh = np.empty(batch + (S, C))       # gradient of h_t
        q = np.empty_like(gh)
        for t in range(T - 1, -1, -1):
            g_t = g[..., t, :]
            dt_t = delta[..., t, :]
            u_t = u[..., t, :]
            if t == T - 1:
                np.multiply(g_t[..., None, :], c_seq[..., t, :, None], out=gh)
            else:
                gh *= decay                 # exp(delta_{t+1} A) from step t+1
                gh += g_t[..., None, :] * c_seq[..., t, :, None]
            gC[..., t, :] = (H[..., t, :, :] @ g_t[..., :, None])[..., 0]
            gB[..., t, :] = (gh @ (dt_t * u_t)[..., :, None])[..., 0]
            g_du = (b_seq[..., t, None, :] @ gh)[..., 0, :]
            gU[..., t, :] = g_du * dt_t + g_t * d_gain
            gDT[..., t, :] = g_du * u_t
            if t > 0:
                # decay_t = exp(delta_t A) multiplies h_{t-1}
                decay = np.exp(dt_t[..., None, :] * a_t)
                np.multiply(gh, H[..., t - 1, :, :], out=q)
                q *= decay                  # gradient of delta_t * A
                gDT[..., t, :] += (q * a_t).sum(axis=-2)
                q *= dt_t[..., None, :]
                gA += q
        gA = gA.reshape(-1, S, C).sum(axis=0).T
        return gU, gDT, gA, gB, gC, _rows(g * u).sum(axis=0)

    return y, vjp


def causal_conv1d(x, w, b):
    """Depthwise causal 1-D convolution over the time axis on numpy arrays.

    x: (..., T, C); w: (C, K); b: (C,). Output t depends on inputs t-K+1..t
    (left zero padding), independently per channel; the taps are summed in
    order, ((tap0 + tap1) + ...) + b. Returns (y, vjp), where vjp(g) returns
    the gradients of (x, w, b).
    """
    T, C = x.shape[-2:]
    K = w.shape[1]
    xp = np.zeros(x.shape[:-2] + (K - 1 + T, C))
    xp[..., K - 1:, :] = x
    y = xp[..., :T, :] * w[:, 0]
    for i in range(1, K):
        y += xp[..., i:i + T, :] * w[:, i]
    y += b

    def vjp(g):
        # tap i reads xp[i:i+T]: its input gradient is one shifted add
        gxp = np.zeros_like(xp)
        gw = np.empty_like(w)
        for i in range(K):
            gxp[..., i:i + T, :] += g * w[:, i]
            gw[:, i] = _rows(g * xp[..., i:i + T, :]).sum(axis=0)
        return gxp[..., K - 1:, :], gw, _rows(g).sum(axis=0)

    return y, vjp


# -- stages -------------------------------------------------------------------

def embed_inputs(w, x_norm: np.ndarray):
    """Affine lift of the normalized features; x_norm is a constant."""
    if np.abs(x_norm).max(initial=0.0) > EMBED_MAGNITUDE_WARN:
        log.warning("embed_inputs: normalized feature magnitude exceeds %.0f; "
                    "normalization stats may not match this data",
                    EMBED_MAGNITUDE_WARN)
    tw, tb = ad.as_tensor(w["embed.w"]), ad.as_tensor(w["embed.b"])
    return ad.primitive(x_norm @ tw.data + tb.data, "embed", (tw, tb),
                        lambda g: _linear_vjp(g, x_norm, tw, tb))


_TFL_WEIGHTS = ("norm.g", "in_proj.w", "conv.w", "conv.b", "x_proj.w",
                "dt_proj.w", "dt_proj.b", "a_log", "d", "out_proj.w")


def tfl_forward(w, config: ModelConfig, x):
    """Gated selective-scan block with residual, as one autodiff node.

    x: (..., T, d_model). RMS norm; input projection to the scan input and
    the gate; causal conv, SiLU; step sizes (softplus), B and C; the scan;
    SiLU gate; output projection; residual. Without a tape, the conv's
    buffers and the scan's inputs are released once the forward pass is done
    with them, since only the VJP would read them again.
    """
    di, r, n = config.d_inner, config.dt_rank, config.n_state
    x_t = ad.as_tensor(x)
    weights = tuple(ad.as_tensor(w[f"tfl.{name}"]) for name in _TFL_WEIGHTS)
    X = x_t.data
    gn, Win, cw, cb, Wx, Wdt, bdt, a_log, D, Wout = (t.data for t in weights)
    keep = ad.needs_grad(x_t, *weights)
    ms = (X * X).mean(axis=-1, keepdims=True) + 1e-5
    inv = ms ** -0.5
    proj = ((X * inv) * gn) @ Win
    gate = proj[..., di:]
    conv, conv_vjp = causal_conv1d(proj[..., :di], cw, cb)
    s1 = _sigmoid(conv)
    xs = conv * s1
    if not keep:
        del conv, conv_vjp, s1
    x_dbl = xs @ Wx
    delta = np.logaddexp(0.0, x_dbl[..., :r] @ Wdt + bdt)
    with np.errstate(over="ignore"):
        a_mat = -np.exp(a_log)
    y, scan_vjp = selective_scan(xs, delta, a_mat, x_dbl[..., r:r + n],
                                 x_dbl[..., r + n:], D, keep)
    if not keep:
        del xs, delta
    s2 = _sigmoid(gate)
    # a non-finite scan output is reported once, by the stage boundary
    with np.errstate(invalid="ignore", over="ignore"):
        sg = gate * s2
        yg = y * sg
        out = X + yg @ Wout

    def vjp(g):
        tgn, tin, tcw, tcb, twx, twdt, tbdt, talog, td, tout = weights
        gyg = _linear_vjp(g, yg, tout)
        gproj = np.empty(proj.shape)
        gproj[..., di:] = gyg * y * s2 * (1.0 + gate * (1.0 - s2))
        gU, gDT, gA, gB, gC, gD = scan_vjp(gyg * sg)
        ad.accumulate(td, gD)
        ad.accumulate(talog, gA * a_mat)        # d(-exp(a_log)) = a_mat
        gx_dbl = np.empty(x_dbl.shape)
        # softplus' = sigmoid = 1 - exp(-softplus)
        gx_dbl[..., :r] = _linear_vjp(gDT * -np.expm1(-delta), x_dbl[..., :r],
                                      twdt, tbdt)
        gx_dbl[..., r:r + n] = gB
        gx_dbl[..., r + n:] = gC
        gxs = _linear_vjp(gx_dbl, xs, twx)
        gxs += gU
        gxs, gcw, gcb = conv_vjp(gxs * s1 * (1.0 + conv * (1.0 - s1)))
        ad.accumulate(tcw, gcw)
        ad.accumulate(tcb, gcb)
        gproj[..., :di] = gxs
        xn = X * inv
        gu = _linear_vjp(gproj, xn * gn, tin)
        ad.accumulate(tgn, _rows(gu * xn).sum(axis=0))
        gxn = gu * gn
        # xn = X * inv with inv = ms**-0.5 and ms = mean(X*X) + eps
        gms = (gxn * X).sum(axis=-1, keepdims=True) * -0.5 * ms ** -1.5
        gsq = np.broadcast_to(gms, X.shape) / X.shape[-1] * X
        gx = g + gxn * inv
        gx += gsq
        gx += gsq
        ad.accumulate(x_t, gx)

    return ad.primitive(out, "tfl", (x_t,) + weights, vjp)


_FUL_WEIGHTS = ("fc1.w", "fc1.b", "fc2.w", "fc2.b", "mu.w", "mu.b",
                "logvar.w", "logvar.b")


def ful_forward(w, x_last, noise=None):
    """Variational head: two ReLU layers, mu, logvar and the latent sample
    z = mu + exp(logvar / 2) * noise (mu when noise is None). One autodiff
    node holds the stacked (z, mu, logvar), returned as its three slices."""
    x_t = ad.as_tensor(x_last)
    weights = tuple(ad.as_tensor(w[f"ful.{name}"]) for name in _FUL_WEIGHTS)
    W1, c1, W2, c2, Wmu, cmu, Wlv, clv = (t.data for t in weights)
    X = x_t.data
    h1 = np.maximum(X @ W1 + c1, 0.0)
    h2 = np.maximum(h1 @ W2 + c2, 0.0)
    mu = h2 @ Wmu + cmu
    logvar = h2 @ Wlv + clv
    z = mu
    if noise is not None:
        noise = np.asarray(noise, dtype=float)
        with np.errstate(over="ignore"):
            sigma = np.exp(logvar * 0.5)
        z = mu + sigma * noise

    def vjp(g):
        t1, tc1, t2, tc2, tmu, tcmu, tlv, tclv = weights
        gz, gmu, glv = g
        if noise is not None:
            glv = glv + gz * noise * sigma * 0.5
        gh = _linear_vjp(gmu + gz, h2, tmu, tcmu)
        gh += _linear_vjp(glv, h2, tlv, tclv)
        gh *= h2 > 0.0
        gh = _linear_vjp(gh, h1, t2, tc2)
        gh *= h1 > 0.0
        ad.accumulate(x_t, _linear_vjp(gh, X, t1, tc1))

    stacked = ad.primitive(np.stack([z, mu, logvar]), "ful", (x_t,) + weights, vjp)
    return stacked[0], stacked[1], stacked[2]


_ATTN_WEIGHTS = ("attn.q.w", "attn.k.w", "attn.v.w", "attn.o.w", "ln1.g", "ln1.b",
                 "ff.w1", "ff.b1", "ff.w2", "ff.b2", "ln2.g", "ln2.b")


def _layer_norm(x, gain, bias):
    """Last-axis layer norm; returns (output, normalized values, inverse stds)."""
    xc = x - x.mean(axis=-1, keepdims=True)
    inv = ((xc * xc).mean(axis=-1, keepdims=True) + 1e-5) ** -0.5
    normed = xc * inv
    return normed * gain + bias, normed, inv


def _layer_norm_vjp(g, normed, inv, gain, bias):
    """Input gradient of ``_layer_norm``; passes on the gain and bias gradients."""
    ad.accumulate(gain, _rows(g * normed).sum(axis=0))
    ad.accumulate(bias, _rows(g).sum(axis=0))
    gn = g * gain.data
    gx = gn - gn.mean(axis=-1, keepdims=True)
    gx -= normed * (gn * normed).mean(axis=-1, keepdims=True)
    gx *= inv
    return gx


def _attn_layer(w, base: str, q_in, memory, heads: int, mask=True):
    """Post-norm residual attention + feedforward, as one autodiff node.

    q_in: (..., Tq, d) queries; memory: (..., Tk, d) keys and values, the
    same tensor for self-attention. The layer is multi-head attention over
    the positions where ``mask`` (broadcast to (..., H, Tq, Tk)) is True,
    residual, layer norm, ReLU feedforward, residual, layer norm. The forward
    pass runs the numpy operations of that composition in its order, so the
    output is bit-identical to a graph of one node per operation.

    When the output is recorded, the node keeps the projections, the
    attention probabilities, the feedforward activations and each layer
    norm's normalized values and inverse stds. The VJP works from those: the
    softmax backward is dS = P (dP - rowsum(dP P)) per head, as in the
    FlashAttention derivation (arXiv 2205.14135) without its tiling; a query
    that sees one key passes exactly zero to the scores. Each weight gradient
    is one 2-D GEMM over all rows. Self-attention passes the query and
    key/value gradients to its one input as a single sum.
    """
    x_t = ad.as_tensor(q_in)
    self_attn = memory is q_in
    m_t = x_t if self_attn else ad.as_tensor(memory)
    weights = tuple(ad.as_tensor(w[f"{base}.{name}"]) for name in _ATTN_WEIGHTS)
    parents = ((x_t,) if self_attn else (x_t, m_t)) + weights
    X, M = x_t.data, m_t.data
    Wq, Wk, Wv, Wo, g1, b1, W1, c1, W2, c2, g2, b2 = (t.data for t in weights)
    d = Wq.shape[0]
    if X.shape[-1] != d or M.shape[-1] != d or X.shape[:-2] != M.shape[:-2]:
        raise ad.ShapeMismatch(
            f"attn_layer {base}: queries {X.shape} and memory {M.shape} "
            f"do not fit width {d}")
    dh = d // heads
    scale = 1.0 / math.sqrt(dh)

    def split(a):                       # (..., T, d) -> (..., H, T, dh)
        return np.swapaxes(a.reshape(a.shape[:-1] + (heads, dh)), -3, -2)

    def merge(a):                       # (..., H, T, dh) -> (..., T, d)
        a = np.swapaxes(a, -3, -2)
        return a.reshape(a.shape[:-2] + (d,))

    qh, kh, vh = split(X @ Wq), split(M @ Wk), split(M @ Wv)
    p = ad.softmax_weights((qh @ np.swapaxes(kh, -1, -2)) * scale, mask)
    o = merge(p @ vh)
    if not ad.needs_grad(*parents):
        # only the VJP reads these; without a tape they go before the
        # feedforward, as in a graph of one node per operation
        del qh, kh, vh, p
    r = o @ Wo
    r += X                              # mha + X has the bits of X + mha
    x1, n1, inv1 = _layer_norm(r, g1, b1)
    h = x1 @ W1
    h += c1
    np.maximum(h, 0.0, out=h)
    r = h @ W2
    r += c2
    r += x1
    y, n2, inv2 = _layer_norm(r, g2, b2)

    def vjp(g):
        tq, tk, tv, to, tg1, tb1, tw1, tc1, tw2, tc2, tg2, tb2 = weights
        # gr: gradient of the residual sum under each layer norm
        gr = _layer_norm_vjp(g, n2, inv2, tg2, tb2)
        gh = _linear_vjp(gr, h, tw2, tc2)
        gh *= h > 0.0
        gr += _linear_vjp(gh, x1, tw1, tc1)
        gr = _layer_norm_vjp(gr, n1, inv1, tg1, tb1)
        # per head: go = dO, gs = dP, then dS
        go = split(_linear_vjp(gr, o, to))
        gv = merge(np.swapaxes(p, -1, -2) @ go)
        gs = go @ np.swapaxes(vh, -1, -2)
        gs -= (gs * p).sum(axis=-1, keepdims=True)
        gs *= p
        gs *= scale
        gq = merge(gs @ kh)
        gk = merge(np.swapaxes(gs, -1, -2) @ qh)
        gr += _linear_vjp(gq, X, tq)
        gm = _linear_vjp(gk, M, tk)
        gm += _linear_vjp(gv, M, tv)
        if self_attn:
            gr += gm
        else:
            ad.accumulate(m_t, gm)
        ad.accumulate(x_t, gr)

    return ad.primitive(y, "attn_layer", parents, vjp)


def pfl_forward(w, config: ModelConfig, z):
    """Cross-vehicle attention; vehicle i sees vehicles 1..i (upstream only).
    Adding the position table to z is one node."""
    z = ad.as_tensor(z)
    n_veh = z.shape[-2]
    x = ad.primitive(z.data + sinusoidal_encoding(n_veh, config.d_model),
                     "pfl_position", (z,), lambda g: ad.accumulate(z, g))
    mask = np.tril(np.ones((n_veh, n_veh), dtype=bool))
    for i in range(config.attn_layers):
        x = _attn_layer(w, f"pfl.{i}", x, x, config.attn_heads, mask)
    return x


def narp_decode(w, config: ModelConfig, latent, memory):
    """All parameter blocks decoded at once from horizon-step queries: the
    latent plus a position per block (one node), the cross-attention layers
    over the temporal memory, then the linear head (one node)."""
    lat = ad.as_tensor(latent)
    q = ad.primitive(lat.data.reshape(lat.shape[:-1] + (1, lat.shape[-1]))
                     + sinusoidal_encoding(config.n_param_steps, config.d_model),
                     "narp_query", (lat,),
                     lambda g: ad.accumulate(lat, g.sum(axis=-2)))
    for i in range(config.attn_layers):
        q = _attn_layer(w, f"dec.{i}", q, memory, config.attn_heads)
    tw, tb = ad.as_tensor(w["dec.head.w"]), ad.as_tensor(w["dec.head.b"])
    return ad.primitive(q.data @ tw.data + tb.data, "narp_head", (q, tw, tb),
                        lambda g: ad.accumulate(q, _linear_vjp(g, q.data, tw, tb)))


@dataclass
class ModelOutput:
    result: dyn.RolloutResult
    theta: ad.Tensor
    mu: ad.Tensor
    logvar: ad.Tensor
    xstar: dyn.ExpectedState


def model_forward(params: ModelParams, config: ModelConfig,
                  history: np.ndarray, lead_future: np.ndarray,
                  noise=None) -> ModelOutput:
    """Full pipeline on a window batch.

    history: (B, N, P, 3) raw follower features; lead_future: (B, F) leader
    speeds. noise: optional (B, N, d_model) standard-normal draws; None keeps
    the latent at its mean (deterministic evaluation).
    """
    history = np.asarray(history, dtype=float)
    lead_future = np.asarray(lead_future, dtype=float)
    if history.ndim != 4 or history.shape[-1] != 3:
        raise ad.ShapeMismatch(
            f"model_forward: history must be (B, N, P, 3), got {history.shape}")
    if history.shape[2] != config.history_len:
        raise ad.ShapeMismatch(
            f"model_forward: history length {history.shape[2]} != "
            f"config history_len {config.history_len}")
    if lead_future.shape != (history.shape[0], config.horizon):
        raise ad.ShapeMismatch(
            f"model_forward: lead_future must be "
            f"({history.shape[0]}, {config.horizon}), got {lead_future.shape}")

    w = params.weights
    x_norm = (history - params.norm_mean) / params.norm_std
    e = embed_inputs(w, x_norm)
    memory = e if config.disable_tfl else tfl_forward(w, config, e)
    z, mu, logvar = ful_forward(w, memory[..., -1, :], noise)
    latent = z if config.disable_pfl else pfl_forward(w, config, z)
    theta = dyn.encode_parameters(narp_decode(w, config, latent, memory))
    xstar = dyn.expected_state(history)
    initial = history[..., -1, :]                     # raw units at the anchor
    result = dyn.rollout(initial, lead_future, theta, xstar)
    return ModelOutput(result=result, theta=theta, mu=mu, logvar=logvar,
                       xstar=xstar)


# -- gradient verification ------------------------------------------------------

def desk_config() -> ModelConfig:
    """Smallest configuration that exercises every code path."""
    return ModelConfig(d_model=8, n_state=2, conv_kernel=4, ve_hidden=8,
                       attn_layers=1, attn_heads=2, history_len=6, horizon=4,
                       param_window=2)


def gradcheck_model(config: ModelConfig = None, seed: int = 0,
                    step: float = 1e-6) -> tuple:
    """Compare analytic gradients of the full training loss against central
    finite differences for every weight element. Returns (max_rel_err, count).
    """
    from . import training      # training imports this module
    cfg = config or desk_config()
    params = init_params(cfg, seed=seed)
    rng = np.random.default_rng(seed + 1)
    hist = np.empty((1, 2, cfg.history_len, 3))
    hist[..., 0] = rng.uniform(8.0, 15.0, hist.shape[:-1])
    hist[..., 1] = rng.uniform(10.0, 30.0, hist.shape[:-1])
    hist[..., 2] = rng.uniform(-1.0, 1.0, hist.shape[:-1])
    lead = rng.uniform(8.0, 15.0, (1, cfg.horizon))
    tv = rng.uniform(8.0, 15.0, (1, 2, cfg.horizon))
    ts = rng.uniform(10.0, 30.0, (1, 2, cfg.horizon))
    targets = np.stack([tv, ts], axis=-1)
    mean, std = hist.reshape(-1, 3).mean(axis=0), hist.reshape(-1, 3).std(axis=0)
    mean, std = _q32(mean), _q32(np.maximum(std, NORM_STD_FLOOR))
    names = list(params.weights)
    arrays = [params.weights[k].data for k in names]

    def graph(*tensors):
        model = ModelParams(dict(zip(names, tensors)), mean, std)
        out = model_forward(model, cfg, hist, lead)
        l_v, l_s = training.prediction_losses(out.result, targets)
        kl = training.kl_loss(out.mu, out.logvar)
        return training.total_loss(l_v, l_s, kl, (1.0, 1.0),
                                   training.TrainConfig.alpha_kl)

    err = ad.finite_diff_check(graph, arrays, step=step)
    return err, sum(a.size for a in arrays)
