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
forward and backward in cache-sized blocks of rows, in numpy's summation
order, so its output does not depend on the batch. Without a tape
``model_forward`` runs the stages on one block of platoons at a time, each
one such row block, so the network's scratch memory is one platoon block
whatever the batch. The network computes in the dtype of its weights, and
every buffer, forward and VJP, takes its input's dtype. ``init_params``
returns float32 leaves and a checkpoint loads as float32 constants, so
training, validation and inference all run each stage in float32, and a
checkpoint holds the trained weights exactly; ``gradcheck_model`` audits the
gradients on float64 copies. The history is normalized, theta encoded and
rolled out, and the KL taken, in float64 whatever the weights' dtype.
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
# size bounds of a ModelConfig: learnable weights (the default has 245,635),
# and frames in one window, history and horizon together
MAX_WEIGHTS = 50_000_000
MAX_WINDOW = 10_000


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
        window = self.history_len + self.horizon
        if window > MAX_WINDOW:
            raise ValueError(f"history_len + horizon must be <= {MAX_WINDOW}, "
                             f"got {window}")
        # the attention stacks are counted first, so that a huge attn_layers
        # is refused before weight_shapes lists its layers one by one
        layer = sum(math.prod(s) for _, s in _attn_layer_shapes("", self.d_model))
        count = 2 * self.attn_layers * layer
        if count <= MAX_WEIGHTS:
            count = sum(math.prod(s) for s in weight_shapes(self).values())
        if count > MAX_WEIGHTS:
            raise ValueError(
                f"d_model, n_state, conv_kernel, ve_hidden and attn_layers give "
                f"more than {MAX_WEIGHTS:g} weights (at least {count:.3g})")

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
            shapes.update(_attn_layer_shapes(f"{prefix}.{i}", d))
    shapes["dec.head.w"] = (d, 3)
    shapes["dec.head.b"] = (3,)
    return shapes


def _attn_layer_shapes(base: str, d: int) -> list:
    """(name, shape) of one attention layer's weights, PFL's or NARP's."""
    return [*((f"{base}.attn.{name}.w", (d, d)) for name in ("q", "k", "v", "o")),
            (f"{base}.ln1.g", (d,)), (f"{base}.ln1.b", (d,)),
            (f"{base}.ff.w1", (d, 4 * d)), (f"{base}.ff.b1", (4 * d,)),
            (f"{base}.ff.w2", (4 * d, d)), (f"{base}.ff.b2", (d,)),
            (f"{base}.ln2.g", (d,)), (f"{base}.ln2.b", (d,))]


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
    """Deterministic initialization; draw order is the ``weight_shapes`` order.
    Each draw is rounded to float32, the dtype of the leaves and of a
    checkpoint, so training runs the network in float32."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    tensors = OrderedDict(
        (name, ad.param(_initial_value(name, shape, rng).astype(np.float32)))
        for name, shape in weight_shapes(config).items())
    return ModelParams(weights=tensors)


def fit_normalization(windows) -> tuple:
    """Per-feature mean/std over all history entries of a list of
    ``data.extract_windows`` triples."""
    if not any(len(history) for history, _, _ in windows):
        raise ValueError("cannot fit normalization on an empty window list")
    flat = np.concatenate([history.reshape(-1, 3) for history, _, _ in windows])
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

# State elements per row block of the selective scan, of the whole TFL block
# without a tape, and of the platoon blocks that model_forward runs the
# network on without a tape: 48 rows of an (8, 128) state, ~400 KB per
# float64 buffer, so a block's scan buffers stay in L2 and the other arrays
# (48 rows of (T, 2 d_inner) at most) take ~2 MB each, whatever the batch.
_SCAN_BLOCK = 48 * 8 * 128


def _block_rows(per_row: int) -> int:
    """Rows of ``per_row`` state elements in one block (at least one)."""
    return max(1, _SCAN_BLOCK // per_row)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)), in one new buffer."""
    s = np.negative(x)
    with np.errstate(over="ignore"):
        np.exp(s, out=s)
    s += 1.0
    return np.divide(1.0, s, out=s)


def _silu_slope(x, s):
    """1 + x (1 - s) for s = sigmoid(x): d(x s)/dx is s times this."""
    slope = np.subtract(1.0, s)
    slope *= x
    slope += 1.0
    return slope


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


def selective_scan(u, delta, a_mat, b_seq, c_seq, d_gain, keep_states=False):
    """Input-dependent diagonal state-space recurrence on numpy arrays.

    u, delta: (..., T, C); a_mat: (C, S); b_seq, c_seq: (..., T, S);
    d_gain: (C,). Per step: h = exp(delta*A) h + delta*B_t u_t, and the output
    is y_t = sum_s C_t h + D u_t. Zero initial state. Returns (y, vjp): with
    ``keep_states`` the state history is kept and vjp(g) returns the
    gradients of the six inputs; otherwise vjp is None and only one row
    block's buffers are allocated besides y. The two per-step outer products,
    the injection B_t (delta u_t) and the decay exponent delta_t A, are
    einsums with no summed index (one rounding per element, and +0.0 for a
    -0.0 product, as a K=1 matmul gives). The readout sum_s C_t h is a stacked
    (1, S) @ (S, C) matmul, one matrix per row, so each row's bits do not
    depend on the batch it runs in.

    The history is time-major, (T, rows, S, C), so one step of one row block
    is a contiguous slab. The VJP runs the reverse recurrence over the same
    row blocks in three reused (rows, S, C) buffers: the state gradient, the
    decay (then the decay times the state gradient) and the gradient of
    delta*A. The per-step matvecs write into the gradients with ``out=``,
    the sums over s and over rows are single-pass einsums, and the
    elementwise terms of the u and delta gradients run once over all steps.
    The input gradients equal a per-step loop over the whole batch bit for
    bit, except a_mat's, which sums over rows within each step rather than
    over steps within each row.
    """
    batch, (T, C), S = u.shape[:-2], u.shape[-2:], a_mat.shape[-1]
    # States are held as (rows, S, C) so every elementwise op runs along the
    # long channel axis. Rows are independent, so the recurrence runs over
    # one cache-sized block of rows at a time in reused buffers.
    R = math.prod(batch)
    rows = min(max(1, R), _block_rows(S * C))
    blocks = [slice(r0, min(r0 + rows, R)) for r0 in range(0, R, rows)]
    a_t = np.ascontiguousarray(a_mat.T)
    y = np.empty(u.shape, u.dtype)
    H = np.empty((T, R, S, C), u.dtype) if keep_states else None
    U2, DT2, y2 = (a.reshape(R, T, C) for a in (u, delta, y))
    B2, C2 = b_seq.reshape(R, T, S), c_seq.reshape(R, T, S)
    h = None if keep_states else np.empty((rows, S, C), u.dtype)
    work = np.empty((rows, S, C), u.dtype)  # the decay, then the injection
    du, ch = np.empty((rows, C), u.dtype), np.empty((rows, 1, C), u.dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        for blk in blocks:
            n = blk.stop - blk.start
            Ub, DTb, Bb, Cb, yb = U2[blk], DT2[blk], B2[blk], C2[blk], y2[blk]
            w, du_b, ch_b = work[:n], du[:n], ch[:n]
            np.multiply(d_gain, Ub, out=yb)
            for t in range(T):
                dt_t = DTb[:, t]                             # (n, C)
                np.multiply(dt_t, Ub[:, t], out=du_b)
                h_t = H[t, blk] if keep_states else h[:n]
                if t == 0:
                    np.einsum("rs,rc->rsc", Bb[:, t], du_b, out=h_t)
                else:
                    np.einsum("rc,sc->rsc", dt_t, a_t, out=w)
                    np.exp(w, out=w)
                    np.multiply(w, h_prev, out=h_t)
                    np.einsum("rs,rc->rsc", Bb[:, t], du_b, out=w)
                    h_t += w
                # y_t = sum_s C_t h + D u_t
                np.matmul(Cb[:, t, None, :], h_t, out=ch_b)
                yb[:, t] += ch_b[:, 0]
                h_prev = h_t
    if not keep_states:
        return y, None

    def vjp(g):
        # the reverse recurrence gh_t = g_t C_t + exp(delta_{t+1} A) gh_{t+1},
        # recomputing each decay one step at a time (the fused scan of Mamba,
        # arXiv 2312.00752)
        gU, gDT = np.empty(u.shape, u.dtype), np.empty(u.shape, u.dtype)
        gB, gC = np.empty(b_seq.shape, u.dtype), np.empty(b_seq.shape, u.dtype)
        gA = np.zeros((S, C), u.dtype)
        G2, gU2, gDT2 = (a.reshape(R, T, C) for a in (g, gU, gDT))
        gB2, gC2 = gB.reshape(R, T, S), gC.reshape(R, T, S)
        gh_buf, dgh_buf, q_buf = (np.empty((rows, S, C), u.dtype) for _ in range(3))
        du_buf = np.empty((rows, C, 1), u.dtype)
        for blk in blocks:
            n = blk.stop - blk.start
            Ub, DTb, Bb, Cb, Gb = U2[blk], DT2[blk], B2[blk], C2[blk], G2[blk]
            gh, dgh, q, du_b = gh_buf[:n], dgh_buf[:n], q_buf[:n], du_buf[:n]
            for t in range(T - 1, -1, -1):
                g_t, dt_t = Gb[:, t], DTb[:, t]
                np.multiply(g_t[:, None, :], Cb[:, t, :, None], out=gh)
                if t < T - 1:
                    gh += dgh           # exp(delta_{t+1} A) gh_{t+1}
                np.matmul(H[t, blk], g_t[:, :, None], out=gC2[blk, t, :, None])
                np.multiply(dt_t, Ub[:, t], out=du_b[:, :, 0])
                np.matmul(gh, du_b, out=gB2[blk, t, :, None])
                # g_du = sum_s B_t gh, kept in gU until the end
                np.matmul(Bb[:, t, None, :], gh, out=gU2[blk, t, None, :])
                if t == 0:
                    break
                # decay_t = exp(delta_t A) multiplies h_{t-1}
                np.einsum("rc,sc->rsc", dt_t, a_t, out=dgh)
                np.exp(dgh, out=dgh)
                np.multiply(gh, H[t - 1, blk], out=q)
                q *= dgh                # gradient of delta_t A
                dgh *= gh
                # its sum over s, kept in gDT until the end
                np.einsum("rsc,sc->rc", q, a_t, out=gDT2[blk, t])
                gA += np.einsum("rsc,rc->sc", q, dt_t)
        gDT[..., 1:, :] += gU[..., 1:, :] * u[..., 1:, :]
        np.multiply(gU[..., 0, :], u[..., 0, :], out=gDT[..., 0, :])
        gU *= delta
        gU += g * d_gain
        return gU, gDT, gA.T, gB, gC, _rows(g * u).sum(axis=0)

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
    xp = np.zeros(x.shape[:-2] + (K - 1 + T, C), x.dtype)
    xp[..., K - 1:, :] = x
    y = xp[..., :T, :] * w[:, 0]
    tap = np.empty_like(y)
    for i in range(1, K):
        y += np.multiply(xp[..., i:i + T, :], w[:, i], out=tap)
    y += b

    def vjp(g):
        # tap i reads x shifted by K-1-i steps: its input gradient is one
        # shifted add, in tap order, and its weight gradient one reduction
        gx = np.zeros_like(x)
        gw = np.empty_like(w)
        g3, xp3 = g.reshape(-1, T, C), xp.reshape(-1, K - 1 + T, C)
        for i in range(K):
            lag = K - 1 - i
            if lag < T:
                gx[..., :T - lag, :] += g[..., lag:, :] * w[:, i]
            gw[:, i] = np.einsum("rtc,rtc->c", g3, xp3[:, i:i + T])
        return gx, gw, _rows(g).sum(axis=0)

    return y, vjp


# -- stages -------------------------------------------------------------------

def embed_inputs(w, x_norm: np.ndarray):
    """Affine lift of the normalized features; x_norm is a constant."""
    tw, tb = ad.as_tensor(w["embed.w"]), ad.as_tensor(w["embed.b"])
    # out-of-range features are reported once, by the stage boundary
    with np.errstate(over="ignore", invalid="ignore"):
        e = x_norm @ tw.data + tb.data
    return ad.primitive(e, "embed", (tw, tb),
                        lambda g: _linear_vjp(g, x_norm, tw, tb))


_TFL_WEIGHTS = ("norm.g", "in_proj.w", "conv.w", "conv.b", "x_proj.w",
                "dt_proj.w", "dt_proj.b", "a_log", "d", "out_proj.w")


def tfl_forward(w, config: ModelConfig, x):
    """Gated selective-scan block with residual, as one autodiff node.

    x: (..., T, d_model). RMS norm; input projection to the scan input and
    the gate; causal conv, SiLU; step sizes (softplus), B and C; the scan;
    SiLU gate; output projection; residual. With a tape, ``_tfl_rows`` runs
    once over all rows and keeps what the VJP reads. Without a tape, the
    whole block runs per row block of ``_SCAN_BLOCK`` state elements into
    one output, so its scratch does not grow with the batch. A row is one
    vehicle's (T, d_model) window, and every step works row by row (the
    projections are one GEMM per row), so the output has the bits of a
    single pass.
    """
    x_t = ad.as_tensor(x)
    weights = tuple(ad.as_tensor(w[f"tfl.{name}"]) for name in _TFL_WEIGHTS)
    X = x_t.data
    if ad.needs_grad(x_t, *weights):
        out, rows_vjp = _tfl_rows(config, X, weights, keep=True)
        return ad.primitive(out, "tfl", (x_t,) + weights,
                            lambda g: ad.accumulate(x_t, rows_vjp(g)))
    out = np.empty(X.shape, X.dtype)
    X3, out3 = X.reshape((-1,) + X.shape[-2:]), out.reshape((-1,) + X.shape[-2:])
    rows = _block_rows(config.n_state * config.d_inner)
    for r0 in range(0, len(X3), rows):
        out3[r0:r0 + rows] = _tfl_rows(config, X3[r0:r0 + rows], weights)[0]
    return ad.primitive(out, "tfl", (x_t,) + weights, None)


def _tfl_rows(config: ModelConfig, X, weights, keep=False):
    """The TFL block's numpy body on X: (..., T, d_model). Returns (out, vjp):
    with ``keep``, vjp(g) accumulates the weight gradients and returns X's;
    otherwise vjp is None, and the conv's buffers and the scan's inputs are
    released once the forward pass is done with them."""
    di, r, n = config.d_inner, config.dt_rank, config.n_state
    gn, Win, cw, cb, Wx, Wdt, bdt, a_log, D, Wout = (t.data for t in weights)
    with np.errstate(over="ignore"):    # an inf mean square scales X by 0
        ms = (X * X).mean(axis=-1, keepdims=True) + 1e-5
    inv = ms ** -0.5
    proj = ((X * inv) * gn) @ Win
    gate = proj[..., di:]
    conv, conv_vjp = causal_conv1d(proj[..., :di], cw, cb)
    s1 = _sigmoid(conv)
    xs = conv * s1
    if not keep:
        del conv, conv_vjp, s1
    # out-of-range weights overflow here first in float32; the stage
    # boundary reports the non-finite output once
    with np.errstate(over="ignore", invalid="ignore"):
        x_dbl = xs @ Wx
        delta = x_dbl[..., :r] @ Wdt
        delta += bdt
    ad.softplus(delta)
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
    if not keep:
        return out, None

    def vjp(g):
        tgn, tin, tcw, tcb, twx, twdt, tbdt, talog, td, tout = weights
        gyg = _linear_vjp(g, yg, tout)
        gproj = np.empty(proj.shape, proj.dtype)
        gsg = gyg * y
        gsg *= s2
        np.multiply(gsg, _silu_slope(gate, s2), out=gproj[..., di:])
        gU, gDT, gA, gB, gC, gD = scan_vjp(gyg * sg)
        ad.accumulate(td, gD)
        ad.accumulate(talog, gA * a_mat)        # d(-exp(a_log)) = a_mat
        gx_dbl = np.empty(x_dbl.shape, x_dbl.dtype)
        # softplus' = sigmoid = 1 - exp(-softplus)
        gDT *= -np.expm1(-delta)
        gx_dbl[..., :r] = _linear_vjp(gDT, x_dbl[..., :r], twdt, tbdt)
        gx_dbl[..., r:r + n] = gB
        gx_dbl[..., r + n:] = gC
        gxs = _linear_vjp(gx_dbl, xs, twx)
        gxs += gU
        gxs *= s1
        gxs *= _silu_slope(conv, s1)
        gxs, gcw, gcb = conv_vjp(gxs)
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
        return gx

    return out, vjp


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
        noise = np.asarray(noise, dtype=X.dtype)
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

    q_in: (..., Tq, d) queries; memory: (..., Tk, d) keys and values; for
    self-attention, memory is q_in. The layer is multi-head attention over
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
    is one 2-D GEMM over all rows.
    """
    x_t, m_t = ad.as_tensor(q_in), ad.as_tensor(memory)
    weights = tuple(ad.as_tensor(w[f"{base}.{name}"]) for name in _ATTN_WEIGHTS)
    parents = (x_t, m_t) + weights
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
    # overflowing scores are reported once, by the stage boundary
    with np.errstate(over="ignore", invalid="ignore"):
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
        ad.accumulate(m_t, gm)
        ad.accumulate(x_t, gr)

    return ad.primitive(y, "attn_layer", parents, vjp)


def pfl_forward(w, config: ModelConfig, z):
    """Cross-vehicle attention; vehicle i sees vehicles 1..i (upstream only).
    Adding the position table to z is one node."""
    z = ad.as_tensor(z)
    n_veh = z.shape[-2]
    pos = sinusoidal_encoding(n_veh, config.d_model)
    x = ad.primitive(z.data + pos.astype(z.data.dtype, copy=False),
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
    pos = sinusoidal_encoding(config.n_param_steps, config.d_model)
    q = ad.primitive(lat.data.reshape(lat.shape[:-1] + (1, lat.shape[-1]))
                     + pos.astype(lat.data.dtype, copy=False),
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


def _infer(params: ModelParams, config: ModelConfig, history, noise):
    """Embed through parameter encoding on one batch: (theta, mu, logvar).
    The normalized history enters in the weights' dtype."""
    w = params.weights
    x_norm = (history - params.norm_mean) / params.norm_std
    with np.errstate(over="ignore"):    # beyond float32: inf, for 'embed'
        x_norm = x_norm.astype(w["embed.w"].data.dtype, copy=False)
    e = embed_inputs(w, x_norm)
    memory = e if config.disable_tfl else tfl_forward(w, config, e)
    z, mu, logvar = ful_forward(w, memory[..., -1, :], noise)
    latent = z if config.disable_pfl else pfl_forward(w, config, z)
    theta = dyn.encode_parameters(narp_decode(w, config, latent, memory))
    return theta, mu, logvar


def model_forward(params: ModelParams, config: ModelConfig,
                  history: np.ndarray, lead_future: np.ndarray,
                  noise=None) -> ModelOutput:
    """Full pipeline on a window batch.

    history: (B, N, P, 3) raw follower features, B >= 0; lead_future: (B, F)
    leader speeds. noise: optional (B, N, d_model) standard-normal draws;
    None keeps the latent at its mean (deterministic evaluation).

    With a tape, embed through parameter encoding runs once over the batch.
    Without one, it runs on blocks of platoons whose vehicles fill one TFL
    row block (8 platoons of six followers at the default config), each
    writing its theta, mu and logvar into the batch's arrays, so the
    network's scratch is one platoon block whatever the batch, and inference
    passes each follower count's windows whole. Every stage works platoon by
    platoon, so the bits do not depend on the blocking. The expected state
    and the rollout then run once over the whole batch.
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
    # read over the whole batch, so that it logs once per call: normalizing
    # is monotone, so each feature's extremes give its largest magnitude, and
    # numpy's reductions carry a NaN through to a false comparison
    if history.size:
        extremes = np.stack([history.max(axis=(0, 1, 2)),
                             history.min(axis=(0, 1, 2))])
        if np.abs((extremes - params.norm_mean) / params.norm_std).max() \
                > EMBED_MAGNITUDE_WARN:
            log.warning("model_forward: normalized feature magnitude exceeds "
                        "%.0f; normalization stats may not match this data",
                        EMBED_MAGNITUDE_WARN)
    if ad.needs_grad(*w.values()):
        theta, mu, logvar = _infer(params, config, history, noise)
    else:
        B, N = history.shape[:2]
        rows = _block_rows(config.n_state * config.d_inner * max(1, N))
        theta = np.empty((B, N, config.n_param_steps, 3))
        mu, logvar = (np.empty((B, N, config.d_model), w["embed.w"].data.dtype)
                      for _ in range(2))
        for b in range(0, B, rows):
            blk = slice(b, b + rows)
            parts = _infer(params, config, history[blk],
                           None if noise is None else noise[blk])
            theta[blk], mu[blk], logvar[blk] = (t.data for t in parts)
        theta, mu, logvar = ad.Tensor(theta), ad.Tensor(mu), ad.Tensor(logvar)
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
