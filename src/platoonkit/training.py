"""Training loop, losses, and float32 checkpoints.

The objective combines squared-error prediction losses on speed and gap with
a KL regularizer on the variational latent. The two prediction losses are
balanced by dynamic weight averaging: each epoch's weights follow the ratio
of the previous two epochs' losses through a temperature-2 softmax, so a task
that stopped improving receives more weight.

Training runs the network in float32, the precision of its leaves and of a
checkpoint: Adam keeps float64 moments, computes each update in float64 and
stores the float32 result, as in the master-weight scheme of mixed-precision
training (arXiv 1710.03740). The KL, the prediction losses and their total
are float64. A checkpoint stores the float32 weights raw, so a reloaded
model holds the trained weights exactly, and its forward pass gives the
in-memory model's outputs bit for bit. A checkpoint (format 3) is a manifest
of the config and the input normalization plus the weights in
``network.weight_shapes`` order, so the config alone fixes where each weight
lies. Each step backpropagates the weighted total loss with
``Tensor.backward``, which frees the step's graph as it goes: the loss and
the model output the loop still holds keep no graph, so no step's graph is
alive during the next step's forward pass.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import data
from . import network as net

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
DWA_TEMPERATURE = 2.0
DWA_FLOOR = 1e-12

CHECKPOINT_FORMAT = 3
MANIFEST_NAME = "manifest.json"
WEIGHTS_NAME = "weights.bin"


class CheckpointError(Exception):
    pass


# -- losses ---------------------------------------------------------------------

def prediction_losses(result, targets: np.ndarray):
    """Mean squared error of predicted speed and gap over every future step.

    targets: (B, N, F, 2) ground-truth [speed, gap], a constant. One autodiff
    node holds [l_v, l_s]; returns its two slices (l_v, l_s).
    """
    targets = np.asarray(targets, dtype=float)
    v, s = ad.as_tensor(result.v), ad.as_tensor(result.s)
    ev = v.data - targets[..., 0]
    es = s.data - targets[..., 1]

    def vjp(g):
        ad.accumulate(v, ev * (2.0 * (g[0] / ev.size)))
        ad.accumulate(s, es * (2.0 * (g[1] / es.size)))

    losses = ad.primitive(np.array([(ev * ev).mean(), (es * es).mean()]),
                          "prediction_losses", (v, s), vjp)
    return losses[0], losses[1]


def kl_loss(mu, logvar):
    """KL(q || N(0, I)) averaged over batch, vehicles, and latent channels,
    as one autodiff node, computed in float64 whatever the inputs' dtype."""
    mu, logvar = ad.as_tensor(mu), ad.as_tensor(logvar)
    m = mu.data.astype(np.float64, copy=False)
    lv = logvar.data.astype(np.float64, copy=False)
    with np.errstate(over="ignore"):
        var = np.exp(lv)
    inner = (m * m + var) - (lv + 1.0)

    def vjp(g):
        g_inner = g * 0.5 / inner.size
        ad.accumulate(mu, m * (2.0 * g_inner))
        ad.accumulate(logvar, g_inner * var - g_inner)

    return ad.primitive(inner.mean() * 0.5, "kl_loss", (mu, logvar), vjp)


def total_loss(l_v, l_s, kl, task_weights, alpha_kl: float):
    """The training objective w_v l_v + w_s l_s + alpha_kl kl, as one autodiff
    node; the task weights and alpha_kl are constants."""
    parts = (l_v, l_s, kl)
    scales = (float(task_weights[0]), float(task_weights[1]), float(alpha_kl))

    def vjp(g):
        for part, scale in zip(parts, scales):
            ad.accumulate(part, g * scale)

    return ad.primitive((l_v.data * scales[0] + l_s.data * scales[1])
                        + kl.data * scales[2], "total_loss", parts, vjp)


def dwa_weights(loss_history) -> np.ndarray:
    """Per-task weights from the last two epochs of task losses.

    loss_history: sequence of (l_v, l_s) epoch means. Fewer than two entries,
    or a vanishing denominator, yields uniform weights (1, 1).
    """
    K = 2
    if len(loss_history) < 2:
        return np.ones(K)
    prev = np.asarray(loss_history[-1], dtype=float)
    prev2 = np.asarray(loss_history[-2], dtype=float)
    if (prev2 < DWA_FLOOR).any():
        return np.ones(K)
    ratio = prev / prev2
    e = np.exp(ratio / DWA_TEMPERATURE)
    return K * e / e.sum()


# -- optimizer --------------------------------------------------------------------

class Adam:
    """Standard Adam with bias correction over float32 weights: the moments
    are float64, and each update is computed in float64 from the float32
    gradient, then rounded to float32 when it is stored."""

    def __init__(self, weights: "OrderedDict[str, ad.Tensor]", lr: float):
        if lr <= 0.0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.weights = weights
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros(t.data.shape) for k, t in weights.items()}
        self.v = {k: np.zeros(t.data.shape) for k, t in weights.items()}

    def step(self) -> None:
        """Apply one update from the gradients accumulated on the weights."""
        self.t += 1
        b1t = 1.0 - ADAM_BETA1 ** self.t
        b2t = 1.0 - ADAM_BETA2 ** self.t
        for k, tensor in self.weights.items():
            if tensor.grad is None:
                continue
            g = tensor.grad.astype(np.float64)
            m = self.m[k]
            v = self.v[k]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            upd = self.lr * (m / b1t) / (np.sqrt(v / b2t) + ADAM_EPS)
            with np.errstate(over="ignore"):    # beyond float32: inf
                tensor.data = (tensor.data - upd).astype(np.float32)
            ad._check_finite(tensor.data, f"adam {k}")
            tensor.grad = None

    def snapshot(self) -> dict:
        return {"t": self.t,
                "m": {k: a.copy() for k, a in self.m.items()},
                "v": {k: a.copy() for k, a in self.v.items()},
                "w": {k: t.data.copy() for k, t in self.weights.items()}}

    def restore(self, snap: dict) -> None:
        self.t = snap["t"]
        for k in self.weights:
            self.m[k][...] = snap["m"][k]
            self.v[k][...] = snap["v"][k]
            self.weights[k].data = snap["w"][k].copy()
            self.weights[k].grad = None


# -- checkpoints ------------------------------------------------------------------

def save_checkpoint(path: str, params: net.ModelParams,
                    config: net.ModelConfig) -> None:
    """Write manifest.json (format, config, normalization) and weights.bin:
    every weight as little-endian float32, in ``weight_shapes(config)``
    order, into ``path``."""
    os.makedirs(path, exist_ok=True)
    blob = b"".join(params.weights[name].data.astype("<f4").tobytes()
                    for name in net.weight_shapes(config))
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "config": dataclasses.asdict(config),
        "norm_mean": [float(x) for x in params.norm_mean],
        "norm_std": [float(x) for x in params.norm_std],
    }
    with open(os.path.join(path, WEIGHTS_NAME), "wb") as f:
        f.write(blob)
    with open(os.path.join(path, MANIFEST_NAME), "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
        f.write("\n")


def load_checkpoint(path: str):
    """Read a checkpoint directory; returns (params, config). weights.bin is
    split by the config's weight shapes: it must hold exactly their values,
    each weight finite; ``norm_mean`` and ``norm_std`` must be 3 finite
    values each, the std above 0.

    The weights come back as float32 constants, the precision they are
    stored and trained in: they never require grad, so ``model_forward``
    runs them without a tape, every network stage computes in float32 as in
    training, and the outputs are those of the model that wrote them, bit
    for bit. The normalization, the parameter encoding, the rollout and the
    analysis stay float64. Training and gradient checks start from
    ``init_params``."""
    try:
        with open(os.path.join(path, MANIFEST_NAME), encoding="utf-8") as f:
            manifest = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable manifest in {path}: {exc}") from exc
    fmt = manifest.get("format") if isinstance(manifest, dict) else None
    if fmt != CHECKPOINT_FORMAT:
        raise CheckpointError(f"unsupported checkpoint format {fmt!r}")
    try:
        config = net.ModelConfig(**manifest["config"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"bad config in manifest: {exc}") from exc
    layout = net.weight_shapes(config)
    total = sum(math.prod(shape) for shape in layout.values())
    try:
        with open(os.path.join(path, WEIGHTS_NAME), "rb") as f:
            size = os.fstat(f.fileno()).st_size     # before a byte is read
            if size != 4 * total:
                raise CheckpointError(f"weights.bin holds {size} bytes, the "
                                      f"config needs {total} float32 values")
            blob = f.read()
    except OSError as exc:
        raise CheckpointError(f"unreadable weights in {path}: {exc}") from exc
    raw = np.frombuffer(blob, dtype="<f4")
    weights = OrderedDict()
    lo = 0
    for name, shape in layout.items():
        hi = lo + math.prod(shape)
        values = raw[lo:hi].astype(np.float32).reshape(shape)
        if not np.isfinite(values).all():
            raise CheckpointError(f"weight {name} holds non-finite values")
        weights[name] = ad.Tensor(values)
        lo = hi
    try:
        norm = {}
        for field in ("norm_mean", "norm_std"):
            norm[field] = np.asarray(manifest[field], dtype=float)
            if norm[field].shape != (3,) or not np.isfinite(norm[field]).all():
                raise CheckpointError(f"{field} must be 3 finite values, got "
                                      f"{manifest[field]!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed manifest in {path}: {exc!r}") from exc
    if not (norm["norm_std"] > 0.0).all():
        raise CheckpointError(f"norm_std must be above 0, got "
                              f"{manifest['norm_std']!r}")
    return net.ModelParams(weights=weights, **norm), config


# -- batching ---------------------------------------------------------------------

def make_batches(windows, batch_size: int, rng=None):
    """Batches (hist, lead, targets) from a list of window triples, one per
    vehicle count as ``data.extract_windows`` returns them: each triple's
    rows, permuted given ``rng``, sliced into batches of ``batch_size``."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    batches = []
    for arrays in windows:
        count = len(arrays[0])
        order = rng.permutation(count) if rng is not None else np.arange(count)
        for lo in range(0, count, batch_size):
            rows = order[lo:lo + batch_size]
            batches.append(tuple(a[rows] for a in arrays))
    return batches


# -- loop -------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    batch_size: int = 32
    lr: float = 1e-5
    alpha_kl: float = 0.0025
    seed: int = 0

    def __post_init__(self):
        net.check_field_types(self)
        from .cli import MAX_EPOCHS
        for name in ("epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.epochs > MAX_EPOCHS:
            raise ValueError(f"epochs must be <= {MAX_EPOCHS}, got {self.epochs}")
        if self.lr <= 0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        if self.alpha_kl < 0:
            raise ValueError(f"alpha_kl must be >= 0, got {self.alpha_kl}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class TrainResult:
    best_val: float
    best_epoch: int
    status: str                # "completed" or "aborted_non_finite"
    abort_reason: str = None   # "epoch E batch B: <cause>" when aborted


def _eval_windows(params, config, windows, batch_size):
    """Deterministic losses over window triples, weighted by window count."""
    sums = np.zeros(3)
    params = params.constants()
    for hist, lead, targets in make_batches(windows, batch_size):
        out = net.model_forward(params, config, hist, lead)
        l_v, l_s = prediction_losses(out.result, targets)
        kl = kl_loss(out.mu, out.logvar)
        b = hist.shape[0]
        sums += b * np.array([l_v.data, l_s.data, kl.data])
    return sums / data.window_count(windows)


def train(params: net.ModelParams, config: net.ModelConfig,
          train_windows, val_windows, tcfg: TrainConfig,
          checkpoint_dir: str = None, log_stream=None) -> TrainResult:
    """Optimize ``params`` in place; keep the best-validation checkpoint.

    ``train_windows`` and ``val_windows`` are ``data.extract_windows`` lists,
    one triple per vehicle count; every epoch and every validation pass
    batches them as they are. Emits one JSON line per epoch to
    ``log_stream``, the run's only per-epoch record (no timestamps, so logs
    are byte-reproducible). A non-finite training loss aborts the run: the
    epoch-start state is restored and training stops with status
    "aborted_non_finite"; ``abort_reason`` names the epoch, the batch index
    within it and the cause.
    """
    n_train = data.window_count(train_windows)
    if not n_train:
        raise ValueError("no training windows")
    if not data.window_count(val_windows):
        raise ValueError("no validation windows")
    opt = Adam(params.weights, tcfg.lr)
    epoch_seeds = np.random.SeedSequence(tcfg.seed).spawn(tcfg.epochs)
    task_history = []
    best_val = math.inf
    best_epoch = -1
    status = "completed"
    abort_reason = None

    for epoch in range(tcfg.epochs):
        rng = np.random.default_rng(epoch_seeds[epoch])
        weights_vs = dwa_weights(task_history)
        snap = opt.snapshot()
        sums = np.zeros(3)
        for batch, (hist, lead, targets) in enumerate(
                make_batches(train_windows, tcfg.batch_size, rng)):
            b, n = hist.shape[0], hist.shape[1]
            noise = rng.standard_normal((b, n, config.d_model))
            try:
                out = net.model_forward(params, config, hist, lead, noise=noise)
                l_v, l_s = prediction_losses(out.result, targets)
                kl = kl_loss(out.mu, out.logvar)
                total = total_loss(l_v, l_s, kl, weights_vs, tcfg.alpha_kl)
                total.backward()
                opt.step()
            except ad.NonFiniteValue as exc:
                abort_reason = f"epoch {epoch} batch {batch}: {exc}"
                break
            sums += b * np.array([l_v.data, l_s.data, kl.data])
        if abort_reason is not None:
            opt.restore(snap)
            status = "aborted_non_finite"
            break
        train_means = sums / n_train
        task_history.append((train_means[0], train_means[1]))
        val = _eval_windows(params, config, val_windows, tcfg.batch_size)
        val_loss = val[0] + val[1] + tcfg.alpha_kl * val[2]
        is_best = val_loss < best_val
        if is_best:
            best_val = float(val_loss)
            best_epoch = epoch
            if checkpoint_dir is not None:
                save_checkpoint(checkpoint_dir, params, config)
        entry = {
            "epoch": epoch,
            "w_v": float(weights_vs[0]), "w_s": float(weights_vs[1]),
            "train_v": float(train_means[0]), "train_s": float(train_means[1]),
            "train_kl": float(train_means[2]),
            "val_v": float(val[0]), "val_s": float(val[1]),
            "val_kl": float(val[2]), "val_loss": float(val_loss),
            "best": bool(is_best),
        }
        if log_stream is not None:
            log_stream.write(json.dumps(entry, sort_keys=True) + "\n")
    return TrainResult(best_val=best_val, best_epoch=best_epoch,
                       status=status, abort_reason=abort_reason)
