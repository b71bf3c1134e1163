"""Reverse-mode automatic differentiation on dense numpy arrays.

Define-by-run tape engine: each primitive computes its forward value eagerly
and records a vector-Jacobian closure on the output node. ``Tape.trace``
linearizes the subgraph reachable from an output in topological order;
``backward`` replays it exactly once in reverse. The graph is rebuilt on every
forward pass, so the recorded structure always matches the executed control
flow. A node is on the tape exactly when it has ``requires_grad``. Besides
``tsum``, which scalarises outputs for gradient checks, only primitives the
model records are kept, each with a finite-difference test.

Operations whose step-by-step graphs would run to hundreds of nodes are
fused primitives: the forward pass runs in numpy and records one node whose
VJP is written by hand. ``causal_conv1d`` is one here; ``network``'s
selective scan and attention layer and ``dynamics``' rollout register theirs
through ``primitive``. Each fused VJP has its own finite-difference test. No
VJP closure captures its own output node, so a graph is freed by reference
counting as soon as it is dropped. ``softmax_weights`` is the one softmax: a
numpy kernel, not a tape op, that counts fully-masked rows.

Storage is float64 throughout. Non-finite values are rejected at graph
boundaries and after every primitive, naming the primitive that produced
them. Analytic gradients are validated against central finite differences via
``finite_diff_check``.
"""

from __future__ import annotations

import contextlib
import logging
from typing import Callable, Sequence

import numpy as np

log = logging.getLogger(__name__)

DTYPE = np.float64


class AutodiffError(Exception):
    pass


class ShapeMismatch(AutodiffError):
    """Operands cannot be combined; message names the op and both shapes."""


class NonFiniteValue(AutodiffError):
    """A NaN or Inf appeared at a graph boundary or inside a primitive."""


_grad_enabled = True
_degenerate_rows = 0  # fully-masked softmax rows seen by this process


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (forward values only)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def degenerate_softmax_rows() -> int:
    return _degenerate_rows


def _check_finite(data: np.ndarray, op: str) -> None:
    # Cheap probe first: a non-finite element makes the sum non-finite.
    # The full scan only runs to rule out benign overflow of the sum itself.
    with np.errstate(over="ignore", invalid="ignore"):
        probe = data.sum()
    if not np.isfinite(probe) and not np.isfinite(data).all():
        raise NonFiniteValue(f"non-finite value produced by '{op}'")


class Tensor:
    """Dense float64 array node in the autodiff graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp", "_op",
                 "__weakref__")

    def __init__(self, data, requires_grad: bool = False, *, _parents=(),
                 _vjp=None, _op: str = "tensor"):
        arr = np.asarray(data, dtype=DTYPE)
        _check_finite(arr, _op)
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._vjp = _vjp
        self._op = _op

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def backward(self, seed=None) -> None:
        if seed is None:
            seed = np.ones_like(self.data)
        seed = np.asarray(seed, dtype=DTYPE)
        if seed.shape != self.data.shape:
            raise ShapeMismatch(
                f"backward seed shape {seed.shape} != output shape {self.data.shape}")
        Tape.trace(self).backward(seed)

    def __getitem__(self, idx):
        return getitem(self, idx)


class Tape:
    """Ordered record of the nodes reachable from one output.

    ``backward`` visits each node exactly once, in reverse topological order,
    accumulating parent gradients through the recorded closures.
    """

    def __init__(self, nodes: list):
        self.nodes = nodes

    @classmethod
    def trace(cls, root: Tensor) -> "Tape":
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        return cls(order)

    def backward(self, seed: np.ndarray) -> None:
        root = self.nodes[-1]
        root.grad = seed if root.grad is None else root.grad + seed
        for node in reversed(self.nodes):
            if node._vjp is not None and node.grad is not None:
                node._vjp(node.grad)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def param(x) -> Tensor:
    """Leaf tensor that accumulates gradient."""
    return Tensor(x, requires_grad=True)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add gradient ``g``, reduced from any broadcast shape, into ``t``."""
    if not t.requires_grad:
        return
    g = _unbroadcast(np.asarray(g, dtype=DTYPE), t.data.shape)
    t.grad = g if t.grad is None else t.grad + g


def needs_grad(*tensors: Tensor) -> bool:
    """True when an op on ``tensors`` is recorded on the tape."""
    return _grad_enabled and any(t.requires_grad for t in tensors)


def _make(data: np.ndarray, op: str, parents: tuple, vjp) -> Tensor:
    if needs_grad(*parents):
        return Tensor(data, requires_grad=True, _parents=parents, _vjp=vjp, _op=op)
    return Tensor(data, _op=op)


def primitive(data: np.ndarray, op: str, parents: tuple, vjp) -> Tensor:
    """Record the output of a fused primitive defined outside this module.

    ``data`` is the forward value computed in numpy; ``vjp(g)`` passes the
    output gradient to ``parents`` through ``accumulate``. A ``vjp`` closure
    must not capture the output Tensor, or each graph becomes a reference
    cycle that only the cyclic garbage collector frees.
    """
    return _make(data, op, parents, vjp)


def _broadcast_check(a: Tensor, b: Tensor, op: str) -> None:
    try:
        np.broadcast_shapes(a.data.shape, b.data.shape)
    except ValueError:
        raise ShapeMismatch(
            f"{op}: operand shapes {a.data.shape} and {b.data.shape} do not broadcast"
        ) from None


# -- elementwise arithmetic -------------------------------------------------

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_check(a, b, "add")
    out = _make(a.data + b.data, "add", (a, b), None)
    if out.requires_grad:
        def vjp(g):
            accumulate(a, g)
            accumulate(b, g)
        out._vjp = vjp
    return out


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_check(a, b, "sub")
    out = _make(a.data - b.data, "sub", (a, b), None)
    if out.requires_grad:
        def vjp(g):
            accumulate(a, g)
            accumulate(b, -g)
        out._vjp = vjp
    return out


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_check(a, b, "mul")
    out = _make(a.data * b.data, "mul", (a, b), None)
    if out.requires_grad:
        def vjp(g):
            accumulate(a, g * b.data)
            accumulate(b, g * a.data)
        out._vjp = vjp
    return out


def neg(a) -> Tensor:
    a = as_tensor(a)
    out = _make(-a.data, "neg", (a,), None)
    if out.requires_grad:
        out._vjp = lambda g: accumulate(a, -g)
    return out


def power(a, p) -> Tensor:
    """Elementwise power with a constant (non-differentiated) exponent."""
    a = as_tensor(a)
    p = float(p)
    out = _make(a.data ** p, "power", (a,), None)
    if out.requires_grad:
        out._vjp = lambda g: accumulate(a, g * p * a.data ** (p - 1.0))
    return out


# -- matmul ------------------------------------------------------------------

def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2 or a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeMismatch(
            f"matmul: operand shapes {a.data.shape} and {b.data.shape} are incompatible")
    out = _make(a.data @ b.data, "matmul", (a, b), None)
    if out.requires_grad:
        def vjp(g):
            accumulate(a, g @ np.swapaxes(b.data, -1, -2))
            if b.data.ndim == 2:
                # a weight: one GEMM over all rows instead of a batched
                # product summed afterwards
                accumulate(b, a.data.reshape(-1, a.data.shape[-1]).T
                           @ g.reshape(-1, g.shape[-1]))
            else:
                accumulate(b, np.swapaxes(a.data, -1, -2) @ g)
        out._vjp = vjp
    return out


# -- transcendental ----------------------------------------------------------

def exp(a) -> Tensor:
    a = as_tensor(a)
    with np.errstate(over="ignore"):
        data = np.exp(a.data)
    out = _make(data, "exp", (a,), None)
    if out.requires_grad:
        out._vjp = lambda g: accumulate(a, g * data)
    return out


def _sigmoid(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def softplus(a) -> Tensor:
    """log(1 + e^x), computed stably; strictly positive for x > -745."""
    a = as_tensor(a)
    out = _make(np.logaddexp(0.0, a.data), "softplus", (a,), None)
    if out.requires_grad:
        out._vjp = lambda g: accumulate(a, g * _sigmoid(a.data))
    return out


def silu(a) -> Tensor:
    """x * sigmoid(x)."""
    a = as_tensor(a)
    s = _sigmoid(a.data)
    out = _make(a.data * s, "silu", (a,), None)
    if out.requires_grad:
        out._vjp = lambda g: accumulate(a, g * s * (1.0 + a.data * (1.0 - s)))
    return out


def relu(a) -> Tensor:
    a = as_tensor(a)
    out = _make(np.maximum(a.data, 0.0), "relu", (a,), None)
    if out.requires_grad:
        out._vjp = lambda g: accumulate(a, g * (a.data > 0.0))
    return out


# -- softmax -----------------------------------------------------------------

def softmax_weights(scores: np.ndarray, mask=True) -> np.ndarray:
    """Softmax of a numpy array over its last axis, restricted to positions
    where ``mask`` is True (by default all: the plain softmax); masked
    positions get exactly 0.

    A kernel for fused primitives, not a tape op: their VJPs work from the
    weights it returns. Rows with every position masked produce all-zero
    weights (no attention) rather than NaN; such rows are counted and
    reported via ``degenerate_softmax_rows``.
    """
    global _degenerate_rows
    mask = np.broadcast_to(np.asarray(mask, dtype=bool), scores.shape)
    s = np.where(mask, scores, -np.inf)
    rowmax = s.max(axis=-1, keepdims=True)
    dead = ~np.isfinite(rowmax)
    if dead.any():
        n = int(dead.sum())
        _degenerate_rows += n
        log.warning("softmax_weights: %d fully-masked rows produced zero weights", n)
    s -= np.where(dead, 0.0, rowmax)
    np.exp(s, out=s)                    # exp(-inf) = 0 at masked positions
    # a live row sums to at least exp(0) = 1; a dead row's zeros divide by 1
    s /= np.where(dead, 1.0, s.sum(axis=-1, keepdims=True))
    return s


# -- reductions / shape ops ---------------------------------------------------

def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = _make(a.data.sum(axis=axis, keepdims=keepdims), "sum", (a,), None)
    if out.requires_grad:
        def vjp(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            accumulate(a, np.broadcast_to(g, a.data.shape))
        out._vjp = vjp
    return out


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = _make(a.data.mean(axis=axis, keepdims=keepdims), "mean", (a,), None)
    if out.requires_grad:
        count = a.data.size / out.data.size
        def vjp(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            accumulate(a, np.broadcast_to(g, a.data.shape) / count)
        out._vjp = vjp
    return out


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out = _make(a.data.reshape(shape), "reshape", (a,), None)
    if out.requires_grad:
        out._vjp = lambda g: accumulate(a, g.reshape(a.data.shape))
    return out


def getitem(a, idx) -> Tensor:
    """Basic (slice / integer / ellipsis) indexing."""
    a = as_tensor(a)
    out = _make(a.data[idx], "slice", (a,), None)
    if out.requires_grad:
        def vjp(g):
            buf = np.zeros_like(a.data)
            buf[idx] = g
            accumulate(a, buf)
        out._vjp = vjp
    return out


# -- normalization composites -------------------------------------------------

def rms_norm(x, gamma, eps: float = 1e-5) -> Tensor:
    """Scale by the reciprocal root-mean-square over the last axis."""
    x = as_tensor(x)
    ms = tmean(mul(x, x), axis=-1, keepdims=True)
    inv = power(add(ms, eps), -0.5)
    return mul(mul(x, inv), gamma)


def causal_conv1d(x, w, b) -> Tensor:
    """Depthwise causal 1-D convolution over the time axis, as one node.

    x: (..., T, C); w: (C, K); b: (C,). Output t depends on inputs t-K+1..t
    (left zero padding), independently per channel; the taps are summed in
    order, ((tap0 + tap1) + ...) + b.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    T, C = x.data.shape[-2:]
    if w.data.ndim != 2 or w.data.shape[0] != C:
        raise ShapeMismatch(
            f"causal_conv1d: weight shape {w.data.shape} does not match {C} channels")
    K = w.data.shape[1]
    xp = np.zeros(x.data.shape[:-2] + (K - 1 + T, C))
    xp[..., K - 1:, :] = x.data
    data = xp[..., :T, :] * w.data[:, 0]
    for i in range(1, K):
        data += xp[..., i:i + T, :] * w.data[:, i]
    data += b.data

    def vjp(g):
        # tap i reads xp[i:i+T]: its input gradient is one shifted add
        gxp = np.zeros_like(xp)
        gw = np.empty_like(w.data)
        for i in range(K):
            gxp[..., i:i + T, :] += g * w.data[:, i]
            gw[:, i] = (g * xp[..., i:i + T, :]).reshape(-1, C).sum(axis=0)
        accumulate(x, gxp[..., K - 1:, :])
        accumulate(w, gw)
        accumulate(b, g)

    return _make(data, "causal_conv1d", (x, w, b), vjp)


# -- verification -------------------------------------------------------------

def forward_backward(graph: Callable, inputs: Sequence[np.ndarray], seed=1.0):
    """Evaluate ``graph`` on leaf tensors and backpropagate ``seed``.

    ``graph`` maps leaf Tensors to a scalar loss Tensor (optionally a tuple
    whose first element is the loss). Returns (outputs, gradients) where
    gradients align with ``inputs`` (zeros for unused leaves).
    """
    leaves = [param(np.asarray(x, dtype=DTYPE)) for x in inputs]
    result = graph(*leaves)
    if isinstance(result, tuple):
        loss, outputs = result[0], tuple(r.data.copy() for r in result)
    else:
        loss, outputs = result, result.data.copy()
    if loss.data.size != 1:
        raise ShapeMismatch(f"loss must be scalar, got shape {loss.data.shape}")
    loss.backward(np.full_like(loss.data, float(np.asarray(seed))))
    grads = [lf.grad if lf.grad is not None else np.zeros_like(lf.data) for lf in leaves]
    return outputs, grads


def finite_diff_check(graph: Callable, inputs: Sequence[np.ndarray],
                      step: float = 1e-6) -> float:
    """Max relative error between analytic and central-difference gradients.

    Relative error per element: |analytic - central| / max(1, |central|).
    ``graph`` must be deterministic (fix any sampling noise before calling).
    """
    if not 1e-8 <= step <= 1e-4:
        raise ValueError(f"step {step} outside [1e-8, 1e-4]")
    work = [np.array(x, dtype=DTYPE) for x in inputs]
    _, grads = forward_backward(graph, work)

    def evaluate() -> float:
        with no_grad():
            result = graph(*[Tensor(w) for w in work])
        loss = result[0] if isinstance(result, tuple) else result
        return float(loss.data)

    worst = 0.0
    for arr, grad in zip(work, grads):
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            hi = evaluate()
            flat[j] = orig - step
            lo = evaluate()
            flat[j] = orig
            central = (hi - lo) / (2.0 * step)
            rel = abs(gflat[j] - central) / max(1.0, abs(central))
            if rel > worst:
                worst = rel
    return worst
