"""Reverse-mode automatic differentiation on dense numpy arrays.

Define-by-run tape: every node holds a forward value computed in numpy and a
hand-written vector-Jacobian closure. Each model stage records one node
through ``primitive`` (``network``, ``dynamics``, ``training``). Besides the
tape, this module keeps ``getitem``, which splits a stacked node, ``tsum``,
which scalarises outputs for gradient checks, and ``softmax_weights``, the one
softmax, a numpy kernel that counts fully-masked rows.

``Tape.trace`` orders the nodes reachable from an output topologically and
``backward`` replays them once in reverse; the graph is rebuilt on every
forward pass. A node records only its parents that require grad, so no
constant is ever a leaf, and no VJP captures its own output, so a dropped
graph is freed by reference counting. Storage is float64; a non-finite node
output raises ``NonFiniteValue`` naming the node. ``finite_diff_check``
validates gradients against central differences.
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
    """The nodes reachable from one output, in topological order;
    ``backward`` runs each node's VJP once, in reverse."""

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
    """Add gradient ``g``, reduced from any broadcast shape, into ``t``.

    ``t`` may keep ``g`` itself as its gradient, so a VJP passes each array
    to one parent only and does not write to it afterwards.
    """
    if not t.requires_grad:
        return
    g = _unbroadcast(np.asarray(g, dtype=DTYPE), t.data.shape)
    t.grad = g if t.grad is None else t.grad + g


def needs_grad(*tensors: Tensor) -> bool:
    """True when an op on ``tensors`` is recorded on the tape."""
    return _grad_enabled and any(t.requires_grad for t in tensors)


def _make(data: np.ndarray, op: str, parents: tuple, vjp) -> Tensor:
    parents = tuple(p for p in parents if p.requires_grad) if _grad_enabled else ()
    if parents:
        return Tensor(data, requires_grad=True, _parents=parents, _vjp=vjp, _op=op)
    return Tensor(data, _op=op)


def primitive(data: np.ndarray, op: str, parents: tuple, vjp) -> Tensor:
    """Record one node: ``data``, computed in numpy, and ``vjp(g)``, which
    passes the output gradient to ``parents`` through ``accumulate``. Only
    parents that require grad are recorded. ``vjp`` must not capture the
    output Tensor, or each graph becomes a reference cycle."""
    return _make(data, op, parents, vjp)


# -- softmax -----------------------------------------------------------------

def softmax_weights(scores: np.ndarray, mask=True) -> np.ndarray:
    """Softmax of a numpy array over its last axis, restricted to positions
    where ``mask`` is True (by default all: the plain softmax); masked
    positions get exactly 0.

    A kernel for fused primitives, not a tape op: their VJPs work from the
    weights it returns. Rows with every position masked produce all-zero
    weights (no attention) rather than NaN; such rows are counted and
    reported via ``degenerate_softmax_rows``. A row with an unmasked +inf or
    NaN score is not dead: it comes out non-finite, for the stage boundary
    to report.
    """
    global _degenerate_rows
    mask = np.broadcast_to(np.asarray(mask, dtype=bool), scores.shape)
    s = np.where(mask, scores, -np.inf)
    rowmax = s.max(axis=-1, keepdims=True)
    dead = ~mask.any(axis=-1, keepdims=True)
    if dead.any():
        n = int(dead.sum())
        _degenerate_rows += n
        log.warning("softmax_weights: %d fully-masked rows produced zero weights", n)
    with np.errstate(invalid="ignore"):    # inf - inf: the row reads non-finite
        s -= np.where(dead, 0.0, rowmax)
    np.exp(s, out=s)                    # exp(-inf) = 0 at masked positions
    # a live row sums to at least exp(0) = 1; a dead row's zeros divide by 1
    s /= np.where(dead, 1.0, s.sum(axis=-1, keepdims=True))
    return s


# -- reduction / slicing -------------------------------------------------------

def tsum(a, axis=None) -> Tensor:
    """Sum over ``axis`` (all axes by default)."""
    a = as_tensor(a)

    def vjp(g):
        g = g if axis is None else np.expand_dims(g, axis)
        accumulate(a, np.broadcast_to(g, a.data.shape))

    return _make(a.data.sum(axis=axis), "sum", (a,), vjp)


def getitem(a, idx) -> Tensor:
    """Basic (slice / integer / ellipsis) indexing. The VJP adds into the
    parent's gradient in place, so all slices of a parent share one buffer
    per backward pass (a read-only gradient already there is copied once)."""
    a = as_tensor(a)

    def vjp(g):
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        elif not a.grad.flags.writeable:
            a.grad = a.grad.copy()
        a.grad[idx] += g

    return _make(a.data[idx], "slice", (a,), vjp)


# -- verification -------------------------------------------------------------

def forward_backward(graph: Callable, inputs: Sequence[np.ndarray]):
    """Evaluate ``graph`` on leaf tensors and backpropagate a seed of 1.

    ``graph`` maps leaf Tensors to a scalar loss Tensor. Returns (output,
    gradients) where gradients align with ``inputs`` (zeros for unused
    leaves).
    """
    leaves = [param(np.asarray(x, dtype=DTYPE)) for x in inputs]
    loss = graph(*leaves)
    if loss.data.size != 1:
        raise ShapeMismatch(f"loss must be scalar, got shape {loss.data.shape}")
    loss.backward()
    grads = [lf.grad if lf.grad is not None else np.zeros_like(lf.data) for lf in leaves]
    return loss.data.copy(), grads


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
            return float(graph(*[Tensor(w) for w in work]).data)

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
