"""Reverse-mode automatic differentiation on dense numpy arrays.

Define-by-run tape: every node holds a forward value computed in numpy and a
hand-written vector-Jacobian closure. Each model stage records one node
through ``primitive`` (``network``, ``dynamics``, ``training``). Besides the
tape, this module keeps ``getitem``, which splits a stacked node, and two
numpy kernels: ``softmax_weights``, the one softmax, which counts
fully-masked rows, and ``softplus``, the one softplus.

``Tensor.backward`` has ``Tape.trace`` order the nodes reachable from an
output topologically and ``Tape.backward`` replay them once in reverse; the
graph is rebuilt on every forward pass. A node records only its parents
that require grad, so no constant is ever a leaf. The replay consumes the
graph: once a node's VJP has run, the node drops its gradient, its parents
and its closure, so the graph is freed as backward goes, while the output
is still held, and a second backward through it raises ``AutodiffError``.
Leaves keep their gradients. No VJP captures its own output, so a graph
dropped without a backward is freed by reference counting too.

A tensor, a leaf (``param``) too, keeps float32 data as float32 and stores
anything else as float64, and a tape computes in the dtype of its leaves:
``accumulate`` casts each gradient to its tensor's dtype. Training leaves are
float32, so the network's nodes and gradients are float32; a stage that
computes in float64 (the parameter encoding, the rollout, the losses) hands
float32 gradients back to its float32 parents. ``finite_diff_check`` builds
float64 leaves, so a gradient audit runs in float64 throughout. A non-finite
node output raises ``NonFiniteValue`` naming the node.
``finite_diff_check`` backpropagates a scalar graph and checks its gradients
against central differences.
"""

from __future__ import annotations

import contextlib
import contextvars
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


class _GradMode:
    """Whether ops are recorded: a context variable, so each thread (and
    asyncio task) has its own, on by default. Its truth value is the mode."""

    __slots__ = ("var",)

    def __init__(self):
        self.var = contextvars.ContextVar("grad_enabled", default=True)

    def __bool__(self) -> bool:
        return self.var.get()


_grad_enabled = _GradMode()
_degenerate_rows = 0  # fully-masked softmax rows seen by this process


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (forward values only), in
    the calling thread only."""
    token = _grad_enabled.var.set(False)
    try:
        yield
    finally:
        _grad_enabled.var.reset(token)


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
    """Dense array node in the autodiff graph: float32 data stays float32,
    anything else is stored as float64."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp", "_op",
                 "__weakref__")

    def __init__(self, data, requires_grad: bool = False, *, _parents=(),
                 _vjp=None, _op: str = "tensor"):
        arr = np.asarray(data)
        if arr.dtype != np.float32:
            arr = arr.astype(DTYPE, copy=False)
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

    def backward(self) -> None:
        """Backpropagate from this output, a scalar loss, seeded with ones.
        Another cotangent replays through ``Tape.trace(out).backward(g)``."""
        Tape.trace(self).backward(np.ones(self.data.shape, self.data.dtype))

    def __getitem__(self, idx):
        return getitem(self, idx)


def _consumed(g) -> None:
    raise AutodiffError("backward through a graph that was already backpropagated")


class Tape:
    """The nodes reachable from one output, in topological order.
    ``backward`` runs each node's VJP once, in reverse, then drops the node's
    gradient and parents and swaps its VJP for ``_consumed``, which raises:
    a graph can be backpropagated once."""

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
                node.grad, node._parents, node._vjp = None, (), _consumed


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def param(x) -> Tensor:
    """Leaf tensor that accumulates gradient: float32 input stays float32,
    anything else is stored as float64, as in ``Tensor``."""
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
    g = _unbroadcast(np.asarray(g, dtype=t.data.dtype), t.data.shape)
    t.grad = g if t.grad is None else t.grad + g


def needs_grad(*tensors: Tensor) -> bool:
    """True when an op on ``tensors`` is recorded on the tape."""
    return _grad_enabled and any(t.requires_grad for t in tensors)


def _make(data: np.ndarray, op: str, parents: tuple, vjp) -> Tensor:
    parents = tuple(p for p in parents if p.requires_grad) if _grad_enabled else ()
    if not parents:
        return Tensor(data, _op=op)
    return Tensor(data, requires_grad=True, _parents=parents, _vjp=vjp, _op=op)


def primitive(data: np.ndarray, op: str, parents: tuple, vjp) -> Tensor:
    """Record one node: ``data``, computed in numpy, and ``vjp(g)``, which
    passes the output gradient to ``parents`` through ``accumulate``. Only
    parents that require grad are recorded. ``vjp`` runs at most once:
    ``Tape.backward`` drops it after the call. It must not capture the
    output Tensor, or a graph dropped without a backward becomes a
    reference cycle."""
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


def softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + exp(x)) as max(x, 0) + log1p(exp(-|x|)), overwriting ``x``.

    The split form never overflows. numpy's log-add-exp of (0, x) evaluates
    the same formula one element at a time; here ``exp`` and ``log1p`` run
    as vectorised loops, several times faster. Both are within one ulp of
    the exact value, so they can differ by two. NaN stays NaN, +inf stays
    +inf and -inf gives 0. Returns ``x``.
    """
    tail = np.abs(x)
    np.negative(tail, out=tail)
    np.exp(tail, out=tail)
    np.log1p(tail, out=tail)
    np.maximum(x, 0.0, out=x)
    x += tail
    return x


# -- slicing ------------------------------------------------------------------

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

def finite_diff_check(graph: Callable, inputs: Sequence[np.ndarray],
                      step: float = 1e-6) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``graph`` maps one leaf Tensor per input to a scalar Tensor; a leaf it
    does not use has zero gradient. Relative error per element:
    |analytic - central| / max(1, |central|). ``graph`` must be
    deterministic (fix any sampling noise before calling).
    """
    if not 1e-8 <= step <= 1e-4:
        raise ValueError(f"step {step} outside [1e-8, 1e-4]")
    work = [np.array(x, dtype=DTYPE) for x in inputs]
    leaves = [param(w) for w in work]
    loss = graph(*leaves)
    if loss.data.size != 1:
        raise ShapeMismatch(f"loss must be scalar, got shape {loss.data.shape}")
    loss.backward()

    def evaluate() -> float:
        with no_grad():
            return float(graph(*[Tensor(w) for w in work]).data)

    worst = 0.0
    for arr, leaf in zip(work, leaves):
        flat = arr.reshape(-1)
        gflat = np.zeros(arr.size) if leaf.grad is None else leaf.grad.reshape(-1)
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
