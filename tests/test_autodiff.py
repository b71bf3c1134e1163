"""Autodiff engine: frozen hand values, finite-difference oracle, tape rules."""

import gc
import math
import os
import subprocess
import sys
import warnings
import weakref
import zlib
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from platoonkit import autodiff as ad
from platoonkit import dynamics as dyn
from platoonkit import network as net
from platoonkit import training as tr


# constants the finite-difference rows close over: data, noise and targets
_CONSTANTS = np.random.default_rng(zlib.crc32(b"constants"))
_X_NORM = _CONSTANTS.standard_normal((2, 3, 5, 3))
_NOISE = _CONSTANTS.standard_normal((2, 3, 4))
_TARGETS = _CONSTANTS.standard_normal((2, 3, 4, 2))

# every row keeps at least one unmasked entry, so no softmax row degenerates
_SOFTMAX_MASK = np.array([[True, True, False, True, False],
                          [False, True, True, True, True],
                          [True, False, False, False, True]])
# the same, but query 1 sees no key: a fully masked softmax row
_DEAD_QUERY_MASK = np.array([[True, True, False, True, False],
                             [False, False, False, False, False],
                             [True, False, False, False, True]])
# platoon attention's mask: vehicle i sees vehicles 0..i
_CAUSAL_MASK = np.tril(np.ones((3, 3), dtype=bool))

# an attention layer of width 4 with 2 heads, in ``network._ATTN_WEIGHTS`` order
_ATTN_SHAPES = [(4, 4), (4, 4), (4, 4), (4, 4), (4,), (4,),
                (4, 16), (16,), (16, 4), (4,), (4,), (4,)]
# constant attention weights of the pfl and narp rows
_ATTN = [_CONSTANTS.standard_normal(s) for s in _ATTN_SHAPES]


def _attn(x, m, *weights, mask=True):
    """``network._attn_layer`` on queries x over memory m (x itself when m is x)."""
    w = {f"a.{name}": t for name, t in zip(net._ATTN_WEIGHTS, weights)}
    return net._attn_layer(w, "a", x, m, 2, mask)


def _probe_sum(t, probe):
    """sum(t * probe) as one node: the scalar a finite-difference check compares."""
    def vjp(g):
        ad.accumulate(t, g * probe)

    return ad.primitive(np.sum(t.data * probe), "sum", (t,), vjp)


def _sum(t):
    """Every element of t summed as one "sum" node."""
    def vjp(g):
        ad.accumulate(t, np.broadcast_to(g, t.shape))

    return ad.primitive(t.data.sum(), "sum", (t,), vjp)


def _forward_backward(graph, inputs):
    """``graph`` on one leaf per input, backpropagated from a seed of 1:
    returns (output, gradients), zeros for a leaf the output does not use."""
    leaves = [ad.param(x) for x in inputs]
    loss = graph(*leaves)
    loss.backward()
    return loss.data.copy(), [np.zeros_like(lf.data) if lf.grad is None
                              else lf.grad for lf in leaves]


def _joint(*tensors):
    """Several outputs as one scalar "sum" node, each summed against its own
    fixed weights, so a gradient error in any of them shows."""
    weights = [np.linspace(-1.0, 2.0 + i, t.data.size).reshape(t.shape)
               for i, t in enumerate(tensors)]

    def vjp(g):
        for t, w in zip(tensors, weights):
            ad.accumulate(t, g * w)

    return ad.primitive(sum(np.sum(t.data * w) for t, w in zip(tensors, weights)),
                        "sum", tensors, vjp)


def _config(**over):
    base = dict(d_model=4, n_state=2, conv_kernel=3, ve_hidden=3, attn_layers=1,
                attn_heads=2, history_len=5, horizon=2, param_window=1)
    return net.ModelConfig(**dict(base, **over))


def _stage_shapes(config, prefix):
    """Shapes of the weights named ``prefix``..., in ``weight_shapes`` order."""
    return [s for name, s in net.weight_shapes(config).items()
            if name.startswith(prefix)]


def _tfl(config, x, *ws):
    """``network.tfl_forward`` with its weights given in ``_TFL_WEIGHTS`` order."""
    w = {f"tfl.{name}": t for name, t in zip(net._TFL_WEIGHTS, ws)}
    return net.tfl_forward(w, config, x)


def _tfl_case(name, batch, **over):
    cfg = _config(**over)
    shapes = [batch + (cfg.history_len, cfg.d_model)] + _stage_shapes(cfg, "tfl.")
    return (name, lambda x, *ws: _tfl(cfg, x, *ws), [_rand] * len(shapes), shapes)


def _ful(noise):
    def op(x, *ws):
        w = {f"ful.{name}": t for name, t in zip(net._FUL_WEIGHTS, ws)}
        return _joint(*net.ful_forward(w, x, noise))
    return op


def _pfl(x):
    """``network.pfl_forward`` with constant attention weights (the attention
    rows perturb those)."""
    w = {f"pfl.0.{name}": a for name, a in zip(net._ATTN_WEIGHTS, _ATTN)}
    return net.pfl_forward(w, _config(), x)


def _narp(latent, memory, head_w, head_b):
    """``network.narp_decode`` with constant attention weights."""
    w = {f"dec.0.{name}": a for name, a in zip(net._ATTN_WEIGHTS, _ATTN)}
    w["dec.head.w"], w["dec.head.b"] = head_w, head_b
    return net.narp_decode(w, _config(), latent, memory)


def _embed(x_norm):
    return lambda w, b: net.embed_inputs({"embed.w": w, "embed.b": b}, x_norm)


def test_square_scalar_forward_backward():
    # d(x*x)/dx at 3 is 6, through the squared-error loss; frozen hand value.
    zero = np.zeros((1, 1, 1, 2))
    outputs, grads = _forward_backward(
        lambda x: tr.prediction_losses(SimpleNamespace(v=x, s=x), zero)[0],
        [np.full((1, 1, 1), 3.0)])
    assert float(outputs) == 9.0
    assert grads[0].item() == 6.0


def test_softplus_zero_value_and_gradient():
    # softplus(0) = ln 2, gradient = sigmoid(0) = 0.5, with the encoding's
    # signs (-, +, +); frozen hand values.
    outputs, grads = _forward_backward(
        lambda x: _sum(dyn.encode_parameters(x)), [np.zeros(3)])
    assert abs(float(outputs) - math.log(2.0)) < 1e-12
    assert abs(float(outputs) - 0.693147) < 1e-6
    np.testing.assert_allclose(grads[0], [-0.5, 0.5, 0.5], rtol=0, atol=1e-12)


def test_softplus_within_two_ulp_of_logaddexp():
    tiny = np.finfo(float).smallest_subnormal
    edges = [0.0, -0.0, tiny, -tiny, 1e-310, -1e-310, 709.0, -709.0,
             745.0, -745.0, np.inf, -np.inf, np.nan]
    rng = np.random.default_rng(16)
    x = np.concatenate([edges, np.linspace(-800.0, 800.0, 16001),
                        rng.normal(scale=5.0, size=20000)])
    with np.errstate(invalid="ignore"):     # the reference flags NaN input
        want = np.logaddexp(0.0, x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ad.softplus(x.copy())
    nan = np.isnan(x)
    assert np.isnan(got[nan]).all()
    assert got[x == np.inf][0] == np.inf and got[x == -np.inf][0] == 0.0
    # both are >= +0.0 here, so their bit patterns order like their values.
    # Each is within 1 ulp of the exact value (checked against 200-bit
    # arithmetic on [-40, 40]), so they can sit 2 ulp apart, on either side
    ulps = np.abs(got[~nan].view(np.int64) - want[~nan].view(np.int64))
    assert ulps.max() <= 2
    assert (ulps <= 1).mean() > 0.99


def test_matmul_finite_difference():
    # the embedding is one matmul plus a bias
    rng = np.random.default_rng(7)
    x = rng.standard_normal((2, 3))
    err = ad.finite_diff_check(lambda w, b: _sum(_embed(x)(w, b)),
                               [rng.standard_normal((3, 2)), rng.standard_normal(2)],
                               step=1e-6)
    assert err < 1e-5


def test_softmax_of_single_element():
    # Weight exactly 1. Attention over a single key is constant in the scores,
    # so the query and key weights get exactly zero gradient and zero FD error.
    assert ad.softmax_weights(np.array([2.5])).tolist() == [1.0]
    rng = np.random.default_rng(4)
    x, m = rng.standard_normal((2, 3, 4)), rng.standard_normal((2, 1, 4))
    ws = [rng.standard_normal(s) for s in _ATTN_SHAPES]

    def graph(wq, wk):
        return _sum(_attn(x, m, wq, wk, *ws[2:]))

    _, grads = _forward_backward(graph, ws[:2])
    assert not any(g.any() for g in grads)
    assert ad.finite_diff_check(graph, ws[:2]) == 0.0


def test_default_mask_softmax_is_the_plain_formula():
    # the unmasked softmax, exp(a - max) / sum, bit for bit along either axis
    x = np.random.default_rng(14).standard_normal((2, 3, 4, 7)) * 5.0
    for a in (x, np.swapaxes(x, -1, -2)):
        e = np.exp(a - a.max(axis=-1, keepdims=True))
        np.testing.assert_array_equal(ad.softmax_weights(a),
                                      e / e.sum(axis=-1, keepdims=True))


def test_masked_softmax_rows_sum_to_one_or_zero():
    before = ad.degenerate_softmax_rows()
    x = np.arange(12.0).reshape(3, 4)
    mask = np.array([
        [True, True, False, False],
        [False, False, False, False],
        [True, True, True, True],
    ])
    out = ad.softmax_weights(x, mask)
    sums = out.sum(axis=-1)
    assert abs(sums[0] - 1.0) < 1e-12
    assert sums[1] == 0.0  # fully masked row collapses to zeros, not NaN
    assert abs(sums[2] - 1.0) < 1e-12
    assert (out[0, 2:] == 0.0).all()
    assert ad.degenerate_softmax_rows() - before == 1


def test_non_finite_softmax_row_is_not_counted_as_masked(caplog):
    # an unmasked +inf or NaN score is an overflow, not masking: the row
    # comes out non-finite and uncounted; only the all-masked row counts
    before = ad.degenerate_softmax_rows()
    x = np.array([[1.0, np.inf, 0.0],
                  [np.nan, 1.0, 2.0],
                  [1.0, 2.0, 3.0]])
    mask = np.array([[True, True, False],
                     [True, True, True],
                     [False, False, False]])
    with caplog.at_level("WARNING", logger="platoonkit.autodiff"), \
            np.errstate(invalid="ignore"):
        out = ad.softmax_weights(x, mask)
    assert not np.isfinite(out[0]).all() and not np.isfinite(out[1]).all()
    assert (out[2] == 0.0).all()
    assert ad.degenerate_softmax_rows() - before == 1
    assert [r.getMessage() for r in caplog.records] == [
        "softmax_weights: 1 fully-masked rows produced zero weights"]


def test_infinite_softmax_score_raises_no_numpy_warning():
    # inf - inf in the max shift makes the row non-finite; the stage
    # boundary reports that, so numpy stays silent
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = ad.softmax_weights(np.array([[1.0, np.inf, 0.0]]))
    assert not np.isfinite(out).all()


def test_masked_softmax_gradient_matches_fd():
    # the softmax backward inside the fused attention layer, under a mask
    # that is not causal, for the queries and the memory
    rng = np.random.default_rng(3)
    x, m = rng.standard_normal((2, 3, 4)), rng.standard_normal((2, 5, 4))
    ws = [rng.standard_normal(s) for s in _ATTN_SHAPES]
    probe = rng.standard_normal((2, 3, 4))

    def graph(xv, mv):
        return _probe_sum(_attn(xv, mv, *ws, mask=_SOFTMAX_MASK), probe)

    assert ad.finite_diff_check(graph, [x, m]) < 1e-6


def test_tape_replay_bit_identical():
    rng = np.random.default_rng(11)
    cfg = _config()
    arrays = [rng.standard_normal((2, 3, 5, 4))] + [
        rng.standard_normal(s) for s in _stage_shapes(cfg, "tfl.")]

    def graph(*leaves):
        return _sum(_tfl(cfg, *leaves))

    out1, grads1 = _forward_backward(graph, arrays)
    out2, grads2 = _forward_backward(graph, arrays)
    assert np.array_equal(out1, out2)
    for g1, g2 in zip(grads1, grads2):
        assert np.array_equal(g1, g2)


def test_shared_subexpression_accumulates_once_per_path():
    # z = y + y + y with y = kl(x) = x*x/2 at a zero logvar: dz/dx = 3x; the
    # tape must visit y exactly once and pass all three paths through it.
    def graph(x):
        y = tr.kl_loss(x, np.zeros(1))
        return tr.total_loss(y, y, y, (1.0, 1.0), 1.0)

    _, grads = _forward_backward(graph, [np.array([2.0])])
    assert float(grads[0][0]) == 6.0
    tape = ad.Tape.trace(graph(ad.param(np.array([2.0]))))
    assert [n._op for n in tape.nodes] == ["tensor", "kl_loss", "total_loss"]


def test_unused_leaf_gets_zero_gradient():
    _, grads = _forward_backward(lambda x, y: _sum(x),
                                   [np.ones(3), np.ones(4)])
    assert np.array_equal(grads[1], np.zeros(4))


def test_shape_mismatch_names_both_operands():
    rng = np.random.default_rng(15)
    ws = [rng.standard_normal(s) for s in _ATTN_SHAPES]
    with pytest.raises(ad.ShapeMismatch) as exc:
        _attn(np.zeros((2, 3, 4)), np.zeros((2, 5, 6)), *ws)
    assert "(2, 3, 4)" in str(exc.value) and "(2, 5, 6)" in str(exc.value)


def test_nonfinite_rejected_at_boundary_and_inside():
    with pytest.raises(ad.NonFiniteValue):
        ad.as_tensor(np.array([1.0, np.inf]))
    # exp(1000) overflows inside the KL node
    with pytest.raises(ad.NonFiniteValue) as exc:
        tr.kl_loss(np.zeros(1), np.array([1000.0]))
    assert "kl_loss" in str(exc.value)


def test_finite_diff_step_bounds():
    with pytest.raises(ValueError):
        ad.finite_diff_check(lambda x: _sum(x), [np.ones(2)], step=1e-2)
    with pytest.raises(ValueError):
        ad.finite_diff_check(lambda x: _sum(x), [np.ones(2)], step=1e-9)


def test_layer_norm_statistics_and_gradient():
    # the attention layer ends in a layer norm: with unit gain and zero bias
    # its rows have zero mean and unit variance
    rng = np.random.default_rng(5)
    x = rng.standard_normal((3, 2, 4)) * 4.0 + 2.0
    ws = [rng.standard_normal(s) for s in _ATTN_SHAPES]
    ws[10], ws[11] = np.ones(4), np.zeros(4)
    out = _attn(x, x, *ws).data
    assert np.abs(out.mean(axis=-1)).max() < 1e-12
    assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-4  # eps shrinks var slightly
    weights = np.arange(24.0).reshape(3, 2, 4)

    def graph(g1, b1, g2, b2):
        layer = _attn(x, x, *ws[:4], g1, b1, *ws[6:10], g2, b2)
        return _probe_sum(layer, weights)

    assert ad.finite_diff_check(graph, [ws[4], ws[5], ws[10], ws[11]]) < 1e-6


def test_rms_norm_gradient():
    # the TFL block opens with an RMS norm: the gradient of its input and gain
    rng = np.random.default_rng(6)
    cfg = _config()
    x = rng.standard_normal((2, 5, 4)) + 0.5
    ws = [rng.standard_normal(s) for s in _stage_shapes(cfg, "tfl.")]
    probe = np.arange(40.0).reshape(2, 5, 4)

    def graph(xv, gv):
        return _probe_sum(_tfl(cfg, xv, gv, *ws[1:]), probe)

    assert ad.finite_diff_check(graph, [x, ws[0]]) < 1e-6


def _conv(x, w, b):
    """``network.causal_conv1d`` and its VJP as one node."""
    y, conv_vjp = net.causal_conv1d(x.data, w.data, b.data)

    def vjp(g):
        for t, grad in zip((x, w, b), conv_vjp(g)):
            ad.accumulate(t, grad)

    return ad.primitive(y, "causal_conv1d", (x, w, b), vjp)


def test_causal_conv_is_causal_and_correct():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((5, 3))
    w = rng.standard_normal((3, 4))
    b = rng.standard_normal(3)
    out = net.causal_conv1d(x, w, b)[0]

    # direct reference: y[t,c] = sum_i w[c,i] * x[t-K+1+i, c] + b[c]
    K = 4
    xp = np.vstack([np.zeros((K - 1, 3)), x])
    ref = np.zeros_like(x)
    for t in range(5):
        for c in range(3):
            ref[t, c] = (w[c] * xp[t:t + K, c]).sum() + b[c]
    assert np.abs(out - ref).max() < 1e-12

    # causality: perturbing x at t=3 leaves outputs at t<3 unchanged
    x2 = x.copy()
    x2[3] += 1.0
    out2 = net.causal_conv1d(x2, w, b)[0]
    assert np.array_equal(out[:3], out2[:3])
    assert not np.allclose(out[3:], out2[3:])

    weights = np.random.default_rng(99).standard_normal((5, 3))

    def graph(xv, wv, bv):
        return _probe_sum(_conv(xv, wv, bv), weights)

    assert ad.finite_diff_check(graph, [x, w, b]) < 1e-6


def test_causal_conv_matches_tap_order_and_rows():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((3, 2, 7, 5))
    w = rng.standard_normal((5, 4))
    b = rng.standard_normal(5)
    out, vjp = net.causal_conv1d(x, w, b)
    xp = np.concatenate([np.zeros((3, 2, 3, 5)), x], axis=-2)
    want = xp[..., 0:7, :] * w[:, 0]
    for i in range(1, 4):
        want = want + xp[..., i:i + 7, :] * w[:, i]
    np.testing.assert_array_equal(out, want + b)
    g = rng.standard_normal(out.shape)
    gx = vjp(g)[0]
    for row in range(3):
        y, row_vjp = net.causal_conv1d(x[row:row + 1], w, b)
        np.testing.assert_array_equal(y[0], out[row])
        np.testing.assert_array_equal(row_vjp(g[row:row + 1])[0][0], gx[row])


def test_graph_is_freed_without_the_cycle_collector():
    rng = np.random.default_rng(13)
    x = ad.param(rng.standard_normal((3, 4, 3)))
    gc.disable()
    try:
        inner = dyn.encode_parameters(x)
        probe = weakref.ref(inner)
        loss = _joint(inner[..., 0], inner[1:], inner)
        del inner
        loss.backward()
        assert probe() is None              # backward freed it; loss is held
        assert loss._parents == ()
    finally:
        gc.enable()
    assert x.grad is not None


def test_second_backward_through_a_graph_raises():
    x = ad.param(np.random.default_rng(14).standard_normal((3, 4, 3)))
    inner = dyn.encode_parameters(x)
    loss = _joint(inner[..., 0], inner[1:], inner)
    loss.backward()
    grad = x.grad.copy()
    with pytest.raises(ad.AutodiffError,
                       match="backward through a graph that was already "
                             "backpropagated"):
        loss.backward()
    # another output of the consumed graph fails loudly too, and neither
    # attempt adds a partial gradient to the leaf
    with pytest.raises(ad.AutodiffError, match="already backpropagated"):
        _joint(inner).backward()
    np.testing.assert_array_equal(x.grad, grad)


def test_constant_parents_are_not_recorded():
    w = ad.param(np.ones((3, 2)))
    out = _embed(np.ones((4, 3)))(w, ad.as_tensor(np.zeros(2)))
    assert out._parents == (w,)
    assert [n._op for n in ad.Tape.trace(out).nodes] == ["tensor", "embed"]


def test_storage_dtypes_keep_float32_constants_only():
    f32 = np.arange(3, dtype=np.float32)
    assert ad.Tensor(f32).data.dtype == np.float32
    for other in (np.arange(3), np.arange(3, dtype=np.float16), [1.0, 2.0], 2.5):
        assert ad.Tensor(other).data.dtype == np.float64
    # a leaf follows the same rule
    leaf = ad.param(f32)
    assert leaf.data.dtype == np.float32 and leaf.requires_grad
    np.testing.assert_array_equal(leaf.data, f32)
    for other in (np.arange(3), np.arange(3, dtype=np.float16), [1.0, 2.0], 2.5):
        leaf = ad.param(other)
        assert leaf.data.dtype == np.float64 and leaf.requires_grad


def test_a_float32_leaf_records_float32_nodes():
    # the tape computes in its leaves' dtype: a float32 leaf records a float32
    # node, and accumulate casts a float64 cotangent to the leaf's dtype
    x = ad.param(np.ones(3, np.float32))
    half = ad.primitive(x.data * 0.5, "halve", (x,),
                        lambda g: ad.accumulate(x, g * 0.5))
    assert half.data.dtype == np.float32 and half._parents == (x,)
    ad.Tape.trace(half).backward(np.full(3, 1.0 + 2.0 ** -40))
    assert x.grad.dtype == np.float32
    np.testing.assert_array_equal(x.grad, np.full(3, 0.5, np.float32))
    # a float64 leaf keeps its gradient in float64
    y = ad.param(np.ones(3))
    ad.accumulate(y, np.full(3, 1.0 + 2.0 ** -40))
    assert y.grad.dtype == np.float64 and y.grad[0] != 1.0
    # the same node on a constant is not recorded
    const = ad.primitive(np.ones(3, np.float32), "halve", (ad.Tensor(x.data),), None)
    assert const.data.dtype == np.float32 and const._parents == ()


def _sum3(a, b, c):
    return tr.total_loss(a, b, c, (1.0, 1.0), 1.0)


def test_slices_and_a_whole_read_sum_into_one_buffer(monkeypatch):
    # a parent read by two slices and whole, as memory is by FUL and NARP
    rng = np.random.default_rng(16)
    a = rng.standard_normal((3, 4))
    w0, w12 = rng.standard_normal(4), rng.standard_normal((2, 4))
    w_all = rng.standard_normal((3, 4))

    def graph(p):
        return _sum3(_probe_sum(p[0], w0), _probe_sum(p[1:], w12),
                     _probe_sum(p, w_all))

    _, grads = _forward_backward(graph, [a])
    want = w_all.copy()
    want[0] += w0
    want[1:] += w12
    np.testing.assert_array_equal(grads[0], want)
    assert ad.finite_diff_check(graph, [a]) < 1e-9

    # slices alone: one zero-filled buffer for the parent, not one per slice
    calls = []
    zeros_like = np.zeros_like
    monkeypatch.setattr(np, "zeros_like",
                        lambda x, *args, **kw: calls.append(x.shape)
                        or zeros_like(x, *args, **kw))
    p = ad.param(a)
    _sum3(_probe_sum(p[0], w0), _probe_sum(p[1:], w12),
          _probe_sum(p[:, 2], w_all[:, 0])).backward()
    assert calls == [(3, 4)]
    want = np.zeros((3, 4))
    want[0] += w0
    want[1:] += w12
    want[:, 2] += w_all[:, 0]
    np.testing.assert_array_equal(p.grad, want)


# -- every primitive against the finite-difference oracle ---------------------
# Spec contract: < 1e-4 relative error across 100 random shape/seed combos.
# Each row is a variant of a node the model records; data, noise and
# targets are constants, the rest are the leaves the oracle perturbs.

def _rand(rng, shape):
    return rng.standard_normal(shape)


def _pos(rng, shape):
    return rng.uniform(0.5, 2.0, shape)


def _neg(rng, shape):
    return -rng.uniform(0.5, 2.0, shape)


def _large(rng, shape):
    """|x| in [30, 60], where softplus is x or e^x to double precision."""
    return rng.choice([-1.0, 1.0], size=shape) * rng.uniform(30.0, 60.0, shape)


def _rollout_series(x0, lead, th, v_star, s_star):
    """Both rollout series, speeds and gaps, as one output."""
    r = dyn.rollout(x0, lead, th, dyn.ExpectedState(v_star, s_star))
    return _joint(r.v, r.s)


def _losses(v, s):
    return _joint(*tr.prediction_losses(SimpleNamespace(v=v, s=s), _TARGETS))


_FUL_SHAPES = _stage_shapes(_config(), "ful.")
_HEAD_SHAPES = [(4, 3), (3,)]

PRIMITIVE_CASES = [
    ("embed", _embed(_X_NORM), [_rand, _rand], [(3, 4), (4,)]),
    ("embed_unbatched", _embed(_X_NORM[0, 0]), [_rand, _rand], [(3, 2), (2,)]),
    _tfl_case("tfl", (2, 3)),
    _tfl_case("tfl_unbatched", ()),
    _tfl_case("tfl_history_shorter_than_kernel", (2,), history_len=2,
              conv_kernel=4),
    _tfl_case("tfl_kernel_1", (2,), conv_kernel=1),
    _tfl_case("tfl_three_states", (2,), n_state=3),
    ("ful_mean", _ful(None), [_rand] * 9, [(2, 3, 4)] + _FUL_SHAPES),
    ("ful_noise", _ful(_NOISE), [_rand] * 9, [(2, 3, 4)] + _FUL_SHAPES),
    ("pfl_position", _pfl, [_rand], [(2, 3, 4)]),
    ("pfl_single_vehicle", _pfl, [_rand], [(2, 1, 4)]),
    ("narp", _narp, [_rand] * 4, [(2, 3, 4), (2, 3, 5, 4)] + _HEAD_SHAPES),
    ("narp_unbatched", _narp, [_rand] * 4, [(4,), (5, 4)] + _HEAD_SHAPES),
    ("encode", dyn.encode_parameters, [_rand], [(2, 3, 2, 3)]),
    ("encode_unbatched", dyn.encode_parameters, [_rand], [(3,)]),
    ("encode_large_raw", dyn.encode_parameters, [_large], [(4, 3)]),
    ("prediction_losses", _losses, [_rand, _rand], [(2, 3, 4), (2, 3, 4)]),
    ("kl_loss", tr.kl_loss, [_rand, _rand], [(2, 3), (2, 3)]),
    ("total_loss", lambda a, b, c: tr.total_loss(a, b, c, (0.7, 1.3), 0.01),
     [_rand] * 3, [(), (), ()]),
    ("slice", lambda a: a[1:, ::2], [_rand], [(4, 6)]),
    # one parent read by two overlapping slices and whole
    ("slices_of_one_parent", lambda a: _joint(a[0], a[:, 1:], a), [_rand], [(3, 4)]),
    ("rollout", _rollout_series, [_rand] * 5,
     [(2, 3, 3), (2, 4), (2, 3, 2, 3), (2, 3), (3,)]),
    # every batch row behind one leader
    ("rollout_shared_leader", _rollout_series, [_rand] * 5,
     [(2, 3, 3), (4,), (2, 3, 2, 3), (2, 3), (2, 3)]),
    # platoon self-attention: one input for queries, keys and values
    ("attn_layer_self_causal", lambda x, *ws: _attn(x, x, *ws, mask=_CAUSAL_MASK),
     [_rand] * 13, [(2, 3, 4)] + _ATTN_SHAPES),
    # decoder cross-attention: 2 queries over 5 memory steps, no mask
    ("attn_layer_cross", lambda x, m, *ws: _attn(x, m, *ws),
     [_rand] * 14, [(2, 3, 2, 4), (2, 3, 5, 4)] + _ATTN_SHAPES),
    ("attn_layer_dead_query", lambda x, m, *ws: _attn(x, m, *ws, mask=_DEAD_QUERY_MASK),
     [_rand] * 14, [(2, 3, 4), (2, 5, 4)] + _ATTN_SHAPES),
]


def _scan(*leaves):
    """``network.selective_scan`` and its VJP as one node."""
    y, scan_vjp = net.selective_scan(*[t.data for t in leaves], keep_states=True)

    def vjp(g):
        for t, grad in zip(leaves, scan_vjp(g)):
            ad.accumulate(t, grad)

    return ad.primitive(y, "selective_scan", leaves, vjp)


# the numpy kernels inside the TFL node, each wrapped as a node of its own
KERNEL_CASES = [
    ("causal_conv1d", _conv, [_rand] * 3, [(6, 3), (3, 4), (3,)]),
    ("selective_scan", _scan, [_rand, _pos, _neg, _rand, _rand, _rand],
     [(2, 5, 3), (2, 5, 3), (3, 2), (2, 5, 2), (2, 5, 2), (3,)]),
]


def _case_rng(name: str, seed: int):
    """Generator for one finite-difference row; the same in every process."""
    return np.random.default_rng(zlib.crc32(f"{name}:{seed}".encode()))


@pytest.mark.parametrize("name,op,makers,shapes", PRIMITIVE_CASES + KERNEL_CASES,
                         ids=[c[0] for c in PRIMITIVE_CASES + KERNEL_CASES])
def test_primitive_gradients_match_finite_differences(name, op, makers, shapes):
    for seed in range(4):
        rng = _case_rng(name, seed)
        arrays = [mk(rng, sh) for mk, sh in zip(makers, shapes)]
        probe = rng.standard_normal(op(*[ad.as_tensor(a) for a in arrays]).data.shape)

        def graph(*leaves):
            return _probe_sum(op(*leaves), probe)

        err = ad.finite_diff_check(graph, arrays, step=1e-6)
        assert err < 1e-4, f"{name} seed {seed}: rel err {err}"


def test_primitive_case_draws_do_not_depend_on_hash_seed():
    # every row's inputs, drawn in a fresh process under two string-hash seeds
    tests_dir = Path(__file__).resolve().parent
    script = (
        "import hashlib, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import test_autodiff as t\n"
        "digest = hashlib.sha256()\n"
        "for name, op, makers, shapes in t.PRIMITIVE_CASES:\n"
        "    for seed in range(4):\n"
        "        rng = t._case_rng(name, seed)\n"
        "        for mk, sh in zip(makers, shapes):\n"
        "            digest.update(mk(rng, sh).tobytes())\n"
        "print(digest.hexdigest())\n")
    path = os.pathsep.join([str(tests_dir.parent / "src"),
                            os.environ.get("PYTHONPATH", "")])
    digests = {
        subprocess.run([sys.executable, "-c", script, str(tests_dir)],
                       env=dict(os.environ, PYTHONHASHSEED=hash_seed,
                                PYTHONPATH=path),
                       capture_output=True, text=True, check=True).stdout
        for hash_seed in ("1", "2")}
    assert len(digests) == 1


def test_primitive_case_count_covers_contract():
    # 26 primitive variants x 4 seeds >= 100 randomized oracle comparisons
    assert len(PRIMITIVE_CASES) * 4 >= 100


def _recorded_ops(tape):
    """Ops of the nodes on ``tape`` that carry a VJP."""
    return {n._op for n in tape.nodes if n._vjp is not None}


def test_primitive_cases_match_the_ops_of_a_training_step(monkeypatch):
    # Every op a training step records needs a finite-difference row, and
    # every row needs a caller in the model; ``sum`` only scalarises the rows.
    from platoonkit import data, training
    tapes = []
    trace = ad.Tape.trace.__func__

    def spy(cls, root):
        tapes.append(trace(cls, root))
        return tapes[-1]

    monkeypatch.setattr(ad.Tape, "trace", classmethod(spy))
    cfg = net.desk_config()
    windows = data.extract_windows(
        data.generate_synthetic_platoons(2, n_followers=2, duration_s=1.5,
                                         seed=3),
        cfg.history_len, cfg.horizon, 5)
    params = net.init_params(cfg)
    params.norm_mean, params.norm_std = net.fit_normalization(windows)
    training.train(params, cfg, windows, windows,
                   training.TrainConfig(epochs=1,
                                        batch_size=data.window_count(windows)))
    assert len(tapes) == 1
    model_ops = _recorded_ops(tapes[0])

    rng = np.random.default_rng(0)
    row_ops = {}
    for name, op, makers, shapes in PRIMITIVE_CASES:
        leaves = [ad.param(mk(rng, sh)) for mk, sh in zip(makers, shapes)]
        row_ops[name] = _recorded_ops(ad.Tape.trace(op(*leaves)))
    covered = set().union(*row_ops.values())
    assert model_ops - covered == set(), "model ops without a row"
    uncalled = {name: ops - model_ops - {"sum"} for name, ops in row_ops.items()}
    assert {name: ops for name, ops in uncalled.items() if ops} == {}
