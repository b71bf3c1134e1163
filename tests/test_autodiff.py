"""Autodiff engine: frozen hand values, finite-difference oracle, tape rules."""

import gc
import math
import os
import subprocess
import sys
import weakref
import zlib
from pathlib import Path

import numpy as np
import pytest

from platoonkit import autodiff as ad
from platoonkit import dynamics as dyn
from platoonkit import network as net


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


def _attn(x, m, *weights, mask=True):
    """``network._attn_layer`` on queries x over memory m (x itself when m is x)."""
    w = {f"a.{name}": t for name, t in zip(net._ATTN_WEIGHTS, weights)}
    return net._attn_layer(w, "a", x, m, 2, mask)


def test_square_scalar_forward_backward():
    # d(x*x)/dx at 3 is 6; frozen hand value.
    outputs, grads = ad.forward_backward(lambda x: ad.mul(x, x), [np.array(3.0)])
    assert float(outputs) == 9.0
    assert float(grads[0]) == 6.0


def test_softplus_zero_value_and_gradient():
    # softplus(0) = ln 2, gradient = sigmoid(0) = 0.5; frozen hand values.
    outputs, grads = ad.forward_backward(lambda x: ad.softplus(x), [np.array(0.0)])
    assert abs(float(outputs) - math.log(2.0)) < 1e-12
    assert abs(float(outputs) - 0.693147) < 1e-6
    assert abs(float(grads[0]) - 0.5) < 1e-12


def test_matmul_finite_difference():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2))
    err = ad.finite_diff_check(lambda x, y: ad.tsum(ad.matmul(x, y)), [a, b], step=1e-6)
    assert err < 1e-5


def test_softmax_of_single_element():
    # Weight exactly 1. Attention over a single key is constant in the scores,
    # so the query and key weights get exactly zero gradient and zero FD error.
    assert ad.softmax_weights(np.array([2.5])).tolist() == [1.0]
    rng = np.random.default_rng(4)
    x, m = rng.standard_normal((2, 3, 4)), rng.standard_normal((2, 1, 4))
    ws = [rng.standard_normal(s) for s in _ATTN_SHAPES]

    def graph(wq, wk):
        return ad.tsum(_attn(x, m, wq, wk, *ws[2:]))

    _, grads = ad.forward_backward(graph, ws[:2])
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


def test_masked_softmax_gradient_matches_fd():
    # the softmax backward inside the fused attention layer, under a mask
    # that is not causal, for the queries and the memory
    rng = np.random.default_rng(3)
    x, m = rng.standard_normal((2, 3, 4)), rng.standard_normal((2, 5, 4))
    ws = [rng.standard_normal(s) for s in _ATTN_SHAPES]
    probe = rng.standard_normal((2, 3, 4))

    def graph(xv, mv):
        return ad.tsum(ad.mul(_attn(xv, mv, *ws, mask=_SOFTMAX_MASK), probe))

    assert ad.finite_diff_check(graph, [x, m]) < 1e-6


def test_tape_replay_bit_identical():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((4, 3))
    w = rng.standard_normal((3, 2))

    def graph(xv, wv):
        return ad.tsum(ad.silu(ad.matmul(xv, wv)))

    out1, grads1 = ad.forward_backward(graph, [x, w])
    out2, grads2 = ad.forward_backward(graph, [x, w])
    assert np.array_equal(out1, out2)
    for g1, g2 in zip(grads1, grads2):
        assert np.array_equal(g1, g2)


def test_shared_subexpression_accumulates_once_per_path():
    # z = y + y with y = x*x: dz/dx = 4x; tape must visit y exactly once.
    _, grads = ad.forward_backward(
        lambda x: ad.add(ad.mul(x, x), ad.mul(x, x)), [np.array(2.0)])
    assert float(grads[0]) == 8.0

    def graph(x):
        y = ad.mul(x, x)
        return ad.add(y, y)

    _, grads = ad.forward_backward(graph, [np.array(2.0)])
    assert float(grads[0]) == 8.0


def test_unused_leaf_gets_zero_gradient():
    _, grads = ad.forward_backward(lambda x, y: ad.tsum(ad.mul(x, x)),
                                   [np.ones(3), np.ones(4)])
    assert np.array_equal(grads[1], np.zeros(4))


def test_shape_mismatch_names_both_operands():
    with pytest.raises(ad.ShapeMismatch) as exc:
        ad.add(ad.as_tensor(np.zeros((2, 3))), ad.as_tensor(np.zeros((4, 5))))
    assert "(2, 3)" in str(exc.value) and "(4, 5)" in str(exc.value)
    with pytest.raises(ad.ShapeMismatch) as exc:
        ad.matmul(ad.as_tensor(np.zeros((2, 3))), ad.as_tensor(np.zeros((5, 2))))
    assert "matmul" in str(exc.value)


def test_nonfinite_rejected_at_boundary_and_inside():
    with pytest.raises(ad.NonFiniteValue):
        ad.as_tensor(np.array([1.0, np.inf]))
    with pytest.raises(ad.NonFiniteValue) as exc:
        ad.exp(ad.as_tensor(np.array(1000.0)))
    assert "exp" in str(exc.value)


def test_finite_diff_step_bounds():
    with pytest.raises(ValueError):
        ad.finite_diff_check(lambda x: ad.tsum(x), [np.ones(2)], step=1e-2)
    with pytest.raises(ValueError):
        ad.finite_diff_check(lambda x: ad.tsum(x), [np.ones(2)], step=1e-9)


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
        return ad.tsum(ad.mul(layer, weights))

    assert ad.finite_diff_check(graph, [ws[4], ws[5], ws[10], ws[11]]) < 1e-6


def test_rms_norm_gradient():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((2, 6)) + 0.5
    g = rng.standard_normal(6)

    def graph(xv, gv):
        return ad.tsum(ad.mul(ad.rms_norm(xv, gv), np.arange(12.0).reshape(2, 6)))

    assert ad.finite_diff_check(graph, [x, g]) < 1e-6


def test_causal_conv_is_causal_and_correct():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((5, 3))
    w = rng.standard_normal((3, 4))
    b = rng.standard_normal(3)
    out = ad.causal_conv1d(ad.as_tensor(x), ad.as_tensor(w), ad.as_tensor(b)).data

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
    out2 = ad.causal_conv1d(ad.as_tensor(x2), ad.as_tensor(w), ad.as_tensor(b)).data
    assert np.array_equal(out[:3], out2[:3])
    assert not np.allclose(out[3:], out2[3:])

    weights = np.random.default_rng(99).standard_normal((5, 3))

    def graph(xv, wv, bv):
        return ad.tsum(ad.mul(ad.causal_conv1d(xv, wv, bv), weights))

    assert ad.finite_diff_check(graph, [x, w, b]) < 1e-6


def test_causal_conv_matches_tap_order_and_rows():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((3, 2, 7, 5))
    w = rng.standard_normal((5, 4))
    b = rng.standard_normal(5)
    out = ad.causal_conv1d(ad.param(x), ad.param(w), ad.param(b))
    xp = np.concatenate([np.zeros((3, 2, 3, 5)), x], axis=-2)
    want = xp[..., 0:7, :] * w[:, 0]
    for i in range(1, 4):
        want = want + xp[..., i:i + 7, :] * w[:, i]
    np.testing.assert_array_equal(out.data, want + b)
    g = rng.standard_normal(out.shape)
    xt = ad.param(x)
    ad.causal_conv1d(xt, w, b).backward(g)
    for row in range(3):
        single = ad.param(x[row:row + 1])
        y = ad.causal_conv1d(single, w, b)
        y.backward(g[row:row + 1])
        np.testing.assert_array_equal(y.data[0], out.data[row])
        np.testing.assert_array_equal(single.grad[0], xt.grad[row])


def test_graph_is_freed_without_the_cycle_collector():
    rng = np.random.default_rng(13)
    x = ad.param(rng.standard_normal((3, 4)))
    gc.disable()
    try:
        inner = ad.exp(ad.silu(ad.matmul(x, rng.standard_normal((4, 2)))))
        probe = weakref.ref(inner)
        loss = ad.tsum(ad.mul(inner, ad.silu(inner)))
        del inner
        loss.backward()
        assert probe() is not None          # the loss still holds its graph
        del loss
        assert probe() is None
    finally:
        gc.enable()
    assert x.grad is not None


def test_no_grad_blocks_recording():
    with ad.no_grad():
        out = ad.mul(ad.param(np.ones(3)), 2.0)
    assert out._vjp is None and not out.requires_grad


# -- every primitive against the finite-difference oracle ---------------------
# Spec contract: < 1e-4 relative error across 100 random shape/seed combos.

def _rand(rng, shape):
    return rng.standard_normal(shape)


def _pos(rng, shape):
    return rng.uniform(0.5, 2.0, shape)


def _neg(rng, shape):
    return -rng.uniform(0.5, 2.0, shape)


def _away_from_zero(rng, shape):
    x = rng.standard_normal(shape)
    return x + np.sign(x) * 0.2


def _rollout_series(x0, lead, th, v_star, s_star):
    """All four rollout series, weighted differently, as one output."""
    r = dyn.rollout(x0, lead, th, dyn.ExpectedState(v_star, s_star))
    return ad.add(ad.add(r.v, ad.mul(r.s, 0.5)),
                  ad.add(ad.mul(r.a, 2.0), ad.mul(r.dv, -1.5)))


PRIMITIVE_CASES = [
    ("add", lambda a, b: ad.add(a, b), [_rand, _rand], [(3, 4), (3, 4)]),
    ("add_broadcast", lambda a, b: ad.add(a, b), [_rand, _rand], [(2, 3, 4), (4,)]),
    ("sub", lambda a, b: ad.sub(a, b), [_rand, _rand], [(5,), (5,)]),
    ("mul", lambda a, b: ad.mul(a, b), [_rand, _rand], [(2, 4), (2, 4)]),
    ("mul_broadcast", lambda a, b: ad.mul(a, b), [_rand, _rand], [(3, 1, 4), (2, 4)]),
    ("neg", lambda a: ad.neg(a), [_rand], [(4, 2)]),
    ("power", lambda a: ad.power(a, 3), [_rand], [(3, 3)]),
    ("matmul", lambda a, b: ad.matmul(a, b), [_rand, _rand], [(3, 4), (4, 2)]),
    ("matmul_batched", lambda a, b: ad.matmul(a, b), [_rand, _rand], [(2, 3, 4), (4, 2)]),
    ("matmul_both_batched", lambda a, b: ad.matmul(a, b), [_rand, _rand],
     [(2, 3, 4), (2, 4, 2)]),
    ("exp", lambda a: ad.exp(a), [_rand], [(3, 2)]),
    ("softplus", lambda a: ad.softplus(a), [_rand], [(4, 3)]),
    ("silu", lambda a: ad.silu(a), [_rand], [(2, 5)]),
    ("relu", lambda a: ad.relu(a), [_away_from_zero], [(4, 4)]),
    ("sum_axis", lambda a: ad.tsum(a, axis=1), [_rand], [(3, 4, 2)]),
    ("mean_axis", lambda a: ad.tmean(a, axis=-1), [_rand], [(2, 6)]),
    ("reshape", lambda a: ad.reshape(a, (6, 2)), [_rand], [(3, 4)]),
    ("slice", lambda a: a[1:, ::2], [_rand], [(4, 6)]),
    ("rms_norm", lambda x, g: ad.rms_norm(x, g), [_rand, _rand], [(2, 5), (5,)]),
    ("causal_conv1d", lambda x, w, b: ad.causal_conv1d(x, w, b), [_rand, _rand, _rand],
     [(6, 3), (3, 4), (3,)]),
    ("selective_scan", lambda u, dt, a, b, c, d: net.selective_scan(u, dt, a, b, c, d),
     [_rand, _pos, _neg, _rand, _rand, _rand],
     [(2, 5, 3), (2, 5, 3), (3, 2), (2, 5, 2), (2, 5, 2), (3,)]),
    ("rollout", lambda x0, lead, th, vs, ss: _rollout_series(x0, lead, th, vs, ss),
     [_rand, _rand, _rand, _rand, _rand], [(2, 3, 3), (2, 4), (2, 3, 2, 3), (2, 3), (3,)]),
    # platoon self-attention: one input for queries, keys and values
    ("attn_layer_self_causal", lambda x, *ws: _attn(x, x, *ws, mask=_CAUSAL_MASK),
     [_rand] * 13, [(2, 3, 4)] + _ATTN_SHAPES),
    # decoder cross-attention: 2 queries over 5 memory steps, no mask
    ("attn_layer_cross", lambda x, m, *ws: _attn(x, m, *ws),
     [_rand] * 14, [(2, 3, 2, 4), (2, 3, 5, 4)] + _ATTN_SHAPES),
    ("attn_layer_dead_query", lambda x, m, *ws: _attn(x, m, *ws, mask=_DEAD_QUERY_MASK),
     [_rand] * 14, [(2, 3, 4), (2, 5, 4)] + _ATTN_SHAPES),
]


def _case_rng(name: str, seed: int):
    """Generator for one finite-difference row; the same in every process."""
    return np.random.default_rng(zlib.crc32(f"{name}:{seed}".encode()))


@pytest.mark.parametrize("name,op,makers,shapes", PRIMITIVE_CASES,
                         ids=[c[0] for c in PRIMITIVE_CASES])
def test_primitive_gradients_match_finite_differences(name, op, makers, shapes):
    for seed in range(4):
        rng = _case_rng(name, seed)
        arrays = [mk(rng, sh) for mk, sh in zip(makers, shapes)]
        probe = rng.standard_normal(op(*[ad.as_tensor(a) for a in arrays]).data.shape)

        def graph(*leaves):
            return ad.tsum(ad.mul(op(*leaves), probe))

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
    windows = [w for rec in data.generate_synthetic_platoons(
                   2, n_followers=2, duration_s=1.5, seed=3)
               for w in data.extract_windows(rec, cfg.history_len, cfg.horizon, 5)]
    params = net.init_params(cfg)
    params.norm_mean, params.norm_std = net.fit_normalization(windows)
    training.train(params, cfg, windows, windows,
                   training.TrainConfig(epochs=1, batch_size=len(windows)))
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
