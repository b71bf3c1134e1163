"""Tests for the neural pipeline stages and the full forward pass."""

import logging
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from platoonkit import autodiff as ad
from platoonkit import network as net


def _tiny_config(**over):
    base = dict(d_model=4, n_state=2, conv_kernel=4, ve_hidden=4,
                attn_layers=1, attn_heads=2, history_len=4, horizon=2,
                param_window=1)
    base.update(over)
    return net.ModelConfig(**base)


def _window_batch(cfg, rng, batch=2, n_veh=3):
    hist = np.empty((batch, n_veh, cfg.history_len, 3))
    hist[..., 0] = rng.uniform(8.0, 15.0, hist.shape[:-1])
    hist[..., 1] = rng.uniform(10.0, 30.0, hist.shape[:-1])
    hist[..., 2] = rng.uniform(-1.0, 1.0, hist.shape[:-1])
    lead = rng.uniform(8.0, 15.0, (batch, cfg.horizon))
    return hist, lead


class TestConfig:
    def test_defaults_are_consistent(self):
        cfg = net.ModelConfig()
        assert cfg.d_model == 64 and cfg.n_state == 8
        assert cfg.history_len == 21 and cfg.horizon == 20
        assert cfg.n_param_steps == 4 and cfg.d_inner == 128

    def test_horizon_must_divide(self):
        with pytest.raises(ValueError, match="multiple"):
            net.ModelConfig(horizon=20, param_window=3)

    def test_heads_must_divide(self):
        with pytest.raises(ValueError, match="heads"):
            net.ModelConfig(d_model=10, attn_heads=4)

    def test_positive_fields(self):
        with pytest.raises(ValueError, match="n_state"):
            net.ModelConfig(n_state=0)


class TestInit:
    def test_deterministic_and_quantized(self):
        cfg = _tiny_config()
        p1 = net.init_params(cfg, seed=3)
        p2 = net.init_params(cfg, seed=3)
        for k in p1.weights:
            a = p1.weights[k].data
            np.testing.assert_array_equal(a, p2.weights[k].data)
            np.testing.assert_array_equal(a, a.astype(np.float32).astype(np.float64))

    def test_seed_changes_draws(self):
        cfg = _tiny_config()
        p1 = net.init_params(cfg, seed=0)
        p2 = net.init_params(cfg, seed=1)
        assert not np.array_equal(p1.weights["embed.w"].data,
                                  p2.weights["embed.w"].data)

    def test_structured_initial_values(self):
        cfg = _tiny_config()
        p = net.init_params(cfg, seed=0)
        want = np.tile(np.log(np.arange(1.0, cfg.n_state + 1.0)), (cfg.d_inner, 1))
        np.testing.assert_allclose(p.weights["tfl.a_log"].data,
                                   want.astype(np.float32), rtol=0, atol=1e-7)
        np.testing.assert_array_equal(p.weights["tfl.d"].data, np.ones(cfg.d_inner))
        # softplus of the dt bias must land in the documented band
        dt0 = np.logaddexp(0.0, p.weights["tfl.dt_proj.b"].data)
        assert (dt0 > 0.9e-3).all() and (dt0 < 1.1e-1).all()

    def test_count_parameters(self):
        cfg = _tiny_config()
        p = net.init_params(cfg)
        assert net.count_parameters(p) == sum(
            t.data.size for t in p.weights.values())


class TestSinusoidalEncoding:
    def test_first_row_and_shape(self):
        enc = net.sinusoidal_encoding(5, 8)
        assert enc.shape == (5, 8)
        np.testing.assert_allclose(enc[0], [0, 1, 0, 1, 0, 1, 0, 1], atol=1e-15)
        assert enc[1, 0] == pytest.approx(math.sin(1.0), abs=1e-15)
        assert enc[1, 1] == pytest.approx(math.cos(1.0), abs=1e-15)

    def test_cache_returns_readonly(self):
        enc = net.sinusoidal_encoding(3, 4)
        assert enc is net.sinusoidal_encoding(3, 4)
        assert not enc.flags.writeable


class TestSelectiveScan:
    def test_hand_computed_two_steps(self):
        # A=-1, delta=ln2 everywhere: decay exp(-ln2)=0.5, inject ln2*u.
        ln2 = math.log(2.0)
        u = np.ones((2, 1))
        delta = np.full((2, 1), ln2)
        a_mat = np.array([[-1.0]])
        b_seq = np.ones((2, 1))
        c_seq = np.ones((2, 1))
        d_gain = np.zeros(1)
        y = net.selective_scan(u, delta, a_mat, b_seq, c_seq, d_gain)[0]
        assert y[0, 0] == pytest.approx(ln2, abs=1e-12)
        assert y[1, 0] == pytest.approx(1.5 * ln2, abs=1e-12)

    def test_zero_delta_passes_through_d(self):
        rng = np.random.default_rng(0)
        u = rng.normal(size=(1, 2, 5, 3))
        delta = np.zeros_like(u)
        a_mat = rng.normal(size=(3, 4))
        b_seq = rng.normal(size=(1, 2, 5, 4))
        c_seq = rng.normal(size=(1, 2, 5, 4))
        d_gain = rng.normal(size=3)
        y = net.selective_scan(u, delta, a_mat, b_seq, c_seq, d_gain)[0]
        np.testing.assert_allclose(y, d_gain * u, rtol=0, atol=1e-15)


def _scan_inputs(rng, batch, T, C, S):
    u = rng.normal(size=batch + (T, C))
    delta = np.logaddexp(0.0, rng.normal(size=batch + (T, C)) - 2.0)
    a_mat = -np.exp(rng.normal(size=(C, S)))
    b_seq = rng.normal(size=batch + (T, S))
    c_seq = rng.normal(size=batch + (T, S))
    d_gain = rng.normal(size=C)
    return [u, delta, a_mat, b_seq, c_seq, d_gain]


def _reference_scan(u, delta, a_mat, b_seq, c_seq, d_gain):
    """Per-step numpy loop in the operation order of the recurrence."""
    ys, h = [], None
    for t in range(u.shape[-2]):
        dt_e = delta[..., t, :, None]
        inject = (dt_e * u[..., t, :, None]) * b_seq[..., t, None, :]
        h = inject if h is None else np.exp(dt_e * a_mat) * h + inject
        ys.append((h * c_seq[..., t, None, :]).sum(axis=-1) + d_gain * u[..., t, :])
    return np.stack(ys, axis=-2)


def _assert_bits(got, want):
    """Bit-for-bit equality; unlike assert_array_equal, tells -0.0 from +0.0."""
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def _block_rows(S, C=128):
    return max(1, net._SCAN_BLOCK // (S * C))


_BLOCK = _block_rows(8)


def _scan_both_ways(arrays):
    """Scan output without the state history, and with it (as for the VJP)."""
    plain, none = net.selective_scan(*arrays)
    kept, vjp = net.selective_scan(*arrays, keep_states=True)
    assert none is None and callable(vjp)
    return plain, kept


def _scan_node(*leaves):
    """The scan kernel and its VJP as one node."""
    y, scan_vjp = net.selective_scan(*[t.data for t in leaves], keep_states=True)

    def vjp(g):
        for t, grad in zip(leaves, scan_vjp(g)):
            ad.accumulate(t, grad)

    return ad.primitive(y, "selective_scan", leaves, vjp)


def _scan_grads(arrays, g):
    """Output and input gradients of the scan kernel for output gradient g."""
    y, vjp = net.selective_scan(*arrays, keep_states=True)
    return y, vjp(g)


def _probe_sum(t, probe):
    """sum(t * probe) as one node: the scalar a finite-difference check compares."""
    def vjp(g):
        ad.accumulate(t, g * probe)

    return ad.primitive(np.sum(t.data * probe), "sum", (t,), vjp)


class TestFusedScan:
    def test_matches_per_step_reference_bitwise(self):
        arrays = _scan_inputs(np.random.default_rng(4), (2, 3), 21, 16, 8)
        want = _reference_scan(*arrays)
        for got in _scan_both_ways(arrays):
            np.testing.assert_array_equal(got, want)

    def test_one_tape_node(self):
        # the scan is a kernel inside the TFL block, which is one node
        cfg = _tiny_config()
        w = net.init_params(cfg, seed=0).weights
        x = ad.param(np.random.default_rng(0).normal(size=(2, 3, 4, cfg.d_model)))
        tape = ad.Tape.trace(net.tfl_forward(w, cfg, x))
        assert [n._op for n in tape.nodes if n._vjp is not None] == ["tfl"]

    def test_gradients_match_finite_differences(self):
        arrays = _scan_inputs(np.random.default_rng(5), (2, 2), 4, 3, 2)
        probe = np.random.default_rng(6).normal(size=(2, 2, 4, 3))

        def graph(*leaves):
            return _probe_sum(_scan_node(*leaves), probe)

        assert ad.finite_diff_check(graph, arrays) < 1e-6

    @pytest.mark.parametrize("S", list(range(1, 21)) + [127, 128, 129, 300])
    def test_state_sum_keeps_numpy_summation_order(self, S):
        # mixed signs over 40 decades, where any change of order shows; a
        # numpy release that changes its pairwise order fails here first
        rng = np.random.default_rng(S)
        rows, C = 3, 16
        p = (rng.choice([-1.0, 1.0], size=(rows, S, C))
             * 10.0 ** rng.uniform(-20.0, 20.0, size=(rows, S, C)))
        want = np.ascontiguousarray(np.swapaxes(p, -1, -2)).sum(axis=-1)
        got = net._sum_states(p.copy())
        _assert_bits(0.0 + got, want)

    def test_batch_rows_match_single_runs(self):
        arrays = _scan_inputs(np.random.default_rng(7), (3, 2), 8, 6, 4)
        g = np.random.default_rng(8).normal(size=(3, 2, 8, 6))
        whole, grads = _scan_grads(arrays, g)
        batched = {0, 1, 3, 4}                  # u, delta, B, C carry rows
        for row in range(3):
            single = [a[row:row + 1] if i in batched else a
                      for i, a in enumerate(arrays)]
            y, row_grads = _scan_grads(single, g[row:row + 1])
            np.testing.assert_array_equal(y[0], whole[row])
            for i in batched:
                np.testing.assert_array_equal(row_grads[i][0], grads[i][row])

    # one row, one block - 1, one block and one block + 1; then 2.5 blocks at
    # each state size, so every size also crosses block boundaries
    @pytest.mark.parametrize(
        "S,rows", [(8, 1), (8, _BLOCK - 1), (8, _BLOCK), (8, _BLOCK + 1)]
        + [(S, 5 * _block_rows(S) // 2) for S in (1, 2, 7, 8, 9, 16, 17)])
    def test_row_blocks_match_reference_bitwise(self, S, rows):
        arrays = _scan_inputs(np.random.default_rng(1000 * S + rows), (rows,), 3, 128, S)
        want = _reference_scan(*arrays)
        for got in _scan_both_ways(arrays):
            _assert_bits(got, want)

    def test_signed_zero_sums_match_reference_bitwise(self):
        # u = -0.0 at t=0 makes every product C_t h a -0.0, and D u a -0.0
        arrays = _scan_inputs(np.random.default_rng(11), (60,), 3, 128, 8)
        u, _, _, b_seq, c_seq, d_gain = arrays
        u[:, 0] = -0.0
        b_seq[:, 0] = np.abs(b_seq[:, 0])
        c_seq[:, 0] = np.abs(c_seq[:, 0])
        d_gain[:] = np.abs(d_gain)
        want = _reference_scan(*arrays)
        assert not np.signbit(want[:, 0]).any()
        for got in _scan_both_ways(arrays):
            _assert_bits(got, want)

    def test_rows_in_other_blocks_match_solo_runs(self):
        C, S, T = 128, 8, 4
        rows = 5 * _BLOCK // 2
        arrays = _scan_inputs(np.random.default_rng(12), (rows,), T, C, S)
        g = np.random.default_rng(13).normal(size=(rows, T, C))
        batched = {0, 1, 3, 4}                  # u, delta, B, C carry rows
        whole = net.selective_scan(*arrays)[0]
        for row in (0, _BLOCK - 1, _BLOCK, rows - 1):
            only = np.zeros_like(g)
            only[row] = g[row]
            _, grads = _scan_grads(arrays, only)
            single = [a[row:row + 1] if i in batched else a
                      for i, a in enumerate(arrays)]
            y, solo = _scan_grads(single, g[row:row + 1])
            _assert_bits(y[0], whole[row])
            for i in range(6):
                _assert_bits(solo[i][0] if i in batched else solo[i],
                             grads[i][row] if i in batched else grads[i])

    def test_no_grad_keeps_no_state_history(self):
        batch, T, C, S = (4, 3), 21, 32, 8
        arrays = _scan_inputs(np.random.default_rng(9), batch, T, C, S)
        history_bytes = 8 * math.prod(batch + (T, C, S))
        tracemalloc.start()
        try:
            net.selective_scan(*arrays)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < history_bytes
        # scratch memory is bounded by one row block, not by the batch: at
        # six blocks of rows it stays below one full-batch (S, C) state
        C, T = 128, 4
        rows = 6 * _BLOCK
        arrays = _scan_inputs(np.random.default_rng(10), (rows,), T, C, S)
        tracemalloc.start()
        try:
            y = net.selective_scan(*arrays)[0]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - y.nbytes < 8 * rows * S * C


class TestTemporalBlock:
    def test_causal_in_time(self):
        cfg = _tiny_config(history_len=6)
        p = net.init_params(cfg, seed=1)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 2, 6, cfg.d_model))
        x2 = x.copy()
        x2[..., -1, :] += 1.0
        y1 = net.tfl_forward(p.weights, cfg, x).data
        y2 = net.tfl_forward(p.weights, cfg, x2).data
        np.testing.assert_array_equal(y1[..., :-1, :], y2[..., :-1, :])
        assert not np.array_equal(y1[..., -1, :], y2[..., -1, :])

    def test_vehicles_are_independent(self):
        cfg = _tiny_config()
        p = net.init_params(cfg, seed=1)
        rng = np.random.default_rng(3)
        row = rng.normal(size=(1, 1, cfg.history_len, cfg.d_model))
        x = np.tile(row, (1, 3, 1, 1))
        y = net.tfl_forward(p.weights, cfg, x).data
        np.testing.assert_array_equal(y[0, 0], y[0, 1])
        np.testing.assert_array_equal(y[0, 0], y[0, 2])

    def test_non_finite_output_is_reported_once_by_the_stage(self):
        # a huge gate and output projection overflow after the scan: the
        # stage boundary names 'tfl', and numpy raises no warning first
        cfg = _tiny_config()
        w = dict(net.init_params(cfg, seed=1).weights)
        w_in = w["tfl.in_proj.w"].data.copy()
        w_in[:, cfg.d_inner:] *= 1e200
        w["tfl.in_proj.w"] = w_in
        w["tfl.out_proj.w"] = w["tfl.out_proj.w"].data * 1e200
        x = np.random.default_rng(4).normal(size=(1, 2, cfg.history_len,
                                                  cfg.d_model))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ad.NonFiniteValue, match="'tfl'"):
                net.tfl_forward(w, cfg, x)


def _composed_tfl_forward(w, cfg, x):
    """Oracle: the TFL block as the composition the fused node replaced, one
    numpy expression per former tape node, in the order they ran, with the
    per-step reference scan."""
    def wd(name):
        return w[f"tfl.{name}"].data

    def silu(a):
        return a * (1.0 / (1.0 + np.exp(-a)))

    di, r, n, K = cfg.d_inner, cfg.dt_rank, cfg.n_state, cfg.conv_kernel
    inv = ((x * x).mean(axis=-1, keepdims=True) + np.asarray(1e-5)) ** -0.5
    proj = ((x * inv) * wd("norm.g")) @ wd("in_proj.w")
    xs, gate = proj[..., :di], proj[..., di:]
    T = x.shape[-2]
    xp = np.zeros(x.shape[:-2] + (K - 1 + T, di))
    xp[..., K - 1:, :] = xs
    conv = xp[..., :T, :] * wd("conv.w")[:, 0]
    for i in range(1, K):
        conv += xp[..., i:i + T, :] * wd("conv.w")[:, i]
    conv += wd("conv.b")
    xs = silu(conv)
    x_dbl = xs @ wd("x_proj.w")
    delta = np.logaddexp(0.0, (x_dbl[..., :r] @ wd("dt_proj.w")) + wd("dt_proj.b"))
    a_mat = -np.exp(wd("a_log"))
    y = _reference_scan(xs, delta, a_mat, x_dbl[..., r:r + n], x_dbl[..., r + n:],
                        wd("d"))
    return x + (y * silu(gate)) @ wd("out_proj.w")


class TestFusedTemporalBlock:
    def test_matches_the_composition_bitwise(self):
        cfg = net.ModelConfig()
        w = net.init_params(cfg, seed=2).weights
        x = np.random.default_rng(30).normal(size=(3, 6, cfg.history_len, cfg.d_model))
        want = _composed_tfl_forward(w, cfg, x)
        with ad.no_grad():
            plain = net.tfl_forward(w, cfg, x)
        recorded = net.tfl_forward(w, cfg, ad.param(x))
        assert recorded.requires_grad and plain._vjp is None
        _assert_bits(plain.data, want)
        _assert_bits(recorded.data, want)

    def test_batch_rows_match_single_runs(self):
        cfg = net.ModelConfig()
        w = net.init_params(cfg, seed=3).weights
        rng = np.random.default_rng(31)
        x = ad.param(rng.normal(size=(3, 2, cfg.history_len, cfg.d_model)))
        g = rng.normal(size=x.shape)
        y = net.tfl_forward(w, cfg, x)
        y.backward(g)
        for row in range(3):
            single = ad.param(x.data[row:row + 1])
            y1 = net.tfl_forward(w, cfg, single)
            y1.backward(g[row:row + 1])
            _assert_bits(y1.data[0], y.data[row])
            _assert_bits(single.grad[0], x.grad[row])

    def test_no_grad_peak_memory(self):
        # without a tape, intermediates go once used: at B=64 the peak beyond
        # the output stays under 3.6 buffers of (B, N, T, 2 d_inner)
        cfg = net.ModelConfig()
        w = net.init_params(cfg, seed=0).weights
        x = np.random.default_rng(32).normal(size=(64, 6, cfg.history_len,
                                                   cfg.d_model))
        buffer = 8 * x.size // cfg.d_model * 2 * cfg.d_inner
        tracemalloc.start()
        try:
            with ad.no_grad():
                y = net.tfl_forward(w, cfg, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (peak - y.data.nbytes) / buffer <= 3.6


class TestVariationalHead:
    def test_mean_latent_when_no_noise(self):
        cfg = _tiny_config()
        p = net.init_params(cfg, seed=0)
        x = np.random.default_rng(1).normal(size=(2, 3, cfg.d_model))
        z, mu, logvar = net.ful_forward(p.weights, x)
        np.testing.assert_array_equal(z.data, mu.data)
        assert logvar.shape == (2, 3, cfg.d_model)

    def test_noise_shifts_by_sigma(self):
        cfg = _tiny_config()
        p = net.init_params(cfg, seed=0)
        x = np.random.default_rng(1).normal(size=(1, 2, cfg.d_model))
        eps = np.random.default_rng(2).normal(size=(1, 2, cfg.d_model))
        z, mu, logvar = net.ful_forward(p.weights, x, noise=eps)
        want = mu.data + np.exp(0.5 * logvar.data) * eps
        np.testing.assert_allclose(z.data, want, rtol=0, atol=1e-15)


class TestPlatoonAttention:
    def test_leaderward_causality(self):
        cfg = _tiny_config()
        p = net.init_params(cfg, seed=4)
        rng = np.random.default_rng(5)
        z = rng.normal(size=(1, 4, cfg.d_model))
        z2 = z.copy()
        z2[0, 2] += 1.0
        y1 = net.pfl_forward(p.weights, cfg, ad.as_tensor(z)).data
        y2 = net.pfl_forward(p.weights, cfg, ad.as_tensor(z2)).data
        np.testing.assert_array_equal(y1[0, :2], y2[0, :2])
        assert not np.array_equal(y1[0, 2], y2[0, 2])

    def test_single_vehicle_runs(self):
        cfg = _tiny_config()
        p = net.init_params(cfg, seed=4)
        z = np.random.default_rng(6).normal(size=(2, 1, cfg.d_model))
        before = ad.degenerate_softmax_rows()
        y = net.pfl_forward(p.weights, cfg, ad.as_tensor(z))
        assert y.shape == (2, 1, cfg.d_model)
        assert ad.degenerate_softmax_rows() == before
        assert np.isfinite(y.data).all()


def _composed_attn_layer(w, base, q_in, memory, heads, mask=True):
    """Oracle: the attention layer as the composition the fused node replaced,
    one numpy expression per former tape node, in the order they ran."""
    def wd(name):
        return w[f"{base}.{name}"].data

    def split(t):
        return np.swapaxes(t.reshape(t.shape[:-1] + (heads, dh)), -3, -2)

    def layer_norm(x, g, b):
        xc = x - x.mean(axis=-1, keepdims=True)
        inv = ((xc * xc).mean(axis=-1, keepdims=True) + np.asarray(1e-5)) ** -0.5
        return (xc * inv) * g + b

    q = q_in @ wd("attn.q.w")
    k = memory @ wd("attn.k.w")
    v = memory @ wd("attn.v.w")
    d = q.shape[-1]
    dh = d // heads
    scores = (split(q) @ np.swapaxes(split(k), -1, -2)) * np.asarray(1.0 / math.sqrt(dh))
    mask = np.broadcast_to(np.asarray(mask, dtype=bool), scores.shape)
    s = np.where(mask, scores, -np.inf)
    rowmax = s.max(axis=-1, keepdims=True)
    dead = ~np.isfinite(rowmax)
    s -= np.where(dead, 0.0, rowmax)
    np.exp(s, out=s)
    s /= np.where(dead, 1.0, s.sum(axis=-1, keepdims=True))
    out = np.swapaxes(s @ split(v), -3, -2)
    mha = out.reshape(out.shape[:-2] + (d,)) @ wd("attn.o.w")
    x = layer_norm(q_in + mha, wd("ln1.g"), wd("ln1.b"))
    h = np.maximum(x @ wd("ff.w1") + wd("ff.b1"), 0.0)
    ff = h @ wd("ff.w2") + wd("ff.b2")
    return layer_norm(x + ff, wd("ln2.g"), wd("ln2.b"))


def _attn_cases(rng, batch=3):
    """(base, queries, memory or None for self-attention, mask) at the
    default width: platoon attention and the decoder's cross-attention."""
    cfg = net.ModelConfig()
    S, T, d = cfg.n_param_steps, cfg.history_len, cfg.d_model
    return [("pfl.1", rng.normal(size=(batch, 6, d)), None,
             np.tril(np.ones((6, 6), dtype=bool))),
            ("dec.0", rng.normal(size=(batch, 6, S, d)),
             rng.normal(size=(batch, 6, T, d)), True)]


class TestFusedAttention:
    def test_matches_the_composition_bitwise(self):
        cfg = net.ModelConfig()
        w = net.init_params(cfg, seed=2).weights
        for base, x, m, mask in _attn_cases(np.random.default_rng(20)):
            want = _composed_attn_layer(w, base, x, x if m is None else m,
                                        cfg.attn_heads, mask)
            with ad.no_grad():
                plain = net._attn_layer(w, base, x, x if m is None else m,
                                        cfg.attn_heads, mask)
            xt = ad.param(x)
            recorded = net._attn_layer(w, base, xt, xt if m is None else ad.param(m),
                                       cfg.attn_heads, mask)
            assert recorded.requires_grad and plain._vjp is None
            _assert_bits(plain.data, want)
            _assert_bits(recorded.data, want)

    def test_one_tape_node(self):
        cfg = _tiny_config()
        w = net.init_params(cfg, seed=0).weights
        x = ad.param(np.random.default_rng(21).normal(size=(2, 3, cfg.d_model)))
        tape = ad.Tape.trace(net._attn_layer(w, "pfl.0", x, x, cfg.attn_heads))
        assert [n._op for n in tape.nodes if n._vjp is not None] == ["attn_layer"]

    def test_batch_rows_match_single_runs(self):
        cfg = net.ModelConfig()
        w = net.init_params(cfg, seed=3).weights
        rng = np.random.default_rng(22)
        for base, x, m, mask in _attn_cases(rng):
            g = rng.normal(size=x.shape)
            leaves = [ad.param(x)] + ([] if m is None else [ad.param(m)])
            y = net._attn_layer(w, base, leaves[0], leaves[-1], cfg.attn_heads, mask)
            y.backward(g)
            for row in range(x.shape[0]):
                single = [ad.param(t.data[row:row + 1]) for t in leaves]
                y1 = net._attn_layer(w, base, single[0], single[-1],
                                     cfg.attn_heads, mask)
                y1.backward(g[row:row + 1])
                _assert_bits(y1.data[0], y.data[row])
                for solo, leaf in zip(single, leaves):
                    _assert_bits(solo.grad[0], leaf.grad[row])

    def test_attention_overflow_names_the_layer(self, caplog):
        # scores that overflow to +inf are not masking: the layer's output is
        # non-finite and the stage boundary names it, with no masking warning
        cfg = _tiny_config()
        w = net.init_params(cfg, seed=5).weights
        x = np.random.default_rng(23).normal(size=(2, 3, cfg.d_model)) * 1e200
        before = ad.degenerate_softmax_rows()
        with caplog.at_level(logging.WARNING, logger="platoonkit.autodiff"), \
                np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ad.NonFiniteValue, match="'attn_layer'"):
            net._attn_layer(w, "pfl.0", x, x, cfg.attn_heads)
        assert ad.degenerate_softmax_rows() == before
        assert not any("fully-masked" in r.message for r in caplog.records)

    def test_fully_masked_query_gets_zero_attention(self, caplog):
        # vehicle 1 sees no vehicle: its softmax row is all zeros, not NaN,
        # so the layer passes it through the norms and feedforward alone
        cfg = _tiny_config()
        w = net.init_params(cfg, seed=5).weights
        x = np.random.default_rng(23).normal(size=(2, 3, cfg.d_model))
        mask = np.tril(np.ones((3, 3), dtype=bool))
        mask[1] = False
        before = ad.degenerate_softmax_rows()
        with caplog.at_level(logging.WARNING, logger="platoonkit.autodiff"):
            y = net._attn_layer(w, "pfl.0", x, x, cfg.attn_heads, mask).data
        # one dead row per batch row and head
        assert ad.degenerate_softmax_rows() - before == 2 * cfg.attn_heads
        assert any("fully-masked" in r.message for r in caplog.records)
        _assert_bits(y, _composed_attn_layer(w, "pfl.0", x, x, cfg.attn_heads, mask))
        # with zero attention, row 1 is the layer with the attention output zeroed
        w_zero = dict(w, **{"pfl.0.attn.o.w": ad.param(np.zeros((cfg.d_model,) * 2))})
        y_zero = net._attn_layer(w_zero, "pfl.0", x, x, cfg.attn_heads).data
        np.testing.assert_array_equal(y[:, 1], y_zero[:, 1])


class TestModelForward:
    def test_shapes_and_sign_pattern(self):
        cfg = _tiny_config()
        p = net.init_params(cfg, seed=0)
        hist, lead = _window_batch(cfg, np.random.default_rng(7))
        out = net.model_forward(p, cfg, hist, lead)
        B, N, S = 2, 3, cfg.n_param_steps
        assert out.theta.shape == (B, N, S, 3)
        assert out.result.v.shape == (B, N, cfg.horizon)
        assert out.mu.shape == (B, N, cfg.d_model)
        th = out.theta.data
        assert (th[..., 0] < 0).all() and (th[..., 1] > 0).all() and (th[..., 2] > 0).all()

    def test_eval_is_deterministic(self):
        cfg = _tiny_config()
        p = net.init_params(cfg, seed=0)
        hist, lead = _window_batch(cfg, np.random.default_rng(8))
        a = net.model_forward(p, cfg, hist, lead)
        b = net.model_forward(p, cfg, hist, lead)
        np.testing.assert_array_equal(a.theta.data, b.theta.data)
        np.testing.assert_array_equal(a.result.s.data, b.result.s.data)

    def test_noise_moves_theta_but_not_mu(self):
        cfg = _tiny_config()
        p = net.init_params(cfg, seed=0)
        hist, lead = _window_batch(cfg, np.random.default_rng(9), batch=1)
        eps = np.random.default_rng(10).normal(size=(1, 3, cfg.d_model))
        a = net.model_forward(p, cfg, hist, lead)
        b = net.model_forward(p, cfg, hist, lead, noise=eps)
        np.testing.assert_array_equal(a.mu.data, b.mu.data)
        assert not np.array_equal(a.theta.data, b.theta.data)

    def test_ablations_run_and_differ(self):
        rng = np.random.default_rng(11)
        full_cfg = _tiny_config()
        hist, lead = _window_batch(full_cfg, rng)
        outs = {}
        for name, over in (("full", {}), ("no_tfl", {"disable_tfl": True}),
                           ("no_pfl", {"disable_pfl": True})):
            cfg = _tiny_config(**over)
            p = net.init_params(cfg, seed=0)
            outs[name] = net.model_forward(p, cfg, hist, lead).theta.data
        assert not np.array_equal(outs["full"], outs["no_tfl"])
        assert not np.array_equal(outs["full"], outs["no_pfl"])

    def test_shape_guards(self):
        cfg = _tiny_config()
        p = net.init_params(cfg, seed=0)
        hist, lead = _window_batch(cfg, np.random.default_rng(12))
        with pytest.raises(ad.ShapeMismatch, match="history"):
            net.model_forward(p, cfg, hist[..., :2], lead)
        with pytest.raises(ad.ShapeMismatch, match="lead_future"):
            net.model_forward(p, cfg, hist, lead[:, :-1])
        with pytest.raises(ad.ShapeMismatch, match="history length"):
            net.model_forward(p, cfg, hist[:, :, :-1, :], lead)

    def test_expected_state_uses_raw_history(self):
        cfg = _tiny_config()
        p = net.init_params(cfg, seed=0)
        hist, lead = _window_batch(cfg, np.random.default_rng(13), batch=1)
        out = net.model_forward(p, cfg, hist, lead)
        np.testing.assert_allclose(out.xstar.v_star, hist[..., 0].mean(axis=-1),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(out.xstar.s_star, hist[..., 1].mean(axis=-1),
                                   rtol=0, atol=1e-12)


class TestNormalization:
    def test_fit_matches_numpy(self):
        cfg = _tiny_config()
        rng = np.random.default_rng(14)

        class W:
            def __init__(self, h):
                self.history = h

        wins = [W(rng.normal(5.0, 2.0, size=(3, cfg.history_len, 3)))
                for _ in range(4)]
        mean, std = net.fit_normalization(wins)
        flat = np.concatenate([w.history.reshape(-1, 3) for w in wins])
        np.testing.assert_allclose(mean, flat.mean(axis=0), rtol=1e-6)
        np.testing.assert_allclose(std, flat.std(axis=0), rtol=1e-6)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            net.fit_normalization([])

    def test_magnitude_warning(self, caplog):
        cfg = _tiny_config()
        p = net.init_params(cfg, seed=0)
        hist, lead = _window_batch(cfg, np.random.default_rng(15), batch=1)
        p.norm_std = np.full(3, 1e-6)   # absurd stats force huge values
        with caplog.at_level(logging.WARNING, logger="platoonkit.network"):
            net.model_forward(p, cfg, hist, lead)
        assert any("normalization" in r.message for r in caplog.records)


class TestGradients:
    def test_full_model_gradcheck(self):
        err, count = net.gradcheck_model(_tiny_config(), seed=0)
        assert count > 500
        assert err < 1e-4
