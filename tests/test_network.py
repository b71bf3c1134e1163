"""Tests for the neural pipeline stages and the full forward pass."""

import contextlib
import logging
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from platoonkit import autodiff as ad
from platoonkit import network as net
from platoonkit import training as tr


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

    def test_size_bounds(self):
        top = net.ModelConfig(history_len=net.MAX_WINDOW - 20)
        assert top.history_len + top.horizon == net.MAX_WINDOW
        with pytest.raises(ValueError, match=r"history_len \+ horizon"):
            net.ModelConfig(history_len=net.MAX_WINDOW - 19)
        # the bound is on weight_shapes' count, and every attention layer
        # adds the same number of weights to it
        def count(cfg):
            return sum(math.prod(s) for s in net.weight_shapes(cfg).values())

        one, two = (count(net.ModelConfig(attn_layers=n)) for n in (1, 2))
        top = 1 + (net.MAX_WEIGHTS - one) // (two - one)
        assert count(net.ModelConfig(attn_layers=top)) <= net.MAX_WEIGHTS
        with pytest.raises(ValueError, match="attn_layers give more than"):
            net.ModelConfig(attn_layers=top + 1)


class TestInit:
    def test_deterministic_and_quantized(self):
        cfg = _tiny_config()
        p1 = net.init_params(cfg, seed=3)
        p2 = net.init_params(cfg, seed=3)
        for k in p1.weights:
            a = p1.weights[k].data
            np.testing.assert_array_equal(a, p2.weights[k].data)
            assert a.dtype == np.float32

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
    """Per-step numpy loop over (..., S, C) states, in the recurrence's order."""
    a_t = np.ascontiguousarray(a_mat.T)
    ys, h = [], None
    for t in range(u.shape[-2]):
        dt_e, u_t = delta[..., t, None, :], u[..., t, None, :]
        inject = b_seq[..., t, :, None] * (dt_e * u_t)
        h = inject if h is None else np.exp(dt_e * a_t) * h + inject
        ys.append((c_seq[..., t, None, :] @ h)[..., 0, :] + d_gain * u[..., t, :])
    return np.stack(ys, axis=-2)


def _matmul_scan(u, delta, a_mat, b_seq, c_seq, d_gain):
    """Oracle for signed zeros: the scan as one (rows, S, C) block, with the
    injection as a K=1 matmul and the decay exponent as a broadcast multiply.
    Returns y and vjp(g), which gives the six input gradients."""
    T = u.shape[-2]
    U, DT, B, Cs = (a.reshape((-1,) + a.shape[-2:])
                    for a in (u, delta, b_seq, c_seq))
    a_t = np.ascontiguousarray(a_mat.T)
    y = d_gain * U
    H = np.empty((T,) + B.shape[:1] + a_t.shape)
    for t in range(T):
        dt_t = DT[:, t, None, :]
        inject = np.matmul(B[:, t, :, None], dt_t * U[:, t, None, :])
        H[t] = inject if t == 0 else np.exp(dt_t * a_t) * H[t - 1] + inject
        y[:, t] += np.matmul(Cs[:, t, None, :], H[t])[:, 0]

    def vjp(g):
        G = g.reshape(U.shape)
        gU, gDT = np.empty(U.shape), np.empty(U.shape)
        gB, gC = np.empty(B.shape), np.empty(B.shape)
        gA = np.zeros(a_t.shape)
        for t in range(T - 1, -1, -1):
            g_t, dt_t = G[:, t], DT[:, t]
            gh = g_t[:, None, :] * Cs[:, t, :, None]
            if t < T - 1:
                gh += dgh
            np.matmul(H[t], g_t[:, :, None], out=gC[:, t, :, None])
            np.matmul(gh, (dt_t * U[:, t])[:, :, None], out=gB[:, t, :, None])
            np.matmul(B[:, t, None, :], gh, out=gU[:, t, None, :])
            if t == 0:
                break
            dgh = np.exp(dt_t[:, None, :] * a_t)
            q = gh * H[t - 1]
            q *= dgh
            dgh *= gh
            np.einsum("rsc,sc->rc", q, a_t, out=gDT[:, t])
            gA += np.einsum("rsc,rc->sc", q, dt_t)
        gDT[:, 1:] += gU[:, 1:] * U[:, 1:]
        np.multiply(gU[:, 0], U[:, 0], out=gDT[:, 0])
        gU *= DT
        gU += G * d_gain
        return (gU.reshape(u.shape), gDT.reshape(u.shape), gA.T,
                gB.reshape(b_seq.shape), gC.reshape(b_seq.shape),
                (G * U).reshape(-1, U.shape[-1]).sum(axis=0))

    return y.reshape(u.shape), vjp


def _assert_bits(got, want):
    """Bit-for-bit equality of two arrays of one dtype; unlike
    assert_array_equal, tells -0.0 from +0.0."""
    assert got.shape == want.shape and got.dtype == want.dtype
    bits = np.dtype(f"u{got.dtype.itemsize}")
    np.testing.assert_array_equal(got.view(bits), want.view(bits))


def _block_rows(S, C=128):
    return net._block_rows(S * C)


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

    def test_gradients_match_finite_differences_across_row_blocks(self, monkeypatch):
        # blocks of two rows: five rows run as three blocks, the last partial
        S, C = 2, 3
        monkeypatch.setattr(net, "_SCAN_BLOCK", 2 * S * C)
        arrays = _scan_inputs(np.random.default_rng(14), (5,), 4, C, S)
        probe = np.random.default_rng(15).normal(size=(5, 4, C))

        def graph(*leaves):
            return _probe_sum(_scan_node(*leaves), probe)

        assert ad.finite_diff_check(graph, arrays) < 1e-6

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

    def test_signed_zeros_match_matmul_oracle_bitwise(self):
        # exact +-0.0 in B, u and delta, down to whole rows of B and whole
        # channels of u and delta: y and all six gradients keep the oracle's
        # bits, sign bits included. A zero's sign inside the states does not
        # reach them, since every read of the states is a sum that starts
        # from +0.0 (or an exp, for the decay exponent).
        rng = np.random.default_rng(16)
        arrays = _scan_inputs(rng, (_BLOCK // 6, 6), 4, 128, 8)
        u, delta, _, b_seq, _, _ = arrays
        for a in (u, delta, b_seq):
            hit = rng.random(a.shape) < 0.2
            a[hit] = np.where(rng.random(hit.sum()) < 0.5, 0.0, -0.0)
        b_seq[:, 0, 0] = -0.0
        b_seq[:, 1, 1] = 0.0
        u[:, :, 0, :8] = -0.0
        delta[:, :, 1, 8:16] = -0.0
        g = rng.normal(size=u.shape)
        want, oracle_vjp = _matmul_scan(*arrays)
        for got in _scan_both_ways(arrays):
            _assert_bits(got, want)
        _, grads = _scan_grads(arrays, g)
        for got, grad in zip(grads, oracle_vjp(g)):
            _assert_bits(got, grad)

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
        self._assert_overflow_is_reported_once(np.float64, 1e200)

    def test_non_finite_float32_output_is_reported_once_by_the_stage(self):
        # float32's range ends near 3.4e38: scaled by what it holds, the
        # products overflow in float32, as training's would
        self._assert_overflow_is_reported_once(np.float32, 1e30)

    @staticmethod
    def _assert_overflow_is_reported_once(dtype, scale):
        # with a tape and without, every weight and the input in ``dtype``
        cfg = _tiny_config()
        w = {k: ad.param(t.data.astype(dtype))
             for k, t in net.init_params(cfg, seed=1).weights.items()}
        w["tfl.in_proj.w"].data[:, cfg.d_inner:] *= scale
        w["tfl.out_proj.w"].data *= scale
        x = np.random.default_rng(4).normal(size=(1, 2, cfg.history_len,
                                                  cfg.d_model)).astype(dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for mode in (contextlib.nullcontext, ad.no_grad):
                with mode(), pytest.raises(ad.NonFiniteValue, match="'tfl'"):
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
    z = (x_dbl[..., :r] @ wd("dt_proj.w")) + wd("dt_proj.b")
    delta = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))     # softplus
    a_mat = -np.exp(wd("a_log"))
    y = _reference_scan(xs, delta, a_mat, x_dbl[..., r:r + n], x_dbl[..., r + n:],
                        wd("d"))
    return x + (y * silu(gate)) @ wd("out_proj.w")


class TestFusedTemporalBlock:
    def test_matches_the_composition_bitwise(self):
        # 18 rows are one row block; 11 windows of 5 followers are 55 rows, a
        # block of 48 and a ragged one of 7, with the boundary inside window 9
        cfg = net.ModelConfig()
        assert _BLOCK == 48
        w = net.init_params(cfg, seed=2).weights
        for seed, batch in ((30, (3, 6)), (33, (11, 5))):
            x = np.random.default_rng(seed).normal(
                size=batch + (cfg.history_len, cfg.d_model))
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
        ad.Tape.trace(y).backward(g)
        for row in range(3):
            single = ad.param(x.data[row:row + 1])
            y1 = net.tfl_forward(w, cfg, single)
            ad.Tape.trace(y1).backward(g[row:row + 1])
            _assert_bits(y1.data[0], y.data[row])
            _assert_bits(single.grad[0], x.grad[row])

    def test_row_blocks_keep_theta_per_window(self):
        # platoons of 50 followers run one per block through model_forward,
        # and each crosses a 48-row TFL block; the taped forward runs the
        # TFL in one pass
        cfg = net.ModelConfig()
        n_veh = _BLOCK + 2
        assert net._block_rows(cfg.n_state * cfg.d_inner * n_veh) == 1
        params, hist, lead = _fitted_batch(cfg, 4, 2, n_veh)
        taped = net.model_forward(params, cfg, hist, lead).theta.data
        with ad.no_grad():
            theta = net.model_forward(params, cfg, hist, lead).theta.data
            for i in range(len(hist)):
                solo = net.model_forward(params, cfg, hist[i:i + 1],
                                         lead[i:i + 1]).theta.data
                _assert_bits(solo[0], theta[i])
        _assert_bits(theta, taped)

    def test_no_grad_peak_memory(self):
        # without a tape the block runs per row block: at B=64 and B=256 the
        # peak beyond the output stays under 3.6 buffers of (48, T,
        # 2 d_inner), the size of one row block's widest array
        cfg = net.ModelConfig()
        w = net.init_params(cfg, seed=0).weights
        buffer = 8 * _BLOCK * cfg.history_len * 2 * cfg.d_inner
        for batch in (64, 256):
            x = np.random.default_rng(32).normal(size=(batch, 6, cfg.history_len,
                                                       cfg.d_model))
            tracemalloc.start()
            try:
                with ad.no_grad():
                    y = net.tfl_forward(w, cfg, x)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert (peak - y.data.nbytes) / buffer <= 3.6, batch


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
            ad.Tape.trace(y).backward(g)
            for row in range(x.shape[0]):
                single = [ad.param(t.data[row:row + 1]) for t in leaves]
                y1 = net._attn_layer(w, base, single[0], single[-1],
                                     cfg.attn_heads, mask)
                ad.Tape.trace(y1).backward(g[row:row + 1])
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


def _fitted_batch(cfg, seed, batch, n_veh):
    """Default-weight params normalized on their own (batch, n_veh) windows."""
    params = net.init_params(cfg, seed=seed)
    hist, lead = _window_batch(cfg, np.random.default_rng(seed), batch, n_veh)
    params.norm_mean, params.norm_std = net.fit_normalization([(hist, lead, None)])
    return params, hist, lead


def _output_arrays(out):
    return (out.theta.data, out.mu.data, out.logvar.data, out.result.v.data,
            out.result.s.data, out.xstar.v_star, out.xstar.s_star)


class TestPlatoonBlocks:
    """Without a tape, model_forward runs the network one block of platoons
    at a time: 48 vehicles, 8 platoons of six or 16 of three."""

    @pytest.mark.parametrize("n_veh, blocks", [(6, (8, 8, 3)), (3, (16, 3))])
    def test_blocks_match_per_platoon_runs_bitwise(self, n_veh, blocks):
        cfg = net.ModelConfig()
        assert net._block_rows(cfg.n_state * cfg.d_inner * n_veh) == blocks[0]
        batch = sum(blocks)
        params, hist, lead = _fitted_batch(cfg, 60 + n_veh, batch, n_veh)
        noise = np.random.default_rng(70).standard_normal(
            (batch, n_veh, cfg.d_model))
        for eps in (None, noise):
            with ad.no_grad():
                whole = _output_arrays(net.model_forward(params, cfg, hist, lead,
                                                         noise=eps))
                for i in range(batch):
                    one = slice(i, i + 1)
                    solo = net.model_forward(params, cfg, hist[one], lead[one],
                                             None if eps is None else eps[one])
                    for got, want in zip(_output_arrays(solo), whole):
                        _assert_bits(got[0], want[i])
            # the taped forward is one block: the same bits and the same
            # 85 nodes (70 weights, 10 stage nodes, 4 attention layers...)
            taped = net.model_forward(params, cfg, hist, lead, noise=eps)
            for got, want in zip(_output_arrays(taped), whole):
                _assert_bits(got, want)
            assert len(ad.Tape.trace(taped.result.v).nodes) == 85

    def test_feature_warning_logs_once_per_call(self, caplog):
        # 19 platoons of six are three blocks; the warning is logged once iff
        # the batch's largest normalized magnitude is above the threshold,
        # which a NaN anywhere turns false
        cfg = net.ModelConfig()
        params, batch, lead = _fitted_batch(cfg, 71, 19, 6)
        params.norm_mean[0], params.norm_std[0] = 10.0, 0.5  # 60 reads 100
        far = (17, 2, 5, 0)
        for edits, rows, warns in [
                ([(far, 1e4)], 19, True),
                ([(far, np.nextafter(60.0, np.inf))], 19, True),
                ([(far, 60.0)], 19, False),
                ([(far, 1e4), ((3, 1, 0, 2), np.nan)], 19, False),
                ([(far, np.inf)], 19, True),
                ([], 0, False)]:
            hist = batch[:rows].copy()
            for index, value in edits:
                hist[index] = value
            normalized = (hist - params.norm_mean) / params.norm_std
            assert (np.abs(normalized).max(initial=0.0)
                    > net.EMBED_MAGNITUDE_WARN) == warns
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="platoonkit.network"), \
                    ad.no_grad():
                try:
                    net.model_forward(params, cfg, hist, lead[:rows])
                except ad.NonFiniteValue:
                    assert not np.isfinite(hist).all()
            warned = [r for r in caplog.records
                      if "feature magnitude" in r.message]
            assert len(warned) == warns, edits

    def test_no_grad_peak_memory_is_one_block(self):
        # the peak beyond the inputs and the outputs stays under 4 buffers of
        # (48, T, 2 d_inner), one block's widest TFL array, at B = 64 and 256
        # (the unblocked network read 10.1 and 40.5)
        cfg = net.ModelConfig()
        buffer = 8 * _BLOCK * cfg.history_len * 2 * cfg.d_inner
        for batch in (64, 256):
            params, hist, lead = _fitted_batch(cfg, 72, batch, 6)
            with ad.no_grad():
                net.model_forward(params, cfg, hist[:1], lead[:1])   # warm caches
                tracemalloc.start()
                try:
                    out = net.model_forward(params, cfg, hist, lead)
                    kept, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
            assert out.theta.shape[0] == batch
            assert (peak - kept) / buffer <= 4.0, batch


def _loaded(params, cfg, tmp_path):
    """``params`` saved as a checkpoint and loaded back."""
    path = str(tmp_path / "ckpt")
    tr.save_checkpoint(path, params, cfg)
    loaded, cfg2 = tr.load_checkpoint(path)
    assert cfg2 == cfg
    return loaded


def _float_dtypes(obj):
    """dtypes of the floating arrays in obj: a Tensor, an array or a tuple."""
    if isinstance(obj, (tuple, list)):
        return [d for item in obj for d in _float_dtypes(item)]
    data = obj.data if isinstance(obj, ad.Tensor) else obj
    if isinstance(data, np.ndarray) and data.dtype.kind == "f":
        return [data.dtype]
    return []


class TestFloat32Checkpoint:
    """A loaded checkpoint's weights are float32 constants: every network
    stage runs in float32 without a tape; theta and the rollout stay float64."""

    # stage outputs, and the numpy kernels' inputs too: a buffer written with
    # out= would hide a float64 intermediate by casting it back down
    STAGES = ("embed_inputs", "tfl_forward", "ful_forward", "pfl_forward",
              "_attn_layer", "narp_decode")
    KERNELS = ("_tfl_rows", "causal_conv1d", "selective_scan")

    @pytest.mark.parametrize("cfg", [net.ModelConfig(), net.desk_config()],
                             ids=["default", "desk"])
    def test_loaded_forward_agrees_in_float32(self, cfg, tmp_path, monkeypatch):
        # 19 platoons of six are three platoon blocks at the default config
        params, hist, lead = _fitted_batch(cfg, 80, 19, 6)
        noise = np.random.default_rng(81).standard_normal((19, 6, cfg.d_model))
        loaded = _loaded(params, cfg, tmp_path)
        seen = []

        def spy(name, checks_inputs):
            fn = getattr(net, name)

            def wrapped(*args, **kwargs):
                out = fn(*args, **kwargs)
                dtypes = _float_dtypes(out)
                if checks_inputs:
                    dtypes += _float_dtypes(args)
                seen.append((name, dtypes))
                return out
            monkeypatch.setattr(net, name, wrapped)

        for eps in (None, noise):
            with ad.no_grad():
                want = net.model_forward(params, cfg, hist, lead, noise=eps)
            assert want.theta.data.dtype == np.float64 and not seen
            for name in self.STAGES + self.KERNELS:
                spy(name, name in self.KERNELS)
            got = net.model_forward(loaded, cfg, hist, lead, noise=eps)
            monkeypatch.undo()
            assert {name for name, _ in seen} == set(self.STAGES + self.KERNELS)
            for name, dtypes in seen:
                assert dtypes and set(dtypes) == {np.dtype(np.float32)}, name
            seen.clear()
            for arr in (got.theta.data, got.result.v.data, got.result.s.data):
                assert arr.dtype == np.float64
            # the in-memory leaves hold the same float32 values: same bits
            for field in ("theta", "mu", "logvar"):
                _assert_bits(getattr(got, field).data, getattr(want, field).data)

    def test_loaded_model_records_no_node(self, tmp_path):
        cfg = net.desk_config()
        params, hist, lead = _fitted_batch(cfg, 82, 3, 2)
        loaded = _loaded(params, cfg, tmp_path)
        assert not any(t.requires_grad for t in loaded.weights.values())
        out = net.model_forward(loaded, cfg, hist, lead)    # outside no_grad
        for t in (out.theta, out.mu, out.logvar, out.result.v):
            assert not t.requires_grad and t._parents == ()

    def test_sign_pattern_survives_float32_underflow(self, tmp_path):
        # a float32 softplus of -200 is 0: theta is encoded in float64, where
        # softplus(-200) ~ 1e-87, so f_s and f_dv stay positive and f_v negative
        assert ad.softplus(np.full(1, -200.0, np.float32))[0] == 0.0
        cfg = net.desk_config()
        params, hist, lead = _fitted_batch(cfg, 83, 4, 3)
        params.weights["dec.head.b"].data = np.full(3, -200.0)
        loaded = _loaded(params, cfg, tmp_path)
        assert loaded.weights["dec.head.b"].data.dtype == np.float32
        theta = net.model_forward(loaded, cfg, hist, lead).theta.data
        assert np.abs(theta).max() < 1e-80
        assert (theta[..., 0] < 0).all()
        assert (theta[..., 1] > 0).all() and (theta[..., 2] > 0).all()


class TestNormalization:
    def test_fit_matches_numpy(self):
        cfg = _tiny_config()
        rng = np.random.default_rng(14)

        wins = [(rng.normal(5.0, 2.0, size=(w, 3, cfg.history_len, 3)), None, None)
                for w in (1, 3, 0, 2)]
        mean, std = net.fit_normalization(wins)
        flat = np.concatenate([h.reshape(-1, 3) for h, _, _ in wins])
        np.testing.assert_allclose(mean, flat.mean(axis=0), rtol=1e-6)
        np.testing.assert_allclose(std, flat.std(axis=0), rtol=1e-6)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            net.fit_normalization([])
        with pytest.raises(ValueError, match="empty"):
            net.fit_normalization([(np.empty((0, 2, 6, 3)), None, None)])

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
