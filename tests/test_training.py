"""Tests for losses, weight balancing, Adam, checkpoints, and the train loop."""

import collections
import contextlib
import gc
import io
import json
import math
import os
import tempfile
import tracemalloc
import warnings
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from platoonkit import autodiff as ad
from platoonkit import data
from platoonkit import network as net
from platoonkit import training as tr


def _tiny_config(**over):
    base = dict(d_model=4, n_state=2, conv_kernel=4, ve_hidden=4,
                attn_layers=1, attn_heads=2, history_len=6, horizon=4,
                param_window=2)
    base.update(over)
    return net.ModelConfig(**base)


def _windows(cfg, rows=slice(None), n_platoons=3, seed=5):
    """Windows ``rows`` of a small two-follower corpus, taken in record
    order, as a list of one triple."""
    records = data.generate_synthetic_platoons(
        n_platoons, n_followers=2, duration_s=10.0, seed=seed)
    [triple] = data.extract_windows(records, cfg.history_len, cfg.horizon,
                                    stride=4)
    return [tuple(a[rows] for a in triple)]


class TestLosses:
    def test_prediction_unit_error(self):
        v = ad.as_tensor(np.ones((2, 3, 4)))
        s = ad.as_tensor(np.full((2, 3, 4), 5.0))
        targets = np.stack([np.zeros((2, 3, 4)), np.full((2, 3, 4), 4.0)], axis=-1)
        l_v, l_s = tr.prediction_losses(SimpleNamespace(v=v, s=s), targets)
        assert l_v.data == pytest.approx(1.0, abs=1e-15)
        assert l_s.data == pytest.approx(1.0, abs=1e-15)

    def test_kl_fixtures(self):
        zero = np.zeros((2, 5))
        assert tr.kl_loss(zero, zero).data == pytest.approx(0.0, abs=1e-15)
        assert tr.kl_loss(np.ones((2, 5)), zero).data == pytest.approx(0.5, abs=1e-15)
        want = (math.e - 2.0) / 2.0
        assert tr.kl_loss(zero, np.ones((2, 5))).data == pytest.approx(want, abs=1e-12)

    def test_kl_gradient(self):
        rng = np.random.default_rng(0)
        mu = rng.normal(size=(3, 4))
        logvar = rng.normal(size=(3, 4))
        err = ad.finite_diff_check(lambda m, lv: tr.kl_loss(m, lv), [mu, logvar])
        assert err < 1e-6


class TestDwa:
    def test_bootstrap_uniform(self):
        assert np.array_equal(tr.dwa_weights([]), [1.0, 1.0])
        assert np.array_equal(tr.dwa_weights([(1.0, 2.0)]), [1.0, 1.0])

    def test_ratio_fixture(self):
        w = tr.dwa_weights([(1.0, 1.0), (1.0, 2.0)])
        assert w[0] == pytest.approx(0.755, abs=1e-3)
        assert w[1] == pytest.approx(1.245, abs=1e-3)
        assert w.sum() == pytest.approx(2.0, abs=1e-12)

    def test_equal_ratios_stay_uniform(self):
        w = tr.dwa_weights([(2.0, 4.0), (1.0, 2.0)])
        np.testing.assert_allclose(w, [1.0, 1.0], atol=1e-12)

    def test_vanishing_denominator_guard(self):
        w = tr.dwa_weights([(0.0, 1.0), (1.0, 2.0)])
        np.testing.assert_array_equal(w, [1.0, 1.0])


class TestAdam:
    def test_first_step_bit_exact(self):
        w = ad.param(np.array(0.0))
        opt = tr.Adam({"w": w}, lr=0.1)
        w.grad = np.array(3.0)
        opt.step()
        # m-hat = g, v-hat = g^2 -> step = lr * g / (|g| + eps), then f32 snap
        exact = -0.1 * (3.0 / (3.0 + 1e-8))
        assert w.data == np.float64(np.float32(exact))
        assert w.grad is None

    def test_skip_params_without_grad(self):
        w = ad.param(np.array([1.0, 2.0]))
        opt = tr.Adam({"w": w}, lr=0.1)
        opt.step()
        np.testing.assert_array_equal(w.data, [1.0, 2.0])

    def test_weights_stay_float32_representable(self):
        rng = np.random.default_rng(1)
        w = ad.param(net._q32(rng.normal(size=(4, 3))))
        opt = tr.Adam({"w": w}, lr=1e-2)
        for _ in range(5):
            w.grad = rng.normal(size=(4, 3))
            opt.step()
            np.testing.assert_array_equal(
                w.data, w.data.astype(np.float32).astype(np.float64))

    def test_float64_moments_and_float32_weights(self):
        # the moments and the update are float64, computed from the float32
        # gradient as a float64 one; only the stored weight is rounded, to
        # the bits _q32 gives the float64 result
        rng = np.random.default_rng(4)
        w = ad.param(rng.normal(size=(4, 3)).astype(np.float32))
        opt = tr.Adam({"w": w}, lr=1e-2)
        want = w.data.astype(np.float64)
        m, v = np.zeros((4, 3)), np.zeros((4, 3))
        for t in range(1, 4):
            g = rng.normal(size=(4, 3)).astype(np.float32)
            w.grad = g
            opt.step()
            g = g.astype(np.float64)
            m = m * tr.ADAM_BETA1 + (1.0 - tr.ADAM_BETA1) * g
            v = v * tr.ADAM_BETA2 + (1.0 - tr.ADAM_BETA2) * g * g
            upd = 1e-2 * (m / (1.0 - tr.ADAM_BETA1 ** t)) / (
                np.sqrt(v / (1.0 - tr.ADAM_BETA2 ** t)) + tr.ADAM_EPS)
            want = net._q32(want - upd)
            assert opt.m["w"].dtype == opt.v["w"].dtype == np.float64
            assert opt.m["w"].tobytes() == m.tobytes()
            assert opt.v["w"].tobytes() == v.tobytes()
            assert w.data.dtype == np.float32
            assert w.data.astype(np.float64).tobytes() == want.tobytes()

    def test_overflowing_update_is_reported_once(self):
        # an update beyond float32's range would store inf: the step names
        # the weight, and numpy raises no warning first
        w = ad.param(np.ones(2, np.float32))
        opt = tr.Adam({"w": w}, lr=1e300)
        w.grad = np.ones(2, np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ad.NonFiniteValue, match="'adam w'"):
                opt.step()

    def test_snapshot_restore_round_trip(self):
        rng = np.random.default_rng(2)
        w = ad.param(net._q32(rng.normal(size=3)))
        opt = tr.Adam({"w": w}, lr=1e-2)
        w.grad = rng.normal(size=3)
        opt.step()
        snap = opt.snapshot()
        w.grad = rng.normal(size=3)
        opt.step()
        opt.restore(snap)
        np.testing.assert_array_equal(w.data, snap["w"]["w"])
        assert opt.t == snap["t"]

    def test_bad_lr(self):
        with pytest.raises(ValueError, match="learning rate"):
            tr.Adam({}, lr=0.0)


class TestCheckpoints:
    def test_round_trip_agrees_in_float32(self, tmp_path):
        # the weights come back exactly, as float32, and the loaded forward
        # runs in float32, as the taped in-memory one does: the same bits
        cfg = _tiny_config()
        params = net.init_params(cfg, seed=7)
        params.norm_mean = net._q32(np.array([10.0, 20.0, 0.1]))
        params.norm_std = net._q32(np.array([2.0, 5.0, 0.5]))
        hist = np.random.default_rng(0).uniform(5, 25, size=(1, 2, cfg.history_len, 3))
        lead = np.random.default_rng(1).uniform(5, 15, size=(1, cfg.horizon))
        before = net.model_forward(params, cfg, hist, lead).theta.data
        path = str(tmp_path / "ckpt")
        tr.save_checkpoint(path, params, cfg)
        loaded, cfg2 = tr.load_checkpoint(path)
        assert cfg2 == cfg
        np.testing.assert_array_equal(loaded.norm_mean, params.norm_mean)
        after = net.model_forward(loaded, cfg2, hist, lead).theta.data
        assert after.dtype == np.float64
        assert after.tobytes() == before.tobytes()

    def test_floor_std_survives_round_trip(self, tmp_path):
        # fit_normalization floors std at NORM_STD_FLOOR before the float32
        # snap, which lands just below the floor; load must accept it
        cfg = _tiny_config()
        params = net.init_params(cfg, seed=0)
        params.norm_std = net._q32(np.full(3, net.NORM_STD_FLOOR))
        assert params.norm_std[0] < net.NORM_STD_FLOOR
        path = str(tmp_path / "ckpt")
        tr.save_checkpoint(path, params, cfg)
        loaded, _ = tr.load_checkpoint(path)
        np.testing.assert_array_equal(loaded.norm_std, params.norm_std)

    @pytest.mark.parametrize("field, value", [
        ("norm_std", [1.0, -1.0, 1.0]), ("norm_std", [1.0, 1.0, float("inf")]),
        ("norm_mean", [0.0, 0.0, 0.0, 0.0]), ("norm_mean", 0.0)])
    def test_bad_normalization_rejected(self, tmp_path, field, value):
        cfg = _tiny_config()
        path = str(tmp_path / "ckpt")
        tr.save_checkpoint(path, net.init_params(cfg, seed=0), cfg)
        mpath = os.path.join(path, "manifest.json")
        with open(mpath) as f:
            manifest = json.load(f)
        manifest[field] = value
        with open(mpath, "w") as f:
            json.dump(manifest, f)
        with pytest.raises(tr.CheckpointError, match=field):
            tr.load_checkpoint(path)

    def test_manifest_is_complete(self, tmp_path):
        cfg = _tiny_config()
        params = net.init_params(cfg, seed=0)
        path = str(tmp_path / "ckpt")
        tr.save_checkpoint(path, params, cfg)
        with open(os.path.join(path, "manifest.json")) as f:
            manifest = json.load(f)
        # the layout comes from the config alone: no per-weight table
        assert set(manifest) == {"format", "config", "norm_mean", "norm_std"}
        assert manifest["format"] == 3
        assert net.ModelConfig(**manifest["config"]) == cfg
        want = np.concatenate([params.weights[name].data.ravel()
                               for name in net.weight_shapes(cfg)])
        got = np.fromfile(os.path.join(path, "weights.bin"), dtype="<f4")
        np.testing.assert_array_equal(got, want.astype("<f4"))

    def test_truncated_payload_rejected(self, tmp_path):
        cfg = _tiny_config()
        params = net.init_params(cfg, seed=0)
        path = str(tmp_path / "ckpt")
        tr.save_checkpoint(path, params, cfg)
        blob = os.path.join(path, "weights.bin")
        with open(blob, "r+b") as f:
            f.truncate(os.path.getsize(blob) - 8)
        with pytest.raises(tr.CheckpointError, match="holds"):
            tr.load_checkpoint(path)

    def test_oversized_payload_rejected_unread(self, tmp_path):
        # an 8 MB weights.bin for the desk config is refused by its size
        # (reading it whole first peaked above 8 MB)
        cfg = net.desk_config()
        path = str(tmp_path / "ckpt")
        tr.save_checkpoint(path, net.init_params(cfg, seed=0), cfg)
        with open(os.path.join(path, "weights.bin"), "r+b") as f:
            f.truncate(8 << 20)
        tracemalloc.start()
        try:
            with pytest.raises(tr.CheckpointError,
                               match=f"holds {8 << 20} bytes"):
                tr.load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak

    def test_unknown_format_rejected(self, tmp_path):
        cfg = _tiny_config()
        params = net.init_params(cfg, seed=0)
        path = str(tmp_path / "ckpt")
        tr.save_checkpoint(path, params, cfg)
        mpath = os.path.join(path, "manifest.json")
        with open(mpath) as f:
            manifest = json.load(f)
        manifest["format"] = 99
        with open(mpath, "w") as f:
            json.dump(manifest, f)
        with pytest.raises(tr.CheckpointError, match="format"):
            tr.load_checkpoint(path)

    def test_manifest_must_be_an_object(self, tmp_path):
        cfg = _tiny_config()
        path = str(tmp_path / "ckpt")
        tr.save_checkpoint(path, net.init_params(cfg, seed=0), cfg)
        with open(os.path.join(path, "manifest.json"), "w") as f:
            json.dump([3], f)
        with pytest.raises(tr.CheckpointError, match="format None"):
            tr.load_checkpoint(path)

    def test_layout_needs_no_weight_draws(self, tmp_path, monkeypatch):
        cfg = _tiny_config()
        params = net.init_params(cfg, seed=0)
        assert {k: t.shape for k, t in params.weights.items()} == \
            dict(net.weight_shapes(cfg))
        path = str(tmp_path / "ckpt")
        tr.save_checkpoint(path, params, cfg)

        def no_draws(*args, **kwargs):
            raise AssertionError("load_checkpoint drew initial weights")

        monkeypatch.setattr(net, "init_params", no_draws)
        loaded, _ = tr.load_checkpoint(path)
        assert list(loaded.weights) == list(params.weights)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(tr.CheckpointError, match="manifest"):
            tr.load_checkpoint(str(tmp_path / "nope"))

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_round_trip_property(self, data):
        heads = data.draw(st.integers(1, 3), "heads")
        window = data.draw(st.integers(1, 3), "param_window")
        cfg = net.ModelConfig(
            d_model=heads * data.draw(st.integers(1, 3), "head_dim"),
            n_state=data.draw(st.integers(1, 3), "n_state"),
            conv_kernel=data.draw(st.integers(1, 4), "conv_kernel"),
            ve_hidden=data.draw(st.integers(0, 5), "ve_hidden"),
            attn_layers=data.draw(st.integers(1, 2), "attn_layers"),
            attn_heads=heads,
            history_len=data.draw(st.integers(1, 8), "history_len"),
            horizon=window * data.draw(st.integers(1, 3), "steps"),
            param_window=window,
            disable_tfl=data.draw(st.booleans(), "disable_tfl"),
            disable_pfl=data.draw(st.booleans(), "disable_pfl"))
        params = net.init_params(cfg, seed=data.draw(st.integers(0, 99), "seed"))
        finite = st.floats(-1e6, 1e6, allow_subnormal=False)
        params.norm_mean = np.array(data.draw(
            st.lists(finite, min_size=3, max_size=3), "norm_mean"))
        params.norm_std = np.array(data.draw(
            st.lists(st.floats(1e-6, 1e6), min_size=3, max_size=3), "norm_std"))
        with tempfile.TemporaryDirectory() as path:
            tr.save_checkpoint(path, params, cfg)
            loaded, cfg2 = tr.load_checkpoint(path)
        assert cfg2 == cfg
        assert list(loaded.weights) == list(params.weights)
        for name, tensor in params.weights.items():
            got = loaded.weights[name].data
            assert got.dtype == np.float32 and not loaded.weights[name].requires_grad
            assert got.shape == tensor.data.shape
            assert tensor.data.dtype == np.float32
            assert got.tobytes() == tensor.data.tobytes(), name
        for field in ("norm_mean", "norm_std"):
            got, want = getattr(loaded, field), getattr(params, field)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestBatching:
    def test_shuffle_is_deterministic(self):
        wins = [(np.arange(7.0)[:, None, None, None] * np.ones((7, 2, 6, 3)),
                 np.zeros((7, 4)), np.zeros((7, 2, 4, 2)))]
        a = tr.make_batches(wins, 3, np.random.default_rng(0))
        b = tr.make_batches(wins, 3, np.random.default_rng(0))
        assert len(a) == len(b) == 3
        for (ha, _, _), (hb, _, _) in zip(a, b):
            np.testing.assert_array_equal(ha, hb)

    def test_train_batches_the_lists_it_is_given(self, monkeypatch):
        # every epoch and every validation pass batch the very list that
        # train was given, one triple per vehicle count
        cfg = _tiny_config()
        records = [rec for n in (2, 3, 2) for rec in
                   data.generate_synthetic_platoons(2, n_followers=n,
                                                    duration_s=10.0, seed=n)]
        train_w = data.extract_windows(records[:4], cfg.history_len,
                                       cfg.horizon, stride=4)
        val_w = data.extract_windows(records[4:], cfg.history_len,
                                     cfg.horizon, stride=4)
        assert [g[0].shape[1] for g in train_w] == [2, 3]
        assert [g[0].shape[1] for g in val_w] == [2]
        seen, make = [], tr.make_batches

        def spy(windows, *args):
            seen.append(windows)
            return make(windows, *args)

        monkeypatch.setattr(tr, "make_batches", spy)
        params = net.init_params(cfg, seed=0)
        params.norm_mean, params.norm_std = net.fit_normalization(train_w)
        tr.train(params, cfg, train_w, val_w,
                 tr.TrainConfig(epochs=3, batch_size=4, seed=0))
        assert len(seen) == 6
        assert all(w is train_w for w in seen[0::2])
        assert all(w is val_w for w in seen[1::2])

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            tr.make_batches([], 0)


def _default_step(batch=8, n_veh=6, seed=0):
    """Loss of one default-config training step, built as ``train`` does."""
    cfg = net.ModelConfig()
    params = net.init_params(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    hist = np.empty((batch, n_veh, cfg.history_len, 3))
    hist[..., 0] = rng.uniform(8.0, 15.0, hist.shape[:-1])
    hist[..., 1] = rng.uniform(10.0, 30.0, hist.shape[:-1])
    hist[..., 2] = rng.uniform(-1.0, 1.0, hist.shape[:-1])
    params.norm_mean = hist.reshape(-1, 3).mean(axis=0)
    params.norm_std = hist.reshape(-1, 3).std(axis=0)
    lead = rng.uniform(8.0, 15.0, (batch, cfg.horizon))
    targets = rng.uniform(8.0, 30.0, (batch, n_veh, cfg.horizon, 2))
    noise = rng.standard_normal((batch, n_veh, cfg.d_model))
    out = net.model_forward(params, cfg, hist, lead, noise=noise)
    l_v, l_s = tr.prediction_losses(out.result, targets)
    kl = tr.kl_loss(out.mu, out.logvar)
    total = tr.total_loss(l_v, l_s, kl, (1.0, 1.0), 0.0025)
    return total, out, params


class TestTrainingStepGraph:
    def test_default_step_records_under_400_tape_nodes(self):
        # the scan, its causal conv and the rollout are one node each; a
        # return to per-step graphs records over a thousand
        total, _, _ = _default_step()
        assert len(ad.Tape.trace(total).nodes) < 400

    def test_default_step_records_at_most_95_tape_nodes(self):
        # each model stage is one node too: 70 weights and 23 ops; the
        # step-by-step attention stacks recorded 334 nodes per step in all,
        # the step-by-step stages around them 158
        total, _, _ = _default_step()
        assert len(ad.Tape.trace(total).nodes) <= 95

    def test_default_step_records_one_node_per_stage(self):
        total, _, params = _default_step()
        nodes = ad.Tape.trace(total).nodes
        leaves = [n for n in nodes if n._vjp is None]
        weights = {id(t) for t in params.weights.values()}
        assert len(leaves) == 70 and all(id(n) in weights for n in leaves)
        ops = collections.Counter(n._op for n in nodes if n._vjp is not None)
        assert ops == {"embed": 1, "tfl": 1, "ful": 1, "pfl_position": 1,
                       "attn_layer": 4, "narp_query": 1, "narp_head": 1,
                       "encode": 1, "rollout": 1, "prediction_losses": 1,
                       "kl_loss": 1, "total_loss": 1, "slice": 8}

    def test_network_nodes_are_float32_and_the_rest_float64(self):
        # the leaves are float32, so every network node is too, up to the
        # decoder head and the latent's mu and logvar; the encoding, the
        # rollout and the losses are float64, and each leaf's gradient keeps
        # its leaf's dtype
        total, out, params = _default_step(batch=2, n_veh=3)
        nodes = ad.Tape.trace(total).nodes
        [encode] = [n for n in nodes if n._op == "encode"]
        network = ad.Tape.trace(encode._parents[0]).nodes + [out.mu, out.logvar]
        assert {n.data.dtype for n in network} == {np.dtype(np.float32)}
        ids = {id(n) for n in network}
        rest = [n for n in nodes if id(n) not in ids]
        assert {n._op for n in rest} == {"encode", "rollout", "slice",
                                         "prediction_losses", "kl_loss",
                                         "total_loss"}
        assert {n.data.dtype for n in rest} == {np.dtype(np.float64)}
        assert len(network) + len(rest) == len(nodes) == 93
        total.backward()
        for tensor in params.weights.values():
            assert tensor.data.dtype == tensor.grad.dtype == np.float32

    def test_step_graph_is_freed_without_the_cycle_collector(self):
        gc.disable()
        try:
            total, out, params = _default_step(batch=2, n_veh=3)
            probes = [weakref.ref(t) for t in (out.theta, out.result.v, out.mu)]
            del out
            ad.Tape.trace(total).backward(np.ones_like(total.data))
            del total
            assert all(p() is None for p in probes)
        finally:
            gc.enable()
        assert all(t.grad is not None for t in params.weights.values())


class TestTrainLoop:
    def test_runs_and_logs_deterministically(self, tmp_path):
        cfg = _tiny_config()
        count = data.window_count(_windows(cfg))
        assert count >= 8
        split = max(2, count // 5)
        val = _windows(cfg, slice(None, split))
        train_w = _windows(cfg, slice(split, None))
        results = []
        logs = []
        for _ in range(2):
            params = net.init_params(cfg, seed=1)
            params.norm_mean, params.norm_std = net.fit_normalization(train_w)
            stream = io.StringIO()
            res = tr.train(params, cfg, train_w, val,
                           tr.TrainConfig(epochs=3, batch_size=8, lr=1e-3, seed=9),
                           checkpoint_dir=str(tmp_path / "ckpt"), log_stream=stream)
            results.append(res)
            logs.append(stream.getvalue())
        assert logs[0] == logs[1]
        assert results[0].status == "completed"
        lines = [json.loads(ln) for ln in logs[0].splitlines()]
        assert [ln["epoch"] for ln in lines] == [0, 1, 2]
        assert all(math.isfinite(ln["val_loss"]) for ln in lines)
        # best checkpoint reloads and matches the recorded best epoch
        loaded, cfg2 = tr.load_checkpoint(str(tmp_path / "ckpt"))
        assert cfg2 == cfg
        assert results[0].best_epoch >= 0
        assert results[0].best_val <= lines[0]["val_loss"]

    def test_trained_model_and_its_checkpoint_agree_bitwise(self, tmp_path):
        # one epoch is the best one, so the checkpoint holds the in-memory
        # weights; both run the network in float32, taped or not
        cfg = _tiny_config()
        wins = _windows(cfg)
        params = net.init_params(cfg, seed=4)
        params.norm_mean, params.norm_std = net.fit_normalization(wins)
        res = tr.train(params, cfg, wins, wins,
                       tr.TrainConfig(epochs=1, batch_size=4, lr=1e-3, seed=1),
                       checkpoint_dir=str(tmp_path))
        assert res.best_epoch == 0
        loaded, _ = tr.load_checkpoint(str(tmp_path))
        hist, lead, _ = wins[0]
        noise = np.random.default_rng(5).standard_normal(
            hist.shape[:2] + (cfg.d_model,))
        for eps in (None, noise):
            want = net.model_forward(loaded, cfg, hist, lead, noise=eps)
            for mode in (contextlib.nullcontext, ad.no_grad):
                with mode():
                    got = net.model_forward(params, cfg, hist, lead, noise=eps)
                for field in ("theta", "mu", "logvar"):
                    a, b = getattr(got, field).data, getattr(want, field).data
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
                for field in ("v", "s"):
                    a = getattr(got.result, field).data
                    assert a.tobytes() == getattr(want.result, field).data.tobytes()

    def test_loss_decreases_on_small_problem(self):
        cfg = _tiny_config()
        wins = _windows(cfg, slice(None, 2))
        params = net.init_params(cfg, seed=2)
        params.norm_mean, params.norm_std = net.fit_normalization(wins)
        log = io.StringIO()
        res = tr.train(params, cfg, wins, wins,
                       tr.TrainConfig(epochs=40, batch_size=2, lr=5e-3, seed=0),
                       log_stream=log)
        assert res.status == "completed"
        first = json.loads(log.getvalue().splitlines()[0])
        assert res.best_val < 0.9 * first["val_loss"]

    def test_non_finite_loss_aborts_and_restores(self):
        cfg = _tiny_config()
        wins = _windows(cfg, slice(None, 4))
        params = net.init_params(cfg, seed=3)
        params.norm_mean, params.norm_std = net.fit_normalization(wins)
        before = {k: t.data.copy() for k, t in params.weights.items()}
        log = io.StringIO()
        res = tr.train(params, cfg, wins, wins,
                       tr.TrainConfig(epochs=5, batch_size=1, lr=1e30, seed=0),
                       log_stream=log)
        assert res.status == "aborted_non_finite"
        assert len(log.getvalue().splitlines()) < 5
        for k, t in params.weights.items():
            np.testing.assert_array_equal(t.data, before[k])

    def test_abort_names_epoch_batch_and_cause(self, monkeypatch):
        cfg = _tiny_config()
        wins = _windows(cfg, slice(None, 4))
        params = net.init_params(cfg, seed=3)
        params.norm_mean, params.norm_std = net.fit_normalization(wins)
        forward, calls = net.model_forward, []

        def failing(*args, **kwargs):
            if kwargs.get("noise") is not None:     # a training step
                calls.append(None)
                if len(calls) == 4 + 3:        # epoch 1, batch 2
                    raise ad.NonFiniteValue("non-finite value produced by 'exp'")
            return forward(*args, **kwargs)

        monkeypatch.setattr(net, "model_forward", failing)
        log = io.StringIO()
        res = tr.train(params, cfg, wins, wins,
                       tr.TrainConfig(epochs=3, batch_size=1, seed=0),
                       log_stream=log)
        assert res.status == "aborted_non_finite"
        assert res.abort_reason == \
            "epoch 1 batch 2: non-finite value produced by 'exp'"
        assert [json.loads(ln)["epoch"] for ln in log.getvalue().splitlines()] \
            == [0]

    def test_step_graph_is_gone_before_the_next_forward(self, monkeypatch):
        # Live memory at each taped forward entry stays within a quarter of
        # one step's graph of the first entry's: step k's graph is freed
        # before step k+1 builds its own. When backward kept the graph, every
        # entry after the first held one more graph (+251 KB here against a
        # 222 KB forward). The full collection only empties the interpreter's
        # free lists, whose blocks tracemalloc counts as live.
        cfg = net.desk_config()
        wins = data.extract_windows(
            data.generate_synthetic_platoons(4, n_followers=3, duration_s=4.0,
                                             seed=3),
            cfg.history_len, cfg.horizon, 2)
        forward, entries, grown = net.model_forward, [], []

        def spy(params, config, *args, **kwargs):
            if not ad.needs_grad(*params.weights.values()):
                return forward(params, config, *args, **kwargs)
            gc.collect()
            entries.append(tracemalloc.get_traced_memory()[0])
            out = forward(params, config, *args, **kwargs)
            grown.append(tracemalloc.get_traced_memory()[0] - entries[-1])
            return out

        monkeypatch.setattr(net, "model_forward", spy)
        tracemalloc.start()
        try:
            # weights made under tracing, so that Adam's fresh arrays replace
            # traced ones
            params = net.init_params(cfg)
            params.norm_mean, params.norm_std = net.fit_normalization(wins)
            tr.train(params, cfg, wins, wins,
                     tr.TrainConfig(epochs=2, batch_size=4))
        finally:
            tracemalloc.stop()
        assert len(entries) == 2 * data.window_count(wins) // 4 >= 8
        assert max(entries) - entries[0] < grown[0] / 4

    def test_empty_window_lists_rejected(self):
        cfg = _tiny_config()
        params = net.init_params(cfg, seed=0)
        with pytest.raises(ValueError, match="training"):
            tr.train(params, cfg, [], _windows(cfg), tr.TrainConfig())
        # records too short for a window give triples with no rows
        empty = _windows(cfg, slice(0))
        assert data.window_count(empty) == 0
        with pytest.raises(ValueError, match="validation"):
            tr.train(params, cfg, _windows(cfg), empty, tr.TrainConfig())
