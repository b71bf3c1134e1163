"""Tests for the closed-loop simulator, controllers, and deviation reports."""

import csv

import numpy as np
import pytest

from platoonkit import data
from platoonkit import dynamics as dyn
from platoonkit import network as net
from platoonkit import simulate as sim
from platoonkit.idm import IdmController, IdmParams


def _record(duration_steps=120, n_followers=2, seed=3, platoon_id="cl-test"):
    profile = data.LeadProfile("sinusoid", v_init=20.0, amp=2.5,
                               period_s=9.0, phase=0.4)
    params = [IdmParams(30.0, 1.2, 2.0, 1.1, 1.6) for _ in range(n_followers)]
    lengths = np.full(n_followers + 1, 4.5)
    rec, = data.synthesize_platoon([platoon_id], [profile], [params], [lengths],
                                   noise_sigma=0.0, noise_seeds=[seed],
                                   duration_steps=duration_steps)
    return rec


def _stable_theta(rng, n, S):
    raw = rng.normal(0.0, 0.7, size=(n, S, 3))
    return dyn.encode_parameters(raw).data


class _PerPlatoonLaw:
    """A fixed linear law per record index: plans[i] = (theta, v*, s*).

    Checks on every replan that rows which have collided are left out.
    """

    history_len = 1

    def __init__(self, plans, steps_per_block):
        self.plans = plans
        self.m = steps_per_block
        self.horizon = plans[0][0].shape[1] * steps_per_block

    def replan(self, history, lead_future, platoons):
        assert (history[..., 1] > 0.0).all()
        picked = [self.plans[i] for i in platoons]
        self.theta, self.v_star, self.s_star = (
            np.stack(part) for part in zip(*picked))

    def accel(self, k, v, s, dv):
        th = self.theta[:, :, k // self.m]
        return (th[..., 0] * (v - self.v_star) + th[..., 1] * (s - self.s_star)
                + th[..., 2] * dv)


class _Recording(_PerPlatoonLaw):
    """A _PerPlatoonLaw that keeps every history it is handed. The gaps in a
    history are the integrator's own, not re-derived from positions."""

    def __init__(self, plans, steps_per_block, history_len=1):
        super().__init__(plans, steps_per_block)
        self.history_len = history_len
        self.histories = []

    def replan(self, history, lead_future, platoons):
        self.histories.append(history.copy())
        super().replan(history, lead_future, platoons)


class TestScriptedMatchesChainedRollout:
    def test_bitwise_agreement_with_open_loop_chain(self):
        rec = _record(duration_steps=120)
        N = rec.n_followers
        P, S, m = 6, 2, 3
        F = S * m
        rng = np.random.default_rng(17)
        theta = _stable_theta(rng, N, S)
        v_star = rec.speeds[1:, :P].mean(axis=1)
        s_star = rec.gaps()[:, :P].mean(axis=1)
        ctrl = _PerPlatoonLaw([(theta, v_star, s_star)], m)
        run = sim.closed_loop_simulate(rec, ctrl, warmup_steps=P)
        assert run.viable and run.clamp_count == 0

        # Oracle: chain full-horizon rollouts, feeding each plan's last state
        # into the next. (120 - 6) = 114 steps = 19 whole plans.
        lead = rec.speeds[0]
        v = rec.speeds[1:, P - 1].copy()
        s = rec.gaps()[:, P - 1].copy()
        dv = np.concatenate(([lead[P - 1]], v[:-1])) - v
        xstar = dyn.ExpectedState(v_star[None], s_star[None])
        got_v, got_s = [], []
        t = P - 1
        while t < rec.duration - 1:
            state = np.stack([v, s, dv], axis=-1)[None]
            chunk = lead[t + 1:t + 1 + F][None]
            out = dyn.rollout(state, chunk, theta[None], xstar, dt=data.DT)
            got_v.append(out.v.data[0])
            got_s.append(out.s.data[0])
            v = out.v.data[0, :, -1].copy()
            s = out.s.data[0, :, -1].copy()
            # the rollout's own subtractions, so dv is bit-exact
            dv = np.concatenate(([chunk[0, -1]], v[:-1])) - v
            t += F
        want_v = np.concatenate(got_v, axis=1)
        want_s = np.concatenate(got_s, axis=1)
        np.testing.assert_allclose(run.record.speeds[1:, P:], want_v,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(run.record.gaps()[:, P:], want_s,
                                   rtol=0, atol=1e-12)

    def test_warmup_frames_copied_verbatim(self):
        rec = _record()
        rng = np.random.default_rng(1)
        theta = _stable_theta(rng, rec.n_followers, 2)
        # the first replan's history spans the whole warmup
        ctrl = _Recording([(theta, rec.speeds[1:, 0], rec.gaps()[:, 0])], 3,
                          history_len=8)
        run = sim.closed_loop_simulate(rec, ctrl, warmup_steps=8)
        np.testing.assert_array_equal(run.record.speeds[1:, :8],
                                      rec.speeds[1:, :8])
        first = ctrl.histories[0][0]
        np.testing.assert_array_equal(first[..., 0], rec.speeds[1:, :8])
        np.testing.assert_array_equal(first[..., 1], rec.gaps()[:, :8])


class TestIdmSelfConsistency:
    def test_reproduces_generator_trajectories(self):
        n = 3
        profile = data.LeadProfile("piecewise", v_init=18.0, seed=11)
        params = [IdmParams(28.0, 1.4, 2.2, 1.1, 1.8),
                  IdmParams(31.0, 1.1, 2.0, 1.3, 2.0),
                  IdmParams(26.0, 1.6, 2.5, 0.9, 1.5)]
        lengths = np.array([4.6, 4.3, 4.8, 4.4])
        rec, = data.synthesize_platoon(["idm-cl"], [profile], [params],
                                       [lengths], noise_sigma=0.0,
                                       noise_seeds=[0], duration_steps=150)
        run = sim.closed_loop_simulate(rec, IdmController(params),
                                       warmup_steps=1)
        assert run.viable
        np.testing.assert_allclose(run.record.speeds[1:], rec.speeds[1:],
                                   rtol=0, atol=1e-9)
        np.testing.assert_allclose(run.record.gaps(), rec.gaps(),
                                   rtol=0, atol=1e-9)
        np.testing.assert_allclose(run.record.positions[1:], rec.positions[1:],
                                   rtol=0, atol=1e-9)

    def test_controller_rejects_scalar_params(self):
        with pytest.raises(TypeError, match="list"):
            IdmController(IdmParams(30, 1.2, 2, 1.1, 1.6))


class TestSimulatorMechanics:
    def test_positions_cascade_exactly(self):
        rec = _record()
        rng = np.random.default_rng(2)
        theta = _stable_theta(rng, rec.n_followers, 2)
        # a replan every step hands over the integrated gaps of frames 5..T-2
        ctrl = _Recording([(theta, rec.speeds[1:, 5], rec.gaps()[:, 5])], 3)
        run = sim.closed_loop_simulate(rec, ctrl, warmup_steps=6,
                                       replan_interval=1)
        np.testing.assert_array_equal(run.record.positions[0], rec.positions[0])
        integrated = np.stack([h[0, :, -1, 1] for h in ctrl.histories], axis=1)
        assert integrated.shape == (rec.n_followers, run.duration - 6)
        np.testing.assert_allclose(run.record.gaps()[:, 5:-1], integrated,
                                   rtol=0, atol=1e-12)

    def test_collision_truncates_before_bad_frame(self):
        rec = _record()
        n = rec.n_followers
        # Strong pull toward a 0.2 m gap collapses the platoon quickly.
        theta = np.tile(np.array([-0.4, 2.5, 0.1]), (n, 1, 1))
        ctrl = _PerPlatoonLaw(
            [(theta, rec.speeds[1:, 5], np.full(n, 0.2))], 4)
        run = sim.closed_loop_simulate(rec, ctrl, warmup_steps=6)
        assert run.collision_frame is not None
        assert run.duration == run.collision_frame
        assert (run.record.gaps()[:, 6:] > 0.0).all()

    def test_speeds_clamped_at_zero(self):
        rec = _record()
        n = rec.n_followers
        # Huge speed-error gain with a tiny target speed forces braking
        # through zero within a step or two.
        theta = np.tile(np.array([-50.0, 0.01, 0.01]), (n, 1, 1))
        ctrl = _PerPlatoonLaw(
            [(theta, np.full(n, 0.5), rec.gaps()[:, 5])], 4)
        run = sim.closed_loop_simulate(rec, ctrl, warmup_steps=6)
        assert run.clamp_count > 0
        assert (run.record.speeds[1:] >= 0.0).all()

    def test_lead_future_padding_holds_last_speed(self):
        rec = _record(duration_steps=20)
        futures = []

        class Spy:
            history_len = 1
            horizon = 8

            def replan(self, history, lead_future, platoons):
                futures.append(lead_future.copy())

            def accel(self, k, v, s, dv):
                return np.zeros_like(v)

        sim.closed_loop_simulate(rec, Spy(), warmup_steps=2, replan_interval=8)
        assert all(f.shape == (1, 8) for f in futures)
        lead = rec.speeds[0]
        # 18 steps from anchor t=1: plans at t=1,9,17; the last sees 2 real
        # frames then 6 held copies of the final speed.
        np.testing.assert_array_equal(futures[-1][0, 2:], np.full(6, lead[-1]))
        np.testing.assert_array_equal(futures[-1][0, :2], lead[18:20])

    def test_guards(self):
        rec = _record(duration_steps=30)
        ctrl = IdmController([IdmParams(30, 1.2, 2, 1.1, 1.6)] * rec.n_followers)
        with pytest.raises(sim.SimulationError, match="warmup"):
            cfg = net.ModelConfig(d_model=4, attn_heads=2, history_len=6,
                                  horizon=4, param_window=2, n_state=2,
                                  ve_hidden=4, attn_layers=1)
            mc = sim.ModelController(net.init_params(cfg), cfg)
            sim.closed_loop_simulate(rec, mc, warmup_steps=3)
        with pytest.raises(sim.SimulationError, match="replan"):
            sim.closed_loop_simulate(rec, ctrl, replan_interval=5)
        with pytest.raises(sim.SimulationError, match="frames"):
            sim.closed_loop_simulate(rec, ctrl, warmup_steps=30)


class TestModelControllerIntegration:
    def _cfg(self):
        return net.ModelConfig(d_model=4, n_state=2, conv_kernel=4,
                               ve_hidden=4, attn_layers=1, attn_heads=2,
                               history_len=6, horizon=4, param_window=2)

    def test_deterministic_run(self):
        rec = _record()
        cfg = self._cfg()
        params = net.init_params(cfg, seed=0)
        a = sim.closed_loop_simulate(rec, sim.ModelController(params, cfg))
        b = sim.closed_loop_simulate(rec, sim.ModelController(params, cfg))
        assert a.warmup_steps == cfg.history_len
        np.testing.assert_array_equal(a.record.speeds, b.record.speeds)
        np.testing.assert_array_equal(a.record.positions, b.record.positions)

    def test_stochastic_run_differs(self):
        rec = _record()
        cfg = self._cfg()
        params = net.init_params(cfg, seed=0)
        det = sim.closed_loop_simulate(rec, sim.ModelController(params, cfg))
        sto = sim.closed_loop_simulate(
            rec, sim.ModelController(params, cfg, seed=4))
        assert not np.array_equal(det.record.speeds, sto.record.speeds)

    def test_planning_step_must_match_record(self):
        # neither the config nor the controller takes a step of its own, so
        # every plan is stepped at the record's DT: s' = s + DT * dv
        with pytest.raises(TypeError, match="dt"):
            net.ModelConfig(d_model=4, n_state=2, conv_kernel=4, ve_hidden=4,
                            attn_layers=1, attn_heads=2, history_len=6,
                            horizon=4, param_window=2, dt=0.2)
        cfg = self._cfg()
        params = net.init_params(cfg, seed=0)
        with pytest.raises(TypeError, match="dt"):
            sim.ModelController(params, cfg, dt=0.2)
        rec = _record()
        run = sim.closed_loop_simulate(rec, sim.ModelController(params, cfg))
        P, T = run.warmup_steps, run.record.duration
        assert T > P + 1
        spd = run.record.speeds
        np.testing.assert_allclose(
            run.record.gaps()[:, P:T] - run.record.gaps()[:, P - 1:T - 1],
            dyn.DT * (spd[:-1, P - 1:T - 1] - spd[1:, P - 1:T - 1]),
            rtol=0, atol=1e-9)

    def test_accel_before_replan_rejected(self):
        cfg = self._cfg()
        mc = sim.ModelController(net.init_params(cfg), cfg)
        with pytest.raises(sim.SimulationError, match="replan"):
            mc.accel(0, np.zeros(2), np.ones(2), np.zeros(2))


class TestDeviationReport:
    def test_perfect_controller_zero_deviation(self):
        n = 2
        profile = data.LeadProfile("const_accel", v_init=15.0, accel=0.4)
        params = [IdmParams(30.0, 1.2, 2.0, 1.1, 1.6)] * n
        rec, = data.synthesize_platoon(["dev"], [profile], [params],
                                       [np.full(n + 1, 4.5)], noise_sigma=0.0,
                                       noise_seeds=[0], duration_steps=100)
        run = sim.closed_loop_simulate(rec, IdmController(params),
                                       warmup_steps=1)
        rep = sim.compare_runs(rec, run)
        assert rep.rmse_speed < 1e-9
        assert rep.rmse_position < 1e-9
        assert rep.frames[0] == 1 and rep.frames[-1] == 99

    def test_csv_round_trip(self, tmp_path):
        rec = _record()
        rng = np.random.default_rng(8)
        theta = _stable_theta(rng, rec.n_followers, 2)
        ctrl = _PerPlatoonLaw(
            [(theta, rec.speeds[1:, 5], rec.gaps()[:, 5])], 3)
        run = sim.closed_loop_simulate(rec, ctrl, warmup_steps=6)
        rep = sim.compare_runs(rec, run)
        path = str(tmp_path / "dev.csv")
        sim.write_deviations_csv(rep, path)
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["vehicle_index", "frame", "speed_dev_mps",
                           "position_dev_m"]
        assert len(rows) == 1 + rep.speed_dev.size
        got = float(rows[1][2])
        assert got == pytest.approx(rep.speed_dev[0, 0], rel=1e-9)


def _assert_same_run(got, want):
    assert got.record.platoon_id == want.record.platoon_id
    assert got.collision_frame == want.collision_frame
    assert got.clamp_count == want.clamp_count
    for field in ("speeds", "positions", "lengths"):
        np.testing.assert_array_equal(getattr(got.record, field),
                                      getattr(want.record, field))


class TestBatchedSimulation:
    def _cfg(self):
        return net.ModelConfig(d_model=4, n_state=2, conv_kernel=4,
                               ve_hidden=4, attn_layers=1, attn_heads=2,
                               history_len=6, horizon=4, param_window=2)

    def _mixed_plans(self):
        """Records 0-2 share a shape; 1 collides, 2 clamps; 3 has 3 followers."""
        recs = [_record(seed=s) for s in (3, 4, 5)] + [_record(n_followers=3)]
        rng = np.random.default_rng(6)
        plans = [
            (_stable_theta(rng, 2, 2), recs[0].speeds[1:, 5],
             recs[0].gaps()[:, 5]),
            (np.tile(np.array([-0.4, 2.5, 0.1]), (2, 2, 1)),
             recs[1].speeds[1:, 5], np.full(2, 0.2)),
            (np.tile(np.array([-50.0, 0.01, 0.01]), (2, 2, 1)),
             np.full(2, 0.5), recs[2].gaps()[:, 5]),
            (_stable_theta(rng, 3, 2), recs[3].speeds[1:, 5],
             recs[3].gaps()[:, 5]),
        ]
        return recs, plans

    def test_each_row_matches_its_single_run(self):
        recs, plans = self._mixed_plans()
        runs = sim.simulate_platoons(recs, _PerPlatoonLaw(plans, 3),
                                     warmup_steps=6)
        assert runs[1].collision_frame is not None
        assert runs[2].clamp_count > 0 and runs[2].collision_frame is None
        assert runs[0].viable and runs[3].viable
        for rec, plan, run in zip(recs, plans, runs):
            alone = sim.closed_loop_simulate(rec, _PerPlatoonLaw([plan], 3),
                                             warmup_steps=6)
            _assert_same_run(run, alone)

    def test_mixed_shapes_keep_input_order(self):
        recs = [_record(n_followers=3, seed=1, platoon_id="p0"),
                _record(seed=2, platoon_id="p1"),
                _record(duration_steps=80, seed=3, platoon_id="p2"),
                _record(n_followers=3, seed=4, platoon_id="p3"),
                _record(seed=5, platoon_id="p4")]

        class Cruise:
            history_len = 1
            horizon = 5

            def replan(self, history, lead_future, platoons):
                pass

            def accel(self, k, v, s, dv):
                return np.zeros_like(v)

        runs = sim.simulate_platoons(recs, Cruise())
        assert [r.record.platoon_id for r in runs] == ["p0", "p1", "p2", "p3", "p4"]
        assert [r.record.n_followers for r in runs] == [3, 2, 2, 3, 2]
        for rec, run in zip(recs, runs):
            _assert_same_run(run, sim.closed_loop_simulate(rec, Cruise()))

    def test_model_rows_match_single_runs(self):
        cfg = self._cfg()
        params = net.init_params(cfg, seed=0)
        recs = [_record(seed=s) for s in (3, 4)] + [_record(n_followers=3)]
        runs = sim.simulate_platoons(recs, sim.ModelController(params, cfg))
        for rec, run in zip(recs, runs):
            alone = sim.closed_loop_simulate(rec, sim.ModelController(params, cfg))
            _assert_same_run(run, alone)

    def test_stochastic_noise_independent_of_batch(self):
        cfg = self._cfg()
        params = net.init_params(cfg, seed=0)
        a, b = _record(seed=3), _record(seed=4)
        other = _record(n_followers=3)
        together = sim.simulate_platoons(
            [a, b], sim.ModelController(params, cfg, seed=9))
        a_alone = sim.simulate_platoons(
            [a, other], sim.ModelController(params, cfg, seed=9))[0]
        b_alone = sim.simulate_platoons(
            [other, b], sim.ModelController(params, cfg, seed=9))[1]
        _assert_same_run(together[0], a_alone)
        _assert_same_run(together[1], b_alone)
        det = sim.simulate_platoons([a], sim.ModelController(params, cfg))[0]
        assert not np.array_equal(det.record.speeds, a_alone.record.speeds)

    def test_one_forward_per_replan_per_shape(self, monkeypatch):
        cfg = self._cfg()
        params = net.init_params(cfg, seed=0)
        recs = [_record(duration_steps=60, seed=s) for s in (3, 4, 5)]
        recs += [_record(duration_steps=60, n_followers=3, seed=s)
                 for s in (6, 7)]
        batches = []
        forward = net.model_forward

        def counting(params, config, history, lead_future, noise=None):
            batches.append(history.shape[0])
            return forward(params, config, history, lead_future, noise)

        monkeypatch.setattr(net, "model_forward", counting)
        runs = sim.simulate_platoons(recs, sim.ModelController(params, cfg))
        assert all(run.viable for run in runs)
        replans = -(-(60 - cfg.history_len) // cfg.horizon)     # ceil
        assert sorted(batches) == [2] * replans + [3] * replans
