"""Tests for the closed-loop simulator, controllers, and deviation reports."""

import csv

import numpy as np
import pytest

from platoonkit import data
from platoonkit import dynamics as dyn
from platoonkit import network as net
from platoonkit import simulate as sim
from platoonkit.idm import IdmParams


def _record(duration_steps=120, n_followers=2, seed=3):
    profile = data.LeadProfile("sinusoid", v_init=20.0, amp=2.5,
                               period_s=9.0, phase=0.4)
    params = [IdmParams(30.0, 1.2, 2.0, 1.1, 1.6) for _ in range(n_followers)]
    lengths = np.full(n_followers + 1, 4.5)
    return data.synthesize_platoon("cl-test", profile, params, lengths,
                                   noise_sigma=0.0, noise_seed=seed,
                                   duration_steps=duration_steps)


def _stable_theta(rng, n, S):
    raw = rng.normal(0.0, 0.7, size=(n, S, 3))
    return dyn.encode_parameters(raw).data


class TestScriptedMatchesChainedRollout:
    def test_bitwise_agreement_with_open_loop_chain(self):
        rec = _record(duration_steps=120)
        N = rec.n_followers
        P, S, m = 6, 2, 3
        F = S * m
        rng = np.random.default_rng(17)
        theta = _stable_theta(rng, N, S)
        v_star = rec.speeds()[1:, :P].mean(axis=1)
        s_star = rec.gaps()[:, :P].mean(axis=1)
        ctrl = sim.ScriptedThetaController(theta, v_star, s_star, m)
        run = sim.closed_loop_simulate(rec, ctrl, warmup_steps=P)
        assert run.viable and run.clamp_count == 0

        # Oracle: chain full-horizon rollouts, feeding each plan's last state
        # into the next. (120 - 6) = 114 steps = 19 whole plans.
        lead = rec.vehicles[0].speed
        v = rec.speeds()[1:, P - 1].copy()
        s = rec.gaps()[:, P - 1].copy()
        dv = np.concatenate(([lead[P - 1]], v[:-1])) - v
        xstar = dyn.ExpectedState(v_star[None], s_star[None])
        got_v, got_s = [], []
        t = P - 1
        while t < rec.duration - 1:
            state = np.stack([v, s, dv], axis=-1)[None]
            chunk = lead[t + 1:t + 1 + F][None]
            out = dyn.rollout(state, chunk, theta[None], xstar, dt=rec.dt)
            got_v.append(out.v.data[0])
            got_s.append(out.s.data[0])
            v = out.v.data[0, :, -1].copy()
            s = out.s.data[0, :, -1].copy()
            dv = out.dv.data[0, :, -1].copy()
            t += F
        want_v = np.concatenate(got_v, axis=1)
        want_s = np.concatenate(got_s, axis=1)
        np.testing.assert_allclose(run.speeds[:, P:], want_v, rtol=0, atol=1e-12)
        np.testing.assert_allclose(run.gaps[:, P:], want_s, rtol=0, atol=1e-12)

    def test_warmup_frames_copied_verbatim(self):
        rec = _record()
        rng = np.random.default_rng(1)
        theta = _stable_theta(rng, rec.n_followers, 2)
        ctrl = sim.ScriptedThetaController(
            theta, rec.speeds()[1:, 0], rec.gaps()[:, 0], 3)
        run = sim.closed_loop_simulate(rec, ctrl, warmup_steps=8)
        np.testing.assert_array_equal(run.speeds[:, :8], rec.speeds()[1:, :8])
        np.testing.assert_array_equal(run.gaps[:, :8], rec.gaps()[:, :8])


class TestIdmSelfConsistency:
    def test_reproduces_generator_trajectories(self):
        n = 3
        profile = data.LeadProfile("piecewise", v_init=18.0, seed=11)
        params = [IdmParams(28.0, 1.4, 2.2, 1.1, 1.8),
                  IdmParams(31.0, 1.1, 2.0, 1.3, 2.0),
                  IdmParams(26.0, 1.6, 2.5, 0.9, 1.5)]
        lengths = np.array([4.6, 4.3, 4.8, 4.4])
        rec = data.synthesize_platoon("idm-cl", profile, params, lengths,
                                      noise_sigma=0.0, noise_seed=0,
                                      duration_steps=150)
        run = sim.closed_loop_simulate(rec, sim.IdmController(params),
                                       warmup_steps=1)
        assert run.viable
        np.testing.assert_allclose(run.speeds, rec.speeds()[1:], rtol=0, atol=1e-9)
        np.testing.assert_allclose(run.gaps, rec.gaps(), rtol=0, atol=1e-9)
        np.testing.assert_allclose(run.positions, rec.positions()[1:],
                                   rtol=0, atol=1e-9)

    def test_controller_rejects_scalar_params(self):
        with pytest.raises(TypeError, match="list"):
            sim.IdmController(IdmParams(30, 1.2, 2, 1.1, 1.6))


class TestSimulatorMechanics:
    def test_positions_cascade_exactly(self):
        rec = _record()
        rng = np.random.default_rng(2)
        theta = _stable_theta(rng, rec.n_followers, 2)
        ctrl = sim.ScriptedThetaController(
            theta, rec.speeds()[1:, 5], rec.gaps()[:, 5], 3)
        run = sim.closed_loop_simulate(rec, ctrl, warmup_steps=6)
        lengths = rec.lengths()
        np.testing.assert_array_equal(run.lead_positions, rec.vehicles[0].position)
        prev = run.lead_positions
        for i in range(rec.n_followers):
            np.testing.assert_allclose(
                prev - lengths[i] - run.positions[i], run.gaps[i],
                rtol=0, atol=1e-12)
            prev = run.positions[i]

    def test_collision_truncates_before_bad_frame(self):
        rec = _record()
        n = rec.n_followers
        # Strong pull toward a 0.2 m gap collapses the platoon quickly.
        theta = np.tile(np.array([-0.4, 2.5, 0.1]), (n, 1, 1))
        ctrl = sim.ScriptedThetaController(
            theta, rec.speeds()[1:, 5], np.full(n, 0.2), 4)
        run = sim.closed_loop_simulate(rec, ctrl, warmup_steps=6)
        assert run.collision_frame is not None
        assert run.duration == run.collision_frame
        assert (run.gaps[:, 6:] > 0.0).all()

    def test_speeds_clamped_at_zero(self):
        rec = _record()
        n = rec.n_followers
        # Huge speed-error gain with a tiny target speed forces braking
        # through zero within a step or two.
        theta = np.tile(np.array([-50.0, 0.01, 0.01]), (n, 1, 1))
        ctrl = sim.ScriptedThetaController(
            theta, np.full(n, 0.5), rec.gaps()[:, 5], 4)
        run = sim.closed_loop_simulate(rec, ctrl, warmup_steps=6)
        assert run.clamp_count > 0
        assert (run.speeds >= 0.0).all()

    def test_lead_future_padding_holds_last_speed(self):
        rec = _record(duration_steps=20)
        futures = []

        class Spy:
            history_len = 1
            horizon = 8

            def replan(self, history, lead_future):
                futures.append(lead_future.copy())

            def accel(self, k, v, s, dv):
                return np.zeros_like(v)

        sim.closed_loop_simulate(rec, Spy(), warmup_steps=2, replan_interval=8)
        assert all(f.shape == (8,) for f in futures)
        lead = rec.vehicles[0].speed
        # 18 steps from anchor t=1: plans at t=1,9,17; the last sees 2 real
        # frames then 6 held copies of the final speed.
        np.testing.assert_array_equal(futures[-1][2:], np.full(6, lead[-1]))
        np.testing.assert_array_equal(futures[-1][:2], lead[18:20])

    def test_guards(self):
        rec = _record(duration_steps=30)
        ctrl = sim.IdmController([IdmParams(30, 1.2, 2, 1.1, 1.6)] * rec.n_followers)
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
        np.testing.assert_array_equal(a.speeds, b.speeds)
        np.testing.assert_array_equal(a.positions, b.positions)

    def test_stochastic_run_differs(self):
        rec = _record()
        cfg = self._cfg()
        params = net.init_params(cfg, seed=0)
        det = sim.closed_loop_simulate(rec, sim.ModelController(params, cfg))
        sto = sim.closed_loop_simulate(
            rec, sim.ModelController(params, cfg,
                                     rng=np.random.default_rng(4)))
        assert not np.array_equal(det.speeds, sto.speeds)

    def test_planning_step_must_match_record(self):
        rec = _record()
        cfg = net.ModelConfig(d_model=4, n_state=2, conv_kernel=4,
                              ve_hidden=4, attn_layers=1, attn_heads=2,
                              history_len=6, horizon=4, param_window=2, dt=0.2)
        mc = sim.ModelController(net.init_params(cfg), cfg)
        with pytest.raises(sim.SimulationError, match=r"dt=0\.2 s.*dt=0\.1 s"):
            sim.closed_loop_simulate(rec, mc)

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
        rec = data.synthesize_platoon("dev", profile, params,
                                      np.full(n + 1, 4.5), noise_sigma=0.0,
                                      noise_seed=0, duration_steps=100)
        run = sim.closed_loop_simulate(rec, sim.IdmController(params),
                                       warmup_steps=1)
        rep = sim.compare_runs(rec, run)
        assert rep.rmse_speed < 1e-9
        assert rep.rmse_position < 1e-9
        assert rep.frames[0] == 1 and rep.frames[-1] == 99

    def test_csv_round_trip(self, tmp_path):
        rec = _record()
        rng = np.random.default_rng(8)
        theta = _stable_theta(rng, rec.n_followers, 2)
        ctrl = sim.ScriptedThetaController(
            theta, rec.speeds()[1:, 5], rec.gaps()[:, 5], 3)
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
