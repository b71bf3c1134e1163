"""Acceptance gate: ten binary criteria, one visible pass/fail line each.

Each test prints `criterion NN <name>: PASS/FAIL (<measurements>)` through the
capture-disabled channel so the line shows up in plain pytest output, then
asserts. Tolerances are pinned in-line next to each check.
"""

import io
import json
import time
from pathlib import Path

import numpy as np
import pytest

from platoonkit import analysis, cli, data, idm, training
from platoonkit import autodiff as ad
from platoonkit import dynamics as dyn
from platoonkit import network as net
from platoonkit import simulate as sim


def _report(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} "
              f"({detail})", flush=True)
    assert ok, f"criterion {num} {name}: {detail}"


# -- shared trained model for criteria 5 and 9 ---------------------------------------

@pytest.fixture(scope="module")
def trained_model():
    """200 train + 50 test platoons (6 followers, 15 s) and a trained model."""
    t0 = time.time()
    config = net.ModelConfig(d_model=16, n_state=4, conv_kernel=4,
                             ve_hidden=16, attn_layers=1, attn_heads=2,
                             history_len=21, horizon=40, param_window=5)
    records = data.generate_synthetic_platoons(250, n_followers=6,
                                               duration_s=15.0, seed=100)
    train_recs, test_recs = records[:200], records[200:]
    P, F = config.history_len, config.horizon
    train_w = data.extract_windows(train_recs[:190], P, F, stride=10)
    val_w = data.extract_windows(train_recs[190:], P, F, stride=10)
    params = net.init_params(config, seed=1)
    params.norm_mean, params.norm_std = net.fit_normalization(train_w)
    tcfg = training.TrainConfig(epochs=10, batch_size=64, lr=1e-3,
                                alpha_kl=0.0025, seed=1)
    result = training.train(params, config, train_w, val_w, tcfg)
    assert result.status == "completed"

    # deterministic open-loop predictions on the held-out platoons
    test_w = data.extract_windows(test_recs, P, F, stride=10)
    arrays = dict(zip(("pv", "ps", "tv", "ts", "bv", "bs"),
                      cli._predictions(params, config, test_w)))
    return {"params": params, "config": config, "test_records": test_recs,
            "eval": arrays, "train_seconds": time.time() - t0}


# -- criterion 1: gradient integrity ---------------------------------------------------

def test_criterion_01_gradient_integrity(capsys):
    t0 = time.time()
    max_err, n_params = net.gradcheck_model(net.desk_config(), seed=0)
    elapsed = time.time() - t0
    ok = max_err < 1e-4 and elapsed < 60.0
    _report(capsys, 1, "gradient integrity", ok,
            f"max rel err {max_err:.3e} < 1e-4 over {n_params} parameters, "
            f"{elapsed:.1f}s < 60s")


# -- criterion 2: sign pattern ---------------------------------------------------------

def test_criterion_02_sign_pattern(capsys):
    rng = np.random.default_rng(2)
    raw = np.concatenate([rng.standard_normal((400_000, 3)),
                          rng.standard_normal((300_000, 3)) * 5.0,
                          rng.uniform(-20.0, 20.0, (300_000, 3))])
    theta = dyn.encode_parameters(raw).data
    violations = int(np.sum(theta[:, 0] >= 0.0) + np.sum(theta[:, 1] <= 0.0)
                     + np.sum(theta[:, 2] <= 0.0))
    ok = violations == 0 and theta.shape == (1_000_000, 3)
    _report(capsys, 2, "sign pattern (-,+,+)", ok,
            f"{violations} violations in 1e6 encoded triples")


# -- criterion 3: rollout oracle -------------------------------------------------------

def _scalar_rollout(initial, lead, theta, v_star, s_star, dt):
    """Independent pure-Python step-by-step reference."""
    n = len(initial)
    F = len(lead)
    m = F // len(theta[0])
    v = [row[0] for row in initial]
    s = [row[1] for row in initial]
    dv = [row[2] for row in initial]
    out_v, out_s = [], []
    for k in range(F):
        j = k // m
        a = [theta[i][j][0] * (v[i] - v_star[i])
             + theta[i][j][1] * (s[i] - s_star[i])
             + theta[i][j][2] * dv[i] for i in range(n)]
        v_next = [v[i] + a[i] * dt for i in range(n)]
        s_next = [s[i] + dv[i] * dt for i in range(n)]
        ahead = [lead[k]] + v_next[:-1]
        dv = [ahead[i] - v_next[i] for i in range(n)]
        v, s = v_next, s_next
        out_v.append(list(v))
        out_s.append(list(s))
    return np.array(out_v).T, np.array(out_s).T


def test_criterion_03_rollout_oracle(capsys):
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 6))
        n_steps = int(rng.integers(1, 9))
        F = min(m * n_steps, 40 - 40 % m) or m
        S = F // m
        theta_t = dyn.encode_parameters(rng.standard_normal((n, S, 3)))
        initial = np.stack([rng.uniform(0, 30, n), rng.uniform(5, 50, n),
                            rng.uniform(-3, 3, n)], axis=-1)
        lead = rng.uniform(0, 30, F)
        v_star = rng.uniform(5, 25, n)
        s_star = rng.uniform(10, 40, n)
        xstar = dyn.ExpectedState(v_star, s_star)
        with ad.no_grad():
            out = dyn.rollout(initial, lead, theta_t, xstar, dt=0.1)
        ref_v, ref_s = _scalar_rollout(initial.tolist(), lead.tolist(),
                                       theta_t.data.tolist(),
                                       v_star.tolist(), s_star.tolist(), 0.1)
        worst = max(worst, float(np.abs(out.v.data - ref_v).max()),
                    float(np.abs(out.s.data - ref_s).max()))
    ok = worst <= 1e-12
    _report(capsys, 3, "rollout vs scalar oracle", ok,
            f"max abs deviation {worst:.2e} <= 1e-12 over 1000 instances")


# -- criterion 4: overfit --------------------------------------------------------------

def test_criterion_04_overfit(capsys):
    t0 = time.time()
    config = net.desk_config()
    rec = data.generate_synthetic_platoons(1, n_followers=2,
                                           duration_s=6.0, seed=7)[0]
    [triple] = data.extract_windows([rec], config.history_len,
                                    config.horizon, stride=7)
    wins = [tuple(a[:8] for a in triple)]
    assert data.window_count(wins) == 8
    params = net.init_params(config, seed=0)
    params.norm_mean, params.norm_std = net.fit_normalization(wins)
    tcfg = training.TrainConfig(epochs=200, batch_size=8, lr=3e-3,
                                alpha_kl=0.0025, seed=0)
    log = io.StringIO()
    result = training.train(params, config, wins, wins, tcfg, log_stream=log)
    epochs = [json.loads(line) for line in log.getvalue().splitlines()]
    total = [h["train_v"] + h["train_s"] + tcfg.alpha_kl * h["train_kl"]
             for h in epochs]
    elapsed = time.time() - t0
    crossed = next((i for i, v in enumerate(total) if v <= 0.1 * total[0]),
                   None)
    ok = (result.status == "completed" and crossed is not None
          and elapsed < 600.0)
    _report(capsys, 4, "overfit 8 windows", ok,
            f"loss {total[0]:.4f} -> {min(total):.6f}, under 10% at epoch "
            f"{crossed}, {elapsed:.1f}s < 600s")


# -- criterion 5: generalization beats persistence --------------------------------------

def _improvements_at_2s(ev):
    """Speed and gap RMSE at 2.0 s, the model's and persistence's, and the
    model's improvement over persistence in percent."""
    idx = int(round(2.0 / data.DT)) - 1
    model_v = analysis.rmse(ev["pv"][:, idx], ev["tv"][:, idx])
    model_s = analysis.rmse(ev["ps"][:, idx], ev["ts"][:, idx])
    base_v = analysis.rmse(ev["bv"][:, idx], ev["tv"][:, idx])
    base_s = analysis.rmse(ev["bs"][:, idx], ev["ts"][:, idx])
    imp_v = 100.0 * (1.0 - model_v / base_v)
    imp_s = 100.0 * (1.0 - model_s / base_s)
    return model_v, model_s, base_v, base_s, imp_v, imp_s


def test_criterion_05_generalization(capsys, trained_model):
    ev = trained_model["eval"]
    model_v, model_s, base_v, base_s, imp_v, imp_s = _improvements_at_2s(ev)
    seconds = trained_model["train_seconds"]
    ok = imp_v >= 30.0 and imp_s >= 30.0 and seconds < 7200.0
    _report(capsys, 5, "generalization at 2.0 s", ok,
            f"speed RMSE {model_v:.3f} vs persistence {base_v:.3f} "
            f"(+{imp_v:.0f}%), gap RMSE {model_s:.3f} vs {base_s:.3f} "
            f"(+{imp_s:.0f}%), both >= 30%; {seconds:.0f}s < 7200s")


# -- criterion 6: stability oracle ------------------------------------------------------

_V_STAR, _S_STAR, _TRANSIENT_S = 20.0, 30.0, 30.0


def _measured_gains(theta3, omegas, dt):
    """Sinusoid amplification of one follower, batched over frequencies."""
    omegas = np.asarray(omegas)
    t_total = _TRANSIENT_S + 4.5 * 2.0 * np.pi / omegas.min()
    steps = int(np.ceil(t_total / dt))
    t = (np.arange(steps) + 1) * dt
    lead = _V_STAR + np.sin(omegas[:, None] * t)
    initial = np.tile([_V_STAR, _S_STAR, 0.0], (omegas.size, 1, 1))
    theta = np.tile(np.asarray(theta3), (omegas.size, 1, 1, 1))
    xstar = dyn.ExpectedState(np.full((omegas.size, 1), _V_STAR),
                              np.full((omegas.size, 1), _S_STAR))
    with ad.no_grad():
        out = dyn.rollout(initial, lead, theta, xstar, dt=dt)
    y = out.v.data[:, 0, :] - _V_STAR
    u = lead - _V_STAR
    gains = np.empty(omegas.size)
    for i, w in enumerate(omegas):
        # project onto an integer number of post-transient periods (>= 4)
        n_per = int(np.floor((t[-1] - _TRANSIENT_S) * w / (2.0 * np.pi)))
        mask = t > t[-1] - n_per * 2.0 * np.pi / w
        s_ref, c_ref = np.sin(w * t[mask]), np.cos(w * t[mask])
        amp = lambda sig: np.hypot(sig[mask] @ s_ref, sig[mask] @ c_ref)
        gains[i] = amp(y[i]) / amp(u[i])
    return gains


def test_criterion_06_stability_oracle(capsys):
    grid = analysis.default_omega_grid()
    cases = {"stable": (-2.0, 1.0, 0.5),
             "marginal": (-1.0, 1.0, 0.5),      # margin exactly 0
             "unstable": (-0.5, 1.0, 0.01)}
    details, ok = [], True
    for name, theta in cases.items():
        theta = np.asarray(theta)
        lo, hi = grid[grid < 0.7], grid[grid >= 0.7]
        measured = np.concatenate([_measured_gains(theta, lo, dt=0.01),
                                   _measured_gains(theta, hi, dt=0.002)])
        analytic = analysis.transfer_function_magnitude(theta, grid)
        rel = float((np.abs(measured - analytic) / analytic).max())
        cls_form = bool(analysis.string_stability_margin(theta) >= 0.0)
        cls_gain = bool(analytic.max() <= 1.0 + 1e-9)
        ok = ok and rel <= 0.02 and cls_form == cls_gain
        details.append(f"{name} {rel:.2%}")
    _report(capsys, 6, "stability oracle", ok,
            "max |measured-analytic|/analytic per set: "
            + ", ".join(details) + "; all <= 2%, classifications match")


# -- criterion 7: calibration recovery ---------------------------------------------------

def test_criterion_07_calibration_recovery(capsys):
    truth = idm.IdmParams(v0=25.0, T=1.4, s0=2.5, a_max=1.2, b=2.0)
    profile = data.LeadProfile(kind="sinusoid", v_init=16.0, amp=14.5,
                               period_s=40.0, phase=0.0)
    rec, = data.synthesize_platoon(["cal"], [profile], [[truth]], [[4.6, 4.4]],
                                   noise_sigma=0.0, noise_seeds=[0],
                                   duration_steps=800)
    obs = data.follower_observation(rec, 1)
    result = idm.calibrate_ga(obs, seed=0, budget=600)
    errs = {name: 100.0 * abs(getattr(result.params, name)
                              - getattr(truth, name)) / getattr(truth, name)
            for name in ("v0", "T", "s0")}
    again = idm.calibrate_ga(obs, seed=11, budget=5)
    again2 = idm.calibrate_ga(obs, seed=11, budget=5)
    deterministic = again.params == again2.params
    ok = (result.fitness < 0.1 and all(e < 5.0 for e in errs.values())
          and deterministic)
    _report(capsys, 7, "calibration recovery", ok,
            f"GA fitness (gap + speed RMSE) {result.fitness:.3f} < 0.1; "
            + ", ".join(f"{n} off {e:.1f}%" for n, e in errs.items())
            + f" (< 5%); seed-deterministic: {deterministic}")


# -- criterion 8: safety fixtures --------------------------------------------------------

def test_criterion_08_safety_fixtures(capsys):
    # constant-speed platoon: PET = gap / speed at every reachable frame
    steps = 10.0 * data.DT
    lead = 100.0 + steps * np.arange(80)
    positions = np.stack([lead, lead - 4.5 - 20.0])
    pet = analysis.pet_series(positions, np.array([4.5, 4.5]))
    pet_ok = bool(np.all(np.abs(pet[0, :59] - 2.0) < 1e-9))

    edges = np.arange(0.0, 11.0)
    samples = np.random.default_rng(8).uniform(0.0, 10.0, 500)
    same = analysis.histogram_divergences(samples, samples, edges)
    zero_ok = abs(same["kl"]) < 1e-6 and abs(same["hellinger"]) < 1e-6

    # two-bin fixture p=(1/2,1/2), q=(1/4,3/4):
    # KL = 0.5 ln 2 + 0.5 ln(2/3) = 0.143841 nats; the Bhattacharyya
    # coefficient is sqrt(1/8)+sqrt(3/8) = 0.96592583, so the Hellinger
    # distance is sqrt(1 - 0.96592583) = 0.18459191.
    two = analysis.histogram_divergences([0.5, 1.5], [0.5, 1.2, 1.5, 1.8],
                                         np.array([0.0, 1.0, 2.0]))
    kl_ok = abs(two["kl"] - 0.143841) < 1e-6
    hell_ok = abs(two["hellinger"] - 0.18459191) < 1e-6

    ok = pet_ok and zero_ok and kl_ok and hell_ok
    _report(capsys, 8, "safety-metric fixtures", ok,
            f"PET exact: {pet_ok}; identical-sample divergences zero: "
            f"{zero_ok}; KL {two['kl']:.6f} (0.143841), Hellinger "
            f"{two['hellinger']:.6f} (0.184592) at 1e-6")


# -- criterion 9: closed-loop viability ---------------------------------------------------

def _closed_loop(records, params, config):
    """Collision-free platoons and mean closed-loop speed RMSE."""
    runs = sim.simulate_platoons(records, sim.ModelController(params, config))
    viable, rmses = 0, []
    for rec, run in zip(records, runs):
        viable += run.viable
        if run.duration > run.warmup_steps:
            rmses.append(sim.compare_runs(rec, run).rmse_speed)
    return viable, float(np.mean(rmses))


def test_criterion_09_closed_loop_viability(capsys, trained_model):
    params = trained_model["params"]
    config = trained_model["config"]
    ev = trained_model["eval"]
    open_rmse = analysis.rmse(ev["pv"], ev["tv"])
    records = trained_model["test_records"]
    viable, closed_rmse = _closed_loop(records, params, config)
    total = len(trained_model["test_records"])
    ratio = closed_rmse / open_rmse
    ok = viable / total >= 0.8 and ratio <= 2.0
    _report(capsys, 9, "closed-loop viability", ok,
            f"{viable}/{total} collision-free (>= 80%); closed-loop speed "
            f"RMSE {closed_rmse:.3f} vs open-loop {open_rmse:.3f}, ratio "
            f"{ratio:.2f} <= 2")


def test_criteria_05_and_09_through_a_checkpoint(capsys, trained_model, tmp_path):
    # criteria 05 and 09 run the in-memory float32 leaves; eval and simulate
    # load a checkpoint of them and run the same float32 network
    config, records = trained_model["config"], trained_model["test_records"]
    training.save_checkpoint(str(tmp_path), trained_model["params"], config)
    loaded, _ = training.load_checkpoint(str(tmp_path))
    test_w = data.extract_windows(records, config.history_len, config.horizon,
                                  stride=10)
    ev = dict(zip(("pv", "ps", "tv", "ts", "bv", "bs"),
                  cli._predictions(loaded, config, test_w)))
    runs = {"in memory": (trained_model["eval"], trained_model["params"]),
            "loaded": (ev, loaded)}
    lines, verdicts = [], {}
    for name, (arrays, params) in runs.items():
        _, _, _, _, imp_v, imp_s = _improvements_at_2s(arrays)
        viable, _ = _closed_loop(records, params, config)
        verdicts[name] = (imp_v, imp_s, viable)
        lines.append(f"{name}: +{imp_v:.4f}% speed, +{imp_s:.4f}% gap at "
                     f"2.0 s, {viable}/{len(records)} collision-free")
    imp_v, imp_s, viable = verdicts["loaded"]
    ok = (imp_v >= 30.0 and imp_s >= 30.0 and viable / len(records) >= 0.8
          and viable >= verdicts["in memory"][2])
    with capsys.disabled():
        print(f"criteria 05 and 09 through a checkpoint: "
              f"{'PASS' if ok else 'FAIL'} ({'; '.join(lines)})", flush=True)
    assert ok, lines


# -- criterion 10: pipeline determinism ----------------------------------------------------

def _run_pipeline(base: Path) -> tuple:
    base.mkdir(parents=True, exist_ok=True)
    data_dir, ckpt_dir = base / "data", base / "ckpt"
    report = base / "report.json"
    cfg = base / "config.json"
    cfg.write_text(json.dumps({
        "model": {"d_model": 8, "n_state": 2, "conv_kernel": 4,
                  "ve_hidden": 8, "attn_layers": 1, "attn_heads": 2,
                  "history_len": 21, "horizon": 20, "param_window": 5},
        "train": {"epochs": 2, "batch_size": 32, "lr": 1e-3, "seed": 3}}))
    for argv in (
            ["--threads", "1", "datagen", "--out", str(data_dir),
             "--platoons", "8", "--followers", "3", "--duration-s", "10.0",
             "--seed", "42"],
            ["--threads", "1", "train", "--data", str(data_dir), "--out",
             str(ckpt_dir), "--config", str(cfg), "--stride", "15"],
            ["--threads", "1", "eval", "--checkpoint", str(ckpt_dir),
             "--data", str(data_dir), "--out", str(report), "--stride", "15"]):
        assert cli.dispatch(argv) == 0, f"pipeline step failed: {argv}"
    return report.read_bytes(), (ckpt_dir / "weights.bin").read_bytes()


def test_criterion_10_pipeline_determinism(capsys, tmp_path):
    report_a, weights_a = _run_pipeline(tmp_path / "a")
    report_b, weights_b = _run_pipeline(tmp_path / "b")
    ok = report_a == report_b and weights_a == weights_b
    _report(capsys, 10, "pipeline determinism", ok,
            f"metric reports byte-identical: {report_a == report_b}; "
            f"checkpoints byte-identical: {weights_a == weights_b}")
