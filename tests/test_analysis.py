"""Metrics, stability spectra, safety surrogates, and divergence fixtures."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from platoonkit import analysis as an


# -- rmse / mape -----------------------------------------------------------------

def test_rmse_hand_fixture():
    # errors (3, 4) -> sqrt(25/2)
    assert abs(an.rmse([0.0, 0.0], [3.0, 4.0]) - np.sqrt(12.5)) < 1e-12
    assert an.rmse([1.0, 2.0], [1.0, 2.0]) == 0.0


def test_rmse_sign_symmetric():
    a = np.array([1.0, -2.0, 3.0])
    assert an.rmse(a, -a) == an.rmse(-a, a)


def test_rmse_empty_rejected():
    with pytest.raises(an.AnalysisError, match="empty"):
        an.rmse(np.empty(0), np.empty(0))
    with pytest.raises(an.AnalysisError, match="mismatch"):
        an.rmse([1.0], [1.0, 2.0])


def test_mape_hand_fixtures():
    assert abs(an.mape([5.0], [10.0]) - 50.0) < 1e-12
    assert an.mape([10.0], [10.0]) == 0.0
    # (1/10 + 2/20) / 2 = 10%
    assert abs(an.mape([11.0, 18.0], [10.0, 20.0]) - 10.0) < 1e-12


def test_mape_threshold_excludes_small_truth():
    # |truth| < 0.5 is dropped: only the second pair counts
    assert abs(an.mape([1.0, 11.0], [0.4, 10.0]) - 10.0) < 1e-12
    with pytest.raises(an.AnalysisError, match="threshold"):
        an.mape([1.0, 2.0], [0.1, -0.2])


# -- transfer function and string stability ---------------------------------------

def test_transfer_magnitude_dc_gain_is_one():
    theta = np.array([-1.2, 0.8, 0.9])
    assert an.transfer_function_magnitude(theta, [0.0])[0] == 1.0


def test_transfer_magnitude_hand_fixtures():
    # f_v=-2, f_s=1, f_dv=0 at w=1: |1| / |(j)^2 + 2j + 1| = 1/2
    got = an.transfer_function_magnitude(np.array([-2.0, 1.0, 0.0]), [1.0])
    assert abs(got[0] - 0.5) < 1e-12
    # f_v=-0.5: denominator -1 + 0.5j + 1 = 0.5j -> gain 2
    got = an.transfer_function_magnitude(np.array([-0.5, 1.0, 0.0]), [1.0])
    assert abs(got[0] - 2.0) < 1e-12


def test_transfer_magnitude_batched_shape():
    theta = np.ones((4, 2, 3))
    out = an.transfer_function_magnitude(theta, np.linspace(0.1, 1.0, 7))
    assert out.shape == (4, 2, 7)
    with pytest.raises(an.AnalysisError, match="last axis"):
        an.transfer_function_magnitude(np.ones((3, 2)), [1.0])


def test_margin_matches_dense_grid_classification():
    # closed form vs brute-force max gain over a dense grid, 1000 draws
    rng = np.random.default_rng(7)
    n = 1000
    theta = np.stack([-rng.uniform(0.1, 3.0, n),
                      rng.uniform(0.05, 3.0, n),
                      rng.uniform(0.05, 3.0, n)], axis=-1)
    margin = an.string_stability_margin(theta)
    decided = np.abs(margin) > 1e-3
    grid = np.geomspace(1e-3, 5.0, 400)
    peak = an.transfer_function_magnitude(theta, grid).max(axis=-1)
    stable_grid = peak <= 1.0 + 1e-12
    assert decided.sum() > 900
    assert np.array_equal((margin >= 0.0)[decided], stable_grid[decided])


def test_margin_hand_value():
    # (f_dv - f_v)^2 - f_dv^2 - 2 f_s with theta (-1, 0.3, 0.2)
    m = an.string_stability_margin(np.array([-1.0, 0.3, 0.2]))
    assert abs(m - (1.2 ** 2 - 0.04 - 0.6)) < 1e-12
    assert an.string_stability_margin(np.array([-1.0, 0.3, 0.2])) >= 0.0


def test_head_to_tail_single_vehicle_equals_own_spectrum():
    theta = np.array([[[-1.0, 0.3, 0.2]]])
    rep = an.head_to_tail_gain(theta)
    assert rep.omega.shape == (an.OMEGA_POINTS,)
    assert rep.omega[0] == an.OMEGA_MIN and abs(rep.omega[-1] - an.OMEGA_MAX) < 1e-12
    assert np.array_equal(rep.chain, rep.per_vehicle[0])
    assert not rep.amplified


def test_head_to_tail_chain_is_product():
    rng = np.random.default_rng(3)
    theta = np.stack([-rng.uniform(0.5, 2.0, 4),
                      rng.uniform(0.1, 1.0, 4),
                      rng.uniform(0.1, 1.0, 4)], axis=-1)[:, None]
    rep = an.head_to_tail_gain(theta)
    assert np.allclose(rep.chain, rep.per_vehicle.prod(axis=0), rtol=0, atol=0)
    assert rep.peak_gain == rep.chain.max()


def test_head_to_tail_averages_parameter_blocks():
    rng = np.random.default_rng(9)
    sched = np.stack([-rng.uniform(0.5, 2.0, (3, 4)),
                      rng.uniform(0.1, 1.0, (3, 4)),
                      rng.uniform(0.1, 1.0, (3, 4))], axis=-1)
    rep = an.head_to_tail_gain(sched)
    direct = an.head_to_tail_gain(sched.mean(axis=1, keepdims=True))
    assert np.array_equal(rep.theta_used, sched.mean(axis=1))
    assert np.array_equal(rep.chain, direct.chain)


def test_head_to_tail_flags_amplification():
    # margin = 0.51^2 - 0.01^2 - 2 < 0: unstable, peak inside the grid
    rep = an.head_to_tail_gain(np.array([[[-0.5, 1.0, 0.01]]]))
    assert rep.amplified and rep.peak_gain > 1.0


def test_head_to_tail_takes_parameter_blocks_only():
    # an already-averaged (N, 3) schedule is passed as (N, 1, 3)
    with pytest.raises(an.AnalysisError, match=r"\(N, S, 3\), got \(2, 3\)"):
        an.head_to_tail_gain(np.array([[-1.0, 0.3, 0.2], [-0.5, 1.0, 0.01]]))


# -- PET -------------------------------------------------------------------------

def _constant_speed_positions(gap, T=60, v=10.0, length=4.5):
    step = v * an.DT
    lead = 100.0 + step * np.arange(T)
    follow = lead - length - gap
    return np.stack([lead, follow]), np.array([length, length])


def test_pet_constant_speed_fixture():
    # equal speeds 10 m/s, 20 m gap: every reachable frame gives 2.0 s
    pos, lengths = _constant_speed_positions(gap=20.0)
    pet = an.pet_series(pos, lengths)
    assert pet.shape == (1, 60)
    assert np.allclose(pet[0, :40], 2.0, atol=1e-9)
    assert np.isnan(pet[0, 40:]).all()


def test_pet_halved_gap_halves():
    pos, lengths = _constant_speed_positions(gap=10.0)
    pet = an.pet_series(pos, lengths)
    assert np.allclose(pet[0, :50], 1.0, atol=1e-9)


def test_pet_interpolates_between_frames():
    # stationary leader rear at 10 m, follower closing at 3 m/s
    T = 60
    lead = np.full(T, 14.5)
    follow = 0.3 * np.arange(T)
    pet = an.pet_series(np.stack([lead, follow]), np.array([4.5, 4.5]))
    assert abs(pet[0, 0] - 10.0 / 3.0) < 1e-9


def test_pet_unreached_is_nan():
    # receding leader, stationary follower: no crossings at all
    T = 40
    lead = 30.0 + 1.0 * np.arange(T)
    follow = np.zeros(T)
    pet = an.pet_series(np.stack([lead, follow]), np.array([4.5, 4.5]))
    assert np.isnan(pet).all()


def test_pet_translation_invariant():
    pos, lengths = _constant_speed_positions(gap=13.0)
    a = an.pet_series(pos, lengths)
    b = an.pet_series(pos + 1234.5, lengths)
    assert np.allclose(a, b, atol=1e-9, equal_nan=True)


@settings(max_examples=100, deadline=None)
@given(v=st.floats(0.5, 40.0), gap=st.floats(0.5, 100.0),
       frames=st.integers(2, 200), length=st.floats(3.0, 6.0),
       start=st.floats(-1000.0, 1000.0))
def test_pet_behind_constant_speed_is_gap_over_speed(v, gap, frames, length,
                                                      start):
    lead = start + v * an.DT * np.arange(frames)
    follow = lead - length - gap
    pet = an.pet_series(np.stack([lead, follow]), np.array([length, 4.0]))
    # NaN exactly where the leader's rear lies past the follower's last frame
    past = (lead - length) > follow[-1]
    np.testing.assert_array_equal(np.isnan(pet[0]), past)
    assert np.abs(pet[0, ~past] - gap / v).max(initial=0.0) < 1e-9


def test_pet_rejects_reversing_follower():
    lead = np.array([20.0, 21.0, 22.0])
    follow = np.array([5.0, 6.0, 4.0])
    with pytest.raises(an.AnalysisError, match="backwards"):
        an.pet_series(np.stack([lead, follow]), np.array([4.0, 4.0]))


def test_pet_input_validation():
    with pytest.raises(an.AnalysisError, match="positions"):
        an.pet_series(np.zeros((1, 5)), np.array([4.0]))
    with pytest.raises(an.AnalysisError, match="lengths"):
        an.pet_series(np.zeros((2, 5)), np.array([4.0]))


# -- SSDD ------------------------------------------------------------------------

def test_ssdd_equal_speeds_fixture():
    # braking terms cancel: ssdd = s - v * t_r = 20 - 10 = 10
    speeds = np.full((2, 3), 10.0)
    gaps = np.full((1, 3), 20.0)
    out = an.ssdd_series(speeds, gaps)
    assert out.shape == (1, 3)
    assert np.all(out == 10.0)


def test_ssdd_closing_fixture():
    # 5 + 10^2/6.8 - (20 + 20^2/6.8)
    speeds = np.array([[10.0], [20.0]])
    gaps = np.array([[5.0]])
    expect = 5.0 + 100.0 / 6.8 - 20.0 - 400.0 / 6.8
    out = an.ssdd_series(speeds, gaps)
    assert abs(out[0, 0] - expect) < 1e-12
    assert abs(out[0, 0] - (-59.1176470588)) < 1e-6


def test_ssdd_zero_when_gap_covers_reaction_distance():
    v = 17.3
    speeds = np.full((2, 4), v)
    gaps = np.full((1, 4), v * an.REACTION_TIME)
    assert np.all(an.ssdd_series(speeds, gaps) == 0.0)


def test_ssdd_validation():
    with pytest.raises(an.AnalysisError, match="gaps"):
        an.ssdd_series(np.zeros((3, 5)), np.zeros((1, 5)))


@pytest.mark.parametrize("speed", [1e300, np.finfo(float).max])
def test_ssdd_overflow_is_refused(speed):
    # squared speeds beyond float64 would give inf - inf = NaN samples
    speeds = np.array([[speed, 10.0], [speed, 20.0]])
    gaps = np.array([[5.0, 5.0]])
    with pytest.raises(an.AnalysisError, match="non-finite SSDD"):
        an.ssdd_series(speeds, gaps)


# -- histogram divergences ---------------------------------------------------------

def test_divergence_hand_fixture():
    # bins (0.5, 0.5) vs (0.25, 0.75): KL = 0.5 ln(4/3);
    # Hellinger from BC = sqrt(1/8) + sqrt(3/8)
    edges = np.array([0.0, 1.0, 2.0])
    p = [0.5, 1.5]
    q = [0.5, 1.2, 1.5, 1.8]
    out = an.histogram_divergences(p, q, edges)
    assert abs(out["kl"] - 0.143841) < 1e-6
    bc = np.sqrt(0.125) + np.sqrt(0.375)
    assert abs(out["hellinger"] - np.sqrt(1.0 - bc)) < 1e-9
    assert abs(out["hellinger"] - 0.1845919) < 1e-6


def test_divergence_identical_samples_is_zero():
    edges = np.arange(0.0, 11.0)
    samples = np.random.default_rng(0).uniform(0, 10, 200)
    out = an.histogram_divergences(samples, samples, edges)
    assert abs(out["kl"]) < 1e-9
    assert abs(out["hellinger"]) < 1e-6


def test_divergence_disjoint_support():
    edges = np.array([0.0, 1.0, 2.0])
    out = an.histogram_divergences([0.5] * 4, [1.5] * 4, edges)
    assert out["hellinger"] > 1.0 - 1e-4
    assert out["kl"] > 10.0


def test_divergence_hellinger_symmetric():
    edges = np.arange(0.0, 6.0)
    a = [0.5, 1.5, 1.6, 3.2, 4.9]
    b = [0.1, 0.2, 2.5, 4.4]
    assert (an.histogram_divergences(a, b, edges)["hellinger"]
            == an.histogram_divergences(b, a, edges)["hellinger"])


def test_divergence_clips_out_of_range_samples():
    edges = np.array([0.0, 1.0, 2.0])
    probs = an.histogram_probabilities([-50.0, 0.5, 99.0], edges)
    assert abs(probs[0] - 2.0 / 3.0) < 1e-8
    assert abs(probs[1] - 1.0 / 3.0) < 1e-8
    assert abs(probs.sum() - 1.0) < 1e-12


def test_histogram_counts_clip_and_drop_non_finite():
    edges = np.array([0.0, 1.0, 2.0])
    counts = an.histogram_counts([-50.0, 0.5, 2.0, 99.0, np.nan, np.inf], edges)
    assert counts.tolist() == [2, 2]
    assert counts.dtype.kind == "i"


def test_divergence_empty_rejected():
    edges = np.array([0.0, 1.0])
    with pytest.raises(an.AnalysisError, match="samples"):
        an.histogram_divergences([], [1.0], edges)
    with pytest.raises(an.AnalysisError, match="samples"):
        an.histogram_probabilities([np.nan, np.nan], edges)


def test_default_bin_edges():
    assert an.PET_BIN_EDGES[0] == 0.0 and an.PET_BIN_EDGES[-1] == 10.0
    assert len(an.PET_BIN_EDGES) == 21
    assert an.SSDD_BIN_EDGES[0] == -100.0 and an.SSDD_BIN_EDGES[-1] == 100.0
    assert len(an.SSDD_BIN_EDGES) == 41


# -- horizon tables ----------------------------------------------------------------

def test_horizon_metrics_scores_the_named_step():
    F = 20
    true_v = np.full((2, 3, F), 10.0)
    true_s = np.full((2, 3, F), 20.0)
    pred_v = true_v.copy()
    pred_v[..., 4] += 2.0     # lead time 0.5 s only
    pred_s = true_s.copy()
    pred_s[..., 9] += 1.0     # lead time 1.0 s only
    table = an.horizon_metrics(pred_v, true_v, pred_s, true_s)
    assert set(table) == {"0.5s", "1s", "1.5s", "2s", "avg"}
    assert abs(table["0.5s"]["rmse_speed"] - 2.0) < 1e-12
    assert table["1s"]["rmse_speed"] == 0.0
    assert abs(table["0.5s"]["mape_speed"] - 20.0) < 1e-12
    assert abs(table["1s"]["rmse_gap"] - 1.0) < 1e-12
    assert abs(table["1s"]["mape_gap"] - 5.0) < 1e-12
    assert abs(table["avg"]["rmse_speed"] - np.sqrt(4.0 / F)) < 1e-12


def test_horizon_metrics_rejects_out_of_window_horizon():
    x = np.zeros((1, 1, 10)) + 1.0
    with pytest.raises(an.AnalysisError, match="window"):
        an.horizon_metrics(x, x, x, x)   # 1.5 s needs 15 steps


def test_persistence_prediction_holds_anchor():
    rng = np.random.default_rng(4)
    history = rng.normal(10.0, 1.0, (3, 5, 3))
    v, s = an.persistence_prediction(history, horizon=7)
    assert v.shape == (3, 7) and s.shape == (3, 7)
    assert np.array_equal(v, np.repeat(history[:, -1:, 0], 7, axis=-1))
    assert np.array_equal(s, np.repeat(history[:, -1:, 1], 7, axis=-1))
