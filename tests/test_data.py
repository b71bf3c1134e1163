"""Data layer: CSV round trips, windowing arithmetic, splits, synthetic corpus."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from platoonkit import data, idm


def _tiny_record(pid="p0", T=8, n_follow=2):
    # Leader at 10 m/s, followers offset by fixed gaps; speeds distinct per
    # vehicle so feature checks can tell rows apart.
    positions, speeds = [], []
    for i in range(n_follow + 1):
        speeds.append(np.full(T, 10.0 - i))
        positions.append((50.0 - 20.0 * i) + np.arange(T) * 0.1 * (10.0 - i))
    return data.PlatoonRecord(pid, np.stack(positions), np.stack(speeds),
                              np.full(n_follow + 1, 4.0))


def test_gap_and_rel_speed_definitions():
    rec = _tiny_record()
    gaps = rec.gaps()
    pos = rec.positions
    assert np.allclose(gaps[0], pos[0] - 4.0 - pos[1])
    feats = data.features(rec.speeds, gaps)[:, 2:5]
    assert feats.shape == (2, 3, 3)
    assert np.allclose(feats[1, :, 2], rec.speeds[1, 2:5] - rec.speeds[2, 2:5])
    assert np.allclose(feats[0, :, 0], rec.speeds[1, 2:5])
    assert np.allclose(feats[1, :, 1], gaps[1, 2:5])


def test_window_counts():
    # floor((T - (P+F)) / stride) + 1 with P=21, F=20
    def count(T, stride=1):
        positions = np.stack([np.full(T, 100.0 - 30.0 * i) + np.arange(T)
                              for i in range(2)])
        rec = data.PlatoonRecord("w", positions, np.full((2, T), 10.0),
                                 np.full(2, 4.0))
        return len(data.extract_windows(rec, 21, 20, stride))

    assert count(150) == 110
    assert count(40) == 0
    assert count(41) == 1
    assert count(150, stride=7) == 16


def test_window_contents_align_with_record():
    rec = _tiny_record(T=12)
    wins = data.extract_windows(rec, history_len=4, horizon=3, stride=2)
    assert len(wins) == (12 - 7) // 2 + 1
    w = wins[1]
    assert w.anchor == 2 + 4 - 1
    spd = rec.speeds
    gaps = rec.gaps()
    assert np.array_equal(w.history[:, :, 0], spd[1:, 2:6])
    assert np.array_equal(w.history[:, :, 1], gaps[:, 2:6])
    assert np.array_equal(w.history[:, :, 2], spd[:-1, 2:6] - spd[1:, 2:6])
    assert np.array_equal(w.lead_future, spd[0, 6:9])
    assert np.array_equal(w.targets[:, :, 0], spd[1:, 6:9])
    assert np.array_equal(w.targets[:, :, 1], gaps[:, 6:9])


def test_split_counts_and_partition():
    def fakes(M):
        return [_tiny_record(pid=f"p{i:04d}", T=2) for i in range(M)]

    train, val = data.split_dataset(fakes(739), 0.1, seed=1)
    assert (len(train), len(val)) == (665, 74)
    train, val = data.split_dataset(fakes(10), 0.1, seed=1)
    assert (len(train), len(val)) == (9, 1)

    recs = fakes(53)
    train, val = data.split_dataset(recs, 0.1, seed=9)
    ids = [r.platoon_id for r in train + val]
    assert sorted(ids) == sorted(r.platoon_id for r in recs)
    assert len(set(ids)) == len(ids)

    again = data.split_dataset(recs, 0.1, seed=9)
    assert [r.platoon_id for r in again[0]] == [r.platoon_id for r in train]
    other = data.split_dataset(recs, 0.1, seed=10)
    assert [r.platoon_id for r in other[0]] != [r.platoon_id for r in train]


def test_split_keeps_every_platoon_at_every_corpus_size():
    # val takes floor(0.1 M + 0.5) platoons and train the rest, so no
    # platoon is dropped; a corpus with no remainder (M = 20) splits as
    # before: train is the first 18 of the permutation, val the last 2
    for M in range(1, 61):
        recs = [_tiny_record(pid=f"p{i:04d}", T=2) for i in range(M)]
        train, val = data.split_dataset(recs, 0.1, seed=3)
        assert len(val) == math.floor(0.1 * M + 0.5), M
        assert len(train) + len(val) == M, M
        assert {r.platoon_id for r in train + val} == \
            {r.platoon_id for r in recs}, M
    perm = np.random.default_rng(3).permutation(20)
    train, val = data.split_dataset(recs[:20], 0.1, seed=3)
    assert [r.platoon_id for r in train] == [f"p{i:04d}" for i in perm[:18]]
    assert [r.platoon_id for r in val] == [f"p{i:04d}" for i in perm[18:]]


def test_split_ratio_validation():
    for ratio in (-0.1, 1.5, math.nan):
        with pytest.raises(ValueError, match="val_ratio"):
            data.split_dataset([_tiny_record()], ratio, seed=0)


def test_csv_round_trip_is_byte_exact(tmp_path):
    records = data.generate_synthetic_platoons(3, n_followers=2, duration_s=4.0,
                                               seed=21)
    f1 = tmp_path / "a.csv"
    data.write_trajectories(records, f1)
    loaded = data.load_trajectories(f1)
    assert [r.platoon_id for r in loaded] == [r.platoon_id for r in records]
    f2 = tmp_path / "b.csv"
    data.write_trajectories(loaded, f2)
    assert f1.read_bytes() == f2.read_bytes()
    assert b"\r" not in f1.read_bytes()


def test_generation_deterministic(tmp_path):
    a = data.generate_synthetic_platoons(2, n_followers=3, duration_s=5.0, seed=42)
    b = data.generate_synthetic_platoons(2, n_followers=3, duration_s=5.0, seed=42)
    fa, fb = tmp_path / "a.csv", tmp_path / "b.csv"
    data.write_trajectories(a, fa)
    data.write_trajectories(b, fb)
    assert fa.read_bytes() == fb.read_bytes()
    c = data.generate_synthetic_platoons(2, n_followers=3, duration_s=5.0, seed=43)
    fc = tmp_path / "c.csv"
    data.write_trajectories(c, fc)
    assert fc.read_bytes() != fa.read_bytes()


def test_generated_records_satisfy_invariants():
    records = data.generate_synthetic_platoons(5, n_followers=4, duration_s=8.0,
                                               seed=3)
    assert len(records) == 5
    for rec in records:
        assert data.validate_record(rec) is None
        assert rec.duration == 80
        assert rec.n_followers == 4


def test_validate_record_rejects_arrays_that_do_not_fit():
    rec = _tiny_record(T=6)
    assert data.validate_record(rec) is None
    misfits = [
        data.PlatoonRecord("short", rec.positions, rec.speeds[:, :5], rec.lengths),
        data.PlatoonRecord("lengths", rec.positions, rec.speeds, rec.lengths[:2]),
        data.PlatoonRecord("flat", rec.positions[0], rec.speeds[0],
                           rec.lengths[:1]),
    ]
    for bad in misfits:
        reason = data.validate_record(bad)
        assert reason.startswith(f"platoon {bad.platoon_id}:")
        assert "do not fit" in reason


def test_validate_record_reports_vehicles_in_order():
    rec = _tiny_record(T=6)
    speeds, lengths = rec.speeds.copy(), rec.lengths.copy()
    speeds[0, 3] = -1.0
    lengths[1] = 0.0
    reason = data.validate_record(
        data.PlatoonRecord("p", rec.positions, speeds, lengths))
    assert reason == "platoon p: vehicle 0 negative speed at frame 3"


def test_gap_delta_identity_on_synthetic():
    # s(t+1) - s(t) == dt * dv(t): Euler integration makes this exact.
    for rec in data.generate_synthetic_platoons(3, n_followers=3, duration_s=6.0,
                                                seed=17):
        gaps = rec.gaps()
        dv = data.features(rec.speeds, gaps)[..., 2]
        resid = gaps[:, 1:] - gaps[:, :-1] - data.DT * dv[:, :-1]
        assert np.abs(resid).max() < 1e-9


def test_constant_lead_at_equilibrium_stays_constant():
    p = idm.IdmParams(30.0, 1.2, 2.0, 1.0, 1.5)
    profile = data.LeadProfile("const_accel", v_init=20.0, accel=0.0)
    rec = data.synthesize_platoon("eq", profile, [p, p], np.full(3, 4.5),
                                  noise_sigma=0.0, noise_seed=0, duration_steps=100)
    assert np.abs(rec.speeds - 20.0).max() < 1e-9


def test_lead_profiles_shapes_and_bounds():
    for kind in data.PROFILE_KINDS:
        profile = data.LeadProfile(kind, v_init=20.0, accel=-0.5, amp=3.0,
                                   period_s=8.0, seed=5)
        v = data.lead_speed_series(profile, 200)
        assert v.shape == (200,)
        assert v.min() >= 0.0 and v.max() <= data.SPEED_CAP
    v1 = data.lead_speed_series(data.LeadProfile("piecewise", 15.0, seed=7), 300)
    v2 = data.lead_speed_series(data.LeadProfile("piecewise", 15.0, seed=7), 300)
    assert np.array_equal(v1, v2)
    assert np.abs(np.diff(v1)).max() <= 1.5 * data.DT + 1e-12


def test_malformed_row_raises_with_line_number(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("platoon_id,vehicle_index,frame,position_m,speed_mps,length_m\n"
                 "p0,0,0,0.0,10.0,4.5\n"
                 "p0,0,1,oops,10.0,4.5\n")
    with pytest.raises(data.DataFormatError) as exc:
        data.load_trajectories(f)
    assert ":3" in str(exc.value)


@pytest.mark.parametrize("column", [3, 4, 5])
@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
def test_non_finite_value_raises_with_line_number(tmp_path, column, text):
    row = ["p0", "0", "1", "0.1", "10.0", "4.5"]
    row[column] = text
    f = tmp_path / "bad.csv"
    f.write_text("platoon_id,vehicle_index,frame,position_m,speed_mps,length_m\n"
                 "p0,0,0,0.0,10.0,4.5\n" + ",".join(row) + "\n")
    with pytest.raises(data.DataFormatError, match=r"bad\.csv:3: non-finite"):
        data.load_trajectories(f)


_finite = lambda lo, hi: st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def _platoon(draw, platoon_id):
    """A valid record: gaps of at least 0.5 m survive 9-digit rounding."""
    n_vehicles = draw(st.integers(2, 4))
    frames = draw(st.integers(1, 6))
    series = lambda lo, hi: np.array(draw(st.lists(
        _finite(lo, hi), min_size=frames, max_size=frames)))
    lengths = [draw(_finite(3.0, 20.0)) for _ in range(n_vehicles)]
    positions, speeds = [series(-1e4, 1e4)], []
    for i in range(n_vehicles):
        if i > 0:
            positions.append(positions[-1] - lengths[i - 1] - series(0.5, 100.0))
        speeds.append(series(0.0, 40.0))
    return data.PlatoonRecord(platoon_id, np.stack(positions), np.stack(speeds),
                              np.array(lengths))


@st.composite
def _corpus(draw):
    ids = draw(st.lists(st.text("abcXYZ019-_.", min_size=1, max_size=6),
                        min_size=1, max_size=3, unique=True))
    return [draw(_platoon(pid)) for pid in ids]


@settings(max_examples=60, deadline=None)
@given(_corpus())
def test_csv_round_trip_property(tmp_path_factory, records):
    first = tmp_path_factory.mktemp("rt") / "a.csv"
    data.write_trajectories(records, first)
    loaded = data.load_trajectories(first)
    assert [r.platoon_id for r in loaded] == sorted(r.platoon_id for r in records)
    by_id = {r.platoon_id: r for r in records}
    rounded = lambda a: np.array([float(data._fmt(x)) for x in a])
    for rec in loaded:
        want = by_id[rec.platoon_id]
        assert rec.n_followers == want.n_followers
        for i in range(rec.n_followers + 1):
            np.testing.assert_array_equal(rec.positions[i],
                                          rounded(want.positions[i]))
            np.testing.assert_array_equal(rec.speeds[i], rounded(want.speeds[i]))
            assert rec.lengths[i] == float(data._fmt(want.lengths[i]))
    second = first.with_name("b.csv")
    data.write_trajectories(loaded, second)
    assert second.read_bytes() == first.read_bytes()


def test_bad_header_rejected(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("a,b,c\n")
    with pytest.raises(data.DataFormatError):
        data.load_trajectories(f)


def test_overlapping_platoon_rejected_with_frame_diagnostic(tmp_path):
    rec = _tiny_record("good", T=12)
    f = tmp_path / "mix.csv"
    data.write_trajectories([rec], f)
    # append a platoon whose follower overlaps its leader at frame 10
    lines = []
    for t in range(12):
        lines.append(f"overlap,0,{t},{50 + t},10,4")
        follower_pos = 40 + t if t < 10 else 50 + t  # gap collapses at t=10
        lines.append(f"overlap,1,{t},{follower_pos},10,4")
    with open(f, "a") as fh:
        fh.write("\n".join(lines) + "\n")
    rejects = []
    records = data.load_trajectories(f, rejects=rejects)
    assert [r.platoon_id for r in records] == ["good"]
    assert len(rejects) == 1
    assert rejects[0][0] == "overlap"
    assert "frame 10" in rejects[0][1]


def test_missing_frames_rejected(tmp_path):
    f = tmp_path / "gap.csv"
    f.write_text("platoon_id,vehicle_index,frame,position_m,speed_mps,length_m\n"
                 "p0,0,0,50.0,10.0,4.5\n"
                 "p0,0,2,52.0,10.0,4.5\n"
                 "p0,1,0,30.0,10.0,4.5\n"
                 "p0,1,2,32.0,10.0,4.5\n")
    rejects = []
    assert data.load_trajectories(f, rejects=rejects) == []
    assert "missing frames" in rejects[0][1]


def test_directory_loading(tmp_path):
    a = data.generate_synthetic_platoons(2, n_followers=2, duration_s=3.0, seed=1)
    b = data.generate_synthetic_platoons(2, n_followers=2, duration_s=3.0, seed=2)
    data.write_trajectories(a, tmp_path / "a.csv")
    data.write_trajectories(b, tmp_path / "b.csv")
    records = data.load_trajectories(tmp_path)
    assert len(records) == 4


def test_follower_observation_adapter():
    rec = _tiny_record(T=10)
    obs = data.follower_observation(rec, 1)
    assert len(obs.positions) == 10
    assert obs.lead_length == 4.0
    assert np.array_equal(obs.gaps, rec.gaps()[0])
    with pytest.raises(ValueError):
        data.follower_observation(rec, 0)
