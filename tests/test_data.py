"""Data layer: CSV round trips, windowing arithmetic, splits, synthetic corpus."""

import csv
import math
import warnings

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


HEADER = ",".join(data.CSV_FIELDS) + "\n"


def _rows(pid, n_vehicles=2, frames=3, length="4.5"):
    """CSV rows of a valid platoon: vehicles 20 m apart at 10 m/s."""
    return "".join(f"{pid},{v},{t},{100 - 20 * v + t},10.0,{length}\n"
                   for v in range(n_vehicles) for t in range(frames))


def _load_text(tmp_path, text, name="bad.csv"):
    f = tmp_path / name
    f.write_bytes(text.encode())
    rejects = []
    return data.load_trajectories(f, rejects=rejects), rejects


def test_empty_file_rejected(tmp_path):
    with pytest.raises(data.DataFormatError, match=r"bad\.csv: empty file"):
        _load_text(tmp_path, "")


def test_header_only_file_loads_no_records(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _load_text(tmp_path, HEADER) == ([], [])
        assert _load_text(tmp_path, HEADER + "\n\n") == ([], [])


def test_wrong_column_count_names_its_line(tmp_path):
    text = HEADER + _rows("p0") + "p0,0,3,103.0,10.0\n"
    with pytest.raises(data.DataFormatError,
                       match=r"bad\.csv:8: expected 6 columns, got 5"):
        _load_text(tmp_path, text)


@pytest.mark.parametrize("column", [1, 2])
def test_decimal_in_integer_column_names_its_line(tmp_path, column):
    row = ["p0", "1", "2", "82.0", "10.0", "4.5"]
    row[column] = "1.0"
    text = HEADER + "p0,0,0,100.0,10.0,4.5\n\n" + ",".join(row) + "\n"
    with pytest.raises(data.DataFormatError,
                       match=r"bad\.csv:4: invalid literal for int\(\)"):
        _load_text(tmp_path, text)


@pytest.mark.parametrize("row", [
    '"p0",0,1,101.0,10.0,4.5',
    'p0,0,1,"3.5",10.0,4.5',
    'p0,0,1,101.0,10.0,"4.5"',
    "p0,1_0,1,101.0,10.0,4.5",
    "p0,0,1_0,101.0,10.0,4.5",
    "p0,0,1,1_000,10.0,4.5",
    "p0,0,1,101.0,1_0.0,4.5",
])
def test_quoted_or_underscored_cell_names_its_line(tmp_path, row):
    # csv.reader and float() took these; the bulk parse does not
    text = HEADER + "p0,0,0,100.0,10.0,4.5\n" + row + "\n"
    with pytest.raises(data.DataFormatError, match=r"bad\.csv:3: "):
        _load_text(tmp_path, text)


@pytest.mark.parametrize("rows, reason", [
    (_rows("p0") + "p0,1,2,82.0,10.0,4.5\n", "vehicle 1 has duplicate frames"),
    (_rows("p0") + "p0,1,3,83.0,10.0,4.5\n", "vehicle 1 frame range differs"),
    (_rows("p0").replace("p0,1,2,82,10.0,4.5", "p0,1,2,82,10.0,4.6"),
     "vehicle 1 length varies across frames"),
    (_rows("p0").replace("p0,1,", "p0,2,"),
     "vehicle indices [0, 2] not contiguous from 0"),
])
def test_structurally_broken_platoon_rejected(tmp_path, rows, reason):
    text = HEADER + _rows("good") + rows
    records, rejects = _load_text(tmp_path, text)
    assert [r.platoon_id for r in records] == ["good"]
    assert rejects == [("p0", f"platoon p0: {reason}")]


def test_platoon_split_across_files_is_merged(tmp_path):
    rows = _rows("p0", n_vehicles=3).splitlines(keepends=True)
    (tmp_path / "a.csv").write_text(HEADER + "".join(rows[::2]))
    (tmp_path / "b.csv").write_text(HEADER + "".join(rows[1::2]))
    whole, _ = _load_text(tmp_path, HEADER + "".join(rows), name="whole.txt")
    (merged,) = data.load_trajectories(tmp_path)
    assert np.array_equal(merged.positions, whole[0].positions)
    assert np.array_equal(merged.speeds, whole[0].speeds)
    assert np.array_equal(merged.lengths, whole[0].lengths)


def test_records_come_in_first_appearance_order_across_files(tmp_path):
    (tmp_path / "a.csv").write_text(HEADER + _rows("z") + _rows("m"))
    (tmp_path / "b.csv").write_text(HEADER + _rows("a") + _rows("m", frames=0)
                                    + _rows("b"))
    (tmp_path / "c.csv").write_text(HEADER + _rows("m", frames=0) + _rows("c"))
    assert [r.platoon_id for r in data.load_trajectories(tmp_path)] == \
        ["z", "m", "a", "b", "c"]


def test_crlf_line_endings_load_like_lf(tmp_path):
    text = HEADER + _rows("p0") + "\n" + _rows("p1", n_vehicles=3)
    lf, _ = _load_text(tmp_path, text, name="lf.csv")
    crlf, _ = _load_text(tmp_path, text.replace("\n", "\r\n"), name="crlf.csv")
    assert [r.platoon_id for r in crlf] == ["p0", "p1"]
    for a, b in zip(lf, crlf):
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.speeds, b.speeds)
        assert np.array_equal(a.lengths, b.lengths)


def _reference_load(path):
    """Platoons of a CSV directory read with ``csv.reader`` and ``float()``,
    row by row: (ids in first-appearance order, {id: (positions, speeds,
    lengths)})."""
    by_id = {}
    for f in sorted(path.glob("*.csv")):
        with open(f, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            next(reader)
            for pid, vi, frame, pos, spd, length in filter(None, reader):
                by_id.setdefault(pid, {}).setdefault(int(vi), []).append(
                    (int(frame), float(pos), float(spd), float(length)))
    arrays = {}
    for pid, by_vehicle in by_id.items():
        rows = [sorted(by_vehicle[v]) for v in sorted(by_vehicle)]
        arrays[pid] = (np.array([[r[1] for r in v] for v in rows]),
                       np.array([[r[2] for r in v] for v in rows]),
                       np.array([v[0][3] for v in rows]))
    return list(by_id), arrays


def test_loaded_arrays_match_a_row_by_row_reference(tmp_path):
    corpora = [data.generate_synthetic_platoons(n, n_followers=k,
                                                duration_s=4.0, seed=seed)
               for n, k, seed in ((3, 6, 31), (4, 3, 32), (2, 1, 33))]
    records = [r for corpus in corpora for r in corpus]
    # several platoons per file, files not in id order, one platoon split
    # over c.csv and d.csv by alternate rows
    data.write_trajectories(records[2:5], tmp_path / "a.csv")
    data.write_trajectories(records[5:], tmp_path / "b.csv")
    data.write_trajectories(records[:1], tmp_path / "d.csv")
    data.write_trajectories(records[1:2], tmp_path / "c.csv")
    split = (tmp_path / "d.csv").read_text().splitlines(keepends=True)
    (tmp_path / "d.csv").write_text(HEADER + "".join(split[1::2]))
    (tmp_path / "c.csv").write_text((tmp_path / "c.csv").read_text()
                                    + "".join(split[2::2]))

    ids, want = _reference_load(tmp_path)
    loaded = data.load_trajectories(tmp_path)
    assert [r.platoon_id for r in loaded] == ids
    assert sorted(ids) == sorted(r.platoon_id for r in records)
    for rec in loaded:
        positions, speeds, lengths = want[rec.platoon_id]
        assert np.array_equal(rec.positions, positions)
        assert np.array_equal(rec.speeds, speeds)
        assert np.array_equal(rec.lengths, lengths)


def test_follower_observation_adapter():
    rec = _tiny_record(T=10)
    obs = data.follower_observation(rec, 1)
    assert len(obs.positions) == 10
    assert obs.lead_length == 4.0
    assert np.array_equal(obs.gaps, rec.gaps()[0])
    with pytest.raises(ValueError):
        data.follower_observation(rec, 0)
