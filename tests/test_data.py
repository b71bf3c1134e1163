"""Data layer: CSV round trips, windowing arithmetic, splits, synthetic corpus."""

import csv
import io
import math
import tracemalloc
import types
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from platoonkit import cli, data, idm, simulate


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
        [(history, lead, targets)] = data.extract_windows([rec], 21, 20,
                                                          stride)
        assert len(lead) == len(targets) == len(history)
        return len(history)

    assert count(150) == 110
    assert count(40) == 0
    assert count(41) == 1
    assert count(150, stride=7) == 16


def test_window_contents_align_with_record():
    rec = _tiny_record(T=12)
    [(history, lead, targets)] = data.extract_windows([rec], history_len=4,
                                                      horizon=3, stride=2)
    assert len(history) == (12 - 7) // 2 + 1
    # row 1 starts at frame 1 * stride and has its anchor at 2 + 4 - 1
    spd = rec.speeds
    gaps = rec.gaps()
    assert np.array_equal(history[1, :, :, 0], spd[1:, 2:6])
    assert np.array_equal(history[1, :, :, 1], gaps[:, 2:6])
    assert np.array_equal(history[1, :, :, 2], spd[:-1, 2:6] - spd[1:, 2:6])
    assert np.array_equal(lead[1], spd[0, 6:9])
    assert np.array_equal(targets[1, :, :, 0], spd[1:, 6:9])
    assert np.array_equal(targets[1, :, :, 1], gaps[:, 6:9])


def _reference_windows(rec, P, F, stride):
    """Per-window (history, lead_future, targets), sliced from
    ``data.features`` one window at a time."""
    feats = data.features(rec.speeds, rec.gaps())
    return [(feats[:, t:t + P], rec.speeds[0, t + P:t + P + F],
             feats[:, t + P:t + P + F, :2])
            for t in range(0, rec.duration - (P + F) + 1, stride)]


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.flags.c_contiguous and got.tobytes() == want.tobytes()


def _stacked(windows, P, F, n):
    """The windows of ``_reference_windows`` stacked, or empty arrays of the
    triple's shapes when there are none."""
    if not windows:
        return (np.empty((0, n, P, 3)), np.empty((0, F)),
                np.empty((0, n, F, 2)))
    return tuple(np.stack(parts) for parts in zip(*windows))


@pytest.mark.parametrize("T, stride, W", [
    (40, 1, 29), (40, 3, 10), (12, 1, 1), (12, 5, 1), (11, 1, 0), (3, 2, 0)])
def test_windows_equal_the_per_window_reference(T, stride, W):
    # T = 12 is exactly P + F frames: one window; shorter records have none
    P, F = 5, 7
    rec = data.generate_synthetic_platoons(1, n_followers=3, duration_s=T / 10,
                                           seed=4)[0]
    assert rec.duration == T
    [got] = data.extract_windows([rec], P, F, stride)
    want = _stacked(_reference_windows(rec, P, F, stride), P, F, 3)
    assert len(got) == 3 and len(got[0]) == W
    for g, w in zip(got, want):
        _assert_same_bits(g, w)


def _mixed_corpus():
    # follower counts 3, 2, 3, 2, 3 and 4; the third and the last records are
    # too short for a window, so no window has 4 followers
    counts = (3, 2, 3, 2, 3, 4)
    durations = (3.0, 2.5, 0.9, 2.0, 2.2, 0.5)
    return [data.generate_synthetic_platoons(1, n_followers=n, duration_s=d,
                                             seed=i)[0]
            for i, (n, d) in enumerate(zip(counts, durations))]


def _reference_batches(windows, batch_size, rng=None):
    """Per-window batching: group by vehicle count in ascending order, keep
    list order within a group, optionally permute it, stack chunks."""
    groups = {}
    for w in windows:
        groups.setdefault(w[0].shape[0], []).append(w)
    batches = []
    for n in sorted(groups):
        group = groups[n]
        if rng is not None:
            group = [group[i] for i in rng.permutation(len(group))]
        for lo in range(0, len(group), batch_size):
            batches.append(tuple(np.stack(parts)
                                 for parts in zip(*group[lo:lo + batch_size])))
    return batches


def test_windows_never_mix_vehicle_counts():
    def rec(n, seed):
        return data.generate_synthetic_platoons(1, n_followers=n,
                                                duration_s=2.0, seed=seed)[0]
    records = [rec(2, 0), rec(3, 1), rec(2, 2), rec(3, 3), rec(2, 4)]
    got = data.extract_windows(records, 6, 4, stride=5)
    assert [(h.shape[1], len(h), len(lead), t.shape[1])
            for h, lead, t in got] == [(2, 9, 9, 2), (3, 6, 6, 3)]


@pytest.mark.parametrize("stride", [1, 2, 5])
def test_windows_of_a_mixed_corpus_are_c_ordered_and_in_record_order(stride):
    # each count's triple is its records' reference windows, stacked in list
    # order; _assert_same_bits also asserts that every array is C-contiguous
    P, F = 6, 4
    records = _mixed_corpus()
    got = data.extract_windows(records, P, F, stride)
    assert len(got) == 3
    for n, triple in zip((2, 3, 4), got):
        want = _stacked([w for rec in records if rec.n_followers == n
                         for w in _reference_windows(rec, P, F, stride)],
                        P, F, n)
        for g, w in zip(triple, want):
            _assert_same_bits(g, w)


def test_windows_are_written_once():
    # a corpus of 6- and 3-follower platoons with records too short for a
    # window, at the default P and F and stride 1: the peak above entry stays
    # near the arrays returned (copying per record, then concatenating, read
    # 2.0 times them)
    P, F = 21, 20
    records = [data.generate_synthetic_platoons(1, n_followers=n, duration_s=d,
                                                seed=i)[0]
               for i, (n, d) in enumerate([(6, 15.0), (3, 15.0), (6, 3.0),
                                           (3, 12.0), (6, 10.0), (3, 2.0)])]
    data.extract_windows(records, P, F)      # warm caches
    tracemalloc.start()
    try:
        got = data.extract_windows(records, P, F)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    returned = sum(a.nbytes for triple in got for a in triple)
    assert data.window_count(got) == 110 + 110 + 60 + 80
    assert peak <= 1.25 * returned, peak / returned


@pytest.mark.parametrize("seed", [None, 0, 11])
@pytest.mark.parametrize("batch_size", [1, 4, 64])
def test_batches_of_a_mixed_corpus_equal_the_reference(seed, batch_size):
    from platoonkit import training
    P, F, stride = 6, 4, 2
    records = _mixed_corpus()
    # per record 11, 8, 0, 6, 7 and 0 windows; 4 followers keep a 0-row group
    triples = data.extract_windows(records, P, F, stride)
    assert [(h.shape[1], len(h)) for h, _, _ in triples] == \
        [(2, 14), (3, 18), (4, 0)]
    reference = [w for rec in records
                 for w in _reference_windows(rec, P, F, stride)]
    rngs = [None if seed is None else np.random.default_rng(seed)
            for _ in range(2)]
    got = training.make_batches(triples, batch_size, rngs[0])
    want = _reference_batches(reference, batch_size, rngs[1])
    assert isinstance(got, list) and len(got) == len(want)
    for g, w in zip(got, want):
        for a, b in zip(g, w):
            _assert_same_bits(a, b)
    if seed is not None:    # the same draws, no more
        assert rngs[0].random() == rngs[1].random()


def test_normalization_of_a_mixed_corpus_equals_the_reference():
    from platoonkit import network as net
    P, F, stride = 6, 4, 1
    records = _mixed_corpus()
    triples = data.extract_windows(records, P, F, stride)
    flat = np.concatenate([w[0].reshape(-1, 3) for rec in records
                           for w in _reference_windows(rec, P, F, stride)])
    mean, std = net.fit_normalization(triples)
    _assert_same_bits(mean, net._q32(flat.mean(axis=0)))
    _assert_same_bits(std, net._q32(np.maximum(flat.std(axis=0),
                                               net.NORM_STD_FLOOR)))


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


def _joined_csv(records):
    """The whole file as one string: the writer's output, built at once."""
    lines = [",".join(data.CSV_FIELDS)]
    for rec in sorted(records, key=lambda r: r.platoon_id):
        for vi, (pos, spd) in enumerate(zip(rec.positions, rec.speeds)):
            for frame in range(rec.duration):
                lines.append(",".join([rec.platoon_id, str(vi), str(frame)] + [
                    format(float(x), ".9g")
                    for x in (pos[frame], spd[frame], rec.lengths[vi])]))
    return ("\n".join(lines) + "\n").encode("utf-8")


def test_streamed_csv_matches_the_joined_text(tmp_path):
    # ids out of order, so the file's order is the writer's sort
    records = [r for n, k, seed in ((3, 2, 51), (2, 4, 52))
               for r in data.generate_synthetic_platoons(n, n_followers=k,
                                                         duration_s=3.0, seed=seed)]
    records = [records[i] for i in (3, 0, 4, 2, 1)]
    assert [r.platoon_id for r in records] != sorted(r.platoon_id for r in records)
    path = tmp_path / "out.csv"
    data.write_trajectories(records, path)
    assert path.read_bytes() == _joined_csv(records)
    data.write_trajectories([], path)
    assert path.read_bytes() == _joined_csv([])


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


def _doomed_attempt(n_followers, lengths, noise_seed):
    """An attempt whose gap collapses at frame 2: the leader stops dead
    after frame 0 in front of followers at a 4 cm equilibrium gap."""
    stop = data.LeadProfile("const_decel", v_init=30.0, accel=-1000.0)
    tight = idm.IdmParams(v0=40.0, T=1e-3, s0=1e-3, a_max=1.0, b=1.0)
    return stop, [tight] * n_followers, lengths, noise_seed


def _force_collisions(monkeypatch, doomed):
    """Make platoon i's first ``doomed[i]`` attempts collide. Each attempt
    still draws from the platoon's stream as a real one does; the platoon's
    index is its stream's spawn key. Returns the attempts drawn per platoon."""
    real = data._sample_attempt
    drawn = Counter()

    def forced(rng, n_followers):
        i = rng.bit_generator.seed_seq.spawn_key[-1]
        profile, params, lengths, noise_seed = real(rng, n_followers)
        drawn[i] += 1
        if drawn[i] <= doomed.get(i, 0):
            return _doomed_attempt(n_followers, lengths, noise_seed)
        return profile, params, lengths, noise_seed

    monkeypatch.setattr(data, "_sample_attempt", forced)
    return drawn


def test_collided_platoons_redraw_from_their_own_streams(monkeypatch):
    count, n, seed, duration_s = 6, 3, 4, 3.0
    want = data.generate_synthetic_platoons(count, n_followers=n,
                                            duration_s=duration_s, seed=seed)
    sample = data._sample_attempt
    doomed = {1: 1, 4: 3}
    drawn = _force_collisions(monkeypatch, doomed)
    got = data.generate_synthetic_platoons(count, n_followers=n,
                                           duration_s=duration_s, seed=seed)
    assert drawn == {i: doomed.get(i, 0) + 1 for i in range(count)}
    assert [r.platoon_id for r in got] == [r.platoon_id for r in want]
    children = np.random.SeedSequence(seed).spawn(count)
    for i, rec in enumerate(got):
        if i in doomed:
            # the stream's attempt after the doomed ones, synthesized alone
            rng = np.random.default_rng(children[i])
            for _ in range(doomed[i]):
                sample(rng, n)
            profile, params, lengths, noise_seed = sample(rng, n)
            alone, = data.synthesize_platoon(
                [rec.platoon_id], [profile], [params], [lengths],
                data.SYNTH_NOISE_SIGMA, [noise_seed], round(duration_s / data.DT))
            assert not np.array_equal(rec.speeds, want[i].speeds)
        else:
            alone = want[i]
        for field in ("positions", "speeds", "lengths"):
            assert getattr(rec, field).tobytes() == getattr(alone, field).tobytes()


def test_platoon_failing_every_attempt_is_named(monkeypatch):
    drawn = _force_collisions(monkeypatch, {2: 25, 4: 25})
    with pytest.raises(data.GenerationError,
                       match=r"platoon syn-7-0002: no valid draw in 25 attempts"):
        data.generate_synthetic_platoons(6, n_followers=2, duration_s=1.0, seed=7)
    assert drawn[2] == drawn[4] == 25
    assert drawn[0] == drawn[5] == 1


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
    rec, = data.synthesize_platoon(["eq"], [profile], [[p, p]], [np.full(3, 4.5)],
                                   noise_sigma=0.0, noise_seeds=[0],
                                   duration_steps=100)
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


# Finite doubles at the edges of 9-digit text: signed zero, the smallest
# subnormal, the largest double, integral values and rounding boundaries.
_EDGE_DOUBLES = (0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                 -1.7976931348623157e308, 1.0, -3.0, 2.0 ** 53, 1e16, 1e22,
                 123456789.5, 123456788.5, 9.999999995e-5, 9.9999999949e-5,
                 0.1, 1e-5, 99999999.95, 999999999.5)
_cell = st.one_of(st.sampled_from(_EDGE_DOUBLES),
                  st.floats(allow_nan=False, allow_infinity=False),
                  st.integers(-10 ** 12, 10 ** 12).map(float))


def _cells(draw, *shape):
    return np.array(draw(st.lists(_cell, min_size=int(np.prod(shape)),
                                  max_size=int(np.prod(shape))))).reshape(shape)


@st.composite
def _writer_inputs(draw):
    """Records, a deviation report and a spectrum with arbitrary finite cells;
    platoon ids may hold the ``%`` of a format template."""
    ids = draw(st.lists(st.text("ab%s-_9", min_size=1, max_size=5),
                        min_size=1, max_size=3))
    records = []
    for pid in ids:
        V, T = draw(st.integers(1, 3)), draw(st.integers(1, 4))
        records.append(data.PlatoonRecord(pid, _cells(draw, V, T),
                                          _cells(draw, V, T), _cells(draw, V)))
    N, W = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    frames = np.array(draw(st.lists(st.integers(0, 10 ** 9), min_size=W,
                                    max_size=W)))
    report = simulate.DeviationReport(frames, _cells(draw, N, W),
                                      _cells(draw, N, W), 0.0, 0.0)
    spectrum = types.SimpleNamespace(
        omega=_cells(draw, W), chain=_cells(draw, W),
        per_vehicle=_cells(draw, N, W))
    return records, report, spectrum


def _reference_deviations(report):
    """The deviation CSV one ``csv.writer`` row and one ``format`` per cell."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["vehicle_index", "frame", "speed_dev_mps",
                     "position_dev_m"])
    for i in range(report.speed_dev.shape[0]):
        for j, frame in enumerate(report.frames):
            writer.writerow([i + 1, int(frame),
                             format(float(report.speed_dev[i, j]), ".9g"),
                             format(float(report.position_dev[i, j]), ".9g")])
    return out.getvalue().encode("utf-8")


def _reference_spectrum(spectrum):
    """The spectrum CSV with one ``format`` per cell."""
    n = spectrum.per_vehicle.shape[0]
    lines = ["omega_rad_s,chain_gain," + ",".join(
        f"vehicle_{i}_gain" for i in range(n))]
    for j in range(spectrum.omega.shape[0]):
        cells = [spectrum.omega[j], spectrum.chain[j], *spectrum.per_vehicle[:, j]]
        lines.append(",".join(format(float(x), ".9g") for x in cells))
    return ("\n".join(lines) + "\n").encode("utf-8")


@settings(max_examples=80, deadline=None)
@given(_writer_inputs())
def test_template_writers_match_per_cell_formatting(tmp_path_factory, inputs):
    # every number is the text format(x, ".9g") gives, in all three writers
    records, report, spectrum = inputs
    out = tmp_path_factory.mktemp("writers")
    data.write_trajectories(records, out / "traj.csv")
    assert (out / "traj.csv").read_bytes() == _joined_csv(records)
    simulate.write_deviations_csv(report, out / "dev.csv")
    assert (out / "dev.csv").read_bytes() == _reference_deviations(report)
    cli._write_spectrum_csv(out, "p", spectrum)
    assert (out / "spectrum_p.csv").read_bytes() == _reference_spectrum(spectrum)


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
    assert len(obs.speeds) == 10
    assert np.array_equal(obs.lead_speeds, rec.speeds[0])
    assert np.array_equal(obs.speeds, rec.speeds[1])
    assert np.array_equal(obs.gaps, rec.gaps()[0])
    with pytest.raises(ValueError):
        data.follower_observation(rec, 0)
