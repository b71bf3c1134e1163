"""Property tests of the numpy Euler kernel shared by datagen, IDM
calibration and closed-loop simulation."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from platoonkit import dynamics as dyn


def _linear_law(gains, v_star, s_star):
    """a = f_v (v - v*) + f_s (s - s*) + f_dv dv with (..., N) parameters."""
    f_v, f_s, f_dv = gains

    def accel(k, v, s, dv):
        return f_v * (v - v_star) + f_s * (s - s_star) + f_dv * dv
    return accel


def _linear_law_one_buffer(gains, v_star, s_star):
    """``_linear_law``'s operations in its order, written into two reused
    buffers; every call hands back the same array."""
    f_v, f_s, f_dv = gains
    bufs = []

    def accel(k, v, s, dv):
        if not bufs:
            bufs.extend((np.empty_like(v), np.empty_like(v)))
        a, t = bufs
        np.multiply(f_v, np.subtract(v, v_star, out=a), out=a)
        np.multiply(f_s, np.subtract(s, s_star, out=t), out=t)
        np.add(a, t, out=a)
        return np.add(a, np.multiply(f_dv, dv, out=t), out=a)
    return accel


@st.composite
def platoons(draw):
    """A batch of platoons with per-row linear laws behind one shared (T,)
    leader or a (rows, T) leader per row.

    Target gaps reach below zero and speed gains run strong, so collisions
    and clamped speeds both turn up often.
    """
    rows = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    frames = draw(st.integers(1, 40))
    lead_shape = (rows, frames) if draw(st.booleans()) else (frames,)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    case = {
        "v0": rng.uniform(0.0, 25.0, (rows, n)),
        "s0": rng.uniform(0.5, 30.0, (rows, n)),
        "lead": rng.uniform(0.0, 25.0, lead_shape),
        "gains": (-rng.uniform(0.0, 8.0, (rows, n)),
                  rng.uniform(0.0, 3.0, (rows, n)),
                  rng.uniform(0.0, 3.0, (rows, n))),
        "v_star": rng.uniform(0.0, 25.0, (rows, n)),
        "s_star": rng.uniform(-5.0, 25.0, (rows, n)),
    }
    return case


def _run(case, row=None, nan_row=None, make_law=_linear_law):
    """Integrate the whole batch, or only ``row`` with batch shape ();
    the law of batch row ``nan_row`` gives NaN accelerations."""
    pick = (lambda a: a) if row is None else (lambda a: a[row])
    v0, s0, lead = pick(case["v0"]), pick(case["s0"]), case["lead"]
    if lead.ndim == 2 and row is not None:
        lead = lead[row]
    frames = lead.shape[-1]
    speeds = np.zeros(v0.shape + (frames,))
    gaps = np.zeros(s0.shape + (frames,))
    speeds[..., 0] = v0
    gaps[..., 0] = s0
    law = make_law([pick(g) for g in case["gains"]], pick(case["v_star"]),
                   pick(case["s_star"]))
    if nan_row is not None:
        finite_law = law

        def law(k, v, s, dv):
            a = finite_law(k, v, s, dv)
            a[nan_row] = np.nan
            return a
    clamps, collision = dyn.euler_platoon(speeds, gaps, lead, law)
    return speeds, gaps, clamps, collision, law


def _ahead(lead, v, t):
    """Speeds ahead of each follower at frame t: the row's leader first."""
    first = np.broadcast_to(lead[..., t, None], v.shape[:-1] + (1,))
    return np.concatenate([first, v[..., :-1]], axis=-1)


def _steps_taken(collision, frames):
    """The kernel steps until every row has collided or the record ends."""
    return min(frames - 1, int(collision.max()))


SETTINGS = settings(max_examples=150, deadline=None)


@SETTINGS
@given(platoons())
def test_gap_step_is_exact_kinematics(case):
    speeds, gaps, _, collision, _ = _run(case)
    lead = case["lead"]
    for t in range(_steps_taken(collision, speeds.shape[-1])):
        want = gaps[..., t] + dyn.DT * (_ahead(lead, speeds[..., t], t)
                                        - speeds[..., t])
        np.testing.assert_array_equal(gaps[..., t + 1], want)


@SETTINGS
@given(platoons())
def test_speeds_non_negative_and_clamps_counted(case):
    speeds, gaps, clamps, collision, law = _run(case)
    lead = case["lead"]
    steps = _steps_taken(collision, speeds.shape[-1])
    assert (speeds[..., :steps + 1] >= 0.0).all()
    clamped = np.zeros(collision.shape, dtype=int)
    for t in range(steps):
        v, s = speeds[..., t], gaps[..., t]
        raw = v + dyn.DT * law(t, v, s, _ahead(lead, v, t) - v)
        # a row's count stops at the step that leaves its collision frame
        clamped += np.where(t < collision, (raw < 0.0).sum(axis=-1), 0)
        np.testing.assert_array_equal(speeds[..., t + 1], np.maximum(raw, 0.0))
    assert clamps.shape == collision.shape
    np.testing.assert_array_equal(clamps, clamped)


@SETTINGS
@given(platoons())
def test_run_truncates_strictly_before_first_non_positive_gap(case):
    _, gaps, _, collision, _ = _run(case)
    frames = gaps.shape[-1]
    assert collision.shape == gaps.shape[:-2]
    for r, cf in enumerate(collision):
        assert 0 <= cf <= frames
        assert (gaps[r, :, :cf] > 0.0).all()
        if cf < frames:
            assert (gaps[r, :, cf] <= 0.0).any()


@SETTINGS
@given(platoons())
def test_batch_rows_match_single_runs_bit_for_bit(case):
    speeds, gaps, clamps, collision, _ = _run(case)
    frames = speeds.shape[-1]
    for r in range(speeds.shape[0]):
        one_v, one_s, one_clamps, one_cf, _ = _run(case, row=r)
        assert one_cf.shape == () and int(one_cf) == collision[r]
        assert one_clamps.shape == () and int(one_clamps) == clamps[r]
        last = min(int(one_cf), frames - 1) + 1
        np.testing.assert_array_equal(speeds[r, :, :last], one_v[:, :last])
        np.testing.assert_array_equal(gaps[r, :, :last], one_s[:, :last])


@SETTINGS
@given(platoons(), st.data())
def test_nan_row_leaves_other_rows_as_their_solo_runs(case, data):
    rows = case["v0"].shape[0]
    assume(rows > 1)
    bad = data.draw(st.integers(0, rows - 1))
    speeds, gaps, clamps, collision, _ = _run(case, nan_row=bad)
    frames = speeds.shape[-1]
    for r in set(range(rows)) - {bad}:
        one_v, one_s, one_clamps, one_cf, _ = _run(case, row=r)
        assert int(one_cf) == collision[r] and int(one_clamps) == clamps[r]
        last = min(int(one_cf), frames - 1) + 1
        np.testing.assert_array_equal(speeds[r, :, :last], one_v[:, :last])
        np.testing.assert_array_equal(gaps[r, :, :last], one_s[:, :last])


@SETTINGS
@given(platoons())
def test_law_reusing_one_output_buffer_matches_fresh_arrays(case):
    # the integrator consumes each acceleration before its next call
    fresh = _run(case)
    reused = _run(case, make_law=_linear_law_one_buffer)
    for want, got in zip(fresh[:4], reused[:4]):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_cascade_positions_hand_values():
    # leader at 100 m (length 4), follower 1 (length 5) 10 m back, then 2 m
    pos = dyn.cascade_positions(np.array([100.0]), np.array([4.0, 5.0, 4.5]),
                                np.array([[10.0], [2.0]]))
    np.testing.assert_array_equal(pos, [[100.0], [86.0], [79.0]])


def test_gap_of_exactly_zero_is_a_collision():
    # 10 m/s into a stopped leader 1 m ahead: one 0.1 s step closes the gap
    # to exactly 0.0, which counts as a collision at frame 1.
    speeds, gaps = np.zeros((1, 5)), np.zeros((1, 5))
    speeds[0, 0], gaps[0, 0] = 10.0, 1.0
    clamps, collision = dyn.euler_platoon(
        speeds, gaps, np.zeros(5), lambda k, v, s, dv: np.zeros_like(v))
    assert gaps[0, 1] == 0.0 and int(collision) == 1 and clamps == 0
