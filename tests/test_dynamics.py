"""Tests for the sign-constrained dynamics and horizon rollout."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import platoonkit
from platoonkit import autodiff as ad
from platoonkit import data
from platoonkit import dynamics as dyn
from platoonkit import training as tr


def _probe_sum(tensors, probes):
    """sum_i sum(t_i * p_i) as one node: a scalar to differentiate."""
    def vjp(g):
        for t, p in zip(tensors, probes):
            ad.accumulate(t, g * p)

    return ad.primitive(sum(np.sum(t.data * p) for t, p in zip(tensors, probes)),
                        "sum", tuple(tensors), vjp)


def _scalar_rollout(initial, lead_future, theta, v_star, s_star, dt):
    """Independent reference: explicit per-vehicle Python loops.

    initial: list of (v, s, dv) tuples; theta: theta[i][j] = (f_v, f_s, f_dv)
    for vehicle i, block j. Arithmetic ordering mirrors the documented update
    law exactly so agreement is at machine precision.
    """
    n = len(initial)
    F = len(lead_future)
    S = len(theta[0])
    m = F // S
    v = [float(initial[i][0]) for i in range(n)]
    s = [float(initial[i][1]) for i in range(n)]
    dv = [float(initial[i][2]) for i in range(n)]
    out = {"v": [], "s": [], "a": [], "dv": []}
    for k in range(F):
        j = k // m
        a = [theta[i][j][0] * (v[i] - v_star[i])
             + theta[i][j][1] * (s[i] - s_star[i])
             + theta[i][j][2] * dv[i] for i in range(n)]
        v_new = [v[i] + a[i] * dt for i in range(n)]
        s_new = [s[i] + dv[i] * dt for i in range(n)]
        dv_new = [(lead_future[k] if i == 0 else v_new[i - 1]) - v_new[i]
                  for i in range(n)]
        out["a"].append(a)
        out["v"].append(v_new)
        out["s"].append(s_new)
        out["dv"].append(dv_new)
        v, s, dv = v_new, s_new, dv_new
    # (F, n) lists -> (n, F) arrays
    return {key: np.array(val).T for key, val in out.items()}


def _series(res, initial, lead, dt):
    """(v, s, a, dv) as arrays, from the rollout's speeds and gaps.

    dv is the speed ahead minus the own speed, formed by the rollout's own
    subtractions, so it is bit-exact. a is (v_{k+1} - v_k) / dt from the
    anchor speed on; it carries the rounding of one Euler step, which stays
    within 1e-12 of the applied acceleration at the speeds tested here.
    """
    v, s = res.v.data, res.s.data
    dv = np.empty_like(v)
    dv[..., 0, :] = lead - v[..., 0, :]
    dv[..., 1:, :] = v[..., :-1, :] - v[..., 1:, :]
    anchor = np.broadcast_to(np.asarray(initial)[..., 0:1], v.shape[:-1] + (1,))
    a = (v - np.concatenate([anchor, v[..., :-1]], axis=-1)) / dt
    return v, s, a, dv


def _run(initial, lead, theta, v_star, s_star, dt=0.1):
    initial = np.asarray(initial, dtype=float)[None, :, :]
    lead = np.asarray(lead, dtype=float)[None, :]
    res = dyn.rollout(initial, lead,
                      np.asarray(theta, dtype=float)[None, :, :, :],
                      dyn.ExpectedState(np.asarray(v_star, float)[None, :],
                                        np.asarray(s_star, float)[None, :]),
                      dt=dt)
    v, s, a, dv = _series(res, initial, lead, dt)
    return {"v": v[0], "s": s[0], "a": a[0], "dv": dv[0]}


@st.composite
def rollout_cases(draw):
    """Random batch shape, platoon size, blocks and states; any signs."""
    batch = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    n = draw(st.integers(1, 4))
    blocks, m = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return {"initial": rng.uniform(-5.0, 30.0, batch + (n, 3)),
            "lead": rng.uniform(0.0, 30.0, batch + (blocks * m,)),
            "theta": rng.normal(0.0, 2.0, batch + (n, blocks, 3)),
            "xstar": dyn.ExpectedState(rng.uniform(0.0, 30.0, batch + (n,)),
                                       rng.uniform(0.0, 30.0, batch + (n,))),
            "dt": draw(st.sampled_from([0.05, 0.1, 0.2]))}


@settings(max_examples=100, deadline=None)
@given(rollout_cases())
def test_rollout_gap_and_relative_speed_identities(case):
    res = dyn.rollout(case["initial"], case["lead"], case["theta"], case["xstar"],
                      dt=case["dt"])
    dt = case["dt"]
    _, s, _, dv = _series(res, case["initial"], case["lead"], dt)
    # s_{k+1} = s_k + dt dv_k exactly, from the anchor state on, with dv the
    # speed ahead minus the own speed and the leader ahead of follower 0
    s_prev = np.concatenate([case["initial"][..., 1:2], s[..., :-1]], axis=-1)
    dv_prev = np.concatenate([case["initial"][..., 2:3], dv[..., :-1]], axis=-1)
    np.testing.assert_array_equal(s, s_prev + dt * dv_prev)


class TestEncoding:
    def test_frozen_values(self):
        raw = np.array([1.0, -2.0, 0.0])
        theta = dyn.encode_parameters(raw).data
        assert theta[0] == pytest.approx(-1.3132616875182228, abs=1e-12)
        assert theta[1] == pytest.approx(0.12692801104297249, abs=1e-12)
        assert theta[2] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_signs_hold_everywhere(self):
        rng = np.random.default_rng(7)
        raw = rng.normal(0.0, 5.0, size=(50, 4, 3))
        theta = dyn.encode_parameters(raw).data
        assert (theta[..., 0] < 0).all()
        assert (theta[..., 1] > 0).all()
        assert (theta[..., 2] > 0).all()

    def test_bad_last_axis(self):
        with pytest.raises(ad.ShapeMismatch):
            dyn.encode_parameters(np.zeros((2, 4)))


class TestExpectedState:
    def test_means_over_history(self):
        # 1 batch, 2 vehicles, 3 history steps
        hist = np.zeros((1, 2, 3, 3))
        hist[0, 0, :, 0] = [10.0, 11.0, 12.0]
        hist[0, 0, :, 1] = [20.0, 22.0, 24.0]
        hist[0, 1, :, 0] = [5.0, 5.0, 5.0]
        hist[0, 1, :, 1] = [8.0, 8.0, 8.0]
        xs = dyn.expected_state(hist)
        assert xs.v_star[0, 0] == pytest.approx(11.0, abs=1e-12)
        assert xs.s_star[0, 0] == pytest.approx(22.0, abs=1e-12)
        assert xs.v_star[0, 1] == pytest.approx(5.0, abs=1e-12)

    def test_shape_guard(self):
        with pytest.raises(ad.ShapeMismatch):
            dyn.expected_state(np.zeros((4, 3)))


class TestRolloutSingleStep:
    def test_hand_computed_step(self):
        out = _run(initial=[(10.0, 20.0, 1.0)], lead=[11.0],
                   theta=[[(-0.5, 0.2, 0.3)]], v_star=[9.0], s_star=[22.0])
        assert out["a"][0, 0] == pytest.approx(-0.6, abs=1e-12)
        assert out["v"][0, 0] == pytest.approx(9.94, abs=1e-12)
        assert out["s"][0, 0] == pytest.approx(20.1, abs=1e-12)
        assert out["dv"][0, 0] == pytest.approx(1.06, abs=1e-12)

    def test_equilibrium_is_exact_fixed_point(self):
        theta = [[(-1.2, 0.7, 0.9)]] * 3
        out = _run(initial=[(15.0, 30.0, 0.0)] * 3, lead=[15.0] * 10,
                   theta=theta, v_star=[15.0] * 3, s_star=[30.0] * 3)
        assert (out["a"] == 0.0).all()
        assert (out["v"] == 15.0).all()
        assert (out["s"] == 30.0).all()
        assert (out["dv"] == 0.0).all()


class TestRolloutAgainstScalarOracle:
    def test_random_platoons_match_exactly(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            S = int(rng.integers(1, 5))
            m = int(rng.integers(1, 4))
            F = S * m
            initial = [(rng.uniform(5, 20), rng.uniform(10, 40),
                        rng.uniform(-2, 2)) for _ in range(n)]
            lead = list(rng.uniform(5, 20, size=F))
            theta = [[(-rng.uniform(0.1, 2), rng.uniform(0.1, 2),
                       rng.uniform(0.1, 2)) for _ in range(S)]
                     for _ in range(n)]
            v_star = list(rng.uniform(5, 20, size=n))
            s_star = list(rng.uniform(10, 40, size=n))
            got = _run(initial, lead, theta, v_star, s_star)
            want = _scalar_rollout(initial, lead, theta, v_star, s_star, 0.1)
            for key in ("v", "s", "a", "dv"):
                np.testing.assert_allclose(got[key], want[key],
                                           rtol=0.0, atol=1e-12)

    def test_parameter_blocks_switch_at_m(self):
        # Two blocks over four steps: block 1 with a very different f_s must
        # change the acceleration from step 2 onwards.
        theta = [[(-0.5, 0.2, 0.3), (-0.5, 2.0, 0.3)]]
        out = _run(initial=[(10.0, 25.0, 0.0)], lead=[10.0] * 4,
                   theta=theta, v_star=[10.0], s_star=[20.0])
        # Steps 0,1 use f_s=0.2: a0 = 0.2 * 5 = 1.0
        assert out["a"][0, 0] == pytest.approx(1.0, abs=1e-12)
        want = _scalar_rollout([(10.0, 25.0, 0.0)], [10.0] * 4, theta,
                               [10.0], [20.0], 0.1)
        np.testing.assert_allclose(out["a"], want["a"], rtol=0, atol=1e-12)
        # Block switch visible: recompute step 2 by hand from step-1 state.
        v2, s2, dv2 = want["v"][0, 1], want["s"][0, 1], want["dv"][0, 1]
        a2 = -0.5 * (v2 - 10.0) + 2.0 * (s2 - 20.0) + 0.3 * dv2
        assert out["a"][0, 2] == pytest.approx(a2, abs=1e-12)


class TestRolloutBatchingAndShapes:
    def test_batched_equals_individual(self):
        rng = np.random.default_rng(5)
        n, S, m = 3, 4, 5
        F = S * m
        init = rng.uniform(5, 25, size=(2, n, 3))
        lead = rng.uniform(5, 25, size=(2, F))
        theta = rng.uniform(0.1, 1.5, size=(2, n, S, 3)) * dyn.SIGN_PATTERN
        vs = rng.uniform(5, 25, size=(2, n))
        ss = rng.uniform(10, 40, size=(2, n))
        theta_t = ad.param(theta)
        batched = dyn.rollout(init, lead, theta_t, dyn.ExpectedState(vs, ss))
        _probe_sum((batched.v, batched.s), (batched.s.data, batched.v.data)).backward()
        for b in range(2):
            theta_b = ad.param(theta[b:b + 1])
            single = dyn.rollout(init[b:b + 1], lead[b:b + 1], theta_b,
                                 dyn.ExpectedState(vs[b:b + 1], ss[b:b + 1]))
            for whole, one in ((batched.v, single.v), (batched.s, single.s)):
                np.testing.assert_array_equal(whole.data[b], one.data[0])
            _probe_sum((single.v, single.s), (single.s.data, single.v.data)).backward()
            np.testing.assert_array_equal(theta_t.grad[b], theta_b.grad[0])

    def test_one_tape_node_under_the_series(self):
        theta = ad.param(np.tile(dyn.SIGN_PATTERN * 0.5, (2, 3, 2, 1)))
        out = dyn.rollout(np.ones((2, 3, 3)), np.ones((2, 4)), theta,
                          dyn.ExpectedState(np.zeros((2, 3)), np.ones((2, 3))))
        ops = [n._op for n in ad.Tape.trace(
            _probe_sum((out.v, out.s), (1.0, 1.0))).nodes if n._vjp is not None]
        assert sorted(ops) == ["rollout", "slice", "slice", "sum"]

    def test_output_shapes(self):
        out = dyn.rollout(np.zeros((4, 6, 3)), np.full((4, 20), 1.0),
                          np.tile(dyn.SIGN_PATTERN * 0.5, (4, 6, 4, 1)),
                          dyn.ExpectedState(np.zeros((4, 6)), np.ones((4, 6))))
        assert out.v.shape == out.s.shape == (4, 6, 20)

    def test_horizon_not_multiple_of_blocks(self):
        with pytest.raises(ValueError, match="multiple"):
            dyn.rollout(np.zeros((1, 2, 3)), np.zeros((1, 7)),
                        np.tile(dyn.SIGN_PATTERN, (1, 2, 2, 1)),
                        dyn.ExpectedState(np.zeros((1, 2)), np.zeros((1, 2))))

    def test_vehicle_count_mismatch(self):
        with pytest.raises(ad.ShapeMismatch):
            dyn.rollout(np.zeros((1, 2, 3)), np.zeros((1, 4)),
                        np.tile(dyn.SIGN_PATTERN, (1, 3, 2, 1)),
                        dyn.ExpectedState(np.zeros((1, 2)), np.zeros((1, 2))))


class TestStabilityAndGradients:
    def test_perturbation_decays_over_horizon(self):
        # Stable gains; a 0.5 m/s speed bump should vanish within 60 s.
        theta = np.array([[[-1.5, 0.8, 1.0]]])          # (1, 1, 1, 3) after [None]
        init, lead = np.array([[[10.5, 20.0, -0.5]]]), np.full((1, 600), 10.0)
        out = dyn.rollout(init, lead, theta[None],
                          dyn.ExpectedState(np.array([[10.0]]),
                                            np.array([[20.0]])))
        v, s, a, dv = _series(out, init, lead, dyn.DT)
        assert abs(v[0, 0, -1] - 10.0) < 1e-6
        assert abs(s[0, 0, -1] - 20.0) < 1e-4
        assert abs(dv[0, 0, -1]) < 1e-6
        assert abs(a[0, 0, -1]) < 1e-6

    def test_gap_update_is_exact_kinematics(self):
        rng = np.random.default_rng(3)
        init = rng.uniform(5, 25, size=(1, 3, 3))
        lead = rng.uniform(5, 25, size=(1, 20))
        theta = rng.uniform(0.2, 1.2, size=(1, 3, 4, 3)) * dyn.SIGN_PATTERN
        out = dyn.rollout(init, lead, theta,
                          dyn.ExpectedState(init[..., 0], init[..., 1]))
        _, s, _, dv = _series(out, init, lead, dyn.DT)
        # s(k+1) - s(k) == dt * dv(k) for k >= 1; first step uses the anchor.
        np.testing.assert_allclose(s[..., 1:] - s[..., :-1],
                                   0.1 * dv[..., :-1], rtol=0, atol=1e-12)
        np.testing.assert_allclose(s[..., 0] - init[..., 1],
                                   0.1 * init[..., 2], rtol=0, atol=1e-12)

    def test_gradient_through_encode_and_rollout(self):
        rng = np.random.default_rng(11)
        raw = rng.normal(0.0, 0.8, size=(1, 2, 2, 3))
        init = rng.uniform(8, 15, size=(1, 2, 3))
        lead = rng.uniform(8, 15, size=(1, 6))
        targets = np.stack([rng.uniform(8, 15, size=(1, 2, 6)),
                            np.zeros((1, 2, 6))], axis=-1)
        xstar = dyn.ExpectedState(init[..., 0].copy(), init[..., 1].copy())

        def graph(raw_t):
            theta = dyn.encode_parameters(raw_t)
            out = dyn.rollout(init, lead, theta, xstar)
            return tr.prediction_losses(out, targets)[0]

        err = ad.finite_diff_check(graph, [raw], step=1e-6)
        assert err < 1e-6

    def test_adjoint_matches_finite_differences_for_every_input(self):
        rng = np.random.default_rng(12)
        arrays = [rng.uniform(5, 15, size=(2, 3, 3)),       # initial state
                  rng.uniform(5, 15, size=(2, 6)),          # leader speeds
                  rng.uniform(0.2, 1.2, size=(2, 3, 3, 3)) * dyn.SIGN_PATTERN,
                  rng.uniform(5, 15, size=(2, 3)),          # v*
                  rng.uniform(10, 30, size=(2, 3))]         # s*
        probes = [rng.normal(size=(2, 3, 6)) for _ in range(2)]

        # f_dv > 0, so the relative speeds the backward pass keeps enter
        # the gradient of theta[..., 2]
        def graph(x0, lead, theta, v_star, s_star):
            out = dyn.rollout(x0, lead, theta, dyn.ExpectedState(v_star, s_star))
            return _probe_sum((out.v, out.s), probes)

        assert ad.finite_diff_check(graph, arrays, step=1e-6) < 1e-6


def test_one_sampling_step():
    # DT is defined once, in dynamics; outside the rollout, whose finer steps
    # check the analytic spectrum, no parameter, dataclass field or attribute
    # named dt can carry a second step
    takes_dt, defines_dt = set(), set()
    for path in sorted(Path(platoonkit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                a = node.args
                names = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]
                names += [x.arg for x in (a.vararg, a.kwarg) if x is not None]
                if "dt" in names:
                    takes_dt.add(f"{path.stem}.{getattr(node, 'name', 'lambda')}")
            elif isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    target = getattr(stmt, "target", None)
                    if isinstance(target, ast.Name) and target.id == "dt":
                        takes_dt.add(f"{path.stem}.{node.name}.dt")
            elif isinstance(node, ast.Attribute) and node.attr == "dt" \
                    and isinstance(node.ctx, ast.Store):
                takes_dt.add(f"{path.stem}: .dt assigned")
        for stmt in tree.body:
            targets = getattr(stmt, "targets", [getattr(stmt, "target", None)])
            if any(isinstance(t, ast.Name) and t.id == "DT" for t in targets):
                defines_dt.add(path.stem)
    assert takes_dt == {"dynamics.rollout"}
    assert defines_dt == {"dynamics"}
    assert data.DT is dyn.DT == 0.1
