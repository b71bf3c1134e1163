"""The benchmark tracer rebinds platoonkit entry points by name; every name
it patches or reads must exist, or ``perfbench/run.py --trace 1`` breaks."""

import dataclasses
import importlib.util
from pathlib import Path

from platoonkit import autodiff as ad
from platoonkit import simulate

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# Attributes ``Tracer.install`` patches besides the WRAPPED table.
HOOKS = ((ad, "_make"), (ad.Tape, "trace"), (ad.Tape, "backward"))


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_name_is_owned():
    tracer = _load_tracer()
    for owner, attr, _ in tracer.WRAPPED:
        assert attr in owner.__dict__, f"{owner.__name__}.{attr}"
    for owner, attr in HOOKS:
        assert attr in owner.__dict__, f"{owner.__name__}.{attr}"
    assert "_grad_enabled" in ad.__dict__
    assert "degenerate_softmax_rows" in ad.__dict__


def test_simulation_run_has_the_traced_counters():
    names = {f.name for f in dataclasses.fields(simulate.SimulationRun)}
    names |= set(vars(simulate.SimulationRun))
    assert {"duration", "warmup_steps", "collision_frame",
            "clamp_count"} <= names


def test_install_and_uninstall_restore_every_name():
    tracer = _load_tracer()
    targets = [(owner, attr) for owner, attr, _ in tracer.WRAPPED] + list(HOOKS)
    before = [owner.__dict__[attr] for owner, attr in targets]
    t = tracer.Tracer()
    t.install("check")
    try:
        assert all(owner.__dict__[attr] is not original for (owner, attr),
                   original in zip(targets, before))
    finally:
        t.uninstall()
    assert all(owner.__dict__[attr] is original for (owner, attr), original
               in zip(targets, before))


def test_every_model_stage_span_opens_and_owns_its_nodes():
    # one tiny training step under the tracer: a stage the model stops
    # calling reads no span here, not just a node count of 0
    from platoonkit import data, network, training
    tracer = _load_tracer()
    cfg = network.desk_config()
    windows = data.extract_windows(
        data.generate_synthetic_platoons(1, n_followers=2, duration_s=1.5,
                                         seed=3),
        cfg.history_len, cfg.horizon, 5)
    params = network.init_params(cfg)
    params.norm_mean, params.norm_std = network.fit_normalization(windows)
    t = tracer.Tracer()
    t.install("step")
    try:
        training.train(params, cfg, windows, windows,
                       training.TrainConfig(epochs=1,
                                            batch_size=data.window_count(windows)))
    finally:
        t.uninstall()
    opened = {span[0] for span in t.spans}
    nodes = {stage: t.samples["step"][f"{stage}.nodes"] for stage in tracer.STAGES}
    assert set(tracer.STAGES) <= opened
    assert all(len(counts) == 1 for counts in nodes.values())
    # the expected state is plain numpy means of the data: no node by design
    assert nodes.pop("dynamics.xstar") == [0]
    assert {stage: n for stage, (n,) in nodes.items() if n < 1} == {}
