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
