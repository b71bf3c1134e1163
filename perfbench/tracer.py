"""Per-layer tracing for the platoonkit benchmark, kept outside the package.

``Tracer.install`` rebinds public functions of the platoonkit modules (module
and class attributes) to wrappers that record a span per call; ``uninstall``
puts the originals back. Nothing under ``src/`` is edited, and because every
cross-module call in platoonkit goes through a module attribute
(``ad.add``, ``net.model_forward``, ``dyn.rollout``...), the rebinding sees
them all.

A span is ``(name, start, end, parent_index, phase)``. Spans stay in memory
and are written out once at the end of the run. Autodiff primitives are too
numerous for spans (about a thousand per forward pass); they are counted in
the ``_make`` hook instead, and their backward closures are timed one by one
in a traced copy of ``Tape.backward`` and charged to the model stage whose
span was open when the node was created.
"""

from __future__ import annotations

import gc
import json
import math
import os
import statistics
import time
from collections import Counter, defaultdict

from platoonkit import analysis, data, dynamics, idm, network, simulate, training
from platoonkit import autodiff as ad

# Spans that own the autodiff nodes created inside them; backward time and
# node counts are reported per stage.
STAGES = ("network.embed", "network.tfl", "network.ful", "network.pfl",
          "network.narp", "dynamics.encode", "dynamics.xstar",
          "dynamics.rollout", "training.losses")

# (owner, attribute, span name) for every wrapped entry point.
WRAPPED = (
    (network, "model_forward", "network.model_forward"),
    (network, "embed_inputs", "network.embed"),
    (network, "tfl_forward", "network.tfl"),
    (network, "ful_forward", "network.ful"),
    (network, "pfl_forward", "network.pfl"),
    (network, "narp_decode", "network.narp"),
    (dynamics, "encode_parameters", "dynamics.encode"),
    (dynamics, "expected_state", "dynamics.xstar"),
    (dynamics, "rollout", "dynamics.rollout"),
    (training, "train", "training.train"),
    (training, "prediction_losses", "training.losses"),
    (training, "kl_loss", "training.losses"),
    (training.Adam, "step", "training.adam"),
    (training, "_eval_windows", "training.validate"),
    (training, "make_batches", "training.make_batches"),
    (training, "save_checkpoint", "training.save_checkpoint"),
    (training, "load_checkpoint", "training.load_checkpoint"),
    (data, "generate_synthetic_platoons", "data.generate"),
    (data, "write_trajectories", "data.write_trajectories"),
    (data, "load_trajectories", "data.load_trajectories"),
    (data, "extract_windows", "data.extract_windows"),
    (idm, "calibrate_ga", "idm.calibrate"),
    (idm, "_evaluate_population", "idm.evaluate_population"),
    (idm, "simulate_idm_platoon", "idm.simulate_idm_platoon"),
    (simulate, "closed_loop_simulate", "simulate.closed_loop"),
    (simulate.ModelController, "replan", "simulate.replan"),
    (simulate, "compare_runs", "simulate.compare_runs"),
    (simulate, "write_deviations_csv", "simulate.write_deviations"),
    (analysis, "horizon_metrics", "analysis.horizon_metrics"),
    (analysis, "persistence_prediction", "analysis.persistence"),
    (analysis, "head_to_tail_gain", "analysis.head_to_tail_gain"),
    (analysis, "pet_series", "analysis.pet_series"),
    (analysis, "ssdd_series", "analysis.ssdd_series"),
    (analysis, "histogram_divergences", "analysis.divergences"),
)

COMMANDS = ("datagen", "train", "eval", "simulate", "stability", "safety",
            "calibrate-idm")

# Metrics of work done only by ``datagen``, which runs in set-up; they are
# medians over set-up repetitions, every other metric a median over rounds.
SETUP_METRICS = ("data.generate_s", "idm.simulate_idm_platoon_s",
                 "cli.datagen.self_s", "cli.datagen.wall_s")


def _rss_mb() -> float:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2 ** 20


def _csv_bytes(path) -> int:
    path = os.fspath(path)
    if os.path.isdir(path):
        return sum(e.stat().st_size for e in os.scandir(path)
                   if e.name.endswith(".csv") and e.is_file())
    return os.path.getsize(path)


def median(values):
    """Median of a list; 0 for an empty one."""
    return statistics.median(values) if values else 0.0


def _quantile(values, q):
    """Nearest-rank quantile; 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Tracer:
    """Spans, counts and samples for one benchmark run, grouped by phase."""

    def __init__(self):
        self.spans = []
        self.phase = None
        self.counts = defaultdict(Counter)        # phase -> name -> value
        self.samples = defaultdict(lambda: defaultdict(list))
        self._stack = []                          # open span indices
        self._stages = []                         # open stage names
        self._node_stage = {}                     # id(node) -> stage
        self._step_nodes = Counter()
        self._step_start = None
        self._saved = []

    # -- spans ----------------------------------------------------------------

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.phase])
        self._stack.append(len(self.spans) - 1)
        if name in STAGES:
            self._stages.append(name)

    def close(self):
        index = self._stack.pop()
        name, start, _, parent, phase = self.spans[index]
        # A closed span becomes a tuple of atoms, which the garbage collector
        # stops tracking; growing lists of tracked spans would change when
        # later rounds trigger generation-2 collections.
        span = (name, start, time.perf_counter(), parent, phase)
        self.spans[index] = span
        if name in STAGES:
            self._stages.pop()
        return span

    def _wrap(self, fn, name):
        def traced(*args, **kwargs):
            before = self._before(name, args)
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self.close()
            self._after(name, span, args, result, before)
            return result
        return traced

    # -- per-entry-point counters ----------------------------------------------

    def _before(self, name, args):
        if name == "network.model_forward":
            if ad._grad_enabled:
                self._step_start = time.perf_counter()
            return self.counts[self.phase]["_primitives"]
        if name == "data.load_trajectories":
            rejects = args[1] if len(args) > 1 else None
            return len(rejects) if rejects is not None else None
        return None

    def _after(self, name, span, args, result, before):
        count = self.counts[self.phase]
        sample = self.samples[self.phase]
        if name == "network.model_forward":
            sample["autodiff.primitive_calls"].append(count["_primitives"] - before)
        elif name == "training.adam":
            if self._step_start is not None:
                sample["training.step_s"].append(span[2] - self._step_start)
            sample["training.rss_after_step_mb"].append(_rss_mb())
            for stage in STAGES:
                sample[f"{stage}.nodes"].append(self._step_nodes[stage])
            self._step_nodes.clear()
        elif name == "data.load_trajectories":
            count["data.csv_bytes_read"] += _csv_bytes(args[0])
            if before is not None:
                count["data.rejected_platoons"] += len(args[1]) - before
        elif name == "data.write_trajectories":
            count["data.csv_bytes_written"] += _csv_bytes(args[1])
        elif name == "idm.evaluate_population":
            count["idm.candidates_evaluated"] += len(result)
            count["idm.collided"] += int((result >= idm.COLLISION_FITNESS).sum())
        elif name == "idm.calibrate":
            sample["idm.calibrate_s"].append(span[2] - span[1])
        elif name == "simulate.closed_loop":
            sample["simulate.closed_loop_s"].append(span[2] - span[1])
            count["simulate.frames"] += result.duration - result.warmup_steps
            count["simulate.collisions"] += int(result.collision_frame is not None)
            count["simulate.clamps"] += result.clamp_count
        elif name == "simulate.replan":
            count["simulate.replans"] += 1

    # -- autodiff hooks ---------------------------------------------------------

    def _traced_make(self, make):
        def traced(data_, op, parents, vjp):
            out = make(data_, op, parents, vjp)
            self.counts[self.phase]["_primitives"] += 1
            if out.requires_grad:
                stage = self._stages[-1] if self._stages else "other"
                self._node_stage[id(out)] = stage
                self._step_nodes[stage] += 1
            return out
        return traced

    def _traced_trace(self, trace):
        def traced(cls, root):
            self.open("autodiff.trace")
            try:
                tape = trace(cls, root)
            finally:
                self.close()
            self.samples[self.phase]["autodiff.tape_nodes"].append(len(tape.nodes))
            return tape
        return classmethod(traced)

    def _traced_backward(self):
        tracer = self

        def backward(tape, seed):
            # Same replay as Tape.backward, with each closure timed and
            # charged to the stage that created its node.
            bwd = tracer.counts[tracer.phase]
            stage_of = tracer._node_stage
            tracer.open("autodiff.backward")
            try:
                root = tape.nodes[-1]
                root.grad = seed if root.grad is None else root.grad + seed
                for node in reversed(tape.nodes):
                    if node._vjp is not None and node.grad is not None:
                        t0 = time.perf_counter()
                        node._vjp(node.grad)
                        bwd["bwd:" + stage_of.get(id(node), "other")] += \
                            time.perf_counter() - t0
            finally:
                tracer.close()
                stage_of.clear()
        return backward

    def _gc_callback(self, phase, info):
        if phase == "start" and info["generation"] == 2:
            self.counts[self.phase]["autodiff.gc_gen2_collections"] += 1

    # -- install / uninstall ---------------------------------------------------

    def install(self, phase):
        """Rebind every wrapped entry point; spans go to ``phase``."""
        self.phase = phase
        patches = [(owner, attr, self._wrap(getattr(owner, attr), name))
                   for owner, attr, name in WRAPPED]
        patches += [
            (ad, "_make", self._traced_make(ad._make)),
            (ad.Tape, "trace", self._traced_trace(ad.Tape.trace.__func__)),
            (ad.Tape, "backward", self._traced_backward()),
        ]
        for owner, attr, replacement in patches:
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)
        gc.callbacks.append(self._gc_callback)
        self._degenerate_start = ad.degenerate_softmax_rows()

    def uninstall(self):
        gc.callbacks.remove(self._gc_callback)
        self.counts[self.phase]["autodiff.degenerate_softmax_rows"] += \
            ad.degenerate_softmax_rows() - self._degenerate_start
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- reduction ---------------------------------------------------------------

    def _phase_times(self, phase):
        """(total, self) seconds per span name within one phase."""
        total, child = Counter(), Counter()
        for name, start, end, parent, span_phase in self.spans:
            if span_phase != phase:
                continue
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own = Counter()
        for index, (name, start, end, _, span_phase) in enumerate(self.spans):
            if span_phase == phase:
                own[name] += (end - start) - child[index]
        return total, own

    def _phase_metrics(self, phase):
        total, own = self._phase_times(phase)
        count = self.counts[phase]
        m = {
            "autodiff.trace_s": total["autodiff.trace"],
            "autodiff.backward_s": total["autodiff.backward"],
            "autodiff.gc_gen2_collections": count["autodiff.gc_gen2_collections"],
            "autodiff.degenerate_softmax_rows": count["autodiff.degenerate_softmax_rows"],
            "network.model_forward_s": total["network.model_forward"],
            "training.losses_s": total["training.losses"],
            "training.adam_s": total["training.adam"],
            "training.validate_s": total["training.validate"],
            "training.make_batches_s": total["training.make_batches"],
            "training.save_checkpoint_s": total["training.save_checkpoint"],
            "training.load_checkpoint_s": total["training.load_checkpoint"],
            "data.generate_s": total["data.generate"],
            "data.write_trajectories_s": total["data.write_trajectories"],
            "data.load_trajectories_s": total["data.load_trajectories"],
            "data.extract_windows_s": total["data.extract_windows"],
            "data.csv_bytes_read": count["data.csv_bytes_read"],
            "data.csv_bytes_written": count["data.csv_bytes_written"],
            "data.rejected_platoons": count["data.rejected_platoons"],
            "idm.evaluate_population_s": total["idm.evaluate_population"],
            "idm.breed_s": own["idm.calibrate"],
            "idm.candidates_evaluated": count["idm.candidates_evaluated"],
            "idm.collided_fraction": (count["idm.collided"]
                                      / count["idm.candidates_evaluated"]
                                      if count["idm.candidates_evaluated"] else 0.0),
            "idm.simulate_idm_platoon_s": total["idm.simulate_idm_platoon"],
            "simulate.replan_s": total["simulate.replan"],
            "simulate.replans": count["simulate.replans"],
            "simulate.step_self_s": own["simulate.closed_loop"],
            "simulate.frames": count["simulate.frames"],
            "simulate.collisions": count["simulate.collisions"],
            "simulate.clamps": count["simulate.clamps"],
            "simulate.compare_runs_s": total["simulate.compare_runs"],
            "simulate.write_deviations_s": total["simulate.write_deviations"],
            "analysis.horizon_metrics_s": total["analysis.horizon_metrics"],
            "analysis.persistence_s": total["analysis.persistence"],
            "analysis.head_to_tail_gain_s": total["analysis.head_to_tail_gain"],
            "analysis.pet_series_s": total["analysis.pet_series"],
            "analysis.ssdd_series_s": total["analysis.ssdd_series"],
            "analysis.divergences_s": total["analysis.divergences"],
        }
        for stage in STAGES:
            if stage == "training.losses":
                continue
            m[f"{stage}.fwd_s"] = total[stage]
            m[f"{stage}.bwd_s"] = count["bwd:" + stage]
        for command in COMMANDS:
            m[f"cli.{command}.self_s"] = own[f"cli.{command}"]
            m[f"cli.{command}.wall_s"] = total[f"cli.{command}"]
        return m

    def repeat_counts(self, phase):
        """Counts that must repeat exactly between rounds of the same work."""
        count, sample = self.counts[phase], self.samples[phase]
        return {
            "autodiff.tape_nodes": list(sample["autodiff.tape_nodes"]),
            "autodiff.primitive_calls": list(sample["autodiff.primitive_calls"]),
            "autodiff.gc_gen2_collections": count["autodiff.gc_gen2_collections"],
            "simulate.replans": count["simulate.replans"],
            "simulate.frames": count["simulate.frames"],
            "idm.candidates_evaluated": count["idm.candidates_evaluated"],
        }

    def metrics(self, setup_phases, round_phases):
        """Per-layer metrics: medians over phases, quantiles over pooled samples."""
        per_setup = [self._phase_metrics(p) for p in setup_phases]
        per_round = [self._phase_metrics(p) for p in round_phases]
        out = {}
        for name in per_round[0]:
            source = per_setup if name in SETUP_METRICS else per_round
            out[name] = median([m[name] for m in source])

        def pooled(name):
            return [v for p in round_phases for v in self.samples[p][name]]

        out["autodiff.tape_nodes"] = median(pooled("autodiff.tape_nodes"))
        out["autodiff.primitive_calls"] = median(pooled("autodiff.primitive_calls"))
        for stage in STAGES:
            if stage != "training.losses":
                out[f"{stage}.nodes"] = median(pooled(f"{stage}.nodes"))
        steps = pooled("training.step_s")
        out["training.step_s.p50"] = median(steps)
        out["training.step_s.p90"] = _quantile(steps, 0.9)
        rss = pooled("training.rss_after_step_mb")
        out["training.rss_after_step_mb.p50"] = median(rss)
        out["training.rss_after_step_mb.max"] = max(rss, default=0.0)
        out["idm.calibrate_s.p50"] = median(pooled("idm.calibrate_s"))
        loops = pooled("simulate.closed_loop_s")
        out["simulate.closed_loop_s.p50"] = median(loops)
        out["simulate.closed_loop_s.p75"] = _quantile(loops, 0.75)
        return out

    def write(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, phase in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "phase": phase}) + "\n")
