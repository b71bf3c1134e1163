"""The benchmark's workloads: set-up, timed rounds and output checks.

Every program call goes through the public command line in-process
(``platoonkit.cli.dispatch``) with the argv a user would type, one call at a
time. One call plus its checks is one operation; a non-zero exit code, an
exception or a failed check counts it as failed.

A round is one use of the toolkit: one ``train``; or ``eval``, ``simulate``,
``safety`` and ``stability`` on a held-out corpus; or one ``calibrate-idm``.
Every round of a run repeats the same commands on the same inputs, so each
output must be byte-identical to the first round's.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

from platoonkit import cli, data, idm, network, training

# Training settings shared by the train workload and the evaluate set-up.
# Batch 8, not the CLI default of 32: at 32 each step's graph stays in a
# reference cycle until a generation-2 collection and the process outgrows an
# 8 GB machine (see README.md).
TRAIN_ARGS = ("--batch-size", "8", "--lr", "1e-3", "--stride", "10",
              "--epochs", "1")
STRIDE = 10


class CheckFailed(Exception):
    """An output check did not hold."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def digest(path) -> str:
    """sha256 of bytes, a file, or every file under a directory with its name."""
    h = hashlib.sha256()
    if isinstance(path, bytes):
        h.update(path)
        return h.hexdigest()
    files = sorted(p for p in path.rglob("*") if p.is_file()) \
        if path.is_dir() else [path]
    for f in files:
        h.update(str(f.relative_to(path) if path.is_dir() else f.name).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def load_corpus(path, platoons: int):
    """Records of a corpus that must load whole, with no platoon rejected."""
    rejects = []
    records = data.load_trajectories(path, rejects)
    require(not rejects, f"{path}: rejected platoons {rejects}")
    require(len(records) == platoons,
            f"{path}: {len(records)} platoons, expected {platoons}")
    return records


def expected_windows(records, config, stride: int) -> int:
    span = config.history_len + config.horizon
    return sum((r.duration - span) // stride + 1
               for r in records if r.duration >= span)


class Harness:
    """Operation counts, timings and first-seen output digests of one run."""

    def __init__(self, work: Path, tracer=None):
        self.work = work
        self.tracer = tracer
        self.phase = None           # traced phase name, or None for untraced
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.cli_s = 0.0            # wall time of every CLI call so far
        self.check_s = 0.0          # time spent checking outputs
        self.probe = None           # SpeedProbe open during each CLI call
        self._digests = {}

    def fail(self, what: str, reason: str) -> None:
        self.failed += 1
        self.failures.append(f"{what}: {reason}")
        print(f"FAILED {what}: {reason}", file=sys.stderr)

    def same_bytes(self, key: str, path) -> None:
        """The output (bytes or a path) must match the first seen for ``key``."""
        h = digest(path)
        first = self._digests.setdefault(key, h)
        require(h == first, f"{key}: bytes differ from the first run")

    def cli(self, *argv, check=None):
        """Run ``platoonkit <argv>`` and ``check(stdout)`` as one operation.

        Returns ``(wall_s, check result)``, or ``(wall_s, None)`` when the
        operation failed. ``wall_s`` leaves out the time of speed probes.
        """
        argv = ["--threads", "1", *map(str, argv)]
        command = argv[2]
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        if self.phase is not None:
            self.tracer.install(self.phase)
            self.tracer.open(f"cli.{command}")
        probe = self.probe or contextlib.nullcontext()
        taken = len(self.probe.samples) if self.probe else 0
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    probe:
                rc = cli.dispatch(argv)
        except Exception as exc:     # a traceback is a failed operation
            rc = f"{type(exc).__name__}: {exc}"
        finally:
            wall = time.perf_counter() - start
            if self.probe is not None:     # the probe's time is not the program's
                wall -= sum(self.probe.samples[taken:])
            if self.phase is not None:
                self.tracer.close()
                self.tracer.uninstall()
        self.cli_s += wall
        if rc != 0:
            self.fail(command, f"exit {rc}; {err.getvalue().strip()[-500:]}")
            return wall, None
        return wall, self._check(command, check, out.getvalue())

    def child_train(self, corpus: Path, out: Path) -> None:
        """``platoonkit train`` in a child process, as one operation.

        Used for set-up only, so that the training graph's memory does not
        count in the peak RSS of a workload that does not train.
        """
        src = Path(training.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        argv = [sys.executable, "-m", "platoonkit.cli", "--threads", "1",
                "train", "--data", str(corpus), "--out", str(out), *TRAIN_ARGS]
        self.attempted += 1
        try:
            proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                                  timeout=120)
        except subprocess.TimeoutExpired:
            self.fail("train (set-up)", "no exit within 120 s")
            return
        if proc.returncode != 0:
            self.fail("train (set-up)",
                      f"exit {proc.returncode}; {proc.stderr.strip()[-500:]}")
            return
        self._check("train (set-up)", lambda text: check_train(text, out),
                    proc.stdout)

    def verify(self, what, check) -> None:
        """Run a check of the benchmark's own as one operation."""
        self.attempted += 1
        self._check(what, lambda _: check(), None)

    def _check(self, what, check, stdout):
        if check is None:
            return stdout
        start = time.perf_counter()
        try:
            return check(stdout)
        except Exception as exc:     # record and go on with the next operation
            self.fail(what, f"{type(exc).__name__}: {exc}")
            return None
        finally:
            self.check_s += time.perf_counter() - start


def check_train(stdout: str, out: Path) -> dict:
    summary = json.loads(stdout.strip().splitlines()[-1])
    require(summary["status"] == "completed", f"train status {summary['status']}")
    require(math.isfinite(summary["best_val"]), "best_val is not finite")
    _, config = training.load_checkpoint(str(out))
    require(config == network.ModelConfig(), f"checkpoint config {config}")
    manifest = json.loads((out / "run.json").read_text())
    return {"best_val": summary["best_val"],
            "train_windows": manifest["train_windows"],
            "epochs": manifest["train"]["epochs"]}


def _finite_table(table, where):
    for key, row in table.items():
        for metric, value in row.items():
            require(isinstance(value, float) and math.isfinite(value),
                    f"{where}.{key}.{metric} = {value!r}")


class Train:
    """Training: the autodiff tape, backward pass, Adam and checkpoint save."""

    name = "train"
    PROBE = "array"         # its time goes to array work on batch-8 tensors
    PLATOONS = 20

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, s: Harness, root: Path) -> None:
        self.corpus = root / "corpus"
        s.cli("datagen", "--out", self.corpus, "--platoons", self.PLATOONS,
              "--seed", self.seed,
              check=lambda _: load_corpus(self.corpus, self.PLATOONS))

    def round(self, s: Harness, root: Path) -> dict:
        out = root / "ckpt"

        def check(stdout):
            s.same_bytes("train.stdout", stdout.encode())
            s.same_bytes("train.checkpoint", out)
            return check_train(stdout, out)

        wall, res = s.cli("train", "--data", self.corpus, "--out", out,
                          *TRAIN_ARGS, check=check)
        if res is None:
            return {}
        return {"train_windows_per_s": (res["epochs"] * res["train_windows"] / wall,
                                        "windows/s"),
                "train_val_loss": (res["best_val"], "loss")}


class Evaluate:
    """Open- and closed-loop evaluation of a checkpoint on a held-out corpus.

    ``eval`` runs the network forward-only at batch 64; ``simulate`` and
    ``stability`` run it at batch 1 per replan, where the cost is Python
    overhead per autodiff primitive. The held-out corpus mixes 6- and
    3-follower platoons so that work grouped by platoon shape meets two groups.
    """

    name = "evaluate"
    PROBE = "mixed"         # array work in eval (B=64), per-call overhead at B=1
    TRAIN_PLATOONS = 16
    HELD_OUT = ((24, 6), (24, 3))       # (platoons, followers) per datagen

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, s: Harness, root: Path) -> None:
        corpus = root / "train_corpus"
        s.cli("datagen", "--out", corpus, "--platoons", self.TRAIN_PLATOONS,
              "--seed", 3 * self.seed,
              check=lambda _: load_corpus(corpus, self.TRAIN_PLATOONS))
        # One directory holding both shapes: datagen each into its own
        # directory, then move the CSVs together.
        self.held = root / "held_out"
        self.held.mkdir()
        for k, (platoons, followers) in enumerate(self.HELD_OUT, start=1):
            part = root / f"held_out_{k}"
            s.cli("datagen", "--out", part, "--platoons", platoons,
                  "--followers", followers, "--seed", 3 * self.seed + k)
            for f in part.glob("*.csv"):
                f.rename(self.held / f.name)
        self.checkpoint = root / "ckpt"
        s.child_train(corpus, self.checkpoint)

        def inputs():
            self.records = load_corpus(self.held, sum(p for p, _ in self.HELD_OUT))
            _, self.config = training.load_checkpoint(str(self.checkpoint))
        s.verify("held-out corpus and checkpoint", inputs)

    def round(self, s: Harness, root: Path) -> dict:
        n, records, config = len(self.records), self.records, self.config
        windows = expected_windows(records, config, STRIDE)
        info = {}

        eval_out = root / "eval.json"

        def check_eval(_):
            s.same_bytes("eval.report", eval_out)
            report = json.loads(eval_out.read_text())
            require(report["platoons"] == n, f"eval platoons {report['platoons']}")
            require(report["windows"] == windows,
                    f"eval windows {report['windows']}, corpus gives {windows}")
            for table in ("horizons", "persistence", "improvement_pct"):
                _finite_table(report[table], table)
            model, base = report["horizons"]["avg"], report["persistence"]["avg"]
            for metric in ("rmse_speed", "rmse_gap"):
                require(model[metric] < base[metric],
                        f"avg {metric} {model[metric]} does not beat "
                        f"persistence {base[metric]}")
            return model["rmse_speed"]

        wall, rmse = s.cli("eval", "--checkpoint", self.checkpoint,
                           "--data", self.held, "--out", eval_out,
                           "--stride", STRIDE, check=check_eval)
        if rmse is not None:
            info["eval_windows_per_s"] = (windows / wall, "windows/s")
            info["eval_rmse_speed"] = (rmse, "m/s")

        sim_out = root / "sim"

        def check_simulate(_):
            s.same_bytes("simulate.outputs", sim_out)
            summary = json.loads((sim_out / "summary.json").read_text())
            require(summary["platoons"] == n, f"simulate platoons {summary['platoons']}")
            load_corpus(sim_out / "simulated.csv", n)
            rows = summary["platoon"].values()
            frames = sum(row["frames"] - config.history_len for row in rows)
            require(frames > 0, "no frames simulated after warm-up")
            return frames, summary["viable_fraction"]

        wall, res = s.cli("simulate", "--checkpoint", self.checkpoint,
                          "--data", self.held, "--out", sim_out,
                          check=check_simulate)
        if res is not None:
            info["sim_frames_per_s"] = (res[0] / wall, "frames/s")
            info["sim_viable_fraction"] = (res[1], "ratio")

        safety_out = root / "safety.json"

        def check_safety(_):
            s.same_bytes("safety.report", safety_out)
            report = json.loads(safety_out.read_text())
            for part in ("data", "sim"):
                section = report[part]
                require(section["platoons"] == n, f"safety {part} platoons")
                for kind in ("pet", "ssdd"):
                    require(sum(section[f"{kind}_hist"]) == section[f"{kind}_samples"],
                            f"safety {part} {kind} histogram does not sum "
                            f"to its sample count")
            require(set(report["divergence"]) == {"pet", "ssdd"},
                    "safety divergences missing")
            return True

        if res is not None:
            wall, ok = s.cli("safety", "--data", self.held,
                             "--sim", sim_out / "simulated.csv",
                             "--out", safety_out, check=check_safety)
            if ok:
                info["safety_s"] = (wall, "s")

        stability_out = root / "stability.json"

        def check_stability(_):
            s.same_bytes("stability.report", stability_out)
            report = json.loads(stability_out.read_text())
            require(sorted(report) == sorted(r.platoon_id for r in records),
                    "stability needs one row per platoon")
            return len(report)

        wall, rows = s.cli("stability", "--checkpoint", self.checkpoint,
                           "--data", self.held, "--out", stability_out,
                           check=check_stability)
        if rows is not None:
            info["stability_platoons_per_s"] = (rows / wall, "platoons/s")
        return info


class Calibrate:
    """Genetic IDM calibration: only the ``idm`` layer does work here."""

    name = "calibrate"
    PROBE = "interpreter"   # GA breeding in Python, small population arrays
    PLATOONS = 2
    FOLLOWERS = 3
    BUDGET = 100

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, s: Harness, root: Path) -> None:
        self.corpus = root / "corpus"
        s.cli("datagen", "--out", self.corpus, "--platoons", self.PLATOONS,
              "--followers", self.FOLLOWERS, "--seed", self.seed,
              check=lambda _: load_corpus(self.corpus, self.PLATOONS))

    def round(self, s: Harness, root: Path) -> dict:
        out = root / "idm.json"
        lo, hi = idm.DEFAULT_BOUNDS[:, 0], idm.DEFAULT_BOUNDS[:, 1]

        def check(_):
            s.same_bytes("calibrate.report", out)
            report = json.loads(out.read_text())
            require(len(report) == self.PLATOONS, "calibrate platoon count")
            gaps = []
            for pid, rows in report.items():
                require(sorted(rows, key=int) == [str(i) for i in
                                                  range(1, self.FOLLOWERS + 1)],
                        f"{pid}: followers {sorted(rows)}")
                for vi, row in rows.items():
                    require(row["gap_rmse"] < idm.COLLISION_FITNESS,
                            f"{pid}/{vi}: every candidate collided")
                    genes = [row["params"][g] for g in idm.GENE_NAMES]
                    require(all(l <= g <= h for g, l, h in zip(genes, lo, hi)),
                            f"{pid}/{vi}: params {genes} outside DEFAULT_BOUNDS")
                    require(row["generations"] == self.BUDGET,
                            f"{pid}/{vi}: {row['generations']} generations")
                    gaps.append(row["gap_rmse"])
            return gaps

        wall, gaps = s.cli("calibrate-idm", "--data", self.corpus,
                           "--budget", self.BUDGET, "--out", out, check=check)
        if gaps is None:
            return {}
        return {"ga_generations_per_s": (len(gaps) * self.BUDGET / wall, "gens/s"),
                "ga_gap_rmse": (sum(gaps) / len(gaps), "m")}


WORKLOADS = {w.name: w for w in (Train, Evaluate, Calibrate)}
