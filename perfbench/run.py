"""platoonkit benchmark: time the command line on one workload, check outputs.

Run from the repository root:

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

Workloads: ``train``, ``evaluate``, ``calibrate`` (see README.md). The run
sets up its inputs from ``--seed`` several times, then repeats rounds of the
workload's commands for ``--seconds``. With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of traced rounds. Lines before
it name every metric with its unit, and the full record (environment,
failures, per-command figures) is written to ``.perfbench_work/results/``.
"""

import os
import sys
import time

RUN_START = time.perf_counter()

# BLAS thread pools are sized when numpy loads, so pin them first; the
# ``--threads 1`` given to every command then matches what is in effect.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPS = 3
# At least three rounds, so that the median is a round that reuses the
# process heap, like the rounds after it, rather than the first, which grows it.
MIN_ROUNDS = 3
# Stop starting rounds after this many seconds of the run, so that a slow
# machine still finishes well inside the 180 s a run may take.
DEADLINE_S = 120.0


def _parse(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py")
    p.add_argument("--workload", required=True,
                   choices=("train", "evaluate", "calibrate"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def _git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _src_sha256():
    h = hashlib.sha256()
    for f in sorted(SRC.rglob("*.py")):
        h.update(str(f.relative_to(SRC)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def _environment(args):
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_pin": {v: os.environ[v] for v in THREAD_VARS},
        "cli_threads": 1,
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _unit(name):
    if name == "round_norm":
        return "probes"
    if name.endswith("_s") or "_s." in name:
        return "s"
    if "_mb" in name:
        return "MB"
    if "bytes" in name:
        return "bytes"
    if "fraction" in name:
        return "ratio"
    return "count"


def _median(values):
    return statistics.median(values) if values else 0.0


def _setup(args, s, workload, make):
    """Set up ``SETUP_REPS`` times; the first copy feeds the rounds, the
    others must come out byte-identical to it. Returns per-rep seconds (check
    time excluded) and the traced phase names."""
    times, phases = [], []
    for rep in range(SETUP_REPS):
        root = s.work / f"setup{rep}"
        root.mkdir()
        if s.tracer is not None:
            s.phase = f"setup{rep}"
            phases.append(s.phase)
        gc.collect()
        checks = s.check_s
        start = time.perf_counter()
        (workload if rep == 0 else make(args.seed)).setup(s, root)
        times.append(time.perf_counter() - start - (s.check_s - checks))
        s.phase = None
        s.verify("set-up repeat", lambda: [
            s.same_bytes(f"setup/{entry.name}", entry)
            for entry in sorted(root.iterdir())])
        if rep:
            shutil.rmtree(root)
        if s.failed:
            break
    return times, phases


def _rounds(args, s, workload):
    """Repeat rounds for ``--seconds``, and at least ``MIN_ROUNDS`` times. A
    traced run alternates traced and untraced rounds, traced first, so that
    tracing overhead is measured in the same process."""
    from probe import SpeedProbe

    rounds, info = [], []
    # Untraced runs sample the host's speed during every CLI call.
    probe = s.probe = SpeedProbe(workload.PROBE) if s.tracer is None else None
    start = time.perf_counter()
    while not s.failed and time.perf_counter() - RUN_START < DEADLINE_S:
        index = len(rounds)
        traced = s.tracer is not None and index % 2 == 0
        if index >= MIN_ROUNDS and time.perf_counter() - start >= args.seconds:
            break
        root = s.work / f"round{index}"
        root.mkdir()
        s.phase = f"round{index}" if traced else None
        gc.collect()
        before, taken = s.cli_s, len(probe.samples) if probe else 0
        info.append(workload.round(s, root))
        s.phase = None
        rounds.append({"phase": f"round{index}", "traced": traced,
                       "wall_s": s.cli_s - before,
                       "probe_s": probe.samples[taken:] if probe else []})
        shutil.rmtree(root)
    s.probe = None
    return rounds, info


def _workload_metrics(info):
    """The workload's own figures (per-command throughput, result quality):
    median over rounds, printed and recorded beside the bounded metrics."""
    values, units = {}, {}
    for round_info in info:
        for name, (value, unit) in round_info.items():
            values.setdefault(name, []).append(value)
            units[name] = unit
    return {name: {"value": _median(v), "unit": units[name], "rounds": len(v)}
            for name, v in sorted(values.items())}


def run(args):
    from tracer import Tracer
    from workloads import WORKLOADS, Harness, require

    import_s = time.perf_counter() - RUN_START
    make = WORKLOADS[args.workload]
    workload = make(args.seed)
    tracer = Tracer() if args.trace else None
    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    s = Harness(work, tracer)
    try:
        setup_s, setup_phases = _setup(args, s, workload, make)
        rounds, info = _rounds(args, s, workload)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = [r["wall_s"] for r in rounds if not r["traced"]]
    if tracer is None:
        s.verify("speed probe", lambda: require(
            all(r["probe_s"] for r in rounds), "a round took no probe sample"))
        metrics = {"setup_s": import_s + _median(setup_s),
                   "round_norm": _median([r["wall_s"] / statistics.mean(r["probe_s"])
                                          for r in rounds if r["probe_s"]]),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    else:
        phases = [r["phase"] for r in rounds if r["traced"]]
        metrics = tracer.metrics(setup_phases, phases) if phases else {}
        metrics["trace.round_overhead_s"] = _median(
            [r["wall_s"] for r in rounds if r["traced"]]) - _median(untraced)
        # Counts a later change may cite must repeat exactly.
        counts = [tracer.repeat_counts(p) for p in phases]
        s.verify("repeat counts", lambda: require(
            all(c == counts[0] for c in counts),
            f"differ between rounds: {counts}"))

    result = {
        "correct": s.failed == 0,
        "attempted": s.attempted,
        "failed": s.failed,
        "metrics": {name: {"value": value, "unit": _unit(name)}
                    for name, value in metrics.items()},
    }
    own = _workload_metrics(info)
    if tracer is None:
        # Raw wall time and host speed: recorded and printed, not bounded.
        own["round_s"] = {"value": _median(untraced), "unit": "s",
                          "rounds": len(untraced)}
        own["probe_s"] = {"value": _median([x for r in rounds for x in r["probe_s"]]),
                          "unit": "s", "rounds": len(rounds)}
    record = {"environment": _environment(args), "result": result,
              "workload_metrics": own, "import_s": import_s,
              "setup_reps_s": setup_s, "rounds": rounds,
              "failures": s.failures}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(results / f"{stem}-spans.jsonl")

    print("environment " + json.dumps(record["environment"], sort_keys=True))
    for name, m in own.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}"
              f" (median of {m['rounds']} rounds)")
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"rounds: {len(rounds)}; operations: {s.attempted} attempted, "
          f"{s.failed} failed")
    print(json.dumps(result))


def main(argv=None):
    args = _parse(sys.argv[1:] if argv is None else argv)
    if not (SRC / "platoonkit" / "cli.py").is_file():
        print(f"perfbench: no platoonkit sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
