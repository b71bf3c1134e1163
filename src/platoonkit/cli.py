"""Command-line surface wiring the toolkit into reproducible pipelines.

Subcommands: datagen, train, eval, simulate, stability, safety,
calibrate-idm, gradcheck. Exit codes: 0 success, 1 usage error, 2
data/validation error. All randomness flows from ``--seed``; with
``--threads 1`` (the default) identical invocations produce byte-identical
primary outputs.

Heavy imports are deferred into the handlers so ``--threads`` can pin the
BLAS thread pools before numpy loads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

GRADCHECK_TOL = 1e-4

# upper bounds of the count and size flags, checked at parse time
MAX_PLATOONS = 10_000        # synthetic platoon ids carry four digits
MAX_FOLLOWERS = 1_000        # each follower's IDM law is drawn in Python
MAX_NOISE_SIGMA = 10.0       # m/s^2 of acceleration noise, about 1 g
MAX_DURATION_S = 3600.0
MAX_BUDGET = 10_000
MAX_EPOCHS = 10_000          # TrainConfig's bound too, so --config obeys it
MAX_STRIDE = 1_000_000       # frames between windows, about 28 h at 0.1 s
MAX_THREADS = 1_024          # written to the BLAS thread pool variables

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class CliError(Exception):
    """Data or validation failure; mapped to exit code 2."""


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _set_thread_env(n: int) -> None:
    for var in _THREAD_VARS:
        os.environ[var] = str(n)


def _positive_int(text):
    v = int(text)
    if v < 1:
        raise argparse.ArgumentTypeError(f"{text} is not a positive integer")
    return v


def _non_negative_int(text):
    v = int(text)
    if v < 0:
        raise argparse.ArgumentTypeError(f"{text} is not a non-negative integer")
    return v


def _non_negative_float(text):
    v = float(text)
    if not (math.isfinite(v) and v >= 0):
        raise argparse.ArgumentTypeError(f"{text} is not a finite number >= 0")
    return v


def _positive_float(text):
    v = _non_negative_float(text)
    if v == 0:
        raise argparse.ArgumentTypeError(f"{text} is not a finite positive number")
    return v


def _open_unit_float(text):
    v = float(text)
    if not 0 < v < 1:
        raise argparse.ArgumentTypeError(f"{text} is not a number in (0, 1)")
    return v


def _at_most(parse, maximum):
    """``parse``, then reject values above ``maximum``; every ``parse``
    rejects ``inf`` itself."""
    def check(text):
        v = parse(text)
        if v > maximum:
            raise argparse.ArgumentTypeError(f"{text} is above the maximum {maximum:g}")
        return v
    return check


def _json_text(payload) -> str:
    # NaN and Infinity are not JSON: a non-finite value fails before writing
    return json.dumps(payload, sort_keys=True, indent=1, allow_nan=False) + "\n"


def _emit(payload, out_path) -> None:
    text = _json_text(payload)
    if out_path is not None:
        Path(out_path).write_text(text, encoding="utf-8", newline="\n")
    sys.stdout.write(text)


def _write_manifest(out_dir: Path, command: str, payload: dict) -> None:
    from . import __version__
    body = {"command": command, "version": __version__, **payload}
    (out_dir / "run.json").write_text(_json_text(body), encoding="utf-8",
                                      newline="\n")


def load_run_config(path):
    """Read a JSON run config with optional "model" and "train" sections.

    Unknown keys anywhere are rejected; values are range-checked later by the
    ModelConfig / TrainConfig constructors.
    """
    from . import network as net
    from . import training
    try:
        cfg = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise CliError(f"config {path}: top level must be a JSON object")
    unknown = set(cfg) - {"model", "train"}
    if unknown:
        raise CliError(f"config {path}: unknown keys {sorted(unknown)}")
    sections = []
    for name, cls in (("model", net.ModelConfig), ("train", training.TrainConfig)):
        section = cfg.get(name, {})
        if not isinstance(section, dict):
            raise CliError(f"config {path}: {name!r} must be a JSON object")
        allowed = {f.name for f in fields(cls)}
        bad = set(section) - allowed
        if bad:
            raise CliError(f"config {path}: unknown {name} keys {sorted(bad)}")
        sections.append(dict(section))
    return sections[0], sections[1]


def _model_config(model_kw):
    from . import network as net
    try:
        return net.ModelConfig(**model_kw)
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad model config: {exc}") from exc


def _load_records(path):
    from . import data
    rejects: list = []
    try:
        records = data.load_trajectories(path, rejects)
    except data.DataError as exc:
        raise CliError(str(exc)) from exc
    if rejects:
        print(f"skipped {len(rejects)} invalid platoon(s)", file=sys.stderr)
    if not records:
        raise CliError(f"{path}: no valid platoons")
    return records


# -- subcommand handlers ------------------------------------------------------------

def _cmd_datagen(args) -> int:
    from . import data
    try:
        records = data.generate_synthetic_platoons(
            args.platoons, n_followers=args.followers,
            duration_s=args.duration_s, seed=args.seed,
            noise_sigma=args.noise_sigma)
    except (ValueError, data.DataError) as exc:
        raise CliError(str(exc)) from exc
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for rec in records:
        data.write_trajectories([rec], out / f"{rec.platoon_id}.csv")
    _write_manifest(out, "datagen", {
        "platoons": args.platoons, "followers": args.followers,
        "duration_s": args.duration_s, "noise_sigma": args.noise_sigma,
        "seed": args.seed})
    print(f"wrote {len(records)} platoons to {out}")
    return EXIT_OK


def _cmd_train(args) -> int:
    from . import network as net
    from . import training
    model_kw, train_kw = ({}, {}) if args.config is None \
        else load_run_config(args.config)
    for name in ("epochs", "batch_size", "lr", "alpha_kl", "seed"):
        value = getattr(args, name)
        if value is not None:
            train_kw[name] = value
    config = _model_config(model_kw)
    try:
        tcfg = training.TrainConfig(**train_kw)
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad training config: {exc}") from exc

    records = _load_records(args.data)
    from . import data
    train_recs, val_recs = data.split_dataset(records, args.val_ratio,
                                              tcfg.seed)
    if not train_recs or not val_recs:
        raise CliError(f"{len(records)} platoon(s) cannot fill both splits "
                       f"at --val-ratio {args.val_ratio}")
    P, F = config.history_len, config.horizon
    train_w = data.extract_windows(train_recs, P, F, args.stride)
    val_w = data.extract_windows(val_recs, P, F, args.stride)
    n_train, n_val = data.window_count(train_w), data.window_count(val_w)
    if not n_train or not n_val:
        raise CliError("records are too short for the configured "
                       f"history_len={config.history_len} horizon={config.horizon}")

    params = net.init_params(config, seed=tcfg.seed)
    params.norm_mean, params.norm_std = net.fit_normalization(train_w)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result = training.train(params, config, train_w, val_w, tcfg,
                            checkpoint_dir=str(out), log_stream=sys.stdout)
    _write_manifest(out, "train", {
        "model": asdict(config), "train": asdict(tcfg),
        "stride": args.stride, "val_ratio": args.val_ratio,
        "train_windows": n_train, "val_windows": n_val})
    # best_val stays infinite when no epoch completes; JSON has no Infinity
    best_val = result.best_val if math.isfinite(result.best_val) else None
    sys.stdout.write(json.dumps(
        {"best_epoch": result.best_epoch, "best_val": best_val,
         "status": result.status}, sort_keys=True) + "\n")
    if result.status != "completed":
        print(f"training {result.status}: {result.abort_reason}",
              file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


def _predictions(params, config, windows):
    """Deterministic open-loop predictions pooled over all windows: one
    forward pass per follower count, which ``model_forward`` runs a block of
    platoons at a time."""
    from . import analysis
    from . import network as net
    import numpy as np
    F = config.horizon
    pv, ps, tv, ts, bv, bs = [], [], [], [], [], []
    for hist, lead, targets in windows:
        out = net.model_forward(params, config, hist, lead)
        pv.append(out.result.v.data.reshape(-1, F))
        ps.append(out.result.s.data.reshape(-1, F))
        tv.append(targets[..., 0].reshape(-1, F))
        ts.append(targets[..., 1].reshape(-1, F))
        base_v, base_s = analysis.persistence_prediction(hist, F)
        bv.append(base_v.reshape(-1, F))
        bs.append(base_s.reshape(-1, F))
    cat = lambda chunks: np.concatenate(chunks, axis=0)
    return cat(pv), cat(ps), cat(tv), cat(ts), cat(bv), cat(bs)


def _cmd_eval(args) -> int:
    from . import analysis, data
    params, config, records = _load_model_and_data(args)
    windows = data.extract_windows(records, config.history_len, config.horizon,
                                   args.stride)
    n_windows = data.window_count(windows)
    if not n_windows:
        raise CliError("no evaluation windows; records are too short")
    pv, ps, tv, ts, bv, bs = _predictions(params, config, windows)
    # report the part of the standard lead-time grid the horizon covers
    horizons = tuple(h for h in analysis.HORIZONS_S
                     if int(round(h / data.DT)) <= config.horizon)
    try:
        model_table = analysis.horizon_metrics(pv, tv, ps, ts, horizons)
        base_table = analysis.horizon_metrics(bv, tv, bs, ts, horizons)
    except analysis.AnalysisError as exc:
        raise CliError(str(exc)) from exc
    improvement = {}
    for key, row in model_table.items():
        improvement[key] = {
            metric: 100.0 * (1.0 - row[metric] / base)
            for metric, base in base_table[key].items() if base > 0}
    report = {"platoons": len(records), "windows": n_windows,
              "horizons": model_table, "persistence": base_table,
              "improvement_pct": improvement}
    _emit(report, args.out)
    return EXIT_OK


def _load_model_and_data(args):
    """Checkpoint plus records."""
    from . import training
    params, config = training.load_checkpoint(args.checkpoint)
    return params, config, _load_records(args.data)


def _cmd_simulate(args) -> int:
    import numpy as np
    from . import data
    from . import simulate as sim
    params, config, records = _load_model_and_data(args)
    controller = sim.ModelController(
        params, config, seed=args.seed if args.stochastic else None)
    runs = sim.simulate_platoons(records, controller, warmup_steps=args.warmup,
                                 replan_interval=args.replan)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    summary = {}
    for rec, run in zip(records, runs):
        row = {"viable": run.viable, "collision_frame": run.collision_frame,
               "frames": run.duration, "clamp_count": run.clamp_count,
               "rmse_speed": None, "rmse_position": None}
        if run.duration > run.warmup_steps:
            report = sim.compare_runs(rec, run)
            sim.write_deviations_csv(report, out / f"dev_{rec.platoon_id}.csv")
            row["rmse_speed"] = report.rmse_speed
            row["rmse_position"] = report.rmse_position
        summary[rec.platoon_id] = row
    data.write_trajectories([run.record for run in runs], out / "simulated.csv")
    viable = sum(1 for row in summary.values() if row["viable"])
    compared = [row["rmse_speed"] for row in summary.values()
                if row["rmse_speed"] is not None]
    overall = {
        "platoons": len(records), "viable": viable,
        "viable_fraction": viable / len(records),
        "mean_rmse_speed": float(np.mean(compared)) if compared else None,
        "platoon": summary}
    _write_manifest(out, "simulate", {
        "warmup": args.warmup, "replan": args.replan,
        "stochastic": args.stochastic, "seed": args.seed})
    _emit(overall, out / "summary.json")
    return EXIT_OK


def _cmd_stability(args) -> int:
    from . import analysis, data
    from . import network as net
    params, config, records = _load_model_and_data(args)
    for rec in records:
        if rec.duration < config.history_len + config.horizon:
            raise CliError(f"{rec.platoon_id}: too short for a window")
    # earliest snapshot only, deterministic and warmup-free: a stride of the
    # longest duration leaves each record its window at frame 0
    windows = data.extract_windows(records, config.history_len, config.horizon,
                                   stride=max(rec.duration for rec in records))
    thetas = []
    for hist, lead, _ in windows:   # one batch per follower count
        thetas.extend(net.model_forward(params, config, hist, lead).theta.data)
    report = {}
    for rec, theta in zip(sorted(records, key=lambda r: r.n_followers), thetas):
        spectrum = analysis.head_to_tail_gain(theta)
        margins = analysis.string_stability_margin(spectrum.theta_used)
        report[rec.platoon_id] = {
            "amplified": spectrum.amplified,
            "peak_gain": spectrum.peak_gain,
            "peak_omega": spectrum.peak_omega,
            "min_margin": float(margins.min()),
            "stable_vehicles": int((margins >= 0.0).sum()),
            "vehicles": int(margins.shape[0])}
        if args.spectra is not None:
            _write_spectrum_csv(Path(args.spectra), rec.platoon_id,
                                spectrum)
    _emit(report, args.out)
    return EXIT_OK


def _write_spectrum_csv(out_dir: Path, platoon_id: str, spectrum) -> None:
    from . import data
    out_dir.mkdir(parents=True, exist_ok=True)
    n = spectrum.per_vehicle.shape[0]
    header = "omega_rad_s,chain_gain," + ",".join(
        f"vehicle_{i}_gain" for i in range(n))
    template = ",".join([data.NUMBER] * (n + 2)) + "\n"
    rows = data.format_rows(template, spectrum.omega, spectrum.chain,
                            *spectrum.per_vehicle)
    (out_dir / f"spectrum_{platoon_id}.csv").write_text(
        header + "\n" + rows, encoding="utf-8", newline="\n")


def _safety_section(records):
    """Finite PET and SSDD samples pooled over platoons, and their report
    section; returns (section, pet, ssdd)."""
    import numpy as np
    from . import analysis
    pet, ssdd = [], []
    for rec in records:
        try:
            p = analysis.pet_series(rec.positions, rec.lengths)
            ssdd.append(analysis.ssdd_series(rec.speeds, rec.gaps()).ravel())
        except analysis.AnalysisError as exc:
            raise CliError(f"{rec.platoon_id}: {exc}") from exc
        pet.append(p[np.isfinite(p)])
    pet, ssdd = np.concatenate(pet), np.concatenate(ssdd)
    section = {
        "platoons": len(records),
        "pet_samples": int(pet.size), "ssdd_samples": int(ssdd.size),
        "pet_hist": analysis.histogram_counts(
            pet, analysis.PET_BIN_EDGES).tolist(),
        "ssdd_hist": analysis.histogram_counts(
            ssdd, analysis.SSDD_BIN_EDGES).tolist(),
        "ssdd_unsafe_fraction": float(np.mean(ssdd < 0.0))}
    return section, pet, ssdd


def _cmd_safety(args) -> int:
    from . import analysis
    report = {}
    report["data"], pet, ssdd = _safety_section(_load_records(args.data))
    if args.sim is not None:
        report["sim"], sim_pet, sim_ssdd = _safety_section(
            _load_records(args.sim))
        report["divergence"] = {
            "pet": analysis.histogram_divergences(
                pet, sim_pet, analysis.PET_BIN_EDGES),
            "ssdd": analysis.histogram_divergences(
                ssdd, sim_ssdd, analysis.SSDD_BIN_EDGES)}
    _emit(report, args.out)
    return EXIT_OK


def _cmd_calibrate_idm(args) -> int:
    import numpy as np
    from . import data, idm
    records = _load_records(args.data)
    report, slots, observations, seeds = {}, [], [], []
    for ri, rec in enumerate(records):
        if args.vehicle is not None and \
                not 1 <= args.vehicle <= rec.n_followers:
            raise CliError(f"{rec.platoon_id}: vehicle {args.vehicle} is not "
                           f"a follower (1..{rec.n_followers})")
        indices = [args.vehicle] if args.vehicle is not None \
            else range(1, rec.n_followers + 1)
        rows = report[rec.platoon_id] = {}
        for vi in indices:
            slots.append((rec.platoon_id, rows, str(vi)))
            observations.append(data.follower_observation(rec, vi))
            child = np.random.SeedSequence((args.seed, ri, vi))
            seeds.append(int(child.generate_state(1)[0]))
    results = idm.calibrate_followers(observations, seeds, budget=args.budget)
    for (pid, rows, vi), result in zip(slots, results):
        if not math.isfinite(result.fitness):
            raise CliError(f"{pid}: follower {vi}: GA fitness is "
                           f"{result.fitness}; the IDM simulation overflows "
                           f"at this corpus's scale")
        # the GA fitness, gap RMSE plus speed RMSE, under its historic key
        rows[vi] = {"params": asdict(result.params),
                    "gap_rmse": result.fitness,
                    "generations": args.budget}
    _emit(report, args.out)
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    from . import network as net
    if args.config is not None:
        model_kw, _ = load_run_config(args.config)
        config = _model_config(model_kw) if model_kw else net.desk_config()
    else:
        config = net.desk_config()
    max_err, n_params = net.gradcheck_model(config, seed=args.seed,
                                            step=args.step)
    max_err = float(max_err)
    _emit({"max_rel_error": max_err, "parameters": int(n_params),
           "tolerance": GRADCHECK_TOL, "passed": bool(max_err < GRADCHECK_TOL)},
          None)
    return EXIT_OK if max_err < GRADCHECK_TOL else EXIT_DATA


# -- parser ---------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="platoonkit",
                     description="platoon car-following toolkit")
    parser.add_argument("--threads", type=_at_most(_positive_int, MAX_THREADS),
                        default=1, help="BLAS thread cap, at most "
                        f"{MAX_THREADS:g}; determinism needs 1")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("datagen", help="generate a synthetic platoon corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--platoons", type=_at_most(_positive_int, MAX_PLATOONS),
                   required=True, help=f"at most {MAX_PLATOONS:g}")
    p.add_argument("--followers", type=_at_most(_positive_int, MAX_FOLLOWERS),
                   default=6, help=f"at most {MAX_FOLLOWERS:g}")
    p.add_argument("--duration-s", type=_at_most(_positive_float, MAX_DURATION_S),
                   default=15.0, help=f"at most {MAX_DURATION_S:g}")
    p.add_argument("--noise-sigma",
                   type=_at_most(_non_negative_float, MAX_NOISE_SIGMA),
                   default=0.1, help=f"m/s^2, at most {MAX_NOISE_SIGMA:g}")
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.set_defaults(handler=_cmd_datagen)

    p = sub.add_parser("train", help="train a model on trajectory CSVs")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="JSON run config (model/train sections)")
    p.add_argument("--epochs", type=_at_most(_positive_int, MAX_EPOCHS),
                   help=f"at most {MAX_EPOCHS:g}")
    p.add_argument("--batch-size", type=_positive_int)
    p.add_argument("--lr", type=_positive_float)
    p.add_argument("--alpha-kl", type=_non_negative_float)
    p.add_argument("--seed", type=_non_negative_int)
    p.add_argument("--val-ratio", type=_open_unit_float, default=0.1)
    p.add_argument("--stride", type=_at_most(_positive_int, MAX_STRIDE),
                   default=1, help=f"frames, at most {MAX_STRIDE:g}")
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("eval", help="open-loop horizon metrics vs persistence")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out")
    p.add_argument("--stride", type=_at_most(_positive_int, MAX_STRIDE),
                   default=1, help=f"frames, at most {MAX_STRIDE:g}")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("simulate", help="closed-loop re-simulation of platoons")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--warmup", type=_positive_int)
    p.add_argument("--replan", type=_positive_int)
    p.add_argument("--stochastic", action="store_true",
                   help="sample latents instead of using their means")
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("stability", help="string-stability spectra per platoon")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out")
    p.add_argument("--spectra", help="directory for per-platoon spectrum CSVs")
    p.set_defaults(handler=_cmd_stability)

    p = sub.add_parser("safety", help="PET/SSDD histograms and divergences")
    p.add_argument("--data", required=True)
    p.add_argument("--sim", help="simulated trajectories to compare against: "
                   "the simulated.csv file that simulate writes, not its "
                   "--out directory")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_safety)

    p = sub.add_parser("calibrate-idm", help="fit IDM parameters per follower")
    p.add_argument("--data", required=True)
    p.add_argument("--vehicle", type=_positive_int,
                   help="calibrate one follower index instead of all")
    p.add_argument("--budget", type=_at_most(_positive_int, MAX_BUDGET),
                   default=100, help=f"GA generations, at most {MAX_BUDGET:g}")
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_calibrate_idm)

    p = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    p.add_argument("--config", help="JSON config; desk-scale default")
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--step", type=_positive_float, default=1e-6)
    p.set_defaults(handler=_cmd_gradcheck)
    return parser


def _data_error_types():
    from . import analysis, autodiff, data, simulate, training
    return (CliError, data.DataError, training.CheckpointError,
            simulate.SimulationError, analysis.AnalysisError,
            autodiff.NonFiniteValue, ValueError, OSError)


def dispatch(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:     # --help
        return int(exc.code or 0)
    _set_thread_env(args.threads)
    try:
        return args.handler(args)
    except Exception as exc:
        if isinstance(exc, _data_error_types()):
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_DATA
        raise


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
