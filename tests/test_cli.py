"""End-to-end command-line pipeline coverage via dispatch()."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from platoonkit import cli, data, idm
from platoonkit import network as net
from platoonkit import training


def _run(capsys, argv):
    code = cli.dispatch(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


# tiny but complete model: 80-frame records fit several windows
TINY_MODEL = {"d_model": 8, "n_state": 2, "conv_kernel": 4, "ve_hidden": 8,
              "attn_layers": 1, "attn_heads": 2, "history_len": 6,
              "horizon": 5, "param_window": 5}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    code = cli.dispatch(["datagen", "--out", str(out), "--platoons", "6",
                         "--followers", "2", "--duration-s", "8.0",
                         "--seed", "3"])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory, corpus):
    ckpt = tmp_path_factory.mktemp("ckpt")
    cfg = tmp_path_factory.mktemp("cfg") / "run.json"
    cfg.write_text(json.dumps({"model": TINY_MODEL,
                               "train": {"epochs": 2, "batch_size": 16,
                                         "lr": 1e-3, "seed": 1}}))
    code = cli.dispatch(["train", "--data", str(corpus), "--out", str(ckpt),
                         "--config", str(cfg), "--stride", "8"])
    assert code == 0
    return ckpt


# -- usage and exit codes ----------------------------------------------------------

def test_missing_subcommand_is_usage_error(capsys):
    code, _, err = _run(capsys, [])
    assert code == 1 and "error" in err


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, err = _run(capsys, ["frobnicate"])
    assert code == 1 and "invalid choice" in err


def test_missing_required_flag_is_usage_error(capsys):
    code, _, err = _run(capsys, ["datagen", "--platoons", "3"])
    assert code == 1 and "--out" in err


def test_eval_has_no_batch_size(capsys):
    # eval runs each follower count's windows as one batch
    code, _, err = _run(capsys, ["eval", "--checkpoint", "c", "--data", "d",
                                 "--batch-size", "64"])
    assert code == 1 and "--batch-size" in err


def test_nonpositive_count_is_usage_error(capsys):
    code, _, err = _run(capsys, ["datagen", "--out", "x", "--platoons", "0"])
    assert code == 1 and "positive" in err


def test_help_exits_zero(capsys):
    assert cli.dispatch(["--help"]) == 0
    out = capsys.readouterr().out
    commands = [name for action in cli._build_parser()._actions
                if action.dest == "command" for name in action.choices]
    assert "gradcheck" in commands
    for name in commands:
        assert name in out


def test_missing_data_is_data_error(capsys, tmp_path):
    code, _, err = _run(capsys, ["safety", "--data", str(tmp_path / "nope")])
    assert code == 2 and "error" in err


def test_threads_flag_pins_env(capsys, tmp_path):
    cli.dispatch(["--threads", "3", "safety", "--data", str(tmp_path / "n")])
    capsys.readouterr()
    assert os.environ["OMP_NUM_THREADS"] == "3"
    cli.dispatch(["--threads", "1", "safety", "--data", str(tmp_path / "n")])
    capsys.readouterr()
    assert os.environ["OMP_NUM_THREADS"] == "1"


# -- config file handling -----------------------------------------------------------

def test_config_unknown_top_key_rejected(capsys, tmp_path, corpus):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"model": {}, "optimizer": {}}))
    code, _, err = _run(capsys, ["train", "--data", str(corpus), "--out",
                                 str(tmp_path / "o"), "--config", str(cfg)])
    assert code == 2 and "optimizer" in err


def test_config_unknown_model_key_rejected(capsys, tmp_path, corpus):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"model": {"d_modell": 8}}))
    code, _, err = _run(capsys, ["train", "--data", str(corpus), "--out",
                                 str(tmp_path / "o"), "--config", str(cfg)])
    assert code == 2 and "d_modell" in err


def test_config_must_be_object(capsys, tmp_path, corpus):
    cfg = tmp_path / "c.json"
    cfg.write_text("[1, 2]")
    code, _, err = _run(capsys, ["train", "--data", str(corpus), "--out",
                                 str(tmp_path / "o"), "--config", str(cfg)])
    assert code == 2 and "object" in err


@pytest.mark.parametrize("command,section,field,value", [
    ("train", "model", "d_model", 8.0),
    ("train", "model", "history_len", True),
    ("train", "model", "dt", "0.1"),
    ("train", "model", "disable_tfl", 0),
    ("train", "train", "epochs", 1.0),
    ("train", "train", "batch_size", "16"),
    ("train", "train", "seed", -2),
    ("gradcheck", "model", "d_model", 8.0),
    ("gradcheck", "model", "disable_pfl", "no"),
])
def test_config_value_of_wrong_type_names_field(capsys, tmp_path, corpus, command,
                                                section, field, value):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({section: {field: value}}))
    argv = [command, "--config", str(cfg)]
    if command == "train":
        argv += ["--data", str(corpus), "--out", str(tmp_path / "o")]
    code, _, err = _run(capsys, argv)
    assert code == 2 and field in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["train", "gradcheck"])
def test_config_negative_ve_hidden_names_field(capsys, tmp_path, corpus, command):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"model": {"ve_hidden": -1}}))
    argv = [command, "--config", str(cfg)]
    if command == "train":
        argv += ["--data", str(corpus), "--out", str(tmp_path / "o")]
    code, _, err = _run(capsys, argv)
    assert code == 2 and "ve_hidden" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["train", "gradcheck"])
@pytest.mark.parametrize("model, field", [
    # numpy asked for 2.84 PiB of weights, and 7.45 GiB of window indices
    ({"d_model": 10_000_000, "attn_heads": 1}, "d_model"),
    ({"history_len": 1_000_000_000}, "history_len + horizon"),
    ({"attn_layers": 10 ** 12}, "attn_layers")])
def test_config_too_large_is_data_error_naming_the_field(capsys, tmp_path, corpus,
                                                         command, model, field):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"model": model}))
    out = tmp_path / "o"
    argv = [command, "--config", str(cfg)]
    if command == "train":
        argv += ["--data", str(corpus), "--out", str(out)]
    code, _, err = _run(capsys, argv)
    assert code == 2 and field in err and "Traceback" not in err
    assert not out.exists()


def test_config_missing_file(capsys, tmp_path, corpus):
    code, _, err = _run(capsys, ["train", "--data", str(corpus), "--out",
                                 str(tmp_path / "o"), "--config",
                                 str(tmp_path / "absent.json")])
    assert code == 2


# -- datagen -------------------------------------------------------------------------

def test_datagen_writes_loadable_corpus(corpus):
    csvs = sorted(corpus.glob("*.csv"))
    assert len(csvs) == 6
    assert (corpus / "run.json").exists()
    records = data.load_trajectories(corpus)
    assert len(records) == 6
    assert all(r.n_followers == 2 for r in records)


def test_datagen_deterministic(capsys, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code, _, _ = _run(capsys, ["datagen", "--out", str(out),
                                   "--platoons", "2", "--followers", "1",
                                   "--duration-s", "6.0", "--seed", "9"])
        assert code == 0
        outs.append(b"".join(f.read_bytes() for f in sorted(out.glob("*.csv"))))
    assert outs[0] == outs[1]


# sha256 of a datagen corpus's CSVs, concatenated in file-name order, per
# (platoons, followers, duration_s, noise_sigma, seed): pinned from the
# per-platoon integration and per-cell CSV formatting that lockstep
# synthesis and the template writers replaced.
_GOLDEN_DATAGEN = {
    (5, 1, 0.2, 0.0, 0):
        "d572a491024e86cf2bc4c10edad162e7844c5e00b9a537d149ee8dc346aa09e6",
    (6, 3, 15.0, 0.1, 7):
        "dae528ead9f0c1c45d1c632c04c9dbc0dd5ba2e6a2b0974f5bc9bf69d9a72f90",
    (3, 6, 60.0, 10.0, 5):
        "7f645959c218b740c8ea5452dd68dfe8093f6359af2560dbf616ba7267e990d9",
    (8, 6, 15.0, 0.1, 1):
        "697fe3c47c0d54a94e1b0e2c9a00a3250567aa64e84d23038a24f88c74b9d155",
    (4, 3, 0.2, 10.0, 11):
        "fa8563460fcec9a90e3484a67d408acb9f710ae78eebc60dba0a6900500d6913",
    (4, 1, 60.0, 0.0, 2):
        "8a9fbe1175382c38821e42a718709f34adda83d40a79f4061d550da38289bf3b",
    (130, 1, 1.0, 0.1, 9):
        "69c32d79499b7df848ef9cc42238b2ad6db74fa3d86c0ea4c2ef5e48d383252a",
}


@pytest.mark.parametrize("config, cells", [
    *((config, None) for config in _GOLDEN_DATAGEN),
    # lockstep blocks of 2 and of 48 platoons give the same bytes
    ((6, 3, 15.0, 0.1, 7), 900), ((130, 1, 1.0, 0.1, 9), 480)])
def test_datagen_bytes_match_golden_digests(monkeypatch, tmp_path, config,
                                            cells):
    if cells is not None:
        monkeypatch.setattr(data, "LOCKSTEP_CELLS", cells)
    platoons, followers, duration_s, sigma, seed = config
    argv = ["datagen", "--out", str(tmp_path), "--platoons", platoons,
            "--followers", followers, "--duration-s", duration_s,
            "--noise-sigma", sigma, "--seed", seed]
    assert cli.dispatch([str(a) for a in argv]) == 0
    digest = hashlib.sha256()
    for f in sorted(tmp_path.glob("*.csv")):
        digest.update(f.read_bytes())
    assert digest.hexdigest() == _GOLDEN_DATAGEN[config]


def test_datagen_too_short_duration_is_data_error(capsys, tmp_path):
    code, _, err = _run(capsys, ["datagen", "--out", str(tmp_path / "o"),
                                 "--platoons", "1", "--duration-s", "0.1"])
    assert code == 2 and "duration" in err


@pytest.mark.parametrize("sigma", ["nan", "inf", "-inf", "-1"])
def test_datagen_rejects_bad_noise_sigma(capsys, tmp_path, sigma):
    out = tmp_path / "o"
    code, _, err = _run(capsys, ["datagen", "--out", str(out), "--platoons", "1",
                                 f"--noise-sigma={sigma}"])
    assert code == 1 and "--noise-sigma" in err
    assert "Traceback" not in err
    assert not out.exists()


_DATAGEN = ["datagen", "--platoons", "1"]


@pytest.mark.parametrize("command, flag", [
    (_DATAGEN, "--duration-s"), (["train", "--data", "d"], "--lr"),
    (["gradcheck"], "--step")])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_positive_float_flags_reject_non_finite(capsys, tmp_path, command, flag,
                                                 value):
    out = tmp_path / "o"
    argv = command + [f"{flag}={value}"]
    if command[0] != "gradcheck":
        argv += ["--out", str(out)]
    code, _, err = _run(capsys, argv)
    assert code == 1 and flag in err and "finite" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, flag, value, maximum", [
    (_DATAGEN, "--duration-s", "1e308", cli.MAX_DURATION_S),
    (["datagen"], "--platoons", "100000000000000000000", cli.MAX_PLATOONS),
    (["calibrate-idm", "--data", "d"], "--budget", "100000000000000000000",
     cli.MAX_BUDGET),
    # beyond int64, np.arange made float window indices
    (["train", "--data", "d"], "--stride", "100000000000000000000",
     cli.MAX_STRIDE),
    (["eval", "--checkpoint", "c", "--data", "d"], "--stride",
     "100000000000000000000", cli.MAX_STRIDE)])
def test_count_flags_above_their_maximum_are_usage_errors(capsys, tmp_path, command,
                                                          flag, value, maximum):
    out = tmp_path / "o"
    code, _, err = _run(capsys, command + [flag, value, "--out", str(out)])
    assert code == 1 and flag in err and f"maximum {maximum:g}" in err
    assert "Traceback" not in err
    assert not out.exists()
    assert cli.dispatch([command[0], "--help"]) == 0
    assert f"at most {maximum:g}" in capsys.readouterr().out


def test_followers_bound_is_checked_at_parse_time(capsys):
    # parse_args only: a run at such a count samples one IDM law per
    # follower in Python and would run until killed
    parser = cli._build_parser()
    argv = ["datagen", "--out", "o", "--platoons", "1", "--followers"]
    top = str(cli.MAX_FOLLOWERS)
    assert parser.parse_args(argv + [top]).followers == cli.MAX_FOLLOWERS
    for huge in (str(cli.MAX_FOLLOWERS + 1), "10000000",
                 "100000000000000000000"):
        with pytest.raises(cli._UsageError,
                           match=f"--followers: .*maximum {cli.MAX_FOLLOWERS:g}"):
            parser.parse_args(argv + [huge])
    assert cli.dispatch(["datagen", "--help"]) == 0
    assert f"at most {cli.MAX_FOLLOWERS:g}" in capsys.readouterr().out


def test_threads_bound_is_checked_at_parse_time(capsys):
    # parse_args only: a run would ask the BLAS pools for that many threads
    parser = cli._build_parser()
    argv = ["safety", "--data", "d"]
    top = str(cli.MAX_THREADS)
    assert parser.parse_args(["--threads", top] + argv).threads == cli.MAX_THREADS
    for huge in (str(cli.MAX_THREADS + 1), "100000000000000000000"):
        with pytest.raises(cli._UsageError,
                           match=f"--threads: .*maximum {cli.MAX_THREADS:g}"):
            parser.parse_args(["--threads", huge] + argv)
    assert cli.dispatch(["--help"]) == 0
    assert f"at most {cli.MAX_THREADS:g}" in capsys.readouterr().out


def test_noise_sigma_above_its_maximum_is_a_usage_error_without_warnings(
        capsys, tmp_path):
    # 1e308 overflowed the synthetic noise into numpy warnings before the
    # data error; the bound stops it before any platoon is drawn
    parser = cli._build_parser()
    top = str(cli.MAX_NOISE_SIGMA)
    argv = ["datagen", "--out", "o", "--platoons", "1", "--noise-sigma"]
    assert parser.parse_args(argv + [top]).noise_sigma == cli.MAX_NOISE_SIGMA
    out = tmp_path / "o"
    path = os.pathsep.join([str(Path(__file__).parents[1] / "src"),
                            os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", "platoonkit.cli", "datagen",
         "--out", str(out), "--platoons", "1", "--noise-sigma", "1e308"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)
    assert proc.returncode == 1 and "--noise-sigma" in proc.stderr
    assert f"maximum {cli.MAX_NOISE_SIGMA:g}" in proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
    assert not out.exists()
    assert cli.dispatch(["datagen", "--help"]) == 0
    assert f"at most {cli.MAX_NOISE_SIGMA:g}" in capsys.readouterr().out


def test_epochs_bound_holds_for_the_flag_and_the_config(capsys, tmp_path):
    # parse_args and the constructors only: training spawns one seed per
    # epoch up front, so an unbounded count would allocate until killed
    parser = cli._build_parser()
    argv = ["train", "--data", str(tmp_path / "none"), "--out", "o"]
    top = str(cli.MAX_EPOCHS)
    assert parser.parse_args(argv + ["--epochs", top]).epochs == cli.MAX_EPOCHS
    with pytest.raises(cli._UsageError, match=f"maximum {cli.MAX_EPOCHS:g}"):
        parser.parse_args(argv + ["--epochs", "100000000000000000000"])
    assert cli.dispatch(["train", "--help"]) == 0
    assert f"at most {cli.MAX_EPOCHS:g}" in capsys.readouterr().out
    assert training.TrainConfig(epochs=cli.MAX_EPOCHS).epochs == cli.MAX_EPOCHS
    with pytest.raises(ValueError, match=f"epochs must be <= {top}"):
        training.TrainConfig(epochs=10 ** 20)
    # --config: the config is checked before the (missing) data is read
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"train": {"epochs": 10 ** 20}}))
    code, _, err = _run(capsys, argv + ["--config", str(cfg)])
    assert code == 2 and f"epochs must be <= {top}" in err


@pytest.mark.parametrize("command", [
    _DATAGEN, ["train", "--data", "d"], ["simulate", "--checkpoint", "c",
                                         "--data", "d"],
    ["calibrate-idm", "--data", "d"], ["gradcheck"]])
def test_negative_seed_is_usage_error_naming_the_flag(capsys, tmp_path, command):
    out = tmp_path / "o"
    argv = command + ["--seed=-3"]
    if command[0] != "gradcheck":
        argv += ["--out", str(out)]
    code, _, err = _run(capsys, argv)
    assert code == 1 and "--seed" in err and "non-negative integer" in err
    assert not out.exists()


# --lr and --alpha-kl are checked at parse time, so 0 and -5 stop there;
# through --config the same values reach TrainConfig
@pytest.mark.parametrize("extra, train_cfg, code, named, other", [
    (["--alpha-kl", "-5"], None, 1, "--alpha-kl", "lr"),
    (["--lr", "0"], None, 1, "--lr", "alpha"),
    ([], {"lr": 0}, 2, "lr must be > 0, got 0", "alpha"),
    ([], {"alpha_kl": -5}, 2, "alpha_kl must be >= 0, got -5", "lr")])
def test_train_config_error_names_only_the_field_at_fault(
        capsys, tmp_path, extra, train_cfg, code, named, other):
    out = tmp_path / "o"
    argv = ["train", "--data", str(tmp_path / "d"), "--out", str(out)] + extra
    if train_cfg is not None:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"train": train_cfg}))
        argv += ["--config", str(cfg)]
    got, _, err = _run(capsys, argv)
    assert got == code and named in err and other not in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [
    ("--alpha-kl", "nan"), ("--alpha-kl", "inf"), ("--alpha-kl", "-inf"),
    ("--val-ratio", "nan"), ("--val-ratio", "inf"), ("--val-ratio", "-inf"),
    ("--val-ratio", "0"), ("--val-ratio", "1"), ("--val-ratio", "-0.5"),
    ("--val-ratio", "1.5")])
def test_train_fraction_and_weight_flags_are_checked_at_parse_time(
        capsys, tmp_path, flag, value):
    out = tmp_path / "o"
    code, _, err = _run(capsys, ["train", "--data", str(tmp_path / "d"),
                                 "--out", str(out), f"{flag}={value}"])
    assert code == 1 and flag in err and "Traceback" not in err
    assert not out.exists()


def test_train_flag_bounds_are_open_for_val_ratio_and_closed_for_alpha_kl():
    parser = cli._build_parser()
    argv = ["train", "--data", "d", "--out", "o"]
    assert parser.parse_args(argv + ["--alpha-kl", "0"]).alpha_kl == 0.0
    assert parser.parse_args(argv + ["--val-ratio", "0.999"]).val_ratio == 0.999
    assert parser.parse_args(argv).val_ratio == 0.1


# -- train / eval ---------------------------------------------------------------------

def test_train_emits_checkpoint_and_logs(checkpoint, capsys):
    assert (checkpoint / "manifest.json").exists()
    assert (checkpoint / "weights.bin").exists()
    run = json.loads((checkpoint / "run.json").read_text())
    assert run["command"] == "train"
    assert run["model"]["d_model"] == 8
    assert run["train"]["epochs"] == 2


def test_train_stdout_is_jsonl_epochs(tmp_path, corpus, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"model": TINY_MODEL}))
    code, out, _ = _run(capsys, [
        "train", "--data", str(corpus), "--out", str(tmp_path / "ck"),
        "--config", str(cfg), "--epochs", "2", "--batch-size", "16",
        "--lr", "1e-3", "--seed", "1", "--stride", "8"])
    assert code == 0
    lines = [json.loads(x) for x in out.strip().splitlines()]
    epochs = [x for x in lines if "epoch" in x]
    assert len(epochs) == 2
    assert {"epoch", "w_v", "w_s", "val_loss", "best"} <= set(epochs[0])
    assert lines[-1]["status"] == "completed"


def test_train_abort_reports_cause(tmp_path, corpus, capsys, monkeypatch):
    from platoonkit import autodiff as ad

    def failing(*args, **kwargs):
        raise ad.NonFiniteValue("non-finite value produced by 'exp'")

    monkeypatch.setattr(net, "model_forward", failing)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"model": TINY_MODEL}))
    code, out, err = _run(capsys, [
        "train", "--data", str(corpus), "--out", str(tmp_path / "ck"),
        "--config", str(cfg), "--epochs", "1", "--stride", "8"])
    assert code == 2
    assert ("training aborted_non_finite: epoch 0 batch 0: "
            "non-finite value produced by 'exp'") in err
    # the summary is strict JSON: no epoch completed, so no best value
    summary = json.loads(out.splitlines()[-1], parse_constant=_reject_constant)
    assert summary == {"best_epoch": -1, "best_val": None,
                       "status": "aborted_non_finite"}


def test_train_empty_dir_is_data_error(capsys, tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    code, _, err = _run(capsys, ["train", "--data", str(empty),
                                 "--out", str(tmp_path / "o")])
    assert code == 2


def test_eval_report_structure(checkpoint, corpus, capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out, _ = _run(capsys, ["eval", "--checkpoint", str(checkpoint),
                                 "--data", str(corpus), "--stride", "8",
                                 "--out", str(out_file)])
    assert code == 0
    report = json.loads(out)
    assert json.loads(out_file.read_text()) == report
    # horizon 5 at dt 0.1 covers only the 0.5 s row of the standard grid
    assert set(report["horizons"]) == {"0.5s", "avg"}
    for row in report["horizons"].values():
        assert set(row) == {"rmse_speed", "rmse_gap", "mape_speed", "mape_gap"}
        assert all(np.isfinite(v) for v in row.values())
    assert report["windows"] > 0
    assert set(report["persistence"]) == {"0.5s", "avg"}


def test_eval_byte_identical_across_runs(checkpoint, corpus, capsys):
    argv = ["eval", "--checkpoint", str(checkpoint), "--data", str(corpus),
            "--stride", "8"]
    _, out1, _ = _run(capsys, argv)
    _, out2, _ = _run(capsys, argv)
    assert out1 == out2


def test_eval_count_without_windows_adds_nothing(checkpoint, corpus, capsys,
                                                 tmp_path):
    # 3-follower records of 10 frames, against 6 of history plus 5 of
    # horizon: their count has no window, and the tables are the corpus's own
    mixed = tmp_path / "mixed"
    assert _run(capsys, ["datagen", "--out", str(mixed), "--platoons", "2",
                         "--followers", "3", "--duration-s", "1.0",
                         "--seed", "1"])[0] == 0
    for csv_path in corpus.glob("*.csv"):
        (mixed / csv_path.name).write_bytes(csv_path.read_bytes())
    reports = []
    for data_dir in (corpus, mixed):
        code, out, _ = _run(capsys, ["eval", "--checkpoint", str(checkpoint),
                                     "--data", str(data_dir), "--stride", "3"])
        assert code == 0
        reports.append(json.loads(out))
    alone, with_short = reports
    assert with_short["platoons"] == alone["platoons"] + 2
    for key in ("windows", "horizons", "persistence", "improvement_pct"):
        assert with_short[key] == alone[key]


def test_eval_bad_checkpoint_is_data_error(capsys, tmp_path, corpus):
    code, _, err = _run(capsys, ["eval", "--checkpoint",
                                 str(tmp_path / "none"), "--data", str(corpus)])
    assert code == 2 and "manifest" in err


@pytest.mark.parametrize("command", ["eval", "simulate", "stability"])
@pytest.mark.parametrize("field, value", [
    ("weight", None), ("norm_std", [0.0, 1.0, 1.0]),
    ("norm_mean", [float("nan"), 0.0, 0.0]), ("norm_mean", [0.0, 1.0])])
def test_checkpoint_bad_values_are_data_errors(checkpoint, corpus, capsys,
                                               tmp_path, command, field, value):
    broken = tmp_path / "ckpt"
    broken.mkdir()
    weights = np.fromfile(checkpoint / "weights.bin", dtype="<f4")
    manifest = json.loads((checkpoint / "manifest.json").read_text())
    if field == "weight":
        # the first value of the last weight in the config's layout
        shapes = net.weight_shapes(net.ModelConfig(**manifest["config"]))
        field, shape = list(shapes.items())[-1]
        weights[weights.size - math.prod(shape)] = np.nan
    else:
        manifest[field] = value
    weights.tofile(broken / "weights.bin")
    (broken / "manifest.json").write_text(json.dumps(manifest))
    argv = [command, "--checkpoint", str(broken), "--data", str(corpus)]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "sim")]
    code, _, err = _run(capsys, argv)
    assert code == 2 and field in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["eval", "simulate", "stability"])
def test_format_1_checkpoint_is_data_error(checkpoint, corpus, capsys, tmp_path,
                                           command):
    # the parent layout: format 1, a config that still holds dt
    old = tmp_path / "ckpt"
    old.mkdir()
    (old / "weights.bin").write_bytes((checkpoint / "weights.bin").read_bytes())
    manifest = json.loads((checkpoint / "manifest.json").read_text())
    manifest["format"] = 1
    manifest["config"]["dt"] = 0.1
    (old / "manifest.json").write_text(json.dumps(manifest))
    argv = [command, "--checkpoint", str(old), "--data", str(corpus)]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "sim")]
    code, _, err = _run(capsys, argv)
    assert code == 2 and "unsupported checkpoint format 1" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["eval", "simulate", "stability"])
def test_format_2_checkpoint_is_data_error(checkpoint, corpus, capsys, tmp_path,
                                           command):
    # format 2 kept a table of weight offsets beside the config; no reader
    # is left for it, so it is refused by its format number alone
    old = tmp_path / "ckpt"
    old.mkdir()
    (old / "weights.bin").write_bytes((checkpoint / "weights.bin").read_bytes())
    manifest = json.loads((checkpoint / "manifest.json").read_text())
    manifest["format"] = 2
    (old / "manifest.json").write_text(json.dumps(manifest))
    argv = [command, "--checkpoint", str(old), "--data", str(corpus)]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "sim")]
    code, _, err = _run(capsys, argv)
    assert code == 2 and "unsupported checkpoint format 2" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["eval", "simulate", "stability"])
@pytest.mark.parametrize("blob_edit", ["truncated", "trailing_byte"])
def test_weights_of_wrong_size_are_data_errors(checkpoint, corpus, capsys,
                                               tmp_path, command, blob_edit):
    broken = tmp_path / "ckpt"
    broken.mkdir()
    blob = (checkpoint / "weights.bin").read_bytes()
    blob = blob[:-4] if blob_edit == "truncated" else blob + b"\0"
    (broken / "weights.bin").write_bytes(blob)
    (broken / "manifest.json").write_bytes(
        (checkpoint / "manifest.json").read_bytes())
    argv = [command, "--checkpoint", str(broken), "--data", str(corpus)]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "sim")]
    code, _, err = _run(capsys, argv)
    assert code == 2 and "weights.bin holds" in err
    assert "Traceback" not in err


def test_train_config_dt_is_rejected(corpus, capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"model": {**TINY_MODEL, "dt": 0.1},
                               "train": {"epochs": 1}}))
    code, _, err = _run(capsys, ["train", "--data", str(corpus),
                                 "--out", str(tmp_path / "ckpt"),
                                 "--config", str(cfg), "--stride", "8"])
    assert code == 2 and "'dt'" in err and "Traceback" not in err
    assert not (tmp_path / "ckpt").exists()


@pytest.fixture(scope="module", params=[(1e20, "attn_layer"), (1e200, "embed")],
                ids=["1e20", "1e200"])
def huge_corpus(request, tmp_path_factory, corpus):
    # positions and speeds scaled: finite, so the CSV loads, but the model's
    # activations overflow, in the attention scores at 1e20 and in the
    # float32 features at 1e200; returns the corpus and the stage named
    scale, stage = request.param
    out = tmp_path_factory.mktemp("huge")
    records = [data.PlatoonRecord(r.platoon_id, r.positions * scale,
                                  r.speeds * scale, r.lengths)
               for r in data.load_trajectories(corpus)]
    data.write_trajectories(records, out / "huge.csv")
    return out, stage


@pytest.mark.parametrize("command", ["eval", "simulate", "stability"])
def test_non_finite_model_output_is_data_error(checkpoint, huge_corpus, capsys,
                                               tmp_path, command):
    # no numpy warning on the way: the stage boundary is the one report
    huge, stage = huge_corpus
    argv = [command, "--checkpoint", str(checkpoint), "--data", str(huge)]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "sim")]
    code, _, err = _run(capsys, argv)
    assert code == 2, err
    assert f"non-finite value produced by '{stage}'" in err, err
    assert "RuntimeWarning" not in err and "Traceback" not in err


# -- simulate / stability / safety ---------------------------------------------------

@pytest.fixture(scope="module")
def simdir(tmp_path_factory, checkpoint, corpus):
    out = tmp_path_factory.mktemp("sim")
    code = cli.dispatch(["simulate", "--checkpoint", str(checkpoint),
                         "--data", str(corpus), "--out", str(out)])
    assert code == 0
    return out


@pytest.mark.parametrize("flag", ["--warmup", "--replan"])
def test_simulate_refused_run_leaves_no_out_directory(checkpoint, corpus, capsys,
                                                      tmp_path, flag):
    out = tmp_path / "sim"
    code, _, err = _run(capsys, ["simulate", "--checkpoint", str(checkpoint),
                                 "--data", str(corpus), "--out", str(out),
                                 flag, "100000000000000000000"])
    assert code == 2 and "Traceback" not in err and "error:" in err
    assert not out.exists()


def test_simulate_outputs(simdir, capsys):
    summary = json.loads((simdir / "summary.json").read_text())
    assert summary["platoons"] == 6
    assert 0.0 <= summary["viable_fraction"] <= 1.0
    assert len(summary["platoon"]) == 6
    for row in summary["platoon"].values():
        if row["viable"]:
            assert row["collision_frame"] is None
    assert (simdir / "simulated.csv").exists()
    devs = list(simdir.glob("dev_*.csv"))
    compared = [r for r in summary["platoon"].values()
                if r["rmse_speed"] is not None]
    assert len(devs) == len(compared)


def test_simulated_trajectories_reload(simdir):
    records = data.load_trajectories(simdir / "simulated.csv")
    assert 1 <= len(records) <= 6


def test_simulate_stochastic_differs(checkpoint, corpus, capsys, tmp_path):
    outs = []
    for name, flag in (("s1", ["--stochastic", "--seed", "5"]),
                       ("s2", ["--stochastic", "--seed", "6"])):
        out = tmp_path / name
        code, _, _ = _run(capsys, ["simulate", "--checkpoint",
                                   str(checkpoint), "--data", str(corpus),
                                   "--out", str(out)] + flag)
        assert code == 0
        outs.append((out / "summary.json").read_bytes())
    assert outs[0] != outs[1]


def test_stability_report(checkpoint, corpus, capsys, tmp_path):
    spectra = tmp_path / "spectra"
    code, out, _ = _run(capsys, ["stability", "--checkpoint", str(checkpoint),
                                 "--data", str(corpus), "--spectra",
                                 str(spectra)])
    assert code == 0
    report = json.loads(out)
    assert len(report) == 6
    for row in report.values():
        assert row["vehicles"] == 2
        assert 0 <= row["stable_vehicles"] <= 2
        assert row["peak_gain"] > 0
        assert isinstance(row["amplified"], bool)
    csvs = list(spectra.glob("spectrum_*.csv"))
    assert len(csvs) == 6
    lines = csvs[0].read_text().strip().splitlines()
    assert lines[0].startswith("omega_rad_s,chain_gain,vehicle_0_gain")
    assert len(lines) == 201


def test_stability_too_short_for_a_window(checkpoint, capsys, tmp_path):
    # 10 frames against the tiny model's 6 of history plus 5 of horizon
    short = tmp_path / "short"
    assert cli.dispatch(["datagen", "--out", str(short), "--platoons", "1",
                         "--followers", "2", "--duration-s", "1.0"]) == 0
    code, _, err = _run(capsys, ["stability", "--checkpoint", str(checkpoint),
                                 "--data", str(short)])
    assert code == 2 and "too short for a window" in err


def test_stability_rows_of_a_mixed_corpus_equal_lone_runs(checkpoint, corpus,
                                                          capsys, tmp_path):
    # the 3-follower platoons load first (syn-1-* sorts before syn-3-*), but
    # the 2-follower ones form the first batch: rows must still pair with
    # their own platoons
    mixed = tmp_path / "mixed"
    assert _run(capsys, ["datagen", "--out", str(mixed), "--platoons", "2",
                         "--followers", "3", "--duration-s", "8.0",
                         "--seed", "1"])[0] == 0
    for csv_path in sorted(corpus.glob("*.csv"))[:3]:
        (mixed / csv_path.name).write_bytes(csv_path.read_bytes())
    argv = ["stability", "--checkpoint", str(checkpoint), "--data"]
    code, out, _ = _run(capsys, argv + [str(mixed)])
    assert code == 0
    report = json.loads(out)
    assert [row["vehicles"] for row in report.values()] == [3, 3, 2, 2, 2]
    for csv_path in sorted(mixed.glob("syn-*.csv")):
        code, out, _ = _run(capsys, argv + [str(csv_path)])
        assert code == 0
        [(pid, row)] = json.loads(out).items()
        assert report[pid] == row


def test_safety_report_and_divergence(corpus, simdir, capsys):
    code, out, _ = _run(capsys, ["safety", "--data", str(corpus),
                                 "--sim", str(simdir / "simulated.csv")])
    assert code == 0
    report = json.loads(out)
    assert len(report["data"]["pet_hist"]) == 20
    assert len(report["data"]["ssdd_hist"]) == 40
    assert sum(report["data"]["pet_hist"]) == report["data"]["pet_samples"]
    assert report["divergence"]["pet"]["kl"] >= 0.0
    assert 0.0 <= report["divergence"]["pet"]["hellinger"] <= 1.0
    assert 0.0 <= report["divergence"]["ssdd"]["hellinger"] <= 1.0


def test_safety_sim_directory_is_data_error_naming_the_report(corpus, simdir,
                                                              capsys):
    # --sim takes simulated.csv; the directory also holds the dev_*.csv
    # deviation reports, which are not trajectories
    code, out, err = _run(capsys, ["safety", "--data", str(corpus),
                                   "--sim", str(simdir)])
    assert code == 2 and out == ""
    assert "dev_" in err and "bad header" in err and "Traceback" not in err


def test_safety_on_out_of_range_speeds_is_data_error(corpus, capsys, tmp_path):
    # squared speeds of 1e300 overflow: the SSDD is refused with its cause,
    # not reported as NaN samples, and numpy prints no warning first
    records = [data.PlatoonRecord(r.platoon_id, r.positions * 1e300,
                                  r.speeds * 1e300, r.lengths)
               for r in data.load_trajectories(corpus)[:2]]
    data.write_trajectories(records, tmp_path / "huge.csv")
    out = tmp_path / "safety.json"
    code, stdout, err = _run(capsys, ["safety", "--data", str(tmp_path),
                                      "--out", str(out)])
    assert code == 2 and stdout == "" and not out.exists()
    assert f"{records[0].platoon_id}: non-finite SSDD" in err, err
    assert "RuntimeWarning" not in err and "Traceback" not in err


# -- calibrate-idm / gradcheck --------------------------------------------------------

def test_calibrate_idm_deterministic(corpus, capsys):
    argv = ["calibrate-idm", "--data", str(corpus), "--vehicle", "1",
            "--budget", "2", "--seed", "4"]
    code, out1, _ = _run(capsys, argv)
    assert code == 0
    code, out2, _ = _run(capsys, argv)
    assert out1 == out2
    report = json.loads(out1)
    assert len(report) == 6
    row = next(iter(report.values()))["1"]
    assert set(row["params"]) == set(idm.GENE_NAMES)
    assert row["gap_rmse"] >= 0.0


def test_calibrate_idm_bad_vehicle(corpus, capsys):
    code, _, err = _run(capsys, ["calibrate-idm", "--data", str(corpus),
                                 "--vehicle", "9", "--budget", "1"])
    assert code == 2 and "follower" in err


def test_gradcheck_tiny_config(capsys, tmp_path):
    cfg = tmp_path / "g.json"
    cfg.write_text(json.dumps({"model": {
        "d_model": 4, "n_state": 2, "conv_kernel": 4, "ve_hidden": 4,
        "attn_layers": 1, "attn_heads": 2, "history_len": 4, "horizon": 2,
        "param_window": 1}}))
    code, out, _ = _run(capsys, ["gradcheck", "--config", str(cfg)])
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["max_rel_error"] < 1e-4
    assert report["parameters"] > 100
