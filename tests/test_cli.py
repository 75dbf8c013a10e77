import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import unimix_lt
from unimix_lt import calibration, cli
from unimix_lt.cli import build_parser, main
from unimix_lt.config import resolve_config
from unimix_lt.data import load_csv
from unimix_lt.losses import LOSS_KINDS
from unimix_lt.mixing import MIX_MODES
from unimix_lt.model import init_params, save_model, sgd_step
from unimix_lt.streams import derive_rng
from unimix_lt.theory import CURVE_KINDS, LTSpec, discrete_lt_prior

TINY_TRAIN = {
    "classes": 4, "rho": 10.0, "n_max": 40, "dims": 4,
    "loss": "bayias_ce", "t1_steps": 20, "t2_steps": 30, "batch_size": 16,
    "lr": 0.1, "hidden_dims": [8], "seed": 3,
}


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_bytes(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir() if p.is_file()}


def test_no_arguments_prints_usage(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_subcommand_and_bad_flag():
    assert main(["frobnicate"]) == 1
    assert main(["gen-data", "--out", "x", "--classes", "not-a-number"]) == 1


def test_help_exits_zero():
    assert main(["--help"]) == 0


# Every flag of each run command: (argv text, value it resolves to); None is a switch.
RUN_FLAGS = {
    "gen-data": (cli._GEN_DEFAULTS, {
        "kind": ("circles", "circles"), "classes": ("7", 7), "rho": ("3", 3.0),
        "n_max": ("9", 9), "dims": ("3", 3), "cluster_spread": ("0.5", 0.5),
        "reverse": (None, True), "x0": ("1.5", 1.5), "y0": ("-1.5", -1.5),
        "radius": ("0.75", 0.75), "n_pos": ("9", 9), "n_neg": ("4", 4), "seed": ("11", 11)}),
    "verify-dist": (cli._VERIFY_DEFAULTS, {
        "classes": ("7", 7), "rho": ("3", 3.0), "tau": ("0.5", 0.5), "alpha": ("1", 1.0),
        "mode": ("factor", "factor"), "trials": ("9", 9), "seed": ("11", 11),
        "resolution": ("5", 5), "streams": ("2", 2)}),
    "train": ({}, {}),
    "eval": (cli._EVAL_DEFAULTS, {
        "model": ("m.json", "m.json"), "data": ("d.csv", "d.csv"), "bins": ("9", 9),
        "ranges": ("8", 8), "tace_threshold": ("0.01", 0.01), "density_batch": ("33", 33)}),
    "circles-demo": (cli._DEMO_DEFAULTS, {
        "x0": ("1.5", 1.5), "y0": ("-1.5", -1.5), "radius": ("0.75", 0.75),
        "n_pos": ("9", 9), "n_neg": ("4", 4), "seed": ("11", 11), "steps": ("9", 9),
        "batch_size": ("8", 8), "lr": ("0.25", 0.25), "cloud_points": ("5", 5)}),
}


def _subparser(command):
    subs = next(a for a in build_parser()._actions if a.dest == "command")
    return subs.choices[command]


@pytest.mark.parametrize("command", sorted(RUN_FLAGS))
def test_run_command_flags_are_its_defaults_table(tmp_path, command):
    defaults, flags = RUN_FLAGS[command]
    assert list(defaults) == list(flags)
    options = {o for a in _subparser(command)._actions for o in a.option_strings}
    assert options == {"-h", "--help", "--config", "--out",
                       *("--" + key.replace("_", "-") for key in flags)}
    for key, (text, value) in flags.items():
        argv = [command, "--out", str(tmp_path / "run"), "--" + key.replace("_", "-")]
        args = build_parser().parse_args(argv + ([] if text is None else [text]))
        resolved = cli._open_run(args, partial(resolve_config, defaults))
        assert resolved == {**defaults, key: value}
        assert type(resolved[key]) is type(defaults[key])
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", [*sorted(RUN_FLAGS), "report"])
def test_every_command_help_exits_zero(capsys, command):
    assert main([command, "--help"]) == 0
    if command == "gen-data":
        assert re.search(r"--n-max N_MAX\s+default: 500\n", capsys.readouterr().out)


def test_readme_cli_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## CLI\n.*?```bash\n(.*?)```", readme, re.S).group(1)
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("unimix-lt ")]
    commands = [build_parser().parse_args(shlex.split(line)[1:]).command  # exits if bad
                for line in lines]
    assert set(commands) == {*RUN_FLAGS, "report"}


def test_gen_data_gaussians(tmp_path):
    out = tmp_path / "run"
    assert main(["gen-data", "--out", str(out), "--classes", "5", "--rho", "10",
                 "--n-max", "50", "--dims", "3", "--seed", "1"]) == 0
    ds = load_csv(out / "data.csv", max_classes=5)
    assert ds.num_classes == 5 and ds.dims == 3
    meta = json.loads((out / "meta.json").read_text())
    assert meta["class_counts"] == ds.class_counts.tolist()
    assert (out / "config.resolved.json").is_file()


def test_gen_data_circles(tmp_path):
    out = tmp_path / "run"
    assert main(["gen-data", "--out", str(out), "--kind", "circles",
                 "--n-pos", "60", "--n-neg", "6", "--seed", "2"]) == 0
    ds = load_csv(out / "data.csv", max_classes=2)
    np.testing.assert_array_equal(ds.class_counts, [60, 6])


def test_gen_data_rejects_bad_kind(tmp_path, capsys):
    out = tmp_path / "x"
    assert main(["gen-data", "--out", str(out), "--kind", "spirals"]) == 1
    assert "kind must be 'gaussians' or 'circles', got 'spirals'" in capsys.readouterr().err
    assert not out.exists()


def test_gen_data_rejects_n_max_below_classes(tmp_path):
    assert main(["gen-data", "--out", str(tmp_path / "x"), "--kind", "gaussians",
                 "--n-max", "2", "--classes", "5"]) == 1


def test_verify_dist_shapes(tmp_path):
    out = tmp_path / "vd"
    assert main(["verify-dist", "--out", str(out), "--classes", "100", "--rho", "200",
                 "--tau", "-1", "--trials", "20000", "--seed", "7"]) == 0
    curve_lines = (out / "curves.csv").read_text().strip().splitlines()
    assert curve_lines[0] == "kind,y,density"
    assert len(curve_lines) == 1 + 4 * 100  # four closed-form curves on the class grid
    hist_lines = (out / "histogram.csv").read_text().strip().splitlines()
    assert hist_lines[0] == "class,empirical_prob"
    assert len(hist_lines) == 1 + 100
    emp = np.array([float(l.split(",")[1]) for l in hist_lines[1:]])
    assert abs(emp.sum() - 1.0) < 1e-9


def _curve(out, kind):
    """curves.csv's `kind` curve, renormalized over its grid: at the default
    resolution, the closed-form mass of each class."""
    rows = [line.split(",") for line in (out / "curves.csv").read_text().splitlines()[1:]]
    density = np.array([float(d) for k, _, d in rows if k == kind])
    return density / density.sum()


def test_verify_dist_full_mode_runs_at_tau_zero(tmp_path):
    """tau = 0, the pair exponent configs/unimix_bayias.json ships, is the
    limit of the closed form: its curve meets the curves at tau = +-1e-6 to
    within O(tau)."""
    columns = {}
    for tau in ("0", "1e-6", "-1e-6"):
        out = tmp_path / tau
        assert main(["verify-dist", "--out", str(out), "--classes", "10", "--rho", "10",
                     f"--tau={tau}", "--trials", "100"]) == 0
        columns[tau] = _curve(out, "unimix_full")
    at_zero = columns["0"]
    assert at_zero[0] == 0.0 and abs(at_zero.sum() - 1.0) <= 1e-12
    for tau in ("1e-6", "-1e-6"):
        assert np.max(np.abs(columns[tau] - at_zero)) <= 1e-5 * at_zero.max()


# The mixed-class curves need rho > 1; a run in any mode leaves them out there,
# and its Monte Carlo histogram is still written.
@pytest.mark.parametrize("mode,rho,tau,kinds", [
    ("mixup", "10", "0", CURVE_KINDS),
    ("factor", "10", "0", CURVE_KINDS),
    ("full", "10", "0", CURVE_KINDS),
    ("mixup", "1", "-1", CURVE_KINDS[:2]),
    ("factor", "1", "-1", CURVE_KINDS[:2]),
    ("full", "1", "-1", CURVE_KINDS[:2]),
    ("mixup", "1", "0", CURVE_KINDS[:2]),
    ("full", "10", "-1", CURVE_KINDS),
    ("factor", "1.000000001", "-1", CURVE_KINDS[:2]),
])
@pytest.mark.filterwarnings("error")
def test_verify_dist_writes_the_curves_defined_at_rho_and_tau(tmp_path, capsys, mode, rho, tau,
                                                              kinds):
    out = tmp_path / "vd"
    assert main(["verify-dist", "--out", str(out), "--classes", "10", "--rho", rho,
                 "--tau", tau, "--mode", mode, "--trials", "1000"]) == 0
    assert capsys.readouterr().err == ""
    rows = [line.split(",") for line in (out / "curves.csv").read_text().splitlines()[1:]]
    assert tuple(kind for kind, _, _ in rows[::10]) == kinds
    hist = [line.split(",") for line in (out / "histogram.csv").read_text().splitlines()]
    assert hist[0] == ["class", "empirical_prob"] and {len(row) for row in hist} == {2}
    assert abs(sum(float(prob) for _, prob in hist[1:]) - 1.0) < 1e-9
    assert_finite_and_unsigned(out)
    if mode == "mixup":  # plain mixing leaves the prior unchanged
        prior = discrete_lt_prior(LTSpec(10, float(rho)))
        assert np.max(np.abs(_curve(out, "original") - prior)) <= 1e-15


def _csv_numbers(out):
    """Every number verify-dist wrote to its two CSVs, as text."""
    fields = []
    for name, first in (("curves.csv", 1), ("histogram.csv", 0)):
        for line in (out / name).read_text().splitlines()[1:]:
            fields += line.split(",")[first:]
    return fields


def assert_finite_and_unsigned(out):
    numbers = _csv_numbers(out)
    assert all(math.isfinite(float(x)) for x in numbers)
    assert "-0.0" not in numbers


# Closed forms that float64 cannot represent: each of these flag sets raised
# a traceback or wrote NaN/inf. A curve that cannot be represented is left
# out, and the Monte Carlo runs in every mode.
@pytest.mark.parametrize("flags,kinds", [
    pytest.param("--classes 10 --rho 100 --mode full --tau -200", CURVE_KINDS[:3],
                 id="full-tau-200"),
    pytest.param("--classes 2 --rho 1e14 --tau -25 --mode mixup", CURVE_KINDS[:3],
                 id="mixup-rho-1e14-tau-25"),
    pytest.param("--classes 2 --rho 1e200", CURVE_KINDS[:2] + CURVE_KINDS[3:],
                 id="full-rho-1e200"),
    pytest.param("--classes 2 --rho 1e100 --mode full --tau 5", CURVE_KINDS[:3],
                 id="full-rho-1e100-tau-5"),
    pytest.param("--classes 2 --rho 1e160 --mode mixup", CURVE_KINDS, id="mixup-rho-1e160"),
    # finite, though zero at both class indices
    pytest.param("--classes 2 --rho 1e22 --mode full --tau 13", CURVE_KINDS,
                 id="full-rho-1e22-tau-13"),
])
def test_verify_dist_closed_forms_fail_closed(tmp_path, capsys, flags, kinds):
    out = tmp_path / "vd"
    rc = main(["verify-dist", "--out", str(out), "--trials", "1000", *flags.split()])
    assert "Traceback" not in capsys.readouterr().err
    assert rc == 0
    assert_finite_and_unsigned(out)
    rows = (out / "curves.csv").read_text().splitlines()[1:]
    assert tuple(dict.fromkeys(row.split(",")[0] for row in rows)) == kinds


@pytest.mark.filterwarnings("error")
def test_verify_dist_large_negative_tau_runs_without_overflow(tmp_path, capsys):
    # the pair prior's tail entry to the power -49 used to overflow
    out = tmp_path / "vd"
    assert main(["verify-dist", "--out", str(out), "--classes", "30", "--rho", "1e6",
                 "--mode", "full", "--tau=-49", "--trials", "1000"]) == 0
    assert capsys.readouterr().err == ""
    assert_finite_and_unsigned(out)


@pytest.mark.parametrize("mode", ["mixup", "factor", "full"])
@pytest.mark.parametrize("tau", ["-1", "0.5", "1"])
def test_verify_dist_writes_no_negative_zero(tmp_path, mode, tau):
    # for tau > 0 the mixed-class density's head is 0 / negative
    out = tmp_path / "vd"
    assert main(["verify-dist", "--out", str(out), "--classes", "10", "--rho", "100",
                 "--tau", tau, "--mode", mode, "--trials", "1000"]) == 0
    assert "-0.0" not in _csv_numbers(out)


def test_verify_dist_factor_mode_is_full_mode_at_tau_one(tmp_path):
    """Random pairing is the tau = 1 pair sampler: the two modes write the
    same Monte Carlo."""
    for name, flags in (("factor", ["--mode", "factor"]),
                        ("full", ["--mode", "full", "--tau", "1"])):
        assert main(["verify-dist", "--out", str(tmp_path / name), "--classes", "20",
                     "--rho", "50", "--trials", "20000", *flags]) == 0
    assert ((tmp_path / "factor" / "histogram.csv").read_bytes()
            == (tmp_path / "full" / "histogram.csv").read_bytes())


def test_factor_only_trains_as_full_mode_at_tau_one(tmp_path):
    runs = tmp_path / "runs"
    for mode, tau in (("unimix_factor_only", -1.0), ("unimix_full", 1.0)):
        cfg = write_cfg(tmp_path, {**TINY_TRAIN, "mix_mode": mode, "tau": tau}, f"{mode}.json")
        assert main(["train", "--config", cfg, "--out", str(runs / mode)]) == 0
    factor, full = read_bytes(runs / "unimix_factor_only"), read_bytes(runs / "unimix_full")
    assert (factor["model.json"], factor["train_log.csv"]) == (full["model.json"],
                                                                full["train_log.csv"])


def test_train_then_eval_pipeline(tmp_path):
    run = tmp_path / "run"
    cfg = write_cfg(tmp_path, TINY_TRAIN)
    assert main(["train", "--config", cfg, "--out", str(run)]) == 0
    assert (run / "model.json").is_file()
    log_lines = (run / "train_log.csv").read_text().strip().splitlines()
    assert log_lines[0] == "step,phase,loss,lr"
    assert len(log_lines) == 1 + 30

    test_dir = tmp_path / "test_data"
    assert main(["gen-data", "--out", str(test_dir), "--classes", "4", "--rho", "1",
                 "--n-max", "25", "--dims", "4", "--seed", "99"]) == 0
    ev = tmp_path / "eval"
    assert main(["eval", "--out", str(ev), "--model", str(run / "model.json"),
                 "--data", str(test_dir / "data.csv")]) == 0
    report = json.loads((ev / "report.json").read_text())
    assert set(report) == {"accuracy", "ece", "mce", "ace", "tace", "sce", "brier"}
    assert (ev / "reliability.csv").read_text().splitlines()[0] == "bin_lo,bin_hi,count,acc,conf"
    assert (ev / "density.csv").read_text().splitlines()[0] == "batch,conf,acc"
    assert (ev / "confusion.csv").is_file() and (ev / "confusion_log.csv").is_file()


def test_train_requires_config(tmp_path):
    assert main(["train", "--out", str(tmp_path / "x")]) == 1


def test_train_rejects_unknown_keys(tmp_path):
    cfg = write_cfg(tmp_path, {**TINY_TRAIN, "zebra": 1})
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "x")]) == 1


def test_train_rejects_bad_loss(tmp_path):
    cfg = write_cfg(tmp_path, {**TINY_TRAIN, "loss": "hinge"})
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "x")]) == 1


def test_la_config_trains_as_its_bayias_ce_spelling(tmp_path):
    """An "la" config trains as bayias_ce toward a balanced target, to the same
    bytes, and is recorded and reported under the name it gave."""
    runs = tmp_path / "runs"
    for loss in ("la", "bayias_ce"):
        cfg = write_cfg(tmp_path, {**TINY_TRAIN, "loss": loss, "loss_params": {"la_tau": 0.5}})
        assert main(["train", "--config", cfg, "--out", str(runs / loss)]) == 0
    la, twin = read_bytes(runs / "la"), read_bytes(runs / "bayias_ce")
    assert (la["model.json"], la["train_log.csv"]) == (twin["model.json"], twin["train_log.csv"])
    assert json.loads(la["config.resolved.json"])["loss"] == "la"
    data = tmp_path / "data"
    assert main(["gen-data", "--out", str(data), "--classes", "4", "--n-max", "20",
                 "--dims", "4"]) == 0
    evals = tmp_path / "evals"
    assert main(["eval", "--out", str(evals / "la"), "--model", str(runs / "la" / "model.json"),
                 "--data", str(data / "data.csv")]) == 0
    assert main(["report", "--runs", str(evals)]) == 0
    assert json.loads((evals / "summary.json").read_text())[0]["loss"] == "la"


def test_train_divergence_exits_two(tmp_path):
    cfg = write_cfg(tmp_path, {**TINY_TRAIN, "lr": 1e30, "t1_steps": 0, "t2_steps": 30})
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


def test_train_non_finite_final_update_exits_two_and_writes_nothing(tmp_path, capsys):
    # the only step's loss is finite; its update overflows the parameters
    cfg = write_cfg(tmp_path, {"classes": 3, "n_max": 20, "rho": 4, "t1_steps": 0,
                               "t2_steps": 1, "batch_size": 8, "weight_decay": 1e300,
                               "lr": 1e16})
    out = tmp_path / "x"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "non-finite parameters" in err and "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


def test_parameters_turning_non_finite_mid_run_exit_two_at_that_step(tmp_path, capsys,
                                                                     monkeypatch):
    # the update at step 2 of 10 writes inf; the run stops there, not at a later check
    updates = []

    def faulty_step(params, *args):
        sgd_step(params, *args)
        updates.append(1)
        if len(updates) == 3:
            params.flat[0] = np.inf

    monkeypatch.setattr("unimix_lt.model.sgd_step", faulty_step)
    cfg = write_cfg(tmp_path, {**TINY_TRAIN, "t1_steps": 5, "t2_steps": 10})
    out = tmp_path / "x"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "invariant violation: non-finite parameters after 3 steps\n"
    assert len(updates) == 3
    assert not out.exists() or not any(out.iterdir())


# a model whose finite weights overflow its forward pass on the row 10,10
_OVERFLOWING_MODEL = {"layer_dims": [2, 2], "layers": [{"w": [1e308] * 4, "b": [0, 0]}]}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv,files,code,message", [
    pytest.param(["eval", "--model", "{tmp}/model.json", "--data", "{tmp}/data.csv"],
                 {"model.json": json.dumps(_OVERFLOWING_MODEL),
                  "data.csv": "f0,f1,label\n10,10,0\n"},
                 1, "model.json gives non-finite outputs", id="eval-overflow"),
    pytest.param(["train", "--config", "{tmp}/cfg.json"],
                 {"cfg.json": json.dumps({**TINY_TRAIN, "lr": 1e30})}, 2,
                 "invariant violation: non-finite", id="train-lr-1e30"),
])
def test_overflow_prints_one_line_and_no_warning(tmp_path, capsys, argv, files, code, message):
    # warnings are errors here, so one that reached the user would end in a traceback
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    out = tmp_path / "run"
    assert main([*(arg.format(tmp=tmp_path) for arg in argv), "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err
    assert not out.exists()


def test_memory_error_exits_one_and_writes_nothing(tmp_path, capsys, monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(cli, "train_two_phase", out_of_memory)
    out = tmp_path / "x"
    cfg = write_cfg(tmp_path, {**TINY_TRAIN, "batch_size": 1_000_000_000_000})
    assert main(["train", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: Unable to allocate") and "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


def test_train_replay_is_bitwise(tmp_path):
    run_a = tmp_path / "a"
    run_b = tmp_path / "b"
    cfg = write_cfg(tmp_path, TINY_TRAIN)
    assert main(["train", "--config", cfg, "--out", str(run_a)]) == 0
    assert main(["train", "--config", str(run_a / "config.resolved.json"),
                 "--out", str(run_b)]) == 0
    assert read_bytes(run_a) == read_bytes(run_b)


def test_verify_dist_replay_is_bitwise(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["verify-dist", "--out", str(a), "--classes", "10", "--rho", "10",
                 "--trials", "5000", "--seed", "3"]) == 0
    assert main(["verify-dist", "--out", str(b),
                 "--config", str(a / "config.resolved.json")]) == 0
    assert read_bytes(a) == read_bytes(b)


def test_run_dirs_are_single_command(tmp_path):
    run = tmp_path / "run"
    cfg = write_cfg(tmp_path, TINY_TRAIN)
    assert main(["train", "--config", cfg, "--out", str(run)]) == 0
    data = tmp_path / "data"
    assert main(["gen-data", "--out", str(data), "--classes", "4", "--rho", "1",
                 "--n-max", "20", "--dims", "4", "--seed", "0"]) == 0
    # evaluating into the training run directory would clobber its config
    assert main(["eval", "--out", str(run), "--model", str(run / "model.json"),
                 "--data", str(data / "data.csv")]) == 1
    # replaying the same command into the same directory is allowed
    assert main(["train", "--config", str(run / "config.resolved.json"),
                 "--out", str(run)]) == 0


@pytest.mark.parametrize("state", [b'{"command": "tra', b"\xff\xfe not utf-8", b"[1, 2]"],
                         ids=["truncated", "undecodable", "not-an-object"])
def test_unreadable_run_state_is_refused(tmp_path, capsys, state):
    run = tmp_path / "run"
    run.mkdir()
    (run / "config.resolved.json").write_bytes(state)
    before = read_bytes(run)
    assert main(["train", "--config", write_cfg(tmp_path, TINY_TRAIN), "--out", str(run)]) == 1
    err = capsys.readouterr().err
    assert "config.resolved.json" in err and "fresh --out" in err
    assert "Traceback" not in err
    assert read_bytes(run) == before
    assert sorted(p.name for p in run.iterdir()) == ["config.resolved.json"]


def test_report_follows_model_pointer(tmp_path):
    run = tmp_path / "train_run"
    cfg = write_cfg(tmp_path, TINY_TRAIN)
    assert main(["train", "--config", cfg, "--out", str(run)]) == 0
    data = tmp_path / "data"
    assert main(["gen-data", "--out", str(data), "--classes", "4", "--rho", "1",
                 "--n-max", "20", "--dims", "4", "--seed", "0"]) == 0
    runs = tmp_path / "evals"
    assert main(["eval", "--out", str(runs / "combo"), "--model",
                 str(run / "model.json"), "--data", str(data / "data.csv")]) == 0
    assert main(["report", "--runs", str(runs)]) == 0
    rows = json.loads((runs / "summary.json").read_text())
    assert rows[0]["loss"] == "bayias_ce"
    assert rows[0]["mix_mode"] == "unimix_full"


def test_eval_dimension_mismatch(tmp_path):
    run = tmp_path / "run"
    cfg = write_cfg(tmp_path, TINY_TRAIN)
    assert main(["train", "--config", cfg, "--out", str(run)]) == 0
    bad = tmp_path / "bad"
    assert main(["gen-data", "--out", str(bad), "--classes", "4", "--rho", "1",
                 "--n-max", "20", "--dims", "7", "--seed", "0"]) == 0
    assert main(["eval", "--out", str(tmp_path / "x"), "--model", str(run / "model.json"),
                 "--data", str(bad / "data.csv")]) == 1


def eval_inputs(tmp_path, feature="0.5"):
    """A 4-feature, 3-class model and a three-row CSV whose last row holds `feature`."""
    model = tmp_path / "model.json"
    save_model(init_params([4, 8, 3], derive_rng(0, "init")), model)
    data = tmp_path / "data.csv"
    data.write_text("f0,f1,f2,f3,label\n0.1,0.2,0.3,0.4,0\n0.5,0.6,0.7,0.8,1\n"
                    f"0.9,1.0,{feature},1.2,2\n")
    return model, data


def run_eval(tmp_path, model, data):
    return main(["eval", "--out", str(tmp_path / "ev"), "--model", str(model),
                 "--data", str(data)])


def test_eval_rejects_nan_feature(tmp_path, capsys):
    model, data = eval_inputs(tmp_path, feature="nan")
    assert run_eval(tmp_path, model, data) == 1
    err = capsys.readouterr().err
    assert "data.csv:4: features must be finite" in err
    assert "Traceback" not in err
    assert not (tmp_path / "ev" / "report.json").exists()


def test_eval_rejects_label_above_int64(tmp_path, capsys):
    model, data = eval_inputs(tmp_path)
    data.write_text(data.read_text() + "0.1,0.2,0.3,0.4,99999999999999999999\n")
    assert run_eval(tmp_path, model, data) == 1
    err = capsys.readouterr().err
    assert "data.csv:5: label 99999999999999999999 out of range" in err
    assert "Traceback" not in err
    out = tmp_path / "ev"
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("label", ["3", "1000000000"])
def test_eval_rejects_label_at_or_above_the_logit_count(tmp_path, capsys, label):
    # the model emits 3 logits; the label is refused before any array of
    # label size is built, so 1e9 costs no memory
    model, data = eval_inputs(tmp_path)
    data.write_text(data.read_text() + f"0.1,0.2,0.3,0.4,{label}\n")
    tracemalloc.start()
    try:
        assert run_eval(tmp_path, model, data) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert f"data.csv:5: label {label} out of range [0, 3)" in err
    assert "Traceback" not in err
    assert peak < 2**26
    out = tmp_path / "ev"
    assert not out.exists() or not any(out.iterdir())


def test_eval_rejects_field_over_csv_limit(tmp_path, capsys):
    model, data = eval_inputs(tmp_path, feature=f'"{"1" * 200_000}"')
    assert run_eval(tmp_path, model, data) == 1
    err = capsys.readouterr().err
    assert "data.csv:4: field larger than field limit" in err
    assert "Traceback" not in err
    out = tmp_path / "ev"
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("threshold", ["-1", "1.5"])
def test_eval_rejects_tace_threshold_outside_unit_interval(tmp_path, capsys, threshold):
    model, data = eval_inputs(tmp_path)
    out = tmp_path / "ev"
    assert main(["eval", "--out", str(out), "--model", str(model), "--data", str(data),
                 f"--tace-threshold={threshold}"]) == 1
    err = capsys.readouterr().err
    assert f"threshold must lie in [0, 1), got {float(threshold)}" in err
    assert "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("flag,unit", [("--bins", "bins"), ("--ranges", "ranges")])
def test_eval_rejects_bin_or_range_count_above_the_cap(tmp_path, capsys, flag, unit):
    model, data = eval_inputs(tmp_path)
    out = tmp_path / "ev"
    assert main(["eval", "--out", str(out), "--model", str(model), "--data", str(data),
                 flag, "100000000000"]) == 1
    err = capsys.readouterr().err
    assert f"need at most 100000 {unit}, got 100000000000" in err
    assert "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("weights", [
    pytest.param('["1.5", "0", "0", "1"]', id="strings"),
    pytest.param("[true, false, false, true]", id="bools"),
    pytest.param("[[1.5, 0], [0, 1]]", id="nested"),
    pytest.param("[1.5, 0, 0, 1" + "0" * 400 + "]", id="int-overflow"),
])
def test_eval_rejects_weights_that_are_not_finite_json_numbers(tmp_path, capsys, weights):
    model = tmp_path / "model.json"
    model.write_text('{"layer_dims": [2, 2], "layers": [{"w": %s, "b": [0, 0]}]}' % weights)
    data = tmp_path / "data.csv"
    data.write_text("f0,f1,label\n0.1,0.2,0\n0.3,0.4,1\n")
    assert run_eval(tmp_path, model, data) == 1
    err = capsys.readouterr().err
    assert "model.json: layer 0" in err and "Traceback" not in err
    out = tmp_path / "ev"
    assert not out.exists() or not any(out.iterdir())


def test_eval_rejects_model_without_layers(tmp_path, capsys):
    model, data = eval_inputs(tmp_path)
    payload = json.loads(model.read_text())
    del payload["layers"]
    model.write_text(json.dumps(payload))
    assert run_eval(tmp_path, model, data) == 1
    assert "needs 'layer_dims' and 'layers'" in capsys.readouterr().err


def test_eval_rejects_truncated_layer_list(tmp_path, capsys):
    model, data = eval_inputs(tmp_path)
    payload = json.loads(model.read_text())
    payload["layer_dims"] = [4, 8, 3, 5]
    model.write_text(json.dumps(payload))
    assert run_eval(tmp_path, model, data) == 1
    assert "needs 3 layers" in capsys.readouterr().err


@pytest.mark.parametrize("module", ["unimix_lt", "unimix_lt.cli"])
def test_python_dash_m_runs_the_cli(tmp_path, module):
    src = str(Path(unimix_lt.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", module, "eval"], capture_output=True,
                          text=True, cwd=tmp_path, env=env, timeout=60)
    assert proc.returncode == 1
    assert "--out" in proc.stderr and "Traceback" not in proc.stderr


def test_circles_demo_outputs(tmp_path):
    out = tmp_path / "circles"
    assert main(["circles-demo", "--out", str(out), "--steps", "60", "--seed", "1",
                 "--cloud-points", "40"]) == 0
    lines = (out / "boundary.csv").read_text().strip().splitlines()
    assert lines[0] == "scenario,w0,w1,b,angle_error_deg,offset"
    assert [l.split(",")[0] for l in lines[1:]] == ["balanced", "imbalanced",
                                                    "mixup", "unimix"]
    points = (out / "points.csv").read_text().strip().splitlines()
    assert points[0] == "scenario,x,y,label,is_virtual"
    virtual = [l for l in points[1:] if l.endswith(",1")]
    assert len(virtual) == 2 * 40  # mixup and unimix clouds


def test_huge_circles_generate_finite_data_and_fail_closed_in_training(tmp_path, capsys):
    # squaring 1e200 overflows a Python float; the disks themselves are representable
    flags = ["--x0", "1e200", "--y0", "1e200", "--radius", "1e200"]
    data = tmp_path / "data"
    assert main(["gen-data", "--out", str(data), "--kind", "circles", *flags]) == 0
    features = load_csv(data / "data.csv", max_classes=2).features
    assert np.isfinite(features).all() and np.abs(features).max() > 1e199
    demo = tmp_path / "demo"
    assert main(["circles-demo", "--out", str(demo), *flags, "--steps", "5"]) == 2
    err = capsys.readouterr().err
    assert "non-finite loss" in err and "Traceback" not in err
    assert not demo.exists() or not any(demo.iterdir())


def test_report_aggregates_and_warns(tmp_path, capsys):
    runs = tmp_path / "runs"
    for name, acc in (("a_run", 0.5), ("b_run", 0.75)):
        d = runs / name
        d.mkdir(parents=True)
        scalars = {"accuracy": acc, "ece": 0.1, "mce": 0.2, "ace": 0.1,
                   "tace": 0.1, "sce": 0.05, "brier": 0.3}
        (d / "report.json").write_text(json.dumps(scalars))
        (d / "config.resolved.json").write_text(
            json.dumps({"loss": "ce", "mix_mode": "unimix_full"}))
    # a NaN would reach summary.json as a bare NaN, which is not JSON
    for name, text in (("c_run", "{not json"), ("d_run", "[0.5]"),
                       ("f_run", '{"accuracy": NaN}')):
        (runs / name).mkdir()
        (runs / name / "report.json").write_text(text)
    # a run whose config is no object keeps its metrics, without loss or mix mode
    (runs / "e_run").mkdir()
    (runs / "e_run" / "report.json").write_text(json.dumps({"accuracy": 0.25}))
    (runs / "e_run" / "config.resolved.json").write_text("[1]")
    out = tmp_path / "summary"
    assert main(["report", "--runs", str(runs), "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert all(f"{name}: unreadable report.json" in err for name in ("c_run", "d_run", "f_run"))
    assert "e_run: unreadable config.resolved.json" in err and "Traceback" not in err
    lines = (out / "summary.csv").read_text().strip().splitlines()
    assert lines[0].split(",") == ["run", "loss", "mix_mode", *calibration.SCALARS]
    assert [l.split(",")[0] for l in lines[1:]] == ["a_run", "b_run", "e_run"]
    rows = json.loads((out / "summary.json").read_text(), parse_constant=pytest.fail)
    assert rows[1]["accuracy"] == 0.75
    assert (rows[2]["loss"], rows[2]["mix_mode"], rows[2]["accuracy"]) == ("", "", 0.25)


def test_report_follows_one_model_path_to_the_training_config(tmp_path, capsys):
    """An eval run's loss and mix mode come from the training run its model
    path names; any other chain leaves both cells empty."""
    runs, train = tmp_path / "runs", tmp_path / "train"
    train.mkdir()
    (train / "config.resolved.json").write_text(
        json.dumps({"loss": "ce", "mix_mode": "unimix_full"}))
    (tmp_path / "broken").mkdir()
    (tmp_path / "broken" / "config.resolved.json").write_text("[1]")
    evals = {"a_eval": {"model": str(train / "model.json")},
             "b_no_config": None,
             "c_no_model": {"bins": 15},
             # the model's run dir holds another eval config, not a training one
             "d_eval_of_eval": {"model": str(runs / "a_eval" / "model.json")},
             "e_broken_training": {"model": str(tmp_path / "broken" / "model.json")}}
    for name, cfg in evals.items():
        (runs / name).mkdir(parents=True)
        (runs / name / "report.json").write_text(json.dumps({"accuracy": 0.5}))
        if cfg is not None:
            (runs / name / "config.resolved.json").write_text(json.dumps(cfg))
    assert main(["report", "--runs", str(runs), "--out", str(tmp_path / "summary")]) == 0
    err = capsys.readouterr().err
    assert (f"e_broken_training: unreadable config.resolved.json in {tmp_path / 'broken'} "
            in err)
    assert err.count("warning") == 1 and "Traceback" not in err
    rows = json.loads((tmp_path / "summary" / "summary.json").read_text())
    assert {r["run"]: (r["loss"], r["mix_mode"]) for r in rows} == {
        "a_eval": ("ce", "unimix_full"), "b_no_config": ("", ""), "c_no_model": ("", ""),
        "d_eval_of_eval": ("", ""), "e_broken_training": ("", "")}


def test_report_empty_dir_fails(tmp_path):
    runs = tmp_path / "runs"
    runs.mkdir()
    assert main(["report", "--runs", str(runs)]) == 1


def _train_cfg_text(key, literal):
    cfg = json.dumps({**TINY_TRAIN, key: "@"})
    return cfg.replace('"@"', literal)


@pytest.mark.parametrize("argv,config_text", [
    pytest.param(["gen-data", "--rho", "nan"], None, id="gen-data-flag"),
    pytest.param(["verify-dist", "--rho", "inf"], None, id="verify-dist-flag"),
    pytest.param(["circles-demo", "--lr=-inf"], None, id="circles-demo-flag"),
    pytest.param(["gen-data"], '{"rho": NaN}', id="gen-data-config"),
    pytest.param(["train"], _train_cfg_text("lr", "NaN"), id="train-lr"),
    pytest.param(["train"], _train_cfg_text("cluster_spread", "NaN"), id="train-spread"),
    pytest.param(["train"], _train_cfg_text("loss_params", '{"gamma": NaN}'), id="train-gamma"),
    pytest.param(["train"], _train_cfg_text("rho", "Infinity"), id="train-rho"),
    pytest.param(["train"], _train_cfg_text("lr", "1e309"), id="train-overflow"),
    pytest.param(["train"], _train_cfg_text("rho", "1" + "0" * 400), id="train-int-overflow"),
    pytest.param(["gen-data"], '{"rho": 1' + "0" * 400 + "}", id="gen-data-int-overflow"),
    # a finite spread whose features overflow
    pytest.param(["gen-data", "--classes", "3", "--n-max", "3", "--dims", "2",
                  "--cluster-spread", "1e308"], None, id="gen-data-feature-overflow"),
    pytest.param(["gen-data", "--classes", "4", "--n-max", "4", "--dims", "4",
                  "--cluster-spread", "1e308"], None, id="gen-data-feature-overflow-4"),
    pytest.param(["train"], _train_cfg_text("cluster_spread", "1e308"),
                 id="train-feature-overflow"),
])
@pytest.mark.filterwarnings("error")  # a warning that reached the user would raise here
def test_non_finite_numbers_exit_one(tmp_path, capsys, argv, config_text):
    out = tmp_path / "run"
    if config_text is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config_text)
        argv = [*argv, "--config", str(cfg)]
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "finite" in err and err.count("\n") == 1
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("argv,config_text,threads", [
    pytest.param(["train"], "[1, 2]", None, id="train-config-list"),
    pytest.param(["gen-data"], '{"rho": null}', None, id="gen-data-null-number"),
    pytest.param(["verify-dist"], '{"seed": "abc", "trials": 1000}', None,
                 id="verify-dist-string-seed"),
    pytest.param(["train"], _train_cfg_text("classes", "4.7"), None, id="train-float-int"),
    pytest.param(["circles-demo"], '{"steps": true}', None, id="circles-demo-bool-int"),
    pytest.param(["gen-data"], '{"reverse": "no"}', None, id="gen-data-string-bool"),
    pytest.param(["verify-dist", "--trials", "0"], None, None, id="verify-dist-trials-0"),
    pytest.param(["verify-dist", "--streams", "0"], None, None, id="verify-dist-streams-0"),
    pytest.param(["verify-dist", "--streams", "1025", "--trials", "10"], None, None,
                 id="verify-dist-streams-1025"),
    pytest.param(["verify-dist", "--trials", "1000"], None, "abc", id="verify-dist-threads"),
    pytest.param(["circles-demo", "--cloud-points", "-1", "--steps", "10"], None, None,
                 id="circles-demo-negative-cloud"),
    pytest.param(["gen-data", "--kind", "bogus"], None, None, id="gen-data-kind-flag"),
    pytest.param(["gen-data"], '{"kind": "bogus"}', None, id="gen-data-kind-config"),
    pytest.param(["verify-dist", "--mode", "bogus"], None, None, id="verify-dist-mode-flag"),
    pytest.param(["verify-dist"], '{"mode": "bogus"}', None, id="verify-dist-mode-config"),
    # the mixing modes' long names are train's mix_mode values, not verify-dist modes
    *(pytest.param(["verify-dist", "--mode", mode], None, None, id=f"verify-dist-flag-{mode}")
      for mode in MIX_MODES),
    *(pytest.param(["verify-dist"], json.dumps({"mode": mode}), None,
                   id=f"verify-dist-config-{mode}") for mode in MIX_MODES),
    pytest.param(["train"], _train_cfg_text("hidden_dims", '"64"'), None,
                 id="train-hidden-dims-string"),
    pytest.param(["train"], _train_cfg_text("hidden_dims", "[4.7]"), None,
                 id="train-hidden-dims-float"),
    pytest.param(["train"], _train_cfg_text("hidden_dims", "[true, 8]"), None,
                 id="train-hidden-dims-bool"),
    pytest.param(["train"], _train_cfg_text("hidden_dims", '["8"]'), None,
                 id="train-hidden-dims-string-item"),
    pytest.param(["train"], _train_cfg_text("hidden_dims", "[0]"), None,
                 id="train-hidden-dims-zero"),
    pytest.param(["train"], _train_cfg_text(
        "loss_params", '{"target_prior": ["0.25", "0.25", "0.25", "0.25"]}'), None,
                 id="train-target-prior-strings"),
    pytest.param(["train"], _train_cfg_text("loss_params", '{"target_prior": "uniform"}'),
                 None, id="train-target-prior-other-string"),
    # la is the balanced-target spelling of bayias_ce; another target is refused
    pytest.param(["train"], json.dumps({**TINY_TRAIN, "loss": "la", "loss_params": {
        "target_prior": [0.1, 0.2, 0.3, 0.4]}}), None, id="train-la-target"),
    pytest.param(["train"], _train_cfg_text("loss_params", '{"target_prior": [0.5, 0.5]}'),
                 None, id="train-target-prior-length"),
    pytest.param(["train"], _train_cfg_text("weight_decay", "-1"), None,
                 id="train-negative-weight-decay"),
    pytest.param(["gen-data"], '{"rho": 10', None, id="gen-data-invalid-json"),
    pytest.param(["gen-data", "--classes", "1"], None, None, id="gen-data-one-class"),
    pytest.param(["gen-data", "--dims", "1"], None, None, id="gen-data-one-dim"),
    *(pytest.param(["gen-data", f"--cluster-spread={spread}"], None, None,
                   id=f"gen-data-spread-{spread}") for spread in ("0", "-1")),
    pytest.param(["eval", "--data", "data.csv"], None, None, id="eval-without-model"),
    # a dict of files under tmp_path in place of a --config text; {tmp} is tmp_path
    pytest.param(["report", "--runs", "{tmp}/runs.json"], {"runs.json": "{}"}, None,
                 id="report-runs-file"),
    pytest.param(["report", "--runs", "{tmp}/runs"], {"runs/a/meta.json": "{}"}, None,
                 id="report-run-without-report"),
    pytest.param(["report", "--runs", "{tmp}/runs"],
                 {"runs/a/report.json": '{"accuracy": NaN}'}, None, id="report-nan"),
    # JSON nested beyond the parser's recursion limit
    pytest.param(["gen-data"], "[" * 100_000 + "]" * 100_000, None, id="gen-data-deep-json"),
    pytest.param(["eval", "--model", "{tmp}/model.json", "--data", "{tmp}/data.csv"],
                 {"model.json": "[" * 100_000 + "]" * 100_000,
                  "data.csv": "f0,f1,label\n0.1,0.2,0\n"}, None, id="eval-deep-model-json"),
])
def test_bad_input_exits_one_and_writes_nothing(tmp_path, capsys, monkeypatch, argv,
                                                config_text, threads):
    out = tmp_path / "run"
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    if isinstance(config_text, dict):
        for name, text in config_text.items():
            (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / name).write_text(text)
    elif config_text is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config_text)
        argv = [*argv, "--config", str(cfg)]
    if threads is not None:
        monkeypatch.setenv("UNIMIX_LT_THREADS", threads)
    assert main([*argv, "--out", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


# ------------------------------------------------ train config: fuzzing

_WRONG = st.sampled_from([None, True, "x", [], {}, [1, "a"]])


def _mostly(valid, *bad):
    """A draw from `valid` about 19 times as often as a bad one: a wrongly
    typed value or a value from `bad`."""
    return st.sampled_from([valid] * 19 + [st.one_of(_WRONG, *bad)]).flatmap(lambda s: s)


def _floats(lo, hi, *bad):
    return _mostly(st.floats(lo, hi), st.sampled_from(bad or [-1.0]))


# every size the run builds is small
_TARGETS = st.one_of(
    st.sampled_from(["balanced", "uniform", [0.25] * 4, [0.1, 0.2, 0.3, 0.4]]),
    st.lists(st.one_of(st.floats(-0.5, 1.0), _WRONG), max_size=5))
_LOSS_PARAMS = st.fixed_dictionaries({}, optional={
    "gamma": _floats(0.0, 3.0), "beta": _floats(0.0, 0.999, 1.0), "ldam_c": _floats(0.01, 2.0),
    "la_tau": _floats(-2.0, 2.0), "target_prior": _TARGETS})
_TRAIN_CONFIG = st.fixed_dictionaries(
    {"classes": _mostly(st.integers(2, 4), st.integers(-1, 1)),
     "n_max": _mostly(st.integers(4, 40), st.integers(-1, 3)),
     "dims": _mostly(st.integers(2, 4), st.integers(-1, 1)),
     "t2_steps": _mostly(st.integers(0, 3), st.just(-1)),
     "batch_size": _mostly(st.integers(1, 8), st.integers(-1, 0)),
     "hidden_dims": _mostly(st.lists(st.integers(1, 4), max_size=2), st.just([0]))},
    optional={"rho": _floats(1.0, 50.0, 0.5), "cluster_spread": _floats(0.1, 2.0, 0.0),
              "tau": _floats(-2.0, 1.0), "alpha": _floats(0.01, 1.0, 0.0, 1.5),
              "mix_mode": _mostly(st.sampled_from(["unimix_full", "unimix_factor_only",
                                                   "vanilla_mixup"]), st.just("cutmix")),
              "loss": _mostly(st.sampled_from([*LOSS_KINDS, "la"]), st.just("hinge")),
              "loss_params": _mostly(_LOSS_PARAMS), "t1_steps": _mostly(st.integers(0, 3)),
              "lr": _floats(0.0, 1.0), "momentum": _floats(0.0, 0.99, 1.0),
              "weight_decay": _floats(0.0, 0.1), "seed": _mostly(st.integers(0, 5))})


@settings(max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=_TRAIN_CONFIG)
@pytest.mark.filterwarnings("error::RuntimeWarning")  # a diverging lr warns nobody
def test_train_config_fuzz_fails_closed(tmp_path, capsys, cfg):
    run = Path(tempfile.mkdtemp(dir=tmp_path))
    code = main(["train", "--config", write_cfg(run, cfg), "--out", str(run / "out")])
    assert code in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err
    if code != 0:
        assert not (run / "out").exists() or not any((run / "out").iterdir())


# ------------------------------------------------ verify-dist flags: fuzzing

# every draw is a valid flag value for its type; sizes stay small
_VERIFY_FLAGS = st.fixed_dictionaries({
    "classes": st.integers(2, 30),
    # rho both uniform over the float range and log-uniform over it
    "rho": st.one_of(st.floats(1.0, 1.7e308), st.floats(0.0, 709.0).map(math.exp)),
    "tau": st.floats(-400.0, 400.0),
    "alpha": st.floats(0.0, 1.0, exclude_min=True),
    "mode": st.sampled_from(["mixup", "factor", "full"]),
    "trials": st.integers(1, 2_000),
    "seed": st.integers(0, 2**64 - 1),
    "resolution": st.integers(0, 50),
    "streams": st.integers(1, 4),
})


@settings(max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(flags=_VERIFY_FLAGS, via_config=st.booleans())
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_verify_dist_flag_fuzz_fails_closed(tmp_path, capsys, flags, via_config):
    assert flags.keys() == cli._VERIFY_DEFAULTS.keys()
    code, out = _run_fails_closed(tmp_path, capsys, "verify-dist", flags, via_config)
    assert code in (0, 1)
    if code == 0:
        assert_finite_and_unsigned(out)


# ------------------------------------ gen-data, circles-demo, eval: fuzzing

# floats over the whole finite range, uniform and log-uniform in magnitude
_MAGNITUDE = st.floats(-745.0, 709.0).map(math.exp)
_ANY_FLOAT = st.one_of(st.floats(allow_nan=False, allow_infinity=False), _MAGNITUDE,
                       _MAGNITUDE.map(lambda x: -x))
_SCALE = st.sampled_from([_MAGNITUDE] * 3 + [_ANY_FLOAT]).flatmap(lambda s: s)  # mostly > 0


def _ints(lo, hi):
    """Mostly in [lo, hi]; sometimes -1, 0 or lo - 1."""
    return st.sampled_from([st.integers(lo, hi)] * 9 + [st.sampled_from([-1, 0, lo - 1])]
                           ).flatmap(lambda strategy: strategy)


_CIRCLE_FLAGS = {"x0": _ANY_FLOAT, "y0": _ANY_FLOAT, "radius": _SCALE,
                 "n_pos": _ints(1, 200), "n_neg": _ints(1, 200),
                 "seed": st.integers(0, 2**64 - 1)}
_GEN_FLAGS = st.fixed_dictionaries({
    "kind": st.sampled_from(["gaussians", "circles"]),
    "classes": _ints(2, 30),
    "rho": st.one_of(st.floats(1.0, 1e3), _SCALE),
    "n_max": _ints(30, 500),
    "dims": _ints(2, 16),
    "cluster_spread": _SCALE,
    "reverse": st.booleans(),
    **_CIRCLE_FLAGS,
})
_DEMO_FLAGS = st.fixed_dictionaries({
    **_CIRCLE_FLAGS,
    "steps": _ints(1, 20),
    "batch_size": _ints(1, 64),
    "lr": st.one_of(st.floats(0.0, 1.0), _ANY_FLOAT),
    "cloud_points": _ints(0, 50),
})
_FUZZ_CLI = settings(max_examples=50, deadline=None, database=None,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])


def _argv(flags):
    """`--key=value` for each drawn flag; a switch is given only when True."""
    return [f"--{k.replace('_', '-')}" if v is True else f"--{k.replace('_', '-')}={v}"
            for k, v in flags.items() if v is not False]


def _run_fails_closed(tmp_path, capsys, command, flags, via_config):
    """Run `command` with `flags` into a fresh `--out`, given as flags or, if
    `via_config`, as a `--config` file: exit 0, 1 or 2, no traceback, and
    nothing in `--out` after a failure. Returns (code, out)."""
    run = Path(tempfile.mkdtemp(dir=tmp_path))
    out = run / "out"
    given = ["--config", write_cfg(run, flags)] if via_config else _argv(flags)
    code = main([command, "--out", str(out), *given])
    assert code in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err
    if code:
        assert not out.exists() or not any(out.iterdir())
    return code, out


@_FUZZ_CLI
@given(flags=_GEN_FLAGS, via_config=st.booleans())
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_gen_data_flag_fuzz_fails_closed(tmp_path, capsys, flags, via_config):
    assert flags.keys() == cli._GEN_DEFAULTS.keys()
    code, out = _run_fails_closed(tmp_path, capsys, "gen-data", flags, via_config)
    if code == 0:
        ds = load_csv(out / "data.csv", max_classes=30)  # refuses non-finite features
        assert np.isfinite(ds.features).all()


@_FUZZ_CLI
@given(flags=_DEMO_FLAGS, via_config=st.booleans())
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_circles_demo_flag_fuzz_fails_closed(tmp_path, capsys, flags, via_config):
    assert flags.keys() == cli._DEMO_DEFAULTS.keys()
    _run_fails_closed(tmp_path, capsys, "circles-demo", flags, via_config)


# ways to spoil a layer's weight list in model.json
_CORRUPT = {"short": lambda w: w[:-1], "long": lambda w: [*w, 0.5],
            "string": lambda w: ["0.5", *w[1:]], "null": lambda w: [None, *w[1:]],
            "nested": lambda w: [w[:1], *w[1:]], "huge-int": lambda w: [10**400, *w[1:]],
            "1e308": lambda w: [1e308] * len(w)}


@st.composite
def _model_and_data(draw):
    """(model.json text, data.csv text): mostly a well-formed pair, sometimes a
    corrupted layer, wrong layer widths or features, or labels out of range."""
    dims = [draw(st.integers(1, 4)), *draw(st.lists(st.integers(1, 4), max_size=1)),
            draw(st.integers(2, 4))]
    layers = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        w = draw(st.lists(st.floats(-2.0, 2.0), min_size=fan_in * fan_out,
                          max_size=fan_in * fan_out))
        corrupt = draw(st.sampled_from([None] * 12 + sorted(_CORRUPT)))
        layers.append({"w": _CORRUPT[corrupt](w) if corrupt else w, "b": [0.0] * fan_out})
    widths = draw(st.sampled_from([dims] * 12 + [[*dims, 2], dims[:1], [0, *dims[1:]]]))
    model = json.dumps(draw(st.sampled_from([{"layer_dims": widths, "layers": layers}] * 12
                                            + [[widths], {"layers": layers}])))
    width = draw(st.sampled_from([dims[0]] * 9 + [dims[0] + 1]))
    rows = draw(st.lists(st.tuples(st.lists(_ANY_FLOAT, min_size=width, max_size=width),
                                   st.integers(0, dims[-1] - 1)), min_size=1, max_size=20))
    bad_label = draw(st.sampled_from([None] * 9 + [-1, dims[-1]]))
    if bad_label is not None:
        rows[0] = (rows[0][0], bad_label)
    lines = [",".join([*(f"f{i}" for i in range(width)), "label"])]
    lines += [",".join([*map(repr, x), str(y)]) for x, y in rows]
    return model, "\n".join(lines) + "\n"


_EVAL_FLAGS = st.fixed_dictionaries({
    "bins": _ints(1, 1_000),
    "ranges": _ints(1, 1_000),
    "tace_threshold": st.one_of(st.floats(0.0, 1.0), _ANY_FLOAT),
    "density_batch": _ints(1, 1_000),
})


@_FUZZ_CLI
@given(files=_model_and_data(), flags=_EVAL_FLAGS, via_config=st.booleans())
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_eval_fuzz_fails_closed(tmp_path, capsys, files, flags, via_config):
    run = Path(tempfile.mkdtemp(dir=tmp_path))
    for name, text in zip(("model.json", "data.csv"), files):
        (run / name).write_text(text)
    flags = {"model": str(run / "model.json"), "data": str(run / "data.csv"), **flags}
    assert flags.keys() == cli._EVAL_DEFAULTS.keys()
    _run_fails_closed(run, capsys, "eval", flags, via_config)
