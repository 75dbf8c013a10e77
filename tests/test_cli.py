import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import unimix_lt
from unimix_lt import calibration, cli
from unimix_lt.cli import build_parser, main
from unimix_lt.config import resolve_config
from unimix_lt.data import load_csv
from unimix_lt.mixing import MIX_MODES
from unimix_lt.model import init_params, save_model
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
    assert hist_lines[0] == "class,empirical_prob,closed_form_prob"
    assert len(hist_lines) == 1 + 100
    emp = np.array([float(l.split(",")[1]) for l in hist_lines[1:]])
    assert abs(emp.sum() - 1.0) < 1e-9


def test_verify_dist_rejects_tau_zero_full(tmp_path):
    assert main(["verify-dist", "--out", str(tmp_path / "x"), "--classes", "10",
                 "--rho", "10", "--tau", "0", "--trials", "100"]) == 1


# The factor curve needs rho > 1; the full one also tau != 0. A run fails only
# when its own mode's reference column is undefined.
@pytest.mark.parametrize("mode,rho,tau,kinds", [
    ("mixup", "10", "0", CURVE_KINDS[:3]),
    ("factor", "10", "0", CURVE_KINDS[:3]),
    ("full", "10", "0", None),
    ("mixup", "1", "-1", CURVE_KINDS[:2]),
    ("factor", "1", "-1", None),
    ("full", "1", "-1", None),
    ("mixup", "1", "0", CURVE_KINDS[:2]),
    ("full", "10", "-1", CURVE_KINDS),
])
def test_verify_dist_writes_the_curves_defined_at_rho_and_tau(tmp_path, capsys, mode, rho,
                                                              tau, kinds):
    out = tmp_path / "vd"
    rc = main(["verify-dist", "--out", str(out), "--classes", "10", "--rho", rho,
               "--tau", tau, "--mode", mode, "--trials", "1000"])
    if kinds is None:
        assert rc == 1 and not out.exists()
        err = capsys.readouterr().err
        assert ("require rho > 1" if rho == "1" else "undefined at tau = 0") in err
        return
    assert rc == 0
    rows = [line.split(",") for line in (out / "curves.csv").read_text().splitlines()[1:]]
    assert tuple(kind for kind, _, _ in rows[::10]) == kinds
    closed = [float(line.split(",")[2])
              for line in (out / "histogram.csv").read_text().splitlines()[1:]]
    if mode == "mixup":
        assert closed == discrete_lt_prior(LTSpec(10, float(rho))).tolist()


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
def test_train_divergence_exits_two(tmp_path):
    cfg = write_cfg(tmp_path, {**TINY_TRAIN, "lr": 1e30, "t1_steps": 0, "t2_steps": 30})
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
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
    for name, text in (("c_run", "{not json"), ("d_run", "[0.5]")):
        (runs / name).mkdir()
        (runs / name / "report.json").write_text(text)
    # a run whose config is no object keeps its metrics, without loss or mix mode
    (runs / "e_run").mkdir()
    (runs / "e_run" / "report.json").write_text(json.dumps({"accuracy": 0.25}))
    (runs / "e_run" / "config.resolved.json").write_text("[1]")
    out = tmp_path / "summary"
    assert main(["report", "--runs", str(runs), "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "c_run: unreadable report.json" in err and "d_run: unreadable report.json" in err
    assert "e_run: unreadable config.resolved.json" in err and "Traceback" not in err
    lines = (out / "summary.csv").read_text().strip().splitlines()
    assert lines[0].split(",") == ["run", "loss", "mix_mode", *calibration.SCALARS]
    assert [l.split(",")[0] for l in lines[1:]] == ["a_run", "b_run", "e_run"]
    rows = json.loads((out / "summary.json").read_text())
    assert rows[1]["accuracy"] == 0.75
    assert (rows[2]["loss"], rows[2]["mix_mode"], rows[2]["accuracy"]) == ("", "", 0.25)


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
])
def test_non_finite_numbers_exit_one(tmp_path, capsys, argv, config_text):
    out = tmp_path / "run"
    if config_text is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config_text)
        argv = [*argv, "--config", str(cfg)]
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "finite" in err and "Traceback" not in err
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
])
def test_bad_input_exits_one_and_writes_nothing(tmp_path, capsys, monkeypatch, argv,
                                                config_text, threads):
    out = tmp_path / "run"
    if config_text is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config_text)
        argv = [*argv, "--config", str(cfg)]
    if threads is not None:
        monkeypatch.setenv("UNIMIX_LT_THREADS", threads)
    assert main([*argv, "--out", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())
