"""Command-line entry point and run-artifact persistence.

Every run-directory command (gen-data, verify-dist, train, eval,
circles-demo) is declared once, by its defaults table: each key is also a
flag (`--` plus the key, `_` -> `-`) of the default's type. The command
takes one path: resolve its config (defaults < `--config` < flags, typed
by `config.resolve_config`), claim `--out`, compute every
output, then commit: each artifact is written atomically (temp file +
rename), and `config.resolved.json`, with every default made explicit, is
written last. A command that fails before the commit leaves nothing in
`--out`. Re-running a command from its `config.resolved.json` reproduces
the output files byte for byte. Exit codes: 0 success, 1 configuration or
I/O error, 2 runtime invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import calibration
from .circles import (DEFAULT_BATCH_SIZE, DEFAULT_LR, DEFAULT_STEPS, SCENARIOS, run_circles,
                      scenario_data, virtual_cloud)
from .config import DATA_DEFAULTS, build_training_run, resolve_config, resolve_train_config
from .data import (TwoCircleSpec, gen_lt_gaussians, gen_two_circles, json_text, load_csv,
                   load_json, save_csv)
from .errors import InvariantViolation
from .mixing import DEFAULT_STREAMS, MixConfig, mc_xi_aug_histogram
from .model import load_model, predict_proba, save_model, train_two_phase
from .theory import LTSpec, discrete_lt_prior, emit_density_curves

__all__ = ["main", "entrypoint"]


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _atomic_write(path: Path, write) -> None:
    """Run `write(tmp)` on a temp file beside `path`, then rename it onto `path`."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    write(tmp)
    os.replace(tmp, path)


def _write_json(path: Path, obj) -> None:
    text = json_text(obj)
    _atomic_write(path, lambda tmp: tmp.write_text(text))


def _write_csv(path: Path, header: list[str], rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")  # quotes a field only if it must
    writer.writerow(header)
    writer.writerows([_fmt(v) for v in row] for row in rows)
    _atomic_write(path, lambda tmp: tmp.write_text(buf.getvalue()))


def _claim_run_dir(out_dir: Path, command: str) -> None:
    """One command per run directory; replays of the same command are fine.

    An unreadable or malformed `config.resolved.json` is refused rather
    than overwritten: the directory's earlier run can no longer be identified.
    """
    cfg = out_dir / "config.resolved.json"
    if not cfg.is_file():
        return
    try:
        previous = load_json(cfg).get("command")
    except (ValueError, OSError) as exc:
        raise ValueError(f"{cfg} is unreadable ({exc}); use a fresh --out") from None
    if previous is not None and previous != command:
        raise ValueError(f"{out_dir} already holds a '{previous}' run; use a fresh --out")


def _open_run(args, resolve) -> dict:
    """Resolve a run-directory command's config, then claim `--out` for it.

    `resolve(config, flags)` merges the command's defaults < the `--config`
    object < the flags given on the command line.
    """
    config = load_json(args.config) if args.config else {}
    config.pop("command", None)  # what a run directory's config.resolved.json records
    flags = {k: v for k, v in vars(args).items()
             if v is not None and k not in ("command", "func", "config", "out")}
    resolved = resolve(config, flags)
    _claim_run_dir(Path(args.out), args.command)
    return resolved


def _commit(args, resolved: dict, artifacts: dict) -> int:
    """Write every artifact, then `config.resolved.json` last.

    Each artifact is `name: (writer, *rest)`, written as
    `writer(out / name, *rest)` once every output has been computed.
    """
    out = Path(args.out)
    for name, (writer, *rest) in artifacts.items():
        writer(out / name, *rest)
    _write_json(out / "config.resolved.json", {"command": args.command, **resolved})
    return 0


# ---------------------------------------------------------------- gen-data

# The two-circle set and seed, shared by gen-data and circles-demo.
_CIRCLE_DEFAULTS = {"x0": TwoCircleSpec.center[0], "y0": TwoCircleSpec.center[1],
                    "radius": TwoCircleSpec.radius, "n_pos": TwoCircleSpec.n_pos,
                    "n_neg": TwoCircleSpec.n_neg, "seed": TwoCircleSpec.seed}

_GEN_DEFAULTS = {"kind": "gaussians", **DATA_DEFAULTS, "reverse": False, **_CIRCLE_DEFAULTS}


def _circle_spec(resolved: dict) -> TwoCircleSpec:
    return TwoCircleSpec(center=(resolved["x0"], resolved["y0"]), radius=resolved["radius"],
                         n_pos=resolved["n_pos"], n_neg=resolved["n_neg"],
                         seed=resolved["seed"])


def cmd_gen_data(args) -> int:
    resolved = _open_run(args, partial(resolve_config, _GEN_DEFAULTS))
    if resolved["kind"] == "gaussians":
        ds = gen_lt_gaussians(
            num_classes=resolved["classes"], rho=resolved["rho"], n_max=resolved["n_max"],
            dims=resolved["dims"], cluster_spread=resolved["cluster_spread"],
            seed=resolved["seed"], reverse=resolved["reverse"])
    elif resolved["kind"] == "circles":
        ds = gen_two_circles(_circle_spec(resolved))
    else:
        raise ValueError(f"kind must be 'gaussians' or 'circles', got {resolved['kind']!r}")
    meta = {**resolved, "num_samples": ds.num_samples,
            "class_counts": ds.class_counts.tolist()}
    return _commit(args, resolved, {"data.csv": (_atomic_write, partial(save_csv, ds)),
                                    "meta.json": (_write_json, meta)})


# -------------------------------------------------------------- verify-dist

_VERIFY_DEFAULTS = {
    "classes": 100, "rho": 200.0, "tau": MixConfig.tau, "alpha": MixConfig.alpha,
    "mode": "full", "trials": 1_000_000, "seed": 7, "resolution": 0, "streams": DEFAULT_STREAMS,
}

_MODE_ALIASES = {"mixup": "vanilla_mixup", "factor": "unimix_factor_only",
                 "full": "unimix_full"}


def cmd_verify_dist(args) -> int:
    resolved = _open_run(args, partial(resolve_config, _VERIFY_DEFAULTS))
    if resolved["mode"] not in _MODE_ALIASES:
        raise ValueError(f"mode must be one of {sorted(_MODE_ALIASES)}, got {resolved['mode']!r}")
    mode = _MODE_ALIASES[resolved["mode"]]
    classes, tau = resolved["classes"], resolved["tau"]
    resolved["resolution"] = resolved["resolution"] or classes
    spec = LTSpec(num_classes=classes, rho=resolved["rho"], tau=tau)
    config = MixConfig(alpha=resolved["alpha"], mode=mode, tau=tau)

    curves = emit_density_curves(spec, resolved["resolution"])
    curve_rows = [(c.kind, y, d) for c in curves for y, d in zip(c.y, c.density)]
    hist = mc_xi_aug_histogram(discrete_lt_prior(spec), config, resolved["trials"],
                               resolved["seed"], streams=resolved["streams"])
    return _commit(args, resolved, {
        "curves.csv": (_write_csv, ["kind", "y", "density"], curve_rows),
        "histogram.csv": (_write_csv, ["class", "empirical_prob"],
                          [(k + 1, hist[k]) for k in range(classes)])})


# -------------------------------------------------------------------- train

def cmd_train(args) -> int:
    if not args.config:
        raise ValueError("train requires --config")
    resolved = _open_run(args, resolve_train_config)
    ds, cfg = build_training_run(resolved)
    params, log = train_two_phase(ds, cfg)
    return _commit(args, resolved, {
        "model.json": (_atomic_write, partial(save_model, params)),
        "train_log.csv": (_write_csv, ["step", "phase", "loss", "lr"], log)})


# --------------------------------------------------------------------- eval

_EVAL_DEFAULTS = {"model": "", "data": "", "bins": calibration.DEFAULT_BINS,
                  "ranges": calibration.DEFAULT_BINS,
                  "tace_threshold": calibration.DEFAULT_TACE_THRESHOLD,
                  "density_batch": calibration.DEFAULT_DENSITY_BATCH}


def cmd_eval(args) -> int:
    resolved = _open_run(args, partial(resolve_config, _EVAL_DEFAULTS))
    if not resolved["model"] or not resolved["data"]:
        raise ValueError("eval requires --model and --data")
    # absolute, so that report and a replay find them from any directory
    for key in ("model", "data"):
        resolved[key] = os.path.abspath(resolved[key])
    params = load_model(resolved["model"])
    ds = load_csv(resolved["data"], max_classes=params.layer_dims[-1])
    if ds.dims != params.layer_dims[0]:
        raise ValueError(f"data has {ds.dims} features but the model expects "
                         f"{params.layer_dims[0]}")
    preds = predict_proba(params, ds.features)
    if not np.isfinite(preds[:, 0]).all():  # a non-finite logit makes its whole row NaN
        raise ValueError(f"{resolved['model']} gives non-finite outputs on {resolved['data']}")
    report = calibration.evaluate_predictions(
        preds, ds.labels, num_bins=resolved["bins"], num_ranges=resolved["ranges"],
        tace_threshold=resolved["tace_threshold"], density_batch=resolved["density_batch"])
    c = report.confusion.shape[0]
    header = ["true"] + [f"pred_{k}" for k in range(c)]
    return _commit(args, resolved, {
        "report.json": (_write_json, report.scalars()),
        "reliability.csv": (_write_csv, ["bin_lo", "bin_hi", "count", "acc", "conf"],
                            report.reliability),
        "confusion.csv": (_write_csv, header,
                          [(k, *report.confusion[k]) for k in range(c)]),
        "confusion_log.csv": (_write_csv, header,
                              [(k, *report.confusion_log[k]) for k in range(c)]),
        "density.csv": (_write_csv, ["batch", "conf", "acc"],
                        [(i, *point) for i, point in enumerate(report.density)])})


# ------------------------------------------------------------- circles-demo

_DEMO_DEFAULTS = {**_CIRCLE_DEFAULTS, "steps": DEFAULT_STEPS, "batch_size": DEFAULT_BATCH_SIZE,
                  "lr": DEFAULT_LR, "cloud_points": 300}


def cmd_circles_demo(args) -> int:
    resolved = _open_run(args, partial(resolve_config, _DEMO_DEFAULTS))
    spec = _circle_spec(resolved)
    boundary_rows, point_rows = [], []
    for scenario in SCENARIOS:
        ds = scenario_data(spec, scenario)
        r = run_circles(spec, scenario, ds, steps=resolved["steps"],
                        batch_size=resolved["batch_size"], lr=resolved["lr"])
        boundary_rows.append((scenario, r.weight[0], r.weight[1], r.bias, r.angle_error_deg,
                              r.offset))
        for (x, y), label in zip(ds.features, ds.labels):
            point_rows.append((scenario, x, y, int(label), 0))
        cloud = virtual_cloud(ds, scenario, resolved["cloud_points"], resolved["seed"])
        for x, y, label in cloud:
            point_rows.append((scenario, x, y, int(label), 1))
    return _commit(args, resolved, {
        "boundary.csv": (_write_csv, ["scenario", "w0", "w1", "b", "angle_error_deg",
                                      "offset"], boundary_rows),
        "points.csv": (_write_csv, ["scenario", "x", "y", "label", "is_virtual"],
                       point_rows)})


# ------------------------------------------------------------------- report

def _training_metadata(run_dir: Path) -> tuple[str, str]:
    """Loss kind and mix mode for a run: from its own resolved config, or
    from the training run its eval config points at via the model path."""
    cfg_path, model = run_dir / "config.resolved.json", None
    for _ in range(2):
        if not cfg_path.is_file():
            if model:  # e.g. a relative model path, or a moved run tree
                print(f"warning: {run_dir.name}: no config.resolved.json beside its model "
                      f"{model}", file=sys.stderr)
            return "", ""
        try:
            cfg = load_json(cfg_path)
        except (ValueError, OSError) as exc:
            print(f"warning: {run_dir.name}: unreadable config.resolved.json in "
                  f"{cfg_path.parent} ({exc})", file=sys.stderr)
            return "", ""
        if "loss" in cfg:
            return cfg.get("loss", ""), cfg.get("mix_mode", "")
        model = cfg.get("model")
        if not model or not isinstance(model, str):
            return "", ""
        cfg_path = Path(model).parent / "config.resolved.json"
    return "", ""


def cmd_report(args) -> int:
    runs = Path(args.runs)
    if not runs.is_dir():
        raise ValueError(f"{runs} is not a directory")
    rows = []
    for run_dir in sorted(p for p in runs.iterdir() if p.is_dir()):
        report_path = run_dir / "report.json"
        if not report_path.is_file():
            print(f"warning: {run_dir.name}: no report.json, skipped", file=sys.stderr)
            continue
        try:
            scalars = load_json(report_path)
        except (ValueError, OSError) as exc:
            print(f"warning: {run_dir.name}: unreadable report.json ({exc}), skipped",
                  file=sys.stderr)
            continue
        loss, mix_mode = _training_metadata(run_dir)
        rows.append({"run": run_dir.name, "loss": loss, "mix_mode": mix_mode,
                     **{k: scalars.get(k) for k in calibration.SCALARS}})
    if not rows:
        raise ValueError(f"{runs} contains no completed runs")
    out = Path(args.out) if args.out else runs
    _write_csv(out / "summary.csv", ["run", "loss", "mix_mode", *calibration.SCALARS],
               [[r["run"], r["loss"], r["mix_mode"]]
                + [("" if r[k] is None else r[k]) for k in calibration.SCALARS]
                for r in rows])
    _write_json(out / "summary.json", rows)
    return 0


# ------------------------------------------------------------------ parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unimix-lt",
        description="Prior-aware mixing and prior-compensated margins on "
                    "long-tailed synthetic data.")
    subs = parser.add_subparsers(dest="command", required=True)
    # each run command: its name, help line, handler and the defaults its flags come from
    for name, help_line, func, defaults in (
            ("gen-data", "synthesize a dataset CSV plus metadata", cmd_gen_data,
             _GEN_DEFAULTS),
            ("verify-dist", "emit density curves and a Monte Carlo histogram",
             cmd_verify_dist, _VERIFY_DEFAULTS),
            # train's keys come from --config alone
            ("train", "train on synthetic LT Gaussians per a JSON config", cmd_train, {}),
            ("eval", "evaluate a model on a dataset CSV", cmd_eval, _EVAL_DEFAULTS),
            ("circles-demo", "run the decision-boundary study", cmd_circles_demo,
             _DEMO_DEFAULTS)):
        p = subs.add_parser(name, help=help_line)
        p.add_argument("--config", help="JSON config (e.g. a config.resolved.json)")
        p.add_argument("--out", required=True, help="run directory for outputs")
        for key, default in defaults.items():
            parse = ({"action": "store_const", "const": True} if isinstance(default, bool)
                     else {"type": type(default)})
            p.add_argument("--" + key.replace("_", "-"), **parse,
                           help=f"default: {json.dumps(default)}")
        p.set_defaults(func=func)

    p = subs.add_parser("report", help="summarize completed runs into one table")
    p.add_argument("--runs", required=True, help="directory containing run directories")
    p.add_argument("--out", help="output directory (default: --runs)")
    p.set_defaults(func=cmd_report)

    return parser


def _join_negative_numbers(argv: list[str]) -> list[str]:
    """`argv` with each value such as -1e-3 joined to the flag before it
    (`--tau=-1e-3`): argparse takes only plain negatives such as -0.5 for
    values, and no flag starts with a digit."""
    out = []
    for arg in argv:
        if out and re.fullmatch(r"--[\w-]+", out[-1]) and re.match(r"-\.?\d", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = _join_negative_numbers(list(sys.argv[1:]) if argv is None else list(argv))
    parser = build_parser()
    if not argv:
        parser.print_usage(sys.stderr)
        return 1
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 1
    try:
        # each boundary's own check reports a fault; numpy's warnings would only precede it
        with np.errstate(all="ignore"):
            return args.func(args)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # e.g. a batch or data size too large to allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
