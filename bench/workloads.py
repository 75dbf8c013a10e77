"""The three benchmark workloads, each a unimix-lt CLI command run in-process.

A workload makes its inputs from the seed (`setup`), names the command one
op runs (`argv`), lists the op's deterministic artifacts, checks one op's
outputs (`check`) and scores the first op's output once, untimed
(`quality`). The program only ever sees the generated files and flags.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from unimix_lt import cli
from unimix_lt.theory import LTSpec, discrete_lt_prior


def _run(argv: list[str]) -> None:
    rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"command failed with exit code {rc}: {argv}")


def _shipped_config(root: Path) -> dict:
    with open(root / "configs" / "unimix_bayias.json") as fh:
        return json.load(fh)


def _write_config(path: Path, cfg: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(cfg, sort_keys=True, indent=2) + "\n")
    return path


def _report(out: Path) -> dict:
    with open(out / "report.json") as fh:
        return json.load(fh)


def _read_histogram(path: Path) -> np.ndarray:
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return rows[:, 1]


class TrainMixed:
    """`train` on the shipped unimix + bayias config, only the seed replaced."""

    name = "train_mixed"
    item = "steps"
    throughput = "train_steps_per_s"
    setup_repeats = 9
    artifacts = ("model.json", "train_log.csv", "config.resolved.json")

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        self.cfg = dict(_shipped_config(root), seed=seed)
        self.items = int(self.cfg["t2_steps"])

    def setup(self, inputs: Path) -> None:
        _write_config(inputs / "train.json", self.cfg)

    def argv(self, inputs: Path, out: Path) -> list[str]:
        return ["train", "--config", str(inputs / "train.json"), "--out", str(out)]

    def check(self, out: Path) -> list[str]:
        return []

    def quality(self, inputs: Path, out: Path) -> dict:
        """Accuracy and ECE of the trained model on a balanced test set (untimed)."""
        test = inputs / "test"
        _run(["gen-data", "--out", str(test), "--classes", str(self.cfg["classes"]),
              "--rho", "1", "--n-max", "200", "--dims", str(self.cfg["dims"]),
              "--seed", str(self.seed + 1000)])
        _run(["eval", "--model", str(out / "model.json"), "--data", str(test / "data.csv"),
              "--out", str(inputs / "test_eval")])
        report = _report(inputs / "test_eval")
        return {"test_accuracy": report["accuracy"], "test_ece": report["ece"],
                "quality_score": report["accuracy"]}


class EvalWide:
    """`eval` of a fixed 100-class model on a balanced 50,000-row CSV."""

    name = "eval_wide"
    item = "rows"
    throughput = "eval_rows_per_s"
    setup_repeats = 5  # each set-up writes a 50k-row CSV and trains for 200 steps
    artifacts = ("report.json", "reliability.csv", "confusion.csv", "confusion_log.csv",
                 "density.csv", "config.resolved.json")
    classes, n_max, train_steps = 100, 500, 200

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        shipped = _shipped_config(root)
        self.dims = int(shipped["dims"])
        self.train_cfg = dict(shipped, classes=self.classes, seed=seed,
                              t1_steps=self.train_steps * 3 // 4, t2_steps=self.train_steps)
        self.items = self.classes * self.n_max

    def setup(self, inputs: Path) -> None:
        _run(["gen-data", "--out", str(inputs / "data"), "--classes", str(self.classes),
              "--rho", "1", "--n-max", str(self.n_max), "--dims", str(self.dims),
              "--seed", str(self.seed)])
        cfg = _write_config(inputs / "train.json", self.train_cfg)
        _run(["train", "--config", str(cfg), "--out", str(inputs / "model")])

    def argv(self, inputs: Path, out: Path) -> list[str]:
        return ["eval", "--model", str(inputs / "model" / "model.json"),
                "--data", str(inputs / "data" / "data.csv"), "--out", str(out)]

    def check(self, out: Path) -> list[str]:
        report = _report(out)
        bad = [k for k, v in report.items() if not 0.0 <= v <= 1.0]
        return [f"report.json: {k} outside [0, 1]" for k in bad]

    def quality(self, inputs: Path, out: Path) -> dict:
        report = _report(out)
        return {"eval_accuracy": report["accuracy"], "eval_ece": report["ece"],
                "quality_score": report["accuracy"]}


class VerifyMC:
    """`verify-dist` in full mode at 1e7 trials over 4 streams, C=100, rho=200."""

    name = "verify_mc"
    item = "trials"
    throughput = "mc_trials_per_s"
    setup_repeats = 9
    artifacts = ("histogram.csv", "curves.csv", "config.resolved.json")
    classes, rho, trials, streams = 100, 200.0, 10_000_000, 4

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        self.items = self.trials
        prior = discrete_lt_prior(LTSpec(self.classes, self.rho, -1.0))
        self.prior_l1 = float(np.abs(prior - 1.0 / self.classes).sum())

    def setup(self, inputs: Path) -> None:
        inputs.mkdir(parents=True, exist_ok=True)

    def argv(self, inputs: Path, out: Path) -> list[str]:
        return ["verify-dist", "--classes", str(self.classes), "--rho", str(self.rho),
                "--tau", "-1", "--mode", "full", "--trials", str(self.trials),
                "--streams", str(self.streams), "--seed", str(self.seed), "--out", str(out)]

    def _l1(self, hist: np.ndarray) -> float:
        return float(np.abs(hist - 1.0 / self.classes).sum())

    def check(self, out: Path) -> list[str]:
        """The paper's claim: the reinforced classes are nearly uniform, tail-heavy."""
        hist = _read_histogram(out / "histogram.csv")
        if hist.shape != (self.classes,) or abs(hist.sum() - 1.0) > 1e-9:
            return ["histogram.csv is not a distribution over the classes"]
        problems = []
        if not self._l1(hist) < self.prior_l1:
            problems.append(f"L1 to uniform {self._l1(hist):.4f} is not below the "
                            f"prior's {self.prior_l1:.4f}")
        third = self.classes // 3
        if not hist[-third:].sum() > hist[:third].sum():
            problems.append("tail third is not heavier than the head third")
        return problems

    def quality(self, inputs: Path, out: Path) -> dict:
        l1 = self._l1(_read_histogram(out / "histogram.csv"))
        return {"mc_l1_uniform": l1, "prior_l1_uniform": self.prior_l1,
                "quality_score": 1.0 - l1 / 2.0}


WORKLOADS = {w.name: w for w in (TrainMixed, EvalWide, VerifyMC)}
