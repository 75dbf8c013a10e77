"""Training-run configuration: strict key validation and default resolution.

A raw JSON config is resolved to a complete dict (every default made
explicit) before anything runs; the resolved dict is what run directories
persist, and resolving it again is the identity, so replays reproduce the
original run exactly.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .data import empirical_prior, gen_lt_gaussians
from .errors import ConfigError
from .losses import LOSS_KINDS, LossSpec
from .mixing import MIX_MODES, MixConfig
from .model import LRSchedule, TrainConfig
from .theory import check_prior

__all__ = ["TRAIN_KEYS", "LOSS_PARAM_KEYS", "resolve_train_config",
           "build_training_run", "load_config"]

TRAIN_KEYS = {
    "classes", "rho", "n_max", "dims", "cluster_spread",
    "alpha", "tau", "mix_mode",
    "loss", "loss_params",
    "t1_steps", "t2_steps", "batch_size", "lr", "momentum", "weight_decay",
    "hidden_dims", "seed",
}

LOSS_PARAM_KEYS = {"gamma", "beta", "ldam_c", "la_tau", "target_prior"}

_DEFAULTS = {
    "classes": 10,
    "rho": 100.0,
    "n_max": 500,
    "dims": 16,
    "cluster_spread": 1.0,
    "tau": -1.0,
    "mix_mode": "unimix_full",
    "loss": "bayias_ce",
    "t2_steps": 2000,
    "batch_size": 128,
    "lr": 0.1,
    "momentum": 0.9,
    "weight_decay": 2e-4,
    "hidden_dims": [64, 64],
    "seed": 0,
}

_LOSS_PARAM_DEFAULTS = {"gamma": 1.0, "beta": 0.999, "ldam_c": 0.5, "la_tau": 1.0,
                        "target_prior": "balanced"}


def resolve_train_config(raw: dict) -> dict:
    """Fill every default and reject unknown keys; idempotent on its output."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - TRAIN_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    cfg = dict(_DEFAULTS)
    cfg.update({k: v for k, v in raw.items() if k not in ("loss_params", "t1_steps", "alpha")})
    if cfg["loss"] not in LOSS_KINDS:
        raise ConfigError(f"loss must be one of {LOSS_KINDS}, got {cfg['loss']!r}")
    if cfg["mix_mode"] not in MIX_MODES:
        raise ConfigError(f"mix_mode must be one of {MIX_MODES}, got {cfg['mix_mode']!r}")
    params = dict(_LOSS_PARAM_DEFAULTS)
    raw_params = raw.get("loss_params", {})
    if not isinstance(raw_params, dict):
        raise ConfigError("loss_params must be a JSON object")
    unknown = set(raw_params) - LOSS_PARAM_KEYS
    if unknown:
        raise ConfigError(f"unknown loss_params keys: {sorted(unknown)}")
    params.update(raw_params)
    cfg["loss_params"] = params
    # beta mixing defaults to 1.0 only for the plain-mixup mode
    cfg["alpha"] = raw.get("alpha", 1.0 if cfg["mix_mode"] == "vanilla_mixup" else 0.5)
    cfg["t1_steps"] = raw.get("t1_steps", int(round(0.9 * cfg["t2_steps"])))
    return cfg


def _loss_spec(cfg: dict, class_counts: np.ndarray, prior: np.ndarray) -> LossSpec:
    p = cfg["loss_params"]
    target = p["target_prior"]
    try:
        if target == "balanced":
            target_prior = None
        else:
            target_prior = check_prior(np.asarray(target, dtype=np.float64),
                                       require_positive=True)
        return LossSpec(
            kind=cfg["loss"],
            gamma=float(p["gamma"]),
            beta=float(p["beta"]),
            ldam_c=float(p["ldam_c"]),
            la_tau=float(p["la_tau"]),
            class_counts=class_counts,
            prior=prior,
            target_prior=target_prior,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def build_training_run(cfg: dict):
    """Materialize (dataset, TrainConfig) from a resolved config dict."""
    try:
        ds = gen_lt_gaussians(
            num_classes=int(cfg["classes"]),
            rho=float(cfg["rho"]),
            n_max=int(cfg["n_max"]),
            dims=int(cfg["dims"]),
            cluster_spread=float(cfg["cluster_spread"]),
            seed=int(cfg["seed"]),
        )
        prior = empirical_prior(ds)
        train_cfg = TrainConfig(
            t1_steps=int(cfg["t1_steps"]),
            t2_steps=int(cfg["t2_steps"]),
            batch_size=int(cfg["batch_size"]),
            lr=LRSchedule.scaled(float(cfg["lr"]), int(cfg["t2_steps"])),
            mix=MixConfig(alpha=float(cfg["alpha"]), mode=cfg["mix_mode"],
                          tau=float(cfg["tau"])),
            loss=_loss_spec(cfg, ds.class_counts, prior),
            seed=int(cfg["seed"]),
            momentum=float(cfg["momentum"]),
            weight_decay=float(cfg["weight_decay"]),
            hidden_dims=tuple(int(h) for h in cfg["hidden_dims"]),
        )
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from None
    return ds, train_cfg


def load_config(path) -> dict:
    """Parse a JSON config; NaN, Infinity and numbers that overflow a float are refused."""
    def finite(text: str) -> float:
        value = float(text)
        if not math.isfinite(value):
            raise ConfigError(f"{path}: numbers must be finite, got {text}")
        return value

    try:
        with open(path) as fh:
            return json.load(fh, parse_float=finite, parse_constant=finite)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
