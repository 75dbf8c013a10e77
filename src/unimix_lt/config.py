"""Run configuration: one typed resolver for every command's config.

A raw JSON config is resolved to a complete dict (every default made
explicit, every value of its default's JSON type) before anything runs;
the resolved dict is what run directories persist, and resolving it again
is the identity, so replays reproduce the original run exactly.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .data import DEFAULT_SPREAD, empirical_prior, gen_lt_gaussians
from .losses import LOSS_KINDS, LossSpec
from .mixing import MIX_MODES, MixConfig
from .model import TrainConfig
from .theory import check_prior

__all__ = ["resolve_config", "resolve_train_config", "build_training_run", "load_config"]

# The long-tailed Gaussian set, shared by train and gen-data.
DATA_DEFAULTS = {"classes": 10, "rho": 100.0, "n_max": 500, "dims": 16,
                 "cluster_spread": DEFAULT_SPREAD}

_BASE_DEFAULTS = {
    **DATA_DEFAULTS,
    "tau": MixConfig.tau,
    "mix_mode": MixConfig.mode,
    "loss": "bayias_ce",
    "loss_params": {"gamma": LossSpec.gamma, "beta": LossSpec.beta, "ldam_c": LossSpec.ldam_c,
                    "la_tau": LossSpec.la_tau, "target_prior": "balanced"},
    "t2_steps": 2000,
    "batch_size": 128,
    "lr": 0.1,
    "momentum": TrainConfig.momentum,
    "weight_decay": TrainConfig.weight_decay,
    "hidden_dims": list(TrainConfig.hidden_dims),
    "seed": 0,
}


def _following_defaults(cfg: dict) -> dict:
    """The defaults of alpha and t1_steps, which follow mix_mode and t2_steps:
    beta mixing takes 1.0 only in the plain-mixup mode, and phase 1 lasts
    90% of the run."""
    return {"alpha": 1.0 if cfg["mix_mode"] == "vanilla_mixup" else MixConfig.alpha,
            "t1_steps": round(0.9 * cfg["t2_steps"])}


_DEFAULTS = {**_BASE_DEFAULTS, **_following_defaults(_BASE_DEFAULTS)}

_LOSS_NAMES = (*LOSS_KINDS, "la")  # la (logit adjustment): bayias_ce toward a balanced target
_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}


def _typed(name: str, value, default):
    """`value` if its JSON type is that of `default`; a float key also takes an
    integer, and a list key a list of items typed as the default's first."""
    if isinstance(default, list):
        if not isinstance(value, list):
            raise ValueError(f"{name} must be a list, got {value!r}")
        return [_typed(f"{name}[{i}]", v, default[0]) for i, v in enumerate(value)]
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if isinstance(default, float) and number:
        try:
            value = float(value)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise ValueError(f"{name} must be a finite number")
        return value
    if type(value) is not type(default):
        raise ValueError(f"{name} must be {_TYPE_NAMES[type(default)]}, got {value!r}")
    return value


def resolve_config(defaults: dict, *layers, where: str = "") -> dict:
    """Merge `layers` over `defaults`, each later layer winning.

    Every layer must be a JSON object whose keys are keys of `defaults`.
    A scalar must have its default's JSON type: a bool key takes only
    true or false, an int key only an integer, a float key an integer or
    a float (stored as a finite float), a str key only a string, a list
    key a list of such items. An object default is resolved the same way,
    key by key. `target_prior` is "balanced" or a list of numbers.
    """
    resolved = dict(defaults)
    for layer in layers:
        if not isinstance(layer, dict):
            raise ValueError(f"{where or 'config'} must be a JSON object")
        unknown = set(layer) - set(defaults)
        if unknown:
            raise ValueError(f"unknown {where or 'config'} keys: {sorted(unknown)}")
        for key, value in layer.items():
            default = defaults[key]
            if key == "target_prior" and value != "balanced":
                default = [1.0]  # a list of class probabilities
            if isinstance(default, dict):
                value = resolve_config(resolved[key], value, where=key)
            else:
                value = _typed(f"{where}.{key}" if where else key, value, default)
            resolved[key] = value
    return resolved


def resolve_train_config(*layers) -> dict:
    """Resolve a train config from `layers` over its defaults; idempotent on its output."""
    cfg = resolve_config(_DEFAULTS, *layers)
    if cfg["loss"] not in _LOSS_NAMES:
        raise ValueError(f"loss must be one of {_LOSS_NAMES}, got {cfg['loss']!r}")
    if cfg["loss"] == "la" and cfg["loss_params"]["target_prior"] != "balanced":
        raise ValueError("la targets a balanced prior; give another target_prior to bayias_ce")
    if cfg["mix_mode"] not in MIX_MODES:
        raise ValueError(f"mix_mode must be one of {MIX_MODES}, got {cfg['mix_mode']!r}")
    given = {key for layer in layers for key in layer}
    cfg.update({key: value for key, value in _following_defaults(cfg).items()
                if key not in given})
    return cfg


def _loss_spec(cfg: dict, class_counts: np.ndarray, prior: np.ndarray) -> LossSpec:
    """The config's loss; every loss_params key is a LossSpec field."""
    params = dict(cfg["loss_params"])
    target = params.pop("target_prior")
    target_prior = (None if target == "balanced"
                    else check_prior(np.asarray(target, dtype=np.float64), require_positive=True))
    return LossSpec(kind="bayias_ce" if cfg["loss"] == "la" else cfg["loss"],
                    class_counts=class_counts, prior=prior, target_prior=target_prior, **params)


def build_training_run(cfg: dict):
    """Materialize (dataset, TrainConfig) from a resolved config dict."""
    ds = gen_lt_gaussians(
        num_classes=cfg["classes"],
        rho=cfg["rho"],
        n_max=cfg["n_max"],
        dims=cfg["dims"],
        cluster_spread=cfg["cluster_spread"],
        seed=cfg["seed"],
    )
    prior = empirical_prior(ds)
    train_cfg = TrainConfig(
        t1_steps=cfg["t1_steps"],
        t2_steps=cfg["t2_steps"],
        batch_size=cfg["batch_size"],
        lr=cfg["lr"],
        mix=MixConfig(alpha=cfg["alpha"], mode=cfg["mix_mode"], tau=cfg["tau"]),
        loss=_loss_spec(cfg, ds.class_counts, prior),
        seed=cfg["seed"],
        momentum=cfg["momentum"],
        weight_decay=cfg["weight_decay"],
        hidden_dims=tuple(cfg["hidden_dims"]),
    )
    return ds, train_cfg


def load_config(path) -> dict:
    """The JSON object in `path`: the one reader of every JSON file the CLI
    reads except model.json. A file holding anything but one object, NaN,
    Infinity or a float literal that overflows a float is refused.
    """
    def finite(text: str) -> float:
        value = float(text)
        if not math.isfinite(value):
            raise ValueError(f"{path}: numbers must be finite, got {text}")
        return value

    try:
        with open(path) as fh:
            cfg = json.load(fh, parse_float=finite, parse_constant=finite)
    except (json.JSONDecodeError, RecursionError) as exc:  # the latter: nested too deeply
        raise ValueError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: must hold one JSON object")
    return cfg
