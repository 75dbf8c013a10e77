import numpy as np
import pytest

from unimix_lt.config import build_training_run, resolve_train_config
from unimix_lt.errors import ConfigError


def test_defaults_are_filled_and_idempotent():
    resolved = resolve_train_config({})
    assert resolved["classes"] == 10
    assert resolved["loss"] == "bayias_ce"
    assert resolved["t1_steps"] == round(0.9 * resolved["t2_steps"])
    assert resolved["loss_params"]["target_prior"] == "balanced"
    assert resolve_train_config(resolved) == resolved


def test_alpha_default_depends_on_mix_mode():
    assert resolve_train_config({})["alpha"] == 0.5
    assert resolve_train_config({"mix_mode": "vanilla_mixup"})["alpha"] == 1.0
    assert resolve_train_config({"mix_mode": "vanilla_mixup", "alpha": 0.3})["alpha"] == 0.3


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="zebra"):
        resolve_train_config({"zebra": 1})
    with pytest.raises(ConfigError, match="loss_params"):
        resolve_train_config({"loss_params": {"zeta": 2.0}})
    with pytest.raises(ConfigError):
        resolve_train_config({"loss": "hinge"})
    with pytest.raises(ConfigError):
        resolve_train_config({"mix_mode": "cutmix"})


def test_build_training_run_materializes():
    cfg = resolve_train_config({"classes": 4, "n_max": 40, "rho": 10.0, "dims": 3,
                                "t2_steps": 20, "batch_size": 8, "hidden_dims": [6]})
    ds, train_cfg = build_training_run(cfg)
    assert ds.num_classes == 4 and ds.dims == 3
    assert train_cfg.hidden_dims == (6,)
    assert train_cfg.t1_steps == 18
    assert train_cfg.loss.kind == "bayias_ce"


def test_target_prior_list_feeds_margins():
    target = [0.1, 0.2, 0.3, 0.4]
    cfg = resolve_train_config({"classes": 4, "n_max": 40, "rho": 10.0, "dims": 3,
                                "loss": "bayias_ce",
                                "loss_params": {"target_prior": target}})
    ds, train_cfg = build_training_run(cfg)
    prior = ds.class_counts / ds.num_samples
    np.testing.assert_allclose(train_cfg.loss.margins,
                               np.log(prior) - np.log(target), atol=1e-15)


def test_bad_values_surface_as_config_errors():
    with pytest.raises(ConfigError):
        build_training_run(resolve_train_config({"batch_size": 0}))
    with pytest.raises(ConfigError):
        build_training_run(resolve_train_config({"classes": 10, "n_max": 5}))
    with pytest.raises(ConfigError):
        build_training_run(resolve_train_config(
            {"loss": "bayias_ce", "loss_params": {"target_prior": [0.5, 0.5, 0.5]}}))


def test_scalars_take_their_defaults_json_type():
    resolved = resolve_train_config({"rho": 100, "alpha": 1, "loss_params": {"gamma": 2}})
    assert (resolved["rho"], resolved["alpha"], resolved["loss_params"]["gamma"]) == (100, 1, 2)
    assert all(type(v) is float for v in (resolved["rho"], resolved["alpha"],
                                          resolved["loss_params"]["gamma"]))
    resolved = resolve_train_config({"hidden_dims": [3], "loss_params": {
        "target_prior": [1, 0]}})
    assert resolved["hidden_dims"] == [3]
    assert [type(v) for v in resolved["loss_params"]["target_prior"]] == [float, float]
    assert resolve_train_config(resolved) == resolved
    bad = [({"classes": 4.7}, "classes must be an integer"),
           ({"classes": True}, "classes must be an integer"),
           ({"t1_steps": 10.0}, "t1_steps must be an integer"),
           ({"seed": "1"}, "seed must be an integer"),
           ({"lr": None}, "lr must be a number"),
           ({"alpha": "0.5"}, "alpha must be a number"),
           ({"rho": 10 ** 400}, "rho must be a finite number"),
           ({"mix_mode": 3}, "mix_mode must be a string"),
           ({"loss_params": {"gamma": "x"}}, "loss_params.gamma must be a number"),
           ({"loss_params": [1]}, "loss_params must be a JSON object"),
           ({"hidden_dims": "64"}, "hidden_dims must be a list"),
           ({"hidden_dims": [8, True]}, r"hidden_dims\[1\] must be an integer"),
           ({"loss_params": {"target_prior": ["0.5", "0.5"]}},
            r"loss_params.target_prior\[0\] must be a number"),
           ({"loss_params": {"target_prior": "uniform"}},
            "loss_params.target_prior must be a list")]
    for raw, message in bad:
        with pytest.raises(ConfigError, match=message):
            resolve_train_config(raw)
    with pytest.raises(ConfigError, match="config must be a JSON object"):
        resolve_train_config([1])
