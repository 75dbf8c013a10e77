import json
from types import SimpleNamespace

import numpy as np
import pytest

from unimix_lt.data import empirical_prior, gen_lt_gaussians
from unimix_lt.errors import InvariantViolation
from unimix_lt.losses import LOSS_KINDS, LossSpec, batch_grad, batch_loss, softmax
from unimix_lt.mixing import MIX_MODES, MixConfig, sample_beta
from unimix_lt.model import (PREDICT_BLOCK, MLPParams, TrainConfig, _forward_cached,
                             forward, init_params, load_model, predict_proba, save_model,
                             sgd_step, train_two_phase)
from unimix_lt.sampling import draw_batch, inverse_prior
from unimix_lt.streams import derive_rng


def test_init_params_deterministic_and_shapes():
    a = init_params([4, 8, 3], derive_rng(7, "init"))
    b = init_params([4, 8, 3], derive_rng(7, "init"))
    for (wa, ba), (wb, bb) in zip(a.layers, b.layers):
        np.testing.assert_array_equal(wa, wb)
        np.testing.assert_array_equal(ba, bb)
        assert np.all(ba == 0.0)
    assert a.layer_dims == [4, 8, 3]


def test_init_params_fan_in_variance():
    params = init_params([100, 200, 10], derive_rng(3, "init"))
    w = params.layers[0][0]
    assert w.size >= 10_000
    var = w.var()
    assert 0.8 * (2 / 100) <= var <= 1.2 * (2 / 100)


def test_init_params_rejects_zero_width():
    with pytest.raises(ValueError):
        init_params([4, 0, 3], derive_rng(0, "init"))
    with pytest.raises(ValueError):
        init_params([4], derive_rng(0, "init"))


def test_forward_linear_model_is_affine():
    params = init_params([3, 2], derive_rng(5, "init"))
    w, b = params.layers[0]
    x = np.array([[0.5, -1.0, 2.0]])
    np.testing.assert_array_equal(forward(params, x), x @ w + b)
    # zero biases at init make the map linear in the input
    np.testing.assert_allclose(forward(params, 3.0 * x), 3.0 * (x @ w), atol=1e-12)


def test_forward_batch_matches_single():
    params = init_params([3, 8, 4], derive_rng(1, "init"))
    x = derive_rng(0, "t").standard_normal((5, 3))
    batched = forward(params, x)
    for i in range(5):
        # a row of a larger batch may differ from the one-row batch by BLAS summation order
        np.testing.assert_allclose(batched[i], forward(params, x[i:i + 1])[0], rtol=1e-12)


def test_backward_full_network_finite_differences(backward):
    params = init_params([2, 16, 3], derive_rng(11, "init"))
    rng = np.random.default_rng(3)
    x = rng.standard_normal((8, 2))
    y = rng.integers(0, 3, 8)
    spec = LossSpec(kind="ce")
    # keep the check away from relu kinks
    pre = x @ params.layers[0][0] + params.layers[0][1]
    assert np.abs(pre).min() > 1e-3

    def total_loss():
        return float(batch_loss(spec, forward(params, x), y).mean())

    grads = backward(params, x, batch_grad(spec, forward(params, x), y) / len(y))
    h = 1e-5
    for layer, (gw, gb) in enumerate(grads):
        for arr, g in ((params.layers[layer][0], gw), (params.layers[layer][1], gb)):
            num = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                old = arr[idx]
                arr[idx] = old + h
                up = total_loss()
                arr[idx] = old - h
                down = total_loss()
                arr[idx] = old
                num[idx] = (up - down) / (2 * h)
            rel = np.linalg.norm(num - g) / max(np.linalg.norm(g), 1e-12)
            assert rel <= 1e-4


def test_backward_zero_and_linearity(backward):
    params = init_params([3, 8, 4], derive_rng(2, "init"))
    x = derive_rng(1, "t").standard_normal((6, 3))
    zeros = backward(params, x, np.zeros((6, 4)))
    assert all(np.all(gw == 0) and np.all(gb == 0) for gw, gb in zeros)
    g1 = derive_rng(2, "t").standard_normal((6, 4))
    g2 = derive_rng(3, "t").standard_normal((6, 4))
    summed = backward(params, x, g1 + g2)
    parts = [backward(params, x, g) for g in (g1, g2)]
    for (gw, gb), (aw, ab), (bw, bb) in zip(summed, *parts):
        np.testing.assert_allclose(gw, aw + bw, atol=1e-12)
        np.testing.assert_allclose(gb, ab + bb, atol=1e-12)


def test_sgd_step_plain_and_frozen():
    params = init_params([2, 3], derive_rng(0, "init"))
    w0 = params.layers[0][0].copy()
    grad = np.ones_like(params.flat)
    sgd_step(params, grad, np.zeros_like(grad), lr=0.1, momentum=0.0, weight_decay=0.0)
    np.testing.assert_array_equal(params.layers[0][0], w0 - 0.1)
    params2 = init_params([2, 3], derive_rng(0, "init"))
    w0 = params2.layers[0][0].copy()
    sgd_step(params2, grad, np.zeros_like(grad), lr=0.0, momentum=0.9, weight_decay=0.0)
    np.testing.assert_array_equal(params2.layers[0][0], w0)


def test_sgd_two_steps_constant_gradient():
    # v1 = g, v2 = (1+mu) g, total displacement lr*g*(2+mu)
    mu = 0.7
    params = init_params([2, 2], derive_rng(1, "init"))
    w0 = params.layers[0][0].copy()
    grads = params.zeros_like()
    grads.layers[0][0][:] = 0.5
    velocity = np.zeros_like(params.flat)
    sgd_step(params, grads.flat, velocity, lr=0.01, momentum=mu, weight_decay=0.0)
    sgd_step(params, grads.flat, velocity, lr=0.01, momentum=mu, weight_decay=0.0)
    np.testing.assert_allclose(w0 - params.layers[0][0], 0.01 * 0.5 * (2 + mu), atol=1e-15)
    np.testing.assert_array_equal(params.layers[0][1], np.zeros(2))


def test_layers_are_views_into_one_flat_vector(tmp_path):
    save_model(init_params([3, 4, 2], derive_rng(1, "init")), tmp_path / "model.json")
    fresh = init_params([3, 8, 4], derive_rng(0, "init"))
    for params in (fresh, fresh.zeros_like(), load_model(tmp_path / "model.json")):
        assert params.flat.dtype == np.float64 and params.flat.ndim == 1
        dims = params.layer_dims
        assert params.flat.size == sum(a * b + b for a, b in zip(dims[:-1], dims[1:]))
        for w, b in params.layers:
            assert np.shares_memory(w, params.flat) and np.shares_memory(b, params.flat)
        assert np.array_equal(np.concatenate([a.ravel() for layer in params.layers
                                              for a in layer]), params.flat)


def test_mlp_params_copies_its_input():
    w, b = np.ones((2, 3)), np.arange(3)
    params = MLPParams([(w, b)])
    params.flat += 1.0
    assert np.array_equal(w, np.ones((2, 3))) and np.array_equal(b, np.arange(3))
    assert np.array_equal(params.layers[0][0], w + 1.0)
    assert np.array_equal(params.layers[0][1], b + 1.0)
    assert params.layers[0][1].dtype == np.float64


def _basic_config(seed=0, **kw):
    defaults = dict(
        t1_steps=30, t2_steps=40, batch_size=32, lr=0.1,
        mix=MixConfig(alpha=0.5, mode="unimix_full", tau=-1.0),
        loss=LossSpec(kind="ce"), seed=seed, hidden_dims=(16,))
    defaults.update(kw)
    return TrainConfig(**defaults)


def test_train_zero_steps_returns_init():
    ds = gen_lt_gaussians(4, 10.0, 40, 3, seed=0)
    cfg = _basic_config(t1_steps=0, t2_steps=0)
    params, log = train_two_phase(ds, cfg)
    ref = init_params([3, 16, 4], derive_rng(0, "init"))
    for (w, b), (rw, rb) in zip(params.layers, ref.layers):
        np.testing.assert_array_equal(w, rw)
        np.testing.assert_array_equal(b, rb)
    assert log == []


def test_train_bitwise_deterministic():
    ds = gen_lt_gaussians(4, 10.0, 40, 3, seed=0)
    pa, la = train_two_phase(ds, _basic_config(seed=5))
    pb, lb = train_two_phase(ds, _basic_config(seed=5))
    assert la == lb
    for (wa, _), (wb, _) in zip(pa.layers, pb.layers):
        np.testing.assert_array_equal(wa, wb)


def test_train_losses_finite_and_phases_logged():
    ds = gen_lt_gaussians(4, 10.0, 40, 3, seed=1)
    _, log = train_two_phase(ds, _basic_config())
    assert len(log) == 40
    assert all(np.isfinite(loss) for _, _, loss, _ in log)
    assert [phase for _, phase, _, _ in log] == [1] * 30 + [2] * 10


def test_train_degenerates_to_plain_mixup_ce(per_layer_model):
    """Plain-mixup config reproduces a hand-rolled mixup-CE loop bitwise.

    The trainer documents its stream usage: (seed, "init"), (seed,
    "sampler", 0), (seed, "sampler", 1), (seed, "mix"). A reference loop
    drawing from the same streams and doing standard mixup-CE training
    must produce the identical trajectory when the pipeline runs with
    vanilla mixing, zero margins, and a tau=1 pair sampler.
    """
    ds = gen_lt_gaussians(4, 1.0, 40, 3, seed=2)  # balanced data
    seed = 9
    n, t1, t2 = 16, 25, 30
    spec = LossSpec(kind="ce")
    cfg = TrainConfig(t1_steps=t1, t2_steps=t2, batch_size=n, lr=0.05,
                      mix=MixConfig(alpha=1.0, mode="vanilla_mixup", tau=1.0),
                      loss=spec, seed=seed, hidden_dims=(8,))
    params, log = train_two_phase(ds, cfg)

    forward_cached, backward_cached, per_layer_sgd_step = per_layer_model
    prior = ds.class_counts / ds.num_samples
    ref = init_params([3, 8, 4], derive_rng(seed, "init"))
    rng_batch = derive_rng(seed, "sampler", 0)
    rng_pair = derive_rng(seed, "sampler", 1)
    rng_mix = derive_rng(seed, "mix")
    state = None
    ref_log = []
    for step in range(t2):
        lr = cfg.lr_at(step)
        if step < t1:
            x_i, y_i = draw_batch(ds, prior, n, rng_batch)
            x_j, y_j = draw_batch(ds, prior, n, rng_pair)
            xi = sample_beta(1.0, rng_mix, size=n)
            x = xi[:, None] * x_i + (1.0 - xi)[:, None] * x_j
            logits, acts = forward_cached(ref, x)
            losses = xi * batch_loss(spec, logits, y_i) \
                + (1.0 - xi) * batch_loss(spec, logits, y_j)
            g = (xi[:, None] * batch_grad(spec, logits, y_i)
                 + (1.0 - xi)[:, None] * batch_grad(spec, logits, y_j)) / n
        else:
            x, y = draw_batch(ds, prior, n, rng_batch)
            logits, acts = forward_cached(ref, x)
            losses = batch_loss(spec, logits, y)
            g = batch_grad(spec, logits, y) / n
        state = per_layer_sgd_step(ref, backward_cached(ref, acts, g), state, lr,
                                   cfg.momentum, cfg.weight_decay)
        ref_log.append(float(losses.mean()))

    assert [loss for _, _, loss, _ in log] == ref_log
    for (w, b), (rw, rb) in zip(params.layers, ref.layers):
        np.testing.assert_array_equal(w, rw)
        np.testing.assert_array_equal(b, rb)


def _reference_train(ds, cfg, draw, per_layer_model, unimix_factor):
    """The two-phase loop with the batch sampler `draw`, separate
    `batch_loss`/`batch_grad` calls per label, combined as
    xi * (label i) + (1 - xi) * (label j), and the per-layer step
    arithmetic on weights and biases that share no buffer."""
    forward_cached, backward_cached, per_layer_sgd_step = per_layer_model
    prior = empirical_prior(ds)
    pair_prior = inverse_prior(prior, cfg.mix.pair_tau)
    init = init_params([ds.dims, *cfg.hidden_dims, ds.num_classes],
                       derive_rng(cfg.seed, "init"))
    params = SimpleNamespace(layers=[(w.copy(), b.copy()) for w, b in init.layers])
    rng_batch = derive_rng(cfg.seed, "sampler", 0)
    rng_pair = derive_rng(cfg.seed, "sampler", 1)
    rng_mix = derive_rng(cfg.seed, "mix")
    spec, n = cfg.loss, cfg.batch_size
    state, log = None, []
    for step in range(cfg.t2_steps):
        lr = cfg.lr_at(step)
        if step < cfg.t1_steps:
            x_i, y_i = draw(ds, prior, n, rng_batch)
            x_j, y_j = draw(ds, pair_prior, n, rng_pair)
            if cfg.mix.mode == "vanilla_mixup":
                xi = sample_beta(cfg.mix.alpha, rng_mix, size=n)
            else:
                xi = unimix_factor(prior[y_i], prior[y_j], cfg.mix.alpha, rng_mix)
            x = xi[:, None] * x_i + (1.0 - xi)[:, None] * x_j
            logits, acts = forward_cached(params, x)
            losses = xi * batch_loss(spec, logits, y_i) \
                + (1.0 - xi) * batch_loss(spec, logits, y_j)
            g = (xi[:, None] * batch_grad(spec, logits, y_i)
                 + (1.0 - xi)[:, None] * batch_grad(spec, logits, y_j)) / n
            phase = 1
        else:
            x, y = draw(ds, prior, n, rng_batch)
            logits, acts = forward_cached(params, x)
            losses = batch_loss(spec, logits, y)
            g = batch_grad(spec, logits, y) / n
            phase = 2
        state = per_layer_sgd_step(params, backward_cached(params, acts, g), state, lr,
                                   cfg.momentum, cfg.weight_decay)
        log.append((step, phase, float(losses.mean()), lr))
    return params, log


def _kind_spec(kind, ds):
    """A spec of loss `kind`; "la" is the tempered bayias_ce margin an "la" config runs."""
    prior = ds.class_counts / ds.num_samples
    params = {"kind": "bayias_ce", "la_tau": 0.5} if kind == "la" else {"kind": kind}
    return LossSpec(gamma=2.0, class_counts=ds.class_counts, prior=prior, **params)


REFERENCE_RUNS = [
    # the shipped configs/unimix_bayias.json path: bayias_ce, unimix_full, tau 0
    ("bayias_ce", MixConfig(alpha=0.5, mode="unimix_full", tau=0.0)),
    *((kind, MixConfig(alpha=0.5, mode=MIX_MODES[i % len(MIX_MODES)], tau=-1.0))
      for i, kind in enumerate(LOSS_KINDS)),
    ("la", MixConfig(alpha=0.5, mode="vanilla_mixup", tau=-1.0)),
]


@pytest.mark.parametrize("kind,mix", REFERENCE_RUNS,
                         ids=[f"{k}-{m.mode}-tau{m.tau:g}" for k, m in REFERENCE_RUNS])
def test_train_matches_per_sample_sampler_reference(kind, mix, per_sample_draw_batch,
                                                    per_layer_model, unimix_factor):
    """The class-sorted sampler and the flat in-place training step keep params
    and log bitwise, for every loss kind."""
    ds = gen_lt_gaussians(5, 20.0, 60, 4, seed=4)
    cfg = TrainConfig(t1_steps=12, t2_steps=16, batch_size=24, lr=0.1,
                      mix=mix, loss=_kind_spec(kind, ds), seed=5, hidden_dims=(8,))
    params, log = train_two_phase(ds, cfg)
    ref, ref_log = _reference_train(ds, cfg, per_sample_draw_batch, per_layer_model,
                                    unimix_factor)
    assert log == ref_log
    for (w, b), (rw, rb) in zip(params.layers, ref.layers):
        assert np.array_equal(w, rw) and np.array_equal(b, rb)


def test_train_rejects_bad_config():
    with pytest.raises(ValueError):
        _basic_config(t1_steps=50, t2_steps=40)
    with pytest.raises(ValueError):
        _basic_config(batch_size=0)
    with pytest.raises(ValueError):
        _basic_config(momentum=1.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
def test_train_raises_on_divergence():
    ds = gen_lt_gaussians(4, 10.0, 40, 3, seed=3)
    cfg = _basic_config(lr=1e30, t1_steps=0, t2_steps=30)
    with pytest.raises(InvariantViolation):
        train_two_phase(ds, cfg)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
def test_train_raises_on_non_finite_final_update():
    """The loss check runs before each update; the parameters are checked after each one."""
    ds = gen_lt_gaussians(3, 4.0, 20, 3, seed=0)
    cfg = _basic_config(lr=1e16, weight_decay=1e300, t1_steps=0, t2_steps=1)
    with pytest.raises(InvariantViolation, match="non-finite parameters after 1 steps"):
        train_two_phase(ds, cfg)


def test_predict_proba_contract():
    params = init_params([3, 8, 4], derive_rng(4, "init"))
    x = derive_rng(5, "t").standard_normal((6, 3))
    probs = predict_proba(params, x)
    np.testing.assert_allclose(probs.sum(axis=1), np.ones(6), atol=1e-12)
    np.testing.assert_array_equal(probs.argmax(axis=1), forward(params, x).argmax(axis=1))
    np.testing.assert_allclose(predict_proba(params, x[:1])[0], probs[0], rtol=1e-12)


def test_predict_proba_is_softmax_of_forward_exactly():
    """The in-place inference path equals the allocating one bit for bit."""
    params = init_params([16, 64, 64, 100], derive_rng(8, "init"))
    x = derive_rng(9, "t").standard_normal((500, 16)) * 3.0
    logits = forward(params, x)
    assert np.array_equal(logits, _forward_cached(params, x)[0])
    assert np.array_equal(predict_proba(params, x), softmax(logits))
    assert np.array_equal(predict_proba(params, x[3:4]), softmax(forward(params, x[3:4])))
    # row blocks: one short of a block, one, one and a row, several and a remainder
    for n in (PREDICT_BLOCK - 1, PREDICT_BLOCK, PREDICT_BLOCK + 1, 3 * PREDICT_BLOCK + 5):
        x = derive_rng(10, "t", n).standard_normal((n, 16)) * 3.0
        assert np.array_equal(predict_proba(params, x), softmax(forward(params, x))), n


def test_model_save_load_round_trip(tmp_path):
    params = init_params([3, 8, 4], derive_rng(6, "init"))
    path = tmp_path / "model.json"
    save_model(params, path)
    back = load_model(path)
    assert back.layer_dims == params.layer_dims
    for (w, b), (rw, rb) in zip(params.layers, back.layers):
        np.testing.assert_array_equal(w, rw)
        np.testing.assert_array_equal(b, rb)


def saved_payload(tmp_path):
    path = tmp_path / "model.json"
    save_model(init_params([3, 4, 2], derive_rng(1, "init")), path)
    return json.loads(path.read_text())


def load_payload(tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    return load_model(path)


@pytest.mark.parametrize("key", ["layer_dims", "layers"])
def test_load_model_rejects_missing_key(tmp_path, key):
    payload = saved_payload(tmp_path)
    del payload[key]
    with pytest.raises(ValueError, match="needs 'layer_dims' and 'layers'"):
        load_payload(tmp_path, payload)


def test_load_model_rejects_missing_layer_key(tmp_path):
    payload = saved_payload(tmp_path)
    del payload["layers"][1]["b"]
    with pytest.raises(ValueError, match="layer 1 needs 'w' and 'b'"):
        load_payload(tmp_path, payload)


def test_load_model_rejects_layer_count_mismatch(tmp_path):
    # zip() over dims and layers used to drop the extra width silently
    payload = saved_payload(tmp_path)
    payload["layer_dims"] = [3, 4, 2, 5]
    with pytest.raises(ValueError, match="needs 3 layers"):
        load_payload(tmp_path, payload)


def test_load_model_rejects_wrong_weight_size(tmp_path):
    payload = saved_payload(tmp_path)
    payload["layers"][0]["w"] = payload["layers"][0]["w"][:-1]
    with pytest.raises(ValueError, match="layer 0 needs 12 weights and 4 biases"):
        load_payload(tmp_path, payload)


def test_load_model_rejects_wrong_bias_size(tmp_path):
    payload = saved_payload(tmp_path)
    payload["layers"][1]["b"].append(0.0)
    with pytest.raises(ValueError, match="layer 1 needs 8 weights and 2 biases"):
        load_payload(tmp_path, payload)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_load_model_rejects_non_finite_weights(tmp_path, bad):
    payload = saved_payload(tmp_path)
    payload["layers"][1]["w"][3] = bad
    with pytest.raises(ValueError, match="layer 1 has non-finite parameters"):
        load_payload(tmp_path, payload)


def test_lr_schedule_shape():
    """2.5% linear warm-up, then x0.01 from 80% and again from 90% of t2_steps,
    multiplied in that order."""
    cfg = _basic_config(lr=0.1, t1_steps=0, t2_steps=1000)
    assert [cfg.lr_at(s) for s in (0, 23, 24)] == [0.1 * (1 / 25), 0.1 * (24 / 25), 0.1]
    assert [cfg.lr_at(s) for s in (500, 799, 800, 899, 900, 999)] == \
        [0.1, 0.1, 0.1 * 0.01, 0.1 * 0.01, 0.1 * 0.01 * 0.01, 0.1 * 0.01 * 0.01]
    short = _basic_config(lr=0.1, t1_steps=0, t2_steps=10)  # 2.5% rounds to no warm-up
    assert [short.lr_at(s) for s in (0, 7, 8, 9)] == [0.1, 0.1, 0.1 * 0.01, 0.1 * 0.01 * 0.01]
