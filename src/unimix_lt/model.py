"""Small fully-connected softmax classifier with hand-derived backprop.

The trainer follows the two-phase recipe: up to step T1 it minimizes the
mixed vicinal loss on pairs drawn by a random sampler and a (possibly
inverse) pair sampler, then from T1 to T2 it trains on plain random
batches with the configured loss alone. Prior margins inside the loss are
fixed once before the first step, and inference never applies them.

Runs are single-threaded and fully deterministic: all randomness comes
from fixed streams (seed, "init"), (seed, "sampler", 0) for the random
batch, (seed, "sampler", 1) for the pair batch, and (seed, "mix") for the
mixing factors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import Dataset, empirical_prior
from .errors import InvariantViolation
from .losses import LossSpec, batch_grad, batch_loss
from .mixing import MixConfig, mix_batch
from .sampling import draw_batch, inverse_prior
from .streams import derive_rng

__all__ = [
    "MLPParams",
    "LRSchedule",
    "TrainConfig",
    "init_params",
    "forward",
    "sgd_step",
    "train_two_phase",
    "predict_proba",
    "save_model",
    "load_model",
]


@dataclass(eq=False)
class MLPParams:
    """Dense rectifier network: list of (weights, bias) per layer, logits last."""

    layers: list[tuple[np.ndarray, np.ndarray]]

    def __post_init__(self):
        if not self.layers:
            raise ValueError("network needs at least one layer")
        for l, (w, b) in enumerate(self.layers):
            if w.ndim != 2 or b.ndim != 1 or w.shape[1] != b.shape[0]:
                raise ValueError(f"layer {l}: weight/bias shapes {w.shape}/{b.shape} disagree")
            if l > 0 and self.layers[l - 1][0].shape[1] != w.shape[0]:
                raise ValueError(f"layer {l}: input width does not chain")

    @property
    def layer_dims(self) -> list[int]:
        return [self.layers[0][0].shape[0]] + [w.shape[1] for w, _ in self.layers]


def init_params(layer_dims, seed_or_rng) -> MLPParams:
    """Fan-in-scaled Gaussian weights (variance 2/fan_in), zero biases."""
    dims = [int(d) for d in layer_dims]
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ValueError(f"layer dims must be >= 1 with an input and output, got {dims}")
    rng = seed_or_rng if isinstance(seed_or_rng, np.random.Generator) \
        else derive_rng(seed_or_rng, "init")
    layers = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        w = rng.standard_normal((fan_in, fan_out)) * np.sqrt(2.0 / fan_in)
        layers.append((w, np.zeros(fan_out)))
    return MLPParams(layers)


def _forward_cached(params: MLPParams, x: np.ndarray):
    acts = [x]
    for w, b in params.layers[:-1]:
        acts.append(np.maximum(acts[-1] @ w + b, 0.0))
    w, b = params.layers[-1]
    return acts[-1] @ w + b, acts


def forward(params: MLPParams, x: np.ndarray) -> np.ndarray:
    """Logits for a single sample (d,) or a batch (N, d).

    Keeps no activations: each layer's bias add and rectifier run in place
    and the previous activation is dropped once it is used.
    """
    x = np.asarray(x, dtype=np.float64)
    h = np.atleast_2d(x)
    last = len(params.layers) - 1
    for l, (w, b) in enumerate(params.layers):
        h = h @ w
        h += b
        if l < last:
            np.maximum(h, 0.0, out=h)
    return h[0] if x.ndim == 1 else h


def _backward_cached(params: MLPParams, acts, grad_logits):
    grads = []
    delta = grad_logits
    for l in reversed(range(len(params.layers))):
        grads.append((acts[l].T @ delta, delta.sum(axis=0)))
        if l > 0:
            # relu mask: activation > 0 iff pre-activation > 0
            delta = (delta @ params.layers[l][0].T) * (acts[l] > 0.0)
    return grads[::-1]


def sgd_step(params: MLPParams, grads, state, lr: float, momentum: float,
             weight_decay: float):
    """In-place momentum update: v <- mu*v + g + wd*p; p <- p - lr*v."""
    if state is None:
        state = [(np.zeros_like(w), np.zeros_like(b)) for w, b in params.layers]
    for (w, b), (gw, gb), (vw, vb) in zip(params.layers, grads, state):
        vw *= momentum
        vw += gw + weight_decay * w
        w -= lr * vw
        vb *= momentum
        vb += gb + weight_decay * b
        b -= lr * vb
    return state


@dataclass(frozen=True)
class LRSchedule:
    """Linear warmup to the base rate, then multiplicative step decays."""

    base: float
    warmup_steps: int = 0
    decay_steps: tuple[int, ...] = ()
    decay_factor: float = 0.01

    def at(self, step: int) -> float:
        lr = self.base
        if self.warmup_steps > 0 and step < self.warmup_steps:
            lr *= (step + 1) / self.warmup_steps
        for d in self.decay_steps:
            if step >= d:
                lr *= self.decay_factor
        return lr

    @staticmethod
    def scaled(base: float, total_steps: int) -> "LRSchedule":
        """Default shape: 2.5% warmup, x0.01 decays at 80% and 90% of the run."""
        return LRSchedule(
            base=base,
            warmup_steps=int(round(0.025 * total_steps)),
            decay_steps=(int(0.8 * total_steps), int(0.9 * total_steps)),
            decay_factor=0.01,
        )


@dataclass(frozen=True, eq=False)
class TrainConfig:
    t1_steps: int
    t2_steps: int
    batch_size: int
    lr: LRSchedule
    mix: MixConfig
    loss: LossSpec
    seed: int
    momentum: float = 0.9
    weight_decay: float = 2e-4
    hidden_dims: tuple[int, ...] = (64, 64)

    def __post_init__(self):
        if not 0 <= self.t1_steps <= self.t2_steps:
            raise ValueError("need 0 <= t1_steps <= t2_steps")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")


def train_two_phase(ds: Dataset, cfg: TrainConfig):
    """Run the two-phase pipeline; returns (params, log rows (step, phase, loss, lr)).

    Phase 1 (steps 0..T1): mixed batches from the random and pair
    samplers. Phase 2 (T1..T2): plain random batches. A non-finite batch
    loss aborts the run.
    """
    if ds.num_samples == 0:
        raise ValueError("dataset is empty")
    prior = empirical_prior(ds)
    pair_prior = inverse_prior(prior, cfg.mix.pair_tau)
    params = init_params([ds.dims, *cfg.hidden_dims, ds.num_classes],
                         derive_rng(cfg.seed, "init"))
    rng_batch = derive_rng(cfg.seed, "sampler", 0)
    rng_pair = derive_rng(cfg.seed, "sampler", 1)
    rng_mix = derive_rng(cfg.seed, "mix")
    state = None
    log: list[tuple[int, int, float, float]] = []
    n = cfg.batch_size
    for step in range(cfg.t2_steps):
        lr = cfg.lr.at(step)
        if step < cfg.t1_steps:
            x, y_i, y_j, xi = mix_batch(ds, prior, pair_prior, cfg.mix, n,
                                        rng_batch, rng_pair, rng_mix)
            logits, acts = _forward_cached(params, x)
            losses = xi * batch_loss(cfg.loss, logits, y_i) \
                + (1.0 - xi) * batch_loss(cfg.loss, logits, y_j)
            grad_logits = (xi[:, None] * batch_grad(cfg.loss, logits, y_i)
                           + (1.0 - xi)[:, None] * batch_grad(cfg.loss, logits, y_j)) / n
            phase = 1
        else:
            x, y = draw_batch(ds, prior, n, rng_batch)
            logits, acts = _forward_cached(params, x)
            losses = batch_loss(cfg.loss, logits, y)
            grad_logits = batch_grad(cfg.loss, logits, y) / n
            phase = 2
        loss_val = float(losses.mean())
        if not np.isfinite(loss_val):
            raise InvariantViolation(f"non-finite loss {loss_val} at step {step}")
        grads = _backward_cached(params, acts, grad_logits)
        state = sgd_step(params, grads, state, lr, cfg.momentum, cfg.weight_decay)
        log.append((step, phase, loss_val, lr))
    return params, log


def predict_proba(params: MLPParams, x: np.ndarray) -> np.ndarray:
    """Raw softmax probabilities; margins are never applied at inference.

    The logits are normalised in place with the arithmetic of
    `losses.softmax`, so the result is the only N x C array.
    """
    z = forward(params, x)
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def save_model(params: MLPParams, path) -> None:
    payload = {
        "layer_dims": params.layer_dims,
        "layers": [{"w": w.ravel().tolist(), "b": b.tolist()} for w, b in params.layers],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_model(path) -> MLPParams:
    """Read a model written by `save_model`; a malformed file raises ValueError."""
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or not {"layer_dims", "layers"} <= payload.keys():
        raise ValueError(f"{path}: a model needs 'layer_dims' and 'layers'")
    dims, records = payload["layer_dims"], payload["layers"]
    if (not isinstance(dims, list) or len(dims) < 2
            or not all(type(d) is int and d >= 1 for d in dims)):
        raise ValueError(f"{path}: layer_dims must list at least two positive widths")
    if not isinstance(records, list) or len(records) != len(dims) - 1:
        raise ValueError(f"{path}: layer_dims {dims} needs {len(dims) - 1} layers")
    layers = []
    for l, (fan_in, fan_out, rec) in enumerate(zip(dims[:-1], dims[1:], records)):
        if not isinstance(rec, dict) or not {"w", "b"} <= rec.keys():
            raise ValueError(f"{path}: layer {l} needs 'w' and 'b'")
        w = np.asarray(rec["w"], dtype=np.float64)
        b = np.asarray(rec["b"], dtype=np.float64)
        if w.size != fan_in * fan_out or b.shape != (fan_out,):
            raise ValueError(f"{path}: layer {l} needs {fan_in * fan_out} weights "
                             f"and {fan_out} biases")
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ValueError(f"{path}: layer {l} has non-finite parameters")
        layers.append((w.reshape(fan_in, fan_out), b))
    return MLPParams(layers)
