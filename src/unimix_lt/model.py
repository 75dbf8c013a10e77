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
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, empirical_prior
from .errors import InvariantViolation
from .losses import LossSpec, batch_grad, batch_loss, softmax
from .mixing import MixConfig, mix_batch
from .sampling import draw_batch, inverse_prior
from .streams import derive_rng

__all__ = [
    "MLPParams",
    "TrainConfig",
    "init_params",
    "forward",
    "sgd_step",
    "train_two_phase",
    "predict_proba",
    "save_model",
    "load_model",
]

PREDICT_BLOCK = 2048  # rows per block of `predict_proba`


@dataclass(eq=False)
class MLPParams:
    """Dense rectifier network: (weights, bias) per layer, logits last.

    Every weight and bias lives in one float64 vector `flat`: layer 0's
    weights row by row, then its bias, then layer 1's, and so on. The
    constructor copies the given layers into a new `flat`, and `layers`
    holds (weights, bias) views into it, so an in-place update of either
    is seen by both.
    """

    layers: list[tuple[np.ndarray, np.ndarray]]
    flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not self.layers:
            raise ValueError("network needs at least one layer")
        for l, (w, b) in enumerate(self.layers):
            if w.ndim != 2 or b.ndim != 1 or w.shape[1] != b.shape[0]:
                raise ValueError(f"layer {l}: weight/bias shapes {w.shape}/{b.shape} disagree")
            if l > 0 and self.layers[l - 1][0].shape[1] != w.shape[0]:
                raise ValueError(f"layer {l}: input width does not chain")
        self.flat = np.concatenate([a.ravel() for layer in self.layers for a in layer],
                                   dtype=np.float64)
        views, at = [], 0
        for w, b in self.layers:
            views.append((self.flat[at:at + w.size].reshape(w.shape),
                          self.flat[at + w.size:at + w.size + b.size]))
            at += w.size + b.size
        self.layers = views

    @property
    def layer_dims(self) -> list[int]:
        return [self.layers[0][0].shape[0]] + [w.shape[1] for w, _ in self.layers]

    def zeros_like(self) -> MLPParams:
        """A network of zeros with this layout, e.g. a gradient buffer."""
        return MLPParams([(np.zeros_like(w), np.zeros_like(b)) for w, b in self.layers])


def init_params(layer_dims, rng: np.random.Generator) -> MLPParams:
    """Fan-in-scaled Gaussian weights (variance 2/fan_in), zero biases."""
    dims = [int(d) for d in layer_dims]
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ValueError(f"layer dims must be >= 1 with an input and output, got {dims}")
    layers = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        w = rng.standard_normal((fan_in, fan_out)) * np.sqrt(2.0 / fan_in)
        layers.append((w, np.zeros(fan_out)))
    return MLPParams(layers)


def _forward_cached(params: MLPParams, x: np.ndarray):
    """Logits of a batch and the input of every layer, for `_backward_cached`."""
    acts = [x]
    last = len(params.layers) - 1
    for l, (w, b) in enumerate(params.layers):
        h = acts[-1] @ w
        h += b
        if l == last:
            return h, acts
        np.maximum(h, 0.0, out=h)
        acts.append(h)


def forward(params: MLPParams, x: np.ndarray) -> np.ndarray:
    """Logits (N, C) of a batch (N, d): the trainer's forward pass, whose
    hidden activations are dropped on return."""
    return _forward_cached(params, x)[0]


def _backward_cached(params: MLPParams, acts, grad_logits, grads: MLPParams) -> MLPParams:
    """Parameter gradients for d loss / d logits, written into `grads`
    (a buffer with the layout of `params`), which is returned."""
    delta = grad_logits
    for l in reversed(range(len(params.layers))):
        gw, gb = grads.layers[l]
        np.matmul(acts[l].T, delta, out=gw)
        delta.sum(axis=0, out=gb)
        if l > 0:
            delta = delta @ params.layers[l][0].T
            delta *= acts[l] > 0.0  # relu mask: activation > 0 iff pre-activation > 0
    return grads


def sgd_step(params: MLPParams, grad: np.ndarray, velocity: np.ndarray, lr: float,
             momentum: float, weight_decay: float) -> None:
    """In-place momentum update of `params.flat` and `velocity`:
    v <- mu*v + g + wd*p; p <- p - lr*v.

    `grad` and `velocity` are flat vectors with the layout of `params.flat`;
    the velocity starts at zero.
    """
    velocity *= momentum
    velocity += grad + weight_decay * params.flat
    params.flat -= lr * velocity


@dataclass(frozen=True, eq=False)
class TrainConfig:
    """A two-phase run: mixed batches before step `t1_steps`, plain ones up to
    `t2_steps`. `lr` is the base learning rate; `lr_at` gives each step's."""

    t1_steps: int
    t2_steps: int
    batch_size: int
    lr: float
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

    def lr_at(self, step: int) -> float:
        """The base rate, warmed up linearly over the first 2.5% of `t2_steps`,
        then multiplied by 0.01 from 80% and again from 90% of them."""
        lr = self.lr
        warmup = int(round(0.025 * self.t2_steps))
        if step < warmup:
            lr *= (step + 1) / warmup
        for decay in (int(0.8 * self.t2_steps), int(0.9 * self.t2_steps)):
            if step >= decay:
                lr *= 0.01
        return lr


def train_two_phase(ds: Dataset, cfg: TrainConfig):
    """Run the two-phase pipeline; returns (params, log rows (step, phase, loss, lr)).

    Phase 1 (steps 0..T1): mixed batches from the random and pair
    samplers. Phase 2 (T1..T2): plain random batches. A non-finite batch
    loss, or a non-finite parameter after any update, aborts the run.
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
    grads = params.zeros_like()
    velocity = np.zeros_like(params.flat)
    log: list[tuple[int, int, float, float]] = []
    n = cfg.batch_size
    for step in range(cfg.t2_steps):
        lr = cfg.lr_at(step)
        if step < cfg.t1_steps:
            x, y_i, y_j, xi = mix_batch(ds, prior, pair_prior, cfg.mix, n,
                                        rng_batch, rng_pair, rng_mix)
            xj = 1.0 - xi
            logits, acts = _forward_cached(params, x)
            losses = xi * batch_loss(cfg.loss, logits, y_i) \
                + xj * batch_loss(cfg.loss, logits, y_j)
            grad_logits = batch_grad(cfg.loss, logits, y_i)
            grad_logits *= xi[:, None]
            grad_j = batch_grad(cfg.loss, logits, y_j)
            grad_j *= xj[:, None]
            grad_logits += grad_j
            phase = 1
        else:
            x, y = draw_batch(ds, prior, n, rng_batch)
            logits, acts = _forward_cached(params, x)
            losses = batch_loss(cfg.loss, logits, y)
            grad_logits = batch_grad(cfg.loss, logits, y)
            phase = 2
        grad_logits /= n
        loss_val = float(losses.mean())
        if not np.isfinite(loss_val):
            raise InvariantViolation(f"non-finite loss {loss_val} at step {step}")
        _backward_cached(params, acts, grad_logits, grads)
        sgd_step(params, grads.flat, velocity, lr, cfg.momentum, cfg.weight_decay)
        if not np.isfinite(params.flat).all():
            raise InvariantViolation(f"non-finite parameters after {step + 1} steps")
        log.append((step, phase, loss_val, lr))
    return params, log


def predict_proba(params: MLPParams, x: np.ndarray) -> np.ndarray:
    """Raw softmax probabilities (N, C) of a batch (N, d); margins are never
    applied at inference.

    Blocks of PREDICT_BLOCK rows go through `forward` and `losses.softmax`
    into the one (N, C) result. The last block takes the remainder, since
    BLAS may round a product of a few rows differently (OpenBLAS has a
    small-matrix kernel). With blocks of at least PREDICT_BLOCK rows the
    result equals the whole-batch computation bit for bit on OpenBLAS
    0.3.31 (x86-64), the only BLAS this was measured on.
    """
    n = x.shape[0]
    out = np.empty((n, params.layer_dims[-1]))
    stops = [*range(PREDICT_BLOCK, n - PREDICT_BLOCK + 1, PREDICT_BLOCK), n]
    for lo, hi in zip([0, *stops], stops):
        out[lo:hi] = softmax(forward(params, x[lo:hi]))
    return out


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
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None
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
        w, b = rec["w"], rec["b"]
        if not (isinstance(w, list) and isinstance(b, list) and len(w) == fan_in * fan_out
                and len(b) == fan_out and all(type(v) in (int, float) for v in w + b)):
            raise ValueError(f"{path}: layer {l} needs {fan_in * fan_out} weights "
                             f"and {fan_out} biases, each a JSON number")
        try:
            wb = np.array(w + b, dtype=np.float64)
        except OverflowError:  # an integer literal beyond the float range
            wb = np.array([np.inf])
        if not np.isfinite(wb).all():
            raise ValueError(f"{path}: layer {l} has non-finite parameters")
        layers.append((wb[:-fan_out].reshape(fan_in, fan_out), wb[-fan_out:]))
    return MLPParams(layers)
