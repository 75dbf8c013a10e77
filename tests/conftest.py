import csv
from decimal import Decimal, localcontext
from types import SimpleNamespace

import numpy as np
import pytest

from unimix_lt.data import empirical_prior
from unimix_lt.losses import bayias_margin, softmax
from unimix_lt.mixing import sample_beta
from unimix_lt.model import _backward_cached, _forward_cached
from unimix_lt.sampling import class_table, draw_batch, draw_classes, inverse_prior
from unimix_lt.streams import derive_rng
from unimix_lt.theory import check_prior


def _per_sample_draw_batch(ds, prior, batch_size, rng):
    """The per-sample loop `draw_batch` ran before the class-sorted index."""
    p = check_prior(prior)
    if batch_size == 0:
        return np.empty((0, ds.dims)), np.empty(0, dtype=np.int64)
    classes = draw_classes(class_table(p, batch_size), batch_size, rng)
    picks = np.empty(batch_size, dtype=np.int64)
    offsets = rng.random(batch_size)
    for i, k in enumerate(classes):
        members = np.flatnonzero(ds.labels == k)
        picks[i] = members[int(offsets[i] * members.size)]
    return ds.features[picks], ds.labels[picks]


@pytest.fixture
def per_sample_draw_batch():
    """Oracle for `sampling.draw_batch`: same signature, same stream use."""
    return _per_sample_draw_batch


def _cyclic_shift(xi, c):
    """frac(xi + c) on [0, 1) as `np.where` picks it; c = 0 returns xi bit for bit."""
    out = xi + c
    return np.where(out >= 1.0, out - 1.0, out)


def _unimix_factor(pi_i, pi_j, alpha, rng):
    """Prior-aware mixing weights of pairs with priors (pi_i, pi_j), one Beta
    draw per pair: `mixing._factor` before it worked in place."""
    if (pi_i <= 0).any() or (pi_j <= 0).any():
        raise ValueError("pair priors must be strictly positive")
    c = pi_j / (pi_i + pi_j)
    return _cyclic_shift(sample_beta(alpha, rng, size=c.shape), c)


@pytest.fixture
def cyclic_shift():
    """Oracle for the in-place shift of `mixing._factor`."""
    return _cyclic_shift


@pytest.fixture
def unimix_factor():
    """Oracle for the prior-aware weights of `mixing._factor`: same stream use."""
    return _unimix_factor


def _whole_array_mc_chunk(prior, pair_prior, config, trials, rngs):
    """`mixing._mc_chunk` before blocking: whole `trials`-long arrays, one
    generator each for the first members, the second members and the factors.

    Classes come from `np.searchsorted` on the cumulative edges, as
    `draw_classes` drew them before its guide table.
    """
    rng_i, rng_j, rng_mix = rngs

    def classes(p, rng):
        edges = np.cumsum(p)
        edges[-1] = 1.0
        return np.searchsorted(edges, rng.random(trials), side="right")

    y_i = classes(prior, rng_i)
    y_j = classes(pair_prior, rng_j)
    if config.mode == "vanilla_mixup":
        xi = sample_beta(config.alpha, rng_mix, size=trials)
    else:
        xi = _unimix_factor(prior[y_i], prior[y_j], config.alpha, rng_mix)
    return np.bincount(np.where(xi >= 0.5, y_i, y_j), minlength=prior.shape[0])


@pytest.fixture
def whole_array_mc_chunk():
    """Oracle for `mixing._mc_chunk` on the per-draw path: same counts."""
    return _whole_array_mc_chunk


_GRID = 2**53  # `rng.random` draws m / 2^53 for a grid index m in [0, 2^53)


def _grid_thresholds(config, prior):
    """Entry [l, i, j] is the least grid index m in [0, 2^53] with
    fl(T(m / 2^53) + c_ij) >= level l, T the map `sample_beta` applies to
    each `rng.random` draw: the raw draw m / 2^53 at which pair (i, j)'s
    weight first reaches the level, 2^53 where no draw does.

    The factor modes take c_ij as `mixing._factor` computes it and the levels
    1/2, 1 and 3/2; vanilla mode takes c = 0 and the level 1/2 alone. Each
    entry is bisected over the whole grid, in 54 steps, which takes
    fl(T(v) + c) non-decreasing in v.
    """
    classes = prior.shape[0]
    if config.mode == "vanilla_mixup":
        levels, c = [0.5], np.zeros((classes, classes))
    else:
        levels, c = [0.5, 1.0, 1.5], prior[None, :] / (prior[:, None] + prior[None, :])
    level = np.reshape(levels, (-1, 1, 1))
    # lo = -1 reaches no level and hi = 2^53 every one; only indices between are drawn
    lo = np.full((len(levels), classes, classes), -1, dtype=np.int64)
    hi = np.full(lo.shape, _GRID, dtype=np.int64)
    while (open_ := hi - lo > 1).any():
        mid = lo + (hi - lo) // 2
        draws = SimpleNamespace(random=lambda size: mid * 2.0**-53)
        up = sample_beta(config.alpha, draws, mid.shape) + c >= level
        np.copyto(hi, mid, where=open_ & up)
        np.copyto(lo, mid, where=open_ & ~up)
    return hi


@pytest.fixture
def grid_thresholds():
    """Oracle for where the factor's `>= 0.5` flips on `rng.random`'s grid."""
    return _grid_thresholds


def _grid_win_probs(thresholds):
    """Per (i, j) cell, the share of `rng.random`'s grid {m / 2^53} that
    reaches an odd number of the cell's `_grid_thresholds` indices, in Python
    integers: the number of indices a point m reaches steps by one at each
    sorted index, and an index 2^53 is reached by no point.
    """
    probs = np.empty(thresholds.shape[1:])
    for cell in np.ndindex(probs.shape):
        edges = sorted(int(m) for m in thresholds[(slice(None), *cell)])
        edges.append(_GRID)
        probs[cell] = sum(b - a for a, b in zip(edges[::2], edges[1::2])) / _GRID
    return probs


@pytest.fixture
def grid_win_probs():
    """Oracle for the chance that a pair's first member wins, counted on the grid."""
    return _grid_win_probs


def _exact_law_chunk(law, trials, rngs):
    """`mixing._mc_chunk` on the threshold-table path, written out: the counts
    of `trials` i.i.d. pairs as one multinomial draw by rng_i over the law q
    of one pair's reinforced class, renormalized and cut after its last
    class with mass.
    """
    top = np.flatnonzero(law)[-1] + 1
    counts = np.zeros(law.shape, dtype=np.int64)
    counts[:top] = rngs[0].multinomial(trials, law[:top] / law[:top].sum())
    return counts


@pytest.fixture
def exact_law_chunk():
    """Oracle for `mixing._mc_chunk` on the threshold-table path: same counts."""
    return _exact_law_chunk


def _nll(u, y):
    m = u.max(axis=-1, keepdims=True)
    lse = (m + np.log(np.exp(u - m).sum(axis=-1, keepdims=True)))[..., 0]
    return lse - np.take_along_axis(u, np.asarray(y)[:, None], axis=-1)[:, 0]


def _chain_margin(spec):
    return spec.la_tau * bayias_margin(spec.prior, spec.target_prior)


def _chain_counts(spec):
    return np.asarray(spec.class_counts, dtype=np.float64)


def _if_chain_batch_loss(spec, z, y):
    """`losses.batch_loss` as one branch per loss kind, before the shared path."""
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    y = np.atleast_1d(np.asarray(y, dtype=np.int64))
    if spec.kind == "ce":
        return _nll(z, y)
    if spec.kind == "bayias_ce":
        return _nll(z + _chain_margin(spec), y)
    if spec.kind == "focal":
        nll = _nll(z, y)
        if spec.gamma == 0.0:
            return nll
        return (1.0 - np.exp(-nll)) ** spec.gamma * nll
    if spec.kind == "cb":
        w = (1.0 - spec.beta) / (1.0 - spec.beta**_chain_counts(spec))
        return w[y] * _nll(z, y)
    if spec.kind == "cdt":
        counts = _chain_counts(spec)
        return _nll(z / (counts.max() / counts) ** spec.gamma, y)
    if spec.kind == "ldam":
        u = z.copy()
        u[np.arange(u.shape[0]), y] -= (spec.ldam_c / _chain_counts(spec)**0.25)[y]
        return _nll(u, y)
    raise AssertionError(spec.kind)


def _if_chain_batch_grad(spec, z, y):
    """`losses.batch_grad` as one branch per loss kind, before the shared path."""
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    y = np.atleast_1d(np.asarray(y, dtype=np.int64))
    rows = np.arange(z.shape[0])
    onehot = np.zeros_like(z)
    onehot[rows, y] = 1.0
    if spec.kind == "ce":
        return softmax(z) - onehot
    if spec.kind == "bayias_ce":
        return softmax(z + _chain_margin(spec)) - onehot
    if spec.kind == "focal":
        if spec.gamma == 0.0:
            return softmax(z) - onehot
        p = softmax(z)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_p = np.log(np.take_along_axis(p, y[:, None], axis=1)[:, 0])
            p_y = np.exp(log_p)
            coef = spec.gamma * (1.0 - p_y) ** (spec.gamma - 1.0) * p_y * log_p \
                - (1.0 - p_y) ** spec.gamma
        return coef[:, None] * (onehot - p)
    if spec.kind == "cb":
        w = (1.0 - spec.beta) / (1.0 - spec.beta**_chain_counts(spec))
        return w[y][:, None] * (softmax(z) - onehot)
    if spec.kind == "cdt":
        counts = _chain_counts(spec)
        scale = (counts.max() / counts) ** spec.gamma
        return (softmax(z / scale) - onehot) / scale
    if spec.kind == "ldam":
        u = z.copy()
        u[rows, y] -= (spec.ldam_c / _chain_counts(spec)**0.25)[y]
        return softmax(u) - onehot
    raise AssertionError(spec.kind)


@pytest.fixture
def if_chain_losses():
    """Oracle for `batch_loss`/`batch_grad`: (loss, grad) written per kind.

    The focal gradient keeps its old NaN where p_y rounds to 0 or 1.
    """
    return _if_chain_batch_loss, _if_chain_batch_grad


def _bayias_ce_pairwise(z, y, margins):
    """Pairwise form log(1 + sum_{k != y} e^(dm_k + dz_k)) of the margin loss
    -log softmax(z + margins)_y, for one logit vector."""
    z = np.asarray(z, dtype=np.float64)
    m = np.asarray(margins, dtype=np.float64)
    diffs = (z + m) - (z[y] + m[y])
    others = np.delete(diffs, y)
    return float(np.log1p(np.exp(others).sum()))


@pytest.fixture
def bayias_ce_pairwise():
    """Oracle for `batch_loss` of a margin loss: (z, y, margins) -> loss."""
    return _bayias_ce_pairwise


def _backward(params, x, grad_logits):
    """Parameter gradients of a batch for d loss / d logits: the cached
    forward pass, then the backward pass into a fresh buffer, as the
    trainer runs them."""
    _, acts = _forward_cached(params, x)
    return _backward_cached(params, acts, grad_logits, params.zeros_like()).layers


@pytest.fixture
def backward():
    """(params, x, grad_logits) -> per-layer (weight, bias) gradients."""
    return _backward


def _allocating_forward_cached(params, x):
    """`model._forward_cached` before its in-place bias add and rectifier."""
    acts = [x]
    for w, b in params.layers[:-1]:
        acts.append(np.maximum(acts[-1] @ w + b, 0.0))
    w, b = params.layers[-1]
    return acts[-1] @ w + b, acts


def _allocating_backward_cached(params, acts, grad_logits):
    """`model._backward_cached` before its gradient buffer: a new
    (weight, bias) pair per layer."""
    grads = []
    delta = grad_logits
    for l in reversed(range(len(params.layers))):
        grads.append((acts[l].T @ delta, delta.sum(axis=0)))
        if l > 0:
            delta = (delta @ params.layers[l][0].T) * (acts[l] > 0.0)
    return grads[::-1]


def _per_layer_sgd_step(params, grads, state, lr, momentum, weight_decay):
    """`model.sgd_step` before the flat vectors: one update per weight and bias."""
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


@pytest.fixture
def per_layer_model():
    """Oracle for one training step: (forward_cached, backward_cached, sgd_step)
    with the allocating, per-layer arithmetic the flat buffers replaced.

    Each works on any object whose `layers` lists (weight, bias) arrays.
    """
    return _allocating_forward_cached, _allocating_backward_cached, _per_layer_sgd_step


def _inline_virtual_cloud(ds, scenario, num_points, seed):
    """`circles.virtual_cloud` with its mixing written out, before `mix_batch`."""
    if scenario not in ("mixup", "unimix"):
        return np.empty((0, 3))
    prior = empirical_prior(ds)
    rng = derive_rng(seed, "cloud")
    if scenario == "mixup":
        pair_prior, alpha = prior, 1.0
    else:
        pair_prior, alpha = inverse_prior(prior, -1.0), 0.5
    x_i, y_i = draw_batch(ds, prior, num_points, rng)
    x_j, y_j = draw_batch(ds, pair_prior, num_points, rng)
    if scenario == "mixup":
        xi = sample_beta(alpha, rng, size=num_points)
    else:
        xi = _unimix_factor(prior[y_i], prior[y_j], alpha, rng)
    mixed = xi[:, None] * x_i + (1.0 - xi)[:, None] * x_j
    labels = np.where(xi >= 0.5, y_i, y_j)
    return np.column_stack([mixed, labels.astype(np.float64)])


@pytest.fixture
def inline_virtual_cloud():
    """Oracle for `circles.virtual_cloud`: same signature, same stream use."""
    return _inline_virtual_cloud


def _csv_writer_save_csv(ds, path):
    """`data.save_csv` as first written: one `csv.writer` row per sample."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(ds.dims)] + ["label"])
        for row, label in zip(ds.features, ds.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])


@pytest.fixture
def csv_writer_save_csv():
    """Byte-equality oracle for `data.save_csv`: same signature, same file."""
    return _csv_writer_save_csv


def _closed_form_law(kind, y, spec):
    """Curve `kind` of `theory.CURVE_KINDS` at class indices `y` for `spec`
    (rho > 1, and tau != 0 for the full curve), from the paper's unshifted
    exponentials in 50-digit decimal arithmetic, so it shares no float64 step
    with the head-shifted forms of `theory`."""
    with localcontext() as ctx:
        ctx.prec = 50
        c = spec.num_classes
        lam = Decimal(spec.rho).ln() / (c - 1)
        tau = Decimal(1.0 if kind == "unimix_factor" else spec.tau)  # random pairing: 1

        def e(x):
            return (-x).exp()

        if kind in ("original", "mixup"):
            scale, law = lam / (e(lam) - e(lam * c)), lambda t: e(lam * t)
        else:  # one over the law's integral over [1, C], term by term
            first = c - 1 if tau == -1 else (e(lam * (tau + 1)) - e(lam * c * (tau + 1))) / (
                lam * (tau + 1))
            scale = 1 / (first - e(lam * tau) * (e(lam) - e(lam * c)) / lam)
            law = lambda t: e(lam * t * (tau + 1)) - e(lam * (tau + t))
        return np.array([float(scale * law(Decimal(t))) for t in np.atleast_1d(y).tolist()])


@pytest.fixture
def closed_form_law():
    """Oracle for the curves of `theory.emit_density_curves`: (kind, y, spec) -> density."""
    return _closed_form_law
