"""Decision-boundary study on the two-disjoint-circles binary set.

A linear softmax classifier (no hidden layer, trained with the shared
pipeline) is fit under four scenarios: balanced data, imbalanced data,
imbalanced data with plain beta mixing, and imbalanced data with the
prior-aware factor plus inverse pair sampling. Because the two disks are
reflections of each other through the origin, the ideal boundary passes
through the origin with normal parallel to the positive-disk center
(y = -x for the default center (2, 2)).

Deviation from ideal is summarized by `BoundaryResult.deviation`,
angle_error_deg + 10 * |offset at origin|, which ranks scenarios;
circles-demo's boundary.csv reports the two raw components, not the score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, TwoCircleSpec, empirical_prior, gen_two_circles
from .losses import LossSpec
from .mixing import MixConfig, mix_batch, reinforced_class
from .model import TrainConfig, train_two_phase
from .streams import derive_rng

__all__ = ["SCENARIOS", "BoundaryResult", "scenario_data", "run_circles", "virtual_cloud"]

SCENARIOS = ("balanced", "imbalanced", "mixup", "unimix")


@dataclass(frozen=True)
class BoundaryResult:
    scenario: str
    weight: tuple[float, float]
    bias: float
    angle_error_deg: float
    offset: float

    def __post_init__(self):
        if not 0.0 <= self.angle_error_deg <= 90.0:
            raise ValueError("angle error must lie in [0, 90] degrees")

    @property
    def deviation(self) -> float:
        """Single ranking score: angle error plus 10x the origin offset."""
        return self.angle_error_deg + 10.0 * abs(self.offset)


# scenario -> (mixing, share of the steps trained on mixed batches)
_SCENARIO_MIX = {
    "balanced": (MixConfig(alpha=1.0, mode="vanilla_mixup", tau=1.0), 0.0),
    "imbalanced": (MixConfig(alpha=1.0, mode="vanilla_mixup", tau=1.0), 0.0),
    "mixup": (MixConfig(alpha=1.0, mode="vanilla_mixup", tau=1.0), 0.9),
    "unimix": (MixConfig(alpha=0.5, mode="unimix_full", tau=-1.0), 0.9),
}


def _scenario_mix(scenario: str) -> tuple[MixConfig, float]:
    if scenario not in _SCENARIO_MIX:
        raise ValueError(f"scenario must be one of {SCENARIOS}, got {scenario!r}")
    return _SCENARIO_MIX[scenario]


def _scenario_config(scenario: str, seed: int, steps: int, batch_size: int,
                     lr: float) -> TrainConfig:
    mix, mixed_share = _scenario_mix(scenario)
    t1 = int(round(mixed_share * steps))
    return TrainConfig(
        t1_steps=t1,
        t2_steps=steps,
        batch_size=batch_size,
        lr=lr,
        mix=mix,
        loss=LossSpec(kind="ce"),
        seed=seed,
        hidden_dims=(),
    )


def _boundary(params, center) -> tuple[np.ndarray, float, float, float]:
    (w, b) = params.layers[0]
    normal = w[:, 0] - w[:, 1]  # points toward the positive-class side
    bias = float(b[0] - b[1])
    norm = float(np.linalg.norm(normal))
    ideal = np.asarray(center, dtype=np.float64)
    ideal /= np.linalg.norm(ideal)
    cos = abs(float(normal @ ideal)) / norm
    angle = math.degrees(math.acos(min(1.0, max(-1.0, cos))))
    offset = bias / norm
    return normal, bias, angle, offset


def scenario_data(spec: TwoCircleSpec, scenario: str) -> Dataset:
    """The scenario's training set: `spec`, with n_neg = n_pos if balanced."""
    return gen_two_circles(replace(spec, n_neg=spec.n_pos) if scenario == "balanced" else spec)


# Defaults of `run_circles`, and through it of the circles-demo command's flags.
DEFAULT_STEPS = 400
DEFAULT_BATCH_SIZE = 64
DEFAULT_LR = 0.5


def run_circles(spec: TwoCircleSpec, scenario: str, ds: Dataset, steps: int = DEFAULT_STEPS,
                batch_size: int = DEFAULT_BATCH_SIZE, lr: float = DEFAULT_LR) -> BoundaryResult:
    """Train one scenario on `ds`, its training set `scenario_data(spec, scenario)`,
    and measure the boundary against the ideal one."""
    cfg = _scenario_config(scenario, spec.seed, steps, batch_size, lr)
    params, _ = train_two_phase(ds, cfg)
    normal, bias, angle, offset = _boundary(params, spec.center)
    return BoundaryResult(scenario, (float(normal[0]), float(normal[1])), bias, angle, offset)


def virtual_cloud(ds: Dataset, scenario: str, num_points: int, seed: int) -> np.ndarray:
    """Mixed virtual points (x, y, reinforced label) for scatter plots."""
    if num_points < 0:
        raise ValueError(f"num_points must be >= 0, got {num_points}")
    mix, mixed_share = _scenario_mix(scenario)
    if not mixed_share:
        return np.empty((0, 3))
    prior = empirical_prior(ds)
    rng = derive_rng(seed, "cloud")
    mixed, y_i, y_j, xi = mix_batch(ds, prior, mix.pair_prior(prior), mix,
                                    num_points, rng, rng, rng)
    labels = reinforced_class(y_i, y_j, xi)
    return np.column_stack([mixed, labels.astype(np.float64)])
