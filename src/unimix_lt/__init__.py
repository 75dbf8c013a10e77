"""Prior-aware mixing and prior-compensated margins for long-tailed classification.

The package bundles: an exponential long-tailed class model with
closed-form mixed-sample densities, samplers and mixing factors that
rebalance virtual data toward the tail, margin-compensated cross-entropy
losses with analytic gradients, a small from-scratch MLP trainer, a full
calibration-metric suite, and a CLI that drives desk-scale experiments.
"""

from .calibration import evaluate_predictions
from .data import empirical_prior, gen_lt_gaussians
from .losses import LossSpec
from .mixing import MixConfig, mc_xi_aug_histogram
from .model import TrainConfig, predict_proba, train_two_phase
from .theory import LTSpec, discrete_lt_prior

__version__ = "0.1.0"
