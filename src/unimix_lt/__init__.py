"""Prior-aware mixing and prior-compensated margins for long-tailed classification.

The package bundles: an exponential long-tailed class model with
closed-form mixed-sample densities, samplers and mixing factors that
rebalance virtual data toward the tail, margin-compensated cross-entropy
losses with analytic gradients, a small from-scratch MLP trainer, a full
calibration-metric suite, and a CLI that drives desk-scale experiments.
"""

from .calibration import (CalibrationReport, EvalBatchStats, adaptive_calibration_error,
                          batch_density, brier, confusion_matrix, ece,
                          evaluate_predictions, mce, sce)
from .circles import SCENARIOS, BoundaryResult, run_all_scenarios, run_circles
from .data import (Dataset, TwoCircleSpec, empirical_prior, gen_lt_gaussians,
                   gen_two_circles, load_csv, save_csv)
from .errors import ConfigError, InvariantViolation
from .losses import (LossSpec, bayias_ce, bayias_ce_pairwise, bayias_margin, cb_loss,
                     cdt_loss, cross_entropy, focal_loss, la_loss, ldam_loss,
                     loss_grad, loss_value, mixed_vrm_loss, softmax)
from .mixing import (MixConfig, MixedSample, mc_xi_aug_histogram, mix_pair,
                     sample_beta, unimix_factor, xi_aug_class)
from .model import (LRSchedule, MLPParams, TrainConfig, backward, forward,
                    init_params, load_model, predict_proba, save_model, sgd_step,
                    train_two_phase)
from .sampling import draw_batch, draw_class, draw_classes, inverse_prior
from .streams import derive_rng
from .theory import (DensityCurve, LTSpec, continuous_lt_density, discrete_lt_prior,
                     emit_density_curves, factor_density, lambda_from_rho,
                     mixup_density, unimix_density)

__version__ = "0.1.0"
