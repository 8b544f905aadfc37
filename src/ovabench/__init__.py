"""ovabench: four probability heads for a small classifier, compared on
calibration, covariate shift, and out-of-distribution behavior."""

from .data import CorruptionSpec, Dataset, corrupt, gen_ood, gen_ring, ring_class_means, split
from .harness import (CenterReport, ExperimentConfig, LandscapeGrid, TrainingDiverged,
                      centers_report, evaluate, landscape, run_all, shift_sweep, train)
from .heads import (HeadKind, logit_gradient, logits, loss, loss_and_grads, predict,
                    probabilities)
from .metrics import (BoxplotStats, CalibrationTable, Predictions, RankingResult,
                      accuracy_vs_confidence, auroc_auprc, boxplot_stats,
                      confidence_histograms, ece, pca2, read_predictions,
                      write_predictions)
from .nncore import (ForwardTrace, ModelParams, backward, forward, gradient_check,
                     init_params, load_checkpoint, save_checkpoint, sgd_step)

__version__ = "0.1.0"
