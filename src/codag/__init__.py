"""Continual domain-shift learning lab.

Two models trained in an interleaved loop over a sequence of label-free
target domains: one adapts to the current domain and exports pseudo-labels,
the other accumulates cross-domain generalization from those labels with
distillation and a replay buffer. Includes the evaluation protocol
(adaptation / generalization / forgetting accuracies and their composite),
naive single-model baselines, and ablations as plain config values.
"""

import os

# The layers are too narrow for a second BLAS thread to help; it only spins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"

from .adapt import adapt_domain, centroid_pseudo_labels, generate_pseudo_labels
from .augment import AugmentConfig, randmix
from .data import (
    Dataset,
    DomainSequence,
    HiddenLabelsError,
    SequenceConfig,
    load_csv_domain,
    split_source,
)
from .evaluate import accuracy, metrics_from_grids, sequence_metrics
from .generalize import (
    DGConfig,
    select_confident,
    train_dg_source,
    train_dg_target,
)
from .nnmodel import (
    CheckpointError,
    ClassifierParams,
    EpochConfig,
    ModelConfig,
    Sgd,
    features,
    forward,
    gradient,
    init_params,
    load_checkpoint,
    save_checkpoint,
    softmax,
)
from .orchestrate import (
    VARIANTS,
    ExperimentConfig,
    RunState,
    RunStateError,
    StageOrderError,
    config_digest,
    run_experiment,
    run_seed,
    run_stage,
)
from .replay import ReplayBuffer, herding_select, update_buffer
from .rng import RngStreams, substream
