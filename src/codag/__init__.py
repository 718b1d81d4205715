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
