"""Source-free adaptation of the DA model to the current target domain.

Starts from the previous generalization model, freezes the classifier head,
and updates only the feature extractor with an information-maximization
objective plus cross-entropy against self-supervised centroid pseudo-labels,
in ``nnmodel.train_epochs`` (phase ``PHASE_ADAPT``). The adapted model then
exports argmax pseudo-labels for the DG model.
"""

import numpy as np

from .data import Dataset
from .nnmodel import (
    ClassifierParams,
    EpochConfig,
    features,  # noqa: F401  (unused here; perfbench's span wrappers look it up in this module)
    features_and_logits,
    forward,
    gradient,
    log_softmax,
    softmax,
    train_epochs,
)

PHASE_ADAPT = "adaptation"
PL_WEIGHT = 0.3  # of the centroid pseudo-label term, against an IM weight of 1 (SHOT's beta)
PL_REFRESH_EPOCHS = 5  # epochs between centroid refreshes


def _cosine_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    an = a / np.maximum(np.linalg.norm(a, axis=1, keepdims=True), 1e-12)
    bn = b / np.maximum(np.linalg.norm(b, axis=1, keepdims=True), 1e-12)
    return 1.0 - an @ bn.T


def centroid_pseudo_labels(params: ClassifierParams, dataset: Dataset) -> np.ndarray:
    """Two-round nearest-centroid labels over extractor features.

    Round one weights features by softmax responsibility to seed per-class
    centroids; round two recomputes centroids from the hard assignment
    (empty classes keep their seed centroid) and re-assigns. Cosine distance,
    ties to the lowest class index.
    """
    feats, logits = features_and_logits(params, dataset.x)
    probs = softmax(logits)
    k = probs.shape[1]

    weight_sums = probs.sum(axis=0)
    seed_centroids = (probs.T @ feats) / (weight_sums[:, None] + 1e-8)
    labels = np.argmin(_cosine_distances(feats, seed_centroids), axis=1)

    onehot = np.eye(k)[labels]
    counts = onehot.sum(axis=0)
    centroids = (onehot.T @ feats) / (counts[:, None] + 1e-8)
    empty = counts == 0
    centroids[empty] = seed_centroids[empty]
    return np.argmin(_cosine_distances(feats, centroids), axis=1)


def _im_pl_logit_loss(pl_labels: np.ndarray):
    """Information maximization plus ``PL_WEIGHT`` times pseudo-label cross-entropy, on logits.

    The gradient is (p / n) * (-log p + <p, log p> - <p, log pbar> + log pbar)
    + PL_WEIGHT * (p - onehot(pl)) / n, each element evaluated in that order.
    """

    def loss_fn(logits):
        logp = log_softmax(logits)
        p = np.exp(logp)
        n, _ = p.shape
        flat = np.arange(0, p.size, p.shape[1]) + pl_labels

        rowdot = (p * logp).sum(axis=1)  # = -H(p_i)
        # add.reduce(a) / n is a.mean()'s arithmetic, without its Python wrapper.
        h_cond = float(-(np.add.reduce(rowdot) / n))
        pbar = np.add.reduce(p, axis=0) / n
        log_pbar = np.log(pbar)
        h_marg = float(-(pbar * log_pbar).sum())
        im = h_cond - h_marg
        cross = p @ log_pbar  # per-row sum_k p_ik log pbar_k
        p_n = p / n
        grad = np.negative(logp)
        grad += rowdot[:, None]
        grad -= cross[:, None]
        grad += log_pbar
        grad *= p_n

        ce = float(-(np.add.reduce(logp.ravel()[flat]) / n))
        d_ce = np.multiply(p_n, PL_WEIGHT, out=p_n)
        d_ce.ravel()[flat] = (p.ravel()[flat] - 1.0) / n * PL_WEIGHT
        grad += d_ce

        return im + PL_WEIGHT * ce, grad

    return loss_fn


def adapt_domain(dg_params: ClassifierParams, target, config: EpochConfig,
                 rng: np.random.Generator, on_epoch=None) -> ClassifierParams:
    """Adapt on unlabeled target data; the head stays bit-identical."""
    pl = None

    def epoch_setup(epoch, params, perm):
        nonlocal pl
        if epoch % PL_REFRESH_EPOCHS == 0:
            pl = centroid_pseudo_labels(params, target)
        xe, ple = target.x[perm], pl[perm]

        def batch_loss(rows):
            loss_fn = _im_pl_logit_loss(ple[rows])
            return gradient(loss_fn, params, xe[rows], freeze_head=True)

        return PHASE_ADAPT, batch_loss

    return train_epochs(dg_params, len(target), config, rng, epoch_setup, on_epoch)


def generate_pseudo_labels(da_params: ClassifierParams, target: Dataset) -> Dataset:
    """Argmax-of-softmax labels (ties to lowest index) over the target samples."""
    labels = softmax(forward(da_params, target.x)).argmax(axis=1)
    return Dataset(target.x, labels, target.k, target.domain_id)
