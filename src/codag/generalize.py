"""Generalization-model training.

The source stage is plain ERM over augmented labeled batches. Target stages
continue from the previous parameters on pseudo-labeled data plus replay
entries, add a distillation term against the previous model, and guard
against pseudo-label noise with a three-phase schedule: negative learning on
everything, then negative learning on confident samples, then positive
(cross-entropy) learning on confident samples. Replayed source samples keep
plain cross-entropy throughout since their labels are clean.
"""

from dataclasses import dataclass

import numpy as np

from .augment import AugmentConfig, randmix
from .data import Dataset
from .nnmodel import ClassifierParams, Sgd, forward, gradient, log_softmax, softmax
from .rng import RngStreams

_SKIP, _CE, _NL = 0, 1, 2

PHASE_SOURCE = "source"
PHASE_NL = "nl"
PHASE_SELNL = "selnl"
PHASE_SELPL = "selpl"
PHASE_CE = "ce"


@dataclass
class PseudoLabeledDataset:
    """Target samples labeled by an adapted model, with prediction confidence."""

    x: np.ndarray
    pseudo_labels: np.ndarray
    confidences: np.ndarray
    k: int
    source_domain_id: int = 0

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.pseudo_labels = np.asarray(self.pseudo_labels, dtype=np.int64)
        self.confidences = np.asarray(self.confidences, dtype=np.float64)
        n = self.x.shape[0]
        if n == 0:
            raise ValueError("pseudo-labeled dataset must be nonempty")
        if self.pseudo_labels.shape != (n,) or self.confidences.shape != (n,):
            raise ValueError("pseudo labels and confidences must align with samples")
        if self.pseudo_labels.min() < 0 or self.pseudo_labels.max() >= self.k:
            raise ValueError(f"pseudo labels must lie in [0, {self.k})")
        if np.any(self.confidences <= 0) or np.any(self.confidences > 1):
            raise ValueError("confidences must lie in (0, 1]")

    def __len__(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True)
class DGConfig:
    epochs: int = 60
    lr: float = 0.01
    batch_size: int = 64
    alpha: float = 1.0  # distillation weight
    selnlpl: bool = True
    nl_epoch_fraction: float = 0.25
    selnl_epoch_fraction: float | None = None  # None: same length as the NL phase
    pl_conf_threshold: float = 0.5
    nl_conf_floor: float | None = None  # None: 1/K
    clip_eps: float = 1e-7

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")
        for name in ("nl_epoch_fraction", "pl_conf_threshold"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.selnl_epoch_fraction is not None and not 0.0 <= self.selnl_epoch_fraction <= 1.0:
            raise ValueError("selnl_epoch_fraction must lie in [0, 1]")
        if self.nl_conf_floor is not None and not 0.0 <= self.nl_conf_floor <= 1.0:
            raise ValueError("nl_conf_floor must lie in [0, 1]")


def draw_complementary_labels(labels, k: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw over the k-1 classes different from each label."""
    labels = np.asarray(labels, dtype=np.int64)
    offsets = rng.integers(1, k, size=labels.shape[0])
    return (labels + offsets) % k


def select_confident(dataset: PseudoLabeledDataset, params: ClassifierParams,
                     threshold: float) -> np.ndarray:
    """Indices whose max softmax under ``params`` strictly exceeds ``threshold``."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must lie in [0, 1]")
    conf = softmax(forward(params, dataset.x)).max(axis=1)
    return np.where(conf > threshold)[0]


def kl_divergence(q, p, axis: int = -1) -> np.ndarray:
    """KL(q || p) with 0 log 0 = 0."""
    q = np.asarray(q, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    terms = np.where(q > 0, q * (np.log(np.where(q > 0, q, 1.0)) - np.log(p)), 0.0)
    return terms.sum(axis=axis)


def with_label_noise(data: PseudoLabeledDataset, rate: float,
                     rng: np.random.Generator) -> PseudoLabeledDataset:
    """Copy with each pseudo-label flipped to a random other class w.p. ``rate``."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError("rate must lie in [0, 1]")
    labels = data.pseudo_labels.copy()
    flip = rng.random(len(data)) < rate
    if flip.any():
        labels[flip] = (labels[flip] + rng.integers(1, data.k, size=int(flip.sum()))) % data.k
    return PseudoLabeledDataset(data.x, labels, data.confidences, data.k,
                                data.source_domain_id)


def _mixed_logit_loss(y, kinds, comp, q, alpha: float, clip_eps: float):
    """Logit-level loss: per-row CE/NL per ``kinds`` plus alpha * KL(q || p).

    Label losses average over labeled rows; distillation averages over the
    whole batch. Rows in the clipped region contribute zero gradient.
    """

    def loss_fn(logits):
        logp = log_softmax(logits)
        p = np.exp(logp)
        n = logits.shape[0]
        dl = np.zeros_like(p)
        total = 0.0

        n_labeled = int(np.count_nonzero(kinds != _SKIP))
        if n_labeled:
            label_sum = 0.0
            ce_rows = np.where(kinds == _CE)[0]
            if ce_rows.size:
                py = p[ce_rows, y[ce_rows]]
                label_sum += float(-np.log(np.maximum(py, clip_eps)).sum())
                live = ce_rows[py > clip_eps]
                dl[live] += p[live]
                dl[live, y[live]] -= 1.0
            nl_rows = np.where(kinds == _NL)[0]
            if nl_rows.size:
                pc = p[nl_rows, comp[nl_rows]]
                keep = 1.0 - pc
                label_sum += float(-np.log(np.maximum(keep, clip_eps)).sum())
                mask = keep > clip_eps
                live = nl_rows[mask]
                coef = pc[mask] / keep[mask]
                dl[live] -= coef[:, None] * p[live]
                dl[live, comp[live]] += coef
            total += label_sum / n_labeled
            dl /= n_labeled

        if q is not None and alpha > 0:
            total += alpha * float(np.mean(kl_divergence(q, p)))
            dl += alpha * (p - q) / n
        return total, dl

    return loss_fn


def _iter_batches(n: int, batch_size: int, rng: np.random.Generator):
    perm = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield perm[start:start + batch_size]


def train_dg_source(params0: ClassifierParams, source: Dataset, config: DGConfig,
                    aug: AugmentConfig | None, rng: RngStreams,
                    on_epoch=None) -> ClassifierParams:
    """ERM with augmentation on the labeled source domain."""
    if len(source) == 0:
        raise ValueError("source dataset is empty")
    y = source.labels
    x = source.x
    params = params0.copy()
    if config.epochs == 0:
        return params
    opt = Sgd(params, config.lr)
    kinds = np.full(len(source), _CE, dtype=np.int64)
    for epoch in range(config.epochs):
        losses = []
        for idx in _iter_batches(len(source), config.batch_size, rng.shuffle):
            xb = x[idx]
            if aug is not None:
                xb = randmix(xb, aug, rng.aug)
            loss_fn = _mixed_logit_loss(y[idx], kinds[idx], None, None, 0.0,
                                        config.clip_eps)
            loss, grads = gradient(loss_fn, params, xb)
            opt.step(params, grads)
            losses.append(loss)
        if on_epoch is not None:
            on_epoch(epoch, params, float(np.mean(losses)), PHASE_SOURCE)
    return params


def _phase_for_epoch(epoch: int, config: DGConfig) -> str:
    if not config.selnlpl:
        return PHASE_CE
    nl_end = round(config.nl_epoch_fraction * config.epochs)
    selnl_frac = (config.selnl_epoch_fraction
                  if config.selnl_epoch_fraction is not None
                  else config.nl_epoch_fraction)
    selnl_end = nl_end + round(selnl_frac * config.epochs)
    if epoch < nl_end:
        return PHASE_NL
    if epoch < selnl_end:
        return PHASE_SELNL
    return PHASE_SELPL


def train_dg_target(prev_dg: ClassifierParams, pl_data: PseudoLabeledDataset,
                    buffer, config: DGConfig, aug: AugmentConfig | None,
                    rng: RngStreams, on_epoch=None) -> ClassifierParams:
    """Continue the generalization model on pseudo-labels plus replay.

    Pool = current pseudo-labeled domain plus buffer entries. Replayed
    source samples always train with cross-entropy; pseudo-labeled samples
    follow the noisy-label schedule when ``config.selnlpl`` is on, otherwise
    plain cross-entropy. Distillation against ``prev_dg`` applies to every
    sample on the same augmented view when ``config.alpha`` > 0.
    """
    xs = [pl_data.x]
    ys = [pl_data.pseudo_labels]
    pseudo = [np.ones(len(pl_data), dtype=bool)]
    if buffer is not None and buffer.n_entries:
        bx, by, _, bpseudo = buffer.as_arrays()
        xs.append(bx)
        ys.append(by)
        pseudo.append(bpseudo)
    x = np.concatenate(xs, axis=0)
    y = np.concatenate(ys, axis=0)
    is_pseudo = np.concatenate(pseudo, axis=0)
    n = x.shape[0]
    if n == 0:
        raise ValueError("combined training pool is empty")

    params = prev_dg.copy()
    if config.epochs == 0:
        return params
    opt = Sgd(params, config.lr)
    k = pl_data.k
    nl_floor = config.nl_conf_floor if config.nl_conf_floor is not None else 1.0 / k

    for epoch in range(config.epochs):
        phase = _phase_for_epoch(epoch, config)
        kinds = np.full(n, _CE, dtype=np.int64)
        if phase in (PHASE_SELNL, PHASE_SELPL):
            # Confidence under the current parameters, refreshed each epoch.
            conf = softmax(forward(params, x[is_pseudo])).max(axis=1)
        if phase == PHASE_NL:
            kinds[is_pseudo] = _NL
        elif phase == PHASE_SELNL:
            sub = np.where(conf > nl_floor, _NL, _SKIP)
            kinds[is_pseudo] = sub
        elif phase == PHASE_SELPL:
            sub = np.where(conf > config.pl_conf_threshold, _CE, _SKIP)
            kinds[is_pseudo] = sub

        losses = []
        for idx in _iter_batches(n, config.batch_size, rng.shuffle):
            xb = x[idx]
            if aug is not None:
                xb = randmix(xb, aug, rng.aug)
            kb = kinds[idx]
            comp = np.zeros(idx.shape[0], dtype=np.int64)
            nl_mask = kb == _NL
            if nl_mask.any():
                comp[nl_mask] = draw_complementary_labels(y[idx][nl_mask], k, rng.nl)
            q = softmax(forward(prev_dg, xb)) if config.alpha > 0 else None
            loss_fn = _mixed_logit_loss(y[idx], kb, comp, q, config.alpha,
                                        config.clip_eps)
            loss, grads = gradient(loss_fn, params, xb)
            opt.step(params, grads)
            losses.append(loss)
        if on_epoch is not None:
            on_epoch(epoch, params, float(np.mean(losses)), phase)
    return params
