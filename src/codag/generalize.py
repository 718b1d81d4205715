"""Generalization-model training.

``nnmodel.train_epochs`` trains the generalization model on a labeled pool
with each epoch's setup and the batch loss from this module. At the source
stage the pool is the labeled source domain. Target stages continue
from the previous parameters on the pseudo-labeled domain plus replay
entries, add a distillation term against the previous model, and guard the
pseudo-labeled rows against label noise with a three-phase schedule:
negative learning on everything, then negative learning on confident
samples, then positive (cross-entropy) learning on confident samples. Rows
with true labels keep plain cross-entropy throughout.
"""

from dataclasses import dataclass

import numpy as np

from .augment import AugmentConfig, randmix
from .data import Dataset
from .nnmodel import (
    ClassifierParams,
    EpochConfig,
    forward,
    gradient,
    log_softmax,
    softmax,
    train_epochs,
)
from .rng import RngStreams

_SKIP, _CE, _NL = 0, 1, 2

PHASE_NL = "nl"
PHASE_SELNL = "selnl"
PHASE_SELPL = "selpl"
PHASE_CE = "ce"

# Probabilities are clipped to at least this before a log in the label losses.
_CLIP_EPS = 1e-7

NL_EPOCH_FRACTION = 0.25  # of the epochs in NL; SelNL then runs as many, SelPL the rest
PL_CONF_THRESHOLD = 0.5  # SelPL trains on rows whose max softmax exceeds it


@dataclass(frozen=True)
class DGConfig(EpochConfig):
    alpha: float = 1.0  # distillation weight
    selnlpl: bool = True

    def __post_init__(self):
        super().__post_init__()
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")


def draw_complementary_labels(labels, k: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw over the k-1 classes different from each label."""
    labels = np.asarray(labels, dtype=np.int64)
    offsets = rng.integers(1, k, size=labels.shape[0])
    return (labels + offsets) % k


def select_confident(params: ClassifierParams, x, threshold: float) -> np.ndarray:
    """Mask of rows whose max softmax under ``params`` strictly exceeds ``threshold``."""
    return softmax(forward(params, x)).max(axis=1) > threshold


def _mixed_logit_loss(y, kinds, comp, teacher_q, alpha: float):
    """Logit-level loss: per-row CE/NL per ``kinds`` plus alpha * KL(q || p).

    ``teacher_q`` is None or (q, log(where(q > 0, q, 1))). Label losses average
    over labeled rows, distillation over the whole batch. Rows in the clipped
    region contribute zero gradient. Every element goes through the same
    operations, in the same order, as the per-row definition: a CE row's
    gradient is p - onehot(y), an NL row's 0.0 - c * p + c * onehot(comp)
    with c = p_comp / (1 - p_comp), then the label part is divided by the
    labeled count before distillation adds alpha * (p - q) / n.
    """
    n = kinds.shape[0]
    ce, nl = kinds == _CE, kinds == _NL
    n_labeled = int(np.count_nonzero(kinds != _SKIP))
    # The class each labeled row's term acts on: its label, or for NL its complement.
    target = y if comp is None else np.where(nl, comp, y)

    def loss_fn(logits):
        logp = log_softmax(logits)
        p = np.exp(logp)
        total = 0.0
        if n_labeled:
            flat = np.arange(0, p.size, p.shape[1]) + target
            pt = p.ravel()[flat]
            keep = 1.0 - pt
            # -log(max(p_t, eps)) for CE rows, -log(max(1 - p_t, eps)) for NL rows.
            nll = np.where(nl, keep, pt)
            np.negative(np.log(np.maximum(nll, _CLIP_EPS, out=nll), out=nll), out=nll)
            total += (float(nll[ce].sum()) + float(nll[nl].sum())) / n_labeled
            # Per-row factor: -1 for CE rows, c for NL rows, 0 for skipped and
            # clipped rows; the gradient is 0.0 - factor * p, plus the factor
            # at the target. 0.0 - x, not -x, keeps the sign of a zero.
            shift = np.where(ce & (pt > _CLIP_EPS), -1.0, 0.0)
            np.divide(pt, keep, out=shift, where=nl & (keep > _CLIP_EPS))
            dl = np.multiply(shift[:, None], p)
            np.subtract(0.0, dl, out=dl)
            dl.ravel()[flat] += shift
            dl /= n_labeled
        else:
            dl = np.zeros_like(p)

        if teacher_q is not None and alpha > 0:
            q, log_q = teacher_q
            kl = np.where(q > 0, (log_q - np.log(p)) * q, 0.0).sum(axis=-1)
            total += alpha * (float(np.add.reduce(kl)) / n)  # the mean
            dl += (p - q) * alpha / n
        return total, dl

    return loss_fn


def _phase_for_epoch(epoch: int, config: DGConfig) -> str:
    if not config.selnlpl:
        return PHASE_CE
    nl_end = round(NL_EPOCH_FRACTION * config.epochs)
    if epoch < nl_end:
        return PHASE_NL
    if epoch < 2 * nl_end:
        return PHASE_SELNL
    return PHASE_SELPL


def _train_dg(params0: ClassifierParams, x: np.ndarray, y: np.ndarray,
              is_pseudo: np.ndarray, teacher: ClassifierParams | None,
              config: DGConfig, aug: AugmentConfig | None, rng: RngStreams,
              on_epoch) -> ClassifierParams:
    """SGD over one labeled pool; only rows flagged ``is_pseudo`` follow the schedule.

    A pool without pseudo-labeled rows trains with cross-entropy throughout.
    With a ``teacher``, every row also distills against it on the same
    augmented view.
    """
    n = x.shape[0]
    k = params0.n_classes
    has_pseudo = bool(is_pseudo.any())

    def epoch_setup(epoch, params, perm):
        phase = _phase_for_epoch(epoch, config) if has_pseudo else PHASE_CE
        kinds = np.full(n, _CE, dtype=np.int64)
        # SelNL and SelPL score confidence under the current parameters.
        if phase == PHASE_NL:
            kinds[is_pseudo] = _NL
        elif phase == PHASE_SELNL:
            confident = select_confident(params, x[is_pseudo], 1.0 / k)
            kinds[is_pseudo] = np.where(confident, _NL, _SKIP)
        elif phase == PHASE_SELPL:
            confident = select_confident(params, x[is_pseudo], PL_CONF_THRESHOLD)
            kinds[is_pseudo] = np.where(confident, _CE, _SKIP)

        # One augmentation call and one teacher pass per epoch; batches slice them.
        xe, ye, ke = x[perm], y[perm], kinds[perm]
        if aug is not None:
            xe = randmix(xe, aug, rng.aug, batch_size=config.batch_size)
        teacher_q = None
        if teacher is not None:
            logits = forward(teacher, xe)
            for start in range(0, n, config.batch_size):
                if min(config.batch_size, n - start) == 1:
                    # A one-row product is matrix-vector, whose sums can differ in
                    # the last bit from a block's; such a batch keeps its own pass.
                    logits[start:start + 1] = forward(teacher, xe[start:start + 1])
            qe = softmax(logits)
            teacher_q = qe, np.log(np.where(qe > 0, qe, 1.0))
        # Complementary labels are drawn batch by batch for the NL rows, zero elsewhere.
        nl_e = ke == _NL
        has_nl = bool(nl_e.any())
        comp_e = np.zeros(n, dtype=np.int64)

        def batch_loss(rows):
            yb, kb, comp = ye[rows], ke[rows], comp_e[rows]
            if has_nl and (nl_mask := nl_e[rows]).any():
                comp[nl_mask] = draw_complementary_labels(yb[nl_mask], k, rng.nl)
            q = None if teacher_q is None else (teacher_q[0][rows], teacher_q[1][rows])
            loss_fn = _mixed_logit_loss(yb, kb, comp, q, config.alpha)
            return gradient(loss_fn, params, xe[rows])

        return phase, batch_loss

    return train_epochs(params0, n, config, rng.shuffle, epoch_setup, on_epoch)


def train_dg_source(params0: ClassifierParams, source: Dataset, config: DGConfig,
                    aug: AugmentConfig | None, rng: RngStreams,
                    on_epoch=None) -> ClassifierParams:
    """ERM with augmentation on the labeled source domain."""
    return _train_dg(params0, source.x, source.labels, np.zeros(len(source), dtype=bool),
                     None, config, aug, rng, on_epoch)


def train_dg_target(prev_dg: ClassifierParams, pl_data: Dataset, buffer,
                    config: DGConfig, aug: AugmentConfig | None,
                    rng: RngStreams, on_epoch=None) -> ClassifierParams:
    """Continue the generalization model on the labeled domain plus replay.

    Pool = the current domain (pseudo-labeled unless ``pl_data.pseudo`` is
    off) plus buffer entries. Rows with true labels always train with
    cross-entropy; pseudo-labeled rows follow the noisy-label schedule when
    ``config.selnlpl`` is on. Distillation against ``prev_dg`` applies to
    every sample when ``config.alpha`` > 0.
    """
    x, y = pl_data.x, pl_data.labels
    is_pseudo = np.full(len(pl_data), pl_data.pseudo)
    if buffer.n_entries:
        bx, by, _, bpseudo = buffer.as_arrays()
        x = np.concatenate([x, bx], axis=0)
        y = np.concatenate([y, by], axis=0)
        is_pseudo = np.concatenate([is_pseudo, bpseudo], axis=0)
    teacher = prev_dg if config.alpha > 0 else None
    return _train_dg(prev_dg, x, y, is_pseudo, teacher, config, aug, rng, on_epoch)
