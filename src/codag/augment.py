"""Stochastic mixing augmentation for generalization training.

Each batch is replaced by a convex mix of views: an identity slot plus
freshly sampled random tanh-affine maps, with Dirichlet mixing weights and
additive Gaussian noise. Transforms never persist across batches.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AugmentConfig:
    n_transforms: int = 4
    mix_concentration: float = 1.0
    noise_sigma: float = 0.1
    identity_slot: bool = True

    def __post_init__(self):
        if self.n_transforms < 1:
            raise ValueError("n_transforms must be at least 1")
        if self.mix_concentration <= 0:
            raise ValueError("mix_concentration must be positive")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be nonnegative")


def randmix(
    batch,
    config: AugmentConfig,
    rng: np.random.Generator,
    *,
    weights=None,
    transforms=None,
) -> np.ndarray:
    """Augmented batch: sum_i w_i * T_i(x) + noise, same shape as the input.

    Slot 0 is the identity when ``config.identity_slot``; the remaining slots
    are random affine maps (entries ~ N(0, 1/d), zero bias) followed by tanh.
    ``weights``/``transforms`` override the sampled values (test hooks).
    """
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("batch must be a nonempty (n, d) array")
    d = x.shape[1]
    m = config.n_transforms

    if weights is None:
        w = rng.dirichlet(np.full(m, config.mix_concentration))
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (m,):
            raise ValueError(f"weights must have length {m}")

    out = np.zeros_like(x)
    for i in range(m):
        if transforms is not None:
            view = np.asarray(transforms[i](x), dtype=np.float64)
        elif i == 0 and config.identity_slot:
            view = x
        else:
            a = rng.normal(0.0, 1.0 / np.sqrt(d), (d, d))
            view = np.tanh(x @ a)
        out += w[i] * view
    if config.noise_sigma > 0:
        out += rng.normal(0.0, config.noise_sigma, x.shape)
    return out
