"""Stochastic mixing augmentation for generalization training.

Each batch is replaced by a convex mix of views: an identity slot plus
freshly sampled random tanh-affine maps, with Dirichlet(1, ..., 1) mixing
weights (uniform on the simplex) and additive Gaussian noise. Transforms
never persist across batches.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AugmentConfig:
    n_transforms: int = 4
    noise_sigma: float = 0.1

    def __post_init__(self):
        if self.n_transforms < 1:
            raise ValueError("n_transforms must be at least 1")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be nonnegative")


def randmix(batch, config: AugmentConfig, rng: np.random.Generator, *,
            batch_size: int) -> np.ndarray:
    """Augmented batch: sum_i w_i * T_i(x) + noise, same shape as the input.

    Slot 0 is the identity; the remaining slots are random affine maps
    (entries ~ N(0, 1/d), zero bias) followed by tanh. Every consecutive
    ``batch_size``-row slice gets its own weights, maps and noise, drawn and
    mixed into the output slice by slice: every temporary is one slice in
    size, whatever the pool size.
    """
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("batch must be a nonempty (n, d) array")
    d = x.shape[1]
    m = config.n_transforms
    out = np.zeros_like(x)  # from +0.0, so a -0.0 term still sums to +0.0
    for start in range(0, x.shape[0], batch_size):
        xb, ob = x[start:start + batch_size], out[start:start + batch_size]
        w = rng.dirichlet(np.ones(m))
        ob += w[0] * xb
        for i in range(1, m):
            ob += w[i] * np.tanh(xb @ rng.normal(0.0, 1.0 / np.sqrt(d), (d, d)))
        if config.noise_sigma > 0:
            ob += rng.normal(0.0, config.noise_sigma, xb.shape)
    return out
