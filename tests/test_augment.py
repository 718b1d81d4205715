import tracemalloc

import numpy as np
import pytest

from codag.augment import AugmentConfig, randmix


def test_identity_weights_reproduce_input():
    # One slot, the identity: its Dirichlet weight is 1, so the input comes back.
    cfg = AugmentConfig(n_transforms=1, noise_sigma=0.0)
    x = np.random.default_rng(1).standard_normal((8, 5))
    np.testing.assert_array_equal(randmix(x, cfg, np.random.default_rng(0), batch_size=8), x)


def test_determinism_under_fixed_stream():
    cfg = AugmentConfig()
    x = np.random.default_rng(2).standard_normal((6, 4))
    a = randmix(x, cfg, np.random.default_rng(33), batch_size=6)
    b = randmix(x, cfg, np.random.default_rng(33), batch_size=6)
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("cfg", [
    AugmentConfig(n_transforms=3),
    AugmentConfig(n_transforms=4, noise_sigma=0.0),
], ids=["default", "no-noise"])
def test_mixing_formula_matches_twin_generator_oracle(cfg):
    """sum_i w_i * T_i(x) + noise, with w, T and noise drawn in order from a twin stream."""
    x = np.random.default_rng(3).standard_normal((6, 4))
    twin = np.random.default_rng(12)
    w = twin.dirichlet(np.ones(cfg.n_transforms))
    views = [x]
    while len(views) < cfg.n_transforms:
        views.append(np.tanh(x @ twin.normal(0.0, 0.5, (4, 4))))  # N(0, 1/d) entries, d = 4
    expected = sum(wi * view for wi, view in zip(w, views))
    if cfg.noise_sigma > 0:
        expected = expected + twin.normal(0.0, cfg.noise_sigma, x.shape)
    np.testing.assert_allclose(randmix(x, cfg, np.random.default_rng(12), batch_size=6), expected,
                               rtol=0, atol=1e-12)


def test_sampled_weights_are_a_distribution():
    cfg = AugmentConfig(n_transforms=5)
    rng = np.random.default_rng(7)
    for _ in range(25):
        w = rng.dirichlet(np.ones(cfg.n_transforms))
        assert np.all(w >= 0.0)
        assert abs(w.sum() - 1.0) < 1e-9


def test_shape_preserved_and_fresh_transforms_differ_per_batch():
    cfg = AugmentConfig(noise_sigma=0.0)
    rng = np.random.default_rng(5)
    x = np.random.default_rng(6).standard_normal((10, 7))
    first = randmix(x, cfg, rng, batch_size=10)
    second = randmix(x, cfg, rng, batch_size=10)  # same stream, later state: new transforms
    assert first.shape == x.shape == second.shape
    assert not np.allclose(first, second)


def test_empty_batch_rejected():
    cfg = AugmentConfig()
    with pytest.raises(ValueError, match="nonempty"):
        randmix(np.empty((0, 3)), cfg, np.random.default_rng(0), batch_size=16)


def test_config_validation():
    with pytest.raises(ValueError, match="n_transforms"):
        AugmentConfig(n_transforms=0)
    with pytest.raises(ValueError, match="noise_sigma"):
        AugmentConfig(noise_sigma=-1.0)


@pytest.mark.parametrize("cfg", [
    AugmentConfig(),
    AugmentConfig(noise_sigma=0.0),
    AugmentConfig(n_transforms=1),
], ids=["default", "no-noise", "one-transform"])
@pytest.mark.parametrize("n", [1, 16, 17, 65])  # 1, b, b + 1, 3b + 17 for b = 16
def test_batch_size_equals_one_call_per_batch(cfg, n):
    b = 16
    x = np.random.default_rng(n).standard_normal((n, 5))
    twin, rng = np.random.default_rng(9), np.random.default_rng(9)
    expected = np.concatenate([randmix(x[s:s + b], cfg, twin, batch_size=b)
                               for s in range(0, n, b)])
    got = randmix(x, cfg, rng, batch_size=b)
    assert got.tobytes() == expected.tobytes()
    assert rng.bit_generator.state == twin.bit_generator.state


def test_temporaries_are_one_slice_whatever_the_pool_size():
    """A 6,000-row pool peaks within 64 KiB of its output: each slice is mixed in place."""
    x = np.random.default_rng(3).standard_normal((6000, 16))
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        out = randmix(x, AugmentConfig(), rng, batch_size=64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes < 64 * 1024
