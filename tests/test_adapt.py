import numpy as np
import pytest

from codag.adapt import (
    PHASE_ADAPT,
    _cosine_distances,
    adapt_domain,
    centroid_pseudo_labels,
    generate_pseudo_labels,
)
from codag.data import Dataset
from codag.nnmodel import (
    ClassifierParams,
    EpochConfig,
    ModelConfig,
    features,
    features_and_logits,
    forward,
    init_params,
    softmax,
)
from codag.rng import substream

from conftest import source_model


# Reference IM loss on probabilities: the oracle for the pipeline's logit-level loss.

def im_loss(probs) -> float:
    """Mean per-sample entropy minus entropy of the mean prediction.

    Minimizing drives individual predictions confident while keeping the
    batch-level marginal diverse. Bounds: [-ln K, ln K].
    """
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 2 or p.shape[0] == 0:
        raise ValueError("probs must be a nonempty (n, K) array")
    if not np.all(np.isfinite(p)) or np.any(p < 0):
        raise ValueError("rows must be valid probability vectors")
    if not np.allclose(p.sum(axis=1), 1.0, atol=1e-6):
        raise ValueError("rows must sum to 1")
    h_cond = float(np.mean(_entropy(p)))
    h_marg = float(_entropy(p.mean(axis=0)[None, :])[0])
    return h_cond - h_marg


def _entropy(p: np.ndarray) -> np.ndarray:
    terms = np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0)
    return -terms.sum(axis=1)


def test_im_loss_uniform_rows_is_zero():
    probs = np.full((6, 4), 0.25)
    assert im_loss(probs) == pytest.approx(0.0, abs=1e-12)


def test_im_loss_confident_and_diverse_is_minus_log_k():
    probs = np.eye(3)[np.array([0, 1, 2, 0, 1, 2])]
    assert im_loss(probs) == pytest.approx(-np.log(3), abs=1e-12)


def test_im_loss_hand_case():
    probs = np.array([[0.9, 0.1], [0.1, 0.9]])
    assert im_loss(probs) == pytest.approx(-0.3680, abs=1e-4)
    # components: mean row entropy 0.3251, marginal entropy ln 2
    assert im_loss(probs) == pytest.approx(0.32508 - np.log(2), abs=1e-4)


def test_im_loss_bounds_and_identical_rows():
    rng = np.random.default_rng(0)
    for _ in range(50):
        k = int(rng.integers(2, 6))
        probs = softmax(rng.standard_normal((int(rng.integers(1, 12)), k)))
        value = im_loss(probs)
        assert -np.log(k) - 1e-9 <= value <= np.log(k) + 1e-9
    row = softmax(rng.standard_normal(4))
    assert im_loss(np.tile(row, (7, 1))) == pytest.approx(0.0, abs=1e-12)


def test_im_loss_rejects_invalid_rows():
    with pytest.raises(ValueError, match="rows must sum to 1"):
        im_loss(np.array([[0.5, 0.6], [0.5, 0.5]]))
    with pytest.raises(ValueError, match="valid probability vectors"):
        im_loss(np.array([[1.2, -0.2]]))
    with pytest.raises(ValueError, match="nonempty"):
        im_loss(np.empty((0, 3)))


def target_view(x, k: int, domain_id: int = 0) -> Dataset:
    """A training view with hidden labels, as the pipeline hands a target domain to adaptation."""
    return Dataset(x, np.zeros(len(x), dtype=int), k, domain_id).without_labels()


def _two_round_centroid_oracle(feats, probs):
    """Independent implementation of the two-round cosine assignment."""

    def cos_dist(a, b):
        na = a / max(np.linalg.norm(a), 1e-12)
        nb = b / max(np.linalg.norm(b), 1e-12)
        return 1.0 - float(na @ nb)

    n, k = probs.shape
    cents = []
    for c in range(k):
        w = probs[:, c]
        cents.append((w[:, None] * feats).sum(axis=0) / (w.sum() + 1e-8))
    labels = np.array([
        min(range(k), key=lambda c: (cos_dist(feats[i], cents[c]), c)) for i in range(n)
    ])
    new_cents = []
    for c in range(k):
        members = feats[labels == c]
        if members.shape[0] == 0:
            new_cents.append(cents[c])
        else:
            new_cents.append(members.sum(axis=0) / (members.shape[0] + 1e-8))
    return np.array([
        min(range(k), key=lambda c: (cos_dist(feats[i], new_cents[c]), c)) for i in range(n)
    ])


def test_centroid_labels_match_independent_oracle():
    params = init_params(ModelConfig(hidden=(8,), feat_dim=4), 6, 3, 3)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((20, 6))
    ds = target_view(x, 3, domain_id=1)
    got = centroid_pseudo_labels(params, ds)
    expected = _two_round_centroid_oracle(features(params, x), softmax(forward(params, x)))
    np.testing.assert_array_equal(got, expected)


def two_pass_centroid_labels(params, x):
    """Centroid labels from separate ``features`` and ``forward`` passes."""
    feats = features(params, x)
    probs = softmax(forward(params, x))
    seed_centroids = (probs.T @ feats) / (probs.sum(axis=0)[:, None] + 1e-8)
    labels = np.argmin(_cosine_distances(feats, seed_centroids), axis=1)
    onehot = np.eye(probs.shape[1])[labels]
    counts = onehot.sum(axis=0)
    centroids = (onehot.T @ feats) / (counts[:, None] + 1e-8)
    centroids[counts == 0] = seed_centroids[counts == 0]
    return np.argmin(_cosine_distances(feats, centroids), axis=1)


@pytest.mark.parametrize("n", [500, 129])  # 129: a one-row tail after a 128-row block
def test_centroid_labels_equal_two_pass_result(n):
    params = init_params(ModelConfig(), 16, 5, 11)
    x = np.random.default_rng(n).standard_normal((n, 16))
    feats, logits = features_and_logits(params, x)
    assert feats.tobytes() == features(params, x).tobytes()
    assert logits.tobytes() == forward(params, x).tobytes()
    np.testing.assert_array_equal(centroid_pseudo_labels(params, target_view(x, 5)),
                                  two_pass_centroid_labels(params, x))


def test_centroid_labels_separated_clusters():
    # Identity extractor, head aligned with the true cluster directions: the
    # assignment must match brute-force nearest-true-centroid.
    d = 4
    centers = np.array([[3.0, 0, 0, 0], [0, 3.0, 0, 0]])
    rng = np.random.default_rng(1)
    x = np.concatenate([centers[i] + 0.05 * rng.standard_normal((15, d)) for i in range(2)])
    true = np.repeat([0, 1], 15)
    params = ClassifierParams({
        "ext0.w": np.eye(d, dtype=np.float32),
        "ext0.b": np.zeros(d, dtype=np.float32),
        "head.w": centers.T.astype(np.float32),
        "head.b": np.zeros(2, dtype=np.float32),
    })
    ds = target_view(x, 2, domain_id=1)
    labels = centroid_pseudo_labels(params, ds)
    nearest_true = np.argmin(
        np.linalg.norm(x[:, None, :] - centers[None, :, :], axis=2), axis=1
    )
    np.testing.assert_array_equal(labels, nearest_true)
    np.testing.assert_array_equal(labels, true)


def test_centroid_labels_degenerate_identical_samples():
    params = init_params(ModelConfig(hidden=(5,), feat_dim=3), 3, 4, 0)
    x = np.tile(np.array([0.3, -0.7, 1.1]), (9, 1))
    labels = centroid_pseudo_labels(params, target_view(x, 4))
    assert len(set(labels.tolist())) == 1


def test_adapt_zero_epochs_returns_input_exactly():
    seq, dg = source_model(2022)
    out = adapt_domain(dg, seq.train_sets[1], EpochConfig(epochs=0), substream(2022, "shuffle", 1))
    for name in dg.blocks:
        assert out.blocks[name].tobytes() == dg.blocks[name].tobytes()


def test_adapt_head_frozen_and_loss_decreases():
    seq, dg = source_model(2022)
    losses = []
    adapted = adapt_domain(
        dg, seq.train_sets[1], EpochConfig(), substream(2022, "shuffle", 1),
        on_epoch=lambda e, p, loss, phase: losses.append((loss, phase)),
    )
    assert adapted.blocks["head.w"].tobytes() == dg.blocks["head.w"].tobytes()
    assert adapted.blocks["head.b"].tobytes() == dg.blocks["head.b"].tobytes()
    assert {phase for _, phase in losses} == {PHASE_ADAPT}
    assert losses[-1][0] <= losses[0][0]
    assert not np.array_equal(adapted.blocks["ext0.w"], dg.blocks["ext0.w"])


def test_generate_pseudo_labels_dominant_and_tied():
    # Head bias fixes the logits regardless of the zero extractor.
    def with_bias(bias):
        return ClassifierParams({
            "ext0.w": np.zeros((2, 3), dtype=np.float32),
            "ext0.b": np.zeros(3, dtype=np.float32),
            "head.w": np.zeros((3, 3), dtype=np.float32),
            "head.b": np.asarray(bias, dtype=np.float32),
        })

    ds = target_view(np.zeros((4, 2)), 3, domain_id=2)
    dominant = generate_pseudo_labels(with_bias([10.0, 0.0, 0.0]), ds)
    assert set(dominant.labels.tolist()) == {0}
    assert dominant.domain_id == 2 and dominant.pseudo

    tied = generate_pseudo_labels(with_bias([0.0, 0.0, 0.0]), ds)
    assert set(tied.labels.tolist()) == {0}  # exact tie -> lowest index


def test_generate_pseudo_labels_matches_argmax_oracle():
    params = init_params(ModelConfig(hidden=(6,), feat_dim=4), 5, 4, 8)
    x = np.random.default_rng(3).standard_normal((50, 5))
    ds = target_view(x, 4, domain_id=1)
    pl = generate_pseudo_labels(params, ds)
    probs = softmax(forward(params, x))
    np.testing.assert_array_equal(pl.labels, probs.argmax(axis=1))


def test_pseudo_labels_invariant_under_monotone_logit_transform():
    params = init_params(ModelConfig(hidden=(6,), feat_dim=4), 5, 4, 8)
    x = np.random.default_rng(4).standard_normal((30, 5))
    ds = target_view(x, 4, domain_id=1)
    base = generate_pseudo_labels(params, ds).labels
    scaled = ClassifierParams({name: block * np.float32(2.0) if name.startswith("head") else block
                               for name, block in params.blocks.items()})
    np.testing.assert_array_equal(
        generate_pseudo_labels(scaled, ds).labels, base
    )


def test_adaptation_improves_target_accuracy_across_seeds():
    from codag import accuracy

    wins = 0
    for seed in (2022, 2023, 2024, 2025, 2026):
        seq, dg = source_model(seed)
        pre = accuracy(dg, seq.test_sets[1])
        adapted = adapt_domain(dg, seq.train_sets[1], EpochConfig(), substream(seed, "shuffle", 1))
        post = accuracy(adapted, seq.test_sets[1])
        wins += post >= pre
    assert wins >= 4


def test_adapt_config_validation():
    with pytest.raises(ValueError, match="lr must be positive"):
        EpochConfig(lr=0.0)
    with pytest.raises(ValueError, match="epochs must be nonnegative"):
        EpochConfig(epochs=-1)
    for batch_size in (0, -5):
        with pytest.raises(ValueError, match="batch_size"):
            EpochConfig(batch_size=batch_size)
