import math

import numpy as np
import pytest

from codag.data import (
    Dataset,
    DomainSpec,
    HiddenLabelsError,
    SequenceConfig,
    class_means,
    load_csv_domain,
    make_rotated_clusters,
    split_source,
)
from codag.orchestrate import config_from_dict, config_to_dict

from conftest import default_sequence


def test_zero_noise_identity_transform():
    spec = DomainSpec(id=0, rotation_angle=0.0, noise_sigma=0.0, scale=1.0, seed=3)
    means = class_means(4, 6, 3)
    ds = make_rotated_clusters(spec, 20, 4, 6)
    for i in range(len(ds)):
        np.testing.assert_array_equal(ds.x[i], means[ds.labels[i]])


def test_rotation_by_pi_negates_plane():
    means = np.array([[1.0, 0.0], [-1.0, 0.0]])
    spec = DomainSpec(id=0, rotation_angle=math.pi, noise_sigma=0.0, seed=0)
    ds = make_rotated_clusters(spec, 4, 2, 2, means=means)
    for i in range(len(ds)):
        expected = -means[ds.labels[i]]
        np.testing.assert_allclose(ds.x[i], expected, atol=1e-12)


def test_generator_determinism():
    spec = DomainSpec(id=2, rotation_angle=0.7, noise_sigma=0.2, seed=11)
    a = make_rotated_clusters(spec, 101, 5, 8)
    b = make_rotated_clusters(spec, 101, 5, 8)
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_class_balance_within_one():
    spec = DomainSpec(id=0, seed=5)
    for n in (23, 24, 25, 100):
        ds = make_rotated_clusters(spec, n, 5, 4)
        counts = np.bincount(ds.labels, minlength=5)
        assert counts.max() - counts.min() <= 1
        assert counts.sum() == n


def test_scale_and_shift_applied_after_rotation():
    means = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    shift = (0.5, -1.0, 2.0)
    spec = DomainSpec(id=0, rotation_angle=math.pi / 2, noise_sigma=0.0, scale=2.0,
                      shift=shift, seed=0)
    ds = make_rotated_clusters(spec, 2, 2, 3, means=means)
    got0 = ds.x[ds.labels == 0][0]
    got1 = ds.x[ds.labels == 1][0]
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])  # angle pi/2 in the (0,1) plane
    exp0 = np.array([*(means[0, :2] @ rot), 0.0]) * 2.0 + np.array(shift)
    exp1 = np.array([*(means[1, :2] @ rot), 0.0]) * 2.0 + np.array(shift)
    np.testing.assert_allclose(got0, exp0, atol=1e-12)
    np.testing.assert_allclose(got1, exp1, atol=1e-12)


def test_invalid_cluster_arguments():
    spec = DomainSpec(id=0, seed=1)
    with pytest.raises(ValueError):
        make_rotated_clusters(spec, 3, 5, 4)  # n < k
    with pytest.raises(ValueError):
        make_rotated_clusters(spec, 10, 2, 1)  # d < 2
    with pytest.raises(ValueError):
        DomainSpec(id=0, noise_sigma=-0.1)
    with pytest.raises(ValueError):
        DomainSpec(id=0, scale=0.0)


def test_split_sizes_and_partition():
    spec = DomainSpec(id=0, seed=9)
    ds = make_rotated_clusters(spec, 10, 2, 3)
    train, test = split_source(ds, 0.8, seed=0)
    assert len(train) == 8 and len(test) == 2

    ds = make_rotated_clusters(spec, 137, 5, 3)
    train, test = split_source(ds, 0.8, seed=4)
    assert len(train) + len(test) == 137
    merged = np.concatenate([train.x, test.x])
    assert sorted(map(tuple, merged)) == sorted(map(tuple, ds.x))


def test_split_seed_determinism_and_full_fraction():
    ds = make_rotated_clusters(DomainSpec(id=0, seed=2), 50, 5, 4)
    a_train, _ = split_source(ds, 0.5, seed=123)
    b_train, _ = split_source(ds, 0.5, seed=123)
    np.testing.assert_array_equal(a_train.x, b_train.x)
    with pytest.raises(ValueError, match="source_fraction"):
        split_source(ds, 1.0, seed=0)


def test_split_fraction_bounds():
    ds = make_rotated_clusters(DomainSpec(id=0, seed=2), 10, 2, 2)
    for bad in (0.0, -0.5, 1.2):
        with pytest.raises(ValueError):
            split_source(ds, bad, seed=0)


def test_csv_roundtrip(tmp_path):
    path = tmp_path / "dom.csv"
    path.write_text("f0,f1,label\n0.5,1.5,0\n-2.0,0.25,1\n1.0,1.0,1\n")
    ds = load_csv_domain(path, k=2, d=2)
    assert len(ds) == 3
    np.testing.assert_allclose(ds.x[1], [-2.0, 0.25])
    assert list(ds.labels) == [0, 1, 1]


def test_csv_errors_name_line_numbers(tmp_path):
    short = tmp_path / "short.csv"
    short.write_text("0.5,0\n1.0,2.0,1\n")
    with pytest.raises(ValueError, match="line 1"):
        load_csv_domain(short, k=2, d=2)

    bad_label = tmp_path / "bad_label.csv"
    bad_label.write_text("0.5,1.0,0\n0.1,0.2,2\n")
    with pytest.raises(ValueError, match="line 2.*out of range"):
        load_csv_domain(bad_label, k=2, d=2)

    bad_feat = tmp_path / "bad_feat.csv"
    bad_feat.write_text("0.5,oops,0\n")
    with pytest.raises(ValueError, match="line 1.*malformed"):
        load_csv_domain(bad_feat, k=2, d=2)

    with pytest.raises(FileNotFoundError):
        load_csv_domain(tmp_path / "missing.csv", k=2, d=2)


def test_hidden_labels_raise():
    ds = make_rotated_clusters(DomainSpec(id=1, seed=2), 10, 2, 2)
    hidden = ds.without_labels()
    with pytest.raises(HiddenLabelsError):
        hidden.labels
    np.testing.assert_array_equal(hidden.x, ds.x)  # features stay shared
    assert list(ds.labels) == list(np.repeat([0, 1], 5))


def test_default_sequence_shape():
    seq = default_sequence()
    assert seq.n_domains == 5 and seq.k == 5 and seq.d == 16
    assert len(seq.train_sets[0]) == 400 and len(seq.test_sets[0]) == 100
    for t in range(1, 5):
        assert seq.train_sets[t].labels_hidden
        assert not seq.test_sets[t].labels_hidden
        assert len(seq.train_sets[t]) == len(seq.test_sets[t]) == 500


def test_sequence_reorder_is_permutation_checked():
    seq = default_sequence()
    re = seq.reordered([3, 1, 4, 2])
    assert [s.id for s in re.specs] == [0, 1, 2, 3, 4]
    np.testing.assert_array_equal(re.test_sets[1].x, seq.test_sets[3].x)
    with pytest.raises(ValueError):
        seq.reordered([1, 2, 3])
    with pytest.raises(ValueError):
        seq.reordered([0, 1, 2, 3])


def test_sequence_config_dict_roundtrip():
    cfg = SequenceConfig(n_per_domain=60, k=3, d=4, angles_deg=(0.0, 45.0), seed=5)
    again = config_from_dict(SequenceConfig, config_to_dict(cfg))
    assert again == cfg


def test_sequence_config_validation():
    with pytest.raises(ValueError, match="kind"):
        SequenceConfig(kind="bogus")
    for bad in ({"k": 0}, {"d": 0}, {"n_per_domain": 0}):
        with pytest.raises(ValueError, match="at least 1"):
            SequenceConfig(**bad)
    with pytest.raises(ValueError, match="angles_deg"):
        SequenceConfig(angles_deg=())


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((0, 2)), None, 2)
    with pytest.raises(ValueError):
        Dataset([[np.inf, 0.0]], [0], 2)
    with pytest.raises(ValueError):
        Dataset([[0.0, 0.0]], [5], 2)
