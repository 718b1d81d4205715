import csv
import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from codag.data import Dataset, SequenceConfig
from codag.evaluate import (
    CURVES_HEADER,
    accuracy,
    curve_rows,
    metrics_from_grids,
    sequence_metrics,
)
from codag.nnmodel import ClassifierParams, forward, init_params, ModelConfig

# the worked 3x3 example used across the metric operations
DG3 = np.array([[0.9, 0.5, 0.4], [0.8, 0.85, 0.6], [0.75, 0.8, 0.9]])
DA3 = np.array([[0.9, 0.5, 0.4], [0.8, 0.85, 0.6], [0.75, 0.8, 0.9]])
DA3_DIAG = DA3.copy()
DA3_DIAG[1, 1] = 0.85
DA3_DIAG[2, 2] = 0.9


def _label_zero_model(d, k):
    blocks = {
        "ext0.w": np.zeros((d, 2), dtype=np.float32),
        "ext0.b": np.zeros(2, dtype=np.float32),
        "head.w": np.zeros((2, k), dtype=np.float32),
        "head.b": np.zeros(k, dtype=np.float32),
    }
    return ClassifierParams(blocks)  # all logits zero -> argmax 0 everywhere


def test_accuracy_constant_predictor_on_balanced_set():
    ds = SequenceConfig(n_per_domain=100, k=5, d=4, seed=1).domain(0)
    assert accuracy(_label_zero_model(4, 5), ds) == pytest.approx(0.2)


def test_accuracy_perfect_predictor():
    ds = SequenceConfig(n_per_domain=50, k=5, d=4, seed=1).domain(0)
    perfect = Dataset(ds.x, np.zeros(50, dtype=int), 5)
    assert accuracy(_label_zero_model(4, 5), perfect) == 1.0


def test_accuracy_matches_counting_oracle_and_permutation_invariance():
    params = init_params(ModelConfig(hidden=(8,), feat_dim=5), 6, 4, 3)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((100, 6))
    labels = rng.integers(0, 4, 100)
    ds = Dataset(x, labels, 4)
    preds = forward(params, x).argmax(axis=1)
    expected = sum(int(p == l) for p, l in zip(preds, labels)) / 100
    assert accuracy(params, ds) == pytest.approx(expected, abs=1e-15)

    perm = rng.permutation(100)
    assert accuracy(params, ds.subset(perm)) == pytest.approx(expected, abs=1e-15)


def test_tda_worked_example():
    m = sequence_metrics(DA3_DIAG, DG3)
    assert m["tda_per_domain"] == pytest.approx([0.9, 0.85, 0.9])
    assert m["tda_mean"] == pytest.approx(0.8833, abs=1e-4)


def test_tda_identity_diagonal():
    eye = np.ones((3, 3))
    assert sequence_metrics(eye, eye)["tda_mean"] == 1.0


def test_tdg_worked_example():
    m = sequence_metrics(DA3_DIAG, DG3)
    assert m["tdg_per_domain"] == pytest.approx([0.5, 0.5])
    assert m["tdg_mean"] == pytest.approx(0.5)


def test_tdg_constant_matrix():
    grid = np.full((4, 4), 0.7)
    m = sequence_metrics(grid, grid)
    assert m["tdg_per_domain"] == pytest.approx([0.7, 0.7, 0.7])
    assert m["tdg_mean"] == pytest.approx(0.7)


def test_fa_worked_example():
    m = sequence_metrics(DA3_DIAG, DG3)
    assert m["fa_per_domain"] == pytest.approx([0.775, 0.8])
    assert m["fa_mean"] == pytest.approx(0.7875)


def test_fa_perfect_retention():
    grid = np.full((4, 4), 0.3)
    grid[np.tril_indices(4, -1)] = 0.65  # constant below the diagonal
    m = sequence_metrics(grid, grid)
    assert m["fa_per_domain"] == pytest.approx([0.65, 0.65, 0.65])


def test_tdg_fa_brute_force_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        grid = rng.random((n, n))
        m = sequence_metrics(grid, grid)
        tdg_vals, fa_vals = m["tdg_per_domain"], m["fa_per_domain"]
        for t in range(1, n):
            brute = sum(grid[tp, t] for tp in range(t)) / t
            assert abs(tdg_vals[t - 1] - brute) < 1e-12
        for t in range(n - 1):
            brute = sum(grid[tp, t] for tp in range(t + 1, n)) / (n - 1 - t)
            assert abs(fa_vals[t] - brute) < 1e-12


@st.composite
def matrix_pairs(draw):
    """(da, dg): two complete n x n grids of accuracies as lists, n = 1..6."""
    n = draw(st.integers(1, 6))
    grid = st.lists(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n), min_size=n,
                    max_size=n)
    return draw(grid), draw(grid)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(pair=matrix_pairs())
def test_tda_and_all_match_brute_force(pair):
    da, dg = pair
    n = len(dg)
    m = metrics_from_grids(dg, da)
    tda_vals = [dg[0][0]] + [da[t][t] for t in range(1, n)]
    assert m["tda_per_domain"] == tda_vals
    tda_mean = sum(tda_vals) / n
    assert m["tda_mean"] == pytest.approx(tda_mean, abs=1e-12)
    if n == 1:
        assert m["all"] is None
        return
    tdg_vals = [sum(dg[tp][t] for tp in range(t)) / t for t in range(1, n)]
    fa_vals = [sum(dg[tp][t] for tp in range(t + 1, n)) / (n - 1 - t) for t in range(n - 1)]
    brute_all = (tda_mean + sum(tdg_vals) / (n - 1) + sum(fa_vals) / (n - 1)) / 3
    assert m["all"] == pytest.approx(brute_all, abs=1e-12)


def test_single_domain_metrics_are_empty():
    grid = np.array([[0.9]])
    m = sequence_metrics(grid, grid)
    assert (m["tdg_per_domain"], m["tdg_mean"]) == ([], None)
    assert (m["fa_per_domain"], m["fa_mean"]) == ([], None)
    assert m["all"] is None


def cell_grids(tda_mean, tdg_mean, fa_mean):
    """(da, dg): 2x2 grids whose TDA, TDG and FA means are the three given numbers."""
    dg = [[tda_mean, tdg_mean], [fa_mean, 0.0]]
    da = [[0.0, 0.0], [0.0, tda_mean]]
    return np.array(da), np.array(dg)


def test_composite_reproduces_reported_cells():
    for cell, composite, tol in (((0.876, 0.722, 0.888), 0.8287, 5e-4),
                                 ((87.6, 72.2, 88.8), 82.9, 0.05),
                                 ((78.6, 61.0, 58.2), 65.9, 0.05)):
        m = sequence_metrics(*cell_grids(*cell))
        assert [m["tda_mean"], m["tdg_mean"], m["fa_mean"]] == list(cell)
        assert abs(m["all"] - composite) < tol
    assert sequence_metrics(*cell_grids(0.5, 0.5, 0.5))["all"] == 0.5


def test_metrics_report_composite_consistency():
    m = sequence_metrics(DA3_DIAG, DG3)
    assert m["all"] == pytest.approx((m["tda_mean"] + m["tdg_mean"] + m["fa_mean"]) / 3, abs=1e-9)
    assert list(m) == ["tda_per_domain", "tdg_per_domain", "fa_per_domain", "tda_mean",
                       "tdg_mean", "fa_mean", "all"]  # the results.json order


def test_accuracy_matrix_guards():
    """Outside grids must be square, of equal size, finite and in [0, 1]; the state
    loader's row checks live in test_orchestrate's STATE_FAULTS."""
    good = [[0.5, 0.5, 0.5]] * 3
    metrics_from_grids(good, good)
    with pytest.raises(ValueError, match="square"):
        metrics_from_grids(good[:2])
    with pytest.raises(ValueError, match="agree in size"):
        metrics_from_grids(good, [[0.5, 0.5]] * 2)
    for bad in (1.5, -0.1, np.nan, np.inf, -np.inf):
        grid = [[0.5, 0.5, 0.5], [bad, 0.5, 0.5], [0.5, 0.5, 0.5]]
        with pytest.raises(ValueError, match="finite"):
            metrics_from_grids(grid)
        with pytest.raises(ValueError, match="finite"):
            metrics_from_grids(good, grid)
    for grid in ([[True, False], [True, True]], [[0.5, 0.5], [0.5, True]],
                 np.ones((2, 2), dtype=bool)):
        with pytest.raises(ValueError, match="not booleans"):
            metrics_from_grids(grid)
        with pytest.raises(ValueError, match="not booleans"):
            metrics_from_grids([[0.5, 0.5]] * 2, grid)


_ACCURACIES = st.one_of(st.sampled_from([0.0, 1.0, 2 / 3]), st.floats(0, 1))


@settings(max_examples=200, deadline=None)
@given(epochs=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6),
                                 st.lists(_ACCURACIES, min_size=1, max_size=12)), max_size=4))
@example(epochs=[(0, 0, [0.0, 1.0, 2 / 3]), (4, 299, [2 / 3] * 11)])
def test_curve_rows_are_the_bytes_csv_writer_writes(epochs):
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(["stage", "epoch", "domain", "accuracy"])
    for stage, epoch, accuracies in epochs:
        writer.writerows((stage, epoch, domain, acc) for domain, acc in enumerate(accuracies))
    blob = CURVES_HEADER + b"".join(curve_rows(*epoch) for epoch in epochs)
    assert blob == text.getvalue().encode("utf-8")


def test_metrics_from_grids_single_grid_fallback_and_validation():
    m = metrics_from_grids(DG3.tolist())
    assert m["tda_per_domain"] == pytest.approx([0.9, 0.85, 0.9])
    with pytest.raises(ValueError, match="square"):
        metrics_from_grids([[0.5, 0.5]])
    with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
        metrics_from_grids([[0.5, 1.5], [0.5, 0.5]])
