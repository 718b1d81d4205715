import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codag.data import Dataset, SequenceConfig
from codag.nnmodel import ModelConfig, init_params
from codag.replay import ReplayBuffer, herding_select, update_buffer


def brute_force_herding(feats, m):
    feats = np.asarray(feats, dtype=np.float64)
    if feats.ndim == 1:
        feats = feats[:, None]
    mu = feats.mean(axis=0)
    chosen, remaining = [], list(range(len(feats)))
    for _ in range(m):
        best, best_dist = None, None
        for j in remaining:
            dist = np.linalg.norm(mu - feats[chosen + [j]].mean(axis=0))
            if best_dist is None or dist < best_dist:
                best, best_dist = j, dist
        chosen.append(best)
        remaining.remove(best)
    return np.asarray(chosen)


def test_herding_selects_all_in_order():
    feats = np.array([[0.0, 1.0], [2.0, 0.0], [1.0, 1.0], [-1.0, 0.5]])
    order = herding_select(feats, 4)
    assert sorted(order.tolist()) == [0, 1, 2, 3]
    np.testing.assert_array_equal(order, brute_force_herding(feats, 4))


def test_herding_single_pick_is_closest_to_mean():
    feats = np.random.default_rng(0).standard_normal((12, 3))
    mu = feats.mean(axis=0)
    pick = herding_select(feats, 1)[0]
    assert pick == int(np.argmin(np.linalg.norm(feats - mu, axis=1)))


def test_herding_tie_breaks_to_lowest_index():
    order = herding_select(np.array([[0.0], [1.0], [2.0]]), 2)
    assert order.tolist() == [1, 0]


def test_herding_matches_brute_force_exhaustively():
    rng = np.random.default_rng(42)
    for n in range(1, 9):
        for trial in range(6):
            feats = rng.standard_normal((n, 3))
            for m in range(0, n + 1):
                np.testing.assert_array_equal(
                    herding_select(feats, m), brute_force_herding(feats, m),
                    err_msg=f"n={n} m={m} trial={trial}",
                )
        # integer grids force exact ties
        grid = rng.integers(-2, 3, size=(n, 2)).astype(float)
        for m in range(0, n + 1):
            np.testing.assert_array_equal(herding_select(grid, m), brute_force_herding(grid, m))


def list_loop_herding(feats, m):
    """Herding that re-indexes the unchosen rows from a list at every pick."""
    feats = np.asarray(feats, dtype=np.float64)
    if feats.ndim == 1:
        feats = feats[:, None]
    mu = feats.mean(axis=0)
    unchosen, running, order = list(range(len(feats))), np.zeros(feats.shape[1]), []
    for step in range(1, m + 1):
        cand = (running[None, :] + feats[unchosen]) / step
        j = int(np.argmin(np.linalg.norm(mu[None, :] - cand, axis=1)))
        order.append(unchosen.pop(j))
        running += feats[order[-1]]
    return np.asarray(order, dtype=np.int64)


def test_herding_matches_list_loop_with_duplicated_rows():
    rng = np.random.default_rng(7)
    for trial in range(20):
        n, d = int(rng.integers(2, 60)), int(rng.integers(1, 9))
        feats = rng.standard_normal((n, d))
        dup = rng.integers(0, n, size=n // 2)
        feats[rng.integers(0, n, size=n // 2)] = feats[dup]  # exact ties
        for m in (1, n // 2, n):
            got = herding_select(feats, m)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, list_loop_herding(feats, m))
            if n <= 12:
                np.testing.assert_array_equal(got, brute_force_herding(feats, m))
    # the size update_buffer herds per class at the default config
    feats = rng.standard_normal((120, 32))
    np.testing.assert_array_equal(herding_select(feats, 120), list_loop_herding(feats, 120))


def _labeled_domain(n, k, d, domain_id, seed):
    rng = np.random.default_rng(seed)
    return Dataset(rng.standard_normal((n, d)), np.arange(n) % k, k, domain_id=domain_id)


@pytest.fixture
def dg_params():
    return init_params(ModelConfig(hidden=(8,), feat_dim=4), 6, 5, 0)


def test_source_stage_fills_to_capacity(dg_params):
    buf = ReplayBuffer(200, 5)
    buf = update_buffer(buf, _labeled_domain(400, 5, 6, 0, 1), dg_params)
    assert buf.n_entries == 200
    x, y, dom = buf.as_arrays()
    assert x.shape == (200, 6)
    assert np.all(dom == 0)  # source rows: their labels are true labels
    assert np.bincount(y, minlength=5).tolist() == [40] * 5


def test_quota_rebalance_two_and_three_domains(dg_params):
    buf = ReplayBuffer(200, 5)
    buf = update_buffer(buf, _labeled_domain(400, 5, 6, 0, 1), dg_params)
    buf = update_buffer(buf, _labeled_domain(300, 5, 6, 1, 2), dg_params)
    x, y, dom = buf.as_arrays()
    assert buf.n_entries == 200
    assert dom.tolist() == [0] * 100 + [1] * 100  # each store keeps its id, oldest first

    buf = update_buffer(buf, _labeled_domain(250, 5, 6, 2, 3), dg_params)
    _, _, dom = buf.as_arrays()
    counts = np.bincount(dom, minlength=3)
    assert counts.tolist() == [67, 67, 66]  # remainder goes to the earliest domains
    assert buf.n_entries == 200


def _class_rows(buf, domain_id, cls):
    x, y, dom = buf.as_arrays()  # rows of one class keep their pick order
    return x[(dom == domain_id) & (y == cls)]


def test_trimming_is_prefix_of_stored_order(dg_params):
    buf1 = update_buffer(ReplayBuffer(200, 5), _labeled_domain(400, 5, 6, 0, 1), dg_params)
    before = {c: _class_rows(buf1, 0, c) for c in range(5)}
    buf2 = update_buffer(buf1, _labeled_domain(300, 5, 6, 1, 2), dg_params)
    for c in range(5):
        after = _class_rows(buf2, 0, c)
        np.testing.assert_array_equal(after, before[c][: after.shape[0]])
        assert after.shape[0] <= before[c].shape[0]


def test_capacity_never_exceeded_along_a_chain(dg_params):
    buf = ReplayBuffer(50, 5)
    for t, n in enumerate((400, 180, 220, 90)):
        domain = _labeled_domain(n, 5, 6, t, t + 10)
        buf = update_buffer(buf, domain, dg_params)
        assert buf.n_entries <= 50
    assert buf.n_domains == 4


def test_zero_capacity_stays_empty(dg_params):
    buf = update_buffer(ReplayBuffer(0, 5), _labeled_domain(100, 5, 6, 0, 1), dg_params)
    assert buf.n_entries == 0 and buf.n_domains == 1
    with pytest.raises(ValueError):  # as_arrays needs an entry
        buf.as_arrays()


def test_scarce_class_keeps_what_exists(dg_params):
    # only classes 0 and 1 are present; their quotas cap what can be stored
    rng = np.random.default_rng(3)
    ds = Dataset(rng.standard_normal((40, 6)), np.arange(40) % 2, 5, domain_id=1)
    buf = update_buffer(ReplayBuffer(200, 5), ds, dg_params)
    _, y, _ = buf.as_arrays()
    counts = np.bincount(y, minlength=5)
    assert counts[0] == 20 and counts[1] == 20 and counts[2:].sum() == 0


def test_roundtrip_serialization(dg_params):
    """The buffer references its domains' own rows, in visit order; resuming
    rebuilds it by replaying these updates from the checkpoints."""
    cfg = SequenceConfig(n_per_domain=60, k=5, d=6, angles_deg=(0.0, 30.0, 60.0, 90.0, 120.0),
                         seed=3)
    seq = cfg.build(split_seed=0, target_order=[3, 1, 4, 2])
    buf = ReplayBuffer(60, 5)
    for t, train in enumerate(seq.train_sets):
        labeled = train if t == 0 else Dataset(train.x, seq.test_sets[t].labels, train.k,
                                               train.domain_id)
        buf = update_buffer(buf, labeled, dg_params)
    x, _, dom = buf.as_arrays()
    assert dom[np.sort(np.unique(dom, return_index=True)[1])].tolist() == [0, 3, 1, 4, 2]
    assert x.shape == (60, 6) and dom.tolist() == sorted(dom.tolist(), key=[0, 3, 1, 4, 2].index)
    rows = {train.domain_id: train.x for train in seq.train_sets}
    assert all((rows[d] == row).all(axis=1).any() for d, row in zip(dom, x))


@st.composite
def buffer_chains(draw):
    k = draw(st.integers(1, 5))
    histogram = st.lists(st.integers(0, 12), min_size=k, max_size=k).filter(any)
    histograms = draw(st.lists(histogram, min_size=1, max_size=5))
    return draw(st.integers(0, 60)), k, histograms


@settings(max_examples=100, derandomize=True, deadline=None)
@given(chain=buffer_chains())
def test_buffer_quotas_over_random_domains_and_class_histograms(chain):
    """Capacity splits across domains into shares that differ by at most 1,
    the remainder to the earliest; each (domain, class) keeps what its share
    allows; and trimming keeps a prefix of the stored order."""
    capacity, k, histograms = chain
    rng = np.random.default_rng(len(histograms) * 1000 + capacity)
    params = init_params(ModelConfig(hidden=(4,), feat_dim=3), 2, k, 0)
    buf, kept = ReplayBuffer(capacity, k), []
    for t, counts in enumerate(histograms):
        labels = rng.permutation(np.repeat(np.arange(k), counts))
        domain = Dataset(rng.standard_normal((labels.size, 2)), labels, k, domain_id=t)
        buf = update_buffer(buf, domain, params)
        # Shares at most 1 apart, the larger ones first; they add up to the capacity.
        shares = [capacity // (t + 1) + (i < capacity % (t + 1)) for i in range(t + 1)]
        assert buf.n_domains == t + 1 and buf.n_entries <= capacity
        # each (domain, class) in pick order; as_arrays needs an entry
        x, y, dom = (buf.as_arrays() if buf.n_entries else
                     (np.empty((0, 2)), np.empty(0, int), np.empty(0, int)))
        kept.append([None] * k)
        for i, share in enumerate(shares):
            class_shares = [share // k + (c < share % k) for c in range(k)]
            for c in range(k):
                rows, before = x[(dom == i) & (y == c)], kept[i][c]
                if before is None:  # herded this stage from what the class has
                    assert len(rows) == min(class_shares[c], histograms[i][c])
                else:
                    assert rows.tolist() == before[:len(rows)].tolist()
                    assert len(rows) == min(class_shares[c], len(before))
                kept[i][c] = rows
