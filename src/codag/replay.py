"""Capacity-bounded replay buffer with greedy herding selection.

Capacity splits evenly across seen domains (remainder to the earliest), and
within a domain as evenly as possible across classes. Per class, samples are
kept in herding order over the current DG features; shrinking a quota later
only truncates that stored order, never re-selects. A stored exemplar is a
row index into its domain's training features, which the buffer references
and never copies.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .nnmodel import ClassifierParams, features


_U = 2.0 ** -53  # unit roundoff of float64
_ETA = 2.0 ** -1074  # smallest subnormal float64


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u): bounds the relative error of k roundings."""
    return k * _U / (1.0 - k * _U)


# Features near the float64 limit overflow the distances; the diverging run is reported downstream.
@np.errstate(over="ignore", invalid="ignore")
def herding_select(feature_vectors, m: int) -> np.ndarray:
    """Greedy pick order keeping the running mean close to the full mean.

    Step s adds the unchosen index minimizing ||mean(all) - mean(chosen+{j})||,
    evaluated as ``sqrt(add.reduce((mu - (running + x_j) / s) ** 2))``; ties
    resolve to the lowest index. Returns ``m`` indices, ``m`` at most the row
    count, in pick order.

    Each step ranks the unchosen rows, then verifies the few near the
    minimum. With c = mu - running / s, row i ranks by
    e_i = ||x_i||^2 - 2 s c . x_i, one matrix-vector product for all rows;
    e_i + s^2 ||c||^2 is s^2 times its squared distance. Let t_i be that
    product in exact arithmetic on the stored floats, and g_i s^2 times the
    exact score's sum of squares. The rounding errors of both computations
    scale with the magnitudes s |mu_j| + |running_j| + |x_ij|, whose sum of
    squares is at most W = (s ||mu|| + ||running|| + max_i ||x_i||)^2, so
    the standard bounds (Higham, "Accuracy and Stability of Numerical
    Algorithms", ch. 3, gamma_k = k u / (1 - k u)) give
    |g_i - t_i| <= eps and |e_i + s^2 ||c||^2 - t_i| <= eps with
    eps = gamma_{d+16} W + (2 s sqrt(W) + 3 s^2) d eta, where eta, the
    smallest subnormal, covers underflow. A correctly rounded sqrt turns
    D_a <= D_b into g_a <= (1 + gamma_4) g_b. So the row a of the exact
    minimum has, for every row b,
    e_a <= (1 + gamma_4)(e_b + s^2 ||c||^2 + 2 eps) + 2 eps - s^2 ||c||^2,
    and with b the smallest rank every row within that limit is a
    candidate. The code doubles eps and takes gamma_8 to cover the rounding
    of the limit itself. A single candidate is the pick; several are
    re-scored in the exact arithmetic. When a feature or the limit is not
    finite, every unchosen row is a candidate. Chosen rows are marked, not
    removed, so candidates stay in index order and the first minimum among
    them is the first overall.
    """
    feats = np.asarray(feature_vectors, dtype=np.float64)
    n, d = feats.shape
    mu = feats.mean(axis=0)
    sq_norms = np.einsum("ij,ij->i", feats, feats)
    mu_norm = math.sqrt(mu @ mu)
    max_norm = math.sqrt(sq_norms.max()) if n else 0.0
    rank_all = not np.isfinite(feats).all()
    chosen = np.zeros(n, dtype=bool)
    unranked = sq_norms  # a chosen row's norm becomes +inf, so it never ranks
    rank = np.empty(n)
    running = np.zeros(d)
    order = np.empty(m, dtype=np.int64)
    for step in range(1, m + 1):
        cand = None
        if not rank_all:
            c = mu - running / step
            np.matmul(feats, c * (2.0 * step), out=rank)
            np.subtract(unranked, rank, out=rank)
            offset = step * step * float(c @ c)
            bound = step * mu_norm + math.sqrt(running @ running) + max_norm
            bound *= bound
            margin = 4.0 * (_gamma(d + 16) * bound
                            + (2.0 * step * math.sqrt(bound) + 3.0 * step * step) * d * _ETA)
            limit = (float(rank.min()) + offset + margin) * (1.0 + _gamma(8)) + margin - offset
            if math.isfinite(limit):
                cand = np.flatnonzero(rank <= limit)
        if cand is None:
            cand = np.flatnonzero(~chosen)
        if cand.size == 1:
            j = int(cand[0])
        else:
            # ||mu - (running + row) / step|| per candidate, in np.linalg.norm's arithmetic.
            diff = np.add(running, feats[cand])
            diff /= step
            np.subtract(mu, diff, out=diff)
            diff *= diff
            dist = np.sqrt(np.add.reduce(diff, axis=1))
            j = int(cand[np.argmin(dist)])  # first minimum = lowest index
        order[step - 1] = j
        chosen[j] = True
        unranked[j] = np.inf
        running += feats[j]
    return order


@dataclass
class _DomainStore:
    domain_id: int
    pseudo: bool
    x: np.ndarray  # the domain's training features, shared
    per_class: dict[int, np.ndarray] = field(default_factory=dict)  # herding-ordered row indices

    def n_entries(self) -> int:
        return sum(rows.shape[0] for rows in self.per_class.values())


class ReplayBuffer:
    """Selected exemplars from completed domains, rebalanced every stage."""

    def __init__(self, capacity: int, k: int):
        self.capacity = capacity
        self.k = k
        self._domains: list[_DomainStore] = []  # insertion order = domain age

    @property
    def n_entries(self) -> int:
        return sum(store.n_entries() for store in self._domains)

    @property
    def n_domains(self) -> int:
        return len(self._domains)

    def as_arrays(self):
        """(x, labels, domain_ids, is_pseudo) in (age, class, pick) order; the
        buffer must hold at least one entry."""
        xs, ys, ds, ps = [], [], [], []
        for store in self._domains:
            for cls in sorted(store.per_class):
                rows = store.per_class[cls]
                if rows.shape[0] == 0:
                    continue
                xs.append(store.x[rows])
                ys.append(np.full(rows.shape[0], cls, dtype=np.int64))
                ds.append(np.full(rows.shape[0], store.domain_id, dtype=np.int64))
                ps.append(np.full(rows.shape[0], store.pseudo))
        return (np.concatenate(xs), np.concatenate(ys),
                np.concatenate(ds), np.concatenate(ps))


def _quotas(total: int, parts: int) -> list[int]:
    """``total`` split into ``parts`` shares that differ by at most 1, the larger ones first."""
    base, rem = divmod(total, parts)
    return [base + (i < rem) for i in range(parts)]


def update_buffer(buffer: ReplayBuffer, new_domain: Dataset,
                  dg_params: ClassifierParams) -> ReplayBuffer:
    """Rebalanced buffer after a completed stage.

    Existing domains are trimmed by truncating their stored herding orders;
    the new domain's exemplars are herded per class over the current DG
    features. Each entry keeps the domain's labels, tagged pseudo or true
    by ``new_domain.pseudo``.
    """
    x, labels, domain_id = new_domain.x, new_domain.labels, new_domain.domain_id

    out = ReplayBuffer(buffer.capacity, buffer.k)
    quotas = _quotas(buffer.capacity, buffer.n_domains + 1)

    for age, store in enumerate(buffer._domains):
        class_quotas = _quotas(quotas[age], buffer.k)
        trimmed = _DomainStore(store.domain_id, store.pseudo, store.x)
        for cls, rows in store.per_class.items():
            trimmed.per_class[cls] = rows[:class_quotas[cls]]
        out._domains.append(trimmed)

    class_quotas = _quotas(quotas[-1], buffer.k)
    fresh = _DomainStore(domain_id, new_domain.pseudo, x)
    for cls in range(buffer.k):
        idx = np.where(labels == cls)[0]
        take = min(class_quotas[cls], idx.size)
        if take:
            idx = idx[herding_select(features(dg_params, x[idx]), take)]
        fresh.per_class[cls] = idx[:take]
    out._domains.append(fresh)
    return out
