"""Capacity-bounded replay buffer with greedy herding selection.

Capacity splits evenly across seen domains (remainder to the earliest), and
within a domain as evenly as possible across classes. Per class, samples are
kept in herding order over the current DG features; shrinking a quota later
only truncates that stored order, never re-selects. A stored exemplar is a
row index into its domain's training features, which the buffer references
and never copies.
"""

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, DomainSequence
from .nnmodel import ClassifierParams, features


# Features near the float64 limit overflow the distances; the diverging run is reported downstream.
@np.errstate(over="ignore", invalid="ignore")
def herding_select(feature_vectors, m: int) -> np.ndarray:
    """Greedy pick order keeping the running mean close to the full mean.

    Step j adds the unchosen index minimizing ||mean(all) - mean(chosen+{j})||;
    ties resolve to the lowest index. Returns indices in pick order.
    """
    feats = np.asarray(feature_vectors, dtype=np.float64)
    n = feats.shape[0]
    if m > n:
        raise ValueError(f"cannot select {m} of {n} items")
    mu = feats.mean(axis=0)
    # The unchosen rows, compacted in index order; a pick shifts the rest up.
    rows, left = feats.copy(), np.arange(n)
    work, dists = np.empty_like(feats), np.empty(n)
    running = np.zeros(feats.shape[1])
    order = np.empty(m, dtype=np.int64)
    for step in range(1, m + 1):
        r = n - step + 1
        cand, dist = work[:r], dists[:r]
        # ||mu - (running + row) / step|| per row, in np.linalg.norm's arithmetic.
        np.add(running, rows[:r], out=cand)
        np.divide(cand, step, out=cand)
        np.subtract(mu, cand, out=cand)
        np.multiply(cand, cand, out=cand)
        np.add.reduce(cand, axis=1, out=dist)
        np.sqrt(dist, out=dist)
        j = int(np.argmin(dist))  # first minimum = lowest index (rows stay in index order)
        order[step - 1] = left[j]
        running += rows[j]
        rows[j:r - 1] = rows[j + 1:r]
        left[j:r - 1] = left[j + 1:r]
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
        if capacity < 0:
            raise ValueError("capacity must be nonnegative")
        if k <= 0:
            raise ValueError("class count must be positive")
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
        """(x, labels, domain_ids, is_pseudo) in (age, class, pick) order."""
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
        if not xs:
            d = 0
            return (np.empty((0, d)), np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=np.int64), np.empty(0, dtype=bool))
        return (np.concatenate(xs), np.concatenate(ys),
                np.concatenate(ds), np.concatenate(ps))

    def to_dict(self) -> list[list[list[int]]]:
        """The kept row indices as JSON data: ``[stage][class]``, oldest stage first."""
        return [[store.per_class[c].tolist() for c in range(self.k)] for store in self._domains]

    @classmethod
    def from_dict(cls, raw: list, seq: DomainSequence, capacity: int) -> "ReplayBuffer":
        """Inverse of ``to_dict``: stage ``i``'s rows index ``seq.train_sets[i]``,
        whose labels are pseudo-labels for every stage after the source.

        Raises ``ValueError`` unless each class list holds distinct in-range
        row indices, no row repeats within a stage, and no list is longer
        than its class quota after ``len(raw)`` stages at ``capacity``.
        """
        buf = cls(capacity, seq.k)
        quotas = _quotas(capacity, len(raw)) if raw else []
        for i, classes in enumerate(raw):
            train = seq.train_sets[i]
            if not (isinstance(classes, list) and len(classes) == buf.k):
                raise ValueError(f"buffer stage {i} must hold {buf.k} class lists")
            store = _DomainStore(train.domain_id, i > 0, train.x)
            for c, (rows, quota) in enumerate(zip(classes, _quotas(quotas[i], buf.k))):
                rows = np.array(rows)
                if not (rows.ndim == 1 and (rows.size == 0 or rows.dtype.kind == "i"
                                            and 0 <= rows.min() <= rows.max() < len(train))):
                    raise ValueError(f"malformed buffer rows: stage {i}, class {c}")
                if rows.size > quota:
                    raise ValueError(f"buffer stage {i}, class {c} holds {rows.size} rows, "
                                     f"over its quota of {quota}")
                store.per_class[c] = rows.astype(np.int64)
            kept = np.concatenate(list(store.per_class.values()))
            if np.unique(kept).size != kept.size:
                raise ValueError(f"buffer stage {i} repeats a row")
            buf._domains.append(store)
        return buf


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
    if not isinstance(new_domain, Dataset):
        raise TypeError(f"cannot buffer a {type(new_domain).__name__}")
    x, labels, domain_id = new_domain.x, new_domain.labels, new_domain.domain_id
    if new_domain.k != buffer.k:
        raise ValueError(f"class count mismatch: buffer {buffer.k}, domain {new_domain.k}")

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
