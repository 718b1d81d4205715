"""Synthetic domain sequences with controllable shift, plus CSV ingestion.

A sequence is one labeled source domain followed by label-free target
domains. Synthetic domains are Gaussian clusters around fixed class means,
shifted per domain by an in-plane rotation, a scale, a translation, and
fresh noise. Target-domain training views hide their labels so the
unsupervised contract is enforced mechanically.
"""

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

# Class means concentrate this much extra weight on the two rotated
# coordinates so a rotation is a real covariate shift, not a no-op.
_PLANE_BOOST = 3.5

_MEANS_STREAM = 1
_NOISE_STREAM = 2


class HiddenLabelsError(RuntimeError):
    """Training code touched labels of a domain that provides none."""


@dataclass(frozen=True)
class DomainSpec:
    """Recipe for one domain in a sequence."""

    id: int
    kind: str = "synthetic-rotated"
    rotation_angle: float = 0.0  # radians, applied in coordinates (0, 1)
    noise_sigma: float = 0.15
    scale: float = 1.0
    shift: tuple[float, ...] | None = None  # None means zero shift
    seed: int = 0
    path: str | None = None  # csv-folder domains only

    def __post_init__(self):
        if self.kind not in ("synthetic-rotated", "csv-folder"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be nonnegative")
        if self.scale <= 0:
            raise ValueError("scale must be positive")


class Dataset:
    """Classification dataset backed by dense arrays.

    ``labels_hidden=True`` makes any label access raise, which is how
    target-domain training views guarantee labels are never consulted.
    ``pseudo=True`` marks labels assigned by a model rather than observed.
    """

    def __init__(self, x, labels, k: int, domain_id: int = 0, labels_hidden: bool = False,
                 pseudo: bool = False):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] == 0:
            raise ValueError("dataset features must be a nonempty (n, d) array")
        if not np.all(np.isfinite(x)):
            raise ValueError("dataset features must be finite")
        if k <= 0:
            raise ValueError("class count must be positive")
        if labels is not None:
            labels = np.asarray(labels, dtype=np.int64)
            if labels.shape != (x.shape[0],):
                raise ValueError("labels must align with features")
            if labels.size and (labels.min() < 0 or labels.max() >= k):
                raise ValueError(f"labels must lie in [0, {k})")
        self.x = x
        self.k = k
        self.domain_id = domain_id
        self.labels_hidden = labels_hidden
        self.pseudo = pseudo
        self._labels = labels

    @property
    def labels(self) -> np.ndarray:
        if self.labels_hidden:
            raise HiddenLabelsError(
                f"labels of domain {self.domain_id} are hidden during training"
            )
        if self._labels is None:
            raise HiddenLabelsError(f"domain {self.domain_id} carries no labels")
        return self._labels

    @property
    def d(self) -> int:
        return self.x.shape[1]

    def __len__(self) -> int:
        return self.x.shape[0]

    def without_labels(self) -> "Dataset":
        """View over the same arrays with label access disabled."""
        ds = Dataset.__new__(Dataset)
        ds.x = self.x
        ds.k = self.k
        ds.domain_id = self.domain_id
        ds.labels_hidden = True
        ds.pseudo = self.pseudo
        ds._labels = self._labels
        return ds

    def subset(self, indices) -> "Dataset":
        indices = np.asarray(indices, dtype=np.int64)
        labels = None if self._labels is None else self._labels[indices]
        return Dataset(self.x[indices], labels, self.k, self.domain_id, self.labels_hidden,
                       self.pseudo)


def class_means(k: int, d: int, seed: int) -> np.ndarray:
    """K fixed unit vectors shared by every domain generated from ``seed``."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, _MEANS_STREAM]))
    means = rng.standard_normal((k, d))
    means[:, :2] *= _PLANE_BOOST
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    return means


def make_rotated_clusters(
    spec: DomainSpec, n: int, k: int, d: int, means: np.ndarray | None = None
) -> Dataset:
    """Balanced Gaussian clusters under the spec's domain transform.

    The clean point of every sample is its class mean after rotation (first
    two coordinates), scaling, and shift; noise_sigma adds isotropic noise.
    ``means`` overrides the seed-derived class means (test hook).
    """
    if n < k:
        raise ValueError(f"need at least one sample per class: n={n} < k={k}")
    if d < 2:
        raise ValueError("rotated clusters need d >= 2")
    if means is None:
        means = class_means(k, d, spec.seed)
    means = np.asarray(means, dtype=np.float64)
    if means.shape != (k, d):
        raise ValueError(f"means must have shape ({k}, {d})")

    transformed = means.copy()
    c, s = math.cos(spec.rotation_angle), math.sin(spec.rotation_angle)
    plane = transformed[:, :2] @ np.array([[c, s], [-s, c]])
    transformed[:, :2] = plane
    transformed *= spec.scale
    if spec.shift is not None:
        shift = np.asarray(spec.shift, dtype=np.float64)
        if shift.shape != (d,):
            raise ValueError(f"shift must have length {d}")
        transformed += shift

    counts = np.full(k, n // k, dtype=np.int64)
    counts[: n % k] += 1
    labels = np.repeat(np.arange(k), counts)
    x = transformed[labels]
    if spec.noise_sigma > 0:
        noise_rng = np.random.default_rng(
            np.random.SeedSequence([spec.seed, _NOISE_STREAM, spec.id])
        )
        x = x + spec.noise_sigma * noise_rng.standard_normal((n, d))
    return Dataset(x, labels, k, domain_id=spec.id)


def split_source(dataset: Dataset, fraction: float, seed) -> tuple[Dataset, Dataset]:
    """Disjoint train/test partition; |train| = round(fraction * n)."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must lie in (0, 1], got {fraction}")
    dataset.labels  # raises if the dataset is unlabeled
    n = len(dataset)
    n_train = int(math.floor(fraction * n + 0.5))
    if n_train == n:
        raise ValueError(f"source_fraction {fraction} leaves the source test split empty; "
                         "lower source_fraction")
    perm = np.random.default_rng(seed).permutation(n)
    return dataset.subset(perm[:n_train]), dataset.subset(perm[n_train:])


def iter_batches(n: int, batch_size: int, rng: np.random.Generator):
    """Index batches over one shuffle of ``range(n)``: a single permutation draw."""
    perm = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield perm[start:start + batch_size]


def load_csv_domain(path, k: int, d: int, domain_id: int = 0) -> Dataset:
    """Parse one domain file: d float columns then one integer label column."""
    rows: list[list[float]] = []
    labels: list[int] = []
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, record in enumerate(csv.reader(fh), start=1):
            if not record or (len(record) == 1 and not record[0].strip()):
                continue
            if lineno == 1 and _looks_like_header(record):
                continue
            if len(record) != d + 1:
                raise ValueError(
                    f"{path}: line {lineno}: expected {d + 1} columns, got {len(record)}"
                )
            try:
                feats = [float(cell) for cell in record[:d]]
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: malformed feature value") from None
            try:
                label = int(record[d])
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: malformed label") from None
            if not 0 <= label < k:
                raise ValueError(f"{path}: line {lineno}: label out of range [0, {k})")
            rows.append(feats)
            labels.append(label)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return Dataset(np.array(rows), np.array(labels), k, domain_id=domain_id)


def _looks_like_header(record: list[str]) -> bool:
    for cell in record:
        try:
            float(cell)
            return False  # any numeric cell means data, not header
        except ValueError:
            continue
    return True


def check_domain_order(target_order, n_domains: int) -> None:
    """Raise unless ``target_order`` is a permutation of the target ids 1..n_domains-1."""
    expected = list(range(1, n_domains))
    if sorted(target_order) != expected:
        raise ValueError(f"domain_order must be a permutation of {expected}")


@dataclass
class DomainSequence:
    """Ordered domains: labeled source first, then unlabeled targets.

    For targets, train and test views share the same samples; the train view
    hides its labels.
    """

    specs: list[DomainSpec]
    train_sets: list[Dataset]
    test_sets: list[Dataset]

    def __post_init__(self):
        ids = [s.id for s in self.specs]
        if ids != list(range(len(self.specs))):
            raise ValueError("domain ids must be contiguous from 0")
        if not (len(self.specs) == len(self.train_sets) == len(self.test_sets)):
            raise ValueError("specs and datasets must align")

    @property
    def n_domains(self) -> int:
        return len(self.specs)

    @property
    def k(self) -> int:
        return self.test_sets[0].k

    @property
    def d(self) -> int:
        return self.test_sets[0].d

    def reordered(self, target_order: list[int]) -> "DomainSequence":
        """Same domains visited source-first, then targets in ``target_order``."""
        check_domain_order(target_order, self.n_domains)
        order = [0, *target_order]
        specs = [replace(self.specs[src], id=pos) for pos, src in enumerate(order)]
        return DomainSequence(
            specs,
            [self.train_sets[src] for src in order],
            [self.test_sets[src] for src in order],
        )


@dataclass
class SequenceConfig:
    """Config-file form of a domain sequence."""

    kind: str = "synthetic-rotated"
    n_per_domain: int = 500
    k: int = 5
    d: int = 16
    angles_deg: tuple[float, ...] = (0.0, 30.0, 60.0, 90.0, 120.0)
    noise_sigma: float = 0.15
    scale: float = 1.0
    shift: tuple[float, ...] | None = None
    seed: int = 7
    source_fraction: float = 0.8
    path: str | None = None  # csv-folder: directory of domain_*.csv files

    def __post_init__(self):
        if self.kind not in ("synthetic-rotated", "csv-folder"):
            raise ValueError(f"unknown sequence kind {self.kind!r}")
        if min(self.n_per_domain, self.k, self.d) < 1:
            raise ValueError("n_per_domain, k and d must be at least 1")
        if not self.angles_deg:
            raise ValueError("angles_deg must name at least one domain")

    def specs(self) -> list[DomainSpec]:
        if self.kind == "csv-folder":
            import glob
            import os

            if self.path is None:
                raise ValueError("csv-folder sequence needs a path")
            files = sorted(glob.glob(os.path.join(self.path, "domain_*.csv")))
            if not files:
                raise ValueError(f"no domain_*.csv files under {self.path}")
            return [
                DomainSpec(id=i, kind="csv-folder", seed=self.seed, path=f)
                for i, f in enumerate(files)
            ]
        return [
            DomainSpec(
                id=i,
                rotation_angle=math.radians(angle),
                noise_sigma=self.noise_sigma,
                scale=self.scale,
                shift=self.shift,
                seed=self.seed,
            )
            for i, angle in enumerate(self.angles_deg)
        ]

    def build(self, split_seed) -> DomainSequence:
        """Materialize datasets: source split into train/test, targets shared."""
        specs = self.specs()
        train_sets: list[Dataset] = []
        test_sets: list[Dataset] = []
        for spec in specs:
            if spec.kind == "csv-folder":
                full = load_csv_domain(spec.path, self.k, self.d, domain_id=spec.id)
            else:
                full = make_rotated_clusters(spec, self.n_per_domain, self.k, self.d)
            if spec.id == 0:
                train, test = split_source(full, self.source_fraction, split_seed)
                train_sets.append(train)
                test_sets.append(test)
            else:
                train_sets.append(full.without_labels())
                test_sets.append(full)
        return DomainSequence(specs, train_sets, test_sets)
