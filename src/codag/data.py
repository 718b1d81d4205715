"""Synthetic domain sequences with controllable shift, plus CSV ingestion.

A sequence is one labeled source domain followed by label-free target
domains. Synthetic domains are Gaussian clusters around fixed class means,
and domains differ by an in-plane rotation and fresh noise. Target-domain
training views hide their labels so the unsupervised contract is enforced
mechanically.
"""

import csv
import glob
import hashlib
import io
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

# Class means concentrate this much extra weight on the two rotated
# coordinates so a rotation is a real covariate shift, not a no-op.
_PLANE_BOOST = 3.5

_MEANS_STREAM = 1
_NOISE_STREAM = 2


class HiddenLabelsError(RuntimeError):
    """Training code touched the hidden labels of a target domain."""


class Dataset:
    """Classification dataset backed by dense arrays.

    ``labels_hidden=True`` makes any label access raise, which is how
    target-domain training views guarantee labels are never consulted.
    Only domain 0, the source, is labeled: labels on any other domain are
    pseudo-labels, and their rows follow the noisy-label schedule in DG
    training. The CSV parser and ``SequenceConfig`` validate its arrays, so the
    constructor does not check them again.
    """

    def __init__(self, x, labels, k: int, domain_id: int = 0, labels_hidden: bool = False):
        self.x = np.asarray(x, dtype=np.float64)
        self.k = k
        self.domain_id = domain_id
        self.labels_hidden = labels_hidden
        self._labels = np.asarray(labels, dtype=np.int64)

    @property
    def labels(self) -> np.ndarray:
        if self.labels_hidden:
            raise HiddenLabelsError(
                f"labels of domain {self.domain_id} are hidden during training"
            )
        return self._labels

    @property
    def d(self) -> int:
        return self.x.shape[1]

    def __len__(self) -> int:
        return self.x.shape[0]

    def without_labels(self) -> "Dataset":
        """View over the same arrays with label access disabled."""
        return Dataset(self.x, self._labels, self.k, self.domain_id, labels_hidden=True)

    def subset(self, indices) -> "Dataset":
        indices = np.asarray(indices, dtype=np.int64)
        return Dataset(self.x[indices], self._labels[indices], self.k, self.domain_id,
                       self.labels_hidden)


def class_means(k: int, d: int, seed: int) -> np.ndarray:
    """K fixed unit vectors shared by every domain generated from ``seed``."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, _MEANS_STREAM]))
    means = rng.standard_normal((k, d))
    means[:, :2] *= _PLANE_BOOST
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    return means


def split_source(dataset: Dataset, fraction: float, seed) -> tuple[Dataset, Dataset]:
    """Disjoint train/test partition; |train| = round(fraction * n)."""
    dataset.labels  # raises if the labels are hidden
    n_train = _n_train(fraction, len(dataset))
    perm = np.random.default_rng(seed).permutation(len(dataset))
    return dataset.subset(perm[:n_train]), dataset.subset(perm[n_train:])


def _n_train(fraction: float, n: int) -> int:
    """round(fraction * n), the source rows that train; raises if a split would be empty."""
    n_train = int(math.floor(fraction * n + 0.5))
    if not 0 < n_train < n:
        raise ValueError(f"source_fraction {fraction} leaves the train or test split of a "
                         f"{n}-row source empty")
    return n_train


# Parsed domain files, one entry per path: (sha256 of its bytes, k, d, features, labels).
# The arrays are read-only because every load of that content shares them.
_parsed_csv: dict[str, tuple[str, int, int, np.ndarray, np.ndarray]] = {}


def load_csv_domain(path, k: int, d: int, domain_id: int = 0) -> Dataset:
    """Parse one domain file: d float columns then one integer label column.

    Each distinct file content is parsed once per process: a later load of the
    same bytes (same sha256) with the same ``k`` and ``d`` returns a new
    ``Dataset`` over the stored read-only arrays, and a changed file is parsed
    again and replaces its path's entry.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    digest = hashlib.sha256(blob).hexdigest()
    key = os.fspath(path)
    hit = _parsed_csv.get(key)
    if hit is not None and hit[:3] == (digest, k, d):
        return Dataset(hit[3], hit[4], k, domain_id=domain_id)
    x, labels = _parse_csv(blob, path, k, d)
    ds = Dataset(x, labels, k, domain_id=domain_id)
    x.flags.writeable = labels.flags.writeable = False
    _parsed_csv[key] = (digest, k, d, x, labels)
    return ds


# A quote lets a csv record span lines, and numpy strips these four ASCII
# separators as whitespace where float() and int() refuse them.
_NOT_PLAIN = b'"\x1c\x1d\x1e\x1f'
# int() refuses more digits than sys.get_int_max_str_digits(), which is never
# below 640, and csv a cell over csv.field_size_limit(); numpy refuses neither.
_MAX_CELL = 640


def _parse_csv(blob: bytes, path, k: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Validated (features, labels) of a domain file's bytes; errors name ``path`` and the line.

    A plain file is read by numpy's C reader, which parses floats with the same
    routine as float() and decodes each line as UTF-8. Anything it refuses or
    that fails a check goes to the line parser, which gives every error.
    """
    # csv ends the first record at a bare CR, but skiprows=1 skips to the first LF.
    lf = blob.find(b"\n")
    if (not any(c in blob for c in _NOT_PLAIN) and blob.find(b"\r", 0, lf) in (-1, lf - 1)
            and _longest_cell(blob) <= _MAX_CELL):
        try:
            # A blank first record reads as a header too, and both parsers skip it.
            first = next(csv.reader([(blob if lf < 0 else blob[:lf + 1]).decode("utf-8")]), [])
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # e.g. "input contained no data"
                table = np.loadtxt(io.BytesIO(blob), dtype=[("x", "f8", (d,)), ("y", "i8")],
                                   delimiter=",", comments=None, ndmin=1, encoding="utf-8",
                                   skiprows=int(_looks_like_header(first)))
        except Exception:  # whatever the C reader refuses, the line parser decides
            pass
        else:
            x, labels = np.ascontiguousarray(table["x"]), np.ascontiguousarray(table["y"])
            if (len(labels) and np.isfinite(x).all()
                    and 0 <= labels.min() and labels.max() < k):
                return x, labels
    return _parse_lines(blob, path, k, d)


def _longest_cell(blob: bytes) -> int:
    """An upper bound on the length of ``blob``'s longest cell (bytes, CR included)."""
    codes = np.frombuffer(blob, dtype=np.uint8)
    ends = np.flatnonzero((codes == ord(",")) | (codes == ord("\n")))
    return int(np.diff(ends, prepend=-1, append=codes.size).max())


def _parse_lines(blob: bytes, path, k: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """``_parse_csv`` one csv record at a time: the parser that names a bad line."""
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = blob.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}: line {lineno}: not UTF-8 text") from None
    rows: list[list[float]] = []
    labels: list[int] = []
    linenos: list[int] = []
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        for i, record in enumerate(reader):
            lineno = reader.line_num  # a quoted cell can span lines; this is the record's last
            if not record or (len(record) == 1 and not record[0].strip()):
                continue
            if i == 0 and _looks_like_header(record):
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
            linenos.append(lineno)
    except csv.Error as exc:  # e.g. a cell over csv.field_size_limit()
        raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    x = np.array(rows)
    finite = np.isfinite(x).all(axis=1)  # float() parses nan, inf and 1e999
    if not finite.all():
        lineno = linenos[int(np.argmin(finite))]
        raise ValueError(f"{path}: line {lineno}: non-finite feature value")
    return x, np.array(labels, dtype=np.int64)


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

    train_sets: list[Dataset]
    test_sets: list[Dataset]

    @property
    def n_domains(self) -> int:
        return len(self.test_sets)

    @property
    def k(self) -> int:
        return self.test_sets[0].k

    @property
    def d(self) -> int:
        return self.test_sets[0].d


@dataclass(frozen=True)
class SequenceConfig:
    """A domain sequence: its config section and the one recipe for its datasets.

    Construction checks every value that does not depend on CSV content, so
    a config that constructs also builds unless a CSV file is missing or
    malformed.
    """

    kind: str = "synthetic-rotated"
    n_per_domain: int = 500
    k: int = 5
    d: int = 16
    angles_deg: tuple[float, ...] = (0.0, 30.0, 60.0, 90.0, 120.0)
    noise_sigma: float = 0.15
    seed: int = 7
    source_fraction: float = 0.8
    path: str | None = None  # csv-folder: directory of domain_*.csv files

    def __post_init__(self):
        if self.kind not in ("synthetic-rotated", "csv-folder"):
            raise ValueError(f"kind must be synthetic-rotated or csv-folder, got {self.kind!r}")
        if self.kind == "csv-folder" and self.path is None:
            raise ValueError("path must name a folder of domain_*.csv files for csv-folder")
        if self.k < 2:
            raise ValueError(f"k must be at least 2, since negative learning needs a "
                             f"complementary class; got {self.k}")
        if self.d < 1:
            raise ValueError(f"d must be at least 1, got {self.d}")
        if not 0 < self.source_fraction < 1:
            raise ValueError(f"source_fraction must lie in (0, 1), got {self.source_fraction}")
        if self.kind == "csv-folder":
            return
        # The synthetic generator's own ranges.
        if self.d < 2:
            raise ValueError(f"d must be at least 2 to rotate coordinates (0, 1), got {self.d}")
        if self.n_per_domain < self.k:
            raise ValueError(f"n_per_domain must be at least k={self.k}, got {self.n_per_domain}")
        if not self.angles_deg:
            raise ValueError("angles_deg must name at least one domain")
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be nonnegative, got {self.noise_sigma}")
        # |mean entry| <= 1 and |standard normal draw| < 64, so this bounds |feature|.
        if not math.isfinite(1.0 + 64 * self.noise_sigma):
            raise ValueError("noise_sigma is too large: features would overflow")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        _n_train(self.source_fraction, self.n_per_domain)

    def _csv_files(self) -> list[str]:
        files = sorted(glob.glob(os.path.join(self.path, "domain_*.csv")))
        if not files:
            raise ValueError(f"no domain_*.csv files under {self.path}")
        return files

    @property
    def n_domains(self) -> int:
        return len(self._csv_files() if self.kind == "csv-folder" else self.angles_deg)

    def domain(self, i: int, csv_files: list[str] | None = None) -> Dataset:
        """Domain ``i``'s full labeled dataset, in natural order.

        A synthetic domain is balanced Gaussian clusters: the clean point of
        a sample is its class mean rotated by ``angles_deg[i]`` in
        coordinates (0, 1); ``noise_sigma`` adds isotropic noise. ``csv_files``
        saves globbing the folder again.
        """
        if self.kind == "csv-folder":
            path = (csv_files or self._csv_files())[i]
            return load_csv_domain(path, self.k, self.d, domain_id=i)
        transformed = class_means(self.k, self.d, self.seed)
        angle = math.radians(self.angles_deg[i])
        c, s = math.cos(angle), math.sin(angle)
        transformed[:, :2] = transformed[:, :2] @ np.array([[c, s], [-s, c]])

        n, k = self.n_per_domain, self.k
        counts = np.full(k, n // k, dtype=np.int64)
        counts[: n % k] += 1
        labels = np.repeat(np.arange(k), counts)
        x = transformed[labels]
        if self.noise_sigma > 0:
            noise = np.random.default_rng(np.random.SeedSequence([self.seed, _NOISE_STREAM, i]))
            x = x + self.noise_sigma * noise.standard_normal((n, self.d))
        return Dataset(x, labels, k, domain_id=i)

    def build(self, split_seed, target_order=None) -> DomainSequence:
        """Materialize datasets: source split into train/test, then the targets,
        shared, in the visit order ``target_order`` (natural order when None).

        Only the source split depends on ``split_seed``. CSV domains come from
        ``load_csv_domain``, so every build in a process shares one read-only
        copy of each file's arrays.
        """
        files = self._csv_files() if self.kind == "csv-folder" else None
        source = self.domain(0, files)
        try:
            train, test = split_source(source, self.source_fraction, split_seed)
        except ValueError as exc:  # construction checked synthetic sizes, so this is a CSV
            raise ValueError(f"{files[0]}: {exc}") from None
        del source  # frees a synthetic source before the targets generate; a CSV one stays cached
        order = target_order or range(1, len(files or self.angles_deg))
        targets = [self.domain(i, files) for i in order]
        return DomainSequence([train] + [ds.without_labels() for ds in targets], [test] + targets)
