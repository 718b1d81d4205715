"""Accuracy matrices, the three sequence metrics, and training-curve logs.

Row t' of an accuracy matrix holds test accuracy on every domain using the
model checkpointed after stage t'. From a completed pair of matrices:

* adaptation score per domain = diagonal of the adaptation-role matrix
  (source stage falls back to the generalization model),
* generalization score per domain = column mean above the diagonal,
* forgetting score per domain = column mean below the diagonal,

and the composite is the average of the three metric means.
"""

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .nnmodel import ClassifierParams, atomic_write, forward


class IncompleteMatrixError(RuntimeError):
    """A metric was requested before every stage row was recorded."""


class AccuracyMatrix:
    """(T+1) x (T+1) grid A[t'][t]; row t' is written once, after stage t'."""

    def __init__(self, n_domains: int, role: str):
        if role not in ("da", "dg"):
            raise ValueError(f"role must be 'da' or 'dg', got {role!r}")
        self.role = role
        self._values = np.full((n_domains, n_domains), np.nan)
        self._filled = np.zeros(n_domains, dtype=bool)

    @property
    def n_domains(self) -> int:
        return self._values.shape[0]

    @property
    def values(self) -> np.ndarray:
        return self._values.copy()

    def set_row(self, stage: int, accuracies) -> None:
        row = np.asarray(accuracies, dtype=np.float64)
        if row.shape != (self.n_domains,):
            raise ValueError(f"row must have {self.n_domains} entries")
        if not np.all((row >= 0) & (row <= 1)):  # False for NaN too
            raise ValueError("accuracies must be finite and lie in [0, 1]")
        if self._filled[stage]:
            raise ValueError(f"row {stage} already recorded")
        self._values[stage] = row
        self._filled[stage] = True

    def row(self, stage: int) -> np.ndarray:
        return self._values[stage].copy()

    @property
    def complete(self) -> bool:
        return bool(self._filled.all())

    def require_complete(self) -> np.ndarray:
        if not self.complete:
            missing = np.where(~self._filled)[0].tolist()
            raise IncompleteMatrixError(f"matrix rows missing for stages {missing}")
        return self._values

    def to_lists(self) -> list[list[float]]:
        return self._values.tolist()

    def to_state(self) -> dict:
        return {
            "role": self.role,
            "values": np.where(np.isnan(self._values), None, self._values).tolist(),
            "filled": self._filled.tolist(),
        }

    @classmethod
    def from_state(cls, raw: dict) -> "AccuracyMatrix":
        filled = raw["filled"]
        mat = cls(len(filled), raw["role"])
        for t, done in enumerate(filled):
            if done:
                mat.set_row(t, [v for v in raw["values"][t]])
        return mat

    @classmethod
    def from_grid(cls, grid, role: str) -> "AccuracyMatrix":
        arr = np.asarray(grid, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("accuracy grid must be square")
        mat = cls(arr.shape[0], role)
        for t in range(arr.shape[0]):
            mat.set_row(t, arr[t])
        return mat


def accuracy(params: ClassifierParams, test: Dataset) -> float:
    """Fraction of samples whose argmax prediction matches the label."""
    preds = forward(params, test.x).argmax(axis=1)
    return float(np.mean(preds == test.labels))


def _grid(matrix) -> np.ndarray:
    if isinstance(matrix, AccuracyMatrix):
        return matrix.require_complete()
    return np.asarray(matrix, dtype=np.float64)


def tda(da_matrix, dg_matrix) -> tuple[list[float], float]:
    """Per-domain accuracy right after each domain's own stage, and the mean.

    The source stage has no adaptation model, so its entry comes from the
    generalization matrix.
    """
    da = _grid(da_matrix)
    dg = _grid(dg_matrix)
    values = [float(dg[0, 0])]
    values += [float(da[t, t]) for t in range(1, da.shape[0])]
    return values, float(np.mean(values))


def tdg(dg_matrix) -> tuple[list[float], float | None]:
    """Per-domain mean accuracy before each domain's stage (domains 1..T)."""
    dg = _grid(dg_matrix)
    n = dg.shape[0]
    values = [float(np.mean(dg[:t, t])) for t in range(1, n)]
    return values, (float(np.mean(values)) if values else None)


def fa(dg_matrix) -> tuple[list[float], float | None]:
    """Per-domain mean accuracy after later stages (domains 0..T-1)."""
    dg = _grid(dg_matrix)
    n = dg.shape[0]
    values = [float(np.mean(dg[t + 1:, t])) for t in range(n - 1)]
    return values, (float(np.mean(values)) if values else None)


def composite_all(tda_mean: float, tdg_mean: float, fa_mean: float) -> float:
    """Arithmetic mean of the three metric means."""
    return (tda_mean + tdg_mean + fa_mean) / 3.0


@dataclass
class MetricsReport:
    tda_per_domain: list[float]
    tdg_per_domain: list[float]
    fa_per_domain: list[float]
    tda_mean: float
    tdg_mean: float | None
    fa_mean: float | None
    all: float | None

    @classmethod
    def from_matrices(cls, da_matrix, dg_matrix) -> "MetricsReport":
        tda_vals, tda_mean = tda(da_matrix, dg_matrix)
        tdg_vals, tdg_mean = tdg(dg_matrix)
        fa_vals, fa_mean = fa(dg_matrix)
        allv = None
        if tdg_mean is not None and fa_mean is not None:
            allv = composite_all(tda_mean, tdg_mean, fa_mean)
        return cls(tda_vals, tdg_vals, fa_vals, tda_mean, tdg_mean, fa_mean, allv)


@dataclass
class CurveLog:
    """Per-epoch generalization accuracy on every domain, ordered by (stage, epoch)."""

    records: list[tuple[int, int, int, float]] = field(default_factory=list)

    def append(self, stage: int, epoch: int, accuracies) -> None:
        if self.records:
            last_stage, last_epoch, _, _ = self.records[-1]
            if (stage, epoch) <= (last_stage, last_epoch):
                raise ValueError(
                    f"curve records must advance: got stage={stage} epoch={epoch} "
                    f"after stage={last_stage} epoch={last_epoch}"
                )
        for domain, acc in enumerate(np.asarray(accuracies, dtype=np.float64)):
            self.records.append((stage, epoch, domain, float(acc)))

    def save_csv(self, path) -> None:
        text = io.StringIO()
        writer = csv.writer(text)
        writer.writerow(["stage", "epoch", "domain", "accuracy"])
        writer.writerows(self.records)
        atomic_write(path, text.getvalue().encode("utf-8"))

    @classmethod
    def load_csv(cls, path) -> "CurveLog":
        log = cls()
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            next(reader)  # header
            for stage, epoch, domain, acc in reader:
                log.records.append((int(stage), int(epoch), int(domain), float(acc)))
        return log


def metrics_from_grids(dg_grid, da_grid=None) -> MetricsReport:
    """Metrics from raw grids; without an adaptation grid, one model fills both roles."""
    dg = AccuracyMatrix.from_grid(dg_grid, "dg")
    da = AccuracyMatrix.from_grid(da_grid, "da") if da_grid is not None else \
        AccuracyMatrix.from_grid(dg_grid, "da")
    if da.n_domains != dg.n_domains:
        raise ValueError("matrices must agree in size")
    return MetricsReport.from_matrices(da, dg)
