"""Accuracy matrices, the three sequence metrics, their seed summaries, and curve rows.

Row t' of an accuracy matrix holds test accuracy on every domain using the
model checkpointed after stage t'. From a completed pair of matrices:

* adaptation score per domain = diagonal of the adaptation-role matrix
  (source stage falls back to the generalization model),
* generalization score per domain = column mean above the diagonal,
* forgetting score per domain = column mean below the diagonal,

and the composite is the average of the three metric means. ``METRICS`` names the
four in ``results.json`` and ``codag report``; ``curve_rows`` writes ``curves.csv``.
"""

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .nnmodel import ClassifierParams, forward


def accuracy(params: ClassifierParams, test: Dataset) -> float:
    """Fraction of samples whose argmax prediction matches the label."""
    preds = forward(params, test.x).argmax(axis=1)
    return float(np.mean(preds == test.labels))


def tda(da: np.ndarray, dg: np.ndarray) -> tuple[list[float], float]:
    """Per-domain accuracy right after each domain's own stage, and the mean.

    The source stage has no adaptation model, so its entry comes from the
    generalization matrix.
    """
    values = [float(dg[0, 0])]
    values += [float(da[t, t]) for t in range(1, da.shape[0])]
    return values, float(np.mean(values))


def tdg(dg: np.ndarray) -> tuple[list[float], float | None]:
    """Per-domain mean accuracy before each domain's stage (domains 1..T)."""
    n = dg.shape[0]
    values = [float(np.mean(dg[:t, t])) for t in range(1, n)]
    return values, (float(np.mean(values)) if values else None)


def fa(dg: np.ndarray) -> tuple[list[float], float | None]:
    """Per-domain mean accuracy after later stages (domains 0..T-1)."""
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
    def from_matrices(cls, da: np.ndarray, dg: np.ndarray) -> "MetricsReport":
        """Metrics of two complete (n, n) accuracy matrices."""
        tda_vals, tda_mean = tda(da, dg)
        tdg_vals, tdg_mean = tdg(dg)
        fa_vals, fa_mean = fa(dg)
        allv = None
        if tdg_mean is not None and fa_mean is not None:
            allv = composite_all(tda_mean, tdg_mean, fa_mean)
        return cls(tda_vals, tdg_vals, fa_vals, tda_mean, tdg_mean, fa_mean, allv)


METRICS = (("tda", "tda_mean"), ("tdg", "tdg_mean"), ("fa", "fa_mean"), ("all", "all"))


def summarize(values) -> dict | None:
    """Mean and population std of one metric over the seeds; None for no values."""
    if not values:
        return None
    arr = np.asarray(values, dtype=np.float64)
    return {"mean": float(arr.mean()), "std": float(arr.std())}


CURVES_HEADER = b"stage,epoch,domain,accuracy\r\n"


def curve_rows(stage: int, epoch: int, accuracies) -> bytes:
    """``curves.csv`` rows of one epoch, one per domain: the bytes ``csv.writer``'s
    default dialect writes, since it writes a float as its ``repr``."""
    return "".join(f"{stage},{epoch},{domain},{float(acc)!r}\r\n"
                   for domain, acc in enumerate(accuracies)).encode("ascii")


def accuracy_rows(raw) -> np.ndarray:
    """``raw`` as a 2-D float64 array; raises ``ValueError`` unless every entry is a
    number, not a boolean, in [0, 1]."""
    try:
        rows = np.asarray(raw, dtype=np.float64)
    except (TypeError, ValueError):
        rows = None
    if rows is None or rows.ndim != 2:
        raise ValueError("accuracy rows must form a 2-D grid of numbers")
    if any(isinstance(v, (bool, np.bool_)) for row in raw for v in row):  # float64 takes them
        raise ValueError("accuracies must be numbers, not booleans")
    if not np.all((rows >= 0) & (rows <= 1)):  # False for NaN too
        raise ValueError("accuracies must be finite and lie in [0, 1]")
    return rows


def metrics_from_grids(dg_grid, da_grid=None) -> MetricsReport:
    """Metrics from raw grids; without an adaptation grid, one model fills both roles."""
    dg = accuracy_rows(dg_grid)
    da = dg if da_grid is None else accuracy_rows(da_grid)
    if dg.shape[0] != dg.shape[1]:
        raise ValueError("accuracy grid must be square")
    if da.shape != dg.shape:
        raise ValueError("matrices must agree in size")
    return MetricsReport.from_matrices(da, dg)
