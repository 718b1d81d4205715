"""Accuracy matrices, the three sequence metrics, their seed summaries, and curve rows.

Row t' of an accuracy matrix holds test accuracy on every domain using the
model checkpointed after stage t'. From a completed pair of matrices:

* adaptation score per domain = diagonal of the adaptation-role matrix
  (source stage falls back to the generalization model),
* generalization score per domain = column mean above the diagonal,
* forgetting score per domain = column mean below the diagonal,

and the composite is the average of the three metric means. ``sequence_metrics``
is the one source of these numbers: it returns a seed's ``metrics`` object in
``results.json``. ``METRICS`` names the four means that ``results.json`` and
``codag report`` aggregate; ``curve_rows`` writes ``curves.csv``.
"""

import numpy as np

from .data import Dataset
from .nnmodel import ClassifierParams, forward


def accuracy(params: ClassifierParams, test: Dataset) -> float:
    """Fraction of samples whose argmax prediction matches the label."""
    preds = forward(params, test.x).argmax(axis=1)
    return float(np.mean(preds == test.labels))


def sequence_metrics(da: np.ndarray, dg: np.ndarray) -> dict:
    """The metrics of two complete (n, n) accuracy matrices, as ``results.json``
    stores them for a seed. The source stage has no adaptation model, so its
    adaptation score comes from the generalization matrix. With one domain the
    TDG, FA and composite means are None."""
    n = dg.shape[0]
    tda_vals = [float(dg[0, 0])] + [float(da[t, t]) for t in range(1, n)]
    tdg_vals = [float(np.mean(dg[:t, t])) for t in range(1, n)]
    fa_vals = [float(np.mean(dg[t + 1:, t])) for t in range(n - 1)]
    tda_mean = float(np.mean(tda_vals))
    tdg_mean = float(np.mean(tdg_vals)) if n > 1 else None
    fa_mean = float(np.mean(fa_vals)) if n > 1 else None
    return {"tda_per_domain": tda_vals, "tdg_per_domain": tdg_vals, "fa_per_domain": fa_vals,
            "tda_mean": tda_mean, "tdg_mean": tdg_mean, "fa_mean": fa_mean,
            "all": None if n == 1 else (tda_mean + tdg_mean + fa_mean) / 3.0}


METRICS = (("tda", "tda_mean"), ("tdg", "tdg_mean"), ("fa", "fa_mean"), ("all", "all"))


def summarize(values) -> dict:
    """Mean and population std of one metric over the seeds, given at least one value."""
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


def metrics_from_grids(dg_grid, da_grid=None) -> dict:
    """Metrics from raw grids; without an adaptation grid, one model fills both roles."""
    dg = accuracy_rows(dg_grid)
    da = dg if da_grid is None else accuracy_rows(da_grid)
    if dg.shape[0] != dg.shape[1]:
        raise ValueError("accuracy grid must be square")
    if da.shape != dg.shape:
        raise ValueError("matrices must agree in size")
    return sequence_metrics(da, dg)
