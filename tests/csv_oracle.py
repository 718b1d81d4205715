"""Frozen copy of the CSV domain line parser, as an oracle.

This is ``data._parse_csv`` as it was before numpy's C reader took over the
plain files, with the helper it calls. It is not to be edited:
``test_data.py`` holds the package's parser to the same array bytes and the
same error messages.
"""

import csv
import io

import numpy as np


def parse_csv(text: str, path, k: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Validated (features, labels) of a domain file's text; errors name ``path`` and the line."""
    rows: list[list[float]] = []
    labels: list[int] = []
    linenos: list[int] = []
    for lineno, record in enumerate(csv.reader(io.StringIO(text, newline="")), start=1):
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
        linenos.append(lineno)
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
