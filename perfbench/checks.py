"""Output checks for one seed-run: golden digest and independent recomputation.

Nothing here calls the program's model, metric or checkpoint code. The
checkpoint reader, the forward pass and the TDA/TDG/FA/All arithmetic are
written again from the formats and formulas in the project README, so a
defect in the program cannot hide itself from its own check.
"""

import hashlib
import json
import os
import struct

import numpy as np

CHECKPOINT_MAGIC = b"CODAGCKPT"
ALL_FLOOR = 0.5  # chance is 1/k = 0.2; the weakest baseline, dg-only, scores about 0.77


def read_checkpoint(path: str) -> dict[str, np.ndarray]:
    """Blocks of a ``CODAGCKPT`` v1 file, in stored order."""
    with open(path, "rb") as fh:
        blob = fh.read()
    pos = len(CHECKPOINT_MAGIC)
    if blob[:pos] != CHECKPOINT_MAGIC or blob[pos] != 1:
        raise ValueError(f"{path}: not a version-1 codag checkpoint")
    (header_len,) = struct.unpack_from("<I", blob, pos + 1)
    start = pos + 5 + header_len
    header = json.loads(blob[pos + 5:start].decode("utf-8"))
    blocks = {}
    for entry in header["tensors"]:
        count = int(np.prod(entry["shape"], dtype=np.int64))
        arr = np.frombuffer(blob, dtype="<f4", count=count, offset=start + entry["offset"])
        blocks[entry["name"]] = arr.reshape(entry["shape"]).astype(np.float32)
    return blocks


def predict(blocks: dict[str, np.ndarray], x: np.ndarray) -> np.ndarray:
    """Argmax class of the ReLU MLP: float32 weights, float64 arithmetic."""
    n_ext = (len(blocks) - 2) // 2
    a = np.asarray(x, dtype=np.float64)
    for i in range(n_ext):
        z = a @ blocks[f"ext{i}.w"].astype(np.float64) + blocks[f"ext{i}.b"].astype(np.float64)
        a = np.maximum(z, 0.0) if i < n_ext - 1 else z
    logits = a @ blocks["head.w"].astype(np.float64) + blocks["head.b"].astype(np.float64)
    return logits.argmax(axis=1)


def sequence_metrics(da: np.ndarray, dg: np.ndarray) -> dict[str, float]:
    """TDA, TDG, FA means and their composite from two square grids."""
    n = dg.shape[0]
    tda = np.mean([dg[0, 0]] + [da[t, t] for t in range(1, n)])
    tdg = np.mean([np.mean(dg[:t, t]) for t in range(1, n)])
    fa = np.mean([np.mean(dg[t + 1:, t]) for t in range(n - 1)])
    return {"tda_mean": tda, "tdg_mean": tdg, "fa_mean": fa, "all": (tda + tdg + fa) / 3.0}


def final_checkpoints(seed_dir: str, n_domains: int) -> list[str]:
    """Final-stage checkpoint paths: the DG one, then the DA one if present."""
    ckpt = os.path.join(seed_dir, "checkpoints")
    last = n_domains - 1
    paths = [os.path.join(ckpt, f"dg_stage{last}.ckpt")]
    da = os.path.join(ckpt, f"da_stage{last}.ckpt")
    if os.path.exists(da):
        paths.append(da)
    return paths


def seed_run_digest(entry: dict, seed_dir: str) -> str:
    """sha256 over the DA and DG matrices of ``results.json`` and the final checkpoints.

    A DA checkpoint byte-identical to the DG one (the single-model baselines)
    adds nothing, so whether it is written does not change the digest.
    """
    h = hashlib.sha256()
    h.update(json.dumps([entry["da_matrix"], entry["dg_matrix"]]).encode("utf-8"))
    seen = set()
    for path in final_checkpoints(seed_dir, len(entry["dg_matrix"])):
        with open(path, "rb") as fh:
            blob = fh.read()
        if blob not in seen:
            h.update(blob)
            seen.add(blob)
    return h.hexdigest()


def digest_mismatches(key: str, digest: str, references: dict[str, dict]) -> list[str]:
    """One problem per reference table that holds a different digest for ``key``."""
    return [f"digest {digest[:16]} differs from {name} {table[key][:16]}"
            for name, table in references.items() if table.get(key, digest) != digest]


def check_seed_run(entry: dict, seed_dir: str, test_sets, variant: str) -> list[str]:
    """Problems found in one seed-run's results entry and final checkpoints.

    ``test_sets`` is a list of (x, labels) pairs, one per domain.
    """
    try:
        da = np.asarray(entry["da_matrix"], dtype=np.float64)
        dg = np.asarray(entry["dg_matrix"], dtype=np.float64)
        reported = entry["metrics"]
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed results entry: {exc!r}"]
    n = len(test_sets)
    if da.shape != (n, n) or dg.shape != (n, n):
        return [f"matrices are not {n}x{n}"]
    if not (np.all(np.isfinite(da)) and np.all(np.isfinite(dg))):
        return ["matrices hold non-finite entries"]
    if np.any((da < 0) | (da > 1) | (dg < 0) | (dg > 1)):
        return ["matrix entries outside [0, 1]"]
    problems = []
    recomputed = sequence_metrics(da, dg)
    for key, value in recomputed.items():
        if not isinstance(reported.get(key), float) or abs(reported[key] - value) > 1e-12:
            problems.append(f"metric {key}: reported {reported.get(key)!r}, recomputed {value!r}")
    if recomputed["all"] < ALL_FLOOR:
        problems.append(f"All below the sanity floor {ALL_FLOOR}")
    single_model = variant in ("da-only", "dg-only")
    if single_model and not np.array_equal(da, dg):
        problems.append("single-model variant has differing DA and DG matrices")
    paths = final_checkpoints(seed_dir, n)
    roles = [("dg", dg, paths[0])]
    if not single_model:
        if len(paths) < 2:
            return problems + ["final DA checkpoint missing"]
        roles.append(("da", da, paths[1]))
    for role, grid, path in roles:
        try:
            blocks = read_checkpoint(path)
        except (OSError, ValueError, KeyError, struct.error) as exc:
            problems.append(f"unreadable {role} checkpoint: {exc}")
            continue
        row = [float(np.mean(predict(blocks, x) == y)) for x, y in test_sets]
        if row != grid[-1].tolist():
            problems.append(f"{role} final row {grid[-1].tolist()} != checkpoint accuracy {row}")
    return problems
