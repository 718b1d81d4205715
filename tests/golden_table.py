"""Golden table of run outputs that Tier-1 checks bit for bit.

Regenerate it, from the repository root, with

    PYTHONPATH=src python tests/golden_table.py

which rewrites ``tests/golden_table.json`` from the code as it stands (about
15 s on two cores) and prints every entry that moved, appeared or vanished.
A change that moves a golden value on purpose runs it and says why in
CHANGES.md. The table pins what ``perfbench/golden.json`` does not:

- ``seed_runs``: the ``perfbench/checks.seed_run_digest`` of
  ``codag-da-init`` and ``codag+buffer_capacity=0`` on the default config at
  the five ``SEEDS5`` seeds, which the acceptance fixtures run anyway;
- ``tiny``: the sha256 of every file that each run spec of ``TINY_SPECS``
  writes on the tiny CLI config (``test_cli.TINY``, one hidden layer) with
  curves on and domain order ``[2, 1]``: results, state, curves and every
  checkpoint.

Entries are keyed by run spec: a variant followed by ``--override``
assignments, joined with ``+`` (``conftest.spec_name``).

It also records the numpy and BLAS it was taken with. Another build may
round differently; the table is then re-pinned openly, not skipped.
"""

import copy
import hashlib
import importlib.util
import json
import os

import codag  # noqa: F401  (pins BLAS to one thread before numpy loads it)
import numpy as np
from codag.cli import apply_override
from codag.nnmodel import save_checkpoint
from codag.orchestrate import VARIANTS, ExperimentConfig, run_experiment

from conftest import SEEDS5, run_in_pool, run_variant, spec_name

HERE = os.path.dirname(os.path.abspath(__file__))
TABLE = os.path.join(HERE, "golden_table.json")
SEED_SPECS = (("codag-da-init",), ("codag", "buffer_capacity=0"))
TINY_SPECS = (*((variant,) for variant in VARIANTS),
              ("codag", "buffer_capacity=0"), ("codag", "dg.selnlpl=false"))
TINY_ORDER = [2, 1]

_spec = importlib.util.spec_from_file_location(
    "checks", os.path.join(os.path.dirname(HERE), "perfbench", "checks.py"))
checks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checks)


def build() -> dict:
    """The numpy and BLAS whose rounding the table holds."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def state_digest(state, seed_dir) -> str:
    """``checks.seed_run_digest`` of a finished ``RunState``, its final checkpoints
    written under ``seed_dir``."""
    last = state.next_stage - 1
    os.makedirs(os.path.join(seed_dir, "checkpoints"))
    for role, params in state.models.items():
        save_checkpoint(params, os.path.join(seed_dir, "checkpoints", f"{role}_stage{last}.ckpt"))
    entry = {"da_matrix": state.da_matrix.tolist(), "dg_matrix": state.dg_matrix.tolist()}
    return checks.seed_run_digest(entry, str(seed_dir))


def tiny_file_hashes(spec: tuple[str, ...], out_dir) -> dict[str, str]:
    """sha256 of every file one tiny run of ``spec`` writes, by relative path."""
    from test_cli import TINY

    raw = copy.deepcopy(dict(TINY, variant=spec[0], log_curves=True, domain_order=TINY_ORDER))
    for assignment in spec[1:]:
        apply_override(raw, assignment)
    run_experiment(ExperimentConfig.from_dict(raw), str(out_dir))
    hashes = {}
    for root, _, names in os.walk(out_dir):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                rel = os.path.relpath(path, out_dir).replace(os.sep, "/")
                hashes[rel] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(hashes.items()))


def _leaves(node, prefix="") -> dict[str, str]:
    """The table's entries by slash-joined path, e.g. ``tiny/codag/results.json``."""
    if not isinstance(node, dict):
        return {prefix: node}
    return {path: value for key, child in node.items()
            for path, value in _leaves(child, f"{prefix}/{key}" if prefix else key).items()}


def changes(old: dict, new: dict) -> list[str]:
    """One line per entry that moved, appeared or vanished from ``old`` to ``new``."""
    before, after = _leaves(old), _leaves(new)
    lines = []
    for path in sorted(before.keys() | after.keys()):
        if path not in after:
            lines.append(f"vanished {path}: {before[path]}")
        elif path not in before:
            lines.append(f"appeared {path}: {after[path]}")
        elif before[path] != after[path]:
            lines.append(f"moved {path}: {before[path]} -> {after[path]}")
    return lines


def main() -> None:
    import tempfile

    runs = [(spec[0], seed, spec[1:]) for spec in SEED_SPECS for seed in SEEDS5]
    with tempfile.TemporaryDirectory() as tmp:
        seed_runs = {}
        for (variant, seed, overrides), (state, _) in zip(runs, run_in_pool(run_variant, runs)):
            key = f"{spec_name((variant, *overrides))}/{seed}"
            seed_runs[key] = state_digest(state, os.path.join(tmp, key.replace("/", "-")))
        tiny = {spec_name(spec): tiny_file_hashes(spec, os.path.join(tmp, spec_name(spec)))
                for spec in TINY_SPECS}
    table = {"build": build(), "seed_runs": seed_runs, "tiny": tiny}
    old = {}
    if os.path.exists(TABLE):
        with open(TABLE, encoding="utf-8") as fh:
            old = json.load(fh)
    with open(TABLE, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(table, indent=1) + "\n")
    print(f"wrote {TABLE}: {len(seed_runs)} seed-run digests, "
          f"{sum(map(len, tiny.values()))} tiny-run files")
    for line in changes(old, table):
        print(line)


if __name__ == "__main__":
    main()
