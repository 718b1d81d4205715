"""Run outputs against tests/golden_table.json, bit for bit.

A mismatch means the numbers moved. If that is intended, regenerate the
table with the command in ``golden_table.py`` and say why in CHANGES.md.
"""

import json

import pytest
from codag.orchestrate import VARIANTS

from conftest import SEEDS5
from golden_table import SEED_VARIANTS, TABLE, build, changes, state_digest, tiny_file_hashes

with open(TABLE, encoding="utf-8") as _fh:
    GOLDEN = json.load(_fh)


def _moved(what: str) -> str:
    return (f"{what}: the numbers moved (table taken with {GOLDEN['build']}, "
            f"this is {build()})")


def test_seed_runs_match_golden_table(variant_runs, tmp_path):
    for variant in SEED_VARIANTS:
        for seed in SEEDS5:
            key = f"{variant}/{seed}"
            digest = state_digest(variant_runs[variant][seed][0], tmp_path / f"{variant}-{seed}")
            assert digest == GOLDEN["seed_runs"][key], _moved(f"{key}: digest {digest[:16]}")


@pytest.mark.parametrize("variant", VARIANTS)
def test_tiny_run_files_match_golden_table(variant, tmp_path):
    got, expected = tiny_file_hashes(variant, tmp_path), GOLDEN["tiny"][variant]
    assert list(got) == list(expected), _moved(f"tiny {variant}: files {list(got)}")
    for name, digest in got.items():
        assert digest == expected[name], _moved(f"tiny {variant}: {name}: sha256 {digest[:16]}")


def test_rewrite_names_every_entry_that_changed():
    old = {"build": {"numpy": "2.4"}, "tiny": {"codag": {"a": "1", "b": "2", "c": "3"}}}
    new = {"build": {"numpy": "2.4"}, "tiny": {"codag": {"a": "1", "b": "9", "d": "4"}}}
    assert changes(old, new) == ["moved tiny/codag/b: 2 -> 9", "vanished tiny/codag/c: 3",
                                 "appeared tiny/codag/d: 4"]
    assert changes(GOLDEN, GOLDEN) == []
