"""Run outputs against tests/golden_table.json, bit for bit.

A mismatch means the numbers moved. If that is intended, regenerate the
table with the command in ``golden_table.py`` and say why in CHANGES.md.
"""

import json

import pytest

from conftest import SEEDS5, spec_name
from golden_table import (SEED_SPECS, TABLE, TINY_SPECS, build, changes, state_digest,
                          tiny_file_hashes)

with open(TABLE, encoding="utf-8") as _fh:
    GOLDEN = json.load(_fh)


def _moved(what: str) -> str:
    return (f"{what}: the numbers moved (table taken with {GOLDEN['build']}, "
            f"this is {build()})")


def test_seed_runs_match_golden_table(variant_runs, tmp_path):
    for name in map(spec_name, SEED_SPECS):
        for seed in SEEDS5:
            key = f"{name}/{seed}"
            digest = state_digest(variant_runs[name][seed][0], tmp_path / f"{name}-{seed}")
            assert digest == GOLDEN["seed_runs"][key], _moved(f"{key}: digest {digest[:16]}")


@pytest.mark.parametrize("spec", [pytest.param(spec, id=spec_name(spec)) for spec in TINY_SPECS])
def test_tiny_run_files_match_golden_table(spec, tmp_path):
    name = spec_name(spec)
    got, expected = tiny_file_hashes(spec, tmp_path), GOLDEN["tiny"][name]
    assert list(got) == list(expected), _moved(f"tiny {name}: files {list(got)}")
    for file, digest in got.items():
        assert digest == expected[file], _moved(f"tiny {name}: {file}: sha256 {digest[:16]}")


def test_rewrite_names_every_entry_that_changed():
    old = {"build": {"numpy": "2.4"}, "tiny": {"codag": {"a": "1", "b": "2", "c": "3"}}}
    new = {"build": {"numpy": "2.4"}, "tiny": {"codag": {"a": "1", "b": "9", "d": "4"}}}
    assert changes(old, new) == ["moved tiny/codag/b: 2 -> 9", "vanished tiny/codag/c: 3",
                                 "appeared tiny/codag/d: 4"]
    assert changes(GOLDEN, GOLDEN) == []
