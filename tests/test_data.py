import csv
import dataclasses
import hashlib
import io
import math
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import codag.data as data
from codag.data import (
    HiddenLabelsError,
    SequenceConfig,
    class_means,
    load_csv_domain,
    split_source,
)
from codag.orchestrate import config_from_dict, config_to_dict, run_experiment

import csv_oracle
from conftest import default_sequence
from test_orchestrate import tiny_config


def test_zero_noise_identity_transform():
    ds = SequenceConfig(n_per_domain=20, k=4, d=6, noise_sigma=0.0, seed=3).domain(0)
    means = class_means(4, 6, 3)
    for i in range(len(ds)):
        np.testing.assert_array_equal(ds.x[i], means[ds.labels[i]])


def test_rotation_by_pi_negates_plane():
    cfg = SequenceConfig(n_per_domain=4, k=2, d=2, angles_deg=(0.0, 180.0), noise_sigma=0.0,
                         seed=0)
    np.testing.assert_allclose(cfg.domain(1).x, -cfg.domain(0).x, atol=1e-12)


def test_generator_determinism():
    cfg = SequenceConfig(n_per_domain=101, k=5, d=8, angles_deg=(0.0, 10.0, math.degrees(0.7)),
                         noise_sigma=0.2, seed=11)
    a, b = cfg.domain(2), cfg.domain(2)
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.labels, b.labels)
    assert a.domain_id == 2


def test_class_balance_within_one():
    for n in (23, 24, 25, 100):
        ds = SequenceConfig(n_per_domain=n, k=5, d=4, seed=5).domain(0)
        counts = np.bincount(ds.labels, minlength=5)
        assert counts.max() - counts.min() <= 1
        assert counts.sum() == n


def test_rotation_acts_on_plane_only():
    cfg = SequenceConfig(n_per_domain=2, k=2, d=3, angles_deg=(90.0,), noise_sigma=0.0,
                         seed=0, source_fraction=0.5)
    ds = cfg.domain(0)
    means = class_means(2, 3, 0)
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])  # angle pi/2 in the (0,1) plane
    for c in range(2):
        expected = np.array([*(means[c, :2] @ rot), means[c, 2]])
        np.testing.assert_allclose(ds.x[ds.labels == c][0], expected, atol=1e-12)


def test_invalid_cluster_arguments():
    for bad, match in [
        ({"n_per_domain": 3, "k": 5}, "n_per_domain"),  # n < k: a class with no sample
        ({"d": 1}, "d must be at least 2"),
        ({"noise_sigma": -0.1}, "noise_sigma"),
    ]:
        with pytest.raises(ValueError, match=match):
            SequenceConfig(**bad)


def test_split_sizes_and_partition():
    ds = SequenceConfig(n_per_domain=10, k=2, d=3, seed=9).domain(0)
    train, test = split_source(ds, 0.8, seed=0)
    assert len(train) == 8 and len(test) == 2

    ds = SequenceConfig(n_per_domain=137, k=5, d=3, seed=9).domain(0)
    train, test = split_source(ds, 0.8, seed=4)
    assert len(train) + len(test) == 137
    merged = np.concatenate([train.x, test.x])
    assert sorted(map(tuple, merged)) == sorted(map(tuple, ds.x))


def test_split_seed_determinism_and_full_fraction():
    ds = SequenceConfig(n_per_domain=50, k=5, d=4, seed=2).domain(0)
    a_train, _ = split_source(ds, 0.5, seed=123)
    b_train, _ = split_source(ds, 0.5, seed=123)
    np.testing.assert_array_equal(a_train.x, b_train.x)
    with pytest.raises(ValueError, match="source_fraction"):
        split_source(ds, 1.0, seed=0)


def test_split_fraction_bounds():
    ds = SequenceConfig(n_per_domain=10, k=2, d=2, seed=2).domain(0)
    for bad in (0.0, -0.5, 1.2, 0.04, 0.96):  # the last two round to an empty split
        with pytest.raises(ValueError, match="source_fraction"):
            split_source(ds, bad, seed=0)


def test_csv_roundtrip(tmp_path):
    path = tmp_path / "dom.csv"
    path.write_text("f0,f1,label\n0.5,1.5,0\n-2.0,0.25,1\n1.0,1.0,1\n")
    ds = load_csv_domain(path, k=2, d=2)
    assert len(ds) == 3
    np.testing.assert_allclose(ds.x[1], [-2.0, 0.25])
    assert list(ds.labels) == [0, 1, 1]


def test_csv_errors_name_line_numbers(tmp_path):
    short = tmp_path / "short.csv"
    short.write_text("0.5,0\n1.0,2.0,1\n")
    with pytest.raises(ValueError, match="line 1"):
        load_csv_domain(short, k=2, d=2)

    bad_label = tmp_path / "bad_label.csv"
    bad_label.write_text("0.5,1.0,0\n0.1,0.2,2\n")
    with pytest.raises(ValueError, match="line 2.*out of range"):
        load_csv_domain(bad_label, k=2, d=2)

    bad_feat = tmp_path / "bad_feat.csv"
    bad_feat.write_text("0.5,oops,0\n")
    with pytest.raises(ValueError, match="line 1.*malformed"):
        load_csv_domain(bad_feat, k=2, d=2)

    not_utf8 = tmp_path / "not_utf8.csv"
    for blob, line in ((b"f0,label\r\n0.5,0\r\n0.\xff5,1\r\n", 3),
                       (b"f\xff0,label\r\n0.5,0\r\n", 1),  # in the header numpy skips
                       (b"0.5,9\n0.\xff5,1\n", 2)):  # before the label error on line 1
        not_utf8.write_bytes(blob)
        with pytest.raises(ValueError) as info:
            load_csv_domain(not_utf8, k=2, d=1)
        assert str(info.value) == f"{not_utf8}: line {line}: not UTF-8 text"

    with pytest.raises(FileNotFoundError):
        load_csv_domain(tmp_path / "missing.csv", k=2, d=2)


def test_csv_load_peaks_below_four_times_the_file(tmp_path, monkeypatch):
    """The reader parses the bytes it hashed; it keeps no decoded copy of the file."""
    x = np.random.default_rng(5).standard_normal((4000, 16))
    labels = np.arange(4000) % 3
    lines = ["f" + ",f".join(map(str, range(16))) + ",label"]
    lines += [",".join(map(repr, row.tolist())) + f",{y}" for row, y in zip(x, labels)]
    path = tmp_path / "dom.csv"
    path.write_bytes("\r\n".join(lines).encode() + b"\r\n")
    monkeypatch.setattr(data, "_parsed_csv", {})
    tracemalloc.start()
    try:
        ds = load_csv_domain(path, k=3, d=16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.x.tobytes() == x.tobytes() and ds.labels.tolist() == labels.tolist()
    assert peak < 4 * path.stat().st_size


def test_line_parser_names_the_physical_line():
    """A quoted cell spans lines 2 to 5, so the third record is on line 6."""
    with pytest.raises(ValueError) as info:
        data._parse_csv(b'f0,label\n"0.5\n\n\n",1\n0.5,7\n', "f.csv", 2, 1)
    assert str(info.value) == "f.csv: line 6: label out of range [0, 2)"


def _rejects(parse, cell: str) -> bool:
    try:
        parse(cell)
    except ValueError:
        return True
    return False


NUMBERS = st.floats(allow_nan=False, allow_infinity=False).map(repr)
NOT_FLOAT = st.text(st.characters(blacklist_characters="\r\n"), max_size=5).filter(
    lambda c: _rejects(float, c))
NON_FINITE = st.sampled_from(["nan", "inf", "-inf", "1e999", "-1e999", "NaN", " Infinity"])
NOT_INT = (st.text(st.characters(blacklist_characters="\r\n"), max_size=5) | NUMBERS).filter(
    lambda c: _rejects(int, c))


@st.composite
def csv_with_one_bad_row(draw):
    """(k, d, rows, bad, fault): valid rows or blank lines, one malformed row at ``rows[bad]``."""
    k, d = draw(st.integers(2, 5)), draw(st.integers(1, 4))
    valid = st.tuples(st.lists(NUMBERS, min_size=d, max_size=d), st.integers(0, k - 1)).map(
        lambda r: [*r[0], str(r[1])])
    rows = draw(st.lists(valid | st.just([]), max_size=4))
    feats = draw(st.lists(NUMBERS, min_size=d, max_size=d))
    fault = draw(st.sampled_from(["columns", "feature", "non-finite", "label", "range"]))
    if fault == "columns":
        bad = draw(st.lists(NUMBERS, min_size=1, max_size=d + 3).filter(lambda r: len(r) != d + 1))
    elif fault == "feature":
        feats[draw(st.integers(0, d - 1))] = draw(NOT_FLOAT)
        bad = [*feats, "0"]
    elif fault == "non-finite":
        feats[draw(st.integers(0, d - 1))] = draw(NON_FINITE)
        bad = [*feats, "0"]
    elif fault == "label":
        bad = [*feats, draw(NOT_INT)]
    else:
        bad = [*feats, str(draw(st.integers().filter(lambda v: not 0 <= v < k)))]
    at = len(rows)
    rows = rows + [bad] + draw(st.lists(valid, max_size=2))
    return k, d, rows, at, fault


@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=csv_with_one_bad_row())
def test_malformed_csv_row_names_file_and_line(tmp_path, case):
    k, d, rows, at, fault = case
    path = tmp_path / "domain_00.csv"
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    path.write_text(text.getvalue(), encoding="utf-8")
    with pytest.raises(ValueError) as info:
        load_csv_domain(path, k=k, d=d)
    assert str(info.value).startswith(f"{path}: line {at + 1}: ")
    if fault == "non-finite":
        assert str(info.value) == f"{path}: line {at + 1}: non-finite feature value"


FLOAT_CELLS = NUMBERS | st.sampled_from(
    ["-0.0", "5e-324", "2.5e-310", "1e308", "-1e308", ".5", "1.", "+1E3"])
# Cells, lines, headers and line ends where numpy's C reader and the line
# parser could disagree: quotes, '#', underscores, non-ASCII digits and
# whitespace, the ASCII separators \x1c-\x1f, bare CRs and every fault kind.
ODD_FEATURES = ['"1.5"', '"1.5', "1_0", "١٢", "1.0#", "#1", " 1.5 ", "\t-2", "1.0\x0c",
                "\u20031.0", "\xa01", "\x1c1.0", "1.0\x1f", "\x0b1.0", "", "oops", "1e", "0x10",
                "1.0\x00"]
ODD_LABELS = ["+{v}", " {v} ", "0{v}", "-0", "{v}.0", "{v}#x", '"{v}"', "0_{v}", "٣", "",
              "99999999999999999999", "-99999999999999999999", "x", "{v}\x1c", "\x1f{v}"]
ODD_LINES = ["", "  ", "\t", "\x0c", "# note", "#0.5,1", '"0.5,1"', '"a', "f0,label", "0.5"]
ODD_HEADERS = ['"f0","label"', "0.5,label", '"x', "label", " "]
ODD_KINDS = ["feature", "non-finite", "label", "range", "columns", "line", "header", "ending"]


@st.composite
def domain_texts(draw):
    """(k, d, text): a plain file (LF or CRLF, optional header) with up to two oddities."""
    k, d = draw(st.integers(2, 5)), draw(st.integers(1, 3))
    row = st.tuples(st.lists(FLOAT_CELLS, min_size=d, max_size=d), st.integers(0, k - 1))
    lines = [[*feats, str(label)] for feats, label in draw(st.lists(row, max_size=5))]
    header = draw(st.sampled_from([None, ",".join([f"f{j}" for j in range(d)] + ["label"])]))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    for kind in draw(st.lists(st.sampled_from(ODD_KINDS), max_size=2)):
        rows = [i for i, cells in enumerate(lines) if len(cells) == d + 1]
        if kind == "header":
            header = draw(st.sampled_from(ODD_HEADERS))
        elif kind == "ending":
            ending = draw(st.sampled_from(["\r", "mixed"]))
        elif kind == "line" or not rows:
            lines.insert(draw(st.integers(0, len(lines))), [draw(st.sampled_from(ODD_LINES))])
        else:
            at = draw(st.sampled_from(rows))
            cells = lines[at] = list(lines[at])
            if kind == "feature":
                cells[draw(st.integers(0, d - 1))] = draw(st.sampled_from(ODD_FEATURES))
            elif kind == "non-finite":
                cells[draw(st.integers(0, d - 1))] = draw(NON_FINITE)
            elif kind == "label":
                cells[d] = draw(st.sampled_from(ODD_LABELS)).format(v=cells[d])
            elif kind == "range":
                cells[d] = str(draw(st.sampled_from([-1, k, k + 1, 2**63 - 1])))
            elif draw(st.booleans()):
                cells.append(cells[0])
            else:
                cells.pop()
    text_lines = ([header] if header is not None else []) + [",".join(c) for c in lines]
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) if ending == "mixed" else ending
            for _ in text_lines]
    if text_lines and draw(st.booleans()):
        ends[-1] = ""
    return k, d, "".join(line + end for line, end in zip(text_lines, ends))


def _physical_line(text: str, message: str) -> str:
    """The frozen parser's ``line <record number>`` as the physical line that
    record ends on, which the package's parser names."""
    match = re.fullmatch(r"(domain_00\.csv: line )(\d+)(: .*)", message, re.S)
    if match is None:
        return message
    reader = csv.reader(io.StringIO(text, newline=""))
    for _ in range(int(match[2])):
        next(reader)
    return f"{match[1]}{reader.line_num}{match[3]}"


def _outcome(parse, text, k, d):
    """The array bytes that ``parse`` returns, or the error that it raises."""
    try:
        x, labels = parse(text, "domain_00.csv", k, d)
    except Exception as exc:  # the frozen line parser can raise csv.Error too
        return type(exc).__name__, str(exc)
    return [(a.dtype.str, a.shape, a.flags.c_contiguous, a.tobytes()) for a in (x, labels)]


@settings(max_examples=400, derandomize=True, deadline=None)
@given(case=domain_texts())
@example(case=(2, 1, '"x\n0.5,1\n'))  # csv reads one header record to the end of the file
@example(case=(2, 1, "f0,label\r0.5,1\r\n0.25,0\r\n"))  # numpy's first line holds a row
@example(case=(2, 1, "\x1c0.5,1\n0.25,0\n"))  # float() refuses \x1c, numpy strips it
@example(case=(2, 1, "0.5," + "0" * 4300 + "1\n"))  # int() refuses over 4,300 digits
@example(case=(2, 1, "1." + "0" * 131072 + ",1\n"))  # csv refuses a cell this long
def test_parse_csv_equals_frozen_line_parser(case):
    k, d, text = case
    got = _outcome(data._parse_csv, text.encode(), k, d)
    want = _outcome(csv_oracle.parse_csv, text, k, d)
    if want[0] == "Error":  # csv.Error escapes the oracle; the package names the file and line
        assert got[0] == "ValueError"
        assert re.fullmatch(rf"domain_00\.csv: line [1-9]\d*: {re.escape(want[1])}", got[1])
    elif want[0] == "ValueError":
        assert got == (want[0], _physical_line(text, want[1]))
    else:
        assert got == want


def test_hidden_labels_raise():
    ds = SequenceConfig(n_per_domain=10, k=2, d=2, angles_deg=(0.0, 30.0), seed=2).domain(1)
    hidden = ds.without_labels()
    with pytest.raises(HiddenLabelsError):
        hidden.labels
    np.testing.assert_array_equal(hidden.x, ds.x)  # features stay shared
    assert list(ds.labels) == list(np.repeat([0, 1], 5))


def test_default_sequence_shape():
    seq = default_sequence()
    assert seq.n_domains == 5 and seq.k == 5 and seq.d == 16
    assert len(seq.train_sets[0]) == 400 and len(seq.test_sets[0]) == 100
    for t in range(1, 5):
        assert seq.train_sets[t].labels_hidden
        assert not seq.test_sets[t].labels_hidden
        assert len(seq.train_sets[t]) == len(seq.test_sets[t]) == 500


def test_sequence_reorder_is_permutation_checked():
    seq = default_sequence()
    re = seq.reordered([3, 1, 4, 2])
    assert re.n_domains == 5
    for pos, src in enumerate([0, 3, 1, 4, 2]):
        assert re.train_sets[pos] is seq.train_sets[src]
        assert re.test_sets[pos] is seq.test_sets[src]
    with pytest.raises(ValueError, match="permutation"):
        seq.reordered([1, 2, 3])
    with pytest.raises(ValueError, match="permutation"):
        seq.reordered([0, 1, 2, 3])


def test_sequence_config_dict_roundtrip():
    cfg = SequenceConfig(n_per_domain=60, k=3, d=4, angles_deg=(0.0, 45.0), seed=5)
    again = config_from_dict(SequenceConfig, config_to_dict(cfg))
    assert again == cfg


def test_sequence_config_validation():
    for bad, match in [
        ({"kind": "bogus"}, "kind"),
        ({"kind": "csv-folder"}, "path"),
        ({"k": 1}, "k must be at least 2"),
        ({"k": 0}, "k must be at least 2"),
        ({"d": 0}, "d must be at least 1"),
        ({"n_per_domain": 0}, "n_per_domain"),
        ({"angles_deg": ()}, "angles_deg"),
        ({"noise_sigma": 1e307}, "overflow"),
        ({"seed": -1}, "seed"),
        ({"source_fraction": 0.0}, "source_fraction"),
        ({"source_fraction": 1.0}, "source_fraction"),
        ({"source_fraction": 0.999}, "source_fraction"),  # rounds to an empty test split
        ({"source_fraction": 0.8, "n_per_domain": 2, "k": 2}, "source_fraction"),
    ]:
        with pytest.raises(ValueError, match=match):
            SequenceConfig(**bad)
    # A CSV folder's content sets the row count, so the generator's ranges do not apply.
    SequenceConfig(kind="csv-folder", path="data", d=1, n_per_domain=0, angles_deg=(),
                   noise_sigma=-1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        SequenceConfig().k = 1


def test_csv_folder_domains_and_missing_files(tmp_path):
    for i, label in enumerate((0, 1, 1)):
        (tmp_path / f"domain_{i:02d}.csv").write_text(f"0.5,1.5,0\n{i}.0,2.0,{label}\n")
    cfg = SequenceConfig(kind="csv-folder", path=str(tmp_path), k=2, d=2)
    assert cfg.n_domains == 3
    assert cfg.domain(2).x[1, 0] == 2.0 and cfg.domain(2).domain_id == 2
    with pytest.raises(ValueError, match="domain_00.csv: source_fraction"):  # 2 rows, 0.8
        cfg.build(split_seed=0)
    (tmp_path / "domain_00.csv").write_text("".join(f"0.5,{i}.0,{i % 2}\n" for i in range(5)))
    seq = cfg.build(split_seed=0)
    assert [len(s) for s in seq.test_sets] == [1, 2, 2] and seq.train_sets[2].labels_hidden
    empty = SequenceConfig(kind="csv-folder", path=str(tmp_path / "none"), k=2, d=2)
    with pytest.raises(ValueError, match="no domain_"):
        empty.build(split_seed=0)


def _write_csv_folder(folder) -> SequenceConfig:
    """The tiny synthetic sequence (3 domains of 60 rows, k=3, d=4) as a CSV folder."""
    synth = tiny_config().sequence
    folder.mkdir()
    for i in range(synth.n_domains):
        ds = synth.domain(i)
        rows = [[repr(float(v)) for v in x] + [str(y)] for x, y in zip(ds.x, ds.labels)]
        text = io.StringIO()
        csv.writer(text, lineterminator="\n").writerows(rows)
        (folder / f"domain_{i:02d}.csv").write_text(text.getvalue())
    return SequenceConfig(kind="csv-folder", path=str(folder), k=synth.k, d=synth.d)


@pytest.fixture
def count_parses(monkeypatch):
    """An empty CSV cache, and the list of paths ``_parse_csv`` is called for."""
    monkeypatch.setattr(data, "_parsed_csv", {})
    parse, calls = data._parse_csv, []

    def counting(blob, path, k, d):
        calls.append(path)
        return parse(blob, path, k, d)

    monkeypatch.setattr(data, "_parse_csv", counting)
    return calls


def test_builds_parse_each_csv_file_once(tmp_path, count_parses):
    cfg = _write_csv_folder(tmp_path / "domains")
    first = cfg.build(split_seed=0)
    cfg.build(split_seed=0)
    other_seed = cfg.build(split_seed=1)
    assert count_parses == sorted(str(p) for p in (tmp_path / "domains").iterdir())
    assert other_seed.test_sets[2].x is first.test_sets[2].x  # one shared copy
    assert [ds.domain_id for ds in other_seed.test_sets] == [0, 1, 2]
    assert load_csv_domain(count_parses[1], 3, 4, domain_id=5).domain_id == 5
    assert len(count_parses) == 3


def test_csv_rewritten_with_same_size_and_mtime_is_parsed_again(tmp_path, count_parses):
    path = tmp_path / "domain_00.csv"
    path.write_text("0.5,1.5,0\n0.25,1.0,1\n")
    stat = os.stat(path)
    first = load_csv_domain(path, k=2, d=2)
    path.write_text("0.5,1.5,1\n0.75,1.0,1\n")
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert (os.stat(path).st_size, os.stat(path).st_mtime_ns) == (stat.st_size, stat.st_mtime_ns)
    again = load_csv_domain(path, k=2, d=2)
    assert list(again.labels) == [1, 1] and again.x[1, 0] == 0.75
    assert list(first.labels) == [0, 1] and first.x[1, 0] == 0.25
    assert len(count_parses) == 2


def test_cached_csv_arrays_are_read_only(tmp_path, count_parses):
    seq = _write_csv_folder(tmp_path / "domains").build(split_seed=0)
    again = load_csv_domain(tmp_path / "domains" / "domain_01.csv", k=3, d=4)
    for arr in (again.x, again.labels, seq.train_sets[1].x, seq.test_sets[2].labels):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0
    assert len(count_parses) == 3


def test_malformed_csv_fails_on_every_load_until_fixed(tmp_path, count_parses):
    path = tmp_path / "domain_00.csv"
    path.write_text("0.5,1.5,0\n0.25,nan,1\n")
    for _ in range(2):
        with pytest.raises(ValueError) as info:
            load_csv_domain(path, k=2, d=2)
        assert str(info.value) == f"{path}: line 2: non-finite feature value"
    path.write_text("0.5,1.5,0\n0.25,2.0,1\n")
    assert load_csv_domain(path, k=2, d=2).x[1, 1] == 2.0
    path.write_text("0.5,1.5,2\n")
    assert load_csv_domain(path, k=3, d=2).k == 3
    for _ in range(2):  # the labels are checked against each caller's k
        with pytest.raises(ValueError, match=r"line 1: label out of range \[0, 2\)"):
            load_csv_domain(path, k=2, d=2)


def _checkpoint_hashes(seed_dir) -> dict:
    ckpts = sorted((seed_dir / "checkpoints").iterdir())
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in ckpts}


def test_two_seed_csv_run_equals_single_seed_runs(tmp_path, count_parses, monkeypatch):
    sequence = _write_csv_folder(tmp_path / "domains")
    both = run_experiment(tiny_config(sequence=sequence, seeds=(7, 8)),
                          str(tmp_path / "both"))["per_seed"]
    assert len(count_parses) == 3
    for seed in (7, 8):
        monkeypatch.setattr(data, "_parsed_csv", {})
        alone = tiny_config(sequence=sequence, seeds=(seed,))
        single = run_experiment(alone, str(tmp_path / f"alone{seed}"))["per_seed"][str(seed)]
        for key in ("dg_matrix", "da_matrix"):
            assert single[key] == both[str(seed)][key]
        assert (_checkpoint_hashes(tmp_path / f"alone{seed}" / f"seed{seed}")
                == _checkpoint_hashes(tmp_path / "both" / f"seed{seed}"))
    assert len(count_parses) == 9
