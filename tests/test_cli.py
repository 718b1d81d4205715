import argparse
import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
import typing
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import codag
import codag.cli as cli
import codag.data as data
import codag.orchestrate as orchestrate
from codag.cli import CliError, build_config, main
from codag.orchestrate import ExperimentConfig, config_digest, config_from_dict, run_experiment
from codag.rng import substream

from conftest import DEFAULT_CONFIG
from test_orchestrate import DEEP_JSON, STATE_FAULTS, _tree

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


TINY = {
    "sequence": {"kind": "synthetic-rotated", "n_per_domain": 60, "k": 3, "d": 4,
                 "angles_deg": [0, 60, 120], "noise_sigma": 0.15, "seed": 3,
                 "source_fraction": 0.8},
    "seeds": [7],
    "variant": "codag",
    "model": {"hidden": [8], "feat_dim": 6},
    "adapt": {"epochs": 3, "batch_size": 16},
    "dg": {"epochs": 4, "batch_size": 16},
    "aug": {"n_transforms": 3},
    "buffer_capacity": 30,
    "log_curves": False,
}


@pytest.fixture
def tiny_config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY))
    return str(path)


def test_missing_config_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "nowhere.json")
    code = main(["run", "--config", missing, "--out", str(tmp_path / "out")])
    assert code == 2
    assert missing in capsys.readouterr().err


def test_invalid_config_reports_line(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"sequence": }')
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "line 1" in capsys.readouterr().err


# Each file, with or without an override, fails as one line that names it.
@pytest.mark.parametrize("override", [[], ["--override", "a=1"]], ids=["plain", "override"])
@pytest.mark.parametrize("content, message", [
    (b"[]", "invalid config: config must be an object, got []"),
    (b"\xff" + json.dumps(TINY).encode(), "line 1: not UTF-8 text"),
    (json.dumps(TINY)[:-1].encode() + b', "variant": "dg-only"}', "repeated key 'variant'"),
], ids=["top-level-list", "not-utf8", "repeated-key"])
def test_bad_config_file_is_one_error_line(tmp_path, capsys, content, message, override):
    path = tmp_path / "config.json"
    path.write_bytes(content)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), *override, "--out", str(out)]) == 2
    (line,) = _error_lines(capsys.readouterr().err)
    assert line.startswith(f"error: {path}: ") and message in line
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_run_rejects_jobs_below_one(tmp_path, tiny_config_file, capsys, jobs):
    out = tmp_path / "out"
    code = main(["run", "--config", tiny_config_file, "--out", str(out), "--jobs", jobs])
    assert code == 2
    assert "--jobs" in capsys.readouterr().err
    assert not out.exists()


def _error_lines(err: str) -> list[str]:
    assert "Traceback" not in err
    return [line for line in err.splitlines() if line.startswith("error:")]


@pytest.mark.parametrize("argv, message", [
    (["run", "--config", "CONFIG", "--override", "foo", "--out", "OUT"],
     "override must look like key=value, got 'foo'"),
    (["gen-data", "--config", "CONFIG", "--override", "sequence.kind=csv-folder",
      "--override", "sequence.path=.", "--out", "OUT"],
     "gen-data only materializes synthetic-rotated sequences"),
    (["report", "--runs", "OUT"], "runs directory not found: OUT"),
], ids=["override-without-equals", "gen-data-csv-folder", "report-missing-runs"])
def test_refused_command_line_exits_2_and_writes_nothing(tmp_path, tiny_config_file, capsys,
                                                        argv, message):
    out = str(tmp_path / "out")
    assert main([{"CONFIG": tiny_config_file, "OUT": out}.get(a, a) for a in argv]) == 2
    (line,) = _error_lines(capsys.readouterr().err)
    assert line == f"error: {message.replace('OUT', out)}"
    assert not os.path.exists(out)


@pytest.mark.parametrize("removed", [
    "adapt.distance=cosine", "aug.resample=per-batch", "model.d=99", "model.k=3",
    "log_curves=no", "adapt.epochs=2.5", "buffer_capacity=1.5", "seeds=[7,7]",
    "dg.bogus=1", "sequence=5", "sequence.scale=0", "sequence.shift=[1.0]",
    "dg.selnl_epoch_fraction=0.25", "dg.nl_conf_floor=0.2", "dg.clip_eps=1e-7",
    "aug.identity_slot=true", "adapt.im_weight=1.0", "adapt.pl_weight=0.3",
    "adapt.pl_refresh_interval=5", "dg.nl_epoch_fraction=0.25", "dg.pl_conf_threshold=0.5",
    "aug.mix_concentration=1.0", 'dg={"alpha": 0, "alpha": 1}',
    # No float holds 10**400.
    pytest.param(f"sequence.noise_sigma={10**400}", id="sequence.noise_sigma=10**400"),
])
def test_removed_config_keys_are_invalid(tmp_path, tiny_config_file, capsys, removed):
    out = tmp_path / "out"
    code = main(["run", "--config", tiny_config_file, "--override", removed,
                 "--jobs", "2", "--out", str(out)])
    assert code == 2
    errors = _error_lines(capsys.readouterr().err)
    assert len(errors) == 1
    assert "invalid config" in errors[0] and removed.split("=")[0] in errors[0]
    assert not out.exists()


def test_readme_config_table_names_every_field():
    """README's "Config schema" table names exactly the config's fields, section by section."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        after = fh.read().split("## Config schema\n", 1)[1]
    rows = re.findall(r"^\| (.+?) \| (.+?) \|$", after.split("\n\n", 2)[1], flags=re.M)
    documented = {section.strip("`"): re.findall(r"`([^`]+)`", re.sub(r"\([^)]*\)", "", fields))
                  for section, fields in rows[2:]}  # past the header and the rule
    leaves = ExperimentConfig().to_dict()
    expected = {name: list(value) for name, value in leaves.items() if isinstance(value, dict)}
    expected["top level"] = [name for name, value in leaves.items() if not isinstance(value, dict)]
    assert documented == expected


def test_docs_spell_only_real_flags():
    """Every ``--flag`` in README.md and in the cli docstring is an option of some
    ``codag`` subcommand; pip's ``--no-build-isolation`` is the one exception."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        spelled = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", fh.read() + cli.__doc__))
    (commands,) = [action.choices for action in cli._build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    options = {flag for command in commands.values() for flag in command._option_string_actions}
    assert "--config" in spelled and spelled - {"--no-build-isolation"} <= options


# On TINY (k=3, d=4, 60 rows per domain) each value fails a sequence range check.
@pytest.mark.parametrize("override", [
    "sequence.source_fraction=0", "sequence.source_fraction=1.0",
    "sequence.source_fraction=0.999", "sequence.n_per_domain=2", "sequence.noise_sigma=-1",
    "sequence.d=1", "sequence.kind=csv-folder", "sequence.k=1",
    # The synthetic cases above are refused by the split-size check too; a CSV one is not.
    pytest.param("sequence.kind=csv-folder sequence.path=nowhere sequence.source_fraction=1.0",
                 id="csv-folder-source_fraction=1.0"),
])
def test_out_of_range_sequence_is_invalid_config(tmp_path, tiny_config_file, capsys, override):
    out = tmp_path / "out"
    overrides = [arg for assignment in override.split() for arg in ("--override", assignment)]
    code = main(["run", "--config", tiny_config_file, *overrides, "--jobs", "2", "--out", str(out)])
    assert code == 2
    errors = _error_lines(capsys.readouterr().err)
    assert len(errors) == 1
    last = override.split()[-1]
    field = "path" if last == "sequence.kind=csv-folder" else last.split("=")[0].split(".")[1]
    assert "invalid config" in errors[0] and f"sequence: {field} " in errors[0]
    assert not out.exists()


def _dotted_items(node: dict, prefix: str = ""):
    for key, value in node.items():
        yield prefix + key, value
        if isinstance(value, dict):
            yield from _dotted_items(value, prefix + key + ".")


def _typed(tp, value, int_as_float: bool = True) -> bool:
    """Whether ``value`` is of the declared field type ``tp`` (an int passes as a
    float unless ``int_as_float`` is false)."""
    if dataclasses.is_dataclass(tp):
        return all(_typed(f.type, getattr(value, f.name), int_as_float)
                   for f in dataclasses.fields(tp))
    args = typing.get_args(tp)
    if type(None) in args:
        return value is None or any(_typed(a, value, int_as_float)
                                    for a in args if a is not type(None))
    if typing.get_origin(tp) is tuple:
        return isinstance(value, tuple) and all(_typed(args[0], v, int_as_float) for v in value)
    return type(value) is tp or (int_as_float and tp is float and type(value) is int)


def _holds(node, value) -> bool:
    """A section override replaces the section, so only its own keys must hold."""
    if isinstance(value, dict):
        return isinstance(node, dict) and all(k in node and _holds(node[k], v)
                                              for k, v in value.items())
    return node == value


DEFAULTS = dict(_dotted_items(ExperimentConfig().to_dict()))
REAL_KEYS = sorted(DEFAULTS)
JSON_LEAVES = (st.none() | st.booleans() | st.integers(-1, 40) | st.integers()
               | st.floats(0, 1) | st.floats(allow_nan=False) | st.text(max_size=4)
               | st.sampled_from(["codag", "dg-only", "csv-folder"]))
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(REAL_KEYS) | st.text(max_size=3), inner, max_size=2),
    max_leaves=4)


def _values_like(default):
    """JSON values of the default's kind, so that many overrides build, and near misses."""
    if isinstance(default, bool):
        return st.booleans() | st.integers(0, 1)
    if isinstance(default, (int, float)):
        return st.integers(0, 40) | st.floats(0, 1) | st.booleans()
    if isinstance(default, list) or default is None:
        return st.lists(st.integers(1, 4), max_size=3) | JSON_LEAVES
    return JSON_VALUES


SEQUENCE_KEYS = sorted(key for key in REAL_KEYS if key.startswith("sequence."))


def _boundary_values(default):
    """A sequence field's edge cases: zero, negative, tiny, huge, or a list of the wrong length."""
    if isinstance(default, int):
        return st.sampled_from([-1, 0, 1])
    if isinstance(default, float):
        return st.sampled_from([-1.0, 0.0, 1e-300, 1e300])
    return st.lists(st.floats(-1, 1), max_size=6)


KEYS = st.sampled_from(SEQUENCE_KEYS) | st.sampled_from(REAL_KEYS) | st.lists(
    st.sampled_from(REAL_KEYS) | st.text("abdkq_.", min_size=1, max_size=4),
    min_size=1, max_size=3,
).map(".".join)


@settings(max_examples=250, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(key=KEYS, data=st.data())
def test_any_override_builds_or_is_invalid_config(tiny_config_file, key, data):
    if key in SEQUENCE_KEYS and data.draw(st.integers(0, 3)) > 0:  # three in four
        value = data.draw(_boundary_values(DEFAULTS[key]))
    else:
        value = data.draw(JSON_VALUES | _values_like(DEFAULTS.get(key)))
    try:
        config = build_config(tiny_config_file, [f"{key}={json.dumps(value)}"])
    except CliError as exc:
        assert "invalid config" in str(exc)
        return
    node = config.to_dict()
    for part in key.split("."):
        node = node[part]
    assert _holds(node, value)
    assert _typed(ExperimentConfig, config)
    # to_dict() copies these values, so each of its float leaves is a float: one form per number.
    assert _typed(ExperimentConfig, config, int_as_float=False)
    seq = config.sequence
    # A config that constructs lies in the README's sequence ranges, and builds.
    assert seq.k >= 2 and seq.d >= 1 and 0 < seq.source_fraction < 1
    if seq.kind == "synthetic-rotated":
        assert seq.noise_sigma >= 0 and seq.seed >= 0
        if seq.n_per_domain * seq.d * len(seq.angles_deg) <= 10**6:
            seq.build(split_seed=substream(7, "data"))


def test_bad_domain_order_fails_before_writing(tmp_path, tiny_config_file, capsys):
    out = tmp_path / "out"
    code = main(["run", "--config", tiny_config_file, "--override", "domain_order=[9]",
                 "--out", str(out)])
    assert code == 2
    assert "invalid config" in capsys.readouterr().err
    assert not out.exists()


# 1e300 overflows the float32 weights instead of the loss, and the line says so.
# Both models' lines name the phase and the epoch.
@pytest.mark.parametrize("jobs, lr", [("1", "dg.lr=1000"), ("2", "dg.lr=1000"),
                                      ("1", "dg.lr=1e300"), ("2", "dg.lr=1e300"),
                                      ("1", "adapt.lr=1000"), ("2", "adapt.lr=1000"),
                                      ("1", "adapt.lr=1e300")],
                         ids=["1", "2", "1-lr1e300", "2-lr1e300", "1-adapt", "2-adapt",
                              "1-adapt-lr1e300"])
def test_diverging_loss_is_one_error_line(tmp_path, tiny_config_file, capsys, recwarn, jobs, lr):
    code = main(["run", "--config", tiny_config_file, "--override", lr,
                 "--override", "seeds=[7, 8]", "--jobs", jobs,
                 "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    phase = "adaptation" if lr.startswith("adapt.") else "(adaptation|ce|nl|selnl|selpl)"
    cause = "non-finite weights after an SGD step" if lr.endswith("1e300") else ""
    assert re.match(rf"error: seed 7, stage \d: training diverged: {phase} phase, epoch \d+: "
                    rf"{cause}", errors[0]), errors[0]
    assert "Traceback" not in err
    if jobs == "1":  # pool workers warn on their own stderr, out of recwarn's reach
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def _cli_child(argv) -> subprocess.CompletedProcess:
    """``codag`` run as a child process, so that its stderr holds any numpy warning,
    which pytest would capture in process."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    src = os.path.dirname(os.path.dirname(os.path.abspath(codag.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-m", "codag.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=120)


def test_overflowing_features_are_one_error_line(tmp_path, tiny_config_file):
    """Features near 1e300 overflow herding and the cosine norms; stderr holds only the error."""
    done = _cli_child(["run", "--config", tiny_config_file,
                       "--override", "sequence.noise_sigma=1e300", "--out", str(tmp_path / "out")])
    assert done.returncode == 1
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: seed 7, stage 1: training diverged")


def _overflowing_csv_run(tmp_path, variant: str) -> list[str]:
    """``--override`` arguments of a ``variant`` run, seed 1, on a ``csv-folder`` of
    3 x 40 rows whose features are all +-1.7e308: finite, so the parser takes
    them, but the logits overflow."""
    data_dir = tmp_path / "domains"
    data_dir.mkdir()
    signs = np.random.default_rng(0).choice([-1.0, 1.0], size=(3, 40, 4))
    for i, domain in enumerate(signs):
        (data_dir / f"domain_{i:02d}.csv").write_text("".join(
            ",".join([*(repr(float(s) * 1.7e308) for s in row), str(r % 3)]) + "\n"
            for r, row in enumerate(domain)))
    overrides = ["sequence.kind=csv-folder", f"sequence.path={data_dir}", "seeds=[1]",
                 "adapt.epochs=2", "dg.epochs=2", f"variant={variant}"]
    return [a for o in overrides for a in ("--override", o)]


@pytest.mark.parametrize("variant", ["da-only", "codag"])
def test_non_finite_logits_name_the_seed_and_stage(tmp_path, tiny_config_file, capsys, variant):
    """The overflowing run stops with one line naming the seed and the stage, and
    leaves no seed directory behind."""
    out = tmp_path / "out"
    code = main(["run", "--config", tiny_config_file, "--out", str(out),
                 *_overflowing_csv_run(tmp_path, variant)])
    assert code == 1
    (line,) = _error_lines(capsys.readouterr().err)
    assert re.fullmatch(r"error: seed 1, stage \d: training diverged: .*softmax input must be "
                        r"finite", line), line
    assert os.listdir(out) == []


@pytest.mark.parametrize("jobs, seeds", [("1", "[1]"), ("2", "[1, 2]")], ids=["jobs1", "jobs2"])
@pytest.mark.parametrize("variant", ["da-only", "codag"])
def test_overflowing_run_prints_no_numpy_warning(tmp_path, tiny_config_file, variant, jobs, seeds):
    """The overflowing products warn neither in the main process nor in a pool
    worker: stderr holds the one error line."""
    done = _cli_child(["run", "--config", tiny_config_file, "--out", str(tmp_path / "out"),
                       "--jobs", jobs, *_overflowing_csv_run(tmp_path, variant),
                       "--override", f"seeds={seeds}"])
    assert done.returncode == 1
    (line,) = done.stderr.splitlines()
    assert line.startswith("error: seed 1, stage 0: training diverged: "), line


# Large steps underflow probabilities to 0 under a log: the DG loss's KL takes log(p)
# of every class, also of those it masks out, and the adaptation loss log(pbar).
@pytest.mark.parametrize("overrides, code", [
    (["variant=dg-only", "dg.lr=20"], 0),
    (["dg.lr=1", "dg.alpha=50"], 1),
    (["dg.lr=5"], 1),
], ids=["dg-kl-finishes", "dg-kl-diverges", "adapt-pbar-diverges"])
def test_log_of_zero_prints_no_numpy_warning(tmp_path, tiny_config_file, overrides, code):
    """stderr is empty when the run finishes and holds the one error line when it diverges."""
    done = _cli_child(["run", "--config", tiny_config_file, "--out", str(tmp_path / "out"),
                       *(a for o in overrides for a in ("--override", o))])
    assert done.returncode == code
    assert len(done.stderr.splitlines()) == code, done.stderr
    assert done.stderr.startswith("error: seed 7, stage 1: training diverged: " if code else "")


@pytest.mark.parametrize("jobs, overrides", [
    ("1", ["dg.alpha=0"]),
    ("2", ["dg.alpha=0"]),
    # Fewer domains and one seed: a run that wrote over the first would leave
    # seed8/ and seed 7's stage-2 checkpoints of the first run beside its own files.
    ("1", ["sequence.angles_deg=[0, 60]", "seeds=[7]"]),
    # Seed 7 is refused first, so seed 9 never starts and leaves no directory.
    ("1", ["dg.alpha=0", "seeds=[7, 9]"]),
], ids=["alpha-jobs1", "alpha-jobs2", "two-domains-seed7", "alpha-new-seed9"])
def test_rerun_of_another_config_exits_2_and_writes_nothing(tmp_path, tiny_config_file, capsys,
                                                            jobs, overrides):
    out = tmp_path / "out"
    run = ["run", "--config", tiny_config_file, "--override", "seeds=[7, 8]", "--out", str(out)]
    assert main(run) == 0
    written = json.loads((out / "seed7" / "state.json").read_text())["digest"]
    before = _tree(out)
    capsys.readouterr()
    assert main(run + ["--jobs", jobs, *(a for o in overrides for a in ("--override", o))]) == 2
    errors = _error_lines(capsys.readouterr().err)
    assert len(errors) == 1
    assert str(out / "seed7" / "state.json") in errors[0] and written in errors[0]
    assert len(re.findall(r"\b[0-9a-f]{64}\b", errors[0])) == 2  # stored and current digest
    assert _tree(out) == before
    assert sorted(os.listdir(out)) == ["results.json", "seed7", "seed8"]


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("fault", ["version-3", "truncated", "ckpt-payload-byte",
                                   "ckpt-block-name"])
def test_malformed_state_is_one_error_line(tmp_path, tiny_config_file, capsys, jobs, fault):
    out = tmp_path / "out"
    run = ["run", "--config", tiny_config_file, "--override", "seeds=[7, 8]", "--out", str(out)]
    assert main(run) == 0
    STATE_FAULTS[fault](out / "seed7")
    capsys.readouterr()
    assert main(run + ["--jobs", jobs]) == 2
    errors = _error_lines(capsys.readouterr().err)
    assert len(errors) == 1 and str(out / "seed7" / "state.json") in errors[0]


@pytest.mark.parametrize("source", ["config", "override", "matrix", "nested-too-deep"])
def test_deeply_nested_json_is_one_error_line(tmp_path, tiny_config_file, capsys, source):
    """JSON nested past Python's recursion limit exits 2 naming its source, like any
    other bad JSON: a config, an override, a matrix, or a seed's state.json."""
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP_JSON)
    out = tmp_path / "out"
    run = ["run", "--config", tiny_config_file, "--out", str(out)]
    argv, named = {
        "config": (["run", "--config", str(deep), "--out", str(out)], str(deep)),
        "override": (run + ["--override", f"seeds={DEEP_JSON}"], "seeds"),
        "matrix": (["eval-matrix", "--file", str(deep)], str(deep)),
    }.get(source, (run, str(out / "seed7" / "state.json")))
    if source in STATE_FAULTS:
        assert main(run) == 0
        STATE_FAULTS[source](out / "seed7")
    capsys.readouterr()
    assert main(argv) == 2
    (line,) = _error_lines(capsys.readouterr().err)
    assert named in line and "invalid JSON: nested too deeply" in line


@pytest.mark.parametrize("argv", [["run", "--config", "DIR", "--out", "OUT"],
                                  ["eval-matrix", "--file", "DIR"]], ids=["config", "matrix"])
def test_input_path_that_is_a_directory_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main([{"DIR": str(tmp_path), "OUT": str(out)}.get(a, a) for a in argv]) == 2
    (line,) = _error_lines(capsys.readouterr().err)
    assert str(tmp_path) in line and not out.exists()


def _run_stopped_at_stage_2(run, monkeypatch):
    """``main(run)`` with stage 2 interrupted, so stages 0 and 1 are committed."""
    run_stage = orchestrate.run_stage

    def stop_at_stage_2(state, t, seq, config):
        if t == 2:
            raise RuntimeError("interrupted")
        return run_stage(state, t, seq, config)

    monkeypatch.setattr(orchestrate, "run_stage", stop_at_stage_2)
    assert main(run) == 1
    monkeypatch.undo()


@pytest.mark.parametrize("fault", ["ckpt-block-renamed-rehashed",
                                   "ckpt-blocks-reordered-rehashed", "ckpt-width-rehashed",
                                   "ckpt-header-nested-too-deep-rehashed"])
def test_resume_with_foreign_checkpoint_layout_exits_2(tmp_path, tiny_config_file, capsys,
                                                       monkeypatch, fault):
    """A stage-1 checkpoint that is not what ``save_checkpoint`` writes for the
    model, its sha256 rewritten in state.json, after a run stopped at stage 2."""
    out = tmp_path / "out"
    run = ["run", "--config", tiny_config_file, "--out", str(out)]
    _run_stopped_at_stage_2(run, monkeypatch)
    STATE_FAULTS[fault](out / "seed7")
    capsys.readouterr()
    assert main(run) == 2
    errors = _error_lines(capsys.readouterr().err)
    assert len(errors) == 1 and str(out / "seed7" / "state.json") in errors[0]
    assert "dg_stage1.ckpt" in errors[0] and "do not match" in errors[0]


def _csv_run(tmp_path, config_file) -> tuple:
    """gen-data's folder for ``config_file`` and the ``codag run`` arguments that read it."""
    data_dir = tmp_path / "domains"
    assert main(["gen-data", "--config", config_file, "--out", str(data_dir)]) == 0
    return data_dir, ["run", "--config", config_file, "--override", "sequence.kind=csv-folder",
                      "--override", f"sequence.path={data_dir}", "--out", str(tmp_path / "out")]


def test_resume_with_changed_csv_data_exits_2(tmp_path, tiny_config_file, capsys):
    data_dir, run = _csv_run(tmp_path, tiny_config_file)
    assert main(run) == 0
    assert main(run) == 0  # same config, same data
    domain = data_dir / "domain_02.csv"
    lines = domain.read_text().splitlines()
    lines[1] = "0.5," + lines[1].split(",", 1)[1]  # one feature of one row
    domain.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(run) == 2
    errors = _error_lines(capsys.readouterr().err)
    assert len(errors) == 1 and "digest" in errors[0]


def test_non_utf8_csv_is_one_error_line(tmp_path, tiny_config_file, capsys):
    data_dir, run = _csv_run(tmp_path, tiny_config_file)
    domain = data_dir / "domain_02.csv"
    blob = domain.read_bytes()
    at = blob.index(b"\r\n", blob.index(b"\r\n") + 2) + 3  # the second byte of line 3
    domain.write_bytes(blob[:at] + b"\xff" + blob[at:])
    capsys.readouterr()
    assert main(run) == 1
    errors = _error_lines(capsys.readouterr().err)
    assert errors == [f"error: {domain}: line 3: not UTF-8 text"]


def test_csv_cell_over_field_limit_is_one_error_line(tmp_path, tiny_config_file, capsys):
    """A cell longer than csv.field_size_limit() names its file and line."""
    data_dir, run = _csv_run(tmp_path, tiny_config_file)
    domain = data_dir / "domain_02.csv"
    lines = domain.read_bytes().split(b"\r\n")[:-1]
    lines[-1] = lines[-1].rsplit(b",", 1)[0] + b"," + b"1" * 140_001  # the last row's label
    domain.write_bytes(b"\r\n".join(lines) + b"\r\n")
    capsys.readouterr()
    assert main(run) == 1
    errors = _error_lines(capsys.readouterr().err)
    assert len(errors) == 1 and errors[0].startswith(f"error: {domain}: line {len(lines)}: ")


@pytest.mark.parametrize("content", [b"", b"f0,f1,f2,f3,label\r\n"], ids=["empty", "header-only"])
def test_csv_without_rows_is_one_error_line(tmp_path, tiny_config_file, capsys, content):
    data_dir, run = _csv_run(tmp_path, tiny_config_file)
    domain = data_dir / "domain_01.csv"
    domain.write_bytes(content)
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(run) == 1
    assert caught == []  # numpy's "input contained no data" stays inside the parser
    assert capsys.readouterr().err == f"error: {domain}: no data rows\n"


def _run_child(code: str, **env_vars) -> str:
    """Run ``code`` in a fresh interpreter without inherited BLAS thread settings."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    src = os.path.dirname(os.path.dirname(os.path.abspath(codag.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.update(env_vars)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    return done.stdout.strip()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_import_runs_blas_single_threaded():
    out = _run_child("import os, codag.cli, numpy as np\n"
                     "a = np.ones((512, 512)); a @ a\n"
                     "print(len(os.listdir('/proc/self/task')))")
    assert out == "1"


def test_explicit_blas_thread_setting_wins():
    out = _run_child("import os, codag\n"
                     f"print(*(os.environ[v] for v in {BLAS_THREAD_VARS!r}))",
                     OPENBLAS_NUM_THREADS="2")
    assert out == "2 1 1"


def test_override_equals_infile_setting(tmp_path, tiny_config_file):
    out_a = tmp_path / "a"
    assert main(["run", "--config", tiny_config_file,
                 "--override", "dg.alpha=0", "--out", str(out_a)]) == 0

    infile = dict(TINY)
    infile["dg"] = dict(TINY["dg"], alpha=0)
    path_b = tmp_path / "config_b.json"
    path_b.write_text(json.dumps(infile))
    out_b = tmp_path / "b"
    assert main(["run", "--config", str(path_b), "--out", str(out_b)]) == 0

    res_a = json.loads((out_a / "results.json").read_text())
    res_b = json.loads((out_b / "results.json").read_text())
    assert res_a["per_seed"] == res_b["per_seed"]
    assert res_a["config_digest"] == res_b["config_digest"]
    assert res_a["config"]["dg"]["alpha"] == 0


def test_env_seed_leaves_the_seeds_alone(tmp_path, tiny_config_file, monkeypatch):
    monkeypatch.setenv("CODAG_SEED", "11")
    out = tmp_path / "env"
    assert main(["run", "--config", tiny_config_file, "--out", str(out)]) == 0
    res = json.loads((out / "results.json").read_text())
    assert list(res["per_seed"]) == ["7"] and res["config"]["seeds"] == [7]


@pytest.mark.parametrize("removed", ["codag-no-buffer", "codag-no-selnlpl"])
def test_removed_variant_is_invalid_config(tmp_path, tiny_config_file, capsys, removed):
    out = tmp_path / "out"
    code = main(["run", "--config", tiny_config_file, "--override", f"variant={removed}",
                 "--out", str(out)])
    assert code == 2 and not out.exists()
    (line,) = _error_lines(capsys.readouterr().err)
    assert "invalid config" in line and removed in line
    assert all(repr(variant) in line
               for variant in ("codag", "da-only", "dg-only", "codag-da-init"))


def test_gen_data_roundtrips_through_csv(tmp_path, tiny_config_file, monkeypatch):
    """gen-data's files (a header line, CRLF ends, repr floats) load back byte for byte,
    through numpy's C reader alone."""
    def line_parser(*args):
        raise AssertionError("the line parser ran on a gen-data file")

    monkeypatch.setattr(data, "_parse_lines", line_parser)
    data_dir, _ = _csv_run(tmp_path, tiny_config_file)
    files = sorted(os.listdir(data_dir))
    assert files == ["domain_00.csv", "domain_01.csv", "domain_02.csv"]
    assert (data_dir / files[0]).read_bytes().startswith(b"f0,f1,f2,f3,label\r\n")

    synth = config_from_dict(data.SequenceConfig, TINY["sequence"])
    csv_cfg = data.SequenceConfig(kind="csv-folder", path=str(data_dir), k=3, d=4,
                                  source_fraction=0.8)
    for t in range(3):
        a, b = synth.domain(t), csv_cfg.domain(t)
        for got, want in ((b.x, a.x), (b.labels, a.labels)):
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
    assert csv_cfg.build(split_seed=substream(7, "data")).train_sets[1].labels_hidden


def test_report_aggregates_mean_and_population_std(tmp_path, capsys):
    runs = tmp_path / "runs"
    for i, value in enumerate((0.80, 0.90)):
        d = runs / f"run{i}"
        os.makedirs(d)
        doc = {
            "config_digest": "x", "config": {"variant": "codag", "seeds": [1]},
            "per_seed": {"1": {"da_matrix": [[value]], "dg_matrix": [[value]],
                               "metrics": {"tda_mean": value, "tdg_mean": value,
                                           "fa_mean": value, "all": value}}},
            "aggregate": {},
        }
        (d / "results.json").write_text(json.dumps(doc))
    assert main(["report", "--runs", str(runs)]) == 0
    out = capsys.readouterr().out
    assert "85.00" in out and "5.00" in out  # mean 85, population std 5
    table = json.loads((runs / "report.json").read_text())
    assert table["codag"]["tda"]["mean"] == pytest.approx(0.85)
    assert table["codag"]["tda"]["std"] == pytest.approx(0.05)


def test_report_two_identical_runs_mean_is_that_value(tmp_path, capsys):
    runs = tmp_path / "runs"
    for i in range(2):
        d = runs / f"run{i}"
        os.makedirs(d)
        doc = {
            "config_digest": "x", "config": {"variant": "codag", "seeds": [1]},
            "per_seed": {"1": {"da_matrix": [[0.75]], "dg_matrix": [[0.75]],
                               "metrics": {"tda_mean": 0.75, "tdg_mean": 0.75,
                                           "fa_mean": 0.75, "all": 0.75}}},
            "aggregate": {},
        }
        (d / "results.json").write_text(json.dumps(doc))
    assert main(["report", "--runs", str(runs)]) == 0
    table = json.loads((runs / "report.json").read_text())
    assert table["codag"]["all"]["mean"] == pytest.approx(0.75)
    assert table["codag"]["all"]["std"] == 0.0


def test_report_single_run_zero_std(tmp_path, capsys):
    runs = tmp_path / "runs"
    os.makedirs(runs)
    doc = {
        "config_digest": "x", "config": {"variant": "codag", "seeds": [1]},
        "per_seed": {"1": {"da_matrix": [[0.7]], "dg_matrix": [[0.7]],
                           "metrics": {"tda_mean": 0.7, "tdg_mean": None,
                                       "fa_mean": None, "all": None}}},
        "aggregate": {},
    }
    (runs / "results.json").write_text(json.dumps(doc))
    assert main(["report", "--runs", str(runs)]) == 0
    table = json.loads((runs / "report.json").read_text())
    assert table["codag"]["tda"]["std"] == 0.0
    assert table["codag"]["tdg"] is None


def test_one_domain_run_has_null_aggregates_and_report_cells(tmp_path, capsys):
    """A one-domain sequence has no generalization or forgetting score: results.json
    aggregates TDG, FA and All as null, and codag report leaves their cells null."""
    config = ExperimentConfig.from_dict(
        dict(TINY, seeds=[7, 8], sequence=dict(TINY["sequence"], angles_deg=[0])))
    runs = tmp_path / "runs"
    aggregate = run_experiment(config, str(runs / "one"))["aggregate"]
    assert json.loads((runs / "one" / "results.json").read_text())["aggregate"] == aggregate
    assert set(aggregate["tda"]) == {"mean", "std"}
    assert [aggregate[name] for name in ("tdg", "fa", "all")] == [None] * 3
    assert main(["report", "--runs", str(runs)]) == 0
    table = json.loads((runs / "report.json").read_text())
    assert table == {"codag": {"tda": {**aggregate["tda"], "n": 2},
                               "tdg": None, "fa": None, "all": None}}
    assert capsys.readouterr().out.count("n/a") == 3


def test_report_empty_dir_fails(tmp_path, capsys):
    runs = tmp_path / "runs"
    os.makedirs(runs)
    assert main(["report", "--runs", str(runs)]) == 1
    assert "no results" in capsys.readouterr().err


_RESULTS = {"config_digest": "x", "config": {"variant": "codag", "seeds": [1]},
            "per_seed": {"1": {"metrics": {"tda_mean": 0.7, "tdg_mean": 0.7,
                                           "fa_mean": 0.7, "all": 0.7}}}}


@pytest.mark.parametrize("content", [
    pytest.param(json.dumps(dict(_RESULTS, config={"seeds": [1]})), id="no-variant"),
    pytest.param(json.dumps({k: v for k, v in _RESULTS.items() if k != "config"}),
                 id="no-config"),
    pytest.param(json.dumps(dict(_RESULTS, config=[1])), id="config-as-list"),
    pytest.param(json.dumps(_RESULTS).replace('"tdg_mean": 0.7, ', ""), id="no-tdg-mean"),
    pytest.param(json.dumps(_RESULTS).replace('"tdg_mean": 0.7', '"tdg_mean": "0.7"'),
                 id="tdg-mean-as-string"),
    pytest.param("{not json", id="not-json"),
    pytest.param(json.dumps(_RESULTS)[:-1] + ', "config": {"variant": "dg-only", "seeds": [2]}}',
                 id="repeated-key"),
])
def test_report_on_a_bad_results_file_is_one_error_line(tmp_path, capsys, content):
    runs = tmp_path / "runs"
    os.makedirs(runs / "good")
    (runs / "good" / "results.json").write_text(json.dumps(_RESULTS))
    os.makedirs(runs / "bad")
    (runs / "bad" / "results.json").write_text(content)
    assert main(["report", "--runs", str(runs)]) == 1
    (line,) = _error_lines(capsys.readouterr().err)
    assert str(runs / "bad" / "results.json") in line
    assert not (runs / "report.json").exists()


def _report(runs) -> dict:
    assert main(["report", "--runs", str(runs)]) == 0
    return json.loads((runs / "report.json").read_text())


def test_report_gives_each_config_its_own_row(tmp_path, tiny_config_file, capsys):
    runs = tmp_path / "runs"
    for name, overrides in (("demo", []), ("nodistill", ["--override", "dg.alpha=0"])):
        assert main(["run", "--config", tiny_config_file, *overrides,
                     "--out", str(runs / name)]) == 0
    table = _report(runs)
    assert sorted(table) == ["codag dg.alpha=0.0", "codag dg.alpha=1.0"]
    for label, name in (("codag dg.alpha=1.0", "demo"), ("codag dg.alpha=0.0", "nodistill")):
        res = json.loads((runs / name / "results.json").read_text())
        assert table[label]["all"]["n"] == 1
        assert table[label]["all"]["mean"] == res["per_seed"]["7"]["metrics"]["all"]
    assert "codag dg.alpha=0.0" in capsys.readouterr().out


def test_int_and_float_spellings_are_one_config(tmp_path, tiny_config_file):
    """``dg.alpha=0`` reads as 0.0: one config digest and one report row."""
    runs = tmp_path / "runs"
    digests = set()
    for name, alpha, seed in (("int", "0", 7), ("float", "0.0", 8)):
        digests.add(config_digest(build_config(tiny_config_file, [f"dg.alpha={alpha}"]).to_dict()))
        assert main(["run", "--config", tiny_config_file, "--override", f"dg.alpha={alpha}",
                     "--override", f"seeds=[{seed}]", "--out", str(runs / name)]) == 0
    assert len(digests) == 1
    table = _report(runs)
    assert list(table) == ["codag"] and table["codag"]["all"]["n"] == 2

    # A config built in Python with ints in float fields is the config read from JSON.
    runs = tmp_path / "mixed"
    base = build_config(tiny_config_file, [])
    built = dataclasses.replace(
        base, dg=dataclasses.replace(base.dg, alpha=0),
        adapt=dataclasses.replace(base.adapt, lr=1),
        sequence=dataclasses.replace(base.sequence, angles_deg=(0, 30, 60, 90, 120)))
    floats = ["dg.alpha=0.0", "adapt.lr=1.0", "sequence.angles_deg=[0.0, 30.0, 60.0, 90.0, 120.0]"]
    read = build_config(tiny_config_file, floats)
    assert config_digest(built.to_dict()) == config_digest(read.to_dict())
    orchestrate.run_experiment(built, runs / "python")  # seed 7
    overrides = [arg for f in [*floats, "seeds=[8]"] for arg in ("--override", f)]
    assert main(["run", "--config", tiny_config_file, *overrides, "--out", str(runs / "cli")]) == 0
    table = _report(runs)
    ((label, row),) = table.items()
    assert row["all"]["n"] == 2, label


def test_resume_adds_and_drops_seeds(tmp_path, tiny_config_file, monkeypatch):
    """A finished ``seeds=[7]`` run resumed with ``seeds=[7, 8]`` runs only seed 8's
    stages and writes the files of a fresh two-seed run; resuming that with
    ``seeds=[7]`` runs no stage."""
    run = ["run", "--config", tiny_config_file, "--out"]
    fresh, grown = tmp_path / "fresh", tmp_path / "grown"
    assert main(run + [str(fresh), "--override", "seeds=[7, 8]"]) == 0
    assert main(run + [str(grown)]) == 0
    seeds_run = []
    real_stage = orchestrate.run_stage

    def recording_stage(state, t, *args):
        seeds_run.append(state.seed)
        return real_stage(state, t, *args)

    monkeypatch.setattr(orchestrate, "run_stage", recording_stage)
    assert main(run + [str(grown), "--override", "seeds=[7, 8]"]) == 0
    assert seeds_run == [8, 8, 8]
    assert _tree(grown) == _tree(fresh)
    seeds_run.clear()
    assert main(run + [str(grown), "--override", "seeds=[7]"]) == 0
    assert seeds_run == []
    assert list(json.loads((grown / "results.json").read_text())["per_seed"]) == ["7"]


def test_allocation_failure_is_one_error_line(tmp_path, capsys):
    """10**11 rows per domain: numpy refuses the first domain's 745 GiB arrays at
    allocation, before any memory is touched."""
    code = main(["run", "--config", DEFAULT_CONFIG, "--override",
                 "sequence.n_per_domain=100000000000", "--out", str(tmp_path / "out")])
    assert code == 1
    (line,) = _error_lines(capsys.readouterr().err)
    assert "Unable to allocate" in line


def test_report_pools_the_seed_shards_of_one_config(tmp_path, tiny_config_file):
    runs = tmp_path / "runs"
    alls = []
    for seed in (7, 8):
        out = runs / f"seed{seed}"
        assert main(["run", "--config", tiny_config_file, "--override", f"seeds=[{seed}]",
                     "--out", str(out)]) == 0
        alls.append(json.loads((out / "results.json").read_text())
                    ["per_seed"][str(seed)]["metrics"]["all"])
    table = _report(runs)
    assert list(table) == ["codag"]
    assert table["codag"]["all"] == {"mean": float(np.mean(alls)), "std": float(np.std(alls)),
                                     "n": 2}


def test_report_labels_are_distinct_and_fixed():
    configs = [{"variant": "codag", "dg": {"alpha": 0.0}, "buffer_capacity": 30},
               {"variant": "da-only", "dg": {"alpha": 0.0}},
               {"variant": "codag", "dg": {"alpha": 1.0}, "buffer_capacity": 30},
               {"variant": "codag", "dg": {"alpha": 1.0}, "buffer_capacity": 0}]
    assert cli._row_labels(configs) == [
        "codag buffer_capacity=30 dg.alpha=0.0", "da-only",
        "codag buffer_capacity=30 dg.alpha=1.0", "codag buffer_capacity=0 dg.alpha=1.0"]


def test_eval_matrix_worked_example(tmp_path, capsys):
    grid = {"dg": [[0.9, 0.5, 0.4], [0.8, 0.85, 0.6], [0.75, 0.8, 0.9]]}
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(grid))
    assert main(["eval-matrix", "--file", str(path)]) == 0
    out = capsys.readouterr().out
    assert "TDG: 50.00" in out
    assert "FA: 78.75" in out


def test_eval_matrix_all_ones(tmp_path, capsys):
    path = tmp_path / "ones.json"
    path.write_text(json.dumps({"dg": [[1, 1], [1, 1]], "da": [[1, 1], [1, 1]]}))
    assert main(["eval-matrix", "--file", str(path)]) == 0
    out = capsys.readouterr().out
    for line in out.strip().splitlines():
        assert line.endswith("100.00")


def test_eval_matrix_rejects_bad_grids(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dg": [[0.5, 0.5]]}))
    assert main(["eval-matrix", "--file", str(path)]) == 2
    assert "square" in capsys.readouterr().err

    path.write_text(json.dumps({"dg": [[0.5, 2.0], [0.1, 0.2]]}))
    assert main(["eval-matrix", "--file", str(path)]) == 2

    path.write_text(json.dumps([1, 2, 3]))
    assert main(["eval-matrix", "--file", str(path)]) == 2

    capsys.readouterr()
    path.write_text(json.dumps({"dg": [0.5, 0.5]}))
    assert main(["eval-matrix", "--file", str(path)]) == 2
    assert "2-D grid" in capsys.readouterr().err

    capsys.readouterr()
    path.write_text(json.dumps({"dg": [[True, False], [True, True]]}))
    assert main(["eval-matrix", "--file", str(path)]) == 2
    captured = capsys.readouterr()
    errors = _error_lines(captured.err)
    assert captured.out == "" and captured.err.splitlines() == errors
    assert len(errors) == 1 and str(path) in errors[0]

    # A file that cannot be read as JSON: one error line that names it once.
    missing = tmp_path / "missing.json"
    for target, content, message in [
            (path, b"\xff{}", "line 1: not UTF-8 text"),
            (path, b'{"dg":\n  }', "line 2: invalid JSON"),
            (path, b'{"dg": [[0.5]], "dg": [[0.9]]}', "repeated key 'dg'"),
            (missing, None, "No such file")]:
        if content is not None:
            target.write_bytes(content)
        assert main(["eval-matrix", "--file", str(target)]) == 2
        captured = capsys.readouterr()
        (line,) = _error_lines(captured.err)
        assert captured.out == "" and message in line and line.count(str(target)) == 1


def test_eval_matrix_matches_library_on_random_grids(tmp_path, capsys):
    from codag.evaluate import metrics_from_grids

    rng = np.random.default_rng(0)
    for trial in range(20):
        n = int(rng.integers(2, 6))
        dg = rng.random((n, n)).tolist()
        da = rng.random((n, n)).tolist()
        path = tmp_path / f"m{trial}.json"
        path.write_text(json.dumps({"dg": dg, "da": da}))
        assert main(["eval-matrix", "--file", str(path)]) == 0
        out = capsys.readouterr().out
        m = metrics_from_grids(dg, da)
        assert out.splitlines() == [
            f" TDA: {100 * m['tda_mean']:.2f}", f" TDG: {100 * m['tdg_mean']:.2f}",
            f"  FA: {100 * m['fa_mean']:.2f}", f" All: {100 * m['all']:.2f}"]


def test_eval_matrix_one_domain_prints_na(tmp_path, capsys):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"dg": [[0.9]]}))
    assert main(["eval-matrix", "--file", str(path)]) == 0
    assert capsys.readouterr().out == " TDA: 90.00\n TDG: n/a\n  FA: n/a\n All: n/a\n"


def test_version_command(capsys):
    assert main(["version"]) == 0
    out = capsys.readouterr().out.strip()
    assert out
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(os.path.join(os.path.dirname(__file__), "..", "pyproject.toml"), "rb") as fh:
        assert out == tomllib.load(fh)["project"]["version"]


def test_default_config_smoke_run_under_five_minutes(default_cli_run):
    assert default_cli_run.code == 0
    assert default_cli_run.elapsed_s < 300, f"default run took {default_cli_run.elapsed_s:.0f}s"
    res = default_cli_run.results()
    assert set(res["per_seed"]) == {"2022", "2023", "2024"}
    assert res["aggregate"]["all"] is not None


def test_resuming_a_finished_default_run_changes_no_file(default_cli_run, tmp_path):
    copy = tmp_path / "run"
    shutil.copytree(default_cli_run.out, copy)
    assert main(["run", "--config", DEFAULT_CONFIG, "--out", str(copy)]) == 0
    assert _tree(copy) == _tree(default_cli_run.out)
