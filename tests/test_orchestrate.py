import csv
import hashlib
import io
import json
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import codag.orchestrate as orchestrate
import codag.replay as replay
from codag.augment import AugmentConfig
from codag.data import Dataset, HiddenLabelsError, SequenceConfig
from codag.evaluate import CURVES_HEADER, sequence_metrics
from codag.generalize import DGConfig, train_dg_source
from codag.nnmodel import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    HEAD_BLOCKS,
    ClassifierParams,
    EpochConfig,
    ModelConfig,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from codag.orchestrate import (
    VARIANTS,
    ExperimentConfig,
    RunStateError,
    StageOrderError,
    config_digest,
    new_run_state,
    run_experiment,
    run_seed,
    run_stage,
)
from codag.rng import RngStreams, substream


def tiny_config(**over):
    base = dict(
        sequence=SequenceConfig(n_per_domain=60, k=3, d=4,
                                angles_deg=(0.0, 60.0, 120.0), seed=3),
        seeds=(7,),
        model=ModelConfig(hidden=(8,), feat_dim=6),
        adapt=EpochConfig(epochs=3, batch_size=16),
        dg=DGConfig(epochs=4, batch_size=16),
        buffer_capacity=30,
        log_curves=False,
    )
    base.update(over)
    return ExperimentConfig(**base)


def test_rerun_determinism():
    cfg = tiny_config()
    a, _ = run_seed(cfg, 7)
    b, _ = run_seed(cfg, 7)
    assert np.nanmax(np.abs(a.dg_matrix - b.dg_matrix)) <= 1e-9
    assert np.nanmax(np.abs(a.da_matrix - b.da_matrix)) <= 1e-9


def test_source_only_horizon():
    cfg = tiny_config(sequence=SequenceConfig(n_per_domain=60, k=3, d=4,
                                              angles_deg=(0.0,), seed=3))
    state, metrics = run_seed(cfg, 7)
    assert state.next_stage == 1
    assert metrics["tdg_mean"] is None and metrics["fa_mean"] is None and metrics["all"] is None
    assert len(metrics["tda_per_domain"]) == 1


def test_stage_order_enforced():
    cfg = tiny_config()
    seq = cfg.sequence.build(split_seed=substream(7, "data"))
    state = new_run_state(7, seq, cfg)
    with pytest.raises(StageOrderError):
        run_stage(state, 1, seq, cfg)
    run_stage(state, 0, seq, cfg)
    with pytest.raises(StageOrderError):
        run_stage(state, 0, seq, cfg)
    run_stage(state, 1, seq, cfg)
    run_stage(state, 2, seq, cfg)
    with pytest.raises(StageOrderError):
        run_stage(state, 3, seq, cfg)


def test_single_model_variants_mirror_matrices():
    for variant in ("dg-only", "da-only"):
        cfg = tiny_config(variant=variant)
        state, _ = run_seed(cfg, 7)
        np.testing.assert_array_equal(state.da_matrix, state.dg_matrix)
        assert list(state.models) == ["dg"]


def test_da_init_variant_continues_from_previous_da(monkeypatch):
    calls = []
    real = orchestrate.adapt_domain

    def spy(params, target, cfg, rng, **kw):
        out = real(params, target, cfg, rng, **kw)
        calls.append((params, out))
        return out

    monkeypatch.setattr(orchestrate, "adapt_domain", spy)

    run_seed(tiny_config(variant="codag-da-init"), 7)
    assert len(calls) == 2
    assert calls[1][0] is calls[0][1]  # stage 2 starts from stage 1's adapted params

    calls.clear()
    run_seed(tiny_config(), 7)
    assert len(calls) == 2
    assert calls[1][0] is not calls[0][1]  # plain variant restarts from the DG side


def test_training_path_never_reads_hidden_labels():
    cfg = tiny_config()
    seq = cfg.sequence.build(split_seed=substream(7, "data"))
    # the guard actually fires if a trainer is handed a hidden view
    with pytest.raises(HiddenLabelsError):
        train_dg_source(
            init_params(ModelConfig(hidden=(8,), feat_dim=6), seq.d, seq.k, 0),
            seq.train_sets[1], cfg.dg, AugmentConfig(), RngStreams.for_stage(0, 0),
        )
    # and the unsupervised pipeline completes without touching them
    run_seed(cfg, 7)


def test_domain_order_permutes_columns():
    cfg = tiny_config(domain_order=[2, 1])
    state, _ = run_seed(cfg, 7)
    natural, _ = run_seed(tiny_config(), 7)
    # source column identical; target columns swapped at stage 0
    assert state.dg_matrix[0][0] == natural.dg_matrix[0][0]
    assert state.dg_matrix[0][1] == pytest.approx(natural.dg_matrix[0][2])
    assert state.dg_matrix[0][2] == pytest.approx(natural.dg_matrix[0][1])


def _count_herding(monkeypatch) -> list:
    calls = []
    real = replay.herding_select

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(replay, "herding_select", counting)
    return calls


def test_zero_buffer_capacity_keeps_the_buffer_empty(monkeypatch):
    calls = _count_herding(monkeypatch)
    state, _ = run_seed(tiny_config(buffer_capacity=0), 7)
    assert state.buffer.n_entries == 0 and calls == []


def test_da_only_keeps_its_buffer_capacity_and_herds_nothing(tmp_path, monkeypatch):
    cfg = tiny_config(variant="da-only", buffer_capacity=200)
    assert cfg.buffer_capacity == 200 and cfg.to_dict()["buffer_capacity"] == 200
    calls = _count_herding(monkeypatch)
    results = run_experiment(cfg, str(tmp_path))
    assert calls == []
    on_disk = json.loads((tmp_path / "results.json").read_text())
    assert results["config"]["buffer_capacity"] == on_disk["config"]["buffer_capacity"] == 200


def test_run_experiment_artifacts(tmp_path):
    results = run_experiment(tiny_config(seeds=(7, 8)), str(tmp_path / "run"))
    assert set(results["per_seed"]) == {"7", "8"}
    for entry in results["per_seed"].values():
        assert len(entry["dg_matrix"]) == 3
        assert entry["metrics"]["all"] is not None
    agg = results["aggregate"]["tda"]
    vals = [results["per_seed"][s]["metrics"]["tda_mean"] for s in ("7", "8")]
    assert agg["mean"] == pytest.approx(np.mean(vals))
    assert agg["std"] == pytest.approx(np.std(vals))

    out = tmp_path / "run"
    assert (out / "results.json").exists()
    for seed in (7, 8):
        seed_dir = out / f"seed{seed}"
        assert (seed_dir / "state.json").exists()
        assert (seed_dir / "curves.csv").exists()
        assert (seed_dir / "checkpoints" / "dg_stage2.ckpt").exists()
    on_disk = json.loads((out / "results.json").read_text())
    assert on_disk["config_digest"] == results["config_digest"]
    assert list(on_disk) == ["config_digest", "config", "per_seed", "aggregate"]


def test_resume_matches_uninterrupted_run(tmp_path):
    cfg = tiny_config()
    full, _ = run_seed(cfg, 7)

    seed_dir = tmp_path / "partial"
    os.makedirs(seed_dir)
    seq = cfg.sequence.build(split_seed=substream(7, "data"))
    state = new_run_state(7, seq, cfg)
    for t in range(2):  # stop midway, committing every stage
        run_stage(state, t, seq, cfg)
        orchestrate.save_run_state(state, str(seed_dir))

    resumed, _ = run_seed(cfg, 7, seed_dir=str(seed_dir))
    np.testing.assert_array_equal(resumed.dg_matrix, full.dg_matrix)
    np.testing.assert_array_equal(resumed.da_matrix, full.da_matrix)


def _tree(root) -> dict[str, bytes]:
    """Every file under ``root`` by relative path."""
    out = {}
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


# tiny_config arguments by test id: every variant, and codag without its replay
# buffer or without its noisy-label schedule.
RESUME_RUNS = {**{variant: {"variant": variant} for variant in VARIANTS},
               "codag-no-buffer": {"buffer_capacity": 0},
               "codag-no-selnlpl": {"dg": DGConfig(epochs=4, batch_size=16, selnlpl=False)}}


# Interrupted after stage 1 (id: the RESUME_RUNS key) and after stage 0 ("-after0").
@pytest.mark.parametrize("run, stop", [pytest.param(r, 2, id=r) for r in RESUME_RUNS]
                         + [pytest.param(r, 1, id=f"{r}-after0") for r in RESUME_RUNS])
def test_variant_resumes_and_writes_each_checkpoint_once(tmp_path, monkeypatch, run, stop):
    cfg = tiny_config(**RESUME_RUNS[run], log_curves=True)
    writes = []
    real_save = orchestrate.save_checkpoint

    def counting_save(params, path):
        writes.append(os.fspath(path))
        return real_save(params, path)

    monkeypatch.setattr(orchestrate, "save_checkpoint", counting_save)

    full_dir = tmp_path / "full"
    full, _ = run_seed(cfg, 7, seed_dir=str(full_dir))
    full_writes = writes.copy()
    writes.clear()

    real_stage = orchestrate.run_stage

    def stop_before(state, t, *args, **kwargs):
        if t == stop:
            raise KeyboardInterrupt
        return real_stage(state, t, *args, **kwargs)

    part_dir = tmp_path / "part"
    monkeypatch.setattr(orchestrate, "run_stage", stop_before)
    with pytest.raises(KeyboardInterrupt):
        run_seed(cfg, 7, seed_dir=str(part_dir))
    assert json.loads((part_dir / "state.json").read_text())["next_stage"] == stop
    monkeypatch.setattr(orchestrate, "run_stage", real_stage)
    resumed, _ = run_seed(cfg, 7, seed_dir=str(part_dir))

    np.testing.assert_array_equal(resumed.dg_matrix, full.dg_matrix)
    np.testing.assert_array_equal(resumed.da_matrix, full.da_matrix)
    assert len(_curve_records(full.curves)) > 0 and resumed.curves == full.curves
    # checkpoints, curves.csv and state.json, byte for byte
    assert _tree(part_dir) == _tree(full_dir)
    names = sorted(os.listdir(full_dir / "checkpoints"))
    for run_dir, paths in ((full_dir, full_writes), (part_dir, writes)):
        expected = [str(run_dir / "checkpoints" / name) for name in names]
        assert sorted(paths) == expected  # every checkpoint written exactly once


def test_killed_write_resumes_to_uninterrupted_bytes(tmp_path, monkeypatch):
    """A kill at any file replacement leaves a tree that a rerun completes."""
    cfg = tiny_config(log_curves=True)
    real_replace = os.replace
    replaced = []

    def counting_replace(src, dst):
        replaced.append(os.path.basename(dst))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", counting_replace)
    run_seed(cfg, 7, seed_dir=str(tmp_path / "full"))
    expected = _tree(tmp_path / "full")
    # per stage: its checkpoints, then curves.csv, then state.json last
    assert replaced == ["dg_stage0.ckpt", "curves.csv", "state.json"] + [
        name for t in (1, 2)
        for name in (f"da_stage{t}.ckpt", f"dg_stage{t}.ckpt", "curves.csv", "state.json")]

    for k in range(1, len(replaced) + 1):
        calls = []

        def killed_replace(src, dst):
            calls.append(dst)
            if len(calls) == k:
                raise OSError(f"killed at replacement {k}")
            real_replace(src, dst)

        run_dir = tmp_path / f"kill{k}"
        monkeypatch.setattr(os, "replace", killed_replace)
        with pytest.raises(OSError, match="killed"):
            run_seed(cfg, 7, seed_dir=str(run_dir))
        monkeypatch.setattr(os, "replace", real_replace)
        run_seed(cfg, 7, seed_dir=str(run_dir))
        assert _tree(run_dir) == expected, f"kill at replacement {k}"


@pytest.mark.parametrize("variant", ["codag", "da-only", "dg-only"])
def test_state_file_holds_only_what_a_run_cannot_recompute(tmp_path, variant):
    cfg = tiny_config(variant=variant)
    run_seed(cfg, 7, seed_dir=str(tmp_path))
    payload = json.loads((tmp_path / "state.json").read_text())
    assert list(payload) == ["version", "digest", "next_stage", "curves_bytes", "sha256"]
    assert payload["version"] == 4 and payload["next_stage"] == 3
    curves = (tmp_path / "curves.csv").read_bytes()
    assert payload["curves_bytes"] == len(curves)
    # every stage's checkpoints, the adaptation model's at target stages of codag
    names = [f"checkpoints/{role}_stage{t}.ckpt" for t in range(3)
             for role in (["da", "dg"] if t > 0 and variant == "codag" else ["dg"])]
    assert list(payload["sha256"]) == names + ["curves.csv"]
    assert sorted(os.listdir(tmp_path / "checkpoints")) == sorted(map(os.path.basename, names))
    for name in names + ["curves.csv"]:
        blob = (tmp_path / name).read_bytes()
        assert payload["sha256"][name] == hashlib.sha256(blob).hexdigest()


def _edit_state(seed_dir, edit):
    path = seed_dir / "state.json"
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


def _patch_file(path, old: bytes, new: bytes):
    blob = path.read_bytes()
    assert blob.count(old) >= 1
    path.write_bytes(blob.replace(old, new, 1))


def _flip_last_byte(path):
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0x01
    path.write_bytes(bytes(blob))


def _rehashed_checkpoint(seed_dir, edit, role="dg"):
    """Rewrite the last checkpoint of ``role`` with ``edit(blocks)`` and record its new sha256."""
    state_path = seed_dir / "state.json"
    payload = json.loads(state_path.read_text())
    name = f"checkpoints/{role}_stage{payload['next_stage'] - 1}.ckpt"
    save_checkpoint(ClassifierParams(edit(dict(load_checkpoint(seed_dir / name).blocks))),
                    seed_dir / name)
    payload["sha256"][name] = hashlib.sha256((seed_dir / name).read_bytes()).hexdigest()
    state_path.write_text(json.dumps(payload))


def _headerless_curves_rehashed(seed_dir):
    """curves.csv without its header line, with curves_bytes and its sha256 rewritten."""
    curves = (seed_dir / "curves.csv").read_bytes().split(b"\r\n", 1)[1]
    assert curves  # rows are left, so only the missing header can refuse them
    (seed_dir / "curves.csv").write_bytes(curves)
    _edit_state(seed_dir, lambda p: (p.update(curves_bytes=len(curves)), p["sha256"].update(
        {"curves.csv": hashlib.sha256(curves).hexdigest()})))


def _da_only_with_da_checkpoints(seed_dir):
    """The layout da-only runs wrote before they kept one model: a byte-identical
    ``da_stage{t}.ckpt`` beside each target stage's ``dg_stage{t}.ckpt``, hashed."""
    state_path = seed_dir / "state.json"
    payload = json.loads(state_path.read_text())
    for t in (1, 2):
        blob = (seed_dir / "checkpoints" / f"dg_stage{t}.ckpt").read_bytes()
        (seed_dir / "checkpoints" / f"da_stage{t}.ckpt").write_bytes(blob)
        payload["sha256"][f"checkpoints/da_stage{t}.ckpt"] = hashlib.sha256(blob).hexdigest()
    state_path.write_text(json.dumps(payload))


DEEP_JSON = "[" * 100_000  # nested past Python's recursion limit


def _deep_dg_checkpoint_header(seed_dir):
    """The last DG checkpoint's header nested past the recursion limit, its sha256 rewritten."""
    name = "checkpoints/dg_stage2.ckpt"
    header = DEEP_JSON.encode("ascii")
    (seed_dir / name).write_bytes(CHECKPOINT_MAGIC + bytes([CHECKPOINT_VERSION])
                                  + struct.pack("<I", len(header)) + header)
    _edit_state(seed_dir, lambda p: p["sha256"].update(
        {name: hashlib.sha256((seed_dir / name).read_bytes()).hexdigest()}))


def _one_more_hidden_unit(blocks):
    """The same function through a zero unit added to the hidden layer."""
    return {**blocks, "ext0.w": np.pad(blocks["ext0.w"], ((0, 0), (0, 1))),
            "ext0.b": np.pad(blocks["ext0.b"], (0, 1)),
            "ext1.w": np.pad(blocks["ext1.w"], ((0, 1), (0, 0)))}


# Each fault edits the state of a finished 3-stage run on tiny_config, with the
# overrides FAULT_CONFIGS gives it.
STATE_FAULTS = {
    "truncated": lambda d: (d / "state.json").write_text((d / "state.json").read_text()[:300]),
    "not-an-object": lambda d: (d / "state.json").write_text("[1, 2]"),
    "version-1": lambda d: _edit_state(d, lambda p: p.update(version=1)),
    "version-2": lambda d: _edit_state(d, lambda p: p.update(version=2)),
    "version-3": lambda d: _edit_state(d, lambda p: p.update(version=3)),
    "version-as-float": lambda d: _edit_state(d, lambda p: p.update(version=4.0)),
    "extra-seed": lambda d: _edit_state(d, lambda p: p.update(seed=7)),
    "no-curves-bytes": lambda d: _edit_state(d, lambda p: p.pop("curves_bytes")),
    "stage-as-string": lambda d: _edit_state(d, lambda p: p.update(next_stage="2")),
    "stage-as-bool": lambda d: _edit_state(d, lambda p: p.update(next_stage=True)),
    "stage-too-far": lambda d: _edit_state(d, lambda p: p.update(next_stage=4)),
    "stage-behind": lambda d: _edit_state(d, lambda p: p.update(next_stage=2)),
    # Consistent hashes for a run with no stage committed: the stage check alone refuses it.
    "stage-zero": lambda d: _edit_state(d, lambda p: p.update(
        next_stage=0, sha256={"curves.csv": p["sha256"]["curves.csv"]})),
    "repeated-key": lambda d: _patch_file(d / "state.json", b'"next_stage": ',
                                          b'"next_stage": 1, "next_stage": '),
    "nested-too-deep": lambda d: (d / "state.json").write_text(DEEP_JSON),
    "hash-missing": lambda d: _edit_state(
        d, lambda p: p["sha256"].pop("checkpoints/dg_stage0.ckpt")),
    "extra-hash": lambda d: _edit_state(d, lambda p: p["sha256"].update(
        {"checkpoints/da_stage0.ckpt": p["sha256"]["checkpoints/dg_stage0.ckpt"]})),
    # load_checkpoint skips the hash check when given None.
    "hash-as-null": lambda d: _edit_state(
        d, lambda p: p["sha256"].update({"checkpoints/dg_stage0.ckpt": None})),
    "ckpt-missing": lambda d: os.remove(d / "checkpoints" / "dg_stage2.ckpt"),
    "ckpt-payload-byte": lambda d: _flip_last_byte(d / "checkpoints" / "dg_stage2.ckpt"),
    "stage0-ckpt-byte": lambda d: _flip_last_byte(d / "checkpoints" / "dg_stage0.ckpt"),
    "ckpt-block-name": lambda d: _patch_file(d / "checkpoints" / "da_stage2.ckpt",
                                             b'"ext0.w"', b'"ext0/w"'),
    # Checkpoints whose blocks do not fit the model, with state.json's sha256 rewritten.
    "ckpt-block-renamed-rehashed": lambda d: _rehashed_checkpoint(
        d, lambda b: {"ext0/w" if name == "ext0.w" else name: v for name, v in b.items()}),
    "ckpt-blocks-reordered-rehashed": lambda d: _rehashed_checkpoint(
        d, lambda b: {**{name: b[name] for name in HEAD_BLOCKS}, **b}),
    "ckpt-width-rehashed": lambda d: _rehashed_checkpoint(d, _one_more_hidden_unit),
    # Replaying stage 2 pseudo-labels its target through this model's softmax.
    "ckpt-nan-rehashed": lambda d: _rehashed_checkpoint(
        d, lambda b: {**b, "ext0.w": np.full_like(b["ext0.w"], np.nan)}, role="da"),
    "ckpt-header-nested-too-deep-rehashed": _deep_dg_checkpoint_header,
    "no-curves": lambda d: os.remove(d / "curves.csv"),
    "empty-curves": lambda d: (d / "curves.csv").write_text(""),
    "curves-byte": lambda d: _flip_last_byte(d / "curves.csv"),
    "curves-truncated": lambda d: (d / "curves.csv").write_bytes(
        (d / "curves.csv").read_bytes()[:-1]),
    "curves-headerless-rehashed": _headerless_curves_rehashed,
    "da-only-da-checkpoints": _da_only_with_da_checkpoints,
}
# These corrupt curves.csv, so their runs log curves: a fault must reach a row.
CURVE_FAULTS = ("empty-curves", "curves-byte", "curves-truncated", "curves-headerless-rehashed")
FAULT_CONFIGS = {**dict.fromkeys(CURVE_FAULTS, {"log_curves": True}),
                 "da-only-da-checkpoints": {"variant": "da-only"}}


@pytest.mark.parametrize("fault", STATE_FAULTS)
def test_malformed_state_raises_run_state_error(tmp_path, fault):
    cfg = tiny_config(**FAULT_CONFIGS.get(fault, {}))
    seed_dir = tmp_path / "seed7"
    run_seed(cfg, 7, seed_dir=str(seed_dir))
    if fault in CURVE_FAULTS:
        assert len((seed_dir / "curves.csv").read_bytes()) > len(CURVES_HEADER)
    STATE_FAULTS[fault](seed_dir)
    with pytest.raises(RunStateError, match=r"seed7.state\.json: malformed run state") as info:
        run_seed(cfg, 7, seed_dir=str(seed_dir))
    assert str(info.value).count("state.json") == 1


@pytest.fixture(scope="module")
def stopped_run(tmp_path_factory):
    """A curve-logging tiny run stopped before stage 2: its files, and the
    files of the same run left uninterrupted."""
    cfg = tiny_config(log_curves=True)
    root = tmp_path_factory.mktemp("stopped")
    run_seed(cfg, 7, seed_dir=str(root / "full"))
    seq = cfg.sequence.build(split_seed=substream(7, "data"))
    state = new_run_state(7, seq, cfg)
    for t in range(2):
        run_stage(state, t, seq, cfg)
        orchestrate.save_run_state(state, str(root / "part"))
    return cfg, _tree(root / "part"), _tree(root / "full")


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_corrupted_commit_resumes_exactly_or_is_refused(stopped_run, data):
    """One changed byte, or a truncation, of state.json, a checkpoint or
    curves.csv: the resume writes the uninterrupted run's files or raises
    ``RunStateError`` naming state.json."""
    cfg, part, full = stopped_run
    name = data.draw(st.sampled_from(sorted(part)), label="file")
    blob = bytearray(part[name])
    if data.draw(st.booleans(), label="truncate"):
        del blob[data.draw(st.integers(0, len(blob) - 1), label="keep"):]
    else:
        at = data.draw(st.integers(0, len(blob) - 1), label="at")
        blob[at] = data.draw(st.integers(0, 255).filter(lambda b: b != part[name][at]),
                             label="byte")
    with tempfile.TemporaryDirectory() as seed_dir:
        for rel, content in {**part, name: bytes(blob)}.items():
            os.makedirs(os.path.dirname(os.path.join(seed_dir, rel)), exist_ok=True)
            with open(os.path.join(seed_dir, rel), "wb") as fh:
                fh.write(content)
        try:
            run_seed(cfg, 7, seed_dir=seed_dir)
        except RunStateError as exc:
            assert str(exc).startswith(os.path.join(seed_dir, "state.json") + ": ")
        else:
            assert _tree(seed_dir) == full


def test_parallel_jobs_match_sequential(tmp_path):
    cfg_seq = tiny_config(seeds=(7, 8))
    sequential = run_experiment(cfg_seq)
    parallel = run_experiment(tiny_config(seeds=(7, 8)), jobs=2)
    assert sequential["per_seed"] == parallel["per_seed"]


def test_pool_starts_no_more_workers_than_seeds(monkeypatch):
    import concurrent.futures

    sizes = []

    class InlinePool:  # records the pool size and runs each seed in this process
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    run_experiment(tiny_config(seeds=(7, 8)), jobs=8)
    assert sizes == [2]


def test_config_dict_roundtrip_and_digest():
    cfg = tiny_config(dg=DGConfig(epochs=4, batch_size=16, selnlpl=False), buffer_capacity=0,
                      domain_order=[2, 1])
    assert cfg.dg.selnlpl is False and cfg.buffer_capacity == 0  # kept as given
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again.to_dict() == cfg.to_dict()
    assert config_digest(again.to_dict()) == config_digest(cfg.to_dict())
    assert "out_dir" not in cfg.to_dict()


def test_default_config_file_is_the_default_config():
    """configs/default.json writes its angles as ints; read as floats, they are the defaults."""
    path = os.path.join(os.path.dirname(__file__), "..", "configs", "default.json")
    with open(path, encoding="utf-8") as fh:
        from_file = ExperimentConfig.from_dict(json.load(fh)).to_dict()
    assert from_file == ExperimentConfig().to_dict()
    assert config_digest(from_file) == config_digest(ExperimentConfig().to_dict())


TARGET_PERMUTATION = np.array([2, 0, 1])  # of tiny_config's three classes


def _relabelled_targets(build):
    """``SequenceConfig.build`` with every target domain's labels permuted, in its
    test set and in the hidden train view that shares them."""
    def relabelled(self, *args, **kwargs):
        seq = build(self, *args, **kwargs)
        for t in range(1, seq.n_domains):
            test = seq.test_sets[t]
            seq.test_sets[t] = Dataset(test.x, TARGET_PERMUTATION[test.labels], test.k,
                                       test.domain_id)
            seq.train_sets[t] = seq.test_sets[t].without_labels()
        return seq
    return relabelled


@pytest.mark.parametrize("variant", VARIANTS)
def test_target_labels_never_reach_a_checkpoint(tmp_path, monkeypatch, variant):
    """Relabelling every target test set leaves every checkpoint byte as it was;
    only the accuracies, which read the test labels, change."""
    cfg = tiny_config(variant=variant, log_curves=True)
    plain, _ = run_seed(cfg, 7, seed_dir=str(tmp_path / "plain"))
    monkeypatch.setattr(SequenceConfig, "build", _relabelled_targets(SequenceConfig.build))
    relabelled, _ = run_seed(cfg, 7, seed_dir=str(tmp_path / "relabelled"))
    checkpoints = _tree(tmp_path / "plain" / "checkpoints")
    assert checkpoints and _tree(tmp_path / "relabelled" / "checkpoints") == checkpoints
    np.testing.assert_array_equal(relabelled.dg_matrix[:, 0], plain.dg_matrix[:, 0])
    assert not np.array_equal(relabelled.dg_matrix[:, 1:], plain.dg_matrix[:, 1:])


def test_experiment_config_validation():
    for removed in ("nope", "codag-no-buffer", "codag-no-selnlpl"):
        with pytest.raises(ValueError, match="unknown variant"):
            ExperimentConfig(variant=removed)
    with pytest.raises(ValueError, match="nonempty"):
        ExperimentConfig(seeds=())
    with pytest.raises(ValueError, match="distinct"):
        ExperimentConfig(seeds=(7, 7))
    with pytest.raises(ValueError, match="nonnegative"):
        ExperimentConfig(seeds=(7, -1))
    with pytest.raises(ValueError, match="buffer_capacity"):
        ExperimentConfig(buffer_capacity=-1)
    with pytest.raises(ValueError, match="domain_order"):
        ExperimentConfig(domain_order=[9])
    for model in ({"hidden": [0]}, {"feat_dim": 0}):  # model.hidden=[0], model.feat_dim=0
        with pytest.raises(ValueError, match="model: all layer widths must be positive"):
            ExperimentConfig.from_dict({"model": model})


def test_matrices_match_checkpoint_reevaluation(tmp_path):
    from codag import accuracy
    from codag.nnmodel import load_checkpoint

    cfg = tiny_config(
        sequence=SequenceConfig(n_per_domain=60, k=3, d=4, angles_deg=(0.0, 90.0), seed=3))
    results = run_experiment(cfg, str(tmp_path / "run"))
    seq = cfg.sequence.build(split_seed=substream(7, "data"))
    seed_dir = tmp_path / "run" / "seed7"
    dg_mat = np.array(results["per_seed"]["7"]["dg_matrix"])
    da_mat = np.array(results["per_seed"]["7"]["da_matrix"])

    for t in range(2):
        dg = load_checkpoint(seed_dir / "checkpoints" / f"dg_stage{t}.ckpt")
        row = [accuracy(dg, ts) for ts in seq.test_sets]
        np.testing.assert_allclose(dg_mat[t], row, atol=1e-12)
    da1 = load_checkpoint(seed_dir / "checkpoints" / "da_stage1.ckpt")
    assert da_mat[1][1] == pytest.approx(accuracy(da1, seq.test_sets[1]), abs=1e-12)

    values = sequence_metrics(da_mat, dg_mat)["tda_per_domain"]
    assert values == pytest.approx([dg_mat[0, 0], da_mat[1, 1]])


def _curve_records(curves) -> list[tuple[int, int, int, float]]:
    """``curves.csv``'s rows below its header, as (stage, epoch, domain, accuracy)."""
    rows = list(csv.reader(io.StringIO(bytes(curves).decode("ascii"), newline="")))
    assert rows[0] == ["stage", "epoch", "domain", "accuracy"]
    return [(int(s), int(e), int(d), float(a)) for s, e, d, a in rows[1:]]


def test_full_run_emits_one_record_per_stage_epoch_domain(default_cli_run):
    records = _curve_records((default_cli_run.out / "seed2022" / "curves.csv").read_bytes())
    assert len(records) == 5 * 60 * 5
    keys = [(s, e, d) for s, e, d, _ in records]
    assert keys == sorted(set(keys))


def test_seen_domain_curves_stay_stable_after_shifts(default_cli_run):
    """With the buffer on, no previously-seen domain crashes between epochs."""
    records = _curve_records((default_cli_run.out / "seed2022" / "curves.csv").read_bytes())
    worst = 0.0
    for domain in range(5):
        past = [(s, e, a) for s, e, d, a in records if d == domain and s > domain]
        for (_, _, a1), (_, _, a2) in zip(past, past[1:]):
            worst = max(worst, a1 - a2)
    assert worst < 0.3
