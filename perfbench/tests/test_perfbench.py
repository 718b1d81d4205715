"""Self-tests of the benchmark: the digest gate, span arithmetic, workload tables."""

import json
import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A real two-domain codag run that scores above the All floor in well under a second."""
    from codag.orchestrate import ExperimentConfig, run_experiment
    from codag.rng import substream

    out = tmp_path_factory.mktemp("tiny")
    config = ExperimentConfig.from_dict({
        "sequence": {"n_per_domain": 100, "angles_deg": [0, 15]},
        "seeds": [5], "model": {"hidden": [32], "feat_dim": 8},
        "adapt": {"epochs": 30, "lr": 0.05}, "dg": {"epochs": 30, "lr": 0.05},
        "buffer_capacity": 10,
        "log_curves": False,
    })
    config.out_dir = str(out)
    results = run_experiment(config)
    seq = config.sequence.build(split_seed=substream(5, "data"))
    test_sets = [(t.x, t.labels) for t in seq.test_sets]
    return results["per_seed"]["5"], str(out / "seed5"), test_sets


def _copy_run(tmp_path, tiny_run):
    entry, seed_dir, _ = tiny_run
    copy = tmp_path / "seed5"
    (copy / "checkpoints").mkdir(parents=True)
    for name in os.listdir(os.path.join(seed_dir, "checkpoints")):
        with open(os.path.join(seed_dir, "checkpoints", name), "rb") as fh:
            (copy / "checkpoints" / name).write_bytes(fh.read())
    return json.loads(json.dumps(entry)), str(copy)


def test_untouched_run_passes_checks_and_gate(tmp_path, tiny_run):
    entry, seed_dir, test_sets = tiny_run
    assert checks.check_seed_run(entry, seed_dir, test_sets, "codag") == []
    digest = checks.seed_run_digest(entry, seed_dir)
    copy_entry, copy_dir = _copy_run(tmp_path, tiny_run)
    assert checks.seed_run_digest(copy_entry, copy_dir) == digest
    assert checks.digest_mismatches("codag/5", digest, {"golden": {"codag/5": digest}}) == []


def test_gate_fails_on_one_changed_matrix_entry(tmp_path, tiny_run):
    entry, seed_dir, _ = tiny_run
    golden = {"golden": {"codag/5": checks.seed_run_digest(entry, seed_dir)}}
    copy_entry, copy_dir = _copy_run(tmp_path, tiny_run)
    copy_entry["dg_matrix"][0][1] = float(np.nextafter(copy_entry["dg_matrix"][0][1], 2.0))
    digest = checks.seed_run_digest(copy_entry, copy_dir)
    assert checks.digest_mismatches("codag/5", digest, golden)


def test_gate_fails_on_one_flipped_checkpoint_byte(tmp_path, tiny_run):
    entry, seed_dir, _ = tiny_run
    golden = {"golden": {"codag/5": checks.seed_run_digest(entry, seed_dir)}}
    copy_entry, copy_dir = _copy_run(tmp_path, tiny_run)
    path = os.path.join(copy_dir, "checkpoints", "dg_stage1.ckpt")
    blob = bytearray(open(path, "rb").read())
    blob[-1] ^= 0x01
    with open(path, "wb") as fh:
        fh.write(blob)
    digest = checks.seed_run_digest(copy_entry, copy_dir)
    assert checks.digest_mismatches("codag/5", digest, golden)


def test_independent_reader_matches_program_loader(tiny_run):
    from codag.nnmodel import load_checkpoint

    _, seed_dir, _ = tiny_run
    path = os.path.join(seed_dir, "checkpoints", "dg_stage1.ckpt")
    ours = checks.read_checkpoint(path)
    theirs = load_checkpoint(path).blocks
    assert list(ours) == list(theirs)
    assert all(np.array_equal(ours[k], theirs[k]) for k in ours)


def test_recomputation_flags_a_final_row_the_checkpoint_disagrees_with(tmp_path, tiny_run):
    _, _, test_sets = tiny_run
    copy_entry, copy_dir = _copy_run(tmp_path, tiny_run)
    row = copy_entry["dg_matrix"][-1]
    row[0] = 1.0 - row[0] if row[0] != 0.5 else 0.25
    problems = checks.check_seed_run(copy_entry, copy_dir, test_sets, "codag")
    assert any("final row" in p for p in problems)


def _span(sid, parent, name, start, end, **counts):
    span = {"id": sid, "parent": parent, "name": name, "start": start, "end": end}
    if counts:
        span["counts"] = counts
    return span


def test_self_times_subtract_the_union_of_children():
    nested = [
        _span("r", None, "root", 0.0, 10.0),
        _span("a", "r", "a", 1.0, 4.0),
        _span("a1", "a", "a1", 2.0, 3.0),
        _span("b", "r", "b", 5.0, 9.0),
        _span("b1", "b", "b1", 5.0, 7.0),
        _span("b2", "b", "b2", 6.0, 8.0),  # overlaps b1: [5, 8] is covered once
        _span("c", "r", "c", 9.5, 11.0),  # runs past its parent: only [9.5, 10] counts
    ]
    assert spans.self_times(nested) == pytest.approx(
        {"r": 10.0 - 3.0 - 4.0 - 0.5, "a": 2.0, "a1": 1.0, "b": 1.0, "b1": 2.0, "b2": 2.0,
         "c": 1.5})


def test_self_times_under_a_root_sum_to_its_span():
    sequential = [
        _span("s", None, "orchestrate.run_seed", 0.0, 8.0),
        _span("t0", "s", "orchestrate.run_stage", 0.5, 4.0),
        _span("g", "t0", "nnmodel.gradient", 1.0, 1.25),
        _span("g2", "t0", "nnmodel.gradient", 2.0, 2.5),
        _span("t1", "s", "orchestrate.run_stage", 4.0, 7.75),
        _span("acc", "t1", "evaluate.accuracy", 5.0, 6.0),
        _span("f", "acc", "nnmodel.forward", 5.25, 5.75),
    ]
    assert spans.subtree_self_gap(sequential, "orchestrate.run_seed") == pytest.approx(0.0)
    metrics = spans.layer_metrics(sequential)
    assert metrics["nnmodel.gradient.calls"] == 2
    assert metrics["nnmodel.gradient.us_per_call"] == pytest.approx(375000.0)
    assert metrics["orchestrate.run_stage.self_s"] == pytest.approx(3.5 - 0.75 + 3.75 - 1.0)
    assert metrics["orchestrate.run_seed.s"] == pytest.approx(8.0)


def test_pool_idle_is_jobs_times_pooled_wall_minus_seed_spans():
    pooled = [
        _span("m", None, "orchestrate.run_experiment", 0.0, 10.0, jobs=2),
        _span("w1", None, "orchestrate.run_seed", 1.0, 9.0),
        _span("w2", None, "orchestrate.run_seed", 1.5, 7.5),
    ]
    assert spans.layer_metrics(pooled)["orchestrate.pool_idle_s"] == pytest.approx(20.0 - 14.0)


class _Params:
    def __init__(self, widths):
        self.blocks = {}
        for i, (fan_in, fan_out) in enumerate(zip(widths[:-2], widths[1:-1])):
            self.blocks[f"ext{i}.w"] = np.zeros((fan_in, fan_out))
            self.blocks[f"ext{i}.b"] = np.zeros(fan_out)
        self.blocks["head.w"] = np.zeros((widths[-2], widths[-1]))
        self.blocks["head.b"] = np.zeros(widths[-1])


def test_computed_kernel_work_of_the_default_model():
    params = _Params([16, 64, 64, 32, 5])  # d, hidden, hidden, feat_dim, k
    products = 16 * 64 + 64 * 64 + 64 * 32 + 32 * 5
    forward_flops, _ = spans.forward_work(params, 64)
    assert forward_flops == 2 * 64 * products
    grad_flops, grad_bytes = spans.gradient_work(params, 64, freeze_head=False)
    input_grads = products - 16 * 64
    assert grad_flops == 2 * 64 * (2 * products + input_grads)
    frozen_flops, frozen_bytes = spans.gradient_work(params, 64, freeze_head=True)
    assert grad_flops - frozen_flops == 2 * 64 * 32 * 5
    assert grad_bytes - frozen_bytes == 8 * (32 * 64 + 64 * 5 + 32 * 5)


def test_golden_table_covers_every_default_seed_run():
    with open(os.path.join(BENCH, "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    for name in run.WORKLOADS:
        wl = run.make_workload(name, run.DEFAULT_SEED, "work")
        for r in wl.runs:
            for seed in r.seeds:
                assert f"{r.variant}/{seed}" in golden[wl.family], (name, r.variant, seed)


def test_layer_metrics_match_the_benchmark_file():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    assert declared == spans.LAYER_METRICS
    assert {m["name"] for m in bench["end_to_end"]} == set(run.END_TO_END)
    assert set(spans.layer_metrics([])) | {"trace.overhead_frac"} == set(spans.LAYER_METRICS)
