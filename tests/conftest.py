"""Shared fixtures: full-fidelity runs are expensive, so they are session-scoped
and their independent runs go through a process pool."""

import functools
import json
import multiprocessing
import os
import pathlib
import time
from concurrent.futures import ProcessPoolExecutor
from typing import NamedTuple

import pytest

# codag first: importing it pins BLAS to one thread, which holds only if numpy
# has not loaded its BLAS yet.
import codag  # noqa: F401
import numpy as np
from codag import (
    AugmentConfig,
    Dataset,
    DGConfig,
    EpochConfig,
    ModelConfig,
    ReplayBuffer,
    SequenceConfig,
    accuracy,
    adapt_domain,
    generate_pseudo_labels,
    init_params,
    train_dg_source,
    train_dg_target,
)
from codag.cli import apply_override, main
from codag.orchestrate import ExperimentConfig, run_seed
from codag.rng import RngStreams, substream

SEEDS5 = (2022, 2023, 2024, 2025, 2026)
DEFAULT_CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs", "default.json")


def default_sequence(seed: int = 7, split_seed=2022):
    """The default desk-scale benchmark: five domains, rotations 0..120 degrees."""
    return SequenceConfig(seed=seed).build(split_seed)


def teacher_q(q):
    """``_mixed_logit_loss``'s teacher input for probabilities ``q`` (or None)."""
    return None if q is None else (q, np.log(np.where(q > 0, q, 1.0)))


def with_label_noise(data, rate: float, rng: np.random.Generator):
    """Copy with each label flipped to a random other class w.p. ``rate``."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError("rate must lie in [0, 1]")
    labels = data.labels.copy()
    flip = rng.random(len(data)) < rate
    if flip.any():
        labels[flip] = (labels[flip] + rng.integers(1, data.k, size=int(flip.sum()))) % data.k
    return Dataset(data.x, labels, data.k, data.domain_id, pseudo=data.pseudo)


def spec_name(spec: tuple[str, ...]) -> str:
    """A run spec, a variant followed by ``--override`` assignments, as one
    name: ``codag+buffer_capacity=0``."""
    return "+".join(spec)


def run_variant(variant: str, seed: int, overrides=()):
    """One seed of the default config, curves off, with ``variant`` and the given overrides."""
    raw = {"seeds": [seed], "variant": variant, "log_curves": False}
    for assignment in overrides:
        apply_override(raw, assignment)
    return run_seed(ExperimentConfig.from_dict(raw), seed)


@functools.cache
def source_model(seed: int):
    """The default sequence for ``seed`` and its source-trained DG model, trained once per
    seed; callers only read the two (training copies its input model)."""
    seq = default_sequence(split_seed=substream(seed, "data"))
    params = train_dg_source(
        init_params(ModelConfig(), seq.d, seq.k, substream(seed, "init")),
        seq.train_sets[0], DGConfig(), AugmentConfig(), RngStreams.for_stage(seed, 0),
    )
    return seq, params


def selnlpl_chain(seed: int, selnlpl: bool, noise_rate: float = 0.20) -> float:
    """Mean test accuracy after a full chain with noise injected into every
    stage's pseudo-labels (buffer removed, matching how the schedule's
    contribution is isolated)."""
    seq = default_sequence(split_seed=substream(seed, "data"))
    aug = AugmentConfig()
    dgcfg = DGConfig(selnlpl=selnlpl)
    dg = train_dg_source(
        init_params(ModelConfig(), seq.d, seq.k, substream(seed, "init")),
        seq.train_sets[0], dgcfg, aug, RngStreams.for_stage(seed, 0),
    )
    buf = ReplayBuffer(0, seq.k)
    for t in range(1, seq.n_domains):
        da = adapt_domain(dg, seq.train_sets[t], EpochConfig(), substream(seed, "shuffle", t))
        pl = generate_pseudo_labels(da, seq.train_sets[t])
        pl = with_label_noise(pl, noise_rate, substream(seed, "nl", 90 + t))
        dg = train_dg_target(dg, pl, buf, dgcfg, aug, RngStreams.for_stage(seed, t))
    return float(np.mean([accuracy(dg, ts) for ts in seq.test_sets]))


def run_in_pool(fn, arg_tuples) -> list:
    """``fn(*args)`` for every tuple, in order, on min(cpu count, runs) workers.

    Spawned workers import this module afresh, so codag pins BLAS before numpy loads.
    """
    workers = min(os.cpu_count() or 1, len(arg_tuples))
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        futures = [pool.submit(fn, *args) for args in arg_tuples]
        return [future.result() for future in futures]


@pytest.fixture(scope="session")
def variant_runs():
    """(RunState, metrics dict) by run spec name and seed, for the directional checks."""
    specs = [("codag",), ("codag-da-init",), ("codag", "buffer_capacity=0"), ("dg-only",)]
    runs = [(spec[0], seed, spec[1:]) for spec in specs for seed in SEEDS5]
    out = {}
    for (variant, seed, overrides), result in zip(runs, run_in_pool(run_variant, runs)):
        out.setdefault(spec_name((variant, *overrides)), {})[seed] = result
    return out


class CliRun(NamedTuple):
    """One finished ``codag run``: its exit code, wall time and output directory."""

    code: int
    elapsed_s: float
    out: pathlib.Path

    def results(self) -> dict:
        return json.loads((self.out / "results.json").read_text())


@pytest.fixture(scope="session")
def default_cli_run(tmp_path_factory):
    """``codag run`` on ``configs/default.json``: seeds 2022-2024, curves on, and two
    workers, since the seeds are independent."""
    out = tmp_path_factory.mktemp("default-run") / "run"
    start = time.perf_counter()
    code = main(["run", "--config", DEFAULT_CONFIG, "--out", str(out), "--jobs", "2"])
    return CliRun(code, time.perf_counter() - start, out)


@pytest.fixture(scope="session")
def selnlpl_noise_diffs():
    """SelNLPL-on minus SelNLPL-off accuracy of the noisy chain, per seed."""
    chains = [(seed, selnlpl) for seed in SEEDS5 for selnlpl in (True, False)]
    acc = dict(zip(chains, run_in_pool(selnlpl_chain, chains)))
    return {seed: acc[seed, True] - acc[seed, False] for seed in SEEDS5}
