"""The continual loop over a domain sequence, plus baselines and ablations.

Stage 0 trains the generalization model on the labeled source. Every later
stage adapts a copy of the previous generalization model to the new target,
exports pseudo-labels, continues the generalization model on them plus the
replay buffer, then refreshes the buffer. Baselines rewire single steps of
that loop (``RECIPES``); ablations are config values such as ``dg.alpha=0``.
"""

import hashlib
import json
import os
import sys
import typing
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from .adapt import adapt_domain, generate_pseudo_labels
from .augment import AugmentConfig
from .data import Dataset, DomainSequence, SequenceConfig, check_domain_order
from .evaluate import CURVES_HEADER, METRICS, accuracy, curve_rows, sequence_metrics, summarize
from .generalize import DGConfig, train_dg_source, train_dg_target
from .nnmodel import (
    CheckpointError,
    ClassifierParams,
    EpochConfig,
    ModelConfig,
    atomic_write,
    init_params,
    load_checkpoint,
    read_json,
    save_checkpoint,
)
from .replay import ReplayBuffer, update_buffer
from .rng import RngStreams, substream


@dataclass(frozen=True)
class Recipe:
    """How one variant wires the stage loop.

    ``da_from`` is where each stage's adaptation model starts: ``"dg"`` from
    the previous generalization model, ``"da"`` from the previous adaptation
    model (the generalization model until one exists), ``None`` for no
    adaptation model. Pseudo-labels come from the adaptation model when there
    is one, else from the generalization model. Without ``dg_trains`` the
    adaptation model stands in for the generalization model and the source
    stage trains without augmentation and no replay buffer is kept.
    """

    da_from: str | None
    dg_trains: bool


RECIPES = {
    "codag": Recipe(da_from="dg", dg_trains=True),
    "da-only": Recipe(da_from="dg", dg_trains=False),
    "dg-only": Recipe(da_from=None, dg_trains=True),
    "codag-da-init": Recipe(da_from="da", dg_trains=True),
}

VARIANTS = tuple(RECIPES)

STATE_VERSION = 4


class StageOrderError(RuntimeError):
    """Stages must run in sequence order, each exactly once."""


class RunStateError(RuntimeError):
    """A seed directory's state file is malformed or belongs to another run."""


@dataclass
class ExperimentConfig:
    """One experiment, exactly as given: construction only validates."""

    sequence: SequenceConfig = field(default_factory=SequenceConfig)
    domain_order: tuple[int, ...] | None = None  # visit order of targets; None = natural
    seeds: tuple[int, ...] = (2022, 2023, 2024)
    variant: str = VARIANTS[0]  # the full method
    model: ModelConfig = field(default_factory=ModelConfig)
    adapt: EpochConfig = field(default_factory=EpochConfig)
    dg: DGConfig = field(default_factory=DGConfig)
    aug: AugmentConfig = field(default_factory=AugmentConfig)
    buffer_capacity: int = 200
    log_curves: bool = True

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if not self.seeds or len(set(self.seeds)) != len(self.seeds) or min(self.seeds) < 0:
            raise ValueError(f"seeds must be nonempty, distinct and nonnegative, "
                             f"got {list(self.seeds)}")
        if self.buffer_capacity < 0:
            raise ValueError("buffer_capacity must be nonnegative")
        if self.domain_order is not None:
            check_domain_order(self.domain_order, self.sequence.n_domains)

    def to_dict(self) -> dict:
        return config_to_dict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        return config_from_dict(cls, raw)


def config_to_dict(obj) -> dict:
    """A dataclass as JSON data: nested dataclasses become dicts, tuples lists.
    A float field's numbers are written as floats, however they were given, so
    ``DGConfig(alpha=0)`` writes what ``from_dict`` reads from ``"alpha": 0``."""
    out = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            value = config_to_dict(value)
        elif f.type is float:
            value = float(value)
        elif f.type == tuple[float, ...]:
            value = [float(v) for v in value]
        elif isinstance(value, tuple):
            value = list(value)
        out[f.name] = value
    return out


def _read_value(tp, value, where: str):
    if is_dataclass(tp):
        return config_from_dict(tp, value, where)
    args = typing.get_args(tp)
    if type(None) in args:  # ``X | None``
        return None if value is None else _read_value(args[0], value, where)
    if typing.get_origin(tp) is tuple:
        if not isinstance(value, list):
            raise ValueError(f"{where} must be a list, got {value!r}")
        return tuple(_read_value(args[0], v, f"{where}[{i}]") for i, v in enumerate(value))
    if isinstance(value, bool) != (tp is bool) or not isinstance(
            value, (int, float) if tp is float else tp):
        raise ValueError(f"{where} must be {tp.__name__}, got {value!r}")
    if tp is float and not abs(value) <= sys.float_info.max:  # NaN, infinities, huge ints
        raise ValueError(f"{where} must be finite, got {value!r}")
    return float(value) if tp is float else value  # one form per number: 0 reads as 0.0


def config_from_dict(cls, raw, where: str = ""):
    """Inverse of ``config_to_dict``: build ``cls`` from JSON data, sections
    recursively, lists as tuples. Any unknown key or mistyped value raises
    ``ValueError`` naming its dotted key."""
    if not isinstance(raw, dict):
        raise ValueError(f"{where or 'config'} must be an object, got {raw!r}")
    known = {f.name: f.type for f in fields(cls)}
    kwargs = {}
    for key, value in raw.items():
        path = f"{where}.{key}" if where else key
        if key not in known:
            raise ValueError(f"unknown key {path!r}")
        kwargs[key] = _read_value(known[key], value, path)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}" if where else str(exc)) from None


def config_digest(config: dict) -> str:
    """A run's identity: sha256 of a config's dict form without ``seeds``, as JSON
    with sorted keys and no whitespace, so runs that differ only in seeds are one."""
    return _sha256(json.dumps({key: v for key, v in config.items() if key != "seeds"},
                              sort_keys=True, separators=(",", ":"), allow_nan=False).encode())


def run_digest(config: ExperimentConfig, seed: int, seq: DomainSequence) -> str:
    """sha256 over the config digest, the seed and every domain's training features.

    The features cover CSV data, which the config names only by path.
    """
    h = hashlib.sha256(f"{config_digest(config.to_dict())}:{seed}:".encode("ascii"))
    for train in seq.train_sets:
        h.update(train.x.tobytes())
    return h.hexdigest()


@dataclass
class RunState:
    seed: int
    digest: str  # run_digest of the config, seed and data this state belongs to
    next_stage: int
    buffer: ReplayBuffer
    da_matrix: np.ndarray  # (n, n) accuracies; stage t writes row t
    dg_matrix: np.ndarray
    curves: bytearray  # curves.csv as written so far, header first
    models: dict[str, ClassifierParams] = field(default_factory=dict)  # last stage's, by role
    sha256: dict[str, str] = field(default_factory=dict)  # committed checkpoints, by path


def new_run_state(seed: int, seq: DomainSequence, config: ExperimentConfig) -> RunState:
    n = seq.n_domains
    return RunState(
        seed=seed,
        digest=run_digest(config, seed, seq),
        next_stage=0,
        buffer=ReplayBuffer(config.buffer_capacity, seq.k),
        da_matrix=np.full((n, n), np.nan),
        dg_matrix=np.full((n, n), np.nan),
        curves=bytearray(CURVES_HEADER),
    )


def _eval_row(params: ClassifierParams, seq: DomainSequence) -> list[float]:
    return [accuracy(params, test) for test in seq.test_sets]


def _labeled(state: RunState, t: int, seq: DomainSequence, config: ExperimentConfig,
             da: ClassifierParams | None) -> Dataset | None:
    """Stage t's training and herding set: the source's labels, else pseudo-labels
    of the adaptation model (or of the previous generalization model)."""
    train = seq.train_sets[t]
    if t == 0:
        return train
    if not RECIPES[config.variant].dg_trains:
        return None
    return generate_pseudo_labels(state.models["dg"] if da is None else da, train)


def _finish_stage(state: RunState, t: int, seq: DomainSequence, config: ExperimentConfig,
                  labeled: Dataset | None, models: dict[str, ClassifierParams | None]) -> None:
    """Stage t's tail, which resuming replays from the stage's checkpoints: keep
    the models of ``_roles``, refresh the buffer, record one row of each
    accuracy matrix, advance."""
    state.models = {role: models[role] for role in _roles(config, t)}
    if RECIPES[config.variant].dg_trains and config.buffer_capacity > 0:
        state.buffer = update_buffer(state.buffer, labeled, state.models["dg"])
    rows = {role: _eval_row(params, seq) for role, params in state.models.items()}
    state.dg_matrix[t] = rows["dg"]
    # Without a separate adaptation model, the generalization model fills both matrices.
    state.da_matrix[t] = rows.get("da", rows["dg"])
    state.next_stage = t + 1


def run_stage(state: RunState, t: int, seq: DomainSequence,
              config: ExperimentConfig) -> RunState:
    """Execute stage t in place; records one row of each accuracy matrix.

    Steps: adapt (target stages with an adaptation model), label, train the
    generalization model, then ``_finish_stage``: refresh the buffer, evaluate.
    """
    if t != state.next_stage:
        raise StageOrderError(f"expected stage {state.next_stage}, got {t}")
    if t >= seq.n_domains:
        raise StageOrderError(f"stage {t} beyond the sequence horizon")
    recipe = RECIPES[config.variant]
    streams = RngStreams.for_stage(state.seed, t)
    train = seq.train_sets[t]

    on_epoch = None
    if config.log_curves:
        def on_epoch(epoch, params, mean_loss, phase):
            state.curves += curve_rows(t, epoch, _eval_row(params, seq))

    da = None
    if t > 0 and recipe.da_from is not None:
        da_init = state.models.get(recipe.da_from, state.models["dg"])
        da = adapt_domain(da_init, train, config.adapt, streams.shuffle)

    labeled = _labeled(state, t, seq, config, da)
    if t == 0:
        params0 = init_params(config.model, seq.d, seq.k, substream(state.seed, "init"))
        aug = config.aug if recipe.dg_trains else None
        dg = train_dg_source(params0, labeled, config.dg, aug, streams, on_epoch)
    elif recipe.dg_trains:
        dg = train_dg_target(state.models["dg"], labeled, state.buffer, config.dg, config.aug,
                             streams, on_epoch)
    else:
        dg = da  # the adaptation model stands in for the generalization model

    _finish_stage(state, t, seq, config, labeled, {"da": da, "dg": dg})
    return state


def _ckpt_name(role: str, stage: int) -> str:
    return f"checkpoints/{role}_stage{stage}.ckpt"


def _roles(config: ExperimentConfig, stage: int) -> list[str]:
    """The models stage ``stage`` keeps and commits: the generalization model,
    and at target stages the adaptation model of variants that train both."""
    recipe = RECIPES[config.variant]
    return ["da", "dg"] if stage > 0 and recipe.da_from and recipe.dg_trains else ["dg"]


def _sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def save_run_state(state: RunState, seed_dir) -> None:
    """Commit a stage: its checkpoints, curves.csv, then state.json, each atomically.

    state.json holds only what the run cannot recompute from its config, seed,
    data and checkpoints: the stage to run next, the length of curves.csv, and
    the sha256 of every committed checkpoint and of curves.csv.
    """
    os.makedirs(os.path.join(seed_dir, "checkpoints"), exist_ok=True)
    for role, params in state.models.items():
        name = _ckpt_name(role, state.next_stage - 1)
        state.sha256[name] = save_checkpoint(params, os.path.join(seed_dir, name))
    atomic_write(os.path.join(seed_dir, "curves.csv"), state.curves)
    payload = {
        "version": STATE_VERSION,
        "digest": state.digest,
        "next_stage": state.next_stage,
        "curves_bytes": len(state.curves),
        "sha256": {**state.sha256, "curves.csv": _sha256(state.curves)},
    }
    atomic_write(os.path.join(seed_dir, "state.json"), json.dumps(payload).encode("utf-8"))


_STATE_FIELDS = {"version": int, "digest": str, "next_stage": int, "curves_bytes": int,
                 "sha256": dict}


def _layout(params: ClassifierParams) -> str:
    """Block names, order and shapes, as one line."""
    return ", ".join(f"{name}{list(block.shape)}" for name, block in params.blocks.items())


def restore_run_state(state: RunState, seed_dir, seq: DomainSequence,
                      config: ExperimentConfig) -> None:
    """Advance the fresh ``state`` to the last stage committed under ``seed_dir``.

    The first ``curves_bytes`` bytes of curves.csv and each stage's checkpoints
    must match their sha256, the curves must start with their header, and the
    checkpoints' block names, order and shapes must be those of ``config.model``.
    The curves are kept byte for byte; each stage's tail is replayed from the
    checkpoints.
    Raises ``RunStateError``, naming the state file, for anything malformed,
    and naming both digests when the state belongs to another config or data.
    """
    path = os.path.join(seed_dir, "state.json")
    try:
        payload = read_json(path)
        version = payload.get("version") if isinstance(payload, dict) else None
        if version != STATE_VERSION:
            raise ValueError(f"unsupported run-state version {version!r}, "
                             f"expected {STATE_VERSION}")
        if payload.keys() != _STATE_FIELDS.keys():
            raise ValueError(f"missing keys {sorted(_STATE_FIELDS.keys() - payload.keys())}, "
                             f"unknown keys {sorted(payload.keys() - _STATE_FIELDS.keys())}")
        for key, kind in _STATE_FIELDS.items():
            if type(payload[key]) is not kind:
                raise ValueError(f"key {key!r} must be of type {kind.__name__}")
        if payload["digest"] != state.digest:
            raise RunStateError(
                f"{path}: state digest {payload['digest']} does not match this run's "
                f"{state.digest}; the config or the data changed since it was written")
        n, next_stage, sha256 = seq.n_domains, payload["next_stage"], payload["sha256"]
        if not 0 < next_stage <= n:
            raise ValueError(f"next_stage {next_stage} does not fit a {n}-domain sequence")
        names = [_ckpt_name(role, t) for t in range(next_stage) for role in _roles(config, t)]
        # A null hash would make load_checkpoint skip its check.
        if sha256.keys() != {*names, "curves.csv"} or None in sha256.values():
            raise ValueError(f"sha256 must hash curves.csv and the checkpoints {names}")
        curves_path = os.path.join(seed_dir, "curves.csv")
        with open(curves_path, "rb") as fh:
            curves = fh.read(max(payload["curves_bytes"], 0))
        if len(curves) != payload["curves_bytes"] or _sha256(curves) != sha256["curves.csv"]:
            raise ValueError(f"{curves_path}: the first {payload['curves_bytes']} bytes differ "
                             "from the ones committed")
        if not curves.startswith(CURVES_HEADER):
            raise ValueError(f"{curves_path}: missing the curves header")
        state.curves = bytearray(curves)
        layout = _layout(init_params(config.model, seq.d, seq.k, 0))
        for t in range(next_stage):
            models = {}
            for role in _roles(config, t):
                ckpt = os.path.join(seed_dir, _ckpt_name(role, t))
                models[role] = load_checkpoint(ckpt, sha256[_ckpt_name(role, t)])
                if _layout(models[role]) != layout:
                    raise ValueError(f"{ckpt}: blocks {_layout(models[role])} do not match "
                                     f"the model's {layout}")
            labeled = _labeled(state, t, seq, config, models.get("da"))
            _finish_stage(state, t, seq, config, labeled, models)
        state.sha256 = {name: sha256[name] for name in names}
    except (OSError, ValueError, TypeError, FloatingPointError, CheckpointError) as exc:
        detail = str(exc).removeprefix(f"{path}: ")  # read_json's errors name the file too
        raise RunStateError(f"{path}: malformed run state: {detail}") from None


def run_seed(config: ExperimentConfig, seed: int, seed_dir=None) -> tuple[RunState, dict]:
    """All stages for one seed, continuing from the state committed under ``seed_dir``."""
    seq = config.sequence.build(split_seed=substream(seed, "data"))
    if config.domain_order:
        seq = seq.reordered(list(config.domain_order))
    state = new_run_state(seed, seq, config)
    if seed_dir is not None and os.path.exists(os.path.join(seed_dir, "state.json")):
        restore_run_state(state, seed_dir, seq, config)
    for t in range(state.next_stage, seq.n_domains):
        try:
            run_stage(state, t, seq, config)
        except FloatingPointError as exc:
            raise RuntimeError(f"seed {seed}, stage {t}: training diverged: {exc}") from exc
        if seed_dir is not None:
            save_run_state(state, seed_dir)
    return state, sequence_metrics(state.da_matrix, state.dg_matrix)


def _seed_worker(config: ExperimentConfig, seed: int, seed_dir) -> dict:
    state, metrics = run_seed(config, seed, seed_dir=seed_dir)
    return {
        "da_matrix": state.da_matrix.tolist(),
        "dg_matrix": state.dg_matrix.tolist(),
        "metrics": metrics,
    }


def _aggregate(per_seed: dict) -> dict:
    out = {}
    for name, key in METRICS:
        values = [entry["metrics"][key] for entry in per_seed.values()]
        out[name] = None if None in values else summarize(values)
    return out


def run_experiment(config: ExperimentConfig, out_dir=None, jobs: int = 1) -> dict:
    """Run every seed, write artifacts under ``out_dir`` when given; a seed whose
    directory holds a ``state.json`` continues from it (``run_seed``).

    Returns the results document: per-seed accuracy matrices and metrics plus
    mean/std aggregates across seeds. An ``out_dir`` attribute set on
    ``config`` stands in for a missing ``out_dir`` (perfbench's self-tests).
    """
    out_dir = getattr(config, "out_dir", None) if out_dir is None else out_dir
    per_seed: dict[str, dict] = {}
    seed_dirs = {}
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        for seed in config.seeds:  # save_run_state makes each one at the seed's first commit
            seed_dirs[seed] = os.path.join(out_dir, f"seed{seed}")

    if jobs > 1 and len(config.seeds) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(config.seeds))) as pool:
            futures = {
                seed: pool.submit(_seed_worker, config, seed, seed_dirs.get(seed))
                for seed in config.seeds
            }
            for seed, fut in futures.items():
                per_seed[str(seed)] = fut.result()
    else:
        for seed in config.seeds:
            per_seed[str(seed)] = _seed_worker(config, seed, seed_dirs.get(seed))

    as_dict = config.to_dict()
    results = {
        "config_digest": config_digest(as_dict),
        "config": as_dict,
        "per_seed": per_seed,
        "aggregate": _aggregate(per_seed),
    }
    if out_dir is not None:
        atomic_write(os.path.join(out_dir, "results.json"),
                     json.dumps(results, indent=2).encode("utf-8"))
    return results
