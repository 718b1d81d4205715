"""Deterministic named random substreams.

Every source of randomness in a run is a substream derived from the master
seed via a fixed tag, so ablation arms perturb only the stream they own and
resumed runs replay the exact same draws.
"""

from dataclasses import dataclass

import numpy as np

_TAGS = {"data": 0, "init": 1, "aug": 2, "shuffle": 3, "nl": 4}


def substream(master_seed: int, tag: str, *extra: int) -> np.random.Generator:
    """Independent generator for (master_seed, tag, *extra)."""
    return np.random.default_rng(np.random.SeedSequence([master_seed, _TAGS[tag], *extra]))


@dataclass
class RngStreams:
    """Bundle of the per-purpose streams a training loop consumes."""

    aug: np.random.Generator
    shuffle: np.random.Generator
    nl: np.random.Generator

    @classmethod
    def for_stage(cls, master_seed: int, stage: int) -> "RngStreams":
        """Streams scoped to one training stage (resume-safe)."""
        return cls(
            aug=substream(master_seed, "aug", stage),
            shuffle=substream(master_seed, "shuffle", stage),
            nl=substream(master_seed, "nl", stage),
        )
