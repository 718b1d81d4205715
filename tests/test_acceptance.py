"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The heavyweight comparisons (four variants x five seeds at full fidelity)
come from session fixtures in conftest so the suite runs them once.
"""

import json
import os

import numpy as np

from codag import adapt_domain, herding_select, sequence_metrics, softmax
from codag.adapt import _im_pl_logit_loss
from codag.generalize import _CE, _NL, _SKIP, _mixed_logit_loss
from codag.nnmodel import EpochConfig
from codag.rng import substream

from conftest import source_model, teacher_q
from golden_table import checks, state_digest
from test_evaluate import cell_grids
from test_nnmodel import assert_fd_match, small_params
from test_replay import brute_force_herding


def _criterion(num: int, description: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    line = f"[criterion {num}] {status}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


# (dataset, method): (tda, tdg, fa, reported_all) from the published comparison
REPORTED_CELLS = {
    ("pacs", "shot+"): (81.9, 54.9, 74.9, 70.6),
    ("pacs", "shot++"): (84.4, 56.0, 83.0, 74.5),
    ("pacs", "tent"): (78.7, 65.8, 81.0, 75.2),
    ("pacs", "adacon"): (79.9, 65.2, 81.6, 75.6),
    ("pacs", "eata"): (80.3, 64.1, 82.6, 75.7),
    ("pacs", "l2d"): (78.8, 65.8, 77.6, 74.1),
    ("pacs", "pden"): (77.8, 64.4, 76.3, 72.9),
    ("pacs", "ratp"): (84.7, 70.6, 83.9, 79.7),
    ("pacs", "codag"): (87.6, 72.2, 88.8, 82.9),
    ("digits", "shot+"): (78.6, 61.0, 58.2, 65.9),
    ("digits", "shot++"): (81.3, 62.3, 64.5, 69.4),
    ("digits", "tent"): (68.7, 64.0, 66.1, 66.2),
    ("digits", "adacon"): (71.6, 63.3, 72.2, 69.1),
    ("digits", "eata"): (72.0, 64.0, 73.0, 69.6),
    ("digits", "l2d"): (84.3, 70.9, 76.5, 77.2),
    ("digits", "pden"): (82.3, 69.7, 74.0, 75.3),
    ("digits", "ratp"): (88.7, 76.8, 85.0, 83.5),
    ("digits", "codag"): (92.7, 77.4, 87.1, 85.7),
    ("domainnet", "shot+"): (66.0, 47.3, 58.5, 57.3),
    ("domainnet", "shot++"): (66.9, 48.1, 66.9, 60.6),
    ("domainnet", "tent"): (53.6, 47.7, 56.1, 52.5),
    ("domainnet", "adacon"): (62.2, 51.3, 61.8, 58.4),
    ("domainnet", "eata"): (62.5, 52.1, 62.8, 59.1),
    ("domainnet", "l2d"): (56.2, 50.7, 52.2, 53.0),
    ("domainnet", "pden"): (55.6, 49.3, 50.2, 51.7),
    ("domainnet", "ratp"): (65.4, 55.2, 63.5, 61.4),
    ("domainnet", "codag"): (71.0, 56.2, 70.9, 66.0),
}


def test_criterion_1_metric_arithmetic_reproduction():
    tda_v, tdg_v, fa_v, reported = REPORTED_CELLS[("pacs", "codag")]
    headline = sequence_metrics(*cell_grids(tda_v, tdg_v, fa_v))["all"]
    headline_ok = abs(headline - reported) < 0.05 and abs(headline - 82.87) < 0.005

    others_passing = 0
    for cell, (a, g, f, rep) in REPORTED_CELLS.items():
        if cell == ("pacs", "codag"):
            continue
        if abs(sequence_metrics(*cell_grids(a, g, f))["all"] - rep) < 0.05:
            others_passing += 1
    _criterion(
        1, "composite reproduces reported overall scores",
        headline_ok and others_passing >= 5,
        f"headline {headline:.4f} vs {reported}; {others_passing} other cells within 0.05",
    )


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(123)
    metric_exact = True
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        grid = rng.random((n, n))
        m = sequence_metrics(grid, grid)
        tdg_vals, fa_vals = m["tdg_per_domain"], m["fa_per_domain"]
        for t in range(1, n):
            brute = sum(grid[tp, t] for tp in range(t)) / t
            metric_exact &= abs(tdg_vals[t - 1] - brute) <= 1e-12
        for t in range(n - 1):
            brute = sum(grid[tp, t] for tp in range(t + 1, n)) / (n - 1 - t)
            metric_exact &= abs(fa_vals[t] - brute) <= 1e-12

    herding_exact = True
    for n in range(1, 9):
        for trial in range(8):
            feats = rng.standard_normal((n, int(rng.integers(1, 5))))
            for m in range(n + 1):
                herding_exact &= np.array_equal(
                    herding_select(feats, m), brute_force_herding(feats, m)
                )
        ties = rng.integers(-1, 2, size=(n, 2)).astype(float)
        for m in range(n + 1):
            herding_exact &= np.array_equal(
                herding_select(ties, m), brute_force_herding(ties, m)
            )
    _criterion(2, "metric and herding oracles agree exactly",
               metric_exact and herding_exact)


def test_criterion_3_gradient_correctness():
    params = small_params(seed=5, float64=True)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((7, 4))
    y = rng.integers(0, 3, 7)
    comp = (y + 1) % 3
    q = softmax(rng.standard_normal((7, 3)))
    kinds_ce = np.full(7, _CE)
    kinds_nl = np.full(7, _NL)
    kinds_skip = np.full(7, _SKIP)

    ok = True
    try:
        # source / pseudo-label cross-entropy
        assert_fd_match(_mixed_logit_loss(y, kinds_ce, None, None, 0.0), params, x)
        # adaptation objective: information maximization + pseudo cross-entropy
        assert_fd_match(_im_pl_logit_loss(y), params, x)
        # distillation KL
        assert_fd_match(_mixed_logit_loss(y, kinds_skip, None, teacher_q(q), 1.0), params, x)
        # negative learning
        assert_fd_match(_mixed_logit_loss(y, kinds_nl, comp, None, 0.0), params, x)
    except AssertionError:
        ok = False

    seq, dg = source_model(2022)
    adapted = adapt_domain(dg, seq.train_sets[1], EpochConfig(),
                           substream(2022, "shuffle", 1))
    frozen_ok = (
        adapted.blocks["head.w"].tobytes() == dg.blocks["head.w"].tobytes()
        and adapted.blocks["head.b"].tobytes() == dg.blocks["head.b"].tobytes()
    )
    _criterion(3, "losses match finite differences; frozen head bit-identical",
               ok and frozen_ok)


def test_criterion_4_generalized_initialization_helps(variant_runs):
    codag = np.mean([m["tda_mean"] for _, m in variant_runs["codag"].values()])
    da_init = np.mean([m["tda_mean"] for _, m in variant_runs["codag-da-init"].values()])
    _criterion(4, "DG-initialized adaptation beats DA-initialized on mean TDA",
               codag >= da_init, f"{codag:.4f} vs {da_init:.4f}")


def test_criterion_5_buffer_removal_hits_fa_hardest(variant_runs):
    def means(variant):
        ms = [m for _, m in variant_runs[variant].values()]
        return np.array([
            np.mean([m["tda_mean"] for m in ms]),
            np.mean([m["tdg_mean"] for m in ms]),
            np.mean([m["fa_mean"] for m in ms]),
        ])

    drop = means("codag") - means("codag+buffer_capacity=0")
    _criterion(5, "removing the buffer degrades FA more than TDA or TDG",
               drop[2] > drop[0] and drop[2] > drop[1],
               f"degradation tda {drop[0]:+.4f} tdg {drop[1]:+.4f} fa {drop[2]:+.4f}")


def test_criterion_6_noisy_label_schedule_helps(selnlpl_noise_diffs):
    diffs = np.array(list(selnlpl_noise_diffs.values()))
    _criterion(6, "with 20% pseudo-label noise, the noisy-label schedule wins on average",
               diffs.mean() > 0,
               f"per-seed {np.round(diffs, 4).tolist()}, mean {diffs.mean():+.4f}")


def test_criterion_7_determinism(variant_runs, default_cli_run):
    """The pool's in-process run of codag/2022 against the same seed of ``codag run
    --jobs 2`` with curves on: two processes and two call paths."""
    first, _ = variant_runs["codag"][2022]
    second = default_cli_run.results()["per_seed"]["2022"]
    dg_diff = np.nanmax(np.abs(first.dg_matrix - np.array(second["dg_matrix"])))
    da_diff = np.nanmax(np.abs(first.da_matrix - np.array(second["da_matrix"])))
    _criterion(7, "identical (config, seed) runs agree within 1e-9",
               dg_diff <= 1e-9 and da_diff <= 1e-9,
               f"max diffs dg {dg_diff:.2e} da {da_diff:.2e}")


def test_criterion_8_sanity_floor(variant_runs):
    codag_tda = np.mean([m["tda_mean"] for _, m in variant_runs["codag"].values()])
    dgonly_tda = np.mean([m["tda_mean"] for _, m in variant_runs["dg-only"].values()])
    per_domain_tdg = np.mean(
        [m["tdg_per_domain"] for _, m in variant_runs["codag"].values()], axis=0
    )
    chance = 1.0 / 5.0
    _criterion(
        8, "adaptation beats the generalization-only chain; TDG beats chance everywhere",
        codag_tda > dgonly_tda and bool((per_domain_tdg > chance).all()),
        f"tda {codag_tda:.4f} vs {dgonly_tda:.4f}; per-domain tdg "
        f"{np.round(per_domain_tdg, 3).tolist()} vs chance {chance}",
    )


_BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_default_runs_match_golden_digests(variant_runs, default_cli_run, tmp_path):
    """The benchmark's golden digests, on the pool's codag and dg-only runs at seed 2022
    and on every seed of the default ``codag run`` with curves."""
    with open(os.path.join(_BENCH, "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)["default"]
    runs = {"codag/2022": variant_runs["codag"][2022][0],
            "dg-only/2022": variant_runs["dg-only"][2022][0]}
    for name, state in runs.items():
        digest = state_digest(state, tmp_path / name.replace("/", "-"))
        assert digest == golden[name], f"{name}: digest {digest} is not the golden one"
    per_seed = default_cli_run.results()["per_seed"]
    assert set(per_seed) == {"2022", "2023", "2024"}
    for seed, entry in per_seed.items():
        digest = checks.seed_run_digest(entry, str(default_cli_run.out / f"seed{seed}"))
        assert digest == golden[f"codag/{seed}"], \
            f"codag/{seed} with curves: digest {digest} is not the golden one"
