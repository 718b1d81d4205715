import numpy as np
import pytest

from codag.augment import AugmentConfig, randmix
from codag.data import Dataset
from codag import generalize
from codag.generalize import (
    _CE,
    _NL,
    _SKIP,
    DGConfig,
    PHASE_CE,
    PHASE_NL,
    PHASE_SELNL,
    PHASE_SELPL,
    PL_CONF_THRESHOLD,
    _mixed_logit_loss,
    _phase_for_epoch,
    draw_complementary_labels,
    select_confident,
    train_dg_source,
    train_dg_target,
)
from codag.nnmodel import (
    ClassifierParams,
    ModelConfig,
    Sgd,
    forward,
    gradient,
    init_params,
    log_softmax,
    softmax,
)
from codag.replay import ReplayBuffer, update_buffer
from codag.rng import RngStreams, substream

from conftest import default_sequence, source_model, teacher_q, with_label_noise
from kernel_oracles import kl_divergence


# Scalar reference losses: the oracles the vectorized training loss is checked against.

def ce_loss(probs, label: int, clip_eps: float = 1e-7) -> float:
    """-ln(p_label), clipped away from zero."""
    p = np.asarray(probs, dtype=np.float64)
    if not 0 <= label < p.shape[-1]:
        raise ValueError(f"label {label} out of range [0, {p.shape[-1]})")
    return float(-np.log(max(p[label], clip_eps)))


def nl_loss(probs, complementary_label: int, label: int | None = None,
            clip_eps: float = 1e-7) -> float:
    """-ln(1 - p_complementary): push mass away from a class the sample is not."""
    p = np.asarray(probs, dtype=np.float64)
    if not 0 <= complementary_label < p.shape[-1]:
        raise ValueError(f"complementary label {complementary_label} out of range")
    if label is not None and complementary_label == label:
        raise ValueError("complementary label must differ from the assigned label")
    return float(-np.log(max(1.0 - p[complementary_label], clip_eps)))


def distill_loss(prev_params: ClassifierParams, cur_params: ClassifierParams,
                 x_augmented) -> float:
    """Mean KL(prev || cur) over one shared augmented view."""
    q = softmax(forward(prev_params, x_augmented))
    p = softmax(forward(cur_params, x_augmented))
    return float(np.mean(kl_divergence(np.atleast_2d(q), np.atleast_2d(p))))


def test_ce_loss_examples():
    assert ce_loss(np.array([1.0, 0.0]), 0) == pytest.approx(0.0, abs=1e-12)
    assert ce_loss(np.full(4, 0.25), 2) == pytest.approx(np.log(4), abs=1e-12)
    assert ce_loss(np.array([0.3, 0.7]), 1) == pytest.approx(0.35667, abs=1e-5)
    with pytest.raises(ValueError, match="out of range"):
        ce_loss(np.array([0.5, 0.5]), 2)


def test_ce_loss_clips_at_zero_probability():
    assert ce_loss(np.array([0.0, 1.0]), 0) == pytest.approx(-np.log(1e-7), abs=1e-9)


def test_nl_loss_examples():
    assert nl_loss(np.array([0.0, 1.0]), 0) == pytest.approx(0.0, abs=1e-12)
    assert nl_loss(np.array([0.2, 0.8]), 0) == pytest.approx(0.22314, abs=1e-5)
    assert nl_loss(np.array([1.0, 0.0]), 0) == pytest.approx(-np.log(1e-7), abs=1e-9)
    with pytest.raises(ValueError, match="must differ"):
        nl_loss(np.array([0.5, 0.5]), 1, label=1)


def test_draw_complementary_labels_never_hit_label():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 5, 500)
    comp = draw_complementary_labels(labels, 5, rng)
    assert np.all(comp != labels)
    assert comp.min() >= 0 and comp.max() < 5


def _uniform_model(d=3, k=4):
    return ClassifierParams({
        "ext0.w": np.zeros((d, 2), dtype=np.float32),
        "ext0.b": np.zeros(2, dtype=np.float32),
        "head.w": np.zeros((2, k), dtype=np.float32),
        "head.b": np.zeros(k, dtype=np.float32),
    })


def _pl_dataset(n=30, d=3, k=4, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(rng.standard_normal((n, d)), rng.integers(0, k, n), k, domain_id=1,
                   pseudo=True)


def test_select_confident_boundary_is_strict():
    data = _pl_dataset()
    params = _uniform_model()  # every prediction exactly uniform
    assert not select_confident(params, data.x, 0.25).any()
    assert select_confident(params, data.x, 0.2499).all()


def test_select_confident_zero_threshold_selects_all():
    data = _pl_dataset(seed=1)
    params = init_params(ModelConfig(hidden=(5,), feat_dim=3), 3, 4, 2)
    assert select_confident(params, data.x, 0.0).all()


def test_select_confident_matches_brute_force_and_is_monotone():
    data = _pl_dataset(seed=3)
    params = init_params(ModelConfig(hidden=(5,), feat_dim=3), 3, 4, 4)
    conf = softmax(forward(params, data.x)).max(axis=1)
    prev = None
    for threshold in (0.0, 0.24, 0.26, 0.3, 0.5, 1.0):
        got = np.where(select_confident(params, data.x, threshold))[0]
        expected = [i for i in range(len(data)) if conf[i] > threshold]
        assert got.tolist() == expected
        if prev is not None:
            assert set(got.tolist()) <= set(prev.tolist())
        prev = got


def _bias_model(log_probs):
    k = len(log_probs)
    return ClassifierParams({
        "ext0.w": np.zeros((2, 3), dtype=np.float32),
        "ext0.b": np.zeros(3, dtype=np.float32),
        "head.w": np.zeros((3, k), dtype=np.float32),
        "head.b": np.asarray(log_probs, dtype=np.float32),
    })


def test_distill_loss_identical_params_is_zero():
    params = init_params(ModelConfig(hidden=(5,), feat_dim=4), 4, 3, 1)
    x = np.random.default_rng(0).standard_normal((6, 4))
    assert distill_loss(params, params, x) == pytest.approx(0.0, abs=1e-12)


def test_distill_loss_nonnegative_on_random_pairs():
    rng = np.random.default_rng(1)
    for seed in range(5):
        a = init_params(ModelConfig(hidden=(5,), feat_dim=4), 4, 3, seed)
        b = init_params(ModelConfig(hidden=(5,), feat_dim=4), 4, 3, seed + 100)
        x = rng.standard_normal((8, 4))
        assert distill_loss(a, b, x) >= 0.0


def test_distill_loss_hand_value():
    prev = _bias_model(np.log([0.5, 0.5]))
    cur = _bias_model(np.log([0.9, 0.1]))
    x = np.zeros((1, 2))
    assert distill_loss(prev, cur, x) == pytest.approx(0.51083, abs=1e-5)


def test_train_source_zero_epochs_identity():
    seq, _ = source_model(2022)
    params0 = init_params(ModelConfig(), seq.d, seq.k, 0)
    out = train_dg_source(params0, seq.train_sets[0], DGConfig(epochs=0),
                          AugmentConfig(), RngStreams.for_stage(0, 0))
    for name in params0.blocks:
        assert out.blocks[name].tobytes() == params0.blocks[name].tobytes()


def test_train_source_beats_chance_and_loss_decreases():
    from codag import accuracy

    seq, params = source_model(2022)
    assert accuracy(params, seq.test_sets[0]) > 1.0 / seq.k

    losses, phases = [], []
    train_dg_source(
        init_params(ModelConfig(), seq.d, seq.k, substream(2022, "init")),
        seq.train_sets[0], DGConfig(), AugmentConfig(), RngStreams.for_stage(2022, 0),
        on_epoch=lambda e, p, loss, phase: (losses.append(loss), phases.append(phase)),
    )
    assert losses[0] >= losses[-1]
    assert set(phases) == {PHASE_CE}


def test_train_target_on_true_labels_equals_train_source():
    """One loop: a true-labeled pool with no buffer or teacher is source ERM."""
    source = default_sequence(split_seed=substream(2022, "data")).train_sets[0]
    assert not source.pseudo
    params0 = init_params(ModelConfig(), source.d, source.k, 4)
    cfg = DGConfig(epochs=6, alpha=0.0)
    from_source = train_dg_source(params0, source, cfg, AugmentConfig(),
                                  RngStreams.for_stage(3, 1))
    from_target = train_dg_target(params0, source, ReplayBuffer(0, source.k), cfg,
                                  AugmentConfig(), RngStreams.for_stage(3, 1))
    for name in params0.blocks:
        assert from_target.blocks[name].tobytes() == from_source.blocks[name].tobytes()


def test_train_target_zero_epochs_returns_prev():
    prev = init_params(ModelConfig(), 3, 4, 1)
    out = train_dg_target(prev, _pl_dataset(), ReplayBuffer(0, 4), DGConfig(epochs=0),
                          AugmentConfig(), RngStreams.for_stage(0, 0))
    for name in prev.blocks:
        assert out.blocks[name].tobytes() == prev.blocks[name].tobytes()


def test_train_target_alpha_zero_no_selnlpl_equals_plain_ce():
    """First-batch loss must equal the scalar-op mean CE on the same batch."""
    data = _pl_dataset(n=25, seed=7)
    prev = init_params(ModelConfig(hidden=(6,), feat_dim=4), 3, 4, 9)
    cfg = DGConfig(epochs=1, batch_size=25, alpha=0.0, selnlpl=False)
    aug = AugmentConfig(noise_sigma=0.05)
    captured = []
    train_dg_target(prev, data, ReplayBuffer(0, data.k), cfg, aug, RngStreams.for_stage(5, 0),
                    on_epoch=lambda e, p, loss, phase: captured.append((loss, phase)))

    replay = RngStreams.for_stage(5, 0)
    perm = replay.shuffle.permutation(len(data))
    xb = randmix(data.x[perm], aug, replay.aug, batch_size=cfg.batch_size)
    probs = softmax(forward(prev, xb))
    expected = np.mean([ce_loss(probs[i], int(data.labels[perm][i]))
                        for i in range(len(data))])
    loss, phase = captured[0]
    assert phase == PHASE_CE
    assert loss == pytest.approx(expected, abs=1e-12)


def test_train_target_phase_schedule():
    data = _pl_dataset(n=20, seed=2)
    prev = init_params(ModelConfig(hidden=(5,), feat_dim=3), 3, 4, 3)
    phases = []
    train_dg_target(prev, data, ReplayBuffer(0, data.k),
                    DGConfig(epochs=8, batch_size=20),
                    None, RngStreams.for_stage(1, 0),
                    on_epoch=lambda e, p, loss, phase: phases.append(phase))
    assert phases == [PHASE_NL, PHASE_NL, PHASE_SELNL, PHASE_SELNL,
                      PHASE_SELPL, PHASE_SELPL, PHASE_SELPL, PHASE_SELPL]


def test_train_target_selnlpl_off_single_phase():
    data = _pl_dataset(n=20, seed=2)
    prev = init_params(ModelConfig(hidden=(5,), feat_dim=3), 3, 4, 3)
    phases = []
    train_dg_target(prev, data, ReplayBuffer(0, data.k), DGConfig(epochs=3, selnlpl=False),
                    None, RngStreams.for_stage(1, 0),
                    on_epoch=lambda e, p, loss, phase: phases.append(phase))
    assert phases == [PHASE_CE] * 3


def test_with_label_noise_flips_expected_fraction():
    data = _pl_dataset(n=2000, k=4, seed=11)
    noisy = with_label_noise(data, 0.2, np.random.default_rng(0))
    flipped = np.mean(noisy.labels != data.labels)
    assert 0.15 < flipped < 0.25
    assert isinstance(noisy, Dataset) and noisy.pseudo
    clean = with_label_noise(data, 0.0, np.random.default_rng(0))
    np.testing.assert_array_equal(clean.labels, data.labels)
    with pytest.raises(ValueError, match="rate must lie"):
        with_label_noise(data, 1.5, np.random.default_rng(0))


def test_selnlpl_protects_against_noisy_labels_single_seed(selnlpl_noise_diffs):
    # Full-fidelity chain for one seed, from the session fixture whose
    # 5-seed average the acceptance suite checks.
    assert selnlpl_noise_diffs[2022] >= 0.0


def test_dg_config_validation():
    with pytest.raises(ValueError, match="alpha must be nonnegative"):
        DGConfig(alpha=-0.1)
    with pytest.raises(ValueError, match="lr must be positive"):
        DGConfig(lr=0.0)
    for batch_size in (0, -5):
        with pytest.raises(ValueError, match="batch_size"):
            DGConfig(batch_size=batch_size)


# Row-list reference of the DG loss: the oracle for the mask-built ``_mixed_logit_loss``.

def row_list_loss(y, kinds, comp, q, alpha, clip_eps):
    def loss_fn(logits):
        logp = log_softmax(logits)
        p = np.exp(logp)
        n = logits.shape[0]
        dl = np.zeros_like(p)
        total = 0.0
        n_labeled = int(np.count_nonzero(kinds != _SKIP))
        if n_labeled:
            label_sum = 0.0
            ce_rows = np.where(kinds == _CE)[0]
            if ce_rows.size:
                py = p[ce_rows, y[ce_rows]]
                label_sum += float(-np.log(np.maximum(py, clip_eps)).sum())
                live = ce_rows[py > clip_eps]
                dl[live] += p[live]
                dl[live, y[live]] -= 1.0
            nl_rows = np.where(kinds == _NL)[0]
            if nl_rows.size:
                pc = p[nl_rows, comp[nl_rows]]
                keep = 1.0 - pc
                label_sum += float(-np.log(np.maximum(keep, clip_eps)).sum())
                mask = keep > clip_eps
                live = nl_rows[mask]
                coef = pc[mask] / keep[mask]
                dl[live] -= coef[:, None] * p[live]
                dl[live, comp[live]] += coef
            total += label_sum / n_labeled
            dl /= n_labeled
        if q is not None and alpha > 0:
            total += alpha * float(np.mean(kl_divergence(q, p)))
            dl += alpha * (p - q) / n
        return total, dl

    return loss_fn


def test_mixed_logit_loss_matches_row_list_reference_bitwise():
    rng = np.random.default_rng(17)
    k = 5
    for trial in range(300):
        n = int(rng.integers(1, 70))
        # Large logits saturate rows into the clipped region; the largest also
        # underflow probabilities to zero, where a product's zero sign shows.
        logits = rng.standard_normal((n, k)) * rng.choice([1.0, 10.0, 60.0, 400.0])
        y = rng.integers(0, k, n)
        kinds = rng.choice([_SKIP, _CE, _NL], size=n)
        comp = np.where(kinds == _NL, (y + rng.integers(1, k, n)) % k, 0)
        q = softmax(rng.standard_normal((n, k))) if trial % 2 else None
        alpha = float(rng.choice([0.0, 1.0, 0.5]))
        with np.errstate(divide="ignore"):  # log(0) of an underflowed p in the KL value
            got_loss, got = _mixed_logit_loss(y, kinds, comp, teacher_q(q), alpha)(logits)
            ref_loss, ref = row_list_loss(y, kinds, comp, q, alpha, 1e-7)(logits)
        assert got.tobytes() == ref.tobytes(), f"trial {trial}"  # signs of zero too
        assert got_loss == ref_loss


def _loss_inputs(y, kinds, comp, q):
    return tuple(None if a is None else np.asarray(a).tobytes() for a in (y, kinds, comp, q))


def per_batch_train_dg(params0, x, y, is_pseudo, teacher, config, aug, rng):
    """The DG loop with one randmix call and one teacher forward per batch.

    Returns the parameters and the loss inputs of every batch.
    """
    params = params0.copy()
    batches = []
    opt = Sgd(params, config.lr)
    k = params.n_classes
    for epoch in range(config.epochs):
        phase = _phase_for_epoch(epoch, config) if is_pseudo.any() else PHASE_CE
        kinds = np.full(len(x), _CE, dtype=np.int64)
        if phase == PHASE_NL:
            kinds[is_pseudo] = _NL
        elif phase == PHASE_SELNL:
            confident = select_confident(params, x[is_pseudo], 1.0 / k)
            kinds[is_pseudo] = np.where(confident, _NL, _SKIP)
        elif phase == PHASE_SELPL:
            confident = select_confident(params, x[is_pseudo], PL_CONF_THRESHOLD)
            kinds[is_pseudo] = np.where(confident, _CE, _SKIP)
        perm = rng.shuffle.permutation(len(x))
        for start in range(0, len(x), config.batch_size):
            idx = perm[start:start + config.batch_size]
            xb = x[idx]
            if aug is not None:
                xb = randmix(xb, aug, rng.aug, batch_size=config.batch_size)
            kb = kinds[idx]
            comp = np.zeros(idx.shape[0], dtype=np.int64)
            nl_mask = kb == _NL
            if nl_mask.any():
                comp[nl_mask] = draw_complementary_labels(y[idx][nl_mask], k, rng.nl)
            q = softmax(forward(teacher, xb)) if teacher is not None else None
            batches.append(_loss_inputs(y[idx], kb, comp, q))
            loss_fn = row_list_loss(y[idx], kb, comp, q, config.alpha, 1e-7)
            gradient(loss_fn, params, xb)
            opt.step()
    return params, batches


def _same_params(a, b):
    return all(a.blocks[name].tobytes() == b.blocks[name].tobytes() for name in a.blocks)


# Pool sizes 0, 1 and 17 mod the batch size, and one-row batches throughout.
@pytest.mark.parametrize("n_pool, batch_size", [(96, 32), (97, 32), (113, 32), (21, 1)])
def test_epoch_level_dg_loop_matches_per_batch_loop(n_pool, batch_size, monkeypatch):
    """Same weights, and the same loss inputs in every batch (labels, kinds,
    complementary labels, teacher probabilities and their log), bit for bit."""
    batches = []

    def recording_loss(y, kinds, comp, q_log_q, alpha):
        q = None
        if q_log_q is not None:
            q, log_q = q_log_q
            assert log_q.tobytes() == teacher_q(q)[1].tobytes()
        batches.append(_loss_inputs(y, kinds, comp, q))
        return _mixed_logit_loss(y, kinds, comp, q_log_q, alpha)

    monkeypatch.setattr(generalize, "_mixed_logit_loss", recording_loss)
    seq = default_sequence(split_seed=substream(3, "data"))
    source, target = seq.train_sets[0], seq.train_sets[1]
    cfg = DGConfig(epochs=8, batch_size=batch_size)
    aug = AugmentConfig()
    params0 = init_params(ModelConfig(), seq.d, seq.k, 5)

    src = Dataset(source.x[:n_pool], source.labels[:n_pool], source.k, source.domain_id)
    prev = train_dg_source(params0, src, cfg, aug, RngStreams.for_stage(3, 0))
    expected, expected_batches = per_batch_train_dg(
        params0, src.x, src.labels, np.zeros(n_pool, dtype=bool), None, cfg, aug,
        RngStreams.for_stage(3, 0))
    assert _same_params(prev, expected) and batches == expected_batches

    # Target stage: pseudo-labels plus 16 replay rows, distilled against ``prev``.
    pl_data = Dataset(target.x[:n_pool - 16], seq.test_sets[1].labels[:n_pool - 16],
                      target.k, target.domain_id, pseudo=True)
    buffer = update_buffer(ReplayBuffer(16, seq.k), src, prev)
    batches.clear()
    got = train_dg_target(prev, pl_data, buffer, cfg, aug, RngStreams.for_stage(3, 1))
    bx, by, _, bpseudo = buffer.as_arrays()
    expected, expected_batches = per_batch_train_dg(
        prev, np.concatenate([pl_data.x, bx]), np.concatenate([pl_data.labels, by]),
        np.concatenate([np.ones(len(pl_data), dtype=bool), bpseudo]), prev, cfg, aug,
        RngStreams.for_stage(3, 1))
    assert _same_params(got, expected) and batches == expected_batches
