"""The training and herding kernels against frozen oracles, byte for byte.

``kernel_oracles`` holds the allocate-per-call form of each kernel. Each
property draws a case (its numbers come from a seeded generator) and
requires the same loss value, gradient and pick bytes, signed zeros included.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_oracles as oracle
from codag.adapt import PL_WEIGHT, _im_pl_logit_loss
from codag import generalize
from codag.generalize import _CE, _NL, _SKIP, _mixed_logit_loss
from codag.nnmodel import HEAD_BLOCKS, ModelConfig, Sgd, gradient, init_params, softmax
from codag.replay import herding_select
from conftest import teacher_q
from test_replay import list_loop_herding

PROPERTY = settings(max_examples=300, derandomize=True, deadline=None)

# Logit scales: 60 saturates rows into the clipped region, 400 underflows
# probabilities to zero, where a product's zero sign shows.
LOGIT_SCALES = (0.5, 3.0, 60.0, 400.0)


def _same(got, want):
    (got_loss, got_grad), (want_loss, want_grad) = got, want
    assert got_loss == want_loss or (np.isnan(got_loss) and np.isnan(want_loss))
    assert got_grad.dtype == want_grad.dtype and got_grad.tobytes() == want_grad.tobytes()


@st.composite
def dg_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, k = draw(st.integers(1, 70)), draw(st.integers(2, 6))
    logits = rng.standard_normal((n, k)) * draw(st.sampled_from(LOGIT_SCALES))
    y = rng.integers(0, k, n)
    mix = draw(st.sampled_from(["ce", "nl", "skip", "ce+nl", "ce+nl+skip"]))
    kinds = rng.choice([{"ce": _CE, "nl": _NL, "skip": _SKIP}[kind] for kind in mix.split("+")],
                       size=n)
    comp = None
    if draw(st.booleans()):
        comp = np.where(kinds == _NL, (y + rng.integers(1, k, n)) % k, 0)
    q = None
    if draw(st.booleans()):
        # Teacher rows from wide logits hold exact zeros, where the KL term is masked.
        q = softmax(rng.standard_normal((n, k)) * draw(st.sampled_from((1.0, 400.0))))
    alpha = draw(st.sampled_from([0.0, 0.5, 1.0, 0.3]))
    clip_eps = draw(st.sampled_from([1e-7, 0.05, 0.45]))
    return logits, (y, kinds, comp, q, alpha, clip_eps)


@PROPERTY
@given(case=dg_cases(), fortran=st.booleans())
def test_dg_loss_matches_oracle_bytes(case, fortran):
    logits, args = case
    # The losses index flattened probabilities, so a column-major input must
    # give the row-major result; the oracle sees row-major logits.
    given_logits = np.asfortranarray(logits) if fortran else logits
    with np.errstate(divide="ignore", invalid="ignore"):  # KL terms of an underflowed p
        y, kinds, comp, q, alpha, clip_eps = args
        with mock.patch.object(generalize, "_CLIP_EPS", clip_eps):
            got = _mixed_logit_loss(y, kinds, comp, teacher_q(q), alpha)(given_logits)
        _same(got, oracle.mixed_logit_loss(*args)(logits))


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 70), k=st.integers(2, 6),
       scale=st.sampled_from(LOGIT_SCALES), fortran=st.booleans())
def test_im_loss_matches_oracle_bytes(seed, n, k, scale, fortran):
    rng = np.random.default_rng(seed)
    logits = rng.standard_normal((n, k)) * scale
    given_logits = np.asfortranarray(logits) if fortran else logits
    pl = rng.integers(0, k, n)
    _same(_im_pl_logit_loss(pl)(given_logits), oracle.im_pl_logit_loss(pl, 1.0, PL_WEIGHT)(logits))


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), hidden=st.lists(st.integers(1, 12), min_size=1,
                                                       max_size=3),
       rows=st.sampled_from([1, 2, 7, 64]), freeze_head=st.booleans(),
       loss=st.sampled_from(["dg", "im"]), owned=st.sampled_from(["sgd", "frozen-sgd", "none"]))
def test_gradient_matches_oracle_bytes(seed, hidden, rows, freeze_head, loss, owned):
    """Value and every block's gradient, for 1-3 hidden layers, one-row
    batches and a frozen head, with and without an ``Sgd`` stepping on the
    gradient buffer; then two steps on the buffer equal the per-block update,
    leave a frozen head as it was and leave the buffer as it was."""
    rng = np.random.default_rng(seed)
    d, k = 5, 4
    params = init_params(ModelConfig(hidden=tuple(hidden), feat_dim=6), d, k, seed % 1000)
    freeze_head = freeze_head or owned == "frozen-sgd"
    if owned != "none":
        frozen = HEAD_BLOCKS if freeze_head else ()
        opt = Sgd(params, 0.05)
        expected = {name: block.copy() for name, block in params.blocks.items()}
        velocity = {name: np.zeros(block.shape) for name, block in expected.items()
                    if name not in frozen}
    for _ in range(2):
        x = rng.standard_normal((rows, d)) * 3.0
        y = rng.integers(0, k, rows)
        if loss == "dg":
            kinds = rng.choice([_CE, _NL, _SKIP], size=rows)
            comp = (y + rng.integers(1, k, rows)) % k
            q = softmax(rng.standard_normal((rows, k)))
            loss_fn = _mixed_logit_loss(y, kinds, comp, teacher_q(q), 0.5)
        else:
            loss_fn = _im_pl_logit_loss(y)
        got_loss = gradient(loss_fn, params, x, freeze_head=freeze_head)
        got = params.grads
        want_loss, want = oracle.gradient(loss_fn, params, x, freeze_head=freeze_head)
        assert got_loss == want_loss
        assert got.keys() == want.keys()
        for name, block in want.items():
            assert got[name].tobytes() == block.tobytes(), name
        if owned == "none":
            return
        copies = {name: block.copy() for name, block in got.items()}
        opt.step()
        for name, v in velocity.items():  # the per-block update, one block at a time
            v *= 0.9
            v += want[name]
            expected[name] = (expected[name].astype(np.float64) - 0.05 * v).astype(np.float32)
        for name, block in got.items():
            assert block.tobytes() == copies[name].tobytes(), f"step wrote into {name}'s grads"
        for name, block in params.blocks.items():
            assert block.tobytes() == expected[name].tobytes(), name


@st.composite
def near_tie_features(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, d = draw(st.integers(1, 40)), draw(st.integers(1, 6))
    scale = 10.0 ** draw(st.sampled_from([-150, -75, -20, 0, 20, 75, 150]))
    kind = draw(st.sampled_from(["ulp", "duplicates", "grid", "spread", "row-scales"]))
    if kind == "ulp":  # every row within two ulps of one base row
        base = np.tile(rng.standard_normal(d) * scale, (n, 1))
        feats = base + rng.integers(-2, 3, (n, d)) * np.spacing(np.abs(base))
    elif kind == "duplicates":
        feats = rng.standard_normal((n, d)) * scale
        feats[rng.integers(0, n, n // 2)] = feats[rng.integers(0, n, n // 2)]
    elif kind == "grid":  # integer grids force exact ties
        feats = rng.integers(-2, 3, (n, d)) * scale
    elif kind == "spread":
        feats = rng.standard_normal((n, d)) * scale
    else:  # rows from 1e-150 to 1e150 in one set
        feats = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-150, 151, (n, 1))
    return feats, draw(st.integers(0, n))


@PROPERTY
@given(case=near_tie_features())
def test_herding_matches_list_loop_on_near_ties(case):
    feats, m = case
    got = herding_select(feats, m)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, oracle.herding_select(feats, m))
    with np.errstate(over="ignore", invalid="ignore"):  # np.linalg.norm of 1e150 rows
        np.testing.assert_array_equal(got, list_loop_herding(feats, m))
