import hashlib
import json
import os
import re
import stat
import struct

import numpy as np
import pytest

from codag.adapt import _im_pl_logit_loss
from codag.generalize import _CE, _NL, _SKIP, _mixed_logit_loss
from codag.nnmodel import (
    _TEMP_BYTES,
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    HEAD_BLOCKS,
    CheckpointError,
    ClassifierParams,
    ModelConfig,
    Sgd,
    atomic_write,
    features,
    features_and_logits,
    forward,
    gradient,
    init_params,
    load_checkpoint,
    save_checkpoint,
    softmax,
)

import kernel_oracles as oracle
from conftest import teacher_q


def small_params(seed=1, d=4, k=3, hidden=(6,), feat_dim=5, float64=False):
    params = init_params(ModelConfig(hidden=hidden, feat_dim=feat_dim), d, k, seed)
    if float64:
        return ClassifierParams({name: block.astype(np.float64)
                                 for name, block in params.blocks.items()})
    return params


def assert_owns_exact_shadow(params):
    """``shadow`` equals the widened blocks; blocks, shadow and grads share no memory."""
    for name, block in params.blocks.items():
        assert params.shadow[name].tobytes() == block.astype(np.float64).tobytes(), name
    storage = [*params.blocks.values(), *params.shadow.values(), *params.grads.values()]
    assert not any(np.shares_memory(a, b) for i, a in enumerate(storage)
                   for b in storage[i + 1:])


def test_init_determinism_and_bounds():
    a = init_params(ModelConfig(), 3, 2, 42)
    b = init_params(ModelConfig(), 3, 2, 42)
    assert a.blocks.keys() == b.blocks.keys()
    assert_owns_exact_shadow(a)
    for name in a.blocks:
        np.testing.assert_array_equal(a.blocks[name], b.blocks[name])
    for name, block in a.blocks.items():
        if name.endswith(".b"):
            assert np.all(block == 0.0)
        else:
            fan_in, fan_out = block.shape
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            assert np.all(np.abs(block) <= bound)


def test_forward_zero_params_gives_zero_logits():
    params = ClassifierParams({name: np.zeros_like(block)
                               for name, block in small_params().blocks.items()})
    out = forward(params, np.ones((1, 4)))
    np.testing.assert_array_equal(out, np.zeros((1, 3)))


def test_forward_hand_computed_single_layer():
    # extractor d=2 -> feat 2 (identity), head 2x2 hand-set: logits = W_h^T x + b
    blocks = {
        "ext0.w": np.eye(2, dtype=np.float32),
        "ext0.b": np.zeros(2, dtype=np.float32),
        "head.w": np.array([[1.0, -2.0], [3.0, 0.5]], dtype=np.float32),
        "head.b": np.array([0.25, -1.0], dtype=np.float32),
    }
    params = ClassifierParams(blocks)
    x = np.array([[2.0, -1.0]])
    expected = x @ blocks["head.w"].astype(float) + blocks["head.b"].astype(float)
    np.testing.assert_allclose(forward(params, x), expected, atol=1e-12)


def test_batch_forward_matches_stacked_single():
    params = small_params(seed=7)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((5, 4))
    batch = forward(params, x)
    singles = np.concatenate([forward(params, x[i:i + 1]) for i in range(len(x))])
    np.testing.assert_allclose(batch, singles, atol=0)


def test_forward_dimension_mismatch():
    params = small_params()
    with pytest.raises(ValueError, match="dimension"):
        forward(params, np.ones(5))
    # A vector of the right length is not a batch, and the error names both shapes.
    for fn in (forward, features, features_and_logits):
        with pytest.raises(ValueError, match=re.escape("expected shape (n, 4), got (4,)")):
            fn(params, np.ones(4))


def test_features_compose_with_head():
    params = small_params(seed=3)
    x = np.random.default_rng(1).standard_normal((6, 4))
    feats = features(params, x)
    assert feats.shape == (6, 5)
    manual = feats @ params.blocks["head.w"].astype(float) + params.blocks["head.b"].astype(float)
    np.testing.assert_allclose(forward(params, x), manual, atol=1e-12)


def _single_pass(params, x):
    """(feats, logits) from every row at once, each block widened on use."""
    w = {name: block.astype(np.float64) for name, block in params.blocks.items()}
    n_layers = (len(params.blocks) - 2) // 2
    a = np.asarray(x, dtype=np.float64)
    for i in range(n_layers):
        z = a @ w[f"ext{i}.w"] + w[f"ext{i}.b"]
        a = np.maximum(z, 0.0) if i < n_layers - 1 else z
    return a, a @ w["head.w"] + w["head.b"]


def test_row_blocked_forward_equals_single_pass():
    params = init_params(ModelConfig(), 16, 5, 4)  # widest layer 64
    block = _TEMP_BYTES // (8 * 64)
    assert block == 128
    rng = np.random.default_rng(3)
    for n in (0, 1, block - 1, block, block + 1, 4000):
        x = rng.standard_normal((n, 16))
        feats, logits = _single_pass(params, x)
        assert forward(params, x).shape == (n, 5)
        assert features(params, x).shape == (n, 32)
        assert forward(params, x).tobytes() == logits.tobytes(), n
        assert features(params, x).tobytes() == feats.tobytes(), n
    row = rng.standard_normal((1, 16))
    feats, logits = _single_pass(params, row)
    assert forward(params, row).tobytes() == logits.tobytes()
    assert features(params, row).tobytes() == feats.tobytes()


def test_features_zero_extractor():
    params = ClassifierParams({name: np.zeros_like(block) if name.startswith("ext") else block
                               for name, block in small_params().blocks.items()})
    np.testing.assert_array_equal(features(params, np.ones((1, 4))), np.zeros((1, 5)))


def test_softmax_basics():
    np.testing.assert_allclose(softmax([0.0, 0.0]), [0.5, 0.5], atol=1e-15)
    z = np.array([0.3, -1.2, 2.0])
    np.testing.assert_allclose(softmax(z), softmax(z + 17.5), atol=1e-15)
    big = softmax([1000.0, 0.0])
    assert big[0] > 1 - 1e-12 and np.isfinite(big).all()
    rows = softmax(np.random.default_rng(0).standard_normal((20, 4)))
    np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-9)
    with pytest.raises(FloatingPointError, match="softmax input must be finite"):
        softmax([np.nan, 0.0])
    with pytest.raises(FloatingPointError, match="softmax input must be finite"):
        softmax([np.inf, 0.0])


def _moved(params, name, idx, step):
    """New parameters with ``step`` added to one entry of block ``name``."""
    block = params.blocks[name].copy()
    block[idx] += step
    return ClassifierParams({**params.blocks, name: block})


def fd_gradient(loss_fn, params, x, h=1e-5):
    grads = {}
    for name, block in params.blocks.items():
        g = np.zeros_like(block)
        for idx in np.ndindex(block.shape):
            lp, lm = (loss_fn(forward(_moved(params, name, idx, step), x))[0]
                      for step in (h, -h))
            g[idx] = (lp - lm) / (2 * h)
        grads[name] = g
    return grads


def assert_fd_match(loss_fn, params, x, tol=1e-4):
    gradient(loss_fn, params, x)
    grads = params.grads
    fd = fd_gradient(loss_fn, params, x)
    for name in params.blocks:
        denom = np.maximum(np.maximum(np.abs(fd[name]), np.abs(grads[name])), 1e-8)
        rel = np.abs(fd[name] - grads[name]) / denom
        assert rel.max() < tol, f"{name}: rel err {rel.max():.2e}"


@pytest.fixture
def fd_setup():
    params = small_params(seed=5, float64=True)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((7, 4))
    y = rng.integers(0, 3, 7)
    return params, x, y, rng


def test_gradient_matches_fd_cross_entropy(fd_setup):
    params, x, y, _ = fd_setup
    kinds = np.full(7, _CE)
    assert_fd_match(_mixed_logit_loss(y, kinds, None, None, 0.0), params, x)


def test_gradient_matches_fd_negative_learning(fd_setup):
    params, x, y, _ = fd_setup
    kinds = np.full(7, _NL)
    comp = (y + 1) % 3
    assert_fd_match(_mixed_logit_loss(y, kinds, comp, None, 0.0), params, x)


def test_gradient_matches_fd_distillation(fd_setup):
    params, x, y, rng = fd_setup
    q = softmax(rng.standard_normal((7, 3)))
    kinds = np.full(7, _SKIP)
    assert_fd_match(_mixed_logit_loss(y, kinds, None, teacher_q(q), 1.0), params, x)


def test_gradient_matches_fd_mixed_batch(fd_setup):
    params, x, y, rng = fd_setup
    q = softmax(rng.standard_normal((7, 3)))
    kinds = np.array([_CE, _NL, _SKIP, _CE, _NL, _CE, _SKIP])
    comp = (y + 1) % 3
    assert_fd_match(_mixed_logit_loss(y, kinds, comp, teacher_q(q), 0.7), params, x)


def test_gradient_matches_fd_im_plus_pseudo_ce(fd_setup):
    params, x, y, _ = fd_setup
    assert_fd_match(_im_pl_logit_loss(y), params, x)


def test_freeze_head_zeroes_head_blocks(fd_setup):
    params, x, y, _ = fd_setup
    gradient(_im_pl_logit_loss(y), params, x, freeze_head=True)
    grads = params.grads
    assert np.all(grads["head.w"] == 0.0)
    assert np.all(grads["head.b"] == 0.0)
    assert np.any(grads["ext0.w"] != 0.0)


def test_gradient_returns_the_loss_and_fills_params_grads(fd_setup):
    params, x, y, _ = fd_setup
    loss_fn = _mixed_logit_loss(y, np.array([_CE, _NL, _SKIP] * 2 + [_CE]), (y + 1) % 3,
                                None, 0.0)
    loss = gradient(loss_fn, params, x)
    want_loss, want = oracle.gradient(loss_fn, params, x)
    assert type(loss) is float
    assert struct.pack("<d", loss) == struct.pack("<d", loss_fn(forward(params, x))[0])
    assert struct.pack("<d", loss) == struct.pack("<d", want_loss)
    assert params.grads.keys() == want.keys()
    for name, block in want.items():
        assert params.grads[name].tobytes() == block.tobytes(), name


def test_constant_loss_gives_zero_gradients(fd_setup):
    params, x, _, _ = fd_setup

    def const(logits):
        return 3.5, np.zeros_like(logits)

    gradient(const, params, x)
    for name, g in params.grads.items():
        assert np.all(g == 0.0), name


def test_non_finite_loss_raises(fd_setup):
    params, x, _, _ = fd_setup

    def bad(logits):
        return np.nan, np.zeros_like(logits)

    with pytest.raises(FloatingPointError):
        gradient(bad, params, x)


def test_sgd_leaves_frozen_blocks_bit_identical():
    params = small_params(seed=9)
    before = {name: block.copy() for name, block in params.blocks.items()}
    opt = Sgd(params, lr=0.1)
    rng = np.random.default_rng(9)
    for _ in range(3):
        x, y = rng.standard_normal((16, 4)), rng.integers(0, 3, 16)
        gradient(_im_pl_logit_loss(y), params, x, freeze_head=True)
        opt.step()
    assert params.blocks["head.w"].tobytes() == before["head.w"].tobytes()
    assert params.blocks["head.b"].tobytes() == before["head.b"].tobytes()
    assert not np.array_equal(params.blocks["ext0.w"], before["ext0.w"])


@pytest.mark.parametrize("frozen", [(), HEAD_BLOCKS], ids=["all", "frozen-head"])
def test_sgd_shadow_and_flat_update_match_per_block_oracle(frozen):
    params = init_params(ModelConfig(), 16, 5, 6)
    before = params.copy()
    oracle = {name: block.copy() for name, block in params.blocks.items()}
    velocity = {name: np.zeros(block.shape) for name, block in oracle.items()
                if name not in frozen}
    lr, momentum = 0.05, 0.9
    opt = Sgd(params, lr)
    rng = np.random.default_rng(8)
    for _ in range(50):
        x = rng.standard_normal((64, 16))
        y = rng.integers(0, 5, 64)
        loss_fn = _mixed_logit_loss(y, np.full(64, _CE), None, None, 0.0)
        gradient(loss_fn, params, x, freeze_head=bool(frozen))
        opt.step()
        for name, v in velocity.items():  # the per-block update, one block at a time
            v *= momentum
            v += params.grads[name]
            oracle[name] = (oracle[name].astype(np.float64) - lr * v).astype(np.float32)

    for name, block in params.blocks.items():
        assert params.shadow[name].tobytes() == block.astype(np.float64).tobytes(), name
        assert block.tobytes() == oracle[name].tobytes(), name
    for name in frozen:
        assert params.blocks[name].tobytes() == before.blocks[name].tobytes()
    x = rng.standard_normal((300, 16))
    assert forward(params, x).tobytes() == forward(params.copy(), x).tobytes()
    twin = params.copy()
    gradient(loss_fn, params, x[:64])
    gradient(loss_fn, twin, x[:64])
    assert all(params.grads[name].tobytes() == twin.grads[name].tobytes()
               for name in params.grads)
    with pytest.raises(ValueError, match="read-only"):
        params.blocks["ext0.w"][0, 0] = 1.0
    with pytest.raises(TypeError):  # a step takes no params and no grads
        opt.step(twin, twin.grads)

    clone = params.copy()
    assert_owns_exact_shadow(clone)
    owned = [*params.blocks.values(), *params.shadow.values()]
    assert not any(np.shares_memory(a, b) for a in clone.blocks.values() for b in owned)


def test_every_params_object_owns_its_storage(tmp_path):
    """init_params, load_checkpoint and copy() each give packed parameters
    with an exact shadow and buffers of their own; blocks and their mapping
    are read-only, grads are never shared, and Sgd refuses foreign grads."""
    params = init_params(ModelConfig(), 16, 5, 6)
    save_checkpoint(params, tmp_path / "model.ckpt")
    loaded, clone = load_checkpoint(tmp_path / "model.ckpt"), params.copy()
    made = [params, loaded, clone]
    for p in made:
        assert_owns_exact_shadow(p)
        assert p.blocks["ext0.w"].dtype == np.float32
    for i, a in enumerate(made):
        for b in made[i + 1:]:
            assert not any(np.shares_memory(u, v)
                           for view in ("blocks", "shadow", "grads")
                           for u in getattr(a, view).values()
                           for v in getattr(b, view).values())

    with pytest.raises(ValueError, match="read-only"):
        params.blocks["ext0.w"][0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        params.shadow["head.b"][0] = 1.0
    for view in ("blocks", "shadow", "grads"):
        with pytest.raises(TypeError):
            getattr(params, view)["head.b"] = np.zeros(5, dtype=np.float32)

    x = np.random.default_rng(0).standard_normal((32, 16))
    loss_fn = _mixed_logit_loss(np.arange(32) % 5, np.full(32, _CE), None, None, 0.0)
    gradient(loss_fn, params, x)
    grads = params.grads
    before = {name: g.copy() for name, g in grads.items()}
    gradient(loss_fn, clone, x[::-1])
    assert all(grads[name].tobytes() == before[name].tobytes() for name in grads)

    opt = Sgd(params, 0.1)
    for foreign in ({name: g.copy() for name, g in grads.items()}, clone.grads):
        with pytest.raises(TypeError):
            opt.step(params, foreign)


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    params = small_params(seed=11)
    path = tmp_path / "model.ckpt"
    assert save_checkpoint(params, path) == hashlib.sha256(path.read_bytes()).hexdigest()
    loaded = load_checkpoint(path)
    assert loaded.blocks.keys() == params.blocks.keys()
    assert_owns_exact_shadow(loaded)
    for name in params.blocks:
        assert loaded.blocks[name].dtype == np.float32
        assert loaded.blocks[name].tobytes() == params.blocks[name].tobytes()


def test_checkpoint_corruption_detected(tmp_path):
    params = small_params(seed=11)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path)
    blob = path.read_bytes()

    truncated = tmp_path / "trunc.ckpt"
    truncated.write_bytes(blob[:-10])
    with pytest.raises(CheckpointError, match="truncated|payload"):
        load_checkpoint(truncated)

    bad_magic = tmp_path / "magic.ckpt"
    bad_magic.write_bytes(b"NOTACKPT!" + blob[9:])
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(bad_magic)

    bad_version = tmp_path / "ver.ckpt"
    bad_version.write_bytes(blob[:9] + bytes([9]) + blob[10:])
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(bad_version)

    trailing = tmp_path / "trail.ckpt"
    trailing.write_bytes(blob + b"\x00\x00\x00\x00")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(trailing)

    def with_header(tensors, payload=b""):
        body = json.dumps({"tensors": tensors}).encode("utf-8")
        return blob[:10] + struct.pack("<I", len(body)) + body + payload

    for content, message in [
            (blob[:12], "truncated checkpoint"),  # magic, version and half the header length
            (blob[:10] + struct.pack("<I", len(blob)) + blob[14:], "truncated header"),
            (with_header([dict(_ENTRY, dtype="f64")], bytes(8)), "unsupported dtype 'f64'"),
            (with_header([dict(_ENTRY, offset=4)], bytes(12)), "unexpected offset for head.b"),
            (with_header([]), "checkpoint holds no tensors")]:
        path.write_bytes(content)
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)


_ENTRY = {"name": "head.b", "shape": [2], "dtype": "f32", "offset": 0}


@pytest.mark.parametrize("header", [
    [1, 2],
    "tensors",
    {"tensors": 3},
    {"tensors": [7]},
    {"tensors": [dict(_ENTRY, shape="ab")]},
    {"tensors": [dict(_ENTRY, shape=2)]},
    {"tensors": [dict(_ENTRY, shape=[-2])]},
    {"tensors": [dict(_ENTRY, shape=[1.5])]},
    {"tensors": [dict(_ENTRY, name=["head.b"])]},
    {"tensors": [dict(_ENTRY, offset="0")]},
    # Raw bytes: the second "tensors" would describe the payload exactly.
    b'{"tensors": 3, "tensors": [' + json.dumps(_ENTRY).encode() + b"]}",
], ids=["list", "string", "tensors-number", "entry-number", "shape-string",
        "shape-number", "shape-negative", "shape-float", "name-list", "offset-string",
        "repeated-key"])
def test_malformed_checkpoint_header_raises_checkpoint_error(tmp_path, header):
    body = header if isinstance(header, bytes) else json.dumps(header).encode("utf-8")
    path = tmp_path / "bad.ckpt"
    path.write_bytes(CHECKPOINT_MAGIC + bytes([CHECKPOINT_VERSION])
                     + struct.pack("<I", len(body)) + body + bytes(8))
    with pytest.raises(CheckpointError, match="malformed"):
        load_checkpoint(path)


def test_checkpoint_naming_a_tensor_twice_raises(tmp_path):
    """Two consecutive ``head.b`` entries: every offset fits, but one name would be lost."""
    body = json.dumps({"tensors": [dict(_ENTRY), dict(_ENTRY, offset=8)]}).encode("utf-8")
    path = tmp_path / "twice.ckpt"
    path.write_bytes(CHECKPOINT_MAGIC + bytes([CHECKPOINT_VERSION]) + struct.pack("<I", len(body))
                     + body + np.array([1, 2, 3, 4], dtype="<f4").tobytes())
    with pytest.raises(CheckpointError) as info:
        load_checkpoint(path)
    assert str(info.value) == f"{path}: tensor head.b appears twice"


def test_atomic_write_syncs_the_file_before_the_rename_and_the_directory_after(
        tmp_path, monkeypatch):
    """A power loss cannot be staged here, so the order of the calls is what is checked."""
    calls = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        info = os.fstat(fd)
        calls.append(("fsync", "dir" if stat.S_ISDIR(info.st_mode) else info.st_size))
        real_fsync(fd)

    def replace(src, dst):
        calls.append(("replace", os.path.basename(src), os.path.basename(dst)))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    atomic_write(tmp_path / "out.bin", b"x" * 30_000)
    # the file's bytes are flushed before its fsync, which comes before the rename
    assert calls == [("fsync", 30_000), ("replace", "out.bin.tmp", "out.bin"), ("fsync", "dir")]
    assert (tmp_path / "out.bin").read_bytes() == b"x" * 30_000
    assert os.listdir(tmp_path) == ["out.bin"]
