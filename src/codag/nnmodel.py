"""Classifier f(x) = linear head over an MLP feature extractor.

Parameters are named float32 blocks; all arithmetic runs in float64 so
analytic gradients survive finite-difference scrutiny, while checkpoints
stay bit-exact float32. Gradients are computed by an explicit reverse pass;
losses plug in as ``loss_fn(logits) -> (value, dvalue_dlogits)``.

Every ``ClassifierParams`` owns its storage. Its constructor packs the
blocks, in their given order, into one flat buffer whose read-only views are
the blocks, and builds an exact float64 shadow of it (``shadow``) and a
float64 gradient buffer of the same layout (``grads``). ``blocks`` is a
read-only mapping, so changing weights means building a new object.
``forward``, ``features`` and ``gradient`` take (n, d) arrays and read the
shadow; float32 to float64 is exact, so they compute on the stored weights.
``forward`` and ``features`` run long inputs in row blocks whose float64
temporaries stay at or under 64 KiB, so repeated full-set evaluation reuses
warm memory instead of faulting in fresh pages.

``gradient`` returns the loss and writes each block's gradient into its view
of ``grads`` (``out=`` products and reductions, the same arithmetic as fresh
arrays); ``Sgd.step()`` steps the parameters it was built on by that buffer,
without copying it.
"""

import hashlib
import json
import math
import os
import re
import struct
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

CHECKPOINT_MAGIC = b"CODAGCKPT"
CHECKPOINT_VERSION = 1
HEAD_BLOCKS = ("head.w", "head.b")
_TEMP_BYTES = 64 * 1024  # largest float64 temporary of one forward row block
MOMENTUM = 0.9  # of every Sgd


class CheckpointError(RuntimeError):
    """A checkpoint file has another hash, or is not what ``save_checkpoint`` writes."""


@dataclass(frozen=True)
class ModelConfig:
    """Architecture: d -> hidden... -> feat_dim (ReLU between layers) -> k; d, k from the data."""

    hidden: tuple[int, ...] = (64, 64)
    feat_dim: int = 32

    def __post_init__(self):
        if any(w <= 0 for w in (*self.hidden, self.feat_dim)):
            raise ValueError("all layer widths must be positive")


@dataclass(frozen=True)
class EpochConfig:
    """An SGD schedule: ``epochs`` passes over the rows in batches of ``batch_size``."""

    epochs: int = 60
    lr: float = 0.01
    batch_size: int = 64

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")


class ClassifierParams:
    """Ordered named parameter blocks: ext{i}.w / ext{i}.b ... head.w / head.b.

    ``blocks`` are read-only views, named and shaped as in ``shapes``, of one flat buffer
    whose dtype follows the given blocks; ``shadow`` holds their exact float64 copies and
    ``grads`` the float64 gradient buffer that ``gradient`` fills, each as one view per
    block in the same layout. All four mappings are read-only.
    """

    __slots__ = ("shapes", "blocks", "shadow", "grads", "_flat", "_flat64", "_flat_grads")

    def __init__(self, blocks):
        self.shapes = MappingProxyType({name: np.shape(block) for name, block in blocks.items()})
        self._flat = np.concatenate([np.ravel(block) for block in blocks.values()])
        self._flat64 = self._flat.astype(np.float64)
        self._flat_grads = np.empty(self._flat.size)
        self.blocks = _views(self._flat, self.shapes, writeable=False)
        self.shadow = _views(self._flat64, self.shapes, writeable=False)
        self.grads = _views(self._flat_grads, self.shapes, writeable=True)

    def __reduce__(self):  # mapping proxies do not pickle; the copy packs its own storage
        return ClassifierParams, (dict(self.blocks),)

    def copy(self) -> "ClassifierParams":
        return ClassifierParams(self.blocks)

    @property
    def input_dim(self) -> int:
        return self.blocks["ext0.w"].shape[0]

    @property
    def n_classes(self) -> int:
        return self.blocks["head.w"].shape[1]


def _views(flat: np.ndarray, shapes: dict, writeable: bool) -> MappingProxyType:
    """One view of ``flat`` per block, packed in order."""
    views, offset = {}, 0
    for name, shape in shapes.items():
        stop = offset + int(np.prod(shape, dtype=np.int64))
        views[name] = flat[offset:stop].reshape(shape)
        views[name].flags.writeable = writeable
        offset = stop
    return MappingProxyType(views)


def init_params(config: ModelConfig, d: int, k: int, seed) -> ClassifierParams:
    """Uniform(-b, b) weights with b = sqrt(6 / (fan_in + fan_out)); zero biases."""
    rng = np.random.default_rng(seed)
    widths = [d, *config.hidden, config.feat_dim]
    blocks: dict[str, np.ndarray] = {}
    for i, (fan_in, fan_out) in enumerate(zip(widths, widths[1:])):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        blocks[f"ext{i}.w"] = rng.uniform(-bound, bound, (fan_in, fan_out)).astype(np.float32)
        blocks[f"ext{i}.b"] = np.zeros(fan_out, dtype=np.float32)
    bound = np.sqrt(6.0 / (config.feat_dim + k))
    blocks["head.w"] = rng.uniform(-bound, bound, (config.feat_dim, k)).astype(np.float32)
    blocks["head.b"] = np.zeros(k, dtype=np.float32)
    return ClassifierParams(blocks)


def _as_batch(params: ClassifierParams, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise ValueError(
            f"input dimension mismatch: expected shape (n, {params.input_dim}), got {x.shape}"
        )
    return x


def _forward_cached(w, x: np.ndarray, cache: list | None = None):
    """(feats, logits) for float64 weights ``w``; appends each layer's input
    and, below the feature layer, its ReLU mask ``preact > 0`` to ``cache``
    when one is given. Biases are added in place."""
    n_layers = (len(w) - 2) // 2
    a = x
    for i in range(n_layers):
        z = a @ w[f"ext{i}.w"]
        z += w[f"ext{i}.b"]
        last = i == n_layers - 1  # no ReLU on the feature layer
        if cache is not None:
            cache.append((a, None if last else z > 0.0))
        a = z if last else np.maximum(z, 0.0, out=z)
    logits = a @ w["head.w"]
    logits += w["head.b"]
    return a, logits


def _row_edges(n: int, widest: int) -> list[int]:
    """Edges of row blocks whose float64 temporaries fit in ``_TEMP_BYTES``.

    A one-row tail takes a row from the block before it: numpy runs a
    one-row product as matrix-vector, whose sums can differ in the last bit
    from those of the matrix-matrix product over all rows at once.
    """
    edges = list(range(0, n, max(2, _TEMP_BYTES // (8 * widest)))) + [n]
    if n > 1 and n - edges[-2] == 1:
        edges[-2] -= 1
    return edges


def _blocked(params: ClassifierParams, x, keep_feats: bool):
    """(features or None, logits) from one row-blocked pass over ``x``."""
    xb = _as_batch(params, x)
    w = params.shadow
    feat_dim, k = w["head.w"].shape
    feats_out = np.empty((xb.shape[0], feat_dim)) if keep_feats else None
    logits_out = np.empty((xb.shape[0], k))
    edges = _row_edges(xb.shape[0], max(max(block.shape) for block in w.values()))
    for start, stop in zip(edges, edges[1:]):
        # No cache: each layer's temporaries die before the next block starts.
        feats, logits = _forward_cached(w, xb[start:stop])
        logits_out[start:stop] = logits
        if keep_feats:
            feats_out[start:stop] = feats
    return feats_out, logits_out


def forward(params: ClassifierParams, x) -> np.ndarray:
    """Logits of an (n, d) batch, one row per input row."""
    return _blocked(params, x, keep_feats=False)[1]


def features(params: ClassifierParams, x) -> np.ndarray:
    """Feature-extractor output (the head's input) of an (n, d) batch."""
    return _blocked(params, x, keep_feats=True)[0]


def features_and_logits(params: ClassifierParams, x) -> tuple[np.ndarray, np.ndarray]:
    """``features`` and ``forward`` of ``x`` from one pass through the extractor."""
    return _blocked(params, x, keep_feats=True)


def softmax(logits) -> np.ndarray:
    """Row-wise softmax with max subtraction; non-finite input raises FloatingPointError."""
    z = np.asarray(logits, dtype=np.float64)
    if not np.isfinite(z).all():
        raise FloatingPointError("softmax input must be finite")
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(logits) -> np.ndarray:
    """Row-wise log-softmax, C-contiguous whatever the input's layout."""
    z = np.asarray(logits, dtype=np.float64)
    if not np.isfinite(z).all():
        raise FloatingPointError("log_softmax input must be finite")
    z = np.subtract(z, np.maximum.reduce(z, axis=-1, keepdims=True), order="C")
    lse = np.add.reduce(np.exp(z), axis=-1, keepdims=True)
    z -= np.log(lse, out=lse)
    return z


def gradient(loss_fn, params: ClassifierParams, x, freeze_head: bool = False) -> float:
    """Loss value of ``loss_fn(logits)``; its per-block gradients fill ``params.grads``.

    ``loss_fn`` maps the (n, K) logit matrix to ``(value, dvalue_dlogits)``;
    the reverse pass distributes dlogits through the architecture. With
    ``freeze_head`` the head blocks get exactly-zero gradients.
    """
    xb = _as_batch(params, x)
    w = params.shadow
    cache = []
    feats, logits = _forward_cached(w, xb, cache)
    loss, dlogits = loss_fn(logits)
    if not np.isfinite(loss):
        raise FloatingPointError(f"non-finite loss: {loss}")
    dlogits = np.asarray(dlogits, dtype=np.float64)

    grads = params.grads
    if freeze_head:
        for name in HEAD_BLOCKS:
            grads[name].fill(0.0)
    else:
        np.matmul(feats.T, dlogits, out=grads["head.w"])
        np.add.reduce(dlogits, axis=0, out=grads["head.b"])
    dz = dlogits @ w["head.w"].T

    for i in reversed(range(len(cache))):
        a_in, mask = cache[i]
        if mask is not None:
            dz *= mask
        np.matmul(a_in.T, dz, out=grads[f"ext{i}.w"])
        np.add.reduce(dz, axis=0, out=grads[f"ext{i}.b"])
        if i > 0:
            dz = dz @ w[f"ext{i}.w"].T
    return float(loss)


class Sgd:
    """SGD with momentum ``MOMENTUM`` over the flat buffers of the params it is built on.

    ``step()`` updates their weights and shadow in whole-buffer operations,
    with the same per-element arithmetic as a per-block update, reading
    ``params.grads`` in place and never writing to it. A block whose grads
    are always exactly zero (the head under ``gradient(..., freeze_head=True)``)
    keeps a zero velocity, so every step leaves it bit-identical.
    """

    def __init__(self, params: ClassifierParams, lr: float):
        self.lr = lr
        self._w32, self._w64 = params._flat, params._flat64
        self._grad = params._flat_grads
        self._scratch = np.empty(params._flat.size)
        self.velocity = np.zeros(params._flat.size)

    def step(self) -> None:
        """One update by the current ``params.grads``; raises FloatingPointError
        when a weight leaves the finite range."""
        v, t = self.velocity, self._scratch
        v *= MOMENTUM
        v += self._grad
        np.multiply(v, self.lr, out=t)
        np.subtract(self._w64, t, out=t)
        self._w32[...] = t
        self._w64[...] = self._w32
        if not np.isfinite(self._w64).all():
            raise FloatingPointError("non-finite weights after an SGD step")


def train_epochs(params0: ClassifierParams, n: int, config: EpochConfig,
                 shuffle: np.random.Generator, epoch_setup, on_epoch=None) -> ClassifierParams:
    """``config.epochs`` epochs of ``Sgd`` over ``n`` rows on a copy of ``params0``.

    Per epoch: one permutation from ``shuffle``; ``epoch_setup(epoch, params,
    perm)`` returns the phase and ``batch_loss(rows)``, which calls ``gradient``
    on a slice of the permuted rows and returns its loss; one step per slice;
    then ``on_epoch(epoch, params, mean_loss, phase)``. A ``FloatingPointError``
    gains phase and epoch.
    """
    params = params0.copy()
    opt = Sgd(params, config.lr)
    for epoch in range(config.epochs):
        perm = shuffle.permutation(n)
        phase, batch_loss = epoch_setup(epoch, params, perm)
        losses = []
        try:
            for start in range(0, n, config.batch_size):
                losses.append(batch_loss(slice(start, start + config.batch_size)))
                opt.step()
        except FloatingPointError as exc:
            raise FloatingPointError(f"{phase} phase, epoch {epoch}: {exc}") from exc
        if on_epoch is not None:
            on_epoch(epoch, params, float(np.mean(losses)), phase)
    return params


def atomic_write(path, data: bytes) -> None:
    """Replace ``path`` with ``data`` so that a reader sees the old file or the new one.

    The bytes go to a temporary file in the same directory, which is flushed
    to disk (``fsync``) and then renamed over ``path``; the directory is
    synced after the rename, so the new entry outlasts a crash too (a rename
    alone is not durable on common file systems: Pillai et al., OSDI 2014).
    A kill leaves at most the temporary file, which the next write of
    ``path`` replaces.
    """
    tmp = f"{os.fspath(path)}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def unique_keys(pairs) -> dict:
    """``json``'s ``object_pairs_hook``: the object as a dict, refusing a repeated key."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"repeated key {next(k for k in keys if keys.count(k) > 1)!r}")
    return obj


def parse_json(text: str):
    """``json.loads`` refusing a repeated key; nesting deeper than Python's
    recursion limit is a ``ValueError`` too."""
    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except RecursionError:
        raise ValueError("invalid JSON: nested too deeply") from None


def read_json(path):
    """The JSON value in the UTF-8 file ``path``; a ``ValueError`` names ``path`` and
    the line of a syntax error or a bad byte."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return parse_json(blob.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: line {exc.lineno}: invalid JSON: {exc.msg}") from None
    except UnicodeDecodeError as exc:
        lineno = blob.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}: line {lineno}: not UTF-8 text") from None
    except ValueError as exc:  # a repeated key, or nesting too deep
        raise ValueError(f"{path}: {exc}") from None


def _checkpoint_head(shapes: dict) -> bytes:
    """Every byte of a checkpoint before its float32 blocks of these names and shapes:
    magic, version byte, header length, and the JSON header of each block's name,
    shape, dtype and payload offset."""
    tensors, offset = [], 0
    for name, shape in shapes.items():
        tensors.append({"name": name, "shape": list(shape), "dtype": "f32", "offset": offset})
        offset += 4 * math.prod(shape)
    header = json.dumps({"tensors": tensors}).encode("utf-8")
    return CHECKPOINT_MAGIC + bytes([CHECKPOINT_VERSION]) + struct.pack("<I", len(header)) + header


def save_checkpoint(params: ClassifierParams, path) -> str:
    """``_checkpoint_head`` of the blocks, then their values as little-endian float32;
    returns the sha256 of the bytes written."""
    blob = _checkpoint_head(params.shapes) + params._flat.astype("<f4").tobytes()
    atomic_write(path, blob)
    return hashlib.sha256(blob).hexdigest()


def _stored_shapes(blob: bytes) -> dict:
    """The block names and shapes that a checkpoint's header lists, found by pattern,
    for a reader that does not know the model; the head they give then judges the file."""
    start = len(CHECKPOINT_MAGIC) + 5
    header = blob[start:start + int.from_bytes(blob[start - 4:start], "little")].decode("latin-1")
    found = re.findall(r'"name": "([^"\\]+)", "shape": \[(\d{1,12}(?:, \d{1,12})*)\]', header)
    return {name: tuple(map(int, dims.split(", "))) for name, dims in found}


def load_checkpoint(path, like: ClassifierParams | None = None,
                    sha256: str | None = None) -> ClassifierParams:
    """The blocks that ``save_checkpoint`` wrote to ``path`` for ``like``'s names and shapes
    (without ``like``, those its header lists): the file must be their ``_checkpoint_head``
    and float32 values, and with ``sha256``, hash to it."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if sha256 is not None and hashlib.sha256(blob).hexdigest() != sha256:
        raise CheckpointError(f"{path}: sha256 differs from the one recorded at save time")
    shapes = _stored_shapes(blob) if like is None else like.shapes
    head = _checkpoint_head(shapes)
    if (not shapes or not blob.startswith(head)
            or len(blob) != len(head) + 4 * sum(map(math.prod, shapes.values()))):
        layout = ", ".join(f"{name}{list(shape)}" for name, shape in shapes.items())
        raise CheckpointError(f"{path}: head bytes or length do not match the model's {layout}")
    return ClassifierParams(_views(np.frombuffer(blob, "<f4", offset=len(head)), shapes, False))
