"""Classifier f(x) = linear head over an MLP feature extractor.

Parameters are named float32 blocks; all arithmetic runs in float64 so
analytic gradients survive finite-difference scrutiny, while checkpoints
stay bit-exact float32. Gradients are computed by an explicit reverse pass;
losses plug in as ``loss_fn(logits) -> (value, dvalue_dlogits)``.
"""

import json
import struct
from dataclasses import dataclass

import numpy as np

CHECKPOINT_MAGIC = b"CODAGCKPT"
CHECKPOINT_VERSION = 1
HEAD_BLOCKS = ("head.w", "head.b")


class CheckpointError(RuntimeError):
    """Checkpoint file is truncated, mislabeled, or inconsistent."""


@dataclass(frozen=True)
class ModelConfig:
    """Architecture: d -> hidden... -> feat_dim (ReLU between layers) -> k."""

    d: int | None = None  # resolved from data when None
    k: int | None = None
    hidden: tuple[int, ...] = (64, 64)
    feat_dim: int = 32

    def __post_init__(self):
        widths = [w for w in (self.d, *self.hidden, self.feat_dim, self.k) if w is not None]
        if any(w <= 0 for w in widths):
            raise ValueError("all layer widths must be positive")

    def extractor_widths(self) -> list[int]:
        if self.d is None:
            raise ValueError("model config not resolved: d unknown")
        return [self.d, *self.hidden, self.feat_dim]


class ClassifierParams:
    """Ordered named parameter blocks: ext{i}.w / ext{i}.b ... head.w / head.b."""

    __slots__ = ("blocks",)

    def __init__(self, blocks: dict[str, np.ndarray]):
        self.blocks = dict(blocks)

    def copy(self) -> "ClassifierParams":
        return ClassifierParams({k: v.copy() for k, v in self.blocks.items()})

    @property
    def n_ext_layers(self) -> int:
        return (len(self.blocks) - 2) // 2

    @property
    def input_dim(self) -> int:
        return self.blocks["ext0.w"].shape[0]

    @property
    def n_classes(self) -> int:
        return self.blocks["head.w"].shape[1]

    @property
    def feat_dim(self) -> int:
        return self.blocks["head.w"].shape[0]

    def allclose(self, other: "ClassifierParams", atol: float = 0.0) -> bool:
        if self.blocks.keys() != other.blocks.keys():
            return False
        return all(
            np.allclose(self.blocks[k], other.blocks[k], rtol=0.0, atol=atol)
            for k in self.blocks
        )


def init_params(config: ModelConfig, seed) -> ClassifierParams:
    """Uniform(-b, b) weights with b = sqrt(6 / (fan_in + fan_out)); zero biases."""
    rng = np.random.default_rng(seed)
    widths = config.extractor_widths()
    if config.k is None:
        raise ValueError("model config not resolved: k unknown")
    blocks: dict[str, np.ndarray] = {}
    for i, (fan_in, fan_out) in enumerate(zip(widths, widths[1:])):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        blocks[f"ext{i}.w"] = rng.uniform(-bound, bound, (fan_in, fan_out)).astype(np.float32)
        blocks[f"ext{i}.b"] = np.zeros(fan_out, dtype=np.float32)
    bound = np.sqrt(6.0 / (config.feat_dim + config.k))
    blocks["head.w"] = rng.uniform(-bound, bound, (config.feat_dim, config.k)).astype(np.float32)
    blocks["head.b"] = np.zeros(config.k, dtype=np.float32)
    return ClassifierParams(blocks)


def _as_batch(params: ClassifierParams, x) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise ValueError(
            f"input dimension mismatch: expected {params.input_dim}, got {x.shape[-1]}"
        )
    return x, single


def _forward_cached(params: ClassifierParams, x: np.ndarray):
    """Returns (feats, logits, cache); cache holds per-layer inputs and preacts."""
    n_layers = params.n_ext_layers
    a = x
    cache = []
    for i in range(n_layers):
        w = params.blocks[f"ext{i}.w"].astype(np.float64)
        b = params.blocks[f"ext{i}.b"].astype(np.float64)
        z = a @ w + b
        cache.append((a, z))
        a = np.maximum(z, 0.0) if i < n_layers - 1 else z  # no ReLU on the feature layer
    feats = a
    wh = params.blocks["head.w"].astype(np.float64)
    bh = params.blocks["head.b"].astype(np.float64)
    logits = feats @ wh + bh
    return feats, logits, cache


def forward(params: ClassifierParams, x) -> np.ndarray:
    """Logits for a single vector or a batch; rows align with inputs."""
    xb, single = _as_batch(params, x)
    _, logits, _ = _forward_cached(params, xb)
    return logits[0] if single else logits


def features(params: ClassifierParams, x) -> np.ndarray:
    """Feature-extractor output (the head's input)."""
    xb, single = _as_batch(params, x)
    feats, _, _ = _forward_cached(params, xb)
    return feats[0] if single else feats


def softmax(logits) -> np.ndarray:
    """Row-wise softmax with max subtraction; rejects non-finite input."""
    z = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise ValueError("softmax input must be finite")
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(logits) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise ValueError("log_softmax input must be finite")
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def gradient(loss_fn, params: ClassifierParams, x, freeze_head: bool = False):
    """Loss value and per-block gradients for ``loss_fn(logits)``.

    ``loss_fn`` maps the (n, K) logit matrix to ``(value, dvalue_dlogits)``;
    the reverse pass distributes dlogits through the architecture. With
    ``freeze_head`` the head blocks get exactly-zero gradients.
    """
    xb, _ = _as_batch(params, x)
    feats, logits, cache = _forward_cached(params, xb)
    loss, dlogits = loss_fn(logits)
    if not np.isfinite(loss):
        raise FloatingPointError(f"non-finite loss: {loss}")
    dlogits = np.asarray(dlogits, dtype=np.float64)

    grads: dict[str, np.ndarray] = {}
    wh = params.blocks["head.w"].astype(np.float64)
    if freeze_head:
        grads["head.w"] = np.zeros_like(params.blocks["head.w"], dtype=np.float64)
        grads["head.b"] = np.zeros_like(params.blocks["head.b"], dtype=np.float64)
    else:
        grads["head.w"] = feats.T @ dlogits
        grads["head.b"] = dlogits.sum(axis=0)
    da = dlogits @ wh.T

    n_layers = params.n_ext_layers
    for i in reversed(range(n_layers)):
        a_in, z = cache[i]
        dz = da if i == n_layers - 1 else da * (z > 0.0)
        grads[f"ext{i}.w"] = a_in.T @ dz
        grads[f"ext{i}.b"] = dz.sum(axis=0)
        if i > 0:
            w = params.blocks[f"ext{i}.w"].astype(np.float64)
            da = dz @ w.T
    return float(loss), grads


class Sgd:
    """SGD with momentum. Frozen blocks are never touched, bit for bit."""

    def __init__(self, params: ClassifierParams, lr: float, momentum: float = 0.9,
                 frozen: tuple[str, ...] = ()):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = lr
        self.momentum = momentum
        self.frozen = frozenset(frozen)
        self.velocity = {
            name: np.zeros(block.shape, dtype=np.float64)
            for name, block in params.blocks.items()
            if name not in self.frozen
        }

    def step(self, params: ClassifierParams, grads: dict[str, np.ndarray]) -> None:
        for name, v in self.velocity.items():
            v *= self.momentum
            v += grads[name]
            w = params.blocks[name].astype(np.float64)
            params.blocks[name] = (w - self.lr * v).astype(np.float32)


def save_checkpoint(params: ClassifierParams, path) -> None:
    """Magic + version byte + length-prefixed JSON header + float32 payload."""
    tensors = []
    payload = bytearray()
    for name, block in params.blocks.items():
        raw = np.ascontiguousarray(block, dtype="<f4").tobytes()
        tensors.append(
            {"name": name, "shape": list(block.shape), "dtype": "f32", "offset": len(payload)}
        )
        payload.extend(raw)
    header = json.dumps({"tensors": tensors}).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(bytes([CHECKPOINT_VERSION]))
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        fh.write(payload)


def load_checkpoint(path) -> ClassifierParams:
    with open(path, "rb") as fh:
        blob = fh.read()
    pos = len(CHECKPOINT_MAGIC)
    if blob[:pos] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic bytes")
    if len(blob) < pos + 5:
        raise CheckpointError(f"{path}: truncated checkpoint")
    version = blob[pos]
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    header_len = struct.unpack_from("<I", blob, pos + 1)[0]
    header_start = pos + 5
    header_end = header_start + header_len
    if len(blob) < header_end:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(blob[header_start:header_end].decode("utf-8"))
        tensors = header["tensors"]
    except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"{path}: malformed header: {exc}") from None
    if not isinstance(tensors, list):
        raise CheckpointError(f"{path}: malformed header: tensors must be a list")
    payload = blob[header_end:]
    blocks: dict[str, np.ndarray] = {}
    expected = 0
    for entry in tensors:
        try:
            name, shape, dtype, offset = (
                entry["name"], tuple(entry["shape"]), entry["dtype"], entry["offset"],
            )
        except (KeyError, TypeError) as exc:
            raise CheckpointError(f"{path}: malformed tensor entry: {exc}") from None
        if not (isinstance(name, str) and type(offset) is int
                and all(type(dim) is int and dim >= 0 for dim in shape)):
            raise CheckpointError(f"{path}: malformed tensor entry {name!r}")
        if dtype != "f32":
            raise CheckpointError(f"{path}: unsupported dtype {dtype!r} for {name}")
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        nbytes = count * 4
        if offset != expected:
            raise CheckpointError(f"{path}: unexpected offset for {name}")
        if offset + nbytes > len(payload):
            raise CheckpointError(f"{path}: truncated payload at {name}")
        arr = np.frombuffer(payload, dtype="<f4", count=count, offset=offset)
        blocks[name] = arr.astype(np.float32).reshape(shape)
        expected = offset + nbytes
    if expected != len(payload):
        raise CheckpointError(f"{path}: trailing bytes in payload")
    if not blocks:
        raise CheckpointError(f"{path}: checkpoint holds no tensors")
    return ClassifierParams(blocks)
