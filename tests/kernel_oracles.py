"""Frozen copies of the training and herding kernels, as oracles.

These are ``nnmodel.gradient``, ``generalize._mixed_logit_loss``,
``adapt._im_pl_logit_loss`` and ``replay.herding_select`` in their
allocate-per-call form, with the helpers they call. They are not to be
edited: ``test_kernels.py`` holds the package's kernels to the same bytes.
"""

import numpy as np

_SKIP, _CE, _NL = 0, 1, 2


def log_softmax(logits) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise ValueError("log_softmax input must be finite")
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def kl_divergence(q, p, axis: int = -1) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    terms = np.where(q > 0, q * (np.log(np.where(q > 0, q, 1.0)) - np.log(p)), 0.0)
    return terms.sum(axis=axis)


def _weights(params) -> dict[str, np.ndarray]:
    if params.shadow is not None:
        return params.shadow
    return {name: block.astype(np.float64) for name, block in params.blocks.items()}


def _forward_cached(w, x, cache=None):
    n_layers = (len(w) - 2) // 2
    a = x
    for i in range(n_layers):
        z = a @ w[f"ext{i}.w"] + w[f"ext{i}.b"]
        if cache is not None:
            cache.append((a, z))
        a = np.maximum(z, 0.0) if i < n_layers - 1 else z
    return a, a @ w["head.w"] + w["head.b"]


def gradient(loss_fn, params, x, freeze_head: bool = False):
    xb = np.asarray(x, dtype=np.float64)
    w = _weights(params)
    cache = []
    feats, logits = _forward_cached(w, xb, cache)
    loss, dlogits = loss_fn(logits)
    if not np.isfinite(loss):
        raise FloatingPointError(f"non-finite loss: {loss}")
    dlogits = np.asarray(dlogits, dtype=np.float64)

    grads: dict[str, np.ndarray] = {}
    if freeze_head:
        grads["head.w"] = np.zeros_like(params.blocks["head.w"], dtype=np.float64)
        grads["head.b"] = np.zeros_like(params.blocks["head.b"], dtype=np.float64)
    else:
        grads["head.w"] = feats.T @ dlogits
        grads["head.b"] = dlogits.sum(axis=0)
    da = dlogits @ w["head.w"].T

    n_layers = (len(params.blocks) - 2) // 2
    for i in reversed(range(n_layers)):
        a_in, z = cache[i]
        dz = da if i == n_layers - 1 else da * (z > 0.0)
        grads[f"ext{i}.w"] = a_in.T @ dz
        grads[f"ext{i}.b"] = dz.sum(axis=0)
        if i > 0:
            da = dz @ w[f"ext{i}.w"].T
    return float(loss), grads


def mixed_logit_loss(y, kinds, comp, q, alpha: float, clip_eps: float):
    def loss_fn(logits):
        logp = log_softmax(logits)
        p = np.exp(logp)
        n = logits.shape[0]
        dl = np.zeros_like(p)
        total = 0.0

        n_labeled = int(np.count_nonzero(kinds != _SKIP))
        if n_labeled:
            rows = np.arange(n)
            ce, nl = kinds == _CE, kinds == _NL
            target = y if comp is None else np.where(nl, comp, y)
            pt = p[rows, target]
            keep = 1.0 - pt
            label_sum = float(-np.log(np.maximum(pt[ce], clip_eps)).sum())
            label_sum += float(-np.log(np.maximum(keep[nl], clip_eps)).sum())
            total += label_sum / n_labeled
            ce &= pt > clip_eps
            nl &= keep > clip_eps
            coef = pt[nl] / keep[nl]
            dl[ce] = p[ce]
            dl[nl] = 0.0 - coef[:, None] * p[nl]
            shift = np.zeros(n)
            shift[ce] = -1.0
            shift[nl] = coef
            dl[rows, target] += shift
            dl /= n_labeled

        if q is not None and alpha > 0:
            total += alpha * float(np.mean(kl_divergence(q, p)))
            dl += alpha * (p - q) / n
        return total, dl

    return loss_fn


def im_pl_logit_loss(pl_labels, im_weight: float, beta: float):
    def loss_fn(logits):
        with np.errstate(divide="ignore", invalid="ignore"):
            logp = log_softmax(logits)
            p = np.exp(logp)
            n, _ = p.shape

            rowdot = (p * logp).sum(axis=1)
            h_cond = float(-rowdot.mean())
            pbar = p.mean(axis=0)
            log_pbar = np.log(pbar)
            h_marg = float(-(pbar * log_pbar).sum())
            im = h_cond - h_marg
            cross = p @ log_pbar
            d_im = (p / n) * (-logp + rowdot[:, None] - cross[:, None] + log_pbar[None, :])

            ce = float(-logp[np.arange(n), pl_labels].mean())
            d_ce = p.copy()
            d_ce[np.arange(n), pl_labels] -= 1.0
            d_ce /= n

        return im_weight * im + beta * ce, im_weight * d_im + beta * d_ce

    return loss_fn


@np.errstate(over="ignore", invalid="ignore")
def herding_select(feature_vectors, m: int) -> np.ndarray:
    feats = np.asarray(feature_vectors, dtype=np.float64)
    n = feats.shape[0]
    if m > n:
        raise ValueError(f"cannot select {m} of {n} items")
    mu = feats.mean(axis=0)
    rows, left = feats.copy(), np.arange(n)
    work, dists = np.empty_like(feats), np.empty(n)
    running = np.zeros(feats.shape[1])
    order = np.empty(m, dtype=np.int64)
    for step in range(1, m + 1):
        r = n - step + 1
        cand, dist = work[:r], dists[:r]
        np.add(running, rows[:r], out=cand)
        np.divide(cand, step, out=cand)
        np.subtract(mu, cand, out=cand)
        np.multiply(cand, cand, out=cand)
        np.add.reduce(cand, axis=1, out=dist)
        np.sqrt(dist, out=dist)
        j = int(np.argmin(dist))
        order[step - 1] = left[j]
        running += rows[j]
        rows[j:r - 1] = rows[j + 1:r]
        left[j:r - 1] = left[j + 1:r]
    return order
