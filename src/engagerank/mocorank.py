"""Momentum-queue ranking loss and the baseline losses it is compared against.

The ranking mechanism keeps a slowly updated copy of the model (the momentum
encoder) and a FIFO pool of (label, score, embedding) triplets it produced.
Each training batch is ranked against every pool entry with a hinge whose
margin grows with the label gap and adapts to the cosine similarity of the
two embeddings.  Pool entries are constants: gradients reach only the batch
scores and, through the margin cosine, the batch embeddings.

The loss is evaluated in label blocks: with the batch and the pool sorted by
label, every (batch label, pool label) pair set is one rectangle of the pair
matrix, with a constant sign and margin offset.  No label-gap matrix is
built; one product over widened rows gives the cross-label residuals, and
one product of the live-hinge mask with the unit pool embeddings gives the
embedding gradient (see ``_margin_loss_and_kinks``).

Baselines: MSE to bin midpoints, softmax cross-entropy, class-balanced focal
loss, and a center-loss regularizer with the usual mean-shift center update.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import model as model_mod
from .featurepipe import LATENT_EDGES, Dataset, N_CLASSES

MIDPOINTS = (LATENT_EDGES[:-1] + LATENT_EDGES[1:]) / 2   # each class band's midpoint
CENTER_RATE = 0.5                  # center_loss's mean-shift step


def _check_rows(labels: np.ndarray, scores: np.ndarray, embeddings: np.ndarray,
                field: str) -> None:
    """Refuse pool rows with non-integer or out-of-range labels, out-of-range
    scores or non-finite embeddings.  ``field.format(name)`` starts each
    error, so it names the offending array."""
    if labels.dtype.kind not in "iu":
        raise ValueError(f"{field.format('labels')}dtype {labels.dtype} is not an "
                         f"integer type")
    if np.any((labels < 0) | (labels >= N_CLASSES)):
        raise ValueError(f"{field.format('labels')}label outside 0..{N_CLASSES - 1}")
    if not np.all(np.abs(scores) <= 1.0 + model_mod.SCORE_TOL):
        raise ValueError(f"{field.format('scores')}score out of range")
    if not np.all(np.isfinite(embeddings)):
        raise ValueError(f"{field.format('embeddings')}non-finite value")


@dataclass
class ScorePoolEntry:
    label: int
    score: float
    embedding: np.ndarray

    def __post_init__(self):
        self.embedding = np.asarray(self.embedding, dtype=np.float64)
        _check_rows(np.asarray(self.label), np.asarray(self.score, dtype=np.float64),
                    self.embedding, "{}: ")


class ScorePool:
    """Fixed-capacity FIFO of scored samples, stored as flat arrays."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("pool capacity must be positive")
        self.capacity = capacity
        self._labels = np.zeros(capacity, dtype=np.int64)
        self._scores = np.zeros(capacity)
        self._embeddings: Optional[np.ndarray] = None
        self._count = 0
        self._next = 0

    def __len__(self) -> int:
        return self._count

    @property
    def full(self) -> bool:
        return self._count == self.capacity

    @property
    def labels(self) -> np.ndarray:
        return self._labels[:self._count]

    @property
    def scores(self) -> np.ndarray:
        return self._scores[:self._count]

    @property
    def embeddings(self) -> np.ndarray:
        if self._embeddings is None:
            raise ValueError("empty pool")
        return self._embeddings[:self._count]

    def push(self, labels, scores, embeddings) -> "ScorePool":
        """Append a batch, evicting the same number of oldest entries if full.

        ``labels`` must have an integer dtype; float labels are refused, not
        truncated.  ``embeddings`` of None, which ``model.score_batch``
        returns for a batch scored partly through the audio branch, is
        refused.
        """
        if embeddings is None:
            raise ValueError("cannot pool a mixed visual/audio batch")
        labels = np.asarray(labels)
        scores = np.asarray(scores, dtype=np.float64).reshape(-1)
        embeddings = np.asarray(embeddings, dtype=np.float64)
        _check_rows(labels, scores, embeddings, "{}: ")
        labels = labels.astype(np.int64, copy=False).reshape(-1)
        b = labels.size
        if b == 0:
            return self
        if b > self.capacity:
            raise ValueError(
                f"cannot push {b} entries into a pool of capacity {self.capacity}")
        if scores.shape != (b,) or embeddings.shape[0] != b or embeddings.ndim != 2:
            raise ValueError("labels, scores, and embeddings must agree in batch size")
        if self._embeddings is None:
            self._embeddings = np.zeros((self.capacity, embeddings.shape[1]))
        elif embeddings.shape[1] != self._embeddings.shape[1]:
            raise ValueError("pool embedding length changed")
        # ring write: position _next is always the oldest slot once full
        idx = (self._next + np.arange(b)) % self.capacity
        self._labels[idx] = labels
        self._scores[idx] = scores
        self._embeddings[idx] = embeddings
        self._next = int((self._next + b) % self.capacity)
        self._count = min(self._count + b, self.capacity)
        return self

    def entries(self) -> list[ScorePoolEntry]:
        """Current contents, oldest first."""
        if self._count == 0:
            return []
        if self.full:
            order = (self._next + np.arange(self.capacity)) % self.capacity
        else:
            order = np.arange(self._count)
        return [ScorePoolEntry(int(self._labels[i]), float(self._scores[i]),
                               self._embeddings[i].copy()) for i in order]

    def state(self) -> dict:
        """Raw ring-buffer arrays for bit-exact checkpointing.

        The internal slot order is part of the state: restoring entries in a
        rotated order would change floating-point reduction order in the loss.
        """
        return {
            "labels": self._labels.copy(),
            "scores": self._scores.copy(),
            "embeddings": (self._embeddings.copy() if self._embeddings is not None
                           else np.zeros((0, 0))),
            "count": self._count,
            "next": self._next,
            "capacity": self.capacity,
        }

    @classmethod
    def from_state(cls, state: dict) -> "ScorePool":
        """Rebuild a pool from ``state()`` output, refusing inconsistent rings.

        Errors name the offending field, so a corrupt checkpoint fails on load
        rather than inside the loss.
        """
        for name in ("capacity", "count", "next"):
            if type(state[name]) is not int:
                raise ValueError(f"pool state field {name!r}: {state[name]!r} is not "
                                 f"an integer")
        pool = cls(state["capacity"])
        cap, count, nxt = pool.capacity, state["count"], state["next"]
        labels = np.asarray(state["labels"])
        scores = np.asarray(state["scores"], dtype=np.float64)
        emb = np.asarray(state["embeddings"], dtype=np.float64)
        if not 0 <= count <= cap:
            raise ValueError(f"pool state field 'count': {count} outside 0..{cap}")
        if not 0 <= nxt < cap or (count < cap and nxt != count):
            raise ValueError(f"pool state field 'next': {nxt} inconsistent with "
                             f"count {count} and capacity {cap}")
        for name, arr in (("labels", labels), ("scores", scores)):
            if arr.shape != (cap,):
                raise ValueError(f"pool state field {name!r}: shape {arr.shape}, "
                                 f"expected ({cap},)")
        if emb.size and (emb.ndim != 2 or emb.shape[0] != cap):
            raise ValueError(f"pool state field 'embeddings': shape {emb.shape}, "
                             f"expected ({cap}, dim)")
        if count and not emb.size:
            raise ValueError("pool state field 'embeddings': missing for a "
                             "non-empty pool")
        # slots past count are never read, but every embedding slot is checked
        _check_rows(labels[:count], scores[:count], emb, "pool state field {!r}: ")
        pool._labels[...] = labels
        pool._scores[...] = scores
        if emb.size:
            pool._embeddings = emb.copy()
        pool._count = count
        pool._next = nxt
        return pool


@dataclass
class MomentumEncoder:
    """Slowly trailing copy of the model, used to score pool entries.

    Its rate is not stored here: each ``momentum_update`` call passes it.
    """

    params: model_mod.ModelParams

    @classmethod
    def from_model(cls, params: model_mod.ModelParams):
        return cls(params=params.copy())


def momentum_update(enc: MomentumEncoder, model_params: model_mod.ModelParams,
                    m: float) -> MomentumEncoder:
    """In-place w_m <- m*w_m + (1-m)*w on the parameter vector; returns enc."""
    if enc.params.layout != model_params.layout:
        raise ValueError("momentum encoder parameters do not match the model")
    wm = enc.params.vector
    wm *= m
    wm += (1.0 - m) * model_params.vector
    return enc


def pool_init(dataset: Dataset, enc: MomentumEncoder, capacity: int,
              seed: int) -> ScorePool:
    """Fill a fresh pool class-balanced, in shuffled slot order.

    Each class gets capacity // 4 slots; when capacity % 4 is not zero, that
    many classes, drawn from the pool's RNG, get one more.  Classes short on
    records are sampled with replacement.  The distinct picked records are
    scored once by the momentum encoder, and each slot takes its record's
    score and embedding, so a record picked twice fills byte-identical slots.
    ``score_batch`` scores a record the same in any batch, so these are the
    bytes a scoring of every slot would give.
    """
    rng = np.random.default_rng(seed)
    base, extra = divmod(capacity, N_CLASSES)
    counts = np.full(N_CLASSES, base)
    if extra:
        counts[rng.choice(N_CLASSES, size=extra, replace=False)] += 1
    labels = dataset.labels()
    picked = []
    for cls in range(N_CLASSES):
        cls_idx = np.flatnonzero(labels == cls)
        if cls_idx.size == 0:
            raise ValueError(f"class {cls} missing; score pool needs every class")
        picked.append(rng.choice(cls_idx, size=counts[cls],
                                 replace=cls_idx.size < counts[cls]))
    slots = np.concatenate(picked)[rng.permutation(capacity)]
    # A mask, not np.unique: the first call of its sort kernels alone adds
    # about 0.4 MB of resident memory.
    in_pool = np.zeros(labels.size, dtype=bool)
    in_pool[slots] = True
    distinct = np.flatnonzero(in_pool)
    row = np.cumsum(in_pool)[slots] - 1
    batch = model_mod.prepare_batch([dataset.records[i] for i in distinct],
                                    enc.params.config)
    scores, embeddings, _ = model_mod.score_batch(enc.params, batch)
    return ScorePool(capacity).push(labels[slots], scores[row],
                                    None if embeddings is None else embeddings[row])


# ---------------------------------------------------------------------------
# Ranking loss
# ---------------------------------------------------------------------------

def _unit_rows(a: np.ndarray, out: np.ndarray):
    """Write the rows of a, scaled to unit length, into out (which may be a).

    Returns the row norms, with zero norms read as 1, and the mask of
    zero-norm rows.  Those rows stay zero, so every cosine they enter is 0.
    """
    norms = np.sqrt(np.einsum("ij,ij->i", a, a))
    dead = norms == 0.0
    norms[dead] = 1.0
    np.divide(a, norms[:, None], out=out)
    return norms, dead


def _warn_zero_norm(*dead: np.ndarray) -> None:
    if any(d.any() for d in dead):
        warnings.warn("zero-norm embedding; cosine taken as 0", RuntimeWarning,
                      stacklevel=3)


def _label_order(labels: np.ndarray, *minor_keys: np.ndarray):
    """Stable order by label, then by the minor keys, and the N_CLASSES + 1
    bounds of each label's run."""
    order = np.lexsort((*minor_keys, labels))
    bounds = np.searchsorted(labels[order], np.arange(N_CLASSES + 1))
    return order, bounds.tolist()


def _margin_loss_and_kinks(scores, labels, embeddings, pool: ScorePool,
                           detach_margin: bool = False):
    """The ranking loss of ``multi_margin_loss``, plus where its kinks sit.

    The batch is sorted by label and the pool by label, then score, so the
    pairs of one batch label and one pool label form one rectangle of the
    (B, P) pair matrix.  With c the pool label and sgn = sign(l_i - c), a
    cross-label residual is

        f_ij = 0.25 cos_ij + (0.5 |l_i - c| - 0.25 - sgn s_i) + sgn p_j,

    so one product of widened rows builds them all:
    [0.25 e_hat_i | const_i | sgn_i] . [p_hat_j | onehot_j | onehot_j p_j],
    where const_i and sgn_i hold a value per pool label and onehot_j picks
    entry j's.  The same-label rectangles are overwritten with |s_i - p_j|,
    and two binary searches in each sorted pool block count the signs of
    s_i - p_j.  The matrix then becomes the live-hinge mask in place, and
    live @ [p_hat | onehot] gives the embedding gradient's pool sum and each
    row's live count per pool label.

    Returns (loss, d_scores, d_embeddings, live, ranks), the gradients in
    batch order.  ``live`` is the (B, P) 0/1 mask of live cross-label hinges
    and ``ranks`` the (B, 2) counts of same-label pool scores below and above
    each s_i, which fix the sign of every same-label difference, both in the
    sorted order.  Gradient checks compare these two across calls to skip
    steps that cross a kink.
    """
    if len(pool) == 0:
        raise ValueError("empty pool")
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    embeddings = np.asarray(embeddings, dtype=np.float64)
    b = scores.size
    if labels.shape != (b,) or embeddings.shape[0] != b:
        raise ValueError("scores, labels, and embeddings must agree in batch size")
    d = embeddings.shape[1]
    rows, rb = _label_order(labels)
    if rb[0] != 0 or rb[-1] != b:
        raise ValueError(f"label must be 0..{N_CLASSES - 1}")
    cols, cb = _label_order(pool.labels, pool.scores)
    p = cols.size
    ss, ls, ps = scores[rows], labels[rows], pool.scores[cols]

    e_hat = embeddings[rows]
    e_norms, e_dead = _unit_rows(e_hat, e_hat)
    wide_pool = np.empty((p, d + 2 * N_CLASSES))
    _, p_dead = _unit_rows(pool.embeddings[cols], wide_pool[:, :d])
    _warn_zero_norm(e_dead, p_dead)
    onehot = np.equal(pool.labels[cols, None], np.arange(N_CLASSES),
                      out=wide_pool[:, d:d + N_CLASSES])
    np.multiply(onehot, ps[:, None], out=wide_pool[:, d + N_CLASSES:])

    wide_batch = np.empty((b, d + 2 * N_CLASSES))
    np.multiply(e_hat, 0.25, out=wide_batch[:, :d])
    gap = ls[:, None] - np.arange(N_CLASSES)
    sgn = np.sign(gap, out=wide_batch[:, d + N_CLASSES:])
    wide_batch[:, d:d + N_CLASSES] = 0.5 * np.abs(gap) - 0.25 - sgn * ss[:, None]

    f = wide_batch @ wide_pool.T
    ranks = np.empty((b, 2), dtype=np.int64)
    for c in range(N_CLASSES):
        r, k = slice(rb[c], rb[c + 1]), slice(cb[c], cb[c + 1])
        np.abs(np.subtract(ss[r, None], ps[k], out=f[r, k]), out=f[r, k])
        ranks[r, 0] = np.searchsorted(ps[k], ss[r], side="left")
        ranks[r, 1] = cb[c + 1] - cb[c] - np.searchsorted(ps[k], ss[r], side="right")
    scale = 1.0 / (b * p)
    np.maximum(f, 0.0, out=f)
    loss = float(f.sum() * scale)
    live = np.greater(f, 0.0, out=f)                     # subgradient 0 at f == 0
    for c in range(N_CLASSES):
        live[rb[c]:rb[c + 1], cb[c]:cb[c + 1]] = 0.0

    # d f / d s_i is -sgn on a live cross-label pair, summed from the live
    # counts per pool label, and sign(s_i - p_j) on a same-label one, summed
    # as the count below s_i less the count above
    pooled = live @ (onehot if detach_margin else wide_pool[:, :d + N_CLASSES])
    d_scores = np.empty(b)
    d_scores[rows] = (ranks[:, 0] - ranks[:, 1]
                      - np.einsum("ij,ij->i", pooled[:, -N_CLASSES:], sgn)) * scale
    d_embeddings = np.zeros_like(embeddings)
    if not detach_margin:
        # the loss takes w = 0.25 / (B P) per unit of cosine on each live
        # cross-label pair; with cos_ij = e_hat_i . p_hat_j and G = w live @ p_hat,
        # sum_j w (p_hat_j - cos_ij e_hat_i) = G_i - (G_i . e_hat_i) e_hat_i
        grad = pooled[:, :d]
        grad *= 0.25 * scale
        grad -= np.einsum("ij,ij->i", grad, e_hat)[:, None] * e_hat
        grad /= e_norms[:, None]
        grad[e_dead] = 0.0
        d_embeddings[rows] = grad
    return loss, d_scores, d_embeddings, live, ranks


def multi_margin_loss(scores: np.ndarray, labels: np.ndarray,
                      embeddings: np.ndarray, pool: ScorePool,
                      detach_margin: bool = False):
    """Mean hinge over every (batch sample, pool entry) pair.

    Same-label pairs pay the absolute score difference; cross-label pairs pay
    the shortfall of the score gap against a margin that widens with the
    label gap and with the cosine similarity of the embeddings.  Returns
    (loss, d_scores, d_embeddings); pool entries receive no gradient, and
    ``detach_margin`` stops the gradient that flows through the cosine.
    """
    loss, d_scores, d_embeddings, _, _ = _margin_loss_and_kinks(
        scores, labels, embeddings, pool, detach_margin)
    return loss, d_scores, d_embeddings


# ---------------------------------------------------------------------------
# Baseline losses
# ---------------------------------------------------------------------------

def mse_loss(scores: np.ndarray, labels: np.ndarray):
    """Mean squared error of scores against per-class bin midpoints."""
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    targets = MIDPOINTS[labels]
    resid = scores - targets
    loss = float(np.mean(resid ** 2))
    return loss, 2.0 * resid / scores.size


def _log_softmax(logits: np.ndarray):
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return shifted - lse


def ce_loss(logits: np.ndarray, labels: np.ndarray):
    """Softmax cross-entropy, mean over the batch."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    b = labels.size
    logp = _log_softmax(logits)
    loss = float(-logp[np.arange(b), labels].mean())
    d = np.exp(logp)
    d[np.arange(b), labels] -= 1.0
    return loss, d / b


def cb_focal_loss(logits: np.ndarray, labels: np.ndarray, class_counts,
                  beta: float = 0.9999, gamma: float = 2.0):
    """Class-balanced focal loss: effective-number weights times a focal term.

    The weight for class y is (1-beta)/(1-beta^n_y) and the focal term is
    (1-p_y)^gamma * (-log p_y).  beta=0 and gamma=0 reduce to cross-entropy.
    """
    if not 0.0 <= beta < 1.0:
        raise ValueError("beta must be in [0, 1)")
    counts = np.asarray(class_counts, dtype=np.float64).reshape(-1)
    if counts.size != N_CLASSES or np.any(counts <= 0):
        raise ValueError("class counts must be positive for all classes")
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    b = labels.size

    w = ((1.0 - beta) / (1.0 - beta ** counts))[labels]

    logp = _log_softmax(logits)
    p = np.exp(logp)
    idx = np.arange(b)
    py = p[idx, labels]
    log_py = logp[idx, labels]
    one_minus = np.maximum(1.0 - py, 0.0)
    focal = one_minus ** gamma * (-log_py)
    loss = float(np.mean(w * focal))

    # dF/dp_y, with the gamma=0 branch avoiding 0^(gamma-1)
    if gamma == 0.0:
        df_dpy = -1.0 / py
    else:
        df_dpy = gamma * one_minus ** (gamma - 1.0) * log_py - one_minus ** gamma / py
    chain = w * df_dpy * py / b                            # (B,)
    d = -chain[:, None] * p
    d[idx, labels] += chain
    return loss, d


@dataclass
class ClassCenters:
    """One feature-space anchor per class, moved toward its class mean."""

    values: np.ndarray

    @classmethod
    def zeros(cls, embed_dim: int) -> "ClassCenters":
        return cls(values=np.zeros((N_CLASSES, embed_dim)))

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.shape[0] != N_CLASSES:
            raise ValueError(f"centers must be {N_CLASSES} x embed_dim")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("centers must be finite")


def center_loss(embeddings: np.ndarray, labels: np.ndarray,
                centers: ClassCenters, weight: float = 0.2):
    """Pull embeddings toward their class centers.

    Loss is weight * mean of half squared distances.  Gradients go to the
    embeddings only; the returned centers are a new object moved toward each
    class's batch mean by the mean-shift rule delta = sum(c - e)/(1 + n),
    scaled by ``CENTER_RATE``.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    b = labels.size
    c_y = centers.values[labels]
    resid = embeddings - c_y
    loss = float(weight * 0.5 * np.sum(resid ** 2) / b)
    d_embeddings = weight * resid / b

    new_values = centers.values.copy()
    for cls in np.unique(labels):
        mask = labels == cls
        n = int(mask.sum())
        delta = (centers.values[cls] - embeddings[mask]).sum(axis=0) / (1.0 + n)
        new_values[cls] = centers.values[cls] - CENTER_RATE * delta
    return loss, d_embeddings, ClassCenters(values=new_values)
