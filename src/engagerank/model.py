"""The scoring network and its exact reverse-mode gradients.

The model encodes chunked frame summaries with a stack of causal dilated
convolutions, pools the encoding with attention weights computed from the
global video feature, concatenates a projection of that global feature, and
scores the result with a cosine head (normalized feature against a normalized
weight vector, no bias), so every score lands in [-1, 1].  An optional audio
branch projects a speech embedding, concatenates it with the visual feature
and the acoustic metadata, and scores through a second cosine head.  The
parameters decide whether it runs: a model built with ``with_audio`` scores
every record that carries speech through the branch, and any other model
scores every record visually.

Everything is float64 numpy.  ``ModelParams`` keeps every weight in one
contiguous vector with named views into it.  ``prepare_batch`` turns records
into a ``Batch`` of stacked arrays.  The temporal encoder runs time-major:
it moves the (B, 3D, T) batch to (C, T*B) on entry, runs each conv as K
shifted products over the whole batch, and hands back (B, C, T).  So a
record's bits can move with the row count of its forward.  Train-mode forward
passes record the intermediates needed for an exact backward pass, which
accumulates into named views of one zeroed gradient vector laid out like that
buffer.  Those caches hold float64 conv inputs and one-byte ReLU and dropout
masks; forward and backward apply the masks in place.  Eval-mode forward
passes keep no such caches and cannot be differentiated.  ``score_batch``,
the one eval-mode scoring path, forwards tiles of ``TILE_ROWS`` rows, so its
outputs do not depend on the batching.
"""

from __future__ import annotations

import itertools
import math
import warnings
from copy import copy as shallow_copy
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from . import featurepipe
from .featurepipe import AUDIO_META_DIM, N_CLASSES, SampleRecord

FUSIONS = ("openface_only", "attention_only", "concat_only", "concat+attention")
HEADS = ("scalar", "categorical")

CLASS_THRESHOLDS = featurepipe.LATENT_EDGES[1:-1]   # the synthetic class bands' inner edges
SCORE_TOL = 1e-9        # rounding a score in [-1, 1] may carry
TILE_ROWS = 32          # rows per eval-mode forward in score_batch (README)


@dataclass(frozen=True)
class ModelConfig:
    """Shapes and switches of the scoring network."""

    n_channels: int = featurepipe.DEFAULT_CHANNELS  # per-frame channels (chunk input is 3x)
    n_chunks: int = featurepipe.DEFAULT_CHUNKS
    width: int = 64               # channels of the temporal encoder and fusion MLPs
    global_dim: int = featurepipe.DEFAULT_GLOBAL_DIM
    speech_dim: int = featurepipe.SPEECH_DIM
    dropout: float = 0.1
    kernel_size: int = 3
    dilations: tuple = (1, 2, 4)
    fusion: str = "concat+attention"
    head: str = "scalar"
    with_audio: bool = False
    min_frames: int = featurepipe.DEFAULT_MIN_FRAMES

    def __post_init__(self):
        if self.fusion not in FUSIONS:
            raise ValueError(f"fusion must be one of {FUSIONS}, got {self.fusion!r}")
        if self.head not in HEADS:
            raise ValueError(f"head must be one of {HEADS}, got {self.head!r}")
        if self.with_audio and self.head != "scalar":
            raise ValueError("the audio branch requires the scalar head")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout!r}")
        for name in ("width", "n_chunks", "n_channels", "global_dim", "speech_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)!r}")

    @property
    def chunk_rows(self) -> int:
        return 3 * self.n_channels

    @property
    def uses_attention(self) -> bool:
        return self.fusion in ("attention_only", "concat+attention")

    @property
    def uses_concat(self) -> bool:
        return self.fusion in ("concat_only", "concat+attention")

    @property
    def embed_dim(self) -> int:
        return 2 * self.width if self.uses_concat else self.width

    @property
    def audio_embed_dim(self) -> int:
        return self.embed_dim + self.speech_dim + AUDIO_META_DIM

    @property
    def score_embed_dim(self) -> int:
        """Width of the embeddings the scores use: multimodal with the audio branch."""
        return self.audio_embed_dim if self.with_audio else self.embed_dim


class ModelParams:
    """All trainable tensors: one contiguous float64 ``vector``, packed from a
    dict of arrays in key order, with each named tensor a reshaped view into it."""

    def __init__(self, config: ModelConfig, arrays: dict[str, np.ndarray]):
        self.config = config
        arrays = {k: np.asarray(v, dtype=np.float64) for k, v in arrays.items()}
        self.layout = tuple((k, v.shape) for k, v in arrays.items())
        ends = list(itertools.accumulate((v.size for v in arrays.values()), initial=0))
        self.slices = {k: slice(a, b) for k, a, b in zip(arrays, ends, ends[1:])}
        self.n_params = ends[-1]
        self.vector = np.concatenate([v.ravel() for v in arrays.values()])
        self._views = self.unflatten(self.vector)

    def keys(self):
        return self._views.keys()

    def items(self):
        return self._views.items()

    def __contains__(self, key) -> bool:
        return key in self._views

    def __getitem__(self, key: str) -> np.ndarray:
        return self._views[key]

    def copy(self) -> "ModelParams":
        """An independent copy: one new vector with fresh views over it."""
        new = shallow_copy(self)
        new.vector = self.vector.copy()
        new._views = new.unflatten(new.vector)
        return new

    def flat(self) -> np.ndarray:
        return self.vector.copy()

    def set_flat(self, vec: np.ndarray) -> None:
        self.vector[...] = self._check_length(vec)

    def unflatten(self, vec: np.ndarray) -> dict[str, np.ndarray]:
        """View a flat vector as named blocks shaped like the parameters."""
        vec = self._check_length(vec)
        return {k: vec[self.slices[k]].reshape(shape) for k, shape in self.layout}

    def _check_length(self, vec) -> np.ndarray:
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (self.n_params,):
            raise ValueError(f"flat vector must have length {self.n_params}")
        return vec

    def key_at(self, flat_index: int) -> str:
        for k, s in self.slices.items():
            if s.start <= flat_index < s.stop:
                return k
        raise IndexError(flat_index)

    def visual_keys(self) -> list[str]:
        return [k for k in self.slices if not k.startswith("audio.")]


def param_layout(config: ModelConfig) -> tuple:
    """The (key, shape) pairs of the model's tensors, in vector order."""
    c, k, in_ch, sd = config.width, config.kernel_size, config.chunk_rows, config.speech_dim
    layout = []
    for i, _ in enumerate(config.dilations):
        layout += [(f"tcn.{i}.conv1.w", (c, in_ch, k)), (f"tcn.{i}.conv1.b", (c,)),
                   (f"tcn.{i}.conv2.w", (c, c, k)), (f"tcn.{i}.conv2.b", (c,))]
        if in_ch != c:
            layout += [(f"tcn.{i}.down.w", (c, in_ch)), (f"tcn.{i}.down.b", (c,))]
        in_ch = c
    for mlp, used in (("mlp1", config.uses_attention), ("mlp2", config.uses_concat)):
        if used:
            layout += [(f"{mlp}.fc1.w", (c, config.global_dim)), (f"{mlp}.fc1.b", (c,)),
                       (f"{mlp}.fc2.w", (c, c)), (f"{mlp}.fc2.b", (c,))]
    if config.head == "scalar":
        layout.append(("head.w", (config.embed_dim,)))
    else:
        layout += [("cat.w", (N_CLASSES, config.embed_dim)), ("cat.b", (N_CLASSES,))]
    if config.with_audio:
        layout += [("audio.fc.w", (sd, sd)), ("audio.fc.b", (sd,)),
                   ("audio.head.w", (config.audio_embed_dim,))]
    return tuple(layout)


def init_params(config: ModelConfig, seed: int = 0) -> ModelParams:
    """Seeded initialization over ``param_layout``: zero biases, and weights
    drawn in order from N(0, 1/fan_in), fan_in the product of the shape after
    its first axis, or the length of a 1-D weight."""
    rng = np.random.default_rng(seed)
    return ModelParams(config, {
        key: np.zeros(shape) if key.endswith(".b")
        else rng.standard_normal(shape) / np.sqrt(math.prod(shape[1:] or shape))
        for key, shape in param_layout(config)})


# ---------------------------------------------------------------------------
# Primitive layers (batched, with caches for backward)
# ---------------------------------------------------------------------------

def _causal_conv(x: np.ndarray, w: np.ndarray, dilation: int, b: int) -> np.ndarray:
    """Causal dilated conv of time-major sequences: (C, T*B) -> (O, T*B).

    Column ``t*B + r`` of ``x`` holds step t of record r, so tap j, which
    reads ``(K-1-j)*dilation`` steps back, is one product on ``x`` shifted
    right by that many blocks of B columns.  A shift by whole steps never
    crosses records; the output's first shifted steps get no term from the
    tap, which is the zero padding of a causal conv.  A tap that reaches
    past the last step is skipped.
    """
    kernel = w.shape[2]
    n = x.shape[1]
    out = w[:, :, kernel - 1] @ x
    for j in range(kernel - 1):
        shift = (kernel - 1 - j) * dilation * b
        if shift < n:
            out[:, shift:] += w[:, :, j] @ x[:, :n - shift]
    return out


def _conv_weight_grad(dout: np.ndarray, x: np.ndarray, dw: np.ndarray, dilation: int,
                      b: int) -> None:
    """Accumulate dLoss/dw of ``_causal_conv`` into ``dw`` (O, C, K)."""
    kernel = dw.shape[2]
    n = x.shape[1]
    for j in range(kernel):
        shift = (kernel - 1 - j) * dilation * b
        if shift < n:
            dw[:, :, j] += dout[:, shift:] @ x[:, :n - shift].T


def _conv_input_grad(dout: np.ndarray, w: np.ndarray, dilation: int, b: int) -> np.ndarray:
    """dLoss/dx of ``_causal_conv``: (O, T*B) -> (C, T*B)."""
    kernel = w.shape[2]
    n = dout.shape[1]
    dx = w[:, :, kernel - 1].T @ dout
    for j in range(kernel - 1):
        shift = (kernel - 1 - j) * dilation * b
        if shift < n:
            dx[:, :n - shift] += w[:, :, j].T @ dout[:, shift:]
    return dx


def _keep_mask(rate: float, train: bool, rng, shape, axes=None) -> Optional[np.ndarray]:
    """A one-byte dropout keep mask, ``rng.random(shape) >= rate`` with its
    axes moved to ``axes``, stored C-ordered; None when nothing drops."""
    if not train or rate <= 0.0:
        return None
    if rng is None:
        raise ValueError("training mode with dropout requires an rng")
    draw = rng.random(shape)
    if axes is not None:
        draw = draw.transpose(axes)
    return np.greater_equal(draw, rate, out=np.empty(draw.shape, dtype=bool))


def _time_major_mask(rate: float, train: bool, rng, b: int, ch: int,
                     t: int) -> Optional[np.ndarray]:
    """A keep mask drawn as (B, C, T), as a batch-major layer draws it, in
    the time-major (C, T*B) layout."""
    keep = _keep_mask(rate, train, rng, (b, ch, t), axes=(1, 2, 0))
    return None if keep is None else keep.reshape(ch, t * b)


def _drop(x: np.ndarray, keep: Optional[np.ndarray], rate: float) -> np.ndarray:
    """Apply a keep mask to ``x`` in place and return it.  ``keep`` is 0 or 1,
    so ``x *= keep; x *= 1 / (1 - rate)`` gives the bits of ``x`` times the
    float mask ``keep / (1 - rate)``, sign of zero included."""
    if keep is not None:
        x *= keep
        x *= 1.0 / (1.0 - rate)
    return x


def _tcn_block_forward(x, params, prefix, dilation, b, train, rng):
    """One residual block on time-major (C, T*B) activations; in training
    also the cache its backward needs.

    Bias, ReLU and residual add in place into each conv's fresh output.
    """
    dropout = params.config.dropout
    w1, w2 = params[f"{prefix}.conv1.w"], params[f"{prefix}.conv2.w"]
    o = w1.shape[0]
    t = x.shape[1] // b
    h1 = _causal_conv(x, w1, dilation, b)
    h1 += params[f"{prefix}.conv1.b"][:, None]
    s1 = h1 > 0 if train else None
    np.maximum(h1, 0.0, out=h1)
    m1 = _time_major_mask(dropout, train, rng, b, o, t)
    _drop(h1, m1, dropout)
    out = _causal_conv(h1, w2, dilation, b)
    out += params[f"{prefix}.conv2.b"][:, None]
    s2 = out > 0 if train else None
    np.maximum(out, 0.0, out=out)
    m2 = _time_major_mask(dropout, train, rng, b, o, t)
    _drop(out, m2, dropout)
    if f"{prefix}.down.w" in params:
        res = params[f"{prefix}.down.w"] @ x
        res += params[f"{prefix}.down.b"][:, None]
        out += res
    else:
        out += x
    s_out = out > 0 if train else None
    np.maximum(out, 0.0, out=out)
    if not train:
        return out, None
    return out, {"x": x, "dilation": dilation, "s1": s1, "m1": m1, "h1": h1,
                 "s2": s2, "m2": m2, "s_out": s_out}


def _tcn_block_backward(dout, cache, params, prefix, b, grads, need_dx=True):
    """Accumulate the block's parameter gradients; return its input gradient
    (time-major, like ``dout``), or None without ``need_dx`` (the network
    input takes no gradient).

    Masks and ReLU gates apply in place, to ``dout`` and to the arrays made
    here; the cache is only read, so a trace can be differentiated twice.
    """
    dilation = cache["dilation"]
    rate = params.config.dropout
    w1, w2 = params[f"{prefix}.conv1.w"], params[f"{prefix}.conv2.w"]
    dpre_out = dout
    dpre_out *= cache["s_out"]
    dpre2 = dpre_out * cache["s2"]
    _drop(dpre2, cache["m2"], rate)
    _conv_weight_grad(dpre2, cache["h1"], grads[f"{prefix}.conv2.w"], dilation, b)
    grads[f"{prefix}.conv2.b"] += dpre2.sum(axis=1)
    dpre1 = _conv_input_grad(dpre2, w2, dilation, b)
    del dpre2                      # gone before the input gradient is made
    _drop(dpre1, cache["m1"], rate)
    dpre1 *= cache["s1"]
    _conv_weight_grad(dpre1, cache["x"], grads[f"{prefix}.conv1.w"], dilation, b)
    grads[f"{prefix}.conv1.b"] += dpre1.sum(axis=1)
    has_down = f"{prefix}.down.w" in params
    if has_down:
        grads[f"{prefix}.down.w"] += dpre_out @ cache["x"].T
        grads[f"{prefix}.down.b"] += dpre_out.sum(axis=1)
    if not need_dx:
        return None
    dx = _conv_input_grad(dpre1, w1, dilation, b)
    if has_down:
        dx += params[f"{prefix}.down.w"].T @ dpre_out
    else:
        dx += dpre_out
    return dx


def _affine_forward(x, w, b):
    return x @ w.T + b


def _affine_backward(dout, x, grads, prefix):
    """Accumulate the weight and bias gradients of ``_affine_forward``; a
    caller that needs the input gradient takes ``dout @ w`` itself."""
    grads[f"{prefix}.w"] += dout.T @ x
    grads[f"{prefix}.b"] += dout.sum(axis=0)


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _cosine_score(x: np.ndarray, w: np.ndarray):
    """Cosine of each row of x against w; zero rows score 0 with a warning."""
    xn = np.linalg.norm(x, axis=-1)
    wn = np.linalg.norm(w)
    degenerate = xn == 0.0
    if np.any(degenerate):
        warnings.warn("zero-norm feature vector scored as 0", RuntimeWarning, stacklevel=3)
    safe_xn = np.where(degenerate, 1.0, xn)
    s = (x @ w) / (safe_xn * wn)
    s = np.where(degenerate, 0.0, s)
    return s, {"x": x, "w": w, "xn": safe_xn, "wn": wn, "degenerate": degenerate, "s": s}


def _cosine_score_backward(ds, cache, dw_out):
    x, w = cache["x"], cache["w"]
    xn, wn = cache["xn"], cache["wn"]
    s = cache["s"]
    live = ~cache["degenerate"]
    ds = ds * live
    x_hat = x / xn[:, None]
    w_hat = w / wn
    dx = ds[:, None] * (w_hat[None, :] - s[:, None] * x_hat) / xn[:, None]
    dw_out += ((ds[:, None] * (x_hat - s[:, None] * w_hat[None, :])).sum(axis=0)) / wn
    return dx


# ---------------------------------------------------------------------------
# Forward stages, one by one, in eval mode.  ``forward_batch`` runs the same
# private functions; these four exist for perfbench's per-stage timing
# (``stage_split``) and go when it does.
# ---------------------------------------------------------------------------

def temporal_encoder(chunks, params: ModelParams) -> np.ndarray:
    """Encode (B, 3D, T) chunk summaries to (B, width, T).

    The batch runs time-major, so each conv tap is one product over all its
    records: a record's encoding matches its lone encoding in all but the
    last bits, and the same batch always gives the same bits.
    """
    return _tcn_forward(chunks, params, False, None)[0]


def _tcn_forward(x, params: ModelParams, train, rng):
    """(B, 3D, T) chunks -> (B, C, T) encoding, run as (C, T*B) in between."""
    cfg = params.config
    b, rows, t = x.shape
    if rows != cfg.chunk_rows:
        raise ValueError(
            f"temporal encoder expects {cfg.chunk_rows} input channels, got {rows}")
    x = x.transpose(1, 2, 0).reshape(rows, t * b)
    caches = []
    for i, dil in enumerate(cfg.dilations):
        x, cache = _tcn_block_forward(x, params, f"tcn.{i}", dil, b, train, rng)
        caches.append(cache)
    return x.reshape(-1, t, b).transpose(2, 0, 1), caches


def _tcn_backward(dout, caches, params: ModelParams, grads) -> None:
    """Accumulate the encoder's gradients from dLoss/d(B, C, T) encoding."""
    cfg = params.config
    b, ch, t = dout.shape
    # always a copy (a lone record's reshape would be a view): the blocks
    # gate their gradient in place
    dout = np.array(dout.transpose(1, 2, 0), order="C").reshape(ch, t * b)
    for i in reversed(range(len(cfg.dilations))):
        dout = _tcn_block_backward(dout, caches[i], params, f"tcn.{i}", b, grads,
                                   need_dx=i > 0)


def attention_fuse(encoded, global_feat, params: ModelParams):
    """Pool the (B, C, T) encoding with softmax attention driven by the
    (B, d) global feature; returns (pooled, attention weights)."""
    pooled, attn, _ = _attention_forward(encoded, global_feat, params, False, None)
    return pooled, attn


def _attention_forward(encoded, global_feat, params: ModelParams, train, rng):
    cfg = params.config
    cache = {}
    if cfg.uses_attention:
        h = _affine_forward(global_feat, params["mlp1.fc1.w"], params["mlp1.fc1.b"])
        m = _keep_mask(cfg.dropout, train, rng, h.shape)
        hd = _drop(h, m, cfg.dropout)
        q = _affine_forward(hd, params["mlp1.fc2.w"], params["mlp1.fc2.b"])
        logits = np.einsum("bc,bct->bt", q, encoded)
        attn = _softmax(logits)
        cache.update(m=m, hd=hd, q=q, global_feat=global_feat)
    else:
        t = encoded.shape[2]
        attn = np.full((encoded.shape[0], t), 1.0 / t)
    pooled = np.einsum("bct,bt->bc", encoded, attn)
    cache.update(encoded=encoded, attn_out=attn)
    return pooled, attn, cache


def _attention_backward(dpooled, cache, params: ModelParams, grads):
    cfg = params.config
    encoded, attn = cache["encoded"], cache["attn_out"]
    denc = np.einsum("bc,bt->bct", dpooled, attn)
    if not cfg.uses_attention:
        return denc
    dattn = np.einsum("bct,bc->bt", encoded, dpooled)
    dlogits = attn * (dattn - (attn * dattn).sum(axis=1, keepdims=True))
    dq = np.einsum("bct,bt->bc", encoded, dlogits)
    denc += np.einsum("bc,bt->bct", cache["q"], dlogits)
    _affine_backward(dq, cache["hd"], grads, "mlp1.fc2")
    dh = _drop(dq @ params["mlp1.fc2.w"], cache["m"], cfg.dropout)
    _affine_backward(dh, cache["global_feat"], grads, "mlp1.fc1")
    return denc


def concat_fuse(global_feat, pooled, params: ModelParams):
    """Concatenate the projected (B, d) global feature with the (B, C) pooled
    encoding."""
    return _concat_forward(global_feat, pooled, params)[0]


def _concat_forward(global_feat, pooled, params: ModelParams):
    cfg = params.config
    if not cfg.uses_concat:
        return pooled, {"z_dim": 0}
    pre = _affine_forward(global_feat, params["mlp2.fc1.w"], params["mlp2.fc1.b"])
    h = np.maximum(pre, 0.0)
    z = _affine_forward(h, params["mlp2.fc2.w"], params["mlp2.fc2.b"])
    cache = {"s": pre > 0, "h": h, "global_feat": global_feat, "z_dim": z.shape[1]}
    return np.concatenate([z, pooled], axis=1), cache


def _concat_backward(dfused, cache, params: ModelParams, grads):
    zd = cache["z_dim"]
    if zd == 0:
        return dfused
    dz, dpooled = dfused[:, :zd], dfused[:, zd:]
    _affine_backward(dz, cache["h"], grads, "mlp2.fc2")
    dpre = (dz @ params["mlp2.fc2.w"]) * cache["s"]
    _affine_backward(dpre, cache["global_feat"], grads, "mlp2.fc1")
    return dpooled


def score_head(x, params: ModelParams):
    """Cosine score of each (B, E) feature row against the head weight."""
    return _cosine_score(x, params["head.w"])[0]


def classify(score):
    """Map scores to engagement levels with thresholds at -0.5, 0, and 0.5.

    Intervals are closed on the left of each upper threshold: a score of
    exactly 0 is ENGAGED, exactly 0.5 is HIGHLY_ENGAGED.
    """
    s = np.asarray(score, dtype=np.float64)
    if not np.all(np.abs(s) <= 1.0 + SCORE_TOL):
        raise ValueError("score out of range")
    levels = np.digitize(s, CLASS_THRESHOLDS, right=False)
    if np.isscalar(score) or s.ndim == 0:
        return int(levels)
    return levels.astype(np.int64)


def _audio_forward(fused, speech, meta, params: ModelParams):
    """Score through the audio branch; returns (score, multimodal embedding,
    cache)."""
    xsp = _affine_forward(speech, params["audio.fc.w"], params["audio.fc.b"])
    xprime = np.concatenate([fused, xsp, meta], axis=1)
    s, head_cache = _cosine_score(xprime, params["audio.head.w"])
    cache = {"speech": speech, "fused_dim": fused.shape[1], "xsp_dim": xsp.shape[1],
             "head": head_cache}
    return s, xprime, cache


def _audio_backward(ds, dxprime_extra, cache, params: ModelParams, grads):
    dxprime = _cosine_score_backward(ds, cache["head"], grads["audio.head.w"])
    if dxprime_extra is not None:
        dxprime = dxprime + dxprime_extra
    fd, sd = cache["fused_dim"], cache["xsp_dim"]
    dfused = dxprime[:, :fd]
    dxsp = dxprime[:, fd:fd + sd]
    _affine_backward(dxsp, cache["speech"], grads, "audio.fc")
    return dfused


# ---------------------------------------------------------------------------
# Full forward / backward
# ---------------------------------------------------------------------------

@dataclass
class Trace:
    """Everything one forward pass produced.

    A train-mode trace carries the caches its backward pass reads; the
    temporal encoder's hold each block's time-major (C, T*B) float64 conv
    inputs and its one-byte (bool) ReLU and dropout keep masks.  Backward
    only reads them, so it can run twice on one trace.  An eval-mode trace
    carries none (``cache`` is None), so ``backward`` and ``relu_signature``
    refuse it.  ``encoded`` is a (B, C, T) view of the encoder's time-major
    output; it matches each record's lone encoding up to rounding.
    """

    config: ModelConfig
    mode: str
    encoded: np.ndarray            # (B, C, T)
    attn: np.ndarray               # (B, T)
    fused: np.ndarray              # (B, embed_dim) visual pre-head feature
    score: np.ndarray              # (B,) final score per record
    embedding: Optional[np.ndarray]  # (B, E) pre-head feature the score used
    logits: Optional[np.ndarray]   # (B, 4) when the categorical head is active
    audio_used: np.ndarray         # (B,) bool
    cache: Optional[dict]

    @property
    def batch_size(self) -> int:
        return self.score.shape[0]


def forward_batch(chunks: np.ndarray, global_feat: np.ndarray, params: ModelParams,
                  mode: str = "eval", speech: np.ndarray = None, meta: np.ndarray = None,
                  has_speech: np.ndarray = None, rng=None) -> Trace:
    """Run the network on a prepared batch.

    ``chunks`` is (B, 3D, T) and ``global_feat`` is (B, d).  The audio branch
    follows the params: when their config has ``with_audio`` and the batch
    carries ``speech``, records flagged in ``has_speech`` are scored through
    the audio branch and the rest fall back to the visual score.  A mixed
    batch is fine for evaluation but has no single pre-head embedding, so its
    trace cannot be used for backward.  Only train mode keeps backward caches.
    """
    if mode not in ("train", "eval"):
        raise ValueError("mode must be 'train' or 'eval'")
    chunks = np.asarray(chunks, dtype=np.float64)
    global_feat = np.asarray(global_feat, dtype=np.float64)
    train = mode == "train"
    cfg = params.config
    if global_feat.shape[1] != cfg.global_dim:
        raise ValueError(f"global feature has global_dim {global_feat.shape[1]}, but "
                         f"the model's is {cfg.global_dim}")
    encoded, tcn_caches = _tcn_forward(chunks, params, train, rng)
    pooled, attn, attn_cache = _attention_forward(encoded, global_feat, params, train, rng)
    fused, concat_cache = _concat_forward(global_feat, pooled, params)

    cache = {"tcn": tcn_caches, "attn": attn_cache, "concat": concat_cache}
    logits = None
    b = fused.shape[0]
    audio_used = np.zeros(b, dtype=bool)
    embedding: Optional[np.ndarray] = fused

    if cfg.head == "categorical":
        logits = _affine_forward(fused, params["cat.w"], params["cat.b"])
        score = np.zeros(b)
        cache["head"] = None
    else:
        score, head_cache = _cosine_score(fused, params["head.w"])
        cache["head"] = head_cache

    if cfg.with_audio and speech is not None:
        if has_speech is None:
            has_speech = np.ones(b, dtype=bool)
        has_speech = np.asarray(has_speech, dtype=bool)
        if has_speech.any():
            # on every row, so no score depends on how many rows carry speech
            a_score, xprime, a_cache = _audio_forward(fused, speech, meta, params)
            score = np.where(has_speech, a_score, score)
            audio_used = has_speech
            cache["audio"] = a_cache
            embedding = xprime if has_speech.all() else None

    return Trace(config=cfg, mode=mode, encoded=encoded, attn=attn, fused=fused,
                 score=score, embedding=embedding, logits=logits,
                 audio_used=audio_used, cache=cache if train else None)


class Batch(NamedTuple):
    """Records prepared for the batched forward: one row per record.

    ``speech`` and ``meta`` are None when no record carries speech or the
    model has no audio branch; rows of records without speech are zero.
    """

    chunks: np.ndarray             # (B, 3D, T) chunk summaries
    gfeat: np.ndarray              # (B, d) global features
    speech: Optional[np.ndarray]   # (B, speech_dim)
    meta: Optional[np.ndarray]     # (B, AUDIO_META_DIM)
    has_speech: np.ndarray         # (B,) bool

    def take(self, idx) -> "Batch":
        """The rows ``idx`` (an index array or a slice) of every field."""
        return Batch(*(None if a is None else a[idx] for a in self))


def prepare_batch(records: list[SampleRecord], config: ModelConfig) -> Batch:
    """Pad and chunk-summarize records, in one ``chunk_summarize_batch`` call
    on their raw frames at the config's ``min_frames`` floor, into the
    stacked arrays of a ``Batch``.  Short clips are read as if padded, with
    no padded copy.  A record whose frame channels, global feature or speech
    embedding differ in size from the config's is refused, naming the field;
    a visual model reads no speech, leaving ``speech`` and ``meta`` None."""
    want = (config.n_channels, config.global_dim, config.speech_dim)
    for r in records:
        have = (r.frames.n_channels, r.global_feature.size,
                r.speech_embedding.size if r.has_speech and config.with_audio else want[2])
        if have != want:
            i = next(i for i in range(3) if have[i] != want[i])
            field, name = (("frames", "n_channels"), ("global_feature", "global_dim"),
                           ("speech_embedding", "speech_dim"))[i]
            raise ValueError(f"record {r.id!r}: field {field!r} gives {name} {have[i]}, "
                             f"but the model's is {want[i]}")
    chunks = featurepipe.chunk_summarize_batch(
        [r.frames for r in records], config.n_chunks, config.min_frames)
    gfeat = np.stack([r.global_feature for r in records])
    speech = meta = None
    has_speech = np.array([r.has_speech for r in records])
    if config.with_audio and has_speech.any():
        speech = np.zeros((len(records), config.speech_dim))
        meta = np.zeros((len(records), AUDIO_META_DIM))
        for i, r in enumerate(records):
            if r.has_speech:
                speech[i] = r.speech_embedding
                meta[i] = r.audio_meta
    return Batch(chunks, gfeat, speech, meta, has_speech)


def score_batch(params: ModelParams, batch: Batch):
    """Eval-mode (scores, embeddings, logits) of a prepared batch.

    Rows go through ``forward_batch`` in tiles of ``TILE_ROWS``, the last one
    filled up with copies of its last row, so a record's outputs have the same
    bytes in any batch.  The params decide the audio branch, as there.  Scores
    are per record; logits are None without the categorical head; embeddings
    are the pre-head features the scores used, and None when some records of
    the batch went through the audio branch and others did not.
    """
    n = len(batch.chunks)
    outs = []                      # each tile's outputs; its trace goes at once
    for lo in range(0, n, TILE_ROWS):
        rows = (slice(lo, lo + TILE_ROWS) if lo + TILE_ROWS <= n
                else np.minimum(np.arange(lo, lo + TILE_ROWS), n - 1))
        t = batch.take(rows)
        tr = forward_batch(t.chunks, t.gfeat, params, mode="eval", speech=t.speech,
                           meta=t.meta, has_speech=t.has_speech)
        outs.append((tr.score, tr.audio_used, tr.embedding, tr.logits))
    scores, audio_used, embeddings, logits = zip(*outs)
    scores = np.concatenate(scores)[:n]
    audio_used = np.concatenate(audio_used)[:n]
    embeddings = (None if audio_used.any() and not audio_used.all()
                  else np.concatenate(embeddings)[:n])
    logits = (None if params.config.head != "categorical"
              else np.concatenate(logits)[:n])
    return scores, embeddings, logits


def backward(trace: Trace, params: ModelParams, d_score=None, d_embed=None,
             d_logits=None) -> np.ndarray:
    """Exact reverse-mode gradients for the traced forward pass.

    ``d_score`` is dLoss/dscore per record, ``d_embed`` dLoss/dembedding
    (the pre-head feature the score used), and ``d_logits`` dLoss/dlogits for
    the categorical head.  Returns one gradient vector laid out like
    ``params.vector``; each tensor's gradient accumulates into its named view.
    The trace must come from a train-mode forward, whose caches hold the
    activations the gradient is taken at; an eval trace keeps none and is
    refused.
    """
    if trace.config is not params.config:
        if trace.config != params.config:
            raise ValueError("trace and params come from different model configurations")
    b = trace.batch_size
    if trace.audio_used.any() and not trace.audio_used.all():
        raise ValueError("cannot backpropagate a mixed visual/audio batch")
    if trace.cache is None:
        raise ValueError("backward needs a train-mode trace; an eval trace keeps "
                         "no backward caches")
    audio = bool(trace.audio_used.all()) and "audio" in trace.cache

    g = np.zeros(params.n_params)
    grads = params.unflatten(g)
    d_score = np.zeros(b) if d_score is None else np.asarray(d_score, dtype=np.float64)
    if d_score.shape != (b,):
        raise ValueError("d_score must have one entry per record")

    if audio:
        dfused = _audio_backward(d_score, d_embed, trace.cache["audio"], params, grads)
    else:
        dfused = np.zeros_like(trace.fused)
        if trace.config.head == "scalar":
            dfused += _cosine_score_backward(d_score, trace.cache["head"], grads["head.w"])
        elif np.any(d_score):
            raise ValueError("categorical-head trace has no scalar score to differentiate")
        if d_embed is not None:
            dfused += d_embed
        if d_logits is not None:
            if trace.logits is None:
                raise ValueError("trace has no categorical logits")
            d_logits = np.asarray(d_logits, dtype=np.float64)
            _affine_backward(d_logits, trace.fused, grads, "cat")
            dfused += d_logits @ params["cat.w"]

    dpooled = _concat_backward(dfused, trace.cache["concat"], params, grads)
    # no name keeps the (B, C, T) gradient once the encoder has its copy
    _tcn_backward(_attention_backward(dpooled, trace.cache["attn"], params, grads),
                  trace.cache["tcn"], params, grads)
    return g


def relu_signature(trace: Trace) -> np.ndarray:
    """Concatenated boolean masks of every kink site in the forward pass.

    Finite-difference checks compare signatures at perturbed points against
    the center; a changed mask means the perturbation crossed a kink and the
    coordinate cannot be checked at that step size.  Only a train-mode trace
    keeps the masks.
    """
    if trace.cache is None:
        raise ValueError("relu_signature needs a train-mode trace; an eval trace "
                         "keeps no ReLU masks")
    parts = []
    for c in trace.cache["tcn"]:
        parts.extend([c["s1"].ravel(), c["s2"].ravel(), c["s_out"].ravel()])
    if "s" in trace.cache["concat"]:
        parts.append(trace.cache["concat"]["s"].ravel())
    return np.concatenate(parts)
