"""Training orchestration: optimizer, schedule, the ranking-loss loop,
two-stage multimodal training, evaluation, checkpoints, and gradient checks.

The loop is deterministic end to end: one seeded generator drives sampling,
dropout, and pool initialization, reductions run in fixed order, and a saved
checkpoint restores every piece of mutable state (parameters, momentum copy,
optimizer moments, score pool ring, centers, generator state) bit for bit.
Bitwise results, and so bitwise resume, hold at a fixed BLAS thread count:
the matrix products may sum in another order under another count, and a
checkpoint does not record it.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import logging
import math
import os
import zipfile
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Optional, get_args, get_type_hints

import numpy as np

from . import featurepipe, metrics, mocorank
from . import model as model_mod
from .featurepipe import Dataset, N_CLASSES
from .metrics import MetricsReport
from .mocorank import ClassCenters, MomentumEncoder, ScorePool

logger = logging.getLogger("engagerank")

SAMPLERS = ("sequential", "class_balanced")
SUBSETS = ("all", "speech_only")        # which records evaluate scores
CHECKPOINT_VERSION = "1"


# ---------------------------------------------------------------------------
# Loss table
# ---------------------------------------------------------------------------
# Each loss maps (config, trace, labels, pool, centers, class_counts) to
# (loss, d_score, d_embed, d_logits, centers): the output-side gradients the
# backward pass takes, and the class centers after this batch.

def _margin_loss(config, trace, labels, pool, centers, class_counts):
    loss, d_score, d_embed = mocorank.multi_margin_loss(
        trace.score, labels, trace.embedding, pool, detach_margin=config.detach_margin)
    return loss, d_score, d_embed, None, centers


def _mse_loss(config, trace, labels, pool, centers, class_counts):
    loss, d_score = mocorank.mse_loss(trace.score, labels)
    return loss, d_score, None, None, centers


def _ce_loss(config, trace, labels, pool, centers, class_counts):
    loss, d_logits = mocorank.ce_loss(trace.logits, labels)
    return loss, None, None, d_logits, centers


def _cb_focal_loss(config, trace, labels, pool, centers, class_counts):
    loss, d_logits = mocorank.cb_focal_loss(trace.logits, labels, class_counts,
                                            beta=config.cb_beta, gamma=config.cb_gamma)
    return loss, None, None, d_logits, centers


def _plus_center(base):
    """``base`` followed by the center-loss regularizer on the embedding."""
    def loss_fn(config, trace, labels, pool, centers, class_counts):
        loss, d_score, d_embed, d_logits, _ = base(config, trace, labels, pool,
                                                   centers, class_counts)
        closs, d_c, centers = mocorank.center_loss(trace.embedding, labels, centers,
                                                   config.center_weight)
        d_embed = d_c if d_embed is None else d_embed + d_c
        return loss + closs, d_score, d_embed, d_logits, centers
    return loss_fn


class Loss(NamedTuple):
    head: str
    needs_pool: bool
    needs_centers: bool
    fn: Callable


LOSS_TABLE = {
    "mocorank": Loss("scalar", True, False, _margin_loss),
    "mocorank+center": Loss("scalar", True, True, _plus_center(_margin_loss)),
    "mse": Loss("scalar", False, False, _mse_loss),
    "ce": Loss("categorical", False, False, _ce_loss),
    "cb_focal": Loss("categorical", False, False, _cb_focal_loss),
    "ce+center": Loss("categorical", False, True, _plus_center(_ce_loss)),
}
LOSSES = tuple(LOSS_TABLE)
CATEGORICAL_LOSSES = tuple(k for k, v in LOSS_TABLE.items() if v.head == "categorical")


@dataclass(frozen=True)
class TrainConfig:
    """Everything a training run depends on, seed included."""

    loss: str = "mocorank"
    batch_size: int = 32
    pool_size: int = 256
    epochs: int = 60
    lr_start: float = 5e-4
    lr_end: float = 5e-7
    weight_decay: float = 1e-3
    momentum: float = 0.999
    sampler: Optional[str] = None      # None picks the loss-appropriate default
    use_audio: bool = False
    ablation: str = "concat+attention"
    seed: int = 0
    # where the CLI read the data, kept as a record; training takes datasets
    train_path: Optional[str] = None
    val_path: Optional[str] = None
    center_weight: float = 0.2
    cb_beta: float = 0.9999
    cb_gamma: float = 2.0
    detach_margin: bool = False
    score_before_step: bool = False    # score the batch with the momentum
                                       # encoder before (not after) the step
    stage2_epochs: Optional[int] = None
    init_from: Optional[str] = None
    # model shape
    n_channels: int = featurepipe.DEFAULT_CHANNELS
    global_dim: int = featurepipe.DEFAULT_GLOBAL_DIM
    width: int = 32
    n_chunks: int = featurepipe.DEFAULT_CHUNKS
    dropout: float = 0.1
    speech_dim: int = featurepipe.SPEECH_DIM
    min_frames: int = featurepipe.DEFAULT_MIN_FRAMES

    def __post_init__(self):
        for name, (kind, optional) in config_field_types().items():
            value = getattr(self, name)
            if value is None and optional:
                continue
            # a JSON integer is a valid float; a bool is no number
            allowed = (int, float) if kind is float else kind
            if not isinstance(value, allowed) or (isinstance(value, bool)
                                                  and kind is not bool):
                raise ValueError(f"{name} must be {kind.__name__}"
                                 f"{' or None' if optional else ''}, got {value!r}")
        if self.loss not in LOSSES:
            raise ValueError(f"loss must be one of {LOSSES}, got {self.loss!r}")
        if self.ablation not in model_mod.FUSIONS:
            raise ValueError(f"ablation must be one of {model_mod.FUSIONS}")
        if self.sampler is not None and self.sampler not in SAMPLERS:
            raise ValueError(f"sampler must be one of {SAMPLERS}")
        if not self.lr_start >= self.lr_end > 0:
            raise ValueError("learning rates must satisfy lr_start >= lr_end > 0")
        if self.batch_size < 1:
            raise ValueError("batch size must be at least 1")
        if self.needs_pool and self.batch_size > self.pool_size:
            raise ValueError("batch size must be in 1..pool_size")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.stage2_epochs is not None and self.stage2_epochs < 1:
            raise ValueError(f"stage2_epochs must be at least 1 or None, "
                             f"got {self.stage2_epochs!r}")
        if not 0.0 < self.momentum < 1.0:
            raise ValueError("momentum must be in (0, 1)")
        if self.use_audio and self.head == "categorical":
            raise ValueError("audio training requires a scalar-head loss")
        self.model_config()     # the model's own checks, before any data loads

    @property
    def head(self) -> str:
        return LOSS_TABLE[self.loss].head

    @property
    def needs_pool(self) -> bool:
        return LOSS_TABLE[self.loss].needs_pool

    @property
    def needs_centers(self) -> bool:
        return LOSS_TABLE[self.loss].needs_centers

    @property
    def resolved_sampler(self) -> str:
        if self.sampler is not None:
            return self.sampler
        return "class_balanced" if self.head == "categorical" else "sequential"

    def model_config(self) -> model_mod.ModelConfig:
        return model_mod.ModelConfig(
            n_channels=self.n_channels, n_chunks=self.n_chunks, width=self.width,
            global_dim=self.global_dim, speech_dim=self.speech_dim,
            dropout=self.dropout, fusion=self.ablation, head=self.head,
            with_audio=self.use_audio, min_frames=self.min_frames)

    @classmethod
    def desk(cls, **overrides) -> "TrainConfig":
        """Small preset sized for laptop-scale runs and the test suite: the
        dataclass defaults."""
        return cls(**overrides)

    @classmethod
    def paper_scale(cls, **overrides) -> "TrainConfig":
        """Full-size preset: batch 256, pool 2048, 1200 epochs, width 64."""
        base = dict(batch_size=256, pool_size=2048, epochs=1200, width=64)
        base.update(overrides)
        return cls(**base)

    @classmethod
    def tiny(cls, **overrides) -> "TrainConfig":
        """Sub-1000-parameter preset for finite-difference gradient checks."""
        base = dict(batch_size=4, pool_size=8, epochs=1, n_channels=2,
                    global_dim=5, width=4, n_chunks=4, dropout=0.0,
                    speech_dim=6, min_frames=8)
        base.update(overrides)
        return cls(**base)


@functools.cache
def config_field_types() -> dict[str, tuple[type, bool]]:
    """(type, may be None) of each TrainConfig field, read from its type
    hints, with ``Optional[X]`` read as X.  The CLI builds its flags from
    these, and ``TrainConfig`` checks its values against them."""
    types = {}
    for name, hint in get_type_hints(TrainConfig).items():
        args = get_args(hint)
        types[name] = (next((a for a in args if a is not type(None)), hint),
                       type(None) in args)
    return types


# ---------------------------------------------------------------------------
# Schedule and optimizer
# ---------------------------------------------------------------------------

def cosine_lr(t: int, t_total: int, lr_start: float, lr_end: float) -> float:
    """Half-cosine decay from lr_start at t=0 to lr_end at t=t_total."""
    return lr_end + 0.5 * (lr_start - lr_end) * (1.0 + math.cos(math.pi * t / t_total))


def init_opt_state(params: model_mod.ModelParams) -> dict:
    return {"m": np.zeros(params.n_params), "v": np.zeros(params.n_params), "step": 0}


def adamw_step(params: model_mod.ModelParams, grads: np.ndarray, state: dict,
               lr: float, weight_decay: float = 1e-3,
               frozen_keys: tuple = ()) -> tuple[model_mod.ModelParams, dict]:
    """One AdamW update (betas 0.9 and 0.999, eps 1e-8) in place on the whole
    parameter vector; decoupled decay scales weights before the adaptive
    step.  Entries of frozen blocks are skipped entirely: weights, moments
    and decay, whatever their gradient."""
    grads = np.asarray(grads, dtype=np.float64)
    if grads.shape != (params.n_params,):
        raise ValueError(f"gradient vector must have length {params.n_params}")
    live = np.ones(params.n_params, dtype=bool)
    for key in frozen_keys:
        live[params.slices[key]] = False
    bad = live & ~np.isfinite(grads)
    if bad.any():
        raise ValueError(f"non-finite gradient in parameter "
                         f"'{params.key_at(int(np.argmax(bad)))}'")
    state["step"] += 1
    t = state["step"]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    # a slice gives views updated in place; an index array gives copies
    # that are written back, leaving frozen entries bitwise untouched
    sel = slice(None) if live.all() else np.flatnonzero(live)
    p, m, v, g = params.vector[sel], state["m"][sel], state["v"][sel], grads[sel]
    p *= 1.0 - lr * weight_decay
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * g * g
    p -= lr * ((m / bc1) / (np.sqrt(v / bc2) + eps))
    params.vector[sel], state["m"][sel], state["v"][sel] = p, m, v
    return params, state


# ---------------------------------------------------------------------------
# Training state
# ---------------------------------------------------------------------------

@dataclass
class TrainState:
    """Complete mutable state of a run; everything here but the history and
    the last validation report is checkpointed."""

    config: TrainConfig
    params: model_mod.ModelParams
    opt: dict
    rng: np.random.Generator
    epoch: int = 0
    enc: Optional[MomentumEncoder] = None
    pool: Optional[ScorePool] = None
    centers: Optional[ClassCenters] = None
    frozen_keys: tuple = ()
    history: list = field(default_factory=list)
    val_report: Optional[MetricsReport] = None   # of the latest epoch


def init_train_state(config: TrainConfig, train_set: Dataset) -> TrainState:
    if config.use_audio:
        n_speech = train_set.speech_indices().size
        if n_speech < len(train_set):
            raise ValueError(
                f"use_audio needs speech on every training record, but {n_speech} "
                f"of {len(train_set)} have it; train mixed sets with train-two-stage")
    rng = np.random.default_rng(config.seed)
    params = model_mod.init_params(config.model_config(), seed=config.seed)
    if config.init_from is not None:
        donor = load_checkpoint(config.init_from).params
        if donor.layout != params.layout:
            raise ValueError(f"init_from checkpoint {config.init_from!r} does not "
                             f"match the model shape")
        params.set_flat(donor.vector)
    state = TrainState(config=config, params=params, opt=init_opt_state(params), rng=rng)
    _init_loss_state(state, train_set)
    return state


def _init_loss_state(state: TrainState, train_set: Dataset) -> None:
    """A fresh momentum encoder and pool, and zero centers, where the loss uses them."""
    config = state.config
    if config.needs_pool:
        state.enc = MomentumEncoder.from_model(state.params)
        pool_seed = int(state.rng.integers(2 ** 31))
        state.pool = mocorank.pool_init(train_set, state.enc, config.pool_size,
                                        seed=pool_seed)
    if config.needs_centers:
        state.centers = ClassCenters.zeros(state.params.config.score_embed_dim)


def steps_per_epoch(n_records: int, batch_size: int) -> int:
    return math.ceil(n_records / batch_size)


def train_epochs(state: TrainState, train_set: Dataset,
                 val_set: Optional[Dataset] = None,
                 n_epochs: Optional[int] = None) -> TrainState:
    """Advance training by n_epochs (default: to the configured total)."""
    config = state.config
    n = len(train_set.records)
    per_epoch = steps_per_epoch(n, config.batch_size)
    total_steps = config.epochs * per_epoch
    target = config.epochs if n_epochs is None else min(config.epochs,
                                                        state.epoch + n_epochs)
    batch = model_mod.prepare_batch(train_set.records, state.params.config)
    train_labels = train_set.labels()
    val_batch = None
    if val_set is not None and len(val_set.records):
        val_batch = model_mod.prepare_batch(val_set.records, state.params.config)
        val_labels = val_set.labels()
    class_counts = train_set.class_counts()
    loss_fn = LOSS_TABLE[config.loss].fn

    cb_gen = None
    if config.resolved_sampler == "class_balanced":
        cb_gen = featurepipe.class_balanced_sampler(train_labels, config.batch_size,
                                                    rng=state.rng)
    while state.epoch < target:
        if cb_gen is not None:
            batches = [next(cb_gen) for _ in range(per_epoch)]
        else:
            batches = featurepipe.sequential_batches(n, config.batch_size, state.rng)
        epoch_loss = 0.0
        n_seen = 0
        for idx in batches:
            data, labels = batch.take(idx), train_labels[idx]
            trace = model_mod.forward_batch(
                data.chunks, data.gfeat, state.params, mode="train",
                speech=data.speech, meta=data.meta, has_speech=data.has_speech,
                rng=state.rng)
            loss, d_score, d_embed, d_logits, state.centers = loss_fn(
                config, trace, labels, state.pool, state.centers, class_counts)
            grads = model_mod.backward(trace, state.params, d_score=d_score,
                                       d_embed=d_embed, d_logits=d_logits)
            lr = cosine_lr(state.opt["step"], total_steps, config.lr_start,
                           config.lr_end)
            if config.needs_pool and config.score_before_step:
                m_scores, m_embeds, _ = model_mod.score_batch(state.enc.params, data)
            adamw_step(state.params, grads, state.opt, lr,
                       weight_decay=config.weight_decay,
                       frozen_keys=state.frozen_keys)
            if config.needs_pool:
                mocorank.momentum_update(state.enc, state.params, config.momentum)
                if not config.score_before_step:
                    m_scores, m_embeds, _ = model_mod.score_batch(state.enc.params, data)
                state.pool.push(labels, m_scores, m_embeds)
            epoch_loss += loss * labels.size
            n_seen += labels.size
        state.epoch += 1
        row = {"epoch": state.epoch,
               "train_loss": epoch_loss / n_seen,
               "lr": cosine_lr(state.opt["step"], total_steps, config.lr_start,
                               config.lr_end)}
        if val_batch is not None:
            scores, _, logits = model_mod.score_batch(state.params, val_batch)
            report = state.val_report = _report(scores, logits, val_labels)
            row["val_acc"] = report.acc
            row["val_avg_acc"] = report.avg_acc
        state.history.append(row)
        logger.info("epoch %d: train_loss=%.6f%s", state.epoch, row["train_loss"],
                    f" val_avg_acc={row['val_avg_acc']:.4f}" if "val_avg_acc" in row
                    else "")
    return state


def train(config: TrainConfig, train_set: Dataset,
          val_set: Optional[Dataset] = None) -> tuple[TrainState, list]:
    """Full training run; returns the final state and the per-epoch log."""
    state = init_train_state(config, train_set)
    train_epochs(state, train_set, val_set)
    return state, state.history


def train_two_stage(config: TrainConfig, train_set: Dataset,
                    val_set: Optional[Dataset] = None) -> tuple[TrainState, list]:
    """Visual stage on all records, then audio stage on the speech subset.

    Stage 1 is a plain visual run of ``config``; stage 2 adds the audio branch,
    freezes every visual parameter at its stage-1 value bit for bit and trains
    only the speech projection and the multimodal head, with the pool rebuilt
    from speech records.
    """
    speech_records = [r for r in train_set.records if r.has_speech]
    if not speech_records:
        raise ValueError("no speech records")
    state = init_train_state(replace(config, use_audio=False), train_set)
    train_epochs(state, train_set, val_set)
    for row in state.history:
        row["stage"] = 1

    speech_set = Dataset(records=speech_records, split=train_set.split,
                         n_channels=train_set.n_channels,
                         global_dim=train_set.global_dim)
    stage2_cfg = replace(config, use_audio=True,
                         epochs=config.epochs if config.stage2_epochs is None
                         else config.stage2_epochs)
    visual = state.params
    params = model_mod.init_params(stage2_cfg.model_config(), seed=config.seed)
    if params.layout[:len(visual.layout)] != visual.layout:   # audio tensors last
        raise ValueError("visual parameter layout is not a prefix of the multimodal one")
    params.vector[:visual.n_params] = visual.vector
    stage2 = TrainState(config=stage2_cfg, params=params, opt=init_opt_state(params),
                        rng=state.rng, frozen_keys=tuple(params.visual_keys()),
                        history=state.history)
    _init_loss_state(stage2, speech_set)
    n_before = len(stage2.history)
    train_epochs(stage2, speech_set, val_set)
    for row in stage2.history[n_before:]:
        row["stage"] = 2
    return stage2, stage2.history


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _report(scores: np.ndarray, logits: Optional[np.ndarray],
            labels: np.ndarray) -> MetricsReport:
    """Metrics of eval-mode outputs: classes are the argmax of the categorical
    logits, or else the scores cut at the fixed class thresholds."""
    preds = model_mod.classify(scores) if logits is None else np.argmax(logits, axis=1)
    return metrics.accuracy_metrics(metrics.confusion_matrix(preds, labels))


def evaluate(source, dataset: Dataset, subset: str = "all") -> MetricsReport:
    """Deterministic eval-mode scoring of a dataset into a MetricsReport.

    ``source`` is a TrainState or ModelParams.  ``subset`` is one of
    ``SUBSETS``.  A model with the audio branch scores speech-bearing
    records through the audio head and the rest visually.
    """
    params = source.params if isinstance(source, TrainState) else source
    if subset not in SUBSETS:
        raise ValueError(f"subset must be one of {SUBSETS}, got {subset!r}")
    records = dataset.records
    if subset == "speech_only":
        records = [r for r in records if r.has_speech]
    if not records:
        raise ValueError(f"subset {subset!r} selected no records")
    batch = model_mod.prepare_batch(records, params.config)
    scores, _, logits = model_mod.score_batch(params, batch)
    return _report(scores, logits, np.array([r.label for r in records]))


# ---------------------------------------------------------------------------
# Checkpointing
# ---------------------------------------------------------------------------

def save_checkpoint(state: TrainState, path: str) -> None:
    """Write the whole TrainState to a versioned npz container."""
    meta = {
        "version": CHECKPOINT_VERSION,
        "config": dataclasses.asdict(state.config),
        "model_config": dataclasses.asdict(state.params.config),
        "epoch": state.epoch,
        "opt_step": state.opt["step"],
        "rng_state": state.rng.bit_generator.state,
        "frozen_keys": list(state.frozen_keys),
        "param_keys": list(state.params.keys()),
        "has_enc": state.enc is not None,
        "has_pool": state.pool is not None,
        "has_centers": state.centers is not None,
    }
    arrays = {"opt__m": state.opt["m"], "opt__v": state.opt["v"]}
    for k, v in state.params.items():
        arrays[f"param__{k}"] = v
    if state.enc is not None:
        for k, v in state.enc.params.items():
            arrays[f"momentum__{k}"] = v
    if state.pool is not None:
        ps = state.pool.state()
        meta["pool"] = {"count": ps["count"], "next": ps["next"],
                        "capacity": ps["capacity"]}
        arrays["pool__labels"] = ps["labels"]
        arrays["pool__scores"] = ps["scores"]
        arrays["pool__embeddings"] = ps["embeddings"]
    if state.centers is not None:
        arrays["centers__values"] = state.centers.values
    # Write a sibling temporary file and rename it over the target, so a
    # failed or interrupted save leaves any earlier checkpoint intact.  The
    # handle keeps savez from appending .npz to the exact path.
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, meta=json.dumps(meta), **arrays)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path: str) -> TrainState:
    """Read a checkpoint written by save_checkpoint; bit-exact restore.

    The layout comes from the stored config: parameters are read in the
    layout of ``config.model_config()``, which the stored model_config must
    match key for key.  A bad field, such as a non-finite parameter or AdamW
    moment, a negative AdamW ``v`` or a meta field of the wrong JSON type,
    raises a ValueError naming the path and the field; a missing path or a
    directory raises the OSError naming it.  The momentum encoder runs at
    ``config.momentum`` and the centers move at ``mocorank.CENTER_RATE``, as
    in a fresh run; older files that also store ``enc_momentum`` and
    ``centers_alpha`` load with both ignored, and so do those whose
    model_config holds ``strict_pad: false``.  The pool must have the
    capacity ``config.pool_size`` gives.
    """
    with open(path, "rb") as fh:
        try:
            with np.load(fh, allow_pickle=False) as data:
                meta = json.loads(str(data["meta"][()]))
                loaded = {k: data[k] for k in data.files if k != "meta"}
            if not isinstance(meta, dict):
                raise ValueError(f"meta {meta!r} is not a JSON object")
        except (zipfile.BadZipFile, EOFError, OSError, KeyError, ValueError) as err:
            raise ValueError(
                f"corrupt checkpoint {path!r}: {err} (read failed within "
                f"{os.fstat(fh.fileno()).st_size}-byte file)") from err
    if meta.get("version") != CHECKPOINT_VERSION:
        raise ValueError(
            f"unsupported checkpoint version {meta.get('version')!r}; "
            f"this reader handles version {CHECKPOINT_VERSION!r}")

    def corrupt(field, problem):
        return ValueError(f"corrupt checkpoint {path!r}: field {field!r}: {problem}")

    def need(source, name, prefix="", kind=None):
        if name not in source:
            raise corrupt(prefix + name, "missing")
        value = source[name]
        if kind is not None and not isinstance(value, kind):
            raise corrupt(prefix + name, f"{value!r} is not a JSON "
                                         f"{'object' if kind is dict else 'array'}")
        return value

    def count(name):
        value = need(meta, name)
        if type(value) is not int or value < 0:
            raise corrupt(name, f"{value!r} is not an integer >= 0")
        return value

    config_d = need(meta, "config", kind=dict)
    have = dict(need(meta, "model_config", kind=dict))
    try:
        config = TrainConfig(**config_d)
    except (TypeError, ValueError) as err:
        raise corrupt("config", err) from err
    mcfg = config.model_config()
    # older files record the removed strict padding, always off
    if have.pop("strict_pad", False) is not False:
        raise corrupt("model_config", "strict_pad padding is no longer supported")
    # the config's model as JSON stores it, tuples as lists
    want = json.loads(json.dumps(dataclasses.asdict(mcfg)))
    for key, value in want.items():
        if need(have, key, "model_config.") != value:
            raise corrupt("model_config", f"{key} is {have[key]!r}, but config gives "
                                          f"{value!r}")
    if len(have) > len(want):
        raise corrupt("model_config", f"unknown keys {sorted(have.keys() - want.keys())}")
    layout = model_mod.init_params(mcfg).layout

    def finite(name):
        if not np.isfinite(loaded[name]).all():
            raise corrupt(name, "non-finite value")

    def load_params(prefix):
        arrays = {}
        for key, shape in layout:
            name = f"{prefix}__{key}"
            arrays[key] = need(loaded, name)
            if arrays[key].shape != shape:
                raise corrupt(name, f"shape {arrays[key].shape}, but config "
                                    f"gives {shape}")
            finite(name)
        return model_mod.ModelParams(mcfg, arrays)

    params = load_params("param")
    frozen_keys = need(meta, "frozen_keys", kind=list)
    if not all(isinstance(k, str) for k in frozen_keys):
        raise corrupt("frozen_keys", f"{frozen_keys!r} is not a JSON array of strings")
    missing = [k for k in frozen_keys if k not in params]
    if missing:
        raise corrupt("frozen_keys", f"names {missing[0]!r}, which the model does not have")
    for name in ("opt__m", "opt__v"):
        if need(loaded, name).shape != (params.n_params,):
            raise corrupt(name, f"shape {loaded[name].shape}, expected ({params.n_params},)")
        finite(name)
    if (loaded["opt__v"] < 0).any():
        raise corrupt("opt__v", "negative value")
    opt = {"m": loaded["opt__m"].copy(), "v": loaded["opt__v"].copy(),
           "step": count("opt_step")}
    rng_state = need(meta, "rng_state")
    rng = np.random.default_rng()
    try:
        rng.bit_generator.state = rng_state
    except (TypeError, ValueError, KeyError, OverflowError) as err:
        raise corrupt("rng_state", f"not a PCG64 state ({err!r})") from err
    state = TrainState(config=config, params=params, opt=opt, rng=rng,
                       epoch=count("epoch"), frozen_keys=tuple(frozen_keys))
    for name, want in (("has_enc", config.needs_pool), ("has_pool", config.needs_pool),
                       ("has_centers", config.needs_centers)):
        if need(meta, name) is not want:
            raise corrupt(name, f"{meta[name]!r}, but loss {config.loss!r} gives {want}")
    width = mcfg.score_embed_dim
    if config.needs_pool:
        state.enc = MomentumEncoder(params=load_params("momentum"))
        pool_meta = need(meta, "pool", kind=dict)
        ring = {k: need(loaded, f"pool__{k}") for k in ("labels", "scores", "embeddings")}
        ring.update({k: need(pool_meta, k, "pool.") for k in ("count", "next", "capacity")})
        if ring["capacity"] != config.pool_size:
            raise corrupt("pool.capacity", f"{ring['capacity']!r}, but config gives "
                                           f"pool_size {config.pool_size}")
        emb = ring["embeddings"]
        if emb.ndim == 2 and emb.size and emb.shape[1] != width:
            raise corrupt("pool__embeddings", f"width {emb.shape[1]}, but the model's "
                                              f"embeddings have width {width}")
        try:
            state.pool = ScorePool.from_state(ring)
        except ValueError as err:
            raise ValueError(f"corrupt checkpoint {path!r}: {err}") from err
    if config.needs_centers:
        values = need(loaded, "centers__values")
        if values.shape != (N_CLASSES, width):
            raise corrupt("centers__values", f"shape {values.shape}, expected "
                                             f"{(N_CLASSES, width)}")
        state.centers = ClassCenters(values=values.copy())
    return state


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------

def _tiny_dataset(config: TrainConfig) -> Dataset:
    return featurepipe.synth_dataset(
        n=max(16, 4 * config.batch_size), n_channels=config.n_channels,
        global_dim=config.global_dim, n_frames=config.min_frames + 4,
        proportions=(1, 1, 1, 1), noise=0.3, seed=0,
        speech_fraction=1.0 if config.use_audio else 0.0,
        speech_dim=config.speech_dim)


def _margin_kinks(scores, labels, embeddings, pool: ScorePool) -> list:
    """Where the pool loss has kinks: its live cross-label hinges, and the
    counts of same-label pool scores below and above each batch score."""
    *_, live, ranks = mocorank._margin_loss_and_kinks(scores, labels, embeddings, pool)
    return [live.ravel(), ranks.ravel().astype(np.float64)]


def grad_check_loss(config: TrainConfig, n_params_max: int = 1000,
                    tolerance: float = 1e-4) -> dict:
    """Finite-difference check of the full network under config.loss, at
    seed-0 parameters and data.

    The step h balances truncation against float64 cancellation; below
    ~1e-5 the audio-branch losses (larger raw values) go round-off limited.
    """
    config = replace(config, dropout=0.0)
    h = 5e-5
    params = model_mod.init_params(config.model_config(), seed=0)
    if params.n_params > n_params_max:
        raise ValueError(
            f"model has {params.n_params} parameters, over the {n_params_max} cap")
    ds = _tiny_dataset(config)
    chunks, gfeat, speech, meta, has_speech = model_mod.prepare_batch(
        ds.records[:config.batch_size], params.config)
    labels = ds.labels()[:config.batch_size]
    class_counts = ds.class_counts()

    pool = None
    centers = None
    if config.needs_pool:
        enc = MomentumEncoder.from_model(
            model_mod.init_params(params.config, seed=1))
        pool = mocorank.pool_init(ds, enc, config.pool_size, seed=0)
    if config.needs_centers:
        centers = ClassCenters(
            values=0.1 * np.random.default_rng(2).standard_normal(
                (N_CLASSES, params.config.score_embed_dim)))

    loss_fn = LOSS_TABLE[config.loss].fn

    def loss_and_signature():
        # kinks: ReLU masks; for the pool loss, live hinges and same-label orders
        trace = model_mod.forward_batch(chunks, gfeat, params, mode="train",
                                        speech=speech, meta=meta, has_speech=has_speech)
        out = loss_fn(config, trace, labels, pool, centers, class_counts)
        sig = [model_mod.relu_signature(trace).astype(np.float64)]
        if pool is not None:
            sig += _margin_kinks(trace.score, labels, trace.embedding, pool)
        return out, np.concatenate(sig), trace

    # analytic gradient and kink signature at the center point
    (_, d_score, d_embed, d_logits, _), sig0, trace = loss_and_signature()
    analytic = model_mod.backward(trace, params, d_score=d_score, d_embed=d_embed,
                                  d_logits=d_logits)

    block_err = {k: 0.0 for k in params.keys()}
    max_err = 0.0
    n_skipped = 0
    x = params.vector
    for i in range(params.n_params):
        xi = x[i]
        x[i] = xi + h
        (l_plus, *_), sig_plus, _ = loss_and_signature()
        x[i] = xi - h
        (l_minus, *_), sig_minus, _ = loss_and_signature()
        x[i] = xi
        if not (np.array_equal(sig_plus, sig0) and np.array_equal(sig_minus, sig0)):
            n_skipped += 1
            continue
        numeric = (l_plus - l_minus) / (2.0 * h)
        rel = abs(analytic[i] - numeric) / max(abs(analytic[i]), abs(numeric), 1e-6)
        key = params.key_at(i)
        block_err[key] = max(block_err[key], rel)
        max_err = max(max_err, rel)
    return {"loss": config.loss, "max_rel_err": max_err, "n_params": params.n_params,
            "n_skipped": n_skipped, "blocks": block_err,
            "passed": bool(max_err < tolerance)}


def grad_check(config: Optional[TrainConfig] = None, n_params_max: int = 1000,
               tolerance: float = 1e-4, losses=None) -> dict:
    """Run grad_check_loss for each requested loss; report per-loss errors."""
    config = config or TrainConfig.tiny()
    if losses is None:
        losses = [l for l in LOSSES
                  if not (config.use_audio and l in CATEGORICAL_LOSSES)]
    results = {}
    for loss in losses:
        cfg = replace(config, loss=loss, sampler=None)
        results[loss] = grad_check_loss(cfg, n_params_max=n_params_max,
                                        tolerance=tolerance)
        logger.info("grad check %s: max_rel_err=%.3e skipped=%d", loss,
                    results[loss]["max_rel_err"], results[loss]["n_skipped"])
    return {"tolerance": tolerance, "losses": results,
            "passed": all(r["passed"] for r in results.values())}


# ---------------------------------------------------------------------------
# Loss benchmark (Table-2-style comparison)
# ---------------------------------------------------------------------------

def bench_losses(base_config: TrainConfig, variants: dict, seeds,
                 train_set: Dataset, val_set: Optional[Dataset],
                 test_set: Dataset) -> dict:
    """Train each config variant over the seeds and tabulate test metrics.

    ``variants`` maps a display name to a dict of TrainConfig field overrides.
    Returns {"rows": [...], "summary": {name: mean/std aggregates}}.
    """
    rows = []
    for name, overrides in variants.items():
        for seed in seeds:
            cfg = replace(base_config, seed=int(seed), **overrides)
            state, _ = train(cfg, train_set, val_set)
            report = evaluate(state, test_set)
            rows.append({"variant": name, "seed": int(seed), "acc": report.acc,
                         "avg_acc": report.avg_acc})
            logger.info("bench %s seed=%d: acc=%.4f avg_acc=%.4f", name, seed,
                        report.acc, report.avg_acc)
    summary = {}
    for name in variants:
        accs = np.array([r["acc"] for r in rows if r["variant"] == name])
        avg = np.array([r["avg_acc"] for r in rows if r["variant"] == name])
        summary[name] = {"mean_acc": float(accs.mean()),
                         "mean_avg_acc": float(avg.mean()),
                         "std_avg_acc": float(avg.std(ddof=0)),
                         "n_seeds": int(avg.size)}
    return {"rows": rows, "summary": summary}
