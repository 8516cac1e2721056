"""Feature preparation, dataset IO, and synthetic data generation.

Raw inputs are per-frame feature sequences plus a fixed-length global video
feature (and, optionally, a speech embedding with acoustic metadata).  This
module turns frame sequences into the chunked min/max/variance summaries the
scoring model consumes, reads and writes the JSON-lines dataset format, and
synthesizes imbalanced ordinal datasets for desk-scale experiments.

Summaries are computed for many sequences at once, over time-major blocks
of records (``chunk_summarize_batch``); ``prepare_record`` uses the same
path for one record.  Short sequences are read there as if repeat-padded,
with no padded copy.  Each statistic folds a chunk's frames in time order,
so a summary depends only on its own sequence's values: not on how they
were stored or loaded, nor on the sequences summarized beside it.

Datasets are read one line at a time, so a load holds its records plus
about one line of the file.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Iterator, Optional, Sequence

import numpy as np

SCHEMA_NAME = "cmose-features/1"
SPEECH_DIM = 768
AUDIO_META_DIM = 7
DEFAULT_MIN_FRAMES = 250
DEFAULT_CHUNKS = 10
DEFAULT_CHANNELS = 17
DEFAULT_GLOBAL_DIM = 64

#: Class proportions of the reference corpus, usable as synthetic-generator
#: weights (highly disengaged, disengaged, engaged, highly engaged).
REFERENCE_PROPORTIONS = (346, 2208, 8469, 1170)


class EngagementLevel(IntEnum):
    """Ordinal engagement classes; integer codes preserve the total order."""

    HIGHLY_DISENGAGED = 0
    DISENGAGED = 1
    ENGAGED = 2
    HIGHLY_ENGAGED = 3


N_CLASSES = 4


@dataclass
class FrameSequence:
    """A matrix of D feature channels by F frames, stored C-contiguous.

    Values in any other layout are copied to C order, so the chunk summaries
    meet one layout.
    """

    values: np.ndarray

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError("frame values must be a 2-D (channels x frames) array")
        if self.values.shape[1] < 1 or self.values.shape[0] < 1:
            raise ValueError("empty input")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("frame values must be finite")

    @property
    def n_channels(self) -> int:
        return self.values.shape[0]

    @property
    def n_frames(self) -> int:
        return self.values.shape[1]


@dataclass
class SampleRecord:
    """One video segment: precomputed features plus an ordinal label."""

    id: str
    frames: FrameSequence
    global_feature: np.ndarray
    label: int
    speech_embedding: Optional[np.ndarray] = None
    audio_meta: Optional[np.ndarray] = None
    latent: Optional[float] = None

    def __post_init__(self):
        self.global_feature = np.asarray(self.global_feature, dtype=np.float64)
        if self.global_feature.ndim != 1:
            raise ValueError("global_feature must be a vector")
        label = self.label
        if isinstance(label, (bool, np.bool_)) or not (
                isinstance(label, numbers.Integral)
                or isinstance(label, (float, np.floating)) and label.is_integer()):
            raise ValueError(f"label must be an integer, got {label!r}")
        if not 0 <= int(label) < N_CLASSES:
            raise ValueError(f"label must be in 0..{N_CLASSES - 1}, got {label!r}")
        self.label = int(label)
        if (self.speech_embedding is None) != (self.audio_meta is None):
            raise ValueError("modality fields must co-occur")
        if self.speech_embedding is not None:
            self.speech_embedding = np.asarray(self.speech_embedding, dtype=np.float64)
            self.audio_meta = np.asarray(self.audio_meta, dtype=np.float64)
        for name in ("global_feature", "speech_embedding", "audio_meta"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite")
        if self.audio_meta is not None:
            _validate_audio_meta(self.audio_meta)

    @property
    def has_speech(self) -> bool:
        return self.speech_embedding is not None


def _validate_audio_meta(meta: np.ndarray) -> None:
    if meta.shape != (AUDIO_META_DIM,):
        raise ValueError(f"audio_meta must have {AUDIO_META_DIM} entries")
    length, rates, stds = meta[0], meta[1:5], meta[5:7]
    if length < 0:
        raise ValueError("audio_meta speech length must be >= 0")
    if np.any(rates < 0) or np.any(rates > 1):
        raise ValueError("audio_meta rate fields must lie in [0, 1]")
    if np.any(stds < 0):
        raise ValueError("audio_meta std fields must be >= 0")


@dataclass
class Dataset:
    """An ordered collection of records with a split tag.  Its widths, a model's
    input widths, are those its records share, else 17, 64 and ``SPEECH_DIM``."""

    records: list[SampleRecord]
    split: str = "train"
    n_channels: int = field(init=False)
    global_dim: int = field(init=False)
    speech_dim: int = field(init=False)

    def __post_init__(self):
        records = self.records
        if len({r.id for r in records}) != len(records):
            raise ValueError("record ids must be unique within a dataset")
        for name, default, widths in (
                ("n_channels", DEFAULT_CHANNELS, {r.frames.n_channels for r in records}),
                ("global_dim", DEFAULT_GLOBAL_DIM, {r.global_feature.size for r in records}),
                ("speech_dim", SPEECH_DIM,
                 {r.speech_embedding.size for r in records if r.has_speech})):
            if len(widths) > 1:
                raise ValueError(f"records differ in {name}: {sorted(widths)}")
            setattr(self, name, widths.pop() if widths else default)

    def __len__(self) -> int:
        return len(self.records)

    def labels(self) -> np.ndarray:
        return np.array([r.label for r in self.records], dtype=np.int64)

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels(), minlength=N_CLASSES)

    def speech_indices(self) -> np.ndarray:
        return np.array([i for i, r in enumerate(self.records) if r.has_speech], dtype=np.int64)


# ---------------------------------------------------------------------------
# Frame-sequence preparation
# ---------------------------------------------------------------------------

def repeat_pad(frames: FrameSequence,
               min_frames: int = DEFAULT_MIN_FRAMES) -> FrameSequence:
    """Repeat a short sequence whole until it reaches the frame floor.

    A sequence with F >= min_frames passes through unchanged and a shorter
    one is tiled ceil(min_frames / F) times.
    """
    f = frames.n_frames
    if f < 1:
        raise ValueError("empty input")
    if f >= min_frames:
        return frames
    return FrameSequence(np.tile(frames.values, (1, math.ceil(min_frames / f))))


def _padded_length(f: int, min_frames: int) -> int:
    """Frame count of an F-frame sequence after ``repeat_pad``."""
    return f if f >= min_frames else f * math.ceil(min_frames / f)


#: Records summarized together in one time-major block.  The ufuncs then run
#: over rows of K * D * n_chunks values, long enough to amortize their call
#: overhead.  Chosen by timing the 2100 training records of the benchmark
#: corpus (17 x 300 frames, 10 chunks) on a 2-vCPU x86-64 VM with numpy 2.4:
#: median 102 / 80 / 73 / 68 / 66 / 72 ms at K = 4 / 8 / 16 / 24 / 32 / 64,
#: against about 165 ms one record at a time.
_BLOCK_RECORDS = 32


def chunk_summarize_batch(frames: Sequence[FrameSequence],
                          n_chunks: int = DEFAULT_CHUNKS,
                          min_frames: int = 1) -> np.ndarray:
    """Pad and chunk-summarize many frame sequences at once: (N, 3D, n_chunks).

    Row i is the summary of ``repeat_pad(frames[i], min_frames)``: its F
    frames are partitioned into ``n_chunks`` contiguous chunks whose lengths
    differ by at most one (the first ``F mod n_chunks`` chunks take the extra
    frame), and each chunk gives per-channel min, max and population variance
    (ddof=0, defined even for single-frame chunks), stacked as [min block;
    max block; variance block].  The default floor of one frame pads nothing.

    Sequences of one padded length are summarized together, up to
    ``_BLOCK_RECORDS`` at a time, in a time-major buffer of shape (chunk
    size, records, D, chunks): every ufunc call then runs over a row that
    spans the whole block.  No padded copy is made: the buffer reads padded
    frame i of a short sequence from its frame i mod F.  Each statistic is
    one fold over a chunk's frames in time order, one call per frame: the
    min, the max, the sum behind the mean and the sum of squared deviations
    from that mean.  So a row is bitwise the same whichever sequences share
    its block.
    """
    if n_chunks <= 0:
        raise ValueError("chunk count must be positive")
    if not frames:
        raise ValueError("no frame sequences to summarize")
    d = frames[0].n_channels
    groups: dict[int, list[int]] = {}
    for i, fr in enumerate(frames):
        channels, f = fr.values.shape
        if channels != d:
            raise ValueError("frame sequences disagree on channel count")
        length = _padded_length(f, min_frames)
        if n_chunks > length:
            raise ValueError("too few frames")
        groups.setdefault(length, []).append(i)
    out = np.empty((len(frames), 3, d, n_chunks), dtype=np.float64)
    for length, members in groups.items():
        for lo in range(0, len(members), _BLOCK_RECORDS):
            rows = members[lo:lo + _BLOCK_RECORDS]
            out[rows] = _summarize_block([frames[i].values for i in rows], length,
                                         n_chunks)
    return out.reshape(len(frames), 3 * d, n_chunks)


def _summarize_block(values: list[np.ndarray], length: int, n_chunks: int) -> np.ndarray:
    """(K, 3, D, n_chunks) summaries of K C-ordered (D, F) frame arrays, each
    repeated whole to ``length`` frames.  Padded frame i is raw frame i mod F,
    so no padded copy is made."""
    k = len(values)
    d = values[0].shape[0]
    base, extra = divmod(length, n_chunks)
    split = extra * (base + 1)
    out = np.empty((k, 3, d, n_chunks), dtype=np.float64)
    for chunks, size, first in ((slice(0, extra), base + 1, 0),
                                (slice(extra, n_chunks), base, split)):
        c = chunks.stop - chunks.start
        if c == 0:
            continue
        t = np.empty((size, k, d, c), dtype=np.float64)
        frame = first + np.arange(c) * size + np.arange(size)[:, None]   # (size, c)
        for j, v in enumerate(values):
            f = v.shape[1]
            if f == length:
                t[:, j] = v[:, first:first + c * size].reshape(d, c, size).transpose(2, 0, 1)
            else:
                t[:, j] = v.take(frame % f, axis=1).transpose(1, 0, 2)
        out[:, 0, :, chunks] = _fold(np.minimum, t)
        out[:, 1, :, chunks] = _fold(np.maximum, t)
        mean = _fold(np.add, t)
        mean /= size
        t -= mean
        t *= t
        var = _fold(np.add, t)
        var /= size
        out[:, 2, :, chunks] = var
    return out


def _fold(ufunc: np.ufunc, t: np.ndarray) -> np.ndarray:
    """``ufunc`` folded over the rows of ``t`` in order: (t[0] op t[1]) op t[2] ...

    One call per row fixes the order, which ``ufunc.reduce`` leaves to numpy
    (it sums a lone column pairwise)."""
    acc = t[0].copy()
    for row in t[1:]:
        ufunc(acc, row, out=acc)
    return acc


def prepare_record(record: SampleRecord, n_chunks: int = DEFAULT_CHUNKS,
                   min_frames: int = DEFAULT_MIN_FRAMES) -> np.ndarray:
    """Pad then chunk-summarize one record's frame sequence: (3D, n_chunks)."""
    return chunk_summarize_batch([record.frames], n_chunks, min_frames)[0]


# ---------------------------------------------------------------------------
# JSON-lines dataset format
# ---------------------------------------------------------------------------
#
# Line 1 is a header object {"schema": "cmose-features/1", "D": ..., "d": ...};
# every following line is one record with keys id, frames (F arrays of D
# numbers), global_feature (d numbers), optional speech_embedding (768
# numbers), optional audio_meta (7 numbers), label (0-3), optional latent.

def load_records(path, split: str = "train") -> Dataset:
    """Read a JSON-lines dataset file, validating every record; an error
    names the path, the line and the field.

    The file is streamed one line at a time, so memory peaks at the records
    plus about one line.  A line ends at ``\\n``, as JSON Lines specifies
    (a ``\\r`` before it is JSON whitespace), so U+2028, U+2029 and U+0085
    may appear raw inside strings.  Each line is decoded as UTF-8 on its own,
    and bytes that are not UTF-8 fail with the path and the line.
    """
    with open(path, "rb") as fh:
        lines = enumerate(fh, start=1)
        first = next(lines, None)
        if first is None:
            raise ValueError(f"{path}: empty file, missing header line")
        header = _parse_json_line(path, 1, _decode_line(path, *first))
        if header.get("schema") != SCHEMA_NAME:
            raise ValueError(
                f"{path}: line 1: unsupported schema {header.get('schema')!r}, "
                f"expected {SCHEMA_NAME!r}")
        n_channels = _header_dim(path, header, "D")
        global_dim = _header_dim(path, header, "d")
        # optional header override for scaled-down speech embeddings
        speech_dim = _header_dim(path, header, "speech_dim", SPEECH_DIM)

        records = []
        for lineno, raw in lines:
            line = _decode_line(path, lineno, raw)
            if line.isspace():
                continue
            obj = _parse_json_line(path, lineno, line)
            records.append(_record_from_json(f"{path}: line {lineno}", obj, n_channels,
                                             global_dim, speech_dim))
    return Dataset(records, split=split)


def _decode_line(path, lineno: int, raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: line {lineno}: not valid UTF-8 ({exc.reason} at "
                         f"byte {exc.start + 1} of the line)") from exc


def _parse_json_line(path, lineno: int, line: str) -> dict:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: line {lineno}: malformed JSON ({exc.msg})") from exc
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: line {lineno}: expected a JSON object")
    return obj


def _header_dim(path, header: dict, key: str, default: Optional[int] = None) -> int:
    value = header.get(key, default)
    if type(value) is not int or value < 1:
        problem = (f"missing field {key!r}" if value is None else
                   f"field {key!r} must be a positive integer, got {value!r}")
        raise ValueError(f"{path}: line 1: {problem}")
    return value


def _numbers(where: str, obj: dict, key: str) -> np.ndarray:
    """Field ``key`` as a float64 array of finite numbers."""
    try:
        values = np.asarray(obj[key], dtype=np.float64)
    except (TypeError, ValueError):     # ragged lists, text
        values = None
    if values is None or not np.isfinite(values).all():
        raise ValueError(f"{where}: field {key!r} must be finite numbers, in lists "
                         f"of equal length")
    # numpy reads "1.5" and true as numbers, so check the JSON values' types
    items = [obj[key]]
    for _ in range(values.ndim):
        items = itertools.chain.from_iterable(items)
    if not set(map(type, items)) <= {int, float}:
        raise ValueError(f"{where}: field {key!r} must be numbers, not strings or "
                         f"booleans")
    return values


def _record_from_json(where: str, obj: dict, n_channels: int, global_dim: int,
                      speech_dim: int) -> SampleRecord:
    """One record line; ``where`` ("path: line n") prefixes every error."""
    for key in ("id", "frames", "global_feature", "label"):
        if key not in obj:
            raise ValueError(f"{where}: missing field {key!r}")
    frames = _numbers(where, obj, "frames")
    if frames.ndim != 2:
        raise ValueError(f"{where}: field 'frames' must be a list of frame rows")
    # Rows in the file are per-frame; in memory channels index rows.
    frames = frames.T
    if frames.shape[0] != n_channels:
        raise ValueError(f"{where}: field 'frames' has {frames.shape[0]} channels, "
                         f"header says D={n_channels}")
    gfeat = _numbers(where, obj, "global_feature")
    if gfeat.shape != (global_dim,):
        raise ValueError(f"{where}: field 'global_feature' has length {gfeat.size}, "
                         f"header says d={global_dim}")
    speech, meta = (None if obj.get(key) is None else _numbers(where, obj, key)
                    for key in ("speech_embedding", "audio_meta"))
    if speech is not None and speech.shape != (speech_dim,):
        raise ValueError(f"{where}: field 'speech_embedding' must have {speech_dim} "
                         f"entries")
    latent = obj.get("latent")
    if latent is not None and (type(latent) is bool
                               or not isinstance(latent, (int, float))):
        raise ValueError(f"{where}: field 'latent' must be a number, got {latent!r}")
    try:
        return SampleRecord(
            id=str(obj["id"]),
            frames=FrameSequence(frames),
            global_feature=gfeat,
            label=obj["label"],
            speech_embedding=speech,
            audio_meta=meta,
            latent=None if latent is None else float(latent),
        )
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


def save_records(dataset: Dataset, path) -> None:
    """Write a dataset in the JSON-lines format that load_records reads.  The
    header's widths are those the records share now: records of another width
    or a repeated id are refused before the file is opened."""
    dataset = Dataset(dataset.records)
    with open(path, "w", encoding="utf-8") as fh:
        header = {"schema": SCHEMA_NAME, "D": dataset.n_channels, "d": dataset.global_dim}
        if dataset.speech_dim != SPEECH_DIM:
            header["speech_dim"] = dataset.speech_dim
        fh.write(json.dumps(header) + "\n")
        for rec in dataset.records:
            obj = {
                "id": rec.id,
                "frames": rec.frames.values.T.tolist(),
                "global_feature": rec.global_feature.tolist(),
                "label": int(rec.label),
            }
            if rec.has_speech:
                obj["speech_embedding"] = rec.speech_embedding.tolist()
                obj["audio_meta"] = rec.audio_meta.tolist()
            if rec.latent is not None:
                obj["latent"] = rec.latent
            fh.write(json.dumps(obj) + "\n")


# ---------------------------------------------------------------------------
# Synthetic ordinal datasets
# ---------------------------------------------------------------------------

LATENT_EDGES = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])


def apportion(proportions: Sequence[float], n: int) -> np.ndarray:
    """Round class proportions to integer counts summing to n (largest remainder)."""
    props = np.asarray(proportions, dtype=np.float64)
    if props.size != N_CLASSES or np.any(props < 0) or props.sum() <= 0:
        raise ValueError("proportions must be four non-negative numbers with positive sum")
    ideal = props / props.sum() * n
    counts = np.floor(ideal).astype(np.int64)
    remainder = ideal - counts
    # Ties broken by class index, lowest first.
    order = np.lexsort((np.arange(N_CLASSES), -remainder))
    for k in order[: n - counts.sum()]:
        counts[k] += 1
    return counts


def synth_dataset(n: int, n_channels: int = DEFAULT_CHANNELS, global_dim: int = DEFAULT_GLOBAL_DIM,
                  n_frames: int = 300, proportions: Sequence[float] = REFERENCE_PROPORTIONS,
                  noise: float = 0.1, seed: int = 0, split: str = "train",
                  speech_fraction: float = 0.0, speech_dim: int = SPEECH_DIM,
                  saturation: float = 0.0, modulation: float = 0.0,
                  warp: float = 0.0, label_flip: float = 0.0) -> Dataset:
    """Generate an imbalanced ordinal dataset from a scalar latent.

    Each record draws a latent engagement scalar u uniformly inside its
    class band ([-1,-0.5), [-0.5,0), [0,0.5), [0.5,1]); the label is the band
    of u and u is kept in the record's ``latent`` debug field.  Frame features
    and the global feature are fixed random linear maps of a feature driver v
    plus Gaussian noise of scale ``noise`` (frames get a weaker map, so the
    global feature carries most of the signal).  ``speech_fraction`` > 0
    additionally equips that fraction of records (uniformly at random) with a
    synthetic speech embedding and audio metadata driven by the same latent.

    Three hardness knobs reshape the latent-to-feature map; all default to
    off, leaving the map linear.

    ``saturation`` a > 0 compresses the scale ends, v = tanh(a u) / tanh(a),
    the ceiling/floor effect of bounded ratings: the extreme bands then
    overlap their neighbors in feature space far more than the middle bands.

    ``modulation`` in [0, 1) mutes each record's expressive signal by a
    per-record gain drawn from [1-modulation, 1]: the same underlying state
    shows up at very different intensities, as expressiveness varies between
    subjects.  The last eighth of the global feature reports the gain itself,
    so the state stays identifiable but only through a multiplicative
    correction.

    ``warp`` w > 0 replaces each feature dimension's linear response with a
    sinusoid sin(pi w q v + phase) of random frequency q in [1, 2): jointly
    the feature vector still pins the latent down, but no single dimension is
    monotone in it any more.

    ``label_flip`` p > 0 reproduces rater disagreement: after features are
    generated from the true band, each record's label moves one class in a
    random direction with probability p, clipped at the scale ends (so
    extreme classes are only ever mis-rated inward).  Features and the
    ``latent`` debug field stay true, so ``latent_band`` recovers the
    uncorrupted class.

    Deterministic given ``seed``: the linear maps are drawn once, then records
    are generated in order.
    """
    counts = apportion(proportions, n)
    if n < np.count_nonzero(proportions):
        raise ValueError("need at least one record per class when all proportions positive")
    rng = np.random.default_rng(seed)

    # Fixed maps from the latent to each modality.  Frames are given a weaker
    # map than the global feature so the two branches differ in usefulness.
    frame_map = 0.5 * rng.standard_normal(n_channels)
    global_map = rng.standard_normal(global_dim)
    speech_map = rng.standard_normal(speech_dim)

    if saturation < 0:
        raise ValueError("saturation must be non-negative")
    if not 0.0 <= modulation < 1.0:
        raise ValueError("modulation must be in [0, 1)")
    if warp < 0:
        raise ValueError("warp must be non-negative")
    if not 0.0 <= label_flip < 1.0:
        raise ValueError("label_flip must be in [0, 1)")
    labels = np.repeat(np.arange(N_CLASSES), counts)
    rng.shuffle(labels)
    lo = LATENT_EDGES[labels]
    hi = LATENT_EDGES[labels + 1]
    latents = lo + rng.random(n) * (hi - lo)
    drivers = (np.tanh(saturation * latents) / np.tanh(saturation)
               if saturation > 0 else latents)

    # Per-knob extras draw from the stream only when active, so default-off
    # datasets are bitwise identical to those from earlier revisions.
    gains = None
    n_ctx = 0
    if modulation > 0:
        gains = 1.0 - modulation * rng.random(n)
        n_ctx = max(1, global_dim // 8)
    fwarp = gwarp = swarp = None
    if warp > 0:
        gwarp = (1.0 + rng.random(global_dim), 2 * np.pi * rng.random(global_dim))
        fwarp = (1.0 + rng.random(n_channels), 2 * np.pi * rng.random(n_channels))
        swarp = (1.0 + rng.random(speech_dim), 2 * np.pi * rng.random(speech_dim))

    def response(v, gain, pair):
        """Feature response to the driver, before noise: the driver itself,
        or with ``warp`` one sinusoid of it per dimension."""
        if pair is None:
            return gain * v
        return gain * np.sin(np.pi * warp * pair[0] * v + pair[1])

    has_speech = np.zeros(n, dtype=bool)
    n_speech = int(round(speech_fraction * n))
    if n_speech:
        has_speech[rng.choice(n, size=n_speech, replace=False)] = True

    records = []
    for i in range(n):
        u, v = latents[i], drivers[i]
        g = 1.0 if gains is None else gains[i]
        vg = v * g
        frames = (frame_map * response(v, g, fwarp))[:, None] \
            + noise * rng.standard_normal((n_channels, n_frames))
        sig = global_map * response(v, g, gwarp)
        if n_ctx:
            # gain report: the per-record gain rescaled to [-1, 1]
            sig[-n_ctx:] = global_map[-n_ctx:] * (2.0 * (1.0 - g) / modulation - 1.0)
        gfeat = sig + noise * rng.standard_normal(global_dim)
        speech = meta = None
        if has_speech[i]:
            speech = speech_map * response(v, g, swarp) \
                + noise * rng.standard_normal(speech_dim)
            # Length, four rate fields in [0,1] centered on the driver, two stds.
            raw = 0.5 + 0.5 * vg + 0.1 * noise * rng.standard_normal(4)
            meta = np.concatenate((
                [abs(10.0 + 5.0 * vg + noise * rng.standard_normal())],
                np.clip(raw, 0.0, 1.0),
                np.abs(0.5 + 0.1 * noise * rng.standard_normal(2)),
            ))
        records.append(SampleRecord(
            id=f"synth-{seed}-{i:06d}",
            frames=FrameSequence(frames),
            global_feature=gfeat,
            label=int(labels[i]),
            speech_embedding=speech,
            audio_meta=meta,
            latent=float(u),
        ))
    if label_flip > 0:
        # Flip draws come last, so a corrupted dataset differs from its
        # clean twin at the same seed only in the reported labels.
        flip = rng.random(n) < label_flip
        step = np.where(rng.random(n) < 0.5, -1, 1)
        flipped = np.clip(labels + np.where(flip, step, 0), 0, N_CLASSES - 1)
        for rec, fl in zip(records, flipped):
            rec.label = int(fl)
    return Dataset(records, split=split)


def latent_band(u) -> np.ndarray:
    """Class band of a latent scalar: the label synth_dataset assigns."""
    return np.digitize(u, LATENT_EDGES[1:-1])


# ---------------------------------------------------------------------------
# Samplers and splits
# ---------------------------------------------------------------------------

def class_balanced_sampler(labels: Sequence[int], batch_size: int,
                           rng: np.random.Generator) -> Iterator[np.ndarray]:
    """Yield index batches drawn class-first: uniform class, then uniform index.

    Every draw is with replacement, so each class contributes 1/4 of the
    indices in expectation regardless of the class frequencies in ``labels``.
    The stream is infinite; consume as many batches as needed.
    """
    labels = np.asarray(labels, dtype=np.int64)
    by_class = [np.flatnonzero(labels == c) for c in range(N_CLASSES)]
    for c, idx in enumerate(by_class):
        if idx.size == 0:
            raise ValueError("cannot balance absent class")
    while True:
        classes = rng.integers(0, N_CLASSES, size=batch_size)
        batch = np.array([by_class[c][rng.integers(0, by_class[c].size)] for c in classes],
                         dtype=np.int64)
        yield batch


def sequential_batches(n: int, batch_size: int, rng: np.random.Generator) -> list[np.ndarray]:
    """One epoch of shuffled indices, cut into batches (last may be short)."""
    order = rng.permutation(n)
    return [order[i:i + batch_size] for i in range(0, n, batch_size)]


def split_dataset(dataset: Dataset, fractions=(0.7, 0.1, 0.2), seed: int = 0
                  ) -> tuple[Dataset, Dataset, Dataset]:
    """Stratified train/val/test split; per-class counts follow the fractions."""
    if len(fractions) != 3 or abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("fractions must be three numbers summing to 1")
    rng = np.random.default_rng(seed)
    labels = dataset.labels()
    parts: list[list[int]] = [[], [], []]
    for c in range(N_CLASSES):
        idx = np.flatnonzero(labels == c)
        rng.shuffle(idx)
        n_c = idx.size
        n_train = int(round(fractions[0] * n_c))
        n_val = int(round(fractions[1] * n_c))
        n_train = min(n_train, n_c)
        n_val = min(n_val, n_c - n_train)
        parts[0].extend(idx[:n_train])
        parts[1].extend(idx[n_train:n_train + n_val])
        parts[2].extend(idx[n_train + n_val:])
    out = []
    for part, tag in zip(parts, ("train", "val", "test")):
        part = sorted(part)
        out.append(Dataset([dataset.records[i] for i in part], split=tag))
    return tuple(out)
