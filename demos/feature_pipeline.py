"""
From raw frame sequences to model-ready chunk summaries
========================================================

The model never sees raw per-frame features.  Every record goes through the
same three steps: pad short clips by repetition, cut the sequence into a
fixed number of chunks, then summarize each chunk with min / max / variance
per channel.  This script walks one tiny record through each step and then
round-trips a synthetic dataset through the JSONL store.
"""

import os
import tempfile

import numpy as np

from engagerank import featurepipe as fp

rng = np.random.default_rng(0)

# A clip with 3 feature channels and only 7 frames, far below the padding
# floor used here (12).
frames = fp.FrameSequence(rng.standard_normal((3, 7)))
print("original frames:", frames.values.shape)

padded = fp.repeat_pad(frames, min_frames=12)
print("after repeat_pad(min_frames=12):", padded.values.shape)
# Padding repeats the whole clip, so frame 7 is frame 0 again.
assert np.array_equal(padded.values[:, 7], padded.values[:, 0])

# Four chunks out of 14 frames: 14 = 4*3 + 2, so the first two chunks get an
# extra frame (sizes 4, 4, 3, 3).
summary = fp.chunk_summarize_batch([padded], n_chunks=4)[0]
print("chunk summary shape (3 stats x channels, chunks):", summary.shape)

# Row layout: per-channel minima first, then maxima, then variances.
first_chunk = padded.values[:, :4]
np.testing.assert_allclose(summary[0, 0], first_chunk[0].min())
np.testing.assert_allclose(summary[3, 0], first_chunk[0].max())
np.testing.assert_allclose(summary[6, 0], first_chunk[0].var())
print("row 0 = min of channel 0, row 3 = max, row 6 = variance")

# prepare_record does pad + summarize in one call, straight from a record.

# ---------------------------------------------------------------------------
# A synthetic imbalanced dataset, saved and loaded back.
# ---------------------------------------------------------------------------

dataset = fp.synth_dataset(n=40, n_channels=3, global_dim=6, n_frames=20,
                           proportions=(346, 2208, 8469, 1170), noise=0.3,
                           seed=7)
print("\nclass counts at reference imbalance:", dataset.class_counts())

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "demo_records.jsonl")
    fp.save_records(dataset, path)
    loaded = fp.load_records(path)
assert len(loaded.records) == len(dataset.records)
np.testing.assert_array_equal(loaded.records[5].global_feature,
                              dataset.records[5].global_feature)
print("JSONL round trip preserved", len(loaded.records), "records")
# A summary depends only on a clip's frame values, so a reloaded record
# summarizes to the same bytes as the one in memory.
for original, reloaded in zip(dataset.records, loaded.records):
    assert (fp.prepare_record(reloaded, n_chunks=2, min_frames=12).tobytes()
            == fp.prepare_record(original, n_chunks=2, min_frames=12).tobytes())
print("reloaded records summarize to the same bytes")

# Stratified 70/10/20 split keeps each class's share in every part.
train, val, test = fp.split_dataset(dataset, seed=0)
print("split sizes:", len(train.records), len(val.records), len(test.records))
print("train counts:", train.class_counts(), " test counts:", test.class_counts())
