"""
Anatomy of the scoring model
=============================

One record flows through four stages: a causal dilated temporal encoder over
the chunk summaries, attention pooling queried by the global feature, a
concatenation path for the global feature itself, and a normalized scoring
head whose output always lands in [-1, 1].  This script runs a tiny batch
through the model and prints what each stage gives.
"""

import numpy as np

from engagerank import featurepipe as fp
from engagerank import model

config = model.ModelConfig(n_channels=3, n_chunks=6, width=8, global_dim=5,
                           speech_dim=4, min_frames=12)
params = model.init_params(config, seed=1)
print("parameter count:", params.n_params)
print("embedding width (global path + pooled path):", config.embed_dim)

data = fp.synth_dataset(n=4, n_channels=3, global_dim=5, n_frames=20, seed=2,
                        proportions=(1, 1, 1, 1))
chunks, gfeat, *_ = model.prepare_batch(data.records, config)
print("prepared batch:", chunks.shape, gfeat.shape)

trace = model.forward_batch(chunks, gfeat, params, mode="eval")

# The temporal encoder is causal: chunk t only sees chunks <= t.  Perturbing
# the last chunk leaves every earlier column of the encoding unchanged.
bumped = chunks.copy()
bumped[:, :, -1] += 10.0
trace_b = model.forward_batch(bumped, gfeat, params, mode="eval")
np.testing.assert_array_equal(trace.encoded[:, :, :-1], trace_b.encoded[:, :, :-1])
print("causality: early chunk encodings untouched by a late-chunk bump")

# Attention weights are a softmax over chunks, one row per record.
print("attention weights (record 0):", np.round(trace.attn[0], 3))
print("  sum:", trace.attn[0].sum())

# The fused embedding concatenates the global-feature path with the pooled
# temporal path; the score is a cosine against a learned direction.
print("fused embedding shape:", trace.embedding.shape)
print("scores:", np.round(trace.score, 4), "all within [-1, 1]")
assert np.all(np.abs(trace.score) <= 1.0)

# Fixed thresholds turn scores into the four ordinal levels.
print("classes:", model.classify(trace.score),
      "(thresholds -0.5 / 0 / 0.5)")

# Fusion ablations: without attention the pooling is uniform, without concat
# the global path is dropped.
for fusion in ("openface_only", "attention_only", "concat_only"):
    cfg = model.ModelConfig(n_channels=3, n_chunks=6, width=8, global_dim=5,
                            speech_dim=4, min_frames=12, fusion=fusion)
    p = model.init_params(cfg, seed=1)
    t = model.forward_batch(chunks, gfeat, p, mode="eval")
    print(f"{fusion:15s} embedding width {t.embedding.shape[1]}, "
          f"score[0] {t.score[0]:+.4f}")
