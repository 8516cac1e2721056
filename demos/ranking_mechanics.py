"""
Inside the ranking mechanism: momentum encoder, score pool, margins
===================================================================

Training with the ranking loss never compares batch samples with each
other.  Each sample is compared with every entry of a score pool that was
filled by a slow-moving momentum copy of the model.  This script builds
each piece by hand at toy size: a momentum update you can verify with
arithmetic, the FIFO discipline of the pool, the cosine-adaptive margin
ladder, and one loss evaluation checked against an explicit double loop.
"""

import numpy as np

from engagerank import featurepipe as fp
from engagerank import mocorank
from engagerank import model

rng = np.random.default_rng(7)

# ---------------------------------------------------------------------------
# 1. The momentum encoder trails the model
# ---------------------------------------------------------------------------
cfg = model.ModelConfig(n_channels=2, n_chunks=4, width=4, global_dim=5)
params = model.init_params(cfg, seed=0)
enc = mocorank.MomentumEncoder.from_model(params)

w_before = enc.params["head.w"].copy()
params["head.w"][:] += 1.0                  # pretend one optimizer step
mocorank.momentum_update(enc, params, m=0.9)

# w_m <- 0.9 * w_m + 0.1 * w, so the encoder moved a tenth of the way.
np.testing.assert_allclose(enc.params["head.w"],
                           0.9 * w_before + 0.1 * params["head.w"])
gap = np.abs(enc.params["head.w"] - params["head.w"]).max()
print(f"after one update the encoder still lags the model by {gap:.3f}")

# ---------------------------------------------------------------------------
# 2. The score pool is a FIFO ring
# ---------------------------------------------------------------------------
pool = mocorank.ScorePool(capacity=4)
pool.push(np.array([0, 1]), np.array([-0.8, -0.2]), np.eye(2, 3))
pool.push(np.array([2, 3]), np.array([0.3, 0.9]), np.eye(2, 3))
print("pool labels after two pushes: ", pool.labels)

# A third push evicts exactly the oldest two entries, nothing else.  The
# storage array is a ring, so the new pair lands in the evicted slots;
# entries() presents the survivors oldest first.
pool.push(np.array([1, 1]), np.array([-0.1, -0.3]), np.eye(2, 3))
print("pool labels after a third push:", pool.labels)
assert [e.label for e in pool.entries()] == [2, 3, 1, 1]

# ---------------------------------------------------------------------------
# 3. Margins widen with the label gap and with embedding similarity
# ---------------------------------------------------------------------------
# For a label gap d of 1, 2 or 3 the margin is 0.5 (d - 1) + 0.5 (cos + 1) / 2,
# where cos is the cosine of the two embeddings.
def margin(d, e1, e2):
    cos = e1 @ e2 / (np.linalg.norm(e1) * np.linalg.norm(e2))
    return 0.5 * (d - 1) + 0.5 * (cos + 1) / 2


e = np.array([1.0, 0.0])
for other, name in [(np.array([1.0, 0.0]), "parallel"),
                    (np.array([0.0, 1.0]), "orthogonal"),
                    (np.array([-1.0, 0.0]), "opposite")]:
    ladder = [margin(d, e, other) for d in (1, 2, 3)]
    print(f"margins vs {name:>10} embedding:",
          " ".join(f"{m:.2f}" for m in ladder))

# Parallel embeddings (cos = 1) demand the widest margins: 0.5, 1.0, 1.5.
np.testing.assert_allclose([margin(d, e, e) for d in (1, 2, 3)], [0.5, 1.0, 1.5])
# Opposite embeddings (cos = -1) already look different, so the score gap
# may shrink by 0.5 at every rung.
np.testing.assert_allclose([margin(d, e, -e) for d in (1, 2, 3)], [0.0, 0.5, 1.0])

# The library has no separate margin function: against a one-entry pool at
# an equal score, the loss of a sample d classes higher is exactly its margin.
other = np.array([0.6, 0.8])
one = mocorank.ScorePool(1).push([0], [0.2], other[None])
for d in (1, 2, 3):
    loss, _, _ = mocorank.multi_margin_loss(np.array([0.2]), np.array([d]),
                                            e[None], one)
    np.testing.assert_allclose(loss, margin(d, e, other), rtol=1e-12)

# ---------------------------------------------------------------------------
# 4. One loss evaluation, checked against the definition
# ---------------------------------------------------------------------------
# Batch of 3 against a pool of 4.  Scores are deliberately misordered so
# several hinges are live.
scores = np.array([0.4, -0.6, 0.1])
labels = np.array([0, 3, 2])
embeds = rng.standard_normal((3, 3))

loss, d_scores, d_embeds = mocorank.multi_margin_loss(
    scores, labels, embeds, pool)

# A same-label pair pays |s1 - s2|; otherwise the higher-labelled sample must
# outscore the lower one by the margin, and the pair pays the shortfall.
def pair_term(l1, s1, e1, l2, s2, e2):
    if l1 == l2:
        return abs(s1 - s2)
    return margin(abs(l1 - l2), e1, e2) - np.sign(l1 - l2) * (s1 - s2)


total = 0.0
for i in range(3):
    for entry in pool.entries():
        term = pair_term(labels[i], scores[i], embeds[i],
                         entry.label, entry.score, entry.embedding)
        total += max(term, 0.0)
brute = total / (3 * len(pool))
np.testing.assert_allclose(loss, brute, rtol=1e-12)
print(f"\nloss over 3x4 pairs: {loss:.4f} (matches the explicit double loop)")

# The gradient pushes misranked scores in the correcting direction: sample 0
# (lowest class, scored 0.4) must come down, sample 1 (highest class, scored
# -0.6) must go up.
print("score gradients:", np.round(d_scores, 3))
assert d_scores[0] > 0 and d_scores[1] < 0

# ---------------------------------------------------------------------------
# 5. Same-label pairs pull scores together
# ---------------------------------------------------------------------------
# With a pool entry of the same class at score -0.1, a sample at 0.5 pays
# |0.5 - (-0.1)| even though no ranking is violated.
entry = pool.entries()[2]
term = pair_term(1, 0.5, embeds[0], entry.label, entry.score, entry.embedding)
np.testing.assert_allclose(term, 0.6)
print(f"same-label residual at scores 0.5 vs {entry.score:.1f}: {term:.1f}")

# ---------------------------------------------------------------------------
# 6. The full circle: pool refilled by the encoder during training
# ---------------------------------------------------------------------------
data = fp.synth_dataset(48, n_channels=2, global_dim=5, n_frames=12,
                        noise=0.4, seed=3, speech_dim=6)
pool = mocorank.pool_init(data, enc, capacity=8, seed=1)
counts = np.bincount(pool.labels, minlength=4)
print("\npool_init class counts (balanced by construction):", counts)
assert (counts == 2).all()

# During training each batch is scored by the model, but enters the pool
# with the momentum encoder's view of it, keeping pool scores consistent
# with each other even while the model moves quickly.
records = data.records[:4]
enc_scores, enc_embeds, _ = model.score_batch(
    enc.params, model.prepare_batch(records, enc.params.config))
pool = pool.push(np.array([r.label for r in records]), enc_scores, enc_embeds)
print("pool ages after one training push: 4 fresh entries, 4 survivors")
