"""Output checks that rest on independent computations and on properties of
the method, never on a stored copy of earlier output.

Each check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

THRESHOLDS = (-0.5, 0.0, 0.5)
N_CLASSES = 4


def margin_loss_loops(scores, labels, embeddings, pool_labels, pool_scores,
                      pool_embeddings) -> float:
    """Mean hinged ranking residual over every (sample, pool entry) pair,
    written with plain loops: same-label pairs pay |s1 - s2|, cross-label
    pairs pay margin - signed gap, margin = 0.5 (gap - 1) + 0.25 (cos + 1)."""
    def norm(v):
        return math.sqrt(sum(float(x) ** 2 for x in v))

    total = 0.0
    for s1, l1, e1 in zip(scores, labels, embeddings):
        for s2, l2, e2 in zip(pool_scores, pool_labels, pool_embeddings):
            s1, s2, l1, l2 = float(s1), float(s2), int(l1), int(l2)
            if l1 == l2:
                f = abs(s1 - s2)
            else:
                n1, n2 = norm(e1), norm(e2)
                cos = (0.0 if n1 == 0.0 or n2 == 0.0 else
                       sum(float(a) * float(b) for a, b in zip(e1, e2)) / (n1 * n2))
                m = 0.5 * (abs(l1 - l2) - 1) + 0.25 * (cos + 1.0)
                f = m - ((s1 - s2) if l1 > l2 else (s2 - s1))
            total += max(f, 0.0)
    return total / (len(scores) * len(pool_scores))


def reference_counts(proportions, n: int) -> list[int]:
    """Class counts of an n-record synthetic set: largest-remainder rounding
    of the proportions, ties to the lower class."""
    total = float(sum(proportions))
    ideal = [p / total * n for p in proportions]
    counts = [math.floor(x) for x in ideal]
    order = sorted(range(len(ideal)), key=lambda c: (-(ideal[c] - counts[c]), c))
    for c in order[:n - sum(counts)]:
        counts[c] += 1
    return counts


def held_out_counts(class_counts, fractions=(0.7, 0.1, 0.2)) -> list[int]:
    """Per-class size of the test part of a stratified 70/10/20 split."""
    out = []
    for n_c in class_counts:
        n_train = min(int(round(fractions[0] * n_c)), n_c)
        n_val = min(int(round(fractions[1] * n_c)), n_c - n_train)
        out.append(n_c - n_train - n_val)
    return out


def threshold_class(score: float) -> int:
    return sum(1 for t in THRESHOLDS if score >= t)


def recompute_report(preds, labels) -> tuple:
    """(confusion, acc, avg_acc) from predicted and true classes, by loops."""
    confusion = [[0] * N_CLASSES for _ in range(N_CLASSES)]
    for p, y in zip(preds, labels):
        confusion[int(y)][int(p)] += 1
    total = sum(map(sum, confusion))
    acc = sum(confusion[c][c] for c in range(N_CLASSES)) / total
    recalls = [confusion[c][c] / sum(confusion[c])
               for c in range(N_CLASSES) if sum(confusion[c])]
    return confusion, acc, sum(recalls) / len(recalls)


def check_report(confusion, acc, avg_acc, preds, labels, expected_counts,
                 where: str) -> list[str]:
    """A reported confusion/acc/avg_acc against recomputation from raw
    predictions, and its row sums against the generated class counts."""
    problems = []
    ref_conf, ref_acc, ref_avg = recompute_report(preds, labels)
    if [list(map(int, row)) for row in confusion] != ref_conf:
        problems.append(f"{where}: confusion matrix differs from recomputation")
    if [sum(map(int, row)) for row in confusion] != list(expected_counts):
        problems.append(f"{where}: confusion row sums {np.sum(confusion, axis=1)} "
                        f"!= generated class counts {expected_counts}")
    if abs(acc - ref_acc) > 1e-12 or abs(avg_acc - ref_avg) > 1e-12:
        problems.append(f"{where}: acc/avg_acc {acc}/{avg_acc} != recomputed "
                        f"{ref_acc}/{ref_avg}")
    return problems


def check_finite(named_arrays, where: str) -> list[str]:
    return [f"{where}: {name} is not finite" for name, value in named_arrays
            if not np.all(np.isfinite(value))]


def check_pool(pool, capacity: int) -> list[str]:
    problems = []
    if len(pool) != capacity:
        problems.append(f"pool holds {len(pool)} entries, expected {capacity}")
    if np.any((pool.labels < 0) | (pool.labels > N_CLASSES - 1)):
        problems.append("pool label outside 0..3")
    if np.any(np.abs(pool.scores) > 1.0):
        problems.append("pool score outside [-1, 1]")
    return problems


def records_equal(a, b) -> bool:
    """Bitwise equality of two record lists."""
    def same(x, y):
        if x is None or y is None:
            return x is None and y is None
        return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()

    if len(a) != len(b):
        return False
    return all(
        ra.id == rb.id and ra.label == rb.label and ra.latent == rb.latent
        and same(ra.frames.values, rb.frames.values)
        and same(ra.global_feature, rb.global_feature)
        and same(ra.speech_embedding, rb.speech_embedding)
        and same(ra.audio_meta, rb.audio_meta)
        for ra, rb in zip(a, b))


def digest(named_arrays) -> str:
    """sha256 over names, shapes and bytes of arrays, in the given order."""
    h = hashlib.sha256()
    for name, value in named_arrays:
        value = np.ascontiguousarray(value)
        h.update(f"{name}:{value.dtype}:{value.shape};".encode())
        h.update(value.tobytes())
    return h.hexdigest()
