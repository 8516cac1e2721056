"""Hand-rolled reference computations the tests compare the library against.

Everything here is deliberately written with plain loops, sharing no code
with the package, so agreement is evidence rather than tautology.  The
optimizer and momentum references are the per-tensor numpy loops the package
ran before its parameters moved into one vector; the whole-vector updates
must match them bit for bit.  The causal-tap references build the taps from a
zero-padded copy of the sequence, as the package did before it wrote them
straight from the input; the two must agree bit for bit too.
"""
import math

import numpy as np


def margin_loss_brute(scores, labels, embeddings, pool_labels, pool_scores,
                      pool_embeddings):
    """Mean hinged ranking residual over every (sample, pool entry) pair."""
    def norm(v):
        return math.sqrt(sum(float(x) * float(x) for x in v))

    b, p = len(scores), len(pool_labels)
    e_norms = [norm(e) for e in embeddings]
    p_norms = [norm(e) for e in pool_embeddings]
    total = 0.0
    for i in range(b):
        for j in range(p):
            l1, l2 = int(labels[i]), int(pool_labels[j])
            s1, s2 = float(scores[i]), float(pool_scores[j])
            if l1 == l2:
                f = abs(s1 - s2)
            else:
                if e_norms[i] == 0.0 or p_norms[j] == 0.0:
                    cos = 0.0
                else:
                    dot = sum(float(x) * float(y)
                              for x, y in zip(embeddings[i], pool_embeddings[j]))
                    cos = dot / (e_norms[i] * p_norms[j])
                m = 0.5 * (abs(l1 - l2) - 1) + 0.5 * (cos + 1.0) / 2.0
                gap = (s1 - s2) if l1 > l2 else (s2 - s1)
                f = m - gap
            if f > 0.0:
                total += f
    return total / (b * p)


def icc_2_1_anova(table):
    """ICC(2,1) from two-way ANOVA mean squares, computed with bare loops."""
    n = len(table)
    k = len(table[0])
    grand = sum(sum(row) for row in table) / (n * k)
    row_means = [sum(row) / k for row in table]
    col_means = [sum(table[i][j] for i in range(n)) / n for j in range(k)]

    ss_rows = k * sum((rm - grand) ** 2 for rm in row_means)
    ss_cols = n * sum((cm - grand) ** 2 for cm in col_means)
    ss_total = sum((table[i][j] - grand) ** 2
                   for i in range(n) for j in range(k))
    ss_err = ss_total - ss_rows - ss_cols

    msr = ss_rows / (n - 1)
    msc = ss_cols / (k - 1)
    mse = ss_err / ((n - 1) * (k - 1))
    return (msr - mse) / (msr + (k - 1) * mse + k * (msc - mse) / n)


def adamw_per_key(params, grads, m, v, step, lr, weight_decay=1e-3, beta1=0.9,
                  beta2=0.999, eps=1e-8, frozen_keys=()):
    """One AdamW update, tensor by tensor, on dicts of arrays updated in place.

    ``m`` and ``v`` are per-key moment arrays and ``step`` is the update count
    including this one.  Frozen keys are skipped, decay included.
    """
    bc1 = 1.0 - beta1 ** step
    bc2 = 1.0 - beta2 ** step
    for key, p in params.items():
        if key in frozen_keys:
            continue
        g, mk, vk = grads[key], m[key], v[key]
        p *= 1.0 - lr * weight_decay
        mk *= beta1
        mk += (1.0 - beta1) * g
        vk *= beta2
        vk += (1.0 - beta2) * g * g
        update = (mk / bc1) / (np.sqrt(vk / bc2) + eps)
        p -= lr * update


def momentum_per_key(enc_params, params, m):
    """w_m <- m*w_m + (1-m)*w, tensor by tensor, on dicts updated in place."""
    for key, wm in enc_params.items():
        wm *= m
        wm += (1.0 - m) * params[key]


def causal_cols_padded(x, kernel, dilation):
    """(B,C,T) -> (B,C,K,T) kernel taps, read from a left zero-padded copy."""
    b, ch, t = x.shape
    pad = (kernel - 1) * dilation
    xp = np.concatenate([np.zeros((b, ch, pad)), x], axis=2)
    cols = np.empty((b, ch, kernel, t))
    for j in range(kernel):
        cols[:, :, j, :] = xp[:, :, j * dilation:j * dilation + t]
    return cols


def causal_cols_padded_backward(dcols, dilation, t):
    """Adjoint of causal_cols_padded: scatter-add the taps, drop the padding."""
    b, ch, kernel, _ = dcols.shape
    pad = (kernel - 1) * dilation
    dxp = np.zeros((b, ch, t + pad))
    for j in range(kernel):
        dxp[:, :, j * dilation:j * dilation + t] += dcols[:, :, j, :]
    return dxp[:, :, pad:]
