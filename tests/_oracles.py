"""Hand-rolled reference computations the tests compare the library against.

Everything here is deliberately written with plain loops, sharing no code
with the package, so agreement is evidence rather than tautology.  The
optimizer and momentum references are the per-tensor numpy loops the package
ran before its parameters moved into one vector; the whole-vector updates
must match them bit for bit.  The causal-tap references build the taps from a
zero-padded copy of the sequence, batch-major; one product over them gives a
causal conv, which the package's time-major conv (K shifted products, no tap
matrix) matches up to rounding.  The per-record temporal encoder is the
batch-major one the package ran before its encoder went to one layout over
the whole batch, with one conv product per record; the package's encoder
differs from it only by rounding.  The all-slots pool fill is the score
pool's fill before it forwarded each picked record once; it takes the
scoring as an argument, and with ``score_batch``, whose bytes for a record
do not depend on its batch, the package's fill matches it bit for bit.
"""
import math

import numpy as np


def _norm(v):
    return math.sqrt(sum(float(x) * float(x) for x in v))


def _cosine(e1, e2, n1, n2):
    """Cosine of two embeddings of norms n1 and n2; 0 when either is zero."""
    if n1 == 0.0 or n2 == 0.0:
        return 0.0
    return sum(float(x) * float(y) for x, y in zip(e1, e2)) / (n1 * n2)


def pair_residuals_brute(scores, labels, embeddings, pool_labels, pool_scores,
                         pool_embeddings):
    """Raw (un-hinged) ranking residual of every (sample, pool entry) pair,
    as a list of rows."""
    e_norms = [_norm(e) for e in embeddings]
    p_norms = [_norm(e) for e in pool_embeddings]
    rows = []
    for i in range(len(scores)):
        row = []
        for j in range(len(pool_labels)):
            l1, l2 = int(labels[i]), int(pool_labels[j])
            s1, s2 = float(scores[i]), float(pool_scores[j])
            if l1 == l2:
                f = abs(s1 - s2)
            else:
                cos = _cosine(embeddings[i], pool_embeddings[j], e_norms[i], p_norms[j])
                m = 0.5 * (abs(l1 - l2) - 1) + 0.5 * (cos + 1.0) / 2.0
                gap = (s1 - s2) if l1 > l2 else (s2 - s1)
                f = m - gap
            row.append(f)
        rows.append(row)
    return rows


def margin_loss_brute(scores, labels, embeddings, pool_labels, pool_scores,
                      pool_embeddings):
    """Mean hinged ranking residual over every (sample, pool entry) pair."""
    b, p = len(scores), len(pool_labels)
    total = 0.0
    for row in pair_residuals_brute(scores, labels, embeddings, pool_labels,
                                    pool_scores, pool_embeddings):
        for f in row:
            if f > 0.0:
                total += f
    return total / (b * p)


def margin_grads_brute(scores, labels, embeddings, pool_labels, pool_scores,
                       pool_embeddings):
    """Gradients of margin_loss_brute: (d_scores, d_embeddings) as lists.

    A hinge at exactly zero, and so a same-label tie, takes subgradient 0.
    Each score gradient is a whole count of +-1 terms times 1/(B*P).  The
    embedding gradient runs through the cosine alone (d f / d cos = 0.25 on a
    live cross-label pair), and is zero for a zero-norm embedding on either
    side.
    """
    b, p = len(scores), len(pool_labels)
    scale = 1.0 / (b * p)
    residuals = pair_residuals_brute(scores, labels, embeddings, pool_labels,
                                     pool_scores, pool_embeddings)
    e_norms = [_norm(e) for e in embeddings]
    p_norms = [_norm(e) for e in pool_embeddings]
    d_scores, d_embeddings = [], []
    for i in range(b):
        count = 0
        grad = [0.0] * len(embeddings[i])
        for j in range(p):
            if residuals[i][j] <= 0.0:
                continue
            l1, l2 = int(labels[i]), int(pool_labels[j])
            if l1 == l2:
                count += 1 if float(scores[i]) > float(pool_scores[j]) else -1
                continue
            count += -1 if l1 > l2 else 1
            if e_norms[i] == 0.0 or p_norms[j] == 0.0:
                continue
            cos = _cosine(embeddings[i], pool_embeddings[j], e_norms[i], p_norms[j])
            for k in range(len(grad)):
                dcos = (float(pool_embeddings[j][k]) / p_norms[j]
                        - cos * float(embeddings[i][k]) / e_norms[i]) / e_norms[i]
                grad[k] += 0.25 * dcos
        d_scores.append(count * scale)
        d_embeddings.append([g * scale for g in grad])
    return d_scores, d_embeddings


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


def _dropout_mask(shape, rate, train, rng):
    if not train or rate <= 0.0:
        return None
    return (rng.random(shape) >= rate) / (1.0 - rate)


def _masked(x, mask):
    return x if mask is None else x * mask


def _tcn_block_per_record(x, params, prefix, dilation, kernel, train, rng, dropout):
    """One batch-major residual block, (B,C,T) -> (B,O,T), and its cache."""
    w1, w2 = params[f"{prefix}.conv1.w"], params[f"{prefix}.conv2.w"]
    o = w1.shape[0]
    b, ch, t = x.shape
    cols1 = causal_cols_padded(x, kernel, dilation)
    h1 = np.matmul(w1.reshape(o, ch * kernel), cols1.reshape(b, ch * kernel, t))
    h1 += params[f"{prefix}.conv1.b"][:, None]
    s1 = h1 > 0
    np.maximum(h1, 0.0, out=h1)
    m1 = _dropout_mask(h1.shape, dropout, train, rng)
    h1 = _masked(h1, m1)
    cols2 = causal_cols_padded(h1, kernel, dilation)
    out = np.matmul(w2.reshape(o, o * kernel), cols2.reshape(b, o * kernel, t))
    out += params[f"{prefix}.conv2.b"][:, None]
    s2 = out > 0
    np.maximum(out, 0.0, out=out)
    m2 = _dropout_mask(out.shape, dropout, train, rng)
    out = _masked(out, m2)
    if f"{prefix}.down.w" in params:
        res = np.matmul(params[f"{prefix}.down.w"], x)
        res += params[f"{prefix}.down.b"][:, None]
        out += res
    else:
        out += x
    s_out = out > 0
    np.maximum(out, 0.0, out=out)
    return out, {"x": x, "dilation": dilation, "cols1": cols1, "s1": s1, "m1": m1,
                 "cols2": cols2, "s2": s2, "m2": m2, "s_out": s_out}


def _weight_grad_per_record(dout, cols):
    b, ch, kernel, t = cols.shape
    o = dout.shape[1]
    dout2 = dout.transpose(1, 0, 2).reshape(o, b * t)
    cols2 = cols.transpose(1, 2, 0, 3).reshape(ch * kernel, b * t)
    return (dout2 @ cols2.T).reshape(o, ch, kernel)


def _taps_grad_per_record(w, dout, dilation, t):
    o, ch, kernel = w.shape
    dcols = np.matmul(w.reshape(o, ch * kernel).T, dout)
    return causal_cols_padded_backward(dcols.reshape(-1, ch, kernel, t), dilation, t)


def _tcn_block_per_record_backward(dout, cache, params, prefix, grads, need_dx):
    dilation = cache["dilation"]
    t = dout.shape[2]
    w1, w2 = params[f"{prefix}.conv1.w"], params[f"{prefix}.conv2.w"]
    dpre_out = dout * cache["s_out"]
    dpre2 = _masked(dpre_out, cache["m2"]) * cache["s2"]
    grads[f"{prefix}.conv2.w"] += _weight_grad_per_record(dpre2, cache["cols2"])
    grads[f"{prefix}.conv2.b"] += dpre2.sum(axis=(0, 2))
    dh1 = _taps_grad_per_record(w2, dpre2, dilation, t)
    dpre1 = _masked(dh1, cache["m1"]) * cache["s1"]
    grads[f"{prefix}.conv1.w"] += _weight_grad_per_record(dpre1, cache["cols1"])
    grads[f"{prefix}.conv1.b"] += dpre1.sum(axis=(0, 2))
    has_down = f"{prefix}.down.w" in params
    if has_down:
        o, x = dpre_out.shape[1], cache["x"]
        dp2 = dpre_out.transpose(1, 0, 2).reshape(o, -1)
        x2 = x.transpose(1, 0, 2).reshape(x.shape[1], -1)
        grads[f"{prefix}.down.w"] += dp2 @ x2.T
        grads[f"{prefix}.down.b"] += dpre_out.sum(axis=(0, 2))
    if not need_dx:
        return None
    dx = _taps_grad_per_record(w1, dpre1, dilation, t)
    if has_down:
        dx += np.matmul(params[f"{prefix}.down.w"].T, dpre_out)
    else:
        dx += dpre_out
    return dx


def tcn_forward_per_record(x, params, train, rng):
    """Batch-major temporal encoder: (B,3D,T) -> ((B,C,T), per-block caches).

    Takes the arguments of the package's ``model._tcn_forward`` so it can
    stand in for it; caches are kept whatever ``train`` says.
    """
    cfg = params.config
    caches = []
    for i, dilation in enumerate(cfg.dilations):
        x, cache = _tcn_block_per_record(x, params, f"tcn.{i}", dilation,
                                         cfg.kernel_size, train, rng, cfg.dropout)
        caches.append(cache)
    return x, caches


def tcn_backward_per_record(dout, caches, params, grads):
    """Adjoint of ``tcn_forward_per_record``, accumulating into ``grads``;
    a stand-in for ``model._tcn_backward``."""
    for i in reversed(range(len(params.config.dilations))):
        dout = _tcn_block_per_record_backward(dout, caches[i], params, f"tcn.{i}",
                                              grads, need_dx=i > 0)


def pool_fill_all_rows(labels, records, capacity, seed, score_records):
    """The score pool's fill as it was before it forwarded each picked record
    once: ceil(capacity/4) draws per class cut to ``capacity``, shuffled, and
    ``score_records`` (records -> (scores, embeddings), an eval scoring) run
    over every slot, duplicates included.  Returns the slot records, their
    labels, scores and embeddings.  Its draws match the package's fill only
    when capacity is a multiple of 4; otherwise the cut leaves the last class
    short.
    """
    rng = np.random.default_rng(seed)
    per_class = math.ceil(capacity / 4)
    labels = np.asarray(labels)
    picked = []
    for cls in range(4):
        cls_idx = np.flatnonzero(labels == cls)
        picked.extend(rng.choice(cls_idx, size=per_class,
                                 replace=cls_idx.size < per_class).tolist())
    picked = picked[:capacity]
    order = rng.permutation(len(picked))
    slot_records = [records[picked[i]] for i in order]
    scores, embeddings = score_records(slot_records)
    return (slot_records, np.array([labels[picked[i]] for i in order]), scores,
            embeddings)
