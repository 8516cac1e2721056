"""In-memory spans around the public functions of engagerank's layers.

The tracer patches module attributes (and ``ScorePool.push``) from outside
the package: each wrapped call records a span ``[name, start_ns, end_ns,
parent]`` and, for some layers, counts of the work it did.  The package
looks these functions up through their modules at call time, so the
wrappers see every internal call too.  ``uninstall`` restores the originals.
"""

from __future__ import annotations

import os
import sys
import time

from engagerank import featurepipe, harness, metrics, mocorank, model

# Forward stages timed directly on a workload's own batch (the batched
# forward calls private helpers, so these never run inside it).
STAGES = ("model.temporal_encoder", "model.attention_fuse", "model.concat_fuse",
          "model.score_head")
STAGE_REPEATS = 10


def _load_counts(tracer, args, kwargs, out):
    tracer.count("featurepipe.load_records.records", len(out.records))
    tracer.count("featurepipe.load_records.bytes", os.path.getsize(args[0]))


def _save_counts(tracer, args, kwargs, out):
    tracer.count("featurepipe.save_records.records", len(args[0].records))


def _synth_counts(tracer, args, kwargs, out):
    tracer.count("featurepipe.synth_dataset.records", len(out.records))


def _prepare_counts(tracer, args, kwargs, out):
    tracer.count("model.prepare_batch.records", len(args[0]))


def _checkpoint_counts(tracer, args, kwargs, out):
    tracer.count("harness.checkpoint.bytes", os.path.getsize(args[1]))


def _forward_name(args, kwargs, caller):
    mode = kwargs.get("mode", args[3] if len(args) > 3 else "eval")
    if mode == "train":
        return "model.forward_batch.train"
    # the momentum encoder's re-score of the batch just trained on
    if caller == "_score_with_encoder":
        return "model.forward_batch.rescore"
    return "model.forward_batch.eval"


def _keep_train_batch(tracer, args, kwargs, out):
    if out.mode == "train":
        tracer.last_train_batch = (args[0], args[1], args[2])


# (owner, attribute, span name or namer(args, kwargs, caller), counter)
_LAYERS = (
    (featurepipe, "load_records", "featurepipe.load_records", _load_counts),
    (featurepipe, "save_records", "featurepipe.save_records", _save_counts),
    (featurepipe, "synth_dataset", "featurepipe.synth_dataset", _synth_counts),
    (featurepipe, "prepare_record", "featurepipe.prepare_record", None),
    (model, "prepare_batch", "model.prepare_batch", _prepare_counts),
    (model, "forward_batch", _forward_name, _keep_train_batch),
    (model, "backward", "model.backward", None),
    (mocorank, "multi_margin_loss", "mocorank.multi_margin_loss", None),
    (mocorank, "cb_focal_loss", "mocorank.cb_focal_loss", None),
    (mocorank, "momentum_update", "mocorank.momentum_update", None),
    (mocorank.ScorePool, "push", "mocorank.ScorePool.push", None),
    (mocorank, "pool_init", "mocorank.pool_init", None),
    (harness, "adamw_step", "harness.adamw_step", None),
    (harness, "train_epochs", "harness.train_epochs", None),
    (harness, "init_train_state", "harness.init_train_state", None),
    (harness, "evaluate", "harness.evaluate", None),
    (harness, "save_checkpoint", "harness.save_checkpoint", _checkpoint_counts),
    (harness, "load_checkpoint", "harness.load_checkpoint", None),
    (metrics, "confusion_matrix", "metrics.confusion_matrix", None),
)


class Tracer:
    """Spans and counts kept in memory until the run writes them out."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.last_train_batch = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _open(self, name: str) -> list:
        span = [name, 0, 0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter_ns()
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter_ns()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn under a span of the given name."""
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def _wrap(self, fn, name, counter):
        tracer = self

        def traced(*args, **kwargs):
            label = (name if isinstance(name, str)
                     else name(args, kwargs, sys._getframe(1).f_code.co_name))
            span = tracer._open(label)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if counter is not None:
                counter(tracer, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, counter in _LAYERS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counter))
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def stage_split(self, repeats: int = STAGE_REPEATS) -> None:
        """Time the public forward stages on the last training batch seen,
        in eval mode with the parameters as they are now."""
        if self.last_train_batch is None:
            return
        chunks, gfeat, params = self.last_train_batch
        for _ in range(repeats):
            encoded = self.call(STAGES[0], model.temporal_encoder, chunks, params)
            pooled, _ = self.call(STAGES[1], model.attention_fuse, encoded, gfeat,
                                  params)
            fused = self.call(STAGES[2], model.concat_fuse, gfeat, pooled, params)
            if "head.w" in params:              # the cosine (scalar) head
                self.call(STAGES[3], model.score_head, fused, params)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}


def summarize(spans: list) -> dict:
    """Per span name: [calls, total ns, self ns]; self time is a span's
    duration minus the durations of its direct children."""
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, list] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        row = out.setdefault(name, [0, 0, 0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child_ns[i]
    return out


def top_level_ns(spans: list) -> int:
    """Time covered by spans that have no parent span."""
    return sum(end - start for _, start, end, parent in spans if parent < 0)


def merge(into: dict, other: dict) -> dict:
    for name, row in other.items():
        acc = into.setdefault(name, [0, 0, 0])
        for i in range(3):
            acc[i] += row[i]
    return into


# ---------------------------------------------------------------------------
# Per-layer metrics derived from the spans of the traced rounds
# ---------------------------------------------------------------------------

def _per_call(row, self_time=False, scale=1e-6):
    calls = row[0]
    return (row[2] if self_time else row[1]) * scale / calls if calls else 0.0


def _per(total, n):
    return total / n if n else 0.0


def layer_metrics(summary: dict, counts: dict, rounds: int, distinct: int,
                  cli: dict, overhead_pct: float) -> dict:
    """name -> (value, unit).  ``.calls`` is calls per traced round; a layer
    the workload never reaches reads 0 with 0 calls.  ``cli`` maps
    "startup" and each command name to [calls, ns]."""
    zero = [0, 0, 0]
    row = lambda name: summary.get(name, zero)      # noqa: E731
    out: dict[str, tuple] = {}

    def calls(name):
        out[name + ".calls"] = (_per(row(name)[0], rounds), "count")

    def ms(name):
        out[name + ".ms"] = (_per_call(row(name)), "ms")
        calls(name)

    for layer in ("load_records", "save_records", "synth_dataset"):
        name = "featurepipe." + layer
        out[name + ".ms_per_record"] = (
            _per(row(name)[1] * 1e-6, counts.get(name + ".records", 0)), "ms")
        calls(name)
    out["featurepipe.load_records.mb_per_s"] = (
        _per(counts.get("featurepipe.load_records.bytes", 0) * 1e-6,
             row("featurepipe.load_records")[1] * 1e-9), "MB/s")
    ms("featurepipe.prepare_record")

    prep = row("model.prepare_batch")
    chunked = counts.get("model.prepare_batch.records", 0)
    out["model.prepare_batch.ms_per_record"] = (_per(prep[1] * 1e-6, chunked), "ms")
    out["model.prepare_batch.records_per_distinct"] = (
        _per(chunked, rounds * distinct), "ratio")
    calls("model.prepare_batch")
    for kind in ("train", "rescore", "eval"):
        ms("model.forward_batch." + kind)
    ms("model.backward")
    for name in STAGES:
        ms(name)

    for name in ("multi_margin_loss", "cb_focal_loss", "momentum_update",
                 "ScorePool.push"):
        ms("mocorank." + name)
    out["mocorank.pool_init.self_s"] = (
        _per_call(row("mocorank.pool_init"), True, 1e-9), "s")
    calls("mocorank.pool_init")

    ms("harness.adamw_step")
    out["harness.train_epochs.self_ms_per_step"] = (
        _per(row("harness.train_epochs")[2] * 1e-6, row("harness.adamw_step")[0]), "ms")
    calls("harness.train_epochs")
    out["harness.init_train_state.self_s"] = (
        _per_call(row("harness.init_train_state"), True, 1e-9), "s")
    calls("harness.init_train_state")
    out["harness.evaluate.self_ms"] = (_per_call(row("harness.evaluate"), True), "ms")
    calls("harness.evaluate")
    ms("harness.save_checkpoint")
    ms("harness.load_checkpoint")
    out["harness.checkpoint.mb"] = (
        _per(counts.get("harness.checkpoint.bytes", 0) * 1e-6,
             row("harness.save_checkpoint")[0]), "MB")
    ms("metrics.confusion_matrix")

    n, ns = cli.get("startup", (0, 0))
    out["cli.startup_s"] = (_per(ns * 1e-9, n), "s")
    out["cli.startup.calls"] = (_per(n, rounds), "count")
    for command in ("synth", "train", "eval"):
        n, ns = cli.get(command, (0, 0))
        out[f"cli.{command}.self_s"] = (_per(ns * 1e-9, n), "s")
        out[f"cli.{command}.calls"] = (_per(n, rounds), "count")
    out["trace.overhead_pct"] = (overhead_pct, "%")
    return out
