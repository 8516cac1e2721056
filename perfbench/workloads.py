"""The three workloads: in-process MocoRank training at the desk and paper
presets, and the engagerank command-line pipeline over JSONL files.

A workload is a sequence of identical rounds.  Each round is a whole job a
user would run (set up, train, evaluate), on fresh copies of inputs made
once per run from the workload seed, so every round ends with bitwise-equal
parameters; ``round`` returns the round's timings, a digest of the final
parameters and the problems its cheap checks found, and ``final_checks``
runs the costly output checks once, on the last round.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import tracer as tracing
from engagerank import featurepipe, harness, mocorank, model

# pinned here, so the inputs do not move with the package default
REFERENCE_PROPORTIONS = (346, 2208, 8469, 1170)
NOISE = 1.5
COMMAND_TIMEOUT_S = 150


class OperationFailed(RuntimeError):
    """A command exited non-zero."""


@dataclass
class RoundTimes:
    setup_s: float
    train_s: float
    eval_s: float
    wall_s: float                 # the round's timed work, used for overhead
    train_records: int
    eval_records: int


def _param_arrays(params, prefix: str):
    return [(prefix + k, v) for k, v in params.items()]


# ---------------------------------------------------------------------------
# In-process MocoRank training
# ---------------------------------------------------------------------------

class _LastMarginCall:
    """Keeps the arguments of the latest multi_margin_loss call (the final
    training batch) for the loop-oracle check; records nothing else."""

    def __init__(self):
        self.args = None
        self._original = None

    def install(self):
        original = self._original = mocorank.multi_margin_loss

        def keep(scores, labels, embeddings, pool, **kwargs):
            self.args = (scores, labels, embeddings)
            return original(scores, labels, embeddings, pool, **kwargs)

        mocorank.multi_margin_loss = keep

    def uninstall(self):
        mocorank.multi_margin_loss = self._original


class MocorankWorkload:
    """init_train_state, one epoch of train_epochs, evaluate on the test split.

    The corpus is criterion 4's: reference class proportions, feature noise
    1.5, 300-frame clips (divisible into the 10 chunks), no speech, split
    70/10/20 by class.
    """

    ops_per_round = 3

    def __init__(self, preset: str, seed: int, smoke: bool):
        n = 240 if smoke else 3000
        self.config = getattr(harness.TrainConfig, preset)(epochs=1, seed=seed)
        data = featurepipe.synth_dataset(n, noise=NOISE, seed=seed,
                                         proportions=REFERENCE_PROPORTIONS)
        self.train, _, self.test = featurepipe.split_dataset(data, seed=seed)
        self.expected_test_counts = checks.held_out_counts(
            checks.reference_counts(REFERENCE_PROPORTIONS, n))
        self.distinct = len(self.train.records) + len(self.test.records)
        self.last_call = _LastMarginCall()
        self._last = None

    def start(self):
        self.last_call.install()

    def stop(self):
        self.last_call.uninstall()

    def round(self, tracer=None) -> tuple[RoundTimes, str, list]:
        train, test = copy.deepcopy((self.train, self.test))
        cfg = self.config
        t0 = time.perf_counter()
        state = harness.init_train_state(cfg, train)
        t1 = time.perf_counter()
        harness.train_epochs(state, train)
        t2 = time.perf_counter()
        report = harness.evaluate(state, test)
        t3 = time.perf_counter()
        if tracer is not None:
            tracer.stage_split()
        self._last = (state, report, test)
        n_train = len(train.records) * cfg.epochs
        times = RoundTimes(t1 - t0, t2 - t1, t3 - t2, t3 - t0, n_train,
                           len(test.records))
        arrays = (_param_arrays(state.params, "param.")
                  + _param_arrays(state.enc.params, "momentum."))
        pool = state.pool.state()
        problems = checks.check_finite(
            arrays + [("epoch losses", [row["train_loss"] for row in state.history])],
            "state")
        problems += checks.check_pool(state.pool, cfg.pool_size)
        dig = checks.digest(arrays + [(k, pool[k]) for k in ("labels", "scores",
                                                               "embeddings")])
        return times, dig, problems

    def final_checks(self) -> list[str]:
        state, report, test = self._last
        problems = []
        scores, labels, embeddings = self.last_call.args
        rows = min(8, len(scores))
        cols = min(64, len(state.pool))
        pool = state.pool
        sub = mocorank.ScorePool(cols).push(pool.labels[:cols], pool.scores[:cols],
                                            pool.embeddings[:cols])
        got, _, _ = mocorank.multi_margin_loss(scores[:rows], labels[:rows],
                                               embeddings[:rows], sub)
        want = checks.margin_loss_loops(scores[:rows], labels[:rows],
                                        embeddings[:rows], sub.labels, sub.scores,
                                        sub.embeddings)
        if not abs(got - want) <= 1e-10:
            problems.append(f"multi_margin_loss {got!r} != loop oracle {want!r}")

        chunks, gfeat, _, _, _ = model.prepare_batch(test.records, state.params.config)
        scores = np.concatenate([
            model.forward_batch(chunks[i:i + 256], gfeat[i:i + 256], state.params,
                                mode="eval").score
            for i in range(0, len(chunks), 256)])
        if np.any(np.abs(scores) > 1.0):
            problems.append("test score outside [-1, 1]")
        preds = [checks.threshold_class(float(s)) for s in scores]
        problems += checks.check_report(report.confusion, report.acc, report.avg_acc,
                                        preds, test.labels(),
                                        self.expected_test_counts, "evaluate")
        return problems

    def layer_counts(self, tracer) -> dict:
        return {"summary": tracing.summarize(tracer.spans), "counts": tracer.counts,
                "cli": {}, "trace": tracer.dump()}


# ---------------------------------------------------------------------------
# The command-line pipeline
# ---------------------------------------------------------------------------

class CliWorkload:
    """synth train and test JSONL, train --preset desk --loss cb_focal with the
    test file as --val, then eval the checkpoint on the test file.

    Clips have 149 frames: below the 250-frame padding floor, so they are
    tiled to 298 frames and cut into 10 chunks of 30 or 29.  A quarter of the
    records carry speech embeddings.
    """

    ops_per_round = 4
    FRAMES = 149
    SPEECH_FRACTION = 0.25

    def __init__(self, seed: int, smoke: bool, root: Path, run_dir: Path):
        self.seed = seed
        self.n_train, self.n_test, self.epochs = (120, 60, 1) if smoke else (200, 100, 2)
        self.root, self.dir = root, run_dir
        self.distinct = self.n_train + self.n_test
        self.train_path = run_dir / "train.jsonl"
        self.test_path = run_dir / "test.jsonl"
        self.out_dir = run_dir / "run"
        self.eval_metrics = run_dir / "eval_metrics.json"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.traces: list[dict] = []
        self._file_digests = None
        self._round = 0

    def start(self):
        pass

    def stop(self):
        for path in (self.train_path, self.test_path,
                     self.out_dir / "checkpoint.npz"):
            path.unlink(missing_ok=True)

    def _synth_args(self, path, n, seed, split):
        return ["synth", "--out", str(path), "--n", str(n), "--frames",
                str(self.FRAMES), "--noise", str(NOISE), "--seed", str(seed),
                "--split", split, "--speech-fraction", str(self.SPEECH_FRACTION)]

    def _commands(self):
        return [
            ("synth", self._synth_args(self.train_path, self.n_train, self.seed,
                                       "train")),
            ("synth", self._synth_args(self.test_path, self.n_test, self.seed + 1,
                                       "test")),
            ("train", ["train", "--train", str(self.train_path), "--val",
                       str(self.test_path), "--out-dir", str(self.out_dir),
                       "--preset", "desk", "--loss", "cb_focal", "--epochs",
                       str(self.epochs), "--seed", str(self.seed)]),
            ("eval", ["eval", "--checkpoint", str(self.out_dir / "checkpoint.npz"),
                      "--data", str(self.test_path), "--metrics-out",
                      str(self.eval_metrics)]),
        ]

    def _run(self, name, argv, trace_path):
        if trace_path is None:
            cmd = [sys.executable, "-m", "engagerank.cli", *argv]
        else:
            cmd = [sys.executable, str(Path(__file__).with_name("cli_child.py")),
                   str(trace_path), *argv]
        env = dict(self.env, PERFBENCH_SPAWN_NS=str(time.monotonic_ns()))
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.root, env=env, capture_output=True,
                              text=True, timeout=COMMAND_TIMEOUT_S)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise OperationFailed(f"engagerank {name} exited {proc.returncode}: "
                                  f"{proc.stderr.strip()[-2000:]}")
        return wall

    def round(self, tracer=None) -> tuple[RoundTimes, str, list]:
        self._round += 1
        walls, stage_s = [], 0.0
        for i, (name, argv) in enumerate(self._commands()):
            trace_path = None
            if tracer is not None:
                trace_path = self.dir / f"trace-r{self._round}-{i}-{name}.json"
            wall = self._run(name, argv, trace_path)
            walls.append(wall)
            if trace_path is not None:
                dump = json.loads(trace_path.read_text())
                trace_path.unlink()
                dump.update(command=name, wall_ns=int(wall * 1e9))
                stage_s += sum(e - s for n, s, e, _ in dump["spans"]
                               if n in tracing.STAGES) * 1e-9
                self.traces.append(dump)
        # the class-balanced sampler draws full batches, ceil(n / batch) a epoch
        batch = harness.TrainConfig.desk().batch_size
        consumed = self.epochs * -(-self.n_train // batch) * batch
        times = RoundTimes(walls[0] + walls[1], walls[2], walls[3],
                           sum(walls) - stage_s, consumed, self.n_test)

        problems = []
        file_digests = [hashlib.sha256(p.read_bytes()).hexdigest()
                        for p in (self.train_path, self.test_path)]
        if self._file_digests is None:
            self._file_digests = file_digests
        elif file_digests != self._file_digests:
            problems.append("synth wrote different JSONL bytes for the same seed")
        with np.load(self.out_dir / "checkpoint.npz", allow_pickle=False) as data:
            meta = json.loads(str(data["meta"][()]))
            arrays = [(k, data[f"param__{k}"]) for k in meta["param_keys"]]
        problems += checks.check_finite(arrays, "checkpoint")
        with open(self.out_dir / "history.csv", newline="") as fh:
            losses = [float(row["train_loss"]) for row in csv.DictReader(fh)]
        if len(losses) != self.epochs:
            problems.append(f"history.csv has {len(losses)} epochs, expected "
                            f"{self.epochs}")
        problems += checks.check_finite([("epoch losses", losses)], "history.csv")
        return times, checks.digest(arrays), problems

    def final_checks(self) -> list[str]:
        problems = []
        loaded, generated = [], []
        for path, n, seed, split in ((self.train_path, self.n_train, self.seed, "train"),
                                     (self.test_path, self.n_test, self.seed + 1, "test")):
            loaded.append(featurepipe.load_records(path, split=split))
            generated.append(featurepipe.synth_dataset(
                n, noise=NOISE, seed=seed, n_frames=self.FRAMES, split=split,
                speech_fraction=self.SPEECH_FRACTION))
            if not checks.records_equal(loaded[-1].records, generated[-1].records):
                problems.append(f"{path.name} records differ from synth_dataset")
        test = loaded[1]

        with np.load(self.out_dir / "checkpoint.npz", allow_pickle=False) as data:
            meta = json.loads(str(data["meta"][()]))
            arrays = {k: data[f"param__{k}"] for k in meta["param_keys"]}
        mcfg = dict(meta["model_config"], dilations=tuple(meta["model_config"]["dilations"]))
        params = model.ModelParams(model.ModelConfig(**mcfg), arrays)
        chunks, gfeat, _, _, _ = model.prepare_batch(test.records, params.config)
        logits = model.forward_batch(chunks, gfeat, params, mode="eval").logits
        problems += checks.check_finite([("logits", logits)], "checkpoint scores")
        preds = [max(range(checks.N_CLASSES), key=lambda c: row[c]) for row in logits]
        expected = checks.reference_counts(REFERENCE_PROPORTIONS, self.n_test)
        for path in (self.out_dir / "metrics.json", self.eval_metrics):
            report = json.loads(path.read_text())
            problems += checks.check_report(report["confusion"], report["acc"],
                                            report["avg_acc"], preds, test.labels(),
                                            expected, path.name)
        return problems

    def layer_counts(self, tracer) -> dict:
        """Merged span summary, counts and per-command figures of the children
        (the parent process installs no tracer)."""
        summary, counts, cli = {}, {}, {}
        for dump in self.traces:
            tracing.merge(summary, tracing.summarize(dump["spans"]))
            for k, v in dump["counts"].items():
                counts[k] = counts.get(k, 0) + v
            for key, ns in (("startup", dump["startup_ns"]),
                            (dump["command"],
                             dump["wall_ns"] - tracing.top_level_ns(dump["spans"]))):
                row = cli.setdefault(key, [0, 0])
                row[0] += 1
                row[1] += ns
        return {"summary": summary, "counts": counts, "cli": cli,
                "trace": {"processes": self.traces}}
