"""Top-level acceptance checks, one test per shipping criterion.

Each test prints (and registers for the end-of-run summary) a single
"criterion N PASS/FAIL" line.  Details live in the per-module suites;
these tests state the release bar itself:

1. ranking loss equals an independent brute-force oracle (1e-10, 1000 cases)
2. analytic gradients of every loss match finite differences (< 1e-4)
3. mechanism invariants: FIFO pool, momentum decay, entry immutability,
   attention normalization, score bound, classifier monotonicity
4. ranking loss beats plain regression on mean AvgAcc over seeds
5. full fusion beats the frame-branch-only ablation over seeds
6. metrics exact on hand-built confusions; ICC matches an ANOVA oracle
7. identical (config, seed) runs match; checkpoints resume bitwise
"""
import math
import time

import numpy as np
import pytest

from engagerank import featurepipe as fp
from engagerank import harness
from engagerank import metrics
from engagerank import mocorank as mr
from engagerank import model

from _oracles import icc_2_1_anova, margin_loss_brute

RESULTS = {}


def record(n, ok, detail):
    RESULTS[n] = (bool(ok), detail)
    print(f"criterion {n} {'PASS' if ok else 'FAIL'}: {detail}")


def desk_bench_dataset(n=3000, noise=1.0, seed=0):
    """Reference-proportion synthetic corpus used by the directional checks."""
    data = fp.synth_dataset(n, noise=noise, seed=seed,
                            proportions=(346, 2208, 8469, 1170))
    return fp.split_dataset(data, seed=seed)


@pytest.fixture(scope="module")
def mocorank_arm():
    """Criterion 4's mocorank arm, which is also criterion 5's full arm.

    Both are the desk preset's defaults (mocorank loss, concat+attention
    fusion) on the same corpus and seeds, so the five trainings run once per
    module.  ``elapsed`` covers the corpus and the trainings, for criterion
    4's time budget.
    """
    t0 = time.perf_counter()
    train, _, test = desk_bench_dataset(noise=1.5)
    res = harness.bench_losses(
        harness.TrainConfig.desk(),
        {"mocorank": {"loss": "mocorank", "ablation": "concat+attention"}},
        seeds=[0, 1, 2, 3, 4], train_set=train, val_set=None, test_set=test)
    return {"train": train, "test": test, "res": res,
            "elapsed": time.perf_counter() - t0}


def sign_test_p(deltas):
    """One-sided sign test: P(wins >= observed | fair coin), ties dropped."""
    wins = sum(1 for d in deltas if d > 0)
    m = sum(1 for d in deltas if d != 0)
    return sum(math.comb(m, k) for k in range(wins, m + 1)) / 2.0 ** m


class TestAcceptance:
    def test_criterion_1_loss_matches_brute_force_oracle(self):
        rng = np.random.default_rng(101)
        t0 = time.perf_counter()
        worst = 0.0
        for _ in range(1000):
            b = int(rng.integers(1, 9))
            p = int(rng.integers(1, 33))
            d = int(rng.integers(2, 7))
            scores = rng.uniform(-1.0, 1.0, b)
            labels = rng.integers(0, 4, b)
            embeds = rng.standard_normal((b, d))
            pool_labels = rng.integers(0, 4, p)
            pool_scores = rng.uniform(-1.0, 1.0, p)
            pool_embeds = rng.standard_normal((p, d))
            pool = mr.ScorePool(p)
            pool.push(pool_labels, pool_scores, pool_embeds)
            loss, _, _ = mr.multi_margin_loss(scores, labels, embeds, pool)
            ref = margin_loss_brute(scores, labels, embeds, pool_labels,
                                    pool_scores, pool_embeds)
            worst = max(worst, abs(loss - ref))
        elapsed = time.perf_counter() - t0
        ok = worst < 1e-10 and elapsed < 10.0
        record(1, ok, f"loss vs brute-force oracle: max |diff| {worst:.1e} "
                      f"over 1000 instances in {elapsed:.1f}s")
        assert ok

    def test_criterion_2_gradient_suite(self):
        t0 = time.perf_counter()
        report = harness.grad_check(tolerance=1e-4)
        elapsed = time.perf_counter() - t0
        worst = max(r["max_rel_err"] for r in report["losses"].values())
        ok = report["passed"] and worst < 1e-4 and elapsed < 120.0
        record(2, ok, f"finite-difference match for {len(report['losses'])} "
                      f"losses: max rel err {worst:.1e} in {elapsed:.0f}s")
        assert ok

    def test_criterion_3_mechanism_invariants(self):
        checks = {}

        # FIFO content and order: survivors keep their order, oldest leave.
        pool = mr.ScorePool(4)
        pool.push(np.array([0, 1]), np.array([-0.8, -0.2]), np.eye(2, 3))
        pool.push(np.array([2, 3]), np.array([0.3, 0.9]), 2 * np.eye(2, 3))
        pool.push(np.array([1, 1]), np.array([-0.1, -0.3]), 3 * np.eye(2, 3))
        entries = pool.entries()
        checks["fifo"] = ([e.label for e in entries] == [2, 3, 1, 1]
                          and entries[0].score == 0.3
                          and np.array_equal(entries[2].embedding, 3 * np.eye(2, 3)[0]))

        # Momentum decay: after n updates toward fixed w, gap shrinks 0.999^n.
        cfg = model.ModelConfig(n_channels=2, n_chunks=4, width=4, global_dim=5)
        params = model.init_params(cfg, seed=0)
        enc = mr.MomentumEncoder.from_model(params)
        target = model.init_params(cfg, seed=1)
        gap0 = enc.params.flat() - target.flat()
        for _ in range(40):
            mr.momentum_update(enc, target, m=0.999)
        expected = target.flat() + gap0 * 0.999 ** 40
        rel = np.max(np.abs(enc.params.flat() - expected)
                     / np.maximum(np.abs(expected), 1e-12))
        checks["momentum"] = rel < 1e-9

        # Pool entries survive training unmodified until FIFO eviction.
        data = fp.synth_dataset(48, n_channels=2, global_dim=5, n_frames=12,
                                noise=0.4, seed=3, speech_dim=6)
        tcfg = harness.TrainConfig(batch_size=8, pool_size=256, epochs=2, width=4,
                                   n_chunks=4, dropout=0.0, min_frames=8)
        state = harness.init_train_state(tcfg, data)
        before = state.pool.entries()
        harness.train_epochs(state, data, None, n_epochs=1)
        after = state.pool.entries()
        survivors = after[:256 - 48]
        originals = before[48:]
        checks["immutable"] = all(
            a.label == b.label and a.score == b.score
            and np.array_equal(a.embedding, b.embedding)
            for a, b in zip(originals, survivors))

        # Attention normalization and the score bound, on a forward pass.
        batch = [data.records[i] for i in range(16)]
        chunks, gfeat, speech, meta, has_speech = model.prepare_batch(
            batch, state.params.config)
        trace = model.forward_batch(chunks, gfeat, state.params, mode="eval")
        checks["attention"] = np.all(np.abs(trace.attn.sum(axis=1) - 1.0) < 1e-9)
        checks["bound"] = np.all(np.abs(trace.score) <= 1.0 + 1e-12)

        # Classifier is a monotone step function of the score.
        grid = np.linspace(-1.0, 1.0, 401)
        preds = model.classify(grid)
        checks["monotone"] = (np.all(np.diff(preds) >= 0)
                              and preds[0] == 0 and preds[-1] == 3
                              and np.array_equal(
                                  model.classify(np.array([-0.5, 0.0, 0.5])),
                                  [1, 2, 3]))

        ok = all(checks.values())
        record(3, ok, "mechanism invariants: " + ", ".join(
            f"{name}={'ok' if good else 'FAIL'}" for name, good in checks.items()))
        assert ok

    def test_criterion_4_ranking_beats_regression_on_avg_acc(self, mocorank_arm):
        # Desk preset, reference imbalance, feature noise sized so scores
        # land in the realistic AvgAcc band rather than at a toy ceiling.
        t0 = time.perf_counter()
        seeds = [0, 1, 2, 3, 4]
        res = harness.bench_losses(
            harness.TrainConfig.desk(), {"mse": {"loss": "mse"}},
            seeds=seeds, train_set=mocorank_arm["train"], val_set=None,
            test_set=mocorank_arm["test"])
        rows = mocorank_arm["res"]["rows"] + res["rows"]
        summary = {**mocorank_arm["res"]["summary"], **res["summary"]}
        by = {v: {r["seed"]: r["avg_acc"] for r in rows
                  if r["variant"] == v} for v in ("mocorank", "mse")}
        deltas = [by["mocorank"][s] - by["mse"][s] for s in seeds]
        mean_delta = float(np.mean(deltas))
        p = sign_test_p(deltas)
        elapsed = mocorank_arm["elapsed"] + time.perf_counter() - t0
        ok = mean_delta > 0 and p <= 0.05 and elapsed < 1800.0
        moco = summary["mocorank"]["mean_avg_acc"]
        mse = summary["mse"]["mean_avg_acc"]
        record(4, ok, f"ranking {moco:.3f} vs regression {mse:.3f} mean AvgAcc "
                      f"over {len(seeds)} seeds; mean delta {mean_delta:+.3f}, "
                      f"sign test p={p:.3f}, {elapsed / 60:.1f} min")
        assert ok

    def test_criterion_5_full_fusion_beats_frame_branch_alone(self, mocorank_arm):
        seeds = [0, 1, 2, 3, 4]
        res = harness.bench_losses(
            harness.TrainConfig.desk(),
            {"frames_only": {"ablation": "openface_only"}},
            seeds=seeds, train_set=mocorank_arm["train"], val_set=None,
            test_set=mocorank_arm["test"])
        rows = [dict(r, variant="full") for r in mocorank_arm["res"]["rows"]]
        rows += res["rows"]
        summary = {"full": mocorank_arm["res"]["summary"]["mocorank"],
                   **res["summary"]}
        by = {v: {r["seed"]: r["avg_acc"] for r in rows
                  if r["variant"] == v} for v in ("full", "frames_only")}
        deltas = [by["full"][s] - by["frames_only"][s] for s in seeds]
        mean_delta = float(np.mean(deltas))
        ok = mean_delta > 0
        full = summary["full"]["mean_avg_acc"]
        alone = summary["frames_only"]["mean_avg_acc"]
        record(5, ok, f"concat+attention {full:.3f} vs frame branch alone "
                      f"{alone:.3f} mean AvgAcc over {len(seeds)} seeds; "
                      f"mean delta {mean_delta:+.3f}")
        assert ok

    def test_criterion_6_metrics_against_oracles(self):
        # Hand-built confusion: exact accuracy and per-class recalls.
        conf = np.array([[5, 1, 0, 0],
                         [2, 6, 2, 0],
                         [0, 3, 9, 3],
                         [0, 0, 1, 4]])
        rep = metrics.accuracy_metrics(conf)
        exact = (rep.acc == 24 / 36
                 and np.allclose(rep.recall, [5 / 6, 6 / 10, 9 / 15, 4 / 5])
                 and rep.avg_acc == (5 / 6 + 6 / 10 + 9 / 15 + 4 / 5) / 4)

        # ICC(2,1) against the loop-written ANOVA oracle on random tables.
        rng = np.random.default_rng(66)
        worst = 0.0
        for _ in range(25):
            table = rng.integers(0, 4, size=(12, 3)).astype(float)
            table += 0.01 * rng.standard_normal(table.shape)
            worst = max(worst, abs(metrics.icc_2_1(table)
                                   - icc_2_1_anova(table.tolist())))
        perfect = metrics.icc_2_1(np.tile(rng.integers(0, 4, 10)[:, None], (1, 4)))
        ok = exact and worst < 1e-6 and perfect == 1.0
        record(6, ok, f"metrics exact on hand confusion; ICC vs ANOVA oracle "
                      f"max |diff| {worst:.1e}; perfect agreement -> {perfect}")
        assert ok

    def test_criterion_7_determinism_and_persistence(self, tmp_path):
        data = fp.synth_dataset(48, n_channels=2, global_dim=5, n_frames=12,
                                noise=0.4, seed=3, speech_dim=6)
        train = fp.Dataset(data.records[:36], split="train")
        val = fp.Dataset(data.records[36:], split="val")
        cfg = harness.TrainConfig(batch_size=8, pool_size=16, epochs=4, width=4,
                                  n_chunks=4, dropout=0.1, min_frames=8, seed=9)

        s1, h1 = harness.train(cfg, train, val)
        s2, h2 = harness.train(cfg, train, val)
        same_logs = h1 == h2 and np.array_equal(s1.params.flat(), s2.params.flat())

        # Checkpoint mid-run, resume, and compare against the straight run.
        s3 = harness.init_train_state(cfg, train)
        harness.train_epochs(s3, train, val, n_epochs=2)
        path = tmp_path / "mid.npz"
        harness.save_checkpoint(s3, path)
        s4 = harness.load_checkpoint(path)
        harness.train_epochs(s4, train, val, n_epochs=2)
        bitwise = np.array_equal(s4.params.flat(), s1.params.flat())

        ok = same_logs and bitwise
        record(7, ok, f"identical seeds reproduce logs ({same_logs}); "
                      f"checkpoint resume matches straight run bitwise ({bitwise})")
        assert ok
