import math
import warnings

import numpy as np
import pytest

from engagerank import featurepipe as fp
from engagerank import mocorank as mr
from engagerank import model

from _oracles import (margin_grads_brute, margin_loss_brute, momentum_per_key,
                      pair_residuals_brute, pool_fill_all_rows)


def entry(label, score, embedding):
    return mr.ScorePoolEntry(label=label, score=score,
                             embedding=np.asarray(embedding, dtype=np.float64))


def one_pair_loss(label, score, embedding, pool_label, pool_score, pool_embedding):
    """``multi_margin_loss`` of one sample against a one-entry pool: the
    hinged pair term."""
    pool = mr.ScorePool(1).push([pool_label], [pool_score], [pool_embedding])
    loss, _, _ = mr.multi_margin_loss(np.array([score]), np.array([label]),
                                      np.array([embedding], dtype=np.float64), pool)
    return loss


def random_instance(rng, b=None, p=None, dim=None):
    """A random batch plus a filled pool, scores safely inside [-1, 1]."""
    b = b or int(rng.integers(1, 9))
    p = p or int(rng.integers(1, 33))
    dim = dim or int(rng.integers(2, 11))
    pool = mr.ScorePool(p)
    pool.push(rng.integers(0, 4, size=p), rng.uniform(-0.99, 0.99, size=p),
              rng.standard_normal((p, dim)))
    scores = rng.uniform(-0.99, 0.99, size=b)
    labels = rng.integers(0, 4, size=b)
    embeddings = rng.standard_normal((b, dim))
    return scores, labels, embeddings, pool


def min_abs_residual(scores, labels, embeddings, pool):
    """Distance of the nearest pair to a hinge or |.| kink."""
    return np.abs(pair_residuals_brute(scores, labels, embeddings, pool.labels,
                                       pool.scores, pool.embeddings)).min()


class TestScorePoolEntry:
    def test_label_range(self):
        with pytest.raises(ValueError, match="label"):
            entry(-1, 0.0, [1.0])
        with pytest.raises(ValueError, match="label"):
            entry(4, 0.0, [1.0])

    def test_score_range(self):
        with pytest.raises(ValueError, match="score out of range"):
            entry(0, 1.2, [1.0])
        entry(0, 1.0 + 1e-10, [1.0])   # float slack at the boundary is fine

    def test_nan_score_refused(self):
        with pytest.raises(ValueError, match="score out of range"):
            entry(0, np.nan, [1.0])

    def test_embedding_must_be_finite(self):
        with pytest.raises(ValueError, match="finite"):
            entry(0, 0.0, [np.nan, 1.0])


class TestScorePool:
    def fill(self, capacity, labels, scores):
        pool = mr.ScorePool(capacity)
        emb = np.arange(len(labels), dtype=np.float64)[:, None] + 1.0
        pool.push(labels, scores, emb)
        return pool

    def test_fifo_eviction(self):
        """Pushing (e, f) into a full pool (a, b, c, d) leaves (c, d, e, f)."""
        pool = self.fill(4, [0, 1, 2, 3], [-0.8, -0.3, 0.3, 0.8])
        pool.push([1, 2], [0.1, 0.2], np.array([[9.0], [10.0]]))
        got = pool.entries()
        assert [e.label for e in got] == [2, 3, 1, 2]
        np.testing.assert_array_equal([e.score for e in got], [0.3, 0.8, 0.1, 0.2])
        np.testing.assert_array_equal([e.embedding[0] for e in got],
                                      [3.0, 4.0, 9.0, 10.0])

    def test_partial_fill_keeps_insertion_order(self):
        pool = self.fill(8, [2, 0, 1], [0.1, -0.1, 0.0])
        assert len(pool) == 3 and not pool.full
        assert [e.label for e in pool.entries()] == [2, 0, 1]

    def test_wraparound_many_pushes(self):
        pool = mr.ScorePool(4)
        seen = []
        for i in range(7):
            lab = i % 4
            pool.push([lab], [0.1], np.array([[float(i)]]))
            seen.append((lab, float(i)))
        got = [(e.label, e.embedding[0]) for e in pool.entries()]
        assert got == seen[-4:]

    def test_push_validation(self):
        pool = mr.ScorePool(4)
        with pytest.raises(ValueError, match="capacity"):
            pool.push([0] * 5, [0.0] * 5, np.zeros((5, 2)))
        with pytest.raises(ValueError, match="batch size"):
            pool.push([0, 1], [0.0], np.zeros((2, 2)))
        with pytest.raises(ValueError, match="label"):
            pool.push([7], [0.0], np.zeros((1, 2)))
        with pytest.raises(ValueError, match="score"):
            pool.push([0], [1.5], np.zeros((1, 2)))
        pool.push([0], [0.5], np.ones((1, 3)))
        with pytest.raises(ValueError, match="length changed"):
            pool.push([0], [0.5], np.ones((1, 2)))
        for labels in ([1.5, 2.9], np.array([1.0, 2.0]), np.array([True, False])):
            fresh = mr.ScorePool(4)
            with pytest.raises(ValueError, match="labels: dtype"):
                fresh.push(labels, [0.1, 0.2], np.ones((2, 3)))
            assert len(fresh) == 0
        with pytest.raises(ValueError, match="labels: dtype"):
            pool.push(np.zeros(0), np.zeros(0), np.zeros((0, 3)))
        pool.push(np.array([1, 2], dtype=np.uint8), [0.1, 0.2], np.ones((2, 3)))
        assert [e.label for e in pool.entries()] == [0, 1, 2]

    def test_push_refuses_nan_score(self):
        pool = mr.ScorePool(4)
        with pytest.raises(ValueError, match="score out of range"):
            pool.push([0, 1], [0.5, np.nan], np.ones((2, 2)))
        assert len(pool) == 0

    def test_empty_push_is_noop(self):
        pool = self.fill(4, [0, 1], [0.0, 0.1])
        pool.push(np.zeros(0, dtype=int), np.zeros(0), np.zeros((0, 1)))
        assert len(pool) == 2

    def test_capacity_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            mr.ScorePool(0)

    def test_state_round_trip_is_bitwise(self):
        rng = np.random.default_rng(3)
        pool = mr.ScorePool(6)
        # three pushes of 4 wrap the ring so slot order differs from age order
        for _ in range(3):
            pool.push(rng.integers(0, 4, size=4), rng.uniform(-1, 1, size=4),
                      rng.standard_normal((4, 5)))
        restored = mr.ScorePool.from_state(pool.state())
        scores, labels, embeddings, _ = random_instance(rng, b=3, dim=5)
        a = mr.multi_margin_loss(scores, labels, embeddings, pool)
        b = mr.multi_margin_loss(scores, labels, embeddings, restored)
        assert a[0] == b[0]
        np.testing.assert_array_equal(a[1], b[1])
        np.testing.assert_array_equal(a[2], b[2])
        for x, y in zip(pool.entries(), restored.entries()):
            assert x.label == y.label and x.score == y.score
            np.testing.assert_array_equal(x.embedding, y.embedding)

    @pytest.mark.parametrize("field,value", [
        ("count", 9),                        # beyond capacity 4
        ("count", -1),
        ("next", 4),
        ("next", 1),                         # not full, so next must equal count
        ("labels", np.zeros(3, dtype=np.int64)),
        ("scores", np.zeros(5)),
        ("labels", np.array([0, 7, 2, 0])),
        ("scores", np.array([0.1, 1.5, 0.3, 0.0])),
        ("embeddings", np.full((4, 2), np.nan)),
        ("embeddings", np.ones((3, 2))),
        ("scores", np.array([0.1, np.nan, 0.3, 0.0])),
        ("count", 3.0),                      # ring positions and sizes are ints
        ("next", "3"),
        ("capacity", 4.0),
        ("count", True),
        ("labels", np.array([0.0, 1.5, 2.0, 0.0])),
        ("embeddings", np.vstack([np.ones((3, 2)), [[np.nan, 1.0]]])),   # dead slot
    ])
    def test_state_field_validation(self, field, value):
        pool = mr.ScorePool(4)
        pool.push([0, 1, 2], [0.1, -0.2, 0.3], np.ones((3, 2)))
        state = pool.state()
        state[field] = value
        with pytest.raises(ValueError, match=f"'{field}'"):
            mr.ScorePool.from_state(state)

    def test_ring_matches_a_list_model(self):
        """Any run of pushes leaves the last ``capacity`` items, oldest first,
        and ``state()`` round-trips the ring bit for bit."""
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        runs = st.integers(1, 16).flatmap(
            lambda cap: st.tuples(st.just(cap), st.lists(st.integers(0, cap), max_size=10)))

        @hyp.settings(max_examples=200, deadline=None, database=None)
        @hyp.given(runs, st.integers(0, 2 ** 32 - 1))
        def check(run, seed):
            cap, sizes = run
            rng = np.random.default_rng(seed)
            pool, pushed = mr.ScorePool(cap), []
            for b in sizes:
                labels = rng.integers(0, 4, size=b)
                scores = rng.uniform(-1.0, 1.0, size=b)
                embeddings = rng.standard_normal((b, 3))
                pool.push(labels, scores, embeddings)
                pushed += zip(labels.tolist(), scores.tolist(), embeddings)
                kept = pushed[-cap:]
                got = pool.entries()
                assert len(pool) == len(kept)
                assert [(e.label, e.score) for e in got] == [(l, s) for l, s, _ in kept]
                for e, (_, _, emb) in zip(got, kept):
                    assert e.embedding.tobytes() == emb.tobytes()
            state = pool.state()
            back = mr.ScorePool.from_state(state).state()
            for key, value in state.items():
                value, other = np.asarray(value), np.asarray(back[key])
                assert (value.shape, value.tobytes()) == (other.shape, other.tobytes()), key

        check()

    def test_state_dead_slots_unchecked(self):
        """Slots past count are never read, so their contents do not matter."""
        pool = mr.ScorePool(4)
        pool.push([0, 1], [0.1, -0.2], np.ones((2, 2)))
        state = pool.state()
        state["labels"][3] = 99
        state["scores"][3] = 5.0
        assert len(mr.ScorePool.from_state(state)) == 2


class TestMomentumEncoder:
    def tiny_params(self, seed=0):
        cfg = model.ModelConfig(n_channels=2, n_chunks=4, width=4, global_dim=5,
                                speech_dim=6, min_frames=8)
        return model.init_params(cfg, seed=seed)

    def test_single_update(self):
        target = self.tiny_params(seed=1)
        enc = mr.MomentumEncoder.from_model(self.tiny_params(seed=0))
        w0 = enc.params.vector.copy()
        mr.momentum_update(enc, target, m=0.999)
        expect = 0.999 * w0 + 0.001 * target.vector
        np.testing.assert_allclose(enc.params.vector, expect, rtol=1e-15)

    def test_fixed_point(self):
        target = self.tiny_params(seed=2)
        enc = mr.MomentumEncoder.from_model(target)
        mr.momentum_update(enc, target, m=0.999)
        np.testing.assert_allclose(enc.params.vector, target.vector, rtol=1e-12)

    def test_geometric_decay(self):
        """n updates toward a frozen target leave w + (w0 - w) * m^n."""
        target = self.tiny_params(seed=3)
        enc = mr.MomentumEncoder.from_model(self.tiny_params(seed=4))
        w0, w = enc.params.vector.copy(), target.vector
        n = 200
        for _ in range(n):
            mr.momentum_update(enc, target, m=0.999)
        expect = w + (w0 - w) * 0.999 ** n
        np.testing.assert_allclose(enc.params.vector, expect, rtol=1e-9,
                                   atol=1e-12)

    def test_matches_per_key_loop_bitwise(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        cfg = self.tiny_params().config

        @hyp.settings(max_examples=100, deadline=None, database=None)
        @hyp.given(st.lists(st.lists(st.integers(1, 4), max_size=3), min_size=1,
                            max_size=6),
                   st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1,
                            max_size=3),
                   st.integers(0, 2 ** 32 - 1))
        def check(shapes, momenta, seed):
            rng = np.random.default_rng(seed)
            keys = [f"k{i}" for i in range(len(shapes))]
            target = {k: rng.standard_normal(tuple(s)) for k, s in zip(keys, shapes)}
            ref = {k: rng.standard_normal(v.shape) for k, v in target.items()}
            enc = mr.MomentumEncoder(params=model.ModelParams(cfg, ref))
            params = model.ModelParams(cfg, target)
            for m in momenta:
                mr.momentum_update(enc, params, m=m)
                momentum_per_key(ref, target, m)
            for k, v in ref.items():
                assert enc.params[k].tobytes() == v.tobytes(), k

        check()

    def test_from_model_copies(self):
        target = self.tiny_params(seed=5)
        enc = mr.MomentumEncoder.from_model(target)
        target["head.w"][...] = 0.0
        assert enc.params["head.w"].any()

    def test_mismatched_params_rejected(self):
        cfg = model.ModelConfig(n_channels=2, n_chunks=4, width=8, global_dim=5,
                                speech_dim=6, min_frames=8)
        enc = mr.MomentumEncoder.from_model(self.tiny_params())
        with pytest.raises(ValueError, match="do not match"):
            mr.momentum_update(enc, model.init_params(cfg), m=0.999)
        # same keys and size, other shapes
        target = self.tiny_params()
        transposed = model.ModelParams(target.config,
                                       {k: v.T for k, v in target.items()})
        with pytest.raises(ValueError, match="do not match"):
            mr.momentum_update(mr.MomentumEncoder.from_model(transposed), target,
                               m=0.999)


class TestPoolInit:
    def tiny_setup(self, n=16, seed=0, proportions=(1.0, 1.0, 1.0, 1.0),
                   speech_fraction=0.0):
        data = fp.synth_dataset(n, n_channels=2, global_dim=5, n_frames=12,
                                seed=seed, proportions=proportions,
                                speech_fraction=speech_fraction, speech_dim=6)
        cfg = model.ModelConfig(n_channels=2, n_chunks=4, width=4, global_dim=5,
                                speech_dim=6, min_frames=8,
                                with_audio=speech_fraction > 0)
        enc = mr.MomentumEncoder.from_model(model.init_params(cfg, seed=1))
        return data, enc

    def test_balanced_fill(self):
        data, enc = self.tiny_setup()
        pool = mr.pool_init(data, enc, capacity=8, seed=0)
        assert pool.full
        counts = np.bincount(pool.labels, minlength=4)
        np.testing.assert_array_equal(counts, [2, 2, 2, 2])

    def test_replacement_when_class_is_short(self):
        # a lopsided split leaves the rarest band a single sample
        data, enc = self.tiny_setup(n=16, proportions=(1.0, 5.0, 5.0, 5.0))
        assert np.bincount(data.labels(), minlength=4).min() == 1
        pool = mr.pool_init(data, enc, capacity=8, seed=0)
        np.testing.assert_array_equal(np.bincount(pool.labels, minlength=4),
                                      [2, 2, 2, 2])

    def test_deterministic_in_seed(self):
        data, enc = self.tiny_setup()
        a = mr.pool_init(data, enc, capacity=8, seed=5)
        b = mr.pool_init(data, enc, capacity=8, seed=5)
        c = mr.pool_init(data, enc, capacity=8, seed=6)
        np.testing.assert_array_equal(a.scores, b.scores)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert np.any(a.scores != c.scores)

    def test_missing_class_rejected(self):
        data, enc = self.tiny_setup()
        kept = [r for r in data.records if r.label != 0]
        culled = fp.Dataset(kept, split="train")
        with pytest.raises(ValueError, match="missing"):
            mr.pool_init(culled, enc, capacity=8, seed=0)

    @staticmethod
    def all_rows_fill(data, enc, capacity, seed):
        """The fill before it deduplicated: one forward over every slot."""
        return pool_fill_all_rows(
            data.labels(), data.records, capacity, seed,
            lambda records: model.score_batch(
                enc.params, model.prepare_batch(records, enc.params.config))[:2])

    def test_scores_come_from_the_encoder(self, monkeypatch):
        """The ring holds the encoder's eval-mode forward over the distinct
        picked records, as one tile padded with copies of the last, spread
        to the slots bit for bit."""
        data, enc = self.tiny_setup(proportions=(1.0, 5.0, 5.0, 5.0))
        picked = []
        real = model.prepare_batch
        monkeypatch.setattr(model, "prepare_batch",
                            lambda records, cfg: picked.append(records) or real(records, cfg))
        pool = mr.pool_init(data, enc, capacity=8, seed=3)
        [records] = picked
        slot_records, *_ = self.all_rows_fill(data, enc, 8, 3)
        row = {id(r): i for i, r in enumerate(records)}
        assert len(row) == len(records) < len(slot_records)
        assert set(row) == {id(r) for r in slot_records}
        slots = [row[id(r)] for r in slot_records]
        tile = records + records[-1:] * (model.TILE_ROWS - len(records))
        chunks, gfeat, *_ = real(tile, enc.params.config)
        trace = model.forward_batch(chunks, gfeat, enc.params)
        assert pool.labels.tolist() == [r.label for r in slot_records]
        assert pool.scores.tobytes() == trace.score[slots].tobytes()
        assert pool.embeddings.tobytes() == trace.embedding[slots].tobytes()

    def test_forwards_each_distinct_record_once(self, monkeypatch):
        """The real rows of the fill's forwards are its distinct picked
        records, each once; the rest pad the last tile."""
        data, enc = self.tiny_setup(proportions=(1.0, 5.0, 5.0, 5.0))
        slot_records, *_ = self.all_rows_fill(data, enc, 8, 3)
        distinct = list({id(r): r for r in slot_records}.values())
        forwarded = []
        real = model.forward_batch
        monkeypatch.setattr(model, "forward_batch", lambda chunks, gfeat, *a, **kw: (
            forwarded.append(gfeat.copy()) or real(chunks, gfeat, *a, **kw)))
        mr.pool_init(data, enc, capacity=8, seed=3)
        assert [len(g) for g in forwarded] == [model.TILE_ROWS]
        real_rows = forwarded[0][:len(distinct)]
        assert len(distinct) < 8
        assert sorted(g.tobytes() for g in real_rows) == \
            sorted(r.global_feature.tobytes() for r in distinct)
        assert (forwarded[0][len(distinct):] == real_rows[-1]).all()

    def test_duplicate_slots_are_byte_identical(self):
        data, enc = self.tiny_setup(proportions=(1.0, 5.0, 5.0, 5.0))
        pool = mr.pool_init(data, enc, capacity=8, seed=3)
        slot_records, *_ = self.all_rows_fill(data, enc, 8, 3)
        first = {}
        n_dup = 0
        for slot, r in enumerate(slot_records):
            j = first.setdefault(id(r), slot)
            if j != slot:
                n_dup += 1
                assert pool.scores[slot].tobytes() == pool.scores[j].tobytes()
                assert pool.embeddings[slot].tobytes() == pool.embeddings[j].tobytes()
        assert n_dup > 0

    @pytest.mark.parametrize("capacity,seed", [(4, 0), (8, 3), (16, 1), (32, 7)])
    def test_matches_the_all_rows_fill(self, capacity, seed):
        """Slot labels, order, scores and embeddings are the old fill's, which
        scored every slot, bit for bit."""
        data, enc = self.tiny_setup(n=24, proportions=(1.0, 3.0, 3.0, 5.0))
        pool = mr.pool_init(data, enc, capacity=capacity, seed=seed)
        _, labels, scores, embeddings = self.all_rows_fill(data, enc, capacity, seed)
        assert pool.labels.tobytes() == labels.astype(np.int64).tobytes()
        assert pool.scores.tobytes() == scores.tobytes()
        assert pool.embeddings.tobytes() == embeddings.tobytes()

    @pytest.mark.parametrize("capacity", [5, 6, 7, 10])
    def test_uneven_capacity_shares_the_remainder(self, capacity):
        """Every class gets capacity // 4 slots or one more, whichever classes
        the pool's RNG gives the extra ones."""
        data, enc = self.tiny_setup()
        seen = set()
        for seed in range(8):
            pool = mr.pool_init(data, enc, capacity=capacity, seed=seed)
            assert pool.full
            counts = np.bincount(pool.labels, minlength=4)
            assert counts.sum() == capacity
            assert set(counts.tolist()) <= {capacity // 4, capacity // 4 + 1}
            seen.add(tuple(counts))
        assert len(seen) > 1

    def test_mixed_speech_audio_fill_refused(self):
        data, enc = self.tiny_setup(speech_fraction=0.5)
        assert 0 < data.speech_indices().size < len(data)
        with pytest.raises(ValueError, match="cannot pool a mixed"):
            mr.pool_init(data, enc, capacity=8, seed=0)


class TestMargin:
    """With equal scores, a label gap of d against a one-entry pool costs
    exactly the margin 0.5 (d - 1) + 0.5 (cos + 1) / 2."""

    @staticmethod
    def margin(d, e1, e2):
        return one_pair_loss(d, 0.0, e1, 0, 0.0, e2)

    def test_aligned_embeddings(self):
        e = np.array([2.0, 0.0])
        np.testing.assert_allclose(
            [self.margin(d, e, 3.0 * e) for d in (1, 2, 3)], [0.5, 1.0, 1.5])

    def test_opposed_embeddings(self):
        e = np.array([1.0, 1.0])
        np.testing.assert_allclose(
            [self.margin(d, e, -e) for d in (1, 2, 3)], [0.0, 0.5, 1.0],
            atol=1e-15)

    def test_orthogonal_embeddings(self):
        assert self.margin(2, np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.75

    def test_zero_embedding_warns_and_counts_as_orthogonal(self):
        with pytest.warns(RuntimeWarning, match="zero-norm"):
            m = self.margin(2, np.zeros(3), np.ones(3))
        assert m == 0.75


class TestPairwiseTerm:
    def test_higher_against_lower(self):
        # orthogonal: cos = 0, M2 = 0.75
        loss = one_pair_loss(3, 0.4, [1.0, 0.0], 1, 0.0, [0.0, 1.0])
        assert loss == pytest.approx(0.35, abs=1e-15)

    def test_same_label_zero_residual(self):
        assert one_pair_loss(2, 0.3, np.ones(2), 2, 0.3, np.ones(2)) == 0.0

    def test_lower_against_higher(self):
        # aligned: cos = 1, M1 = 0.5
        loss = one_pair_loss(1, 0.6, [1.0, 1.0], 2, 0.1, [2.0, 2.0])
        assert loss == pytest.approx(1.0, abs=1e-15)


class TestMultiMarginLoss:
    def test_two_pair_hand_value(self):
        """One sample against a two-entry pool: terms 0.35 and 1.0, mean 0.675."""
        pool = mr.ScorePool(2)
        pool.push([1, 2], [0.0, 0.9], [[0.0, 1.0], [1.0, 0.0]])
        loss, _, _ = mr.multi_margin_loss(np.array([0.4]), np.array([3]),
                                          np.array([[1.0, 0.0]]), pool)
        assert loss == pytest.approx(0.675, abs=1e-15)

    def test_slack_everywhere_means_zero_gradients(self):
        pool = mr.ScorePool(2)
        pool.push([3, 0], [0.9, -0.9], [[1.0, 0.0], [-1.0, 0.0]])
        loss, d_s, d_e = mr.multi_margin_loss(np.array([0.9]), np.array([3]),
                                              np.array([[1.0, 0.0]]), pool)
        assert loss == 0.0
        np.testing.assert_array_equal(d_s, [0.0])
        np.testing.assert_array_equal(d_e, [[0.0, 0.0]])

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError, match="empty pool"):
            mr.multi_margin_loss(np.array([0.0]), np.array([0]), np.ones((1, 2)),
                                 mr.ScorePool(4))

    def test_label_range_checked(self):
        pool = mr.ScorePool(1).push([0], [0.0], np.ones((1, 2)))
        for bad in (-1, 4):
            with pytest.raises(ValueError, match="label"):
                mr.multi_margin_loss(np.array([0.0]), np.array([bad]), np.ones((1, 2)),
                                     pool)

    def test_brute_force_oracle(self):
        """300 random instances against the loop-written reference."""
        rng = np.random.default_rng(0)
        for trial in range(300):
            scores, labels, embeddings, pool = random_instance(rng)
            got, _, _ = mr.multi_margin_loss(scores, labels, embeddings, pool)
            want = margin_loss_brute(scores.tolist(), labels.tolist(),
                                     embeddings.tolist(), pool.labels.tolist(),
                                     pool.scores.tolist(),
                                     pool.embeddings.tolist())
            assert got == pytest.approx(want, abs=1e-10)

    def test_brute_force_oracle_over_shapes_and_label_mixes(self):
        """Random B, P and width; batch and pool labels each drawn from a
        random class subset (single-class ones included); some embeddings
        zero-norm, in the batch and in the pool."""
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        classes = st.sets(st.integers(0, 3), min_size=1).map(sorted)

        @hyp.settings(max_examples=200, deadline=None, database=None)
        @hyp.given(st.integers(1, 12), st.integers(1, 40), st.integers(1, 12),
                   classes, classes, st.floats(0.0, 0.5), st.integers(0, 2 ** 32 - 1))
        def check(b, p, dim, batch_classes, pool_classes, zero_fraction, seed):
            rng = np.random.default_rng(seed)
            pool = mr.ScorePool(p)
            pool_embeddings = rng.standard_normal((p, dim))
            pool_embeddings[rng.random(p) < zero_fraction] = 0.0
            pool.push(rng.choice(pool_classes, size=p), rng.uniform(-1.0, 1.0, size=p),
                      pool_embeddings)
            scores = rng.uniform(-1.0, 1.0, size=b)
            labels = rng.choice(batch_classes, size=b)
            embeddings = rng.standard_normal((b, dim))
            embeddings[rng.random(b) < zero_fraction] = 0.0
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got, _, _ = mr.multi_margin_loss(scores, labels, embeddings, pool)
            dead = not embeddings.any(axis=1).all() or not pool_embeddings.any(axis=1).all()
            assert [str(w.message) for w in caught] == (
                ["zero-norm embedding; cosine taken as 0"] if dead else [])
            want = margin_loss_brute(scores.tolist(), labels.tolist(),
                                     embeddings.tolist(), pool.labels.tolist(),
                                     pool.scores.tolist(), pool.embeddings.tolist())
            assert abs(got - want) <= 1e-10

        check()

    def test_gradients_match_loop_oracle(self):
        """d_scores exactly and d_embeddings to 1e-12 of the loop-written
        gradients, over the shapes and label mixes above plus exact kinks:
        same-label pairs at equal scores, and a cross-label pair whose
        residual is exactly 0.  With detach_margin d_embeddings is all zero."""
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        classes = st.sets(st.integers(0, 3), min_size=1).map(sorted)

        @hyp.settings(max_examples=200, deadline=None, database=None)
        @hyp.given(st.integers(1, 12), st.integers(1, 40), st.integers(1, 12),
                   classes, classes, st.floats(0.0, 0.5), st.integers(0, 2 ** 32 - 1))
        def check(b, p, dim, batch_classes, pool_classes, zero_fraction, seed):
            rng = np.random.default_rng(seed)
            pool_labels = rng.choice(pool_classes, size=p)
            pool_scores = rng.uniform(-1.0, 1.0, size=p)
            pool_embeddings = rng.standard_normal((p, dim))
            pool_embeddings[rng.random(p) < zero_fraction] = 0.0
            labels = rng.choice(batch_classes, size=b)
            scores = rng.uniform(-1.0, 1.0, size=b)
            embeddings = rng.standard_normal((b, dim))
            embeddings[rng.random(b) < zero_fraction] = 0.0
            for i in range(b):                       # same-label ties
                same = np.flatnonzero(pool_labels == labels[i])
                if same.size and rng.random() < 0.5:
                    scores[i] = pool_scores[rng.choice(same)]
            i, j = int(rng.integers(b)), int(rng.integers(p))
            if labels[i] != pool_labels[j]:          # a cross-label residual of 0
                # orthogonal (or zero) embeddings make cos 0, so the margin is
                # 0.5 |k| - 0.25; scores on a grid of 1/8 make f exactly 0
                embeddings[i] = np.eye(dim)[0]
                pool_embeddings[j] = np.eye(dim)[1] if dim > 1 else 0.0
                sgn = np.sign(labels[i] - pool_labels[j])
                gap = sgn * (0.5 * abs(labels[i] - pool_labels[j]) - 0.25)
                grid = np.arange(-8, 9) / 8.0
                scores[i] = rng.choice(grid[np.abs(grid - gap) <= 1.0])
                pool_scores[j] = scores[i] - gap
            pool = mr.ScorePool(p).push(pool_labels, pool_scores, pool_embeddings)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                _, d_s, d_e = mr.multi_margin_loss(scores, labels, embeddings, pool)
                _, d_s_detached, d_e_detached = mr.multi_margin_loss(
                    scores, labels, embeddings, pool, detach_margin=True)
            want_s, want_e = margin_grads_brute(
                scores.tolist(), labels.tolist(), embeddings.tolist(),
                pool.labels.tolist(), pool.scores.tolist(), pool.embeddings.tolist())
            np.testing.assert_array_equal(d_s, want_s)            # exact
            np.testing.assert_array_equal(d_s_detached, d_s)
            assert not d_e_detached.any()
            # rounding is relative to the pair terms summed, up to
            # 0.25 / (B P |e_i|) each; at width 1 every cosine is +-1 and
            # those terms cancel to 0 in the oracle
            want_e = np.array(want_e)
            norms = np.linalg.norm(embeddings, axis=1)
            term = 0.25 / (b * p * norms[norms > 0].min()) if norms.any() else 0.0
            bound = 1e-12 * max(np.abs(want_e).max(), term)
            assert np.abs(d_e - want_e).max() <= bound

        check()

    def test_duplicating_the_pool_changes_nothing(self):
        rng = np.random.default_rng(1)
        scores, labels, embeddings, pool = random_instance(rng, b=4, p=8, dim=3)
        doubled = mr.ScorePool(16)
        doubled.push(np.tile(pool.labels, 2), np.tile(pool.scores, 2),
                     np.tile(pool.embeddings, (2, 1)))
        a = mr.multi_margin_loss(scores, labels, embeddings, pool)
        b = mr.multi_margin_loss(scores, labels, embeddings, doubled)
        assert a[0] == pytest.approx(b[0], rel=1e-12)
        np.testing.assert_allclose(a[1], b[1], rtol=1e-12, atol=1e-15)

    def test_translation_invariance(self):
        """Only score differences matter, so a common shift is invisible."""
        rng = np.random.default_rng(2)
        scores, labels, embeddings, pool = random_instance(rng, b=4, p=6, dim=3)
        shifted = mr.ScorePool(6)
        shifted.push(pool.labels, pool.scores * 0.5 + 0.2, pool.embeddings)
        base = mr.ScorePool(6)
        base.push(pool.labels, pool.scores * 0.5, pool.embeddings)
        a = mr.multi_margin_loss(scores * 0.0 + 0.1, labels, embeddings, base)
        b = mr.multi_margin_loss(scores * 0.0 + 0.3, labels, embeddings, shifted)
        assert a[0] == pytest.approx(b[0], rel=1e-12)

    def test_score_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 10:
            scores, labels, embeddings, pool = random_instance(rng)
            # stay away from hinge and |.| kinks so central differences are exact
            if min_abs_residual(scores, labels, embeddings, pool) < 1e-3:
                continue
            _, d_s, _ = mr.multi_margin_loss(scores, labels, embeddings, pool)
            h = 1e-6
            for i in range(scores.size):
                up, dn = scores.copy(), scores.copy()
                up[i] += h
                dn[i] -= h
                fd = (mr.multi_margin_loss(up, labels, embeddings, pool)[0]
                      - mr.multi_margin_loss(dn, labels, embeddings, pool)[0]) / (2 * h)
                assert d_s[i] == pytest.approx(fd, abs=1e-8)
            checked += 1

    def test_embedding_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        checked = 0
        while checked < 5:
            scores, labels, embeddings, pool = random_instance(rng, b=3, dim=4)
            if min_abs_residual(scores, labels, embeddings, pool) < 1e-3:
                continue
            _, _, d_e = mr.multi_margin_loss(scores, labels, embeddings, pool)
            h = 1e-6
            for i in range(3):
                for j in range(4):
                    up, dn = embeddings.copy(), embeddings.copy()
                    up[i, j] += h
                    dn[i, j] -= h
                    fd = (mr.multi_margin_loss(scores, labels, up, pool)[0]
                          - mr.multi_margin_loss(scores, labels, dn, pool)[0]) / (2 * h)
                    assert d_e[i, j] == pytest.approx(fd, abs=1e-8)
            checked += 1

    def test_detach_margin_kills_embedding_gradient(self):
        rng = np.random.default_rng(5)
        scores, labels, embeddings, pool = random_instance(rng, b=4, p=8)
        full = mr.multi_margin_loss(scores, labels, embeddings, pool)
        detached = mr.multi_margin_loss(scores, labels, embeddings, pool,
                                        detach_margin=True)
        assert full[0] == detached[0]
        np.testing.assert_array_equal(full[1], detached[1])
        np.testing.assert_array_equal(detached[2], np.zeros_like(embeddings))
        assert np.any(full[2] != 0.0)

    def test_exact_zero_residual_has_zero_subgradient(self):
        pool = mr.ScorePool(1)
        pool.push([2], [0.3], [[1.0, 0.0]])
        loss, d_s, _ = mr.multi_margin_loss(np.array([0.3]), np.array([2]),
                                            np.array([[0.0, 1.0]]), pool)
        assert loss == 0.0 and d_s[0] == 0.0

    def test_zero_norm_batch_embedding(self):
        pool = mr.ScorePool(1)
        pool.push([0], [-0.7], [[1.0, 0.0]])
        with pytest.warns(RuntimeWarning, match="zero-norm"):
            loss, _, d_e = mr.multi_margin_loss(np.array([0.2]), np.array([2]),
                                                np.array([[0.0, 0.0]]), pool)
        # cosine treated as 0: margin 0.75, residual 0.75 - 0.9 < 0
        assert loss == 0.0
        np.testing.assert_array_equal(d_e, [[0.0, 0.0]])

    def test_pool_entries_receive_no_gradient(self):
        """The pool is a constant: its arrays are untouched by the loss."""
        rng = np.random.default_rng(6)
        scores, labels, embeddings, pool = random_instance(rng, b=4, p=8)
        before = (pool.labels.copy(), pool.scores.copy(), pool.embeddings.copy())
        mr.multi_margin_loss(scores, labels, embeddings, pool)
        np.testing.assert_array_equal(pool.labels, before[0])
        np.testing.assert_array_equal(pool.scores, before[1])
        np.testing.assert_array_equal(pool.embeddings, before[2])


class TestMseLoss:
    def test_perfect_midpoints(self):
        scores = np.array([-0.75, -0.25, 0.25, 0.75])
        loss, grads = mr.mse_loss(scores, np.arange(4))
        assert loss == 0.0
        np.testing.assert_array_equal(grads, np.zeros(4))

    def test_hand_value(self):
        loss, grads = mr.mse_loss(np.array([0.25]), np.array([3]))
        assert loss == pytest.approx(0.25, abs=1e-15)
        np.testing.assert_allclose(grads, [-1.0])

    def test_gradient_formula(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            scores = rng.uniform(-1, 1, size=6)
            labels = rng.integers(0, 4, size=6)
            _, grads = mr.mse_loss(scores, labels)
            np.testing.assert_allclose(
                grads, 2.0 * (scores - mr.MIDPOINTS[labels]) / 6.0, rtol=1e-15)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        scores = rng.uniform(-1, 1, size=5)
        labels = rng.integers(0, 4, size=5)
        _, grads = mr.mse_loss(scores, labels)
        h = 1e-6
        for i in range(5):
            up, dn = scores.copy(), scores.copy()
            up[i] += h
            dn[i] -= h
            fd = (mr.mse_loss(up, labels)[0] - mr.mse_loss(dn, labels)[0]) / (2 * h)
            assert grads[i] == pytest.approx(fd, abs=1e-9)


class TestCeLoss:
    def test_uniform_logits(self):
        loss, _ = mr.ce_loss(np.zeros((3, 4)), np.array([0, 1, 3]))
        assert loss == pytest.approx(math.log(4.0), rel=1e-15)

    def test_confident_correct_logit(self):
        logits = np.array([[100.0, 0.0, 0.0, 0.0]])
        loss, _ = mr.ce_loss(logits, np.array([0]))
        assert loss < 1e-12

    def test_gradient_is_softmax_minus_onehot(self):
        rng = np.random.default_rng(2)
        logits = rng.standard_normal((5, 4))
        labels = rng.integers(0, 4, size=5)
        _, grads = mr.ce_loss(logits, labels)
        p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        onehot = np.eye(4)[labels]
        np.testing.assert_allclose(grads, (p - onehot) / 5.0, rtol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        logits = rng.standard_normal((3, 4))
        labels = rng.integers(0, 4, size=3)
        _, grads = mr.ce_loss(logits, labels)
        h = 1e-6
        for i in range(3):
            for j in range(4):
                up, dn = logits.copy(), logits.copy()
                up[i, j] += h
                dn[i, j] -= h
                fd = (mr.ce_loss(up, labels)[0] - mr.ce_loss(dn, labels)[0]) / (2 * h)
                assert grads[i, j] == pytest.approx(fd, abs=1e-9)


class TestCbFocalLoss:
    def test_degenerates_to_cross_entropy(self):
        """beta=0 and gamma=0 remove both the weighting and the focusing."""
        rng = np.random.default_rng(4)
        logits = rng.standard_normal((6, 4))
        labels = rng.integers(0, 4, size=6)
        cb, cb_grads = mr.cb_focal_loss(logits, labels, [3, 5, 7, 9],
                                        beta=0.0, gamma=0.0)
        ce, ce_grads = mr.ce_loss(logits, labels)
        assert cb == pytest.approx(ce, rel=1e-14)
        np.testing.assert_allclose(cb_grads, ce_grads, rtol=1e-12)

    def test_equal_counts_scale_plain_focal(self):
        rng = np.random.default_rng(5)
        logits = rng.standard_normal((4, 4))
        labels = np.array([0, 1, 2, 3])
        beta = 0.99
        w = (1.0 - beta) / (1.0 - beta ** 10)
        weighted, _ = mr.cb_focal_loss(logits, labels, [10, 10, 10, 10], beta=beta)
        plain, _ = mr.cb_focal_loss(logits, labels, [10, 10, 10, 10], beta=0.0)
        assert weighted == pytest.approx(w * plain, rel=1e-12)

    def test_rare_class_weighs_more(self):
        counts = np.array([10.0, 1000.0, 10000.0, 100.0])
        beta = 0.999
        w = (1.0 - beta) / (1.0 - beta ** counts)
        assert w[0] > w[3] > w[1] > w[2]

    def test_beta_validation(self):
        logits = np.zeros((1, 4))
        for bad in (1.0, -0.1, 2.0):
            with pytest.raises(ValueError, match="beta"):
                mr.cb_focal_loss(logits, np.array([0]), [1, 1, 1, 1], beta=bad)

    def test_counts_validation(self):
        logits = np.zeros((1, 4))
        with pytest.raises(ValueError, match="positive"):
            mr.cb_focal_loss(logits, np.array([0]), [0, 1, 1, 1])
        with pytest.raises(ValueError, match="positive"):
            mr.cb_focal_loss(logits, np.array([0]), [1, 1, 1])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        logits = rng.standard_normal((4, 4))
        labels = rng.integers(0, 4, size=4)
        counts = [346, 2208, 8469, 1170]
        _, grads = mr.cb_focal_loss(logits, labels, counts)
        h = 1e-6
        for i in range(4):
            for j in range(4):
                up, dn = logits.copy(), logits.copy()
                up[i, j] += h
                dn[i, j] -= h
                fd = (mr.cb_focal_loss(up, labels, counts)[0]
                      - mr.cb_focal_loss(dn, labels, counts)[0]) / (2 * h)
                assert grads[i, j] == pytest.approx(fd, abs=1e-8)


class TestCenterLoss:
    def test_hand_value(self):
        centers = mr.ClassCenters.zeros(2)
        emb = np.array([[1.0, 0.0]])
        loss, d_e, _ = mr.center_loss(emb, np.array([2]), centers, weight=0.2)
        assert loss == pytest.approx(0.1, abs=1e-15)
        np.testing.assert_allclose(d_e, [[0.2, 0.0]])

    def test_center_update_rule(self):
        """delta = sum(c - e) / (1 + n), applied at the update rate."""
        centers = mr.ClassCenters.zeros(2)
        emb = np.array([[2.0, 0.0]])
        _, _, moved = mr.center_loss(emb, np.array([1]), centers)
        np.testing.assert_allclose(moved.values[1], [0.5, 0.0])
        # untouched classes keep their centers
        np.testing.assert_array_equal(moved.values[0], [0.0, 0.0])

    def test_multi_sample_update(self):
        centers = mr.ClassCenters(values=np.ones((4, 2)))
        emb = np.array([[2.0, 1.0], [4.0, 1.0]])
        _, _, moved = mr.center_loss(emb, np.array([3, 3]), centers)
        # delta = ((1-2) + (1-4)) / 3 per first coordinate
        np.testing.assert_allclose(moved.values[3],
                                   [1.0 - 0.5 * (-4.0 / 3.0), 1.0])

    def test_original_centers_untouched(self):
        centers = mr.ClassCenters.zeros(3)
        emb = np.random.default_rng(0).standard_normal((4, 3))
        mr.center_loss(emb, np.array([0, 1, 2, 3]), centers)
        np.testing.assert_array_equal(centers.values, np.zeros((4, 3)))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        centers = mr.ClassCenters(values=rng.standard_normal((4, 3)))
        emb = rng.standard_normal((5, 3))
        labels = rng.integers(0, 4, size=5)
        _, d_e, _ = mr.center_loss(emb, labels, centers)
        h = 1e-6
        for i in range(5):
            for j in range(3):
                up, dn = emb.copy(), emb.copy()
                up[i, j] += h
                dn[i, j] -= h
                fd = (mr.center_loss(up, labels, centers)[0]
                      - mr.center_loss(dn, labels, centers)[0]) / (2 * h)
                assert d_e[i, j] == pytest.approx(fd, abs=1e-9)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="centers"):
            mr.ClassCenters(values=np.zeros((3, 2)))
        with pytest.raises(ValueError, match="finite"):
            mr.ClassCenters(values=np.full((4, 2), np.nan))
