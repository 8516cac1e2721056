import numpy as np
import pytest

from engagerank import featurepipe as fp
from engagerank import harness, model

from _oracles import (causal_cols_padded, causal_cols_padded_backward,
                      tcn_backward_per_record, tcn_forward_per_record)


# How far a record's encoding may move with the batch it runs in; observed
# differences at desk shapes are at most about 3e-15 on values of order 1-10.
ENCODING_TOL = 1e-12


def tiny_config(**overrides):
    kw = dict(n_channels=2, n_chunks=4, width=4, global_dim=5, speech_dim=6,
              min_frames=8, dropout=0.1)
    kw.update(overrides)
    return model.ModelConfig(**kw)


def tiny_records(n, seed=0, speech_fraction=0.0):
    data = fp.synth_dataset(max(n, 4), n_channels=2, global_dim=5, n_frames=12,
                            seed=seed, speech_fraction=speech_fraction, speech_dim=6)
    return data.records[:n]


def tiny_batch(config, n=3, seed=0, speech_fraction=0.0):
    return model.prepare_batch(tiny_records(n, seed, speech_fraction), config)


class TestModelConfig:
    def test_rejects_unknown_fusion(self):
        with pytest.raises(ValueError, match="fusion"):
            tiny_config(fusion="late_fusion")

    def test_rejects_unknown_head(self):
        with pytest.raises(ValueError, match="head"):
            tiny_config(head="regression")

    def test_audio_requires_scalar_head(self):
        with pytest.raises(ValueError, match="scalar"):
            tiny_config(with_audio=True, head="categorical")

    @pytest.mark.parametrize("rate", [1.0, 1.5, -0.3, float("nan")])
    def test_dropout_outside_unit_interval(self, rate):
        """1.0 would divide by zero at the first step, 1.5 scale activations
        by -2 and -0.3 train with no dropout."""
        with pytest.raises(ValueError, match=r"dropout must be in \[0, 1\)"):
            tiny_config(dropout=rate)

    def test_embed_dim_doubles_with_concat(self):
        assert tiny_config(fusion="openface_only").embed_dim == 4
        assert tiny_config(fusion="attention_only").embed_dim == 4
        assert tiny_config(fusion="concat_only").embed_dim == 8
        assert tiny_config(fusion="concat+attention").embed_dim == 8

    def test_audio_embed_dim(self):
        cfg = tiny_config(with_audio=True)
        # visual embedding + transformed speech + 7 metadata entries
        assert cfg.audio_embed_dim == 8 + 6 + 7

    def test_score_embed_dim_follows_the_audio_branch(self):
        assert tiny_config().score_embed_dim == tiny_config().embed_dim == 8
        assert tiny_config(with_audio=True).score_embed_dim == 8 + 6 + 7


class TestInitParams:
    def test_biases_start_at_zero(self):
        params = model.init_params(tiny_config(), seed=3)
        for key, value in params.items():
            if key.endswith(".b"):
                assert not value.any(), key

    def test_seed_determinism(self):
        cfg = tiny_config()
        a = model.init_params(cfg, seed=7).flat()
        b = model.init_params(cfg, seed=7).flat()
        c = model.init_params(cfg, seed=8).flat()
        np.testing.assert_array_equal(a, b)
        assert np.any(a != c)

    def test_fusion_gates_which_blocks_exist(self):
        bare = model.init_params(tiny_config(fusion="openface_only"))
        assert "mlp1.fc1.w" not in bare and "mlp2.fc1.w" not in bare
        full = model.init_params(tiny_config(fusion="concat+attention"))
        assert "mlp1.fc1.w" in full and "mlp2.fc1.w" in full

    def test_audio_keys_split(self):
        params = model.init_params(tiny_config(with_audio=True))
        audio = set(params.keys()) - set(params.visual_keys())
        assert audio == {"audio.fc.w", "audio.fc.b", "audio.head.w"}


class TestParamsFlat:
    def test_round_trip(self):
        params = model.init_params(tiny_config(with_audio=True), seed=1)
        vec = params.flat()
        params.set_flat(vec * 2.0)
        np.testing.assert_array_equal(params.flat(), vec * 2.0)

    def test_unflatten_matches_blocks(self):
        params = model.init_params(tiny_config(), seed=2)
        blocks = params.unflatten(params.flat())
        for key, value in params.items():
            np.testing.assert_array_equal(blocks[key], value)

    def test_key_at_covers_every_index(self):
        params = model.init_params(tiny_config(), seed=0)
        assert params.key_at(0) == next(iter(params.keys()))
        keys = {params.key_at(i) for i in range(params.n_params)}
        assert keys == set(params.keys())

    def test_views_share_the_vector(self):
        params = model.init_params(tiny_config(with_audio=True), seed=1)
        for key, value in params.items():
            assert np.shares_memory(value, params.vector), key
        params["head.w"][...] = 3.0
        assert np.all(params.vector[params.slices["head.w"]] == 3.0)
        params.vector[params.slices["tcn.0.conv1.b"]] = -1.0
        assert np.all(params["tcn.0.conv1.b"] == -1.0)

    def test_copy_is_independent(self):
        params = model.init_params(tiny_config(), seed=1)
        dup = params.copy()
        assert not np.shares_memory(dup.vector, params.vector)
        for key, value in dup.items():
            assert np.shares_memory(value, dup.vector), key
            assert not np.shares_memory(value, params.vector), key
        assert dup.vector.tobytes() == params.vector.tobytes()
        dup.vector[:] = 0.0
        assert params.vector.any()

    def test_packs_in_key_order_without_aliasing(self):
        cfg = tiny_config()
        a, b = np.arange(6.0).reshape(2, 3), np.array([7.0, 8.0])
        params = model.ModelParams(cfg, {"a": a, "b": b})
        np.testing.assert_array_equal(params.vector, [0, 1, 2, 3, 4, 5, 7, 8])
        assert params.layout == (("a", (2, 3)), ("b", (2,)))
        assert not np.shares_memory(params["a"], a)

    def test_wrong_length_rejected(self):
        params = model.init_params(tiny_config())
        with pytest.raises(ValueError, match="length"):
            params.set_flat(np.zeros(3))


class TestTemporalEncoder:
    def test_output_shape(self):
        cfg = tiny_config()
        params = model.init_params(cfg)
        chunks = np.random.default_rng(0).standard_normal((6, 4))
        out = model.temporal_encoder(chunks[None], params)
        assert out.shape == (1, 4, 4)
        batched = model.temporal_encoder(np.stack([chunks, chunks]), params)
        assert batched.shape == (2, 4, 4)
        np.testing.assert_allclose(batched[0], out[0], rtol=ENCODING_TOL, atol=ENCODING_TOL)

    def test_causality(self):
        """Perturbing chunk t leaves every output before t unchanged."""
        cfg = tiny_config(n_chunks=8)
        params = model.init_params(cfg, seed=5)
        rng = np.random.default_rng(11)
        x = rng.standard_normal((1, 6, 8))
        base = model.temporal_encoder(x, params)
        for t in range(1, 8):
            bumped = x.copy()
            bumped[:, :, t:] += rng.standard_normal((6, 8 - t))
            out = model.temporal_encoder(bumped, params)
            np.testing.assert_array_equal(out[:, :, :t], base[:, :, :t])

    def test_wrong_channel_count(self):
        params = model.init_params(tiny_config())
        with pytest.raises(ValueError, match="input channels"):
            model.temporal_encoder(np.zeros((1, 5, 4)), params)


    @pytest.mark.parametrize("b", [1, 2, 3, 8, 33])
    def test_encoding_does_not_depend_on_batch_size(self, b):
        """Each conv is one product over the whole batch, so a record's
        encoding depends on its batch only by rounding: within ENCODING_TOL
        of its lone encoding, and bitwise the same for the same batch."""
        cfg = harness.TrainConfig.desk().model_config()
        params = model.init_params(cfg, seed=2)
        x = np.random.default_rng(b).standard_normal((b, cfg.chunk_rows, cfg.n_chunks))
        batched = model.temporal_encoder(x, params)
        assert model.temporal_encoder(x, params).tobytes() == batched.tobytes()
        for i in range(b):
            np.testing.assert_allclose(batched[i], model.temporal_encoder(x[i:i + 1], params)[0],
                                       rtol=ENCODING_TOL, atol=ENCODING_TOL)

    def test_matches_per_record_reference(self):
        """Forward (train mode, dropout on) and backward stay within rtol 1e-12
        of the batch-major encoder with one conv product per record."""
        cfg = harness.TrainConfig.desk().model_config()
        params = model.init_params(cfg, seed=3)
        rng = np.random.default_rng(4)
        x = rng.standard_normal((8, cfg.chunk_rows, cfg.n_chunks))
        dout = rng.standard_normal((8, cfg.width, cfg.n_chunks))
        out, caches = model._tcn_forward(x, params, True, np.random.default_rng(5))
        ref, ref_caches = tcn_forward_per_record(x, params, True, np.random.default_rng(5))
        np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-12)
        grads, ref_grads = np.zeros(params.n_params), np.zeros(params.n_params)
        model._tcn_backward(dout, caches, params, params.unflatten(grads))
        tcn_backward_per_record(dout, ref_caches, params, params.unflatten(ref_grads))
        for key in params.keys():
            got, want = params.unflatten(grads)[key], params.unflatten(ref_grads)[key]
            if key.startswith("tcn."):
                np.testing.assert_allclose(got, want, rtol=1e-12,
                                           atol=1e-12 * np.abs(want).max(), err_msg=key)
            else:
                assert not got.any() and not want.any(), key

    def test_desk_training_stays_near_per_record_reference(self, monkeypatch):
        """Ten desk-shape mocorank steps end within 1e-12 relative parameter
        difference of the same run on the per-record encoder."""
        cfg = harness.TrainConfig.desk(epochs=1, seed=3)
        data = fp.synth_dataset(10 * cfg.batch_size, seed=3)
        state, _ = harness.train(cfg, data)
        assert state.opt["step"] == 10
        monkeypatch.setattr(model, "_tcn_forward", tcn_forward_per_record)
        monkeypatch.setattr(model, "_tcn_backward", tcn_backward_per_record)
        ref, _ = harness.train(cfg, data)
        diff = np.linalg.norm(state.params.vector - ref.params.vector)
        assert diff <= 1e-12 * np.linalg.norm(ref.params.vector)


class TestCausalTaps:
    """Each causal conv, run as K shifted products on time-major (C, T*B)
    columns, and its weight and input gradients agree with one product over
    the padded-copy taps, batch-major."""

    @staticmethod
    def _time_major(a):
        """(B, C, T) -> (C, T*B)."""
        return a.transpose(1, 2, 0).reshape(a.shape[1], -1)

    @staticmethod
    def _reference(x, w, dout, dilation):
        """(output, weight gradient, input gradient) of the conv from the
        padded-copy taps with one product each."""
        b, ch, t = x.shape
        o, _, kernel = w.shape
        cols = causal_cols_padded(x, kernel, dilation).reshape(b, ch * kernel, t)
        w2 = w.reshape(o, ch * kernel)
        out = np.matmul(w2, cols)
        dw = np.einsum("bot,bkt->ok", dout, cols).reshape(w.shape)
        dcols = np.matmul(w2.T, dout).reshape(b, ch, kernel, t)
        return out, dw, causal_cols_padded_backward(dcols, dilation, t)

    def _conv_and_grads(self, x, w, dout, dilation):
        tm = self._time_major
        b = x.shape[0]
        out = model._causal_conv(tm(x), w, dilation, b)
        dw = np.zeros_like(w)
        model._conv_weight_grad(tm(dout), tm(x), dw, dilation, b)
        dx = model._conv_input_grad(tm(dout), w, dilation, b)
        return out, dw, dx

    def test_matches_padded_reference(self):
        """Within rtol 1e-12, plus 1e-14 of the summed term magnitudes for
        entries that cancel (rounding stays below 48 * 2**-53 of them)."""
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @hyp.settings(max_examples=300, deadline=None, database=None)
        @hyp.given(b=st.integers(1, 4), ch=st.integers(1, 5), o=st.integers(1, 5),
                   t=st.integers(1, 12), kernel=st.integers(1, 5),
                   dilation=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1))
        @hyp.example(b=1, ch=3, o=2, t=5, kernel=3, dilation=2, seed=0)
        @hyp.example(b=3, ch=2, o=4, t=4, kernel=3, dilation=2, seed=1)
        @hyp.example(b=1, ch=1, o=1, t=1, kernel=5, dilation=8, seed=2)
        def check(b, ch, o, t, kernel, dilation, seed):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((b, ch, t))
            w = rng.standard_normal((o, ch, kernel))
            dout = rng.standard_normal((b, o, t))
            x[rng.random(x.shape) < 0.2] = -0.0
            dout[rng.random(dout.shape) < 0.2] = -0.0
            tm = self._time_major
            got = self._conv_and_grads(x, w, dout, dilation)
            want = self._reference(x, w, dout, dilation)
            scale = self._reference(np.abs(x), np.abs(w), np.abs(dout), dilation)
            for g, wv, sc in zip(got, (tm(want[0]), want[1], tm(want[2])),
                                 (tm(scale[0]), scale[1], tm(scale[2]))):
                assert g.shape == wv.shape
                assert np.all(np.abs(g - wv) <= 1e-12 * np.abs(wv) + 1e-14 * sc)

        check()

    def test_reach_past_the_start(self):
        """(K-1)*dilation >= T: the early taps read only padding, so they add
        nothing to the output and take no gradient."""
        x = np.arange(1.0, 17.0).reshape(2, 2, 4)
        w = np.arange(1.0, 13.0).reshape(2, 2, 3)
        dout = np.arange(-8.0, 8.0).reshape(2, 2, 4)
        tm = self._time_major
        out, dw, dx = self._conv_and_grads(x, w, dout, 4)
        np.testing.assert_array_equal(out, w[:, :, 2] @ tm(x))
        assert not dw[:, :, :2].any()
        np.testing.assert_array_equal(dx, w[:, :, 2].T @ tm(dout))
        # small integers: every sum is exact, so the reference agrees bitwise
        want_out, want_dw, want_dx = self._reference(x, w, dout, 4)
        assert out.tobytes() == tm(want_out).tobytes()
        assert dw.tobytes() == want_dw.tobytes()
        assert dx.tobytes() == tm(want_dx).tobytes()


class TestAttentionFuse:
    def test_weights_are_a_distribution(self):
        cfg = tiny_config()
        params = model.init_params(cfg, seed=4)
        rng = np.random.default_rng(2)
        for trial in range(25):
            enc = rng.standard_normal((3, 4, 4)) * 3.0
            g = rng.standard_normal((3, 5))
            pooled, attn = model.attention_fuse(enc, g, params)
            assert np.all(attn >= 0.0)
            np.testing.assert_allclose(attn.sum(axis=1), 1.0, rtol=0, atol=1e-9)
            np.testing.assert_allclose(pooled, np.einsum("bct,bt->bc", enc, attn))

    def test_uniform_without_attention_branch(self):
        for fusion in ("openface_only", "concat_only"):
            params = model.init_params(tiny_config(fusion=fusion))
            enc = np.random.default_rng(0).standard_normal((1, 4, 4))
            pooled, attn = model.attention_fuse(enc, np.zeros((1, 5)), params)
            np.testing.assert_array_equal(attn, np.full((1, 4), 0.25))
            np.testing.assert_allclose(pooled, enc.mean(axis=2))


class TestConcatFuse:
    def test_pooled_part_passes_through(self):
        params = model.init_params(tiny_config(), seed=6)
        g = np.arange(5.0)[None]
        pooled = np.arange(4.0)[None] + 10.0
        fused = model.concat_fuse(g, pooled, params)
        assert fused.shape == (1, 8)
        np.testing.assert_array_equal(fused[:, 4:], pooled)

    def test_no_concat_is_identity(self):
        params = model.init_params(tiny_config(fusion="attention_only"))
        pooled = np.random.default_rng(1).standard_normal((1, 4))
        np.testing.assert_array_equal(
            model.concat_fuse(np.zeros((1, 5)), pooled, params), pooled)

    def test_global_feature_length_checked(self):
        params = model.init_params(tiny_config())
        with pytest.raises(ValueError, match="global feature"):
            model.concat_fuse(np.zeros((1, 7)), np.zeros((1, 4)), params)


class TestScoreHead:
    def test_matches_cosine(self):
        params = model.init_params(tiny_config(), seed=8)
        rng = np.random.default_rng(5)
        w = params["head.w"]
        for trial in range(50):
            x = rng.standard_normal(8) * rng.uniform(0.1, 10)
            (s,) = model.score_head(x[None], params)
            expect = x @ w / (np.linalg.norm(x) * np.linalg.norm(w))
            np.testing.assert_allclose(s, expect, rtol=1e-12)
            assert -1.0 <= s <= 1.0

    def test_zero_vector_scores_zero_with_warning(self):
        params = model.init_params(tiny_config())
        with pytest.warns(RuntimeWarning):
            s = model.score_head(np.zeros((1, 8)), params)
        np.testing.assert_array_equal(s, [0.0])


class TestStageFunctions:
    """The four eval-mode stage functions, chained on a prepared batch, give
    the eval trace of ``forward_batch`` bitwise."""

    @pytest.mark.parametrize("fusion", model.FUSIONS)
    def test_chain_equals_forward_batch(self, fusion):
        cfg = tiny_config(fusion=fusion)
        params = model.init_params(cfg, seed=5)
        chunks, gfeat, *_ = tiny_batch(cfg, n=5, seed=4)
        trace = model.forward_batch(chunks, gfeat, params, mode="eval")
        encoded = model.temporal_encoder(chunks, params)
        pooled, attn = model.attention_fuse(encoded, gfeat, params)
        fused = model.concat_fuse(gfeat, pooled, params)
        score = model.score_head(fused, params)
        for name, got in (("encoded", encoded), ("attn", attn), ("fused", fused),
                          ("score", score)):
            want = getattr(trace, name)
            assert got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name
        # every fusion ends its fused feature with the pooled encoding
        assert pooled.tobytes() == trace.fused[:, -pooled.shape[1]:].tobytes()


class TestClassify:
    def test_threshold_placement(self):
        scores = [-0.9, -0.5, 0.0, 0.49, 0.5]
        np.testing.assert_array_equal(model.classify(scores), [0, 1, 2, 2, 3])

    def test_scalar_returns_int(self):
        out = model.classify(0.5)
        assert isinstance(out, int) and out == 3

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="score out of range"):
            model.classify(1.1)
        with pytest.raises(ValueError, match="score out of range"):
            model.classify([-0.2, -1.2])
        # a hair of float slack is tolerated at the boundary
        assert model.classify(1.0 + 1e-10) == 3

    def test_nan_refused(self):
        with pytest.raises(ValueError, match="score out of range"):
            model.classify(np.nan)
        with pytest.raises(ValueError, match="score out of range"):
            model.classify([0.2, np.nan])

    def test_monotone_in_score(self):
        rng = np.random.default_rng(7)
        for trial in range(30):
            s = np.sort(rng.uniform(-1, 1, size=40))
            labels = model.classify(s)
            assert np.all(np.diff(labels) >= 0)


class TestAudioFuse:
    """The audio branch, as an all-speech batch runs through it."""

    def test_score_and_embedding(self):
        cfg = tiny_config(with_audio=True)
        params = model.init_params(cfg, seed=2)
        chunks, gfeat, speech, meta, has_speech = tiny_batch(
            cfg, n=4, seed=9, speech_fraction=1.0)
        trace = model.forward_batch(chunks, gfeat, params, speech=speech, meta=meta,
                                    has_speech=has_speech)
        assert trace.audio_used.all()
        xprime = trace.embedding
        assert xprime.shape == (4, cfg.audio_embed_dim)
        np.testing.assert_array_equal(xprime[:, :8], trace.fused)
        np.testing.assert_array_equal(xprime[:, 14:], meta)
        # the middle block is the affine-transformed speech embedding
        np.testing.assert_allclose(
            xprime[:, 8:14], speech @ params["audio.fc.w"].T + params["audio.fc.b"])
        assert np.all(np.abs(trace.score) <= 1.0)


class TestForwardBatch:
    def test_trace_shapes_and_bounds(self):
        cfg = tiny_config()
        params = model.init_params(cfg, seed=1)
        chunks, gfeat, speech, meta, has_speech = tiny_batch(cfg, n=5)
        trace = model.forward_batch(chunks, gfeat, params)
        assert trace.batch_size == 5
        assert trace.encoded.shape == (5, 4, 4)
        assert trace.attn.shape == (5, 4)
        assert trace.fused.shape == (5, 8)
        assert np.all(np.abs(trace.score) <= 1.0)
        np.testing.assert_array_equal(trace.embedding, trace.fused)

    def test_eval_is_deterministic(self):
        cfg = tiny_config()
        params = model.init_params(cfg, seed=1)
        chunks, gfeat, *_ = tiny_batch(cfg, n=3)
        a = model.forward_batch(chunks, gfeat, params).score
        b = model.forward_batch(chunks, gfeat, params).score
        np.testing.assert_array_equal(a, b)

    def test_train_mode_applies_dropout(self):
        cfg = tiny_config(dropout=0.5)
        params = model.init_params(cfg, seed=1)
        chunks, gfeat, *_ = tiny_batch(cfg, n=3)
        eval_score = model.forward_batch(chunks, gfeat, params).score
        train_score = model.forward_batch(chunks, gfeat, params, mode="train",
                                          rng=np.random.default_rng(0)).score
        assert np.any(eval_score != train_score)

    def test_rejects_bad_mode(self):
        cfg = tiny_config()
        params = model.init_params(cfg)
        chunks, gfeat, *_ = tiny_batch(cfg, n=2)
        with pytest.raises(ValueError, match="mode"):
            model.forward_batch(chunks, gfeat, params, mode="test")

    def test_categorical_head_emits_logits(self):
        cfg = tiny_config(head="categorical")
        params = model.init_params(cfg, seed=3)
        chunks, gfeat, *_ = tiny_batch(cfg, n=4)
        trace = model.forward_batch(chunks, gfeat, params)
        assert trace.logits.shape == (4, 4)
        np.testing.assert_array_equal(trace.score, np.zeros(4))


class TestMixedBatches:
    def test_mixed_eval_scores_both_branches(self):
        cfg = tiny_config(with_audio=True)
        params = model.init_params(cfg, seed=4)
        records = tiny_records(8, seed=3, speech_fraction=0.5)
        chunks, gfeat, speech, meta, has_speech = model.prepare_batch(records, cfg)
        assert has_speech.any() and not has_speech.all()
        trace = model.forward_batch(chunks, gfeat, params, speech=speech, meta=meta,
                                    has_speech=has_speech)
        np.testing.assert_array_equal(trace.audio_used, has_speech)
        assert trace.embedding is None
        visual = model.forward_batch(chunks, gfeat, params)
        # records without speech fall back to the visual score
        np.testing.assert_array_equal(trace.score[~has_speech],
                                      visual.score[~has_speech])
        assert np.all(trace.score[has_speech] != visual.score[has_speech])

    def test_visual_model_scores_speech_records_visually(self):
        """The params decide the branch: speech on the batch does not turn
        it on for a model without one."""
        params = model.init_params(tiny_config(), seed=4)
        chunks, gfeat, speech, meta, has_speech = model.prepare_batch(
            tiny_records(8, seed=3, speech_fraction=1.0), params.config)
        trace = model.forward_batch(chunks, gfeat, params, speech=speech, meta=meta,
                                    has_speech=has_speech)
        assert not trace.audio_used.any()
        visual = model.forward_batch(chunks, gfeat, params)
        assert trace.score.tobytes() == visual.score.tobytes()
        assert trace.embedding.tobytes() == visual.embedding.tobytes()

    def test_mixed_backward_refused(self):
        cfg = tiny_config(with_audio=True)
        params = model.init_params(cfg, seed=4)
        records = tiny_records(8, seed=3, speech_fraction=0.5)
        chunks, gfeat, speech, meta, has_speech = model.prepare_batch(records, cfg)
        trace = model.forward_batch(chunks, gfeat, params, speech=speech, meta=meta,
                                    has_speech=has_speech)
        with pytest.raises(ValueError, match="mixed"):
            model.backward(trace, params, d_score=np.ones(trace.batch_size))

    def test_all_speech_batch_backpropagates(self):
        cfg = tiny_config(with_audio=True)
        params = model.init_params(cfg, seed=4)
        records = tiny_records(4, seed=6, speech_fraction=1.0)
        chunks, gfeat, speech, meta, has_speech = model.prepare_batch(records, cfg)
        trace = model.forward_batch(chunks, gfeat, params, mode="train",
                                    speech=speech, meta=meta, has_speech=has_speech,
                                    rng=np.random.default_rng(0))
        assert trace.embedding.shape == (4, cfg.audio_embed_dim)
        flat = model.backward(trace, params, d_score=np.ones(4))
        assert flat.shape == (params.n_params,)
        assert np.isfinite(flat).all()


class TestEvalTraces:
    """Eval forwards keep no backward caches, so only train traces backpropagate."""

    @staticmethod
    def _batch(kind):
        cfg = tiny_config(with_audio=kind == "audio",
                          head="categorical" if kind == "categorical" else "scalar")
        speech_fraction = 1.0 if kind == "audio" else 0.0
        chunks, gfeat, speech, meta, has_speech = tiny_batch(
            cfg, n=5, seed=2, speech_fraction=speech_fraction)
        kwargs = dict(speech=speech, meta=meta, has_speech=has_speech)
        return cfg, chunks, gfeat, kwargs

    def test_eval_trace_holds_no_caches(self):
        cfg, chunks, gfeat, kwargs = self._batch("visual")
        params = model.init_params(cfg, seed=1)
        trace = model.forward_batch(chunks, gfeat, params, **kwargs)
        assert trace.cache is None
        train = model.forward_batch(chunks, gfeat, params, mode="train",
                                    rng=np.random.default_rng(0), **kwargs)
        assert [sorted(c) for c in train.cache["tcn"]] == [
            ["dilation", "h1", "m1", "m2", "s1", "s2", "s_out", "x"]
        ] * len(cfg.dilations)

    def test_relu_signature_refuses_eval_trace(self):
        cfg, chunks, gfeat, kwargs = self._batch("visual")
        params = model.init_params(cfg, seed=1)
        trace = model.forward_batch(chunks, gfeat, params, **kwargs)
        with pytest.raises(ValueError, match="train-mode trace"):
            model.relu_signature(trace)

    @pytest.mark.parametrize("kind", ["visual", "audio", "categorical"])
    def test_backward_refuses_eval_trace(self, kind):
        cfg, chunks, gfeat, kwargs = self._batch(kind)
        params = model.init_params(cfg, seed=7)
        trace = model.forward_batch(chunks, gfeat, params, **kwargs)
        grads = {"d_embed": np.ones_like(trace.embedding)}
        if kind == "categorical":
            grads["d_logits"] = np.ones_like(trace.logits)
        with pytest.raises(ValueError, match="train-mode trace"):
            model.backward(trace, params, **grads)

    def test_block_zero_input_gradient_not_computed(self, monkeypatch):
        """Every block but the first passes a gradient to its input."""
        cfg, chunks, gfeat, kwargs = self._batch("visual")
        params = model.init_params(cfg, seed=1)
        trace = model.forward_batch(chunks, gfeat, params, mode="train",
                                    rng=np.random.default_rng(0), **kwargs)
        calls = []
        real = model._conv_input_grad
        monkeypatch.setattr(model, "_conv_input_grad",
                            lambda *a: calls.append(1) or real(*a))
        model.backward(trace, params, d_score=np.ones(trace.batch_size))
        assert len(calls) == 2 * len(cfg.dilations) - 1


class TestDropoutMasks:
    """Train traces keep dropout decisions as one-byte keep masks."""

    @staticmethod
    def _desk_train_trace(b, kind="visual"):
        cfg = harness.TrainConfig.desk(
            use_audio=kind == "audio",
            loss="cb_focal" if kind == "categorical" else "mocorank").model_config()
        params = model.init_params(cfg, seed=1)
        rng = np.random.default_rng(b)
        chunks = rng.standard_normal((b, cfg.chunk_rows, cfg.n_chunks))
        gfeat = rng.standard_normal((b, cfg.global_dim))
        speech = rng.standard_normal((b, cfg.speech_dim)) if kind == "audio" else None
        meta = rng.random((b, fp.AUDIO_META_DIM)) if kind == "audio" else None
        trace = model.forward_batch(chunks, gfeat, params, mode="train", speech=speech,
                                    meta=meta, rng=np.random.default_rng(0))
        return cfg, params, trace

    @pytest.mark.parametrize("b", [32, 20])      # a desk batch and a partial one
    def test_time_major_mask_is_the_batch_major_draw(self, b):
        cfg = harness.TrainConfig.desk().model_config()
        ch, t, rate = cfg.width, cfg.n_chunks, cfg.dropout
        rng, ref_rng = np.random.default_rng(b), np.random.default_rng(b)
        keep = model._time_major_mask(rate, True, rng, b, ch, t)
        want = (ref_rng.random((b, ch, t)) >= rate).transpose(1, 2, 0).reshape(ch, t * b)
        assert keep.dtype == bool and keep.flags.c_contiguous
        np.testing.assert_array_equal(keep, want)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_train_trace_caches_one_byte_masks(self):
        b = 5
        cfg, _, trace = self._desk_train_trace(b)
        n = cfg.n_chunks * b
        want, in_ch = 0, cfg.chunk_rows
        for cache in trace.cache["tcn"]:
            assert cache["m1"].dtype == bool and cache["m2"].dtype == bool
            # float64 conv inputs x and h1; one byte each for s1, m1, s2, m2, s_out
            want += (8 * in_ch + 8 * cfg.width + 5 * cfg.width) * n
            in_ch = cfg.width
        got = sum(v.nbytes for cache in trace.cache["tcn"] for v in cache.values()
                  if isinstance(v, np.ndarray))
        assert got == want
        assert trace.cache["attn"]["m"].dtype == bool

    @pytest.mark.parametrize("kind", ["visual", "audio", "categorical"])
    def test_backward_twice_gives_the_same_bytes(self, kind):
        cfg, params, trace = self._desk_train_trace(20, kind)
        rng = np.random.default_rng(3)
        grads = dict(d_embed=rng.standard_normal(trace.embedding.shape))
        if kind == "categorical":
            grads["d_logits"] = rng.standard_normal(trace.logits.shape)
        else:
            grads["d_score"] = rng.standard_normal(trace.batch_size)
        first = model.backward(trace, params, **grads)
        assert first.any()
        assert model.backward(trace, params, **grads).tobytes() == first.tobytes()


def scoring_case(kind, n, seed=3):
    """(params, batch) of n records for a ``TestScoreBatch`` kind: visual,
    audio (every record has speech), mixed (about half do) or categorical at
    the tiny config, or visual at desk shapes."""
    if kind == "desk":
        cfg = harness.TrainConfig.desk().model_config()
        data = fp.synth_dataset(max(n, 4), n_frames=cfg.min_frames + 50, seed=seed)
        records = data.records[:n]
    else:
        cfg = tiny_config(with_audio=kind in ("audio", "mixed"),
                          head="categorical" if kind == "categorical" else "scalar")
        fraction = {"audio": 1.0, "mixed": 0.5}.get(kind, 0.0)
        records = tiny_records(n, seed=seed, speech_fraction=fraction)
    return model.init_params(cfg, seed=7), model.prepare_batch(records, cfg)


def assert_rows_equal(got, want, rows, kind):
    """``got`` (score_batch outputs) are ``want``'s at ``rows``, byte for byte."""
    (scores, embeddings, logits), (w_scores, w_embeddings, w_logits) = got, want
    assert scores.tobytes() == w_scores[rows].tobytes()
    if kind == "mixed":
        assert w_embeddings is None
    else:
        assert embeddings.tobytes() == w_embeddings[rows].tobytes()
    if kind == "categorical":
        assert logits.tobytes() == w_logits[rows].tobytes()
    else:
        assert logits is None


class TestScoreBatch:
    @pytest.mark.parametrize("kind", ["visual", "audio", "mixed", "categorical"])
    @pytest.mark.parametrize("k", [1, 2, 3, 8, 9, None])
    def test_equals_slice_by_slice_forward(self, kind, k):
        """A batch of one tile and 9 rows scores byte for byte as its slices
        of k rows do: below one tile, or at one tile for k None."""
        n = model.TILE_ROWS + 9
        params, batch = scoring_case(kind, n)
        whole = model.score_batch(params, batch)
        step = k or model.TILE_ROWS
        for i in range(0, n, step):
            rows = slice(i, min(i + step, n))
            part = model.score_batch(params, batch.take(rows))
            if kind == "mixed":
                # a slice whose rows agree has one embedding width
                part = part[0], None, part[2]
            assert_rows_equal(part, whole, rows, kind)

    @pytest.mark.parametrize("kind", ["visual", "audio", "mixed", "categorical"])
    def test_forwards_tiles_padded_with_the_last_row(self, kind):
        """Outputs are those of one eval forward per TILE_ROWS rows, the last
        tile filled up with copies of its last row."""
        n = model.TILE_ROWS + 3
        params, batch = scoring_case(kind, n)
        tiles = [np.arange(model.TILE_ROWS),
                 np.minimum(np.arange(model.TILE_ROWS, 2 * model.TILE_ROWS), n - 1)]
        traces = [model.forward_batch(t.chunks, t.gfeat, params, speech=t.speech,
                                      meta=t.meta, has_speech=t.has_speech)
                  for t in (batch.take(rows) for rows in tiles)]
        scores, embeddings, logits = model.score_batch(params, batch)
        assert scores.tobytes() == np.concatenate([t.score for t in traces])[:n].tobytes()
        if kind == "mixed":
            assert batch.has_speech.any() and not batch.has_speech.all()
            assert embeddings is None
        else:
            assert embeddings.tobytes() == \
                np.concatenate([t.embedding for t in traces])[:n].tobytes()
        if kind == "categorical":
            assert logits.tobytes() == \
                np.concatenate([t.logits for t in traces])[:n].tobytes()
        else:
            assert logits is None

    @pytest.mark.parametrize("kind", ["visual", "audio", "mixed", "categorical", "desk"])
    def test_record_bytes_do_not_depend_on_the_batch(self, kind):
        """Any selection of records, in any order and of any size up to three
        tiles, scores each record to the bytes it gets in the whole set."""
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        n = 3 * model.TILE_ROWS + 5
        params, batch = scoring_case(kind, n)
        whole = model.score_batch(params, batch)

        @hyp.settings(max_examples=25, deadline=None, database=None)
        @hyp.given(st.lists(st.integers(0, n - 1), min_size=1, max_size=3 * model.TILE_ROWS,
                            unique=True))
        def check(rows):
            rows = np.array(rows)
            got = model.score_batch(params, batch.take(rows))
            if kind == "mixed" and got[1] is not None:
                got = got[0], None, got[2]
            assert_rows_equal(got, whole, rows, kind)

        check()


class TestPrepareBatch:
    def test_repeated_records_keep_their_bytes(self):
        cfg = tiny_config()
        records = tiny_records(4, seed=1)
        listed = [records[i] for i in (0, 1, 0, 2, 1, 0, 3, 3)]
        expected = np.stack([
            fp.prepare_record(r, cfg.n_chunks, cfg.min_frames)
            for r in listed])
        chunks, gfeat, *_ = model.prepare_batch(listed, cfg)
        assert chunks.tobytes() == expected.tobytes()
        assert gfeat.tobytes() == np.stack([r.global_feature for r in listed]).tobytes()
