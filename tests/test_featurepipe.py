import json
import re
import tracemalloc

import numpy as np
import pytest

from engagerank import featurepipe as fp
from engagerank import harness, model


def make_frames(values):
    return fp.FrameSequence(values=np.asarray(values, dtype=np.float64))


def chunk_summarize_loop(frames, n_chunks):
    """Reference: fold each chunk's frames one at a time, in time order, into
    the min, the max, the sum behind the mean and the sum of squared
    deviations from that mean."""
    values = frames.values
    d = values.shape[0]
    base, extra = divmod(values.shape[1], n_chunks)
    out = np.empty((3 * d, n_chunks), dtype=np.float64)
    start = 0
    for t in range(n_chunks):
        size = base + (1 if t < extra else 0)
        cols = [values[:, i] for i in range(start, start + size)]
        lo = hi = total = cols[0]
        for col in cols[1:]:
            lo = np.minimum(lo, col)
            hi = np.maximum(hi, col)
            total = total + col
        mean = total / size
        squares = (cols[0] - mean) * (cols[0] - mean)
        for col in cols[1:]:
            squares = squares + (col - mean) * (col - mean)
        out[:d, t] = lo
        out[d:2 * d, t] = hi
        out[2 * d:, t] = squares / size
        start += size
    return out


def assert_bitwise(a, b):
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


class TestFrameSequence:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty input"):
            make_frames(np.zeros((3, 0)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            make_frames([[1.0, np.nan]])

    def test_shape_properties(self):
        f = make_frames(np.zeros((5, 7)))
        assert f.n_channels == 5
        assert f.n_frames == 7


class TestRepeatPad:
    def test_long_sequence_untouched(self):
        f = make_frames(np.arange(12, dtype=float).reshape(2, 6))
        out = fp.repeat_pad(f, min_frames=5)
        np.testing.assert_array_equal(out.values, f.values)

    def test_short_sequence_tiled_whole(self):
        """100 frames against a floor of 250 tile three times to 300."""
        f = make_frames(np.arange(100, dtype=float)[None, :])
        out = fp.repeat_pad(f, min_frames=250)
        assert out.n_frames == 300
        np.testing.assert_array_equal(out.values[0, 100:200], f.values[0])

    def test_exact_floor_passes_through(self):
        f = make_frames(np.zeros((1, 250)))
        assert fp.repeat_pad(f, min_frames=250).n_frames == 250

    def test_tiling_preserves_period(self):
        rng = np.random.default_rng(0)
        f = make_frames(rng.standard_normal((3, 40)))
        out = fp.repeat_pad(f, min_frames=100)
        for k in range(out.n_frames // 40):
            np.testing.assert_array_equal(out.values[:, 40 * k:40 * (k + 1)],
                                          f.values)


class TestChunkSummarize:
    def test_variance_is_population_variance(self):
        """A chunk holding {1,2,3} reports variance 2/3, not 1."""
        f = make_frames(np.array([[1.0, 2.0, 3.0]]))
        out = fp.chunk_summarize_batch([f], n_chunks=1)[0]
        np.testing.assert_allclose(out[:, 0], [1.0, 3.0, 2.0 / 3.0])

    def test_output_shape(self):
        f = make_frames(np.zeros((4, 30)))
        out = fp.chunk_summarize_batch([f], n_chunks=10)[0]
        assert out.shape == (12, 10)

    def test_remainder_goes_to_leading_chunks(self):
        # 7 frames in 3 chunks -> sizes 3, 2, 2
        f = make_frames(np.arange(7, dtype=float)[None, :])
        out = fp.chunk_summarize_batch([f], n_chunks=3)[0]
        np.testing.assert_allclose(out[0], [0.0, 3.0, 5.0])   # chunk minima
        np.testing.assert_allclose(out[1], [2.0, 4.0, 6.0])   # chunk maxima

    def test_too_few_frames(self):
        f = make_frames(np.zeros((2, 4)))
        with pytest.raises(ValueError, match="too few frames"):
            fp.chunk_summarize_batch([f], n_chunks=5)

    def test_chunk_count_positive(self):
        f = make_frames(np.zeros((2, 4)))
        with pytest.raises(ValueError):
            fp.chunk_summarize_batch([f], n_chunks=0)

    def test_constant_signal_zero_variance(self):
        f = make_frames(np.full((2, 20), 3.5))
        out = fp.chunk_summarize_batch([f], n_chunks=4)[0]
        np.testing.assert_allclose(out[4:], 0.0)
        np.testing.assert_allclose(out[:4], 3.5)

    def test_stat_row_layout_by_channel(self):
        """Rows stack min block, then max block, then variance block."""
        rng = np.random.default_rng(1)
        vals = rng.standard_normal((3, 24))
        out = fp.chunk_summarize_batch([make_frames(vals)], n_chunks=2)[0]
        first, second = vals[:, :12], vals[:, 12:]
        np.testing.assert_allclose(out[0:3, 0], first.min(axis=1))
        np.testing.assert_allclose(out[3:6, 0], first.max(axis=1))
        np.testing.assert_allclose(out[6:9, 1], second.var(axis=1))


class TestChunkSummarizeMatchesLoop:
    """The blocked folds are bitwise those of the per-frame loop."""

    @pytest.mark.parametrize("d,f,n_chunks", [
        (17, 300, 10),    # divisible
        (17, 253, 10),    # uneven: three long chunks
        (3, 7, 3),
        (4, 10, 10),      # F == n_chunks: single-frame chunks
        (5, 33, 1),       # one chunk
        (1, 129, 4),      # one channel: the 33-frame chunk is a lone column
        (1, 200, 1),      # a lone column past numpy's 128-row pairwise block;
        (1, 300, 1),      # at 200 frames these values give equal bits either way
    ])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_layouts(self, d, f, n_chunks, order):
        rng = np.random.default_rng(f * 31 + d)
        vals = np.asarray(rng.standard_normal((d, f)) * 50.0 + 7.0, order=order)
        frames = make_frames(vals)
        assert frames.values.flags.c_contiguous
        assert_bitwise(fp.chunk_summarize_batch([frames], n_chunks)[0],
                       chunk_summarize_loop(frames, n_chunks))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_repeat_padded_clips(self, order):
        rng = np.random.default_rng(2)
        for f in (1, 9, 37, 100, 249):
            vals = np.asarray(rng.standard_normal((17, f)), order=order)
            padded = fp.repeat_pad(make_frames(vals), min_frames=250)
            assert_bitwise(fp.chunk_summarize_batch([padded])[0],
                           chunk_summarize_loop(padded, fp.DEFAULT_CHUNKS))

    def test_hypothesis_sweep(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @hyp.settings(max_examples=300, deadline=None, database=None)
        @hyp.given(st.integers(1, 20), st.integers(1, 400), st.integers(1, 12),
                   st.sampled_from("CF"), st.integers(0, 2 ** 32 - 1))
        def check(d, f, n_chunks, order, seed):
            hyp.assume(n_chunks <= f)
            rng = np.random.default_rng(seed)
            scale = 10.0 ** rng.uniform(-3, 3)
            vals = np.asarray(rng.standard_normal((d, f)) * scale, order=order)
            frames = make_frames(vals)
            assert_bitwise(fp.chunk_summarize_batch([frames], n_chunks)[0],
                           chunk_summarize_loop(frames, n_chunks))

        check()

    def test_signed_zero_extremes(self):
        """Which of +0 and -0 a min or max returns depends on the reduction
        order, so clips full of both zeros must still match the loop."""
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @hyp.settings(max_examples=200, deadline=None, database=None)
        @hyp.given(st.integers(1, 20), st.integers(1, 120), st.integers(1, 12),
                   st.sampled_from("CF"), st.integers(0, 2 ** 32 - 1))
        def check(d, f, n_chunks, order, seed):
            hyp.assume(n_chunks <= f)
            rng = np.random.default_rng(seed)
            vals = np.asarray(rng.choice([0.0, -0.0, 0.0, -0.0, 1.5, -2.0], (d, f)),
                              order=order)
            frames = make_frames(vals)
            assert_bitwise(fp.chunk_summarize_batch([frames], n_chunks)[0],
                           chunk_summarize_loop(frames, n_chunks))

        check()

    def test_prepare_batch_on_jsonl_set(self, tmp_path):
        """JSONL-loaded frames are stored C-ordered; clips vary in length."""
        path = tmp_path / "data.jsonl"
        records = []
        for i, f in enumerate((300, 251, 120, 17)):
            ds = fp.synth_dataset(n=4, n_frames=f, proportions=(1, 1, 1, 1),
                                  seed=i, noise=0.7)
            for r in ds.records:
                r.id = f"{r.id}-{f}"
            records.extend(ds.records)
        fp.save_records(fp.Dataset(records), path)
        back = fp.load_records(path)
        assert back.records[0].frames.values.flags.c_contiguous
        cfg = model.ModelConfig()
        chunks, *_ = model.prepare_batch(back.records, cfg)
        expected = np.stack([
            chunk_summarize_loop(fp.repeat_pad(r.frames, cfg.min_frames), cfg.n_chunks)
            for r in back.records])
        assert_bitwise(chunks, expected)


class TestPrepareBatchMatchesLoop:
    """prepare_batch summarizes its records in time-major blocks; each row is
    still bitwise the loop oracle on that record alone."""

    def test_mixed_batches(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        kind = st.tuples(st.sampled_from((4, 100, 250, 253, 300, 1400)),
                         st.sampled_from(("C", "F", "strided")))

        @hyp.settings(max_examples=60, deadline=None, database=None)
        @hyp.given(st.integers(1, 6), st.integers(1, 10),
                   st.lists(kind, min_size=1, max_size=4), st.integers(1, 80),
                   st.booleans(), st.integers(0, 2 ** 32 - 1))
        # several groups, each past one full block, with chunks of 140 frames
        @hyp.example(17, 10, [(300, "C"), (1400, "F"), (100, "strided")], 80,
                     False, 0)
        @hyp.example(3, 4, [(253, "F")], 1, True, 1)
        def check(d, n_chunks, kinds, n, zeros, seed):
            rng = np.random.default_rng(seed)
            records = []
            for i in range(n):
                f, layout = kinds[rng.integers(len(kinds))]
                shape = (d, 2 * f) if layout == "strided" else (d, f)
                vals = (rng.choice([0.0, -0.0, 0.0, -0.0, 1.5, -2.0], shape) if zeros
                        else rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3))
                vals = (vals[:, ::2] if layout == "strided"
                        else np.asarray(vals, order=layout))
                records.append(fp.SampleRecord(id=str(i), frames=make_frames(vals),
                                               global_feature=np.zeros(2), label=i % 4))
            listed = [records[i] for i in rng.integers(n, size=n + rng.integers(n + 1))]
            cfg = model.ModelConfig(n_channels=d, n_chunks=n_chunks, global_dim=2)
            chunks, *_ = model.prepare_batch(listed, cfg)
            expected = np.stack([
                chunk_summarize_loop(fp.repeat_pad(r.frames, cfg.min_frames), n_chunks)
                for r in listed])
            assert_bitwise(chunks, expected)

        check()


class TestChunkSummarizePadding:
    """chunk_summarize_batch pads short clips itself, reading them as if
    tiled; each row is bitwise repeat_pad followed by summarizing that clip alone."""

    def test_mixed_lengths_match_repeat_pad(self):
        rng = np.random.default_rng(4)
        # 125 tiles to 250, the length of a clip that needs no padding; 17
        # tiles to 255 and 100 to 300, beside unpadded 300-frame clips; 40
        # clips of 250 frames cross a block boundary
        lengths = [125, 250, 17, 300, 100, 253, 1, 249] + [125, 250] * 20
        frames = [make_frames(rng.standard_normal((3, f)) * 10.0 ** rng.uniform(-3, 3))
                  for f in lengths]
        out = fp.chunk_summarize_batch(frames, 10, min_frames=250)
        expected = np.stack([chunk_summarize_loop(fp.repeat_pad(fr, 250), 10)
                             for fr in frames])
        assert_bitwise(out, expected)

    def test_signed_zero_extremes_across_the_wrap(self):
        """Chunks that run past a short clip's last frame into its repeat,
        full of +0 and -0, still match summarizing the padded clip."""
        rng = np.random.default_rng(8)
        lengths = [1, 3, 7, 17, 33, 99, 124, 149, 249] * 4
        frames = [make_frames(rng.choice([0.0, -0.0, 0.0, -0.0, 1.5, -2.0], (3, f)))
                  for f in lengths]
        out = fp.chunk_summarize_batch(frames, 10, min_frames=250)
        expected = np.stack([chunk_summarize_loop(fp.repeat_pad(fr, 250), 10)
                             for fr in frames])
        assert_bitwise(out, expected)

    def test_padded_length_still_below_chunk_count(self):
        """3 frames at a floor of 4 tile to 6, still fewer than 10 chunks."""
        ok = make_frames(np.zeros((2, 40)))
        short = make_frames(np.zeros((2, 3)))
        assert fp.repeat_pad(short, 4).n_frames == 6
        with pytest.raises(ValueError, match="too few frames"):
            fp.chunk_summarize_batch([ok, short], 10, min_frames=4)
        assert fp.chunk_summarize_batch([short], 6, min_frames=4).shape == (1, 6, 6)


class TestMemory:
    """Peak traced memory stays bounded as the data grows."""

    @staticmethod
    def traced(fn, *args):
        """(result, peak bytes allocated during the call, bytes still held)."""
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = fn(*args)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, peak - base, held - base

    def test_load_records_streams_lines(self, tmp_path):
        ds = fp.synth_dataset(n=60, n_frames=150, proportions=(1, 1, 1, 1), seed=3)
        path = tmp_path / "data.jsonl"
        fp.save_records(ds, path)
        line = max(len(raw) for raw in path.read_bytes().splitlines())
        assert path.stat().st_size > 50 * line
        back, peak, held = self.traced(fp.load_records, path)
        assert len(back) == 60
        # the line's bytes, its text and its parsed JSON and arrays; the whole
        # file read at once would add about 2 * 60 lines
        assert peak - held < 8 * line

    def test_prepare_batch_pads_one_block_at_a_time(self):
        cfg = model.ModelConfig(n_channels=17, global_dim=4)
        rng = np.random.default_rng(5)
        records = [fp.SampleRecord(id=str(i), frames=make_frames(rng.standard_normal((17, 149))),
                                   global_feature=np.zeros(4), label=i % 4)
                   for i in range(512)]
        padded_clip = 17 * 298 * 8
        extra = []
        for n in (64, 512):
            batch, peak, _ = self.traced(model.prepare_batch, records[:n], cfg)
            extra.append(peak - sum(a.nbytes for a in batch if a is not None))
        # all 512 padded copies at once would add 448 more clips' worth
        assert extra[1] - extra[0] < 16 * padded_clip

    def test_padding_makes_no_copy(self):
        """A block of 149-frame clips read as if tiled to 298 frames needs
        about the working memory of a block of clips 298 frames long."""
        cfg = model.ModelConfig(n_channels=17, global_dim=4)
        rng = np.random.default_rng(6)
        extra = []
        for f in (149, 298):
            records = [fp.SampleRecord(id=str(i), frames=make_frames(rng.standard_normal((17, f))),
                                       global_feature=np.zeros(4), label=i % 4)
                       for i in range(32)]
            batch, peak, _ = self.traced(model.prepare_batch, records, cfg)
            extra.append(peak - sum(a.nbytes for a in batch if a is not None))
        # the block's 32 padded copies would add 32 clips' worth
        assert extra[0] - extra[1] < 4 * 17 * 298 * 8


class TestSampleRecord:
    def _record(self, **kw):
        base = dict(id="r0",
                    frames=make_frames(np.zeros((2, 5))),
                    global_feature=np.zeros(4), label=2)
        base.update(kw)
        return fp.SampleRecord(**base)

    def test_modality_fields_co_occur(self):
        with pytest.raises(ValueError, match="modality fields must co-occur"):
            self._record(speech_embedding=np.zeros(8))
        with pytest.raises(ValueError, match="modality fields must co-occur"):
            self._record(audio_meta=np.zeros(7))

    def test_label_range(self):
        with pytest.raises(ValueError):
            self._record(label=4)

    @pytest.mark.parametrize("label", [2, np.int64(2), np.int32(2), 2.0, np.float64(2.0)])
    def test_integral_labels_accepted(self, label):
        r = self._record(label=label)
        assert r.label == 2 and type(r.label) is int

    @pytest.mark.parametrize("label", [2.7, True, np.True_, "3", float("nan"),
                                       float("inf"), None, [2]])
    def test_non_integral_labels_rejected(self, label):
        with pytest.raises(ValueError, match="label must be an integer"):
            self._record(label=label)

    def test_speech_record_roundtrips_flags(self):
        r = self._record(speech_embedding=np.zeros(8),
                         audio_meta=np.array([1.0, 0.2, 0.5, 0.1, 0.9, 0.0, 0.3]))
        assert r.has_speech
        assert not self._record().has_speech

    def test_audio_meta_shape_enforced(self):
        with pytest.raises(ValueError):
            self._record(speech_embedding=np.zeros(8), audio_meta=np.zeros(5))

    @pytest.mark.parametrize("field", ["global_feature", "speech_embedding",
                                       "audio_meta"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_fields_rejected(self, field, bad):
        """NaN would pass audio_meta's range checks; the error names the field."""
        kw = dict(global_feature=np.zeros(4), speech_embedding=np.zeros(8),
                  audio_meta=np.array([1.0, 0.2, 0.5, 0.1, 0.9, 0.0, 0.3]))
        kw[field][1] = bad
        with pytest.raises(ValueError, match=rf"^{field} must be finite$"):
            self._record(**kw)


class TestJsonlRoundTrip:
    def test_round_trip_preserves_everything(self, tmp_path):
        ds = fp.synth_dataset(n=30, n_channels=3, global_dim=6, n_frames=12,
                              proportions=(1, 1, 1, 1), seed=5,
                              speech_fraction=0.5, speech_dim=10)
        path = tmp_path / "data.jsonl"
        fp.save_records(ds, path)
        back = fp.load_records(path)
        assert len(back.records) == 30
        for a, b in zip(ds.records, back.records):
            assert a.id == b.id and a.label == b.label
            np.testing.assert_allclose(a.frames.values, b.frames.values)
            np.testing.assert_allclose(a.global_feature, b.global_feature)
            assert a.has_speech == b.has_speech
            if a.has_speech:
                np.testing.assert_allclose(a.speech_embedding, b.speech_embedding)
                np.testing.assert_allclose(a.audio_meta, b.audio_meta)

    @pytest.mark.parametrize("lengths", [(300,), (250, 253, 300, 377)])
    def test_chunks_and_training_match_in_memory(self, tmp_path, lengths):
        """A reloaded set is the same input as the set in memory: the same
        chunk summaries and, after an epoch, the same parameters."""
        records = []
        for i, f in enumerate(lengths):
            ds = fp.synth_dataset(n=16 // len(lengths), n_channels=2, global_dim=5,
                                  n_frames=f, proportions=(1, 1, 1, 1), seed=i,
                                  noise=0.7)
            for r in ds.records:
                r.id = f"{r.id}-{f}"
            records.extend(ds.records)
        memory = fp.Dataset(records)
        path = tmp_path / "data.jsonl"
        fp.save_records(memory, path)
        back = fp.load_records(path)
        for a, b in zip(memory.records, back.records):
            assert a.frames.values.tobytes() == b.frames.values.tobytes()
        cfg = harness.TrainConfig.tiny()
        for mcfg in (cfg.model_config(memory), model.ModelConfig(n_channels=2, global_dim=5)):
            assert_bitwise(model.prepare_batch(back.records, mcfg).chunks,
                           model.prepare_batch(memory.records, mcfg).chunks)
        trained = [harness.train(cfg, ds)[0].params.vector for ds in (memory, back)]
        assert trained[0].tobytes() == trained[1].tobytes()

    def test_header_line_carries_schema(self, tmp_path):
        ds = fp.synth_dataset(n=8, n_channels=2, global_dim=3, n_frames=6,
                              proportions=(1, 1, 1, 1), seed=0)
        path = tmp_path / "data.jsonl"
        fp.save_records(ds, path)
        header = json.loads(path.read_text().splitlines()[0])
        assert header["schema"] == fp.SCHEMA_NAME
        assert header["D"] == 2 and header["d"] == 3

    def test_dims_come_from_the_records(self, tmp_path):
        """A dataset built from records reports and saves their dims, so the
        file it writes loads back."""
        ds = fp.synth_dataset(n=8, n_channels=2, global_dim=3, n_frames=6,
                              proportions=(1, 1, 1, 1), seed=0)
        built = fp.Dataset(ds.records[:5], split="val")
        assert (built.n_channels, built.global_dim) == (2, 3)
        path = tmp_path / "data.jsonl"
        fp.save_records(built, path)
        back = fp.load_records(path)
        assert [r.id for r in back.records] == [r.id for r in built.records]
        assert (back.n_channels, back.global_dim) == (2, 3)

    def test_records_must_share_dims(self):
        a = fp.synth_dataset(n=4, n_channels=2, global_dim=3, n_frames=6, seed=0)
        b = fp.synth_dataset(n=4, n_channels=3, global_dim=3, n_frames=6, seed=1)
        for r in b.records:
            r.id = f"b{r.id}"
        with pytest.raises(ValueError, match=re.escape(
                "records differ in n_channels: [2, 3]")):
            fp.Dataset(a.records + b.records)

    def test_records_must_share_speech_width(self, tmp_path):
        """Refused when the set is built, so no save of it truncates a file."""
        a = fp.synth_dataset(n=4, n_frames=6, seed=0, speech_fraction=1.0, speech_dim=6)
        b = fp.synth_dataset(n=4, n_frames=6, seed=1, speech_fraction=0.5, speech_dim=7)
        for r in b.records:
            r.id = f"b{r.id}"
        with pytest.raises(ValueError, match=re.escape("records differ in speech_dim: [6, 7]")):
            fp.Dataset(a.records + b.records)
        built = fp.Dataset(a.records + [r for r in b.records if not r.has_speech])
        assert (built.n_channels, built.global_dim, built.speech_dim) == (17, 64, 6)
        path = tmp_path / "data.jsonl"
        fp.save_records(built, path)
        assert json.loads(path.read_text().splitlines()[0])["speech_dim"] == 6
        assert fp.load_records(path).speech_dim == 6

    def test_save_checks_records_appended_after_build(self, tmp_path):
        """The header's widths come from the records as they are at the save:
        a record of another width, appended later, is refused before the
        target file is touched."""
        built = fp.synth_dataset(n=4, n_channels=2, global_dim=5, n_frames=6, seed=0)
        wider = fp.synth_dataset(n=4, n_channels=3, global_dim=5, n_frames=6, seed=1)
        wider.records[0].id = "wider"
        built.records.append(wider.records[0])
        path = tmp_path / "data.jsonl"
        path.write_text("earlier\n")
        with pytest.raises(ValueError, match=re.escape(
                "records differ in n_channels: [2, 3]")):
            fp.save_records(built, path)
        assert path.read_text() == "earlier\n"
        built.records.append(built.records[0])
        del built.records[-2]
        with pytest.raises(ValueError, match="record ids must be unique"):
            fp.save_records(built, path)
        assert path.read_text() == "earlier\n"

    def test_empty_dataset_saves_a_header_with_the_defaults(self, tmp_path):
        """A header-only file of any dims loads as an empty dataset, which has
        the default dims and saves as a header-only file with them."""
        path = tmp_path / "empty.jsonl"
        path.write_text(json.dumps({"schema": fp.SCHEMA_NAME, "D": 2, "d": 3}) + "\n")
        empty = fp.load_records(path)
        defaults = (fp.DEFAULT_CHANNELS, fp.DEFAULT_GLOBAL_DIM)
        assert len(empty) == 0 and (empty.n_channels, empty.global_dim) == defaults
        assert empty.speech_dim == fp.SPEECH_DIM
        fp.save_records(empty, path)
        assert path.read_text().splitlines() == [json.dumps(
            {"schema": fp.SCHEMA_NAME, "D": defaults[0], "d": defaults[1]})]
        assert len(fp.load_records(path)) == 0

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema": "something/9", "D": 2, "d": 3}\n')
        with pytest.raises(ValueError, match="schema"):
            fp.load_records(path)

    def test_error_names_line_number(self, tmp_path):
        ds = fp.synth_dataset(n=4, n_channels=2, global_dim=3, n_frames=6,
                              proportions=(1, 1, 1, 1), seed=0)
        path = tmp_path / "data.jsonl"
        fp.save_records(ds, path)
        lines = path.read_text().splitlines()
        bad = json.loads(lines[2])
        bad["label"] = 9
        lines[2] = json.dumps(bad)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="line 3"):
            fp.load_records(path)

    def test_non_utf8_byte_names_path_and_line(self, tmp_path):
        ds = fp.synth_dataset(n=4, n_channels=2, global_dim=3, n_frames=6,
                              proportions=(1, 1, 1, 1), seed=0)
        path = tmp_path / "data.jsonl"
        fp.save_records(ds, path)
        lines = path.read_bytes().split(b"\n")
        lines[3] = lines[3].replace(b'"id": "', b'"id": "\xff', 1)
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ValueError,
                           match=r"data\.jsonl: line 4: not valid UTF-8 \(invalid start byte"):
            fp.load_records(path)

    @pytest.mark.parametrize("sep", ["\u2028", "\u2029", "\x85"])
    def test_unicode_line_separators_inside_strings(self, tmp_path, sep):
        """JSON Lines ends a line at \\n only: raw U+2028, U+2029 and U+0085
        stay inside a string, and later lines keep their physical numbers."""
        ds = fp.synth_dataset(n=4, n_channels=2, global_dim=3, n_frames=6,
                              proportions=(1, 1, 1, 1), seed=0)
        path = tmp_path / "data.jsonl"
        fp.save_records(ds, path)
        lines = path.read_text(encoding="utf-8").split("\n")
        for i in (1, 2):
            obj = json.loads(lines[i])
            obj["id"] = f"clip{sep}{i}{sep}"
            lines[i] = json.dumps(obj, ensure_ascii=False)
        path.write_text("\n".join(lines), encoding="utf-8")
        back = fp.load_records(path)
        assert [r.id for r in back.records[:2]] == [f"clip{sep}1{sep}", f"clip{sep}2{sep}"]
        obj = json.loads(lines[4])
        obj["label"] = 9
        lines[4] = json.dumps(obj)
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(ValueError, match=r"data\.jsonl: line 5: label must be in 0\.\.3"):
            fp.load_records(path)

    def test_crlf_line_endings(self, tmp_path):
        ds = fp.synth_dataset(n=4, n_channels=2, global_dim=3, n_frames=6,
                              proportions=(1, 1, 1, 1), seed=0)
        path = tmp_path / "data.jsonl"
        fp.save_records(ds, path)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        back = fp.load_records(path)
        for a, b in zip(ds.records, back.records, strict=True):
            assert a.id == b.id and a.label == b.label
            assert a.frames.values.tobytes() == b.frames.values.tobytes()

    @pytest.mark.parametrize("label", [2.7, True, "3"])
    def test_non_integral_label_names_path_line_and_field(self, tmp_path, label):
        ds = fp.synth_dataset(n=4, n_channels=2, global_dim=3, n_frames=6,
                              proportions=(1, 1, 1, 1), seed=0)
        path = tmp_path / "data.jsonl"
        fp.save_records(ds, path)
        lines = path.read_text().splitlines()
        bad = json.loads(lines[2])
        bad["label"] = label
        lines[2] = json.dumps(bad)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"data\.jsonl: line 3: label must be an integer"):
            fp.load_records(path)

    @pytest.mark.parametrize("line, edit, problem", [
        (1, lambda h: h.pop("D"), "missing field 'D'"),
        (1, lambda h: h.pop("d"), "missing field 'd'"),
        (1, lambda h: h.update(D="two"), "field 'D' must be a positive integer"),
        (1, lambda h: h.update(speech_dim=6.5), "field 'speech_dim' must be a positive"),
        (3, lambda r: r.update(frames=[[0.0, 1.0], [2.0]]),
         "field 'frames' must be finite numbers"),
        (3, lambda r: r.update(frames="abc"), "field 'frames' must be finite numbers"),
        (3, lambda r: r.update(global_feature=["a", 1.0, 2.0]),
         "field 'global_feature' must be finite numbers"),
        (3, lambda r: r.update(latent=[1]), "field 'latent' must be a number"),
        (3, lambda r: r.update(audio_meta=[None] * 7),
         "field 'audio_meta' must be finite numbers"),
        (3, lambda r: r.update(audio_meta=[0.5] * 6), "audio_meta must have 7 entries"),
        (3, lambda r: r.pop("audio_meta"), "modality fields must co-occur"),
        # numpy would read these as 1.5 and 1.0; a dtype check misses the bool
        (3, lambda r: r.update(global_feature=["1.5", 1.0, 2.0]),
         "field 'global_feature' must be numbers, not strings or booleans"),
        (3, lambda r: r.update(global_feature=[1.5, True, 2.0]),
         "field 'global_feature' must be numbers, not strings or booleans"),
        (3, lambda r: r["frames"][4].__setitem__(1, True),
         "field 'frames' must be numbers, not strings or booleans"),
        (3, lambda r: r["speech_embedding"].__setitem__(2, "0.5"),
         "field 'speech_embedding' must be numbers, not strings or booleans"),
        (3, lambda r: r["audio_meta"].__setitem__(0, False),
         "field 'audio_meta' must be numbers, not strings or booleans"),
    ], ids=["no-D", "no-d", "D-string", "speech_dim-float", "frames-ragged",
            "frames-string", "global_feature-string", "latent-list",
            "audio_meta-null", "audio_meta-short", "audio_meta-absent",
            "global_feature-numeric-string", "global_feature-bool-among-floats",
            "frames-bool", "speech_embedding-numeric-string", "audio_meta-bool"])
    def test_bad_field_names_path_line_and_field(self, tmp_path, line, edit, problem):
        ds = fp.synth_dataset(n=4, n_channels=2, global_dim=3, n_frames=6,
                              proportions=(1, 1, 1, 1), seed=0, speech_fraction=1.0,
                              speech_dim=6)
        path = tmp_path / "data.jsonl"
        fp.save_records(ds, path)
        lines = path.read_text().splitlines()
        obj = json.loads(lines[line - 1])
        edit(obj)
        lines[line - 1] = json.dumps(obj)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"data\.jsonl: line {line}: {problem}"):
            fp.load_records(path)


class TestApportion:
    def test_reference_proportions_at_3000(self):
        """Largest-remainder rounding of the reference mix lands on fixed counts."""
        counts = fp.apportion(fp.REFERENCE_PROPORTIONS, 3000)
        np.testing.assert_array_equal(counts, [85, 543, 2084, 288])
        assert counts.sum() == 3000

    def test_exact_division(self):
        np.testing.assert_array_equal(fp.apportion((1, 1, 1, 1), 8), [2, 2, 2, 2])

    def test_total_always_matches(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            props = tuple(rng.integers(1, 50, size=4).tolist())
            n = int(rng.integers(4, 400))
            assert fp.apportion(props, n).sum() == n


class TestSynthDataset:
    def test_deterministic(self):
        a = fp.synth_dataset(n=20, n_channels=2, global_dim=4, n_frames=8,
                             proportions=(1, 1, 1, 1), seed=9)
        b = fp.synth_dataset(n=20, n_channels=2, global_dim=4, n_frames=8,
                             proportions=(1, 1, 1, 1), seed=9)
        for ra, rb in zip(a.records, b.records):
            np.testing.assert_array_equal(ra.frames.values, rb.frames.values)
            assert ra.label == rb.label

    def test_class_counts_follow_apportionment(self):
        ds = fp.synth_dataset(n=3000, seed=1)
        np.testing.assert_array_equal(ds.class_counts(), [85, 543, 2084, 288])

    def test_minimum_size_guard(self):
        with pytest.raises(ValueError,
                           match="need at least one record per class"):
            fp.synth_dataset(n=3, seed=0)

    def test_labels_match_latent_bands(self):
        ds = fp.synth_dataset(n=60, n_channels=2, global_dim=4, n_frames=8,
                              proportions=(1, 1, 1, 1), seed=3)
        for r in ds.records:
            assert r.label == fp.latent_band(r.latent)

    def test_speech_fraction(self):
        ds = fp.synth_dataset(n=40, n_channels=2, global_dim=4, n_frames=8,
                              proportions=(1, 1, 1, 1), seed=3,
                              speech_fraction=0.5, speech_dim=6)
        n_speech = sum(r.has_speech for r in ds.records)
        assert n_speech == 20
        for r in ds.records:
            if r.has_speech:
                assert r.speech_embedding.shape == (6,)
                assert r.audio_meta.shape == (fp.AUDIO_META_DIM,)


class TestSynthKnobs:
    BASE = dict(n=24, n_channels=2, global_dim=16, n_frames=8,
                proportions=(1, 1, 1, 1), seed=7, speech_fraction=0.25,
                speech_dim=6)

    def test_all_knobs_off_bitwise_matches_base(self):
        a = fp.synth_dataset(**self.BASE)
        b = fp.synth_dataset(**self.BASE, saturation=0.0, modulation=0.0,
                             warp=0.0, label_flip=0.0)
        for ra, rb in zip(a.records, b.records):
            np.testing.assert_array_equal(ra.frames.values, rb.frames.values)
            np.testing.assert_array_equal(ra.global_feature, rb.global_feature)
            assert ra.label == rb.label and ra.latent == rb.latent

    def test_saturation_applies_tanh_to_the_driver(self):
        # noise 0 makes features exact functions of the driver
        base = fp.synth_dataset(**{**self.BASE, "noise": 0.0})
        sat = fp.synth_dataset(**{**self.BASE, "noise": 0.0}, saturation=2.0)
        for rb, rs in zip(base.records, sat.records):
            assert rs.latent == rb.latent
            v = np.tanh(2.0 * rb.latent) / np.tanh(2.0)
            np.testing.assert_allclose(
                rs.global_feature, rb.global_feature / rb.latent * v,
                rtol=1e-12)

    def test_modulation_reports_gain_in_trailing_dims(self):
        # global_dim 16 reserves the last 2 dims for the gain report
        base = fp.synth_dataset(**{**self.BASE, "noise": 0.0})
        mod = fp.synth_dataset(**{**self.BASE, "noise": 0.0}, modulation=0.5)
        gmap = base.records[0].global_feature / base.records[0].latent
        for rb, rm in zip(base.records, mod.records):
            report = rm.global_feature[-2:] / gmap[-2:]
            np.testing.assert_allclose(report[0], report[1], rtol=1e-9)
            g = 1.0 - 0.5 * (report[0] + 1.0) / 2.0
            assert 0.5 <= g <= 1.0 + 1e-12
            np.testing.assert_allclose(
                rm.global_feature[:-2], gmap[:-2] * rb.latent * g, rtol=1e-9,
                atol=1e-12)

    def test_warp_breaks_linearity_but_not_labels(self):
        base = fp.synth_dataset(**{**self.BASE, "noise": 0.0})
        warped = fp.synth_dataset(**{**self.BASE, "noise": 0.0}, warp=1.5)
        ratios = []
        for rb, rw in zip(base.records, warped.records):
            assert rw.label == rb.label and rw.latent == rb.latent
            ratios.append(rw.global_feature[0] / rb.global_feature[0])
        # a linear response would make feature/driver constant across records
        assert np.std(ratios) > 0.1

    def test_label_flip_changes_only_labels(self):
        clean = fp.synth_dataset(**self.BASE)
        noisy = fp.synth_dataset(**self.BASE, label_flip=0.4)
        n_flipped = 0
        for rc, rn in zip(clean.records, noisy.records):
            np.testing.assert_array_equal(rc.frames.values, rn.frames.values)
            np.testing.assert_array_equal(rc.global_feature, rn.global_feature)
            assert rn.latent == rc.latent
            assert fp.latent_band(rn.latent) == rc.label
            if rn.label != rc.label:
                n_flipped += 1
                assert abs(rn.label - rc.label) == 1
        assert 0 < n_flipped < len(clean.records)

    def test_label_flip_clips_extremes_inward(self):
        ds = fp.synth_dataset(n=400, n_channels=2, global_dim=4, n_frames=8,
                              proportions=(1, 1, 1, 1), seed=2,
                              label_flip=0.5)
        true = np.array([fp.latent_band(r.latent) for r in ds.records])
        seen = np.array([r.label for r in ds.records])
        assert set(np.unique(seen[true == 0])) <= {0, 1}
        assert set(np.unique(seen[true == 3])) <= {2, 3}
        assert np.any(seen[true == 0] == 1) and np.any(seen[true == 3] == 2)

    @pytest.mark.parametrize("kwargs,msg", [
        (dict(saturation=-0.1), "saturation must be non-negative"),
        (dict(modulation=1.0), "modulation must be in"),
        (dict(warp=-1.0), "warp must be non-negative"),
        (dict(label_flip=1.0), "label_flip must be in"),
    ])
    def test_knob_validation(self, kwargs, msg):
        with pytest.raises(ValueError, match=msg):
            fp.synth_dataset(n=8, proportions=(1, 1, 1, 1), seed=0, **kwargs)


class TestSamplers:
    def test_class_balanced_uniform_over_classes(self):
        """Over many batches every class appears equally often up to noise."""
        labels = np.array([0] * 2 + [1] * 50 + [2] * 500 + [3] * 10)
        gen = fp.class_balanced_sampler(labels, batch_size=32,
                                        rng=np.random.default_rng(0))
        drawn = np.concatenate([labels[next(gen)] for _ in range(200)])
        freqs = np.bincount(drawn, minlength=4) / drawn.size
        np.testing.assert_allclose(freqs, 0.25, atol=0.03)

    def test_class_balanced_missing_class(self):
        labels = np.array([0, 1, 1, 3])
        with pytest.raises(ValueError, match="cannot balance absent class"):
            next(fp.class_balanced_sampler(labels, 4, rng=np.random.default_rng(0)))

    def test_sequential_covers_everything_once(self):
        batches = fp.sequential_batches(23, 5, np.random.default_rng(1))
        flat = np.concatenate(batches)
        assert sorted(flat.tolist()) == list(range(23))
        assert [len(b) for b in batches] == [5, 5, 5, 5, 3]


class TestSplitDataset:
    def test_stratified_fractions(self):
        ds = fp.synth_dataset(n=1000, seed=4)
        tr, va, te = fp.split_dataset(ds, seed=4)
        for c in range(4):
            total = ds.class_counts()[c]
            got = tr.class_counts()[c] + va.class_counts()[c] + te.class_counts()[c]
            assert got == total
        assert abs(len(tr) - 700) <= 4
        assert abs(len(te) - 200) <= 4

    def test_disjoint_and_complete(self):
        ds = fp.synth_dataset(n=200, n_channels=2, global_dim=4, n_frames=8,
                              proportions=(2, 3, 5, 2), seed=6)
        tr, va, te = fp.split_dataset(ds, seed=0)
        ids = [r.id for part in (tr, va, te) for r in part.records]
        assert len(ids) == 200
        assert len(set(ids)) == 200
