import json
import math
import re

import numpy as np
import pytest

from engagerank import featurepipe as fp
from engagerank import harness, mocorank, model

from _oracles import adamw_per_key, pool_fill_all_rows


def tiny_train_config(**overrides):
    kw = dict(batch_size=8, pool_size=16, epochs=6, width=4, n_chunks=4, dropout=0.0,
              min_frames=8, lr_start=3e-3, lr_end=3e-5)
    kw.update(overrides)
    return harness.TrainConfig(**kw)


def tiny_data(n=48, seed=0, speech_fraction=0.0, proportions=(1, 1, 1, 1)):
    return fp.synth_dataset(n, n_channels=2, global_dim=5, n_frames=12,
                            proportions=proportions, noise=0.4, seed=seed,
                            speech_fraction=speech_fraction, speech_dim=6)


def scalar_params(value=1.0):
    cfg = model.ModelConfig(n_channels=2, n_chunks=4, width=4, global_dim=5,
                            speech_dim=6, min_frames=8)
    return model.ModelParams(cfg, {"w": np.array([value])})


class TestTrainConfig:
    def test_loss_validation(self):
        with pytest.raises(ValueError, match="loss"):
            tiny_train_config(loss="hinge")

    def test_ablation_validation(self):
        with pytest.raises(ValueError, match="ablation"):
            tiny_train_config(ablation="everything")

    def test_sampler_validation(self):
        with pytest.raises(ValueError, match="sampler"):
            tiny_train_config(sampler="random")

    def test_lr_ordering(self):
        with pytest.raises(ValueError, match="lr_start"):
            tiny_train_config(lr_start=1e-5, lr_end=1e-3)
        with pytest.raises(ValueError, match="lr_start"):
            tiny_train_config(lr_end=0.0)

    def test_batch_pool_relation(self):
        with pytest.raises(ValueError, match="pool_size"):
            tiny_train_config(batch_size=32, pool_size=16)

    def test_batch_pool_relation_only_with_pool(self):
        cfg = harness.TrainConfig(loss="mse", batch_size=512)
        assert cfg.batch_size > cfg.pool_size
        harness.TrainConfig(loss="cb_focal", batch_size=512)
        with pytest.raises(ValueError, match="at least 1"):
            harness.TrainConfig(loss="mse", batch_size=0)

    def test_epoch_and_momentum_bounds(self):
        with pytest.raises(ValueError, match="epochs"):
            tiny_train_config(epochs=0)
        for bad in (0.0, 1.0):
            with pytest.raises(ValueError, match="momentum"):
                tiny_train_config(momentum=bad)

    @pytest.mark.parametrize("beta", [1.0, -0.1, 1.5])
    def test_cb_beta_in_unit_interval(self, beta):
        """Refused when the config is built, not at the first cb_focal step."""
        with pytest.raises(ValueError, match=re.escape(f"cb_beta must be in [0, 1), "
                                                       f"got {beta}")):
            tiny_train_config(loss="cb_focal", cb_beta=beta)

    def test_model_config_checked_up_front(self):
        """A dropout the model refuses fails when the config is built."""
        with pytest.raises(ValueError, match="dropout"):
            tiny_train_config(dropout=1.0)

    @pytest.mark.parametrize("epochs", [0, -3])
    def test_stage2_epochs_at_least_one(self, epochs):
        """0 would otherwise read as "as many as stage 1"."""
        with pytest.raises(ValueError, match="stage2_epochs must be at least 1"):
            tiny_train_config(stage2_epochs=epochs)

    def test_audio_needs_scalar_loss(self):
        with pytest.raises(ValueError, match="scalar"):
            tiny_train_config(loss="ce", use_audio=True)

    @pytest.mark.parametrize("field, value, kind", [
        ("seed", "abc", "int"), ("epochs", 4.5, "int"), ("batch_size", 4.0, "int"),
        ("lr_start", True, "float"), ("detach_margin", "no", "bool"),
        ("seed", True, "int"), ("sampler", 3, "str or None"),
        ("stage2_epochs", 1.0, "int or None")])
    def test_field_types(self, field, value, kind):
        """Each field is checked against its type hint, before any range check."""
        with pytest.raises(ValueError, match=f"{field} must be {kind}, got"):
            tiny_train_config(**{field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", [name for name, (kind, _)
                                       in harness.config_field_types().items()
                                       if kind is float])
    def test_floats_are_finite(self, field, value):
        """Refused when the config is built, not as a non-finite gradient."""
        with pytest.raises(ValueError, match=f"{field} must be finite, got {value}"):
            tiny_train_config(**{field: value})

    @pytest.mark.parametrize("field", ["weight_decay", "center_weight", "cb_gamma"])
    def test_weights_are_not_negative(self, field):
        with pytest.raises(ValueError, match=f"{field} must be at least 0, got -0.5"):
            tiny_train_config(**{field: -0.5})
        assert getattr(tiny_train_config(**{field: 0.0}), field) == 0.0

    def test_int_is_a_float_and_none_is_optional(self):
        cfg = tiny_train_config(lr_start=1, lr_end=1, sampler=None, stage2_epochs=None)
        assert cfg.lr_start == 1 and cfg.sampler is None

    def test_head_follows_loss(self):
        assert tiny_train_config(loss="mocorank").head == "scalar"
        assert tiny_train_config(loss="mse").head == "scalar"
        assert tiny_train_config(loss="ce").head == "categorical"
        assert tiny_train_config(loss="cb_focal").head == "categorical"

    def test_sampler_defaults(self):
        """Categorical losses balance classes; scalar losses shuffle as-is."""
        assert tiny_train_config(loss="ce").resolved_sampler == "class_balanced"
        assert tiny_train_config(loss="ce+center").resolved_sampler == "class_balanced"
        assert tiny_train_config(loss="mse").resolved_sampler == "sequential"
        assert tiny_train_config(loss="mocorank").resolved_sampler == "sequential"
        assert tiny_train_config(
            loss="mse", sampler="class_balanced").resolved_sampler == "class_balanced"

    def test_state_flags(self):
        assert tiny_train_config(loss="mocorank").needs_pool
        assert tiny_train_config(loss="mocorank+center").needs_pool
        assert not tiny_train_config(loss="mse").needs_pool
        assert tiny_train_config(loss="ce+center").needs_centers
        assert not tiny_train_config(loss="ce").needs_centers


class TestCosineSchedule:
    def test_endpoints(self):
        assert harness.cosine_lr(0, 100, 5e-4, 5e-7) == pytest.approx(5e-4)
        assert harness.cosine_lr(100, 100, 5e-4, 5e-7) == pytest.approx(5e-7)

    def test_midpoint(self):
        assert harness.cosine_lr(50, 100, 5e-4, 5e-7) == pytest.approx(
            2.5025e-4, rel=1e-12)

    def test_non_increasing(self):
        lrs = [harness.cosine_lr(t, 200, 1e-3, 1e-6) for t in range(201)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))


class TestAdamW:
    def test_single_step_hand_trace(self):
        """w=1, g=2, lr=0.1, decay 0.01: decay first, then a unit-ish step."""
        params = scalar_params(1.0)
        opt = harness.init_opt_state(params)
        harness.adamw_step(params, np.array([2.0]), opt, lr=0.1,
                           weight_decay=0.01)
        m, v = 0.1 * 2.0, 0.001 * 4.0
        update = (m / 0.1) / (math.sqrt(v / 0.001) + 1e-8)
        expect = 1.0 * (1.0 - 0.1 * 0.01) - 0.1 * update
        assert params["w"][0] == pytest.approx(expect, rel=1e-15)
        assert opt["step"] == 1

    def test_decay_is_decoupled(self):
        """Zero gradient still shrinks the weight by exactly (1 - lr*wd)^k."""
        params = scalar_params(1.0)
        opt = harness.init_opt_state(params)
        for _ in range(5):
            harness.adamw_step(params, np.zeros(1), opt, lr=0.2, weight_decay=0.1)
        assert params["w"][0] == pytest.approx((1.0 - 0.02) ** 5, rel=1e-12)

    def test_frozen_blocks_untouched(self):
        cfg = model.ModelConfig(n_channels=2, n_chunks=4, width=4, global_dim=5,
                                speech_dim=6, min_frames=8)
        params = model.ModelParams(cfg, {"a": np.array([1.0, 2.0]),
                                         "b": np.array([3.0])})
        opt = harness.init_opt_state(params)
        harness.adamw_step(params, np.array([1.0, 1.0, 1.0]), opt, lr=0.1,
                           weight_decay=0.5, frozen=2)
        np.testing.assert_array_equal(params["a"], [1.0, 2.0])
        np.testing.assert_array_equal(opt["m"][params.slices["a"]], 0.0)
        assert params["b"][0] != 3.0

    def test_nonfinite_gradient_names_the_parameter(self):
        params = scalar_params()
        opt = harness.init_opt_state(params)
        with pytest.raises(ValueError, match="parameter 'w'"):
            harness.adamw_step(params, np.array([np.nan]), opt, lr=0.1)

    def test_frozen_nonfinite_is_ignored(self):
        cfg = model.ModelConfig(n_channels=2, n_chunks=4, width=4, global_dim=5,
                                speech_dim=6, min_frames=8)
        params = model.ModelParams(cfg, {"a": np.array([1.0]), "b": np.array([1.0])})
        opt = harness.init_opt_state(params)
        harness.adamw_step(params, np.array([np.inf, 0.5]), opt, lr=0.1, frozen=1)

    def test_gradient_length_checked(self):
        params = scalar_params()
        with pytest.raises(ValueError, match="length"):
            harness.adamw_step(params, np.zeros(7), harness.init_opt_state(params),
                               lr=0.1)

    @pytest.mark.parametrize("frozen", [-1, 2])
    def test_frozen_count_in_range(self, frozen):
        """A negative count would update only the tail it counts from the end."""
        params = scalar_params()
        opt = harness.init_opt_state(params)
        with pytest.raises(ValueError, match=f"frozen must be in 0..1, got {frozen}"):
            harness.adamw_step(params, np.zeros(1), opt, lr=0.1, frozen=frozen)
        assert params["w"][0] == 1.0 and opt["step"] == 0

    def test_nonfinite_gradient_names_the_first_bad_live_key(self):
        cfg = model.ModelConfig(n_channels=2, n_chunks=4, width=4, global_dim=5,
                                speech_dim=6, min_frames=8)
        params = model.ModelParams(cfg, {"a": np.ones(2), "b": np.ones(3),
                                         "c": np.ones(1)})
        opt = harness.init_opt_state(params)
        grads = np.array([np.nan, 0.0, 0.0, 0.0, np.inf, np.nan])
        with pytest.raises(ValueError, match="parameter 'b'"):
            harness.adamw_step(params, grads, opt, lr=0.1, frozen=2)
        assert opt["step"] == 0

    def test_whole_vector_matches_per_key_loop(self):
        """Bitwise against the per-tensor loop: random shapes and leading
        frozen runs, nonzero moments everywhere, non-finite gradients on frozen
        entries."""
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        cfg = model.ModelConfig(n_channels=2, n_chunks=4, width=4, global_dim=5,
                                speech_dim=6, min_frames=8)

        @hyp.settings(max_examples=200, deadline=None, database=None)
        @hyp.given(st.lists(st.lists(st.integers(1, 4), max_size=3), min_size=1,
                            max_size=6),
                   st.integers(0, 6), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
        def check(shapes, n_frozen, n_steps, seed):
            rng = np.random.default_rng(seed)
            keys = [f"k{i}" for i in range(len(shapes))]
            frozen = tuple(keys[:n_frozen])
            ref = {k: rng.standard_normal(tuple(s)) for k, s in zip(keys, shapes)}
            ref_m = {k: rng.standard_normal(v.shape) for k, v in ref.items()}
            ref_v = {k: rng.random(v.shape) for k, v in ref.items()}
            params = model.ModelParams(cfg, ref)
            n_entries = sum(params[k].size for k in frozen)

            def pack(d):
                return np.concatenate([d[k].ravel() for k in keys])

            opt = {"m": pack(ref_m), "v": pack(ref_v), "step": 4}
            for step in range(5, 5 + n_steps):
                grads = {k: rng.standard_normal(v.shape) for k, v in ref.items()}
                for k in frozen:
                    grads[k].flat[rng.integers(grads[k].size)] = rng.choice(
                        [np.nan, np.inf, -np.inf])
                lr = float(rng.uniform(1e-4, 1e-1))
                harness.adamw_step(params, pack(grads), opt, lr, weight_decay=0.01,
                                   frozen=n_entries)
                adamw_per_key(ref, grads, ref_m, ref_v, step, lr, weight_decay=0.01,
                              frozen_keys=frozen)
            assert opt["step"] == 4 + n_steps
            for got, want in ((params.vector, ref), (opt["m"], ref_m),
                              (opt["v"], ref_v)):
                assert got.tobytes() == pack(want).tobytes()

        check()


class TestStepsPerEpoch:
    def test_ceiling(self):
        assert harness.steps_per_epoch(23, 5) == 5
        assert harness.steps_per_epoch(20, 5) == 4
        assert harness.steps_per_epoch(1, 5) == 1


class TestInitTrainState:
    def test_mocorank_gets_pool_and_encoder(self):
        cfg = tiny_train_config(loss="mocorank")
        state = harness.init_train_state(cfg, tiny_data())
        assert state.pool is not None and state.pool.full
        assert len(state.pool) == 16
        assert state.enc is not None
        assert state.centers is None
        assert state.pool.embeddings.shape[1] == 8   # fused embedding width

    def test_scalar_baselines_run_lean(self):
        state = harness.init_train_state(tiny_train_config(loss="mse"), tiny_data())
        assert state.pool is None and state.enc is None and state.centers is None

    def test_audio_on_mixed_speech_points_to_two_stage(self):
        data = tiny_data(speech_fraction=0.5)
        cfg = tiny_train_config(loss="mocorank", use_audio=True)
        with pytest.raises(ValueError, match="train-two-stage"):
            harness.init_train_state(cfg, data)

    def test_audio_without_speech_refused(self):
        """Not one record to score through the audio branch: the pool would
        hold visual embeddings and the centers audio-width ones."""
        cfg = tiny_train_config(loss="mocorank+center", use_audio=True)
        with pytest.raises(ValueError, match="0 of 48 have it"):
            harness.init_train_state(cfg, tiny_data())

    def test_center_variant_gets_centers(self):
        cfg = tiny_train_config(loss="mocorank+center")
        state = harness.init_train_state(cfg, tiny_data())
        assert state.centers is not None
        np.testing.assert_array_equal(state.centers.values, np.zeros((4, 8)))


class TestTraining:
    def test_loss_decreases_on_easy_data(self):
        data = tiny_data(n=48)
        cfg = tiny_train_config(loss="mocorank", epochs=10)
        state, history = harness.train(cfg, data)
        assert len(history) == 10
        first = np.mean([row["train_loss"] for row in history[:3]])
        last = np.mean([row["train_loss"] for row in history[-3:]])
        assert last < first

    def test_history_rows_are_complete(self):
        data = tiny_data(n=32)
        val = tiny_data(n=16, seed=9)
        cfg = tiny_train_config(loss="mse", epochs=3)
        _, history = harness.train(cfg, data, val)
        for row in history:
            assert set(row) == {"epoch", "train_loss", "lr", "val_acc",
                                "val_avg_acc"}
        lrs = [row["lr"] for row in history]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))
        assert [row["epoch"] for row in history] == [1, 2, 3]

    @pytest.mark.parametrize("loss", harness.LOSSES)
    def test_every_loss_trains(self, loss):
        data = tiny_data(n=32)
        cfg = tiny_train_config(loss=loss, epochs=2)
        state, history = harness.train(cfg, data)
        assert len(history) == 2
        assert all(np.isfinite(row["train_loss"]) for row in history)

    def test_determinism(self):
        """Same config and seed: identical logs and identical weights."""
        data = tiny_data(n=32)
        cfg = tiny_train_config(loss="mocorank", epochs=4, dropout=0.1, seed=3)
        state_a, hist_a = harness.train(cfg, data)
        state_b, hist_b = harness.train(cfg, data)
        assert hist_a == hist_b
        np.testing.assert_array_equal(state_a.params.vector, state_b.params.vector)
        np.testing.assert_array_equal(state_a.pool.scores, state_b.pool.scores)

    def test_seed_changes_the_run(self):
        data = tiny_data(n=32)
        a = harness.train(tiny_train_config(epochs=2, seed=0), data)[0]
        b = harness.train(tiny_train_config(epochs=2, seed=1), data)[0]
        assert np.any(a.params.vector != b.params.vector)

    def test_pool_holds_exactly_the_last_batches(self):
        """Pool age spread: after an epoch it is the last ceil(P/B) batches."""
        data = tiny_data(n=48)
        cfg = tiny_train_config(loss="mocorank", epochs=2, batch_size=4,
                                pool_size=16, dropout=0.0, seed=5)
        state, _ = harness.train(cfg, data)
        # replay the generator: pool seed first, then one shuffle per epoch
        rng = np.random.default_rng(cfg.seed)
        rng.integers(2 ** 31)
        batches = []
        for _ in range(cfg.epochs):
            batches = fp.sequential_batches(48, 4, rng)
        expect = np.concatenate([data.labels()[idx] for idx in batches[-4:]])
        got = np.array([e.label for e in state.pool.entries()])
        np.testing.assert_array_equal(got, expect)

    @pytest.mark.parametrize("before", [True, False])
    def test_score_before_step(self, monkeypatch, before):
        """The pool's newest entries are the batch as the momentum encoder
        scores it before its update with score_before_step, after without."""
        data = tiny_data(n=8)
        cfg = tiny_train_config(loss="mocorank", epochs=1, dropout=0.1,
                                score_before_step=before)
        state = harness.init_train_state(cfg, data)
        encoders, batches = [], []
        real_update, real_forward = harness.mocorank.momentum_update, model.forward_batch

        def update(enc, params, momentum):
            encoders.append(enc.params.copy())
            real_update(enc, params, momentum)
            encoders.append(enc.params.copy())

        def forward(chunks, gfeat, params, mode="eval", **kw):
            if mode == "train":
                batches.append(model.Batch(chunks, gfeat, kw["speech"], kw["meta"],
                                           kw["has_speech"]))
            return real_forward(chunks, gfeat, params, mode=mode, **kw)

        monkeypatch.setattr(harness.mocorank, "momentum_update", update)
        monkeypatch.setattr(model, "forward_batch", forward)
        harness.train_epochs(state, data)
        assert len(encoders) == 2 and len(batches) == 1
        newest = state.pool.entries()[-len(data):]
        got_scores = np.array([e.score for e in newest])
        got_embeds = np.stack([e.embedding for e in newest])
        used, other = encoders if before else encoders[::-1]
        scores, embeds, _ = model.score_batch(used, batches[0])
        assert got_scores.tobytes() == scores.tobytes()
        assert got_embeds.tobytes() == embeds.tobytes()
        assert np.any(model.score_batch(other, batches[0])[0] != got_scores)

    def test_frozen_keys_stay_bitwise_identical(self):
        data = tiny_data(n=32)
        cfg = tiny_train_config(loss="mse", epochs=3)
        state = harness.init_train_state(cfg, data)
        keys = list(state.params.keys())
        frozen = tuple(keys[:keys.index("tcn.1.conv1.w")])    # all of block 0
        state.frozen = state.params.slices["tcn.1.conv1.w"].start
        before = {k: state.params[k].copy()
                  for k in frozen + ("tcn.1.conv1.w",)}
        harness.train_epochs(state, data)
        for k in frozen:
            np.testing.assert_array_equal(state.params[k], before[k])
        assert np.any(state.params["tcn.1.conv1.w"] != before["tcn.1.conv1.w"])

    def test_resume_matches_straight_run(self):
        data = tiny_data(n=32)
        cfg = tiny_train_config(loss="mocorank", epochs=6)
        straight, _ = harness.train(cfg, data)
        state = harness.init_train_state(cfg, data)
        harness.train_epochs(state, data, n_epochs=2)
        harness.train_epochs(state, data, n_epochs=4)
        np.testing.assert_array_equal(straight.params.vector, state.params.vector)


class TestEvaluate:
    def test_reports_on_held_out_data(self):
        data = tiny_data(n=48)
        test = tiny_data(n=24, seed=4)
        state, _ = harness.train(tiny_train_config(epochs=2), data)
        report = harness.evaluate(state, test)
        assert report.n_samples == 24
        assert 0.0 <= report.acc <= 1.0

    def test_subset_validation(self):
        data = tiny_data(n=16)
        state = harness.init_train_state(tiny_train_config(loss="mse"), data)
        with pytest.raises(ValueError, match="subset"):
            harness.evaluate(state, data, subset="train_only")

    def test_empty_subset_rejected(self):
        data = tiny_data(n=16)   # no speech records
        state = harness.init_train_state(tiny_train_config(loss="mse"), data)
        with pytest.raises(ValueError, match="selected no records"):
            harness.evaluate(state, data, subset="speech_only")

    def test_params_source(self):
        data = tiny_data(n=16)
        params = model.init_params(tiny_train_config().model_config(data))
        report = harness.evaluate(params, data)
        assert report.n_samples == 16


class TestCheckpointing:
    def test_round_trip_resumes_bitwise(self, tmp_path):
        """Save at epoch 2, keep training; the reload must follow identically."""
        data = tiny_data(n=32)
        cfg = tiny_train_config(loss="mocorank+center", epochs=5, dropout=0.1)
        state = harness.init_train_state(cfg, data)
        harness.train_epochs(state, data, n_epochs=2)
        path = tmp_path / "ckpt.npz"
        harness.save_checkpoint(state, str(path))

        harness.train_epochs(state, data, n_epochs=3)
        resumed = harness.load_checkpoint(str(path))
        harness.train_epochs(resumed, data, n_epochs=3)

        np.testing.assert_array_equal(state.params.vector, resumed.params.vector)
        np.testing.assert_array_equal(state.opt["m"], resumed.opt["m"])
        np.testing.assert_array_equal(state.opt["v"], resumed.opt["v"])
        np.testing.assert_array_equal(state.pool.scores, resumed.pool.scores)
        np.testing.assert_array_equal(state.pool.embeddings,
                                      resumed.pool.embeddings)
        np.testing.assert_array_equal(state.centers.values, resumed.centers.values)
        np.testing.assert_array_equal(state.enc.params.vector,
                                      resumed.enc.params.vector)

    def test_restores_exact_fields(self, tmp_path):
        data = tiny_data(n=32)
        cfg = tiny_train_config(loss="mocorank", epochs=3)
        state = harness.init_train_state(cfg, data)
        harness.train_epochs(state, data, n_epochs=1)
        path = tmp_path / "ckpt.npz"
        harness.save_checkpoint(state, str(path))
        loaded = harness.load_checkpoint(str(path))
        assert loaded.config == cfg
        assert loaded.epoch == 1
        assert loaded.opt["step"] == state.opt["step"]
        assert loaded.rng.bit_generator.state == state.rng.bit_generator.state

    def test_failed_save_keeps_earlier_checkpoint(self, tmp_path, monkeypatch):
        data = tiny_data(n=32)
        state = harness.init_train_state(tiny_train_config(loss="mocorank"), data)
        path = tmp_path / "ckpt.npz"
        harness.save_checkpoint(state, str(path))
        before = path.read_bytes()
        saved_params = state.params.vector.copy()
        harness.train_epochs(state, data, n_epochs=1)

        def cut_off(fh, **arrays):
            fh.write(b"PK\x03\x04\x14\x00\x00")
            raise OSError("disk full")

        monkeypatch.setattr(harness.np, "savez", cut_off)
        with pytest.raises(OSError, match="disk full"):
            harness.save_checkpoint(state, str(path))
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.npz"]
        loaded = harness.load_checkpoint(str(path))
        assert loaded.epoch == 0
        np.testing.assert_array_equal(loaded.params.vector, saved_params)

    def test_stored_rates_are_ignored(self, tmp_path):
        """The encoder momentum comes from the config and the center rate is
        the default, so the stored copies older files carry change nothing."""
        self._edit_changes_nothing(tmp_path, lambda meta: meta.update(
            enc_momentum=7.0, centers_alpha=-3.0))

    def test_widths_in_older_configs_are_ignored(self, tmp_path):
        """Older files also store the input widths in config; the model takes
        them from model_config, whatever config holds."""
        self._edit_changes_nothing(tmp_path, lambda meta: meta["config"].update(
            n_channels=3, global_dim=4, speech_dim=7))

    @staticmethod
    def _edit_changes_nothing(tmp_path, edit):
        """A checkpoint whose meta ``edit`` changed loads and trains on bit
        for bit like the file as saved."""
        data = tiny_data(n=32)
        cfg = tiny_train_config(loss="mocorank+center", epochs=3, dropout=0.1)
        state = harness.init_train_state(cfg, data)
        harness.train_epochs(state, data, n_epochs=1)
        path = tmp_path / "ckpt.npz"
        harness.save_checkpoint(state, str(path))
        with np.load(path, allow_pickle=False) as saved:
            meta = json.loads(str(saved["meta"][()]))
            arrays = {k: saved[k] for k in saved.files if k != "meta"}
        edit(meta)
        edited = tmp_path / "edited.npz"
        with open(edited, "wb") as fh:
            np.savez(fh, meta=json.dumps(meta), **arrays)

        runs = [harness.load_checkpoint(str(p)) for p in (path, edited)]
        for run in runs:
            harness.train_epochs(run, data, n_epochs=2)
        plain, other = runs
        assert plain.config == other.config
        assert plain.params.vector.tobytes() == other.params.vector.tobytes()
        assert plain.enc.params.vector.tobytes() == other.enc.params.vector.tobytes()
        assert plain.centers.values.tobytes() == other.centers.values.tobytes()
        assert plain.pool.embeddings.tobytes() == other.pool.embeddings.tobytes()

    def test_corrupt_pool_names_path_and_field(self, tmp_path):
        data = tiny_data(n=32)
        state = harness.init_train_state(tiny_train_config(loss="mocorank"), data)
        state.pool._count = 99
        path = tmp_path / "ckpt.npz"
        harness.save_checkpoint(state, str(path))
        with pytest.raises(ValueError, match="'count'") as err:
            harness.load_checkpoint(str(path))
        assert "ckpt.npz" in str(err.value)

    @staticmethod
    def _edited_checkpoint(tmp_path, meta_edits=None, array_edits=None, drop=(),
                           loss="mocorank"):
        """Save a fresh state of the given loss, then rewrite fields of the
        file; ``drop`` names meta keys and arrays to delete."""
        state = harness.init_train_state(tiny_train_config(loss=loss),
                                         tiny_data(n=32))
        path = tmp_path / "ckpt.npz"
        harness.save_checkpoint(state, str(path))
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"][()]))
            arrays = {k: data[k] for k in data.files if k != "meta"}
        meta.update(meta_edits or {})
        arrays.update(array_edits or {})
        for name in drop:
            meta.pop(name, None)
            arrays.pop(name, None)
        with open(path, "wb") as fh:
            np.savez(fh, meta=json.dumps(meta), **arrays)
        return path

    def test_unknown_frozen_key_names_path_and_field(self, tmp_path):
        path = self._edited_checkpoint(
            tmp_path, meta_edits={"frozen_keys": ["tcn.0.conv1.w", "tcn.9.conv1.w"]})
        with pytest.raises(ValueError, match="'frozen_keys'.*'tcn.9.conv1.w'") as err:
            harness.load_checkpoint(str(path))
        assert "ckpt.npz" in str(err.value)

    @pytest.mark.parametrize("name", ["opt__m", "opt__v"])
    def test_moment_length_names_path_and_field(self, tmp_path, name):
        path = self._edited_checkpoint(tmp_path, array_edits={name: np.zeros(3)})
        with pytest.raises(ValueError, match=f"'{name}': shape .*, but config "
                                             f"gives") as err:
            harness.load_checkpoint(str(path))
        assert "ckpt.npz" in str(err.value)

    @pytest.mark.parametrize("step", [-1, 2.5, "3", True, None])
    def test_opt_step_names_path_and_field(self, tmp_path, step):
        path = self._edited_checkpoint(tmp_path, meta_edits={"opt_step": step})
        with pytest.raises(ValueError, match="'opt_step'.*integer") as err:
            harness.load_checkpoint(str(path))
        assert "ckpt.npz" in str(err.value)

    def _saved(self, tmp_path, field):
        """A field of a freshly saved pool-loss checkpoint."""
        with np.load(self._edited_checkpoint(tmp_path), allow_pickle=False) as data:
            if field in data.files:
                return data[field]
            return json.loads(str(data["meta"][()]))[field]

    @staticmethod
    def _refused(path, field, problem=""):
        with pytest.raises(ValueError, match=f"field '{field}': {problem}") as err:
            harness.load_checkpoint(str(path))
        assert f"corrupt checkpoint '{path}'" in str(err.value)

    def test_params_against_model_config(self, tmp_path):
        """A model_config wider than its params and its config is refused,
        not trained: the config builds the model, and the stored
        model_config must agree with it."""
        mcfg = self._saved(tmp_path, "model_config")
        path = self._edited_checkpoint(tmp_path, meta_edits={
            "model_config": dict(mcfg, width=mcfg["width"] + 1)})
        self._refused(path, "model_config", "width is 5, but config gives 4")

    @pytest.mark.parametrize("key", harness.WIDTHS)
    @pytest.mark.parametrize("value", [0, 2.5, "2", True])
    def test_width_is_an_integer_at_least_one(self, tmp_path, key, value):
        """The input widths come from model_config, so it is checked there."""
        mcfg = self._saved(tmp_path, "model_config")
        path = self._edited_checkpoint(
            tmp_path, meta_edits={"model_config": dict(mcfg, **{key: value})})
        self._refused(path, f"model_config.{key}",
                      re.escape(f"{value!r} is not an integer >= 1"))

    def test_param_shape_against_config(self, tmp_path):
        path = self._edited_checkpoint(
            tmp_path, array_edits={"param__head.w": np.zeros(3)})
        self._refused(path, "param__head.w", "shape .*, but config gives")

    def test_momentum_params_against_model_config(self, tmp_path):
        path = self._edited_checkpoint(
            tmp_path, array_edits={"momentum__head.w": np.zeros(3)})
        self._refused(path, "momentum__head.w", "shape")

    def test_missing_model_config_key(self, tmp_path):
        mcfg = self._saved(tmp_path, "model_config")
        del mcfg["min_frames"]
        path = self._edited_checkpoint(tmp_path, meta_edits={"model_config": mcfg})
        self._refused(path, "model_config.min_frames", "missing")

    @pytest.mark.parametrize("name,value", [
        ("param__head.w", np.inf), ("momentum__head.w", np.inf),
        ("momentum__tcn.1.conv2.b", np.nan), ("opt__m", -np.inf), ("opt__v", np.nan)])
    def test_non_finite_array(self, tmp_path, name, value):
        array = self._saved(tmp_path, name).copy()
        array.flat[-1] = value
        path = self._edited_checkpoint(tmp_path, array_edits={name: array})
        self._refused(path, name, "non-finite")

    def test_negative_second_moment(self, tmp_path):
        v = self._saved(tmp_path, "opt__v").copy()
        v[0] = -1e-12
        path = self._edited_checkpoint(tmp_path, array_edits={"opt__v": v})
        self._refused(path, "opt__v", "negative")

    @pytest.mark.parametrize("name", ["param__head.w", "momentum__tcn.1.conv2.b",
                                      "opt__v", "pool__scores", "centers__values"])
    def test_missing_array(self, tmp_path, name):
        path = self._edited_checkpoint(tmp_path, drop=[name], loss="mocorank+center")
        self._refused(path, name, "missing")

    @pytest.mark.parametrize("name", ["config", "epoch", "rng_state", "has_pool", "pool"])
    def test_missing_meta_key(self, tmp_path, name):
        path = self._edited_checkpoint(tmp_path, drop=[name], loss="mocorank+center")
        self._refused(path, name, "missing")

    def test_missing_pool_meta_key(self, tmp_path):
        pool = self._saved(tmp_path, "pool")
        del pool["next"]
        path = self._edited_checkpoint(tmp_path, meta_edits={"pool": pool})
        self._refused(path, "pool.next", "missing")

    def test_pool_capacity_against_config(self, tmp_path):
        """A ring that is consistent in itself but holds another number of
        entries than config.pool_size is refused, not resumed."""
        pool = self._saved(tmp_path, "pool")
        assert pool["count"] == pool["capacity"] == 16
        doubled = {f"pool__{k}": np.concatenate([self._saved(tmp_path, f"pool__{k}")] * 2)
                   for k in ("labels", "scores", "embeddings")}
        path = self._edited_checkpoint(
            tmp_path, meta_edits={"pool": dict(pool, capacity=32, count=32, next=0)},
            array_edits=doubled)
        self._refused(path, "pool.capacity", "32, but config gives pool_size 16")

    def test_strict_pad_off_in_older_files_loads(self, tmp_path):
        """Files from before strict padding was removed record it as false."""
        path = self._edited_checkpoint(tmp_path)
        plain = harness.load_checkpoint(str(path))
        mcfg = self._saved(tmp_path, "model_config")
        path = self._edited_checkpoint(
            tmp_path, meta_edits={"model_config": dict(mcfg, strict_pad=False)})
        loaded = harness.load_checkpoint(str(path))
        assert loaded.params.config == plain.params.config
        assert loaded.params.vector.tobytes() == plain.params.vector.tobytes()

    def test_strict_pad_on_refused(self, tmp_path):
        mcfg = self._saved(tmp_path, "model_config")
        path = self._edited_checkpoint(
            tmp_path, meta_edits={"model_config": dict(mcfg, strict_pad=True)})
        self._refused(path, "model_config", "strict_pad")

    def test_pool_embedding_width(self, tmp_path):
        """A pool of another width would fail inside the loss's matmul."""
        emb = self._saved(tmp_path, "pool__embeddings")
        path = self._edited_checkpoint(
            tmp_path, array_edits={"pool__embeddings": emb[:, 1:]})
        self._refused(path, "pool__embeddings",
                      re.escape(f"shape {emb[:, 1:].shape}, but config gives {emb.shape}"))

    @pytest.mark.parametrize("dtype", [np.float32, np.int64])
    def test_every_float_array_must_be_float64(self, tmp_path, dtype):
        """Each stored float array of a center-loss checkpoint, saved as
        another dtype, is refused naming the path and the field: int64 AdamW
        moments would fail only at the first step, float32 ones train on in
        float32."""
        path = self._edited_checkpoint(tmp_path, loss="mocorank+center")
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"][()]))
            arrays = {k: data[k] for k in data.files if k != "meta"}
        names = [n for n in arrays if n != "pool__labels"]
        assert {n.split("__")[0] for n in names} == {"param", "momentum", "opt",
                                                      "centers", "pool"}
        assert len(names) == 2 * len(meta["param_keys"]) + 5
        edited = tmp_path / "edited.npz"
        for name in names:
            with open(edited, "wb") as fh:
                np.savez(fh, meta=json.dumps(meta),
                         **dict(arrays, **{name: arrays[name].astype(dtype)}))
            self._refused(edited, name, f"dtype {np.dtype(dtype)}, but checkpoints "
                                        f"store float64")

    def test_centers_shape(self, tmp_path):
        path = self._edited_checkpoint(tmp_path, loss="mocorank+center",
                                       array_edits={"centers__values": np.zeros((4, 3))})
        self._refused(path, "centers__values", "shape")

    @pytest.mark.parametrize("epoch", [-1, 1.5, "2", None])
    def test_epoch(self, tmp_path, epoch):
        path = self._edited_checkpoint(tmp_path, meta_edits={"epoch": epoch})
        self._refused(path, "epoch", ".*integer")

    @pytest.mark.parametrize("rng_state", [
        5, {"bit_generator": "MT19937"}, {"bit_generator": "PCG64"},
        {"bit_generator": "PCG64", "state": {"state": -1, "inc": 1},
         "has_uint32": 0, "uinteger": 0}])
    def test_rng_state(self, tmp_path, rng_state):
        path = self._edited_checkpoint(tmp_path, meta_edits={"rng_state": rng_state})
        self._refused(path, "rng_state", "not a PCG64 state")

    @pytest.mark.parametrize("config", [{"bogus": 1}, {"loss": "hinge"},
                                        {"momentum": 1.5}, 7, {"seed": "abc"},
                                        {"epochs": 4.5}, {"detach_margin": "false"},
                                        {"cb_gamma": math.nan}])
    def test_config(self, tmp_path, config):
        """An unknown field, an invalid value, no mapping at all, a value of
        another type than the field's, or a NaN, which Python's json reads."""
        base = self._saved(tmp_path, "config")
        edited = dict(base, **config) if isinstance(config, dict) else config
        path = self._edited_checkpoint(tmp_path, meta_edits={"config": edited})
        self._refused(path, "config")

    @pytest.mark.parametrize("edit", [{"fusion": "late"}, {"bogus": 1}, {"width": -2}])
    def test_model_config(self, tmp_path, edit):
        base = self._saved(tmp_path, "model_config")
        path = self._edited_checkpoint(tmp_path,
                                       meta_edits={"model_config": dict(base, **edit)})
        self._refused(path, "model_config")

    @pytest.mark.parametrize("edit, key", [
        ({"width": 8}, "width"), ({"ablation": "concat_only"}, "fusion"),
        ({"use_audio": True}, "with_audio"), ({"dropout": 0.3}, "dropout")])
    def test_config_against_model_config(self, tmp_path, edit, key):
        """A config that builds another model than the one saved is refused,
        naming the first model_config key that differs."""
        config = dict(self._saved(tmp_path, "config"), loss="mse", **edit)
        path = self._edited_checkpoint(tmp_path, meta_edits={"config": config}, loss="mse")
        self._refused(path, "model_config", f"{key} is .*, but config gives")

    @pytest.mark.parametrize("loss, name, value", [
        ("mocorank", "has_enc", False), ("mocorank", "has_pool", False),
        ("mocorank", "has_centers", True), ("mocorank+center", "has_centers", False),
        ("mse", "has_enc", True), ("mse", "has_pool", True), ("mse", "has_centers", True)])
    def test_state_flags_against_loss(self, tmp_path, loss, name, value):
        """A flag that disagrees with what the loss uses is refused on load,
        instead of failing later inside training."""
        path = self._edited_checkpoint(tmp_path, meta_edits={name: value}, loss=loss)
        self._refused(path, name, re.escape(f"{value}, but loss '{loss}' gives {not value}"))

    @pytest.mark.parametrize("name, value", [
        ("frozen_keys", 5), ("frozen_keys", "tcn.0.conv1.w"), ("frozen_keys", [["a"]]),
        ("model_config", 7), ("model_config", ["width"]), ("pool", 5)])
    def test_wrong_json_type(self, tmp_path, name, value):
        """A string of frozen keys is not read one character at a time."""
        path = self._edited_checkpoint(tmp_path, meta_edits={name: value})
        self._refused(path, name, ".* is not a JSON")

    @pytest.mark.parametrize("frozen_keys", [["tcn.0.conv1.b"],
                                             ["tcn.0.conv1.b", "tcn.0.conv1.w"]])
    def test_frozen_keys_must_lead(self, tmp_path, frozen_keys):
        """Only a leading run of the model's tensors, in order, can be frozen."""
        path = self._edited_checkpoint(tmp_path, meta_edits={"frozen_keys": frozen_keys})
        self._refused(path, "frozen_keys", re.escape(f"{frozen_keys!r} is not a JSON "
                                                     f"array of a leading run"))

    def test_meta_not_an_object(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        with open(path, "wb") as fh:
            np.savez(fh, meta=json.dumps([1]))
        with pytest.raises(ValueError, match="corrupt checkpoint.*not a JSON object"):
            harness.load_checkpoint(str(path))

    def test_valid_frozen_keys_still_load(self, tmp_path):
        path = self._edited_checkpoint(
            tmp_path, meta_edits={"frozen_keys": ["tcn.0.conv1.w"], "opt_step": 0})
        loaded = harness.load_checkpoint(str(path))
        assert loaded.frozen == loaded.params.slices["tcn.0.conv1.w"].stop
        assert loaded.opt["step"] == 0

    def test_future_version_refused(self, tmp_path):
        path = tmp_path / "future.npz"
        with open(path, "wb") as fh:
            np.savez(fh, meta=json.dumps({"version": "2"}))
        with pytest.raises(ValueError, match="unsupported checkpoint version"):
            harness.load_checkpoint(str(path))

    def test_empty_file_is_corrupt(self, tmp_path):
        path = tmp_path / "empty.npz"
        path.write_bytes(b"")
        with pytest.raises(ValueError, match="corrupt checkpoint .*empty.npz.*0-byte"):
            harness.load_checkpoint(str(path))

    @pytest.mark.parametrize("name", ["absent.npz", "."])
    def test_missing_path_or_directory_is_an_os_error(self, tmp_path, name):
        """A path that holds no file is no corrupt checkpoint: the OSError
        that names it goes to the caller."""
        path = str(tmp_path / name)
        with pytest.raises(OSError, match=re.escape(path)):
            harness.load_checkpoint(path)

    def test_corrupt_file_reports_path_and_size(self, tmp_path):
        path = tmp_path / "broken.npz"
        path.write_bytes(b"this is not a checkpoint")
        with pytest.raises(ValueError, match="corrupt checkpoint") as err:
            harness.load_checkpoint(str(path))
        assert "broken.npz" in str(err.value)
        assert "24-byte" in str(err.value)

    def test_layout_readable_without_the_package(self, tmp_path):
        """The benchmark reads checkpoints with a plain np.load: meta's
        param_keys and one param__<key> array per key rebuild the params."""
        cfg = tiny_train_config(loss="mocorank+center", epochs=1)
        state, _ = harness.train(cfg, tiny_data(n=32))
        path = tmp_path / "ckpt.npz"
        harness.save_checkpoint(state, str(path))
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"][()]))
            assert meta["version"] == harness.CHECKPOINT_VERSION
            assert meta["param_keys"] == list(state.params.keys())
            assert sorted(k for k in data.files if k.startswith("param__")) == \
                sorted(f"param__{k}" for k in meta["param_keys"])
            arrays = {k: data[f"param__{k}"] for k in meta["param_keys"]}
        mcfg = dict(meta["model_config"],
                    dilations=tuple(meta["model_config"]["dilations"]))
        rebuilt = model.ModelParams(model.ModelConfig(**mcfg), arrays)
        assert rebuilt.config == state.params.config
        assert rebuilt.layout == state.params.layout
        assert rebuilt.vector.tobytes() == state.params.vector.tobytes()

    def test_init_from_transplants_weights(self, tmp_path):
        data = tiny_data(n=32)
        cfg = tiny_train_config(loss="mse", epochs=2)
        state, _ = harness.train(cfg, data)
        path = tmp_path / "donor.npz"
        harness.save_checkpoint(state, str(path))
        fresh = harness.init_train_state(replace_cfg(cfg, init_from=str(path)), data)
        np.testing.assert_array_equal(fresh.params.vector, state.params.vector)

    def test_init_from_shape_mismatch(self, tmp_path):
        data = tiny_data(n=32)
        state, _ = harness.train(tiny_train_config(loss="mse", epochs=1), data)
        path = tmp_path / "donor.npz"
        harness.save_checkpoint(state, str(path))
        bad = tiny_train_config(loss="mse", width=8, init_from=str(path))
        with pytest.raises(ValueError, match="does not match"):
            harness.init_train_state(bad, data)


def replace_cfg(cfg, **kw):
    from dataclasses import replace
    return replace(cfg, **kw)


class TestTwoStage:
    def test_stages_tag_history_and_freeze_visuals(self):
        data = tiny_data(n=40, speech_fraction=0.5)
        cfg = tiny_train_config(loss="mocorank", epochs=3, stage2_epochs=2)
        state, history = harness.train_two_stage(cfg, data)
        stages = [row["stage"] for row in history]
        assert stages == [1, 1, 1, 2, 2]
        assert state.frozen == state.params.slices["audio.fc.w"].start
        assert state.config.use_audio
        # pool rebuilt at the multimodal embedding width
        assert state.pool.embeddings.shape[1] == 8 + 6 + 7

    def test_stage_two_pool_scores_each_speech_record_once(self, monkeypatch):
        """Stage 2 fills its pool from the speech subset through the audio
        branch, with each distinct picked record once among the real rows it
        forwards; the fill equals one scoring of every slot bit for bit."""
        data = tiny_data(n=40, speech_fraction=0.5)
        cfg = tiny_train_config(loss="mocorank", epochs=1, stage2_epochs=1,
                                pool_size=32)
        fills = []
        real_init, real_forward = mocorank.pool_init, model.forward_batch

        def pool_init(dataset, enc, capacity, seed):
            oracle = pool_fill_all_rows(
                dataset.labels(), dataset.records, capacity, seed,
                lambda records: model.score_batch(
                    enc.params, model.prepare_batch(records, enc.params.config))[:2])
            forwarded = []
            monkeypatch.setattr(model, "forward_batch", lambda chunks, gfeat, *a, **kw: (
                forwarded.append(gfeat.copy()) or real_forward(chunks, gfeat, *a, **kw)))
            pool = real_init(dataset, enc, capacity, seed)
            monkeypatch.setattr(model, "forward_batch", real_forward)
            fills.append((dataset, enc.params.config, forwarded, oracle, pool.state()))
            return pool

        monkeypatch.setattr(mocorank, "pool_init", pool_init)
        harness.train_two_stage(cfg, data)
        assert len(fills) == 2
        dataset, model_config, forwarded, oracle, ring = fills[1]
        assert model_config.with_audio
        assert [r.id for r in dataset.records] == [r.id for r in data.records
                                                   if r.has_speech]
        slot_records, labels, scores, embeddings = oracle
        distinct = list({id(r): r for r in slot_records}.values())
        assert len(distinct) < cfg.pool_size
        assert [len(g) for g in forwarded] == [model.TILE_ROWS] * -(-len(distinct)
                                                                    // model.TILE_ROWS)
        real_rows = np.concatenate(forwarded)[:len(distinct)]
        assert sorted(g.tobytes() for g in real_rows) == \
            sorted(r.global_feature.tobytes() for r in distinct)
        assert ring["labels"].tobytes() == labels.astype(np.int64).tobytes()
        assert ring["scores"].tobytes() == scores.tobytes()
        assert ring["embeddings"].tobytes() == embeddings.tobytes()

    def test_stage_two_resumes_bitwise(self, tmp_path):
        """A saved stage-2 state reloads with its visual slice frozen, and one
        more epoch runs alike from the original and the reloaded state,
        leaving the visual slice at its stage-1 bytes."""
        data = tiny_data(n=40, speech_fraction=0.5)
        cfg = tiny_train_config(loss="mocorank+center", epochs=2, stage2_epochs=2,
                                dropout=0.1)
        state, _ = harness.train_two_stage(cfg, data)
        path = tmp_path / "ckpt.npz"
        harness.save_checkpoint(state, str(path))
        loaded = harness.load_checkpoint(str(path))
        assert loaded.frozen == loaded.params.slices["audio.fc.w"].start
        speech_set = fp.Dataset([r for r in data.records if r.has_speech])
        for s in (state, loaded):
            s.config = replace_cfg(s.config, epochs=s.config.epochs + 1)
            harness.train_epochs(s, speech_set)
        pairs = [(state.params.vector, loaded.params.vector),
                 (state.opt["m"], loaded.opt["m"]), (state.opt["v"], loaded.opt["v"]),
                 (state.centers.values, loaded.centers.values)]
        pairs += [(a, loaded.pool.state()[k]) for k, a in state.pool.state().items()]
        for a, b in pairs:
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
        stage1, _ = harness.train(replace_cfg(cfg, use_audio=False), data)
        assert loaded.params.vector[:loaded.frozen].tobytes() == \
            stage1.params.vector.tobytes()

    def test_requires_speech_records(self):
        with pytest.raises(ValueError, match="no speech records"):
            harness.train_two_stage(tiny_train_config(), tiny_data(n=16))

    def test_audio_params_actually_move(self):
        data = tiny_data(n=40, speech_fraction=0.5)
        cfg = tiny_train_config(loss="mocorank", epochs=2, stage2_epochs=2)
        state, _ = harness.train_two_stage(cfg, data)
        init = model.init_params(replace_cfg(cfg, use_audio=True).model_config(data),
                                 seed=cfg.seed)
        moved = [k for k in state.params.keys()
                 if k.startswith("audio.") and np.any(state.params[k] != init[k])]
        assert "audio.fc.w" in moved and "audio.head.w" in moved

    def test_stage_one_is_a_plain_visual_run(self):
        """The visual prefix of the end state, and the stage-1 history, are
        those of train() without audio, bit for bit."""
        data, val = tiny_data(n=40, speech_fraction=0.5), tiny_data(n=16, seed=3,
                                                                    speech_fraction=0.5)
        cfg = tiny_train_config(loss="mocorank+center", epochs=3, stage2_epochs=2,
                                dropout=0.1, seed=4)
        state, history = harness.train_two_stage(cfg, data, val)
        plain, plain_history = harness.train(replace_cfg(cfg, use_audio=False), data, val)
        prefix = state.params.vector[:plain.params.n_params]
        assert prefix.tobytes() == plain.params.vector.tobytes()
        assert state.params.layout[:len(plain.params.layout)] == plain.params.layout
        assert [dict(row, stage=1) for row in plain_history] == history[:3]

    @pytest.mark.parametrize("subset", ["all", "speech_only"])
    def test_state_and_params_evaluate_alike(self, subset):
        """The params decide the audio branch, so a state and its params give
        one report."""
        data = tiny_data(n=40, speech_fraction=0.5)
        test = tiny_data(n=40, seed=2, speech_fraction=0.5)
        cfg = tiny_train_config(loss="mocorank", epochs=2, stage2_epochs=2)
        state, _ = harness.train_two_stage(cfg, data)
        by_state = harness.evaluate(state, test, subset=subset)
        by_params = harness.evaluate(state.params, test, subset=subset)
        np.testing.assert_array_equal(by_state.confusion, by_params.confusion)
        assert by_state.to_json() == by_params.to_json()

    def test_init_from_visual_donor(self, tmp_path, monkeypatch):
        """Stage 1 starts from the donor's vector, bit for bit."""
        data = tiny_data(n=40, speech_fraction=0.5)
        cfg = tiny_train_config(loss="mocorank", epochs=2, stage2_epochs=1)
        donor, _ = harness.train(replace_cfg(cfg, seed=9), data)
        path = tmp_path / "donor.npz"
        harness.save_checkpoint(donor, str(path))
        starts = []
        real = harness.train_epochs
        monkeypatch.setattr(harness, "train_epochs", lambda state, *a, **kw: (
            starts.append(state.params.vector.copy()) or real(state, *a, **kw)))
        harness.train_two_stage(replace_cfg(cfg, init_from=str(path)), data)
        assert len(starts) == 2
        assert starts[0].tobytes() == donor.params.vector.tobytes()

    def test_init_from_multimodal_donor_refused(self, tmp_path):
        data = tiny_data(n=40, speech_fraction=0.5)
        cfg = tiny_train_config(loss="mocorank", epochs=1, stage2_epochs=1)
        donor, _ = harness.train_two_stage(cfg, data)
        path = tmp_path / "donor.npz"
        harness.save_checkpoint(donor, str(path))
        with pytest.raises(ValueError, match="does not match the model shape") as err:
            harness.train_two_stage(replace_cfg(cfg, init_from=str(path)), data)
        assert f"init_from checkpoint '{path}'" in str(err.value)


class TestBenchLosses:
    def test_rows_and_summary(self):
        data = tiny_data(n=32)
        test = tiny_data(n=16, seed=2)
        base = tiny_train_config(epochs=2)
        out = harness.bench_losses(base, {"rank": {"loss": "mocorank"},
                                          "plain": {"loss": "mse"}},
                                   seeds=[0, 1], train_set=data, val_set=None,
                                   test_set=test)
        assert len(out["rows"]) == 4
        assert set(out["summary"]) == {"rank", "plain"}
        for agg in out["summary"].values():
            assert agg["n_seeds"] == 2
            assert 0.0 <= agg["mean_avg_acc"] <= 1.0
