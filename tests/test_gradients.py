"""Finite-difference validation of the hand-written backward pass.

Each loss drives the full small network so every layer's gradient is
exercised end to end; the kink guard discards coordinates whose central
difference straddles a ReLU or hinge boundary.
"""
import inspect
from dataclasses import replace

import numpy as np
import pytest

from engagerank import harness, mocorank, model


VISUAL_LOSSES = list(harness.LOSSES)
AUDIO_LOSSES = [l for l in harness.LOSSES if l not in harness.CATEGORICAL_LOSSES]


def tiny_params(**overrides):
    """Parameters of the tiny preset on the grad-check data."""
    cfg = harness.TrainConfig.tiny(**overrides)
    return model.init_params(cfg.model_config(harness._tiny_dataset(cfg)))


class TestTinyPreset:
    def test_parameter_counts(self):
        """The check model stays under the 1000-parameter cap in every shape."""
        assert tiny_params().n_params == 460
        assert tiny_params(loss="ce").n_params == 488
        assert tiny_params(use_audio=True).n_params == 523

    def test_cap_is_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            harness.grad_check_loss(harness.TrainConfig.tiny(), n_params_max=100)


class TestVisualGradients:
    @pytest.mark.parametrize("loss", VISUAL_LOSSES)
    def test_loss_through_full_model(self, loss):
        cfg = harness.TrainConfig.tiny(loss=loss, sampler=None)
        result = harness.grad_check_loss(cfg)
        assert result["passed"], result
        assert result["max_rel_err"] < 1e-4
        # the guard should only ever discard a handful of coordinates
        assert result["n_skipped"] < 0.05 * result["n_params"]


class TestAudioGradients:
    @pytest.mark.parametrize("loss", AUDIO_LOSSES)
    def test_loss_through_audio_branch(self, loss):
        cfg = harness.TrainConfig.tiny(loss=loss, use_audio=True, sampler=None)
        result = harness.grad_check_loss(cfg)
        assert result["passed"], result
        assert result["max_rel_err"] < 1e-4


class TestGradCheckDriver:
    def test_audio_run_skips_categorical_losses(self):
        report = harness.grad_check(harness.TrainConfig.tiny(use_audio=True))
        assert set(report["losses"]) == set(AUDIO_LOSSES)
        assert report["passed"]

    def test_defaults_come_from_grad_check_loss(self):
        """grad_check restates no default: the tolerance it reports, and
        checks with, is grad_check_loss's unless given, and both settings
        reach grad_check_loss."""
        default = inspect.signature(harness.grad_check_loss).parameters["tolerance"].default
        report = harness.grad_check(losses=["mse"])
        assert report["tolerance"] == default
        assert report["passed"] == (report["losses"]["mse"]["max_rel_err"] < default)
        strict = harness.grad_check(losses=["mse"], tolerance=0.0)
        assert strict["tolerance"] == 0.0 and not strict["passed"]
        with pytest.raises(ValueError, match="over the 100 cap"):
            harness.grad_check(losses=["mse"], n_params_max=100)

    def test_block_errors_cover_every_tensor(self):
        result = harness.grad_check_loss(harness.TrainConfig.tiny(loss="mse"))
        assert set(result["blocks"]) == set(tiny_params(loss="mse").keys())
        assert max(result["blocks"].values()) == result["max_rel_err"]

    def test_deterministic(self):
        cfg = harness.TrainConfig.tiny(loss="mocorank")
        a = harness.grad_check_loss(cfg)
        b = harness.grad_check_loss(cfg)
        assert a["max_rel_err"] == b["max_rel_err"]
        assert a["n_skipped"] == b["n_skipped"]


class TestKinkSignature:
    """grad_check_loss skips a coordinate when the pool loss's kink signature
    moves, so the signature must move whenever a kink is crossed."""

    @staticmethod
    def signature(score):
        pool = mocorank.ScorePool(4).push(
            [0, 2, 2, 3], [-0.5, 0.1, 0.5, 0.9],
            [[0.0, 1.0], [1.0, 1.0], [1.0, -1.0], [1.0, 0.0]])
        # row 0 (label 2, embedding orthogonal to the label-0 entry) has the
        # cross-label residual 0.75 - (s + 0.5) = 0.25 - s against it
        scores = np.array([score, -0.8])
        embeddings = np.array([[1.0, 0.0], [0.3, 0.4]])
        return np.concatenate(harness._margin_kinks(scores, [2, 0], embeddings, pool))

    def test_still_when_no_kink_is_crossed(self):
        np.testing.assert_array_equal(self.signature(0.24), self.signature(0.245))

    def test_moves_when_a_cross_label_hinge_crosses_zero(self):
        # 0.25 - s goes from 0.01 to -0.01; same-label entries stay at 0.1 < s < 0.5
        assert not np.array_equal(self.signature(0.24), self.signature(0.26))

    def test_moves_when_a_same_label_difference_changes_sign(self):
        # s - 0.1 goes from -0.01 to 0.01; the hinge 0.25 - s stays live
        assert not np.array_equal(self.signature(0.09), self.signature(0.11))
