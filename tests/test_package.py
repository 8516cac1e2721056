"""The names ``engagerank`` exports, pinned so an API change shows in a diff."""

import dataclasses
import types

import engagerank

EXPORTS = """
    AUDIO_META_DIM DEFAULT_CHANNELS DEFAULT_CHUNKS DEFAULT_GLOBAL_DIM
    DEFAULT_MIN_FRAMES N_CLASSES REFERENCE_PROPORTIONS SPEECH_DIM Dataset
    EngagementLevel FrameSequence SampleRecord apportion chunk_summarize_batch
    class_balanced_sampler latent_band load_records repeat_pad save_records
    sequential_batches split_dataset synth_dataset
    TrainConfig TrainState adamw_step bench_losses cosine_lr evaluate grad_check
    grad_check_loss init_train_state load_checkpoint save_checkpoint train
    train_epochs train_two_stage
    MetricsReport RatingMatrix accuracy_metrics confusion_matrix icc_2_1
    write_recall_csv
    ClassCenters MomentumEncoder ScorePool ScorePoolEntry cb_focal_loss ce_loss
    center_loss momentum_update mse_loss multi_margin_loss pool_init
    Batch ModelConfig ModelParams Trace backward classify forward_batch
    init_params prepare_batch score_batch
""".split()


def test_exported_names_are_pinned():
    public = {name for name, value in vars(engagerank).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(public) == sorted(EXPORTS)


TRAIN_CONFIG_FIELDS = """
    loss batch_size pool_size epochs lr_start lr_end weight_decay momentum
    sampler use_audio ablation seed train_path val_path center_weight cb_beta
    cb_gamma detach_margin score_before_step stage2_epochs init_from width
    n_chunks dropout min_frames
""".split()


def test_train_config_fields_are_pinned():
    """Each field is a flag of train, train-two-stage and bench-losses, and
    a config-file key, so an added option shows in a diff."""
    fields = [f.name for f in dataclasses.fields(engagerank.TrainConfig)]
    assert fields == TRAIN_CONFIG_FIELDS and len(fields) == 25


TRAIN_STATE_FIELDS = """
    config params opt rng epoch enc pool centers frozen history val_report
""".split()


def test_train_state_fields_are_pinned():
    """A run's whole mutable state; a new piece shows in a diff, and with it
    whether checkpoints store it."""
    assert [f.name for f in dataclasses.fields(engagerank.TrainState)] == TRAIN_STATE_FIELDS
