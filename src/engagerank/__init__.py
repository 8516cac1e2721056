"""Ordinal engagement scoring with a momentum-queue ranking loss.

Feature plumbing lives in ``featurepipe``, the scoring network with exact
numpy gradients in ``model``, the ranking mechanism and baseline losses in
``mocorank``, evaluation quantities in ``metrics``, and the training loop,
checkpointing, and gradient checks in ``harness``.
"""

from .featurepipe import (
    AUDIO_META_DIM,
    DEFAULT_CHANNELS,
    DEFAULT_CHUNKS,
    DEFAULT_GLOBAL_DIM,
    DEFAULT_MIN_FRAMES,
    N_CLASSES,
    REFERENCE_PROPORTIONS,
    SPEECH_DIM,
    Dataset,
    EngagementLevel,
    FrameSequence,
    SampleRecord,
    apportion,
    chunk_summarize_batch,
    class_balanced_sampler,
    latent_band,
    load_records,
    repeat_pad,
    save_records,
    sequential_batches,
    split_dataset,
    synth_dataset,
)
from .harness import (
    TrainConfig,
    TrainState,
    adamw_step,
    bench_losses,
    cosine_lr,
    evaluate,
    grad_check,
    grad_check_loss,
    init_train_state,
    load_checkpoint,
    save_checkpoint,
    train,
    train_epochs,
    train_two_stage,
)
from .metrics import (
    MetricsReport,
    RatingMatrix,
    accuracy_metrics,
    confusion_matrix,
    icc_2_1,
    write_recall_csv,
)
from .mocorank import (
    ClassCenters,
    MomentumEncoder,
    ScorePool,
    ScorePoolEntry,
    cb_focal_loss,
    ce_loss,
    center_loss,
    momentum_update,
    mse_loss,
    multi_margin_loss,
    pool_init,
)
from .model import (
    Batch,
    ModelConfig,
    ModelParams,
    Trace,
    backward,
    classify,
    forward_batch,
    init_params,
    prepare_batch,
    score_batch,
)

__version__ = "0.1.0"
