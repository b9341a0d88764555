"""Spiking encoder over a noisy binary link with a lightweight edge decoder."""

from .channel import (
    ChannelConfig,
    log_prob_clean,
    log_prob_noisy,
    noisy_spike_prob,
    sample_noisy,
    transmit,
)
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import ConfigError, RunConfig, build_run_config, parse_config_file
from .decoder import (
    DecoderParams,
    ReceiveBuffer,
    backward,
    classification_loss,
    forward,
    init_decoder_params,
    predict,
)
from .encoder import (
    EncoderParams,
    EncoderState,
    ScoreAccumulator,
    accumulate_score,
    grad_params_u,
    grad_u_log_prob_noisy,
    init_encoder_params,
    membrane_potentials,
    sample_spikes,
)
from .events import (
    EVENT_DTYPE,
    EventFormatError,
    EventRecord,
    FrameTensor,
    SyntheticConfig,
    events_to_frames,
    generate_synthetic,
    load_events,
    save_events,
    synthetic_records,
)
from .metrics import CSV_HEADER, MetricsRow, export_metrics, read_metrics, write_metrics
from .numerics import (
    Kernel,
    SeededRng,
    causal_convolve,
    ebn0_to_epsilon,
    exponential_kernel,
    finite_diff_grad,
    gaussian_q,
    sigmoid,
)
from .training import (
    Dataset,
    EpochMetrics,
    PriorModel,
    TrainConfig,
    TrainingDiverged,
    encoder_gradient,
    evaluate,
    evaluate_grid,
    regularizer,
    run_clean_sequence,
    run_noisy_sequence,
    sequence_log_prob,
    sgd_update,
    spike_rate,
    train_epoch,
    vdib_loss,
)

__version__ = "0.1.0"
