"""deepself: end-to-end deep learning for 1-D/2-D signal classification."""

from .config import RunConfig, load_config
from .data import (
    DatasetManifest,
    assemble_dataset,
    load_csv_series,
    load_manifest,
    load_pgm_image,
    load_sample,
    load_wav_pcm16,
)
from .dsp import (
    FeatureMap,
    FilterCascade,
    Signal,
    apply_iir,
    design_butterworth_bandpass,
    log_mel_spectrogram,
    read_feature_map,
    scalogram,
    spectrogram,
    write_feature_map,
)
from .errors import (
    ConfigError,
    DataError,
    DeepSelfError,
    FormatError,
    IntegrityError,
    MetricError,
    NumericError,
    ShapeError,
    TruncatedFileError,
    UnsupportedFormatError,
    VersionError,
)
from .evaluation import (
    ConfusionMatrix,
    FoldReport,
    PredictionSet,
    confusion_matrix,
    fuse_predictions,
    kfold_cross_validate,
    read_predictions,
    uar,
    uar_from_labels,
    write_predictions,
)
from .models import (
    Conv,
    Dense,
    Model,
    ModelSpec,
    Recurrent,
    forward,
    init_model,
    plan_shapes,
)
from .tensor import Tensor, backward, finite_diff_grad, no_grad
from .training import (
    TrainConfig,
    fine_tune,
    load_checkpoint,
    predict_batches,
    save_checkpoint,
    train,
    train_step,
)

__all__ = [
    "RunConfig", "load_config", "DatasetManifest", "assemble_dataset", "load_csv_series",
    "load_manifest", "load_pgm_image", "load_sample", "load_wav_pcm16", "FeatureMap",
    "FilterCascade", "Signal", "apply_iir", "design_butterworth_bandpass", "log_mel_spectrogram",
    "read_feature_map", "scalogram", "spectrogram", "write_feature_map", "ConfigError",
    "DataError", "DeepSelfError", "FormatError", "IntegrityError", "MetricError", "NumericError",
    "ShapeError", "TruncatedFileError", "UnsupportedFormatError", "VersionError",
    "ConfusionMatrix", "FoldReport", "PredictionSet", "confusion_matrix", "fuse_predictions",
    "kfold_cross_validate", "read_predictions", "uar", "uar_from_labels", "write_predictions",
    "Conv", "Dense", "Model", "ModelSpec", "Recurrent", "forward", "init_model", "plan_shapes",
    "Tensor", "backward", "finite_diff_grad", "no_grad", "TrainConfig", "fine_tune",
    "load_checkpoint", "predict_batches", "save_checkpoint", "train", "train_step"
]

__version__ = "0.1.0"
