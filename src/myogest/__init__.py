"""sEMG hand-gesture recognition toolkit for the 8-channel, 200 Hz armband.

Pipeline: canonical CSV datasets -> 52-sample windows -> features or
time-frequency tensors -> slow-fusion ConvNets (numpy engine) -> per-subject
batch-norm transfer learning -> evaluation protocols and nonparametric
statistics.
"""

from . import augment, dataset, features, harness, stats, timefreq, transfer
from .architectures import (
    ARCHITECTURES,
    build_architecture,
    build_cwt_net,
    build_enhanced_raw_net,
    build_raw_1d_net,
    build_raw_net,
    build_spectrogram_net,
)
from .dataset import (
    DatasetSplit,
    EmgRecording,
    Window,
    apply_shift,
    build_split,
    find_alignment,
    load_dataset,
    slice_windows,
)
from .errors import ConfigError, DataError, DegenerateProfileError, MyogestError, NumericalError
from .harness import ExperimentConfig, RunReport, emit_report, run_experiment, run_session_replay
from .nn import Network, TrainConfig, train
from .transfer import SourceNetwork, TargetNetwork, build_target, pretrain, train_target

__version__ = "0.1.0"
