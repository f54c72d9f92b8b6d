"""Run configuration: flat INI files, domain validation, plan assembly.

``SCHEMA`` is the one table of config keys: the INI reader and the
command-line flags (which override file values) are both built from it.
All values are validated against their documented domains before any work
starts.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, fields, replace

from .errors import ConfigError, check_integer
from .models import ACTIVATIONS, DIRECTIONS, RECURRENT_CELLS, Conv, Dense, ModelSpec, Recurrent
from .training import OPTIMIZERS, TrainConfig

MODEL_TYPES = ("nn", "cnn", "rnn", "cnn+rnn")
FEATURES = ("none", "spectrogram", "logmel", "scalogram")
# the least value of each integer key that no spec object built from it checks
_LEAST = {"nn_hidden_layers": 1, "window_size": 2, "hop_size": 1, "n_mels": 1, "n_voices": 1,
          "fixed_length": 1, "jobs": 1}


@dataclass
class RunConfig:
    # [general]
    learning_rate: float = 0.001
    batch_size: int = 16
    epochs: int = 20
    optimizer: str = "adam"
    # [model]
    model_type: str = "nn"
    # [nn]
    nn_hidden_layers: int = 1
    nn_hidden_nodes: int = 64
    # [cnn] — one entry per convolutional layer
    cnn_channels: tuple = (8,)
    cnn_kernel: tuple = (3,)
    cnn_stride: tuple = (1,)
    cnn_padding: tuple = (0,)
    # [rnn]
    rnn_type: str = "gru"
    rnn_direction: str = "uni"
    rnn_hidden_layers: int = 1
    rnn_hidden_nodes: int = 32
    # [preprocess]
    filter: bool = False
    filter_low: float | None = None
    filter_high: float | None = None
    feature: str = "none"
    window_size: int = 256
    hop_size: int = 128
    n_mels: int = 26
    fmin: float = 0.0
    fmax: float | None = None  # None = Nyquist
    n_voices: int = 12
    # [data]
    manifest: str | None = None
    sample_rate: float | None = None
    fixed_length: int | None = None
    # [run]
    seed: int = 0
    output_dir: str = "out"
    # validated but unused (threads lost to serial); kept because perfbench sets it
    jobs: int = 1
    activation: str = "relu"

    def validate(self) -> "RunConfig":
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be a finite number, got {value}")
        for table in SCHEMA.values():
            for attr, parse in table.values():
                value = getattr(self, attr)
                if parse is _int_list:
                    for entry in value:
                        check_integer(f"{attr} entry", entry)
                elif parse is _int and value is not None:
                    check_integer(attr, value, _LEAST.get(attr))
        # the spec objects own the domains of the keys they are built from
        _in_section("general", self.train_config)
        if self.model_type not in MODEL_TYPES:
            raise ConfigError(f"model type must be one of {MODEL_TYPES}, got {self.model_type!r}")
        _in_section("nn", Dense, self.nn_hidden_nodes)
        lists = {
            "channels": self.cnn_channels, "kernel": self.cnn_kernel,
            "stride": self.cnn_stride, "padding": self.cnn_padding,
        }
        n_conv = len(self.cnn_channels)
        for name, values in lists.items():
            if len(values) != n_conv:
                raise ConfigError(
                    f"cnn lists must have one entry per layer: channels has {n_conv}, "
                    f"{name} has {len(values)}"
                )
        for i, entry in enumerate(zip(*lists.values())):
            _in_section(f"cnn layer {i}", Conv, 1, *entry)
        if n_conv < 1 and self.model_type in ("cnn", "cnn+rnn"):
            raise ConfigError("cnn models need at least one convolutional layer")
        _in_section("rnn", Recurrent, self.rnn_type, self.rnn_hidden_nodes,
                    self.rnn_hidden_layers, self.rnn_direction)
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"activation must be one of {ACTIVATIONS}, got {self.activation!r}")
        if self.feature not in FEATURES:
            raise ConfigError(f"feature must be one of {FEATURES}, got {self.feature!r}")
        if self.filter:
            if self.filter_low is None or self.filter_high is None:
                raise ConfigError("filter=on needs both low and high cutoffs")
            if not self.filter_low < self.filter_high:
                raise ConfigError(
                    f"low must be < high, got low={self.filter_low}, high={self.filter_high}")
        if self.sample_rate is not None and self.sample_rate <= 0:
            raise ConfigError(f"sample_rate must be positive, got {self.sample_rate}")
        return self

    # -- derived objects ---------------------------------------------------

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            learning_rate=self.learning_rate,
            batch_size=self.batch_size,
            epochs=self.epochs,
            optimizer=self.optimizer,
            seed=self.seed,
        )

    def model_spec(self, input_shape, n_classes: int) -> ModelSpec:
        """Assemble layer stack for the configured model type.

        nn: hidden dense layers.  cnn: conv stack then the [nn] dense layers
        (so channels=a,b,c with one dense hidden layer is the familiar
        "3 conv + 2 FC" shape, the final FC being the implicit head).
        rnn: one recurrent block.  cnn+rnn: conv stack feeding the recurrent
        block, classifier head directly on the last state.
        """
        layers: list = []
        if self.model_type in ("cnn", "cnn+rnn"):
            rank = len(input_shape) - 1
            if rank < 1:
                raise ConfigError(
                    f"cnn models need channels-first inputs, got shape {tuple(input_shape)}")
            for ch, k, s, p in zip(self.cnn_channels, self.cnn_kernel,
                                   self.cnn_stride, self.cnn_padding):
                layers.append(Conv(rank=rank, out_channels=ch, kernel=k, stride=s, padding=p))
        if self.model_type in ("rnn", "cnn+rnn"):
            layers.append(Recurrent(
                cell=self.rnn_type,
                hidden_nodes=self.rnn_hidden_nodes,
                layers=self.rnn_hidden_layers,
                direction=self.rnn_direction,
            ))
        if self.model_type in ("nn", "cnn"):
            layers.extend(Dense(self.nn_hidden_nodes) for _ in range(self.nn_hidden_layers))
        return ModelSpec(
            input_shape=tuple(input_shape),
            layers=tuple(layers),
            n_classes=n_classes,
            activation=self.activation,
            seed=self.seed,
        )

    def digest(self) -> str:
        """Hash of every result-affecting key (not output_dir/jobs); the manifest by its bytes."""
        lines = []
        for f in fields(self):
            if f.name in ("output_dir", "jobs"):
                continue
            value = getattr(self, f.name)
            if f.name == "manifest" and value is not None:  # not its path: runs move directories
                with open(value, "rb") as fh:
                    value = hashlib.sha256(fh.read()).hexdigest()
            lines.append(f"{f.name}={value!r}")
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _in_section(section: str, build, *args):
    """Build a spec object from config values, naming the section in its errors."""
    try:
        build(*args)
    except ConfigError as exc:
        raise ConfigError(f"[{section}] {exc}") from None


# ---------------------------------------------------------------------------
# INI parsing
# ---------------------------------------------------------------------------

def _int_list(text: str) -> tuple:
    try:
        return tuple(int(part.strip()) for part in text.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"expected a comma-separated integer list, got {text!r}") from None


def _bool(text: str):
    lowered = text.strip().lower()
    if lowered in ("on", "true", "yes", "1"):
        return True
    if lowered in ("off", "false", "no", "0"):
        return False
    raise ConfigError(f"expected on/off, got {text!r}")


def _float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {text!r}")
    return value


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"expected an integer, got {text!r}") from None


# how --help shows the values these parsers accept
METAVARS = {_bool: "on|off", _int_list: "N,N,..."}

# section -> {file key -> (RunConfig attribute, parser)}
SCHEMA = {
    "general": {
        "learning_rate": ("learning_rate", _float),
        "batch_size": ("batch_size", _int),
        "epochs": ("epochs", _int),
        "optimizer": ("optimizer", str.strip),
    },
    "model": {
        "type": ("model_type", str.strip),
    },
    "nn": {
        "hidden_layers": ("nn_hidden_layers", _int),
        "hidden_nodes": ("nn_hidden_nodes", _int),
    },
    "cnn": {
        "channels": ("cnn_channels", _int_list),
        "kernel": ("cnn_kernel", _int_list),
        "stride": ("cnn_stride", _int_list),
        "padding": ("cnn_padding", _int_list),
    },
    "rnn": {
        "type": ("rnn_type", str.strip),
        "direction": ("rnn_direction", str.strip),
        "hidden_layers": ("rnn_hidden_layers", _int),
        "hidden_nodes": ("rnn_hidden_nodes", _int),
    },
    "preprocess": {
        "filter": ("filter", _bool),
        "low": ("filter_low", _float),
        "high": ("filter_high", _float),
        "feature": ("feature", str.strip),
        "window_size": ("window_size", _int),
        "hop_size": ("hop_size", _int),
        "n_mels": ("n_mels", _int),
        "fmin": ("fmin", _float),
        "fmax": ("fmax", _float),
        "n_voices": ("n_voices", _int),
    },
    "data": {
        "manifest": ("manifest", str.strip),
        "sample_rate": ("sample_rate", _float),
        "fixed_length": ("fixed_length", _int),
    },
    "run": {
        "seed": ("seed", _int),
        "output_dir": ("output_dir", str.strip),
        "jobs": ("jobs", _int),
        "activation": ("activation", str.strip),
    },
}

# attribute -> the values it may take, for the enumerated keys
DOMAINS = {
    "optimizer": OPTIMIZERS,
    "model_type": MODEL_TYPES,
    "rnn_type": RECURRENT_CELLS,
    "rnn_direction": DIRECTIONS,
    "feature": FEATURES,
    "activation": ACTIVATIONS,
}


def load_config(path) -> RunConfig:
    """Parse a flat INI file and validate every key against its domain."""
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";",))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    cfg = RunConfig()
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(
                f"{path}: unknown section [{section}] "
                f"(known: {', '.join(sorted(SCHEMA))})")
        table = SCHEMA[section]
        for key, raw in parser.items(section):
            if key not in table:
                raise ConfigError(
                    f"{path}: unknown key {key!r} in [{section}] "
                    f"(known: {', '.join(sorted(table))})")
            attr, parse = table[key]
            try:
                setattr(cfg, attr, parse(raw))
            except ConfigError as exc:
                raise ConfigError(f"{path}: [{section}] {key}: {exc}") from None
    return cfg.validate()


def apply_overrides(cfg: RunConfig, overrides: dict) -> RunConfig:
    """Return a copy with non-None override values applied, re-validated."""
    changes = {k: v for k, v in overrides.items() if v is not None}
    return replace(cfg, **changes).validate() if changes else cfg.validate()
