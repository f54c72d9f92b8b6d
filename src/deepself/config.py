"""Run configuration: flat INI files, domain validation, plan assembly.

``RunConfig``'s fields are the one table of config keys: each field carries
its INI section, file key, parser, integer floor and, for an enumerated key,
its domain. ``SCHEMA`` and ``DOMAINS`` are derived from those fields, and the
INI reader and the command-line flags (which override file values) are both
built from ``SCHEMA``. All values are validated against their documented
domains before any work starts.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math
from dataclasses import dataclass, field, fields, replace

from .errors import ConfigError, DataError, check_integer
from .files import read_bytes, read_text
from .models import ACTIVATIONS, DIRECTIONS, RECURRENT_CELLS, Conv, Dense, ModelSpec, Recurrent
from .training import OPTIMIZERS, TrainConfig

MODEL_TYPES = ("nn", "cnn", "rnn", "cnn+rnn")
FEATURES = ("none", "spectrogram", "logmel", "scalogram")


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


def _key(section: str, default, parse, *, key: str | None = None,
         least: int | None = None, domain: tuple | None = None):
    """A config key: its INI ``[section]``, its file ``key`` (default: the field
    name), the parser of its text, the least value of an integer key that no spec
    object built from it checks, and the values an enumerated key may take."""
    return field(default=default, metadata={
        "section": section, "key": key, "parse": parse, "least": least, "domain": domain})


def _file_key(f) -> str:
    return f.metadata["key"] or f.name


@dataclass
class RunConfig:
    learning_rate: float = _key("general", 0.001, _float)
    batch_size: int = _key("general", 16, _int)
    epochs: int = _key("general", 20, _int)
    optimizer: str = _key("general", "adam", str.strip, domain=OPTIMIZERS)
    model_type: str = _key("model", "nn", str.strip, key="type", domain=MODEL_TYPES)
    nn_hidden_layers: int = _key("nn", 1, _int, key="hidden_layers", least=1)
    nn_hidden_nodes: int = _key("nn", 64, _int, key="hidden_nodes")
    # one entry per convolutional layer
    cnn_channels: tuple = _key("cnn", (8,), _int_list, key="channels")
    cnn_kernel: tuple = _key("cnn", (3,), _int_list, key="kernel")
    cnn_stride: tuple = _key("cnn", (1,), _int_list, key="stride")
    cnn_padding: tuple = _key("cnn", (0,), _int_list, key="padding")
    rnn_type: str = _key("rnn", "gru", str.strip, key="type", domain=RECURRENT_CELLS)
    rnn_direction: str = _key("rnn", "uni", str.strip, key="direction", domain=DIRECTIONS)
    rnn_hidden_layers: int = _key("rnn", 1, _int, key="hidden_layers")
    rnn_hidden_nodes: int = _key("rnn", 32, _int, key="hidden_nodes")
    filter: bool = _key("preprocess", False, _bool)
    filter_low: float | None = _key("preprocess", None, _float, key="low")
    filter_high: float | None = _key("preprocess", None, _float, key="high")
    feature: str = _key("preprocess", "none", str.strip, domain=FEATURES)
    window_size: int = _key("preprocess", 256, _int, least=2)
    hop_size: int = _key("preprocess", 128, _int, least=1)
    n_mels: int = _key("preprocess", 26, _int, least=1)
    fmin: float = _key("preprocess", 0.0, _float)
    fmax: float | None = _key("preprocess", None, _float)  # None = Nyquist
    n_voices: int = _key("preprocess", 12, _int, least=1)
    manifest: str | None = _key("data", None, str.strip)
    sample_rate: float | None = _key("data", None, _float)
    fixed_length: int | None = _key("data", None, _int, least=1)
    seed: int = _key("run", 0, _int)
    output_dir: str = _key("run", "out", str.strip)
    # processes for `preprocess` rows and `evaluate --cv` folds: the caller runs items 0::jobs and forked
    # worker w items w::jobs; outputs do not depend on it (not in digest); workers' info lines interleave
    jobs: int = _key("run", 1, _int, least=1)
    activation: str = _key("run", "relu", str.strip, domain=ACTIVATIONS)

    def validate(self) -> "RunConfig":
        for f in fields(self):
            value, parse, domain = getattr(self, f.name), f.metadata["parse"], f.metadata["domain"]
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be a finite number, got {value}")
            if parse is _int_list:
                for entry in value:
                    check_integer(f"{f.name} entry", entry)
            elif parse is _int and value is not None:
                check_integer(f.name, value, f.metadata["least"])
            if domain is not None and value not in domain:
                raise ConfigError(f"[{f.metadata['section']}] {_file_key(f)} must be one of "
                                  f"{domain}, got {value!r}")
        # the spec objects check the rest of the keys they are built from
        _in_section("general", self.train_config)
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
                value = hashlib.sha256(read_bytes(value)).hexdigest()
            lines.append(f"{f.name}={value!r}")
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _in_section(section: str, build, *args):
    """Build a spec object from config values, naming the section in its errors."""
    try:
        build(*args)
    except ConfigError as exc:
        raise ConfigError(f"[{section}] {exc}") from None


# section -> {file key -> (RunConfig attribute, parser)}, in field order
SCHEMA: dict = {}
for _f in fields(RunConfig):
    SCHEMA.setdefault(_f.metadata["section"], {})[_file_key(_f)] = (_f.name, _f.metadata["parse"])

# attribute -> the values it may take, for the enumerated keys
DOMAINS = {f.name: f.metadata["domain"] for f in fields(RunConfig) if f.metadata["domain"]}


def load_config(path) -> RunConfig:
    """Parse a flat INI file and validate every key against its domain; errors name the file."""
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";",))
    try:  # read_text rejects invalid UTF-8; newline=None reads any line end, as open() does
        parser.read_file(io.StringIO(read_text(path), newline=None), str(path))
    except DataError as exc:
        raise ConfigError(str(exc)) from exc
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
    try:
        return cfg.validate()
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def apply_overrides(cfg: RunConfig, overrides: dict) -> RunConfig:
    """Return a copy with non-None override values applied, re-validated."""
    unknown = sorted(set(overrides) - {f.name for f in fields(RunConfig)})
    if unknown:
        raise ConfigError(f"unknown config key {', '.join(map(repr, unknown))}")
    changes = {k: v for k, v in overrides.items() if v is not None}
    return replace(cfg, **changes).validate() if changes else cfg.validate()
