"""RunConfig: INI parsing, domain validation, model-spec assembly."""

import configparser
import math
import re
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from deepself.config import DOMAINS, SCHEMA, RunConfig, apply_overrides, load_config
from deepself.errors import ConfigError
from deepself.models import Conv, Dense, Recurrent, plan_shapes


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestIniParsing:
    def test_full_file(self, tmp_path):
        p = write_cfg(tmp_path, """
[general]
learning_rate = 0.005
batch_size = 8
epochs = 40
optimizer = sgd

[model]
type = cnn+rnn

[nn]
hidden_layers = 2
hidden_nodes = 128

[cnn]
channels = 16, 32
kernel = 5, 3
stride = 2, 1
padding = 1, 0

[rnn]
type = lstm
direction = bi
hidden_layers = 2
hidden_nodes = 64

[preprocess]
filter = on
low = 0.5
high = 30
feature = logmel
window_size = 128
hop_size = 64
n_mels = 20

[data]
manifest = data/train.csv
sample_rate = 100
fixed_length = 500

[run]
seed = 7
output_dir = results
jobs = 2
""")
        cfg = load_config(p)
        assert cfg.learning_rate == 0.005
        assert cfg.batch_size == 8
        assert cfg.epochs == 40
        assert cfg.optimizer == "sgd"
        assert cfg.model_type == "cnn+rnn"
        assert cfg.nn_hidden_layers == 2 and cfg.nn_hidden_nodes == 128
        assert cfg.cnn_channels == (16, 32)
        assert cfg.cnn_kernel == (5, 3)
        assert cfg.cnn_stride == (2, 1)
        assert cfg.cnn_padding == (1, 0)
        assert cfg.rnn_type == "lstm" and cfg.rnn_direction == "bi"
        assert cfg.rnn_hidden_layers == 2 and cfg.rnn_hidden_nodes == 64
        assert cfg.filter is True
        assert cfg.filter_low == 0.5 and cfg.filter_high == 30.0
        assert cfg.feature == "logmel"
        assert cfg.window_size == 128 and cfg.hop_size == 64 and cfg.n_mels == 20
        assert cfg.manifest == "data/train.csv"
        assert cfg.sample_rate == 100.0 and cfg.fixed_length == 500
        assert cfg.seed == 7 and cfg.output_dir == "results" and cfg.jobs == 2

    def test_defaults_without_file(self):
        cfg = RunConfig().validate()
        assert cfg.optimizer == "adam"
        assert cfg.model_type == "nn"
        assert cfg.feature == "none"
        assert cfg.seed == 0

    def test_empty_file_gives_defaults(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, ""))
        assert cfg.learning_rate == RunConfig().learning_rate

    def test_unknown_section(self, tmp_path):
        p = write_cfg(tmp_path, "[modle]\ntype = nn\n")
        with pytest.raises(ConfigError, match="modle"):
            load_config(p)

    def test_unknown_key(self, tmp_path):
        p = write_cfg(tmp_path, "[general]\nlearning_rte = 0.1\n")
        with pytest.raises(ConfigError, match="learning_rte"):
            load_config(p)

    def test_bad_number(self, tmp_path):
        p = write_cfg(tmp_path, "[general]\nlearning_rate = fast\n")
        with pytest.raises(ConfigError, match="fast"):
            load_config(p)

    @pytest.mark.parametrize("text", [
        "[general]\nlearning_rate = nan\n",
        "[data]\nsample_rate = inf\n",
        "[preprocess]\nfmin = -inf\n",
    ], ids=["learning_rate-nan", "sample_rate-inf", "fmin-minus-inf"])
    def test_non_finite_number(self, tmp_path, text):
        p = write_cfg(tmp_path, text)
        with pytest.raises(ConfigError, match="expected a finite number"):
            load_config(p)

    def test_bad_int_list(self, tmp_path):
        p = write_cfg(tmp_path, "[cnn]\nchannels = 8, x\nkernel = 3, 3\nstride = 1, 1\npadding = 0, 0\n")
        with pytest.raises(ConfigError, match="integer list"):
            load_config(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.cfg")

    def test_readme_example_loads(self, tmp_path):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        block = re.search(r"```ini\n(.*?)```", readme.read_text(), re.S).group(1)
        cfg = load_config(write_cfg(tmp_path, block))
        assert cfg.model_type == "cnn+rnn"
        assert cfg.cnn_channels == (8, 16)
        assert cfg.fmax == 40.0
        assert cfg.filter_low == 0.5 and cfg.jobs == 1

    def test_readme_example_sets_every_key(self, tmp_path):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        block = re.search(r"```ini\n(.*?)```", readme.read_text(), re.S).group(1)
        load_config(write_cfg(tmp_path, block))
        parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";",))
        parser.read_string(block)
        in_readme = {(section, key) for section in parser.sections() for key in parser[section]}
        assert in_readme == {(section, key) for section, table in SCHEMA.items() for key in table}

    def test_inline_comment_needs_leading_whitespace(self, tmp_path):
        p = write_cfg(tmp_path, "[data]\nmanifest = a;b.csv  ; the training rows\n")
        assert load_config(p).manifest == "a;b.csv"

    def test_schema_covers_every_field_once(self):
        attrs = Counter(attr for table in SCHEMA.values() for attr, _ in table.values())
        assert attrs == Counter(f.name for f in fields(RunConfig))

    def test_filter_bool_variants(self, tmp_path):
        for text, expected in (("on", True), ("off", False), ("true", True), ("0", False)):
            p = write_cfg(tmp_path, f"[preprocess]\nfilter = {text}\nlow = 1\nhigh = 2\n",
                          name=f"f_{text}.cfg")
            assert load_config(p).filter is expected


class TestDomains:
    def base(self, **kw):
        return apply_overrides(RunConfig(), kw)

    def test_optimizer_domain(self):
        with pytest.raises(ConfigError, match=r"sgd.*adam|adam.*sgd"):
            self.base(optimizer="nadam")

    def test_model_type_domain(self):
        with pytest.raises(ConfigError, match="cnn\\+rnn"):
            self.base(model_type="transformer")

    def test_rnn_type_domain(self):
        with pytest.raises(ConfigError, match="lstm"):
            self.base(rnn_type="elman")

    def test_direction_domain(self):
        with pytest.raises(ConfigError, match="bi"):
            self.base(rnn_direction="both")

    def test_activation_domain(self):
        with pytest.raises(ConfigError, match="sigmoid"):
            self.base(activation="swish")

    def test_feature_domain(self):
        with pytest.raises(ConfigError, match="scalogram"):
            self.base(feature="mfcc")

    @pytest.mark.parametrize("attr", sorted(DOMAINS))
    def test_domain_error_names_section_and_key(self, attr, tmp_path):
        section, key = next((section, key) for section, table in SCHEMA.items()
                            for key, (name, _) in table.items() if name == attr)
        match = re.escape(f"[{section}] {key} must be one of {DOMAINS[attr]}, got 'bogus'")
        with pytest.raises(ConfigError, match=match):
            self.base(**{attr: "bogus"})
        path = write_cfg(tmp_path, f"[{section}]\n{key} = bogus\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: {match}"):
            load_config(path)

    def test_unknown_override_key(self):
        with pytest.raises(ConfigError, match="unknown config key 'epoch'"):
            self.base(epoch=3)
        with pytest.raises(ConfigError, match="'epoch'"):
            self.base(epoch=None)

    def test_positive_numbers(self):
        for key, bad in [("learning_rate", 0.0), ("learning_rate", -1.0),
                         ("batch_size", 0), ("epochs", 0), ("jobs", 0),
                         ("nn_hidden_nodes", 0), ("rnn_hidden_nodes", 0),
                         ("rnn_hidden_layers", 0), ("window_size", 1),
                         ("hop_size", 0), ("n_mels", 0), ("n_voices", 0),
                         ("fixed_length", 0), ("sample_rate", 0.0), ("seed", -1)]:
            with pytest.raises(ConfigError):
                self.base(**{key: bad})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", [f.name for f in fields(RunConfig) if "float" in str(f.type)])
    def test_non_finite_float_rejected(self, key, value):
        # the INI and flag parsers refuse these too; this is the library path
        with pytest.raises(ConfigError, match=f"{key} must be a finite number"):
            self.base(**{key: value})

    @pytest.mark.parametrize("key, value", [
        ("batch_size", 2.5), ("epochs", 1.5), ("window_size", 64.5), ("seed", 1.5),
        ("nn_hidden_nodes", 3.5), ("fixed_length", 10.5), ("cnn_channels", (8.0,)),
    ])
    def test_fractional_integer_rejected(self, key, value):
        # the INI and flag parsers read these with int(); this is the library path
        with pytest.raises(ConfigError, match=f"{key}( entry)? must be an integer"):
            self.base(**{key: value})

    def test_numpy_integers_accepted(self):
        cfg = self.base(batch_size=np.int64(8), seed=np.int32(3), cnn_channels=(np.int16(4),))
        assert (cfg.batch_size, cfg.seed, cfg.cnn_channels) == (8, 3, (4,))

    def test_nn_hidden_layers_floor(self):
        # Table domain is 1, 2, ...: the classifier head is always extra
        with pytest.raises(ConfigError, match="hidden_layers"):
            self.base(nn_hidden_layers=0)

    def test_filter_cutoff_ordering(self):
        with pytest.raises(ConfigError, match="low must be < high"):
            self.base(filter=True, filter_low=30.0, filter_high=0.5)

    def test_filter_needs_cutoffs(self):
        with pytest.raises(ConfigError, match="cutoff"):
            self.base(filter=True)

    def test_cnn_list_lengths_must_agree(self):
        with pytest.raises(ConfigError, match="one entry per layer"):
            self.base(cnn_channels=(8, 16), cnn_kernel=(3,), cnn_stride=(1, 1),
                      cnn_padding=(0, 0))

    def test_cnn_entry_floors(self):
        with pytest.raises(ConfigError):
            self.base(cnn_channels=(0,))
        with pytest.raises(ConfigError):
            self.base(cnn_stride=(0,))
        # padding 0 is fine
        assert self.base(cnn_padding=(0,)).cnn_padding == (0,)

    def test_overrides_beat_file(self, tmp_path):
        p = write_cfg(tmp_path, "[general]\nepochs = 10\n[run]\nseed = 1\n")
        cfg = apply_overrides(load_config(p), {"epochs": 99, "seed": None})
        assert cfg.epochs == 99
        assert cfg.seed == 1  # None means "not overridden"


class TestModelSpecAssembly:
    def test_nn(self):
        cfg = apply_overrides(RunConfig(), {"model_type": "nn", "nn_hidden_layers": 2,
                                            "nn_hidden_nodes": 32})
        spec = cfg.model_spec((1, 40), 3)
        assert spec.layers == (Dense(32), Dense(32))
        assert spec.n_classes == 3
        plan_shapes(spec)  # must be plannable

    def test_cnn_appends_dense_block(self):
        cfg = apply_overrides(RunConfig(), {
            "model_type": "cnn", "cnn_channels": (4, 8), "cnn_kernel": (5, 3),
            "cnn_stride": (2, 1), "cnn_padding": (1, 0),
            "nn_hidden_layers": 1, "nn_hidden_nodes": 16})
        spec = cfg.model_spec((1, 100), 2)
        assert spec.layers == (
            Conv(rank=1, out_channels=4, kernel=(5,), stride=(2,), padding=(1,)),
            Conv(rank=1, out_channels=8, kernel=(3,), stride=(1,), padding=(0,)),
            Dense(16),
        )
        plan_shapes(spec)

    def test_cnn_rank_follows_input(self):
        cfg = apply_overrides(RunConfig(), {"model_type": "cnn", "cnn_kernel": (3,)})
        spec = cfg.model_spec((1, 28, 28), 2)
        assert spec.layers[0].rank == 2
        assert spec.layers[0].kernel == (3, 3)
        plan_shapes(spec)

    def test_rnn(self):
        cfg = apply_overrides(RunConfig(), {
            "model_type": "rnn", "rnn_type": "gru", "rnn_direction": "bi",
            "rnn_hidden_layers": 2, "rnn_hidden_nodes": 24})
        spec = cfg.model_spec((50, 3), 4)
        assert spec.layers == (Recurrent(cell="gru", hidden_nodes=24, layers=2,
                                         direction="bi"),)
        plan_shapes(spec)

    def test_cnn_rnn_stack_has_no_dense_block(self):
        cfg = apply_overrides(RunConfig(), {
            "model_type": "cnn+rnn", "cnn_channels": (4,), "cnn_kernel": (5,),
            "cnn_stride": (2,), "cnn_padding": (0,),
            "rnn_type": "gru", "rnn_hidden_layers": 1, "rnn_hidden_nodes": 8,
            "nn_hidden_layers": 3})
        spec = cfg.model_spec((1, 100), 2)
        assert isinstance(spec.layers[0], Conv)
        assert isinstance(spec.layers[1], Recurrent)
        assert len(spec.layers) == 2  # [nn] block is not part of cnn+rnn
        plan_shapes(spec)

    def test_seed_and_activation_flow_into_spec(self):
        cfg = apply_overrides(RunConfig(), {"seed": 11, "activation": "tanh"})
        spec = cfg.model_spec((4,), 2)
        assert spec.seed == 11
        assert spec.activation == "tanh"

    def test_train_config_carries_general_section(self):
        cfg = apply_overrides(RunConfig(), {"learning_rate": 0.5, "batch_size": 4,
                                            "epochs": 3, "optimizer": "sgd", "seed": 9})
        tc = cfg.train_config()
        assert (tc.learning_rate, tc.batch_size, tc.epochs, tc.optimizer, tc.seed) == \
            (0.5, 4, 3, "sgd", 9)

    def test_digest_changes_with_values(self):
        a = RunConfig().validate()
        b = apply_overrides(RunConfig(), {"epochs": 21})
        assert a.digest() != b.digest()
        assert a.digest() == RunConfig().validate().digest()

    def test_digest_covers_dev_fraction(self):
        quarter, half = (apply_overrides(RunConfig(), {"dev_fraction": v}) for v in (0.25, 0.5))
        assert quarter.digest() != half.digest()
