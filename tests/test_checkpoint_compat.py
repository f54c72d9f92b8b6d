"""Checkpoints written by earlier implementations still load, agree and retrain.

``tests/data`` holds a bi-LSTM and a 2-layer bi-GRU checkpoint, plus dev
inputs and logits, written by the per-time-step implementation (see
``tests/data/make_recurrent_checkpoints.py``), and a 1-D and a 2-D CNN
checkpoint trained while the conv backward scattered with ``np.add.at`` (see
``tests/data/make_conv_checkpoints.py``).  Retraining the recurrent fixtures,
and the other recurrent topologies below, must also write the checkpoint
bytes recorded here.
"""

import hashlib
import importlib.util
import os

import numpy as np
import pytest

from deepself.models import Conv, ModelSpec, Recurrent, checkpoint_arrays, forward
from deepself.tensor import no_grad
from deepself.training import CHECKPOINT_VERSION, load_checkpoint, read_checkpoint, save_checkpoint

DATA = os.path.join(os.path.dirname(__file__), "data")


def _load_fixtures(module_name):
    spec = importlib.util.spec_from_file_location(module_name, os.path.join(DATA, f"{module_name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


conv_fixtures = _load_fixtures("make_conv_checkpoints")
recurrent_fixtures = _load_fixtures("make_recurrent_checkpoints")


def _names(gates, sublayers):
    return {"head.weight", "head.bias"} | {
        f"layer0.l{k}.{d}.{kind}_{g}"
        for k in range(sublayers) for d in ("fwd", "bwd") for kind in ("W", "U", "b") for g in gates
    }


FIXTURES = {
    "bilstm": _names("ifgo", 1),
    "bigru2": _names("rzn", 2),
}


@pytest.mark.parametrize("name", sorted(FIXTURES))
class TestRecurrentCheckpointCompat:
    def test_exact_parameter_names(self, name):
        ckpt = read_checkpoint(os.path.join(DATA, f"{name}.ckpt"))
        assert ckpt.version == CHECKPOINT_VERSION
        assert set(ckpt.params) == FIXTURES[name]
        model, _ = load_checkpoint(os.path.join(DATA, f"{name}.ckpt"))
        assert {n for n, _ in checkpoint_arrays(model)} == FIXTURES[name]
        assert set(model.params) == {"head.weight", "head.bias"} | {
            f"layer0.l{k}.{kind}" for k in range(model.spec.layers[0].layers) for kind in "WUb"}

    def test_resaved_bytes_identical(self, name, tmp_path):
        path = os.path.join(DATA, f"{name}.ckpt")
        model, metadata = load_checkpoint(path)
        save_checkpoint(model, metadata, tmp_path / "again.ckpt")
        with open(path, "rb") as fh:
            assert (tmp_path / "again.ckpt").read_bytes() == fh.read()

    def test_dev_logits_match(self, name):
        model, _ = load_checkpoint(os.path.join(DATA, f"{name}.ckpt"))
        dev = np.load(os.path.join(DATA, f"{name}_dev.npz"))
        with no_grad():
            logits, _ = forward(model, dev["x"])
        np.testing.assert_array_equal(np.argmax(logits.data, axis=1), np.argmax(dev["logits"], axis=1))
        np.testing.assert_allclose(logits.data, dev["logits"], rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("name", sorted(conv_fixtures.FIXTURES))
def test_conv_retrain_reproduces_checkpoint_bytes(name, tmp_path):
    model, metadata = conv_fixtures.train_fixture(name)
    save_checkpoint(model, metadata, tmp_path / "again.ckpt")
    with open(os.path.join(DATA, f"{name}.ckpt"), "rb") as fh:
        assert (tmp_path / "again.ckpt").read_bytes() == fh.read()


# best.ckpt sha256 of four epochs of each recurrent fixture's training, recorded
# at commit 9218632, the last one that stored one tensor per gate
RECURRENT_RETRAIN_SHA256 = {
    ("bigru2", "adam"): "8cb112496aee4cda97214afe065ba82d4b7d8e4d241f98edd79db049ce0f4efe",
    ("bigru2", "sgd"): "f537c87fb6860901c2b855f1358c38ea6c750261ccb56bed579500af36aaff3e",
    ("bilstm", "adam"): "95e15062cb77103654a5f5fbf24c5547bd6ea13375ce7bd39fb743bd8d5758c6",
    ("bilstm", "sgd"): "21b964a991e4180ed169ad191b115363f5de4adc1772ebc93e4dea1bb4fef747",
}


@pytest.mark.parametrize("name, optimizer", sorted(RECURRENT_RETRAIN_SHA256))
def test_recurrent_retrain_reproduces_recorded_bytes(name, optimizer, tmp_path):
    model, metadata, _ = recurrent_fixtures.train_fixture(name, optimizer, epochs=4)
    save_checkpoint(model, metadata, tmp_path / "best.ckpt")
    digest = hashlib.sha256((tmp_path / "best.ckpt").read_bytes()).hexdigest()
    assert digest == RECURRENT_RETRAIN_SHA256[name, optimizer]


# the topologies the two fixtures leave out: uni stacks, the plain rnn cell and
# a conv stage below a scan, so the input gradient flows out of it
RECURRENT_SPECS = {
    "gru2": ModelSpec((7, 3), (Recurrent("gru", 4, 2, "uni"),), 2, seed=23),
    "lstm": ModelSpec((6, 4), (Recurrent("lstm", 5, 1, "uni"),), 3, seed=24),
    "birnn": ModelSpec((6, 3), (Recurrent("rnn", 4, 1, "bi"),), 2, seed=25),
    "cnn_bigru": ModelSpec((2, 24), (Conv(1, 3, 5, 2, 1), Recurrent("gru", 4, 1, "bi")), 2, seed=26),
}

# best.ckpt sha256 of four epochs of each spec's training, recorded at commit 7c6f86a,
# the last one whose scan buffers were [D, T, B, .]
RECURRENT_SPEC_SHA256 = {
    ("gru2", "adam"): "b8d17d1b41f7a32d6a11563baadd890c8f1c5e85b6eb080878fd5f44e6218a1c",
    ("gru2", "sgd"): "0f4afacf892b0d01af3406338a4849c6e88c7b90a9a5775ed3ca159516f96a1c",
    ("lstm", "adam"): "63df50bfed13a12953a1adcc419626a2ab3fc8cc0214991fe4838310d84adada",
    ("lstm", "sgd"): "7f6e82ef7dd52cac3b52966b6d164088799cbd71b64365bcfca3ef1a415244b2",
    ("birnn", "adam"): "78c11907723b49dee4176fe45e749142336ae44f6e32a1e0cd8082ef4522abd7",
    ("birnn", "sgd"): "979ab8fabfb83ae1ed32993fa55c6f07eacae6aa56bebbfb45509bce9d9e3aec",
    ("cnn_bigru", "adam"): "8409b3a8e1ad6dd6fb1be65e67f32b7b645d73e5110c14cf776a5e1dcf712df5",
    ("cnn_bigru", "sgd"): "0eb324d5bdc9d1bae6bf696c2acf8a084c7184877242a20c7447d3f824391e09",
}


@pytest.mark.parametrize("name, optimizer", sorted(RECURRENT_SPEC_SHA256))
def test_recurrent_topology_retrain_reproduces_recorded_bytes(name, optimizer, tmp_path):
    model, metadata, _ = recurrent_fixtures.train_spec(RECURRENT_SPECS[name], optimizer, epochs=4)
    save_checkpoint(model, metadata, tmp_path / "best.ckpt")
    digest = hashlib.sha256((tmp_path / "best.ckpt").read_bytes()).hexdigest()
    assert digest == RECURRENT_SPEC_SHA256[name, optimizer]
