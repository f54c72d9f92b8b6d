"""Checkpoints written by earlier implementations still load, agree and retrain.

``tests/data`` holds a bi-LSTM and a 2-layer bi-GRU checkpoint, plus dev
inputs and logits, written by the per-time-step implementation (see
``tests/data/make_recurrent_checkpoints.py``), and a 1-D and a 2-D CNN
checkpoint trained while the conv backward scattered with ``np.add.at`` (see
``tests/data/make_conv_checkpoints.py``).
"""

import importlib.util
import os

import numpy as np
import pytest

from deepself.models import forward
from deepself.tensor import no_grad
from deepself.training import CHECKPOINT_VERSION, load_checkpoint, read_checkpoint, save_checkpoint

DATA = os.path.join(os.path.dirname(__file__), "data")


def _load_conv_fixtures():
    spec = importlib.util.spec_from_file_location(
        "make_conv_checkpoints", os.path.join(DATA, "make_conv_checkpoints.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


conv_fixtures = _load_conv_fixtures()


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
        assert set(model.params) == FIXTURES[name]

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
