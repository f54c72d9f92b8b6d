"""Write the recurrent checkpoint fixtures that test_checkpoint_compat.py reads.

The committed files were written by commit c82fafa, the last one whose
recurrent layers ran per-time-step cells, so the test pins the fused kernels
to that implementation's checkpoints and logits.  Run from the repository
root:

    PYTHONPATH=src python tests/data/make_recurrent_checkpoints.py
"""

import os

import numpy as np

from deepself.models import ModelSpec, Recurrent, forward, init_model
from deepself.tensor import no_grad
from deepself.training import TrainConfig, save_checkpoint, train

HERE = os.path.dirname(os.path.abspath(__file__))

FIXTURES = {
    "bilstm": ModelSpec((6, 4), (Recurrent("lstm", 5, 1, "bi"),), 3, seed=21),
    "bigru2": ModelSpec((7, 3), (Recurrent("gru", 4, 2, "bi"),), 2, seed=22),
}


def train_fixture(name, optimizer="adam", epochs=3):
    """Train fixture ``name`` from its seed; returns (best model, checkpoint metadata, dev inputs)."""
    return train_spec(FIXTURES[name], optimizer, epochs)


def train_spec(spec, optimizer="adam", epochs=3):
    """Train ``spec`` from its seed on 32 random samples, 8 more for dev; returns as ``train_fixture``."""
    rng = np.random.default_rng(spec.seed)
    x = rng.standard_normal((40, *spec.input_shape)).astype(np.float32)
    y = rng.integers(0, spec.n_classes, size=40)
    config = TrainConfig(learning_rate=0.05, batch_size=8, epochs=epochs, optimizer=optimizer, seed=spec.seed)
    model, _ = train(init_model(spec), (x[:32], y[:32]), (x[32:], y[32:]), config)
    classes = ",".join(f"c{i}" for i in range(spec.n_classes))
    return model, {"classes": classes, "model_type": "rnn"}, x[32:]


def main():
    for name in FIXTURES:
        model, metadata, x_dev = train_fixture(name)
        save_checkpoint(model, metadata, os.path.join(HERE, f"{name}.ckpt"))
        with no_grad():
            logits, _ = forward(model, x_dev)
        np.savez(os.path.join(HERE, f"{name}_dev.npz"), x=x_dev, logits=logits.data)


if __name__ == "__main__":
    main()
