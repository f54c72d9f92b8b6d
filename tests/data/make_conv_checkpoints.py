"""Write the conv checkpoint fixtures that test_checkpoint_compat.py retrains.

The committed files were written by commit 5f06a5b, the last one whose conv
backward scattered window gradients with ``np.add.at``, so the test pins the
strided col2im to that implementation's training, byte for byte.  Run from
the repository root:

    PYTHONPATH=src python tests/data/make_conv_checkpoints.py
"""

import os

import numpy as np

from deepself.models import Conv, ModelSpec, init_model
from deepself.training import TrainConfig, save_checkpoint, train

HERE = os.path.dirname(os.path.abspath(__file__))

FIXTURES = {
    # the benchmark's 1-D stack: k8 s4 then k4 s4, 64 -> 15 -> 3
    "conv1d": ModelSpec((1, 64), (Conv(1, 4, (8,), (4,), (0,)), Conv(1, 6, (4,), (4,), (0,))), 3, seed=31),
    # overlapping, padded 2-D windows: 9x10 -> 5x5 -> 3x3
    "conv2d": ModelSpec((2, 9, 10), (Conv(2, 4, (3, 3), (2, 2), (1, 1)), Conv(2, 5, (3, 3), (2, 2), (1, 1))),
                        2, seed=32),
}


def train_fixture(name):
    """Train fixture ``name`` from its seed; returns (best model, checkpoint metadata)."""
    spec = FIXTURES[name]
    rng = np.random.default_rng(spec.seed)
    x = rng.standard_normal((40, *spec.input_shape)).astype(np.float32)
    y = rng.integers(0, spec.n_classes, size=40)
    config = TrainConfig(learning_rate=0.05, batch_size=8, epochs=3, seed=spec.seed)
    model, _ = train(init_model(spec), (x[:32], y[:32]), (x[32:], y[32:]), config)
    classes = ",".join(f"c{i}" for i in range(spec.n_classes))
    return model, {"classes": classes, "model_type": "cnn"}


def main():
    for name in FIXTURES:
        model, metadata = train_fixture(name)
        save_checkpoint(model, metadata, os.path.join(HERE, f"{name}.ckpt"))


if __name__ == "__main__":
    main()
