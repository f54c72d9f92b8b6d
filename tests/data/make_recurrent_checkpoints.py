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


def main():
    for name, spec in FIXTURES.items():
        rng = np.random.default_rng(spec.seed)
        x = rng.standard_normal((40, *spec.input_shape)).astype(np.float32)
        y = rng.integers(0, spec.n_classes, size=40)
        model = init_model(spec)
        config = TrainConfig(learning_rate=0.05, batch_size=8, epochs=3, seed=spec.seed)
        model, _ = train(model, (x[:32], y[:32]), (x[32:], y[32:]), config)
        classes = ",".join(f"c{i}" for i in range(spec.n_classes))
        save_checkpoint(model, {"classes": classes, "model_type": "rnn"},
                        os.path.join(HERE, f"{name}.ckpt"))
        with no_grad():
            logits, _ = forward(model, x[32:])
        np.savez(os.path.join(HERE, f"{name}_dev.npz"), x=x[32:], logits=logits.data)


if __name__ == "__main__":
    main()
