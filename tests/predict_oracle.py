"""The one-forward-per-batch loop that ``training.predict_batches`` replaced, kept as its test oracle.

Every forward sees ``batch_size`` rows: the last, partial batch is padded
with zero rows, cut off again afterwards.  No samples still run one
all-padding batch.
"""

import numpy as np

from deepself.models import forward
from deepself.tensor import no_grad


def oracle_predict_batches(model, features, batch_size):
    """Labels and probabilities for ``features``, one no-grad forward per batch."""
    features = np.asarray(features)
    out_labels, out_probs = [], []
    with no_grad():
        for start in range(0, max(features.shape[0], 1), batch_size):
            batch = features[start:start + batch_size]
            rows = batch.shape[0]
            if rows < batch_size:
                batch = np.pad(batch, ((0, batch_size - rows),) + ((0, 0),) * (batch.ndim - 1))
            _, probs = forward(model, batch)
            out_probs.append(probs.data[:rows])
            out_labels.append(np.argmax(out_probs[-1], axis=1))
    return np.concatenate(out_labels), np.concatenate(out_probs)
