"""A reshape op and the dot product built from it, for the tape and gradient tests.

deepself's own ops need no general reshape, so the tests keep theirs here.
Like ``cnn_to_rnn_reshape``'s, its backward returns a view of its output's
gradient, which the tape tests rely on.
"""

import numpy as np

from deepself import tensor as T
from deepself.tensor import Tensor


def reshape(x: Tensor, shape) -> Tensor:
    """``x`` viewed as ``shape``, recorded on the tape as one ``reshape`` op."""
    in_shape = x.shape
    return T._make_result("reshape", x.data.reshape(shape), (x,), lambda g: (g.reshape(in_shape),))


def dot(a: Tensor, b: Tensor) -> Tensor:
    """Scalar sum of a * b over all elements, composed from linear and reshape."""
    return T.linear(reshape(a, (1, -1)), reshape(b, (-1, 1)), Tensor(np.zeros(1, dtype=a.dtype)))
