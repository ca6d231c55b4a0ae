"""Small numeric kernels shared by the reasoning, scoring and training modules."""
from __future__ import annotations

import numpy as np


def sigmoid(x):
    """Overflow-safe logistic function; scalars in, float out."""
    arr = np.asarray(x, dtype=np.float64)
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    ex = np.exp(arr[~pos])
    out[~pos] = ex / (1.0 + ex)
    if out.ndim == 0:
        return float(out)
    return out


def stable_softmax(x: np.ndarray) -> np.ndarray:
    """Softmax with max-shift; invariant to adding a constant to every input."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.size == 0:
        return np.zeros(0)
    ex = np.exp(arr - arr.max())
    return ex / ex.sum()


def glorot_uniform(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-bound, bound, size=(rows, cols))


def leaky_relu(x: np.ndarray, slope: float) -> np.ndarray:
    return np.where(x > 0, x, slope * x)


def leaky_relu_grad(x: np.ndarray, slope: float) -> np.ndarray:
    return np.where(x > 0, 1.0, slope)


def scatter_add_rows(target: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """target[rows[i]] += values[i] for each i in order, repeated rows included.

    Bitwise equal to ``np.add.at(target, rows, values)`` on a C-contiguous
    2-d target, but runs the faster 1-d form of ``np.add.at``.
    """
    if not target.flags.c_contiguous:
        raise ValueError("scatter target must be C-contiguous")
    width = target.shape[1]
    flat_index = (rows[:, None] * width + np.arange(width)).reshape(-1)
    np.add.at(target.reshape(-1), flat_index, values.reshape(-1))
