"""Small numeric kernels shared by the reasoning, scoring and training modules."""
from __future__ import annotations

import numpy as np


def sigmoid(x):
    """Overflow-safe logistic function; scalars in, float out."""
    arr = np.asarray(x, dtype=np.float64)
    ex = np.exp(-np.abs(arr))
    out = np.where(arr >= 0, 1.0, ex) / (1.0 + ex)
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


def segment_softmax(values: np.ndarray, segments: np.ndarray) -> np.ndarray:
    """stable_softmax within every run of equal segment ids; the runs must
    be contiguous."""
    if not len(values):
        return np.zeros(0)
    starts = np.flatnonzero(np.concatenate(([True], segments[1:] != segments[:-1])))
    lengths = np.concatenate((starts[1:], [len(values)])) - starts
    ex = np.exp(values - np.repeat(np.maximum.reduceat(values, starts), lengths))
    return ex / np.repeat(np.add.reduceat(ex, starts), lengths)


def segment_rows(values: np.ndarray, segments: np.ndarray, n_segments: int) -> np.ndarray:
    """(n_segments, width) sums of the rows of every segment; segments must
    be ascending, and a segment without rows sums to zero."""
    out = np.zeros((n_segments, values.shape[1]))
    bounds = np.searchsorted(segments, np.arange(n_segments + 1))
    filled = bounds[:-1] < bounds[1:]
    if filled.any():
        out[filled] = np.add.reduceat(values, bounds[:-1][filled], axis=0)
    return out
