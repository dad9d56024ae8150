"""Comparisons shared by the test modules."""

import math

import numpy as np


def bitwise_equal(x, y) -> bool:
    """Same shape, same values (NaN equal to NaN) and the same sign bits of the real parts."""
    x, y = np.asarray(x), np.asarray(y)
    return (x.shape == y.shape and np.array_equal(x, y, equal_nan=True)
            and np.array_equal(np.signbit(x.real), np.signbit(y.real)))


def same_float(x: float, y: float) -> bool:
    """Equal floats with equal signs (so 0.0 is not -0.0), or both NaN."""
    return (math.isnan(x) and math.isnan(y)) or (
        x == y and math.copysign(1.0, x) == math.copysign(1.0, y))


def rel_dev(X, Y) -> float:
    """Largest entry deviation of X from Y, relative to the largest entry of either."""
    return float(np.max(np.abs(X - Y)) / max(np.max(np.abs(X)), np.max(np.abs(Y))))
