"""Small 3-vector helpers shared across the package.

Vectors are plain numpy arrays of shape (3,), dtype float64.
"""
from __future__ import annotations

import math

import numpy as np

Vec3 = np.ndarray


def vec(x: float, y: float, z: float) -> Vec3:
    return np.array([x, y, z], dtype=float)


def norm(v: Vec3) -> float:
    return math.sqrt(float(v @ v))


def unit(v: Vec3) -> Vec3:
    n = norm(v)
    if n == 0.0:
        raise ValueError("cannot normalize a zero vector")
    return v / n


_NEXT = [1, 2, 0]
_LAST = [2, 0, 1]


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a x b with the products and differences of ``np.cross``.

    Same bits as ``np.cross`` on (..., 3) arrays, without its per-call
    axis handling, which dominates on short rows.
    """
    return a[..., _NEXT] * b[..., _LAST] - a[..., _LAST] * b[..., _NEXT]


def rotate_about(v: Vec3, axis: Vec3, angle: float) -> Vec3:
    """Rotate ``v`` by ``angle`` (counterclockwise) about the unit vector ``axis``.

    Rodrigues formula: v cos(t) + (k x v) sin(t) + k <k, v> (1 - cos(t)),
    in the operations of its array form with ``cross``, on Python floats:
    numpy's per-call cost is most of the time on one 3-vector. Only the dot
    <k, v> stays a numpy dot, as in ``unit``: numpy's dot (BLAS ``ddot``)
    rounds differently from a Python sum of three products on about a third
    of random inputs.
    """
    k = unit(axis)
    kv = float(k @ v)
    c = math.cos(angle)
    s = math.sin(angle)
    kx, ky, kz = k.tolist()
    vx, vy, vz = v.tolist()
    return np.array([vx * c + (ky * vz - kz * vy) * s + kx * kv * (1.0 - c),
                     vy * c + (kz * vx - kx * vz) * s + ky * kv * (1.0 - c),
                     vz * c + (kx * vy - ky * vx) * s + kz * kv * (1.0 - c)])


def angle_between(a: Vec3, b: Vec3) -> float:
    """Unsigned angle in [0, pi] between two nonzero vectors."""
    cr = cross(a, b)
    return math.atan2(norm(cr), float(a @ b))
