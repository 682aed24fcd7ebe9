"""The 3-vector helpers against their ``np.cross`` forms."""
import math

import numpy as np

from ksurf.vectors import angle_between, cross, rotate_about, unit


def test_helpers_give_the_bits_of_their_np_cross_forms():
    rng = np.random.default_rng(5)
    for _ in range(2000):
        v, axis, b = rng.standard_normal((3, 3)) * rng.choice([1e-3, 1.0, 1e3], (3, 1))
        angle = float(rng.uniform(-math.pi, math.pi))
        assert cross(v, b).tobytes() == np.cross(v, b).tobytes()
        k = unit(axis)
        c, s = math.cos(angle), math.sin(angle)
        rodrigues = v * c + np.cross(k, v) * s + k * float(k @ v) * (1.0 - c)
        assert rotate_about(v, axis, angle).tobytes() == rodrigues.tobytes()
        cr = np.cross(v, b)
        assert angle_between(v, b) == math.atan2(math.sqrt(float(cr @ cr)), float(v @ b))
