import math

import numpy as np
import pytest

from qutritsim.majorana import SpherePoint, SpherePointPair


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def degenerate_pairs(rng):
    """Pairs where the Majorana quadratic degenerates: both points on one
    pole (|+1>, |-1>), coincident points (spin-coherent states, a double
    root) and antipodal points."""
    north, south = SpherePoint(0.0, 0.0), SpherePoint(math.pi, 0.0)
    pairs = [SpherePointPair(north, north), SpherePointPair(south, south)]
    for _ in range(100):
        t, f = math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2 * math.pi)
        p = SpherePoint(t, f)
        pairs += [SpherePointPair(p, p), SpherePointPair(p, SpherePoint(math.pi - t, f + math.pi))]
    return pairs


@pytest.fixture
def near_coincident_pairs(rng):
    """(separation, pair) for point pairs 1e-8 to 1e-6 rad apart, centred at
    the poles, next to them and at three other latitudes, split along a
    random direction. Double roots are ill-conditioned: the roots of a
    quadratic whose discriminant carries roundoff eps move by sqrt(eps)."""
    out = []
    for sep in (1e-8, 5e-8, 1e-7, 1.3e-7, 2e-7, 3e-7, 1e-6):
        for t in (0.0, 1e-6, math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi - 1e-6, math.pi):
            for _ in range(2):
                f = rng.uniform(0.0, 2 * math.pi)
                c = np.array([math.sin(t) * math.cos(f), math.sin(t) * math.sin(f), math.cos(t)])
                d = rng.standard_normal(3)
                d -= d.dot(c) * c
                d /= np.linalg.norm(d)
                h = 0.5 * sep
                p1 = SpherePoint.from_cartesian(math.cos(h) * c + math.sin(h) * d)
                p2 = SpherePoint.from_cartesian(math.cos(h) * c - math.sin(h) * d)
                out.append((sep, SpherePointPair(p1, p2)))
    return out
