import itertools

import numpy as np
import pytest

from ifpt import (
    LinearSegment,
    PiecewiseLinearBoundary,
    TargetDistribution,
    linear_boundary_cdf,
    linear_fpt_density,
    subdensities,
)
from ifpt.forward import crossing_mass


def make_line_target(slope: float, level: float) -> TargetDistribution:
    """Hitting-time law of the linear boundary level + slope*t as a target."""
    seg = LinearSegment(slope, level)

    def density(t):
        t = np.asarray(t, dtype=float)
        out = linear_fpt_density(seg, np.maximum(t, 1e-9))
        return np.where(t < 1e-9, 0.0, out)

    def cdf(t):
        return linear_boundary_cdf(seg, t)

    return TargetDistribution(density=density, cdf=cdf, kind="custom")


def block_crossing_mass(b: PiecewiseLinearBoundary, m: int) -> float:
    """Probability that the first crossing of ``b`` falls in block m >= 1:
    ``crossing_mass`` on the state at knot m, the m-th from ``subdensities``."""
    state = next(itertools.islice(subdensities(b), m - 1, None))
    g0, dt = float(b.knot_values[m]), b.grid.block_width
    return crossing_mass(state, g0, g0 + float(b.slopes[m]) * dt, dt, b.side)[0]


@pytest.fixture
def line_target():
    return make_line_target


@pytest.fixture
def block_crossing():
    return block_crossing_mass
