"""First-passage-time distributions of Brownian motion for piecewise-linear
boundaries, and the inverse problem: constructing a boundary whose block
hitting probabilities reproduce a prescribed target density.
"""

from .core import (
    BlockSolveRecord,
    BoundarySide,
    ConvergenceError,
    DyadicGrid,
    InfeasibleTargetError,
    NumericalConsistencyError,
    PiecewiseLinearBoundary,
    SubDensity,
    TargetDistribution,
    ValidationError,
    block_mass,
    exponential_target,
    read_boundary_csv,
    read_target_csv,
    tabulated_target,
    uniform_target,
    validate_target,
    write_boundary_csv,
)
from .closed_form import (
    AndersonParams,
    LinearSegment,
    anderson_two_sided_density,
    constant_boundary_cdf,
    linear_boundary_cdf,
    linear_fpt_density,
    linear_transition_kernel,
    symmetric_linear_density,
)
from .forward import (
    FptTable,
    fpt_distribution_table,
    subdensities,
)
from .inverse import (
    InverseSolution,
    RefinementReport,
    construct_boundary,
    refine,
    solve_block,
    solve_first_block,
)
from .montecarlo import (
    EmpiricalHittingDistribution,
    SimConfig,
    brute_force_block_check,
    ks_block_distance,
    ks_threshold,
    simulate_hitting_times,
)

__version__ = "0.1.0"

__all__ = [
    "AndersonParams",
    "BlockSolveRecord",
    "BoundarySide",
    "ConvergenceError",
    "DyadicGrid",
    "EmpiricalHittingDistribution",
    "FptTable",
    "InfeasibleTargetError",
    "InverseSolution",
    "LinearSegment",
    "NumericalConsistencyError",
    "PiecewiseLinearBoundary",
    "RefinementReport",
    "SimConfig",
    "SubDensity",
    "TargetDistribution",
    "ValidationError",
    "anderson_two_sided_density",
    "block_mass",
    "brute_force_block_check",
    "constant_boundary_cdf",
    "construct_boundary",
    "exponential_target",
    "fpt_distribution_table",
    "ks_block_distance",
    "ks_threshold",
    "linear_boundary_cdf",
    "linear_fpt_density",
    "linear_transition_kernel",
    "read_boundary_csv",
    "read_target_csv",
    "refine",
    "simulate_hitting_times",
    "solve_block",
    "solve_first_block",
    "subdensities",
    "symmetric_linear_density",
    "tabulated_target",
    "uniform_target",
    "validate_target",
    "write_boundary_csv",
]
