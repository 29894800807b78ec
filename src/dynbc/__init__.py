"""Spectral solver, Monte Carlo simulator and boundary-control harness for
the 1-D stochastic heat equation with dynamical boundary conditions."""

from .control import (
    AdmissibleSet,
    BenchmarkBundle,
    ComparisonReport,
    ConstantPolicy,
    ControlProblem,
    FeedbackPolicy,
    NestedMCGradient,
    OpenLoopPolicy,
    TerminalProxyGradient,
    ZeroGradient,
    ZeroPolicy,
    ball,
    benchmark_bundle,
    boundary_costate,
    boundary_immersion,
    compare_policies,
    constant_grid_policies,
    hamiltonian,
    hamiltonian_argmin,
)
from .quadrature import QuadratureRule, gauss_legendre_rule
from .semigroup import (
    GridState,
    apply_semigroup,
    energy_form,
    hs_norm_sq,
    mode_grid_state,
    project,
    reconstruct,
)
from .spde import (
    Coefficients,
    EnsembleStats,
    PathRecord,
    SimConfig,
    ensemble_stats,
    galerkin_diffusion,
    galerkin_drift,
    named_coefficients,
    path_increments,
    simulate_path,
    step_exp_euler,
    terminal_states,
    time_grid,
)
from .spectral import (
    BoundaryParams,
    EigenBasis,
    EigenMode,
    build_basis,
    build_mode,
    characteristic_determinant,
    characteristic_regularized,
    dirichlet_gap,
    find_eigenvalues,
    normalization_bound,
)

__version__ = "0.1.0"
