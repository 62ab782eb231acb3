"""Diffusion weights, weighted Poincare inequalities and Fokker-Planck
relaxation rates for isotropic probability densities."""

from .densities import (
    Density1D,
    IsotropicDensity,
    RadialMarginal,
    closed_form_weight,
    full_line_density,
    make_density,
    parse_density_spec,
    radial_marginal,
    sin_power_density,
    surface_measure,
    uniform_angle_density,
)
from .weights import (
    WeightError,
    WeightFunction,
    angular_weight,
    composite_Wstar,
    critical_tail_radius,
    gamma_radial_weight,
    hybrid_weight,
    optimal_barenblatt_weight,
    optimal_cauchy_weight,
    p_weight_1d,
    p_weight_function,
    steady_state_residual,
    weight_from_density,
)
from .quadrature import (
    HypersphericalGrid,
    QuadratureError,
    TestFunction,
    build_grid,
    grid_moments,
    integrate_interval,
    interval_rule,
)
from .corpus import (
    corpus_1d,
    corpus_anisotropic,
    corpus_nd,
    corpus_outside_ball,
    corpus_product,
)
from .inequality import (
    InequalityReport,
    check_gaussian_anisotropic,
    check_hybrid,
    check_isotropic_Wstar,
    check_poincare_1d,
    check_product,
    check_refined_outside_ball,
    summarize_reports,
)
from .fpsolver import (
    DecayTrace,
    FPState,
    RadialGrid,
    Solver,
    SolverError,
    TruncationError,
    build_solver,
    fit_decay_rate,
    make_radial_grid,
    perturbed_initial_state,
    verify_hellinger_decay,
)

__version__ = "0.1.0"
