"""Self-dual Taub-NUT geometry: exact tensors, geodesic integration,
closed-form geodesic families, and a numeric-vs-analytic verification harness."""

from .analytic import (
    FAMILIES,
    MODES,
    FamilyConstants,
    TurningRadius,
    classify,
    curve_derivatives,
    curves,
    default_invert_mode,
    default_mode,
    family_from_json,
    family_to_json,
    family_velocities,
    invert_t_of_r,
    radial_passthrough,
    stitched_coords,
    theta_range_exit,
    thm1_t_of_r,
    turning_radius,
)
from .errors import (
    AxisError,
    ConfigError,
    DegenerateError,
    DomainError,
    NotAGeodesic,
    RangeError,
    TaubnutError,
)
from .geometry import (
    COORDS,
    DUALITY_SIGN,
    ModelParams,
    Point,
    christoffel_at,
    christoffel_fd_oracle,
    curvature_fd,
    duality_residual,
    frame_at,
    frame_riemann_fd,
    inverse_metric_at,
    metric_at,
    ricci_fd,
    riemann_fd,
    self_duality_residual,
)
from .integrator import (
    TERMINATIONS,
    IntegrationConfig,
    PhaseState,
    Trajectory,
    geodesic_rhs,
    integrate,
    killing_charges,
    norm,
    trajectory_from_csv,
    trajectory_to_csv,
)
from .verify import (
    SCENARIOS,
    SCHEMA,
    compare_numeric_analytic,
    curvature_audit,
    derivative_sweep,
    report_to_json,
    run_scenario,
    seeded_family,
)

__version__ = "0.1.0"
