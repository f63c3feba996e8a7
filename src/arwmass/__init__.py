"""Mass of a cosmological spacetime at its future singularity.

The package works with warped ambient metrics ds^2 = e^{2(f + psi)}
(-dtau^2 + sigma) on [a, 0) x S^n and computes the mass-type invariant
obtained by integrating G(nu, nu) e^{omega f} e^{psi} over hypersurfaces
approaching tau = 0, together with the supporting machinery: symbolic
expressions, curvature, graph hypersurfaces, an inverse mean curvature
flow reduction, and the Schwarzschild-anti-de-Sitter worked example.
"""

from .expr import Expression, ExpressionError, ParseError, parse
from .fields import ExprField, TimeFunction, as_expression, as_time_function
from .geometry import (
    ARWSpec,
    GeometryError,
    SpacetimeMetric,
    arw_validate,
    make_spec,
    quadrature_grid,
    rw_family_spec,
    sphere_volume,
)
from .curvature import conformal_residuals, curvature_at
from .hypersurface import (
    GraphHypersurface,
    HypersurfaceError,
    gauss_codazzi_residuals,
    graph_geometry,
)
from .mass import (
    MassReport,
    mass_limit,
    monotonicity_scan,
    normalize,
    reparametrize_time,
    slab_balance,
    slice_mass_integral,
    tcc_check,
)
from .imcf import FlowError, flow_diagnostics, flow_leaves, imcf_run, mass_along_flow
from .sads import SAdSParams, as_arw_spec, horizon

__version__ = "0.1.0"

__all__ = [
    "ARWSpec",
    "Expression",
    "ExpressionError",
    "ExprField",
    "FlowError",
    "GeometryError",
    "GraphHypersurface",
    "HypersurfaceError",
    "MassReport",
    "ParseError",
    "SAdSParams",
    "SpacetimeMetric",
    "TimeFunction",
    "arw_validate",
    "as_arw_spec",
    "as_expression",
    "as_time_function",
    "conformal_residuals",
    "curvature_at",
    "flow_diagnostics",
    "flow_leaves",
    "gauss_codazzi_residuals",
    "graph_geometry",
    "horizon",
    "imcf_run",
    "make_spec",
    "mass_along_flow",
    "mass_limit",
    "monotonicity_scan",
    "normalize",
    "parse",
    "quadrature_grid",
    "reparametrize_time",
    "rw_family_spec",
    "slab_balance",
    "slice_mass_integral",
    "sphere_volume",
    "tcc_check",
    "__version__",
]
