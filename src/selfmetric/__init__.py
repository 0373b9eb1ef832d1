"""Self-perimeters and self-volumes of convex bodies, measured in their own gauge."""

from .geometry import (
    BarycentricPoint,
    DegenerateSectionError,
    GeometryError,
    NotInteriorError,
    Polygon2,
    PolytopeN,
    RadiusProfile,
    central_section,
    cube,
    icosphere,
    interval,
    polygon_as_polytope,
    regular_polygon,
)
from .perimeter2 import (
    Perimeter2Result,
    busemann_perimeter_polygon,
    kgon_self_perimeter,
    self_perimeter_polygon,
    self_perimeter_smooth,
    smooth_density,
    triangle_perimeters,
)
from .selfvolume import (
    FacetContribution,
    SelfVolumeResult,
    affine_image,
    cartesian_product,
    hypercube_self_volume,
    self_volume_recursive,
    simplex_self_volume,
)
from .centers import (
    CenterResult,
    ConvergenceError,
    ConvexityReport,
    convexity_probe,
    grunbaum_bound_check,
    optimal_center_2d,
    optimal_centers_2d,
    optimal_simplex_center,
)
from .alexandrov import (
    ClosureError,
    FourierDensity,
    FourierDensityError,
    Phi0Result,
    ReconstructionResult,
    SurfaceMeasure,
    circle_grid,
    forward_measure,
    leading_order,
    quarter_shift_difference,
    reconstruct,
    second_order,
    shift_eigenvalue,
    solve_phi0,
    split_harmonics,
    sqrt_imbalance,
)

__version__ = "0.1.0"
