"""Numerical constructions of quasiconformal maps in R^n (n >= 3).

Modules:

- ``vecgeom``: small-n dense kernel (singular values, frames, rotations).
- ``zorich``: cube-chart Zorich map, fundamental set, conjugation evaluator.
- ``canonical_maps``: radial stretch, radial interpolation, spiral stretch,
  their log-coordinate transforms, analytic Jacobians, spiral-rate selection.
- ``distortion``: finite differences, dilatation/linear-distortion reports,
  the chart bilipschitz form, and a generic grid-sweep helper.
- ``realizer``: waypoint path planning, shell-map assembly, mean radius,
  rescaled orbit curves, Hausdorff distances.
- ``kernels``: batched numpy hot loops (Zorich map, canonicalization,
  spiral transform and its Jacobian).
- ``cli``: the ``qcmaps`` command (verify / realize / probe).
"""

from . import canonical_maps, distortion, kernels, realizer, vecgeom, zorich
from .canonical_maps import (
    InterpSpec,
    SpiralSpec,
    StretchSpec,
    interp_stretch,
    interp_stretch_transform,
    oriented_stretch,
    radial_stretch,
    radial_stretch_transform,
    select_alpha,
    spiral_stretch,
    spiral_stretch_transform,
    spiral_transform_jacobian_analytic,
)
from .distortion import (
    DistortionReport,
    bilipschitz_form,
    distortion_report,
    finite_diff_jacobian,
    grid_verify,
    linear_distortion_numeric,
)
from .realizer import (
    ArcSegment,
    RadialSegment,
    RealizedMap,
    ShellPiece,
    TargetSet,
    build_map,
    eval_map,
    hausdorff_distance,
    mean_radius,
    orbit_curve,
    plan_paths,
    rescaled_map,
)
from .vecgeom import (
    frame_from_direction,
    great_circle_angle,
    planar_rotation,
    svd_small,
)
from .zorich import (
    FundamentalPoint,
    canonicalize,
    composition_residual,
    quotient_distance,
    sphere_chart,
    transform_eval,
    zorich_forward,
    zorich_inverse,
)

__version__ = "0.1.0"
