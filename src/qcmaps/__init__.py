"""Numerical constructions of quasiconformal maps in R^n (n >= 3).

Modules:

- ``kernels``: batched numpy hot loops (Zorich map and its inverse,
  canonicalization, spiral transform and its Jacobian); each takes one
  (n,) point or an (m, n) batch and checks its shape.
- ``zorich``: fundamental-set samples, the quotient metric and the
  conjugation residual of the cube-chart Zorich map.
- ``canonical_maps``: radial stretch, radial interpolation and spiral
  stretch, one y-space entry per family, their log-coordinate shifts, and
  spiral-rate selection.
- ``distortion``: finite-difference Jacobians and linear distortion on one
  point or a batch, and the chart bilipschitz form.
- ``realizer``: waypoint path planning, shell-map assembly, evaluation,
  mean radius, orbit tables, Hausdorff distances.
- ``vecgeom``: small-n helpers (validation, frames, rotations, sphere
  directions).
- ``cli``: the ``qcmaps`` command (verify / realize / probe).
"""

from . import canonical_maps, distortion, kernels, realizer, vecgeom, zorich
from .canonical_maps import (
    InterpSpec,
    SpiralSpec,
    StretchSpec,
    interp_stretch,
    oriented_stretch,
    select_alpha,
    spiral_stretch,
)
from .distortion import (
    bilipschitz_form,
    finite_diff_jacobian,
    linear_distortion_numeric,
)
from .realizer import (
    ArcSegment,
    RadialSegment,
    RealizedMap,
    ShellPiece,
    TargetSet,
    build_map,
    eval_map_batch,
    hausdorff_distance,
    mean_radius_batch,
    orbit_table,
    plan_paths,
)
from .vecgeom import frame_from_direction, planar_rotation
from .zorich import composition_residual, quotient_distance_batch

__version__ = "0.1.0"
