"""Exact lattice polyhedra: normality, normal location, normal fans,
fiber polyhedra of lattice projections, and GIT fans."""

from .errors import (DimensionMismatch, EmptyPolyhedron, NormlocError,
                     NotFullDimensional, NotLattice, NotPointed,
                     RealizationError, SupportMismatch, TailConeMismatch,
                     Unbounded, WeightOutsideCone, ZeroVector)
from .fans import (Cone, Fan, common_refinement, cone_from_generators,
                   cone_from_h, dual_cone, fan_from_cones, intersect_cones,
                   is_face, is_fan, normal_fan, refines, support)
from .gitfan import (CrossCheckReport, GitFan, GradedProjection,
                     RealizedPair, fiber, fiber_point_sum_exact,
                     fiber_sum_exact, git_cone, git_fan, graded_projection,
                     is_generating_candidate, located_multiple_search,
                     multiple_making_sums_exact, normal_fan_refines,
                     realize_pair, refinement_iff_interior, weight_cone)
from .kernels import backend
from .latpoints import (LatticePointSet, LocationReport, decompose,
                        enumerate_points, enumerate_windowed, is_normal,
                        normally_located)
from .polyhedra import (Polyhedron, from_h, from_v, minkowski_sum,
                        polyhedron_from_dict, polyhedron_to_dict, scale,
                        translate)
from .reps import HRep, VRep, Witness

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
