"""Exact capacity computation and capacity-achieving code construction for
distributed sum computation over entangled servers."""

from .capacity import (CapacityResult, beta_star, capacity_fullent,
                       capacity_lp, capacity_symmetric, capacity_unent)
from .field import Extension, Field, FieldError, extend_field, field_construct
from .matrix import Mat, MatrixError
from .model import (Problem, ProblemError, beta_cliques, concat_problems,
                    full_clique, merged_map, parse_problem, render_problem,
                    singleton_cliques, symmetric_problem, triangle_substitute)
from .nsumbox import BoxError, build_half_mds_box, is_valid_box
from .scheme import (Allocation, CodingScheme, SchemeError, build_scheme,
                     worked_reference_scheme, parse_scheme, reference_problem,
                     render_scheme, simulate, simulate_batch, true_sum)

__version__ = "0.1.0"
