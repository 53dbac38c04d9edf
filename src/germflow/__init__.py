"""Plane branch germs: exact resolution, equisingularity and verified isotopies."""

from .branch import Branch, eval_branch, normalize_branch, parse_branch, parse_branch_file
from .bivar import BivarPoly, implicitize, parse_poly, poly_on_branch, poly_to_text
from .invariants import (CharExponents, EquisingularityVerdict, InvariantSet,
                         char_exponents, delta_from_mult, equisingular, invariant_set,
                         mult_seq_from_char, semigroup)
from .isotopy import (FlowReport, GraphMatch, IsotopyPlan, Multiplicative, Shear,
                      apply_plan, build_plan, integrate_flow, lift_point,
                      pushdown_point, verify_isotopy)
from .puiseux import newton_puiseux
from .resolution import (ChartState, DualGraph, ResolutionData, StepRecord,
                         blowup_step, dual_graph, resolve)
from .series import TruncatedSeries

__version__ = "0.1.0"
