"""Free Lie algebra machinery for small-time local controllability analysis.

The package is organized around one pipeline:

* :mod:`lietool.trees`, :mod:`lietool.words` - exact bracket trees and the
  truncated tensor algebra;
* :mod:`lietool.hall` - the trailing-zero-adapted Hall basis, enumeration and
  exact decomposition;
* :mod:`lietool.controls`, :mod:`lietool.coord` - exact piecewise-polynomial
  and sampled controls and their iterated-integral coordinates (one
  recursion for both);
* :mod:`lietool.expansions` - state expansions (piece-exponential products
  and the interaction-picture logarithm for piecewise-constant inputs,
  ordered Hall-exponential products and Sussmann's product for eta on every
  control, cross terms);
* :mod:`lietool.fields`, :mod:`lietool.zoo` - polynomial vector fields,
  bracket evaluation at the origin, benchmark systems;
* :mod:`lietool.conditions` - span-membership checkers for the published
  necessary conditions and the bracket-weight screen;
* :mod:`lietool.simulate` - Runge-Kutta integration, truncated-expansion
  residuals, drift-inequality scans.
"""

from .conditions import (Caps, ConditionReport, ag_screen, ag_weight,
                         check_n2, check_n3, check_sextic,
                         check_sussmann_stefani, check_wk_cubic_screen,
                         check_wk_loose, component_functional, family_layers,
                         family_loose, family_n2, family_n3, family_s1,
                         family_sextic, neutral_span, pi_threshold)
from .controls import (PiecewisePolyControl, Poly, SampledControl,
                       load_control, primitive)
from .coord import chen_coefficient, check_inequalities, xi, xi_closed_form
from .expansions import (cross_term_check, eta_by_product, formal_state,
                         interaction_log, magnus_log, ordered_product,
                         verify_expansions)
from .fields import (PolyVectorField, SystemDef, eval_bracket, eval_lie,
                     load_system, vf_bracket)
from .hall import (HallElement, LieElement, basis_of_bidegree, decompose,
                   enumerate_basis, hall_compare, is_hall, lie_bracket)
from .simulate import (Trajectory, drift_scan, integrate,
                       pure_counterexample_check, residual_scaling_slope,
                       zm_state)
from .trees import BracketTree, parse_tree
from .words import TensorSeries, expand_to_words
from .zoo import zoo, zoo_names

__version__ = "0.1.0"

__all__ = [
    "BracketTree", "Caps", "ConditionReport", "HallElement", "LieElement",
    "PiecewisePolyControl", "Poly", "PolyVectorField", "SampledControl",
    "SystemDef", "TensorSeries", "Trajectory", "ag_screen", "ag_weight",
    "basis_of_bidegree", "check_inequalities", "check_n2", "check_n3",
    "check_sextic", "check_sussmann_stefani", "check_wk_cubic_screen",
    "check_wk_loose", "chen_coefficient", "component_functional",
    "cross_term_check", "decompose", "drift_scan", "enumerate_basis",
    "eta_by_product", "eval_bracket", "eval_lie", "expand_to_words",
    "family_layers",
    "family_loose", "family_n2", "family_n3", "family_s1", "family_sextic", "formal_state", "hall_compare",
    "integrate", "interaction_log", "is_hall", "lie_bracket", "load_control",
    "load_system", "magnus_log", "neutral_span", "ordered_product",
    "parse_tree", "pi_threshold", "primitive",
    "pure_counterexample_check",
    "residual_scaling_slope", "verify_expansions", "vf_bracket", "xi",
    "xi_closed_form", "zm_state", "zoo", "zoo_names",
]
