"""Bayesian persuasion with limited signal spaces.

A sender commits to a signaling scheme before observing the state of
nature; a receiver observes the signal and picks one of n actions.  This
package computes optimal and approximately optimal schemes when the sender
has only k < n signals available, for symmetric priors (IID,
prophet-secretary, d-random-order) and for independent per-action priors.
"""

from .model import (
    ActionType,
    DRandomOrderInstance,
    IIDInstance,
    IndependentInstance,
    Instance,
    InstanceFormatError,
    ProphetSecretaryInstance,
    SymmetricInstance,
    best_fixed_action_value,
    fixture_names,
    instance_from_dict,
    instance_to_dict,
    is_symmetric,
    load_fixture,
    load_instance,
    save_instance,
)
from .geometry import ParetoFrontier, pareto_frontier, point_for_slope, slope_between, NEG_INF
from .prob_oracle import (
    SegmentProb,
    UniquePointProb,
    candidate_slopes,
    segment_probabilities,
)
from .lp_core import CONSTRAINT_TOL, LinearProgram, LpSolution, solve_lp, solve_slope_lp
from .symmetric_schemes import (
    SlopeScheme,
    SlopeSchemeExecutor,
    TabularScheme,
    bicriteria_scheme,
    imitation_scheme,
    slope_algorithm,
)
from .independent_schemes import (
    ExPostScheme,
    GiCurve,
    RelaxationSolution,
    actions_greedy,
    actions_reduce,
    f_of_S,
    fptas_select,
    g_curve,
    independent_scheme,
)
from .exact_oracle import (
    enumerate_oracle,
    enumerate_prior,
    expected_utilities,
    optimal_scheme_bruteforce,
    persuasiveness_check,
)
from .simulate import SimReport, estimate

__version__ = "0.1.0"

__all__ = [
    "ActionType",
    "CONSTRAINT_TOL",
    "DRandomOrderInstance",
    "ExPostScheme",
    "GiCurve",
    "IIDInstance",
    "IndependentInstance",
    "Instance",
    "InstanceFormatError",
    "LinearProgram",
    "LpSolution",
    "NEG_INF",
    "ParetoFrontier",
    "ProphetSecretaryInstance",
    "RelaxationSolution",
    "SegmentProb",
    "SimReport",
    "SlopeScheme",
    "SlopeSchemeExecutor",
    "SymmetricInstance",
    "TabularScheme",
    "UniquePointProb",
    "actions_greedy",
    "actions_reduce",
    "best_fixed_action_value",
    "bicriteria_scheme",
    "candidate_slopes",
    "enumerate_oracle",
    "enumerate_prior",
    "expected_utilities",
    "estimate",
    "f_of_S",
    "fixture_names",
    "fptas_select",
    "g_curve",
    "imitation_scheme",
    "independent_scheme",
    "instance_from_dict",
    "instance_to_dict",
    "is_symmetric",
    "load_fixture",
    "load_instance",
    "optimal_scheme_bruteforce",
    "pareto_frontier",
    "persuasiveness_check",
    "point_for_slope",
    "save_instance",
    "segment_probabilities",
    "slope_algorithm",
    "slope_between",
    "solve_lp",
    "solve_slope_lp",
]
