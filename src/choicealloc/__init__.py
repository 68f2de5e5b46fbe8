"""Budget allocation against logit-driven offender location choice.

Core objects live in :mod:`choicealloc.model`; allocation rules in
:mod:`choicealloc.allocator`; the independent numerical oracle in
:mod:`choicealloc.solver`; Monte Carlo choice sampling in
:mod:`choicealloc.simulate`; benchmark tables in
:mod:`choicealloc.experiments`; file I/O and the command line in
:mod:`choicealloc.cli`.
"""

from .allocator import (
    DEFAULT_GAMMA_GRID,
    SolveReport,
    best_gamma,
    celp_rule,
    cle_rule,
    solve_closed_form,
)
from .experiments import (
    DEFAULT_ALPHA_PAIRS,
    DEFAULT_RULE_GAMMAS,
    ExperimentTable,
    attractiveness_scaling_table,
    attractiveness_sweep,
    budget_for_target,
    paris_scenario,
    rule_comparison_table,
    solution_table,
)
from .model import (
    Allocation,
    AllocationError,
    Evaluation,
    POSITIVITY_FLOOR,
    Scenario,
    ScenarioError,
    check_feasible,
    entry_keys,
    evaluate,
    flatten,
    unflatten,
)
from .simulate import OPT_OUT, ChoiceSample, sample_choices
from .solver import ConvergenceError, kkt_residual, solve_numerical

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "AllocationError",
    "ChoiceSample",
    "ConvergenceError",
    "DEFAULT_ALPHA_PAIRS",
    "DEFAULT_GAMMA_GRID",
    "DEFAULT_RULE_GAMMAS",
    "Evaluation",
    "ExperimentTable",
    "OPT_OUT",
    "POSITIVITY_FLOOR",
    "Scenario",
    "ScenarioError",
    "SolveReport",
    "attractiveness_scaling_table",
    "attractiveness_sweep",
    "best_gamma",
    "budget_for_target",
    "celp_rule",
    "check_feasible",
    "cle_rule",
    "entry_keys",
    "evaluate",
    "flatten",
    "kkt_residual",
    "paris_scenario",
    "rule_comparison_table",
    "sample_choices",
    "solve_closed_form",
    "solve_numerical",
    "solution_table",
    "unflatten",
]
