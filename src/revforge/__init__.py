"""revforge: a workbench for iterated parallel belief revision.

Plausibility states are total preorders over propositional worlds,
stored as ordered partitions.  Serial operators (natural, lexicographic,
restrained) revise or contract by a single input; parallel operators
take a finite set of inputs at once by revising per input, merging the
results with a team-queue strategy, and finishing on the conjunction.
The postulates package sweeps a catalog of rationality principles over
exhaustive or sampled instance spaces and reports replayable
countermodels.

``import revforge`` loads the revision core (``errors``, ``logic``,
``tpo``, ``serial``, ``aggregation``, ``parallel``) and the scenario
runner, ``scenario``.  The postulate workbench, ``revforge.postulates``,
loads on first use: the first access to ``revforge.postulates``, or to
one of the ten names it supplies here (``CATALOG``, ``check``,
``InstanceSpace`` and the others in ``_WORKBENCH``), imports it.  So a
scenario run never compiles the catalog, the sweep engine or the
instance spaces.
"""

from .aggregation import (Aggregator, FIRST_THEN_FULL_STRATEGY, ROUND_ROBIN_STRATEGY,
                          STQ_STRATEGY, STRATEGIES, SelectionStrategy, make_strategy,
                          stq)
from .errors import (FormulaError, InconsistentInputError, LanguageError, ParseError,
                     PartitionError, RevforgeError, ScenarioError, SpaceError,
                     UnknownOperatorError, UnknownPostulateError,
                     UnsatisfiableConditionalsError)
from .logic import (BOTTOM, TOP, Formula, FormulaSet, Language, atoms_of,
                    canonical_formula, cn_equal, conj, entails, evaluate,
                    format_formula, is_consistent, model_mask, models, neg_set,
                    parse_formula, sat_subset)
from .parallel import (OperatorConfig, ParallelContractionOperator,
                       ParallelRevisionOperator, default_parallel_contraction,
                       default_parallel_revision, minimal_inconsistent_indices)
from .scenario import (RunTrace, Scenario, export_dot, load_scenario,
                       loads_scenario, run_scenario)
from .serial import (CONTRACTION_OPERATORS, LEX, NATURAL, NATURAL_CONTRACT,
                     RESTRAINED, REVISION_OPERATORS, SerialContractionOperator,
                     SerialRevisionOperator, get_contraction_operator,
                     get_revision_operator)
from .tpo import (ConditionalSet, TPO, conditional_set, intersect_conditionals,
                  rational_closure)

__version__ = "0.1.0"

# the names that ``__getattr__`` takes from ``revforge.postulates``
_WORKBENCH = frozenset({
    "CATALOG", "CheckContext", "CheckReport", "EQUIVALENCE_PAIRS", "InstanceSpace", "check",
    "check_equivalence_pair", "find_countermodel", "replay_witness", "verify_rc_identity",
})

__all__ = [
    "Aggregator", "BOTTOM", "CATALOG", "CONTRACTION_OPERATORS", "CheckContext",
    "CheckReport", "ConditionalSet", "EQUIVALENCE_PAIRS",
    "FIRST_THEN_FULL_STRATEGY", "Formula", "FormulaError", "FormulaSet",
    "InconsistentInputError", "InstanceSpace", "LEX", "Language",
    "LanguageError", "NATURAL", "NATURAL_CONTRACT", "OperatorConfig",
    "ParallelContractionOperator", "ParallelRevisionOperator", "ParseError",
    "PartitionError", "RESTRAINED", "REVISION_OPERATORS",
    "ROUND_ROBIN_STRATEGY", "RevforgeError", "RunTrace", "STQ_STRATEGY",
    "STRATEGIES", "Scenario", "ScenarioError", "SelectionStrategy",
    "SerialContractionOperator", "SerialRevisionOperator", "SpaceError", "TOP",
    "TPO", "UnknownOperatorError", "UnknownPostulateError",
    "UnsatisfiableConditionalsError", "atoms_of",
    "canonical_formula", "check", "check_equivalence_pair", "cn_equal", "conditional_set",
    "conj", "default_parallel_contraction", "default_parallel_revision",
    "entails", "evaluate", "export_dot", "find_countermodel", "format_formula",
    "get_contraction_operator", "get_revision_operator", "intersect_conditionals",
    "is_consistent", "load_scenario", "loads_scenario", "make_strategy",
    "minimal_inconsistent_indices", "model_mask", "models", "neg_set",
    "parse_formula", "rational_closure", "replay_witness", "run_scenario",
    "sat_subset", "stq", "verify_rc_identity",
]


def __getattr__(name):
    if name != "postulates" and name not in _WORKBENCH:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # ``from . import postulates`` would call back here through hasattr;
    # importing the submodule binds ``postulates`` in this module, and a
    # workbench name is bound below, so each is looked up once
    from importlib import import_module
    postulates = import_module(".postulates", __name__)
    if name == "postulates":
        return postulates
    value = globals()[name] = getattr(postulates, name)
    return value


def __dir__():
    # as if the workbench were imported eagerly: its names and the
    # submodule, without the two hooks and their table
    return sorted((globals().keys() - {"__getattr__", "__dir__", "_WORKBENCH"})
                  | _WORKBENCH | {"postulates"})
