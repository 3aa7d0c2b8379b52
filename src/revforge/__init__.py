"""revforge: a workbench for iterated parallel belief revision.

Plausibility states are total preorders over propositional worlds,
stored as ordered partitions.  Serial operators (natural, lexicographic,
restrained) revise or contract by a single input; parallel operators
take a finite set of inputs at once by revising per input, merging the
results with a team-queue strategy, and finishing on the conjunction.
The postulates package sweeps a catalog of rationality principles over
exhaustive or sampled instance spaces and reports replayable
countermodels.

``import revforge`` loads the revision core only: ``errors``, ``logic``,
``tpo``, ``serial``, ``aggregation`` and ``parallel``.  Two submodules
load on first use, each named in one table, ``_LAZY``, with the names it
supplies here.  The postulate workbench, ``revforge.postulates``, supplies
``CATALOG``, ``check``, ``InstanceSpace`` and seven more; the scenario
runner, ``revforge.scenario``, supplies ``run_scenario``,
``loads_scenario`` and four more.  The first access to a submodule or to
one of its names imports it.  So a scenario run never compiles the
catalog, the sweep engine or the instance spaces, and a sweep never
compiles the scenario runner.
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
from .serial import (CONTRACTION_OPERATORS, LEX, NATURAL, NATURAL_CONTRACT,
                     RESTRAINED, REVISION_OPERATORS, SerialContractionOperator,
                     SerialRevisionOperator, get_contraction_operator,
                     get_revision_operator)
from .tpo import (ConditionalSet, TPO, conditional_set, intersect_conditionals,
                  rational_closure)

__version__ = "0.1.0"

# what ``__getattr__`` loads on first use: each submodule, and each name
# it supplies here, maps to that submodule
_LAZY = dict.fromkeys((
    "postulates", "CATALOG", "CheckContext", "CheckReport", "EQUIVALENCE_PAIRS", "InstanceSpace",
    "check", "check_equivalence_pair", "find_countermodel", "replay_witness", "verify_rc_identity",
), "postulates") | dict.fromkeys((
    "scenario", "RunTrace", "Scenario", "export_dot", "load_scenario", "loads_scenario",
    "run_scenario",
), "scenario")

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
    submodule = _LAZY.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # ``from . import postulates`` would call back here through hasattr;
    # importing a submodule binds it in this module, and a name it
    # supplies is bound below, so each is looked up once
    from importlib import import_module
    module = import_module("." + submodule, __name__)
    if name == submodule:
        return module
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    # as if both submodules were imported eagerly: their names and the
    # submodules, without the two hooks and their table
    return sorted((globals().keys() - {"__getattr__", "__dir__", "_LAZY"}) | _LAZY.keys())
