"""Postulate catalog, instance spaces, and the checking engine."""

from ..parallel import OperatorConfig
from .catalog import CATALOG, EQUIVALENCE_PAIRS, SYNTACTIC_FORMS, Postulate
from .engine import (
    CheckContext,
    CheckReport,
    check,
    check_equivalence_pair,
    find_countermodel,
    replay_witness,
    verify_rc_identity,
)
from .spaces import (
    DEFAULT_SEED,
    InstanceSpace,
    all_propositions,
    enumerate_tpos,
    formula_set_tuples,
    random_tpo,
)

__all__ = [
    "CATALOG",
    "EQUIVALENCE_PAIRS",
    "SYNTACTIC_FORMS",
    "Postulate",
    "CheckContext",
    "CheckReport",
    "check",
    "check_equivalence_pair",
    "find_countermodel",
    "replay_witness",
    "verify_rc_identity",
    "DEFAULT_SEED",
    "InstanceSpace",
    "OperatorConfig",
    "all_propositions",
    "enumerate_tpos",
    "formula_set_tuples",
    "random_tpo",
]
