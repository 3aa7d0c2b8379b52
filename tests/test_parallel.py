"""Parallel (package) revision and contraction pipelines."""

import functools
import operator
from dataclasses import FrozenInstanceError, replace

import pytest

from revforge import (TPO, Aggregator, CheckContext, FIRST_THEN_FULL_STRATEGY, FormulaSet,
                      InconsistentInputError, InstanceSpace, Language, NATURAL,
                      NATURAL_CONTRACT, OperatorConfig, ParallelContractionOperator,
                      PartitionError, STQ_STRATEGY, UnknownOperatorError, check,
                      default_parallel_contraction, default_parallel_revision,
                      parse_formula, replay_witness)
from revforge.logic import Atom, LanguageError
from revforge.parallel import minimal_inconsistent_indices
from revforge.postulates import enumerate_tpos, all_propositions, formula_set_tuples
from revforge.tpo import mask_of

from conftest import tpo

A = frozenset({2, 3})
B = frozenset({1, 3})


def test_reference_pipeline_end_to_end(lang2):
    """One-then-rest preorder revised by {A, B}: the aggregate floods the
    bottom, and the finishing revision pulls the conjunction back out."""
    op = default_parallel_revision()
    out = op.revise_worlds(tpo({0}, {1, 2, 3}), (A, B))
    assert out == tpo({3}, {1, 2}, {0})
    assert out.render(lang2) == "[{11} < {01,10} < {00}]"
    assert out.belief_worlds() == frozenset({3})


def test_revise_via_formula_set(lang2):
    op = default_parallel_revision()
    s = FormulaSet.parse(["A", "B"], lang2)
    assert op.revise(tpo({0}, {1, 2, 3}), s) == tpo({3}, {1, 2}, {0})


def test_empty_input_family_revises_by_everything():
    op = default_parallel_revision()
    for t in (tpo({0}, {1, 2, 3}), tpo({1, 3}, {0, 2})):
        assert op.revise_worlds(t, ()) == t


def test_singleton_family_matches_serial_belief_set():
    op = default_parallel_revision()
    for t in enumerate_tpos(4):
        out = op.revise_worlds(t, (A,))
        assert out.belief_worlds() == NATURAL.revise(t, A).belief_worlds()


def test_inconsistent_family_raises_with_minimal_culprits(lang2):
    op = default_parallel_revision()
    t = tpo({2, 3}, {0}, {1})
    with pytest.raises(InconsistentInputError) as err:
        op.revise_worlds(t, (A, B, frozenset({0})), labels=("A", "B", "~A & ~B"))
    message = str(err.value)
    assert "minimal inconsistent subset" in message
    assert "~A & ~B" in message and "B" in message and "A," not in message

    s = FormulaSet.parse(["A", "~A"], lang2)
    with pytest.raises(InconsistentInputError) as err2:
        op.revise(t, s)
    assert "~A" in str(err2.value)


def test_minimal_inconsistent_indices_shrinks():
    full = 0b1111
    masks = tuple(mask_of(s, 4) for s in (A, B, frozenset({0})))
    assert minimal_inconsistent_indices(masks, full) in ((1, 2), (2,), (0, 2))
    # the found family must itself be inconsistent and inclusion-minimal
    kept = minimal_inconsistent_indices(masks, full)
    family = [masks[i] for i in kept]
    assert not functools.reduce(operator.and_, family, full)
    for skip in range(len(family)):
        rest = [m for j, m in enumerate(family) if j != skip]
        assert functools.reduce(operator.and_, rest, full)


# --- contraction ---

def test_reference_contraction(lang2):
    op = default_parallel_contraction()
    t = tpo({2, 3}, {0}, {1})
    out = op.contract_worlds(t, (A, B))
    assert out == tpo({0, 2, 3}, {1})
    assert out.belief_worlds() == (
        NATURAL_CONTRACT.contract(t, A).belief_worlds()
        | NATURAL_CONTRACT.contract(t, B).belief_worlds())
    s = FormulaSet.parse(["A", "B"], lang2)
    assert op.contract(t, s) == out


def test_contraction_empty_family_is_identity():
    op = default_parallel_contraction()
    t = tpo({1}, {0, 2, 3})
    assert op.contract_worlds(t, ()) == t


@pytest.mark.parametrize("strategy", [STQ_STRATEGY, FIRST_THEN_FULL_STRATEGY])
def test_contraction_belief_sets_are_intersective(strategy):
    """With synchronous or first-then-full merging, withdrawing a family
    leaves exactly the beliefs every member-wise withdrawal leaves."""
    op = ParallelContractionOperator(NATURAL_CONTRACT, Aggregator(strategy))
    families = list(formula_set_tuples(all_propositions(4), 2, jointly_consistent=False))
    for t in enumerate_tpos(4):
        for family in families:
            got = op.contract_worlds(t, family).belief_worlds()
            want = frozenset().union(
                *(NATURAL_CONTRACT.contract(t, m).belief_worlds() for m in family))
            assert got == want


# --- the Levi and Harper routes, as the LI-star and HI-star catalog entries ---

def _sweep_one(pid: str, t, s):
    """``check`` over the one instance (t, s), under the default operators."""
    class OneInstance(InstanceSpace):
        def instances(self, shape: str):
            return iter([(t, s)])
    return check(pid, OneInstance(atoms=2))


def test_levi_route_can_go_inconsistent():
    """Retracting the negations and then adding the set can leave no world
    at all, where revising by the set believes the conjunction."""
    report = _sweep_one("LI-star", tpo({0}, {2}, {1}, {3}), (A, B))
    (witness,) = report.violations
    assert witness["detail"] == {"revision_beliefs": ["11"], "contract_then_add": []}
    assert replay_witness("LI-star", witness, atoms=2) == [witness["detail"]]
    # on friendlier instances it lands on the conjunction
    friendly = _sweep_one("LI-star", tpo({3}, {0, 1, 2}), (A, B))
    assert (friendly.checked, friendly.total_hits) == (1, 0)


def test_harper_route_differs_from_direct_contraction():
    report = _sweep_one("HI-star", tpo({3}, {1}, {2}, {0}), (A, B))
    (witness,) = report.violations
    assert witness["detail"] == {"contraction_beliefs": ["01", "10", "11"],
                                 "meet_of_revisions": ["00", "11"]}
    assert replay_witness("HI-star", witness, atoms=2) == [witness["detail"]]
    # revising by jointly inconsistent negations is undefined: skipped
    skipped = _sweep_one("HI-star", tpo({3}, {1}, {2}, {0}), (A, frozenset({0, 1})))
    assert (skipped.generated, skipped.checked) == (1, 0)


@pytest.mark.parametrize("strategy, levi_hits, harper_hits", [
    ("stq", 582, 1326), ("first-then-full", 582, 1326), ("round-robin", 906, 2380)])
def test_levi_and_harper_route_counts_at_two_atoms(strategy, levi_hits, harper_hits):
    space = InstanceSpace(atoms=2, operators=OperatorConfig(strategy=strategy))
    ctx = CheckContext.from_space(space)
    levi = check("LI-star", space, ctx=ctx)
    assert (levi.generated, levi.checked, levi.total_hits) == (7125, 7125, levi_hits)
    harper = check("HI-star", space, ctx=ctx)
    assert (harper.generated, harper.checked, harper.total_hits) == (9000, 6000, harper_hits)
    assert levi.expected == harper.expected == "exploratory"
    for report in (levi, harper):
        for witness in report.violations:
            assert witness["detail"] in replay_witness(report.postulate, witness, atoms=2)


@pytest.mark.parametrize("role, value", [
    ("base", 3), ("finisher", None), ("revision", STQ_STRATEGY),
    ("contraction", frozenset({0})), ("strategy", NATURAL), ("strategy", lambda n, i: {0}),
], ids=["int-base", "none-finisher", "strategy-as-revision", "set-contraction",
        "operator-as-strategy", "team-function-as-strategy"])
def test_operator_config_rejects_a_value_of_no_operator_kind(role, value):
    """A field holds a name or an operator of its kind; anything else
    would fail later, inside a pipeline or ``describe()``."""
    with pytest.raises(UnknownOperatorError, match=f"'{role}' must be an operator name or object"):
        OperatorConfig(**{role: value})
    OperatorConfig(**{role: "unregistered"})  # a name is looked up only when resolved


@pytest.mark.parametrize("names", [None, ["base"], "lex"])
def test_operator_names_must_be_a_mapping(names):
    """``from_names`` reads names from outside the program, so a value that
    is not a mapping of role to name raises a typed error."""
    with pytest.raises(UnknownOperatorError, match="operator names must be a mapping, got"):
        OperatorConfig.from_names(names)


def test_operator_config_is_frozen():
    """A field cannot be set after the check: assignment raises at once,
    where it used to pass and fail inside the pipeline."""
    config = OperatorConfig()
    with pytest.raises(FrozenInstanceError):
        config.base = 3
    with pytest.raises(FrozenInstanceError):
        config.strategy = "round-robin"
    assert config == OperatorConfig() and config.describe() == OperatorConfig().describe()


def test_operator_config_replace_checks_again():
    """``dataclasses.replace`` makes a new configuration through the same check."""
    config = OperatorConfig(base="lex")
    with pytest.raises(UnknownOperatorError, match="'base' must be an operator name or object"):
        replace(config, base=3)
    swapped = replace(config, finisher="restrained", strategy=STQ_STRATEGY)
    assert swapped.describe() == {"revision": "natural", "contraction": "natural-contract",
                                  "base": "lex", "finisher": "restrained", "strategy": "stq"}
    assert config.finisher == "natural"


def test_default_operator_configs():
    """The default pipelines run the operators ``OperatorConfig`` names by default."""
    config = OperatorConfig()
    prev = default_parallel_revision()
    assert prev.base is prev.finisher is NATURAL is config.resolved("base")
    assert config.resolved("finisher") is NATURAL
    assert prev.aggregator.strategy is STQ_STRATEGY is config.resolved("strategy")
    pcon = default_parallel_contraction()
    assert pcon.base is NATURAL_CONTRACT is config.resolved("contraction")
    assert pcon.aggregator.strategy is STQ_STRATEGY


@pytest.mark.parametrize("build, got", [
    (lambda: FormulaSet(None, []), "None"),
    (lambda: FormulaSet(None, [Atom("A")]), "None"),
    (lambda: FormulaSet("AB", [Atom("A")]), "'AB'"),
    (lambda: FormulaSet.parse([], None), "None"),
], ids=["none-empty", "none", "str", "parse-empty"])
def test_a_formula_set_needs_a_language(build, got):
    """A formula set is built over a ``Language`` or not at all, so
    ``conj``, ``neg_set``, ``sat_subset``, ``cn_equal`` and the parallel
    operators never meet a set without one, empty sets included."""
    with pytest.raises(LanguageError) as err:
        build()
    assert str(err.value) == f"FormulaSet takes a Language, got {got}"


@pytest.mark.parametrize("entry", [
    lambda t, lang, texts: NATURAL.apply(t, parse_formula(texts[0], lang), lang),
    lambda t, lang, texts: default_parallel_revision().revise(t, FormulaSet.parse(texts, lang)),
    lambda t, lang, texts: default_parallel_contraction().contract(
        t, FormulaSet.parse(texts, lang)),
], ids=["apply", "revise", "contract"])
def test_a_language_narrower_than_the_order_is_rejected(entry):
    """A formula meets an order only over a language of the order's width.
    Over 4 worlds, ``p`` names worlds 2 and 3 of a 2-atom language; read
    against an 8-world order they would be worlds of another language.
    Over 8 worlds, ``~p & ~q`` names worlds 0 and 1, inside a 4-world
    order, and ``p`` names worlds 4 to 7, past it: a wider language is
    rejected too, whether or not its masks fit."""
    narrow, wide = Language(("p", "q")), Language(("p", "q", "r"))
    with pytest.raises(PartitionError, match="language has 4 worlds, preorder has 8"):
        entry(TPO.uniform(8), narrow, ["p", "q"])
    for texts in (["~p & ~q"], ["p", "q"]):
        with pytest.raises(PartitionError, match="language has 8 worlds, preorder has 4"):
            entry(TPO.uniform(4), wide, texts)
    assert entry(TPO.uniform(4), narrow, ["p", "q"]).num_worlds == 4
    assert entry(TPO.uniform(8), wide, ["p", "q"]).num_worlds == 8
