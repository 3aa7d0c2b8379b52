"""Parallel (package) revision and contraction pipelines."""

import pytest

from revforge import (Aggregator, FIRST_THEN_FULL_STRATEGY, FormulaSet,
                      InconsistentInputError, LEX, NATURAL, NATURAL_CONTRACT,
                      ParallelContractionOperator, ParallelRevisionOperator,
                      RESTRAINED, STQ_STRATEGY, TPO,
                      default_parallel_contraction, default_parallel_revision,
                      parse_operator_config)
from revforge.parallel import harper_worlds, levi_worlds, minimal_inconsistent_indices
from revforge.postulates import enumerate_tpos, all_propositions, formula_set_tuples

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
    full = frozenset(range(4))
    sets = (A, B, frozenset({0}))
    assert minimal_inconsistent_indices(sets, full) in ((1, 2), (2,), (0, 2))
    # the found family must itself be inconsistent and inclusion-minimal
    kept = minimal_inconsistent_indices(sets, full)
    family = [sets[i] for i in kept]
    assert not frozenset.intersection(full, *family)
    for skip in range(len(family)):
        rest = [m for j, m in enumerate(family) if j != skip]
        assert frozenset.intersection(full, *rest) if rest else full


def test_config_string_round_trip():
    op = ParallelRevisionOperator(LEX, RESTRAINED, Aggregator(FIRST_THEN_FULL_STRATEGY))
    text = op.config_string()
    assert text == "parallel(base=lex, finisher=restrained, agg=first-then-full)"
    again = parse_operator_config(text)
    assert again.base is LEX
    assert again.finisher is RESTRAINED
    assert again.aggregator.name == "first-then-full"


def test_parse_operator_config_rejects_malformed_text():
    from revforge import RevforgeError, UnknownOperatorError
    with pytest.raises(RevforgeError):
        parse_operator_config("parallel(base=lex)")
    with pytest.raises(UnknownOperatorError):
        parse_operator_config("parallel(base=lex, finisher=zzz, agg=stq)")


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
    assert op.config_string() == "parallel(base=natural-contract, agg=stq)"


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


def test_levi_route_can_go_inconsistent():
    op = default_parallel_contraction()
    t = tpo({0}, {2}, {1}, {3})
    assert levi_worlds(op, t, (A, B)) == frozenset()
    # on friendlier instances it lands on the conjunction
    t2 = tpo({3}, {0, 1, 2})
    assert levi_worlds(op, t2, (A, B)) == frozenset({3})


def test_harper_route_differs_from_direct_contraction():
    prev = default_parallel_revision()
    pcon = default_parallel_contraction()
    t = tpo({3}, {1}, {2}, {0})
    harper = harper_worlds(prev, t, (A, B))
    direct = pcon.contract_worlds(t, (A, B)).belief_worlds()
    assert harper == frozenset({0, 3})
    assert direct == frozenset({1, 2, 3})
    assert harper != direct


def test_default_operator_configs():
    prev = default_parallel_revision()
    assert prev.config_string() == "parallel(base=natural, finisher=natural, agg=stq)"
    pcon = default_parallel_contraction()
    assert pcon.base is NATURAL_CONTRACT
    assert pcon.aggregator.name == "stq"
