"""Serial revision and contraction operators.

Each operator is checked against an independent pairwise oracle: the
textbook reading of "x at-least-as-plausible-as y afterwards" evaluated
per world pair, swept over every two-atom preorder and every consistent
input. The constructive implementations must agree pointwise.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from revforge import (CheckContext, InconsistentInputError, LEX, NATURAL, NATURAL_CONTRACT,
                      OperatorConfig, PartitionError, RESTRAINED, SerialRevisionOperator, TPO,
                      UnknownOperatorError, default_parallel_contraction,
                      default_parallel_revision, get_contraction_operator,
                      get_revision_operator, parse_formula)
from revforge.serial import lex_revise, natural_revise, restrained_revise
from revforge.postulates import enumerate_tpos, all_propositions, random_tpo
from revforge.postulates.spaces import language
from revforge.tpo import mask_of

from conftest import tpo

PROPS4 = all_propositions(4)


def agrees_with_oracle(t: TPO, result: TPO, weakly_below) -> bool:
    n = t.num_worlds
    return all(result.weakly_below(x, y) == weakly_below(x, y)
               for x in range(n) for y in range(n))


# --- natural revision ---

def natural_oracle(t: TPO, sat):
    mins = t.min_of(sat)

    def weakly_below(x, y):
        if x in mins:
            return True
        if y in mins:
            return False
        return t.weakly_below(x, y)
    return weakly_below


def test_natural_matches_pairwise_oracle_exhaustively():
    for t in enumerate_tpos(4):
        for sat in PROPS4:
            assert agrees_with_oracle(t, NATURAL.revise(t, sat), natural_oracle(t, sat))


def test_natural_frozen_examples():
    t0 = tpo({0}, {1, 2, 3})
    assert NATURAL.revise(t0, frozenset({2, 3})) == tpo({2, 3}, {0}, {1})
    assert NATURAL.revise(t0, frozenset({1, 3})) == tpo({1, 3}, {0}, {2})
    # already-believed input changes nothing
    assert NATURAL.revise(t0, frozenset({0})) == t0


# --- lexicographic revision ---

def lex_oracle(t: TPO, sat):
    def weakly_below(x, y):
        if (x in sat) != (y in sat):
            return x in sat
        return t.weakly_below(x, y)
    return weakly_below


def test_lex_matches_pairwise_oracle_exhaustively():
    for t in enumerate_tpos(4):
        for sat in PROPS4:
            assert agrees_with_oracle(t, LEX.revise(t, sat), lex_oracle(t, sat))


def test_lex_frozen_example():
    t = tpo({0, 1}, {2, 3})
    assert LEX.revise(t, frozenset({1, 2})) == tpo({1}, {2}, {0}, {3})


# --- restrained revision ---

def restrained_oracle(t: TPO, sat):
    """Prioritized pairwise reading: minimal input worlds first, prior
    strict comparisons intact, prior ties broken toward input worlds."""
    mins = t.min_of(sat)

    def weakly_below(x, y):
        if x in mins:
            return True
        if y in mins:
            return False
        if t.strictly_below(x, y):
            return True
        if t.strictly_below(y, x):
            return False
        return (x in sat) or (y not in sat)
    return weakly_below


def test_restrained_matches_pairwise_oracle_exhaustively():
    for t in enumerate_tpos(4):
        for sat in PROPS4:
            assert agrees_with_oracle(
                t, RESTRAINED.revise(t, sat), restrained_oracle(t, sat))


def test_restrained_frozen_example():
    t = tpo({0, 1}, {2, 3})
    assert RESTRAINED.revise(t, frozenset({1, 2})) == tpo({1}, {0}, {2}, {3})


def test_restrained_keeps_prior_strict_order_outside_minimum():
    # 0 rejects the input but sat strictly below 3 beforehand; restrained
    # revision keeps that strict comparison, where lex would not
    t = tpo({0}, {2}, {3}, {1})
    sat = frozenset({1, 2, 3})
    assert RESTRAINED.revise(t, sat) == tpo({2}, {0}, {3}, {1})
    assert LEX.revise(t, sat) == tpo({2}, {3}, {1}, {0})


# --- success and failure modes shared by all revisions ---

@pytest.mark.parametrize("op", [NATURAL, LEX, RESTRAINED])
def test_revision_success_exhaustively(op):
    for t in enumerate_tpos(4):
        for sat in PROPS4:
            assert op.revise(t, sat).belief_worlds() == t.min_of(sat)


@pytest.mark.parametrize("revise", [natural_revise, lex_revise, restrained_revise])
def test_revision_by_inconsistent_input_raises(revise):
    with pytest.raises(InconsistentInputError):
        revise(TPO.uniform(4), 0)


# --- natural contraction ---

def contraction_oracle(t: TPO, sat):
    full = frozenset(range(t.num_worlds))
    bottom = t.blocks[0] | t.min_of(full - sat)

    def weakly_below(x, y):
        if x in bottom:
            return True
        if y in bottom:
            return False
        return t.weakly_below(x, y)
    return weakly_below


def test_contraction_matches_pairwise_oracle_exhaustively():
    for t in enumerate_tpos(4):
        for sat in PROPS4:
            assert agrees_with_oracle(
                t, NATURAL_CONTRACT.contract(t, sat), contraction_oracle(t, sat))


def test_contraction_frozen_example():
    t = tpo({2, 3}, {0}, {1})
    assert NATURAL_CONTRACT.contract(t, frozenset({2, 3})) == tpo({0, 2, 3}, {1})


def test_contraction_by_tautology_and_contradiction_is_identity():
    for t in enumerate_tpos(4):
        assert NATURAL_CONTRACT.contract(t, frozenset(range(4))) == t
        assert NATURAL_CONTRACT.contract(t, frozenset()) == t


def test_contraction_never_gives_up_unrelated_beliefs():
    for t in enumerate_tpos(4):
        for sat in PROPS4:
            out = NATURAL_CONTRACT.contract(t, sat)
            assert t.blocks[0] <= out.belief_worlds()


# --- operator objects and registry ---

def test_apply_parses_against_language(lang2):
    t = tpo({0}, {1, 2, 3})
    out = NATURAL.apply(t, parse_formula("A & B", lang2), lang2)
    assert out.belief_worlds() == frozenset({3})
    back = NATURAL_CONTRACT.apply(out, parse_formula("A", lang2), lang2)
    assert 3 in back.belief_worlds()


def test_registry_lookup_and_unknown_names():
    assert get_revision_operator("lex") is LEX
    assert get_contraction_operator("natural-contract") is NATURAL_CONTRACT
    with pytest.raises(UnknownOperatorError) as err:
        get_revision_operator("bayes")
    assert "natural" in str(err.value)
    with pytest.raises(UnknownOperatorError):
        get_contraction_operator("bayes")


def test_operator_names():
    assert NATURAL.name == "natural"
    assert LEX.name == "lex"
    assert RESTRAINED.name == "restrained"
    assert NATURAL_CONTRACT.name == "natural-contract"


# --- three-atom property checks ---

@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(1, 254))
def test_three_atom_success_and_validity(seed, mask):
    rng = random.Random(seed)
    t = random_tpo(rng, 8)
    sat = frozenset(w for w in range(8) if (mask >> w) & 1) or frozenset({0})
    for op in (NATURAL, LEX, RESTRAINED):
        out = op.revise(t, sat)
        assert out.belief_worlds() == t.min_of(sat)
        assert out.num_worlds == 8
    withdrawn = NATURAL_CONTRACT.contract(t, sat)
    assert t.blocks[0] <= withdrawn.belief_worlds()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 31))
def test_lex_is_a_refinement_merge(seed):
    """Input worlds keep their relative order, as do the rest."""
    rng = random.Random(seed)
    t = random_tpo(rng, 8)
    sat = frozenset(rng.sample(range(8), rng.randint(1, 7)))
    out = LEX.revise(t, sat)
    for x in range(8):
        for y in range(8):
            if (x in sat) == (y in sat):
                assert out.weakly_below(x, y) == t.weakly_below(x, y)
            elif x in sat:
                assert out.strictly_below(x, y)


# --- worlds outside the order ---

@pytest.mark.parametrize("worlds", [frozenset({1, 7}), frozenset({-1, 2})],
                         ids=["above-range", "negative"])
@pytest.mark.parametrize("call, message", [(call, r"not in range\(4\)") for call in (
    TPO.min_of,
    NATURAL.revise,
    LEX.revise,
    RESTRAINED.revise,
    NATURAL_CONTRACT.contract,
    lambda t, worlds: default_parallel_revision().revise_worlds(t, (worlds,)),
    lambda t, worlds: default_parallel_contraction().contract_worlds(t, (worlds,)),
    lambda t, worlds: CheckContext(language(2), OperatorConfig()).previse(
        t, tuple(mask_of(m, 4) for m in (worlds,))),
    lambda t, worlds: CheckContext(language(2), OperatorConfig()).pcontract(
        t, tuple(mask_of(m, 4) for m in (worlds,))),
)] + [
    # a formula over a wider language: the 3-atom ``A`` has worlds past 3,
    # and the width rule rejects the language before any mask is read
    (lambda t, worlds: NATURAL.apply(t, parse_formula("A", language(3)), language(3)),
     "language has 8 worlds, preorder has 4"),
], ids=["min_of", "natural", "lex", "restrained", "natural-contract", "revise_worlds",
        "contract_worlds", "context-previse", "context-pcontract", "apply"])
def test_worlds_outside_the_order_raise_partition_error(call, message, worlds):
    with pytest.raises(PartitionError, match=message):
        call(tpo({0}, {1, 2, 3}), worlds)
