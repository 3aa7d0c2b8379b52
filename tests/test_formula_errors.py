"""Values that are not formulas raise typed errors at the formula edges.

A value that is not a formula where a ``Formula`` is expected, or not a
``FormulaSet`` where a formula set is expected, raises ``FormulaError``,
which is a ``RevforgeError`` and a ``TypeError``.  ``FormulaSet.parse`` of a value that is not a collection
of texts raises ``ParseError`` at position 0, as ``parse_formula`` of a
value that is not a text does.  A ``lang`` that is not a ``Language``,
given to ``model_mask`` or to the entries that read it (``models``,
``is_consistent``, ``entails``) or to ``evaluate``, raises
``LanguageError`` naming the entry that checks it.  An ``Atom`` whose
name is not a ``str`` raises ``FormulaError`` when built, and so does
every walk over a tree built by hand deeper than the interpreter's
recursion limit allows, where it would otherwise overflow the stack.
"""

import sys
from functools import reduce

import pytest

from revforge import (BOTTOM, TOP, FormulaError, FormulaSet, Language, LanguageError, ParseError,
                      RevforgeError, atoms_of, cn_equal, conj, entails, evaluate, format_formula,
                      is_consistent, model_mask, models, neg_set, parse_formula, sat_subset)
from revforge.logic import And, Atom

LANG = Language(("A", "B"))
# a tree built by hand, nested three times deeper than the recursion limit
DEEP = reduce(And, [Atom("A")] * (sys.getrecursionlimit() * 3))
TOO_DEEP = "formula nested too deeply for the interpreter's recursion limit"


@pytest.mark.parametrize("call, error, message", [
    (lambda: FormulaSet(LANG, [5]), FormulaError, "not a formula: 5"),
    (lambda: model_mask("A", LANG), FormulaError, "not a formula: 'A'"),
    (lambda: evaluate("A", 0, LANG), FormulaError, "not a formula: 'A'"),
    (lambda: format_formula(5), FormulaError, "not a formula: 5"),
    (lambda: atoms_of(5), FormulaError, "not a formula: 5"),
    (lambda: atoms_of("A"), FormulaError, "not a formula: 'A'"),
    (lambda: neg_set(5), FormulaError, "not a formula set: 5"),
    (lambda: conj([5]), FormulaError, "not a formula set: [5]"),
    (lambda: sat_subset(5, 0), FormulaError, "not a formula set: 5"),
    (lambda: cn_equal(5, 5), FormulaError, "not a formula set: 5"),
    (lambda: cn_equal(FormulaSet(LANG, [TOP]), "A"), FormulaError, "not a formula set: 'A'"),
    (lambda: FormulaSet.parse(None, LANG), ParseError,
     "expected a collection of formula strings, got NoneType (at position 0)"),
    (lambda: model_mask(TOP, None), LanguageError, "model_mask takes a Language, got None"),
    (lambda: models(TOP, 5), LanguageError, "model_mask takes a Language, got 5"),
    (lambda: is_consistent(TOP, ("A", "B")), LanguageError,
     "model_mask takes a Language, got ('A', 'B')"),
    (lambda: entails(TOP, BOTTOM, None), LanguageError, "model_mask takes a Language, got None"),
    (lambda: evaluate(Atom("A"), 0, None), LanguageError, "evaluate takes a Language, got None"),
    (lambda: evaluate(TOP, 0, "A"), LanguageError, "evaluate takes a Language, got 'A'"),
    (lambda: model_mask(Atom(["A"]), LANG), FormulaError, "not an atom name: ['A']"),
    (lambda: FormulaSet(LANG, [Atom(["A"])]), FormulaError, "not an atom name: ['A']"),
    (lambda: str(Atom(["A"])), FormulaError, "not an atom name: ['A']"),
    (lambda: Atom(5), FormulaError, "not an atom name: 5"),
    (lambda: model_mask(DEEP, LANG), FormulaError, TOO_DEEP),
    (lambda: str(DEEP), FormulaError, TOO_DEEP),
    (lambda: format_formula(DEEP), FormulaError, TOO_DEEP),
    (lambda: atoms_of(DEEP), FormulaError, TOO_DEEP),
    (lambda: evaluate(DEEP, 0, LANG), FormulaError, TOO_DEEP),
    (lambda: FormulaSet(LANG, [DEEP]), FormulaError, TOO_DEEP),
], ids=["formula-set-member", "model-mask", "evaluate", "format-formula", "atoms-of-int",
        "atoms-of-str", "neg-set", "conj-list", "sat-subset", "cn-equal", "cn-equal-second",
        "parse-none", "model-mask-lang", "models-lang", "is-consistent-lang", "entails-lang",
        "evaluate-lang", "evaluate-constant-lang", "atom-list-model-mask", "atom-list-set",
        "atom-list-str", "atom-int", "deep-model-mask", "deep-str", "deep-format-formula",
        "deep-atoms-of", "deep-evaluate", "deep-formula-set"])
def test_a_value_that_is_not_a_formula_raises_a_typed_error(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert isinstance(err.value, RevforgeError)
    assert str(err.value) == message
    if error is FormulaError:
        assert isinstance(err.value, TypeError)
    elif error is ParseError:
        assert err.value.position == 0


def test_atoms_of_a_constant_is_empty():
    assert atoms_of(TOP) == atoms_of(BOTTOM) == frozenset()
    assert atoms_of(parse_formula("A -> ~T", LANG)) == {"A"}
