"""Values that are not formulas raise typed errors at the formula edges.

A formula object where a ``Formula`` is expected raises ``FormulaError``,
which is a ``RevforgeError`` and, as the bare error it replaced was, a
``TypeError``.  ``FormulaSet.parse`` of a value that is not a collection
of texts raises ``ParseError`` at position 0, as ``parse_formula`` of a
value that is not a text does.
"""

import pytest

from revforge import (FormulaError, FormulaSet, Language, ParseError, RevforgeError, evaluate,
                      format_formula, model_mask)

LANG = Language(("A", "B"))


@pytest.mark.parametrize("call, error, message", [
    (lambda: FormulaSet(LANG, [5]), FormulaError, "not a formula: 5"),
    (lambda: model_mask("A", LANG), FormulaError, "not a formula: 'A'"),
    (lambda: evaluate("A", 0, LANG), FormulaError, "not a formula: 'A'"),
    (lambda: format_formula(5), FormulaError, "not a formula: 5"),
    (lambda: FormulaSet.parse(None, LANG), ParseError,
     "expected a collection of formula strings, got NoneType (at position 0)"),
], ids=["formula-set-member", "model-mask", "evaluate", "format-formula", "parse-none"])
def test_a_value_that_is_not_a_formula_raises_a_typed_error(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert isinstance(err.value, RevforgeError)
    assert str(err.value) == message
    if error is FormulaError:
        assert isinstance(err.value, TypeError)
    else:
        assert err.value.position == 0
