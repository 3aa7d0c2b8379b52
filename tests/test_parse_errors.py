"""Pinned ``ParseError`` messages and positions for malformed formula text.

Each text of the corpus must fail to parse with exactly the message and
position pinned here, and, placed as the second sentence of a scenario
step, fail to load with exactly the pinned ``ScenarioError`` text.  The
pins are what the parser produced before its tokenizer was rewritten,
so they hold any later tokenizer to the same errors.

Texts nested too deeply to parse fail at position 0, like a tree deeper
than ``MAX_FORMULA_DEPTH``: where the recursion limit stops the parser
depends on how many frames sit below it, so that token is not reported.
Every case runs on a new thread, whose stack starts empty, under the
default recursion limit of 1000, and
``test_deep_text_fails_alike_from_every_caller`` runs the deep texts from
a caller 300 frames deep as well.
"""

import sys
import threading

import pytest

from revforge import Language, ParseError, Scenario, ScenarioError, parse_formula
from revforge.logic import MAX_FORMULA_DEPTH


def in_fresh_thread(call):
    """The exception ``call()`` raises on a new thread, or None."""
    raised = []

    def target():
        try:
            call()
        except Exception as exc:
            raised.append(exc)

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        worker = threading.Thread(target=target)
        worker.start()
        worker.join(timeout=60)
    finally:
        sys.setrecursionlimit(limit)
    assert not worker.is_alive()
    return raised[0] if raised else None


MALFORMED = {
    # unknown atoms
    "unknown-atom": "C",
    "unknown-atom-after-op": "A & C",
    "unknown-long-name": "A | Apple",
    "lowercase-atom": "a",
    "unknown-atom-nested": "(A -> (B & Cx))",
    "unknown-after-constant": "T & X",
    # bad ASCII characters
    "at-sign": "A @ B",
    "plus": "A + B",
    "comma": "A, B",
    "bang": "!A",
    "trailing-dollar": "A $",
    "equals": "A = B",
    "split-arrow": "A - > B",
    "half-iff": "A <- B",
    "less-than": "A < B",
    "bad-char-after-name": "B1#",
    "tab-then-bad": "A &\t?B",
    # non-ASCII characters
    "wedge": "A ∧ B",
    "logical-not": "¬A",
    "accented-atom": "A & Ä",
    "unicode-arrow": "A → B",
    "fullwidth-letter": "Ａ",
    "zero-width-space": "A & B\u200b",
    # unbalanced parentheses
    "unclosed": "(A & B",
    "unopened": "A & B)",
    "one-short": "((A)",
    "lone-close": ")",
    "lone-open": "(",
    "empty-parens": "()",
    "one-extra": "(A))",
    # dangling or doubled operators
    "dangling-and": "A &",
    "leading-and": "& A",
    "doubled-and": "A & & B",
    "doubled-or": "A | | B",
    "doubled-arrow": "A -> -> B",
    "lone-not": "~",
    "infix-not": "A ~ B",
    "dangling-iff": "A <->",
    "and-or": "A & | B",
    "two-atoms": "A B",
    "constants-side-by-side": "T F",
    # empty and whitespace-only text
    "empty": "",
    "spaces": "   ",
    "tab-newline": "\t\n",
    # too deep
    "170-parens": "(" * 170 + "A" + ")" * 170,
    "3000-negations": "~" * 3000 + "A",
    "and-chain-past-bound": " & ".join(["A"] * (MAX_FORMULA_DEPTH + 1)),
    "or-chain-1200": " | ".join(["B"] * 1200),
}

PINNED = {
    "unknown-atom": ("unknown atom 'C' (at position 0)", 0,
                     "steps[0].sentences[1]: unknown atom 'C' (at position 0)"),
    "unknown-atom-after-op": ("unknown atom 'C' (at position 4)", 4,
                              "steps[0].sentences[1]: unknown atom 'C' (at position 4)"),
    "unknown-long-name": ("unknown atom 'Apple' (at position 4)", 4,
                          "steps[0].sentences[1]: unknown atom 'Apple' (at position 4)"),
    "lowercase-atom": ("unknown atom 'a' (at position 0)", 0,
                       "steps[0].sentences[1]: unknown atom 'a' (at position 0)"),
    "unknown-atom-nested": ("unknown atom 'Cx' (at position 11)", 11,
                            "steps[0].sentences[1]: unknown atom 'Cx' (at position 11)"),
    "unknown-after-constant": ("unknown atom 'X' (at position 4)", 4,
                               "steps[0].sentences[1]: unknown atom 'X' (at position 4)"),
    "at-sign": ("unexpected character '@' (at position 2)", 2,
                "steps[0].sentences[1]: unexpected character '@' (at position 2)"),
    "plus": ("unexpected character '+' (at position 2)", 2,
             "steps[0].sentences[1]: unexpected character '+' (at position 2)"),
    "comma": ("unexpected character ',' (at position 1)", 1,
              "steps[0].sentences[1]: unexpected character ',' (at position 1)"),
    "bang": ("unexpected character '!' (at position 0)", 0,
             "steps[0].sentences[1]: unexpected character '!' (at position 0)"),
    "trailing-dollar": ("unexpected character '$' (at position 2)", 2,
                        "steps[0].sentences[1]: unexpected character '$' (at position 2)"),
    "equals": ("unexpected character '=' (at position 2)", 2,
               "steps[0].sentences[1]: unexpected character '=' (at position 2)"),
    "split-arrow": ("unexpected character '-' (at position 2)", 2,
                    "steps[0].sentences[1]: unexpected character '-' (at position 2)"),
    "half-iff": ("unexpected character '<' (at position 2)", 2,
                 "steps[0].sentences[1]: unexpected character '<' (at position 2)"),
    "less-than": ("unexpected character '<' (at position 2)", 2,
                  "steps[0].sentences[1]: unexpected character '<' (at position 2)"),
    "bad-char-after-name": ("unexpected character '#' (at position 2)", 2,
                            "steps[0].sentences[1]: unexpected character '#' (at position 2)"),
    "tab-then-bad": ("unexpected character '?' (at position 4)", 4,
                     "steps[0].sentences[1]: unexpected character '?' (at position 4)"),
    "wedge": ("unexpected character '∧' (at position 2)", 2,
              "steps[0].sentences[1]: unexpected character '∧' (at position 2)"),
    "logical-not": ("unexpected character '¬' (at position 0)", 0,
                    "steps[0].sentences[1]: unexpected character '¬' (at position 0)"),
    "accented-atom": ("unexpected character 'Ä' (at position 4)", 4,
                      "steps[0].sentences[1]: unexpected character 'Ä' (at position 4)"),
    "unicode-arrow": ("unexpected character '→' (at position 2)", 2,
                      "steps[0].sentences[1]: unexpected character '→' (at position 2)"),
    "fullwidth-letter": ("unexpected character 'Ａ' (at position 0)", 0,
                         "steps[0].sentences[1]: unexpected character 'Ａ' (at position 0)"),
    "zero-width-space": ("unexpected character '\\u200b' (at position 5)", 5,
                         "steps[0].sentences[1]: unexpected character '\\u200b' (at position 5)"),
    "unclosed": ("expected ')' (at position 6)", 6,
                 "steps[0].sentences[1]: expected ')' (at position 6)"),
    "unopened": ("unexpected ')' (at position 5)", 5,
                 "steps[0].sentences[1]: unexpected ')' (at position 5)"),
    "one-short": ("expected ')' (at position 4)", 4,
                  "steps[0].sentences[1]: expected ')' (at position 4)"),
    "lone-close": ("expected a formula, found ')' (at position 0)", 0,
                   "steps[0].sentences[1]: expected a formula, found ')' (at position 0)"),
    "lone-open": ("unexpected end of input (at position 1)", 1,
                  "steps[0].sentences[1]: unexpected end of input (at position 1)"),
    "empty-parens": ("expected a formula, found ')' (at position 1)", 1,
                     "steps[0].sentences[1]: expected a formula, found ')' (at position 1)"),
    "one-extra": ("unexpected ')' (at position 3)", 3,
                  "steps[0].sentences[1]: unexpected ')' (at position 3)"),
    "dangling-and": ("unexpected end of input (at position 3)", 3,
                     "steps[0].sentences[1]: unexpected end of input (at position 3)"),
    "leading-and": ("expected a formula, found '&' (at position 0)", 0,
                    "steps[0].sentences[1]: expected a formula, found '&' (at position 0)"),
    "doubled-and": ("expected a formula, found '&' (at position 4)", 4,
                    "steps[0].sentences[1]: expected a formula, found '&' (at position 4)"),
    "doubled-or": ("expected a formula, found '|' (at position 4)", 4,
                   "steps[0].sentences[1]: expected a formula, found '|' (at position 4)"),
    "doubled-arrow": ("expected a formula, found '->' (at position 5)", 5,
                      "steps[0].sentences[1]: expected a formula, found '->' (at position 5)"),
    "lone-not": ("unexpected end of input (at position 1)", 1,
                 "steps[0].sentences[1]: unexpected end of input (at position 1)"),
    "infix-not": ("unexpected '~' (at position 2)", 2,
                  "steps[0].sentences[1]: unexpected '~' (at position 2)"),
    "dangling-iff": ("unexpected end of input (at position 5)", 5,
                     "steps[0].sentences[1]: unexpected end of input (at position 5)"),
    "and-or": ("expected a formula, found '|' (at position 4)", 4,
               "steps[0].sentences[1]: expected a formula, found '|' (at position 4)"),
    "two-atoms": ("unexpected 'B' (at position 2)", 2,
                  "steps[0].sentences[1]: unexpected 'B' (at position 2)"),
    "constants-side-by-side": ("unexpected 'F' (at position 2)", 2,
                               "steps[0].sentences[1]: unexpected 'F' (at position 2)"),
    "empty": ("unexpected end of input (at position 0)", 0,
              "steps[0].sentences[1]: unexpected end of input (at position 0)"),
    "spaces": ("unexpected end of input (at position 3)", 3,
               "steps[0].sentences[1]: unexpected end of input (at position 3)"),
    "tab-newline": ("unexpected end of input (at position 2)", 2,
                    "steps[0].sentences[1]: unexpected end of input (at position 2)"),
    "170-parens": ("formula nested too deeply (at position 0)", 0,
                   "steps[0].sentences[1]: formula nested too deeply (at position 0)"),
    "3000-negations": ("formula nested too deeply (at position 0)", 0,
                       "steps[0].sentences[1]: formula nested too deeply (at position 0)"),
    "and-chain-past-bound": ("formula nested too deeply (more than 200 levels) (at position 0)",
                             0,
                             "steps[0].sentences[1]: "
                             "formula nested too deeply (more than 200 levels) (at position 0)"),
    "or-chain-1200": ("formula nested too deeply (more than 200 levels) (at position 0)", 0,
                      "steps[0].sentences[1]: "
                      "formula nested too deeply (more than 200 levels) (at position 0)"),
}


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_text_raises_the_pinned_parse_error(name):
    lang = Language(("A", "B"))
    text = MALFORMED[name]
    message, position, scenario_message = PINNED[name]

    err = in_fresh_thread(lambda: parse_formula(text, lang))
    assert isinstance(err, ParseError)
    assert (str(err), err.position) == (message, position)

    doc = {"version": 1, "atoms": ["A", "B"],
           "steps": [{"op": "revise-set", "sentences": ["A", text]}]}
    err = in_fresh_thread(lambda: Scenario.from_dict(doc))
    assert isinstance(err, ScenarioError)
    assert str(err) == scenario_message


def test_the_corpus_is_pinned_in_full():
    assert PINNED.keys() == MALFORMED.keys()
    assert len(MALFORMED) >= 30


def _from_depth(frames: int, call):
    """``call()`` from a caller ``frames`` frames deeper than this one."""
    return _from_depth(frames - 1, call) if frames else call()


@pytest.mark.parametrize("name", ["170-parens", "3000-negations"])
def test_deep_text_fails_alike_from_every_caller(name):
    """Where the recursion limit stops the parser depends on the stack
    below it; the error does not."""
    lang = Language(("A", "B"))
    text = MALFORMED[name]
    doc = {"version": 1, "atoms": ["A", "B"],
           "steps": [{"op": "revise-set", "sentences": ["A", text]}]}
    direct = in_fresh_thread(lambda: parse_formula(text, lang))
    deep = in_fresh_thread(lambda: _from_depth(300, lambda: parse_formula(text, lang)))
    loaded = in_fresh_thread(lambda: Scenario.from_dict(doc))
    for err in (direct, deep):
        assert type(err) is ParseError
        assert (str(err), err.position) == ("formula nested too deeply (at position 0)", 0)
    assert type(loaded) is ScenarioError
    assert isinstance(loaded.__cause__, ParseError)
    assert (str(loaded.__cause__), loaded.__cause__.position) == (str(direct), 0)
