"""The one fold over formula trees against the walkers it replaced.

``atoms_of``, ``format_formula`` and ``model_mask`` each fold a tree
through a build table of the parser's shape.  ``reference_core`` keeps
the walkers they replaced, each dispatching on node kinds itself, with
``model_mask`` cutting its mask at every node.  On seeded random trees
at 1-4 atoms, with ``T`` and ``F`` leaves, nested negations and every
connective, both must give the same atom sets, text and masks.  A tree
holding a value that is not a formula, at any depth, must raise the same
``FormulaError`` in the same words from both, and an atom the language
does not know the same ``LanguageError`` from both ``model_mask``s.
"""

import random

import pytest

import reference_core as ref
from revforge import (FormulaError, Language, LanguageError, atoms_of, format_formula,
                      model_mask)
from revforge.logic import BOTTOM, TOP, And, Atom, Iff, Implies, Not, Or, sentence_mask

ATOMS = ("A", "B", "C", "D")
BINARY = (And, Or, Implies, Iff)


def random_formula(rng: random.Random, atoms, depth: int):
    """A tree of at most ``depth`` levels below its negations; a node is a
    run of one to three negations about a third of the time."""
    if depth == 0 or rng.random() < 0.2:
        node = rng.choice([Atom(a) for a in atoms] + [TOP, BOTTOM])
    else:
        kind = rng.choice(BINARY)
        node = kind(random_formula(rng, atoms, depth - 1), random_formula(rng, atoms, depth - 1))
    if rng.random() < 0.3:
        for _ in range(rng.randint(1, 3)):
            node = Not(node)
    return node


def kinds(formula) -> set:
    """The node types of ``formula``, with ``"~~"`` for a double negation."""
    seen, stack = set(), [formula]
    while stack:
        node = stack.pop()
        seen.add(type(node))
        if isinstance(node, Not):
            if isinstance(node.operand, Not):
                seen.add("~~")
            stack.append(node.operand)
        elif type(node) in BINARY:
            stack += [node.left, node.right]
    return seen


def outcome(call):
    """What ``call()`` returns, or the type and message of what it raises."""
    try:
        return call()
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)


@pytest.mark.parametrize("count", range(1, 5))
def test_the_fold_gives_what_the_walkers_gave(count):
    lang = Language(ATOMS[:count])
    rng = random.Random(4300 + count)
    seen = set()
    for _ in range(300):
        f = random_formula(rng, lang.atoms, 5)
        seen |= kinds(f)
        assert atoms_of(f) == ref.atoms_of(f)
        text = format_formula(f)
        assert text == ref.format_formula(f) == str(f)
        mask = model_mask(f, lang)
        assert mask == ref.model_mask(f, lang) == sentence_mask(text, lang)
    assert seen >= {Atom, Not, "~~", type(TOP), type(BOTTOM), *BINARY}


A, B = Atom("A"), Atom("B")
NOT_FORMULAS = [
    And(A, 5), Not(None), Or(Not(B), "A"), Implies(Iff(TOP, [1]), A),
    Not(Not(Not(Atom))), Iff(Or(A, And(B, Not(2.5))), BOTTOM), And(b"A", A),
]


@pytest.mark.parametrize("tree", NOT_FORMULAS, ids=repr)
def test_a_value_that_is_not_a_formula_raises_the_same_error_at_any_depth(tree):
    lang = Language(("A", "B"))
    for new, old in ((atoms_of, ref.atoms_of), (format_formula, ref.format_formula),
                     (lambda f: model_mask(f, lang), lambda f: ref.model_mask(f, lang))):
        got = outcome(lambda: new(tree))
        assert got == outcome(lambda: old(tree))
        assert got[0] is FormulaError and got[1].startswith("not a formula: ")


@pytest.mark.parametrize("tree", [
    Atom("Z"), Not(Atom("Z")), And(A, Or(TOP, Atom("Z"))), Or(Atom("Z"), 5),
], ids=repr)
def test_an_unknown_atom_raises_the_same_language_error(tree):
    lang = Language(("A", "B"))
    got = outcome(lambda: model_mask(tree, lang))
    assert got == outcome(lambda: ref.model_mask(tree, lang)) == (LanguageError, "unknown atom 'Z'")
