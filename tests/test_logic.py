"""Propositional core: parsing, printing, and model enumeration.

``models`` is computed by structural set algebra while ``evaluate`` walks
the AST truth-functionally, so the two act as independent oracles for
each other; several tests below cross-validate them.
"""

import pytest
from hypothesis import given, strategies as st

from revforge import (BOTTOM, TOP, FormulaSet, Language, LanguageError,
                      ParseError, atoms_of, canonical_formula, cn_equal, conj,
                      entails, evaluate, format_formula, is_consistent, models,
                      neg_set, parse_formula, sat_subset)
from revforge.logic import MAX_FORMULA_DEPTH, And, Atom, Iff, Implies, Not, Or, _depth


# --- language ---

def test_world_naming_uses_first_atom_as_high_bit(lang2):
    assert lang2.world_name(2) == "10"
    assert lang2.world_name(1) == "01"
    assert lang2.world_from_name("10") == 2
    assert [lang2.world_name(w) for w in lang2.worlds()] == ["00", "01", "10", "11"]


def test_world_name_round_trip(lang3):
    for w in lang3.worlds():
        assert lang3.world_from_name(lang3.world_name(w)) == w


def test_holds_at(lang2):
    assert lang2.holds_at(2, "A")
    assert not lang2.holds_at(2, "B")
    assert lang2.holds_at(3, "B")


def test_language_rejects_duplicates_and_reserved_names():
    with pytest.raises(LanguageError):
        Language(("A", "A"))
    with pytest.raises(LanguageError):
        Language(("T", "A"))
    with pytest.raises(LanguageError):
        Language(())
    # an atom name that is not a string is a bad name, not a bare TypeError
    with pytest.raises(LanguageError, match="bad atom name 1"):
        Language([1, 2])


def test_language_rejects_bad_world_names(lang2):
    with pytest.raises(LanguageError):
        lang2.world_from_name("0")
    with pytest.raises(LanguageError):
        lang2.world_from_name("2x")


@pytest.mark.parametrize("name", [5, None, b"01", ["0", "1"], 1.0, "", "012", "0b1", " 01"])
def test_world_names_that_are_not_bit_strings_raise_language_error(lang2, name):
    with pytest.raises(LanguageError) as err:
        lang2.world_from_name(name)
    assert str(err.value) == f"world name {name!r} is not a 2-bit string"


# --- parsing ---

@pytest.mark.parametrize("text,worlds", [
    ("A", {2, 3}),
    ("B", {1, 3}),
    ("A & B", {3}),
    ("~(A | B)", {0}),
    ("A -> B", {0, 1, 3}),
    ("A <-> B", {0, 3}),
    ("T", {0, 1, 2, 3}),
    ("F", set()),
    ("A | ~A", {0, 1, 2, 3}),
])
def test_models_of_examples(lang2, text, worlds):
    assert models(parse_formula(text, lang2), lang2) == frozenset(worlds)


def test_precedence_structure(lang3):
    f = parse_formula("A | B & C", lang3)
    assert f == Or(Atom("A"), And(Atom("B"), Atom("C")))
    g = parse_formula("~A & B", lang3)
    assert g == And(Not(Atom("A")), Atom("B"))
    h = parse_formula("A -> B -> C", lang3)
    assert h == Implies(Atom("A"), Implies(Atom("B"), Atom("C")))
    k = parse_formula("A <-> B <-> C", lang3)
    assert k == Iff(Atom("A"), Iff(Atom("B"), Atom("C")))
    m = parse_formula("A & B & C", lang3)
    assert m == And(And(Atom("A"), Atom("B")), Atom("C"))


def test_arrow_binds_looser_than_or(lang3):
    f = parse_formula("A -> B | C", lang3)
    assert f == Implies(Atom("A"), Or(Atom("B"), Atom("C")))


def test_parse_error_reports_position(lang2):
    with pytest.raises(ParseError) as err:
        parse_formula("A & C", lang2)
    assert err.value.position == 4

    with pytest.raises(ParseError):
        parse_formula("(A & B", lang2)
    with pytest.raises(ParseError):
        parse_formula("", lang2)
    with pytest.raises(ParseError):
        parse_formula("A &", lang2)
    with pytest.raises(ParseError):
        parse_formula("A @ B", lang2)
    with pytest.raises(ParseError):
        parse_formula("A B", lang2)


@pytest.mark.parametrize("call, message", [
    (lambda lang: parse_formula(5, lang), "expected a formula string, got int"),
    (lambda lang: parse_formula(None, lang), "expected a formula string, got NoneType"),
    (lambda lang: parse_formula(b"A", lang), "expected a formula string, got bytes"),
    (lambda lang: FormulaSet.parse("A & B", lang), "got one str"),
    (lambda lang: FormulaSet.parse("A", lang), "got one str"),
], ids=["int", "none", "bytes", "set-of-one-str", "set-of-one-atom-str"])
def test_text_that_is_not_a_string_raises_parse_error(lang2, call, message):
    with pytest.raises(ParseError, match=message) as err:
        call(lang2)
    assert err.value.position == 0


@pytest.mark.parametrize("call, got", [
    (lambda: parse_formula("A", None), "None"),
    (lambda: parse_formula("A", ("A", "B")), "('A', 'B')"),
    (lambda: FormulaSet.parse(["A"], None), "None"),
], ids=["none", "tuple-of-atoms", "set-none"])
def test_a_language_that_is_not_a_language_raises_language_error(call, got):
    with pytest.raises(LanguageError) as err:
        call()
    assert str(err.value) == f"parse_formula takes a Language, got {got}"


@pytest.mark.parametrize("text", ["(" * 170 + "A" + ")" * 170, "~" * 3000 + "A"],
                         ids=["170-parens", "3000-negations"])
def test_nesting_too_deep_to_parse_raises_parse_error(lang2, text):
    with pytest.raises(ParseError, match="formula nested too deeply"):
        parse_formula(text, lang2)


def test_deep_but_parseable_nesting_still_parses(lang2):
    assert parse_formula("(" * 150 + "A" + ")" * 150, lang2) == Atom("A")


@pytest.mark.parametrize("op", ["&", "|"])
def test_chains_are_walkable_up_to_the_depth_bound_and_rejected_past_it(lang2, op):
    """``&`` and ``|`` chains are parsed in a loop, not by recursion, so
    the depth bound is what keeps the recursive walks over them safe."""
    at_bound = f" {op} ".join(["A"] * MAX_FORMULA_DEPTH)
    formula = parse_formula(at_bound, lang2)
    assert parse_formula(format_formula(formula), lang2) == formula
    assert models(formula, lang2) == {w for w in lang2.worlds() if evaluate(formula, w, lang2)}
    assert models(formula, lang2) == {2, 3}
    with pytest.raises(ParseError, match="formula nested too deeply"):
        parse_formula(f"{at_bound} {op} A", lang2)


def test_atoms_of(lang3):
    assert atoms_of(parse_formula("A -> (B <-> ~A)", lang3)) == {"A", "B"}
    assert atoms_of(TOP) == frozenset()


# --- printing ---

@pytest.mark.parametrize("text", [
    "A", "~A", "A & B", "A | B & C", "(A | B) & C", "A -> B -> C",
    "(A -> B) -> C", "~(A | B)", "A <-> (B <-> ~A)", "A & (B & C)",
])
def test_print_then_parse_is_identity(lang3, text):
    f = parse_formula(text, lang3)
    assert parse_formula(format_formula(f), lang3) == f


def formulas(atom_names):
    leaves = st.sampled_from([Atom(n) for n in atom_names] + [TOP, BOTTOM])
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            sub.map(Not),
            st.tuples(sub, sub).map(lambda p: And(*p)),
            st.tuples(sub, sub).map(lambda p: Or(*p)),
            st.tuples(sub, sub).map(lambda p: Implies(*p)),
            st.tuples(sub, sub).map(lambda p: Iff(*p)),
        ),
        max_leaves=12,
    )


@given(formulas(("A", "B", "C")))
def test_print_parse_fixpoint_random(f):
    lang = Language(("A", "B", "C"))
    assert parse_formula(format_formula(f), lang) == f


BINARY = (And, Or, Implies, Iff)


def nested_pairs(outer, inner):
    """The five shapes that nest ``inner`` (and negation) under ``outer``."""
    a, b, c = Atom("A"), Atom("B"), Atom("C")
    return (outer(inner(a, b), c), outer(a, inner(b, c)), Not(outer(a, b)),
            outer(Not(a), b), outer(a, Not(inner(b, c))))


def paren_pairs(text):
    """The (open, close) offsets of each matching pair of parentheses."""
    pairs, opened = [], []
    for i, ch in enumerate(text):
        if ch == "(":
            opened.append(i)
        elif ch == ")":
            pairs.append((opened.pop(), i))
    return pairs


@pytest.mark.parametrize("outer", BINARY, ids=lambda node: node.__name__)
@pytest.mark.parametrize("inner", BINARY, ids=lambda node: node.__name__)
def test_printing_uses_the_fewest_parentheses(lang3, outer, inner):
    # every pair the printer writes is needed: without it the text reads
    # as another tree or does not parse
    for f in nested_pairs(outer, inner):
        text = format_formula(f)
        assert parse_formula(text, lang3) == f
        for left, right in paren_pairs(text):
            bare = text[:left] + text[left + 1:right] + text[right + 1:]
            try:
                assert parse_formula(bare, lang3) != f, (text, bare)
            except ParseError:
                pass


@given(formulas(("A", "B")))
def test_models_agree_with_pointwise_evaluation(f):
    lang = Language(("A", "B"))
    assert models(f, lang) == frozenset(
        w for w in lang.worlds() if evaluate(f, w, lang))


# --- consequence helpers ---

def test_entails_and_consistency(lang2):
    a = parse_formula("A & B", lang2)
    b = parse_formula("A", lang2)
    assert entails(a, b, lang2)
    assert not entails(b, a, lang2)
    assert is_consistent(a, lang2)
    assert not is_consistent(parse_formula("A & ~A", lang2), lang2)


def test_canonical_formula_round_trips_every_region(lang2):
    for mask in range(16):
        region = frozenset(w for w in range(4) if (mask >> w) & 1)
        assert models(canonical_formula(region, lang2), lang2) == region


def test_canonical_formula_edges(lang2):
    assert canonical_formula(frozenset(), lang2) == BOTTOM
    assert canonical_formula(frozenset(range(4)), lang2) == TOP


def test_canonical_formulas_and_conjunctions_join_in_balanced_pairs(lang3):
    """Neighbours join in pairs, round after round: three items are the
    left-nested chain, four are two pairs."""
    a, b, c = (Atom(name) for name in lang3.atoms)
    terms = [And(And(Not(a), Not(b)), c if w & 1 else Not(c)) for w in range(2)]
    assert canonical_formula({0, 1}, lang3) == Or(*terms)
    assert conj(FormulaSet(lang3, [a, b, c])) == And(And(a, b), c)
    assert conj(FormulaSet(lang3, [a, b, c, Not(a)])) == And(And(a, b), And(c, Not(a)))
    assert str(canonical_formula(range(4), lang3)) == (
        "~A & ~B & ~C | ~A & ~B & C | (~A & B & ~C | ~A & B & C)")


def test_large_canonical_formulas_and_conjunctions_stay_walkable():
    """A canonical formula of 1,000 worlds over 10 atoms is 16 nodes deep,
    and a conjunction of 1,331 members over 11 atoms 17: every walk over
    them stays inside the recursion limit, and the text parses back."""
    lang = Language([f"p{i}" for i in range(10)])
    worlds = frozenset(range(1000))
    f = canonical_formula(worlds, lang)
    assert _depth(f) == 16
    assert models(f, lang) == worlds
    assert atoms_of(f) == set(lang.atoms)
    assert evaluate(f, 999, lang) and not evaluate(f, 1000, lang)
    assert parse_formula(str(f), lang) == f
    assert repr(FormulaSet(lang, [f])) == f"FormulaSet({{{f}}})"
    lang11 = Language([f"q{i}" for i in range(11)])
    s = FormulaSet(lang11, [canonical_formula({w}, lang11) for w in range(1331)])
    assert _depth(conj(s)) == 17
    assert cn_equal(s, s) and not is_consistent(conj(s), lang11)


# --- formula sets ---

def test_formula_set_dedupes_syntactically(lang2):
    s = FormulaSet.parse(["A & B", "A & B", "B & A"], lang2)
    # same text collapses, commuted text does not
    assert len(s) == 2
    assert [str(m) for m in s] == ["A & B", "B & A"]


def test_formula_set_union_and_model_sets(lang2):
    s = FormulaSet.parse(["A"], lang2)
    u = s.union(FormulaSet.parse(["B", "A"], lang2))
    assert [str(m) for m in u] == ["A", "B"]
    assert u.model_sets() == (frozenset({2, 3}), frozenset({1, 3}))


def test_conj_of_empty_set_is_top(lang2):
    assert conj(FormulaSet(lang2)) == TOP
    s = FormulaSet.parse(["A", "~A"], lang2)
    assert models(conj(s), lang2) == frozenset()


def test_neg_set_and_sat_subset(lang2):
    s = FormulaSet.parse(["A", "B"], lang2)
    negs = neg_set(s)
    assert negs.model_sets() == (frozenset({0, 1}), frozenset({0, 2}))
    at2 = sat_subset(s, 2)
    assert [str(m) for m in at2] == ["A"]
    assert len(sat_subset(s, 3)) == 2
    assert len(sat_subset(s, 0)) == 0


def test_cn_equal_ignores_syntax(lang2):
    assert cn_equal(FormulaSet.parse(["A & B"], lang2),
                    FormulaSet.parse(["B", "A"], lang2))
    assert not cn_equal(FormulaSet.parse(["A"], lang2),
                        FormulaSet.parse(["B"], lang2))
