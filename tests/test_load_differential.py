"""The mask route of a scenario load against the tree and world-set routes.

``scenario._parsed``, the table over ``logic.sentence_mask``, has the
parser build each sentence's mask, with no tree in between.  On seeded
random texts at 1-4 atoms, with every connective, the constants,
redundant parentheses and odd whitespace, it must give ``model_mask`` of ``parse_formula``'s tree; so must the parser
run with the mask operations on chains at exactly ``MAX_FORMULA_DEPTH``,
which ``_parsed`` itself sends down the tree route when they are long.
On every malformed text of ``test_parse_errors`` both routes must raise
the same ``ParseError``.

``tpo.read_order`` reads world names straight into masks.  On seeded
orders it must give ``TPO([read_worlds(b, lang) for b in blocks])``, and
on orders with one or two faults of every kind it must raise what the
world-set reading raised, in its words.
"""

import random

import pytest

from revforge import TPO, LanguageError, ParseError, PartitionError, model_mask, parse_formula
from revforge import scenario as scenario_module
from revforge.logic import _MASKS, MAX_FORMULA_DEPTH, _Parser, shared_language
from revforge.tpo import read_order, read_worlds
from test_parse_errors import MALFORMED, _from_depth, in_fresh_thread

ATOMS = ("A", "B", "C", "D")
SYMBOLS = ("&", "|", "->", "<->")
GAPS = ("", "", " ", " ", "  ", "\t", "\n")


def random_text(rng: random.Random, atoms: list[str], depth: int) -> str:
    if depth == 0 or rng.random() < 0.25:
        text = rng.choice(atoms + ["T", "F"])
    elif rng.random() < 0.2:
        text = "~" + rng.choice(GAPS) + random_text(rng, atoms, depth - 1)
    else:
        text = (random_text(rng, atoms, depth - 1) + rng.choice(GAPS) + rng.choice(SYMBOLS)
                + rng.choice(GAPS) + random_text(rng, atoms, depth - 1))
    for _ in range(rng.choice((0, 0, 0, 1, 2))):
        text = f"({rng.choice(GAPS)}{text}{rng.choice(GAPS)})"
    return text


def tree_mask(text: str, lang) -> int:
    return model_mask(parse_formula(text, lang), lang)


def mask_route(text: str, lang) -> int:
    """The parser run with ``sentence_mask``'s mask operations, whatever the text's length."""
    build = (lang._atom_masks.__getitem__, *_MASKS)
    return _Parser(text, lang, build).parse() & lang._full_mask


def outcome(call):
    """What ``call()`` returns, or the type, text and position of what it raises."""
    try:
        return call()
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc), getattr(exc, "position", None)


@pytest.mark.parametrize("count", range(1, 5))
def test_the_mask_route_equals_the_tree_route_on_random_texts(count):
    lang = shared_language(ATOMS[:count])
    rng = random.Random(3310 + count)
    texts = [random_text(rng, list(lang.atoms), rng.randrange(1, 6)) for _ in range(1_300)]
    for text in texts:
        want = tree_mask(text, lang)
        assert scenario_module._parsed.__wrapped__(text, lang.atoms) == want, text
        assert mask_route(text, lang) == want, text
    # the texts reach every connective, both constants and odd spacing
    joined = "".join(texts)
    assert all(token in joined for token in (*SYMBOLS, "~", "T", "F", "((", "\t", "\n"))


@pytest.mark.parametrize("count", range(1, 5))
@pytest.mark.parametrize("symbol", [*SYMBOLS, "~"])
def test_the_routes_agree_on_chains_at_the_depth_bound(count, symbol):
    lang = shared_language(ATOMS[:count])
    rng = random.Random(f"{count}{symbol}")
    atoms = [rng.choice(lang.atoms + ("T", "F")) for _ in range(MAX_FORMULA_DEPTH)]
    if symbol == "~":
        text = "~" * (MAX_FORMULA_DEPTH - 1) + atoms[0]
    else:
        text = f" {symbol} ".join(atoms)
    want = tree_mask(text, lang)
    assert scenario_module._parsed.__wrapped__(text, lang.atoms) == want
    assert mask_route(text, lang) == want


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_text_raises_the_same_error_through_both_routes(name):
    lang = shared_language(("A", "B"))
    text = MALFORMED[name]
    want = in_fresh_thread(lambda: parse_formula(text, lang))
    got = in_fresh_thread(lambda: scenario_module._parsed.__wrapped__(text, lang.atoms))
    assert type(got) is type(want)
    assert (str(got), got.position) == (str(want), want.position)


def test_a_short_text_too_deep_for_the_stack_fails_alike_through_both_routes():
    """99 parentheses take 199 tokens, so the text stays on the mask
    route; 400 frames below the parser leave it too little room, and
    both routes then raise the parser's own ``ParseError``."""
    lang = shared_language(("A", "B"))
    text = "(" * 99 + "A" + ")" * 99
    assert in_fresh_thread(lambda: scenario_module._parsed.__wrapped__(text, lang.atoms)) is None
    want = in_fresh_thread(lambda: _from_depth(400, lambda: parse_formula(text, lang)))
    got = in_fresh_thread(
        lambda: _from_depth(400, lambda: scenario_module._parsed.__wrapped__(text, lang.atoms)))
    assert type(want) is type(got) is ParseError
    assert (str(got), got.position) == (str(want), want.position) == (
        "formula nested too deeply (at position 0)", 0)


# --- orders -------------------------------------------------------------------

def world_set_worlds(names, lang) -> frozenset[int]:
    """A block as the world-set reading read it."""
    if not isinstance(names, list):
        raise TypeError(f"expected a list, got {names!r}")
    worlds = frozenset(map(lang.world_from_name, names))
    if len(worlds) < len(names):
        twice = next(n for i, n in enumerate(names) if n in names[:i])
        raise LanguageError(f"world {twice!r} is listed twice in one block or input")
    return worlds


def world_set_order(blocks, lang) -> TPO:
    """An order as the world-set reading read it: every block, then the
    count of worlds placed, then the checked ``TPO``."""
    if not isinstance(blocks, list):
        raise TypeError(f"expected a list, got {blocks!r}")
    worlds = [world_set_worlds(block, lang) for block in blocks]
    placed = len(frozenset().union(*worlds))
    if placed != lang.num_worlds:
        raise PartitionError(f"the order places {placed} worlds, the language has "
                             f"{lang.num_worlds}")
    return TPO(worlds)


def random_order(rng: random.Random, lang) -> list[list[str]]:
    names = list(lang.world_names)
    ranks = [rng.randrange(len(names)) for _ in names]
    return [rng.sample([n for n, r in zip(names, ranks) if r == level], ranks.count(level))
            for level in sorted(set(ranks))]


def _some_block(rng, blocks) -> list:
    return rng.choice([block for block in blocks if isinstance(block, list) and block])


def _wrong_name(rng, lang, blocks):
    block = _some_block(rng, blocks)
    block[rng.randrange(len(block))] = rng.choice(
        ["0" * (len(lang.atoms) + 1), "2" * len(lang.atoms), "", 5, None, ["0"], {"a": 1}])


def _repeat(rng, lang, blocks):
    block = _some_block(rng, blocks)
    block.insert(rng.randrange(len(block) + 1), rng.choice(block))


def _overlap(rng, lang, blocks):
    _some_block(rng, blocks).append(rng.choice(_some_block(rng, blocks)))


def _drop(rng, lang, blocks):
    block = _some_block(rng, blocks)
    block.remove(rng.choice(block))


def _empty(rng, lang, blocks):
    blocks.insert(rng.randrange(len(blocks) + 1), [])


def _not_a_list(rng, lang, blocks):
    i = rng.randrange(len(blocks))
    blocks[i] = rng.choice([tuple(blocks[i]), str(blocks[i]), None, {}])


# the two that can leave no non-empty block for another fault come last
FAULTS = (_wrong_name, _repeat, _overlap, _drop, _empty, _not_a_list)


@pytest.mark.parametrize("count", range(1, 5))
def test_read_order_equals_the_world_set_reading_on_valid_orders(count):
    lang = shared_language(ATOMS[:count])
    rng = random.Random(3320 + count)
    for _ in range(400):
        blocks = random_order(rng, lang)
        got = read_order(blocks, lang)
        assert got == TPO([read_worlds(b, lang) for b in blocks]) == world_set_order(blocks, lang)
        assert got.num_worlds == lang.num_worlds
        assert [read_worlds(b, lang) for b in blocks] == [world_set_worlds(b, lang) for b in blocks]


@pytest.mark.parametrize("count", range(1, 5))
def test_read_order_raises_what_the_world_set_reading_raised(count):
    lang = shared_language(ATOMS[:count])
    rng = random.Random(3330 + count)
    raised = set()
    for _ in range(600):
        blocks = random_order(rng, lang)
        for fault in sorted(rng.sample(FAULTS, rng.choice((1, 1, 2))), key=FAULTS.index):
            fault(rng, lang, blocks)
        want = outcome(lambda: world_set_order(blocks, lang))
        assert outcome(lambda: read_order(blocks, lang)) == want, blocks
        raised.add(want[0] if isinstance(want, tuple) else None)
        for block in blocks:
            assert outcome(lambda: read_worlds(block, lang)) == outcome(
                lambda: world_set_worlds(block, lang))
    for blocks in ("uniform", 7, None, {"a": []}, (["0"],)):
        want = outcome(lambda: world_set_order(blocks, lang))
        assert outcome(lambda: read_order(blocks, lang)) == want
        assert want[0] is TypeError
    assert raised == {TypeError, LanguageError, PartitionError, None}
