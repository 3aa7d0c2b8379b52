"""The two checked readers of an order agree on what they share.

``TPO(blocks)`` reads blocks of world indices and ``read_order`` reads
blocks of world names.  Each has a first check of its own: the range of
each block for ``TPO(blocks)``, the count of placed worlds for
``read_order``.  Past it, both reject an empty block and a block that
overlaps an earlier one, in the same words.  The cases here are read by
both over the four worlds of two atoms, world w named ``format(w, "02b")``.
"""

import pytest

from revforge import TPO, Language, LanguageError, PartitionError
from revforge.tpo import read_order

LANG = Language(("A", "B"))


def _names(blocks) -> list[list[str]]:
    return [[format(w, "02b") for w in sorted(block)] for block in blocks]


def _message(call) -> str:
    with pytest.raises(PartitionError) as err:
        call()
    return str(err.value)


@pytest.mark.parametrize("blocks, message", [
    (((), {0, 1, 2, 3}), "blocks must be non-empty"),
    (({0, 1, 2, 3}, ()), "blocks must be non-empty"),
    (({0, 1}, {1, 2, 3}), "blocks overlap on [1]"),
    (({0, 1, 2, 3}, {0}, ()), "blocks overlap on [0]"),
    (((), {0, 1, 2, 3}, {0}), "blocks must be non-empty"),
    (({0, 1, 2}, {1, 2, 3}), "blocks overlap on [1, 2]"),
], ids=["empty-first", "empty-last", "overlap", "overlap-then-empty", "empty-then-overlap",
        "overlap-of-two"])
def test_both_readers_reject_an_empty_or_overlapping_block_in_the_same_words(blocks, message):
    assert _message(lambda: TPO(blocks)) == message
    assert _message(lambda: read_order(_names(blocks), LANG)) == message


@pytest.mark.parametrize("blocks, message", [
    (((), {0}, {5}), "blocks must be non-empty"),
    (({0}, {0}, {7}), "blocks overlap on [0]"),
    (({5}, ()), "blocks must cover range(1) exactly: worlds [5] are not in range(1)"),
    (({0}, {0, 9}), "blocks must cover range(3) exactly: worlds [9] are not in range(3)"),
], ids=["empty-before-range", "overlap-before-range", "range-before-empty",
        "range-before-overlap"])
def test_the_block_reader_reports_the_first_fault_in_block_order(blocks, message):
    assert _message(lambda: TPO(blocks)) == message


@pytest.mark.parametrize("blocks, message", [
    ([["00"], []], "the order places 1 worlds, the language has 4"),
    ([["00", "01"], ["01"]], "the order places 2 worlds, the language has 4"),
    ([[], ["00", "01", "10"]], "the order places 3 worlds, the language has 4"),
], ids=["empty-and-unplaced", "overlap-and-unplaced", "empty-first-and-unplaced"])
def test_the_name_reader_reports_an_unplaced_world_before_an_empty_or_overlapping_block(
        blocks, message):
    assert _message(lambda: read_order(blocks, LANG)) == message


def test_the_name_reader_reports_an_unknown_name_before_an_empty_block():
    with pytest.raises(LanguageError, match="world name '22' is not a 2-bit string"):
        read_order([[], ["22"]], LANG)
