"""FIFO eviction for the package's bounded lookup tables."""

import itertools


def shed(table: dict) -> None:
    """Drop the oldest eighth of ``table``, which a caller keeps bounded.

    Dicts keep insertion order, so the first keys are the oldest.  FIFO
    eviction suits tables whose callers move on from old keys: sweeps
    visit one prior order at a time, and scenario sentences are read
    document by document.
    """
    for stale in list(itertools.islice(table, len(table) // 8)):
        del table[stale]
