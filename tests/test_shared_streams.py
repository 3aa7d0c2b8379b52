"""Sampled streams are drawn once and kept.

A sampled space reads the prefix kept for its (atoms, shape, seed,
max_set_size) in ``spaces`` where the prefix holds its count, and
otherwise draws for itself and offers the table what it drew, up to
``_STREAM_CAP`` instances and ``_MEMBER_CAP`` orders and propositions.
The table's entry for a key is the kept instances and, for a prefix
full at the cap, the generator's state there.  Each test here compares
what a reader gets with a private draw from ``random.Random(seed)``
through the parts' samplers, the generator every sampled space ran
before streams were kept.
"""

import gc
import random
import sys
import threading
from dataclasses import replace

import pytest

from revforge.errors import ParseError, SpaceError
from revforge.parallel import OperatorConfig
from revforge.postulates import InstanceSpace, check, spaces
from revforge.postulates.spaces import SHAPES


@pytest.fixture(autouse=True)
def cold_table():
    """Every test starts and ends with no kept stream, so no result
    depends on which tests ran before it."""
    spaces._drawn.clear()
    yield
    spaces._drawn.clear()


def private_stream(space: InstanceSpace, shape: str):
    """The stream a sampled space drew for itself before streams were shared."""
    rng = random.Random(space.seed)
    draws = [part.sampler(space, rng) for _, part in SHAPES[shape]]
    return (tuple([draw() for draw in draws]) for _ in range(space.sample_count))


def sampled(atoms=3, count=500, seed=11, **fields) -> InstanceSpace:
    return InstanceSpace(atoms=atoms, mode="sampled", sample_count=count, seed=seed, **fields)


def counting_preorder_draws(monkeypatch) -> list:
    """Count the calls of every preorder draw bound from now on; the
    returned list holds one entry per call."""
    calls = []
    bind = spaces._preorder_draw

    def counted(rng, num_worlds):
        draw = bind(rng, num_worlds)

        def call():
            calls.append(None)
            return draw()
        return call

    monkeypatch.setattr(spaces, "_preorder_draw", counted)
    return calls


def _report_key(report) -> dict:
    data = report.to_json_dict()
    data.pop("elapsed_ms")
    return data


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("atoms", [1, 2, 3])
def test_the_shared_stream_is_the_private_stream(atoms, shape):
    """Below, at and above the cap, in that order, so that the first read
    draws, the second extends the kept stream to the cap and the third
    goes past it on a copy of the generator's state there."""
    cap = spaces._STREAM_CAP
    reference = list(private_stream(sampled(atoms, cap + 100, seed=atoms), shape))
    for count in (100, cap, cap + 100):
        assert list(sampled(atoms, count, seed=atoms).instances(shape)) == reference[:count]
    assert [len(kept) for kept, _ in spaces._drawn.values()] == [cap]


def test_interleaved_readers_read_the_same_stream(monkeypatch):
    """Two readers over equal spaces, advanced in turn, each get the
    private stream, past the cap too; so does a reader that starts when
    the others are halfway."""
    monkeypatch.setattr(spaces, "_STREAM_CAP", 40)
    space = sampled(count=100, max_set_size=3)
    reference = list(private_stream(space, "pset2"))
    first, second = space.instances("pset2"), replace(space).instances("pset2")
    got_first, got_second = [], []
    for i in range(100):
        got_first.append(next(first))
        got_second.append(next(second))
        if i == 49:
            late = list(space.instances("pset2"))
    assert got_first == got_second == late == reference
    assert next(first, None) is None and next(second, None) is None


def test_an_early_stop_leaves_the_stream_whole():
    """A ``first=True`` sweep that stops at its first witness keeps only
    the draws it read; a longer sweep after it reads the private stream
    and reports what it reports over a cold table."""
    space = sampled(count=3000, seed=3)
    stopped = check("P-star", replace(space, sample_count=1000), first=True)
    assert stopped.total_hits and stopped.generated < 1000
    assert [len(kept) for kept, _ in spaces._drawn.values()] == [stopped.generated]
    assert list(space.instances("pset2")) == list(private_stream(space, "pset2"))
    warm = check("P-star", space)
    spaces._drawn.clear()
    assert _report_key(warm) == _report_key(check("P-star", space))


def test_operators_and_violation_cap_share_the_stream(monkeypatch):
    """The key leaves out what the stream does not depend on: spaces that
    differ in operators or violation cap read the same instance objects,
    and only the first of them draws."""
    calls = counting_preorder_draws(monkeypatch)
    space = sampled(count=300)
    plain = list(space.instances("pset"))
    others = [replace(space, operators=OperatorConfig(base="lex", strategy="round-robin")),
              replace(space, violation_cap=0)]
    for other in others:
        got = list(other.instances("pset"))
        assert got == list(private_stream(other, "pset"))
        assert all(a is b for a, b in zip(got, plain))
    assert len(spaces._drawn) == 1
    # the private reference streams drew 300 each, the shared stream once
    assert len(calls) == 300 * (1 + len(others))
    wider = replace(space, max_set_size=3)
    assert list(wider.instances("pset")) == list(private_stream(wider, "pset")) != plain
    assert len(spaces._drawn) == 2


def test_seven_sweeps_draw_each_prior_once(monkeypatch):
    """Seven C-star sweeps over equal 500-draw spaces draw the stream's
    priors once, not seven times, and report what they report when each
    sweep meets a cold table."""
    ids = ("C-star-1", "C-star-2", "C-star-2-plus", "C-star-3", "C-star-4",
           "C-star-1-pair", "C-star-3-pair")
    calls = counting_preorder_draws(monkeypatch)
    shared = [check(pid, sampled(count=500)) for pid in ids]
    assert len(calls) == 500
    cold = []
    for pid in ids:
        spaces._drawn.clear()
        cold.append(check(pid, sampled(count=500)))
    assert len(calls) == 500 + 7 * 500
    assert [_report_key(r) for r in shared] == [_report_key(r) for r in cold]


def test_a_stream_holds_at_most_the_cap():
    """However many readers and however long their spaces, no kept stream
    grows past the cap, and the table keeps the streams used last."""
    cap = spaces._STREAM_CAP
    long_reader = sampled(atoms=2, count=cap + 500, seed=2).instances("serial")
    for _ in range(cap + 250):
        next(long_reader)
    longer = sampled(atoms=2, count=cap + 900, seed=2)
    assert sum(1 for _ in longer.instances("serial")) == cap + 900
    for _ in long_reader:
        pass
    for seed in range(3, 6):
        sum(1 for _ in sampled(atoms=2, count=cap + 10, seed=seed).instances("serial"))
    assert list(spaces._drawn) == [(2, "serial", 4, 2), (2, "serial", 5, 2)]
    assert all(len(kept) == cap for kept, _ in spaces._drawn.values())


def test_readers_in_threads_read_the_private_stream():
    """Readers of one stream in more threads than cores, switching as
    often as the interpreter allows, each get the private stream, and the
    table keeps one whole copy of it."""
    space = sampled(count=3000)
    reference = list(private_stream(space, "pset"))
    results = [None] * 4

    def read(j):
        results[j] = list(replace(space).instances("pset"))

    threads = [threading.Thread(target=read, args=(j,)) for j in range(len(results))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [reference] * len(results)
    assert [len(kept) for kept, _ in spaces._drawn.values()] == [3000]


def failing_preorder_draws(monkeypatch, k, error, every_stream):
    """Make the preorder draw raise ``error()`` at index k: for every
    generator bound from now on where ``every_stream``, as a draw that
    fails whatever its seed would, and else only once."""
    bind = spaces._preorder_draw
    raised = []

    def failing(rng, num_worlds):
        draw = bind(rng, num_worlds)
        calls = []

        def call():
            calls.append(None)
            if len(calls) == k + 1 and (every_stream or not raised):
                raised.append(None)
                raise error()
            return draw()
        return call

    monkeypatch.setattr(spaces, "_preorder_draw", failing)
    return raised


def read_until_error(reader, error_type) -> tuple[list, BaseException]:
    got = []
    with pytest.raises(error_type) as info:
        for instance in reader:
            got.append(instance)
    return got, info.value


@pytest.mark.parametrize("k", [0, 37])
def test_a_failing_draw_fails_every_reader_at_its_index(monkeypatch, k):
    """A draw that raises at index k of every stream fails each reader
    there: the reader that drew it, a reader that was already open and a
    reader that starts afterwards each get k instances and then an error
    of their own draw.  The table keeps the k instances drawn before it."""
    space = sampled(count=100)
    reference = list(private_stream(space, "pset"))[:k]
    failing_preorder_draws(
        monkeypatch, k, lambda: ParseError("the draw at index k", 7), every_stream=True)
    early = space.instances("pset")
    got, first = read_until_error(space.instances("pset"), ParseError)
    assert got == reference and spaces._drawn[(3, "pset", 11, 2)] == (reference, None)
    got, again = read_until_error(early, ParseError)
    assert got == reference
    assert again is not first
    assert (type(again), again.args, again.position) == (ParseError, first.args, 7)
    got, later = read_until_error(replace(space).instances("pset"), ParseError)
    assert got == reference and later is not first and later.__cause__ is None
    assert list(spaces._drawn.values()) == [(reference, None)]


@pytest.mark.parametrize("error", [MemoryError, KeyboardInterrupt])
def test_a_passing_failure_is_not_replayed(monkeypatch, error):
    """A draw that raises once, a passing ``MemoryError`` or an interrupt,
    fails the reader that drew it and no other: a reader that was already
    open and a later reader each draw the private stream whole."""
    space = sampled(count=50)
    reference = list(private_stream(space, "pset"))
    failing_preorder_draws(monkeypatch, 5, error, every_stream=False)
    early = space.instances("pset")
    got, first = read_until_error(space.instances("pset"), error)
    assert got == reference[:5]
    assert list(early) == reference
    assert list(replace(space).instances("pset")) == reference
    assert [len(kept) for kept, _ in spaces._drawn.values()] == [50]


@pytest.mark.parametrize("every_stream", [True, False], ids=["stream-error", "one-off"])
def test_a_failed_draw_keeps_the_instances_before_it(monkeypatch, every_stream):
    """A draw that fails at index k keeps the k instances drawn before
    it, which a shorter reader reads without drawing.  A later, longer
    reader draws from the seed: it fails at k again when the failure
    belongs to the stream, and reads the whole stream, and keeps it, when
    the failure was a one-off."""
    space = sampled(count=60)
    reference = list(private_stream(space, "pset"))
    raised = failing_preorder_draws(monkeypatch, 23, RuntimeError, every_stream)
    got, _ = read_until_error(space.instances("pset"), RuntimeError)
    assert got == reference[:23] and len(raised) == 1
    assert spaces._drawn[(3, "pset", 11, 2)] == (reference[:23], None)
    assert list(replace(space, sample_count=23).instances("pset")) == reference[:23]
    assert len(raised) == 1
    later = replace(space).instances("pset")
    if every_stream:
        got, _ = read_until_error(later, RuntimeError)
        assert got == reference[:23] and len(raised) == 2
        assert [kept for kept, _ in spaces._drawn.values()] == [reference[:23]]
    else:
        assert list(later) == reference and len(raised) == 1
        assert [kept for kept, _ in spaces._drawn.values()] == [reference]


def test_a_reader_collected_under_the_table_lock_hands_its_prefix_back():
    """A half-read reader in a reference cycle is closed by the collector,
    which may run in a thread that holds the table lock; its ``finally``
    takes the lock again and keeps the one instance it drew.  The
    collection runs in a daemon thread with a join timeout, so that a lock
    that is not reentrant fails the test instead of hanging it."""
    space = sampled(count=50)
    reference = list(private_stream(space, "pset"))
    enabled = gc.isenabled()
    gc.disable()
    try:
        reader = space.instances("pset")
        assert next(reader) == reference[0]
        cycle = [reader]
        cycle.append(cycle)
        del reader, cycle

        def collect():
            with spaces._lock:
                gc.collect()

        thread = threading.Thread(target=collect, daemon=True)
        thread.start()
        thread.join(timeout=30)
    finally:
        if enabled:
            gc.enable()
    if thread.is_alive():
        # the stuck thread holds the table lock for good: later tests get a new one
        spaces._lock = threading.RLock()
        pytest.fail("a reader collected under the table lock deadlocked")
    assert [kept for kept, _ in spaces._drawn.values()] == [reference[:1]]


def test_an_interrupt_between_draws_keeps_the_stream():
    """An interrupt thrown into a reader between draws is not the
    stream's: it stays kept, with what was drawn and no error."""
    space = sampled(count=50)
    reader = space.instances("pset")
    next(reader)
    with pytest.raises(KeyboardInterrupt):
        reader.throw(KeyboardInterrupt)
    kept, state = spaces._drawn[(3, "pset", 11, 2)]
    assert len(kept) == 1 and state is None
    assert list(space.instances("pset")) == list(private_stream(space, "pset"))


def members(kept) -> int:
    """The orders and propositions a kept prefix holds."""
    return sum(len(value) if type(value) is tuple else 1
               for instance in kept for value in instance)


def test_large_families_keep_at_most_the_member_cap():
    """A stream keeps no more orders and propositions than the member
    cap, counting each family at ``max_set_size``: at 4 atoms, where few
    sets are shared objects, a ``cset`` stream of families of up to 1,000
    sets keeps 65 instances, and a reader past them reads on privately."""
    space = sampled(atoms=4, count=120, seed=1, max_set_size=1000)
    assert list(space.instances("cset")) == list(private_stream(space, "cset"))
    [(kept, state)] = spaces._drawn.values()
    assert len(kept) == spaces._MEMBER_CAP // 1001 == 65 and state is not None
    assert 65 * 400 < members(kept) <= spaces._MEMBER_CAP


def test_a_stream_whose_instance_may_pass_the_member_cap_keeps_nothing(monkeypatch):
    """Where one instance could hold more than the member cap, the stream
    keeps nothing, and every reader draws privately from the seed."""
    monkeypatch.setattr(spaces, "_MEMBER_CAP", 4)
    space = sampled(count=30)
    assert list(space.instances("pset2")) == list(private_stream(space, "pset2"))
    assert [kept for kept, _ in spaces._drawn.values()] == [[]]


@pytest.mark.parametrize("seed", [-1, -3])
def test_a_negative_seed_is_refused(seed):
    """``random.Random(-s)`` draws ``random.Random(s)``'s stream, so a
    negative seed would report another seed over the same instances, and
    take a second kept stream for them."""
    assert random.Random(seed).getstate() == random.Random(-seed).getstate()
    with pytest.raises(SpaceError, match=f"seed must be at least 0, got {seed}"):
        sampled(seed=seed)
