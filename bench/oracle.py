"""Scenario documents for the benchmark and an independent oracle for them.

Nothing here imports revforge.  Documents are generated from a seed as
JSON text of fully parenthesised sentences, whose model sets this module
computes itself as bitmasks over worlds.  The oracle replays a document
with preorders held as per-world rank lists and answers the queries from
those ranks, so a scenario step is checked against code that shares
nothing with the package's partition-based operators.

Worlds follow the package's naming: world ``w`` over ``n`` atoms is the
``n``-digit binary numeral of ``w``, and the ``k``-th declared atom is
true at ``w`` when bit ``n-1-k`` is set.
"""

from __future__ import annotations

import json
import random

ATOMS = ("A", "B", "C", "D")
REVISION_NAMES = ("natural", "lex", "restrained")
STRATEGY_NAMES = ("stq", "round-robin", "first-then-full")
CONTRACTION_NAMES = ("natural-contract",)
DEFAULT_OPERATORS = {"base": "natural", "finisher": "natural", "agg": "stq",
                     "contraction": "natural-contract"}
QUERY_TYPES = ("believes", "conditional", "compare", "show-tpo")
STEP_OPS = ("revise-set", "contract-set", "serial-revise", "serial-contract")


# --- sentences -----------------------------------------------------------

def _atom_mask(k: int, n: int) -> int:
    shift = n - 1 - k
    return sum(1 << w for w in range(1 << n) if (w >> shift) & 1)


def random_sentence(rng: random.Random, n: int, depth: int) -> str:
    """A fully parenthesised sentence over the first ``n`` atoms."""
    if depth == 0 or rng.random() < 0.3:
        return ATOMS[rng.randrange(n)]
    kind = rng.choice(("~", "&", "|", "->", "<->"))
    left = random_sentence(rng, n, depth - 1)
    if kind == "~":
        return f"~({left})"
    return f"({left}) {kind} ({random_sentence(rng, n, depth - 1)})"


def _consistent_sentences(rng: random.Random, n: int, count: int) -> list[str]:
    """``count`` sentences whose conjunction has a model."""
    sentences = _Sentences(n)
    while True:
        picked = [random_sentence(rng, n, rng.randint(1, 3)) for _ in range(count)]
        joint = sentences.full
        for text in picked:
            joint &= sentences.models(text)
        if joint:
            return picked


# --- document generation -------------------------------------------------

def world_name(w: int, n: int) -> str:
    return format(w, f"0{n}b")


def random_ranks(rng: random.Random, num_worlds: int) -> list[int]:
    """Dense 0-based ranks of a random total preorder."""
    worlds = list(range(num_worlds))
    rng.shuffle(worlds)
    ranks = [0] * num_worlds
    level = 0
    for i, w in enumerate(worlds):
        if i and rng.random() < 0.5:
            level += 1
        ranks[w] = level
    return ranks


def _random_query(rng: random.Random, kind: str, n: int) -> dict:
    if kind == "believes":
        return {"type": kind, "sentence": random_sentence(rng, n, 2)}
    if kind == "conditional":
        return {"type": kind, "given": random_sentence(rng, n, 2),
                "then": random_sentence(rng, n, 2)}
    if kind == "compare":
        return {"type": kind, "left": world_name(rng.randrange(1 << n), n),
                "right": world_name(rng.randrange(1 << n), n)}
    return {"type": kind}


def random_document(rng: random.Random, n: int = 4) -> dict:
    """One scenario document: a few steps of every kind, every query type."""
    doc: dict = {"version": 1, "atoms": list(ATOMS[:n])}
    if rng.random() < 0.25:
        doc["initial"] = "uniform"
    else:
        ranks = random_ranks(rng, 1 << n)
        doc["initial"] = [[world_name(w, n) for w in range(1 << n) if ranks[w] == level]
                          for level in range(max(ranks) + 1)]
    ops = {"base": rng.choice(REVISION_NAMES), "finisher": rng.choice(REVISION_NAMES),
           "agg": rng.choice(STRATEGY_NAMES), "contraction": rng.choice(CONTRACTION_NAMES)}
    # leave some keys out so the documented defaults are exercised too
    doc["operators"] = {k: v for k, v in ops.items() if rng.random() < 0.8}

    steps = []
    for _ in range(rng.randint(3, 6)):
        op = rng.choice(STEP_OPS)
        if op in ("revise-set", "contract-set"):
            steps.append({"op": op, "sentences": _consistent_sentences(rng, n, rng.randint(1, 4))})
        else:
            steps.append({"op": op, "sentence": _consistent_sentences(rng, n, 1)[0]})
    # every query type appears at least once per document
    kinds = list(QUERY_TYPES) + [rng.choice(QUERY_TYPES) for _ in range(rng.randint(0, 4))]
    rng.shuffle(kinds)
    holders = [None] + list(range(len(steps)))
    for kind in kinds:
        holder = rng.choice(holders)
        query = _random_query(rng, kind, n)
        target = doc if holder is None else steps[holder]
        target.setdefault("initial_queries" if holder is None else "queries", []).append(query)
    doc["steps"] = steps
    return doc


def generate_documents(seed: int, count: int, n: int = 4) -> list[str]:
    rng = random.Random(seed)
    return [json.dumps(random_document(rng, n)) for _ in range(count)]


# --- the oracle: preorders as rank lists ---------------------------------

def _dense(keys: list) -> list[int]:
    levels = {key: i for i, key in enumerate(sorted(set(keys)))}
    return [levels[key] for key in keys]


def _best(ranks: list[int], mask: int) -> int:
    members = [w for w in range(len(ranks)) if (mask >> w) & 1]
    if not members:
        return 0
    low = min(ranks[w] for w in members)
    return sum(1 << w for w in members if ranks[w] == low)


def natural(ranks: list[int], mask: int) -> list[int]:
    best = _best(ranks, mask)
    return _dense([0 if (best >> w) & 1 else r + 1 for w, r in enumerate(ranks)])


def lex(ranks: list[int], mask: int) -> list[int]:
    return _dense([(0 if (mask >> w) & 1 else 1, r) for w, r in enumerate(ranks)])


def restrained(ranks: list[int], mask: int) -> list[int]:
    best = _best(ranks, mask)
    return _dense([(0, 0, 0) if (best >> w) & 1 else (1, r, 0 if (mask >> w) & 1 else 1)
                   for w, r in enumerate(ranks)])


def natural_contract(ranks: list[int], mask: int) -> list[int]:
    full = (1 << len(ranks)) - 1
    demoted = _best(ranks, full & ~mask)
    return _dense([0 if r == 0 or (demoted >> w) & 1 else r for w, r in enumerate(ranks)])


REVISIONS = {"natural": natural, "lex": lex, "restrained": restrained}
CONTRACTIONS = {"natural-contract": natural_contract}


def _team(strategy: str, n: int, i: int) -> range | tuple[int, ...]:
    if strategy == "stq" or (strategy == "first-then-full" and i == 1):
        return range(n)
    return ((i - 1) % n,)


def aggregate(strategy: str, profile: list[list[int]]) -> list[int]:
    """Team-queue merge: each round emits the union of the team's minima."""
    num_worlds = len(profile[0])
    remaining = (1 << num_worlds) - 1
    out = [0] * num_worlds
    level = 0
    while remaining:
        level += 1
        block = 0
        for j in _team(strategy, len(profile), level):
            block |= _best(profile[j], remaining)
        for w in range(num_worlds):
            if (block >> w) & 1:
                out[w] = level - 1
        remaining &= ~block
    return out


def blocks_of(ranks: list[int]) -> list[list[int]]:
    return [[w for w in range(len(ranks)) if ranks[w] == level]
            for level in range(max(ranks) + 1)]


class _Sentences:
    """Model sets of sentences, read back from document text.

    A parser for exactly the fully parenthesised form the generator
    writes, so the oracle works from the document as the program sees it.
    """

    def __init__(self, n: int):
        self.full = (1 << (1 << n)) - 1
        self.atoms = {ATOMS[k]: _atom_mask(k, n) for k in range(n)}
        self.cache: dict[str, int] = {}

    def models(self, text: str) -> int:
        hit = self.cache.get(text)
        if hit is None:
            hit, rest = self._parse(text.strip())
            if rest.strip():
                raise ValueError(f"trailing text in {text!r}")
            self.cache[text] = hit
        return hit

    def _operand(self, text: str) -> tuple[int, str]:
        text = text.lstrip()
        if text.startswith("~("):
            inner, rest = self._group(text[1:])
            return self.full & ~inner, rest
        if text.startswith("("):
            return self._group(text)
        return self.atoms[text[0]], text[1:]

    def _group(self, text: str) -> tuple[int, str]:
        depth = 0
        for i, ch in enumerate(text):
            depth += ch == "("
            depth -= ch == ")"
            if depth == 0:
                inner, rest = self._parse(text[1:i])
                if rest.strip():
                    raise ValueError(f"unbalanced group {text!r}")
                return inner, text[i + 1:]
        raise ValueError(f"unbalanced group {text!r}")

    def _parse(self, text: str) -> tuple[int, str]:
        left, rest = self._operand(text)
        rest = rest.lstrip()
        for op in ("<->", "->", "&", "|"):
            if rest.startswith(op):
                right, tail = self._operand(rest[len(op):])
                if op == "&":
                    return left & right, tail
                if op == "|":
                    return left | right, tail
                if op == "->":
                    return (self.full & ~left) | right, tail
                return self.full & ~(left ^ right), tail
        return left, rest


def _answer(query: dict, ranks: list[int], sentences: _Sentences, n: int) -> dict:
    kind = query["type"]
    bottom = _best(ranks, sentences.full)
    if kind == "believes":
        models = sentences.models(query["sentence"])
        return {"type": kind, "sentence": query["sentence"], "answer": bottom & ~models == 0}
    if kind == "conditional":
        best = _best(ranks, sentences.models(query["given"]))
        then = sentences.models(query["then"])
        return {"type": kind, "given": query["given"], "then": query["then"],
                "answer": best & ~then == 0}
    if kind == "compare":
        diff = ranks[int(query["left"], 2)] - ranks[int(query["right"], 2)]
        return {"type": kind, "left": query["left"], "right": query["right"],
                "answer": "<" if diff < 0 else (">" if diff > 0 else "~")}
    text = " < ".join("{" + ",".join(world_name(w, n) for w in block) + "}"
                      for block in blocks_of(ranks))
    return {"type": kind, "answer": f"[{text}]"}


def _entry(label: str, ranks: list[int], answers: list[dict], n: int) -> dict:
    blocks = blocks_of(ranks)
    return {"label": label,
            "tpo": [[world_name(w, n) for w in block] for block in blocks],
            "beliefs": [world_name(w, n) for w in blocks[0]],
            "queries": answers}


def expected_entries(doc: dict) -> tuple[list[dict], list[tuple[list[int], list[int]]]]:
    """The trace entries a correct run of ``doc`` produces.

    Also returns, for every revise-set step, the prior ranks and member
    bitmasks, which the layer timings reuse as pipeline inputs.
    """
    n = len(doc["atoms"])
    num_worlds = 1 << n
    sentences = _Sentences(n)
    ops = {**DEFAULT_OPERATORS, **doc.get("operators", {})}
    base, finisher = REVISIONS[ops["base"]], REVISIONS[ops["finisher"]]
    contract = CONTRACTIONS[ops["contraction"]]

    if doc.get("initial", "uniform") == "uniform":
        ranks = [0] * num_worlds
    else:
        ranks = [0] * num_worlds
        for level, block in enumerate(doc["initial"]):
            for name in block:
                ranks[int(name, 2)] = level
    entries = [_entry("initial", ranks,
                      [_answer(q, ranks, sentences, n) for q in doc.get("initial_queries", [])], n)]
    pipeline_inputs = []
    for i, step in enumerate(doc["steps"], start=1):
        op = step["op"]
        if op in ("revise-set", "contract-set"):
            texts = step["sentences"]
            label = f"{op} {{{', '.join(texts)}}}"
        else:
            texts = [step["sentence"]]
            label = f"{op} {texts[0]}"
        masks = [sentences.models(text) for text in texts]
        if op == "revise-set":
            pipeline_inputs.append((ranks, masks))
            target = sentences.full
            for mask in masks:
                target &= mask
            merged = aggregate(ops["agg"], [base(ranks, mask) for mask in masks])
            ranks = finisher(merged, target)
        elif op == "contract-set":
            ranks = aggregate(ops["agg"], [contract(ranks, mask) for mask in masks])
        elif op == "serial-revise":
            ranks = base(ranks, masks[0])
        else:
            ranks = contract(ranks, masks[0])
        answers = [_answer(q, ranks, sentences, n) for q in step.get("queries", [])]
        entries.append(_entry(f"step {i}: {label}", ranks, answers, n))
    return entries, pipeline_inputs


# --- domains of the sweep postulates, for counting skipped instances ------

def _mask(worlds) -> int:
    return sum(1 << w for w in worlds)


def counted_by_domain(postulate_id: str, instance: tuple, num_worlds: int) -> bool:
    """Whether a sweep counts ``instance``, from the postulate's definition.

    S-star is defined when the first family plus the negations of the
    second is jointly consistent; GR-star when the negations of the family
    are.  Every other swept entry is defined on all its instances.
    """
    full = (1 << num_worlds) - 1
    if postulate_id == "S-star":
        _, s1, s2 = instance
        joint = full
        for member in s1:
            joint &= _mask(member)
        for member in s2:
            joint &= full & ~_mask(member)
        return joint != 0
    if postulate_id == "GR-star":
        _, s = instance
        joint = full
        for member in s:
            joint &= full & ~_mask(member)
        return joint != 0
    return True
