"""Pinned digests of scenario output, so a change in how documents load
cannot change what a run writes.

Each corpus is a seeded list of generated documents over 2, 3 or 4
atoms.  Its sentences have odd whitespace and redundant parentheses,
since the texts are echoed in labels and answers.  Together the
corpora take every step op, every query type, uniform, omitted and
listed ``initial`` orders, and every registered revision operator,
contraction operator and strategy.  For each document the run's
``to_json()``, ``to_text()``, ``export_dot()`` and ``replay().to_json()``
are hashed, one sha256 per output over the whole corpus; a document
whose load or run raises contributes its error's type and message
instead; about one document in five carries one malformed sentence,
query or initial order, so that error texts are pinned too.
"""

import hashlib
import json
import random

import pytest

from revforge import (CONTRACTION_OPERATORS, REVISION_OPERATORS, STRATEGIES, RevforgeError,
                      export_dot, loads_scenario, run_scenario)

OPS = ("revise-set", "contract-set", "serial-revise", "serial-contract")
QUERIES = ("believes", "conditional", "compare", "show-tpo")
CONNECTIVES = ("&", "|", "->", "<->")
# sentences that do not parse, and entries that are no sentence
BROKEN = ("A &", "(A", "A @ B", "Z", "", "~", 5, None)
ROLES = {"base": REVISION_OPERATORS, "finisher": REVISION_OPERATORS,
         "agg": STRATEGIES, "contraction": CONTRACTION_OPERATORS}


def sentence(rng: random.Random, atoms: list[str], depth: int) -> str:
    if depth == 0 or rng.random() < 0.3:
        text = rng.choice(atoms + ["T", "F"])
    elif rng.random() < 0.25:
        text = "~" + rng.choice(("", " ")) + sentence(rng, atoms, depth - 1)
    else:
        gap = rng.choice(("", " ", "  ", "\t"))
        text = (f"{sentence(rng, atoms, depth - 1)}{gap}{rng.choice(CONNECTIVES)}"
                f"{rng.choice(('', ' '))}{sentence(rng, atoms, depth - 1)}")
    if rng.random() < 0.3:
        text = f"({rng.choice(('', ' '))}{text})"
    return text


def document(rng: random.Random, count: int) -> dict:
    atoms = ["A", "B", "C", "D"][:count]
    names = [format(w, f"0{count}b") for w in range(1 << count)]

    def queries() -> list[dict]:
        out = []
        for kind in rng.sample(QUERIES, rng.randrange(0, 4)):
            if kind == "believes":
                out.append({"type": kind, "sentence": sentence(rng, atoms, 3)})
            elif kind == "conditional":
                out.append({"type": kind, "given": sentence(rng, atoms, 2),
                            "then": sentence(rng, atoms, 2)})
            elif kind == "compare":
                out.append({"type": kind, "left": rng.choice(names), "right": rng.choice(names)})
            else:
                out.append({"type": kind})
        return out

    doc = {"version": 1, "atoms": atoms,
           "operators": {role: rng.choice(sorted(registry)) for role, registry in ROLES.items()
                         if rng.random() < 0.8},
           "initial_queries": queries(), "steps": []}
    shape = rng.randrange(3)
    if shape == 1:
        doc["initial"] = "uniform"
    elif shape == 2:
        ranks = [rng.randrange(4) for _ in names]
        doc["initial"] = [rng.sample([n for n, r in zip(names, ranks) if r == level],
                                     ranks.count(level)) for level in sorted(set(ranks))]
    for _ in range(rng.randrange(1, 6)):
        op = rng.choice(OPS)
        step = {"op": op}
        if op.endswith("-set"):
            step["sentences"] = [sentence(rng, atoms, 3) for _ in range(rng.randrange(1, 4))]
        else:
            step["sentence"] = sentence(rng, atoms, 3)
        if rng.random() < 0.8:
            step["queries"] = queries()
        doc["steps"].append(step)
    if rng.random() < 0.15:
        # one malformed entry, so that the corpus pins error texts too
        step, broken = rng.choice(doc["steps"]), rng.choice(BROKEN)
        if "sentences" in step:
            step["sentences"].insert(rng.randrange(len(step["sentences"]) + 1), broken)
        else:
            step["queries"] = step.get("queries", []) + [
                {"type": "conditional", "given": "T", "then": broken}]
    elif shape == 2 and rng.random() < 0.1:
        # a world placed twice: in one block, or in two
        doc["initial"][0].append(rng.choice(doc["initial"][-1]))
    return doc


def outputs(text: str) -> tuple[str, str, str, str]:
    """The four pinned outputs of one document, or its error four times."""
    try:
        trace = run_scenario(loads_scenario(text))
    except RevforgeError as exc:
        failure = f"{type(exc).__name__}: {exc}"
        return (failure,) * 4
    return trace.to_json(), trace.to_text(), export_dot(trace), trace.replay().to_json()


# atom count -> (seed, documents, digests of to_json, to_text, export_dot, replay().to_json)
CORPORA = {
    2: (3301, 600, (
        "37dd93bd4a0256e9953e7e8a3c98a5d5d299ef790e116ebae91e87e8d15d0487",
        "5dc20c7582bb069c04183b9a2e0af2a55d4c7b7f4a2a71db5c5a7b16c5e8b4bc",
        "594af75c9bf63e4513f28a3d6b720a2054bfe926f416aa8fe307ec7c68104bf0",
        "37dd93bd4a0256e9953e7e8a3c98a5d5d299ef790e116ebae91e87e8d15d0487",
    )),
    3: (3302, 400, (
        "67c49c1474c4239be0c946f79d34a115b7118d5fa53b1b82a7f9a337f9dc3d8d",
        "746d794f11d88d15a3a98eba0dcb7bfecc717860cbb64487e42ba0e96dffd04f",
        "fda7d7f6982fa48611fdb2bf912e893b8a30c59869b057dc6c965ebc2c40fc4e",
        "67c49c1474c4239be0c946f79d34a115b7118d5fa53b1b82a7f9a337f9dc3d8d",
    )),
    4: (3303, 300, (
        "19ce540f1116627eb409a63cbe80d9d5ccc9d11369a0d3c3b429169823afa6ec",
        "434127efc3990715bd099d97c16ca9e495cb26cc893f617fbda83b7f7c89dc39",
        "0fd661504037de292bfd4e1a18f8108d78d421385461b22789c4097a2158b979",
        "19ce540f1116627eb409a63cbe80d9d5ccc9d11369a0d3c3b429169823afa6ec",
    )),
}


def corpus(count: int) -> list[str]:
    seed, size, _ = CORPORA[count]
    rng = random.Random(seed)
    return [json.dumps(document(rng, count)) for _ in range(size)]


def test_the_corpora_cover_every_op_query_order_and_operator():
    seen = set()
    for count in CORPORA:
        for text in corpus(count):
            doc = json.loads(text)
            seen.add(("initial", type(doc.get("initial")).__name__))
            seen.update(("role", role, name) for role, name in doc["operators"].items())
            for step in doc["steps"]:
                seen.add(("op", step["op"]))
            for query in doc["initial_queries"] + sum((s.get("queries", []) for s in doc["steps"]), []):
                seen.add(("query", query["type"]))
    want = ({("initial", kind) for kind in ("NoneType", "str", "list")}
            | {("role", role, name) for role, registry in ROLES.items() for name in registry}
            | {("op", op) for op in OPS} | {("query", kind) for kind in QUERIES})
    assert want <= seen


@pytest.mark.parametrize("count", sorted(CORPORA))
def test_scenario_output_bytes_are_pinned(count):
    digests = [hashlib.sha256() for _ in range(4)]
    runs = 0
    for text in corpus(count):
        results = outputs(text)
        runs += results[0].startswith("{")
        for digest, result in zip(digests, results):
            digest.update(result.encode("utf-8") + b"\0")
    assert [d.hexdigest() for d in digests] == list(CORPORA[count][2])
    # over half the documents run to the end, so every output is exercised
    assert 2 * runs > len(corpus(count))
