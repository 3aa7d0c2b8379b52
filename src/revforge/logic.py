"""Finite propositional logic over a fixed set of atoms.

A ``Language`` fixes an ordered tuple of atom names.  A world is a truth
assignment to those atoms, encoded as an integer index in
``range(2 ** len(atoms))``; the first atom corresponds to the most
significant bit, so the bit-string rendering of a world reads off the
atoms left to right (``"10"`` over atoms ``(A, B)`` makes A true and B
false).  Names are fixed-width, so ascending world order is sorted name
order; ``Language.world_names`` holds them all, built on first use, and
``world_from_name`` reads them back through a dict.

A proposition is a set of worlds.  Inside the package it is an ``int``
mask with bit w set for world w; at the public edge it is a
``frozenset[int]``, and ``worlds_of`` converts a mask to one;
``ascending_worlds`` lists a mask's worlds in order.

Formulas are immutable trees built from atoms, negation, conjunction,
disjunction, implication, biconditional, and the constants verum and
falsum.  ``parse_formula`` reads the ASCII syntax ``~ & | -> <->``,
tightest binder first, with ``T``/``F`` for the constants; ``&`` and
``|`` group to the left, ``->`` and ``<->`` to the right.  One table,
``_CONNECTIVES``, states each binary connective once: its node, symbol,
precedence, grouping and operation on world masks.  Two readers walk
with it: the parser over text, and one fold, ``_fold``, over trees,
which finds a binary node's row by its exact type.  ``format_formula``,
``model_mask`` and ``atoms_of`` are each one fold.  ``str()``
pretty-prints with the fewest parentheses, and parse -> print -> parse
is a fixpoint.  The tokenizer scans the text in one ``findall``;
character positions are worked out only for the message of a
``ParseError``.

The one parser, ``_Parser``, takes what it builds as an argument: the
node for an atom, a negation, ``T``, ``F`` and each connective.
``parse_formula`` passes the tree nodes, ``_TREE``.  ``sentence_mask``
passes the mask operations, ``_MASKS``, so a sentence becomes its mask
with no tree in between; a text of more than ``MAX_FORMULA_DEPTH``
tokens, the only kind whose tree can break the depth bound, still goes
through ``parse_formula``.  ``_Parser.parse`` turns a stack overflow
into the ``ParseError`` of text nested too deeply, for both routes.
The scenario loader reads every sentence through ``sentence_mask``.  A
value given where a formula object or a ``FormulaSet`` is expected
raises ``FormulaError``, and a ``lang`` that is not a ``Language``,
given to ``parse_formula``, ``FormulaSet``, ``model_mask`` or
``evaluate``, raises ``LanguageError`` from the one check,
``_language``.  The trees the package builds itself, by
``canonical_formula`` and ``conj``, join their parts in balanced pairs,
``_balanced``, so the recursive fold and ``evaluate`` walk them at any
length the atoms allow.  A tree built by hand deeper than the
interpreter's recursion limit allows raises ``FormulaError`` from the
fold, from ``evaluate`` and from ``FormulaSet``, which hashes its
members, and so does an ``Atom`` built with a name that is not a
``str``.

The fold takes the builds the parser takes, and raises the one
``FormulaError`` for a value that is not a formula node, at any depth.
``model_mask`` is the one structural route from a formula tree to its
proposition: it folds the tree through the atom masks each ``Language``
keeps and ``_MASKS``, the build ``sentence_mask`` parses with, and cuts
the result to the language's worlds once, at the end.  So
``sentence_mask(text, lang)`` equals ``model_mask(parse_formula(text,
lang), lang)`` by construction.  ``models``, ``entails``,
``is_consistent`` and ``cn_equal`` read it.  ``evaluate`` decides a
single world truth-functionally and shares no code with the fold or
its tables, so tests can cross-validate the two.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from operator import and_, invert, or_
from typing import Iterable, Iterator, Sequence

from .errors import FormulaError, LanguageError, ParseError

MAX_ATOMS = 16
# nodes on the longest path of a tree ``parse_formula`` returns: walks that
# recurse once per level (printing, models) stay inside the recursion limit
MAX_FORMULA_DEPTH = 200
# what those walks raise for a tree built by hand past the recursion limit
_TOO_DEEP = "formula nested too deeply for the interpreter's recursion limit"

_ATOM_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_RESERVED_NAMES = frozenset({"T", "F"})


# --- world masks ---

# the worlds of each low byte and each high byte of a 16-world mask, ascending
_LOW_BYTE = tuple(tuple(w for w in range(8) if byte >> w & 1) for byte in range(256))
_HIGH_BYTE = tuple(tuple(w + 8 for w in low) for low in _LOW_BYTE)


def ascending_worlds(mask: int) -> tuple[int, ...]:
    """The worlds whose bits are set in ``mask``, in ascending order.

    Masks of up to 16 worlds, all that spaces and scenarios reach, read
    two tables; wider ones are walked bit by bit.
    """
    if mask < 0x10000:
        return _LOW_BYTE[mask & 0xFF] + _HIGH_BYTE[mask >> 8]
    worlds = []
    while mask:
        low = mask & -mask
        worlds.append(low.bit_length() - 1)
        mask ^= low
    return tuple(worlds)


@lru_cache(maxsize=256)
def worlds_of(mask: int) -> frozenset[int]:
    """The worlds whose bits are set in ``mask``.  The last 256 answers
    (every set over up to 8 worlds) are kept, so a set met again is the
    same object and tables keyed by it compare by identity."""
    return frozenset(ascending_worlds(mask))


class Language:
    """An ordered collection of distinct atom names."""

    def __init__(self, atoms: Iterable[str]):
        names = tuple(atoms)
        if not 1 <= len(names) <= MAX_ATOMS:
            raise LanguageError(f"need between 1 and {MAX_ATOMS} atoms, got {len(names)}")
        seen = set()
        for name in names:
            if not (isinstance(name, str) and _ATOM_NAME.match(name)):
                raise LanguageError(f"bad atom name {name!r}")
            if name in _RESERVED_NAMES:
                raise LanguageError(f"atom name {name!r} is reserved for a constant")
            if name in seen:
                raise LanguageError(f"duplicate atom name {name!r}")
            seen.add(name)
        self.atoms = names
        self._index = {name: i for i, name in enumerate(names)}
        width = 1 << len(names)
        self._full_mask = (1 << width) - 1
        # atom i is bit len(names) - 1 - i of a world: its mask repeats a run
        # of that many 0s then as many 1s across the worlds
        self._atom_masks = {}
        for i, name in enumerate(names):
            run = 1 << (len(names) - 1 - i)
            mask, period = ((1 << run) - 1) << run, 2 * run
            while period < width:
                mask |= mask << period
                period *= 2
            self._atom_masks[name] = mask

    @property
    def num_worlds(self) -> int:
        return 1 << len(self.atoms)

    def worlds(self) -> range:
        return range(self.num_worlds)

    @property
    def all_worlds(self) -> frozenset[int]:
        return frozenset(self.worlds())

    def atom_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise LanguageError(f"unknown atom {name!r}") from None

    def atom_mask(self, name: str) -> int:
        """The worlds where ``name`` is true, as a mask."""
        try:
            return self._atom_masks[name]
        except KeyError:
            raise LanguageError(f"unknown atom {name!r}") from None

    def holds_at(self, world: int, atom: str) -> bool:
        """Truth value of ``atom`` at ``world``."""
        if not 0 <= world < self.num_worlds:
            raise LanguageError(f"world {world} outside range({self.num_worlds})")
        shift = len(self.atoms) - 1 - self.atom_index(atom)
        return bool((world >> shift) & 1)

    @cached_property
    def world_names(self) -> tuple[str, ...]:
        """Every world's bit-string name, indexed by world."""
        spec = f"0{len(self.atoms)}b"
        return tuple(format(w, spec) for w in range(self.num_worlds))

    def world_name(self, world: int) -> str:
        """Bit-string rendering, first atom leftmost."""
        if not 0 <= world < self.num_worlds:
            raise LanguageError(f"world {world} outside range({self.num_worlds})")
        return self.world_names[world]

    def names_of(self, mask: int) -> list[str]:
        """The names of the worlds of ``mask``, in sorted order."""
        names = self.world_names
        return [names[w] for w in ascending_worlds(mask)]

    @cached_property
    def _worlds_by_name(self) -> dict[str, int]:
        return {name: w for w, name in enumerate(self.world_names)}

    def world_from_name(self, name: str) -> int:
        """The world named ``name``; LanguageError for anything that is not
        one of ``world_names``, strings of the wrong width and non-strings
        alike."""
        try:
            return self._worlds_by_name[name]
        except (KeyError, TypeError):
            raise LanguageError(
                f"world name {name!r} is not a {len(self.atoms)}-bit string") from None

    def __repr__(self) -> str:
        return f"Language({', '.join(self.atoms)})"


@lru_cache(maxsize=16)
def shared_language(atoms: tuple[str, ...]) -> Language:
    """``Language(atoms)`` from one table of at most 16 languages keyed by
    atom tuple.  Instance spaces, witness replays, the sentence parse table
    and loaded scenario documents all read it, so they share each
    language and its world-name tables instead of building their own."""
    return Language(atoms)


def _language(lang: Language, entry: str) -> Language:
    """``lang``, or ``LanguageError`` naming ``entry`` if it is not a
    ``Language``."""
    if not isinstance(lang, Language):
        raise LanguageError(f"{entry} takes a Language, got {lang!r}")
    return lang


# --- formula trees ---

class Formula:
    """Base class for all formula nodes.

    ``repr()``, ``==`` and ``hash()`` of the nodes are the ones the frozen
    dataclasses generate, and they recurse once per level of the tree, so
    they are trusted only for trees inside the interpreter's recursion
    limit: a tree built by hand deeper than that, such as
    ``reduce(And, [Atom("A")] * 3000)``, raises a bare ``RecursionError``
    from each.  Every tree the package builds is inside it:
    ``parse_formula`` refuses text nested deeper than
    ``MAX_FORMULA_DEPTH``, and ``canonical_formula`` and ``conj`` build
    balanced trees."""

    __slots__ = ()

    def __str__(self) -> str:
        return format_formula(self)


@dataclass(frozen=True)
class Atom(Formula):
    name: str

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise FormulaError(f"not an atom name: {self.name!r}")


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Verum(Formula):
    pass


@dataclass(frozen=True)
class Falsum(Formula):
    pass


TOP = Verum()
BOTTOM = Falsum()


def _balanced(node: type, items: Sequence[Formula]) -> Formula:
    """The non-empty ``items``, in order, joined by the binary ``node``
    into a tree ``ceil(log2(len(items)))`` levels deep: neighbours are
    joined in pairs, round after round.  Up to three items it is the
    left-nested chain."""
    while len(items) > 1:
        items = [node(*items[i:i + 2]) if i + 1 < len(items) else items[i]
                 for i in range(0, len(items), 2)]
    return items[0]


# --- parsing ---

# the binary connectives, loosest first: (node, symbol, right-associative,
# operation on world masks); a row's index is its precedence level, for the
# parser, the fold and the printer.  The operations run over every bit of
# an int, so ``->`` and ``<->`` set the bits above the worlds too:
# ``sentence_mask`` and ``model_mask`` cut them off once, at the end
_CONNECTIVES = ((Iff, "<->", True, lambda a, b: ~a ^ b), (Implies, "->", True, lambda a, b: ~a | b),
                (Or, "|", False, or_), (And, "&", False, and_))
# the level of each binary node, which ``_fold`` finds by exact type
_LEVEL = {row[0]: level for level, row in enumerate(_CONNECTIVES)}


def _levels(joins: Iterable) -> tuple:
    """The parser's levels: ``joins``, what each ``_CONNECTIVES`` row
    builds, in row order, each with its row's symbol and grouping and the
    level its operands parse at, None below the tightest."""
    return tuple((join, symbol, right_assoc, level + 1 if level + 1 < len(_CONNECTIVES) else None)
                 for level, (join, (_, symbol, right_assoc, _)) in enumerate(zip(joins, _CONNECTIVES)))


# what ``parse_formula`` builds: from an atom name, from a negated operand,
# for T and for F, and at each level
_TREE = (Atom, Not, TOP, BOTTOM, _levels(row[0] for row in _CONNECTIVES))
# what ``sentence_mask`` and ``model_mask`` build, after the atom masks:
# like the rows' operations, a negation sets the bits above the worlds
_MASKS = (invert, -1, 0, _levels(row[3] for row in _CONNECTIVES))
# what ``atoms_of`` builds: a negation has its operand's atoms, which
# ``frozenset`` returns as they are
_ATOM_SETS = (lambda name: frozenset((name,)), frozenset, frozenset(), frozenset(),
              _levels([or_] * len(_CONNECTIVES)))

_TOKEN = re.compile(r"\s*([A-Za-z][A-Za-z0-9_]*|<->|->|~|&|\||\(|\))")


def _tokenize(text: str) -> list[str]:
    """The tokens of ``text``, then ``""`` for its end.

    One ``findall`` scans the text; it skips what it cannot match, so the
    tokens must account for every character outside whitespace.  Only when
    they do not is the text walked token by token, to find the offending
    character's position.
    """
    tokens = _TOKEN.findall(text)
    if "".join(tokens) != "".join(text.split()):
        pos = 0
        while match := _TOKEN.match(text, pos):
            pos = match.end()
        stripped = text[pos:].lstrip()
        raise ParseError(f"unexpected character {stripped[0]!r}", len(text) - len(stripped))
    tokens.append("")
    return tokens


class _Parser:
    """Recursive descent over the grammar, loosest binder first.

    Precedence, tightest to loosest: ~  &  |  ->  <->.  & and | group to
    the left; both arrows group to the right.  ``binary`` reads the levels
    of the four connectives from ``_CONNECTIVES``; below the tightest,
    ``unary`` reads negation and ``primary`` atoms, constants and
    parenthesized formulas.  A level of parentheses costs six frames.

    ``build`` holds what the parser builds: ``(atom, negation, top,
    bottom, levels)``, where ``atom`` maps a known atom name to its node,
    ``negation`` an operand to its negation, ``top`` and ``bottom`` are
    the nodes of ``T`` and ``F``, and ``levels`` comes from ``_levels``.
    ``parse_formula`` passes ``_TREE``; ``sentence_mask`` passes the atom
    masks and ``_MASKS``.  The grammar, the frames and every
    ``ParseError`` are the same for both.  ``_fold`` is its twin for
    trees: it takes the same builds, and builds from a tree what the
    parser builds from its text.
    """

    def __init__(self, text: str, lang: Language, build: tuple):
        self.text = text
        self.tokens = _tokenize(text)
        self.lang = lang
        self.pos = 0
        self.atom, self.negation, self.top, self.bottom, self.levels = build

    def error(self, message: str, index: int) -> ParseError:
        """``ParseError`` at token ``index``, the only place offsets are found."""
        starts = [match.start(1) for match in _TOKEN.finditer(self.text)]
        return ParseError(message, (starts + [len(self.text)])[index])

    def parse(self) -> Formula:
        """What the text builds.  Text nested deeper than the interpreter's
        recursion limit allows raises ``ParseError`` at position 0."""
        try:
            formula = self.binary(0)
        except RecursionError:
            raise ParseError("formula nested too deeply", 0) from None
        tok = self.tokens[self.pos]
        if tok:
            raise self.error(f"unexpected {tok!r}", self.pos)
        return formula

    def binary(self, level: int) -> Formula:
        """A formula at ``level``: operands of the level's connective parse
        at the next level, and a right-associative connective parses its
        right side at its own."""
        node, symbol, right_assoc, tighter = self.levels[level]
        formula = self.unary() if tighter is None else self.binary(tighter)
        while self.tokens[self.pos] == symbol:
            self.pos += 1
            if right_assoc:
                return node(formula, self.binary(level))
            formula = node(formula, self.unary() if tighter is None else self.binary(tighter))
        return formula

    def unary(self) -> Formula:
        if self.tokens[self.pos] == "~":
            self.pos += 1
            return self.negation(self.unary())
        return self.primary()

    def primary(self) -> Formula:
        tok = self.tokens[self.pos]
        self.pos += 1
        if tok in self.lang._index:
            return self.atom(tok)
        if tok == "(":
            formula = self.binary(0)
            if self.tokens[self.pos] != ")":
                raise self.error("expected ')'", self.pos)
            self.pos += 1
            return formula
        if tok == "T":
            return self.top
        if tok == "F":
            return self.bottom
        raise self.error(f"unknown atom {tok!r}" if tok[:1].isalpha() else
                         f"expected a formula, found {tok!r}" if tok else "unexpected end of input",
                         self.pos - 1)


def _fold(formula: Formula, build: tuple):
    """What ``formula`` builds through ``build``, the
    ``(atom, negation, top, bottom, levels)`` a ``_Parser`` takes,
    leaves first: a binary node's level is found by its exact type, and
    its row of ``levels`` joins what its children built.
    ``FormulaError`` for a value that is not a formula node, at any
    depth of the tree, and for a tree nested deeper than the
    interpreter's recursion limit allows."""
    try:
        return _folded(formula, build)
    except RecursionError:
        raise FormulaError(_TOO_DEEP) from None


def _folded(formula: Formula, build: tuple):
    """``_fold`` without its depth check, one frame per level."""
    level = _LEVEL.get(type(formula))
    if level is not None:
        return build[4][level][0](_folded(formula.left, build), _folded(formula.right, build))
    if isinstance(formula, Not):
        return build[1](_folded(formula.operand, build))
    if isinstance(formula, Atom):
        return build[0](formula.name)
    if isinstance(formula, Verum):
        return build[2]
    if isinstance(formula, Falsum):
        return build[3]
    raise FormulaError(f"not a formula: {formula!r}")


def atoms_of(formula: Formula) -> frozenset[str]:
    """The set of atom names occurring in ``formula``: its fold through
    ``_ATOM_SETS``."""
    return _fold(formula, _ATOM_SETS)


def _depth(formula: Formula) -> int:
    """Nodes on the longest root-to-leaf path of ``formula``, counted level
    by level without recursion; a node's children are its formula fields."""
    depth, level = 0, [formula]
    while level:
        depth += 1
        level = [child for node in level for child in vars(node).values()
                 if isinstance(child, Formula)]
    return depth


def parse_formula(text: str, lang: Language) -> Formula:
    """Parse formula text against ``lang``, rejecting unknown atoms.

    Text nested deeper than the interpreter's recursion limit allows
    raises ``ParseError`` at position 0, whatever the depth of the
    caller's stack, and so does a tree deeper than ``MAX_FORMULA_DEPTH``,
    such as a long chain of ``&``, which the parser builds in a loop.
    Text that is not a ``str`` raises ``ParseError`` at position 0 too,
    and a ``lang`` that is not a ``Language`` raises ``LanguageError``.
    """
    if not isinstance(text, str):
        raise ParseError(f"expected a formula string, got {type(text).__name__}", 0)
    parser = _Parser(text, _language(lang, "parse_formula"), _TREE)
    formula = parser.parse()
    # a tree has fewer nodes on a path than the text has tokens
    if len(parser.tokens) > MAX_FORMULA_DEPTH and _depth(formula) > MAX_FORMULA_DEPTH:
        raise ParseError(f"formula nested too deeply (more than {MAX_FORMULA_DEPTH} levels)", 0)
    return formula


def sentence_mask(text: str, lang: Language) -> int:
    """``model_mask(parse_formula(text, lang), lang)``, with the parser
    building the mask itself, no tree in between.

    It raises the ``ParseError`` that ``parse_formula`` would, since the
    grammar, the frames and the errors are the parser's, text nested too
    deeply for the stack included.  A text of more than
    ``MAX_FORMULA_DEPTH`` tokens, the only kind whose tree can break the
    depth bound, takes the tree route instead, so it fails as
    ``parse_formula`` words it.  A trusted kernel: ``text`` must be a
    ``str`` and ``lang`` a ``Language``, as the scenario loader, which
    checks its sentences and shares its languages, passes them.
    """
    parser = _Parser(text, lang, (lang._atom_masks.__getitem__, *_MASKS))
    if len(parser.tokens) <= MAX_FORMULA_DEPTH:
        return parser.parse() & lang._full_mask
    return model_mask(parse_formula(text, lang), lang)


# --- pretty printing ---

# what ``format_formula`` builds: a text and the level it binds at.
# Negation binds one level tighter than the tightest connective, atoms
# and constants tighter still
_NEGATED = len(_CONNECTIVES)
_LEAF = _NEGATED + 1


def _joined(level: int, symbol: str, right_assoc: bool, left: tuple, right: tuple) -> tuple:
    """Two operands' (text, level) pairs joined by the connective at
    ``level``.  A child that binds looser is parenthesized, and so is one
    that binds equally on the side the connective does not group to."""
    left = left[0] if left[1] >= level + right_assoc else f"({left[0]})"
    right = right[0] if right[1] >= level + (not right_assoc) else f"({right[0]})"
    return f"{left} {symbol} {right}", level


def _negated(operand: tuple) -> tuple:
    return (f"~{operand[0]}" if operand[1] >= _NEGATED else f"~({operand[0]})"), _NEGATED


_TEXT = (lambda name: (name, _LEAF), _negated, ("T", _LEAF), ("F", _LEAF),
         _levels(partial(_joined, level, symbol, right_assoc)
                 for level, (_, symbol, right_assoc, _) in enumerate(_CONNECTIVES)))


def format_formula(formula: Formula) -> str:
    """Render with the fewest parentheses that survive re-parsing: the
    text of the fold of ``formula`` through ``_TEXT``."""
    return _fold(formula, _TEXT)[0]


# --- semantics ---

def evaluate(formula: Formula, world: int, lang: Language) -> bool:
    """Truth value of ``formula`` at a single world.  A ``lang`` that is
    not a ``Language`` raises ``LanguageError``, and a tree nested deeper
    than the interpreter's recursion limit allows ``FormulaError``."""
    _language(lang, "evaluate")
    try:
        return _truth(formula, world, lang)
    except RecursionError:
        raise FormulaError(_TOO_DEEP) from None


def _truth(formula: Formula, world: int, lang: Language) -> bool:
    """``evaluate`` without its checks, one frame per level."""
    if isinstance(formula, Atom):
        return lang.holds_at(world, formula.name)
    if isinstance(formula, Not):
        return not _truth(formula.operand, world, lang)
    if isinstance(formula, And):
        return _truth(formula.left, world, lang) and _truth(formula.right, world, lang)
    if isinstance(formula, Or):
        return _truth(formula.left, world, lang) or _truth(formula.right, world, lang)
    if isinstance(formula, Implies):
        return (not _truth(formula.left, world, lang)) or _truth(formula.right, world, lang)
    if isinstance(formula, Iff):
        return _truth(formula.left, world, lang) == _truth(formula.right, world, lang)
    if isinstance(formula, Verum):
        return True
    if isinstance(formula, Falsum):
        return False
    raise FormulaError(f"not a formula: {formula!r}")


def model_mask(formula: Formula, lang: Language) -> int:
    """The proposition expressed by ``formula``, as a world mask.

    Computed by structural bitwise algebra on the language's atom masks
    rather than per-world evaluation: the fold of ``formula`` through the
    atom masks and ``_MASKS``, which ``sentence_mask`` parses with, cut
    to the language's worlds once, at the end.  So
    ``sentence_mask(text, lang)`` is ``model_mask(parse_formula(text,
    lang), lang)`` by construction.  An atom ``lang`` does not know raises
    ``LanguageError``, and so does a ``lang`` that is not a ``Language``;
    ``models``, ``is_consistent`` and ``entails`` read this one check.
    """
    lang = _language(lang, "model_mask")
    return _fold(formula, (lang.atom_mask, *_MASKS)) & lang._full_mask


def models(formula: Formula, lang: Language) -> frozenset[int]:
    """The proposition expressed by ``formula``: its set of worlds."""
    return worlds_of(model_mask(formula, lang))


def is_consistent(formula: Formula, lang: Language) -> bool:
    return bool(model_mask(formula, lang))


def entails(premise: Formula, conclusion: Formula, lang: Language) -> bool:
    return not model_mask(premise, lang) & ~model_mask(conclusion, lang)


def canonical_formula(worlds: frozenset[int] | set[int], lang: Language) -> Formula:
    """A formula whose models are exactly ``worlds``.

    Disjunction of one conjunction of literals per world, in ascending
    world order; T for the full set, F for the empty one.  Both are
    joined by ``_balanced``, so a path from the root passes at most
    ``ceil(log2(len(worlds))) + ceil(log2(len(lang.atoms))) + 2`` nodes,
    and every walk over the tree stays far inside the recursion limit.
    """
    worlds = frozenset(worlds)
    if worlds == lang.all_worlds:
        return TOP
    if not worlds:
        return BOTTOM
    return _balanced(Or, [
        _balanced(And, [Atom(name) if lang.holds_at(world, name) else Not(Atom(name))
                        for name in lang.atoms])
        for world in sorted(worlds)])


# --- finite sets of formulas ---

class FormulaSet:
    """A finite set of formulas with a stable member order.

    Members are deduplicated under syntactic (structural) equality only;
    semantically equal but syntactically distinct members are kept, and
    the insertion order of first occurrences is preserved.  The order is
    what downstream consumers treat as the set's indexing.  A ``lang``
    that is not a ``Language`` raises ``LanguageError``.
    """

    def __init__(self, lang: Language, members: Iterable[Formula] = ()):
        self.lang = _language(lang, "FormulaSet")
        # a dict keeps each member's first occurrence, in insertion order
        seen: dict[Formula, None] = {}
        try:
            for member in members:
                if not isinstance(member, Formula):
                    raise FormulaError(f"not a formula: {member!r}")
                # a member's hash walks its tree, one frame per level
                seen[member] = None
        except RecursionError:
            raise FormulaError(_TOO_DEEP) from None
        self.members = tuple(seen)

    @classmethod
    def parse(cls, texts: Iterable[str], lang: Language) -> "FormulaSet":
        """The formulas of ``texts``, in order.  ``ParseError`` at position 0
        for a bare ``str``, which would otherwise be read one character at
        a time, and for a value that is not iterable, such as ``None``.
        Every text is parsed before the set is built, so a ``lang`` that
        is not a ``Language`` fails as ``parse_formula`` words it, or as
        the constructor does when there is no text."""
        if isinstance(texts, str) or not isinstance(texts, Iterable):
            got = "one str" if isinstance(texts, str) else type(texts).__name__
            raise ParseError(f"expected a collection of formula strings, got {got}", 0)
        return cls(lang, [parse_formula(text, lang) for text in texts])

    def __iter__(self) -> Iterator[Formula]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, formula: Formula) -> bool:
        return formula in self.members

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FormulaSet) and self.members == other.members

    def __hash__(self) -> int:
        return hash(self.members)

    def __repr__(self) -> str:
        return f"FormulaSet({{{', '.join(str(m) for m in self.members)}}})"

    def union(self, other: "FormulaSet") -> "FormulaSet":
        if other.lang is not self.lang and other.lang.atoms != self.lang.atoms:
            raise LanguageError("cannot union formula sets over different languages")
        return FormulaSet(self.lang, self.members + other.members)

    def model_sets(self) -> tuple[frozenset[int], ...]:
        """Per-member propositions, in member order."""
        return tuple(models(member, self.lang) for member in self.members)

    def model_masks(self) -> tuple[int, ...]:
        """Per-member propositions as world masks, in member order."""
        return tuple(model_mask(member, self.lang) for member in self.members)


def _checked(s: FormulaSet) -> FormulaSet:
    if not isinstance(s, FormulaSet):
        raise FormulaError(f"not a formula set: {s!r}")
    return s


def conj(s: FormulaSet) -> Formula:
    """Conjunction of all members, joined by ``_balanced``, so it is at
    most ``ceil(log2(len(s)))`` levels deeper than its deepest member;
    T for the empty set."""
    members = _checked(s).members
    return _balanced(And, members) if members else TOP


def neg_set(s: FormulaSet) -> FormulaSet:
    """Member-wise negation, preserving order."""
    return FormulaSet(_checked(s).lang, (Not(member) for member in s.members))


def sat_subset(s: FormulaSet, world: int) -> FormulaSet:
    """The members of ``s`` true at ``world``."""
    return FormulaSet(_checked(s).lang, (m for m in s.members if evaluate(m, world, s.lang)))


def cn_equal(s1: FormulaSet, s2: FormulaSet) -> bool:
    """Whether two formula sets have the same deductive closure."""
    return model_mask(conj(s1), s1.lang) == model_mask(conj(s2), s2.lang)
