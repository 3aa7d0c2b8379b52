"""Exception types shared across the package, and the registry lookup
that raises them."""

from typing import Mapping


class RevforgeError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(RevforgeError):
    """Raised when formula text cannot be parsed.

    Carries the character position at which the problem was detected, so
    callers (notably the CLI) can point at the offending spot.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class FormulaError(RevforgeError, TypeError):
    """Raised where a formula object or a ``FormulaSet`` is expected and
    another value is given.

    It is a ``TypeError`` too, as the bare error it replaced in the
    formula entries was, so callers that catch ``TypeError`` keep working.
    """


class LanguageError(RevforgeError):
    """Raised for malformed languages or worlds outside the language."""


class PartitionError(RevforgeError):
    """Raised when blocks do not form an ordered partition of the worlds."""


class InconsistentInputError(RevforgeError):
    """Raised when an operation requires a consistent input and gets none.

    For set-based operations, ``culprits`` holds a minimal inconsistent
    subset of the offending members (as rendered text) for diagnostics.
    """

    def __init__(self, message: str, culprits: tuple = ()):
        if culprits:
            message = f"{message}; minimal inconsistent subset: {{{', '.join(culprits)}}}"
        super().__init__(message)
        self.culprits = culprits


class UnknownOperatorError(RevforgeError):
    """Raised when a registry lookup names no registered operator."""


class UnknownPostulateError(RevforgeError):
    """Raised when a check names no catalogued postulate."""


class UnsatisfiableConditionalsError(RevforgeError):
    """Raised when no total preorder satisfies a set of conditionals."""


class ScenarioError(RevforgeError):
    """Raised for malformed or unrunnable scenario files."""


class SpaceError(RevforgeError):
    """Raised for instance-space configurations outside supported bounds."""


def lookup(registry: Mapping, name: str, what: str,
           error: type = UnknownOperatorError):
    """``registry[name]``, or ``error`` naming every registered key.

    ``what`` names the kind of entry in the message, for example
    ``"revision operator"``.  A name that cannot key the registry, such
    as a list, is as unknown as any other.
    """
    try:
        return registry[name]
    except (KeyError, TypeError):
        known = ", ".join(sorted(registry))
        raise error(f"unknown {what} {name!r} (known: {known})") from None
