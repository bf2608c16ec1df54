"""Shared exception types."""

import json
from contextlib import contextmanager


class DomainError(ValueError):
    """A precondition on mathematical input is violated."""


class ParseError(ValueError):
    """Input text that does not parse: the set language, or JSON (exit 2)."""

    def __init__(self, message, line=None, col=None):
        loc = f" at line {line}, column {col}" if line is not None else ""
        super().__init__(f"{message}{loc}")
        self.line = line
        self.col = col


class BudgetError(RuntimeError):
    """An enumeration would exceed the configured work budget."""


class EstimationError(RuntimeError):
    """Census rows are inconsistent with a mu*q^d growth model.

    Carries a human-readable diagnostic in args[0] and the offending
    data in the ``details`` attribute.
    """

    def __init__(self, message, **details):
        super().__init__(message)
        self.details = details


@contextmanager
def malformed(what: str):
    """Report a missing key or a wrongly shaped value while reading ``what``
    (a JSON document) as a DomainError."""
    try:
        yield
    except DomainError:
        raise
    except (KeyError, TypeError, AttributeError, ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"malformed {what}: {exc!r}") from None


def json_list(value, what: str) -> list:
    """value, which must be a JSON array: a string or an object is refused, not iterated
    (``tuple("xy")`` would read the string "xy" as the list ["x", "y"])."""
    if not isinstance(value, list):
        raise DomainError(f"{what} must be a list, not {type(value).__name__}")
    return value


def load_json(text: str):
    """The JSON value of text; any ValueError of the decoder is a ParseError.  That is
    a JSONDecodeError, or the plain ValueError of an integer longer than Python's
    int-to-string digit limit (4,300 digits by default)."""
    try:
        return json.loads(text)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
