"""Exception types shared across the library, and the rule of a record's number fields."""

from dataclasses import MISSING, field, fields
from math import isfinite


class QuatflightError(Exception):
    """Base class for all library-specific errors."""


class SingularityError(QuatflightError):
    """A state reached a point where the chosen parameterization is undefined."""


class ConfigError(QuatflightError):
    """A scenario configuration failed validation.

    ``messages`` holds one human-readable entry per offending field.
    """

    def __init__(self, messages):
        if isinstance(messages, str):
            messages = [messages]
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


def number(default=MISSING, bound=None):
    """A number field of a record: its default, if any, and its bound, ``(">" or ">=", limit)`` or None.

    A field whose default is an int is a count: it must be whole, and the
    record holds it as an int.  A field whose default is None may hold None.
    """
    return field(default=default, metadata={"bound": bound})


def number_problem(value, default, bound):
    """What is wrong with ``value`` for a number with this default and bound, or None."""
    if not isfinite(value):
        return f"must be finite, got {value!r}"
    if bound is not None:
        op, limit = bound
        if not (value > limit if op == ">" else value >= limit):
            return f"must be {op} {limit}, got {float(value)!r}"
    if type(default) is int and value != int(value):
        return f"must be a whole number, got {value!r}"
    return None


def check_numbers(record):
    """Raise ``ValueError("<field> <problem>")`` for the first number field of ``record`` that breaks its rule.

    A count that holds a whole float is set to its int.
    """
    for f in fields(record):
        if "bound" not in f.metadata:
            continue
        value = getattr(record, f.name)
        if value is None and f.default is None:
            continue
        problem = number_problem(value, f.default, f.metadata["bound"])
        if problem is not None:
            raise ValueError(f"{f.name} {problem}")
        if type(f.default) is int:
            object.__setattr__(record, f.name, int(value))
