"""Atomic attribute types of the extended NF2 data model.

The AIM-II paper uses integers, character strings, and dates (for the ASOF
temporal queries) in its examples.  We add booleans and floating-point
numbers so realistic schemas can be expressed.
"""

from __future__ import annotations

import datetime
import enum

from repro.errors import DataError


class AtomicType(enum.Enum):
    """The atomic (non-table) attribute types."""

    INT = "INT"
    FLOAT = "FLOAT"
    STRING = "STRING"
    BOOL = "BOOL"
    DATE = "DATE"

    @classmethod
    def parse(cls, name: str) -> "AtomicType":
        """Resolve a type name (case-insensitive, with common aliases)."""
        normalized = _ALIASES.get(name.strip().upper())
        if normalized is None:
            raise DataError(f"unknown atomic type: {name!r}")
        return cls(normalized)

    def validate(self, value: object) -> object:
        """Check *value* against this type, coercing where unambiguous.

        Returns the (possibly coerced) value.  ``None`` is accepted for every
        type (SQL-style null).
        """
        if value is None:
            return None
        if self is AtomicType.INT:
            if isinstance(value, bool) or not isinstance(value, int):
                raise DataError(f"expected INT, got {value!r}")
            return value
        if self is AtomicType.FLOAT:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise DataError(f"expected FLOAT, got {value!r}")
            return float(value)
        if self is AtomicType.STRING:
            if not isinstance(value, str):
                raise DataError(f"expected STRING, got {value!r}")
            return value
        if self is AtomicType.BOOL:
            if not isinstance(value, bool):
                raise DataError(f"expected BOOL, got {value!r}")
            return value
        if self is AtomicType.DATE:
            if isinstance(value, datetime.date) and not isinstance(value, datetime.datetime):
                return value
            if isinstance(value, str):
                try:
                    return datetime.date.fromisoformat(value)
                except ValueError as exc:
                    raise DataError(f"invalid DATE literal: {value!r}") from exc
            raise DataError(f"expected DATE, got {value!r}")
        raise DataError(f"unhandled atomic type {self}")  # pragma: no cover


_ALIASES = {
    "INT": "INT",
    "INTEGER": "INT",
    "FLOAT": "FLOAT",
    "REAL": "FLOAT",
    "DOUBLE": "FLOAT",
    "DECIMAL": "FLOAT",
    "STRING": "STRING",
    "TEXT": "STRING",
    "CHAR": "STRING",
    "VARCHAR": "STRING",
    "BOOL": "BOOL",
    "BOOLEAN": "BOOL",
    "DATE": "DATE",
}
