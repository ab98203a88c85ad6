"""Readers of JSON document fields, shared by the attack models, the
session config and the scenario reader: each gives the value as its
field stores it, or raises one ValueError line that names the field."""

import numpy as np

# What a number field takes: a NumPy scalar too, read as the Python number.
_NUMBER = (int, float, np.integer, np.floating)


def _number(value, path: str) -> float:
    """float(value) for a number field at path of a config or scenario
    document; true, false and strings are not numbers."""
    try:
        return float(_of_type(value, _NUMBER, path))
    except (OverflowError, ValueError):
        raise ValueError(f"{path}: expected a number, got {value!r}") from None


def _integer(value, path: str) -> int:
    """`_number` for an integer field, refusing to truncate a fractional
    number or to read an infinite one."""
    if not _number(value, path).is_integer():
        raise ValueError(f"{path}: expected an integer, got {value!r}")
    return int(value)


def _enum(value, kind, path: str):
    """The member of enum kind that value is or names, for an enum field
    at path."""
    try:
        return kind(value)
    except ValueError:
        expected = "/".join(member.value for member in kind)
        raise ValueError(f"{path}: expected {expected}, got {value!r}") from None


def _of_type(value, kind, path: str):
    """value, if it has the JSON type kind; true and false are not numbers."""
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        expected = {dict: "an object", list: "a list", (list, tuple): "a list", str: "a string",
                    bool: "true or false", int: "an integer", _NUMBER: "a number"}[kind]
        raise ValueError(f"{path}: expected {expected}, got {type(value).__name__}")
    return value


def _known_keys(doc: dict, keys, prefix: str = ""):
    """Refuse a key of doc that is not one of keys."""
    for key in doc:
        if key not in keys:
            raise ValueError(f"{prefix}unknown key {key!r}")
