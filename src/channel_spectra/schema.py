"""One declarative schema for configuration data.

A schema is a dict from key name to ``Key``: the value's type, its default
and its range.  ``parse`` walks a schema, rejects unknown keys at every
depth and returns typed values.  The types are

    bool         true or false
    int          an integral number (a bool or 2.5 is rejected), stored as int
    float        a finite number (an int is accepted), stored as float
    list[T]      a non-empty list of T, e.g. list[float]
    dict         a nested schema
    OneOf        a nested object whose schema is chosen by its tag key
    a function   (value, where) -> typed value, for any other shape

A key whose default is None also takes null ("choose automatically"); a key
without a default is required.  ``ge``/``gt`` bound a number, or every entry
of a list of numbers, and ``check`` runs a library validator on the typed
value (its ValueError becomes a ConfigError).
"""

from __future__ import annotations

import math
import numbers
import typing
from dataclasses import dataclass
from typing import Any, Callable, Mapping

__all__ = ["ConfigError", "Key", "OneOf", "parse"]


class ConfigError(ValueError):
    """Raised for unknown keys, malformed values, or inconsistent settings."""


_REQUIRED = object()


@dataclass(frozen=True)
class OneOf:
    """A nested object whose schema is picked by the value of its tag key."""

    tag: str
    schemas: Mapping[str, dict]


@dataclass(frozen=True)
class Key:
    type: Any
    default: Any = _REQUIRED
    ge: float | None = None
    gt: float | None = None
    check: Callable | None = None

    def parse(self, value, where: str):
        if value is None and self.default is None:
            return None
        if value is _REQUIRED:
            raise ConfigError(f"{where} is required")
        out = parse(self.type, value, where)
        for x in out if isinstance(out, list) else (out,):
            if self.ge is not None and not x >= self.ge:
                raise ConfigError(f"{where} must be >= {self.ge:g}, got {x!r}")
            if self.gt is not None and not x > self.gt:
                raise ConfigError(f"{where} must be > {self.gt:g}, got {x!r}")
        if self.check is not None:
            try:
                self.check(out)
            except ValueError as exc:
                message = str(exc)
                raise ConfigError(message if message.startswith(where) else f"{where}: {message}") from exc
        return out


def _join(where: str, name) -> str:
    return f"{where}.{name}" if where else str(name)


def parse(kind, value, where: str = ""):
    """``value`` as the schema type ``kind``, with defaults filled in; a
    ConfigError names the first unknown key, missing key or bad value."""
    if kind is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{where} must be a boolean")
        return value
    if kind in (int, float):
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ConfigError(f"{where} must be a number")
        if kind is int:
            if not (isinstance(value, numbers.Integral) or float(value).is_integer()):
                raise ConfigError(f"{where} must be an integer, got {value!r}")
            return int(value)
        try:
            out = float(value)
        except OverflowError:
            out = math.inf
        if not math.isfinite(out):
            raise ConfigError(f"{where} must be finite, got {value!r}")
        return out
    if typing.get_origin(kind) is list:
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{where} must be a non-empty list")
        (item,) = typing.get_args(kind)
        return [parse(item, v, f"{where}[{i}]") for i, v in enumerate(value)]
    if isinstance(kind, (dict, OneOf)) and not isinstance(value, Mapping):
        raise ConfigError(f"{where or 'config'} must be an object")
    if isinstance(kind, dict):
        unknown = sorted(str(k) for k in value if k not in kind)
        if unknown:
            raise ConfigError(f"unknown key(s) {', '.join(unknown)}" + (f" in {where}" if where else ""))
        return {name: key.parse(value.get(name, key.default), _join(where, name)) for name, key in kind.items()}
    if isinstance(kind, OneOf):
        tag = value.get(kind.tag)
        if not isinstance(tag, str) or tag not in kind.schemas:
            raise ConfigError(
                f"{_join(where, kind.tag)} must be one of {', '.join(kind.schemas)}, got {tag!r}"
            )
        rest = {k: v for k, v in value.items() if k != kind.tag}
        return {kind.tag: tag, **parse(kind.schemas[tag], rest, where)}
    return kind(value, where)

