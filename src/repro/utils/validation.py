"""Small argument-validation helpers used across the package."""

from __future__ import annotations

import dataclasses
import numbers
import types
import typing
from typing import Any, Iterable, Mapping, Sequence

from repro.utils.errors import ConfigError


def is_power_of_two(n: int) -> bool:
    """Return True if ``n`` is a positive power of two."""
    return isinstance(n, int) and n > 0 and (n & (n - 1)) == 0


def check_positive(name: str, value: float) -> None:
    """Raise :class:`ConfigError` unless ``value`` is strictly positive."""
    if not value > 0:
        raise ConfigError(f"{name} must be > 0, got {value!r}")


def check_non_negative(name: str, value: float) -> None:
    """Raise :class:`ConfigError` unless ``value`` is >= 0 (NaN is not)."""
    if not value >= 0:
        raise ConfigError(f"{name} must be >= 0, got {value!r}")


def check_int(name: str, value: object, minimum: int) -> int:
    """Return ``value`` as an int, or raise :class:`ConfigError` unless it
    is an integer (``bool`` is not) and >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ConfigError(f"{name} must be an int >= {minimum}, got {value!r}")
    return int(value)


def check_power_of_two(name: str, value: int) -> None:
    """Raise :class:`ConfigError` unless ``value`` is a power of two."""
    if not is_power_of_two(value):
        raise ConfigError(f"{name} must be a positive power of two, got {value!r}")


def check_spec_keys(spec: object, allowed: Iterable[str], path: str = "") -> dict:
    """Reject non-dict specs and unknown keys, naming the full key path.

    ``path`` is the location of ``spec`` inside the enclosing document
    (e.g. ``"sessions[2]"``), so the error message points at exactly
    the offending entry — ``unknown key 'sessions[2].rate_hzz'`` —
    instead of silently ignoring a typo.  Returns ``spec`` unchanged so
    callers can validate-and-bind in one expression.
    """
    where = path or "spec"
    if not isinstance(spec, dict):
        raise ConfigError(
            f"{where} must be a JSON object, got {type(spec).__name__}"
        )
    allowed_set = set(allowed)
    unknown = sorted(k for k in spec if k not in allowed_set)
    if unknown:
        paths = [f"{path}.{k}" if path else str(k) for k in unknown]
        plural = "s" if len(paths) > 1 else ""
        shown = ", ".join(repr(p) for p in paths)
        raise ConfigError(
            f"unknown key{plural} {shown}; allowed keys: {sorted(allowed_set)}"
        )
    return spec


def _fits(value: object, hint: Any) -> bool:
    """Whether a JSON ``value`` can stand for the annotation ``hint``.
    ``bool`` is an ``int`` in Python but not in a spec: ``"requests":
    true`` is a mistake, not a 1."""
    if hint is int or hint is float:
        numbers = (int, float) if hint is float else int
        return isinstance(value, numbers) and not isinstance(value, bool)
    if hint in (str, bool, dict, type(None)):
        return isinstance(value, hint)
    origin = typing.get_origin(hint)
    if origin in (typing.Union, types.UnionType):
        return any(_fits(value, option) for option in typing.get_args(hint))
    if origin is tuple:
        item = typing.get_args(hint)[0]
        return isinstance(value, (list, tuple)) and all(_fits(v, item) for v in value)
    return True  # a nested object: its own loader validates it


def check_spec_fields(spec: object, schema: Any, path: str = "") -> dict:
    """:func:`check_spec_keys`, plus every scalar value against its type.

    ``schema`` is the dataclass the spec will be splatted into, or a
    ``{key: annotation}`` mapping; ``int`` / ``float`` / ``str`` /
    ``bool`` / ``dict``, their unions and homogeneous tuples (JSON
    lists) are judged.  A mismatch is a :class:`ConfigError` with the
    key path — ``sessions[0].requests must be int, got 'x'`` — at load,
    not a ``TypeError`` from whatever first touches the value mid-run.
    """
    hints: Mapping[str, Any] = (
        typing.get_type_hints(schema) if dataclasses.is_dataclass(schema) else schema
    )
    check_spec_keys(spec, hints, path)
    for key, value in spec.items():  # type: ignore[union-attr]
        hint = hints[key]
        if not _fits(value, hint):
            where = f"{path}.{key}" if path else str(key)
            wanted = hint.__name__ if isinstance(hint, type) else hint
            raise ConfigError(f"{where} must be {wanted}, got {value!r}")
    return spec  # type: ignore[return-value]


def check_shape3(name: str, shape: Sequence[int]) -> tuple[int, int, int]:
    """Validate a 3D shape (three positive ints) and return it as a tuple."""
    try:
        t = tuple(int(v) for v in shape)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be a sequence of three ints") from exc
    if len(t) != 3 or any(v <= 0 for v in t):
        raise ConfigError(f"{name} must be three positive ints, got {shape!r}")
    return t  # type: ignore[return-value]
