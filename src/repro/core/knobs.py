"""Environment knob parsing shared by the engine, fault and snapshot policies.

An explicit value (a config field, a CLI option) wins; otherwise the
environment variable is read; otherwise the default holds.  A malformed
variable raises :class:`~repro.errors.ParameterError` naming it - a knob
never falls back silently to its default.  :func:`check_count` holds an
explicit count (a config field) to the same rule: an integer, in range.
"""

from __future__ import annotations

import numbers
import os
from typing import Optional, TypeVar

from ..errors import ParameterError

T = TypeVar("T")


def resolve_int(value: Optional[int], env: str, default: T, minimum: int = 1) -> "int | T":
    """``value``, else the integer in ``env``, else ``default``; below ``minimum`` raises."""
    if value is None:
        raw = os.environ.get(env, "").strip()
        if raw:
            try:
                value = int(raw)
            except ValueError:
                raise ParameterError(f"{env} must be an integer, got {raw!r}") from None
    if value is None:
        return default
    if value < minimum:
        raise ParameterError(f"{env} must be >= {minimum}, got {value}")
    return value


def check_count(name: str, value: object, minimum: int = 1) -> None:
    """Reject a ``value`` that is not an integer (``bool`` included) or is below ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ParameterError(f"{name} must be >= {minimum}, got {value}")
