"""Exhaustive-search size limits, overridable via RANKCHI_* environment variables.

config.LIMITS reads them on first use, not at import, so that a malformed
setting raises InputError where the caller handles errors."""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cache

from .errors import InputError, ResourceError


@dataclass(frozen=True)
class Limits:
    clique_n: int = 24
    chromatic_n: int = 20
    rank_width_n: int = 14
    vertex_minor_n: int = 9

    @classmethod
    def from_env(cls) -> "Limits":
        def get(name: str, default: int) -> int:
            raw = os.environ.get(name, str(default))
            if not (raw.isascii() and raw.isdigit()):
                raise InputError(f"{name} must be a nonnegative integer (got {raw!r})")
            return int(raw)

        return cls(
            clique_n=get("RANKCHI_CLIQUE_LIMIT", cls.clique_n),
            chromatic_n=get("RANKCHI_CHROMATIC_LIMIT", cls.chromatic_n),
            rank_width_n=get("RANKCHI_RW_LIMIT", cls.rank_width_n),
            vertex_minor_n=get("RANKCHI_VM_LIMIT", cls.vertex_minor_n),
        )


@cache
def limits() -> Limits:
    """The limits of this process: the environment as read on the first call."""
    return Limits.from_env()


def __getattr__(name: str) -> Limits:
    if name == "LIMITS":
        return limits()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def check_ceiling(what: str, n: int, limit: int | None, default: str) -> None:
    """Raise ResourceError if n exceeds the explicit limit, else the Limits field default."""
    cap = limit if limit is not None else getattr(limits(), default)
    if n > cap:
        raise ResourceError(f"{what} limited to n <= {cap} (got {n})")
