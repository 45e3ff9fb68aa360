"""Exhaustive-search size limits, overridable via RANKCHI_* environment variables."""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import ResourceError


@dataclass(frozen=True)
class Limits:
    clique_n: int = 24
    chromatic_n: int = 20
    rank_width_n: int = 9
    vertex_minor_n: int = 9

    @classmethod
    def from_env(cls) -> "Limits":
        def get(name: str, default: int) -> int:
            raw = os.environ.get(name)
            return default if raw is None else int(raw)

        return cls(
            clique_n=get("RANKCHI_CLIQUE_LIMIT", cls.clique_n),
            chromatic_n=get("RANKCHI_CHROMATIC_LIMIT", cls.chromatic_n),
            rank_width_n=get("RANKCHI_RW_LIMIT", cls.rank_width_n),
            vertex_minor_n=get("RANKCHI_VM_LIMIT", cls.vertex_minor_n),
        )


LIMITS = Limits.from_env()


def check_ceiling(what: str, n: int, limit: int | None, default: int) -> None:
    """Raise ResourceError if n exceeds the explicit limit, else the RANKCHI_* default."""
    cap = limit if limit is not None else default
    if n > cap:
        raise ResourceError(f"{what} limited to n <= {cap} (got {n})")
