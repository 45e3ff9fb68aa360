"""Rank-width witnesses pinned to recorded values, so the DP stays bit-identical.

tests/data/pinned_witnesses.json holds the width and the tree edges of the
witness exact_rank_width returns for the fixed seeded graphs below.  The DP
keeps the first optimal split it finds for each vertex set, so a change to its
enumeration order or to its tie rule changes the witness (and every coloring
along it) while the width stays optimal; that fails here.
Regenerate the file only for an intended change of witnesses:

    PYTHONPATH=src python tests/test_pinned_witnesses.py > tests/data/pinned_witnesses.json
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from rankchi import exact_rank_width
from rankchi.generate import random_graph

PINNED = Path(__file__).parent / "data" / "pinned_witnesses.json"


def cases():
    """(name, graph): 30 seeded random graphs on 4 to 10 vertices."""
    rng = random.Random(2009)
    for i in range(30):
        yield f"random-{i}", random_graph(rng, 4 + i % 7, rng.uniform(0.15, 0.85))


def witnesses() -> dict[str, dict]:
    out = {}
    for name, g in cases():
        width, rd = exact_rank_width(g, limit=10)
        out[name] = {"width": width, "tree_edges": [list(e) for e in rd.decomposition.tree_edges]}
    return out


@pytest.fixture(scope="module")
def recorded():
    return json.loads(PINNED.read_text())


def test_witnesses_match_recorded(recorded):
    got = witnesses()
    assert sorted(got) == sorted(recorded)
    changed = [name for name in got if got[name] != recorded[name]]
    assert not changed, f"witnesses differ from the recorded ones: {changed}"


if __name__ == "__main__":
    # Prints the current witnesses as the JSON this test compares against.
    rows = (f"{json.dumps(name)}: {json.dumps(w)}" for name, w in sorted(witnesses().items()))
    print("{\n" + ",\n".join(rows) + "\n}")
