"""A fixed unit of pure-Python work that times how fast the host runs right now.

The benchmark shares a few cores of a host whose speed drifts by half or more
over minutes, with the load of its neighbours.  Timing this fixed work before
and after every instance and dividing the instance's time by it cancels that
drift, as it slows both alike.  The work resembles the program's: bitset
Bron-Kerbosch like the clique oracle, and dict, set and tuple building like the
decomposition tree walks.  It never touches rankchi, so changes to the
program leave it alone.
"""

from __future__ import annotations

import random
import time

_RNG = random.Random(20110711)
_N = 52
_ADJ = [0] * _N
for _a in range(_N):
    for _b in range(_a + 1, _N):
        if _RNG.random() < 0.5:
            _ADJ[_a] |= 1 << _b
            _ADJ[_b] |= 1 << _a
_PARENT = [0] + [_RNG.randrange(i) for i in range(1, 2000)]


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _maximal_cliques() -> int:
    count = 0

    def bk(p: int, x: int) -> None:
        nonlocal count
        if not p and not x:
            count += 1
            return
        pivot = max(_bits(p | x), key=lambda u: (_ADJ[u] & p).bit_count())
        for v in _bits(p & ~_ADJ[pivot]):
            bk(p & _ADJ[v], x & _ADJ[v])
            p &= ~(1 << v)
            x |= 1 << v

    bk((1 << _N) - 1, 0)
    return count


def _subtree_sets() -> int:
    children: dict[int, list[int]] = {}
    for v, p in enumerate(_PARENT[1:], 1):
        children.setdefault(p, []).append(v)
    below: dict[int, frozenset[int]] = {}
    for v in reversed(range(len(_PARENT))):
        below[v] = frozenset({v}).union(*(below[c] for c in children.get(v, ())))
    return sum(len(s) for s in below.values() if len(s) < 50)


def work() -> tuple[int, int]:
    """The fixed work; its result never changes."""
    return _maximal_cliques(), _subtree_sets()


EXPECTED = work()


def seconds() -> float:
    """Wall time of one unit of the fixed work, checked for its result."""
    start = time.perf_counter()
    result = work()
    elapsed = time.perf_counter() - start
    if result != EXPECTED:
        raise AssertionError(f"reference work returned {result}, expected {EXPECTED}")
    return elapsed
