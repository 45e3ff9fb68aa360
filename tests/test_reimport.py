"""Re-importing the package must not keep earlier copies of it alive.

A module-level typing.Callable[[Graph], ...] alias is cached by typing's
LRU cache, whose key holds the Graph class and so every module of the copy
it came from.  The check runs in a subprocess so that this process's
sys.modules is left alone.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import rankchi

SCRIPT = """
import gc, importlib, sys, weakref

graphs = []
for _ in range(10):
    for name in [m for m in sys.modules if m == "rankchi" or m.startswith("rankchi.")]:
        del sys.modules[name]
    graphs.append(weakref.ref(importlib.import_module("rankchi").graph.Graph))
gc.collect()
print(sum(ref() is not None for ref in graphs))
"""


def test_reimport_releases_previous_copies():
    src = str(Path(rankchi.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    assert out.stdout.strip() == "1"
