"""Tests of the benchmark itself: smoke runs, live output checks, exit status.

Run with `python3 -m pytest perfbench`.  Smoke runs use tiny batches and go
through run.py in a subprocess, as the benchmark is run for real.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
from rankchi import complete, exact_rank_width, oracles  # noqa: E402
from rankchi.generate import random_graph  # noqa: E402
from workloads import WORKLOADS, Output, cocktail_party  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def smoke(workload: str, trace: int) -> tuple[dict, dict]:
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.01",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    *_, info_line, result_line = proc.stdout.splitlines()
    return json.loads(info_line)["info"], json.loads(result_line)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_reports_every_declared_metric(workload):
    assert set(WORKLOADS) == set(run.WORKLOAD_NAMES) == {w["name"] for w in DECLARED["workloads"]}
    info, plain = smoke(workload, 0)
    traced_info, traced = smoke(workload, 1)
    for result, declared in ((plain, "end_to_end"), (traced, "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in DECLARED[declared]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert plain["metrics"]["ok_frac"]["value"] == 1.0
    # same seed, same inputs: tracing must not change a single color
    assert info["coloring_digest"] == traced_info["coloring_digest"]
    assert info["env"]["seed"] == 3
    assert info["env"]["rankchi_env"]["RANKCHI_CLIQUE_LIMIT"] == run.ENV["RANKCHI_CLIQUE_LIMIT"]


def corrupt(workload: str, inst, out: Output) -> Output:
    """Give the second endpoint of the instance's first edge its neighbor's color."""
    u, v = next(checks.edges(inst.graph.adj))
    colors = list(out.colors)
    colors[v] = colors[u]
    if workload == "jointree":  # the CLI's output is the coloring file's text
        text = "".join(f"c {x} {c}\n" for x, c in enumerate(colors))
        return Output(checks.parse_coloring(text, len(colors)), extra=(text, out.extra[1]))
    return Output(tuple(colors), extra=out.extra)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_corrupted_coloring_is_counted_failed(workload, tmp_path):
    wl = WORKLOADS[workload](tmp_path, smoke=True)
    batch = wl.setup(random.Random(5))
    _, _, outs = run.run_pass(wl, batch)
    failed, failures, _ = run.score(wl, batch, outs, [0] * len(batch), passes=3)
    assert failed == 0 and not any(failures)

    target = next(i for i, inst in enumerate(batch)
                  if outs[i].colors is not None and inst.graph.adj != (0,) * inst.graph.n)
    outs[target] = corrupt(workload, batch[target], outs[target])
    failed, failures, _ = run.score(wl, batch, outs, [0] * len(batch), passes=3)
    assert failed == 3
    assert any("monochromatic" in msg for msg in failures[target])


def test_palette_and_witness_checks_are_live(tmp_path):
    wl = WORKLOADS["witness"](tmp_path, smoke=True)
    batch = wl.setup(random.Random(5))
    _, _, outs = run.run_pass(wl, batch)
    width, dec = outs[0].extra
    wide = Output(tuple(c + 10**6 for c in outs[0].colors), extra=(width, dec))
    misreported = Output(outs[0].colors, extra=(width + 1, dec))
    differs = [1] + [0] * (len(batch) - 1)
    for bad in (wide, misreported):
        failed, failures, _ = run.score(wl, batch, [bad] + outs[1:], [0] * len(batch), passes=2)
        assert failed == 2 and failures[0]
    failed, _, _ = run.score(wl, batch, outs, differs, passes=2)
    assert failed == 1


def test_times_are_divided_by_the_reference_around_them(tmp_path):
    assert reference.work() == reference.EXPECTED
    wl = WORKLOADS["cocktail"](tmp_path, smoke=True)
    times, refs, _ = run.run_pass(wl, wl.setup(random.Random(5)))
    assert len(times) == len(refs) == 2 and all(r > 0 for r in refs)
    assert run.in_reference_units([[2.0, 3.0]], [[4.0, 0.5]]) == [[0.5, 6.0]]


def test_checkers_agree_with_the_package():
    rng = random.Random(11)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 8), rng.uniform(0.1, 0.9))
        assert checks.clique_number(g.adj) == oracles.clique_number(g)
        width, witness = exact_rank_width(g)
        d = witness.decomposition
        assert checks.decomposition_width(g.adj, d.tree_edges, d.tau) == width
    assert checks.clique_number(complete(6).adj) == 6
    g, _ = cocktail_party(rng, 7)
    assert checks.clique_number(g.adj) == 7


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    proc = bench("--workload", "cocktail", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
