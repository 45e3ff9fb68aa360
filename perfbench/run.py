"""rankchi benchmark: one workload, one seed, one single-threaded process.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {jointree,cocktail,witness} \\
        --seed N --seconds S --trace {0,1} [--smoke]

The benchmark imports the package and builds a batch of instances from the
seed (set-up), then calls the package on the batch in a closed loop (one
caller; the next instance starts when the previous one returns), pass after
pass, for S seconds.  Set-up is timed SETUP_REPEATS times before the first
pass and once more after each pass, and its median is reported.  Every output
is checked outside the timed region by perfbench/checks.py, and the last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics.

Instance times are reported in reference units ("ref"): each instance's wall
time divided by the wall time of a fixed piece of pure-Python work
(perfbench/reference.py) timed just before and after it.  The shared host's
speed drifts by half or more over minutes; the ratio cancels that drift, the
raw seconds do not.  The raw seconds stay in the info line.

--trace 0 reports the end-to-end metrics.  --trace 1 spends the first half of
S untraced and the second half with every layer wrapped (perfbench/layers.py),
and reports the per-layer metrics and the tracing overhead.  --smoke runs tiny
batches so that the benchmark's own tests finish in seconds.

The line before the last is an informational JSON object: the run's
environment, the instance names and a digest of every coloring produced.

Runs from the checkout's src/ directory, never from an installed rankchi, and
exits with status 2 without a result when src/rankchi is absent.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# The clique ceiling guards exponential enumeration; at its default of 24 every
# jointree and cocktail instance is refused.  Raising it is a documented user
# setting, applied in this process only and the same for every commit.
ENV = {"RANKCHI_CLIQUE_LIMIT": "100000"}
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("jointree", "cocktail", "witness")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny batches, for tests")
    return p.parse_args(argv)


def git_commit(root: Path) -> str:
    """HEAD's commit id read from .git, or 'unknown' outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    from rankchi.config import LIMITS

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "rankchi_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("RANKCHI_")},
        "limits": asdict(LIMITS),
        "seed": seed,
        "commit": git_commit(ROOT),
    }


def fresh_import(name: str):
    """Import `name` and the whole rankchi package anew, as a new process would.

    Set-up time then includes the package's import-time work.
    """
    for mod in [m for m in sys.modules if m == "rankchi" or m.startswith("rankchi.")]:
        del sys.modules[mod]
    sys.modules.pop(name, None)
    return importlib.import_module(name)


def run_pass(wl, batch):
    """Run every instance once; the timed region is wl.call alone.

    The reference work runs before the first instance and after each one, so
    every instance has a reference time, the mean of the two around it.
    Returns instance times, reference times and outputs, one of each per
    instance.
    """
    import reference
    from rankchi.errors import RankchiError
    from workloads import Output

    times, refs, outs = [], [], []
    before = reference.seconds()
    for inst in batch:
        start = time.perf_counter()
        try:
            raw = wl.call(inst)
        except Exception as exc:  # a failed instance is counted, not fatal
            elapsed = time.perf_counter() - start
            if not isinstance(exc, RankchiError):
                traceback.print_exception(exc, file=sys.stderr)
            out = Output(None, f"{type(exc).__name__}: {exc}")
        else:
            elapsed = time.perf_counter() - start
            out = wl.output(inst, raw)
        after = reference.seconds()
        times.append(elapsed)
        refs.append((before + after) / 2)
        outs.append(out)
        before = after
    return times, refs, outs


def measure(wl, batch, seconds, reference_outs, tracer=None, set_up=None):
    """Passes over the batch for `seconds` (at least one pass).

    A pass starts only if a pass as long as the previous one would end in
    time, so a run keeps to its time budget.  When `set_up` is given, set-up
    runs again after every pass and the next pass uses the workload and batch
    it built (the same inputs, from the same seed), so that set-up is timed
    all through the run rather than in one moment of the host's load.

    Returns per-pass instance times, per-pass reference times, per-instance
    counts of passes whose output differs from `reference_outs` (the first
    pass when None), the reference outputs, one tracer snapshot per pass, and
    the workload and batch last used.
    """
    times, refs, snaps = [], [], []
    differs = [0] * len(batch)
    deadline = time.perf_counter() + seconds
    last = 0.0
    while not times or time.perf_counter() + last <= deadline:
        began = time.perf_counter()
        if tracer is not None:
            tracer.reset()
        pass_times, pass_refs, outs = run_pass(wl, batch)
        if tracer is not None:
            snaps.append((dict(tracer.calls), dict(tracer.self_s), dict(tracer.counts),
                          list(tracer.key_lemma_decs), sum(pass_times),
                          sum(t / r for t, r in zip(pass_times, pass_refs))))
        times.append(pass_times)
        refs.append(pass_refs)
        if set_up is not None:
            wl, batch = set_up()
        last = time.perf_counter() - began
        if reference_outs is None:
            reference_outs = outs
            continue
        for i, (out, ref) in enumerate(zip(outs, reference_outs)):
            if (out.colors, out.error) != (ref.colors, ref.error):
                differs[i] += 1
    return times, refs, differs, reference_outs, snaps, wl, batch


def in_reference_units(times, refs):
    """Each instance time divided by the reference time measured around it."""
    return [[t / r for t, r in zip(ts, rs)] for ts, rs in zip(times, refs)]


def score(wl, batch, outputs, differs, passes):
    """Check each output once, outside the timed region.

    An instance counts as failed in every pass when it raised or its output
    fails a check, and in each pass whose output differs from `outputs`.
    Returns the failed count, failure messages per instance, and palette/omega
    per colored instance.
    """
    failed, failures, ratios = 0, [], []
    for inst, out, moved in zip(batch, outputs, differs):
        if out.error is not None:
            fails, omega = [out.error], 0
        else:
            fails, omega = wl.check(inst, out)
        failures.append(fails)
        failed += passes if fails else moved
        if out.colors is not None and omega > 0:
            ratios.append(max(out.colors) / omega)
    return failed, failures, ratios


def layer_metrics(snaps, batch_size, untraced_wall_ref):
    from layers import LABELS, TRACED, WALKS
    from rankchi import decomposition

    rows = []
    for calls, self_s, counts, decs, wall, wall_ref in snaps:
        nodes = sum(decomposition.root_normalize(d).num_nodes - 1 for d in decs)
        row = {}
        for label in LABELS:
            row[f"{label}.calls"] = calls.get(label, 0)
            row[f"{label}.self_s"] = self_s.get(label, 0.0)
        for mod in TRACED:
            busy = sum(v for k, v in self_s.items() if k.startswith(mod + "."))
            row[f"share.{mod}"] = busy / wall if wall else 0.0
        walks = sum(calls.get(label, 0) for label in WALKS)
        queries = calls.get("oracles.clique_number", 0)
        row["decomposition.key_lemma_nodes"] = nodes
        row["decomposition.walks_per_node"] = walks / nodes if nodes else 0.0
        row["oracles.cliques_per_query"] = (
            counts.get("cliques_returned", 0) / queries if queries else 0.0)
        pieces = counts.get("piece_vertices", 0)
        row["coloring.piece_vertices"] = pieces
        row["coloring.quotient_frac"] = (
            counts.get("quotient_vertices", 0) / pieces if pieces else 0.0)
        row["coloring.levels"] = calls.get("coloring.key_lemma_coloring", 0) / batch_size
        row["bench.instances"] = batch_size
        row["trace.wall_ref"] = wall_ref
        rows.append(row)
    metrics = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    metrics["trace.overhead_frac"] = metrics.pop("trace.wall_ref") / untraced_wall_ref - 1.0
    return metrics


UNITS = {"calls": "count", "self_s": "s", "key_lemma_nodes": "count",
         "piece_vertices": "count", "instances": "count"}


def unit_of(name: str) -> str:
    return UNITS.get(name.rsplit(".", 1)[1], "ratio")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "rankchi" / "__init__.py").is_file():
        print(f"error: no rankchi sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(ENV)
    sys.path[:0] = [str(SRC), str(HERE)]
    import rankchi

    if Path(rankchi.__file__).resolve().parent != SRC / "rankchi":
        print(f"error: imported rankchi from {rankchi.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import checks
    from layers import Tracer

    with tempfile.TemporaryDirectory(dir=HERE, prefix=".work-") as workdir:
        setup_times = []

        def set_up():
            start = time.perf_counter()
            workloads = fresh_import("workloads")
            wl = workloads.WORKLOADS[args.workload](Path(workdir), args.smoke)
            batch = wl.setup(random.Random(args.seed))
            setup_times.append(time.perf_counter() - start)
            return wl, batch

        for _ in range(SETUP_REPEATS):
            wl, batch = set_up()
        half = args.seconds / 2 if args.trace else args.seconds
        times, refs, differs, first, _, wl, batch = measure(wl, batch, half, None, set_up=set_up)
        passes = len(times)
        if args.trace:
            # The tracer wraps the modules in use now; set-up must not replace them.
            with Tracer() as tracer:
                traced, _, more, _, snaps, _, _ = measure(wl, batch, half, first, tracer)
            differs = [a + b for a, b in zip(differs, more)]
            passes += len(traced)
        failed, failures, ratios = score(wl, batch, first, differs, passes)

    attempted = passes * len(batch)
    wrong = any(fails and first[i].error is None for i, fails in enumerate(failures))
    units = in_reference_units(times, refs)
    wall_ref = statistics.median(sum(u) for u in units)

    if args.trace:
        metrics = {k: {"value": v, "unit": unit_of(k)}
                   for k, v in layer_metrics(snaps, len(batch), wall_ref).items()}
    else:
        per_instance = [statistics.median(col) for col in zip(*units)]
        # The slow end is the median over the largest instances, not the single
        # slowest one, which would follow one seed's unluckiest graph.
        largest = max(inst.size for inst in batch)
        values = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_ref": (wall_ref, "ref"),
            "instance_ref_p50": (statistics.median(per_instance), "ref"),
            "instance_ref_large": (statistics.median(
                t for t, inst in zip(per_instance, batch) if inst.size == largest), "ref"),
            "ok_frac": ((attempted - failed) / attempted, "frac"),
            "palette_per_omega": (statistics.fmean(ratios) if ratios else 0.0, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}

    info = {
        "workload": args.workload,
        "smoke": args.smoke,
        "env": environment(args.seed),
        "passes": passes,
        "setup_s": setup_times,
        "wall_s": statistics.median(sum(t) for t in times),
        "reference_ms": statistics.median(r * 1000 for rs in refs for r in rs),
        "instances": [inst.name for inst in batch],
        "instance_ms": {inst.name: [round(t[i] * 1000, 3) for t in times]
                        for i, inst in enumerate(batch)},
        "coloring_digest": checks.digest([out.colors for out in first]),
        "failures": {inst.name: fails for inst, fails in zip(batch, failures) if fails},
    }
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": not wrong,
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
