"""Closed-loop benchmark of the ripscollapse pipeline.

    python3 perfbench/run.py --workload circle-snapshots --seed 1 --seconds 30 --trace 0

One caller makes one pipeline call at a time through the public API
(``run_pipeline`` or ``compare_pipelines``, ``workers=1``) for ``--seconds``
seconds.  A fixed pure-Python reference loop runs before the first call and
after every call; each call's time is divided by the mean of the two loops
around it, which cancels the drift of the host's speed.  Every diagram is
checked (see ``check.py``), and every result-level count must repeat
exactly from call to call.

``--trace 0`` prints the end-to-end metrics: ``wall_ref`` (median call time
in reference loops), ``setup_s`` (median of several set-ups, each in a fresh
interpreter) and ``peak_rss_mb``.  ``--trace 1`` alternates untraced and
traced calls and prints the per-layer metrics of ``spans.py``.  The last line
of standard output is the result; the line before it records the
environment and the workload.  The exit code is 0 only when every call
passed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

MIN_CALLS = 3
SETUP_PROBES = 5
REF_MASKS = 400
REF_ROUNDS = 320


def reference_loop() -> float:
    """Seconds taken by a fixed amount of pure-Python bitset work.

    AND, popcount and lowest-bit iteration on 64-bit masks are the
    operations of the program's clique search; a slow phase of the host
    slows this loop about as much as it slows a pipeline call.
    """
    t0 = perf_counter()
    x = 1
    masks = []
    for _ in range(REF_MASKS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        masks.append(x * (x ^ 0x5BD1E995))
    acc = 0
    for _ in range(REF_ROUNDS):
        for a in masks:
            acc += (a & masks[(a >> 7) % REF_MASKS]).bit_count()
            b = a
            while b and acc & 3:
                low = b & -b
                b ^= low
                acc += low.bit_length()
    return perf_counter() - t0


def setup_seconds(points) -> float:
    """Median set-up time over fresh interpreters (see ``setup_probe.py``)."""
    text = "".join(" ".join(repr(x) for x in p) + "\n" for p in points)
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py")],
            input=text, capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def summarize(out) -> tuple[tuple, dict[str, int], list[str]]:
    """(diagram pairs, result-level counts, problems) of one call's output."""
    if hasattr(out, "verdicts"):  # CompareReport
        unequal = [v.dim for v in out.verdicts if not v.equal]
        problems = [f"collapsed and uncollapsed diagrams differ in dims {unequal}"] if unequal else []
        if not out.verdicts:
            problems.append("comparison covered no dimension")
        counts = {
            "diagram": len(out.collapsed),
            "oracle_diagram": len(out.uncollapsed),
            "dims": len(out.verdicts),
        }
        return out.collapsed.pairs, counts, problems
    counts = {
        "diagram": len(out.diagram),
        "tower_ops": len(out.tower),
        "cells": len(out.filtration),
        "maximal_before": sum(s.before.n_maximal for s in out.snapshots),
        "maximal_after": sum(s.after.n_maximal for s in out.snapshots),
    }
    return out.diagram.pairs, counts, []


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True, help="isometry applied to the cloud")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--cloud-seed", type=int, help="cloud to run (default: the workload's)")
    p.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    args = p.parse_args(argv)

    if not (SRC / "ripscollapse" / "__init__.py").is_file():
        print(f"error: no ripscollapse sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import ripscollapse
    from ripscollapse import _kernels

    import check
    import spans
    import workloads

    if Path(ripscollapse.__file__).resolve().parent != (SRC / "ripscollapse").resolve():
        print(f"error: imported ripscollapse from {ripscollapse.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")

    w = workloads.get(args.workload, args.tiny)
    cloud_seed = w.cloud_seed if args.cloud_seed is None else args.cloud_seed
    points = w.points(args.seed, cloud_seed)
    grades = w.grades()

    setup_s = setup_seconds(points) if args.trace == 0 else 0.0
    D = ripscollapse.pairwise_distances(points)
    D = ripscollapse.validate_distance_matrix(D)
    expected = check.single_linkage(D, grades)
    digest = None if args.tiny else check.REFERENCE_DIGESTS.get((w.name, cloud_seed))
    api = getattr(ripscollapse, w.api)

    tracer = spans.Tracer() if args.trace else None
    loops = [reference_loop()]
    ratios: dict[bool, list[float]] = {False: [], True: []}
    layer_times: list[dict[str, float]] = []
    walls: list[float] = []
    first_counts: dict[bool, dict] = {}
    attempted = failed = 0
    start = perf_counter()
    while perf_counter() - start < args.seconds or attempted < MIN_CALLS:
        traced = tracer is not None and attempted % 2 == 1
        problems = []
        out = None
        try:
            if traced:
                with spans.installed(tracer):
                    t0 = perf_counter()
                    out = tracer.call(api, D, grades, workers=1)
                    elapsed = perf_counter() - t0
            else:
                t0 = perf_counter()
                out = api(D, grades, workers=1)
                elapsed = perf_counter() - t0
        except Exception as exc:  # a failed call is counted, and the run goes on
            problems.append(f"{type(exc).__name__}: {exc}")
        loops.append(reference_loop())
        attempted += 1

        if out is not None:
            pairs, counts, problems = summarize(out)
            del out
            problems += check.problems(pairs, expected, digest)
            if traced:
                times, layer_counts = spans.call_metrics(tracer, len(tracer.bounds) - 1)
                counts = {**counts, **layer_counts}
            if first_counts.setdefault(traced, counts) != counts:
                problems.append(f"counts differ from the first call: {counts}")
            if traced and False in first_counts and first_counts[False].items() - counts.items():
                problems.append("traced and untraced calls disagree on result counts")
        if problems:
            failed += 1
            print(f"call {attempted} failed: {'; '.join(problems)}", file=sys.stderr)
            continue
        ratios[traced].append(elapsed / ((loops[-2] + loops[-1]) / 2))
        if traced:
            layer_times.append(times)
            walls.append(tracer.root_duration(len(tracer.bounds) - 1))

    if args.trace == 0:
        metrics = {
            "wall_ref": (median(ratios[False]), "ref_loops"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics = {
            name: (median([t[name] for t in layer_times]), "s") for name in spans.TIME_METRICS
        }
        counts = first_counts.get(True, {})
        for name in spans.COUNT_METRICS:
            metrics[name] = (counts.get(name, 0.0), "B" if name.endswith("_bytes") else "count")
        for name in spans.RATIO_METRICS:
            metrics[name] = (counts.get(name, 0.0), "ratio")
        untraced = median(ratios[False])
        metrics["pipeline.wall_s"] = (median(walls), "s")
        metrics["ref.loop_s"] = (median(loops), "s")
        metrics["trace.overhead_ratio"] = (median(ratios[True]) / untraced if untraced else 0.0, "ratio")
        metrics["failed_frac"] = (failed / attempted, "ratio")

    context = {
        "workload": w.name,
        "params": w.params(),
        "seed": args.seed,
        "cloud_seed": cloud_seed,
        "held_out_cloud_seed": w.held_out_seed,
        "tiny": args.tiny,
        "trace": args.trace,
        "samples": {"untraced": len(ratios[False]), "traced": len(ratios[True])},
        "using_numba": _kernels.USING_NUMBA,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "counts": first_counts.get(False, {}),
    }
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
