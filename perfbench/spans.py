"""In-memory span tracing of the pipeline's layers, from outside the program.

:func:`installed` wraps public functions of each layer for the duration of a
``with`` block and restores the originals afterwards.  A function is patched
under every name a ``ripscollapse`` module holds for it (for example both
``ripscollapse.collapse.core`` and ``ripscollapse.pipeline.core``), and a
method on its class.  A target the program no longer has is skipped, and a
function it no longer calls records no span: its metrics then read 0.

Each span records its name, start, end, parent span and call id.  Counts
are read off arguments and return values right after the span closes; that
work is itself recorded as a ``trace.count`` span, so self times still add
up to the root span's duration.
"""

from __future__ import annotations

import importlib
import math
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterator

import ripscollapse

ROOT = "pipeline"

Counts = defaultdict[str, float]  # metric name -> value, for one pipeline call


class Tracer:
    """Spans and counts of a sequence of pipeline calls, kept in memory."""

    def __init__(self) -> None:
        # [name, start, end, parent index, call id]; a call's spans are contiguous
        self.spans: list[list] = []
        self.bounds: list[tuple[int, int]] = []
        self.counts: list[Counts] = []
        self.stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, len(self.bounds)])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    def call(self, fn: Callable, *args, **kwargs):
        """Run one pipeline call under a root span and return its result."""
        first = len(self.spans)
        self.counts.append(defaultdict(float))
        idx = self.open(ROOT)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)
            self.bounds.append((first, len(self.spans)))

    def self_times(self, call: int) -> dict[str, float]:
        """Self time per span name, summed over one call."""
        out: dict[str, float] = defaultdict(float)
        lo, hi = self.bounds[call]
        for name, start, end, parent, _ in self.spans[lo:hi]:
            out[name] += end - start
            if parent >= 0:
                out[self.spans[parent][0]] -= end - start
        return out

    def root_duration(self, call: int) -> float:
        _, start, end, _, _ = self.spans[self.bounds[call][0]]
        return end - start


# -- counts read at the layer boundaries -------------------------------------


def _cliques(c: Counts, args, result) -> None:
    c["rips.edges"] += sum(a.bit_count() for a in args[0]) // 2
    c["rips.maximal_before"] += len(result)


def _core(c: Counts, args, result) -> None:
    trace = result.trace
    c["collapse.candidate_tests"] += trace.row_candidate_tests + trace.col_candidate_tests
    c["collapse.removals"] += len(trace.events)
    c["collapse.maximal_before"] += len(args[0].column_ids)
    c["collapse.vertices_after"] += len(result.matrix.vertex_ids)
    c["collapse.maximal_after"] += len(result.matrix.column_ids)


def _assemble(c: Counts, args, result) -> None:
    for op in result.ops:
        if isinstance(op, ripscollapse.Include):
            c["tower.ops_include"] += 1
        elif isinstance(op, ripscollapse.Contract):
            c["tower.ops_contract"] += 1


def _to_filtration(c: Counts, args, result) -> None:
    c["tower.cells"] += len(result)


def _expand(c: Counts, args, result) -> None:
    c["complexes.expanded_cells"] += len(result)


def _boundary(c: Counts, args, result) -> None:
    per_dim: dict[int, int] = defaultdict(int)
    for s, _ in result.cells:
        per_dim[len(s) - 1] += 1
    top = max(per_dim, default=0)
    c["persistence.cells"] += len(result.cells)
    c["persistence.max_dim"] = max(c["persistence.max_dim"], top)
    c["persistence.block_bytes"] += sum(
        per_dim[p] * ((per_dim[p - 1] + 63) // 64) * 8 for p in range(1, top + 1)
    )


def _diagram(c: Counts, args, result) -> None:
    for _, birth, death in result.pairs:
        if math.isinf(death):
            c["persistence.essential"] += 1
        elif death > birth:
            c["persistence.pairs_real"] += 1


# span name, module, attribute ("Class.method" for methods), count extractor
TARGETS = (
    ("rips.snapshot", "ripscollapse.rips", "rips_snapshot", None),
    ("rips.cliques", "ripscollapse.rips", "maximal_cliques", _cliques),
    ("complexes.build", "ripscollapse.complexes", "ComplexMatrix.from_simplex_list", None),
    ("complexes.expand", "ripscollapse.complexes", "ComplexMatrix.expand_all_simplices", _expand),
    ("collapse.core", "ripscollapse.collapse", "core", _core),
    ("kernels.collapse", "ripscollapse.collapse", "collapse_kernel", None),
    ("tower.assemble", "ripscollapse.tower", "assemble_core_tower", _assemble),
    ("tower.to_filtration", "ripscollapse.tower", "tower_to_filtration", _to_filtration),
    ("persistence.snapshot_filtration", "ripscollapse.persistence", "filtration_from_snapshots", None),
    ("persistence.boundary", "ripscollapse.persistence", "BoundaryMatrix.from_filtration", _boundary),
    ("persistence.reduce", "ripscollapse.persistence", "compute_persistence", _diagram),
    ("kernels.reduce_block", "ripscollapse.persistence", "reduce_block", None),
    ("persistence.bottleneck", "ripscollapse.persistence", "bottleneck_distance", None),
    ("pipeline", "ripscollapse.pipeline", "run_pipeline", None),
)


def _wrap(tracer: Tracer, name: str, fn: Callable, extract: Callable | None) -> Callable:
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if extract is not None:
            idx = tracer.open("trace.count")
            try:
                extract(tracer.counts[-1], args, result)
            finally:
                tracer.close(idx)
        return result

    return traced


def _patches(tracer: Tracer) -> list[tuple[object, str, object, object]]:
    """(owner, attribute, original, wrapper) for every name to patch."""
    modules = [
        m for key, m in list(sys.modules.items())
        if key == "ripscollapse" or key.startswith("ripscollapse.")
    ]
    out = []
    for name, module_name, attr, extract in TARGETS:
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            continue
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name, None)
            original = vars(cls).get(meth) if cls is not None else None
            if original is None:
                continue
            if isinstance(original, classmethod):
                wrapper = classmethod(_wrap(tracer, name, original.__func__, extract))
            else:
                wrapper = _wrap(tracer, name, original, extract)
            out.append((cls, meth, original, wrapper))
            continue
        original = getattr(owner, attr, None)
        if original is None:
            continue
        wrapper = _wrap(tracer, name, original, extract)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    out.append((m, key, original, wrapper))
    return out


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Trace the layers into *tracer* while the block runs."""
    patches = _patches(tracer)
    try:
        for owner, key, _, wrapper in patches:
            setattr(owner, key, wrapper)
        yield tracer
    finally:
        for owner, key, original, _ in reversed(patches):
            setattr(owner, key, original)


# -- per-layer metrics ---------------------------------------------------------

TIME_METRICS = {
    "rips.snapshot_s": "rips.snapshot",
    "rips.cliques_s": "rips.cliques",
    "complexes.build_s": "complexes.build",
    "complexes.expand_s": "complexes.expand",
    "collapse.core_s": "collapse.core",
    "kernels.collapse_s": "kernels.collapse",
    "tower.assemble_s": "tower.assemble",
    "tower.to_filtration_s": "tower.to_filtration",
    "persistence.snapshot_filtration_s": "persistence.snapshot_filtration",
    "persistence.boundary_s": "persistence.boundary",
    "persistence.reduce_s": "persistence.reduce",
    "kernels.reduce_block_s": "kernels.reduce_block",
    "persistence.bottleneck_s": "persistence.bottleneck",
    "pipeline.self_s": "pipeline",
    "trace.count_s": "trace.count",
}

COUNT_METRICS = (
    "rips.edges",
    "rips.maximal_before",
    "collapse.candidate_tests",
    "collapse.removals",
    "collapse.vertices_after",
    "collapse.maximal_after",
    "tower.ops_include",
    "tower.ops_contract",
    "tower.cells",
    "complexes.expanded_cells",
    "persistence.cells",
    "persistence.max_dim",
    "persistence.pairs_real",
    "persistence.pairs_zero",
    "persistence.block_bytes",
)

RATIO_METRICS = ("collapse.useful_ratio", "collapse.shrink_ratio", "persistence.zero_ratio")


def _share(a: float, b: float) -> float:
    return a / b if b else 0.0


def call_metrics(tracer: Tracer, call: int) -> tuple[dict[str, float], dict[str, float]]:
    """(self times, counts and ratios) of one traced call."""
    selfs = tracer.self_times(call)
    times = {metric: selfs.get(span, 0.0) for metric, span in TIME_METRICS.items()}
    c = tracer.counts[call]
    c["persistence.pairs_zero"] = (
        (c["persistence.cells"] - c["persistence.essential"]) / 2 - c["persistence.pairs_real"]
    )
    counts = {name: c[name] for name in COUNT_METRICS}
    counts["collapse.useful_ratio"] = _share(c["collapse.removals"], c["collapse.candidate_tests"])
    counts["collapse.shrink_ratio"] = _share(c["collapse.maximal_after"], c["collapse.maximal_before"])
    counts["persistence.zero_ratio"] = _share(
        c["persistence.pairs_zero"], c["persistence.pairs_zero"] + c["persistence.pairs_real"]
    )
    return times, counts
