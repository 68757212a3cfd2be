"""Command-line front end.

Subcommands:

- ``core``: collapse a single complex to its core.
- ``pipeline``: run the snapshot pipeline on a point cloud or distance
  matrix, writing the persistence diagram (stdout by default) and, on
  request, the tower, and per-snapshot statistics as CSV.
- ``compare``: run the collapsed and uncollapsed pipelines and report
  per-dimension equality and bottleneck distances.

Exit codes: 0 success, 1 usage error, 2 data error, 3 size bound exceeded
(expansion cap or reduction memory guard).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .collapse import core as collapse_core
from .collapse import trace_to_text
from .complexes import DEFAULT_EXPANSION_CAP
from .errors import ExpansionCapError, ReductionMemoryError, RipsCollapseError
from .io_formats import (
    parse_complex,
    parse_distmat,
    parse_grades,
    parse_points,
    write_complex,
    write_diagram,
    write_tower,
)
from .pipeline import compare_pipelines, run_pipeline, stats_to_csv
from .rips import SnapshotSchedule, pairwise_distances

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CAP = 3


class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; this tool reserves 2 for data."""

    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _add_schedule_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--start", type=float, help="first snapshot grade")
    parser.add_argument("--step", type=float, help="grade increment")
    parser.add_argument("--end", type=float, help="last snapshot grade")
    parser.add_argument("--grades", metavar="FILE", help="explicit grade list, one or more per line")


def _resolve_schedule(parser: argparse.ArgumentParser, args: argparse.Namespace):
    triple = (args.start, args.step, args.end)
    if args.grades is not None:
        if any(v is not None for v in triple):
            parser.error("--grades excludes --start/--step/--end")
        return parse_grades(_read_text(args.grades))
    if any(v is None for v in triple):
        parser.error("either --grades or all of --start/--step/--end are required")
    return SnapshotSchedule(args.start, args.step, args.end)


def _load_distances(args: argparse.Namespace):
    text = _read_text(args.input)
    if args.format == "points":
        return pairwise_distances(parse_points(text))
    return parse_distmat(text)  # --format distmat, checked by the pipeline


def _cmd_core(args: argparse.Namespace) -> int:
    result = collapse_core(parse_complex(_read_text(args.input)))
    _write_text(args.out, write_complex(result.columns))
    if args.out_retraction is not None:
        _write_text(args.out_retraction, "".join(f"{v} {w}\n" for v, w in result.retraction.items()))
    if args.out_trace is not None:
        _write_text(args.out_trace, trace_to_text(result.trace))
    return EXIT_OK


def _cmd_pipeline(args: argparse.Namespace) -> int:
    D = _load_distances(args)
    sched = args.schedule
    result = run_pipeline(
        D,
        sched,
        workers=args.workers,
        collapse=not args.no_collapse,
        cap=args.cap,
    )
    _write_text(args.out_pd, write_diagram(result.diagram))
    if args.out_tower is not None:
        _write_text(args.out_tower, write_tower(result.tower))
    if args.out_stats is not None:
        _write_text(args.out_stats, stats_to_csv(result.snapshots))
    t = result.timings
    print(
        f"collapse-max {t.collapse_max:.6f}s assembly {t.assembly:.6f}s "
        f"reduction {t.reduction:.6f}s",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    D = _load_distances(args)
    report = compare_pipelines(
        D, args.schedule, workers=args.workers, cap=args.cap
    )
    for v in report.verdicts:
        word = "equal" if v.equal else "MISMATCH"
        print(f"dim {v.dim}: {word}, bottleneck {v.bottleneck!r}")
    dims = ",".join(str(v.dim) for v in report.verdicts)
    if report.equal:
        print(f"equal in dims {dims}")
        return EXIT_OK
    print(f"diagrams differ (dims {dims})")
    return EXIT_DATA


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="ripscollapse",
        description="Persistent homology of Rips snapshot sequences via strong collapse.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_core = sub.add_parser("core", help="collapse one complex to its core")
    p_core.add_argument("--input", required=True, help="maximal-simplex complex file, - for stdin")
    p_core.add_argument("--out", default=None, help="core complex file (default stdout)")
    p_core.add_argument("--out-retraction", default=None, help="write 'vertex target' lines")
    p_core.add_argument("--out-trace", default=None, help="write the collapse event trace")
    p_core.set_defaults(func=_cmd_core)

    for name, func, help_text in (
        ("pipeline", _cmd_pipeline, "run the snapshot pipeline"),
        ("compare", _cmd_compare, "compare collapsed and uncollapsed diagrams"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", required=True, help="input file, - for stdin")
        p.add_argument(
            "--format",
            choices=("points", "distmat"),
            default="points",
            help="input format (default points)",
        )
        _add_schedule_args(p)
        p.add_argument("--workers", type=int, default=1, help="worker threads (default 1)")
        p.add_argument(
            "--cap",
            type=int,
            default=DEFAULT_EXPANSION_CAP,
            help="expansion cap on the projected cell count",
        )
        if name == "pipeline":
            p.add_argument("--no-collapse", action="store_true", help="skip collapsing (oracle path)")
            p.add_argument("--out-pd", default=None, help="persistence diagram file (default stdout)")
            p.add_argument("--out-tower", default=None, help="tower file")
            p.add_argument("--out-stats", default=None, help="per-snapshot statistics CSV")
        p.set_defaults(func=func)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.func in (_cmd_pipeline, _cmd_compare):
            if args.workers < 1:
                parser.error("--workers must be at least 1")
            if args.cap < 1:
                parser.error("--cap must be at least 1")
            args.schedule = _resolve_schedule(parser, args)
        return args.func(args)
    except ExpansionCapError as exc:
        print(
            f"error: {exc}\nreduce the schedule end, coarsen the step, or raise --cap",
            file=sys.stderr,
        )
        return EXIT_CAP
    except ReductionMemoryError as exc:
        print(
            f"error: {exc}\nreduce the schedule end or coarsen the step",
            file=sys.stderr,
        )
        return EXIT_CAP
    except (RipsCollapseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
