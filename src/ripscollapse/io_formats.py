"""Line-oriented text formats of the files the command line reads and writes.

All formats are UTF-8 text.  In the files read, a line whose first
non-blank character is ``#`` is a comment, and every number read as a
float must be finite.  Floats are written with ``repr``, so a written grade
or diagram value is the exact double computed.

Read:

- points: one point per line, whitespace-separated coordinates.
- grades: snapshot grades, one or more per line, whitespace-separated.
- distmat: lower-triangular distance matrix; row ``k`` holds the ``k``
  distances to the earlier points, so the first row is empty and may be
  omitted.  An optional leading line holding a single integer declares the
  point count when the rows after it hold 0, 1, ... (or 1, 2, ...) values
  up to one fewer than that count; otherwise it is row 1.
- complex: one simplex per line, as whitespace-separated vertex ids.  It is
  read as a ``dict[int, Simplex]`` of its maximal simplices, numbered in
  order of first appearance; a core is written back one column per line,
  in column id order.

Written:

- tower: header ``# tower 1``; then ``i <grade> <v0> ... <vk>`` for an
  inclusion and ``c <grade> <u> <v>`` for a contraction, in replay order.
- diagram: ``<dim> <birth> <death>`` lines, ``inf`` for essential classes.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .complexes import Simplex, as_simplex, maximal_columns
from .errors import FormatError, SimplexError
from .persistence import PersistenceDiagram
from .tower import ElementaryOp, Include


def _fmt(x: float) -> str:
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return repr(float(x))


def _data_lines(text: str, keep_blank: bool = False) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("#"):
            continue
        if not line and not keep_blank:
            continue
        out.append((lineno, line))
    if keep_blank:
        while out and not out[-1][1]:
            out.pop()
    return out


def _floats(tokens: list[str], lineno: int) -> list[float]:
    values = []
    for tok in tokens:
        try:
            values.append(float(tok))
        except ValueError:
            raise FormatError(f"expected a number, got {tok!r}", lineno) from None
        if not math.isfinite(values[-1]):
            raise FormatError(f"expected a finite number, got {tok!r}", lineno)
    return values


def _ints(tokens: list[str], lineno: int) -> list[int]:
    values = []
    for tok in tokens:
        try:
            values.append(int(tok))
        except ValueError:
            raise FormatError(f"expected an integer vertex id, got {tok!r}", lineno) from None
    return values


# -- points -----------------------------------------------------------------


def parse_points(text: str) -> np.ndarray:
    rows = []
    width = None
    for lineno, line in _data_lines(text):
        values = _floats(line.split(), lineno)
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise FormatError(
                f"expected {width} coordinates, got {len(values)}", lineno
            )
        rows.append(values)
    if not rows:
        raise FormatError("no points found")
    return np.asarray(rows, dtype=np.float64)


# -- grades -------------------------------------------------------------------


def parse_grades(text: str) -> list[float]:
    return [g for lineno, line in _data_lines(text) for g in _floats(line.split(), lineno)]


# -- lower-triangular distance matrix ----------------------------------------


def _distmat_from_rows(rows: list[tuple[int, list[float]]]) -> np.ndarray:
    n = len(rows)
    D = np.zeros((n, n), dtype=np.float64)
    for i, (lineno, values) in enumerate(rows):
        if len(values) != i:
            raise FormatError(f"row should hold {i} distances, got {len(values)}", lineno)
        for j, v in enumerate(values):
            if v < 0:
                raise FormatError(f"negative distance {v}", lineno)
            D[i, j] = v
            D[j, i] = v
    return D


def parse_distmat(text: str) -> np.ndarray:
    lines = _data_lines(text, keep_blank=True)
    if not lines:
        raise FormatError("no distance rows found")
    rows = [(lineno, _floats(line.split(), lineno)) for lineno, line in lines]

    first_lineno, first = rows[0]
    token = lines[0][1].split()
    if len(token) == 1 and token[0].isdigit():
        # a point count only if the rows after it have the lengths it
        # implies; otherwise the line is row 1 holding one integer distance
        body = rows[1:]
        omitted = int(token[0]) - len(body)  # 1 when row 0 is left out
        if omitted in (0, 1) and all(
            len(values) == i + omitted for i, (_, values) in enumerate(body)
        ):
            return _distmat_from_rows([(first_lineno, [])] * omitted + body)
    if first:
        # no header and a non-empty first row: the zero-length row 0 was omitted
        rows = [(first_lineno, [])] + rows
    return _distmat_from_rows(rows)


# -- complex ------------------------------------------------------------------


def parse_complex(text: str) -> dict[int, Simplex]:
    simplices = []
    for lineno, line in _data_lines(text):
        vertices = _ints(line.split(), lineno)
        try:
            simplices.append(as_simplex(vertices))
        except SimplexError as exc:
            raise FormatError(str(exc), lineno) from None
    if not simplices:
        raise FormatError("no simplices found")
    return maximal_columns(simplices)


def write_complex(columns: dict[int, Simplex]) -> str:
    return "".join(" ".join(map(str, columns[c])) + "\n" for c in sorted(columns))


# -- tower --------------------------------------------------------------------

def write_tower(tower: Iterable[ElementaryOp]) -> str:
    lines = ["# tower 1"]
    for op in tower:
        if isinstance(op, Include):
            lines.append("i " + _fmt(op.grade) + " " + " ".join(str(v) for v in op.simplex))
        else:
            lines.append(f"c {_fmt(op.grade)} {op.source} {op.target}")
    return "\n".join(lines) + "\n"


# -- persistence diagram --------------------------------------------------------


def write_diagram(diagram: PersistenceDiagram) -> str:
    return "".join(
        f"{dim} {_fmt(birth)} {_fmt(death)}\n" for dim, birth, death in diagram.pairs
    )
