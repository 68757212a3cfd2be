"""Line-oriented text formats for every artifact the pipeline exchanges.

All formats are UTF-8 text; a line whose first non-blank character is ``#``
is a comment (the tower header being the one special ``#`` line).  Floats
are written with ``repr`` so every value round-trips exactly.

- points: one point per line, whitespace-separated coordinates.
- distmat: lower-triangular distance matrix; row ``k`` holds the ``k``
  distances to the earlier points, so the first row is empty.  An optional
  leading line holding a single integer declares the point count.
- complex: one maximal simplex per line, as whitespace-separated vertex ids.
- tower: header ``# tower 1``; then ``i <grade> <v0> ... <vk>`` for an
  inclusion and ``c <grade> <u> <v>`` for a contraction, in replay order.
- diagram: ``<dim> <birth> <death>`` lines, ``inf`` for essential classes.
- filtration: ``<grade> <v0> ... <vk>`` lines in filtration order.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from .complexes import ComplexMatrix
from .errors import FormatError
from .persistence import PersistenceDiagram
from .tower import Contract, Filtration, Include, Tower


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
    if any(math.isnan(v) for v in values):
        raise FormatError("NaN is not a valid value", lineno)
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
        if math.inf in values or -math.inf in values:
            raise FormatError("coordinates must be finite", lineno)
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


def write_points(points: np.ndarray) -> str:
    X = np.asarray(points, dtype=np.float64)
    return "".join(" ".join(_fmt(c) for c in row) + "\n" for row in X)


# -- lower-triangular distance matrix ----------------------------------------


def _distmat_from_rows(rows: list[tuple[int, list[float]]]) -> np.ndarray:
    n = len(rows)
    D = np.zeros((n, n), dtype=np.float64)
    for i, (lineno, values) in enumerate(rows):
        if len(values) != i:
            raise FormatError(f"row should hold {i} distances, got {len(values)}", lineno)
        for j, v in enumerate(values):
            if not math.isfinite(v):
                raise FormatError("distances must be finite", lineno)
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
        n = int(token[0])
        body = rows[1:]
        if len(body) == n:
            return _distmat_from_rows(body)
        if len(body) == n - 1:
            return _distmat_from_rows([(first_lineno, [])] + body)
        raise FormatError(
            f"header declares {n} points but {len(body)} rows follow", first_lineno
        )
    if first:
        # no header and a non-empty first row: the zero-length row 0 was omitted
        rows = [(first_lineno, [])] + rows
    return _distmat_from_rows(rows)


def write_distmat(D: np.ndarray) -> str:
    D = np.asarray(D, dtype=np.float64)
    n = D.shape[0]
    if n == 1:
        # a single point would serialize as one blank line; the explicit
        # count header keeps the file self-describing
        return "1\n"
    return "".join(
        " ".join(_fmt(D[i, j]) for j in range(i)) + "\n" for i in range(n)
    )


# -- complex ------------------------------------------------------------------


def parse_complex(text: str) -> ComplexMatrix:
    simplices = []
    for lineno, line in _data_lines(text):
        simplices.append(tuple(_ints(line.split(), lineno)))
    if not simplices:
        raise FormatError("no simplices found")
    try:
        return ComplexMatrix.from_simplex_list(simplices)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def write_complex(matrix: ComplexMatrix) -> str:
    return "".join(
        " ".join(str(v) for v in verts) + "\n" for _, verts in matrix.columns_sorted()
    )


# -- tower --------------------------------------------------------------------

_TOWER_HEADER = "# tower 1"


def parse_tower(text: str) -> Tower:
    raw_lines = text.splitlines()
    header_seen = False
    ops: list[Union[Include, Contract]] = []
    for lineno, raw in enumerate(raw_lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if not header_seen:
            if line != _TOWER_HEADER:
                raise FormatError(f"expected tower header {_TOWER_HEADER!r}", lineno)
            header_seen = True
            continue
        if line.startswith("#"):
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "i":
            if len(parts) < 3:
                raise FormatError("inclusion needs a grade and at least one vertex", lineno)
            grade = _floats(parts[1:2], lineno)[0]
            ops.append(Include(tuple(sorted(_ints(parts[2:], lineno))), grade))
        elif kind == "c":
            if len(parts) != 4:
                raise FormatError("contraction needs a grade and two vertices", lineno)
            grade = _floats(parts[1:2], lineno)[0]
            u, v = _ints(parts[2:], lineno)
            ops.append(Contract(u, v, grade))
        else:
            raise FormatError(f"unknown tower op {kind!r}", lineno)
    if not header_seen:
        raise FormatError(f"expected tower header {_TOWER_HEADER!r}")
    return Tower(tuple(ops))


def write_tower(tower: Tower) -> str:
    lines = [_TOWER_HEADER]
    for op in tower.ops:
        if isinstance(op, Include):
            lines.append("i " + _fmt(op.grade) + " " + " ".join(str(v) for v in op.simplex))
        else:
            lines.append(f"c {_fmt(op.grade)} {op.source} {op.target}")
    return "\n".join(lines) + "\n"


# -- persistence diagram --------------------------------------------------------


def parse_diagram(text: str) -> PersistenceDiagram:
    pairs = []
    for lineno, line in _data_lines(text):
        parts = line.split()
        if len(parts) != 3:
            raise FormatError("diagram lines hold dim, birth, death", lineno)
        dim = _ints(parts[:1], lineno)[0]
        birth, death = _floats(parts[1:], lineno)
        if dim < 0:
            raise FormatError(f"negative dimension {dim}", lineno)
        if math.isinf(birth):
            raise FormatError("birth must be finite", lineno)
        if death < birth:
            raise FormatError(f"death {death} precedes birth {birth}", lineno)
        pairs.append((dim, birth, death))
    return PersistenceDiagram.from_pairs(pairs)


def write_diagram(diagram: PersistenceDiagram) -> str:
    return "".join(
        f"{dim} {_fmt(birth)} {_fmt(death)}\n" for dim, birth, death in diagram.pairs
    )


# -- filtration -------------------------------------------------------------------


def parse_filtration(text: str) -> Filtration:
    cells = []
    for lineno, line in _data_lines(text):
        parts = line.split()
        if len(parts) < 2:
            raise FormatError("filtration lines hold a grade and vertex ids", lineno)
        grade = _floats(parts[:1], lineno)[0]
        verts = _ints(parts[1:], lineno)
        cells.append((tuple(sorted(verts)), grade))
    filtration = Filtration(tuple(cells))
    filtration.validate()
    return filtration


def write_filtration(filtration: Filtration) -> str:
    return "".join(
        _fmt(grade) + " " + " ".join(str(v) for v in s) + "\n"
        for s, grade in filtration.cells
    )
