"""Exception types shared across the package."""

from __future__ import annotations


class RipsCollapseError(Exception):
    """Base class for errors raised by this package."""


class SimplexError(RipsCollapseError, ValueError):
    """An object that should describe a simplex is malformed."""


class EmptyComplexError(RipsCollapseError, ValueError):
    """A complex would be built from no simplices at all."""

    def __init__(self, message: str = "empty complex: at least one simplex is required") -> None:
        super().__init__(message)


class ExpansionCapError(RipsCollapseError, RuntimeError):
    """A full expansion would exceed the configured cell cap."""

    def __init__(self, projected: int, cap: int) -> None:
        super().__init__(
            f"expansion too large: projected {projected} cells exceeds cap {cap}"
        )
        self.projected = projected
        self.cap = cap


class ReductionMemoryError(RipsCollapseError, RuntimeError):
    """A boundary block of the reduction, packed densely as one bit per face
    and column in 64-bit words, would exceed the memory guard.

    The reduction packs only the columns whose low collides, so the guard
    bounds more than it allocates; it refuses what it refused when every
    column was packed, with the same dimension and byte count."""

    def __init__(self, dim: int, block_bytes: int, limit: int) -> None:
        super().__init__(
            f"boundary block for dimension {dim} needs {block_bytes} bytes, "
            f"over the {limit}-byte memory guard"
        )
        self.dim = dim
        self.block_bytes = block_bytes
        self.limit = limit


class FormatError(RipsCollapseError, ValueError):
    """Input text does not match the expected file format."""

    def __init__(self, message: str, line: int | None = None) -> None:
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class FiltrationOrderError(RipsCollapseError, ValueError):
    """A filtration cell repeats, precedes one of its faces, lowers the
    grade, or has a grade that is not finite."""

    def __init__(self, message: str, cell_index: int) -> None:
        super().__init__(f"{message} (cell index {cell_index})")
        self.cell_index = cell_index


class CollapseConsistencyError(RipsCollapseError, RuntimeError):
    """A retraction map failed to be simplicial; indicates a collapse bug."""
