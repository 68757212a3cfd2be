"""Strong-collapse acceleration for persistent homology of Rips snapshots.

The library represents simplicial complexes by their maximal simplices,
collapses each Rips snapshot to its core, assembles the cores into a tower
of inclusions and vertex contractions whose cells are an equivalent
filtration, and reduces that filtration to a persistence diagram.  An
uncollapsed twin of the pipeline serves as the verification oracle.
"""

from .collapse import (
    CollapseTrace,
    CoreResult,
    core,
    trace_to_text,
)
from .complexes import (
    DEFAULT_EXPANSION_CAP,
    ComplexStats,
    Simplex,
    as_simplex,
    maximal_columns,
)
from .errors import (
    CollapseConsistencyError,
    EmptyComplexError,
    ExpansionCapError,
    FiltrationOrderError,
    FormatError,
    ReductionMemoryError,
    RipsCollapseError,
    SimplexError,
)
from .persistence import (
    BoundaryMatrix,
    PersistenceDiagram,
    bottleneck_distance,
    compute_persistence,
)
from .pipeline import (
    CompareReport,
    DimensionVerdict,
    PipelineResult,
    PipelineTimings,
    SnapshotStats,
    compare_pipelines,
    run_pipeline,
    stats_to_csv,
)
from .rips import (
    SnapshotSchedule,
    as_grades,
    flag_core,
    graded_bitsets,
    maximal_cliques,
    pairwise_distances,
    validate_distance_matrix,
)
from .tower import (
    Contract,
    ElementaryOp,
    Include,
    Tower,
    assemble_tower,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryMatrix",
    "CollapseConsistencyError",
    "CollapseTrace",
    "CompareReport",
    "ComplexStats",
    "Contract",
    "CoreResult",
    "DEFAULT_EXPANSION_CAP",
    "DimensionVerdict",
    "ElementaryOp",
    "EmptyComplexError",
    "ExpansionCapError",
    "FiltrationOrderError",
    "FormatError",
    "Include",
    "PersistenceDiagram",
    "PipelineResult",
    "PipelineTimings",
    "ReductionMemoryError",
    "RipsCollapseError",
    "Simplex",
    "SimplexError",
    "SnapshotSchedule",
    "SnapshotStats",
    "Tower",
    "as_grades",
    "as_simplex",
    "assemble_tower",
    "bottleneck_distance",
    "compare_pipelines",
    "compute_persistence",
    "core",
    "flag_core",
    "graded_bitsets",
    "maximal_cliques",
    "maximal_columns",
    "pairwise_distances",
    "run_pipeline",
    "stats_to_csv",
    "trace_to_text",
    "validate_distance_matrix",
]
