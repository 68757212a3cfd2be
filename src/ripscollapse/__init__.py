"""Strong-collapse acceleration for persistent homology of Rips snapshots.

The library represents simplicial complexes by their maximal simplices,
collapses each Rips snapshot to its core, assembles the cores into a tower
of inclusions and vertex contractions together with an equivalent
filtration, and reduces that filtration to a persistence diagram.  An
uncollapsed twin of the pipeline serves as the verification oracle.
"""

from .collapse import (
    CollapseTrace,
    CoreResult,
    RetractionMap,
    core,
    trace_to_text,
)
from .complexes import (
    DEFAULT_EXPANSION_CAP,
    ComplexMatrix,
    ComplexStats,
    Simplex,
    as_simplex,
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
    oracle_pipeline,
    run_pipeline,
    stats_to_csv,
)
from .rips import (
    SnapshotSchedule,
    as_grades,
    count_rips_simplices,
    flag_core,
    maximal_cliques,
    neighborhood_bitsets,
    pairwise_distances,
    rips_snapshot,
    validate_distance_matrix,
)
from .tower import (
    Contract,
    ElementaryOp,
    Filtration,
    Include,
    Tower,
    assemble_tower_filtration,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryMatrix",
    "CollapseConsistencyError",
    "CollapseTrace",
    "CompareReport",
    "ComplexMatrix",
    "ComplexStats",
    "Contract",
    "CoreResult",
    "DEFAULT_EXPANSION_CAP",
    "DimensionVerdict",
    "ElementaryOp",
    "EmptyComplexError",
    "ExpansionCapError",
    "Filtration",
    "FiltrationOrderError",
    "FormatError",
    "Include",
    "PersistenceDiagram",
    "PipelineResult",
    "PipelineTimings",
    "ReductionMemoryError",
    "RetractionMap",
    "RipsCollapseError",
    "Simplex",
    "SimplexError",
    "SnapshotSchedule",
    "SnapshotStats",
    "Tower",
    "as_grades",
    "as_simplex",
    "assemble_tower_filtration",
    "bottleneck_distance",
    "compare_pipelines",
    "compute_persistence",
    "core",
    "count_rips_simplices",
    "flag_core",
    "maximal_cliques",
    "neighborhood_bitsets",
    "oracle_pipeline",
    "pairwise_distances",
    "rips_snapshot",
    "run_pipeline",
    "stats_to_csv",
    "trace_to_text",
    "validate_distance_matrix",
]
