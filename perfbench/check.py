"""Output checks of the pipeline benchmark.

Every diagram the program returns is checked against an independent
single-linkage computation: Kruskal over the distance matrix, each edge
snapped to the first grade at or above its length, gives the finite
dimension-0 pairs and the number of essential dimension-0 classes.  On the
pinned clouds the whole diagram must also match a digest recorded from the
program before any optimisation.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_left

import numpy as np

Pair = tuple[int, float, float]

#: sha256 of the full diagram, per (workload, cloud seed), recorded at the
#: commit that introduced the benchmark.  The diagram does not depend on the
#: run seed, which only relabels the points.
REFERENCE_DIGESTS = {
    ("circle-snapshots", 3):
        "46e50cf3f13b1535a9eadb0f8371a69a973180fa1132e9ebeafedec4a4cd249b",
    ("circle-snapshots", 4):
        "00f93dba56757e4404cf7a2ee0bcad83d331131ec5826549f71a65910d7601bc",
    ("torus-tower", 1):
        "148e546a110eb3edebb1a5c33f59041fde98db2d83e36d8fb698a026d1602ac4",
    ("torus-tower", 2):
        "5ab30b225b76b27308419841be1a8862c3cb7eef7f9b55ebf05a7ca3f0be3751",
    ("oracle-compare", 1):
        "b765ddbf6ac08946405dd7aa2ea31d7aa6b3bc4440bc869fb645accb91843177",
    ("oracle-compare", 2):
        "4b4ce76ec70b1898e4cf9fc0a03b082df5cb91231c6785f981823d19fb7bf714",
}


def single_linkage(D: np.ndarray, grades: list[float]) -> tuple[list[tuple[float, float]], int]:
    """Finite dimension-0 pairs and essential count of the snapshot grid."""
    n = D.shape[0]
    iu, ju = np.triu_indices(n, 1)
    lengths = D[iu, ju]
    keep = lengths <= grades[-1]
    order = np.argsort(lengths[keep], kind="stable")
    edges = zip(iu[keep][order].tolist(), ju[keep][order].tolist(), lengths[keep][order].tolist())

    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    pairs = []
    components = n
    for i, j, length in edges:
        a, b = find(i), find(j)
        if a == b:
            continue
        parent[a] = b
        components -= 1
        death = grades[bisect_left(grades, length)]
        if death > grades[0]:
            pairs.append((grades[0], death))
    return sorted(pairs), components


def digest(pairs: tuple[Pair, ...]) -> str:
    text = "".join(f"{d} {b!r} {e!r}\n" for d, b, e in sorted(pairs))
    return hashlib.sha256(text.encode()).hexdigest()


def problems(
    pairs: tuple[Pair, ...],
    expected_dim0: tuple[list[tuple[float, float]], int],
    reference_digest: str | None = None,
) -> list[str]:
    """Why *pairs* is not the right diagram; empty when it is."""
    found = []
    finite = sorted((b, d) for k, b, d in pairs if k == 0 and math.isfinite(d))
    essential = sum(1 for k, _, d in pairs if k == 0 and math.isinf(d))
    want_finite, want_essential = expected_dim0
    if finite != want_finite:
        found.append(
            f"dimension-0 finite pairs differ from single linkage "
            f"({len(finite)} vs {len(want_finite)} pairs)"
        )
    if essential != want_essential:
        found.append(f"{essential} essential dimension-0 classes, expected {want_essential}")
    if reference_digest and digest(pairs) != reference_digest:
        found.append("diagram digest differs from the recorded reference")
    return found
