"""Time one set-up of the pipeline in a fresh interpreter.

Reads a point cloud from standard input, one point per line, then times
``import ripscollapse`` (NumPy included) plus ``pairwise_distances`` and
``validate_distance_matrix`` on the cloud, and prints the seconds.

    python3 perfbench/setup_probe.py < points.txt
"""

import sys
import time
from pathlib import Path


def main() -> None:
    points = [tuple(float(x) for x in line.split()) for line in sys.stdin if line.strip()]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    t0 = time.perf_counter()
    import ripscollapse

    D = ripscollapse.pairwise_distances(points)
    ripscollapse.validate_distance_matrix(D)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
