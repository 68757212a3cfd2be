"""Self-test of the pipeline benchmark.

    python3 perfbench/selftest.py

Runs a tiny version of every workload, traced and untraced, and checks that
each prints every metric ``BENCHMARK.json`` names, with its unit; that the
output checker accepts a correct diagram and rejects one whose death grade
was moved; that span self times add up to the root span; and that tracing
leaves the program as it found it.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import ripscollapse  # noqa: E402

import check  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")


def check_metrics(bench: dict) -> None:
    expect(
        [(w["name"], w["why"]) for w in bench["workloads"]]
        == [(w.name, w.why) for w in workloads.WORKLOADS.values()],
        "BENCHMARK.json workloads match workloads.py",
    )
    for name in workloads.WORKLOADS:
        for traced, key in ((0, "end_to_end"), (1, "per_layer")):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "5",
                 "--seconds", "0.5", "--trace", str(traced), "--tiny"],
                capture_output=True, text=True, timeout=170, cwd=ROOT,
            )
            expect(done.returncode == 0, f"{name} trace={traced} exits 0: {done.stderr}")
            result = json.loads(done.stdout.splitlines()[-1])
            expect(
                sorted(result) == ["attempted", "correct", "failed", "metrics"],
                f"{name} trace={traced} result keys",
            )
            expect(result["correct"] and result["failed"] == 0, f"{name} trace={traced} correct")
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want, f"{name} trace={traced} metrics {sorted(set(got) ^ set(want))}")
            print(f"ok  {name} trace={traced}: {len(got)} metrics")


def check_checker() -> None:
    w = workloads.get("circle-snapshots", tiny=True)
    grades = w.grades()
    D = ripscollapse.pairwise_distances(w.points(0))
    expected = check.single_linkage(D, grades)
    pairs = ripscollapse.run_pipeline(D, grades).diagram.pairs
    expect(not check.problems(pairs, expected), "checker accepts the program's diagram")

    i, (dim, birth, death) = next(
        (i, p) for i, p in enumerate(pairs) if p[0] == 0 and p[2] != float("inf")
    )
    k = grades.index(death)
    moved = grades[k + 1] if k + 1 < len(grades) else grades[k - 1]
    perturbed = pairs[:i] + ((dim, birth, moved),) + pairs[i + 1 :]
    expect(bool(check.problems(perturbed, expected)), "checker rejects a moved death grade")
    expect(
        bool(check.problems(pairs, expected, "0" * 64)), "checker rejects a wrong digest"
    )
    print("ok  checker accepts the diagram and rejects a perturbed one")


def check_tracing() -> None:
    w = workloads.get("oracle-compare", tiny=True)
    D = ripscollapse.pairwise_distances(w.points(0))
    before = {k: v for k, v in vars(ripscollapse.pipeline).items() if callable(v)}
    tracer = spans.Tracer()
    with spans.installed(tracer):
        tracer.call(ripscollapse.compare_pipelines, D, w.grades())
    after = {k: v for k, v in vars(ripscollapse.pipeline).items() if callable(v)}
    expect(before == after, "tracing restores the patched names")

    selfs = tracer.self_times(0)
    root = tracer.root_duration(0)
    expect(abs(sum(selfs.values()) - root) <= 1e-9 * max(root, 1.0), "self times add up to the root")
    expect(all(v >= 0 for v in selfs.values()), "self times are non-negative")
    names = {s[0] for s in tracer.spans}
    expect({"rips.cliques", "collapse.core", "persistence.reduce"} <= names, f"spans recorded: {names}")
    print(f"ok  tracing: {len(tracer.spans)} spans, self times add up to {root:.4f} s")


def main() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_checker()
    check_tracing()
    check_metrics(bench)
    print("selftest passed")


if __name__ == "__main__":
    main()
