"""Import check of the scripts under ``benchmarks/``.

A script there imports names from ``ripscollapse`` at module level, so a
name removed from the package fails here instead of in the next manual run.
Importing runs none of the benches.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "benchmarks").glob("*.py"))


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.stem for p in SCRIPTS])
def test_benchmark_script_imports(path):
    spec = importlib.util.spec_from_file_location(f"_bench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
