"""Source rules for the package: no recursion and no recursion-limit changes,
and a reduction that does not depend on the stages before it.

A recursive function fails with ``RecursionError`` once its input is deep
enough (a clique of 1,100 vertices is), and raising the interpreter's limit
from a library call changes global state.  Every traversal in the package
runs on an explicit stack or queue instead.

``persistence`` reduces any sequence of ``(simplex, grade)`` pairs, so it
imports none of the modules that build them.

A complex is plain data, a dict from column id to vertex tuple, and so is a
retraction: no module defines or names a ``ComplexMatrix`` or
``RetractionMap`` wrapper type.  The Rips path is flag-native: ``rips``, ``tower`` and
``pipeline`` pass cores as cliques and retractions as lists, and name none
of the result types of ``collapse.core``, which ``ripscollapse core`` uses.

A filtration's boundary index has two builders, one per front:
``persistence._keyed``, the key pass that locates the faces of a filtration
given as pairs, and ``persistence._arrays_located``, which reads the index
off the faces that per-dimension vertex arrays carry.  No other function
builds a ``BoundaryMatrix`` itself, and no other module names the
``FiltrationOrderError`` that their checks raise.  Those arrays, a
``CellArrays``, are built only where their faces are known: by the level
join, ``persistence._level_join``, and by ``tower._tower_of``, the join
step of ``tower.assemble_tower``, which renames the join's vertices and
keeps its faces.  Both producers'
filtrations are indexed and reduced through
``compute_persistence``: no other module calls
``BoundaryMatrix.from_filtration`` or ``_diagram``.  One function reduces
the boundary blocks: ``reduce_block`` has one caller.

Both filtrations the pipeline reduces, the collapsed tower's and the
uncollapsed oracle's, are the clique filtration of a graded graph, built
by one level join: ``_level_join`` has one definition, and both ``tower``
and ``pipeline`` call it.

The uncollapsed oracle checks its expansion cap on its last snapshot's
maximal cliques, the collapsed run on those of its tower's graph, and a
snapshot's stats are counted only when read: the pipeline calls
``maximal_cliques`` only in ``SnapshotStats.before``, in the cap check of
``_snapshot_filtration`` and in ``_tower_projection``, and it enumerates a
core's cliques only in ``SnapshotStats.after`` and in the collapsed run's
scan of the cores, when its tower's graph is over the cap.

Modules share private names only through the seams listed in
``PRIVATE_SEAMS``, and every seam listed is used: outside ``__init__``, no
module imports another ``_``-prefixed name from a package module.
"""

import ast
from pathlib import Path

import ripscollapse

SOURCES = sorted(Path(ripscollapse.__file__).parent.glob("*.py"))
PERSISTENCE_MAY_IMPORT = {"_kernels", "complexes", "errors"}
FLAG_NATIVE = ("rips", "tower", "pipeline")
CORE_TYPES = {"CoreResult", "CollapseTrace"}
WRAPPER_TYPES = {"ComplexMatrix", "RetractionMap"}
INDEX_OWNERS = {"persistence", "errors", "__init__"}
# (importing module, imported module, private name)
PRIVATE_SEAMS = {
    ("rips", "collapse", "_bits"),
    ("rips", "collapse", "_retraction"),
    ("tower", "collapse", "_bits"),
    ("tower", "persistence", "_level_join"),
    ("pipeline", "persistence", "_check_cells"),
    ("pipeline", "persistence", "_level_join"),
    ("pipeline", "rips", "_core_cliques"),
    ("pipeline", "rips", "_flag_collapse"),
    ("pipeline", "rips", "_graded_graphs"),
    ("pipeline", "tower", "_tower_graph"),
    ("pipeline", "tower", "_tower_of"),
}
LEVEL_JOIN = "_level_join"


def _self_calls(tree):
    """``(function, line)`` of every call of a function by its own bare name."""
    found = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == fn.name
                ):
                    found.append((fn.name, node.lineno))
    return found


def _recursion_limit_uses(tree):
    """Lines that name ``setrecursionlimit``, as an attribute, a name or an import."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if getattr(node, "attr", None) == "setrecursionlimit"
        or getattr(node, "id", None) == "setrecursionlimit"
        or (
            isinstance(node, ast.ImportFrom)
            and any(a.name == "setrecursionlimit" for a in node.names)
        )
    ]


def _from_module(node):
    """The package module an ``ImportFrom`` imports from (``tower`` for
    ``from .tower import x`` and ``from ripscollapse.tower import x``), ``""``
    for the package itself, or None for a module outside it."""
    parts = (node.module or "").split(".")
    if node.level == 0:
        if parts[0] != "ripscollapse":
            return None
        parts = parts[1:]
    return parts[0] if parts else ""


def _package_imports(tree):
    """Package modules a module imports from, by name, whether the import is
    relative or absolute (``from .tower import Tower``, ``from . import
    tower``, ``import ripscollapse.tower``)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = _from_module(node)
            if module:
                found.add(module)
            elif module is not None:
                found.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            for a in node.names:
                parts = a.name.split(".")
                if parts[0] == "ripscollapse":
                    found.add(parts[1] if len(parts) > 1 else "ripscollapse")
    return found


def _calls(tree, name):
    """Lines that call *name*, bare or as an attribute (``m.BoundaryMatrix(...)``)."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]


def _callers(tree, name):
    """Functions whose bodies call *name*, bare or as an attribute; a
    function that holds a calling function counts too."""
    return [
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and _calls(fn, name)
    ]


def _private_imports(tree):
    """``(module, name)`` of every ``_``-prefixed name imported from a
    package module, relatively or absolutely; a module imported from the
    package itself (``from . import _kernels``) is not a name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (module := _from_module(node)):
            found.update((module, a.name) for a in node.names if a.name.startswith("_"))
    return found


def _names(tree):
    """Identifiers a module defines or names: classes and functions, bare
    names, attributes, imported names and their aliases, and string
    annotations."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            found.add(node.name)
        elif isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
            found.add(node.asname)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def test_rules_see_what_they_forbid():
    tree = ast.parse(
        "import sys\n"
        "from sys import setrecursionlimit\n"
        "def walk(n):\n"
        "    return n and walk(n - 1)\n"
        "class C:\n"
        "    def add(self, x):\n"
        "        super().add(x)\n"
        "        self.cells.add(x)\n"
        "sys.setrecursionlimit(10**5)\n"
    )
    assert _self_calls(tree) == [("walk", 4)]
    assert _recursion_limit_uses(tree) == [2, 9]
    tree = ast.parse(
        "import math\n"
        "import ripscollapse.rips\n"
        "from numpy import asarray\n"
        "from .errors import FiltrationOrderError\n"
        "from . import tower\n"
        "from ripscollapse.pipeline import run_pipeline\n"
        "from ripscollapse import collapse\n"
    )
    assert _package_imports(tree) == {"rips", "errors", "tower", "pipeline", "collapse"}
    tree = ast.parse(
        "from .collapse import CoreResult as Result\n"
        "def f(m: 'ComplexMatrix') -> None:\n"
        "    return collapse.RetractionMap(m)\n"
        "x: 'CollapseTrace'\n"
    )
    assert _names(tree) >= CORE_TYPES | WRAPPER_TYPES
    tree = ast.parse(
        "class ComplexMatrix:\n"
        "    pass\n"
        "from ripscollapse.collapse import RetractionMap\n"
    )
    assert _names(tree) >= WRAPPER_TYPES
    tree = ast.parse(
        "from .errors import FiltrationOrderError as E\n"
        "a = BoundaryMatrix(cells, by_dim, columns)\n"
        "b = persistence.BoundaryMatrix(cells, by_dim, columns)\n"
        "c = BoundaryMatrix.from_filtration(cells)\n"
        "d = persistence._diagram(c)\n"
    )
    assert "FiltrationOrderError" in _names(tree)
    assert "FiltrationOrderError" in _names(ast.parse("raise errors.FiltrationOrderError('x', 0)"))
    assert _calls(tree, "BoundaryMatrix") == [2, 3]
    assert (_calls(tree, "from_filtration"), _calls(tree, "_diagram")) == ([4], [5])
    tree = ast.parse(
        "from .persistence import _diagram, compute_persistence\n"
        "from ripscollapse.collapse import _bits as bits\n"
        "from ._kernels import reduce_block\n"
        "from . import _kernels\n"
        "from numpy import _private\n"
        "def a(block):\n"
        "    return reduce_block(block)\n"
        "def b(block):\n"
        "    def inner():\n"
        "        return _kernels.reduce_block(block)\n"
        "    return inner()\n"
    )
    assert _private_imports(tree) == {("persistence", "_diagram"), ("collapse", "_bits")}
    assert _callers(tree, "reduce_block") == ["a", "b", "inner"]
    tree = ast.parse(
        "def _keyed(cells):\n"
        "    return BoundaryMatrix(cells, (), (), ())\n"
        "def _scan(cells):\n"
        "    return persistence.BoundaryMatrix(cells, (), (), ())\n"
        "def from_filtration(cells):\n"
        "    return BoundaryMatrix.from_filtration(cells)\n"
    )
    assert _callers(tree, "BoundaryMatrix") == ["_keyed", "_scan"]
    assert _definitions(tree, "_keyed") == [1] and _definitions(tree, "BoundaryMatrix") == []


def test_package_has_no_recursion():
    assert len(SOURCES) > 5
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        assert _self_calls(tree) == [], path.name
        assert _recursion_limit_uses(tree) == [], path.name


def test_persistence_imports_none_of_the_producers():
    path = Path(ripscollapse.__file__).parent / "persistence.py"
    imported = _package_imports(ast.parse(path.read_text(), filename=str(path)))
    assert imported <= PERSISTENCE_MAY_IMPORT, imported - PERSISTENCE_MAY_IMPORT


def test_no_module_defines_or_names_the_complex_wrappers():
    for path in SOURCES:
        named = _names(ast.parse(path.read_text(), filename=str(path))) & WRAPPER_TYPES
        assert not named, (path.name, named)


def test_flag_native_modules_name_no_matrix_types():
    for name in FLAG_NATIVE:
        path = Path(ripscollapse.__file__).parent / f"{name}.py"
        named = _names(ast.parse(path.read_text(), filename=str(path))) & CORE_TYPES
        assert not named, (name, named)


def test_only_persistence_builds_and_checks_the_boundary_index():
    assert {"tower", "pipeline"} <= {path.stem for path in SOURCES}
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        if path.stem == "persistence":
            assert _callers(tree, "BoundaryMatrix") == ["_arrays_located", "_keyed"]
        if path.stem in INDEX_OWNERS:
            continue
        assert "FiltrationOrderError" not in _names(tree), path.name
        assert _calls(tree, "BoundaryMatrix") == [], path.name


def test_only_the_join_and_the_tower_build_cell_arrays():
    callers = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        callers.extend((path.stem, fn) for fn in _callers(tree, "CellArrays"))
    assert sorted(callers) == [("persistence", "_level_join"), ("tower", "_tower_of")]


def test_private_names_cross_only_the_listed_seams():
    seen = set()
    for path in SOURCES:
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        seen.update((path.stem, module, name) for module, name in _private_imports(tree))
    assert seen == PRIVATE_SEAMS, (seen - PRIVATE_SEAMS, PRIVATE_SEAMS - seen)


def _definitions(tree, name):
    """Lines that define a function or class called *name*."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name == name
    ]


def test_one_level_join_builds_both_filtrations():
    defined, callers = [], set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        defined.extend(path.stem for _ in _definitions(tree, LEVEL_JOIN))
        if _calls(tree, LEVEL_JOIN):
            callers.add(path.stem)
    assert len(defined) == 1, defined
    assert {"tower", "pipeline"} <= callers, callers


def test_only_compute_persistence_indexes_and_reduces_a_filtration():
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        if path.stem == "persistence":
            assert _callers(tree, "_diagram") == ["compute_persistence"]
        else:
            assert _calls(tree, "from_filtration") == [], path.name
            assert _calls(tree, "_diagram") == [], path.name


def test_one_function_reduces_the_blocks():
    callers = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        callers.extend((path.stem, fn) for fn in _callers(tree, "reduce_block"))
    assert callers == [("persistence", "_diagram")]


def test_pipeline_enumerates_full_snapshots_only_for_stats_and_the_cap():
    path = Path(ripscollapse.__file__).parent / "pipeline.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert sorted(_callers(tree, "maximal_cliques")) == [
        "_snapshot_filtration",
        "_tower_projection",
        "before",
    ]
    assert len(_calls(tree, "maximal_cliques")) == 4
    assert sorted(_callers(tree, "_core_cliques")) == ["_collapsed", "after"]
    assert len(_calls(tree, "_core_cliques")) == 2
