"""The functions the benchmark traces must keep resolving in momangle.

perfbench/tracing.py wraps each (layer, function) pair of its TRACED
list by name, so a refactor that renames or drops one of them would only
show up when the benchmark runs.  This test fails first.  The same module
checks that no module of the package imports a name it does not use,
that the package imports nothing outside the standard library, and that
every cache the package keeps is bounded.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

from momangle import INT, RAT, hochster, hochster_table, linalg, polygon

from helpers import PACKAGE, package_caches

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced_pairs():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_traced_names_resolve():
    pairs = _traced_pairs()
    assert pairs
    for layer, attr in pairs:
        owner = importlib.import_module(f"momangle.{layer}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
            assert owner is not None, (layer, attr)
        assert callable(owner), (layer, attr)
    # the traced run checks its reduced_homology calls against cache_info()
    assert linalg.reduced_homology.cache_info().maxsize


def _unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(
        (line, name) for name, line in imported.items() if name not in used
    )


def test_no_unused_imports():
    """Every name a module imports is used in it; the package __init__
    only re-exports, so it is exempt."""
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: _unused_imports(p) for p in modules}
    assert not {name: found for name, found in unused.items() if found}


def _absolute_imports(path):
    """Top-level names of the absolute imports of a module; relative
    imports name the package's own modules and are skipped."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.partition(".")[0]


def test_stdlib_only_imports():
    """The package's arithmetic is pure standard library: every module
    imports only sys.stdlib_module_names and momangle itself."""
    allowed = set(sys.stdlib_module_names) | {"momangle"}
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    foreign = {
        p.name: sorted(set(_absolute_imports(p)) - allowed) for p in modules
    }
    assert not {name: found for name, found in foreign.items() if found}


def test_caches_are_bounded(monkeypatch):
    """Every lru_cache of the package that takes arguments has a finite
    maxsize, and the table cache, which the walk and restrict both fill,
    never holds more than TABLE_CACHE_SIZE tables."""
    caches = [
        (module, name, cache.cache_info().maxsize)
        for module, name, cache in package_caches()
        if inspect.signature(cache.__wrapped__).parameters
    ]
    assert {("products", "_relabelled_basis"), ("products", "_listing")} <= {
        c[:2] for c in caches
    }
    assert all(size is not None for *_, size in caches), caches
    monkeypatch.setattr(hochster, "TABLE_CACHE_SIZE", 3)
    monkeypatch.setattr(hochster, "_TABLES", {})
    for m in range(4, 8):
        table = hochster_table(polygon(m), RAT)
        hochster_table(polygon(m), INT).restrict((1 << m) - 2)
        assert len(hochster._TABLES) <= 3
    assert table.complex == polygon(7)
