"""The functions the benchmark traces must keep resolving in momangle.

perfbench/tracing.py wraps each (layer, function) pair of its TRACED
list by name, so a refactor that renames or drops one of them would only
show up when the benchmark runs.  This test fails first.  The same module checks that no module of the
package imports a name it does not use.
"""

import ast
import importlib.util
from pathlib import Path

from momangle import linalg

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


PACKAGE = Path(__file__).resolve().parents[1] / "src" / "momangle"


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
