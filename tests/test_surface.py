"""The functions the benchmark traces must keep resolving in momangle.

perfbench/tracing.py wraps each (layer, function) pair of its TRACED
list by name, so a refactor that renames or drops one of them would only
show up when the benchmark runs.  This test fails first.
"""

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
