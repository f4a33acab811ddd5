"""`momangle products --json` output pinned byte for byte.

The stored files under tests/golden/ hold the stdout of
`products --json --field F` for a few small spheres, a cone, the pyramid
and RP^2 over Q, F_2 and F_3.  The printed coordinates depend on the
exact cocycle representatives the package chooses, so any change to the
field elimination that changes them fails here.  To record the files
again (only when the representatives are meant to change):

    PYTHONPATH=src:tests python tests/test_golden.py
"""

import contextlib
import io
from pathlib import Path

import pytest

from momangle import from_facets
from momangle.cli import main

from helpers import RP2_FACETS

GOLDEN = Path(__file__).resolve().parent / "golden"
FIELDS = ("q", "f2", "f3")

CASES = {
    **{f"polygon{m}": ["--gen", "polygon", str(m)] for m in range(4, 8)},
    **{f"stacked2_{k}": ["--gen", "stacked_sphere", "2", str(k)] for k in range(3)},
    **{f"stacked3_{k}": ["--gen", "stacked_sphere", "3", str(k)] for k in range(2)},
    "cone_polygon5": ["--gen", "cone", "polygon", "5"],
    "pyramid": from_facets(5, [(1, 2, 5), (2, 3, 5), (3, 4, 5), (1, 4, 5)]),
    "rp2": from_facets(6, RP2_FACETS),
}


def _products_stdout(name: str, field: str, tmp_dir: Path) -> str:
    source = CASES[name]
    if not isinstance(source, list):
        path = tmp_dir / f"{name}.json"
        path.write_text(source.to_json())
        source = [str(path)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["products", *source, "--field", field, "--json"])
    assert code == 0, (name, field)
    return out.getvalue()


def _golden_path(name: str, field: str) -> Path:
    return GOLDEN / f"products-{name}-{field}.json"


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_products_match_golden(name, field, tmp_path):
    want = _golden_path(name, field).read_text()
    assert _products_stdout(name, field, tmp_path) == want


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            for field in FIELDS:
                text = _products_stdout(name, field, Path(tmp))
                _golden_path(name, field).write_text(text)
