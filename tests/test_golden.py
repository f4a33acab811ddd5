"""CLI JSON output pinned byte for byte.

The stored files under tests/golden/ hold the stdout of
`products --json --field F` for a few small spheres, a cone, the pyramid
and RP^2 over Q, F_2 and F_3.  The printed coordinates depend on the
exact cocycle representatives the package chooses, so any change to the
field elimination that changes them fails here.

They also hold `betti-zk --json` and `betti-rk --json` over Z, Q, F_2
and F_3 for the same complexes, the Betti numbers of the cellular Z_K
and R_K.  RP^2 carries a Z/2 that the field answers must shift by one
degree over F_2 only.

To record the files again (only when the outputs are meant to change):

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
FIELDS = {
    "products": ("q", "f2", "f3"),
    "betti-zk": ("int", "q", "f2", "f3"),
    "betti-rk": ("int", "q", "f2", "f3"),
}

CASES = {
    **{f"polygon{m}": ["--gen", "polygon", str(m)] for m in range(4, 8)},
    **{f"stacked2_{k}": ["--gen", "stacked_sphere", "2", str(k)] for k in range(3)},
    **{f"stacked3_{k}": ["--gen", "stacked_sphere", "3", str(k)] for k in range(2)},
    "cone_polygon5": ["--gen", "cone", "polygon", "5"],
    "pyramid": from_facets(5, [(1, 2, 5), (2, 3, 5), (3, 4, 5), (1, 4, 5)]),
    "rp2": from_facets(6, RP2_FACETS),
}

RUNS = [
    (command, name, field)
    for command, fields in FIELDS.items()
    for name in sorted(CASES)
    for field in fields
]


def _stdout(command: str, name: str, field: str, tmp_dir: Path) -> str:
    source = CASES[name]
    if not isinstance(source, list):
        path = tmp_dir / f"{name}.json"
        path.write_text(source.to_json())
        source = [str(path)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([command, *source, "--field", field, "--json"])
    assert code == 0, (command, name, field)
    return out.getvalue()


def _golden_path(command: str, name: str, field: str) -> Path:
    return GOLDEN / f"{command}-{name}-{field}.json"


@pytest.mark.parametrize("field", FIELDS["products"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_products_match_golden(name, field, tmp_path):
    want = _golden_path("products", name, field).read_text()
    assert _stdout("products", name, field, tmp_path) == want


@pytest.mark.parametrize("field", FIELDS["betti-zk"])
@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("command", ["betti-zk", "betti-rk"])
def test_betti_match_golden(command, name, field, tmp_path):
    want = _golden_path(command, name, field).read_text()
    assert _stdout(command, name, field, tmp_path) == want


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for command, name, field in RUNS:
            text = _stdout(command, name, field, Path(tmp))
            _golden_path(command, name, field).write_text(text)
