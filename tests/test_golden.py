"""CLI JSON output pinned byte for byte.

The stored files under tests/golden/ hold the stdout of
`products --json --field F` for a few small spheres, a cone, the pyramid
and RP^2 over Q, F_2 and F_3.  The printed coordinates depend on the
exact cocycle representatives the package chooses, so any change to the
field elimination that changes them fails here.

They also hold `betti-zk --json` and `betti-rk --json` over Z, Q, F_2
and F_3 for the same complexes, the Betti numbers of Z_K and R_K read
off the Hochster table.  The files were recorded from the cellular Z_K
and R_K, so they also pin the table to them.  RP^2 carries a Z/2 that
the field answers must shift by one degree over F_2 only.

And they hold `hochster --json` over the same four coefficient systems:
the Betti numbers, bigraded ranks and torsion primes read off the
subset walk, so any change to how the walk settles a subset that moves
a rank or a torsion prime fails here.

The two largest walked inputs, `polygon 14` and `stacked_sphere 2 9`,
have `hochster --json` over Z stored as well, in a case list of their
own.

And they hold `verify thm1.1|thm1.2|thm4.2 --json` and `mng --json`,
the theorem checks and the minimally non-Golod verdict.  These commands
exit 1 on some cases (a hypothesis not met, a complex that is not
minimally non-Golod), so their exit code is part of the file name:
`verify-thm1.1-cone_polygon5-exit1.json`.  `analyze --json`, the whole
report (Betti numbers, core, Golod and minimally non-Golod verdicts with
their witnesses, Gorenstein*, recognition), is stored the same way.

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
    "hochster": ("int", "q", "f2", "f3"),
}

CASES = {
    **{f"polygon{m}": ["--gen", "polygon", str(m)] for m in range(4, 8)},
    **{f"stacked2_{k}": ["--gen", "stacked_sphere", "2", str(k)] for k in range(3)},
    **{f"stacked3_{k}": ["--gen", "stacked_sphere", "3", str(k)] for k in range(2)},
    "cone_polygon5": ["--gen", "cone", "polygon", "5"],
    "pyramid": from_facets(5, [(1, 2, 5), (2, 3, 5), (3, 4, 5), (1, 4, 5)]),
    "rp2": from_facets(6, RP2_FACETS),
}

# the two largest walks, 2^14 and 2^13 subsets: pinned by hochster over Z only
LARGE_CASES = {
    "polygon14": ["--gen", "polygon", "14"],
    "stacked2_9": ["--gen", "stacked_sphere", "2", "9"],
}

# commands without --field whose exit code is recorded with the output
VERDICTS = {
    "verify-thm1.1": ["verify", "thm1.1"],
    "verify-thm1.2": ["verify", "thm1.2"],
    "verify-thm4.2": ["verify", "thm4.2"],
    "mng": ["mng"],
    "analyze": ["analyze"],
}

RUNS = [
    (command, name, field)
    for command, fields in FIELDS.items()
    for name in sorted(CASES)
    for field in fields
] + [("hochster", name, "int") for name in sorted(LARGE_CASES)]


def _run(argv: list[str], name: str, tmp_dir: Path) -> tuple[int, str]:
    source = (CASES | LARGE_CASES)[name]
    if not isinstance(source, list):
        path = tmp_dir / f"{name}.json"
        path.write_text(source.to_json())
        source = [str(path)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*argv, *source, "--json"])
    return code, out.getvalue()


def _stdout(command: str, name: str, field: str, tmp_dir: Path) -> str:
    code, text = _run([command, "--field", field], name, tmp_dir)
    assert code == 0, (command, name, field)
    return text


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


@pytest.mark.parametrize("field", FIELDS["hochster"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_hochster_match_golden(name, field, tmp_path):
    want = _golden_path("hochster", name, field).read_text()
    assert _stdout("hochster", name, field, tmp_path) == want


@pytest.mark.parametrize("name", sorted(LARGE_CASES))
def test_large_hochster_match_golden(name, tmp_path):
    want = _golden_path("hochster", name, "int").read_text()
    assert _stdout("hochster", name, "int", tmp_path) == want


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("verdict", sorted(VERDICTS))
def test_verdicts_match_golden(verdict, name, tmp_path):
    (path,) = GOLDEN.glob(f"{verdict}-{name}-exit*.json")
    want = int(path.stem.rpartition("exit")[2]), path.read_text()
    assert _run(VERDICTS[verdict], name, tmp_path) == want


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for command, name, field in RUNS:
            text = _stdout(command, name, field, Path(tmp))
            _golden_path(command, name, field).write_text(text)
        for verdict, argv in VERDICTS.items():
            for name in CASES:
                for old in GOLDEN.glob(f"{verdict}-{name}-exit*.json"):
                    old.unlink()
                code, text = _run(argv, name, Path(tmp))
                (GOLDEN / f"{verdict}-{name}-exit{code}.json").write_text(text)
