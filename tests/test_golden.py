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

The largest walked inputs, `polygon 14`, `stacked_sphere 2 9` and
`stacked_sphere 2 13`, have `hochster --json` over Z stored as well, in
a case list of their own, beside `boundary_simplex 13`: its one subset
the walk cannot settle from smaller ones is K itself, with 16,382
nonempty faces, the largest complex whose homology the walk computes.
The join of two pentagons, a 3-sphere, is stored there too: its full
subcomplexes carry homology in degrees 0 to 3, not only in the degrees
0 and 1 of a graph.

And they hold `verify thm1.1|thm1.2|thm4.2 --json` and `mng --json`,
the theorem checks and the minimally non-Golod verdict.  These commands
exit 1 on some cases (a hypothesis not met, a complex that is not
minimally non-Golod), so their exit code is part of the file name:
`verify-thm1.1-cone_polygon5-exit1.json`.  `analyze --json`, the whole
report (Betti numbers, core, Golod and minimally non-Golod verdicts with
their witnesses, Gorenstein*, recognition), is stored the same way.
`mng --json` on `stacked_sphere 2 9` and `polygon 11`, and `analyze
--json` on `polygon 11`, are stored the same way too: on these the
minimally non-Golod test once searched every vertex deletion.  So is
`gorenstein --json` on `boundary_simplex 13`, whose 16,383 face links
the Gorenstein* test once built one by one.  `mng --json` on
`stacked_sphere 2 11` and `analyze --json` on `stacked_sphere 2 9` are
stored as well: their minimally non-Golod test lists K's component pairs
for the Golod search and reads the candidate deletions off the same
pairs.

To record the files again (only when the outputs are meant to change):

    PYTHONPATH=src:tests python tests/test_golden.py
"""

import contextlib
import io
from pathlib import Path

import pytest

from momangle import from_facets
from momangle.cli import main

from helpers import RP2_FACETS, RP2_STELLAR_FACETS

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

# the largest walks, 2^17, 2^14 and 2^13 subsets, the largest complex
# the walk computes homology of, and a 3-sphere whose subsets carry
# homology in degrees 0 to 3: pinned by hochster over Z only
LARGE_CASES = {
    "polygon14": ["--gen", "polygon", "14"],
    "stacked2_9": ["--gen", "stacked_sphere", "2", "9"],
    "stacked2_13": ["--gen", "stacked_sphere", "2", "13"],
    "boundary_simplex13": ["--gen", "boundary_simplex", "13"],
    "join_polygon5_polygon5": ["--gen", "join", "polygon", "5", "polygon", "5"],
}

# inputs of LARGE_VERDICTS alone
VERDICT_CASES = {
    "polygon11": ["--gen", "polygon", "11"],
    "stacked2_11": ["--gen", "stacked_sphere", "2", "11"],
}

# commands without --field whose exit code is recorded with the output
VERDICTS = {
    "verify-thm1.1": ["verify", "thm1.1"],
    "verify-thm1.2": ["verify", "thm1.2"],
    "verify-thm4.2": ["verify", "thm4.2"],
    "mng": ["mng"],
    "analyze": ["analyze"],
}

# commands of LARGE_VERDICTS alone
LARGE_COMMANDS = {**VERDICTS, "gorenstein": ["gorenstein"]}

# (verdict, case) pairs on which every vertex deletion used to be
# searched, the Gorenstein* test on the boundary of the 13-simplex,
# whose 16,383 face links it once built one by one, and two stacked
# spheres whose Golod search and deletion candidates read one pair
# listing; pinned like VERDICTS
LARGE_VERDICTS = [
    ("mng", "stacked2_9"),
    ("mng", "polygon11"),
    ("analyze", "polygon11"),
    ("gorenstein", "boundary_simplex13"),
    ("mng", "stacked2_11"),
    ("analyze", "stacked2_9"),
]

# text-mode.txt: each command variant on each case, then gen
TEXT_CASES = {
    "polygon5": ["--gen", "polygon", "5"],
    "cone_polygon4": ["--gen", "cone", "polygon", "4"],
    "stacked2_3": ["--gen", "stacked_sphere", "2", "3"],
    "rp2": CASES["rp2"],
    "rp2_stellar": from_facets(7, RP2_STELLAR_FACETS),
    "disjoint_points3": ["--gen", "disjoint_points", "3"],
}
TEXT_COMMANDS = [
    ["hochster"],
    ["betti-zk"],
    ["betti-rk"],
    *(["products", "--field", field] for field in FIELDS["products"]),
    ["golod"],
    ["mng"],
    ["core"],
    ["gorenstein"],
    ["recognize"],
    *(["verify", theorem] for theorem in ("thm1.1", "thm1.2", "thm4.2")),
    ["analyze"],
]
TEXT_GEN = [["gen", "polygon", "5"], ["gen", "cone", "polygon", "4"]]
TEXT_GOLDEN = GOLDEN / "text-mode.txt"

RUNS = [
    (command, name, field)
    for command, fields in FIELDS.items()
    for name in sorted(CASES)
    for field in fields
] + [("hochster", name, "int") for name in sorted(LARGE_CASES)]


def _main(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _run(
    argv: list[str], name: str, tmp_dir: Path, emit: tuple = ("--json",)
) -> tuple[int, str]:
    source = (CASES | LARGE_CASES | VERDICT_CASES | TEXT_CASES)[name]
    if not isinstance(source, list):
        path = tmp_dir / f"{name}.json"
        path.write_text(source.to_json())
        source = [str(path)]
    return _main([*argv, *source, *emit])


def _text_transcript(tmp_dir: Path) -> str:
    """One block per text-mode run: the command, its stdout, its exit code."""
    runs = [
        (f"{' '.join(argv)} {name}", _run(argv, name, tmp_dir, emit=()))
        for name in TEXT_CASES
        for argv in TEXT_COMMANDS
    ] + [(" ".join(argv), _main(argv)) for argv in TEXT_GEN]
    return "".join(
        f"$ momangle {command}\n{out}[exit {code}]\n\n"
        for command, (code, out) in runs
    )


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


@pytest.mark.parametrize("verdict, name", LARGE_VERDICTS)
def test_large_verdicts_match_golden(verdict, name, tmp_path):
    (path,) = GOLDEN.glob(f"{verdict}-{name}-exit*.json")
    want = int(path.stem.rpartition("exit")[2]), path.read_text()
    assert _run(LARGE_COMMANDS[verdict], name, tmp_path) == want


def test_text_output_matches_golden(tmp_path):
    assert _text_transcript(tmp_path) == TEXT_GOLDEN.read_text()


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for command, name, field in RUNS:
            text = _stdout(command, name, field, Path(tmp))
            _golden_path(command, name, field).write_text(text)
        verdicts = [(v, name) for v in VERDICTS for name in CASES]
        for verdict, name in verdicts + LARGE_VERDICTS:
            for old in GOLDEN.glob(f"{verdict}-{name}-exit*.json"):
                old.unlink()
            code, text = _run(LARGE_COMMANDS[verdict], name, Path(tmp))
            (GOLDEN / f"{verdict}-{name}-exit{code}.json").write_text(text)
        TEXT_GOLDEN.write_text(_text_transcript(Path(tmp)))
