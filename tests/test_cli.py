import io
import json
import subprocess
import sys
from math import comb

import pytest

from momangle import disjoint_points, from_facets, hochster_table, polygon
from momangle.cli import _parser, main

PYRAMID_JSON = from_facets(
    5, [(1, 2, 5), (2, 3, 5), (3, 4, 5), (1, 4, 5)]
).to_json()


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- building complexes --------------------------------------------------


def test_gen_prints_json(capsys):
    code, out, _ = run(capsys, "gen", "polygon", "4")
    assert code == 0
    assert json.loads(out) == {
        "vertices": 4,
        "facets": [[1, 2], [1, 4], [2, 3], [3, 4]],
    }


def test_gen_nested(capsys):
    code, out, _ = run(capsys, "gen", "cone", "polygon", "4")
    assert code == 0
    assert json.loads(out)["vertices"] == 5
    code, out, _ = run(capsys, "gen", "join", "simplex", "0", "simplex", "0")
    assert code == 0
    assert json.loads(out) == {"vertices": 2, "facets": [[1, 2]]}


def test_gen_errors(capsys):
    code, _, err = run(capsys, "gen", "torus", "3")
    assert code == 2 and "unknown family" in err
    code, _, err = run(capsys, "gen", "polygon")
    assert code == 2
    code, _, err = run(capsys, "gen", "polygon", "x")
    assert code == 2
    code, _, err = run(capsys, "gen", "polygon", "4", "7")
    assert code == 2 and "unused" in err


def test_gen_past_the_vertex_cap(capsys):
    code, out, err = run(capsys, "gen", "stacked_sphere", "2", "30")
    assert code == 3 and "exceeds" in err and not out
    code, out, err = run(
        capsys, "gen", "join", "polygon", "13", "polygon", "13"
    )
    assert code == 3 and "exceeds" in err and not out


@pytest.mark.parametrize(
    "tokens",
    [
        ["cone"] * 3000 + ["polygon", "4"],
        ["join", "simplex", "-1"] * 2000 + ["simplex", "-1"],
    ],
    ids=["cones", "joins"],
)
def test_gen_nested_too_deeply(capsys, tokens):
    for argv in (["gen", *tokens], ["hochster", "--gen", *tokens]):
        code, out, err = run(capsys, *argv)
        assert code in (2, 3) and err.startswith("error:") and not out


def test_input_from_file(tmp_path, capsys):
    path = tmp_path / "k.json"
    path.write_text(PYRAMID_JSON)
    code, out, _ = run(capsys, "core", str(path))
    assert code == 0
    assert "cone vertices: 5" in out


def test_input_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(PYRAMID_JSON))
    code, out, _ = run(capsys, "hochster", "-")
    assert code == 0
    assert "betti: 1 0 0 2 0 0 1 0 0" in out


def test_input_errors(capsys, tmp_path):
    code, _, err = run(capsys, "hochster", str(tmp_path / "missing.json"))
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    code, _, err = run(capsys, "hochster", str(bad))
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "hochster")
    assert code == 2


def test_non_utf8_input_is_bad_input(capsys, tmp_path):
    path = tmp_path / "k.json"
    path.write_bytes(b"\xff\xfe" + PYRAMID_JSON.encode())
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert err.startswith("error:") and "UTF-8" in err
    assert out == ""


def test_deeply_nested_json_is_bad_input(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert err.startswith("error:") and "nested too deeply" in err
    assert out == ""


# -- analysis subcommands --------------------------------------------------


def test_hochster_text_and_json(capsys):
    code, out, _ = run(capsys, "hochster", "--gen", "polygon", "4")
    assert code == 0
    assert "betti: 1 0 0 2 0 0 1" in out
    assert "poincare: 1 + 2*t^3 + t^6" in out
    assert "duality through degree 6: ok" in out
    code, out, _ = run(capsys, "hochster", "--gen", "polygon", "4", "--json")
    data = json.loads(out)
    assert data["betti"] == [1, 0, 0, 2, 0, 0, 1]


def test_hochster_field_flag(capsys):
    code, out, _ = run(
        capsys, "hochster", "--gen", "polygon", "4", "--field", "f2"
    )
    assert code == 0
    code, _, err = run(
        capsys, "hochster", "--gen", "polygon", "4", "--field", "f6"
    )
    assert code == 2
    huge = "f" + str(2**127 - 1)
    code, out, err = run(
        capsys, "hochster", "--gen", "polygon", "4", "--field", huge
    )
    assert code == 2 and "error:" in err and not out


def test_rejected_field_token_is_not_echoed_in_full(capsys):
    # 5,000 digits are past int()'s limit; the message shows a prefix only
    token = "f" + "7" * 5000
    code, out, err = run(
        capsys, "hochster", "--gen", "polygon", "4", "--field", token
    )
    assert code == 2 and not out
    assert "error:" in err and "f7777" in err and len(err) < 200


def test_betti_commands(capsys):
    code, out, _ = run(capsys, "betti-zk", "--gen", "polygon", "4")
    assert code == 0 and "zk betti: 1 0 0 2 0 0 1" in out
    code, out, _ = run(capsys, "betti-rk", "--gen", "polygon", "5", "--json")
    assert code == 0 and json.loads(out)["betti"] == [1, 10, 1]
    assert _parser() is _parser()


def test_products_command(capsys):
    code, out, _ = run(capsys, "products", "--gen", "polygon", "4")
    assert code == 0
    assert "nonzero products:" in out
    code, out, _ = run(capsys, "products", "--gen", "simplex", "2", "--json")
    assert code == 0 and json.loads(out)["nonzero_products"] == []


def test_golod_exit_codes(capsys):
    code, out, _ = run(capsys, "golod", "--gen", "simplex", "2")
    assert code == 0 and "verdict: CUP_GOLOD" in out
    code, out, _ = run(capsys, "golod", "--gen", "polygon", "4")
    assert code == 1 and "verdict: NON_GOLOD" in out
    assert "witness over q" in out


def test_mng_exit_codes(capsys, monkeypatch):
    code, out, _ = run(capsys, "mng", "--gen", "polygon", "4")
    assert code == 0 and "minimally non-Golod: true" in out
    monkeypatch.setattr(sys, "stdin", io.StringIO(PYRAMID_JSON))
    code, out, _ = run(capsys, "mng", "-")
    assert code == 1 and "witness vertex: 5" in out


def test_core_command(capsys):
    code, out, _ = run(capsys, "core", "--gen", "cone", "polygon", "4", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["cone_vertices"] == [5]
    assert data["core"]["vertices"] == 4


def test_gorenstein_exit_codes(capsys):
    code, out, _ = run(capsys, "gorenstein", "--gen", "polygon", "5")
    assert code == 0 and "Gorenstein*: true" in out
    code, out, _ = run(capsys, "gorenstein", "--gen", "disjoint_points", "3")
    assert code == 1


def test_recognize_command(capsys):
    code, out, _ = run(capsys, "recognize", "--gen", "polygon", "4")
    assert code == 0
    assert "kind: CONNECTED_SUM" in out
    assert "sphere products: (3,3)" in out
    code, out, _ = run(capsys, "recognize", "--gen", "boundary_simplex", "3")
    assert code == 0 and "kind: SPHERE" in out
    code, out, _ = run(capsys, "recognize", "--gen", "simplex", "2")
    assert code == 1 and "kind: NONE" in out


def test_verify_command(capsys):
    code, out, _ = run(capsys, "verify", "thm1.1", "--gen", "polygon", "4")
    assert code == 0 and "thm1.1: CONFIRMED" in out
    code, out, _ = run(
        capsys, "verify", "thm1.2", "--gen", "disjoint_points", "3"
    )
    assert code == 1 and "HYPOTHESIS_NOT_MET" in out
    code, out, _ = run(capsys, "verify", "thm4.2", "--gen", "polygon", "4", "--json")
    assert code == 0
    assert json.loads(out)["status"] == "CONFIRMED"


def test_verify_rejects_unknown_theorem(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "thm9.9", "--gen", "polygon", "4"])


def test_max_vertices_cap(capsys):
    for argv in (
        ["hochster", "--gen", "polygon", "21"],
        ["products", "--gen", "polygon", "21"],
        ["golod", "--gen", "polygon", "21"],
        ["betti-zk", "--gen", "disjoint_points", "21"],
        ["betti-rk", "--gen", "disjoint_points", "21"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 3 and "exceed" in err and not out, argv
    # the Betti commands read the Hochster table, so Z_K on 15 vertices is
    # within reach: a full subset of j >= 2 points has H~^0 of rank j - 1,
    # in degree j + 1
    code, out, _ = run(
        capsys, "betti-zk", "--gen", "disjoint_points", "15", "--json"
    )
    want = [1, 0, 0] + [(j - 1) * comb(15, j) for j in range(2, 16)]
    assert code == 0 and json.loads(out)["betti"] == want
    assert want == list(hochster_table(disjoint_points(15)).betti)
    # the caps are fixed: there is no option to move them
    with pytest.raises(SystemExit) as exc:
        main(["hochster", "--gen", "polygon", "6", "--max-vertices", "7"])
    assert exc.value.code == 2


def test_verify_thm42_honours_max_vertices(capsys):
    code, _, err = run(
        capsys, "verify", "thm4.2", "--gen", "disjoint_points", "21"
    )
    assert code == 3 and "exceed" in err


def test_consecutive_calls_share_one_parser(capsys):
    code, out, _ = run(capsys, "hochster", "--gen", "polygon", "4")
    assert code == 0 and "betti: 1 0 0 2 0 0 1" in out
    code, out, _ = run(capsys, "core", "--gen", "cone", "polygon", "4")
    assert code == 0 and "cone vertices: 5" in out
    code, out, _ = run(capsys, "betti-rk", "--gen", "polygon", "5", "--json")
    assert code == 0 and json.loads(out)["betti"] == [1, 10, 1]
    assert _parser() is _parser()


def test_betti_commands_echo_parsed_coefficients(capsys):
    for command in ("betti-zk", "betti-rk"):
        code, out, _ = run(
            capsys, command, "--gen", "polygon", "4", "--field", " Q", "--json"
        )
        assert code == 0 and json.loads(out)["coeffs"] == "q", command


def test_analyze_command(capsys):
    code, out, _ = run(capsys, "analyze", "--gen", "polygon", "4", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["golod"]["verdict"] == "NON_GOLOD"
    assert data["minimally_non_golod"]["minimally_non_golod"] is True
    assert data["gorenstein_star"]["gorenstein_star"] is True
    assert data["recognition"]["kind"] == "CONNECTED_SUM"
    code, out, _ = run(capsys, "analyze", "--gen", "cone", "polygon", "4")
    assert code == 0
    assert "cone vertices: 5" in out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "momangle.cli", "betti-rk", "--gen", "polygon", "4"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "rk betti: 1 2 1" in proc.stdout
