"""Command-line interface.

Every subcommand takes a complex either from a JSON file ("-" for stdin)
or built inline with --gen, e.g.

    momangle hochster --gen cone polygon 4
    momangle recognize complex.json --json

Exit codes: 0 success (or predicate true / theorem confirmed), 1 a false
predicate or unmet hypothesis, 2 bad input, 3 a vertex cap was exceeded,
4 an internal invariant failed (including a theorem violation, which for
a proved statement means a bug here).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from .classify import (
    is_gorenstein_star,
    is_minimally_non_golod,
    recognize_connected_sum,
    verify_theorem_1_1,
    verify_theorem_1_2,
    verify_theorem_4_2,
)
from .complexes import FAMILIES, SimplicialComplex, from_json, generate, vertices_of
from .errors import (
    BadParams,
    InternalInvariant,
    MomangleError,
    ParseError,
    TooManyVertices,
)
from .hochster import duality_check, format_poincare, hochster_table
from .linalg import INT, coefficients_from_token
from .products import is_cup_golod, product_table

# the statements `verify` checks: its argument choices and its dispatch
THEOREMS = {
    "thm1.1": verify_theorem_1_1,
    "thm1.2": verify_theorem_1_2,
    "thm4.2": verify_theorem_4_2,
}


def _parse_gen(tokens: list[str]):
    if not tokens:
        raise BadParams("--gen needs a family name")
    name = tokens[0]
    if name not in FAMILIES:
        known = ", ".join(sorted(FAMILIES))
        raise BadParams(f"unknown family {name!r} (known: {known})")
    rest = tokens[1:]
    if name == "cone":
        base, rest = _parse_gen(rest)
        return generate("cone", base), rest
    if name == "join":
        left, rest = _parse_gen(rest)
        right, rest = _parse_gen(rest)
        return generate("join", left, right), rest
    _, arity = FAMILIES[name]
    if len(rest) < arity:
        raise BadParams(f"{name} takes {arity} integer parameter(s)")
    params = []
    for tok in rest[:arity]:
        try:
            params.append(int(tok))
        except ValueError:
            raise BadParams(f"{name} expects integers, got {tok!r}") from None
    return generate(name, *params), rest[arity:]


def _gen_complex(tokens: list[str]) -> SimplicialComplex:
    """The complex that all of ``tokens`` name, or BadParams."""
    try:
        K, rest = _parse_gen(tokens)
    except RecursionError:
        raise BadParams("cone/join nest too deeply") from None
    if rest:
        raise BadParams(f"unused generator tokens: {' '.join(rest)}")
    return K


def _load_complex(args) -> SimplicialComplex:
    if getattr(args, "gen", None):
        return _gen_complex(args.gen)
    path = getattr(args, "input", None)
    if not path:
        raise BadParams("provide a complex file or --gen FAMILY ARGS")
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not UTF-8 text: {exc.reason}") from None
    return from_json(text)


def _add_input_args(p):
    p.add_argument("input", nargs="?", help="complex JSON file, or - for stdin")
    p.add_argument(
        "--gen",
        nargs="+",
        metavar="TOKEN",
        help="build a complex inline: FAMILY ARGS (cone/join nest)",
    )
    p.add_argument("--json", action="store_true", help="emit JSON")


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused."""
    ap = argparse.ArgumentParser(
        prog="momangle",
        description="Cohomology rings of moment-angle complexes",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hochster", help="subset-sum cohomology table of Z_K")
    _add_input_args(p)
    p.add_argument("--field", default="int", help="int, q, or f<p> (default int)")

    p = sub.add_parser(
        "betti-zk", help="Betti numbers of Z_K from the Hochster table"
    )
    _add_input_args(p)
    p.add_argument("--field", default="int", help="int, q, or f<p> (default int)")

    p = sub.add_parser(
        "betti-rk", help="Betti numbers of R_K from the Hochster table"
    )
    _add_input_args(p)
    p.add_argument("--field", default="int", help="int, q, or f<p> (default int)")

    p = sub.add_parser("products", help="nonzero cup products over a field")
    _add_input_args(p)
    p.add_argument("--field", default="q", help="q or f<p> (default q)")

    p = sub.add_parser("golod", help="cup-level Golod test over a field battery")
    _add_input_args(p)

    p = sub.add_parser("mng", help="minimally non-Golod test")
    _add_input_args(p)

    p = sub.add_parser("core", help="cone vertices and the core subcomplex")
    _add_input_args(p)

    p = sub.add_parser("gorenstein", help="Gorenstein* test via face links")
    _add_input_args(p)

    p = sub.add_parser(
        "recognize", help="match H*(Z_K; Q) against connected sums of sphere products"
    )
    _add_input_args(p)

    p = sub.add_parser("verify", help="check one theorem on one complex")
    p.add_argument("theorem", choices=THEOREMS, help="statement to check")
    _add_input_args(p)

    p = sub.add_parser("gen", help="print a generated complex as JSON")
    p.add_argument("tokens", nargs="+", metavar="TOKEN")

    p = sub.add_parser("analyze", help="run the full battery on one complex")
    _add_input_args(p)
    return ap


def _field(args):
    return coefficients_from_token(args.field)


def _emit(args, payload: dict, lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)


def _fmt_pairs(pairs) -> str:
    if not pairs:
        return "(none)"
    counts: dict[tuple, int] = {}
    for p in pairs:
        counts[p] = counts.get(p, 0) + 1
    return ", ".join(
        f"({a},{b}) x{n}" if n > 1 else f"({a},{b})"
        for (a, b), n in sorted(counts.items())
    )


def _cmd_hochster(args) -> int:
    K = _load_complex(args)
    table = hochster_table(K, _field(args))
    lines = [
        f"vertices: {table.m}  dim: {K.dim}  coeffs: {table.coeffs}",
        "betti: " + " ".join(map(str, table.betti)),
        "poincare: " + format_poincare(table.betti),
        "bigraded (|I|, d) -> rank:",
    ]
    for (s, d), r in sorted(table.bigraded.items()):
        lines.append(f"  ({s}, {d}): {r}")
    tp = table.torsion_primes
    lines.append(
        "torsion primes: " + (" ".join(map(str, tp)) if tp else "(none)")
    )
    n = table.top_degree
    lines.append(
        f"duality through degree {n}: "
        + ("ok" if duality_check(table) else "fails")
    )
    _emit(args, table.to_dict(), lines)
    return 0


def _cmd_betti(args) -> int:
    K = _load_complex(args)
    coeffs = _field(args)
    kind = args.command[-2:]  # betti-zk or betti-rk
    table = hochster_table(K, coeffs)
    b = table.betti if kind == "zk" else table.rk_betti
    _emit(
        args,
        {"coeffs": str(coeffs), "betti": list(b)},
        [f"{kind} betti: " + " ".join(map(str, b))],
    )
    return 0


def _cmd_products(args) -> int:
    K = _load_complex(args)
    pt = product_table(K, _field(args))
    lines = [f"field: {pt.coeffs}", f"classes: {len(pt.classes)}"]
    for t, c in enumerate(pt.classes):
        verts = ",".join(map(str, vertices_of(c.subset)))
        lines.append(
            f"  [{t}] subset {{{verts}}} degree {c.degree} total {c.total_degree}"
        )
    if pt.is_trivial:
        lines.append("nonzero products: (none)")
    else:
        lines.append("nonzero products:")
        for i, j, coords in pt.products:
            rhs = " + ".join(f"{v}*[{t}]" for t, v in coords)
            lines.append(f"  [{i}]*[{j}] = {rhs}")
    _emit(args, pt.to_dict(), lines)
    return 0


def _cmd_golod(args) -> int:
    K = _load_complex(args)
    rep = is_cup_golod(K)
    lines = [f"verdict: {rep.verdict}"]
    lines.append("fields checked: " + " ".join(rep.fields_checked))
    if rep.witness:
        w = rep.witness
        lines.append(
            f"witness over {w['field']}: subsets {w['x']['subset']} x {w['y']['subset']}"
            f" (total degrees {w['x']['total_degree']}+{w['y']['total_degree']})"
        )
    for c in rep.caveats:
        lines.append(f"caveat: {c}")
    _emit(args, rep.to_dict(), lines)
    return 0 if rep.verdict == "CUP_GOLOD" else 1


def _cmd_mng(args) -> int:
    K = _load_complex(args)
    rep = is_minimally_non_golod(K)
    value = {True: "true", False: "false", None: "undecided"}[rep.value]
    lines = [f"minimally non-Golod: {value}"]
    if rep.witness_vertex is not None:
        lines.append(f"witness vertex: {rep.witness_vertex}")
    for c in rep.caveats:
        lines.append(f"caveat: {c}")
    _emit(args, rep.to_dict(), lines)
    return 0 if rep.value else 1


def _cmd_core(args) -> int:
    K = _load_complex(args)
    cone_verts, core = K.core()
    core_verts = K.core_vertices()
    payload = {
        "cone_vertices": list(cone_verts),
        "core": core.to_dict(),
        "core_vertices": list(core_verts),
    }
    lines = [
        "cone vertices: "
        + (" ".join(map(str, cone_verts)) if cone_verts else "(none)"),
        "core vertices: " + " ".join(map(str, core_verts)),
        "core facets: "
        + " ".join(
            "{" + ",".join(map(str, vertices_of(f))) + "}" for f in core.facets
        ),
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_gorenstein(args) -> int:
    K = _load_complex(args)
    rep = is_gorenstein_star(K)
    lines = [f"Gorenstein*: {'true' if rep.value else 'false'}", rep.reason]
    _emit(args, rep.to_dict(), lines)
    return 0 if rep.value else 1


def _cmd_recognize(args) -> int:
    K = _load_complex(args)
    rep = recognize_connected_sum(K)
    lines = [f"kind: {rep.kind}"]
    if rep.kind == "SPHERE":
        lines.append(f"sphere dimension: {rep.top_degree}")
    elif rep.kind == "CONNECTED_SUM":
        lines.append(f"top degree: {rep.top_degree}")
        lines.append("sphere products: " + _fmt_pairs(rep.pairs))
    else:
        lines.append(f"reason: {rep.reason}")
    _emit(args, rep.to_dict(), lines)
    return 0 if rep.kind != "NONE" else 1


def _cmd_verify(args) -> int:
    K = _load_complex(args)
    rep = THEOREMS[args.theorem](K)
    lines = [f"{rep.theorem}: {rep.status}"]
    if rep.status == "HYPOTHESIS_NOT_MET":
        for key, val in rep.hypothesis.items():
            if isinstance(val, (bool, int, str)):
                lines.append(f"  {key}: {val}")
    if rep.details:
        for key, val in rep.details.items():
            if isinstance(val, (bool, int, str, list)):
                lines.append(f"  {key}: {val}")
    _emit(args, rep.to_dict(), lines)
    if rep.status == "CONFIRMED":
        return 0
    if rep.status == "VIOLATION":
        return 4
    return 1


def _cmd_gen(args) -> int:
    print(_gen_complex(args.tokens).to_json())
    return 0


def _cmd_analyze(args) -> int:
    K = _load_complex(args)
    table = hochster_table(K, INT)
    cone_verts = K.cone_vertices()
    golod = is_cup_golod(K)
    mng = is_minimally_non_golod(K)
    gor = is_gorenstein_star(K)
    rec = recognize_connected_sum(K)
    payload = {
        "complex": K.to_dict(),
        "dim": K.dim,
        "betti": list(table.betti),
        "poincare": format_poincare(table.betti),
        "torsion_primes": list(table.torsion_primes),
        "cone_vertices": list(cone_verts),
        "core_vertices": list(K.core_vertices()),
        "golod": golod.to_dict(),
        "minimally_non_golod": mng.to_dict(),
        "gorenstein_star": gor.to_dict(),
        "recognition": rec.to_dict(),
    }
    mng_word = {True: "true", False: "false", None: "undecided"}[mng.value]
    lines = [
        f"vertices: {K.m}  dim: {K.dim}",
        "betti(Z_K): " + " ".join(map(str, table.betti)),
        "poincare: " + format_poincare(table.betti),
        "torsion primes: "
        + (" ".join(map(str, table.torsion_primes)) or "(none)"),
        "cone vertices: "
        + (" ".join(map(str, cone_verts)) if cone_verts else "(none)"),
        f"golod: {golod.verdict}",
        f"minimally non-Golod: {mng_word}",
        f"Gorenstein*: {'true' if gor.value else 'false'}",
        f"recognition: {rec.kind}"
        + (
            f" [{_fmt_pairs(rec.pairs)}]"
            if rec.kind == "CONNECTED_SUM"
            else ""
        ),
    ]
    _emit(args, payload, lines)
    return 0


_COMMANDS = {
    "hochster": _cmd_hochster,
    "betti-zk": _cmd_betti,
    "betti-rk": _cmd_betti,
    "products": _cmd_products,
    "golod": _cmd_golod,
    "mng": _cmd_mng,
    "core": _cmd_core,
    "gorenstein": _cmd_gorenstein,
    "recognize": _cmd_recognize,
    "verify": _cmd_verify,
    "gen": _cmd_gen,
    "analyze": _cmd_analyze,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except InternalInvariant as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 4
    except TooManyVertices as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MomangleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
