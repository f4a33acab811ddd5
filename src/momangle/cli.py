"""Command-line interface.

Every subcommand takes a complex either from a JSON file ("-" for stdin)
or built inline with --gen, e.g.

    momangle hochster --gen cone polygon 4
    momangle recognize complex.json --json

Each subcommand is declared once, in ``SUBCOMMANDS``: its help text, its
--field default and its handler.  A handler maps the loaded complex and
the parsed arguments to the JSON payload, the text lines and the exit
code; ``_run`` loads the complex, prints the payload (--json) or the
lines, and returns the code.  ``gen`` prints the complex it builds and
has no handler.

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
    if args.gen:
        return _gen_complex(args.gen)
    if not args.input:
        raise BadParams("provide a complex file or --gen FAMILY ARGS")
    try:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input, encoding="utf-8") as fh:
                text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not UTF-8 text: {exc.reason}") from None
    return from_json(text)


def _field(args):
    return coefficients_from_token(args.field)


# how a verdict reads in text output
_WORDS = {True: "true", False: "false", None: "undecided"}


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


def _hochster(K, args):
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
    return table.to_dict(), lines, 0


def _betti(K, args):
    coeffs = _field(args)
    kind = args.command[-2:]  # betti-zk or betti-rk
    table = hochster_table(K, coeffs)
    b = table.betti if kind == "zk" else table.rk_betti
    payload = {"coeffs": str(coeffs), "betti": list(b)}
    return payload, [f"{kind} betti: " + " ".join(map(str, b))], 0


def _products(K, args):
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
    return pt.to_dict(), lines, 0


def _golod(K, args):
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
    return rep.to_dict(), lines, 0 if rep.verdict == "CUP_GOLOD" else 1


def _mng(K, args):
    rep = is_minimally_non_golod(K)
    lines = [f"minimally non-Golod: {_WORDS[rep.value]}"]
    if rep.witness_vertex is not None:
        lines.append(f"witness vertex: {rep.witness_vertex}")
    for c in rep.caveats:
        lines.append(f"caveat: {c}")
    return rep.to_dict(), lines, 0 if rep.value else 1


def _core(K, args):
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
    return payload, lines, 0


def _gorenstein(K, args):
    rep = is_gorenstein_star(K)
    lines = [f"Gorenstein*: {_WORDS[rep.value]}", rep.reason]
    return rep.to_dict(), lines, 0 if rep.value else 1


def _recognize(K, args):
    rep = recognize_connected_sum(K)
    lines = [f"kind: {rep.kind}"]
    if rep.kind == "SPHERE":
        lines.append(f"sphere dimension: {rep.top_degree}")
    elif rep.kind == "CONNECTED_SUM":
        lines.append(f"top degree: {rep.top_degree}")
        lines.append("sphere products: " + _fmt_pairs(rep.pairs))
    else:
        lines.append(f"reason: {rep.reason}")
    return rep.to_dict(), lines, 0 if rep.kind != "NONE" else 1


def _verify(K, args):
    rep = THEOREMS[args.theorem](K)
    lines = [f"{rep.theorem}: {rep.status}"]
    if rep.status == "HYPOTHESIS_NOT_MET":
        for key, val in rep.hypothesis.items():
            if isinstance(val, (bool, int, str)):
                lines.append(f"  {key}: {val}")
    for key, val in rep.details.items():
        if isinstance(val, (bool, int, str, list)):
            lines.append(f"  {key}: {val}")
    code = {"CONFIRMED": 0, "VIOLATION": 4}.get(rep.status, 1)
    return rep.to_dict(), lines, code


def _analyze(K, args):
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
    lines = [
        f"vertices: {K.m}  dim: {K.dim}",
        "betti(Z_K): " + " ".join(map(str, table.betti)),
        "poincare: " + format_poincare(table.betti),
        "torsion primes: "
        + (" ".join(map(str, table.torsion_primes)) or "(none)"),
        "cone vertices: "
        + (" ".join(map(str, cone_verts)) if cone_verts else "(none)"),
        f"golod: {golod.verdict}",
        f"minimally non-Golod: {_WORDS[mng.value]}",
        f"Gorenstein*: {_WORDS[gor.value]}",
        f"recognition: {rec.kind}"
        + (
            f" [{_fmt_pairs(rec.pairs)}]"
            if rec.kind == "CONNECTED_SUM"
            else ""
        ),
    ]
    return payload, lines, 0


# every subcommand, in --help order: its help text, its --field default
# (None: no --field) and its handler, which maps (K, args) to (JSON
# payload, text lines, exit code).  gen builds a complex from its tokens
# and prints it, so it has no complex to hand to a handler.
SUBCOMMANDS = {
    "hochster": ("subset-sum cohomology table of Z_K", "int", _hochster),
    "betti-zk": ("Betti numbers of Z_K from the Hochster table", "int", _betti),
    "betti-rk": ("Betti numbers of R_K from the Hochster table", "int", _betti),
    "products": ("nonzero cup products over a field", "q", _products),
    "golod": ("cup-level Golod test over a field battery", None, _golod),
    "mng": ("minimally non-Golod test", None, _mng),
    "core": ("cone vertices and the core subcomplex", None, _core),
    "gorenstein": ("Gorenstein* test via face links", None, _gorenstein),
    "recognize": (
        "match H*(Z_K; Q) against connected sums of sphere products",
        None,
        _recognize,
    ),
    "verify": ("check one theorem on one complex", None, _verify),
    "gen": ("print a generated complex as JSON", None, None),
    "analyze": ("run the full battery on one complex", None, _analyze),
}

# the --field help for each default
_FIELD_HELP = {
    "int": "int, q, or f<p> (default int)",
    "q": "q or f<p> (default q)",
}


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused."""
    ap = argparse.ArgumentParser(
        prog="momangle",
        description="Cohomology rings of moment-angle complexes",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (text, field, handler) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=text)
        if handler is None:
            p.add_argument("tokens", nargs="+", metavar="TOKEN")
            continue
        if handler is _verify:
            p.add_argument("theorem", choices=THEOREMS, help="statement to check")
        p.add_argument("input", nargs="?", help="complex JSON file, or - for stdin")
        p.add_argument(
            "--gen",
            nargs="+",
            metavar="TOKEN",
            help="build a complex inline: FAMILY ARGS (cone/join nest)",
        )
        p.add_argument("--json", action="store_true", help="emit JSON")
        if field:
            p.add_argument("--field", default=field, help=_FIELD_HELP[field])
    return ap


def _run(args) -> int:
    """Run the parsed command: print its JSON payload or its text lines,
    and return its exit code."""
    handler = SUBCOMMANDS[args.command][2]
    if handler is None:
        print(_gen_complex(args.tokens).to_json())
        return 0
    payload, lines, code = handler(_load_complex(args), args)
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(*lines, sep="\n")
    return code


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _run(args)
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
