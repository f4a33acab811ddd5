"""Properties of the Hochster walk on generated complexes (Hypothesis).

Complexes on at most 10 vertices are drawn as facet lists, with every
vertex no facet covers added as an isolated point.  Every run draws the
same examples (derandomize, a fixed seed, no example database), so a
failure reproduces.

Beside the Smith-form oracle, the walk must respect two topological
facts: Z of a cone is Z_K times a disk, and Z of a join is the product
Z_K x Z_L, whose Poincare polynomial is the product of the two and
whose ring is the tensor product of the two over Q, F_2 and F_3.  Tables
and the Golod and minimally non-Golod verdicts must not change when the
vertices are renamed.  The walk's component and dominated-vertex rules
are also checked subset by subset against oracles that look at K_I
alone.  The homology kernel that settles the rest keeps the Z/2 of
RP^2 through disjoint unions and joins.  Beside or joined with a drawn
complex, an RP^2 whose products are over F_2 only keeps the minimally
non-Golod report equal to searching every vertex deletion.  Recognition
of a drawn complex, and of its join with a square, must be what ranking
every pairing of the whole product table gives.

Spheres built from polygons and boundaries of simplices by joins and
stellar subdivisions have their tables filled by Alexander duality past
the last vertex, and must still equal the Smith form of every subset.
The command line, given generated --gen token lists and complex files,
keeps its exit codes 0-4, prints no traceback, and prints JSON under
--json whenever it exits 0 or 1.
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import reduce
from unittest import mock

from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from momangle import (
    INT,
    PRIME,
    RAT,
    boundary_simplex,
    cone,
    disjoint_points,
    from_facets,
    hochster,
    hochster_table,
    is_cup_golod,
    is_gorenstein_star,
    is_minimally_non_golod,
    mask_of,
    polygon,
    recognize_connected_sum,
    simplex,
    vertices_of,
)
from momangle.cli import main
from momangle.complexes import FAMILIES
from momangle.linalg import full_subcomplex_homology

from helpers import (
    RP2_FACETS,
    RP2_STELLAR_FACETS,
    check_kunneth,
    reference_component,
    reference_dominated,
    reference_gorenstein,
    reference_integral_table,
    reference_mng,
    reference_recognize,
    relabel,
    smith_form_homology,
    trim,
)

MAX_M = 10
SEED = 20261018

EXAMPLES = settings(
    max_examples=150, derandomize=True, database=None, deadline=None
)


@st.composite
def complexes(draw, max_m=MAX_M):
    m = draw(st.integers(1, max_m))
    vertex = st.integers(1, m)
    facets = draw(
        st.lists(
            st.frozensets(vertex, min_size=1, max_size=min(m, 5)),
            min_size=1,
            max_size=m + 3,
        )
    )
    covered = set().union(*facets)
    facets += [{v} for v in range(1, m + 1) if v not in covered]
    return from_facets(m, facets)


@seed(SEED)
@EXAMPLES
@given(complexes())
def test_walk_equals_the_smith_form_of_every_subset(K):
    want = reference_integral_table(K).subsets
    assert hochster_table(K, INT).subsets == want


@seed(SEED)
@EXAMPLES
@given(complexes(8))
@example(polygon(7))
@example(boundary_simplex(3).join(disjoint_points(2)))
@example(from_facets(6, RP2_FACETS))
def test_walk_rules_agree_with_oracles_on_every_subset(K):
    # the walk's rules, recorded as it takes them: the cosets top + S it
    # visits subset by subset, and the component of the top vertex of
    # each walked K_I that no dominated vertex settles; the index is the
    # table's
    walked, split = [], {}

    def recorded_cosets(top, below, free, facets):
        for base in plain_cosets(top, below, free, facets):
            walked.append(base)
            yield base

    def recorded_component(I, base, edges):
        split[I] = plain_component(I, base, edges)
        return split[I]

    plain_cosets = hochster._walked_cosets
    plain_component = hochster._component
    with mock.patch.multiple(
        hochster,
        _walked_cosets=recorded_cosets,
        _component=recorded_component,
    ):
        table = hochster._walk(K)
    star = {1 << v: [f for f in K.facets if f >> v & 1] for v in range(K.m)}
    edges = {v: reduce(int.__or__, fs) for v, fs in star.items()}
    # the walk tries vertices with the fewest neighbours first, then the
    # narrowest neighbourhood span, then by label
    key = {
        v: (n.bit_count(), n // (n & -n), v) for v, n in edges.items()
    }
    order = sorted(edges, key=key.get)
    assert hochster._try_order(edges) == order
    records = hochster._records(star, edges)
    assert [rec[0] for rec in records] == order
    # the subsets through the last vertex of a Gorenstein* K are filled by
    # duality, not visited: no coset of its block is walked
    filled = reference_gorenstein(K).value
    visited = 1 << K.m >> 1 if filled else 1 << K.m
    assert all(base < visited for base in walked)
    # a coset the walk copies from the block below has its top vertex
    # dominated in K_(top + S), or top + S a face; one it walks has not,
    # unless it is one subset
    for top in (v for v in edges if v < visited):
        below = edges[top] & (top - 1)
        free = (top - 1) ^ below
        for base in (top | S for S in range(1, below + 1) if not S & ~below):
            copied = K.contains_mask(base) or (
                free and reference_dominated(K, base, top)
            )
            assert copied == (base not in walked), base
    for I, C in split.items():
        assert C == reference_component(K, I), I
    for I in range(1, 1 << K.m):
        KI = K.full_subcomplex(vertices_of(I))
        assert table.profile_of(I) == smith_form_homology(KI), I
        if I >= visited or K.contains_mask(I):
            continue
        if reference_component(K, I) != I:
            continue
        bits = [1 << (u - 1) for u in vertices_of(I)]
        want = [v for v in bits if reference_dominated(K, I, v)]
        for v in bits:
            got = hochster._dominates(v, I & edges[v], star[v])
            assert got == (v in want), (I, v)
        first = hochster._dominated(I, records)
        assert first == next((v for v in order if v in want), 0), I


@st.composite
def spheres(draw, max_m=9):
    """A homology sphere: the boundary of a simplex or a polygon, joined
    with another such sphere or not, then stellarly subdivided at drawn
    faces of at least two vertices, and relabelled."""

    def atom():
        if draw(st.booleans()):
            return boundary_simplex(draw(st.integers(1, 3)))
        return polygon(draw(st.integers(3, 5)))

    K = atom()
    if draw(st.booleans()):
        L = atom()
        if K.m + L.m <= max_m:
            K = K.join(L)
    for _ in range(draw(st.integers(0, 3))):
        faces = sorted(f for f in K.faces() if f.bit_count() >= 2)
        if K.m == max_m or not faces:
            break
        face = draw(st.sampled_from(faces))
        apex = 1 << K.m
        facets = [f for f in K.facets if face & ~f]
        for f in K.facets:
            if not face & ~f:  # f holds the face: one cone per face vertex
                rest = face
                while rest:
                    low = rest & -rest
                    facets.append(f & ~low | apex)
                    rest ^= low
        K = from_facets(K.m + 1, map(vertices_of, facets))
    return relabel(K, draw(st.permutations(range(1, K.m + 1))))


@seed(SEED)
@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(spheres())
def test_spheres_fill_their_tables_by_duality(K):
    # stellar subdivisions and joins keep a sphere a sphere, so the walk
    # takes the duality fill, and its table equals the Smith form of
    # every full subcomplex; the Gorenstein* report equals the face scan
    fills = []

    def fill(*args):
        fills.append(args[-1])
        return plain_fill(*args)

    plain_fill = hochster._fill_by_duality
    with mock.patch.object(hochster, "_fill_by_duality", fill):
        table = hochster._walk(K)
    assert fills == [K.dim]
    assert table == reference_integral_table(K)
    report = is_gorenstein_star(K).to_dict()
    assert report == reference_gorenstein(K).to_dict()
    assert report["gorenstein_star"] is True


@seed(SEED)
@EXAMPLES
@given(st.data())
def test_tables_are_invariant_under_relabelling(data):
    K = data.draw(complexes())
    perm = data.draw(st.permutations(range(1, K.m + 1)))
    L = relabel(K, perm)
    for coeffs in (INT, PRIME(2)):
        t, u = hochster_table(K, coeffs), hochster_table(L, coeffs)
        assert u.betti == t.betti
        assert u.bigraded == t.bigraded
    # subset I of K is subset perm(I) of L, with the same profile
    moved = {
        mask_of(perm[v - 1] for v in vertices_of(mask)): prof
        for mask, prof in hochster_table(K, INT).subsets
    }
    assert moved == dict(hochster_table(L, INT).subsets)


@seed(SEED)
@EXAMPLES
@given(st.data())
def test_golod_and_mng_verdicts_are_invariant_under_relabelling(data):
    # bases, tables and reports are shared between complexes equal up to
    # labels; a relabelled K is another complex with the same verdicts
    K = data.draw(complexes(8))
    L = relabel(K, data.draw(st.permutations(range(1, K.m + 1))))
    golod, moved = is_cup_golod(K), is_cup_golod(L)
    assert moved.verdict == golod.verdict
    assert moved.fields_checked == golod.fields_checked
    assert is_minimally_non_golod(L).value == is_minimally_non_golod(K).value


@seed(SEED)
@EXAMPLES
@given(complexes(MAX_M - 1))
def test_coning_keeps_the_betti_numbers(K):
    want = trim(hochster_table(K, INT).betti)
    assert trim(hochster_table(cone(K), INT).betti) == want


@seed(SEED)
@EXAMPLES
@given(complexes(MAX_M - 3), st.integers(0, 2))
def test_joining_a_simplex_lifts_the_table(K, k):
    # simplex(k) takes vertices 1..k+1, K moves up by k+1
    L = simplex(k).join(K)
    t, u = hochster_table(K, INT), hochster_table(L, INT)
    assert u.subsets == tuple((I << k + 1, p) for I, p in t.subsets)
    assert trim(u.betti) == trim(t.betti)
    assert u.rk_betti[: len(t.rk_betti)] == t.rk_betti
    assert not any(u.rk_betti[len(t.rk_betti) :])


@seed(SEED)
@EXAMPLES
@given(st.data())
def test_recognition_is_invariant_under_relabelling(data):
    K = data.draw(complexes(8))
    L = relabel(K, data.draw(st.permutations(range(1, K.m + 1))))
    want, got = recognize_connected_sum(K), recognize_connected_sum(L)
    assert (got.kind, got.pairs) == (want.kind, want.pairs)


@seed(SEED)
@EXAMPLES
@given(complexes(7))
def test_recognition_matches_ranking_the_whole_product_table(K):
    # the join with the square keeps K's ring as a tensor factor and
    # shifts its Betti numbers up, so more drawn complexes reach the
    # product stage
    for L in (K, K.join(polygon(4))):
        assert recognize_connected_sum(L) == reference_recognize(L), L


@seed(SEED)
@EXAMPLES
@given(st.one_of(st.just(from_facets(6, RP2_FACETS)), complexes(8)))
def test_integral_free_ranks_are_the_rational_betti_numbers(K):
    # recognition and theorem 4.2 read Q-Betti numbers off the integral
    # table; torsion, as in RP^2, is all that the Q table drops
    t, q = hochster_table(K, INT), hochster_table(K, RAT)
    assert t.betti == q.betti
    assert t.rk_betti == q.rk_betti


def _product(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


@seed(SEED)
@EXAMPLES
@given(complexes(5), complexes(5))
def test_join_multiplies_poincare_polynomials(K, L):
    for coeffs in (INT, PRIME(2)):
        want = _product(
            hochster_table(K, coeffs).betti, hochster_table(L, coeffs).betti
        )
        assert hochster_table(K.join(L), coeffs).betti == want


# a complex with two facets is no simplex, so it has a missing face M,
# and the sphere K_M carries a positive-degree class over every field
FACTORS = complexes(5).filter(lambda K: len(K.facets) > 1)


@seed(SEED)
@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(FACTORS, FACTORS)
@example(from_facets(6, RP2_FACETS), polygon(4))
@example(polygon(3), from_facets(7, RP2_STELLAR_FACETS))
def test_join_rings_are_tensor_products(K, L):
    # over each field, the join's product table holds each factor's and
    # the independent products of every pair of classes across them
    # (check_kunneth), so the join has a product
    for coeffs in (RAT, PRIME(2), PRIME(3)):
        assert all(check_kunneth(K, L, coeffs))
    assert is_cup_golod(K.join(L)).verdict == "NON_GOLOD"


@seed(SEED)
@EXAMPLES
@given(st.data())
def test_walk_equals_the_smith_form_on_disjoint_unions(data):
    # RP^2 on one side sends its Z/2 through the split of K_I into the
    # component of the top vertex and the rest
    rp2 = from_facets(6, RP2_FACETS)
    K = data.draw(st.one_of(st.just(rp2), complexes(5)))
    L = data.draw(complexes(MAX_M - K.m))
    shifted = [[v + K.m for v in vertices_of(f)] for f in L.facets]
    U = from_facets(K.m + L.m, [*map(vertices_of, K.facets), *shifted])
    want = reference_integral_table(U).subsets
    assert hochster_table(U, INT).subsets == want


@seed(SEED)
@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(complexes(4), st.booleans(), st.data())
def test_kernel_keeps_the_torsion_of_unions_and_joins(L, join, data):
    # RP^2 joined with L carries the Z/2 up by the degrees of L; beside
    # L it adds a component.  The kernel on the whole vertex set and on
    # a drawn subset, most of them holding all of RP^2, must equal the
    # Smith form of the relabelled K_I's whole chain complex.
    rp2 = from_facets(6, RP2_FACETS)
    if join:
        K = rp2.join(L)
    else:
        shifted = [[v + 6 for v in vertices_of(f)] for f in L.facets]
        K = from_facets(6 + L.m, [*RP2_FACETS, *shifted])
    keep = data.draw(st.sampled_from([0b111111, 0b111111, 0b011111]))
    I = keep | data.draw(st.integers(0, (1 << L.m) - 1)) << 6
    for mask in ((1 << K.m) - 1, I):
        want = smith_form_homology(K.full_subcomplex(vertices_of(mask)))
        assert full_subcomplex_homology(mask, K.facets) == want, mask


@seed(SEED)
@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(complexes(3), st.booleans())
def test_mng_read_off_matches_searching_every_deletion(L, join):
    # The subdivided RP^2 has products over F_2 only.  Beside L, deleting
    # a vertex of L keeps them, and only K's table over F_2 shows that
    # deletion's targets; joined with L, the deletions carry products
    # over Q as well.
    if join:
        K = from_facets(7, RP2_STELLAR_FACETS).join(L)
    else:
        shifted = [[v + 7 for v in vertices_of(f)] for f in L.facets]
        K = from_facets(7 + L.m, [*RP2_STELLAR_FACETS, *shifted])
    assert is_minimally_non_golod(K).to_dict() == reference_mng(K).to_dict()


# -- the command line on drawn input -------------------------------------

COMMANDS = [
    ["hochster"],
    ["hochster", "--field", "f2"],
    ["gorenstein"],
    ["analyze"],
    ["verify", "thm1.1"],
    ["verify", "thm1.2"],
    ["verify", "thm4.2"],
]
# family names, small integers and junk; junk never starts with "-", as
# argparse would read it as an option of its own
JUNK = st.one_of(
    st.sampled_from(sorted(FAMILIES)),
    st.sampled_from(["cone", "join"]),
    st.integers(-1, 3).map(str),
    st.sampled_from(["", "x", "1.5", "3e2", "polygon4", "cone("]),
    st.text("abcxyz_", min_size=1, max_size=6),
)
ATOMS = st.one_of(
    st.tuples(st.just("simplex"), st.integers(-1, 3)),
    st.tuples(st.just("boundary_simplex"), st.integers(0, 4)),
    st.tuples(st.just("polygon"), st.integers(3, 5)),
    st.tuples(st.just("disjoint_points"), st.integers(1, 3)),
    st.tuples(st.just("stacked_sphere"), st.integers(1, 2), st.integers(0, 2)),
).map(lambda atom: [atom[0], *map(str, atom[1:])])
# well-formed generator expressions: the atoms, coned any number of
# times, and joins of two of those
EXPRESSIONS = st.recursive(
    ATOMS,
    lambda inner: inner.map(lambda e: ["cone", *e])
    | st.tuples(inner, inner).map(lambda p: ["join", *p[0], *p[1]]),
    max_leaves=2,
)
GEN_TOKENS = st.one_of(
    EXPRESSIONS,
    st.tuples(EXPRESSIONS, JUNK).map(lambda p: [*p[0], p[1]]),
    EXPRESSIONS.filter(lambda e: len(e) > 1).map(lambda e: e[:-1]),
    st.lists(JUNK, min_size=1, max_size=6),
)
FACETS = st.lists(
    st.lists(
        st.one_of(st.integers(-1, 10), st.sampled_from([True, 2.5, "1"])),
        max_size=5,
    ),
    max_size=10,
)
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 12), st.text(max_size=4)),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["vertices", "facets", "x"]), inner, max_size=3),
    max_leaves=12,
)
VALID_JSON = complexes(9).map(lambda K: K.to_json())
COMPLEX_JSON = st.one_of(
    VALID_JSON,
    st.builds(
        lambda m, facets: json.dumps({"vertices": m, "facets": facets}),
        st.integers(0, 9),
        FACETS,
    ),
    JSON_VALUES.map(json.dumps),
    st.sampled_from(["", "{", "[1, 2", '{"vertices": 3}', "\ud800"]),
)


def _cli(argv, stdin=""):
    """(exit code, stdout, stderr) of cli.main on argv; argparse's own
    exits count as their codes."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), mock.patch.object(
        sys, "stdin", io.StringIO(stdin)
    ):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@seed(SEED)
@EXAMPLES
@given(st.one_of(EXPRESSIONS, VALID_JSON, GEN_TOKENS, COMPLEX_JSON))
def test_the_cli_keeps_its_exit_codes_on_drawn_input(source):
    # --gen token lists, or a complex file read from stdin, through every
    # command: each run exits 0-4 with no traceback, and prints JSON when
    # it exits 0 or 1
    for command in COMMANDS:
        if isinstance(source, list):
            code, out, err = _cli([*command, "--gen", *source, "--json"])
        else:
            code, out, err = _cli([*command, "-", "--json"], source)
        assert code in range(5), (command, code, err)
        assert "Traceback" not in err
        if code in (0, 1):
            json.loads(out)
