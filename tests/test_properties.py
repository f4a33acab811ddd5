"""Properties of the Hochster walk on generated complexes (Hypothesis).

Complexes on at most 10 vertices are drawn as facet lists, with every
vertex no facet covers added as an isolated point.  Every run draws the
same examples (derandomize, a fixed seed, no example database), so a
failure reproduces.

Beside the Smith-form oracle, the walk must respect two topological
facts: Z of a cone is Z_K times a disk, and Z of a join is the product
Z_K x Z_L, whose Poincare polynomial is the product of the two.  Tables
and the Golod and minimally non-Golod verdicts must not change when the
vertices are renamed.  The walk's component and dominated-vertex rules
are also checked subset by subset against oracles that look at K_I
alone.  The homology kernel that settles the rest keeps the Z/2 of
RP^2 through disjoint unions and joins.  Beside or joined with a drawn
complex, an RP^2 whose products are over F_2 only keeps the minimally
non-Golod report equal to searching every vertex deletion.
"""

from functools import reduce
from unittest import mock

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from momangle import (
    INT,
    PRIME,
    RAT,
    cone,
    from_facets,
    hochster,
    hochster_table,
    is_cup_golod,
    is_minimally_non_golod,
    mask_of,
    recognize_connected_sum,
    simplex,
    vertices_of,
)
from momangle.linalg import full_subcomplex_homology

from helpers import (
    RP2_FACETS,
    RP2_STELLAR_FACETS,
    reference_component,
    reference_dominated,
    reference_integral_table,
    reference_mng,
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
def test_walk_rules_agree_with_oracles_on_every_subset(K):
    # the buffers under the walk's comp and profile index arrays, captured
    # as the walk views them (comp first)
    made = []

    def recorded(buffer):
        made.append(buffer)
        return memoryview(buffer)

    with mock.patch.object(hochster, "memoryview", recorded, create=True):
        hochster._walk(K)
    buffer, _ = made
    comp = memoryview(buffer).cast("I")
    star = {1 << v: [f for f in K.facets if f >> v & 1] for v in range(K.m)}
    edges = {v: reduce(int.__or__, fs) for v, fs in star.items()}
    # the walk tries vertices with the fewest neighbours first, then the
    # narrowest neighbourhood span, then by label
    key = {
        v: (n.bit_count(), n // (n & -n), v) for v, n in edges.items()
    }
    order = sorted(edges, key=key.get)
    assert hochster._try_order(edges) == order
    seen = {}
    for I in range(1, 1 << K.m):
        assert comp[I] == reference_component(K, I), I
        if comp[I] != I or K.contains_mask(I):
            continue
        bits = [1 << (u - 1) for u in vertices_of(I)]
        want = [v for v in bits if reference_dominated(K, I, v)]
        for v in bits:
            got = hochster._dominates(v, I & edges[v], star[v])
            assert got == (v in want), (I, v)
        first = hochster._dominated(I, order, star, edges, seen)
        assert first == next((v for v in order if v in want), 0), I


@seed(SEED)
@EXAMPLES
@given(st.data())
def test_tables_are_invariant_under_relabelling(data):
    K = data.draw(complexes())
    perm = data.draw(st.permutations(range(1, K.m + 1)))
    L = K.relabel(perm)
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
    L = K.relabel(data.draw(st.permutations(range(1, K.m + 1))))
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
    L = K.relabel(data.draw(st.permutations(range(1, K.m + 1))))
    want, got = recognize_connected_sum(K), recognize_connected_sum(L)
    assert (got.kind, got.pairs) == (want.kind, want.pairs)


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
