import json
import random
import tracemalloc
from array import array
from collections import Counter
from itertools import combinations_with_replacement

import pytest

from momangle import (
    INT,
    PRIME,
    RAT,
    HOCHSTER_MAX_VERTICES,
    BadParams,
    HomologyProfile,
    SimplicialComplex,
    TooManyVertices,
    boundary_simplex,
    cone,
    disjoint_points,
    duality_check,
    format_poincare,
    from_facets,
    hochster_table,
    mask_of,
    polygon,
    simplex,
    stacked_sphere,
    verify_theorem_1_2,
    vertices_of,
)
from momangle import hochster, linalg
from momangle.hochster import _TABLES
from momangle.linalg import make_profile

from helpers import (
    PINCHED,
    RP2_FACETS,
    TORUS7,
    benchmark_inputs,
    brute_hochster_betti,
    cold_caches,
    reference_aggregates,
    reference_dominated,
    reference_field_table,
    reference_gorenstein,
    reference_integral_table,
    reference_lift,
    reference_over,
    reference_restrict,
    rp2_variants,
    trim,
)

PYRAMID = from_facets(5, [(1, 2, 5), (2, 3, 5), (3, 4, 5), (1, 4, 5)])


def test_square_table():
    t = hochster_table(polygon(4))
    assert t.betti == (1, 0, 0, 2, 0, 0, 1)
    assert t.bigraded == {(0, -1): 1, (2, 0): 2, (4, 1): 1}
    assert t.tor_bigraded == {(0, 0): 1, (-1, 4): 2, (-2, 8): 1}
    assert t.torsion_primes == ()
    assert t.top_degree == 6
    assert duality_check(t)


def test_low_degrees_always_vanish(corpus):
    # degree 0 carries exactly the unit; degrees 1 and 2 are empty
    for K in corpus[::7]:
        b = hochster_table(K, INT).betti
        assert b[0] == 1
        assert len(b) < 2 or b[1] == 0
        assert len(b) < 3 or b[2] == 0


def test_example_complex_table():
    t = hochster_table(PYRAMID)
    assert t.betti == (1, 0, 0, 2, 0, 0, 1, 0, 0)
    assert not duality_check(t)
    assert t.profile_of(0b01111).rank(1) == 1
    assert t.profile_of(0b00101).rank(0) == 1
    assert t.profile_of(0b00011).is_trivial


def test_brute_force_oracle_selection(random_corpus):
    picks = [
        polygon(4),
        polygon(6),
        PYRAMID,
        disjoint_points(4),
        boundary_simplex(3),
        from_facets(6, RP2_FACETS),
        *random_corpus[:10],
    ]
    for K in picks:
        t = hochster_table(K, INT)
        assert tuple(t.betti) == brute_hochster_betti(K), K
        assert tuple(t.over(PRIME(2)).betti) == brute_hochster_betti(K, 2), K


def test_walk_matches_the_smith_form_of_every_subset(corpus):
    # the face, component and dominated-vertex rules settle subsets from
    # smaller ones; the reference builds and eliminates every K_I.  The
    # cache is emptied so that no table restricted from a parent stands
    # in for a walked one.
    _TABLES.clear()
    for K in [*rp2_variants(), *corpus]:
        want = reference_integral_table(K).subsets
        assert hochster_table(K, INT).subsets == want, K


def test_restrict_matches_the_smith_form_of_deletions_and_cores(corpus):
    # K_J of K is K_J's own table: the subsets inside J, renumbered
    for K in [*rp2_variants(), *corpus]:
        table = hochster_table(K, INT)
        everything = (1 << K.m) - 1
        apexes, core = K.core()
        parts = [(everything & ~mask_of(apexes), core)]
        for v in range(1, K.m + 1):
            parts.append((everything & ~(1 << (v - 1)), K.delete_vertex(v)))
        for J, want in parts:
            got = table.restrict(J)
            assert got.complex == want and got.coeffs == INT, (K, J)
            assert got.subsets == reference_integral_table(want).subsets
    # the restricted table is the one hochster_table then returns
    _TABLES.clear()
    got = hochster_table(PYRAMID, INT).restrict(0b01111)
    assert hochster_table(PYRAMID.delete_vertex(5), INT) is got
    assert hochster_table(got.complex, RAT) == got.over(RAT)


def test_walk_matches_the_smith_form_on_benchmark_inputs():
    walk = benchmark_inputs("walk")
    assert [K.m for K in walk] == [14, 13, 11, 12, 12]
    for K in walk:
        want = reference_integral_table(K).subsets
        assert hochster_table(K, INT).subsets == want, K


def _fills(monkeypatch):
    """The dimensions hochster._fill_by_duality is called with from now
    on, one per table filled by duality."""
    fills = []

    def fill(*args):
        fills.append(args[-1])
        return plain_fill(*args)

    plain_fill = hochster._fill_by_duality
    monkeypatch.setattr(hochster, "_fill_by_duality", fill)
    return fills


def test_sphere_tables_are_filled_by_duality(corpus, monkeypatch):
    # the subsets through the last vertex of a sphere are the complements
    # of the walked ones; each table must still equal the Smith form of
    # every full subcomplex.  The spheres: every Gorenstein* member of the
    # corpus (by the face scan) but the empty complex, which has no subset
    # to fill, polygons, stacked spheres, boundaries of simplices, and
    # joins and suspensions of spheres.
    atoms = [
        polygon(4),
        polygon(5),
        boundary_simplex(2),
        boundary_simplex(3),
        stacked_sphere(2, 1),
        disjoint_points(2),
    ]
    members = [K for K in corpus if K.m and reference_gorenstein(K).value]
    assert len(members) == 37
    spheres = [
        *members,
        *(polygon(m) for m in range(4, 15)),
        *(stacked_sphere(2, k) for k in range(10)),
        *(stacked_sphere(3, k) for k in range(6)),
        *(boundary_simplex(n) for n in range(1, 14)),
        *(a.join(b) for a, b in combinations_with_replacement(atoms, 2)),
        *(K.join(disjoint_points(2)) for K in [*atoms, polygon(7)]),
        stacked_sphere(3, 2).join(disjoint_points(2)),
    ]
    fills = _fills(monkeypatch)
    for K in dict.fromkeys(spheres):
        _TABLES.clear()
        fills.clear()
        table = hochster_table(K, INT)
        assert fills == [K.dim], K
        assert table == reference_integral_table(K), K
        # the aggregates count the lower half and reflect it
        for t in (table, table.over(RAT), table.over(PRIME(2))):
            assert _aggregates(t) == reference_aggregates(t), (K, t.coeffs)


def test_aggregates_count_the_walked_half_of_a_sphere(monkeypatch):
    # a table filled by duality, its field tables and a lift that shares
    # its index count the lower half of the index, one call of _sizes per
    # aggregate; a re-laid lift and a table walked in full count every
    # mask.  Dropping the sphere's dimension in over or in the lift shows
    # here as a count.
    counts = []

    def sizes(n):
        counts.append(n)
        return plain_sizes(n)

    plain_sizes = hochster._sizes
    monkeypatch.setattr(hochster, "_sizes", sizes)
    base, other = polygon(11), benchmark_inputs("walk")[-1]
    assert other.m == 12
    cases = [
        (polygon(14), INT, 1 << 13),
        (polygon(14), RAT, 1 << 13),
        (stacked_sphere(2, 9), INT, 1 << 12),
        (stacked_sphere(2, 9), RAT, 1 << 12),
        (base, INT, 1 << 10),
        (cone(base), INT, 1 << 10),  # the apex is the top label
        (simplex(1).join(polygon(6)), INT, 1 << 8),
        (from_facets(6, RP2_FACETS), INT, 1 << 6),
        (other, INT, 1 << 12),
    ]
    _TABLES.clear()
    for K, coeffs, want in cases:
        table = hochster_table(K, coeffs)
        counts.clear()
        got = _aggregates(table)
        assert counts == [want], (K, str(coeffs))
        assert got == reference_aggregates(table), (K, str(coeffs))


def test_point_coset_slices_match_the_subset_loop():
    # _add_a_point writes idx[top + X] = plus[idx[X]] for X inside free
    # as strided slices over a run of at least 3 of free's bits.  For
    # every top up to 2^8 with every below, and random tops up to 2^11,
    # it must leave the index the per-subset loop leaves.
    rng = random.Random(0)
    plus = {k: 7 * k + 1 for k in range(6)}
    cases = [(1 << b, below) for b in range(9) for below in range(1 << b)]
    cases += [(1 << b, rng.randrange(1 << b)) for b in (9, 10, 11) for _ in range(40)]
    for top, below in cases:
        free = (top - 1) ^ below
        want = array("I", (rng.randrange(6) for _ in range(2 * top)))
        got = memoryview(array("I", want))
        for X in hochster._submasks(free):
            want[top | X] = plus[want[X]]
        hochster._add_a_point(got, top, free, plus)
        assert got.tolist() == want.tolist(), (top, below)


def test_manifolds_that_are_not_spheres_walk_every_subset(monkeypatch):
    # RP^2 and the torus have vertex links that are circles, but K less a
    # vertex is not acyclic; the pinched suspension less an apex is a
    # cone, but that apex's link is two triangles.  None is filled.
    fills = _fills(monkeypatch)
    for K in [from_facets(6, RP2_FACETS), TORUS7, PINCHED, *rp2_variants()]:
        _TABLES.clear()
        table = hochster_table(K, INT)
        assert table == reference_integral_table(K), K
    assert fills == []


def test_dual_profiles_obey_universal_coefficients():
    # Alexander duality in a homology D-sphere gives H~_i(K_(V - I)) =
    # H~^(D-1-i)(K_I), and over a field cohomology has the dimensions of
    # homology: the field Betti numbers of the dual profile in degree i
    # are the profile's in degree D - 1 - i, over Q and over F_p for p
    # dividing the torsion or not.  Torsion shifts one degree further
    # than the ranks, so a dual that moves it with them fails over F_p.
    profiles = [
        make_profile(INT, {}),
        make_profile(INT, {-1: 1}),
        make_profile(INT, {0: 2, 1: 1}),
        make_profile(INT, {1: 1}, {1: [2]}),
        make_profile(INT, {0: 1}, {1: [2, 4], 2: [3]}),
        make_profile(INT, {2: 3}, {1: [9, 5]}),
    ]
    for D in range(3, 7):
        for prof in profiles:
            dual = hochster._dual(prof, D)
            assert hochster._dual(dual, D) == prof
            assert dual.torsion_primes() == prof.torsion_primes()
            for coeffs in (RAT, PRIME(2), PRIME(3), PRIME(5)):
                want, got = prof.over_field(coeffs), dual.over_field(coeffs)
                for i in range(-1, D + 1):
                    assert got.rank(i) == want.rank(D - 1 - i), (prof, D, i)


def _homology_work(monkeypatch):
    """Counts of the walk's homology work from now on: calls of the
    homology kernel, link homologies asked by the duality gate
    (reduced_homology), Smith forms (int_invariant_factors), and full
    subcomplexes built while hochster._walk runs."""
    work = {"kernel": 0, "links": 0, "smith": 0, "built": 0}
    walking = []

    def counter(key, fn):
        def counted(*args):
            if key != "built" or walking:
                work[key] += 1
            return fn(*args)

        return counted

    def walk(K):
        walking.append(K)
        try:
            return plain_walk(K)
        finally:
            walking.pop()

    plain_walk = hochster._walk
    monkeypatch.setattr(hochster, "_walk", walk)
    monkeypatch.setattr(
        hochster,
        "full_subcomplex_homology",
        counter("kernel", hochster.full_subcomplex_homology),
    )
    monkeypatch.setattr(
        hochster,
        "reduced_homology",
        counter("links", hochster.reduced_homology),
    )
    monkeypatch.setattr(
        linalg,
        "int_invariant_factors",
        counter("smith", linalg.int_invariant_factors),
    )
    monkeypatch.setattr(
        SimplicialComplex,
        "full_subcomplex",
        counter("built", SimplicialComplex.full_subcomplex),
    )
    return work


def test_walk_settles_subsets_without_the_smith_form(monkeypatch):
    # work counts from empty caches.  Each of these is a sphere, so the
    # subsets through its last vertex are filled by Alexander duality from
    # their complements, and only the subsets without it are walked.
    # Each of those of a polygon is a point beside a smaller subset, or
    # has its top vertex on an edge; those of a stacked sphere collapse
    # likewise but for 88 graphs; those of the boundary of a simplex are
    # faces.
    # The gate asks the homology of each distinct vertex link, and of
    # theirs in turn, once: S^0 and the empty complex for the polygon,
    # the 3-, 4- and 12-gon besides for the stacked sphere, and the
    # boundaries of the 12- down to the 0-simplex for the boundary of
    # the 13-simplex.  None of them reaches a Smith form.
    work = _homology_work(monkeypatch)
    for K, calls, links in [
        (polygon(14), 0, 2),
        (stacked_sphere(2, 9), 88, 5),
        (boundary_simplex(13), 0, 13),
    ]:
        cold_caches()
        work.update(kernel=0, links=0, smith=0)
        hochster_table(K, INT)
        want = {"kernel": calls, "links": links, "smith": 0, "built": 0}
        assert work == want, K


def test_walk_builds_traces_only_in_walked_cosets(monkeypatch):
    # the walk takes the subsets top + S + X through each top vertex in
    # cosets of S, top's neighbours below it, with X among its other
    # vertices below it.  It reads traces only in the cosets where top + S
    # is no face and top is not dominated in K_(top + S): the coset test
    # runs once per non-face top + S with some X to vary, and the
    # domination step once per subset of a walked coset.  That step tries
    # the vertices v of I to the first dominated one, fewest neighbours
    # first, then the narrowest neighbourhood span, then by label, and
    # runs the neighbourhood test once per distinct (v, I & N(v)).  Both
    # complexes are spheres, so the block through the last vertex is
    # filled by duality.  Every coset of the 14-cycle is a point coset or
    # an edge, so nothing is walked subset by subset (the walk that
    # visited every subset took 66 steps and 32 tests); the apexes of the
    # suspension of the 8-gon walk theirs.
    steps, tests = [], []

    def counted_step(I, *args):
        steps.append(I)
        return dominated(I, *args)

    def counted_test(v, J, facets):
        tests.append((v, J))
        return dominates(v, J, facets)

    dominated, dominates = hochster._dominated, hochster._dominates
    monkeypatch.setattr(hochster, "_dominated", counted_step)
    monkeypatch.setattr(hochster, "_dominates", counted_test)
    suspension = polygon(8).join(disjoint_points(2))
    for K, n_steps, n_tests in [(polygon(14), 0, 0), (suspension, 271, 28)]:
        cold_caches()
        steps.clear()
        tests.clear()
        hochster_table(K, INT)
        want_steps, want_tests = _predicted_walk(K, 1 << K.m >> 1)
        assert steps == want_steps, K
        assert Counter(tests) == want_tests, K
        assert (len(steps), len(tests)) == (n_steps, n_tests), K


def _predicted_walk(K, visited):
    """The subsets the walk of K below the mask visited takes one at a
    time, in order, and the count of its neighbourhood tests per (v, J),
    from reference_dominated and K's faces."""
    near = {  # N(v), the vertices of v's facets, per vertex bit v
        1 << (u - 1): mask_of(
            w for f in K.facets if f >> (u - 1) & 1 for w in vertices_of(f)
        )
        for u in range(1, K.m + 1)
    }
    key = {
        v: (n.bit_count(), n // (n & -n), v) for v, n in near.items()
    }
    order = sorted(near, key=key.get)
    steps, tests, tried = [], Counter(), set()
    for top in (1 << u for u in range(K.m) if 1 << u < visited):
        below = near[top] & (top - 1)
        free = (top - 1) ^ below
        for S in range(1, below + 1):
            if S & ~below or K.contains_mask(top | S):
                continue
            if free:
                tests[top, top | S] += 1
                if reference_dominated(K, top | S, top):
                    continue
            steps += [top | S | X for X in range(free + 1) if not X & ~free]
    for I in steps:
        for v in order:
            if I & v:
                tried.add((v, I & near[v]))
                if reference_dominated(K, I, v):
                    break
    return steps, tests + Counter(tried)


def test_walk_neighbourhood_tests_stay_few(monkeypatch):
    # a work count, not a timing: the neighbourhood tests the walk runs
    # from empty caches.  Trying the fewest neighbours first lets the
    # memos hit; trying the lowest label first ran 8,247 tests on the
    # stacked sphere (its degree-12 apexes are vertices 1 and 2) and 8,413
    # on the benchmark's walk inputs, walking the subsets that duality
    # fills ran 282 and 389, and walking every subset past the coset rule
    # ran 271 and 366.  The 89 subsets of those inputs no rule
    # settles go to the homology kernel, straight off K's facets: no K_I
    # is built and none reaches a Smith form.  The duality gate asks the
    # homology of 5 distinct links: S^0, the empty complex, and the 3-,
    # 4- and 12-gon.
    work = _homology_work(monkeypatch)
    tests = []

    def counted_test(*args):
        tests.append(args)
        return dominates(*args)

    dominates = hochster._dominates
    monkeypatch.setattr(hochster, "_dominates", counted_test)
    cold_caches()
    hochster_table(stacked_sphere(2, 9), INT)
    assert len(tests) == 224
    cold_caches()
    tests.clear()
    work.update(kernel=0, links=0, smith=0)
    for K in benchmark_inputs("walk"):
        hochster_table(K, INT)
    assert len(tests) == 320
    assert work == {"kernel": 89, "links": 5, "smith": 0, "built": 0}


def test_walk_splits_disjoint_unions_before_the_kernel(monkeypatch):
    # a walked K_I with no dominated vertex that falls apart is the
    # disjoint union of the component of its top vertex, found by a
    # search over neighbour masks, and the rest.  Two disjoint copies of
    # RP^2 and the 5-gon beside the 6-gon send no more subsets to the
    # kernel than the walk that stored every subset's component did (34
    # and 2; 425 and 13 when nothing splits).
    work = _homology_work(monkeypatch)
    shifted = [[v + 5 for v in vertices_of(f)] for f in polygon(6).facets]
    pentagon = map(vertices_of, polygon(5).facets)
    polygons = from_facets(11, [*pentagon, *shifted])
    for K, calls in [(rp2_variants()[2], 34), (polygons, 2)]:
        want = reference_integral_table(K)
        cold_caches()
        work.update(kernel=0)
        assert hochster_table(K, INT) == want, K
        assert work["kernel"] <= calls, K


def _counted_walks(monkeypatch):
    """Vertex counts of the tables hochster._walk builds from now on."""
    walked = []

    def counted(K):
        walked.append(K.m)
        return walk(K)

    walk = hochster._walk
    monkeypatch.setattr(hochster, "_walk", counted)
    return walked


def _cones(corpus):
    """Every corpus complex with a cone vertex (simplices included), the
    cone over RP^2 (torsion) and a cone over a cone."""
    rp2 = from_facets(6, RP2_FACETS)
    coned = [K for K in corpus if K.core()[0]]
    return [*coned, cone(rp2), cone(cone(polygon(5)))]


def test_cone_tables_lift_the_core_table(corpus):
    # a full subcomplex through a cone vertex is a cone: the table of
    # simplex(S) * core is the core's, masks spread over the core's vertices
    cones = _cones(corpus)
    assert len(cones) > 30
    for core_first in (True, False):
        _TABLES.clear()
        for K in cones:
            _, core = K.core()
            if core_first:
                hochster_table(core, INT)
            want = reference_integral_table(K).subsets
            assert hochster_table(K, INT).subsets == want, (core_first, K)
            got = hochster_table(core, INT).subsets
            assert got == reference_integral_table(core).subsets, K


def test_a_cone_after_its_base_walks_nothing(monkeypatch):
    walked = _counted_walks(monkeypatch)
    _TABLES.clear()
    base = hochster_table(polygon(11), INT)
    assert walked == [11]
    table = hochster_table(cone(polygon(11)), INT)
    assert walked == [11]
    assert table.index is base.index  # the apex is the top label
    # a cone asked first walks its core only, which is then cached
    _TABLES.clear()
    hochster_table(cone(cone(polygon(6))), INT)
    hochster_table(polygon(6), INT)
    assert walked == [11, 6]
    # a simplex is a cone over the empty complex, which is all it walks
    _TABLES.clear()
    table = hochster_table(simplex(19), INT)
    assert [I for I, _ in table.subsets] == [0]
    assert walked == [11, 6, 0]


def test_a_cone_with_its_apex_on_top_shares_the_core_subsets():
    # cone() puts the apex at label m+1: the core is vertices 1..m and
    # lifting its masks is the identity, so the cone takes its index
    _TABLES.clear()
    table = hochster_table(cone(polygon(9)), INT)
    core = hochster_table(polygon(9), INT)
    assert table.index is core.index
    assert table.subsets == reference_integral_table(table.complex).subsets
    # an apex below the core spreads the masks
    low = hochster_table(simplex(0).join(polygon(9)), INT)
    assert low.subsets == tuple((I << 1, p) for I, p in core.subsets)


def test_verify_walks_only_the_core(monkeypatch):
    walked = _counted_walks(monkeypatch)
    _TABLES.clear()
    report = verify_theorem_1_2(cone(polygon(5)))
    assert report.status == "CONFIRMED"
    assert walked == [5]


def test_an_equal_complex_under_other_labels_walks_nothing(monkeypatch):
    # the join's core is polygon(9) on vertices 2..10: its table is the
    # cached one of polygon(9)
    walked = _counted_walks(monkeypatch)
    _TABLES.clear()
    base = hochster_table(polygon(9), INT)
    table = hochster_table(simplex(0).join(polygon(9)), INT)
    assert walked == [9]
    core = hochster_table(table.complex.core()[1], INT)
    assert core.index is base.index
    assert table.subsets == tuple((I << 1, p) for I, p in base.subsets)


def test_a_restricted_table_is_the_cached_table_of_its_complex():
    # K_{1,3,4} of a path and the complex built directly are one complex,
    # with one cached table
    _TABLES.clear()
    path = from_facets(4, [(1, 2), (2, 3), (3, 4)])
    restricted = hochster_table(path, INT).restrict(0b1101)
    direct = hochster_table(from_facets(3, [(1,), (2, 3)]), INT)
    assert direct.subsets == restricted.subsets
    assert direct is restricted
    assert hochster_table(from_facets(3, [(1,), (2, 3)]), INT) is direct
    assert hochster_table(path, INT).restrict(0b1101) is restricted
    deleted = hochster_table(path.delete_vertex(2), RAT)
    assert deleted == restricted.over(RAT)
    assert _TABLES[deleted.complex, RAT] is deleted


def _increasing(table):
    masks = [mask for mask, _ in table.subsets]
    return all(a < b for a, b in zip(masks, masks[1:]))


def test_profile_of_reads_every_mask_off_the_subsets(corpus):
    # profile_of reads the index and subsets the pairs, in strictly
    # increasing mask order, and both agree on every table: walked, lifted
    # from a core, shared by an equal complex, restricted and derived over
    # a field; a mask outside 0..2^m - 1 is trivial
    _TABLES.clear()
    tables = []
    for K in [*rp2_variants(), *corpus]:
        t = hochster_table(K, INT)
        everything = (1 << K.m) - 1
        core = hochster_table(K.core()[1], INT)
        tables += [hochster._walk(K), t, core, t.over(RAT), t.over(PRIME(2))]
        tables += [t.restrict(everything & ~(1 << v)) for v in range(K.m)]
    lifted = [t for t in tables if t.complex.core()[0] and t.complex.core()[1].m]
    assert len(lifted) > 30
    for t in tables:
        assert _increasing(t), t.complex
        stored = dict(t.subsets)
        trivial = HomologyProfile(t.coeffs, ())
        got = [t.profile_of(I) for I in range(1 << t.m)]
        assert got == [stored.get(I, trivial) for I in range(1 << t.m)]
        outside = (-1, 1 << t.m, 1 << (t.m + 5))
        assert [t.profile_of(I) for I in outside] == [trivial] * 3


def _aggregates(table):
    return table.bigraded, table.rk_betti, table.torsion_primes


def test_restrict_matches_the_compressed_pairs(corpus):
    # restrict deletes the bits outside J from the index by slice copies;
    # the reference compresses every stored mask inside J.  A restricted
    # table shares profiles its index may not reach (RP^2 minus a vertex
    # keeps the Z/2 profile), so its aggregates are checked too.
    for K in [*rp2_variants(), *corpus]:
        if K.m > 8:
            continue
        _TABLES.clear()
        t = hochster_table(K, INT)
        for J in range(1 << K.m):
            got = t.restrict(J)
            assert got == reference_restrict(t, J), (K, J)
            assert _aggregates(got) == reference_aggregates(got), (K, J)
            has_torsion = any(prof.torsion for _, prof in got.subsets)
            assert has_torsion == bool(got.torsion_primes)


def test_lifts_match_the_lifted_pairs(corpus):
    # a core's index gains a zero bit per cone vertex: the apex on top
    # (shared index), a simplex joined below, and a point in the middle
    for K in [*rp2_variants(), *corpus]:
        if K.m > 8:
            continue
        for L in (
            cone(K),
            simplex(1).join(K),
            K.join(simplex(0)).join(disjoint_points(2)),
        ):
            _TABLES.clear()
            got = hochster_table(L, INT)
            assert got == reference_lift(L), L
            assert _aggregates(got) == reference_aggregates(got), L


def test_over_matches_the_converted_pairs(corpus):
    # a field table converts each distinct profile and shares the index;
    # a profile trivial over the field counts as trivial
    for K in [*rp2_variants(), *corpus]:
        t = hochster_table(K, INT)
        assert _aggregates(t) == reference_aggregates(t), K
        for coeffs in (RAT, PRIME(2), PRIME(3)):
            got = t.over(coeffs)
            assert got.index is t.index
            assert got == reference_over(t, coeffs), (K, str(coeffs))
            assert _aggregates(got) == reference_aggregates(got)


def test_a_table_holds_its_index_and_builds_no_pairs():
    # a memory bound, not a timing: walking polygon(14) from empty caches
    # and printing its table keeps a 64 KB index and its profiles.
    # Building the (mask, profile) pairs of its 16,202 nonzero subsets
    # took about 1.4 MB more, and the peak was about 1.6 MB.
    _TABLES.clear()
    tracemalloc.start()
    try:
        table = hochster_table(polygon(14), INT)
        table.to_dict()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "subsets" not in vars(table)
    assert peak < 512 * 1024


def test_field_table_derivation_matches_direct(corpus):
    # the per-subset field profiles derived by universal coefficients
    # equal those of a direct field walk over every full subcomplex
    for K in [from_facets(6, RP2_FACETS), *corpus]:
        for coeffs in (RAT, PRIME(2), PRIME(3)):
            derived = hochster_table(K, coeffs)
            direct = reference_field_table(K, coeffs)
            assert derived.coeffs == coeffs
            assert derived.subsets == direct.subsets, (K, str(coeffs))


def test_field_tables_reuse_the_integral_walk(monkeypatch):
    # RP^2 plus a disjoint edge: torsion makes the F_3 and Q tables
    # differ from the F_2 one, and no other test builds this complex
    K = from_facets(8, (*RP2_FACETS, (7, 8)))
    t = hochster_table(K, INT)
    walked = _counted_walks(monkeypatch)
    work = _homology_work(monkeypatch)
    q = hochster_table(K, RAT)
    assert q.subsets and q.subsets == t.over(RAT).subsets
    assert hochster_table(K, PRIME(3)).subsets
    # each field table is derived once: a repeated call returns it
    assert hochster_table(K, RAT) is q
    assert hochster_table(K, PRIME(3)) is hochster_table(K, PRIME(3))
    assert hochster_table(K, INT) is t
    assert walked == [] and work["kernel"] == 0


def test_over_validation():
    t = hochster_table(polygon(4), INT)
    assert t.over(INT) is t
    with pytest.raises(BadParams):
        t.over(RAT).over(PRIME(2))


def test_torsion_detection():
    t = hochster_table(from_facets(6, RP2_FACETS), INT)
    assert t.torsion_primes == (2,)
    assert any(prof.torsion for _, prof in t.subsets)
    assert trim(t.over(PRIME(2)).betti) != trim(t.over(RAT).betti)


def test_simplex_is_contractible():
    for n in range(4):
        t = hochster_table(simplex(n))
        assert trim(t.betti) == (1,)


def test_sphere_tables():
    # Z over the boundary of the simplex on m vertices is S^(2m-1)
    t = hochster_table(boundary_simplex(3))
    assert trim(t.betti) == (1, 0, 0, 0, 0, 0, 0, 1)
    assert duality_check(t)


def test_poincare_formatting():
    t = hochster_table(polygon(4))
    assert format_poincare(t.betti) == "1 + 2*t^3 + t^6"
    assert format_poincare((0, 0)) == "0"
    assert format_poincare((2, 1)) == "2 + t^1"


def test_vertex_cap():
    with pytest.raises(TooManyVertices) as exc:
        hochster_table(polygon(21))
    assert exc.value.m == 21 and exc.value.cap == HOCHSTER_MAX_VERTICES == 20
    with pytest.raises(TooManyVertices):
        hochster_table(disjoint_points(21), RAT)


def test_json_payload():
    t = hochster_table(PYRAMID)
    data = json.loads(t.to_json())
    assert data["vertices"] == 5 and data["dim"] == 2
    assert data["coeffs"] == "int"
    assert data["betti"] == [1, 0, 0, 2, 0, 0, 1, 0, 0]
    assert [3, 1, 1] in data["bigraded"] or [4, 1, 1] in data["bigraded"]
    assert data["torsion_primes"] == []
    assert all(len(row) == 3 for row in data["tor_bigraded"])
