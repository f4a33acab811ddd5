import contextlib
import io
import json
from collections import Counter
from dataclasses import replace

import pytest

from momangle import classify, hochster, products
from momangle import (
    INT,
    PRIME,
    RAT,
    EmptySubset,
    HochsterTable,
    OutOfRange,
    SimplicialComplex,
    boundary_simplex,
    cone,
    disjoint_points,
    from_facets,
    hochster_table,
    is_gorenstein_star,
    is_minimally_non_golod,
    mask_of,
    polygon,
    product_table,
    recognize_connected_sum,
    simplex,
    stacked_sphere,
    tfae_check,
    tor_basis,
    verify_theorem_1_1,
    verify_theorem_1_2,
    verify_theorem_4_2,
    vertices_of,
)
from momangle.cli import main
from momangle.linalg import make_profile

from helpers import (
    PINCHED,
    RP2_FACETS,
    RP2_STELLAR_FACETS,
    TORUS7,
    TWO_TRIANGLES,
    benchmark_inputs,
    cold_caches,
    reference_deletion_candidates,
    reference_gorenstein,
    reference_gram_rank,
    reference_integral_table,
    reference_mng,
    reference_recognize,
    rp2_variants,
)

PYRAMID = from_facets(5, [(1, 2, 5), (2, 3, 5), (3, 4, 5), (1, 4, 5)])
PATH3 = from_facets(3, [(1, 2), (2, 3)])


def _count_calls(monkeypatch, owner, name):
    """Record the arguments of every call of owner.name in a list."""
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


# -- minimally non-Golod -------------------------------------------------


def test_mng_square():
    rep = is_minimally_non_golod(polygon(4))
    assert rep.value is True
    assert rep.witness_vertex is None
    assert rep.witness["field"] == "q"


def test_mng_example_fails_at_apex():
    rep = is_minimally_non_golod(PYRAMID)
    assert rep.value is False
    assert rep.witness_vertex == 5
    assert rep.witness is not None


def test_mng_golod_complex():
    rep = is_minimally_non_golod(PATH3)
    assert rep.value is False
    assert rep.witness_vertex is None
    assert "no nonzero cup products" in rep.witness["reason"]


def test_mng_polygons():
    # deleting any polygon vertex leaves a path, which is Golod
    assert is_minimally_non_golod(polygon(5)).value is True
    assert is_minimally_non_golod(polygon(6)).value is True


def test_mng_builds_one_basis_per_relabelled_full_subcomplex(monkeypatch):
    # The 9-cycle is non-Golod over Q; its deletions are paths, and no
    # deletion is searched, as its one target of positive degree is K.
    # The product search builds a basis only when a pair first reaches a
    # component, and its first pair already multiplies to the witness:
    # one build per distinct relabelled K_I among the witness's first,
    # second and target components, from cold caches.
    K = polygon(9)
    calls = _count_calls(monkeypatch, products, "cocycle_basis")
    cold_caches()
    rep = is_minimally_non_golod(K)
    assert rep.value is True
    x, y = rep.witness["x"], rep.witness["y"]
    components = [
        (x["subset"], x["degree"]),
        (y["subset"], y["degree"]),
        (x["subset"] + y["subset"], x["degree"] + y["degree"] + 1),
    ]
    distinct = {(K.full_subcomplex(I), d) for I, d in components}
    assert len(calls) == len(distinct) == 3


def _stellar_rp2_beside(L):
    """The subdivided RP^2 on 1..7 and L on the labels after it."""
    shifted = [[v + 7 for v in vertices_of(f)] for f in L.facets]
    return from_facets(7 + L.m, [*RP2_STELLAR_FACETS, *shifted])


def test_mng_matches_the_deletion_oracle(corpus):
    # Every report, witness included, is the one restricting and
    # searching every deletion gives.  The two disjoint copies of RP^2
    # are left out: they are product-free, so no deletion is reached, and
    # their Golod test alone takes 20 s.
    variants = [K for K in rp2_variants() if K.m <= 11]
    stellar = from_facets(7, RP2_STELLAR_FACETS)
    extra = [stellar, cone(stellar), _stellar_rp2_beside(disjoint_points(1))]
    for K in [*corpus, *variants, *extra]:
        assert is_minimally_non_golod(K).to_dict() == reference_mng(K).to_dict(), K


def test_mng_reads_a_product_over_f2_only_off_the_table():
    # K - 8 is the subdivided RP^2, whose products are over F_2 only, so
    # only the read-off over F_2 makes vertex 8 a candidate; the deletions
    # before it are candidates too, and searched, and product-free
    K = _stellar_rp2_beside(disjoint_points(1))
    assert products.is_cup_golod(K.delete_vertex(8)).witness["field"] == "f2"
    assert products._deletion_candidates(K) == 0b10111111
    rep = is_minimally_non_golod(K)
    assert (rep.value, rep.witness_vertex, rep.witness["field"]) == (False, 8, "f2")


def test_deletion_candidates_are_the_complements_of_split_targets(
    corpus, monkeypatch
):
    # The candidates are the vertices outside a target that the scan over
    # every pair of components reaches, over Q and each torsion prime;
    # with the field bound lowered below 2, every vertex of a K with
    # 2-torsion is one.
    variants = [K for K in rp2_variants() if K.m <= 11]
    cases = [
        *corpus,
        *variants,
        *map(polygon, range(4, 11)),
        *(stacked_sphere(2, n) for n in range(7)),
    ]
    kinds = set()
    for K in cases:
        mask = products._deletion_candidates(K)
        assert mask == reference_deletion_candidates(K), K
        kinds.add("none" if not mask else "all" if mask == (1 << K.m) - 1 else "some")
    assert kinds == {"none", "some", "all"}
    monkeypatch.setattr(products, "MAX_FIELD_PRIME", 1)
    for K in variants:
        assert hochster_table(K, INT).torsion_primes == (2,)
        assert products._deletion_candidates(K) == (1 << K.m) - 1, K
        assert reference_deletion_candidates(K, bound=1) == (1 << K.m) - 1


def _count_listings(monkeypatch):
    """Count the pair listings of every (complex, field): each lists the
    components of the table that products.hochster_table gave last."""
    asked, listed = [], Counter()
    table, sorted_pairs = products.hochster_table, products._sorted_pairs

    def counted_table(K, coeffs=INT):
        asked.append((K, coeffs))
        return table(K, coeffs)

    def counted_pairs(keys):
        listed[asked[-1]] += 1
        return sorted_pairs(keys)

    monkeypatch.setattr(products, "hochster_table", counted_table)
    monkeypatch.setattr(products, "_sorted_pairs", counted_pairs)
    return listed


@pytest.mark.parametrize(
    "K, restricts, listings, witness_vertex",
    [
        (polygon(9), 0, 1, None),
        (stacked_sphere(2, 6), 0, 1, None),
        (cone(polygon(6)), 1, 2, 7),
    ],
    ids=["polygon9", "stacked_sphere2_6", "cone_polygon6"],
)
def test_mng_restricts_only_the_candidate_deletions(
    K, restricts, listings, witness_vertex, monkeypatch
):
    # From cold caches: a deletion is restricted and searched only when a
    # pair that K's Golod search lists has a target avoiding it, and the
    # candidates read that listing: each (complex, field) is listed once.
    # polygon(9)'s one such target is K; the cone's is the base polygon,
    # so only the apex, the witness, is tried, and K - 7 is listed too.
    cold_caches()
    restrict = _count_calls(monkeypatch, HochsterTable, "restrict")
    listed = _count_listings(monkeypatch)
    rep = is_minimally_non_golod(K)
    assert (rep.witness_vertex, len(restrict)) == (witness_vertex, restricts)
    assert (K, RAT) in listed
    assert (len(listed), set(listed.values())) == (listings, {1})
    assert rep.to_dict() == reference_mng(K).to_dict()


def test_mng_scans_each_listed_table_once(monkeypatch):
    # The listing keeps the components it numbers, and the product search
    # and the deletion candidates read them from there: from cold caches,
    # HochsterTable.components() scans each listed table once.
    cold_caches()
    scans = _count_calls(monkeypatch, HochsterTable, "components")
    listed = _count_listings(monkeypatch)
    assert is_minimally_non_golod(stacked_sphere(2, 6)).value is True
    assert Counter((t.complex, t.coeffs) for t, in scans) == listed
    assert sum(listed.values()) == 1


def test_analyze_lists_each_complex_and_field_once(monkeypatch, tmp_path):
    # From cold caches, analyze asks for K's pairs over Q in the Golod
    # test, the deletion candidates and recognition's product table, and
    # over F_2 as well for RP^2's 2-torsion; deletions it searches are
    # complexes of their own.  Every (complex, field) is listed once.
    rp2 = from_facets(6, RP2_FACETS)
    for K, fields in [
        (polygon(7), {RAT}),
        (cone(polygon(5)), {RAT}),
        (stacked_sphere(2, 4), {RAT}),
        (rp2, {RAT, PRIME(2)}),
    ]:
        cold_caches()
        listed = _count_listings(monkeypatch)
        path = tmp_path / "k.json"
        path.write_text(K.to_json())
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["analyze", str(path), "--json"]) == 0
        assert {f for L, f in listed if L == K} == fields, K
        assert set(listed.values()) == {1}, K
        monkeypatch.undo()


def test_mng_tries_every_deletion_past_the_field_bound(monkeypatch):
    # RP^2 with a vertex 7 coned over its edges 14, 24, 26 and 46: K is
    # non-Golod over Q, every K - v is product-free, and only K - 7 = RP^2
    # has torsion.  No target splits, so no deletion is tried.  With the
    # field bound lowered below 2, the Z/2 cannot be tested: every
    # deletion is tried, K - 7 is undecided, and so is K.
    K = from_facets(7, [*RP2_FACETS, (1, 4, 7), (2, 4, 7), (2, 6, 7), (4, 6, 7)])
    cold_caches()
    restrict = _count_calls(monkeypatch, HochsterTable, "restrict")
    assert is_minimally_non_golod(K).value is True
    assert len(restrict) == 0
    monkeypatch.setattr(products, "MAX_FIELD_PRIME", 1)
    try:
        cold_caches()
        assert products._deletion_candidates(K) == (1 << 7) - 1
        rep = is_minimally_non_golod(K)
        assert (rep.value, len(restrict)) == (None, 7)
        assert "not tested: 2" in rep.caveats[-1]
        assert rep.to_dict() == reference_mng(K).to_dict()
    finally:
        cold_caches()  # no report of the lowered bound stays cached


def test_the_package_builds_no_table_pairs():
    # Every caller reads the components off a table's index: no table it
    # caches builds its (mask, profile) pairs, HochsterTable.subsets.
    cold_caches()
    rp2 = from_facets(6, RP2_FACETS)
    for K in (polygon(6), cone(polygon(5)), rp2, cone(rp2), stacked_sphere(2, 3)):
        for coeffs in (RAT, PRIME(2)):
            assert tor_basis(K, coeffs) and product_table(K, coeffs)
        tfae_check(K, K.core_vertices())
        is_gorenstein_star(K)
        is_minimally_non_golod(K)
        recognize_connected_sum(K)
        for verify in (verify_theorem_1_1, verify_theorem_1_2, verify_theorem_4_2):
            verify(K)
    assert len(hochster._TABLES) > 10
    assert [t for t in hochster._TABLES.values() if "subsets" in vars(t)] == []


def test_mng_report_dict():
    data = is_minimally_non_golod(PYRAMID).to_dict()
    assert data["minimally_non_golod"] is False
    assert data["witness_vertex"] == 5
    assert data["caveats"]


# -- Gorenstein* ----------------------------------------------------------


def test_gorenstein_spheres():
    assert is_gorenstein_star(polygon(4)).value is True
    assert is_gorenstein_star(polygon(7)).value is True
    assert is_gorenstein_star(boundary_simplex(3)).value is True
    assert is_gorenstein_star(disjoint_points(2)).value is True
    assert is_gorenstein_star(stacked_sphere(2, 2)).value is True


def test_gorenstein_cone_vertex_blocks():
    rep = is_gorenstein_star(PYRAMID)
    assert rep.value is False
    assert rep.witness["cone_vertices"] == [5]


def test_gorenstein_cone_vertex_reason():
    rep = is_gorenstein_star(PATH3)
    assert rep.value is False
    assert rep.witness["cone_vertices"] == [2]


def test_gorenstein_bad_link():
    path4 = from_facets(4, [(1, 2), (2, 3), (3, 4)])
    rep = is_gorenstein_star(path4)
    assert rep.value is False
    assert "link" in rep.reason
    assert rep.witness["face"] == []  # K itself is not a homology circle
    data = rep.to_dict()
    assert data["gorenstein_star"] is False


def test_gorenstein_disjoint_points():
    assert is_gorenstein_star(disjoint_points(3)).value is False


# complexes that are not Gorenstein*: the suspension of two disjoint
# triangles, alone or joined with a square, is a pseudomanifold but no
# homology sphere; a 2-sphere with an edge sticking out, alone or
# suspended, is a homology sphere whose edge's far vertex has a point
# for its link.
WHISKER = from_facets(5, [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4), (4, 5)])
NOT_GORENSTEIN = [
    PINCHED,
    TWO_TRIANGLES.join(polygon(4)),
    WHISKER,
    WHISKER.join(disjoint_points(2)),
]


def test_gorenstein_reads_a_cached_table_like_the_cold_path(corpus, monkeypatch):
    # The empty face's link is K, the full-subset entry of K's table.  With
    # the table cached, K fails there before any face is listed and passes
    # without computing H~(K) again; the report is the cold one and the
    # face scan's.  A Gorenstein* K is decided by the vertex-link
    # recursion, with no face listed; a K that fails at a proper face
    # lists its faces once and asks the homology of one link per face
    # before the witness, in size-then-vertex order.
    pool = list(dict.fromkeys(benchmark_inputs("verify")))
    cone_free = [K for K in pool if not K.core()[0]]
    assert len(pool) == 60 and len(cone_free) == 53
    inputs = [*corpus, *rp2_variants(), *cone_free, simplex(-1), *NOT_GORENSTEIN]
    assert sum(bool(K.core()[0]) for K in inputs) > 30
    links, listed = [], []
    link_homology = classify.reduced_homology
    faces = SimplicialComplex.faces
    monkeypatch.setattr(
        classify, "reduced_homology", lambda L: links.append(L) or link_homology(L)
    )
    monkeypatch.setattr(
        SimplicialComplex, "faces", lambda K: listed.append(K) or faces(K)
    )
    read_off = passed = at_a_face = 0
    for K in inputs:
        hochster._TABLES.clear()
        cold = is_gorenstein_star(K).to_dict()
        assert cold == reference_gorenstein(K).to_dict(), K
        hochster_table(K)
        links.clear()
        listed.clear()
        assert is_gorenstein_star(K).to_dict() == cold, K
        witness = cold["witness"] or {}
        if cold["gorenstein_star"]:
            assert links == listed == [], K
            passed += 1
        elif witness.get("face", []) == []:  # K itself, or a cone vertex
            assert links == listed == [], K
            read_off += "face" in witness
        else:
            order = sorted(faces(K), key=lambda f: (f.bit_count(), vertices_of(f)))
            at = order.index(mask_of(witness["face"]))
            assert len(links) == at and listed == [K], K
            at_a_face += 1
    assert (passed, read_off, at_a_face) == (39, 137, 2)
    torsion = [is_gorenstein_star(K).witness for K in rp2_variants()[::2]]
    assert all(w["face"] == [] and w["torsion"] for w in torsion)


def test_gorenstein_matches_the_face_scan(corpus):
    # the verdict and its witness equal building every face link in
    # size-then-vertex order, cold, on the corpus, the RP^2 variants, the
    # verify pool, and complexes whose links fail below the empty face
    pool = benchmark_inputs("verify")
    for K in dict.fromkeys([*corpus, *rp2_variants(), *pool, *NOT_GORENSTEIN]):
        hochster._TABLES.clear()
        assert is_gorenstein_star(K).to_dict() == reference_gorenstein(K).to_dict()


# -- the five equivalent cone-vertex conditions ------------------------------


def test_tfae_on_cone_apex():
    rep = tfae_check(PYRAMID, [1, 2, 3, 4])
    assert rep.agree and rep.value is True
    assert dict(rep.conditions) == {c: True for c in "abcde"}
    rep = tfae_check(PYRAMID, [1, 2, 3, 5])
    assert rep.agree and rep.value is False
    rep = tfae_check(PYRAMID, [1, 2, 3, 4, 5])
    assert rep.agree and rep.value is True


def test_tfae_agrees_where_a_subset_carries_only_torsion():
    # RP^2 on 1..6 carries Z/2 and no rank, and condition (a) reads the
    # ranks: a vertex outside I that is no cone vertex still shows, in a
    # minimal non-face, whose full subcomplex is a sphere
    for K in rp2_variants()[:2]:
        for mask in range(1, 1 << K.m):
            assert tfae_check(K, vertices_of(mask)).agree, (K, mask)


def test_tfae_without_cone_vertices():
    rep = tfae_check(polygon(4), [1, 2, 3])
    assert rep.agree and rep.value is False
    rep = tfae_check(polygon(4), [1, 2, 3, 4])
    assert rep.agree and rep.value is True


def test_tfae_validation():
    with pytest.raises(EmptySubset):
        tfae_check(polygon(4), [])
    with pytest.raises(OutOfRange):
        tfae_check(polygon(4), [9])


def test_tfae_report_dict():
    data = tfae_check(PYRAMID, [1, 2, 3, 4]).to_dict()
    assert data["agree"] is True
    assert data["subset"] == [1, 2, 3, 4]
    assert all(data[c] is True for c in "abcde")


# -- connected-sum recognition -------------------------------------------------


def test_recognize_square():
    rep = recognize_connected_sum(polygon(4))
    assert rep.kind == "CONNECTED_SUM"
    assert rep.top_degree == 6
    assert rep.pairs == ((3, 3),)


def test_recognize_polygons():
    rep = recognize_connected_sum(polygon(5))
    assert rep.kind == "CONNECTED_SUM"
    assert rep.top_degree == 7
    assert rep.pairs == ((3, 4),) * 5
    rep6 = recognize_connected_sum(polygon(6))
    assert rep6.kind == "CONNECTED_SUM"
    assert rep6.top_degree == 8


def test_recognize_spheres():
    rep = recognize_connected_sum(boundary_simplex(3))
    assert rep.kind == "SPHERE"
    assert rep.top_degree == 7
    # a cone vertex does not change the homotopy type
    assert recognize_connected_sum(PATH3).kind == "SPHERE"


def test_recognize_contractible():
    rep = recognize_connected_sum(simplex(2))
    assert rep.kind == "NONE"
    assert "contractible" in rep.reason


def test_recognize_rejects_misshapen_rings():
    rep = recognize_connected_sum(disjoint_points(3))
    assert rep.kind == "NONE"
    assert "top Betti" in rep.reason
    # a wedge-like complex: top class 1 but middle ranks break duality
    wedge = from_facets(5, [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (3, 5)])
    rep = recognize_connected_sum(wedge)
    assert rep.kind == "NONE"


def test_recognize_example_is_ring_level():
    # the cone apex leaves the ring of the square untouched
    rep = recognize_connected_sum(PYRAMID)
    assert rep.kind == "CONNECTED_SUM"
    assert rep.pairs == ((3, 3),)


BELOW_THE_TOP = "a product of middle classes lands below the top"
DEGENERATE = (
    "the core is not Gorenstein* over Q, so a pairing into the top degree"
    " is degenerate"
)
SPHERE_JOIN = boundary_simplex(2).join(boundary_simplex(3))


def test_product_stage_outcomes_are_pinned():
    # every input passes the Betti checks, so the products decide
    rep = recognize_connected_sum(polygon(4).join(polygon(5)))
    assert (rep.kind, rep.top_degree, rep.reason) == ("NONE", 13, BELOW_THE_TOP)
    for K in (SPHERE_JOIN, cone(SPHERE_JOIN)):
        rep = recognize_connected_sum(K)
        assert (rep.kind, rep.top_degree, rep.pairs) == (
            "CONNECTED_SUM", 12, ((5, 7),)
        )
    # R_K of the join of two squares has the Betti numbers 1, 4, 6, 4, 1
    # of a connected sum, but its search finds a product below the top
    rep = verify_theorem_4_2(polygon(4).join(polygon(4)))
    assert rep.status == "HYPOTHESIS_NOT_MET"
    assert rep.hypothesis["rk_betti"] == [1, 4, 6, 4, 1]
    assert rep.hypothesis["pattern"] is False
    for K in (polygon(6), stacked_sphere(2, 2), SPHERE_JOIN):
        rep = verify_theorem_4_2(K)
        assert (rep.status, rep.hypothesis["pattern"]) == ("CONFIRMED", True)
        for verify in (verify_theorem_1_1, verify_theorem_1_2):
            assert verify(K).status == "CONFIRMED", K


def _gorenstein_cores():
    bases = [
        *map(polygon, range(4, 11)),
        *(stacked_sphere(2, n) for n in range(6)),
        SPHERE_JOIN,
        polygon(4).join(polygon(5)),
    ]
    return [PYRAMID, *bases, *map(cone, bases)]


def test_recognition_of_a_gorenstein_core_builds_no_product_table(monkeypatch):
    # A Gorenstein* core pairs into the top nondegenerately (Poincare
    # duality), so recognition only searches the pairs whose target lies
    # below the top: no ProductTable is built, and the reports are those
    # of the whole table and every pairing's rank.  Every pair of the
    # 9-gon lands in the top, so from cold caches its recognition builds
    # no cocycle basis either.
    inputs = _gorenstein_cores()
    built = _count_calls(monkeypatch, products, "ProductTable")
    cold_caches()
    bases = _count_calls(monkeypatch, products, "cocycle_basis")
    assert recognize_connected_sum(polygon(9)).kind == "CONNECTED_SUM"
    assert bases == []
    reports = [recognize_connected_sum(K) for K in inputs]
    assert built == []
    monkeypatch.undo()
    assert reports == [reference_recognize(K) for K in inputs]
    assert Counter(r.kind for r in reports) == {
        "SPHERE": 2, "CONNECTED_SUM": 27, "NONE": 2
    }
    assert {r.reason for r in reports if r.kind == "NONE"} == {BELOW_THE_TOP}


# A 2-sphere on 8 vertices whose listing holds six pairs with targets
# below the top, each of whose products vanishes: it is a connected sum,
# and recognition multiplies those pairs once, in its search below the top.
DEAD_PAIRS_SPHERE = from_facets(
    8,
    [
        (1, 2, 6), (1, 2, 7), (1, 3, 4), (1, 3, 7), (1, 4, 8), (1, 6, 8),
        (2, 6, 7), (3, 4, 7), (4, 5, 6), (4, 5, 8), (4, 6, 7), (5, 6, 8),
    ],
)


def _pairing_stage(K):
    """(reference report, product table over Q, top degree, Betti numbers)
    when K passes the Betti checks, is no sphere and has no product below
    the top, so that its pairings into the top decide; None otherwise."""
    want = reference_recognize(K)
    if want.kind != "CONNECTED_SUM" and want.reason != DEGENERATE:
        return None
    b = hochster_table(K, INT).betti
    return want, product_table(K, RAT), want.top_degree, b


def test_the_rational_gorenstein_gate_is_the_pairings_oracle(corpus):
    # H*(Z_K; Q) is the Tor-algebra of Q[K], a Poincare duality algebra
    # exactly when Q[K] is Gorenstein (Avramov-Golod), that is when the
    # core is Gorenstein* over Q (Stanley): on every input whose pairings
    # into the top decide, the gate agrees with ranking every pairing
    # from the whole product table, and the report is the reference's
    inputs = [
        *_gorenstein_cores(),
        *corpus,
        *rp2_variants(),
        TORUS7,
        DEAD_PAIRS_SPHERE,
        polygon(4).join(polygon(5)),
    ]
    staged = 0
    for K in inputs:
        stage = _pairing_stage(K)
        if stage is None:
            continue
        staged += 1
        want, pt, N, b = stage
        core = K.core_vertices()
        whole = hochster_table(K, INT).profile_of(mask_of(core))
        gate = classify._is_sphere_with_sphere_links(
            K.full_subcomplex(core), whole, RAT
        )
        full = all(
            reference_gram_rank(pt, N, k) == b[k] for k in range(1, N) if b[k]
        )
        assert gate == full, K
        assert recognize_connected_sum(K) == want, K
    assert staged >= 50


def _rational_gate_shut(monkeypatch):
    """Make the Gorenstein* test over Q fail every core; over Z it runs."""
    original = classify._is_sphere_with_sphere_links

    def shut(K, whole, coeffs):
        return coeffs != RAT and original(K, whole, coeffs)

    monkeypatch.setattr(classify, "_is_sphere_with_sphere_links", shut)


def test_a_core_that_fails_the_rational_gate_is_no_connected_sum(monkeypatch):
    # With the rational gate shut, recognition reports a degenerate pairing
    # once its search below the top finds no product, multiplying no more
    # pairs than that search does and building no product table; a core
    # with a product below the top keeps its report.
    _rational_gate_shut(monkeypatch)
    multiplied = _count_calls(monkeypatch, products, "multiply")
    tables = _count_calls(monkeypatch, products, "product_table")
    built = _count_calls(monkeypatch, products, "ProductTable")
    seen = Counter()
    for K in (
        polygon(6),
        stacked_sphere(2, 3),
        PYRAMID,
        SPHERE_JOIN,
        DEAD_PAIRS_SPHERE,
        polygon(4).join(polygon(5)),
    ):
        want = reference_recognize(K)
        N = want.top_degree
        multiplied.clear()
        any(
            products._iter_nonzero_products(
                K, RAT, lambda S, d: S.bit_count() + d + 1 < N
            )
        )
        searched = len(multiplied)
        for calls in (multiplied, tables, built):
            calls.clear()
        rep = recognize_connected_sum(K)
        if want.reason == BELOW_THE_TOP:
            assert rep == want, K
        else:
            assert want.kind == "CONNECTED_SUM", K
            shut = replace(want, kind="NONE", pairs=(), reason=DEGENERATE)
            assert rep == shut, K
        assert (tables, built) == ([], []), K
        assert len(multiplied) <= searched, K
        seen[rep.reason] += 1
    assert seen == {DEGENERATE: 5, BELOW_THE_TOP: 1}


def test_recognition_asks_the_links_over_q_and_the_walk_over_z(monkeypatch):
    # No input the suite makes is a core that is Gorenstein* over Q but not
    # over Z, so hand the gate one: every vertex link of the hexagon gets a
    # Z/2 in its homology.  The recursion over Q then passes and the one
    # over Z fails, so recognition still finds a connected sum, while the
    # Gorenstein* test and the walk's duality gate, which need integral
    # spheres, reject it; the walk then fills nothing by duality and its
    # table is still the Smith form's.
    K = polygon(6)
    link = K.link((1,))
    plain = hochster.reduced_homology

    def with_torsion(L):
        prof = plain(L)
        if L != link:
            return prof
        return make_profile(INT, dict(prof.ranks), {0: (2,)})

    want = recognize_connected_sum(K)
    assert want.kind == "CONNECTED_SUM"
    assert hochster_table(K, INT)._sphere_dim == K.dim
    cold_caches()
    monkeypatch.setattr(hochster, "reduced_homology", with_torsion)
    monkeypatch.setattr(classify, "reduced_homology", with_torsion)
    try:
        assert hochster._links_are_spheres(K, K.dim, RAT)
        assert not hochster._links_are_spheres(K, K.dim, INT)
        assert recognize_connected_sum(K) == want
        table = hochster_table(K, INT)
        assert table._sphere_dim is None
        assert table == reference_integral_table(K)
        rep = is_gorenstein_star(K)
        assert rep.value is False
        assert rep.witness["face"] == [1]
    finally:
        monkeypatch.undo()
        cold_caches()


def test_recognize_report_dict():
    data = recognize_connected_sum(polygon(4)).to_dict()
    assert data["kind"] == "CONNECTED_SUM"
    assert data["pairs"] == [[3, 3]]


# -- theorem harnesses ---------------------------------------------------------


def test_thm11_confirmed_on_square():
    rep = verify_theorem_1_1(polygon(4))
    assert rep.status == "CONFIRMED"
    assert rep.hypothesis["connected_sum"] is True
    assert rep.hypothesis["gorenstein_star"] is True
    assert rep.conclusion["minimally_non_golod"] is True


def test_thm11_hypothesis_gate():
    # the pyramid has a cone vertex, so it is not Gorenstein*
    rep = verify_theorem_1_1(PYRAMID)
    assert rep.status == "HYPOTHESIS_NOT_MET"
    rep = verify_theorem_1_1(simplex(2))
    assert rep.status == "HYPOTHESIS_NOT_MET"


def test_thm12_confirmed_on_example():
    rep = verify_theorem_1_2(PYRAMID)
    assert rep.status == "CONFIRMED"
    assert rep.details["cone_vertices"] == [5]
    assert rep.details["simplex_dim"] == 0
    assert rep.details["core_vertices"] == [1, 2, 3, 4]
    assert rep.details["core_gorenstein_star"]["gorenstein_star"] is True
    assert rep.conclusion["minimally_non_golod"] is True


def test_thm12_hypothesis_gate():
    assert verify_theorem_1_2(PATH3).status == "HYPOTHESIS_NOT_MET"
    assert verify_theorem_1_2(disjoint_points(3)).status == "HYPOTHESIS_NOT_MET"


def test_thm42_confirmed_on_square():
    rep = verify_theorem_4_2(polygon(4))
    assert rep.status == "CONFIRMED"
    assert rep.hypothesis["rk_betti"] == [1, 2, 1]
    assert rep.hypothesis["pattern"] is True


def test_thm42_cone_invariant_hypothesis():
    # R over a cone is contractible-with-corners: pattern fails, no violation
    rep = verify_theorem_4_2(cone(polygon(4)))
    assert rep.status in {"CONFIRMED", "HYPOTHESIS_NOT_MET"}
    rep = verify_theorem_4_2(simplex(2))
    assert rep.status == "HYPOTHESIS_NOT_MET"


OCTAHEDRON = polygon(4).join(disjoint_points(2))


def test_thm42_reads_the_ring_of_rk():
    # R_K of the octahedron is the 3-torus: it has the Betti numbers of
    # #3(S^1 x S^2), but two degree-1 classes multiply into degree 2
    rep = verify_theorem_4_2(OCTAHEDRON)
    assert rep.hypothesis["rk_betti"] == [1, 3, 3, 1]
    assert rep.hypothesis["pattern"] is False
    assert rep.status == "HYPOTHESIS_NOT_MET"


def test_no_harness_reports_a_violation_on_the_library_corpus(library_corpus):
    for K in library_corpus:
        for harness in (
            verify_theorem_1_1,
            verify_theorem_1_2,
            verify_theorem_4_2,
        ):
            rep = harness(K)
            assert rep.status != "VIOLATION", (K, rep.to_dict())


def test_core_report_names_the_witness_vertex_of_k():
    # apex 1 over the octahedron: the core is vertices 2..7 of K, and it
    # is not minimally non-Golod, as its vertex 1 (K's vertex 2) deletes
    # to a complex with a product
    K = simplex(0).join(OCTAHEDRON)
    assert is_minimally_non_golod(OCTAHEDRON).witness_vertex == 1
    core, mng, details = classify._core_mng(K)
    assert core == OCTAHEDRON
    assert mng.value is False and mng.witness_vertex == 2
    assert details == {
        "cone_vertices": [1],
        "simplex_dim": 0,
        "core_vertices": [2, 3, 4, 5, 6, 7],
    }
    assert products.is_cup_golod(K.delete_vertex(2)).verdict == "NON_GOLOD"


def test_verification_report_json():
    data = json.loads(verify_theorem_1_2(PYRAMID).to_json())
    assert data["theorem"] == "thm1.2"
    assert data["status"] == "CONFIRMED"
    assert set(data) == {
        "theorem",
        "status",
        "hypothesis",
        "conclusion",
        "details",
    }


# -- no field table before it is needed ------------------------------------


def test_hypotheses_derive_no_field_table_before_it_is_needed(monkeypatch):
    # the Betti numbers of Z_K and R_K over Q are the integral table's free
    # ranks; only the product search of a candidate connected sum needs Q
    derived = []
    over = HochsterTable.over
    monkeypatch.setattr(
        HochsterTable, "over", lambda t, c: derived.append(c) or over(t, c)
    )
    rp2 = from_facets(6, RP2_FACETS)
    for K in (rp2, disjoint_points(4)):
        cold_caches()
        assert recognize_connected_sum(K).kind == "NONE"
        cold_caches()
        assert verify_theorem_4_2(K).status == "HYPOTHESIS_NOT_MET"
    assert derived == []
    cold_caches()
    assert recognize_connected_sum(polygon(6)).kind == "CONNECTED_SUM"
    assert derived == [RAT]
