import json
import random
import tracemalloc
from functools import reduce
from operator import and_, or_

import pytest

from momangle import (
    BadParams,
    GhostVertex,
    NotAFace,
    OutOfRange,
    ParseError,
    SimplicialComplex,
    TooManyVertices,
    boundary_simplex,
    cone,
    disjoint_points,
    from_dict,
    from_facets,
    from_json,
    generate,
    mask_of,
    polygon,
    simplex,
    stacked_sphere,
    vertices_of,
)

from helpers import f_vector, has_face, minimal_non_faces, relabel

PYRAMID_FACETS = [(1, 2, 5), (2, 3, 5), (3, 4, 5), (1, 4, 5)]


@pytest.fixture
def pyramid():
    return from_facets(5, PYRAMID_FACETS)


def test_mask_roundtrip():
    assert mask_of([1, 3, 4]) == 0b1101
    assert vertices_of(0b1101) == (1, 3, 4)
    assert vertices_of(mask_of([])) == ()


def test_from_facets_canonicalizes():
    K = from_facets(3, [(1, 2), (2, 1), (1,), (2, 3)])
    assert K.facets == (mask_of([1, 2]), mask_of([2, 3]))
    assert K.dim == 1


def test_from_facets_validation():
    with pytest.raises(GhostVertex):
        from_facets(3, [(1, 2)])
    with pytest.raises(OutOfRange):
        from_facets(2, [(1, 3)])
    with pytest.raises(BadParams):
        from_facets(-1, [])
    with pytest.raises(BadParams):
        from_facets(2, [(1, True)])
    with pytest.raises(TooManyVertices) as exc:
        from_facets(25, [range(1, 26)])
    assert exc.value.m == 25 and exc.value.cap == 24


def test_generators_past_the_vertex_cap():
    """Generators that can grow m keep the validator's cap of 24."""
    with pytest.raises(TooManyVertices):
        polygon(13).join(polygon(13))
    with pytest.raises(TooManyVertices):
        cone(simplex(23))
    with pytest.raises(TooManyVertices) as exc:
        stacked_sphere(2, 30)
    assert exc.value.m == 25 and exc.value.cap == 24


@pytest.mark.parametrize("family", [polygon, disjoint_points])
def test_vertex_cap_checked_before_facets_are_built(family):
    """from_facets rejects m before it reads a facet, so a huge m costs
    no facet list."""
    tracemalloc.start()
    try:
        with pytest.raises(TooManyVertices):
            family(10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000, peak


def test_empty_complex():
    K = from_facets(0, [])
    assert K.m == 0 and K.dim == -1
    assert K.faces() == frozenset({0})
    assert K == simplex(-1)


def test_faces_and_f_vector():
    sq = polygon(4)
    assert len(sq.faces()) == 9  # empty + 4 vertices + 4 edges
    assert f_vector(sq) == (1, 4, 4)
    assert sq.k_faces(1) == (
        mask_of([1, 2]),
        mask_of([1, 4]),
        mask_of([2, 3]),
        mask_of([3, 4]),
    )
    assert sq.k_faces(-1) == (0,)
    assert len(simplex(3).faces()) == 16


def test_face_enumeration_covers_shared_subfaces():
    # facets sharing a submask must not lose each other's faces
    K = from_facets(4, [(3, 4), (2, 3), (1,)])
    assert has_face(K, (2,))
    assert has_face(K, (4,))
    assert len(K.faces()) == 1 + 4 + 2


def test_has_face_and_contains():
    sq = polygon(4)
    assert sq.contains_mask(mask_of((1, 2)))
    assert not sq.contains_mask(mask_of((1, 3)))
    assert sq.contains_mask(0)
    with pytest.raises(OutOfRange):
        sq.full_subcomplex((5,))


def test_star_link_delete(pyramid):
    assert 5 in pyramid.cone_vertices()
    assert 1 not in pyramid.cone_vertices()
    assert pyramid.star(5) == pyramid
    # link of the apex is the square, relabeled onto 1..4
    link5 = pyramid.link([5])
    assert link5 == polygon(4)
    assert pyramid.delete_vertex(5) == polygon(4)
    with pytest.raises(NotAFace):
        pyramid.link([1, 3])
    with pytest.raises(OutOfRange):
        pyramid.star(9)


def test_star_of_isolated_point():
    K = disjoint_points(3)
    st = K.star(2)
    assert st == simplex(0)


def test_full_subcomplex_faces(pyramid):
    sub = pyramid.full_subcomplex([2, 4, 5])
    # the only 2-face of pyramid inside {2,4,5} is the edge pairs through 5
    assert f_vector(sub) == (1, 3, 2)


def test_core(pyramid):
    cone_verts, core = pyramid.core()
    assert cone_verts == (5,)
    assert core == polygon(4)
    assert pyramid.core_vertices() == (1, 2, 3, 4)
    verts, core2 = polygon(4).core()
    assert verts == () and core2 == polygon(4)
    assert polygon(4).core_vertices() == (1, 2, 3, 4)
    verts, core3 = simplex(2).core()
    assert verts == (1, 2, 3) and core3 == simplex(-1)
    assert simplex(2).core_vertices() == ()
    # with the apex as vertex 1, the core is vertices 2..5 of K
    apex_first = simplex(0).join(polygon(4))
    assert apex_first.core_vertices() == (2, 3, 4, 5)
    assert apex_first.core()[1] == polygon(4)
    assert apex_first.cone_vertices() == (1,)


def test_join():
    two = boundary_simplex(1)  # two points
    sq = two.join(two)
    assert sq.m == 4
    assert f_vector(sq) == (1, 4, 4)
    assert minimal_non_faces(sq) == ((1, 2), (3, 4))
    assert simplex(0).join(simplex(0)) == simplex(1)


def test_cone(pyramid):
    c = cone(polygon(4))
    assert c.m == 5
    assert 5 in c.cone_vertices()
    assert c == pyramid


def test_relabel():
    sq = polygon(4)
    swapped = relabel(sq, [2, 1, 3, 4])
    assert has_face(swapped, (1, 2))
    assert has_face(swapped, (1, 3))  # was (2, 3)
    assert not has_face(swapped, (2, 3))
    with pytest.raises(BadParams):
        relabel(sq, [1, 1, 2, 3])


def test_minimal_non_faces():
    assert minimal_non_faces(polygon(4)) == ((1, 3), (2, 4))
    assert minimal_non_faces(simplex(3)) == ()
    assert minimal_non_faces(boundary_simplex(2)) == ((1, 2, 3),)
    pyramid = from_facets(5, PYRAMID_FACETS)
    assert minimal_non_faces(pyramid) == ((1, 3), (2, 4))


def test_generators():
    assert polygon(3) == boundary_simplex(2)
    assert stacked_sphere(2, 0) == boundary_simplex(3)
    assert stacked_sphere(2, 1).m == 5
    assert disjoint_points(2) == boundary_simplex(1)
    assert f_vector(polygon(6)) == (1, 6, 6)
    # deterministic subdivision: same parameters, same complex
    assert stacked_sphere(3, 2) == stacked_sphere(3, 2)


def test_generator_validation():
    with pytest.raises(BadParams):
        polygon(2)
    with pytest.raises(BadParams):
        stacked_sphere(0, 1)
    with pytest.raises(BadParams):
        stacked_sphere(2, -1)
    with pytest.raises(BadParams):
        disjoint_points(0)
    with pytest.raises(BadParams):
        simplex(-2)
    with pytest.raises(BadParams):
        boundary_simplex(-1)


def test_generate_dispatcher():
    assert generate("polygon", 5) == polygon(5)
    assert generate("cone", polygon(4)) == cone(polygon(4))
    assert generate("join", simplex(0), simplex(0)) == simplex(1)
    with pytest.raises(BadParams):
        generate("torus", 3)
    with pytest.raises(BadParams):
        generate("polygon", 4, 5)
    with pytest.raises(BadParams):
        generate("cone", 4)
    with pytest.raises(BadParams):
        generate("join", polygon(4), 2)
    with pytest.raises(BadParams):
        generate("polygon", True)


def test_serialization_roundtrip(pyramid):
    data = json.loads(pyramid.to_json())
    assert data["vertices"] == 5
    assert from_dict(data) == pyramid
    assert from_json(pyramid.to_json()) == pyramid


def test_parse_errors():
    with pytest.raises(ParseError):
        from_json("{not json")
    with pytest.raises(ParseError):
        from_dict([1, 2])
    with pytest.raises(ParseError):
        from_dict({"vertices": 3})
    with pytest.raises(ParseError):
        from_dict({"vertices": "3", "facets": []})
    with pytest.raises(ParseError):
        from_dict({"vertices": 2, "facets": [1, 2]})


def test_equality_ignores_labels(pyramid):
    sub = pyramid.delete_vertex(5)
    assert sub == polygon(4)
    assert hash(sub) == hash(polygon(4))


def test_dedup_in_corpus_construction():
    # frozen complexes hash on (m, facets) so dict.fromkeys dedupes
    items = [polygon(4), polygon(4), boundary_simplex(2), polygon(3)]
    assert len(dict.fromkeys(items)) == 2


def _expected(gens, support):
    """(m, facets) of a derived complex built the validating way:
    generator masks relabelled through vertex tuples onto 1..|support|
    and passed to from_facets."""
    old = vertices_of(support)
    pos = {v: i + 1 for i, v in enumerate(old)}
    ref = from_facets(
        len(old), [[pos[v] for v in vertices_of(g)] for g in gens]
    )
    return ref.m, ref.facets


def _shape(D):
    return D.m, D.facets


def test_derived_complexes_match_from_facets(corpus):
    """Every derived complex is what from_facets makes of its generators,
    with the same facet order."""
    rng = random.Random(11)
    for K0 in corpus:
        # a deletion checks a second step of derivation
        for K in [K0, *([K0.delete_vertex(1)] if K0.m > 1 else [])]:
            full = (1 << K.m) - 1
            for mask in range(full + 1):
                D = K.full_subcomplex(vertices_of(mask))
                gens = [f & mask for f in K.facets]
                assert _shape(D) == _expected(gens, mask), (K, mask)
                again = from_facets(D.m, map(vertices_of, D.facets))
                assert again.facets == D.facets
            for face in K.faces():
                gens = [f & ~face for f in K.facets if face & ~f == 0]
                D = K.link(vertices_of(face))
                assert _shape(D) == _expected(gens, reduce(or_, gens, 0))
            for v in range(1, K.m + 1):
                bit = 1 << (v - 1)
                gens = [f for f in K.facets if f & bit]
                assert _shape(K.star(v)) == _expected(gens, reduce(or_, gens))
                rest = full & ~bit
                assert _shape(K.delete_vertex(v)) == _expected(
                    [f & rest for f in K.facets], rest
                )
            cone_mask = reduce(and_, K.facets)
            verts, core = K.core()
            assert verts == K.cone_vertices() == vertices_of(cone_mask)
            rest = full & ~cone_mask
            assert K.core_vertices() == vertices_of(rest)
            assert _shape(core) == _expected(
                [f & rest for f in K.facets], rest
            )
            perm = list(range(1, K.m + 1))
            rng.shuffle(perm)
            ref = from_facets(
                K.m,
                [[perm[v - 1] for v in vertices_of(f)] for f in K.facets],
            )
            assert _shape(relabel(K, perm)) == (ref.m, ref.facets)
