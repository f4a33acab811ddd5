import inspect
import json
import random
import sys
import tracemalloc

import pytest

from momangle import (
    INT,
    PRIME,
    RAT,
    Cochain,
    FieldMismatch,
    InternalInvariant,
    NotAField,
    TooManyVertices,
    boundary_simplex,
    disjoint_points,
    from_facets,
    hochster_table,
    is_cup_golod,
    is_gorenstein_star,
    mask_of,
    multiply,
    polygon,
    product_table,
    simplex,
    stacked_sphere,
    tor_basis,
)
from momangle import products
from momangle.products import (
    CUP_CAVEAT,
    _iter_nonzero_products,
    _sorted_pairs,
    _unpacked,
    cochain_class_coords,
)

from helpers import (
    RP2_FACETS,
    cold_caches,
    dense_rank,
    is_cocycle,
    profile_degrees,
    reference_component_pairs,
    reference_golod,
    reference_product_table,
    reference_tor_basis,
    rp2_variants,
)

PYRAMID = from_facets(5, [(1, 2, 5), (2, 3, 5), (3, 4, 5), (1, 4, 5)])


def _positive_classes(K, coeffs):
    return [c for c in tor_basis(K, coeffs) if c.subset]


def test_tor_basis_square():
    basis = tor_basis(polygon(4), RAT)
    assert len(basis) == 4  # unit + two 3-classes + the top class
    unit = basis[0]
    assert unit.subset == 0 and unit.total_degree == 0
    degrees = sorted(c.total_degree for c in basis)
    assert degrees == [0, 3, 3, 6]
    # deterministic output
    assert basis == tor_basis(polygon(4), RAT)


def test_tor_basis_counts_match_table(random_corpus):
    for K in [polygon(5), PYRAMID, *random_corpus[:6]]:
        for coeffs in (RAT, PRIME(2)):
            classes = tor_basis(K, coeffs)
            table = hochster_table(K, INT).over(coeffs)
            assert len(classes) == sum(table.betti), K


def test_tor_basis_validation():
    with pytest.raises(NotAField):
        tor_basis(polygon(4), INT)
    with pytest.raises(TooManyVertices):
        tor_basis(polygon(21))
    with pytest.raises(TooManyVertices):
        product_table(disjoint_points(21), PRIME(2))


def test_square_single_product():
    pt = product_table(polygon(4), RAT)
    assert len(pt.products) == 1
    ((i, j, coords),) = pt.products
    x, y = pt.classes[i], pt.classes[j]
    assert {x.total_degree, y.total_degree} == {3}
    assert x.subset | y.subset == mask_of([1, 2, 3, 4])
    ((target, val),) = coords
    assert pt.classes[target].total_degree == 6
    assert val != 0
    assert i < j  # each pair is stored once, in index order
    assert (0, 0) not in {(a, b) for a, b, _ in pt.products}
    assert not pt.is_trivial
    assert pt.products[0] == (i, j, coords)


def test_pentagon_products():
    pt = product_table(polygon(5), RAT)
    assert len(pt.products) == 5
    degs = {
        tuple(
            sorted(
                (pt.classes[i].total_degree, pt.classes[j].total_degree)
            )
        )
        for i, j, _ in pt.products
    }
    assert degs == {(3, 4)}


def test_multiply_overlap_is_zero():
    classes = _positive_classes(polygon(4), RAT)
    x = classes[0]
    assert multiply(polygon(4), x, x).is_zero


def test_multiply_field_mismatch():
    xq = _positive_classes(polygon(4), RAT)[0]
    x2 = _positive_classes(polygon(4), PRIME(2))[0]
    with pytest.raises(FieldMismatch):
        multiply(polygon(4), xq, x2)


def test_graded_commutativity_samples(random_corpus):
    for K in [polygon(4), polygon(5), PYRAMID, *random_corpus[:4]]:
        for coeffs in (RAT, PRIME(2)):
            p = coeffs.p
            classes = _positive_classes(K, coeffs)
            for i, x in enumerate(classes):
                for y in classes[i:]:
                    xy = multiply(K, x, y)
                    yx = multiply(K, y, x)
                    flip = (x.total_degree * y.total_degree) % 2
                    want = tuple(
                        (f, (-v % p if p else -v) if flip else v)
                        for f, v in xy.values
                    )
                    assert yx.values == want, (K, x, y)


def test_associativity_samples(random_corpus):
    for K in [polygon(5), disjoint_points(5), *random_corpus[:3]]:
        classes = _positive_classes(K, RAT)
        n = len(classes)
        for i in range(n):
            for j in range(i + 1, n):
                if classes[i].subset & classes[j].subset:
                    continue
                xy = multiply(K, classes[i], classes[j])
                for k in range(j + 1, n):
                    z = classes[k]
                    if z.subset & (classes[i].subset | classes[j].subset):
                        continue
                    left = multiply(K, xy, z)
                    right = multiply(
                        K, classes[i], multiply(K, classes[j], z)
                    )
                    assert left.values == right.values


def test_products_are_cocycles_samples(random_corpus):
    for K in [polygon(4), polygon(6), PYRAMID, *random_corpus[:4]]:
        for coeffs in (RAT, PRIME(3)):
            p = coeffs.p
            classes = _positive_classes(K, coeffs)
            for i, x in enumerate(classes):
                for y in classes[i:]:
                    prod = multiply(K, x, y)
                    if not prod.is_zero:
                        assert is_cocycle(K, prod, p), (K, x, y)


def test_class_coords_roundtrip():
    classes = _positive_classes(polygon(4), RAT)
    for c in classes:
        coords = cochain_class_coords(polygon(4), c)
        want = tuple(
            1 if t == c.index else 0 for t in range(len(coords))
        )
        assert tuple(coords) == want


def test_class_coords_rejects_non_cocycle():
    # a 0-cochain on an edge with unequal endpoint values is not closed
    bad = Cochain(mask_of([1, 2]), 0, RAT, ((mask_of([1]), 1),))
    with pytest.raises(InternalInvariant):
        cochain_class_coords(polygon(4), bad)


def test_product_table_json():
    data = json.loads(product_table(polygon(4), RAT).to_json())
    assert data["field"] == "q"
    assert len(data["classes"]) == 3
    assert len(data["nonzero_products"]) == 1


def test_golod_verdicts():
    assert is_cup_golod(simplex(3)).verdict == "CUP_GOLOD"
    path4 = from_facets(4, [(1, 2), (2, 3), (3, 4)])
    assert is_cup_golod(path4).verdict == "CUP_GOLOD"
    rep = is_cup_golod(polygon(4))
    assert rep.verdict == "NON_GOLOD"
    assert rep.witness is not None
    assert rep.witness["x"]["total_degree"] == 3
    assert rep.fields_checked == ("q",)  # first field already witnesses
    assert CUP_CAVEAT in rep.caveats


def test_golod_battery():
    rep = is_cup_golod(simplex(2))
    assert rep.verdict == "CUP_GOLOD"
    assert rep.fields_checked == ("q", "f2", "f3", "f5", "f7")
    # torsion primes already in the battery are not added twice
    rep2 = is_cup_golod(from_facets(6, RP2_FACETS))
    assert rep2.fields_checked[0] == "q"
    assert len(rep2.fields_checked) <= 5


def test_golod_matches_the_battery_oracle(corpus):
    """From cold caches, the report equals the oracle's, which searches
    every battery field in order, on every corpus member (at most 8
    vertices) and on RP^2 and its cone.  The 11- and 12-vertex RP^2
    variants are left out: the oracle takes about 49 s on the disjoint
    pair alone."""
    cold_caches()
    rp2, cone_rp2, *_ = rp2_variants()
    members = [*corpus, rp2, cone_rp2]
    assert max(K.m for K in corpus) <= 8
    for K in members:
        assert is_cup_golod(K).to_dict() == reference_golod(K).to_dict(), K


def test_golod_searches_a_prime_field_only_for_its_torsion(monkeypatch):
    """Q is searched on every product-free K, and F_p only where the
    integral table has p-torsion: the RP^2 variants add F_2, complexes
    without torsion no prime field."""
    table, asked = products.hochster_table, []

    def spy(K, coeffs=INT):
        asked.append(str(coeffs))
        return table(K, coeffs)

    monkeypatch.setattr(products, "hochster_table", spy)
    rp2, cone_rp2, _, wedge = rp2_variants()
    cases = [
        (rp2, ["int", "q", "f2"]),
        (cone_rp2, ["int", "q", "f2"]),
        (wedge, ["int", "q", "f2"]),
        (boundary_simplex(3), ["int", "q"]),
        (disjoint_points(6), ["int", "q"]),
        (polygon(9).delete_vertex(1), ["int", "q"]),
    ]
    for K, want in cases:
        cold_caches()
        asked.clear()
        is_cup_golod(K)
        assert asked == want, K


def test_a_product_free_battery_builds_no_basis(monkeypatch):
    """Without a pair of disjoint components with a nonzero target, every
    field of the battery is settled without a cocycle basis."""
    calls = []

    def counted(*args):
        calls.append(args)
        return build(*args)

    build = products.cocycle_basis
    monkeypatch.setattr(products, "cocycle_basis", counted)
    for K in (boundary_simplex(3), disjoint_points(6), polygon(9).delete_vertex(1)):
        cold_caches()
        assert is_cup_golod(K).verdict == "CUP_GOLOD", K
    assert calls == []


def test_golod_stacked_spheres():
    assert is_cup_golod(stacked_sphere(2, 1)).verdict == "NON_GOLOD"
    assert is_cup_golod(stacked_sphere(2, 0)).verdict == "CUP_GOLOD"


def _decoded_pairs(components):
    """_sorted_pairs unpacked into (first, second, target) keys."""
    for a, b in _unpacked(_sorted_pairs(components), len(components)):
        (I, d1), (J, d2) = components[a], components[b]
        yield (I, d1), (J, d2), (I | J, d1 + d2 + 1)


def _seeded_components(rng, vertices, count, degrees):
    """count or a few more (subset, degree) keys on the given number of
    vertices, most of them two disjoint components and their target."""
    keys = set()
    while len(keys) < count:
        I = rng.randrange(1, 1 << vertices)
        J = rng.randrange(1, 1 << vertices) & ~I
        d1, d2 = rng.randrange(degrees), rng.randrange(degrees)
        keys.add((I, d1))
        if J:
            keys |= {(J, d2), (I | J, d1 + d2 + 1)}
    return sorted(keys)


def _branches_taken(lists):
    """Which searches of products._splits run while the pairs of lists
    are listed: over a degree's components, or over the splits of S."""
    code = products._splits.__code__
    lines, first = inspect.getsourcelines(products._splits)
    marks = {
        first + n: branch
        for n, line in enumerate(lines)
        for text, branch in (("for I in A:", "components"), ("while J:", "splits"))
        if line.strip() == text
    }
    assert len(marks) == 2
    taken = set()

    def tracer(frame, event, arg):
        if frame.f_code is not code:
            return None
        if event == "line" and frame.f_lineno in marks:
            taken.add(marks[frame.f_lineno])
        return tracer

    before = sys.gettrace()
    sys.settrace(tracer)
    try:
        for components in lists:
            _sorted_pairs(components)
    finally:
        sys.settrace(before)
    return taken


def test_component_pairs_match_the_full_scan(corpus):
    """The pairs listed from the targets' splits and sorted are the pairs
    of the scan over every later component, in the same order, on the
    corpus tables, on seeded random component lists spread over four
    degrees, and on seeded lists that take each search of _splits: few
    components a degree on 12 vertices, against targets with more
    splits, and many on 5 vertices, against targets with fewer."""
    lists = []
    for K in corpus:
        for coeffs in (RAT, PRIME(2)):
            table = hochster_table(K, coeffs)
            lists.append(
                [
                    (I, d)
                    for I, prof in table.subsets
                    if I
                    for d in profile_degrees(prof)
                ]
            )
    rng = random.Random(5)
    for _ in range(200):
        keys = {(rng.randrange(1, 64), rng.randrange(4)) for _ in range(30)}
        lists.append(sorted(keys))
    sparse = [_seeded_components(rng, 12, 30, 3) for _ in range(50)]
    dense = [_seeded_components(rng, 5, 60, 2) for _ in range(50)]
    assert "components" in _branches_taken(sparse)
    assert "splits" in _branches_taken(dense)
    lists += sparse + dense
    assert sum(1 for c in lists if _sorted_pairs(c)) > 100
    for components in lists:
        want = list(reference_component_pairs(components))
        assert list(_decoded_pairs(components)) == want, components


def test_the_sorted_pairs_are_packed():
    # a memory bound, not a timing: the 169,650 Q pairs of two disjoint
    # copies of RP^2 are held in 8 bytes each; the sorted list of packed
    # ints that the array replaces held 6.5 MB
    keys = list(hochster_table(rp2_variants()[2], RAT).components())
    tracemalloc.start()
    try:
        pairs = _sorted_pairs(keys)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(pairs) == 169_650
    assert held < 2 * 1024 * 1024 and peak < 10 * 1024 * 1024


def test_golod_disjoint_points_scans_no_pairs():
    # every component sits in degree 0 and none in degree 1: 16,369
    # components that the full scan would pair with each other
    assert is_cup_golod(disjoint_points(14)).verdict == "CUP_GOLOD"


def test_golod_report_dict():
    data = is_cup_golod(polygon(4)).to_dict()
    assert data["verdict"] == "NON_GOLOD"
    assert data["witness"]["field"] == "q"
    assert data["caveats"]


ORACLE_FIELDS = (RAT, PRIME(2), PRIME(3))

# A square beside the boundary of a tetrahedron: the square's 0-classes
# multiply into degree 1 of the whole, whose subset also holds degrees 0
# and 2, so a target is found among several degrees of its subset.
SQUARE_BESIDE_SPHERE = from_facets(
    8,
    [(1, 2), (2, 3), (3, 4), (1, 4), (5, 6, 7), (5, 6, 8), (5, 7, 8), (6, 7, 8)],
)


@pytest.mark.parametrize("coeffs", ORACLE_FIELDS, ids=str)
def test_table_driven_products_match_full_enumeration(corpus, coeffs):
    """The Hochster-table-driven basis, products and witness search agree
    exactly with enumerating every subset, degree and pair."""
    # Over Q the enumeration's dense Fraction elimination takes about 40 s
    # on the 19 members with 8 vertices, so those are checked over F_p only.
    members = [
        K for K in [*corpus, SQUARE_BESIDE_SPHERE] if coeffs != RAT or K.m <= 7
    ]
    assert len(members) >= 270
    for K in members:
        basis = reference_tor_basis(K, coeffs)
        ref = reference_product_table(K, coeffs, basis)
        assert tor_basis(K, coeffs) == basis, K
        assert product_table(K, coeffs).to_dict() == ref.to_dict(), K
        found = next(_iter_nonzero_products(K, coeffs), None)
        if ref.products:
            x, y, first = found
            i, j, _ = first
            assert first == ref.products[0], K
            assert (x, y) == (ref.classes[i], ref.classes[j]), K
        else:
            assert found is None, K


@pytest.mark.parametrize("coeffs", ORACLE_FIELDS, ids=str)
def test_poincare_duality_pairing_is_perfect(corpus, coeffs):
    """For Gorenstein* K, Z_K is a closed orientable manifold, so the cup
    pairing H^k x H^(N-k) -> H^N must be perfect over every field."""
    spheres = [K for K in corpus if is_gorenstein_star(K).value]
    assert len(spheres) >= 30
    for K in spheres:
        N = hochster_table(K, INT).top_degree
        pt = product_table(K, coeffs)
        by_degree = {}
        for t, c in enumerate(pt.classes):
            by_degree.setdefault(c.total_degree, []).append(t)
        if N == 0:  # the empty sphere: Z_K is a point
            assert not pt.classes
            continue
        (top,) = by_degree[N]
        top_coeff = {
            (i, j): dict(coords).get(top, 0) for i, j, coords in pt.products
        }
        for k in range(1, N):
            rows, cols = by_degree.get(k, []), by_degree.get(N - k, [])
            assert len(rows) == len(cols), (K, k)
            # x_b x_a = (-1)^(k(N-k)) x_a x_b for the pairs stored as (b, a)
            flip = -1 if k * (N - k) % 2 else 1
            pairing = [
                [
                    top_coeff.get((a, b), 0)
                    if a <= b
                    else flip * top_coeff.get((b, a), 0)
                    for b in cols
                ]
                for a in rows
            ]
            assert dense_rank(pairing, coeffs.p) == len(rows), (K, k)
