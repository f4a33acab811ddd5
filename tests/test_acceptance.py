"""Acceptance suite: one test per numbered criterion, each with a pinned
runtime budget.

Run with -v for one PASS/FAIL line per criterion; -s additionally shows
the measured sizes and timings.  The shared corpus comes from conftest:
every generator-library member on at most 8 vertices plus 200 seeded
random complexes on at most 7.
"""

import itertools
import time

from helpers import boundary_squares_to_zero, trim
from momangle import (
    cone,
    from_facets,
    hochster_table,
    is_cup_golod,
    is_gorenstein_star,
    is_minimally_non_golod,
    multiply,
    polygon,
    product_table,
    recognize_connected_sum,
    rk_betti,
    rk_chain_complex,
    simplex,
    stacked_sphere,
    tfae_check,
    tor_basis,
    verify_theorem_1_1,
    verify_theorem_1_2,
    verify_theorem_4_2,
    zk_betti,
    zk_chain_complex,
)
from momangle.complexes import mask_of, vertices_of
from momangle.linalg import INT, PRIME, RAT

PYRAMID = from_facets(5, [(1, 2, 5), (2, 3, 5), (3, 4, 5), (1, 4, 5)])


class _budget:
    """Context manager asserting the block finishes inside its budget."""

    def __init__(self, criterion, seconds):
        self.criterion = criterion
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.criterion} blew its {self.seconds}s "
                f"budget: {elapsed:.1f}s"
            )
            print(
                f"criterion {self.criterion} PASS"
                f" ({elapsed:.2f}s < {self.seconds}s)"
            )


def test_c01_example_complex():
    with _budget(1, 1):
        assert trim(hochster_table(PYRAMID).betti) == (1, 0, 0, 2, 0, 0, 1)
        mng = is_minimally_non_golod(PYRAMID)
        assert mng.value is False
        assert mng.witness_vertex == 5
        cone_verts, core = PYRAMID.core()
        assert cone_verts == (5,)
        assert core == polygon(4)
        rep = verify_theorem_1_2(PYRAMID)
        assert rep.status == "CONFIRMED"
        assert rep.details["simplex_dim"] == 0


def test_c02_square_boundary():
    with _budget(2, 1):
        sq = polygon(4)
        s3xs3 = (1, 0, 0, 2, 0, 0, 1)
        assert trim(hochster_table(sq).betti) == s3xs3
        pt = product_table(sq, RAT)
        assert len(pt.products) == 1
        i, j, coords = pt.products[0]
        assert (pt.classes[i].total_degree, pt.classes[j].total_degree) == (3, 3)
        assert pt.classes[coords[0][0]].total_degree == 6
        assert is_minimally_non_golod(sq).value is True
        assert is_gorenstein_star(sq).value is True
        rec = recognize_connected_sum(sq)
        assert (rec.kind, rec.pairs) == ("CONNECTED_SUM", ((3, 3),))
        assert verify_theorem_1_1(sq).status == "CONFIRMED"


def test_c03_real_polygon_betti():
    with _budget(3, 60):
        for m in range(4, 9):
            middle = 2 * (1 + (m - 4) * 2 ** (m - 3))
            assert rk_betti(polygon(m)) == (1, middle, 1), m


def test_c04_cellular_oracle_equivalence(corpus):
    with _budget(4, 300):
        for K in corpus:
            for coeffs in (RAT, PRIME(2)):
                assert zk_betti(K, coeffs) == hochster_table(K, coeffs).betti, (
                    K,
                    coeffs,
                )


def test_c05_differentials_square_to_zero(corpus):
    with _budget(5, 300):
        for K in corpus:
            assert boundary_squares_to_zero(zk_chain_complex(K)), K
            assert boundary_squares_to_zero(rk_chain_complex(K)), K


def test_c06_tfae_and_table_coincidence(corpus):
    with _budget(6, 300):
        for K in corpus:
            table = hochster_table(K, INT)
            for r in range(1, K.m + 1):
                for I in itertools.combinations(range(1, K.m + 1), r):
                    rep = tfae_check(K, I)
                    assert rep.agree, (K, I, rep.conditions)
                    if not rep.value:
                        continue
                    # the subset carries the whole table: transport K's
                    # nonzero profiles through the relabeling and compare
                    pos = {v: t + 1 for t, v in enumerate(I)}
                    transported = sorted(
                        (mask_of(pos[v] for v in vertices_of(mask)), prof)
                        for mask, prof in table.subsets
                    )
                    sub = hochster_table(K.full_subcomplex(I), INT)
                    assert transported == sorted(sub.subsets), (K, I)


def test_c07_theorem_harnesses_never_violate(random_corpus):
    with _budget(7, 600):
        bases = [polygon(m) for m in range(4, 9)]
        bases += [stacked_sphere(2, k) for k in range(4)]
        bases += [stacked_sphere(3, k) for k in range(3)]
        members = list(bases)
        members += [cone(K) for K in bases]
        members += [
            K.join(simplex(d))
            for K in bases
            for d in (1, 2)
            if K.m + d + 1 <= 9
        ]
        members += random_corpus
        confirmed = 0
        for K in members:
            for harness in (
                verify_theorem_1_1,
                verify_theorem_1_2,
                verify_theorem_4_2,
            ):
                rep = harness(K)
                assert rep.status != "VIOLATION", (K, rep.to_dict())
                confirmed += rep.status == "CONFIRMED"
        assert confirmed, "harness run was vacuous"


def test_c08_product_algebra_laws(corpus):
    with _budget(8, 300):
        from helpers import is_cocycle

        for K in corpus:
            for coeffs in (RAT, PRIME(2)):
                p = coeffs.p
                classes = [c for c in tor_basis(K, coeffs) if c.subset]
                n = len(classes)
                prods = {}
                for i in range(n):
                    x = classes[i]
                    for j in range(i, n):
                        y = classes[j]
                        xy = multiply(K, x, y)
                        yx = multiply(K, y, x)
                        flip = (x.total_degree * y.total_degree) % 2
                        want = tuple(
                            (f, (-v % p if p else -v) if flip else v)
                            for f, v in xy.values
                        )
                        assert yx.values == want, (K, coeffs, i, j)
                        if not (x.subset & y.subset):
                            prods[(i, j)] = xy
                            if not xy.is_zero:
                                assert is_cocycle(K, xy, coeffs.p), (
                                    K,
                                    coeffs,
                                    i,
                                    j,
                                )
                for (i, j), xy in prods.items():
                    for k in range(j + 1, n):
                        z = classes[k]
                        if z.subset & (classes[i].subset | classes[j].subset):
                            continue
                        left = multiply(K, xy, z)
                        right = multiply(K, classes[i], prods[(j, k)])
                        assert left.values == right.values, (K, coeffs, i, j, k)


def test_c09_golod_ground_truth():
    with _budget(9, 60):
        golod = [
            from_facets(m, [(i, i + 1) for i in range(1, m)])
            for m in range(3, 8)
        ]
        golod += [simplex(n) for n in range(-1, 8)]
        for K in golod:
            assert is_cup_golod(K).verdict == "CUP_GOLOD", K
        non_golod = [polygon(m) for m in range(4, 9)]
        non_golod += [stacked_sphere(2, k) for k in (1, 2, 3)]
        non_golod += [stacked_sphere(3, k) for k in (1, 2)]
        for K in non_golod:
            rep = is_cup_golod(K)
            assert rep.verdict == "NON_GOLOD", K
            assert rep.witness and "x" in rep.witness and "y" in rep.witness, K


def test_c10_cone_invariance(corpus):
    with _budget(10, 120):
        for K in corpus:
            CK = cone(K)
            assert trim(hochster_table(K).betti) == trim(
                hochster_table(CK).betti
            ), K
            a = recognize_connected_sum(K)
            b = recognize_connected_sum(CK)
            assert (a.kind, a.pairs) == (b.kind, b.pairs), (
                K,
                a.to_dict(),
                b.to_dict(),
            )
