import pytest

import momangle.cellular as cellular
from momangle import (
    INT,
    PRIME,
    RAT,
    TooManyVertices,
    boundary_simplex,
    disjoint_points,
    from_facets,
    hochster_table,
    homology_profile,
    polygon,
    rk_betti,
    rk_chain_complex,
    simplex,
    zk_betti,
    zk_chain_complex,
)

from helpers import (
    RP2_FACETS,
    boundary_squares_to_zero,
    direct_field_profile,
    euler_characteristic,
    trim,
)

PYRAMID = from_facets(5, [(1, 2, 5), (2, 3, 5), (3, 4, 5), (1, 4, 5)])


def test_cell_counts():
    cc = zk_chain_complex(polygon(4))
    # each face sigma contributes 2^(m - |sigma|) cells
    assert sum(cc.dims) == 16 + 4 * 8 + 4 * 4
    assert euler_characteristic(cc) == 0
    rc = rk_chain_complex(polygon(4))
    assert sum(rc.dims) == 16 + 4 * 8 + 4 * 4
    assert rc.degrees == (0, 1, 2)


def test_boundaries_square_to_zero_samples(random_corpus):
    picks = [polygon(4), PYRAMID, simplex(2), disjoint_points(3)]
    picks += random_corpus[:5]
    for K in picks:
        assert boundary_squares_to_zero(zk_chain_complex(K)), K
        assert boundary_squares_to_zero(rk_chain_complex(K)), K


def test_zk_square():
    assert zk_betti(polygon(4)) == (1, 0, 0, 2, 0, 0, 1)
    assert zk_betti(polygon(4), RAT) == (1, 0, 0, 2, 0, 0, 1)


def test_zk_spheres():
    # two points give the 3-sphere; the boundary simplex on m gives S^(2m-1)
    assert zk_betti(disjoint_points(2)) == (1, 0, 0, 1)
    prof = homology_profile(zk_chain_complex(boundary_simplex(2)))
    assert prof.ranks == ((0, 1), (5, 1))
    assert zk_betti(simplex(3)) == (1,) + (0,) * 8


def test_zk_matches_hochster_quick(random_corpus):
    for K in [PYRAMID, polygon(5), disjoint_points(4), *random_corpus[:5]]:
        table = hochster_table(K, INT)
        assert zk_betti(K, RAT) == tuple(table.over(RAT).betti), K


def test_zk_torsion():
    rp2 = from_facets(6, RP2_FACETS)
    prof = homology_profile(zk_chain_complex(rp2))
    # the full-subset Z/2 lands in degree m + 1 + 1
    assert dict(prof.torsion).get(8) == (2,)
    b2 = zk_betti(rp2, PRIME(2))
    bq = zk_betti(rp2, RAT)
    assert trim(b2) != trim(bq)
    assert tuple(hochster_table(rp2, PRIME(2)).betti) == b2


def test_rk_polygon_genus():
    assert rk_betti(polygon(4)) == (1, 2, 1)
    assert rk_betti(polygon(5)) == (1, 10, 1)
    assert homology_profile(rk_chain_complex(polygon(4))).rank(1) == 2


def test_rk_small_identities():
    # R over two points is a circle; over a simplex it is a cube
    assert rk_betti(disjoint_points(2)) == (1, 1)
    assert rk_betti(simplex(2)) == (1, 0, 0, 0)
    assert rk_betti(boundary_simplex(2)) == (1, 0, 1)  # S^1 from the hollow triangle


def test_rk_disconnected():
    b = rk_betti(disjoint_points(3))
    assert b[0] == 1
    assert sum(b) == b[0] + b[1]  # only degrees 0 and 1 can be nonzero


def test_empty_complex_cells():
    K = simplex(-1)
    assert zk_betti(K) == (1,)
    assert rk_betti(K) == (1,)


def test_vertex_caps():
    with pytest.raises(TooManyVertices) as exc:
        zk_chain_complex(disjoint_points(15))
    assert exc.value.cap == 14
    with pytest.raises(TooManyVertices):
        rk_chain_complex(disjoint_points(21))
    with pytest.raises(TooManyVertices) as exc:
        rk_betti(polygon(21))
    assert exc.value.cap == 20
    with pytest.raises(TooManyVertices):
        zk_betti(polygon(15))


def test_field_ranks_agree_on_torsion_free():
    for K in (polygon(5), PYRAMID):
        assert zk_betti(K, RAT) == zk_betti(K, PRIME(2)) == zk_betti(K, INT)


@pytest.mark.parametrize("coeffs", [RAT, PRIME(2), PRIME(3)], ids=str)
def test_cellular_betti_match_direct_field_ranks(random_corpus, coeffs):
    """zk_betti and rk_betti read integral homology over the field by
    universal coefficients; ranking each boundary map over the field
    itself must give the same numbers.  The table-vs-cellular check
    below cannot see a universal-coefficients bug, because both sides
    derive from integral homology."""
    rp2 = from_facets(6, RP2_FACETS)
    builders = ((zk_chain_complex, zk_betti), (rk_chain_complex, rk_betti))
    for K in [PYRAMID, polygon(5), *random_corpus[:6], rp2]:
        for build, betti in builders:
            cc = build(K)
            direct = direct_field_profile(cc, coeffs)
            assert betti(K, coeffs) == direct.betti_vector(0, cc.degrees[-1]), K


@pytest.mark.parametrize("coeffs", [INT, RAT, PRIME(2), PRIME(3)], ids=str)
def test_rk_betti_regrades_the_hochster_table(corpus, coeffs):
    """H_p(R_K) is the sum of H~_(p-1)(K_I) over all subsets I, so the
    table's rk_betti must agree with the cellular R_K complex."""
    for K in [*corpus, from_facets(6, RP2_FACETS)]:
        assert hochster_table(K, coeffs).rk_betti == rk_betti(K, coeffs), K


def test_second_field_reuses_the_integral_cellular_profile(monkeypatch):
    # each of zk_betti and rk_betti eliminates the cellular complex once
    # per complex, then reads it over any further field by UCT; RP^2 plus
    # two disjoint points is built by no other test
    calls = []

    def counting(cc):
        calls.append(cc)
        return homology_profile(cc)

    monkeypatch.setattr(cellular, "homology_profile", counting)
    K = from_facets(8, (*RP2_FACETS, (7,), (8,)))
    for betti in (rk_betti, zk_betti):
        before = len(calls)
        answers = [betti(K, c) for c in (INT, RAT, PRIME(2), PRIME(3))]
        assert len(calls) == before + 1
        assert answers[2] != answers[1]  # the Z/2 shifts over F_2 only
