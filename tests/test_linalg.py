import random
from fractions import Fraction

import pytest

from momangle import (
    INT,
    PRIME,
    RAT,
    BadParams,
    ChainComplex,
    Coefficients,
    NotAField,
    boundary_simplex,
    cocycle_basis,
    coefficients_from_token,
    disjoint_points,
    from_facets,
    homology_profile,
    polygon,
    reduced_chain_complex,
    reduced_homology,
    simplex,
)
from momangle.linalg import (
    Echelon,
    field_ops,
    int_invariant_factors,
    int_rank,
    make_profile,
    nullspace,
    rank_mod_p,
    rref,
)

from helpers import (
    RP2_FACETS,
    FractionOps,
    boundary_matrix,
    dense_nullspace,
    dense_rank,
    dense_rref,
    direct_field_profile,
    matmul,
    smith_normal_form,
)


def _columns(matrix):
    """Dense rows -> the sparse column format the eliminators take."""
    if not matrix:
        return []
    return [
        tuple((i, row[j]) for i, row in enumerate(matrix) if row[j])
        for j in range(len(matrix[0]))
    ]


def _random_matrix(rng, nrows, ncols, density=0.4, bound=6):
    return [
        [
            rng.randint(-bound, bound) if rng.random() < density else 0
            for _ in range(ncols)
        ]
        for _ in range(nrows)
    ]


# -- coefficient systems -------------------------------------------------


def test_coefficient_tokens():
    assert str(INT) == "int"
    assert str(RAT) == "q"
    assert str(PRIME(7)) == "f7"
    assert coefficients_from_token("q") == RAT
    assert coefficients_from_token(" F2 ") == PRIME(2)
    assert coefficients_from_token("int") == INT
    for bad in ("f4", "f1", "zz", "f101"):
        with pytest.raises(NotAField):
            coefficients_from_token(bad)
    with pytest.raises(NotAField):
        PRIME(91)  # 7 * 13
    assert not INT.is_field and RAT.is_field and PRIME(2).is_field


def test_huge_prime_rejected_before_trial_division():
    # a Mersenne prime: trial division up to its square root never ends
    with pytest.raises(NotAField):
        coefficients_from_token("f" + str(2**127 - 1))
    with pytest.raises(NotAField):
        PRIME(2**127 - 1)
    # digit strings that int() refuses are unknown tokens, not crashes
    for bad in ("f" + "1" * 5000, "f\u00b2"):
        with pytest.raises(NotAField):
            coefficients_from_token(bad)


def test_field_ops():
    with pytest.raises(NotAField):
        field_ops(INT)
    q = field_ops(RAT)
    assert q.inv(q.of_int(4)) == Fraction(1, 4)
    f5 = field_ops(PRIME(5))
    assert f5.mul(f5.of_int(3), f5.of_int(4)) == 2
    assert f5.inv(2) == 3
    assert f5.neg(0) == 0


# -- ranks against the dense oracle ---------------------------------------


def test_int_rank_matches_dense_oracle():
    rng = random.Random(7)
    for _ in range(40):
        mat = _random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))
        assert int_rank(_columns(mat)) == dense_rank(mat)


def test_rank_mod_p_matches_dense_oracle():
    rng = random.Random(8)
    for p in (2, 3, 97):
        for _ in range(25):
            mat = _random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))
            assert rank_mod_p(_columns(mat), p) == dense_rank(mat, p), (
                p,
                mat,
            )


def test_rank_distinguishes_characteristic():
    mat = [[2, 0], [0, 2]]
    cols = _columns(mat)
    assert int_rank(cols) == 2
    assert rank_mod_p(cols, 2) == 0
    assert rank_mod_p(cols, 3) == 2


# -- Smith normal form ------------------------------------------------------


def test_smith_small_examples():
    assert smith_normal_form([[2, 0], [0, 3]]).factors == (1, 6)
    res = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert res.factors == (2, 2, 156)
    assert smith_normal_form([[0, 0], [0, 0]]).factors == ()
    assert smith_normal_form([]).factors == ()


def test_smith_transforms_and_divisibility():
    rng = random.Random(9)
    for _ in range(30):
        mat = _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        res = smith_normal_form(mat, want_transforms=True)
        for a, b in zip(res.factors, res.factors[1:]):
            assert b % a == 0
        L = [list(r) for r in res.left]
        R = [list(r) for r in res.right]
        prod = matmul(matmul(L, mat), R)
        for i in range(res.nrows):
            for j in range(res.ncols):
                want = res.factors[i] if i == j and i < len(res.factors) else 0
                assert prod[i][j] == want


def test_smith_ragged_rejected():
    with pytest.raises(BadParams):
        smith_normal_form([[1, 2], [3]])


def test_invariant_factors_match_dense_smith():
    rng = random.Random(10)
    for _ in range(30):
        mat = _random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
        sparse = int_invariant_factors(_columns(mat))
        assert tuple(sparse) == smith_normal_form(mat).factors, mat


# -- the sparse field echelon against the dense references -------------------

ENGINE_FIELDS = (RAT, PRIME(2), PRIME(3), PRIME(97))


def _field_matrices(rng, ops):
    """Empty, zero and seeded random matrices, entries in the field."""
    yield [], 3
    yield [[], []], 0
    yield [[ops.zero] * 4 for _ in range(3)], 4
    for _ in range(30):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        mat = _random_matrix(rng, nrows, ncols, density=rng.random())
        yield [[ops.of_int(v) for v in row] for row in mat], ncols


def _dense(vec, ncols, ops):
    return [vec.get(c, ops.zero) for c in range(ncols)]


def _echelon_of(rows, ops):
    ech = Echelon(ops)
    for row in rows:
        ech.insert(dict(enumerate(row)))
    return ech


@pytest.mark.parametrize("coeffs", ENGINE_FIELDS, ids=str)
def test_echelon_matches_dense_rref(coeffs):
    ops = field_ops(coeffs)
    rng = random.Random(11)
    for mat, ncols in _field_matrices(rng, ops):
        ech = _echelon_of(mat, ops)
        want, pivots = dense_rref([list(r) for r in mat], ops)
        assert len(ech) == len(pivots), mat
        assert sorted(ech.rows) == pivots
        assert [_dense(ech.rows[pc], ncols, ops) for pc in pivots] == want
        assert rref([list(r) for r in mat], ops) == (want, pivots)
        kernel = [_dense(v, ncols, ops) for v in ech.kernel(ncols)]
        assert kernel == dense_nullspace(mat, ncols, ops)
        assert nullspace(mat, ncols, ops) == kernel
        for _ in range(5):
            v = [ops.of_int(rng.randint(-5, 5)) for _ in range(ncols)]
            normal = list(v)
            for row, pc in zip(want, pivots):
                a = normal[pc]
                normal = [ops.sub(x, ops.mul(a, y)) for x, y in zip(normal, row)]
            assert _dense(ech.reduce(dict(enumerate(v))), ncols, ops) == normal


def test_rational_inverse_is_exact():
    q = field_ops(RAT)
    assert q.inv(3) == Fraction(1, 3) and isinstance(q.inv(3), Fraction)
    assert q.inv(-1) == -1 and type(q.inv(-1)) is int
    assert q.inv(Fraction(-2, 3)) == Fraction(-3, 2)


def test_rational_echelon_matches_the_dense_fraction_rref():
    # the Q echelon keeps integers as ints; the reference computes in
    # Fractions throughout
    ops, ref = field_ops(RAT), FractionOps()
    rng = random.Random(13)
    for _ in range(60):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        bound = rng.choice((1, 6))
        mat = _random_matrix(rng, nrows, ncols, rng.random(), bound)
        ech = _echelon_of(mat, ops)
        frac = [[Fraction(v) for v in row] for row in mat]
        want, pivots = dense_rref([list(r) for r in frac], ref)
        assert sorted(ech.rows) == pivots, mat
        assert [_dense(ech.rows[pc], ncols, ops) for pc in pivots] == want
        kernel = [_dense(v, ncols, ops) for v in ech.kernel(ncols)]
        assert kernel == dense_nullspace(frac, ncols, ref), mat
    # boundary maps have unit pivots here: the cocycles stay in ints
    for K in (polygon(6), boundary_simplex(3), disjoint_points(4)):
        for degree in range(-1, K.dim + 1):
            basis = cocycle_basis(K, degree, RAT)
            assert all(type(x) is int for vec in basis.vectors for x in vec)


@pytest.mark.parametrize("coeffs", ENGINE_FIELDS, ids=str)
def test_echelon_expresses_in_tagged_rows(coeffs):
    ops = field_ops(coeffs)
    rng = random.Random(12)
    for _ in range(30):
        ncols = rng.randint(1, 8)
        ech = Echelon(ops)
        untagged, tagged = [], []
        for _ in range(rng.randint(0, 4)):
            v = {c: ops.of_int(rng.randint(-3, 3)) for c in range(ncols)}
            if ech.insert(v) is not None:
                untagged.append(v)
        for _ in range(rng.randint(0, 4)):
            v = {c: ops.of_int(rng.randint(-3, 3)) for c in range(ncols)}
            normal = ech.reduce(v)
            row = ech.insert(v, tag=len(tagged))
            if not normal:
                assert row is None
                continue
            inv = ops.inv(normal[min(normal)])
            assert row == {c: ops.mul(inv, a) for c, a in normal.items()}
            tagged.append(row)
        assert len(ech) == len(untagged) + len(tagged)
        x = [ops.of_int(rng.randint(-4, 4)) for _ in tagged]
        target = [ops.zero] * ncols
        for coeff, vec in zip(x, tagged):
            for c, a in vec.items():
                target[c] = ops.add(target[c], ops.mul(coeff, a))
        for vec in untagged:
            coeff = ops.of_int(rng.randint(-4, 4))
            for c, a in vec.items():
                target[c] = ops.add(target[c], ops.mul(coeff, a))
        rest, combo = ech.express(dict(enumerate(target)))
        assert rest == {}
        assert [combo.get(t, ops.zero) for t in range(len(tagged))] == x
        for free in range(ncols):
            if free not in ech.rows:
                assert ech.express({free: ops.one})[0] == {free: ops.one}


def test_rref_and_nullspace():
    ops = field_ops(RAT)
    rows = [[Fraction(1), Fraction(2), Fraction(3)], [Fraction(2), Fraction(4), Fraction(6)]]
    reduced, pivots = rref(rows, ops)
    assert pivots == [0]
    assert len(reduced) == 1
    ns = nullspace([[Fraction(1), Fraction(2), Fraction(3)]], 3, ops)
    assert len(ns) == 2
    for vec in ns:
        assert vec[0] + 2 * vec[1] + 3 * vec[2] == 0


def test_nullspace_mod_p():
    ops = field_ops(PRIME(3))
    ns = nullspace([[1, 1, 1]], 3, ops)
    assert len(ns) == 2
    for vec in ns:
        assert sum(vec) % 3 == 0


# -- chain complexes and homology -------------------------------------------


def test_chain_complex_accessors():
    cc = reduced_chain_complex(polygon(3))
    assert cc.degrees == (-1, 0, 1)
    assert cc.dims == (1, 3, 3)
    assert cc.dim_at(1) == 3 and cc.dim_at(5) == 0
    assert cc.boundary_columns(7) == ()
    assert cc.euler_characteristic() == -1 + 3 - 3


def test_boundary_matrix_conventions():
    sq = polygon(4)
    aug = boundary_matrix(sq, 0)
    assert aug == [[1, 1, 1, 1]]
    d1 = boundary_matrix(sq, 1)
    # columns in lex edge order (1,2),(1,4),(2,3),(3,4)
    assert [row[0] for row in d1] == [-1, 1, 0, 0]
    composed = matmul(aug, d1)
    assert all(v == 0 for row in composed for v in row)
    with pytest.raises(BadParams):
        boundary_matrix(sq, -1)


def test_reduced_homology_spheres():
    assert reduced_homology(boundary_simplex(3)).is_sphere(2)
    assert reduced_homology(polygon(6)).is_sphere(1)
    assert reduced_homology(simplex(-1)).is_sphere(-1)
    assert reduced_homology(simplex(4)).is_trivial
    prof = reduced_homology(disjoint_points(4))
    assert prof.ranks == ((0, 3),)


def test_reduced_homology_torsion():
    prof = reduced_homology(from_facets(6, RP2_FACETS))
    assert prof.ranks == ()
    assert prof.torsion == ((1, (2,)),)
    assert prof.torsion_primes() == frozenset({2})
    assert not prof.is_trivial
    assert prof.torsion_at(1) == (2,)
    assert prof.torsion_at(0) == ()


def test_over_field_universal_coefficients():
    rp2 = reduced_homology(from_facets(6, RP2_FACETS))
    f2 = rp2.over_field(PRIME(2))
    assert f2.ranks == ((1, 1), (2, 1))
    assert rp2.over_field(PRIME(3)).is_trivial
    assert rp2.over_field(RAT).is_trivial
    with pytest.raises(BadParams):
        f2.over_field(PRIME(3))


def test_field_homology_computed_directly():
    """Field ranks eliminated over the field agree with the universal
    coefficients derivation from the integral profile."""
    cc = reduced_chain_complex(from_facets(6, RP2_FACETS))
    assert direct_field_profile(cc, PRIME(2)).ranks == ((1, 1), (2, 1))
    assert direct_field_profile(cc, RAT).is_trivial
    assert direct_field_profile(cc, PRIME(7)).is_trivial
    for coeffs in (RAT, PRIME(2), PRIME(3), PRIME(7)):
        uct = homology_profile(cc).over_field(coeffs)
        assert uct == direct_field_profile(cc, coeffs), coeffs


def test_profile_helpers():
    prof = make_profile(INT, {0: 1, 3: 2}, {1: [4]})
    assert prof.rank(3) == 2 and prof.rank(1) == 0
    assert prof.degrees() == (0, 1, 3)
    assert prof.top_degree() == 3
    assert prof.betti_vector(0, 3) == (1, 0, 0, 2)
    assert prof.total_rank() == 3
    assert prof.torsion_primes() == frozenset({2})
    assert make_profile(INT, {}).is_trivial


def test_homology_profile_of_explicit_complex():
    # two 0-cells, two parallel 1-cells: a circle
    cc = ChainComplex(
        degrees=(0, 1),
        dims=(2, 2),
        boundaries=(
            ((), ()),
            (((0, 1), (1, -1)), ((0, 1), (1, -1))),
        ),
    )
    prof = homology_profile(cc)
    assert prof.coeffs == INT
    assert prof.rank(0) == 1 and prof.rank(1) == 1
    assert prof.over_field(PRIME(2)).rank(1) == 1


# -- cocycle representatives -------------------------------------------------


def test_cocycle_basis_polygon():
    basis = cocycle_basis(polygon(4), 1, RAT)
    assert len(basis) == 1
    assert len(basis.faces) == 4
    # deterministic: identical calls agree
    again = cocycle_basis(polygon(4), 1, RAT)
    assert basis.vectors == again.vectors
    (vec,) = basis.vectors
    assert sum(1 for v in vec if v != 0) >= 1
    assert basis.as_cochains()[0]


def test_cocycle_basis_disconnected():
    basis = cocycle_basis(disjoint_points(3), 0, RAT)
    assert len(basis) == 2
    over_f2 = cocycle_basis(disjoint_points(3), 0, PRIME(2))
    assert len(over_f2) == 2


def test_cocycle_basis_trivial_degrees():
    assert len(cocycle_basis(simplex(2), 0, RAT)) == 0
    assert len(cocycle_basis(polygon(4), 0, RAT)) == 0
    assert len(cocycle_basis(simplex(-1), -1, RAT)) == 1
    assert len(cocycle_basis(polygon(4), 3, RAT)) == 0


def test_coefficients_hashable_cache_keys():
    assert Coefficients("prime", 5) == PRIME(5)
    assert len({INT, RAT, PRIME(2), PRIME(2)}) == 3
