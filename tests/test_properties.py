"""Properties of the Hochster walk on generated complexes (Hypothesis).

Complexes on at most 10 vertices are drawn as facet lists, with every
vertex no facet covers added as an isolated point.  Every run draws the
same examples (derandomize, a fixed seed, no example database), so a
failure reproduces.
"""

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from momangle import (
    INT,
    PRIME,
    from_facets,
    hochster_table,
    mask_of,
    vertices_of,
)

from helpers import reference_integral_table

MAX_M = 10
SEED = 20261018

EXAMPLES = settings(
    max_examples=150, derandomize=True, database=None, deadline=None
)


@st.composite
def complexes(draw):
    m = draw(st.integers(1, MAX_M))
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
