"""Cellular chain complexes of the moment-angle complex and its real form.

These are computed straight from the polydisc cell structures, with no
reference to full subcomplexes, so they serve as independent oracles for
the subset-sum tables:

* Z_K (the (D^2, S^1) form) has one cell per pair (sigma, omega) with
  sigma a face and omega a subset of its complement, in dimension
  2|sigma| + |omega|.
* R_K (the (D^1, S^0) form) has one cell per pair (sigma, eps) with
  eps a sign choice on the complement, in dimension |sigma|.

Cell counts grow like 2^m times the face count, which is why the vertex
caps here are tighter than elsewhere.
"""

from __future__ import annotations

from functools import lru_cache

from .complexes import SimplicialComplex, _submasks, vertices_of
from .errors import TooManyVertices
from .linalg import INT, ChainComplex, Coefficients, homology_profile

ZK_MAX_VERTICES = 14
RK_MAX_VERTICES = 20


def _check_cap(K: SimplicialComplex, cap: int, what: str) -> None:
    if K.m > cap:
        raise TooManyVertices(
            f"{K.m} vertices exceed the {what} cellular cap of {cap}",
            m=K.m,
            cap=cap,
        )


def _assemble(cells_by_dim: dict[int, list], boundary_of) -> ChainComplex:
    top = max(cells_by_dim) if cells_by_dim else 0
    degrees = tuple(range(top + 1))
    index: dict[int, dict] = {}
    for d in degrees:
        cells = cells_by_dim.get(d, [])
        cells.sort(key=lambda cell: tuple(map(vertices_of, cell)))
        index[d] = {cell: i for i, cell in enumerate(cells)}
    dims = tuple(len(index[d]) for d in degrees)
    boundaries = []
    for d in degrees:
        if d == 0:
            boundaries.append(tuple(() for _ in index[0]))
            continue
        below = index[d - 1]
        cols = []
        for cell in sorted(index[d], key=index[d].get):
            cols.append(
                tuple((below[tgt], c) for tgt, c in boundary_of(cell) if c)
            )
        boundaries.append(tuple(cols))
    return ChainComplex(degrees, dims, tuple(boundaries))


def zk_chain_complex(K: SimplicialComplex) -> ChainComplex:
    """Cellular chain complex of Z_K.

    The boundary moves one disc factor to its bounding circle:
    d(sigma, omega) = sum over j in sigma of
    (-1)^{#(omega below j)} (sigma - j, omega + j).
    """
    _check_cap(K, ZK_MAX_VERTICES, "Z_K")
    full = (1 << K.m) - 1
    cells_by_dim: dict[int, list] = {}
    for sigma in K.faces():
        base = 2 * sigma.bit_count()
        for omega in _submasks(full & ~sigma):
            cells_by_dim.setdefault(base + omega.bit_count(), []).append(
                (sigma, omega)
            )

    def boundary_of(cell):
        sigma, omega = cell
        for v in vertices_of(sigma):
            bit = 1 << (v - 1)
            sign = -1 if (omega & (bit - 1)).bit_count() % 2 else 1
            yield (sigma & ~bit, omega | bit), sign

    return _assemble(cells_by_dim, boundary_of)


def rk_chain_complex(K: SimplicialComplex) -> ChainComplex:
    """Cellular chain complex of the real moment-angle complex R_K.

    eps is stored as the set of coordinates pinned at +1; a cleared bit
    on the complement means -1.  Each interval factor contributes both
    endpoints: d(sigma, eps) = sum over j in sigma of
    (-1)^{#(sigma below j)} [(sigma - j, eps + j) - (sigma - j, eps)].
    """
    _check_cap(K, RK_MAX_VERTICES, "R_K")
    full = (1 << K.m) - 1
    cells_by_dim: dict[int, list] = {}
    for sigma in K.faces():
        d = sigma.bit_count()
        for eps in _submasks(full & ~sigma):
            cells_by_dim.setdefault(d, []).append((sigma, eps))

    def boundary_of(cell):
        sigma, eps = cell
        for pos, v in enumerate(vertices_of(sigma)):
            bit = 1 << (v - 1)
            sign = -1 if pos % 2 else 1
            yield (sigma & ~bit, eps | bit), sign
            yield (sigma & ~bit, eps), -sign

    return _assemble(cells_by_dim, boundary_of)


@lru_cache(maxsize=256)
def _integral(K: SimplicialComplex, build) -> tuple:
    """Integral homology of build(K) and its top cell degree, kept for
    recent complexes: each field reads it by universal coefficients."""
    cc = build(K)
    return homology_profile(cc), cc.degrees[-1]


def zk_betti(
    K: SimplicialComplex, coeffs: Coefficients = INT
) -> tuple[int, ...]:
    """Betti numbers of Z_K in degrees 0..m+dim+1, from the cell structure."""
    prof, top = _integral(K, zk_chain_complex)
    return prof.over_field(coeffs).betti_vector(0, top)


def rk_betti(
    K: SimplicialComplex, coeffs: Coefficients = INT
) -> tuple[int, ...]:
    """Betti numbers of R_K in degrees 0..dim+1."""
    prof, top = _integral(K, rk_chain_complex)
    return prof.over_field(coeffs).betti_vector(0, top)
