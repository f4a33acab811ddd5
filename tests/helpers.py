"""Independent reference computations used to cross-check the package.

Everything here is deliberately naive: dense matrices over Fraction or
modular integers, faces enumerated by brute-force membership tests.  The
only package API the oracles lean on is the facet-based face membership
test, so agreement with the fast paths is meaningful.

The reference_* functions are the exception: they enumerate every subset,
every degree and every pair with the package's own cocycle bases and
products, or walk every subset over Z or a field with the package's own
elimination, so they check which work the Hochster table lets the package
skip (the walk's face, component and dominated-vertex rules among it),
and its universal-coefficients derivation, not the linear algebra
itself.  reference_dominated and reference_component decide the walk's
dominated-vertex and component rules for one subset from K_I alone.
reference_golod runs the package's product search on every field of the
Golod battery, so it checks which fields the Golod test skips.

smith_normal_form and boundary_matrix are dense oracles for the sparse
integer elimination and the chain complexes, and dense_rank, dense_rref
and dense_nullspace for the sparse field elimination.  These compute in
their own arithmetic, Fractions over Q and residues mod p, and the
package never calls them.
"""

from __future__ import annotations

import importlib.util
import itertools as it
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from momangle import (
    BadParams,
    GolodReport,
    INT,
    MAX_FIELD_PRIME,
    PRIME,
    RAT,
    HochsterTable,
    ProductTable,
    TorClass,
    cocycle_basis,
    cone,
    from_facets,
    from_json,
    hochster_table,
    multiply,
    reduced_chain_complex,
    reduced_homology,
    vertices_of,
)
from momangle.linalg import Echelon, make_profile, rank_mod_p
from momangle.products import (
    CUP_CAVEAT,
    _iter_nonzero_products,
    cochain_class_coords,
)

# 6-vertex triangulation of the real projective plane: 10 facets, every
# edge in exactly two triangles, Euler characteristic 1, H~_1 = Z/2
RP2_FACETS = (
    (1, 2, 3),
    (1, 2, 4),
    (1, 3, 5),
    (1, 4, 6),
    (1, 5, 6),
    (2, 3, 6),
    (2, 4, 5),
    (2, 5, 6),
    (3, 4, 5),
    (3, 4, 6),
)


def rp2_variants():
    """RP^2, its cone, two disjoint copies and two copies wedged at vertex 1:
    the Z/2 passes through the walk's component and dominated-vertex rules."""
    rp2 = from_facets(6, RP2_FACETS)
    shifted = [tuple(v + 6 for v in f) for f in RP2_FACETS]
    wedged = [tuple(1 if v == 1 else v + 5 for v in f) for f in RP2_FACETS]
    return [
        rp2,
        cone(rp2),
        from_facets(12, (*RP2_FACETS, *shifted)),
        from_facets(11, (*RP2_FACETS, *wedged)),
    ]


def benchmark_inputs(workload):
    """The complexes of a benchmark workload at seed 0, in request order
    (one per request, so verify repeats each complex per theorem), read
    from the benchmark's source."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look the module up
    spec.loader.exec_module(module)
    return [from_json(r.complex_json) for r in module.build(workload, 0)]


def trim(seq):
    """Drop trailing zeros, for comparing Betti vectors of unequal length."""
    out = list(seq)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def dense_rank(rows, p=None):
    """Gaussian elimination rank over Q (p=None) or F_p."""
    return len(dense_rref(rows, p)[1])


def dense_rref(rows, p=None):
    """Reduced row echelon form of dense rows over Q (p=None), in
    Fractions throughout, or over F_p; and the pivot columns."""
    if p is None:
        mat = [[Fraction(v) for v in row] for row in rows]
    else:
        mat = [[v % p for v in row] for row in rows]
    pivots = []
    for c in range(len(mat[0]) if mat else 0):
        rank = len(pivots)
        pivot = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = 1 / mat[rank][c] if p is None else pow(mat[rank][c], -1, p)
        if p is None:
            row = [v * inv for v in mat[rank]]
        else:
            row = [v * inv % p for v in mat[rank]]
        mat[rank] = row
        for i in range(len(mat)):
            if i != rank and mat[i][c]:
                f = mat[i][c]
                if p is None:
                    mat[i] = [a - f * b for a, b in zip(mat[i], row)]
                else:
                    mat[i] = [(a - f * b) % p for a, b in zip(mat[i], row)]
        pivots.append(c)
    return mat[: len(pivots)], pivots


def dense_nullspace(rows, ncols, p=None):
    """Kernel basis of the map given by dense rows over Q (p=None) or
    F_p, one vector per free column of their reduced row echelon form."""
    work, pivots = dense_rref(rows, p)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [0] * ncols
        vec[free] = 1
        for row, pc in zip(work, pivots):
            if row[free]:
                vec[pc] = -row[free] if p is None else -row[free] % p
        basis.append(vec)
    return basis


def faces_by_size(K, verts):
    """Faces of K inside a vertex set, keyed by face cardinality."""
    verts = sorted(verts)
    out = {0: [()]}
    for size in range(1, len(verts) + 1):
        hits = [c for c in it.combinations(verts, size) if K.has_face(c)]
        if not hits:
            break
        out[size] = hits
    return out


def _boundary_dense(upper, lower):
    idx = {f: i for i, f in enumerate(lower)}
    mat = [[0] * len(upper) for _ in lower]
    for j, f in enumerate(upper):
        for pos in range(len(f)):
            mat[idx[f[:pos] + f[pos + 1 :]]][j] = (-1) ** pos
    return mat


def reduced_betti_within(K, verts, p=None):
    """Reduced Betti numbers of K restricted to a vertex set, by degree.

    Includes degree -1 (rank one exactly when the restriction is the
    empty complex); zero entries are omitted.
    """
    fd = faces_by_size(K, verts)
    ranks = {
        s: dense_rank(_boundary_dense(fd[s], fd[s - 1]), p)
        for s in fd
        if s > 0
    }
    out = {}
    for s, members in fd.items():
        b = len(members) - ranks.get(s, 0) - ranks.get(s + 1, 0)
        if b:
            out[s - 1] = b
    return out


def brute_hochster_betti(K, p=None):
    """Betti numbers of Z_K assembled subset by subset."""
    total = [0] * (K.m + K.dim + 2)
    total[0] = 1  # the empty subset contributes the unit
    for size in range(1, K.m + 1):
        for I in it.combinations(range(1, K.m + 1), size):
            for d, b in reduced_betti_within(K, I, p).items():
                total[size + d + 1] += b
    return tuple(total)


def is_cocycle(K, c, p=None):
    """Whether a Cochain is closed inside K restricted to its subset."""
    verts = [v for v in range(1, K.m + 1) if c.subset >> (v - 1) & 1]
    values = dict(c.values)

    def val(face):
        mask = 0
        for v in face:
            mask |= 1 << (v - 1)
        return values.get(mask, 0)

    for tau in it.combinations(verts, c.degree + 2):
        if not K.has_face(tau):
            continue
        acc = sum(
            (-1) ** pos * val(tau[:pos] + tau[pos + 1 :])
            for pos in range(len(tau))
        )
        if (acc % p if p is not None else acc) != 0:
            return False
    return True


def boundary_squares_to_zero(cc):
    """Compose consecutive sparse boundary maps and test for zero."""
    for i in range(1, len(cc.degrees)):
        lower = cc.boundaries[i - 1]
        for col in cc.boundaries[i]:
            acc = {}
            for r, v in col:
                for r2, v2 in lower[r]:
                    acc[r2] = acc.get(r2, 0) + v * v2
            if any(acc.values()):
                return False
    return True


def matmul(A, B):
    """Dense integer matrix product (for transform checks)."""
    if not A or not B:
        return []
    return [
        [sum(a * b for a, b in zip(row, col)) for col in zip(*B)]
        for row in A
    ]


def field_rank(cols, coeffs):
    """Rank of a matrix given as columns of (row, value), eliminated over
    the field itself (rank_mod_p over F_p, the sparse echelon over Q),
    never through the integral Smith form."""
    if coeffs.kind == "prime":
        return rank_mod_p(cols, coeffs.p)
    ech = Echelon(coeffs)
    for col in cols:
        ech.insert(dict(col))
    return len(ech)


def direct_field_profile(cc, coeffs):
    """Field Betti numbers of a chain complex from field_rank of each
    boundary map, with no universal coefficients involved."""
    rank_of_d = {
        deg: field_rank(cols, coeffs)
        for deg, cols in zip(cc.degrees, cc.boundaries)
    }
    ranks = {
        deg: n - rank_of_d[deg] - rank_of_d.get(deg + 1, 0)
        for deg, n in zip(cc.degrees, cc.dims)
    }
    return make_profile(coeffs, ranks)


def reference_integral_table(K):
    """Integral Hochster table by the Smith form of every full subcomplex.

    Builds the relabelled K_I for each of the 2^m subsets and asks the
    cached reduced_homology, settling no subset from smaller ones.
    """
    subsets = []
    for mask in range(1 << K.m):
        prof = reduced_homology(K.full_subcomplex(vertices_of(mask)))
        if not prof.is_trivial:
            subsets.append((mask, prof))
    return HochsterTable(K, INT, tuple(subsets))


def reference_dominated(K, I, v):
    """Whether vertex bit v of I is dominated in K_I: one other vertex
    lies in every maximal face of K_I through v.

    Those maximal faces are the inclusion-maximal traces f & I of the
    facets f through v, found by comparing every pair of traces.
    """
    traces = {f & I for f in K.facets if f & v}
    maximal = [
        t for t in traces if not any(t != u and not t & ~u for u in traces)
    ]
    common = I
    for t in maximal:
        common &= t
    return common != v


def reference_component(K, I):
    """The vertex mask of the component of I's top vertex in the
    1-skeleton of K_I, by breadth-first search over its edges."""
    verts = vertices_of(I)
    adjacent = {
        (a, b)
        for f in K.facets
        for a in vertices_of(f & I)
        for b in vertices_of(f & I)
    }
    reached, queue = {verts[-1]}, [verts[-1]]
    while queue:
        a = queue.pop()
        for b in verts:
            if b not in reached and (a, b) in adjacent:
                reached.add(b)
                queue.append(b)
    return sum(1 << (b - 1) for b in reached)


def reference_field_table(K, coeffs):
    """Hochster table over a field by a direct field walk.

    Eliminates the chain complex of every full subcomplex K_I over the
    field itself (direct_field_profile), instead of deriving the field
    Betti numbers from the integral table by universal coefficients.
    """
    subsets = []
    for mask in range(1 << K.m):
        KI = K.full_subcomplex(vertices_of(mask))
        prof = direct_field_profile(reduced_chain_complex(KI), coeffs)
        if not prof.is_trivial:
            subsets.append((mask, prof))
    return HochsterTable(K, coeffs, tuple(subsets))


def reference_tor_basis(K, coeffs):
    """tor_basis by the full enumeration: every subset, every degree.

    Builds the relabelled K_I for all 2^m subsets and asks for a cocycle
    basis in each degree -1..dim K_I, whatever the Hochster table says.
    """
    classes = []
    for mask in range(1 << K.m):
        verts = vertices_of(mask)
        KI = K.full_subcomplex(verts)
        for degree in range(-1, KI.dim + 1):
            basis = cocycle_basis(KI, degree, coeffs)
            for index, vec in enumerate(basis.vectors):
                lifted = []
                for f, val in zip(basis.faces, vec):
                    if val != 0:
                        ambient = sum(
                            1 << (verts[i] - 1)
                            for i in range(len(verts))
                            if f >> i & 1
                        )
                        lifted.append((ambient, val))
                classes.append(
                    TorClass(mask, degree, index, coeffs, tuple(sorted(lifted)))
                )
    return tuple(classes)


def reference_products(K, classes):
    """Every nonzero product among the classes, by trying every pair.

    Each disjoint pair is multiplied and resolved, whether or not its
    target component carries classes; yields (i, j, coords) like
    ProductTable.products.
    """
    by_component = {}
    for t, c in enumerate(classes):
        by_component.setdefault((c.subset, c.degree), []).append(t)
    for i, x in enumerate(classes):
        for j in range(i, len(classes)):
            if x.subset & classes[j].subset:
                continue
            prod = multiply(K, x, classes[j])
            if prod.is_zero:
                continue
            coords = cochain_class_coords(K, prod)
            targets = by_component.get((prod.subset, prod.degree), [])
            assert len(coords) == len(targets)
            nz = tuple(
                (targets[pos], val) for pos, val in enumerate(coords) if val
            )
            if nz:
                yield i, j, nz


def reference_component_pairs(components):
    """products._component_pairs by scanning every later component for
    each component: (first, second, target) keys, in list order."""
    present = set(components)
    for a, (I, d1) in enumerate(components):
        for J, d2 in components[a + 1 :]:
            if I & J:
                continue
            target = (I | J, d1 + d2 + 1)
            if target in present:
                yield (I, d1), (J, d2), target


def reference_product_table(K, coeffs, basis):
    """ProductTable built from every pair of the positive-degree classes
    of basis, the full enumeration reference_tor_basis(K, coeffs)."""
    classes = tuple(c for c in basis if c.subset)
    return ProductTable(K, coeffs, classes, tuple(reference_products(K, classes)))


def reference_golod(K):
    """The GolodReport is_cup_golod(K) should give, by searching every
    field of the battery in order (Q, F_2, F_3, F_5, F_7, then the other
    testable torsion primes of K's integral table) and stopping at the
    first witness, with no field left out for lack of torsion."""
    torsion = hochster_table(K, INT).torsion_primes
    battery = [RAT, *(PRIME(p) for p in (2, 3, 5, 7))]
    battery += [PRIME(p) for p in torsion if 7 < p <= MAX_FIELD_PRIME]
    untestable = [p for p in torsion if p > MAX_FIELD_PRIME]
    caveats = [CUP_CAVEAT]
    if untestable:
        caveats.append(
            "torsion primes beyond the field bound were not tested: "
            + ", ".join(map(str, untestable))
        )
    checked = []
    for field in battery:
        checked.append(str(field))
        found = next(_iter_nonzero_products(K, hochster_table(K, field)), None)
        if found is not None:
            x, y, (_, _, coords) = found
            witness = {
                "field": str(field),
                "x": x.describe(),
                "y": y.describe(),
                "product": [[t, str(v)] for t, v in coords],
            }
            return GolodReport("NON_GOLOD", tuple(checked), witness, tuple(caveats))
    verdict = "UNKNOWN" if untestable else "CUP_GOLOD"
    return GolodReport(verdict, tuple(checked), None, tuple(caveats))


@dataclass(frozen=True)
class SNFResult:
    """Invariant factors, with optional unimodular transforms L*A*R = D."""

    factors: tuple[int, ...]
    nrows: int
    ncols: int
    left: tuple[tuple[int, ...], ...] | None = None
    right: tuple[tuple[int, ...], ...] | None = None

    @property
    def rank(self) -> int:
        return len(self.factors)


def smith_normal_form(
    matrix: Sequence[Sequence[int]], want_transforms: bool = False
) -> SNFResult:
    """Smith normal form of a dense integer matrix.

    Returns the nonzero invariant factors in divisibility order and, when
    requested, unimodular matrices L and R with L*A*R equal to the padded
    diagonal.  Intended for explicit matrices; the homology pipeline uses
    the sparse ``int_invariant_factors`` instead.
    """
    A = [[int(v) for v in row] for row in matrix]
    n = len(A)
    m = len(A[0]) if n else 0
    if any(len(row) != m for row in A):
        raise BadParams("matrix rows must all have the same length")
    L = [[int(i == j) for j in range(n)] for i in range(n)] if want_transforms else None
    R = [[int(i == j) for j in range(m)] for i in range(m)] if want_transforms else None

    def row_op(i, j, q):  # row_i -= q * row_j
        Ai, Aj = A[i], A[j]
        for k in range(m):
            Ai[k] -= q * Aj[k]
        if L is not None:
            Li, Lj = L[i], L[j]
            for k in range(n):
                Li[k] -= q * Lj[k]

    def col_op(i, j, q):  # col_i -= q * col_j
        for row in A:
            row[i] -= q * row[j]
        if R is not None:
            for row in R:
                row[i] -= q * row[j]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        if L is not None:
            L[i], L[j] = L[j], L[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        if R is not None:
            for row in R:
                row[i], row[j] = row[j], row[i]

    def negate_row(i):
        A[i] = [-v for v in A[i]]
        if L is not None:
            L[i] = [-v for v in L[i]]

    t = 0
    while True:
        pos = None
        for i in range(t, n):
            for j in range(t, m):
                v = A[i][j]
                if v and (pos is None or abs(v) < best):
                    pos, best = (i, j), abs(v)
        if pos is None:
            break
        swap_rows(t, pos[0])
        swap_cols(t, pos[1])
        while True:
            if A[t][t] < 0:
                negate_row(t)
            v = A[t][t]
            retry = False
            for i in range(n):
                if i == t or not A[i][t]:
                    continue
                q = A[i][t] // v
                if q:
                    row_op(i, t, q)
                if A[i][t]:
                    swap_rows(t, i)
                    retry = True
                    break
            if retry:
                continue
            for j in range(m):
                if j == t or not A[t][j]:
                    continue
                q = A[t][j] // v
                if q:
                    col_op(j, t, q)
                if A[t][j]:
                    swap_cols(t, j)
                    retry = True
                    break
            if retry:
                continue
            bad = None
            for i in range(t + 1, n):
                for j in range(t + 1, m):
                    if A[i][j] % v:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            row_op(t, bad, -1)  # pull the offending row into the pivot row
        t += 1
    factors = tuple(A[i][i] for i in range(t))
    return SNFResult(
        factors,
        n,
        m,
        tuple(map(tuple, L)) if L is not None else None,
        tuple(map(tuple, R)) if R is not None else None,
    )


def boundary_matrix(K, d):
    """Dense boundary matrix C_d -> C_{d-1} of the augmented complex.

    Rows are the (d-1)-faces and columns the d-faces, both in lex order;
    boundary_matrix(K, 0) is the single augmentation row of ones.
    """
    if d < 0:
        raise BadParams("boundary_matrix needs d >= 0")
    cols = K.k_faces(d)
    idx = {f: i for i, f in enumerate(K.k_faces(d - 1))}
    out = [[0] * len(cols) for _ in idx]
    for j, face in enumerate(cols):
        for pos, v in enumerate(vertices_of(face)):
            child = face & ~(1 << (v - 1))
            out[idx[child]][j] = -1 if pos % 2 else 1
    return out
