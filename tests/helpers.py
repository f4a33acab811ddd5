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
Golod battery, so it checks which fields the Golod test skips;
reference_mng restricts K's table to every vertex deletion and runs the
Golod test on each, so it checks which deletions the minimally non-Golod
test skips.  reference_gram_rank builds the Gram matrix of a degree by
looking up every pair of classes, the check on the one pass over the
products that recognition makes; reference_recognize recognizes a
connected sum from the whole rational product table and those ranks
for every input, the check on recognition's Poincare-duality shortcut
for Gorenstein* cores.  reference_gorenstein builds the link
of every face in order and stops at the first that is not the right
homology sphere, the check on the Gorenstein* test's vertex-link
recursion and on the witness it names.
reference_restrict, reference_lift, reference_over and
reference_aggregates work one (mask, profile) pair at a time: they are
the references for the table's operations on its index array, and
table_from_pairs turns such pairs into a table.

reduced_chain_complex builds the whole augmented chain complex of a
complex, and smith_form_homology runs the package's Smith form on it
with no cell removed first: the oracle for the homology kernel, which
reads K_I off K's facet masks and coreduces before its Smith form, and
the homology reference_integral_table asks of every subset.

package_caches lists every lru cache the package defines, and
cold_caches empties them and the table cache, so that a test counts the
work of a run from nothing cached.

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
from functools import lru_cache
from pathlib import Path
from typing import Sequence

from momangle import (
    BadParams,
    ChainComplex,
    GolodReport,
    GorensteinReport,
    INT,
    MNGReport,
    PRIME,
    RAT,
    HochsterTable,
    HomologyProfile,
    ProductTable,
    RecognitionReport,
    TorClass,
    cocycle_basis,
    cone,
    disjoint_points,
    from_facets,
    from_json,
    hochster,
    hochster_table,
    homology_profile,
    is_cup_golod,
    mask_of,
    multiply,
    product_table,
    vertices_of,
)
from momangle.complexes import _compress, _lift_mask
from momangle.linalg import (
    MAX_FIELD_PRIME,
    Echelon,
    make_profile,
    rank_mod_p,
    reduced_homology,
)
from momangle.products import (
    CUP_CAVEAT,
    _iter_nonzero_products,
    cochain_class_coords,
)

PACKAGE = Path(hochster.__file__).resolve().parent


def package_caches():
    """(module name, attribute, cache) for every lru cache defined in a
    module of the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"momangle.{path.stem}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_info") and value.__module__ == module.__name__:
                yield path.stem, name, value


def cold_caches():
    """Empty the table cache and every lru cache of the package."""
    hochster._TABLES.clear()
    for *_, cache in package_caches():
        cache.cache_clear()


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

# RP^2 with the facet 123 subdivided at a new vertex 7.  No longer
# 2-neighbourly, it has disconnected full subcomplexes, and their classes
# multiply into the Z/2 of H^2(RP^2; F_2): it is minimally non-Golod over
# F_2 and has no nonzero product over Q.
RP2_STELLAR_FACETS = tuple(
    f for f in RP2_FACETS if f != (1, 2, 3)
) + ((1, 2, 7), (1, 3, 7), (2, 3, 7))


# the 7-vertex torus, and the suspension of two disjoint triangles: closed
# pseudomanifolds that are not spheres.  The suspension less either apex
# is a cone, so only the apexes' links tell it from a sphere.
TORUS7 = from_facets(
    7,
    [
        tuple(sorted((i + x) % 7 + 1 for x in t))
        for i in range(7)
        for t in ((0, 1, 3), (0, 2, 3))
    ],
)
TWO_TRIANGLES = from_facets(6, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)])
PINCHED = TWO_TRIANGLES.join(disjoint_points(2))


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


def has_face(K, vertices):
    """Whether the vertex collection spans a face of K."""
    return K.contains_mask(mask_of(vertices))


def relabel(K, new_labels):
    """K with vertex i renamed new_labels[i-1]; a bijection on 1..m."""
    if sorted(new_labels) != list(range(1, K.m + 1)):
        raise BadParams("relabeling must be a bijection onto 1..m")
    return from_facets(
        K.m, [[new_labels[v - 1] for v in vertices_of(f)] for f in K.facets]
    )


def profile_degrees(prof):
    """The degrees where a HomologyProfile has rank or torsion, sorted."""
    return tuple(sorted({d for d, _ in prof.ranks} | {d for d, _ in prof.torsion}))


def f_vector(K):
    """(f_-1, f_0, ..., f_dim), counted over K.faces()."""
    counts = [0] * (K.dim + 2)
    for f in K.faces():
        counts[f.bit_count()] += 1
    return tuple(counts)


def minimal_non_faces(K):
    """Inclusion-minimal subsets of [m] that are not faces, by trying
    every subset of at most dim + 2 vertices (a minimal non-face drops to
    faces when any vertex is removed)."""
    out = []
    for size in range(2, K.dim + 3):
        for combo in it.combinations(range(1, K.m + 1), size):
            if has_face(K, combo):
                continue
            if all(has_face(K, combo[:i] + combo[i + 1 :]) for i in range(size)):
                out.append(combo)
    return tuple(sorted(out))


def euler_characteristic(cc):
    """Alternating sum of the chain ranks of a ChainComplex."""
    return sum((-1) ** d * n for d, n in zip(cc.degrees, cc.dims))


def faces_by_size(K, verts):
    """Faces of K inside a vertex set, keyed by face cardinality."""
    verts = sorted(verts)
    out = {0: [()]}
    for size in range(1, len(verts) + 1):
        hits = [c for c in it.combinations(verts, size) if has_face(K, c)]
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
        if not has_face(K, tau):
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


def reduced_chain_complex(K):
    """Augmented simplicial chain complex of K, degrees -1..dim, with the
    faces of each degree in lex order."""
    degrees = tuple(range(-1, K.dim + 1))
    faces = {d: K.k_faces(d) for d in degrees}
    boundaries = [((),)]  # d on the empty face is zero
    for d in degrees[1:]:
        below = {f: i for i, f in enumerate(faces[d - 1])}
        boundaries.append(tuple(
            tuple(
                (below[face & ~(1 << (v - 1))], -1 if pos % 2 else 1)
                for pos, v in enumerate(vertices_of(face))
            )
            for face in faces[d]
        ))
    dims = tuple(len(faces[d]) for d in degrees)
    return ChainComplex(degrees, dims, tuple(boundaries))


@lru_cache(maxsize=200_000)
def smith_form_homology(K):
    """Integral reduced homology of K from the Smith form of its whole
    augmented chain complex, no cell removed first; cached per complex,
    as the relabelled K_I of many complexes coincide."""
    return homology_profile(reduced_chain_complex(K))


def table_from_pairs(K, coeffs, pairs):
    """A HochsterTable of K from (mask, profile) pairs: one index entry
    per mask of K, 0 (trivial) where no pair names the mask, and one
    profile entry per distinct profile, in order of first use."""
    index = memoryview(bytearray(4 << K.m)).cast("I")
    position = {}
    profiles = [HomologyProfile(coeffs, ())]
    for mask, prof in pairs:
        if prof.is_trivial:
            continue
        if prof not in position:
            position[prof] = len(profiles)
            profiles.append(prof)
        index[mask] = position[prof]
    return HochsterTable(K, coeffs, index.toreadonly(), tuple(profiles))


def reference_integral_table(K):
    """Integral Hochster table by the Smith form of every full subcomplex.

    Builds the relabelled K_I for each of the 2^m subsets and its whole
    augmented chain complex (smith_form_homology), settling no subset
    from smaller ones and removing no cell before the Smith form.
    """
    subsets = []
    for mask in range(1 << K.m):
        prof = smith_form_homology(K.full_subcomplex(vertices_of(mask)))
        if not prof.is_trivial:
            subsets.append((mask, prof))
    return table_from_pairs(K, INT, subsets)


def reference_restrict(table, J):
    """The table of K_J by compressing every stored mask inside J, one
    (mask, profile) pair at a time."""
    sub = table.complex.full_subcomplex(vertices_of(J))
    pairs = [(_compress(I, J), p) for I, p in table.subsets if not I & ~J]
    return table_from_pairs(sub, table.coeffs, pairs)


def reference_lift(K):
    """K's integral table from its core's, each stored mask lifted onto
    the core's vertices of K one pair at a time."""
    rest = K.core_vertices()
    core = hochster_table(K.full_subcomplex(rest), INT)
    pairs = [(_lift_mask(I, rest), p) for I, p in core.subsets]
    return table_from_pairs(K, INT, pairs)


def reference_over(table, coeffs):
    """The field table by converting every stored subset's profile."""
    pairs = [(I, p.over_field(coeffs)) for I, p in table.subsets]
    return table_from_pairs(table.complex, coeffs, pairs)


def reference_aggregates(table):
    """bigraded, rk_betti and torsion_primes, summed one stored subset
    at a time."""
    bigraded, rk, primes = {}, [0] * (table.complex.dim + 2), set()
    for mask, prof in table.subsets:
        for d, r in prof.ranks:
            key = (mask.bit_count(), d)
            bigraded[key] = bigraded.get(key, 0) + r
            rk[d + 1] += r
        primes |= prof.torsion_primes()
    return bigraded, tuple(rk), tuple(sorted(primes))


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
    return table_from_pairs(K, coeffs, subsets)


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
    """products._sorted_pairs by scanning every later component for
    each component: (first, second, target) keys, in list order."""
    present = set(components)
    for a, (I, d1) in enumerate(components):
        for J, d2 in components[a + 1 :]:
            if I & J:
                continue
            target = (I | J, d1 + d2 + 1)
            if target in present:
                yield (I, d1), (J, d2), target


def reference_deletion_candidates(K, bound=MAX_FIELD_PRIME):
    """products._deletion_candidates from reference_component_pairs: the
    vertices outside some target the scan reaches over Q or over F_p for
    a torsion prime p of K, or every vertex when a torsion prime is past
    bound."""
    full = (1 << K.m) - 1
    torsion = hochster_table(K, INT).torsion_primes
    if any(p > bound for p in torsion):
        return full
    found = 0
    for field in (RAT, *map(PRIME, torsion)):
        table = hochster_table(K, field)
        components = [
            (I, d) for I, prof in table.subsets if I for d in profile_degrees(prof)
        ]
        for _, _, (S, _) in reference_component_pairs(components):
            found |= full & ~S
    return found


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
        found = next(_iter_nonzero_products(K, field), None)
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


def reference_mng(K):
    """The MNGReport is_minimally_non_golod(K) should give, by restricting
    K's table to every vertex deletion K - v in vertex order and running
    the Golod test on each, with no deletion skipped."""
    own = is_cup_golod(K)
    caveats = own.caveats
    if own.verdict == "UNKNOWN":
        return MNGReport(None, caveats=caveats)
    if own.verdict == "CUP_GOLOD":
        return MNGReport(
            False,
            witness={"reason": "no nonzero cup products in K itself"},
            caveats=caveats,
        )
    undecided = False
    table = hochster_table(K, INT)
    for v in range(1, K.m + 1):
        sub = table.restrict(((1 << K.m) - 1) & ~(1 << (v - 1))).complex
        rep = is_cup_golod(sub)
        if rep.verdict == "NON_GOLOD":
            return MNGReport(False, v, rep.witness, caveats)
        if rep.verdict == "UNKNOWN":
            undecided = True
    if undecided:
        return MNGReport(None, caveats=caveats)
    return MNGReport(True, witness=own.witness, caveats=caveats)


def reference_gorenstein(K):
    """The GorensteinReport is_gorenstein_star(K) should give, by building
    the link of every face of K in size-then-vertex order, the empty face
    (K itself) first, and stopping at the first whose reduced homology is
    not that of S^(dim K - |face|)."""
    cone_verts = K.cone_vertices()
    if cone_verts:
        return GorensteinReport(
            False,
            "K has cone vertices, so K != core(K)",
            {"cone_vertices": list(cone_verts)},
        )
    n = K.dim
    faces = sorted(K.faces(), key=lambda f: (f.bit_count(), vertices_of(f)))
    for face in faces:
        prof = reduced_homology(K.link(vertices_of(face)))
        size = face.bit_count()
        if not prof.is_sphere(n - size):
            return GorensteinReport(
                False,
                "a face link is not a homology sphere of the right dimension",
                {
                    "face": list(vertices_of(face)),
                    "expected_sphere": n - size,
                    "ranks": [list(r) for r in prof.ranks],
                    "torsion": [[d, list(t)] for d, t in prof.torsion],
                },
            )
    return GorensteinReport(True, "all face links are homology spheres")


def reference_gram_rank(pt, N, k):
    """Rank of the pairing of degree k with degree N - k in the product
    table pt, from the first coordinate of the product of every pair of
    a degree-k and a degree-(N - k) class, looked up one pair at a time."""
    by_degree = {}
    for t, c in enumerate(pt.classes):
        by_degree.setdefault(c.total_degree, []).append(t)
    lookup = {(i, j): coords for i, j, coords in pt.products}
    echelon = Echelon(pt.coeffs)
    cols = by_degree.get(N - k, [])
    for i in by_degree.get(k, []):
        row = {}
        for c, j in enumerate(cols):
            coords = lookup.get((min(i, j), max(i, j)))
            if coords:
                row[c] = coords[0][1]
        echelon.insert(row)
    return len(echelon)


def reference_recognize(K):
    """The RecognitionReport recognize_connected_sum(K) should give, from
    the Betti checks, the whole product table over Q scanned for a
    product below the top, and every pairing into the top ranked by
    reference_gram_rank, whatever K's core is."""
    b = hochster_table(K, INT).betti
    N = max((k for k, v in enumerate(b) if v), default=0)
    if N == 0:
        return RecognitionReport(
            "NONE", reason="the moment-angle complex is contractible"
        )
    if b[N] != 1:
        return RecognitionReport(
            "NONE", N, reason=f"top Betti number is {b[N]}, not 1"
        )
    if all(v == 0 for v in b[1:N]):
        return RecognitionReport("SPHERE", N)
    if N < 6:
        reason = "no room for complementary middle classes"
    elif b[N - 1] or b[N - 2]:
        reason = "classes immediately below the top degree"
    elif any(b[k] != b[N - k] for k in range(N + 1)):
        reason = "Betti numbers are not palindromic"
    elif N % 2 == 0 and b[N // 2] % 2:
        reason = "odd-rank middle degree cannot split into products"
    else:
        reason = None
    if reason:
        return RecognitionReport("NONE", N, reason=reason)
    pt = product_table(K, RAT)
    degree = [c.total_degree for c in pt.classes]
    if any(degree[i] + degree[j] < N for i, j, _ in pt.products):
        return RecognitionReport(
            "NONE", N, reason="a product of middle classes lands below the top"
        )
    for k in range(3, N // 2 + 1):
        if b[k] and reference_gram_rank(pt, N, k) != b[k]:
            reason = f"degenerate pairing between degrees {k} and {N - k}"
            return RecognitionReport("NONE", N, reason=reason)
    pairs = []
    for k in range(3, (N - 1) // 2 + 1):
        pairs += [(k, N - k)] * b[k]
    if N % 2 == 0:
        pairs += [(N // 2, N // 2)] * (b[N // 2] // 2)
    return RecognitionReport("CONNECTED_SUM", N, tuple(pairs))


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
