"""Cup products in H*(Z_K) and the cup-level Golod test.

Classes live in the subset decomposition: a class is a cocycle on a full
subcomplex K_I, placed in total degree |I| + d + 1.  Products of classes
with overlapping supports vanish; for disjoint supports I and J the
product evaluates on a face tau of K_{I u J} as

    (a.b)(tau) = (-1)^e a(tau n I) b(tau n J),
    e = inv(tau n I, J) + inv(tau n J, I) + inv(I - tau, J - tau),

where inv(A, B) counts pairs a > b.  The sign makes the product graded
commutative and associative at the cochain level, which the test suite
checks directly on random complexes.

The Golod verdict is three-valued.  NON_GOLOD is witnessed by an explicit
nonzero product over some field; CUP_GOLOD means every field the report
lists in fields_checked is product-free (higher operations are out of
scope, which the report's caveat repeats); UNKNOWN is reserved for torsion
primes too large to test.  An F_p with no p-torsion in the integral table
is covered by the Q search and not searched itself.  product_table and
every searched field of the Golod test run one product search, and a
component's basis is built when a pair first reaches it.

A nonzero product of classes on (I, d1) and (J, d2) lands in the target
component (I u J, d1 + d2 + 1), so the search lists the splits of each
target into two components and sorts them into pairs.  The listing is
kept per complex and field, beside the cached table, with the component
numbering it read off the table's index in three compact arrays: the
product search, product_table's classes, the Golod test and the
minimally-non-Golod test's choice of vertex deletions all read it.  The
search can be limited to the pairs whose target passes a test on its
(subset, degree), in the same order; connected-sum recognition searches
below its top degree that way (and at it, for a core that is not
Gorenstein*), as the theorem 4.2 harness does below its top.  This module
alone packs and unpacks its pairs, and _golod_fields alone decides which
fields the Golod test lists, searches, skips or cannot test.
"""

from __future__ import annotations

import json
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby, repeat
from operator import itemgetter, sub

from .complexes import SimplicialComplex, _lift_mask, vertices_of
from .errors import FieldMismatch, InternalInvariant, NotAField
from .hochster import hochster_table
from .linalg import (
    INT,
    MAX_FIELD_PRIME,
    PRIME,
    RAT,
    Coefficients,
    cocycle_basis,
)


@dataclass(frozen=True)
class Cochain:
    """A cochain on K_subset, with faces in the ambient labels."""

    subset: int
    degree: int
    coeffs: Coefficients
    values: tuple[tuple[int, object], ...]  # (face mask, scalar), sorted

    @property
    def is_zero(self) -> bool:
        return not self.values

    @property
    def total_degree(self) -> int:
        return self.subset.bit_count() + self.degree + 1


@dataclass(frozen=True)
class TorClass:
    """Basis class of H*(Z_K): position `index` of H~^degree(K_subset)."""

    subset: int
    degree: int
    index: int
    coeffs: Coefficients
    values: tuple[tuple[int, object], ...]  # its cocycle, as in Cochain

    @property
    def total_degree(self) -> int:
        return self.subset.bit_count() + self.degree + 1

    def describe(self) -> dict:
        return {
            "subset": list(vertices_of(self.subset)),
            "degree": self.degree,
            "total_degree": self.total_degree,
            "index": self.index,
        }


@lru_cache(maxsize=10_000)
def _relabelled_basis(KI: SimplicialComplex, degree: int, coeffs: Coefficients):
    # K_I of K, K - v, cone(K), ... relabel onto one complex: one basis
    return cocycle_basis(KI, degree, coeffs)


@lru_cache(maxsize=50_000)
def _component(
    K: SimplicialComplex, subset: int, degree: int, coeffs: Coefficients
):
    """Cocycle basis of H~^degree(K_subset), with its faces in ambient labels.

    Returns the basis, a map from each ambient face mask to its column in
    the basis, and the component's TorClass tuple.  A component's basis is
    built when tor_basis or a pair of the product search first reaches it;
    cochain_class_coords reads the same entry.
    """
    verts = vertices_of(subset)
    basis = _relabelled_basis(K.full_subcomplex(verts), degree, coeffs)
    ambient = [_lift_mask(f, verts) for f in basis.faces]
    cochains = (
        tuple(sorted((a, val) for a, val in zip(ambient, vec) if val != 0))
        for vec in basis.vectors
    )
    classes = tuple(
        TorClass(subset, degree, idx, coeffs, c) for idx, c in enumerate(cochains)
    )
    return basis, {a: col for col, a in enumerate(ambient)}, classes


def _classes(K, components, coeffs):
    """Yield the classes of the (subset, degree, rank) components in turn,
    each component's checked against its rank in the table."""
    for subset, degree, rank in components:
        classes = _component(K, subset, degree, coeffs)[2]
        if len(classes) != rank:
            raise InternalInvariant(f"basis of rank {len(classes)}, table rank {rank}")
        yield from classes


def tor_basis(
    K: SimplicialComplex, coeffs: Coefficients = RAT
) -> tuple[TorClass, ...]:
    """Deterministic basis of H*(Z_K) over a field, unit class included.

    Follows the Hochster table: cocycle bases are built only for the
    subsets and degrees where the reduced homology over the field is
    nonzero.  Classes are ordered by (subset mask, degree, basis index);
    the unit is the empty-subset class in total degree 0, and the rest
    are numbered as the table's components.  No pair is listed.
    """
    if not coeffs.is_field:
        raise NotAField("cup products need field coefficients")
    ranks = hochster_table(K, coeffs).components().items()
    listed = [(0, -1, 1), *((I, d, r) for (I, d), (_, r) in ranks)]
    return tuple(_classes(K, listed, coeffs))


def _inv(amask: int, bmask: int) -> int:
    """Pairs (a, b) with a in A, b in B and a > b."""
    total = 0
    for a in vertices_of(amask):
        total += (bmask & ((1 << (a - 1)) - 1)).bit_count()
    return total


def multiply(K: SimplicialComplex, x, y) -> Cochain:
    """Cup product of two classes or cochains, as a cochain on K_{I u J}.

    Reads only subset, degree, coeffs and values, which TorClass and
    Cochain share.
    """
    if x.coeffs != y.coeffs:
        raise FieldMismatch(f"cannot multiply over {x.coeffs} and {y.coeffs}")
    I, J = x.subset, y.subset
    degree = x.degree + y.degree + 1
    if I & J:
        return Cochain(I | J, degree, x.coeffs, ())
    if not x.coeffs.is_field:
        raise NotAField("integer coefficients do not form a field")
    p = x.coeffs.p  # None over Q
    acc: dict[int, object] = {}
    for f, a in x.values:
        for g, b in y.values:
            tau = f | g
            if not K.contains_mask(tau):
                continue
            e = _inv(f, J) + _inv(g, I) + _inv(I & ~f, J & ~g)
            val = acc.get(tau, 0) + (-a * b if e % 2 else a * b)
            if p:
                val %= p
            if val:
                acc[tau] = val
            else:
                acc.pop(tau, None)
    return Cochain(I | J, degree, x.coeffs, tuple(sorted(acc.items())))


def cochain_class_coords(K: SimplicialComplex, c) -> tuple[object, ...]:
    """Coordinates of a cocycle (a Cochain or a TorClass) in the basis of
    H~^degree(K_subset).

    Raises InternalInvariant if the cochain is not a cocycle modulo
    coboundaries (a product failing to close up would be a sign bug).
    """
    basis, columns, _ = _component(K, c.subset, c.degree, c.coeffs)
    values = {}
    for f, val in c.values:
        if f not in columns:
            raise InternalInvariant("cochain supported outside the complex")
        values[columns[f]] = val
    return basis.coords(values)


@dataclass(frozen=True)
class ProductTable:
    """All nonzero pairwise products of the positive-degree basis classes.

    products holds (i, j, coords) with i <= j indexing `classes` and
    coords the nonzero coordinates (class index, scalar) of the product.
    """

    complex: SimplicialComplex
    coeffs: Coefficients
    classes: tuple[TorClass, ...]
    products: tuple[tuple[int, int, tuple[tuple[int, object], ...]], ...]

    @property
    def is_trivial(self) -> bool:
        return not self.products

    def to_dict(self) -> dict:
        return {
            "field": str(self.coeffs),
            "classes": [c.describe() for c in self.classes],
            "nonzero_products": [
                [i, j, [[t, str(v)] for t, v in coords]]
                for i, j, coords in self.products
            ],
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def product_table(
    K: SimplicialComplex, coeffs: Coefficients = RAT
) -> ProductTable:
    """Multiply every disjoint-support pair of positive-degree classes.

    Pairs whose target component H~^d(K_{I u J}) is zero are skipped
    outright, and the rest resolved into basis coordinates.  The classes,
    tor_basis's less the unit, are numbered from the search's listing.
    """
    if not coeffs.is_field:
        raise NotAField("cup products need field coefficients")
    subsets, degrees, starts, _ = _listing(K, coeffs)
    ranks = zip(subsets, degrees, map(sub, starts[1:], starts))
    classes = tuple(_classes(K, ranks, coeffs))
    products = tuple(e for *_, e in _iter_nonzero_products(K, coeffs))
    return ProductTable(K, coeffs, classes, products)


def _splits(S: int, d: int, by_degree: dict[int, dict[int, int]]):
    """Yield the positions of the components (I, d1) and (S - I,
    d - d1 - 1) of by_degree that split the target (S, d), each unordered
    split once.  by_degree maps a degree to {subset: position}.  Each
    pair of degrees is searched over the smaller of its component sets
    and the 2^(|S| - 1) splits of S."""
    low = S & -S
    for d1 in range((d + 1) // 2):  # d1 <= d2
        d2 = d - d1 - 1
        A, B = by_degree.get(d1), by_degree.get(d2)
        if not A or not B:
            continue
        if len(B) < len(A):
            A, B = B, A
        if len(A) < 1 << (S.bit_count() - 1):
            for I in A:
                J = S ^ I
                if I & ~S or J not in B:
                    continue
                if d1 != d2 or I & low:  # else the split is met at J
                    yield A[I], B[J]
            continue
        rest = J = S ^ low  # J runs over the nonempty submasks without low
        while J:
            I = S ^ J
            if I in A and J in B:
                yield A[I], B[J]
            if d1 != d2 and J in A and I in B:
                yield A[J], B[I]
            J = (J - 1) & rest


def _sorted_pairs(keys) -> array:
    """The pairs of components whose cup product can be nonzero.

    keys lists the (subset, degree) keys of the nonzero components on
    nonempty subsets, in increasing order.  Classes on (I, d1) and
    (J, d2) multiply into H~^(d1+d2+1)(K_{I u J}), so a pair is a split
    of a target component; the splits of every target are listed.  The
    pair at positions a < b is packed as a * len(keys) + b, and the pairs
    are sorted, by first component and then by second, into an array of
    machine integers (8 bytes a pair, where the sorted list takes 36);
    _unpacked reads them back.
    """
    n, by_degree = len(keys), {}
    for pos, (I, d) in enumerate(keys):
        by_degree.setdefault(d, {})[I] = pos
    pairs = sorted(
        a * n + b if a < b else b * n + a
        for S, d in keys
        for a, b in _splits(S, d, by_degree)
    )
    return array("q", pairs)


def _unpacked(pairs: array, n: int):
    """The (first, second) positions of packed pairs of n components."""
    return map(divmod, pairs, repeat(n))


@lru_cache(maxsize=64)
def _listing(
    K: SimplicialComplex, coeffs: Coefficients
) -> tuple[array, array, array, array]:
    """K's components over the field and the packed pairs of them,
    listed once per complex and field, so the table's index is scanned
    once per listing.

    Returns (subsets, degrees, starts, pairs).  Component p is
    (subsets[p], degrees[p]), in the order of HochsterTable.components(),
    and its classes are starts[p] to starts[p + 1] - 1; the three arrays
    keep that map in 13 bytes a component, where the map takes about 200.
    """
    subsets, degrees, starts = array("I"), array("b"), array("q", [0])
    for (I, d), (_, rank) in hochster_table(K, coeffs).components().items():
        subsets.append(I)
        degrees.append(d)
        starts.append(starts[-1] + rank)
    return subsets, degrees, starts, _sorted_pairs(list(zip(subsets, degrees)))


def _position(subsets: array, degrees: array, S: int, d: int) -> int:
    """The position of the listed component (S, d): subsets is sorted, and
    a subset's degrees follow each other."""
    p = bisect_left(subsets, S)
    while degrees[p] != d:
        p += 1
    return p


def _deletion_candidates(K: SimplicialComplex) -> int:
    """Mask of the vertices v whose deletion K - v may carry a product.

    v is one when it lies outside the target I u J of some listed pair of
    components (I, d1), (J, d2) over a field the Golod test searches;
    all vertices are when it cannot test a torsion prime of K.
    """
    full = (1 << K.m) - 1
    battery, untestable = _golod_fields(K)
    if untestable:
        return full
    found = 0
    for field, searched in battery:
        if searched:
            subsets, _, _, pairs = _listing(K, field)
            for a, b in _unpacked(pairs, len(subsets)):
                found |= full & ~(subsets[a] | subsets[b])
    return found


def _iter_nonzero_products(
    K: SimplicialComplex, coeffs: Coefficients, target=None
):
    """Yield (x, y, (i, j, coords)) for the nonzero products of classes.

    i and j index the positive-degree classes in tor_basis order, as
    running sums of the ranks of K's table over the field.  The pairs of
    K's listing are multiplied in increasing (i, j) order, grouped by
    first component, and a component's basis is built when a pair first
    reaches it.  target, when given, is a predicate on the (subset,
    degree) of a pair's target component: only the pairs whose target
    passes are multiplied, in the same order, so a search for a product
    in some degrees reads the one listing and builds no basis for a
    component whose every pair lands elsewhere.
    """
    subsets, degrees, starts, pairs = _listing(K, coeffs)

    def indexed(p):
        start = starts[p]
        listed = [(subsets[p], degrees[p], starts[p + 1] - start)]
        return enumerate(_classes(K, listed, coeffs), start)

    for a, group in groupby(_unpacked(pairs, len(subsets)), key=itemgetter(0)):
        I, d1 = subsets[a], degrees[a]
        partners = []
        for _, b in group:
            S, d = I | subsets[b], d1 + degrees[b] + 1
            if target is None or target(S, d):
                partners.append((b, starts[_position(subsets, degrees, S, d)]))
        if not partners:
            continue
        for i, x in indexed(a):
            for b, t in partners:
                for j, y in indexed(b):
                    prod = multiply(K, x, y)
                    if prod.is_zero:
                        continue
                    coords = cochain_class_coords(K, prod)
                    nz = tuple((t + p, v) for p, v in enumerate(coords) if v != 0)
                    if nz:
                        yield x, y, (i, j, nz)


GOLOD_FIELDS = (RAT, PRIME(2), PRIME(3), PRIME(5), PRIME(7))

CUP_CAVEAT = (
    "verdict covers cup products only; Massey-type operations are not"
    " examined"
)


@dataclass(frozen=True)
class GolodReport:
    verdict: str  # NON_GOLOD | CUP_GOLOD | UNKNOWN
    fields_checked: tuple[str, ...]
    witness: dict | None
    caveats: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "fields_checked": list(self.fields_checked),
            "witness": self.witness,
            "caveats": list(self.caveats),
        }


def _golod_fields(K: SimplicialComplex) -> tuple[list, list[int]]:
    """The Golod test's battery as (field, searched) pairs, in battery
    order, and the torsion primes of K beyond MAX_FIELD_PRIME, which it
    cannot test.  Q is searched, and an F_p only when p is a torsion prime
    of K's integral table."""
    torsion = hochster_table(K, INT).torsion_primes
    battery = list(GOLOD_FIELDS)
    battery += [
        PRIME(p)
        for p in torsion
        if p <= MAX_FIELD_PRIME and PRIME(p) not in GOLOD_FIELDS
    ]
    untestable = [p for p in torsion if p > MAX_FIELD_PRIME]
    # no p-torsion: H*(Z_K; F_p) = H*(Z_K; Z) mod p has no product Q lacks
    return [(f, f.kind == "rat" or f.p in torsion) for f in battery], untestable


@lru_cache(maxsize=10_000)
def is_cup_golod(K: SimplicialComplex) -> GolodReport:
    """Cup-level Golod test over a fixed battery of fields.

    The battery is Q and F_p for p in {2, 3, 5, 7}, extended by any other
    torsion prime of K's integral table.  Torsion primes beyond
    MAX_FIELD_PRIME cannot be tested and downgrade a clean result to
    UNKNOWN.  fields_checked names the fields the verdict covers, in
    battery order up to the witness.  Q is searched first, and an F_p
    whose p is not a torsion prime of the integral table is covered by
    that search: it is listed but neither searched nor given a table.

    Follows the Hochster table: each searched field runs the product
    search, and a basis is built when a pair first reaches it, so a field
    whose table has no pair of disjoint components with a nonzero target
    component builds none.  Reports are cached per complex.
    """
    battery, untestable = _golod_fields(K)
    caveats = [CUP_CAVEAT]
    if untestable:
        caveats.append(
            "torsion primes beyond the field bound were not tested: "
            + ", ".join(map(str, untestable))
        )
    checked = []
    for field, searched in battery:
        checked.append(str(field))
        if not searched:
            continue
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
