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
"""

from __future__ import annotations

import heapq
import json
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from operator import itemgetter

from .complexes import SimplicialComplex, _lift_mask, vertices_of
from .errors import FieldMismatch, InternalInvariant, NotAField
from .hochster import HochsterTable, hochster_table
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


def _classes(K, subset, degree, rank, coeffs) -> tuple[TorClass, ...]:
    """The component's classes, checked against its rank in the table."""
    classes = _component(K, subset, degree, coeffs)[2]
    if len(classes) != rank:
        raise InternalInvariant(f"basis of rank {len(classes)}, table rank {rank}")
    return classes


def tor_basis(
    K: SimplicialComplex, coeffs: Coefficients = RAT
) -> tuple[TorClass, ...]:
    """Deterministic basis of H*(Z_K) over a field, unit class included.

    Follows the Hochster table: cocycle bases are built only for the
    subsets and degrees where the reduced homology over the field is
    nonzero.  Classes are ordered by (subset mask, degree, basis index);
    the unit is the empty-subset class in total degree 0.
    """
    if not coeffs.is_field:
        raise NotAField("cup products need field coefficients")
    return tuple(
        c
        for mask, prof in hochster_table(K, coeffs).subsets
        for degree, rank in prof.ranks
        for c in _classes(K, mask, degree, rank, coeffs)
    )


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
    outright; the remaining products are resolved into basis coordinates.
    """
    classes = tuple(c for c in tor_basis(K, coeffs) if c.subset)
    search = _iter_nonzero_products(K, hochster_table(K, coeffs))
    return ProductTable(K, coeffs, classes, tuple(e for *_, e in search))


def _component_pairs(components):
    """Pairs of components whose cup product can be nonzero.

    components lists the (subset, degree) keys of the nonzero components
    H~^degree(K_subset) on nonempty subsets, in increasing order.  Classes
    on (I, d1) and (J, d2) multiply into H~^(d1+d2+1)(K_{I u J}): nonzero
    only when I and J are disjoint and that target is a component (so d2
    is scanned only if degree d1+d2+1 has one).  Yields (first, second,
    target) keys, first before second, partners in list order.
    """
    present = set(components)
    by_degree: dict[int, list[int]] = {}
    for b, (_, d) in enumerate(components):
        by_degree.setdefault(d, []).append(b)
    for a, (I, d1) in enumerate(components):
        ds = [d2 for d2 in by_degree if d1 + d2 + 1 in by_degree]
        later = [by_degree[d][bisect_right(by_degree[d], a) :] for d in ds]
        for b in heapq.merge(*later):
            J, d2 = components[b]
            if I & J:
                continue
            target = (I | J, d1 + d2 + 1)
            if target in present:
                yield (I, d1), (J, d2), target


def _iter_nonzero_products(K: SimplicialComplex, table: HochsterTable):
    """Yield (x, y, (i, j, coords)) for the nonzero products of classes.

    table is K's Hochster table over a field; i and j index the
    positive-degree classes in tor_basis order, as running sums of the
    table's ranks.  The pairs that _component_pairs admits are multiplied
    in increasing (i, j) order, grouped by first component, and a
    component's basis is built when a pair first reaches it.
    """
    spans, n = {}, 0
    for mask, prof in table.subsets:
        for degree, rank in prof.ranks:
            if mask:
                spans[mask, degree] = n, rank
                n += rank

    def indexed(key):
        start, rank = spans[key]
        return enumerate(_classes(K, *key, rank, table.coeffs), start)

    pairs = _component_pairs(list(spans))
    for first, group in groupby(pairs, key=itemgetter(0)):
        partners = [(second, spans[target][0]) for _, second, target in group]
        for i, x in indexed(first):
            for second, t in partners:
                for j, y in indexed(second):
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
    torsion = hochster_table(K, INT).torsion_primes
    battery = list(GOLOD_FIELDS)
    have = {c.p for c in battery if c.kind == "prime"}
    battery += [PRIME(p) for p in torsion if p not in have and p <= MAX_FIELD_PRIME]
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
        # no p-torsion: H*(Z_K; F_p) = H*(Z_K; Z) mod p has no product Q lacks
        if field.kind == "prime" and field.p not in torsion:
            continue
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
