"""Finite abstract simplicial complexes on vertices 1..m.

Faces are stored as integer bitmasks (vertex i <-> bit i-1), which keeps
subset algebra to single machine-word operations for the supported range
m <= 24.  A complex is determined by its inclusion-maximal faces (facets);
the full face list is enumerated on demand and cached.

The empty complex (face set {<empty>}) is represented with m = 0 and the
single facet 0.  There is no "void" complex: the empty set is always a face.

Operations that pass to a subcomplex on fewer vertices (links, deletions,
full subcomplexes, stars, cores) relabel the result to contiguous labels
1..m' in the order of the vertices kept.  They are built straight from
facet masks; only input and the generators that can grow m go through
the validating :func:`from_facets`.  A complex is its face structure
(m, facets) and nothing else; which vertices of K the core's 1..m' are
is :meth:`SimplicialComplex.core_vertices`.
"""

from __future__ import annotations

import itertools as it
import json
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Iterable, Mapping

from .errors import (
    BadParams,
    GhostVertex,
    NotAFace,
    OutOfRange,
    ParseError,
    TooManyVertices,
)

MAX_VERTICES = 24


def mask_of(vertices: Iterable[int]) -> int:
    """Bitmask of a vertex collection (labels are 1-based)."""
    m = 0
    for v in vertices:
        m |= 1 << (v - 1)
    return m


def vertices_of(mask: int) -> tuple[int, ...]:
    """Sorted vertex tuple of a bitmask."""
    out = []
    v = 1
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


def _submasks(mask: int):
    """All subsets of ``mask``, the empty set last."""
    s = mask
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & mask


def _compress(mask: int, support: int) -> int:
    """``mask`` (a subset of ``support``) with the vertices of ``support``
    renumbered 1..|support| in order."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << (support & (low - 1)).bit_count()
        mask ^= low
    return out


def _lift_mask(mask: int, verts: tuple[int, ...]) -> int:
    """The inverse of :func:`_compress`: bit i of ``mask`` goes to vertex
    ``verts[i]`` (increasing ``verts`` keep increasing masks in order)."""
    out = 0
    for i, v in enumerate(verts):
        if mask >> i & 1:
            out |= 1 << (v - 1)
    return out


def _maximal(masks: Iterable[int]) -> list[int]:
    """The inclusion-maximal masks among ``masks``, each once, largest first."""
    out: list[int] = []
    for f in sorted(set(masks), key=int.bit_count, reverse=True):
        for g in out:
            if f | g == g:
                break
        else:
            out.append(f)
    return out


def _from_masks(m: int, masks: list[int]) -> SimplicialComplex:
    """The complex on 1..m with the given facet masks, unchecked.

    Sorts the list lex in place; no masks give the empty complex.  The caller
    guarantees that the masks are the distinct inclusion-maximal ones
    (as _maximal leaves them), that they cover 1..m and that m is within
    the vertex cap.
    """
    masks.sort(key=vertices_of)
    return SimplicialComplex(m, tuple(masks) or (0,))


@dataclass(frozen=True)
class SimplicialComplex:
    """Immutable simplicial complex; build through :func:`from_facets`."""

    m: int
    facets: tuple[int, ...]

    # -- basic structure ------------------------------------------------

    @property
    def dim(self) -> int:
        return max(f.bit_count() for f in self.facets) - 1

    def faces(self) -> frozenset[int]:
        return _face_set(self.facets)

    def k_faces(self, k: int) -> tuple[int, ...]:
        """Masks of the k-dimensional faces, in lex order on vertex tuples."""
        if k == -1:
            return (0,)
        want = k + 1
        found = {f for f in self.faces() if f.bit_count() == want}
        return tuple(sorted(found, key=vertices_of))

    def contains_mask(self, mask: int) -> bool:
        return any(mask & ~f == 0 for f in self.facets)

    # -- subcomplex operations ------------------------------------------

    def full_subcomplex(self, vertices: Iterable[int]) -> SimplicialComplex:
        """K_I: all faces contained in I, relabeled onto 1..|I|."""
        sub = mask_of(self._check_vertices(vertices))
        gens = [f & sub for f in self.facets]
        return _relabeled_onto(gens, sub)

    def star(self, v: int) -> SimplicialComplex:
        """Faces whose union with {v} is still a face, on the star's support."""
        self._check_vertices([v])
        bit = 1 << (v - 1)
        gens = [f for f in self.facets if f & bit]
        if not gens:
            raise GhostVertex(f"vertex {v} lies in no facet")
        support = reduce(int.__or__, gens)
        return _relabeled_onto(gens, support)

    def link(self, face: Iterable[int]) -> SimplicialComplex:
        """link_K(face) = {t : t,face disjoint, t u face in K}, relabeled."""
        fm = mask_of(self._check_vertices(face))
        if not self.contains_mask(fm):
            raise NotAFace(f"{vertices_of(fm)} is not a face")
        gens = [f & ~fm for f in self.facets if fm & ~f == 0]
        support = reduce(int.__or__, gens, 0)
        return _relabeled_onto(gens, support)

    def delete_vertex(self, v: int) -> SimplicialComplex:
        """Full subcomplex on [m] minus {v}."""
        self._check_vertices([v])
        rest = [u for u in range(1, self.m + 1) if u != v]
        return self.full_subcomplex(rest)

    def cone_vertices(self) -> tuple[int, ...]:
        """The vertices lying in every facet, in order, read off the AND
        of the facets with no complex built."""
        return vertices_of(reduce(int.__and__, self.facets))

    def core_vertices(self) -> tuple[int, ...]:
        """The vertices missing from some facet, in order: vertex i of
        the core is vertex core_vertices()[i-1] of K."""
        cone_mask = reduce(int.__and__, self.facets)
        return vertices_of(((1 << self.m) - 1) & ~cone_mask)

    def core(self) -> tuple[tuple[int, ...], SimplicialComplex]:
        """Split off the maximal simplex join factor.

        Returns (S, core) where S = cone_vertices(), the vertices lying in
        every facet, and core = K restricted to core_vertices(), so that
        K = simplex(S) * core up to that renumbering.
        """
        return self.cone_vertices(), self.full_subcomplex(self.core_vertices())

    def join(self, other: SimplicialComplex) -> SimplicialComplex:
        """Simplicial join; the second factor is shifted to labels m+1..m+m'."""
        facets = [
            f | (g << self.m) for f in self.facets for g in other.facets
        ]
        return from_facets(self.m + other.m, map(vertices_of, facets))

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "vertices": self.m,
            "facets": [list(vertices_of(f)) for f in self.facets],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        facets = ",".join(str(list(vertices_of(f))) for f in self.facets)
        return f"SimplicialComplex(m={self.m}, facets=[{facets}])"

    # -- helpers ----------------------------------------------------------

    def _check_vertices(self, vertices: Iterable[int]) -> tuple[int, ...]:
        vs = tuple(vertices)
        for v in vs:
            if not (1 <= v <= self.m):
                raise OutOfRange(f"vertex {v} not in 1..{self.m}")
        return vs


def _relabeled_onto(
    facet_masks: Iterable[int], support: int
) -> SimplicialComplex:
    """Normalize generator masks onto contiguous labels over ``support``
    (compressing keeps containment, so contained masks go first, once)."""
    return _from_masks(
        support.bit_count(),
        [_compress(f, support) for f in _maximal(facet_masks)],
    )


@lru_cache(maxsize=4096)
def _face_set(facets: tuple[int, ...]) -> frozenset[int]:
    seen: set[int] = set()
    for f in facets:
        seen.update(_submasks(f))
    seen.add(0)
    return frozenset(seen)


def from_facets(m: int, facets: Iterable[Iterable[int]]) -> SimplicialComplex:
    """Build a complex from a facet list, validating and canonicalizing.

    Every vertex 1..m must appear in some facet; contained or duplicate
    facets are dropped.  ``from_facets(0, [])`` is the empty complex.
    """
    if m < 0:
        raise BadParams(f"vertex count must be nonnegative, got {m}")
    if m > MAX_VERTICES:
        raise TooManyVertices(
            f"m={m} exceeds the supported maximum {MAX_VERTICES}",
            m=m,
            cap=MAX_VERTICES,
        )
    masks = []
    for f in facets:
        vs = tuple(f)
        for v in vs:
            if not isinstance(v, int) or isinstance(v, bool):
                raise BadParams(f"vertex labels must be integers, got {v!r}")
            if not (1 <= v <= m):
                raise OutOfRange(f"vertex {v} not in 1..{m}")
        masks.append(mask_of(vs))
    K = _from_masks(m, _maximal(masks))
    covered = reduce(int.__or__, K.facets)
    full = (1 << m) - 1
    if covered != full:
        missing = vertices_of(full & ~covered)
        raise GhostVertex(f"vertices {missing} appear in no facet")
    return K


def from_dict(data: object) -> SimplicialComplex:
    if not isinstance(data, Mapping):
        raise ParseError("expected a JSON object with 'vertices' and 'facets'")
    try:
        m = data["vertices"]
        facets = data["facets"]
    except KeyError as exc:
        raise ParseError(f"missing key {exc.args[0]!r}") from None
    if not isinstance(m, int) or isinstance(m, bool):
        raise ParseError("'vertices' must be an integer")
    if not isinstance(facets, list) or not all(
        isinstance(f, list) for f in facets
    ):
        raise ParseError("'facets' must be a list of vertex lists")
    return from_facets(m, facets)


def from_json(text: str) -> SimplicialComplex:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON: {exc.msg}", line=exc.lineno, column=exc.colno
        ) from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    return from_dict(data)


# -- generator families ----------------------------------------------------


def simplex(n: int) -> SimplicialComplex:
    """The full simplex on n+1 vertices; n = -1 gives the empty complex."""
    if n < -1:
        raise BadParams(f"simplex dimension must be >= -1, got {n}")
    return from_facets(n + 1, [range(1, n + 2)])


def boundary_simplex(n: int) -> SimplicialComplex:
    """Boundary of the n-simplex; the minimal triangulation of S^(n-1)."""
    if n < 0:
        raise BadParams(f"boundary_simplex needs n >= 0, got {n}")
    if n == 0:
        return simplex(-1)
    verts = range(1, n + 2)
    return from_facets(n + 1, it.combinations(verts, n))


def polygon(m: int) -> SimplicialComplex:
    """The m-cycle 1-2-...-m-1."""
    if m < 3:
        raise BadParams(f"polygon needs at least 3 vertices, got {m}")
    edges = it.chain(((i, i + 1) for i in range(1, m)), [(1, m)])
    return from_facets(m, edges)  # lazy: the cap is checked first


def stacked_sphere(d: int, k: int) -> SimplicialComplex:
    """Boundary of the (d+1)-simplex after k stellar facet subdivisions.

    Each step subdivides the lexicographically least facet, so the result
    is deterministic: a stacked d-sphere on d+2+k vertices.
    """
    if d < 1:
        raise BadParams(f"stacked_sphere needs dimension >= 1, got {d}")
    if k < 0:
        raise BadParams(f"subdivision count must be >= 0, got {k}")
    current = boundary_simplex(d + 1)
    for step in range(k):
        m = current.m + 1
        target = min(current.facets, key=vertices_of)
        new_facets = [f for f in current.facets if f != target]
        for v in vertices_of(target):
            new_facets.append((target & ~(1 << (v - 1))) | (1 << (m - 1)))
        current = from_facets(m, map(vertices_of, new_facets))
    return current


def disjoint_points(m: int) -> SimplicialComplex:
    """m isolated vertices."""
    if m < 1:
        raise BadParams(f"disjoint_points needs m >= 1, got {m}")
    return from_facets(m, ((v,) for v in range(1, m + 1)))


def cone(base: SimplicialComplex) -> SimplicialComplex:
    """Cone over K; the apex gets the last label m+1."""
    return base.join(simplex(0))


FAMILIES = {
    "simplex": (simplex, 1),
    "boundary_simplex": (boundary_simplex, 1),
    "polygon": (polygon, 1),
    "stacked_sphere": (stacked_sphere, 2),
    "disjoint_points": (disjoint_points, 1),
    "cone": (cone, 1),
    "join": (None, 2),  # handled specially: two complex arguments
}


def generate(family: str, *params) -> SimplicialComplex:
    """Build a named family member; cone/join accept complexes as params."""
    if family not in FAMILIES:
        known = ", ".join(sorted(FAMILIES))
        raise BadParams(f"unknown family {family!r} (known: {known})")
    fn, arity = FAMILIES[family]
    if len(params) != arity:
        raise BadParams(
            f"{family} takes {arity} parameter(s), got {len(params)}"
        )
    if family == "join":
        left, right = params
        if not isinstance(left, SimplicialComplex) or not isinstance(
            right, SimplicialComplex
        ):
            raise BadParams("join expects two complexes")
        return left.join(right)
    if family == "cone":
        (base,) = params
        if not isinstance(base, SimplicialComplex):
            raise BadParams("cone expects a complex")
        return cone(base)
    for p in params:
        if not isinstance(p, int) or isinstance(p, bool):
            raise BadParams(f"{family} expects integer parameters, got {p!r}")
    return fn(*params)
