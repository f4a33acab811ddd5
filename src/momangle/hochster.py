"""Cohomology of the moment-angle complex Z_K via full subcomplexes.

H^k(Z_K) splits as the direct sum over vertex subsets I of the reduced
cohomology of K_I in degree k - |I| - 1 (Hochster's formula).  The table
below records one homology profile per subset; everything else (total
Betti numbers, the bigraded and Tor-style gradings, torsion primes) is
read off from it.

K = Delta^n * K' splits off the simplex on its cone vertices (the
vertices in every facet), and Z_K = Z_K' x D^(2(n+1)).  A full
subcomplex that meets a cone vertex is a cone, so K's table is the table
of its core K' with a zero bit inserted into every mask per cone vertex;
nothing of K is walked.

Any other K has one walk over the 2^m subsets, over the integers.  Tables
are cached per complex and coefficients; a complex is its face
structure, so K_J of one complex and an equal complex built directly
share one table.  The walk keeps one array of 4 bytes a subset (4 MB
at the vertex cap): K_I's profile as an index into a list of distinct
profiles, one per value (0 trivial, 1 the empty complex's).  It takes
the subsets I = t + J, t the top vertex, in blocks of increasing t, and
each block in cosets of S = J & N(t), the neighbours of t in I.  Every
face of K_I through t lies in t + S, so if t is dominated in K_(t + S)
(one other vertex lies in every maximal face through t), it is in K_I,
and K_I strong-collapses onto K_J (Barmak-Minian, Strong homotopy
types, nerves and collapses, DCG 2012).  So a block starts as a copy of
the indices below it, the coset of S empty is rewritten as K_J plus a
point, and a coset stays copied when t + S is a face or t is dominated
in K_(t + S).  The rest is walked subset by subset, S and X = J - S in
increasing submask order, so every I - v is settled before I.  If the
maximal traces f & I through some v all hold another vertex, v is
dominated, and K_I takes K_(I - v)'s index.  That depends on J = I &
N(v) alone: some w in J - v must make s + w a face for each trace
s = f & J of a facet f through v.  Each answer is kept per tried vertex
and J, one byte each in an array over the span of N(v).  The vertices
are tried fewest neighbours first, whose J takes few values.  Else a
search over neighbour masks from t + S finds the component C of t in
K_I; if C != I, H~(K_I) is the sum of K_C's and K_(I - C)'s plus Z in
degree 0, once per pair of profile indices.  Only the rest goes to
linalg.full_subcomplex_homology, which reads K_I off K's facet masks.

The subsets through the last vertex m come last, and for a Gorenstein*
K of dimension D on V they are not walked.  |K| is then a homology
D-sphere, and Alexander duality in it gives H~_i(K_(V - I)) =
H~^(D-1-i)(K_I) (Munkres, Elements of Algebraic Topology, sections
70-72; Buchstaber-Panov, Toric Topology, on the bigraded Poincare
duality of Gorenstein* complexes).  So the ranks of K_(V - I) are K_I's
moved from degree d to D - 1 - d, and its torsion is K_I's moved from d
to D - 2 - d.  Every complement of a mask through m lacks m and is
walked already, so the upper half of the index is the lower half
reversed and dualized, one distinct profile at a time.  The walk takes
this fill when K - m is acyclic, which the index already says, and
every vertex link is Gorenstein* of dimension D - 1.  The gate is exact.
K is the union of K - m and the star of m, which meet in the link of m.
With the first acyclic and the star a cone, Mayer-Vietoris gives
H~_i(K) = H~_(i-1)(lk m), so K is a homology D-sphere whose face links
are its vertex links' face links: K is Gorenstein*.  Conversely,
Alexander duality on the vertex {m} makes K - m acyclic.  The vertex
links are decided by one memoized recursion on the relabelled link,
its dimension and the coefficients, which classify shares.  The fill
needs integral spheres, whose torsion Alexander duality moves, so the
walk and is_gorenstein_star run it over Z; recognition runs it over Q.
Purity and two facets per ridge are checked first, as they are cheap.
Any other K walks its last block like the others.

The index array is the table.  An aggregate counts the subsets per
(size, index) once and reads each distinct profile once; a table filled
by duality counts its lower half and adds each count at (s, d) again at
the complements' (m - s, D - 1 - d), exact over Z, Q and F_p.  A table over
Q or F_p follows from the integral one by universal coefficients: it
converts each distinct profile and shares the index.  Restricting to
K_J deletes the bits outside J from every mask, and lifting a core
inserts its cone vertices' bits, both as slice copies of the array; the
masks past the end of an index are trivial, so a core whose cone
vertices are the top labels lends K its index unchanged.  A table is 4
bytes a mask plus its distinct profiles, and the (mask, profile) pairs
are built only for a caller that iterates them.

The empty subset contributes the unit in degree 0, so b_0 = 1 and
b_1 = b_2 = 0 for every complex.
"""

from __future__ import annotations

import json
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import compress, repeat
from operator import add, mul

from .complexes import SimplicialComplex, mask_of, vertices_of
from .errors import BadParams, TooManyVertices
from .linalg import (
    INT,
    Coefficients,
    HomologyProfile,
    full_subcomplex_homology,
    make_profile,
    reduced_homology,
)

HOCHSTER_MAX_VERTICES = 20
# tables by (complex, coefficients), oldest first: walked, lifted from a
# core, restricted, or derived over a field
TABLE_CACHE_SIZE = 10_000
_TRIVIAL, _EMPTY = make_profile(INT, {}), make_profile(INT, {-1: 1})
_TABLES: dict[tuple[SimplicialComplex, Coefficients], HochsterTable] = {}


@dataclass(frozen=True, eq=False)
class HochsterTable:
    """Per-subset reduced homology of the full subcomplexes of K.

    index[I] is the position of K_I's profile in profiles, whose entry 0
    is trivial; index is read-only, and a mask past its end is trivial
    (the cone vertices on top of a core's labels add no entries).  The
    cohomology of Z_K in degree |I| + d + 1 collects the degree-d
    entries.  _sphere_dim is D when index's upper half was filled by
    Alexander duality in a homology D-sphere (kept by over and by a lift
    sharing index), else None; it only says which masks the aggregates
    count, so tables are equal when complex, coeffs and subsets are.
    """

    complex: SimplicialComplex
    coeffs: Coefficients
    index: memoryview
    profiles: tuple[HomologyProfile, ...]
    _sphere_dim: int | None = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HochsterTable):
            return NotImplemented
        return (self.complex, self.coeffs, self.subsets) == (
            other.complex, other.coeffs, other.subsets
        )

    @property
    def m(self) -> int:
        return self.complex.m

    @property
    def top_degree(self) -> int:
        """Degree of the top cohomology of Z_K when K triangulates a sphere."""
        return self.complex.m + self.complex.dim + 1

    @cached_property
    def subsets(self) -> tuple[tuple[int, HomologyProfile], ...]:
        """(mask, profile) pairs of the subsets with nonzero reduced
        homology, in increasing mask order; subsets with one index share
        one profile object."""
        profiles = self.profiles
        live = [not prof.is_trivial for prof in profiles]
        return tuple(
            (I, profiles[k]) for I, k in enumerate(self.index) if live[k]
        )

    def profile_of(self, subset_mask: int) -> HomologyProfile:
        """The subset's profile, read off the index; trivial past its end."""
        if 0 <= subset_mask < len(self.index):
            return self.profiles[self.index[subset_mask]]
        return self.profiles[0]

    def components(self) -> dict[tuple[int, int], tuple[int, int]]:
        """(subset, degree) -> (first class, rank) for the nonzero
        components on nonempty subsets, in increasing order: the classes
        of a component are numbered by running sums of the ranks, read
        off the index and profiles when asked, and not kept."""
        spans, n = {}, 0
        index = self.index[1:]
        for mask, k in compress(enumerate(index, 1), index):
            for degree, rank in self.profiles[k].ranks:
                spans[mask, degree] = n, rank
                n += rank
        return spans

    @cached_property
    def bigraded(self) -> dict[tuple[int, int], int]:
        """Ranks keyed by (|I|, d): subset size and reduced degree, from one
        count of the nontrivial subsets per key 32 * index[I] + |I|.  A
        sphere counts its lower half and each rank again at the complement's
        (m - |I|, D - 1 - d), m the index's bit count (no top apex's bit)."""
        index, D = self._counted(), self._sphere_dim
        keys = map(add, _sizes(len(index)), map(mul, index, repeat(32)))
        out: dict[tuple[int, int], int] = {}
        for key, n in Counter(compress(keys, index)).items():
            s = key & 31
            for d, r in self.profiles[key >> 5].ranks:
                out[s, d] = out.get((s, d), 0) + n * r
        if D is not None:  # the upper half: the complements, dualized
            m = len(self.index).bit_length() - 1
            for (s, d), r in list(out.items()):
                out[m - s, D - 1 - d] = out.get((m - s, D - 1 - d), 0) + r
        return out

    def _counted(self) -> memoryview:
        """The masks the aggregates count: a sphere's lower half, else all."""
        index = self.index
        return index if self._sphere_dim is None else index[: len(index) >> 1]

    @cached_property
    def betti(self) -> tuple[int, ...]:
        """Betti numbers of Z_K in degrees 0..m+dim+1 (free ranks over Z)."""
        top = self.top_degree
        out = [0] * (top + 1)
        for (s, d), r in self.bigraded.items():
            out[s + d + 1] += r
        return tuple(out)

    @cached_property
    def rk_betti(self) -> tuple[int, ...]:
        """Betti numbers of the real moment-angle complex R_K in degrees
        0..dim+1: b_p sums the rank of H~_(p-1)(K_I) over all subsets I."""
        out = [0] * (self.complex.dim + 2)
        for (_, d), r in self.bigraded.items():
            out[d + 1] += r
        return tuple(out)

    @cached_property
    def tor_bigraded(self) -> dict[tuple[int, int], int]:
        """The same ranks in Tor grading (-i, 2j): i = |I|-d-1, j = |I|."""
        return {
            (d + 1 - s, 2 * s): r for (s, d), r in self.bigraded.items()
        }

    @cached_property
    def torsion_primes(self) -> tuple[int, ...]:
        torsion = {k for k, prof in enumerate(self.profiles) if prof.torsion}
        if torsion:  # a restricted table shares profiles it may not reach
            torsion &= set(self._counted())
        primes: set[int] = set()
        for k in torsion:
            primes |= self.profiles[k].torsion_primes()
        return tuple(sorted(primes))

    def over(self, coeffs: Coefficients) -> "HochsterTable":
        """Derive the table over a field from an integral table: each
        distinct profile is converted once, and the index is shared."""
        if self.coeffs.kind != "int":
            raise BadParams("field tables derive from an integral table")
        if coeffs.kind == "int":
            return self
        profiles = tuple(prof.over_field(coeffs) for prof in self.profiles)
        D = self._sphere_dim
        return HochsterTable(self.complex, coeffs, self.index, profiles, D)

    def restrict(self, J: int) -> "HochsterTable":
        """Table of the full subcomplex K_J (the same K_I for I inside J,
        masks compressed in order), cached as hochster_table(K_J).  The
        bits outside J are deleted from the index, highest first."""
        sub = self.complex.full_subcomplex(vertices_of(J))
        index = self.index
        for b in reversed(range(len(index).bit_length() - 1)):
            if not J >> b & 1:
                index = _copy_runs(len(index) >> 1, index, 1 << b, 2 << b)
        return _remember(HochsterTable(sub, self.coeffs, index, self.profiles))

    def to_dict(self) -> dict:
        d: dict = {
            "coeffs": str(self.coeffs),
            "vertices": self.m,
            "dim": self.complex.dim,
            "betti": list(self.betti),
            "bigraded": [
                [s, deg, r]
                for (s, deg), r in sorted(self.bigraded.items())
            ],
            "tor_bigraded": [
                [i, j, r]
                for (i, j), r in sorted(self.tor_bigraded.items())
            ],
            "torsion_primes": list(self.torsion_primes),
        }
        return d

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def hochster_table(
    K: SimplicialComplex, coeffs: Coefficients = INT
) -> HochsterTable:
    """Reduced homology of every full subcomplex of K, assembled per subset.

    Walks the 2^m vertex subsets over the integers, so the vertex count
    is capped at HOCHSTER_MAX_VERTICES (TooManyVertices beyond it); a
    Gorenstein* complex walks the half without its last vertex and fills
    the rest by Alexander duality, and a complex with cone vertices
    takes its core's table instead.  The
    integral table is cached per complex; a field table is derived from
    it by universal coefficients, once, and cached beside it.
    """
    if K.m > HOCHSTER_MAX_VERTICES:
        raise TooManyVertices(
            f"{K.m} vertices exceed the cap of {HOCHSTER_MAX_VERTICES} "
            f"(2^m subsets are enumerated)",
            m=K.m,
            cap=HOCHSTER_MAX_VERTICES,
        )
    table = _TABLES.get((K, coeffs))
    if table is None:
        table = _integral(K)
        if coeffs != INT:
            table = _remember(table.over(coeffs))
    return table


def cached_integral_table(K: SimplicialComplex) -> HochsterTable | None:
    """The cached integral table of K, without walking anything; None if
    it is not cached."""
    return _TABLES.get((K, INT))


def _remember(table: HochsterTable) -> HochsterTable:
    """Cache table unless an equal request is cached; return the cached one."""
    table = _TABLES.setdefault((table.complex, table.coeffs), table)
    while len(_TABLES) > TABLE_CACHE_SIZE:
        del _TABLES[next(iter(_TABLES))]
    return table


def _integral(K: SimplicialComplex) -> HochsterTable:
    """The cached integral table of K, else its core's lifted, else walked."""
    table = _TABLES.get((K, INT))
    if table is not None:
        return table
    rest = K.core_vertices()
    if len(rest) == K.m:  # no cone vertex
        return _remember(_walk(K))
    core = _integral(K.full_subcomplex(rest))
    # insert a zero bit per cone vertex, lowest first; the cone vertices
    # past the end of the index are the top labels and insert nothing
    index, cones = core.index, ((1 << K.m) - 1) & ~mask_of(rest)
    for b in range(K.m):
        if cones >> b & 1 and 1 << b < len(index):
            index = _copy_runs(len(index) << 1, index, 2 << b, 1 << b)
    D = core._sphere_dim if index is core.index else None
    return _remember(HochsterTable(K, INT, index, core.profiles, D))


def _walk(K: SimplicialComplex) -> HochsterTable:
    # per vertex bit: the facets through it, and their union (the vertex
    # and its neighbours in the 1-skeleton of K)
    star = {1 << v: [f for f in K.facets if f >> v & 1] for v in range(K.m)}
    edges = {v: reduce(int.__or__, fs) for v, fs in star.items()}
    records = _records(star, edges)
    # idx[I]: K_I's profile as an index into profiles, 4 bytes a subset;
    # one index per distinct profile (0 trivial, 1 the empty complex's),
    # of a disjoint union per pair of summands, of K_X plus a point per K_X
    idx = memoryview(bytearray(4 << K.m)).cast("I")
    idx[0] = 1
    profiles = [_TRIVIAL, _EMPTY]
    index_of = _Memo(lambda p: profiles.append(p) or len(profiles) - 1)
    index_of.update({_TRIVIAL: 0, _EMPTY: 1})
    sums = _Memo(
        lambda ab: index_of[_disjoint_sum(profiles[ab[0]], profiles[ab[1]])]
    )
    plus = _Memo(lambda k: sums[k, 0])
    plus[1] = 0
    last, D = 1 << K.m >> 1, None
    for top, near in edges.items():
        # the subsets through the last vertex are the complements of the
        # walked ones: when K - m is acyclic and every vertex link is
        # Gorenstein* over Z, K is an integral homology sphere and
        # Alexander duality in it gives their profiles
        if (
            top == last
            and not idx[top - 1]
            and _links_are_spheres(K, K.dim, INT)
        ):
            _fill_by_duality(idx, profiles, index_of, K.dim)
            D = K.dim
            break
        # I = top + S + X, S inside top's neighbours below it and X inside
        # the rest: K_I starts as K_(I - top), or K_X plus a point if S = 0
        below = near & (top - 1)
        free = (top - 1) ^ below
        idx[top : top << 1] = idx[:top]
        _add_a_point(idx, top, free, plus)
        for base in _walked_cosets(top, below, free, star[top]):
            for X in _submasks(free):
                I = base | X
                v = _dominated(I, records)
                if v:
                    idx[I] = idx[I & ~v]
                    continue
                C = _component(I, base, edges)
                if C != I:  # K_I = K_C + K_(I - C), both walked already
                    idx[I] = sums[idx[C], idx[I & ~C]]
                else:
                    idx[I] = index_of[full_subcomplex_homology(I, K.facets)]
    return HochsterTable(K, INT, idx.toreadonly(), tuple(profiles), D)


class _Memo(dict):
    """A dict that makes the value of a missing key by make(key), once."""

    def __init__(self, make) -> None:
        self.make = make

    def __missing__(self, key):
        self[key] = value = self.make(key)
        return value


def _walked_cosets(top: int, below: int, free: int, facets: list[int]):
    """top + S for each S inside below, in increasing order, where top +
    S is no face (sought only while no larger than a facet through top)
    and top is not dominated in K_(top + S), tested only when the coset
    top + S + X, X inside free, holds more than one subset."""
    width = max(map(int.bit_count, facets))
    for S in _submasks(below):
        base = top | S
        if base.bit_count() <= width and _in_a_facet(base, facets):
            continue
        if free and _dominates(top, base, facets):
            continue
        yield base


def _add_a_point(idx: memoryview, top: int, free: int, plus) -> None:
    """idx[top + X] = plus[idx[X]] for every X inside free: a strided slice
    per subset of free less a run of 3 bits or more (the longer of the
    lowest such run and the top run), or one subset at a time if none."""
    starts = free & free >> 1 & free >> 2  # where 3 bits of free start
    if not starts:
        for X in _submasks(free):
            idx[top | X] = plus[idx[X]]
        return
    low = starts & -starts
    n = ((free // low) ^ (free // low + 1)).bit_length() - 1
    h = free.bit_length()
    c = (((1 << h) - 1) ^ free).bit_length()
    if h - c > n:
        low, n = 1 << c, h - c
    span, get = low << n, plus.__getitem__
    for Y in _submasks(free & ~(span - low)):
        I = top | Y
        idx[I : I + span : low] = array("I", map(get, idx[Y : Y + span : low]))


def _submasks(mask: int):
    """The submasks of mask, in increasing order."""
    X = 0
    while True:
        yield X
        if X == mask:
            return
        X = (X - mask) & mask


def _component(I: int, base: int, edges: dict[int, int]) -> int:
    """The component of K_I holding base, by a search over neighbours."""
    C = new = base
    while new:
        v = new & -new
        new ^= v
        grow = edges[v] & I & ~C
        C |= grow
        new |= grow
    return C


def _fill_by_duality(
    idx: memoryview, profiles: list[HomologyProfile], index_of, D: int
) -> None:
    """Fill the upper half of the index of a homology D-sphere K from
    the lower half, top + j the complement of top - 1 - j; each profile
    is dualized once and indexed by value by index_of."""
    dual = [index_of[_dual(prof, D)] for prof in profiles[:]]
    top = len(idx) >> 1
    below = idx[top - 1 :: -1]  # below[j] is the complement of top + j
    idx[top:] = memoryview(array("I", map(dual.__getitem__, below)))


def _dual(prof: HomologyProfile, D: int) -> HomologyProfile:
    """The profile of K_(V - I) from K_I's, for K a homology D-sphere on V.

    Alexander duality in |K| gives H~_i(K_(V - I)) = H~^(D-1-i)(K_I), so by
    universal coefficients the ranks of degree d move to degree D - 1 - d
    and the torsion of degree d to D - 2 - d; the empty subset and K swap
    the classes of degree -1 and D.
    """
    ranks = {D - 1 - d: r for d, r in prof.ranks}
    torsion = {D - 2 - d: t for d, t in prof.torsion}
    return make_profile(INT, ranks, torsion)


def _links_are_spheres(K: SimplicialComplex, n: int, coeffs) -> bool:
    """Whether K is pure of dimension n, each ridge lies in two facets,
    and every vertex link passes _is_sphere_by_links at n - 1 over
    coeffs; the two counts are cheap and necessary, so they run first."""
    ridges: Counter = Counter()
    for f in K.facets:
        if f.bit_count() != n + 1:
            return False
        rest = f
        while rest:
            low = rest & -rest
            ridges[f ^ low] += 1
            rest ^= low
    if any(c != 2 for c in ridges.values()):
        return False
    return all(
        _is_sphere_by_links(K.link((v,)), n - 1, coeffs)
        for v in range(1, K.m + 1)
    )


@lru_cache(maxsize=4096)
def _is_sphere_by_links(L: SimplicialComplex, n: int, coeffs) -> bool:
    """Whether L is Gorenstein* of dimension n over coeffs: H~(L; coeffs)
    = H~(S^n; coeffs), and every vertex link passes at n - 1 (the empty
    complex at n = -1).

    The link of a face s + v in L is the link of s in L's link of v, so
    this holds exactly when every face link of L is a homology sphere of
    dimension n - |face|, the empty face's being L.  Memoized per
    relabelled complex, n and coefficients, so equal links are decided
    once per coefficient system.  coeffs has no default, as the cache
    would key a call that leaves it out apart from one that passes it.
    """
    prof = reduced_homology(L).over_field(coeffs)
    return prof.is_sphere(n) and _links_are_spheres(L, n, coeffs)


_PLUS_ONE = bytes(range(1, 256)) + b"\0"


def _sizes(n: int) -> bytes:
    """|I| for every mask I below n, a power of two: one byte each, the
    table doubled with each bit by adding 1 to its copy."""
    sizes = b"\0"
    while len(sizes) < n:
        sizes += sizes.translate(_PLUS_ONE)
    return sizes


def _copy_runs(n: int, src: memoryview, d: int, s: int) -> memoryview:
    """A read-only index of n entries, trivial but for the runs of
    w = min(d, s) entries at src[h * s:], copied to h * d for every h.

    Deleting bit b of every mask copies runs of 2^b at strides s = 2^(b+1)
    to d = 2^b; inserting it copies them back.  The copy takes one
    strided slice per offset within a run, or one block per run,
    whichever makes fewer slice operations.
    """
    out = memoryview(bytearray(4 * n)).cast("I")
    w, runs = min(d, s), len(src) // s
    if runs < w:
        for h in range(runs):
            out[h * d : h * d + w] = src[h * s : h * s + w]
    else:
        for k in range(w):
            out[k::d] = src[k::s]
    return out.toreadonly()


def _in_a_facet(I: int, facets: list[int]) -> bool:
    """Whether one of the facets holds the subset I."""
    for f in facets:
        if not I & ~f:
            return True
    return False


def _disjoint_sum(a: HomologyProfile, b: HomologyProfile) -> HomologyProfile:
    """The profile of a disjoint union of two nonempty complexes with
    profiles a and b: their sum plus Z in degree 0."""
    ranks, torsion = {0: 1}, {}
    for prof in (a, b):
        for d, r in prof.ranks:
            ranks[d] = ranks.get(d, 0) + r
        for d, powers in prof.torsion:
            torsion.setdefault(d, []).extend(powers)
    return make_profile(INT, ranks, torsion)


def _records(
    star: dict[int, list[int]], edges: dict[int, int]
) -> list[list]:
    """One record per vertex bit, in _try_order: [v, N(v), lowbit(N(v)),
    memo, facets through v].  The memo is None until v is first tried,
    then N(v) // lowbit(N(v)) + 1 bytes: at most 2^m, and far less when
    v's neighbours are close in label."""
    return [
        [v, edges[v], edges[v] & -edges[v], None, star[v]]
        for v in _try_order(edges)
    ]


def _try_order(edges: dict[int, int]) -> list[int]:
    """The vertex bits in the order _dominated tries them: fewest
    neighbours first, then the narrowest span edges[v] // lowbit(edges[v])
    of the neighbourhood, which is the size of v's memo, then by label.
    The memo is keyed by I & edges[v], so it hits often for a vertex with
    few neighbours; a vertex adjacent to all others is tried last, as its
    memo never hits."""

    def key(v: int) -> tuple[int, int, int]:
        near = edges[v]
        return near.bit_count(), near // (near & -near), v

    return sorted(edges, key=key)


def _dominated(I: int, records: list[list]) -> int:
    """The first vertex bit of I in the records' order dominated in K_I,
    or 0 if none is.

    Any dominated vertex will do: K_I strong-collapses onto K_(I - v).
    Whether v is dominated depends only on J = I & N(v), as every face
    through v lies in v's closed neighbourhood.  v's memo, made on its
    first try, holds the answer per J at J // lowbit(N(v)): 0 untested,
    1 no, 2 yes.
    """
    for rec in records:
        if I & rec[0]:
            v, near, low, memo, facets = rec
            if memo is None:
                memo = rec[3] = bytearray(near // low + 1)
            J = I & near
            k = J // low
            answer = memo[k]
            if not answer:
                answer = memo[k] = 2 if _dominates(v, J, facets) else 1
            if answer == 2:
                return v
    return 0


def _dominates(v: int, J: int, facets: list[int]) -> bool:
    """Whether v is dominated in K_J, for J inside v's closed neighbourhood
    and facets the facets through v.

    Some w in J - v lies in every maximal trace f & J exactly when each
    trace t plus w is a face, that is when w lies in cover(t), the union
    of the facets through v that contain t.
    """
    common = J & ~v
    for g in facets:
        t = g & J
        cover = 0
        for f in facets:
            if not t & ~f:
                cover |= f
        common &= cover
        if not common:
            return False
    return True


def format_poincare(betti) -> str:
    terms = []
    for k, b in enumerate(betti):
        if not b:
            continue
        if k == 0:
            terms.append(str(b))
        elif b == 1:
            terms.append(f"t^{k}")
        else:
            terms.append(f"{b}*t^{k}")
    return " + ".join(terms) if terms else "0"


def duality_check(table: HochsterTable) -> bool:
    """Whether the Betti numbers are palindromic up to degree m + dim + 1."""
    b = table.betti
    n = len(b) - 1
    return all(b[k] == b[n - k] for k in range(n + 1))
