"""Exact linear algebra and simplicial homology.

All integer computations use Python's arbitrary-precision integers.
Matrices are sparse with tiny entries and kept as dictionaries.  There
are two eliminations:

* int_invariant_factors, a sparse Smith form over Z that prefers unit
  pivots from the shortest rows.  All homology is integral and comes from
  it; field Betti numbers follow by universal coefficients
  (HomologyProfile.over_field), so no homology is eliminated over a field;
* Echelon, a fully reduced sparse echelon over the field a Coefficients
  names.  It does its own arithmetic: over F_p it reduces every entry
  mod p, and over Q it keeps ints until a pivot other than 1 or -1 makes
  a Fraction.  Cocycle bases, class coordinates and classify's Gram rank
  use it; products.multiply does the same arithmetic inline.

int_rank, rank_mod_p, rref and nullspace are thin wrappers over these
two that no pipeline code calls.  They remain because the benchmark's
tracer names them, and the tests rank over a field with rank_mod_p as
an oracle independent of the Smith form.

Homology is reduced throughout: the chain complex of a simplicial complex
is augmented, so the empty complex has a single class in degree -1 and a
nonempty complex has betti_0 counting components minus one.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from typing import Iterable, Mapping, Sequence

from .complexes import SimplicialComplex, vertices_of
from .errors import BadParams, InternalInvariant, NotAField

# -- coefficient systems ----------------------------------------------------

MAX_FIELD_PRIME = 97


@dataclass(frozen=True)
class Coefficients:
    """Coefficient system tag: the integers, the rationals, or F_p."""

    kind: str  # "int" | "rat" | "prime"
    p: int | None = None

    @property
    def is_field(self) -> bool:
        return self.kind != "int"

    def __str__(self) -> str:
        if self.kind == "int":
            return "int"
        if self.kind == "rat":
            return "q"
        return f"f{self.p}"


INT = Coefficients("int")
RAT = Coefficients("rat")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in range(2, isqrt(n) + 1):
        if n % q == 0:
            return False
    return True


def PRIME(p: int) -> Coefficients:
    """The prime field F_p; p must be prime and at most MAX_FIELD_PRIME.

    The bound is checked before primality, so a huge p costs no trial
    division."""
    if not isinstance(p, int) or isinstance(p, bool):
        raise NotAField(f"{p!r} is not a prime")
    if p > MAX_FIELD_PRIME:
        raise NotAField(f"{p} exceeds the supported prime bound {MAX_FIELD_PRIME}")
    if not _is_prime(p):
        raise NotAField(f"{p!r} is not a prime")
    return Coefficients("prime", p)


def coefficients_from_token(token: str) -> Coefficients:
    """Parse 'int', 'q', or 'f<p>'."""
    tok = token.strip().lower()
    if tok == "int":
        return INT
    if tok == "q":
        return RAT
    if tok.startswith("f") and tok[1:].isdigit():
        try:
            p = int(tok[1:])
        except ValueError:  # digits int() rejects, or too many of them
            pass
        else:
            return PRIME(p)
    raise NotAField(
        f"unknown coefficient token {token[:32]!r}" + "..." * (len(token) > 32)
    )


# -- sparse integer elimination ----------------------------------------------


def _rows_from_columns(cols):
    rows: dict[int, dict[int, int]] = {}
    for c, col in enumerate(cols):
        for r, v in col:
            if v:
                row = rows.setdefault(r, {})
                row[c] = row.get(c, 0) + v
    col_rows: dict[int, set[int]] = {}
    for r, row in list(rows.items()):
        dead = [c for c, v in row.items() if v == 0]
        for c in dead:
            del row[c]
        if not row:
            del rows[r]
            continue
        for c in row:
            col_rows.setdefault(c, set()).add(r)
    return rows, col_rows


def int_rank(cols: Sequence[Sequence[tuple[int, int]]]) -> int:
    """Rank over Q of a sparse integer matrix given as columns of (row, val)."""
    return len(int_invariant_factors(cols))


def _divisibility_chain(diag: Iterable[int]) -> list[int]:
    ones = 0
    rest: list[int] = []
    for d in diag:
        d = abs(d)
        if d == 1:
            ones += 1
        else:
            rest.append(d)
    rest.sort()
    changed = True
    while changed:
        changed = False
        for i in range(len(rest)):
            for j in range(i + 1, len(rest)):
                a, b = rest[i], rest[j]
                if b % a:
                    g = gcd(a, b)
                    rest[i], rest[j] = g, a // g * b
                    changed = True
        if changed:
            rest.sort()
    return [1] * ones + rest


def int_invariant_factors(
    cols: Sequence[Sequence[tuple[int, int]]],
) -> list[int]:
    """Nonzero invariant factors of a sparse integer matrix.

    Diagonalizes by row/column operations with floor-division remainders
    (the pivot value strictly shrinks whenever a remainder appears) and
    normalizes the collected diagonal into a divisibility chain afterwards.
    """
    rows, col_rows = _rows_from_columns(cols)
    heap = [(len(row), r) for r, row in rows.items()]
    heapq.heapify(heap)
    diag: list[int] = []

    def axpy(r2: int, q: int, pr: Mapping[int, int]) -> None:
        row2 = rows[r2]
        for cc, pv in pr.items():
            val = row2.get(cc, 0) - q * pv
            if val:
                if cc not in row2:
                    col_rows.setdefault(cc, set()).add(r2)
                row2[cc] = val
            elif cc in row2:
                del row2[cc]
                s = col_rows[cc]
                s.discard(r2)
                if not s:
                    del col_rows[cc]
        if not row2:
            del rows[r2]
        else:
            heapq.heappush(heap, (len(row2), r2))

    while rows:
        while heap:
            ln, r = heapq.heappop(heap)
            if r in rows and len(rows[r]) == ln:
                break
        else:
            break
        row = rows[r]
        c = min(
            row, key=lambda cc: (abs(row[cc]), len(col_rows.get(cc, ())), cc)
        )
        while True:
            if row[c] < 0:
                for cc in row:
                    row[cc] = -row[cc]
            v = row[c]
            # row operations: clear the pivot column, keeping remainders
            best = None
            for r2 in list(col_rows.get(c, ())):
                if r2 == r:
                    continue
                a = rows[r2].get(c)
                if a is None:
                    continue
                q = a // v
                if q:
                    axpy(r2, q, row)
                rem = rows.get(r2, {}).get(c)
                if rem and (best is None or rem < rows[best][c]):
                    best = r2
            if best is not None:
                r = best
                row = rows[r]
                continue
            # column operations: only the pivot row is affected now
            moved = False
            for c2 in list(row):
                if c2 == c:
                    continue
                rem = row[c2] % v
                if rem:
                    row[c2] = rem
                    c = c2
                    moved = True
                    break
                del row[c2]
                s = col_rows[c2]
                s.discard(r)
                if not s:
                    del col_rows[c2]
            if not moved:
                break
        diag.append(row[c])
        del rows[r]
        s = col_rows[c]
        s.discard(r)
        if not s:
            del col_rows[c]
    return _divisibility_chain(diag)


# -- sparse field elimination --------------------------------------------------


class Echelon:
    """Fully reduced row echelon form over a field, built one row at a time.

    Rows are sparse {column: value} dicts, keyed by their pivot: the least
    column, where the row holds 1, and no other row holds anything.  So
    the normal form of a vector modulo the span is unique, and one pass
    over its pivot columns finds it.  A row inserted with a tag is that
    tag's vector, and every row records its combination {tag: coefficient}
    over the tagged rows, so a vector in the span can be expressed in the
    tagged vectors modulo the untagged ones.  Integer coefficients raise
    NotAField.
    """

    def __init__(self, coeffs: Coefficients):
        if not coeffs.is_field:
            raise NotAField("integer coefficients do not form a field")
        self.p = coeffs.p  # None over Q
        self.rows: dict[int, dict[int, object]] = {}
        self.combos: dict[int, dict[object, object]] = {}

    def __len__(self) -> int:
        return len(self.rows)

    def _sub(self, w: dict, a, row: Mapping) -> None:
        """w -= a * row in place, dropping the entries that vanish."""
        p = self.p
        for c, rv in row.items():
            val = w.get(c, 0) - a * rv
            if p:
                val %= p
            if val:
                w[c] = val
            else:
                w.pop(c, None)

    def _scale(self, w: dict, a) -> None:
        p = self.p
        for c in w:
            w[c] = w[c] * a % p if p else w[c] * a

    def _eliminate(self, v: Mapping, combo: dict | None) -> dict:
        p = self.p
        w = {}
        for c, a in v.items():
            if p:
                a %= p
            if a:
                w[c] = a
        # rows vanish on each other's pivots, so one pass suffices
        for c in [c for c in w if c in self.rows]:
            a = w[c]
            self._sub(w, a, self.rows[c])
            if combo is not None:
                self._sub(combo, a, self.combos[c])
        return w

    def reduce(self, v: Mapping) -> dict:
        """Normal form of v modulo the span of the rows."""
        return self._eliminate(v, None)

    def express(self, v: Mapping) -> tuple[dict, dict]:
        """(normal form of v, combination over the tags): v is the normal
        form plus that combination of the tagged vectors, modulo the
        untagged ones."""
        combo: dict = {}
        w = self._eliminate(v, combo)
        self._scale(combo, -1)
        return w, combo

    def insert(self, v: Mapping, tag=None) -> dict | None:
        """Add v to the span and return the row it becomes: its normal form
        scaled to a unit pivot, or None when v already lies in the span.
        With a tag, that row itself is the tagged vector."""
        combo = {} if tag is None else None
        w = self._eliminate(v, combo)
        if not w:
            return None
        lead = min(w)
        a, p = w[lead], self.p
        if p:
            inv = pow(a, p - 2, p)
        else:
            inv = a if a in (1, -1) else 1 / Fraction(a)
        self._scale(w, inv)
        if tag is None:
            self._scale(combo, inv)
        else:
            combo = {tag: 1}
        for pc, row in self.rows.items():
            a = row.get(lead)
            if a is not None:
                self._sub(row, a, w)
                self._sub(self.combos[pc], a, combo)
        self.rows[lead] = w
        self.combos[lead] = combo
        return dict(w)

    def kernel(self, ncols: int) -> list[dict]:
        """Basis of the vectors of length ncols that every row annihilates,
        one per free column, in increasing order of it."""
        p = self.p
        basis = {c: {c: 1} for c in range(ncols) if c not in self.rows}
        for pc, row in self.rows.items():
            for c, a in row.items():
                if c != pc:
                    basis[c][pc] = -a % p if p else -a
        return list(basis.values())


def rref(
    rows: list[list], coeffs: Coefficients
) -> tuple[list[list], list[int]]:
    """Reduced row echelon form of dense rows, and the pivot columns."""
    ech = Echelon(coeffs)
    for row in rows:
        ech.insert(dict(enumerate(row)))
    ncols = len(rows[0]) if rows else 0
    pivots = sorted(ech.rows)
    reduced = [
        [ech.rows[pc].get(c, 0) for c in range(ncols)] for pc in pivots
    ]
    return reduced, pivots


def nullspace(
    rows: Sequence[Sequence], ncols: int, coeffs: Coefficients
) -> list[list]:
    """Basis of the kernel of the linear map given by the rows."""
    ech = Echelon(coeffs)
    for row in rows:
        ech.insert(dict(enumerate(row)))
    return [[vec.get(c, 0) for c in range(ncols)] for vec in ech.kernel(ncols)]


def rank_mod_p(cols: Sequence[Sequence[tuple[int, int]]], p: int) -> int:
    """Rank over F_p of a sparse integer matrix given as columns."""
    ech = Echelon(Coefficients("prime", p))
    for col in cols:
        vec: dict[int, int] = {}
        for r, v in col:
            vec[r] = vec.get(r, 0) + v
        ech.insert(vec)
    return len(ech)


# -- chain complexes and homology profiles -------------------------------------


@dataclass(frozen=True)
class ChainComplex:
    """Finitely generated chain complex over Z in a contiguous degree range.

    boundaries[i] holds the columns of d: C_{degrees[i]} -> C_{degrees[i]-1}
    as tuples of (row_index, coefficient); the lowest-degree boundary is
    the zero map by convention.
    """

    degrees: tuple[int, ...]
    dims: tuple[int, ...]
    boundaries: tuple[tuple[tuple[tuple[int, int], ...], ...], ...]

    def dim_at(self, degree: int) -> int:
        try:
            return self.dims[self.degrees.index(degree)]
        except ValueError:
            return 0

    def boundary_columns(self, degree: int):
        try:
            return self.boundaries[self.degrees.index(degree)]
        except ValueError:
            return ()

    def euler_characteristic(self) -> int:
        return sum(
            (-1) ** d * n for d, n in zip(self.degrees, self.dims)
        )


def _prime_powers(n: int) -> tuple[int, ...]:
    out = []
    for p in [2] + list(range(3, isqrt(n) + 1, 2)):
        if p * p > n:
            break
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append(p**e)
    if n > 1:
        out.append(n)
    return tuple(sorted(out))


@dataclass(frozen=True)
class HomologyProfile:
    """Ranks and torsion (as prime powers) per degree; zero entries omitted."""

    coeffs: Coefficients
    ranks: tuple[tuple[int, int], ...]
    torsion: tuple[tuple[int, tuple[int, ...]], ...] = ()

    def rank(self, degree: int) -> int:
        for d, r in self.ranks:
            if d == degree:
                return r
        return 0

    def torsion_at(self, degree: int) -> tuple[int, ...]:
        for d, t in self.torsion:
            if d == degree:
                return t
        return ()

    @property
    def is_trivial(self) -> bool:
        return not self.ranks and not self.torsion

    def degrees(self) -> tuple[int, ...]:
        ds = {d for d, _ in self.ranks} | {d for d, _ in self.torsion}
        return tuple(sorted(ds))

    def top_degree(self) -> int | None:
        ds = self.degrees()
        return ds[-1] if ds else None

    def betti_vector(self, lo: int, hi: int) -> tuple[int, ...]:
        return tuple(self.rank(d) for d in range(lo, hi + 1))

    def torsion_primes(self) -> frozenset[int]:
        primes = set()
        for _, powers in self.torsion:
            for q in powers:
                p = q
                for cand in range(2, isqrt(q) + 1):
                    if q % cand == 0:
                        p = cand
                        break
                primes.add(p)
        return frozenset(primes)

    def is_sphere(self, n: int) -> bool:
        """Integral reduced homology of S^n (n = -1 means the empty complex)."""
        return self.ranks == ((n, 1),) and not self.torsion

    def total_rank(self) -> int:
        return sum(r for _, r in self.ranks)

    def over_field(self, coeffs: Coefficients) -> "HomologyProfile":
        """Field Betti numbers derived from an integral profile.

        Universal coefficients: over F_p each invariant factor divisible
        by p contributes once in its own degree and once one degree up.
        """
        if self.coeffs.kind != "int":
            raise BadParams("over_field needs an integral profile")
        if coeffs.kind == "int":
            return self
        if coeffs.kind == "rat":
            return HomologyProfile(coeffs, self.ranks)
        p = coeffs.p
        ranks = {d: r for d, r in self.ranks}
        for d, powers in self.torsion:
            hits = sum(1 for q in powers if q % p == 0)
            if hits:
                ranks[d] = ranks.get(d, 0) + hits
                ranks[d + 1] = ranks.get(d + 1, 0) + hits
        return make_profile(coeffs, ranks)


def make_profile(
    coeffs: Coefficients,
    ranks: Mapping[int, int],
    torsion: Mapping[int, Sequence[int]] | None = None,
) -> HomologyProfile:
    rk = tuple(sorted((d, r) for d, r in ranks.items() if r))
    tr = tuple(
        sorted(
            (d, tuple(sorted(t)))
            for d, t in (torsion or {}).items()
            if t
        )
    )
    return HomologyProfile(coeffs, rk, tr)


def homology_profile(cc: ChainComplex) -> HomologyProfile:
    """Integral homology of a chain complex; field Betti numbers follow
    by HomologyProfile.over_field."""
    factors: dict[int, list[int]] = {}
    for deg, cols in zip(cc.degrees, cc.boundaries):
        factors[deg] = int_invariant_factors(cols) if any(cols) else []
    ranks: dict[int, int] = {}
    torsion: dict[int, list[int]] = {}
    for deg, n in zip(cc.degrees, cc.dims):
        above = factors.get(deg + 1, ())
        ranks[deg] = n - len(factors[deg]) - len(above)
        powers = [q for f in above if f > 1 for q in _prime_powers(f)]
        if powers:
            torsion[deg] = powers
    return make_profile(INT, ranks, torsion)


# -- simplicial layer -----------------------------------------------------------


def _face_index(faces: Sequence[int]) -> dict[int, int]:
    return {f: i for i, f in enumerate(faces)}


def _boundary_columns(faces: Sequence[int], index: Mapping[int, int]):
    """Boundary of each face, as (index of a codimension-one face, sign)."""
    cols = []
    for face in faces:
        col = []
        for pos, v in enumerate(vertices_of(face)):
            col.append((index[face & ~(1 << (v - 1))], -1 if pos % 2 else 1))
        cols.append(tuple(col))
    return tuple(cols)


def reduced_chain_complex(K: SimplicialComplex) -> ChainComplex:
    """Augmented simplicial chain complex, degrees -1..dim."""
    degrees = tuple(range(-1, K.dim + 1))
    faces_by_deg = {d: K.k_faces(d) for d in degrees}
    dims = tuple(len(faces_by_deg[d]) for d in degrees)
    boundaries = []
    for d in degrees:
        if d == -1:
            boundaries.append(((),))  # d on the empty face is zero
            continue
        idx = _face_index(faces_by_deg[d - 1])
        boundaries.append(_boundary_columns(faces_by_deg[d], idx))
    return ChainComplex(degrees, dims, tuple(boundaries))


@lru_cache(maxsize=200_000)
def reduced_homology(K: SimplicialComplex) -> HomologyProfile:
    """Integral reduced homology of K; the empty complex has rank one in
    degree -1.  Field Betti numbers follow by HomologyProfile.over_field."""
    return homology_profile(reduced_chain_complex(K))


@dataclass(frozen=True)
class CocycleBasis:
    """Deterministic representatives of a cohomology basis in one degree.

    Each representative is the normal form of a cocycle modulo the
    coboundaries and the representatives before it, scaled to leading
    coefficient 1.  echelon spans all cocycles, with representative i
    tagged i, so it also gives a cocycle's coordinates (coords).
    """

    degree: int
    coeffs: Coefficients
    faces: tuple[int, ...]  # masks of the d-faces, lex order
    vectors: tuple[tuple, ...]  # one scalar row per basis class
    echelon: Echelon = field(compare=False, repr=False)

    def as_cochains(self) -> list[dict[int, object]]:
        out = []
        for vec in self.vectors:
            out.append(
                {f: v for f, v in zip(self.faces, vec) if v != 0}
            )
        return out

    def __len__(self) -> int:
        return len(self.vectors)

    def coords(self, cochain: Mapping[int, object]) -> tuple:
        """Coordinates in this basis of a cocycle given as {column: value},
        columns indexing faces; raises InternalInvariant if it is not closed."""
        rest, combo = self.echelon.express(cochain)
        if rest:
            raise InternalInvariant("cochain is not closed")
        return tuple(combo.get(i, 0) for i in range(len(self.vectors)))


def cocycle_basis(
    K: SimplicialComplex, degree: int, coeffs: Coefficients
) -> CocycleBasis:
    """Basis of reduced H^degree(K) over a field, as explicit cocycles.

    The kernel of delta_degree gives the cocycles, one per free column;
    each is reduced modulo the image of delta_(degree-1) and the classes
    chosen before it, and kept when it is not zero there.  The output
    depends only on (K, degree, coeffs).
    """
    span = Echelon(coeffs)
    faces = K.k_faces(degree)
    n = len(faces)
    if n == 0:
        return CocycleBasis(degree, coeffs, (), (), span)
    index = _face_index(faces)
    closed = Echelon(coeffs)  # rows of delta_degree: boundaries of (d+1)-faces
    for col in _boundary_columns(K.k_faces(degree + 1), index):
        closed.insert(dict(col))
    image: dict[int, dict[int, int]] = {}
    if degree >= 0:
        below = _face_index(K.k_faces(degree - 1))
        for t, col in enumerate(_boundary_columns(faces, below)):
            for g, sign in col:
                image.setdefault(g, {})[t] = sign
    for vec in image.values():
        span.insert(vec)
    vectors = []
    for vec in closed.kernel(n):
        rep = span.insert(vec, tag=len(vectors))
        if rep is not None:
            vectors.append(tuple(rep.get(i, 0) for i in range(n)))
    return CocycleBasis(degree, coeffs, faces, tuple(vectors), span)
