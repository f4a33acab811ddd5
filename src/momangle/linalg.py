"""Exact linear algebra and simplicial homology.

All integer computations use Python's arbitrary-precision integers; field
computations run over Q (via fractions.Fraction) or a prime field F_p.
Boundary matrices are sparse with tiny entries, so elimination keeps
row dictionaries and prefers unit pivots from the shortest rows.

Homology is reduced throughout: the chain complex of a simplicial complex
is augmented, so the empty complex has a single class in degree -1 and a
nonempty complex has betti_0 counting components minus one.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from typing import Iterable, Mapping, Sequence

from .complexes import SimplicialComplex, vertices_of
from .errors import BadParams, NotAField

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
    """The prime field F_p; p must be prime and at most MAX_FIELD_PRIME."""
    if not isinstance(p, int) or isinstance(p, bool) or not _is_prime(p):
        raise NotAField(f"{p!r} is not a prime")
    if p > MAX_FIELD_PRIME:
        raise NotAField(f"prime {p} exceeds the supported bound {MAX_FIELD_PRIME}")
    return Coefficients("prime", p)


def coefficients_from_token(token: str) -> Coefficients:
    """Parse 'int', 'q', or 'f<p>'."""
    tok = token.strip().lower()
    if tok == "int":
        return INT
    if tok == "q":
        return RAT
    if tok.startswith("f") and tok[1:].isdigit():
        return PRIME(int(tok[1:]))
    raise NotAField(f"unknown coefficient token {token!r}")


class _RatOps:
    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def of_int(n):
        return Fraction(n)

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def inv(a):
        return 1 / a


class _FpOps:
    def __init__(self, p: int):
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def of_int(self, n):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        return pow(a, self.p - 2, self.p)


def field_ops(coeffs: Coefficients):
    if coeffs.kind == "rat":
        return _RatOps()
    if coeffs.kind == "prime":
        return _FpOps(coeffs.p)
    raise NotAField("integer coefficients do not form a field")


# -- sparse integer elimination ----------------------------------------------

_STRIP_BOUND = 1 << 96


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


def _strip_content(row: dict[int, int]) -> None:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return
    if g > 1:
        for c in row:
            row[c] //= g


def int_rank(cols: Sequence[Sequence[tuple[int, int]]]) -> int:
    """Rank over Q of a sparse integer matrix given as columns of (row, val)."""
    rows, col_rows = _rows_from_columns(cols)
    heap = [(len(row), r) for r, row in rows.items()]
    heapq.heapify(heap)
    rank = 0
    while rows:
        while heap:
            ln, r = heapq.heappop(heap)
            if r in rows and len(rows[r]) == ln:
                break
        else:
            break
        pr = rows.pop(r)
        for c in pr:
            s = col_rows[c]
            s.discard(r)
            if not s:
                del col_rows[c]
        c = min(
            pr, key=lambda cc: (abs(pr[cc]), len(col_rows.get(cc, ())), cc)
        )
        v = pr[c]
        for r2 in list(col_rows.get(c, ())):
            row2 = rows[r2]
            a = row2[c]
            g = gcd(v, a)
            mv, ma = v // g, a // g
            if mv != 1:
                for cc in row2:
                    row2[cc] *= mv
            big = False
            for cc, pv in pr.items():
                val = row2.get(cc, 0) - ma * pv
                if val:
                    if cc not in row2:
                        col_rows.setdefault(cc, set()).add(r2)
                    row2[cc] = val
                    if val > _STRIP_BOUND or -val > _STRIP_BOUND:
                        big = True
                elif cc in row2:
                    del row2[cc]
                    s = col_rows[cc]
                    s.discard(r2)
                    if not s:
                        del col_rows[cc]
            if not row2:
                del rows[r2]
            else:
                if big or mv != 1:
                    _strip_content(row2)
                heapq.heappush(heap, (len(row2), r2))
        rank += 1
    return rank


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


def rank_mod_p(cols: Sequence[Sequence[tuple[int, int]]], p: int) -> int:
    """Rank over F_p of a sparse integer matrix given as columns."""
    if p == 2:
        pivots: dict[int, int] = {}
        rank = 0
        for col in cols:
            w = 0
            for r, v in col:
                if v & 1:
                    w ^= 1 << r
            while w:
                b = w & -w
                if b in pivots:
                    w ^= pivots[b]
                else:
                    pivots[b] = w
                    rank += 1
                    break
        return rank
    pivots2: dict[int, dict[int, int]] = {}
    rank = 0
    for col in cols:
        row = {}
        for r, v in col:
            val = (row.get(r, 0) + v) % p
            if val:
                row[r] = val
            elif r in row:
                del row[r]
        while row:
            r0 = min(row)
            if r0 in pivots2:
                piv = pivots2[r0]
                a = row[r0]
                for rr, pv in piv.items():
                    val = (row.get(rr, 0) - a * pv) % p
                    if val:
                        row[rr] = val
                    elif rr in row:
                        del row[rr]
            else:
                inv = pow(row[r0], p - 2, p)
                pivots2[r0] = {rr: (vv * inv) % p for rr, vv in row.items()}
                rank += 1
                break
    return rank


# -- dense field elimination ---------------------------------------------------


def rref(rows: list[list], ops) -> tuple[list[list], list[int]]:
    """Reduced row echelon form (in place) and the pivot columns."""
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    rank = 0
    for c in range(ncols):
        sel = None
        for i in range(rank, len(rows)):
            if rows[i][c] != ops.zero:
                sel = i
                break
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        inv = ops.inv(rows[rank][c])
        rows[rank] = [ops.mul(inv, v) for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c] != ops.zero:
                f = rows[i][c]
                rows[i] = [
                    ops.sub(a, ops.mul(f, b))
                    for a, b in zip(rows[i], rows[rank])
                ]
        pivots.append(c)
        rank += 1
    del rows[rank:]
    return rows, pivots


def nullspace(rows: Sequence[Sequence], ncols: int, ops) -> list[list]:
    """Basis of the kernel of the linear map given by the rows."""
    work = [list(r) for r in rows]
    work, pivots = rref(work, ops)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [ops.zero] * ncols
        vec[free] = ops.one
        for row, pc in zip(work, pivots):
            if row[free] != ops.zero:
                vec[pc] = ops.neg(row[free])
        basis.append(vec)
    return basis


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


def homology_profile(cc: ChainComplex, coeffs: Coefficients) -> HomologyProfile:
    """Homology of a chain complex over the given coefficients."""
    ranks_of_d: dict[int, int] = {}
    factors_of_d: dict[int, list[int]] = {}
    for deg, cols in zip(cc.degrees, cc.boundaries):
        if not cols or not any(cols):
            ranks_of_d[deg] = 0
            factors_of_d[deg] = []
            continue
        if coeffs.kind == "int":
            f = int_invariant_factors(cols)
            ranks_of_d[deg] = len(f)
            factors_of_d[deg] = f
        elif coeffs.kind == "rat":
            ranks_of_d[deg] = int_rank(cols)
        else:
            ranks_of_d[deg] = rank_mod_p(cols, coeffs.p)
    ranks: dict[int, int] = {}
    torsion: dict[int, tuple[int, ...]] = {}
    for deg, n in zip(cc.degrees, cc.dims):
        above = ranks_of_d.get(deg + 1, 0)
        ranks[deg] = n - ranks_of_d.get(deg, 0) - above
        if coeffs.kind == "int":
            powers: list[int] = []
            for f in factors_of_d.get(deg + 1, ()):
                if f > 1:
                    powers.extend(_prime_powers(f))
            if powers:
                torsion[deg] = tuple(sorted(powers))
    return make_profile(coeffs, ranks, torsion)


# -- simplicial layer -----------------------------------------------------------


def _face_index(faces: Sequence[int]) -> dict[int, int]:
    return {f: i for i, f in enumerate(faces)}


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
        cols = []
        for face in faces_by_deg[d]:
            col = []
            for pos, v in enumerate(vertices_of(face)):
                child = face & ~(1 << (v - 1))
                col.append((idx[child], -1 if pos % 2 else 1))
            cols.append(tuple(col))
        boundaries.append(tuple(cols))
    return ChainComplex(degrees, dims, tuple(boundaries))


@lru_cache(maxsize=200_000)
def reduced_homology(K: SimplicialComplex) -> HomologyProfile:
    """Integral reduced homology of K; the empty complex has rank one in
    degree -1.  Field Betti numbers follow by HomologyProfile.over_field."""
    return homology_profile(reduced_chain_complex(K), INT)


@dataclass(frozen=True)
class CocycleBasis:
    """Deterministic representatives of a cohomology basis in one degree."""

    degree: int
    coeffs: Coefficients
    faces: tuple[int, ...]  # masks of the d-faces, lex order
    vectors: tuple[tuple, ...]  # one scalar row per basis class

    def as_cochains(self) -> list[dict[int, object]]:
        out = []
        for vec in self.vectors:
            out.append(
                {f: v for f, v in zip(self.faces, vec) if v != 0}
            )
        return out

    def __len__(self) -> int:
        return len(self.vectors)


def _coboundary_rows(K: SimplicialComplex, d: int, ops) -> list[list]:
    """Rows of delta_d : C^d -> C^(d+1) (one row per (d+1)-face)."""
    faces_d = K.k_faces(d)
    faces_up = K.k_faces(d + 1)
    idx = _face_index(faces_d)
    rows = []
    for tau in faces_up:
        row = [ops.zero] * len(faces_d)
        for pos, v in enumerate(vertices_of(tau)):
            child = tau & ~(1 << (v - 1))
            row[idx[child]] = ops.neg(ops.one) if pos % 2 else ops.one
        rows.append(row)
    return rows


def cocycle_basis(
    K: SimplicialComplex, degree: int, coeffs: Coefficients
) -> CocycleBasis:
    """Basis of reduced H^degree(K) over a field, as explicit cocycles.

    Representatives are fully reduced against the coboundary space and
    normalized, so the output depends only on (K, degree, coeffs).
    """
    ops = field_ops(coeffs)
    faces_d = K.k_faces(degree) if degree >= -1 else ()
    n = len(faces_d)
    if n == 0:
        return CocycleBasis(degree, coeffs, (), ())
    kernel = nullspace(_coboundary_rows(K, degree, ops), n, ops)
    # span of coboundaries from one degree down
    if degree == -1:
        image_rows: list[list] = []
    else:
        below = _coboundary_rows(K, degree - 1, ops)
        image_rows = [list(r) for r in zip(*below)]
    work: list[list] = [r for r in image_rows if any(v != ops.zero for v in r)]
    work, pivots = rref(work, ops)
    chosen = []
    for vec in kernel:
        v = list(vec)
        for row, pc in zip(work, pivots):
            if v[pc] != ops.zero:
                f = v[pc]
                v = [ops.sub(a, ops.mul(f, b)) for a, b in zip(v, row)]
        lead = next((i for i, a in enumerate(v) if a != ops.zero), None)
        if lead is None:
            continue
        inv = ops.inv(v[lead])
        v = [ops.mul(inv, a) for a in v]
        # insert into the echelon, keeping it reduced
        for i, (row, pc) in enumerate(zip(work, pivots)):
            if row[lead] != ops.zero:
                f = row[lead]
                work[i] = [ops.sub(a, ops.mul(f, b)) for a, b in zip(row, v)]
        work.append(v)
        pivots.append(lead)
        order = sorted(range(len(pivots)), key=lambda i: pivots[i])
        work = [work[i] for i in order]
        pivots = [pivots[i] for i in order]
        chosen.append(tuple(v))
    return CocycleBasis(degree, coeffs, faces_d, tuple(chosen))
