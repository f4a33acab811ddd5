"""Combinatorial classification predicates and the theorem harnesses.

Everything here reduces to the tables and product machinery: minimal
non-Golodness searches the vertex deletions that K's own table shows
may carry a product, Gorenstein*-ness recurses into vertex links, the
join/TFAE checker compares five equivalent characterizations of
cone-vertex subsets, and the recognizer matches the rational cohomology
ring of Z_K against the ring of a connected sum of sphere products.
The recognizer reads only the filtered product search, for a product
below the top degree, as the theorem 4.2 harness searches H*(R_K; Q)
for one; the pairings into the top are then settled by the core's
Gorenstein* test over Q.

The verify_* harnesses evaluate an implication: status CONFIRMED means
hypothesis and conclusion both hold, HYPOTHESIS_NOT_MET means the input
is outside the statement's scope, and VIOLATION flags a counterexample,
which for a proved statement can only be a bug in this package.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

from .complexes import SimplicialComplex, from_facets, mask_of, vertices_of
from .errors import EmptySubset, InternalInvariant, OutOfRange
from .hochster import _links_are_spheres, cached_integral_table, hochster_table
from .linalg import INT, RAT, reduced_homology
from .products import _deletion_candidates, _iter_nonzero_products, is_cup_golod

# -- minimal non-Golodness ----------------------------------------------------


@dataclass(frozen=True)
class MNGReport:
    """Outcome of the minimally-non-Golod test (None = undecided)."""

    value: bool | None
    witness_vertex: int | None = None
    witness: dict | None = None
    caveats: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "minimally_non_golod": self.value,
            "witness_vertex": self.witness_vertex,
            "witness": self.witness,
            "caveats": list(self.caveats),
        }


def is_minimally_non_golod(K: SimplicialComplex) -> MNGReport:
    """K has a nonzero cup product but every vertex deletion has none.

    False comes with a witness: either K itself is product-free, or some
    deletion still carries a product (witness_vertex names it).

    The full subcomplexes of K - v are those of K that avoid v, so a
    product of K - v lands in a component (S, d) of K's table with v
    outside S, and its factors are components (I, d1) and (S - I,
    d - d1 - 1) of K's table.  The deletions are tried in vertex order,
    each restricted and searched as is_cup_golod does, but only for the
    candidates products._deletion_candidates reads off the pairs K's own
    Golod test lists (those of K - v are among them); every other K - v
    is product-free.
    """
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
    full = (1 << K.m) - 1
    for v in vertices_of(_deletion_candidates(K)):
        sub = table.restrict(full & ~(1 << (v - 1))).complex
        rep = is_cup_golod(sub)
        if rep.verdict == "NON_GOLOD":
            return MNGReport(
                False,
                witness_vertex=v,
                witness=rep.witness,
                caveats=caveats,
            )
        if rep.verdict == "UNKNOWN":
            undecided = True
    if undecided:
        return MNGReport(None, caveats=caveats)
    return MNGReport(True, witness=own.witness, caveats=caveats)


# -- Gorenstein* ---------------------------------------------------------------


@dataclass(frozen=True)
class GorensteinReport:
    value: bool
    reason: str
    witness: dict | None = None

    def to_dict(self) -> dict:
        return {
            "gorenstein_star": self.value,
            "reason": self.reason,
            "witness": self.witness,
        }


def is_gorenstein_star(K: SimplicialComplex) -> GorensteinReport:
    """K equals its core and every face link is an integral homology sphere.

    The link of a face sigma must look like S^(dim K - |sigma|); the empty
    face is included, so K itself must be a homology sphere of its own
    dimension.  The link of a face sigma + v is the link of sigma in the
    link of v, so this holds exactly when K is a homology sphere and every
    vertex link is Gorenstein* one dimension down, which the walk's
    memoized link recursion decides.  When K's integral Hochster table is
    cached, K's homology is read off it; no table is walked for this
    test.  Faces are listed only when K fails, to name the first face in
    size-then-vertex order whose link is not the right sphere.
    """
    cone_verts = K.cone_vertices()
    if cone_verts:
        return GorensteinReport(
            False,
            "K has cone vertices, so K != core(K)",
            {"cone_vertices": list(cone_verts)},
        )
    n = K.dim
    table = cached_integral_table(K)
    whole = (
        reduced_homology(K)
        if table is None
        else table.profile_of((1 << K.m) - 1)
    )
    if _is_sphere_with_sphere_links(K, whole, INT):
        return GorensteinReport(True, "all face links are homology spheres")
    for face, prof in _link_homology(K, whole):
        size = face.bit_count()
        if not prof.is_sphere(n - size):
            return GorensteinReport(
                False,
                "a face link is not a homology sphere of the right dimension",
                {
                    "face": list(vertices_of(face)),
                    "expected_sphere": n - size,
                    "ranks": [list(r) for r in prof.ranks],
                    "torsion": [
                        [d, list(t)] for d, t in prof.torsion
                    ],
                },
            )
    raise InternalInvariant("every face link of a non-Gorenstein* K is a sphere")


def _is_sphere_with_sphere_links(K: SimplicialComplex, whole, coeffs) -> bool:
    """Whether K, whose integral reduced homology is whole, is a homology
    sphere of its dimension over coeffs with every vertex link
    Gorenstein* one dimension down: for K with no cone vertex, whether K
    is Gorenstein* over coeffs.  The walk of a table that takes the
    duality fill has decided the integral links already, and their
    recursion is memoized."""
    sphere = whole.over_field(coeffs).is_sphere(K.dim)
    return sphere and _links_are_spheres(K, K.dim, coeffs)


def _link_homology(K: SimplicialComplex, whole):
    """(face, reduced homology of its link) for the faces of K by size,
    then vertices; the empty face's link is K, whose homology is given.
    The links of the other faces are built only as the caller asks."""
    yield 0, whole
    faces = sorted(K.faces(), key=lambda f: (f.bit_count(), vertices_of(f)))
    for face in faces[1:]:
        yield face, reduced_homology(K.link(vertices_of(face)))


# -- cone-vertex subsets: five equivalent conditions ----------------------------


@dataclass(frozen=True)
class TFAEReport:
    """Truth values of the five characterizations for one subset I.

    a: all subset homology is carried by subsets of I
    b: the core vertices lie in I
    c: every vertex outside I has star equal to K
    d: every vertex outside I has link equal to its deletion
    e: K is the join of the simplex on [m]-I with K_I
    """

    subset: tuple[int, ...]
    conditions: tuple[tuple[str, bool], ...]

    @property
    def agree(self) -> bool:
        vals = {v for _, v in self.conditions}
        return len(vals) == 1

    @property
    def value(self) -> bool:
        return self.conditions[0][1]

    def to_dict(self) -> dict:
        d = {name: val for name, val in self.conditions}
        d["subset"] = list(self.subset)
        d["agree"] = self.agree
        return d


def tfae_check(K: SimplicialComplex, subset) -> TFAEReport:
    """Evaluate all five cone-vertex characterizations for the subset.

    The five answers are provably equal; a disagreement in the report
    would expose an implementation bug, so callers treat it as an
    internal invariant violation.
    """
    I = tuple(sorted(set(subset)))
    if not I:
        raise EmptySubset("the subset of retained vertices must be nonempty")
    for v in I:
        if not 1 <= v <= K.m:
            raise OutOfRange(f"vertex {v} outside 1..{K.m}")
    imask = mask_of(I)
    outside = [v for v in range(1, K.m + 1) if v not in set(I)]

    # a vertex outside I that is no cone vertex lies in a minimal non-face
    # M, and K_M is a sphere: the ranks alone decide (a)
    a = all(
        mask & ~imask == 0 for mask, _ in hochster_table(K, INT).components()
    )

    b = mask_of(K.core_vertices()) & ~imask == 0

    c = all(K.star(v) == K for v in outside)

    d = all(
        K.link([v]) == K.delete_vertex(v) for v in outside
    )

    # from_facets drops the contained generators; smask is disjoint from
    # I, so adding it keeps containment among the restricted facets
    smask = ((1 << K.m) - 1) & ~imask
    cand = from_facets(
        K.m, [vertices_of(smask | (f & imask)) for f in K.facets]
    )
    e = cand == K

    return TFAEReport(
        I,
        (("a", a), ("b", b), ("c", c), ("d", d), ("e", e)),
    )


# -- connected sums of sphere products -------------------------------------------


@dataclass(frozen=True)
class RecognitionReport:
    """Ring-level match against a connected sum of sphere products.

    kind is SPHERE, CONNECTED_SUM, or NONE; for a connected sum, pairs
    lists one (a, b) sphere-product block per summand.
    """

    kind: str
    top_degree: int | None = None
    pairs: tuple[tuple[int, int], ...] = ()
    reason: str = ""

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "top_degree": self.top_degree,
            "pairs": [list(p) for p in self.pairs],
            "reason": self.reason,
        }


def recognize_connected_sum(K: SimplicialComplex) -> RecognitionReport:
    """Match H*(Z_K; Q) against a sphere or a connected sum of S^a x S^b.

    Necessary and sufficient ring conditions: Betti numbers 1, .., 1 with
    a palindromic middle away from the top, no products dropping below
    the top degree, and nondegenerate complementary pairings.  The
    verdict is about the cohomology ring, not the homeomorphism type.

    Z_K is Z_core x a disc, so the ring is the core's.  Over Q it is the
    Tor-algebra of the face ring Q[K] (Buchstaber-Panov, Toric Topology,
    AMS 2015), and the Tor-algebra of a ring is a Poincare duality
    algebra exactly when the ring is Gorenstein (Avramov-Golod, Math.
    Notes 9, 1971), which Q[K] is exactly when the core is Gorenstein*
    over Q (Stanley, Combinatorics and Commutative Algebra, II.5).  So
    once the Betti numbers fit, the product search runs over the pairs
    whose target lies below the top and stops at the first product, and
    when none lands there, every pairing into the top is nondegenerate
    exactly when the core passes the Gorenstein* test over Q.  No
    product into the top is computed and no product table is built.
    """
    table = hochster_table(K, INT)
    b = table.betti  # free ranks: the Betti numbers over Q
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
        return RecognitionReport(
            "NONE", N, reason="no room for complementary middle classes"
        )
    if b[N - 1] or b[N - 2]:
        return RecognitionReport(
            "NONE", N, reason="classes immediately below the top degree"
        )
    if any(b[k] != b[N - k] for k in range(N + 1)):
        return RecognitionReport(
            "NONE", N, reason="Betti numbers are not palindromic"
        )
    if N % 2 == 0 and b[N // 2] % 2:
        return RecognitionReport(
            "NONE",
            N,
            reason="odd-rank middle degree cannot split into products",
        )
    below = _iter_nonzero_products(
        K, RAT, lambda S, d: S.bit_count() + d + 1 < N
    )
    if any(below):
        return RecognitionReport(
            "NONE", N, reason="a product of middle classes lands below the top"
        )
    core = K.core_vertices()
    whole = table.profile_of(mask_of(core))  # the core's homology
    if not _is_sphere_with_sphere_links(K.full_subcomplex(core), whole, RAT):
        reason = (
            "the core is not Gorenstein* over Q, so a pairing into the top"
            " degree is degenerate"
        )
        return RecognitionReport("NONE", N, reason=reason)
    pairs: list[tuple[int, int]] = []
    for k in range(3, (N - 1) // 2 + 1):
        pairs.extend([(k, N - k)] * b[k])
    if N % 2 == 0:
        pairs.extend([(N // 2, N // 2)] * (b[N // 2] // 2))
    return RecognitionReport("CONNECTED_SUM", N, tuple(pairs))


# -- theorem harnesses ------------------------------------------------------------


@dataclass(frozen=True)
class VerificationReport:
    theorem: str
    status: str  # CONFIRMED | HYPOTHESIS_NOT_MET | VIOLATION | UNKNOWN
    hypothesis: dict = field(default_factory=dict)
    conclusion: dict | None = None
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "status": self.status,
            "hypothesis": self.hypothesis,
            "conclusion": self.conclusion,
            "details": self.details,
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def _conclusion_status(mng: MNGReport, extra_ok: bool = True) -> str:
    if mng.value is None:
        return "UNKNOWN"
    return "CONFIRMED" if (mng.value and extra_ok) else "VIOLATION"


def _core_mng(
    K: SimplicialComplex,
) -> tuple[SimplicialComplex, MNGReport, dict]:
    """K's core, the minimally-non-Golod report on it with the witness
    vertex in K's numbering, and the details of the split
    K = Delta^n * core."""
    cone_verts, core = K.core()
    core_verts = K.core_vertices()
    mng = is_minimally_non_golod(core)
    if mng.witness_vertex is not None:
        mng = replace(mng, witness_vertex=core_verts[mng.witness_vertex - 1])
    details = {
        "cone_vertices": list(cone_verts),
        "simplex_dim": len(cone_verts) - 1,
        "core_vertices": list(core_verts),
    }
    return core, mng, details


def verify_theorem_1_1(K: SimplicialComplex) -> VerificationReport:
    """If Z_K is a connected sum of sphere products (ring level) and K is
    Gorenstein*, then K must be minimally non-Golod."""
    rec = recognize_connected_sum(K)
    gor = is_gorenstein_star(K)
    hyp = {
        "connected_sum": rec.kind == "CONNECTED_SUM",
        "recognition": rec.to_dict(),
        "gorenstein_star": gor.value,
    }
    if rec.kind != "CONNECTED_SUM" or not gor.value:
        return VerificationReport("thm1.1", "HYPOTHESIS_NOT_MET", hyp)
    mng = is_minimally_non_golod(K)
    return VerificationReport(
        "thm1.1",
        _conclusion_status(mng),
        hyp,
        mng.to_dict(),
    )


def verify_theorem_1_2(K: SimplicialComplex) -> VerificationReport:
    """If Z_K is a connected sum of sphere products (ring level), then K
    splits as a simplex joined with its core, the core is Gorenstein*,
    and the core is minimally non-Golod."""
    rec = recognize_connected_sum(K)
    hyp = {
        "connected_sum": rec.kind == "CONNECTED_SUM",
        "recognition": rec.to_dict(),
    }
    if rec.kind != "CONNECTED_SUM":
        return VerificationReport("thm1.2", "HYPOTHESIS_NOT_MET", hyp)
    core, mng, details = _core_mng(K)
    gor = is_gorenstein_star(core)
    details["core_gorenstein_star"] = gor.to_dict()
    return VerificationReport(
        "thm1.2",
        _conclusion_status(mng, extra_ok=gor.value),
        hyp,
        mng.to_dict(),
        details,
    )


def _rk_product_below(K: SimplicialComplex, n: int) -> bool:
    """Whether a nonzero product of positive-degree classes of H*(R_K; Q)
    lands below degree n.  H*(R_K) is the sum of the H~^d(K_I) as H*(Z_K)
    is, with the class on (I, d) in degree d + 1, and its products are
    those of H*(Z_K) up to sign (Cai, On products in real moment-angle
    manifolds, J. Math. Soc. Japan 2017).  A product of classes on
    (I, d1) and (J, d2) lands in R_K degree d1 + d2 + 2, the degree of its
    target (I u J, d1 + d2 + 1), so the product search runs over the
    pairs whose target sits below n and stops at the first product."""
    return any(_iter_nonzero_products(K, RAT, lambda S, d: d + 1 < n))


def verify_theorem_4_2(K: SimplicialComplex) -> VerificationReport:
    """If the real moment-angle complex has the rational cohomology of a
    connected sum (Betti numbers 1, middle, 1 with duality, and no
    nonzero product of positive-degree classes below the top degree),
    then the core of K is minimally non-Golod.

    The Betti numbers of R_K are read off the integral Hochster table's
    free ranks, which are the Betti numbers over Q; the products are
    read only when those fit."""
    b = hochster_table(K, INT).rk_betti
    n = len(b) - 1
    middle = sum(b[1:n]) if n >= 1 else 0
    pattern = (
        n >= 1
        and b[0] == 1
        and b[n] == 1
        and all(b[k] == b[n - k] for k in range(n + 1))
        and middle >= 2
        and middle % 2 == 0
        and not _rk_product_below(K, n)
    )
    hyp = {
        "rk_betti": list(b),
        "top_degree": n,
        "middle_sum": middle,
        "pattern": pattern,
    }
    if not pattern:
        return VerificationReport("thm4.2", "HYPOTHESIS_NOT_MET", hyp)
    _, mng, details = _core_mng(K)
    return VerificationReport(
        "thm4.2",
        _conclusion_status(mng),
        hyp,
        mng.to_dict(),
        details,
    )
