"""Deciders for the unique-completion commutation relation between maps.

Two commuting maps f, g on a set are *-commuting when every relation
f(x1) = g(x2) is completed by exactly one y with g(y) = x1 and f(y) = x2.
For finite carriers this is decided directly from that definition; the
equivalent fiber conditions are test oracles.  For the linear
sliding-window maps given by polynomials a, b over GF(2), *-commutation,
strong independence (trivial kernel intersection) and independence
(ker a + ker b = ker ab) all collapse to gcd(a, b) = 1, read off for the
independence profile; against the shift any rule is decided by its rule
test `WindowMap.star_commutes_with_shift` (oracle: `star_commute_windows`).
The kernel-level definitions remain as `star_commutes_on_kernel` and `recurrence_kernel`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ._lazy import np
from .budget import admit_level
from .dictionary import WindowMap
from .gf2poly import Gf2Poly, ZeroPolynomial, poly_factor, poly_gcd, recurrence_kernel
from .words import PeriodicSeq, Word


class NonCommutingMaps(ValueError):
    """The two maps do not commute, so *-commutation is undefined."""


class InvalidSystem(ValueError):
    """Operation requires a valid system (pairwise coprime generators)."""


@dataclass(frozen=True)
class FiniteMapPair:
    """A pair of commuting self-maps of {0, ..., size-1}."""

    size: int
    f: tuple
    g: tuple

    def __post_init__(self):
        for h in (self.f, self.g):
            if len(h) != self.size or any(not 0 <= v < self.size for v in h):
                raise ValueError("map table does not fit the carrier")
        for x in range(self.size):
            if self.f[self.g[x]] != self.g[self.f[x]]:
                raise NonCommutingMaps("maps disagree at %d" % x)


@dataclass(frozen=True)
class StarDecision:
    star: bool
    witness: tuple | None


def star_commute_finite(pair: FiniteMapPair) -> StarDecision:
    """Decide *-commutation on a finite carrier.

    The unique-completion condition is evaluated literally; the witness is
    the first agreement f(x1) = g(x2), in row-major order, whose number of
    completions is not one.
    """
    f, g, size = pair.f, pair.g, pair.size
    for x1 in range(size):
        for x2 in range(size):
            if f[x1] != g[x2]:
                continue
            completions = [y for y in range(size) if g[y] == x1 and f[y] == x2]
            if len(completions) != 1:
                return StarDecision(False, (x1, x2, len(completions)))
    return StarDecision(True, None)


# The word length star_commute_windows checks, beyond the two windows.
STAR_DEPTH = 4


def star_commute_windows(m1: WindowMap, m2: WindowMap) -> StarDecision:
    """Word-level *-commutation of two commuting sliding-window maps.

    Checks injectivity of m2 on word-level m1-fibers over all words of
    length n1 + n2 + STAR_DEPTH: exact for linear maps (a Bezout argument
    bounds the length by deg1 + deg2 + 6) and for the shift against any rule,
    the tests' oracle of the gcd route and of `WindowMap.star_commutes_with_shift`;
    a fixed-depth semi-decision for other nonlinear pairs.  No command runs it.
    """
    length = m1.window + m2.window + STAR_DEPTH
    admit_level(length, length)
    if m1.compose(m2).rule != m2.compose(m1).rule:
        raise NonCommutingMaps("window rules do not commute")
    img1 = m1.image_table(length)
    img2 = m2.image_table(length)
    combined = (img1 << (length - m2.window + 1)) | img2
    order = np.argsort(combined, kind="stable")
    dup = np.nonzero(np.diff(combined[order]) == 0)[0]
    if dup.size:
        y1 = int(order[dup[0]])
        y2 = int(order[dup[0] + 1])
        return StarDecision(False, (Word(length, y1), Word(length, y2)))
    return StarDecision(True, None)


def star_commutes_on_kernel(a: Gf2Poly, b: Gf2Poly) -> bool:
    """Whether a(shift) restricts to a bijection of the kernel of b."""
    if a.is_zero or b.is_zero:
        raise ZeroPolynomial("kernel criterion needs nonzero polynomials")
    kernel = recurrence_kernel(b)
    ma = WindowMap.from_poly(a)
    images = [ma.apply_seq(s) for s in kernel]
    return len(set(images)) == len(kernel) and set(images) == set(kernel)


@dataclass(frozen=True)
class IndependenceProfile:
    strongly_independent: bool
    independent: bool
    star_commute: bool
    shared_kernel_witness: PeriodicSeq | None


def independence_profile(a: Gf2Poly, b: Gf2Poly) -> IndependenceProfile:
    """Kernel-level independence flags for two nonzero polynomials.

    For this linear family strong independence, independence and
    *-commutation all coincide with gcd(a, b) = 1.  Since
    ker a ∩ ker b = ker gcd(a, b), the shared-kernel witness is the first
    nonzero element of the gcd's kernel in `sort_key` order.
    """
    if a.is_zero or b.is_zero:
        raise ZeroPolynomial("independence profile needs nonzero polynomials")
    gcd = poly_gcd(a, b)
    coprime = gcd == Gf2Poly.one()
    witness = None
    if not coprime:
        witness = next(s for s in recurrence_kernel(gcd) if not s.is_zero)
    return IndependenceProfile(coprime, coprime, coprime, witness)


@dataclass(frozen=True)
class MonoidElement:
    """An element of the free abelian monoid over the system generators."""

    exponents: tuple

    def __post_init__(self):
        if any(e < 0 for e in self.exponents):
            raise ValueError("exponents must be nonnegative")

    @classmethod
    def generator(cls, i: int, rank: int) -> "MonoidElement":
        return cls(tuple(1 if j == i else 0 for j in range(rank)))

    def relatively_prime(self, other: "MonoidElement") -> bool:
        return all(min(e, f) == 0 for e, f in zip(self.exponents, other.exponents))


@dataclass(frozen=True)
class DynamicalSystem:
    """A family of commuting linear sliding-window maps given by polynomials."""

    generators: tuple
    names: tuple

    def __post_init__(self):
        if len(self.generators) != len(self.names):
            raise ValueError("one name per generator")
        if len(set(self.names)) != len(self.names):
            raise ValueError("generator names must be distinct")
        for m in self.generators:
            if m.linear_poly is None or m.linear_poly.is_zero or m.linear_poly.degree < 1:
                raise ValueError("generators must be linear of degree at least 1")

    @classmethod
    def from_polys(cls, polys, names=None) -> "DynamicalSystem":
        polys = list(polys)
        if names is None:
            names = ["p%d" % (i + 1) for i in range(len(polys))]
        return cls(
            tuple(WindowMap.from_poly(p) for p in polys),
            tuple(names),
        )

    @property
    def rank(self) -> int:
        return len(self.generators)

    def poly_of(self, p: MonoidElement) -> Gf2Poly:
        if len(p.exponents) != self.rank:
            raise ValueError("exponent vector has wrong rank")
        result = Gf2Poly.one()
        for m, e in zip(self.generators, p.exponents):
            result = result * m.linear_poly**e
        return result

    def map_of(self, p: MonoidElement) -> WindowMap:
        return WindowMap.from_poly(self.poly_of(p))


def _coprimality_witnesses(sys: DynamicalSystem) -> list:
    out = []
    for i in range(sys.rank):
        for j in range(i + 1, sys.rank):
            g = poly_gcd(sys.generators[i].linear_poly, sys.generators[j].linear_poly)
            if g != Gf2Poly.one():
                out.append((sys.names[i], sys.names[j], g))
    return out


@dataclass(frozen=True)
class MinimalityResult:
    minimal: bool
    argument: str


def is_minimal(sys: DynamicalSystem) -> MinimalityResult:
    """Whether the intersection of all generator images is trivial.

    Any group element fixed under division by every power of a degree >= 1
    generator polynomial would need unbounded degree, so a single such
    generator already forces the intersection down to the identity.
    """
    if _coprimality_witnesses(sys):
        raise InvalidSystem("generators are not pairwise coprime")
    if sys.rank == 0:
        return MinimalityResult(False, "no generators, the image intersection is everything")
    name = sys.names[0]
    poly = sys.generators[0].linear_poly
    return MinimalityResult(
        True,
        "every dual-group element divisible by all powers of %s (degree %d) "
        "would exceed any degree bound, so the intersection of the images "
        "of all generator maps contains only the constant" % (name, poly.degree),
    )


@dataclass(frozen=True)
class TopFreeResult:
    free: bool
    rank: int
    exponent_matrix: tuple
    irreducibles: tuple
    witness: tuple | None


def is_topologically_free(sys: DynamicalSystem) -> TopFreeResult:
    """Whether distinct monoid elements always induce distinct maps.

    The monoid map p -> poly_of(p) is injective exactly when the matrix of
    irreducible-factor multiplicities of the generators has full column
    rank over the rationals; otherwise an integer null vector splits into
    a concrete pair p != q with equal polynomials.
    """
    irreducibles = []
    columns = []
    for m in sys.generators:
        fac = poly_factor(m.linear_poly)
        col = {}
        for p, e in fac.factors:
            if p not in irreducibles:
                irreducibles.append(p)
            col[p] = e
        columns.append(col)
    irreducibles.sort(key=lambda p: p.bits)
    matrix = tuple(
        tuple(col.get(p, 0) for col in columns) for p in irreducibles
    )
    rank, null = _column_rank_and_null(matrix, sys.rank)
    if rank == sys.rank:
        return TopFreeResult(True, rank, matrix, tuple(irreducibles), None)
    pos = tuple(max(v, 0) for v in null)
    neg = tuple(max(-v, 0) for v in null)
    witness = (MonoidElement(pos), MonoidElement(neg))
    return TopFreeResult(False, rank, matrix, tuple(irreducibles), witness)


def _column_rank_and_null(matrix, ncols):
    """Column rank over Q and, if deficient, an integer null vector."""
    rows = [[Fraction(v) for v in row] for row in matrix]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                factor = rows[i][c]
                rows[i] = [v - factor * w for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    if r == ncols:
        return r, None
    free = next(c for c in range(ncols) if c not in pivots)
    null = [Fraction(0)] * ncols
    null[free] = Fraction(1)
    for i, c in enumerate(pivots):
        null[c] = -rows[i][free]
    scale = math.lcm(*(v.denominator for v in null))
    ints = [int(v * scale) for v in null]
    return r, ints


@dataclass(frozen=True)
class SystemCertificate:
    valid: bool
    witnesses: tuple
    minimal: bool | None
    minimality_argument: str
    topologically_free: bool
    rank_witness: dict
    simplicity_report: str

    def to_json_dict(self) -> dict:
        return {
            "valid": self.valid,
            "witnesses": [
                {"pair": [a, b], "gcd": str(g)} for a, b, g in self.witnesses
            ],
            "minimal": self.minimal,
            "minimality_argument": self.minimality_argument,
            "topologically_free": self.topologically_free,
            "rank_witness": self.rank_witness,
            "simplicity_report": self.simplicity_report,
        }


def certify_system(sys: DynamicalSystem) -> SystemCertificate:
    """Certify pairwise coprimality and the derived dynamical properties."""
    witnesses = tuple(_coprimality_witnesses(sys))
    valid = not witnesses
    top = is_topologically_free(sys)
    rank_witness = {
        "rank": top.rank,
        "generators": [str(m.linear_poly) for m in sys.generators],
        "irreducibles": [str(p) for p in top.irreducibles],
        "exponent_matrix": [list(row) for row in top.exponent_matrix],
    }
    if top.witness is not None:
        p, q = top.witness
        rank_witness["colliding_pair"] = [list(p.exponents), list(q.exponents)]
    if valid:
        minimality = is_minimal(sys)
        minimal = minimality.minimal
        argument = minimality.argument
        if minimal:
            report = (
                "valid system of pairwise coprime generators; minimal, and "
                "minimality is equivalent to simplicity of the crossed-product "
                "operator algebra of the system, so that algebra is simple"
            )
        else:
            report = (
                "valid but not minimal; simplicity of the crossed-product "
                "operator algebra is equivalent to minimality, so the algebra "
                "is not simple"
            )
    else:
        minimal = None
        argument = "not evaluated: the generator family is not pairwise coprime"
        pairs = ", ".join("(%s, %s) share %s" % (a, b, g) for a, b, g in witnesses)
        report = (
            "not a valid system: %s; the simplicity criterion (simple iff "
            "minimal) only applies to valid systems" % pairs
        )
    return SystemCertificate(
        valid=valid,
        witnesses=witnesses,
        minimal=minimal,
        minimality_argument=argument,
        topologically_free=top.free,
        rank_witness=rank_witness,
        simplicity_report=report,
    )
