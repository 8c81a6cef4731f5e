"""Finite matrix model for the isometries attached to progressive maps.

At level k the space of level-k cylinder functions is 2^k dimensional and
the isometry of a window-n progressive map sends the indicator of a word
x to the normalized sum of the indicators of its F = 2^(n-1) preimage
words, so it is a (2^(k+n-1) x 2^k) matrix with exactly one nonzero entry,
F^(-1/2), per row: the image table of the map times one scalar.  The
relation suite works on that form, so every product of isometries, their
adjoints and multiplication operators is a count or a join over image
tables, compared exactly; its cost grows like the largest table,
2^(k+n-1) entries.  `LevelOperator` is the dense form, two integer
matrices (rational and sqrt2 numerators) over one positive denominator,
with the exact arithmetic of cylinder functions (`cylinder._Numerators`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from ._lazy import np
from .budget import admit_frame, admit_level
from .cylinder import (
    CylinderFunction,
    NumeratorOverflow,
    QuadScalar,
    _fiber_gram,
    _fibers,
    _frame_record,
    _Numerators,
    _pairs,
    _preimage_table,
    _refined_gram,
    alpha,
    standard_frame,
)
from .dictionary import NotProgressive, WindowMap
from .gf2poly import Gf2Poly, poly_gcd
from .starcomm import DynamicalSystem, InvalidSystem, MonoidElement, _coprimality_witnesses
from .words import PeriodicSeq, Word

class LevelTooSmall(ValueError):
    """The requested level cannot host the relation checks."""


class NoSeparation(ValueError):
    """No cylinder prefix of the given point separates the two maps."""


@dataclass(frozen=True, eq=False)
class LevelOperator(_Numerators):
    """A linear map from level-source to level-target cylinder functions."""

    _BITS = 24
    _KIND = "matrix"

    source_level: int
    target_level: int
    num_a: np.ndarray
    num_b: np.ndarray
    den: int

    def __post_init__(self):
        shape = (1 << self.target_level, 1 << self.source_level)
        if self.num_a.shape != shape or self.num_b.shape != shape:
            raise ValueError("matrix shape does not match the levels")
        self._freeze()

    @classmethod
    def identity(cls, level: int) -> "LevelOperator":
        eye = np.eye(1 << level, dtype=np.int64)
        return cls(level, level, eye, np.zeros_like(eye), 1)

    @classmethod
    def from_cylinder(cls, f: CylinderFunction, level: int) -> "LevelOperator":
        """The multiplication operator of f acting at the given level."""
        g = f.embed(level)
        return cls(level, level, np.diag(g.num_a), np.diag(g.num_b), g.den)

    def __matmul__(self, other: "LevelOperator") -> "LevelOperator":
        if other.target_level != self.source_level:
            raise ValueError("level mismatch in composition")
        product = self._product(other.num_a, other.num_b, other.den, np.matmul)
        return LevelOperator(other.source_level, self.target_level, *product)

    def __add__(self, other: "LevelOperator") -> "LevelOperator":
        if (self.source_level, self.target_level) != (other.source_level, other.target_level):
            raise ValueError("level mismatch in sum")
        return self._same_levels(*self._sum(other))

    def __sub__(self, other: "LevelOperator") -> "LevelOperator":
        return self + other.scaled(QuadScalar.of(-1))

    def _same_levels(self, a, b, den: int) -> "LevelOperator":
        return LevelOperator(self.source_level, self.target_level, a, b, den)

    def scaled(self, s: QuadScalar) -> "LevelOperator":
        sd = math.lcm(s.a.denominator, s.b.denominator)
        scalar = np.asarray(int(s.a * sd)), np.asarray(int(s.b * sd))
        return self._same_levels(*self._product(*scalar, sd))

    def scale_rows(self, f: CylinderFunction) -> "LevelOperator":
        """diag(f) composed after this operator."""
        g = f.embed(self.target_level)
        return self._same_levels(*self._product(g.num_a[:, None], g.num_b[:, None], g.den))

    def scale_cols(self, f: CylinderFunction) -> "LevelOperator":
        """This operator composed after diag(f)."""
        g = f.embed(self.source_level)
        return self._same_levels(*self._product(g.num_a, g.num_b, g.den))

    def adjoint(self) -> "LevelOperator":
        return LevelOperator(
            self.target_level, self.source_level, self.num_a.T, self.num_b.T, self.den
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, LevelOperator):
            return NotImplemented
        levels = (self.source_level, self.target_level) == (other.source_level, other.target_level)
        return levels and self._same(other)

    def entry(self, row: Word, col: Word) -> QuadScalar:
        cell = (row.bits, col.bits)
        return QuadScalar.over(self.num_a[cell], self.num_b[cell], self.den)

    def first_nonzero(self):
        """Row-major witness (row word, column word, value) or None."""
        nz = np.nonzero(self.num_a | self.num_b)
        if nz[0].size == 0:
            return None
        r, c = int(nz[0][0]), int(nz[1][0])
        row, col = Word(self.target_level, r), Word(self.source_level, c)
        return row, col, self.entry(row, col)

    def diagonal(self) -> CylinderFunction:
        if self.source_level != self.target_level:
            raise ValueError("diagonal of a non-square operator")
        return CylinderFunction(
            self.source_level, self.num_a.diagonal(), self.num_b.diagonal(), self.den
        )

    def to_text(self) -> str:
        """Plain form "level_src level_tgt scale; row-major integers"."""
        if self.num_a.any() and self.num_b.any():
            raise ValueError("mixed rational and sqrt2 entries have no single scale")
        if self.num_b.any():
            scale, ints = str(QuadScalar.of(0, Fraction(1, self.den))), self.num_b
        else:
            scale, ints = str(QuadScalar.of(Fraction(1, self.den))), self.num_a
        body = " ".join(str(int(v)) for v in ints.ravel())
        return "%d %d %s; %s" % (self.source_level, self.target_level, scale, body)


def isometry_matrix(m: WindowMap, source_level: int) -> LevelOperator:
    """The isometry of a progressive map from source_level to its image level."""
    if not m.is_progressive:
        raise NotProgressive("isometries need a progressive rule")
    n = m.window
    target = source_level + n - 1
    img = m.image_table(target)
    pattern = np.zeros((1 << target, 1 << source_level), dtype=np.int64)
    pattern[np.arange(1 << target), img] = 1
    # 1/sqrt(fibers) = sqrt(fibers) / fibers.
    root = QuadScalar.root2_power(n - 1)
    return LevelOperator(source_level, target, pattern * int(root.a), pattern * int(root.b), m.fiber_count)


@dataclass(frozen=True)
class RelationReport:
    level: int
    relations: dict
    witnesses: dict
    pair_details: tuple

    @property
    def all_expected_hold(self) -> bool:
        # (III) is expected to hold only for coprime pairs.
        ok = all(v for k, v in self.relations.items() if k != "III")
        return ok and all(d["holds"] or not d["coprime"] for d in self.pair_details)

    def to_json_dict(self) -> dict:
        return {
            "level": self.level,
            "relations": dict(self.relations),
            "witnesses": dict(self.witnesses),
            "pair_details": [dict(d) for d in self.pair_details],
        }


@functools.lru_cache(maxsize=None)
def _inv_root(d: int) -> QuadScalar:
    """F^(-1/2) = sqrt(F) / F for F = 2^d fibers."""
    root = QuadScalar.root2_power(d)
    return QuadScalar.over(root.a, root.b, 1 << d)


def _witness(pair_names, row: Word, col: Word, value: QuadScalar) -> dict:
    return {"pair": list(pair_names), "row": str(row), "col": str(col), "value": str(value)}


def _count_difference(lhs: np.ndarray, rhs: np.ndarray):
    """The smallest key counted differently by two key arrays, and lhs minus rhs there.

    Each key is row << (column bits) | column of one unit entry, so the
    smallest key is the row-major first entry where the two sides differ.
    Sorted, the two arrays agree up to their first differing index i, and
    every key below the smaller entry there is counted alike on both sides.
    """
    lhs, rhs = np.sort(lhs), np.sort(rhs)
    n = min(lhs.size, rhs.size)
    differ = lhs[:n] != rhs[:n]
    i = int(differ.argmax()) if n else 0
    if n and differ[i]:
        key = min(lhs[i], rhs[i])
    elif lhs.size == rhs.size:
        return None
    else:
        key = (lhs if lhs.size > n else rhs)[n]

    def count(side):
        return int(side.searchsorted(key, "right") - side.searchsorted(key, "left"))

    return int(key), count(lhs) - count(rhs)


def _first_entry(pair_names, rows, cols, k: int, num_a, num_b, den: int):
    """The witness at the row-major first level-k pair with (num_a + num_b*sqrt2) / den nonzero."""
    live = np.flatnonzero(num_a | num_b)
    if live.size == 0:
        return None
    i = live[np.argmin((rows[live] << k) | cols[live])]
    value = QuadScalar.over(num_a[i], num_b[i], den)
    return _witness(pair_names, Word(k, int(rows[i])), Word(k, int(cols[i])), value)


class _Generator:
    """One generator of degree d at level k, its tables and its frame record, built once per call.

    `top` and `low` are its image tables at k + d and k, `fibers` its fiber table
    at k; `prefix`, `den`, `gram` and `shared` are its standard frame's `_frame_record`.
    """

    def __init__(self, level: _Level, name: str, m: WindowMap):
        self.name, self.m, self.d = name, m, m.window - 1
        self.top, self.low = m.image_table(level.k + self.d), m.image_table(level.k)
        self.fibers = level.fibers(m, level.k)
        frame = standard_frame(m)
        self.prefix, self.den = max(nu.level for nu in frame), math.lcm(*(nu.den for nu in frame))
        self.gram, self.shared = _frame_record(frame, self.d, self.prefix, self.den)


class _Level:
    """One `verify_relations` call's level k, its words and its `_Generator`s.

    Building it runs the admissions.  `fibers` serves every fiber table from
    a memo local to the call, so each (map, length) is argsorted at most once.
    """

    def __init__(self, sys: DynamicalSystem, level: int):
        windows = [m.window for m in sys.generators]
        if not windows:
            raise InvalidSystem("system has no generators")
        max_window = max(windows)
        composite_window = 2 * max_window - 1
        if level < max_window + 2 or level < composite_window - 1:
            raise LevelTooSmall("level %d too small for windows %s" % (level, windows))
        admit_level(level, level + max_window - 1)
        if not all(m.is_progressive for m in sys.generators):
            raise NotProgressive("isometries need a progressive rule")
        # A square's composite standard frame is the largest frame array the suite builds.
        admit_frame(max_window - 1)
        self.k, self.words = level, np.arange(1 << level, dtype=np.int64)
        self.fibers = functools.lru_cache(maxsize=None)(_fibers)
        self.generators = [_Generator(self, name, m) for m, name in zip(sys.generators, sys.names)]


def _relation_i(level: _Level, g: _Generator):
    """(I) S_p M_f = M_{alpha f} S_p on the level-k indicator basis.

    With c = F^(-1/2), S_p M_chi_u has c at (y, u) for img(y) = u and
    M_{alpha chi_u} S_p has c at (y, img(y)) for (alpha chi_u)(y) = 1; alpha
    of the coordinate function gives every alpha chi_u at once.  The witness
    is the first failing u and the row-major first entry of the difference.
    """
    k, img, c = level.k, g.top, _inv_root(g.d)
    pulled = alpha(g.m, CylinderFunction(k, level.words, np.zeros_like(level.words), 1)).num_a
    moved = np.flatnonzero(img != pulled)
    if not moved.size:
        return None
    u = int(min(img[moved].min(), pulled[moved].min()))
    y = int(np.flatnonzero((img == u) != (pulled == u))[0])
    col, value = (u, c) if img[y] == u else (int(img[y]), -c)
    return _witness((g.name,), Word(k + g.d, y), Word(k, col), value)


def _relation_ii(level: _Level, g: _Generator):
    """(II) S_p* M_f S_p = M_{L f} on the image-level indicator basis.

    S_p* M_chi_u S_p is c^2 at the single diagonal entry img(u), against the
    transfer's fibers, which `_preimage_table` builds from the rule (for a
    linear generator as the cosets of its kernel): entry (u, x) is
    [img(u) = x] against the number of times the fiber of x lists u.
    """
    k, img = level.k, g.top
    found = _count_difference(
        (np.arange(img.size, dtype=np.int64) << k) | img,
        ((_preimage_table(g.m, k) << k) | level.words[:, None]).ravel(),
    )
    if found is None:
        return None
    key, net = found
    x = Word(k, key & ((1 << k) - 1))
    return _witness((g.name,), x, x, QuadScalar.of(Fraction(net, g.m.fiber_count)))


def _relation_iv(level: _Level, g: _Generator):
    """(IV) sum_w M_{nu_w} S_p S_p* M_{nu_w} = 1 for the standard frame.

    S_p S_p* is c^2 on the pairs of words that share an image, so the sum is
    the frame Gram over c^-2 read on the same-fiber pairs of the argsort
    fibers (`_fiber_gram`).  With the matrix units it decides that the
    frame is a Parseval frame: a broken one fails them.
    """
    scale = g.m.fiber_count * g.den * g.den
    rows, cols, ga, gb = _fiber_gram(g.fibers, g.prefix, *g.gram)
    return _first_entry((g.name,), rows, cols, level.k, ga - scale * (rows == cols), gb, scale)


def _matrix_units(level: _Level, g: _Generator):
    """The matrix-unit algebra of the standard frame's operators.

    S_p S_p* M_chi_b S_p S_p* = c^2 S_p S_p* exactly when every fiber holds
    one word of prefix b; distinct frame members are orthogonal unless they
    share a support word.  The witness names the first failing frame word b.
    """
    k, d, low, fibers = level.k, g.d, g.low, g.m.fiber_count
    per_prefix = np.bincount(
        (level.words >> (k - d)) * (1 << (k - d)) + low, minlength=fibers << (k - d)
    ).reshape(fibers, -1)
    for b, shared in enumerate(g.shared):
        bad = per_prefix[b][low] != 1
        if bad.any():
            y = Word(k, int(np.argmax(bad)))
            value = QuadScalar.of(Fraction(int(per_prefix[b][low[y.bits]]) - 1, fibers))
            return _witness((g.name,), y, y, value)
        if shared:
            return _witness((g.name,), Word(k, 0), Word(k, 0), _inv_root(d) * _inv_root(d))
    return None


def _relation_iii(level: _Level, gi: _Generator, gj: _Generator):
    """(III) S_i* S_j = S_j S_i* for distinct generators: its witness or None, and the pair detail.

    It is expected to hold exactly for coprime pairs.  Entry (x', x) of
    S_i* S_j counts y with img_i(y) = x' and img_j(y) = x; entry (z, v) of
    S_j S_i* is 1 when img_j(z) = img_i(v); both times c_i c_j.
    """
    k, mi, mj, di, dj = level.k, gi.m, gj.m, gi.d, gj.d
    zs, vs = _pairs(level.fibers(mj, k - di + dj), gi.fibers)
    found = _count_difference((mi.image_table(k + dj) << k) | gj.top, (zs << k) | vs)
    gcd = poly_gcd(mi.linear_poly, mj.linear_poly)
    pair = [gi.name, gj.name]
    detail = {"pair": pair, "gcd": str(gcd), "coprime": gcd == Gf2Poly.one(), "holds": not found}
    if found is None:
        return None, detail
    key, net = found
    value = _inv_root(di) * _inv_root(dj) * QuadScalar.of(net)
    row, col = Word(k + dj - di, key >> k), Word(k, key & ((1 << k) - 1))
    detail["witness"] = _witness(pair, row, col, value)
    return detail["witness"], detail


def _frame_independence(level: _Level, gi: _Generator, gj: _Generator):
    """Frame independence of the reconstruction sum for the product of two generators.

    The reconstruction sums of the composite's standard frame and of the
    refined frame differ by c^2 times the difference of their Grams on the
    same-fiber pairs, and not at all when the Grams agree on every pair of
    prefixes.  The refined frame's Gram is the entrywise product of the
    factor Grams, G_i(y, y') G_j(m_i y, m_i y') (`_refined_gram`).
    """
    comp = gi.m.compose(gj.m)
    std = standard_frame(comp)
    prefix = max(gi.prefix, gj.prefix + gi.m.window - 1, *(nu.level for nu in std))
    den = math.lcm(gi.den * gj.den, *(nu.den for nu in std))
    (sa, sb), _ = _frame_record(std, comp.window - 1, prefix, den)
    rescale = (den // (gi.den * gj.den)) ** 2
    ra, rb = (x * rescale for x in _refined_gram(gi.gram, gi.m, gj.gram, prefix))
    if np.array_equal(sa, ra) and np.array_equal(sb, rb):
        return None
    rows, cols, da, db = _fiber_gram(level.fibers(comp, level.k), prefix, sa - ra, sb - rb)
    scale = comp.fiber_count * den * den
    return _first_entry((gi.name, gj.name), rows, cols, level.k, da, db, scale)


_PER_GENERATOR = {
    "I": _relation_i, "II": _relation_ii, "IV": _relation_iv,
    "orthonormal_matrix_units": _matrix_units,
}
_RELATIONS = ("I", "II", "III", "IV", "frame_independence", "orthonormal_matrix_units")


def verify_relations(sys: DynamicalSystem, level: int) -> RelationReport:
    """Check the defining operator relations for a system at one level.

    `_Level` admits the system and builds the level context.  On it,
    `_relation_i`, `_relation_ii`, `_relation_iv` and `_matrix_units` run per
    generator, `_relation_iii` per pair of distinct generators and
    `_frame_independence` per product of two generators, squares included.
    Each returns its first witness or None; a relation holds when none gives
    one, and its witness is the first given.
    """
    context = _Level(sys, level)
    gens = context.generators
    found = [(name, check(context, g)) for g in gens for name, check in _PER_GENERATOR.items()]
    checks = [_relation_iii(context, gi, gj) for i, gi in enumerate(gens) for gj in gens[i + 1 :]]
    found += [("III", witness) for witness, _ in checks]
    products = [(gi, gj) for i, gi in enumerate(gens) for gj in gens[i:]]
    found += [("frame_independence", _frame_independence(context, *pair)) for pair in products]
    witnesses = {}
    for name, witness in found:
        if witness is not None:
            witnesses.setdefault(name, witness)
    relations = {name: name not in witnesses for name in _RELATIONS}
    return RelationReport(level, relations, witnesses, tuple(detail for _, detail in checks))


@dataclass(frozen=True)
class DefectReport:
    requested_level: int
    working_level: int
    output_level: int
    diagonal: CylinderFunction
    defect: tuple

    def to_json_dict(self) -> dict:
        return {
            "requested_level": self.requested_level,
            "working_level": self.working_level,
            "output_level": self.output_level,
            "diagonal": self.diagonal.serialize(),
            "defect": [str(w) for w in self.defect],
        }


def expectation_defect(
    sys: DynamicalSystem,
    p: MonoidElement,
    q: MonoidElement,
    level: int,
    f: CylinderFunction | None = None,
    g: CylinderFunction | None = None,
) -> DefectReport:
    """Diagonal of M_f S_p S_q* M_g and where it deviates from an expectation.

    For p = q the compression is exactly fibers^(-1) f g on level words and
    the defect is empty.  For p != q the sandwich is computed at the level
    k + max(deg p, deg q) so both prefix gatherings are defined; the words
    whose diagonal survives (with f = g = 1) are exactly the length-k
    truncations of the kernel of the difference polynomial.  A diagonal
    level over TABLE_BUDGET is refused before any array is built.
    """
    if _coprimality_witnesses(sys):
        raise InvalidSystem("generators are not pairwise coprime")
    poly_p, poly_q = sys.poly_of(p), sys.poly_of(q)
    mp, mq = sys.map_of(p), sys.map_of(q)
    dp, dq = mp.window - 1, mq.window - 1
    k = level
    f = CylinderFunction.one() if f is None else f
    g = CylinderFunction.one() if g is None else g
    if max(f.level, g.level) > k:
        raise ValueError("f and g must live at or below the requested level")
    if k < max(dp, dq):
        raise LevelTooSmall("level below the degrees of p and q")
    working = k + max(dp, dq)
    target = working - dq + dp
    # Entry (v, z) of S_p S_q* is c_p c_q when img_p(v) = img_q(z); the
    # diagonal reads it at the target and working prefixes of one word.
    diag_level = k if poly_p == poly_q else max(working, target)
    admit_level(k, diag_level)
    if poly_p == poly_q:
        # The diagonal of S_p S_p* is c^2 on every word.
        c = _inv_root(dp)
        return DefectReport(k, k, k, (f * g).embed(k).scale(c * c), ())
    t = np.arange(1 << diag_level, dtype=np.int64)
    live = (
        mp.image_table(target)[t >> (diag_level - target)]
        == mq.image_table(working)[t >> (diag_level - working)]
    )
    mask = live.astype(np.int64)
    diagonal = (CylinderFunction(diag_level, mask, np.zeros_like(mask), 1) * f * g).scale(
        _inv_root(dp) * _inv_root(dq)
    )
    defect = np.unique(t[live] >> (diag_level - k))
    return DefectReport(
        k, working, target, diagonal, tuple(Word(k, int(v)) for v in defect)
    )


@dataclass(frozen=True)
class BumpReport:
    prefix: Word
    level: int

    def to_json_dict(self) -> dict:
        return {"prefix": str(self.prefix), "level": self.level}


def annihilating_bump(
    sys: DynamicalSystem, p: MonoidElement, q: MonoidElement, x: PeriodicSeq
) -> BumpReport:
    """A cylinder prefix of x whose indicator kills S_p S_q* from both sides.

    The images of x under the two maps are computed exactly as eventually
    periodic sequences; if they differ at coordinate j, the prefix of x of
    some length m <= j + max(deg p, deg q) already separates the orbits,
    and the returned level certifies chi S_p S_q* chi = 0: no word under
    the prefix at the target level shares an image with one at the
    working level.  The tables grow with m, so the search is refused
    before it starts if those of its last m are over TABLE_BUDGET.
    """
    mp, mq = sys.map_of(p), sys.map_of(q)
    image_p = mp.apply_seq(x)
    image_q = mq.apply_seq(x)
    if image_p == image_q:
        raise NoSeparation("the maps agree on the given sequence")
    horizon = max(image_p.pre_len, image_q.pre_len) + math.lcm(
        image_p.per_len, image_q.per_len
    )
    j = next(i for i in range(1, horizon + 1) if image_p.coord(i) != image_q.coord(i))
    dp, dq = mp.window - 1, mq.window - 1
    bound = j + max(dp, dq)
    last = bound + max(mp.window, mq.window) + 1
    admit_level(last, last + max(0, dp - dq))
    for m in range(1, bound + 1):
        u = x.prefix(m)
        working = m + max(mp.window, mq.window) + 1
        target = working - dq + dp
        lo, hi = u.bits, u.bits + 1
        rows = mp.image_table(target)[lo << (target - m) : hi << (target - m)]
        cols = mq.image_table(working)[lo << (working - m) : hi << (working - m)]
        if not np.isin(rows, cols).any():
            return BumpReport(u, working)
    raise NoSeparation("no prefix of length up to %d separates the images" % bound)
