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
        expected = dict(self.relations)
        # (III) is expected to hold only for coprime pairs.
        ok = all(v for k, v in expected.items() if k != "III")
        pairs_ok = all(
            d["holds"] == d["coprime"] or d["holds"] for d in self.pair_details
        )
        return ok and pairs_ok

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
    return {
        "pair": list(pair_names),
        "row": str(row),
        "col": str(col),
        "value": str(value),
    }


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


def _first_entry(rows, cols, col_bits: int, num_a, num_b, den: int):
    """The row-major first pair with a nonzero (num_a + num_b*sqrt2) / den."""
    live = np.flatnonzero(num_a | num_b)
    if live.size == 0:
        return None
    i = live[np.argmin((rows[live] << col_bits) | cols[live])]
    return int(rows[i]), int(cols[i]), QuadScalar.over(num_a[i], num_b[i], den)


def verify_relations(sys: DynamicalSystem, level: int) -> RelationReport:
    """Check the defining operator relations for a system at one level.

    (I)   S_p M_f = M_{alpha f} S_p on the level-k indicator basis,
    (II)  S_p* M_f S_p = M_{L f} on the image-level indicator basis,
    (III) S_p* S_q = S_q S_p* for every pair of distinct generators,
          expected to hold exactly for coprime pairs,
    (IV)  sum_w M_{nu_w} S_p S_p* M_{nu_w} = 1 for the standard frame,
    plus frame-choice independence of the reconstruction sum for products
    of two generators and the matrix-unit algebra of the frame operators.

    S_p has one nonzero entry, c = F^(-1/2), per row, in the column of the
    row's image, so each side is computed from image tables: S_p M_f has
    rows f(img(y)) at column img(y); S_p* M_chi_u S_p is c^2 at the single
    diagonal entry img(u), against the transfer's fibers, which
    `_preimage_table` builds from the rule (for a linear generator as the
    cosets of its kernel); S_p* S_q counts the y with a given pair of
    images and S_q S_p* joins words with equal images; S_p S_p* is c^2 on
    the pairs of words that share an image.  The frame Grams are exact
    float64 products (`_stack_gram`), read with the members' shared
    supports from `_frame_record`: the standard members of each degree
    have one record, built once, and any other frame is stacked per call.
    Frame independence compares the frame Gram of the composite standard
    frame with the entrywise product of the factor Grams,
    G_i(y, y') G_j(m_i y, m_i y'), which is the Gram of the refined frame
    (`_refined_gram`, formed for every pair).  A failing relation names
    the first failing indicator u (I, II) or frame word b (matrix units)
    and the row-major first entry of the difference of its two sides.  IV
    and the matrix units decide that each generator's frame is a Parseval
    frame: a broken one fails them.
    """
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
    k = level
    relations = {
        "I": True,
        "II": True,
        "III": True,
        "IV": True,
        "frame_independence": True,
        "orthonormal_matrix_units": True,
    }
    witnesses = {}
    pair_details = []

    def record(name, pair_names, row, col, value):
        relations[name] = False
        if name not in witnesses:
            witnesses[name] = _witness(pair_names, row, col, value)

    words = np.arange(1 << k, dtype=np.int64)
    frames = []
    for m, name in zip(sys.generators, sys.names):
        d = m.window - 1
        fibers = m.fiber_count
        c = _inv_root(d)
        img = m.image_table(k + d)
        # (I): S_p M_chi_u has c at (y, u) for img(y) = u, M_{alpha chi_u} S_p
        # has c at (y, img(y)) for (alpha chi_u)(y) = 1; alpha of the
        # coordinate function gives every alpha chi_u at once.
        pulled = alpha(m, CylinderFunction(k, words, np.zeros_like(words), 1)).num_a
        moved = np.flatnonzero(img != pulled)
        if moved.size:
            u = int(min(img[moved].min(), pulled[moved].min()))
            y = int(np.flatnonzero((img == u) != (pulled == u))[0])
            if img[y] == u:
                record("I", (name,), Word(k + d, y), Word(k, u), c)
            else:
                record("I", (name,), Word(k + d, y), Word(k, int(img[y])), -c)
        # (II): entry (u, x) is [img(u) = x] against the number of times
        # the transfer's fiber of x lists u, both times c^2.
        fiber_words = _preimage_table(m, k)
        found = _count_difference(
            (np.arange(img.size, dtype=np.int64) << k) | img,
            ((fiber_words << k) | words[:, None]).ravel(),
        )
        if found is not None:
            key, net = found
            x = Word(k, key & ((1 << k) - 1))
            record("II", (name,), x, x, QuadScalar.of(Fraction(net, fibers)))
        # (IV) and the matrix-unit algebra for the standard frame.
        frame = standard_frame(m)
        prefix = max(nu.level for nu in frame)
        den = math.lcm(*(nu.den for nu in frame))
        scale = fibers * den * den
        gram, shared = _frame_record(frame, d, prefix, den)
        frames.append((prefix, den, gram))
        rows, cols, ga, gb = _fiber_gram(m, k, prefix, *gram)
        found = _first_entry(rows, cols, k, ga - scale * (rows == cols), gb, scale)
        if found is not None:
            row, col, value = found
            record("IV", (name,), Word(k, row), Word(k, col), value)
        # S_p S_p* M_chi_b S_p S_p* = c^2 S_p S_p* exactly when every fiber
        # holds one word of prefix b; distinct frame members are orthogonal.
        low = m.image_table(k)
        per_prefix = np.bincount(
            (words >> (k - d)) * (1 << (k - d)) + low, minlength=fibers << (k - d)
        ).reshape(fibers, -1)
        for b in range(len(frame)):
            bad = per_prefix[b][low] != 1
            if bad.any():
                y = Word(k, int(np.argmax(bad)))
                value = QuadScalar.of(Fraction(int(per_prefix[b][low[y.bits]]) - 1, fibers))
                record("orthonormal_matrix_units", (name,), y, y, value)
                break
            if shared[b]:
                record("orthonormal_matrix_units", (name,), Word(k, 0), Word(k, 0), c * c)
                break

    # (III) for every unordered pair of distinct generators: entry (x', x)
    # of S_i* S_j counts y with img_i(y) = x' and img_j(y) = x; entry
    # (z, v) of S_j S_i* is 1 when img_j(z) = img_i(v); both times c_i c_j.
    for i in range(sys.rank):
        for j in range(i + 1, sys.rank):
            mi, mj = sys.generators[i], sys.generators[j]
            di, dj = mi.window - 1, mj.window - 1
            zs, vs = _pairs(_fibers(mj, k - di + dj), _fibers(mi, k))
            found = _count_difference(
                (mi.image_table(k + dj) << k) | mj.image_table(k + dj), (zs << k) | vs
            )
            gcd = poly_gcd(mi.linear_poly, mj.linear_poly)
            detail = {
                "pair": [sys.names[i], sys.names[j]],
                "gcd": str(gcd),
                "coprime": gcd == Gf2Poly.one(),
                "holds": found is None,
            }
            if found is not None:
                key, net = found
                value = _inv_root(di) * _inv_root(dj) * QuadScalar.of(net)
                witness = _witness(
                    (sys.names[i], sys.names[j]),
                    Word(k + dj - di, key >> k),
                    Word(k, key & ((1 << k) - 1)),
                    value,
                )
                relations["III"] = False
                witnesses.setdefault("III", witness)
                detail["witness"] = witness
            pair_details.append(detail)

    # Frame independence for products of two generators (including squares):
    # the reconstruction sums of the two frames differ by c^2 times the
    # difference of their Grams on the same-fiber pairs, and not at all
    # when the Grams agree on every pair of prefixes.
    for i in range(sys.rank):
        for j in range(i, sys.rank):
            mi, mj = sys.generators[i], sys.generators[j]
            (pi, den_i, gram_i), (pj, den_j, gram_j) = frames[i], frames[j]
            comp = mi.compose(mj)
            std = standard_frame(comp)
            prefix = max(pi, pj + mi.window - 1, *(nu.level for nu in std))
            den = math.lcm(den_i * den_j, *(nu.den for nu in std))
            (sa, sb), _ = _frame_record(std, comp.window - 1, prefix, den)
            rescale = (den // (den_i * den_j)) ** 2
            ra, rb = (g * rescale for g in _refined_gram(gram_i, mi, gram_j, prefix))
            if np.array_equal(sa, ra) and np.array_equal(sb, rb):
                continue
            rows, cols, da, db = _fiber_gram(comp, k, prefix, sa - ra, sb - rb)
            found = _first_entry(rows, cols, k, da, db, comp.fiber_count * den * den)
            if found is not None:
                row, col, value = found
                record(
                    "frame_independence",
                    (sys.names[i], sys.names[j]),
                    Word(k, row),
                    Word(k, col),
                    value,
                )

    return RelationReport(level, relations, witnesses, tuple(pair_details))


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
