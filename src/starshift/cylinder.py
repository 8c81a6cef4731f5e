"""Locally constant functions on sequence space and the averaging operators.

A level-k cylinder function is determined by its values on the 2^k words
of length k.  Values live in the ring of numbers a + b*sqrt2 with a, b
rational, which is closed under the square roots of the fiber counts
2^(n-1).  Internally a function stores two integer numerator arrays and
one common denominator, so all operator identities are checked exactly.

The composition operator alpha pulls a function back along a window map;
the transfer operator averages over the fibers of a progressive map; a
Parseval frame is a finite family v_i with sum v_i E(v_i f) = f for all f,
where E = alpha after transfer is the conditional expectation.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from ._lazy import np
from .dictionary import NotProgressive, WindowMap, _zero_completions
from .words import Word


class NotAFrame(ValueError):
    """The family fails the Parseval frame conditions for its map."""


class NumeratorOverflow(ValueError, OverflowError):
    """Exact numerators grew too large for the int64 arithmetic."""


_SQRT2 = "√2"


@dataclass(frozen=True)
class QuadScalar:
    """An exact scalar a + b*sqrt2 with rational a, b."""

    a: Fraction = Fraction(0)
    b: Fraction = Fraction(0)

    @classmethod
    def of(cls, a, b=0) -> "QuadScalar":
        return cls(Fraction(a), Fraction(b))

    @classmethod
    def over(cls, a, b, den: int) -> "QuadScalar":
        """(a + b*sqrt2) / den from integer numerators."""
        return cls(Fraction(int(a), den), Fraction(int(b), den))

    @classmethod
    def root2_power(cls, k: int) -> "QuadScalar":
        """sqrt(2)^k for k >= 0."""
        if k < 0:
            raise ValueError("negative root power")
        if k % 2 == 0:
            return cls.of(1 << (k // 2))
        return cls.of(0, 1 << ((k - 1) // 2))

    @classmethod
    def parse(cls, text: str) -> "QuadScalar":
        """Parse forms like "0", "-1/2", "√2", "1/2+3√2", "1-1/2√2"."""
        text = text.replace(" ", "").replace("sqrt2", _SQRT2)
        if not text:
            raise ValueError("empty scalar")
        if not text.endswith(_SQRT2):
            return cls(Fraction(text), Fraction(0))
        head = text[: -len(_SQRT2)]
        # The rational part, if any, ends at the last sign that starts a term.
        split = next(
            (i for i in range(len(head) - 1, 0, -1) if head[i] in "+-" and head[i - 1] not in "+-/"),
            None,
        )
        a_text, b_text = ("", head) if split is None else (head[:split], head[split:])
        if b_text in ("", "+"):
            b_text = "1"
        elif b_text == "-":
            b_text = "-1"
        return cls(Fraction(a_text) if a_text else Fraction(0), Fraction(b_text))

    @property
    def is_zero(self) -> bool:
        return not self.a and not self.b

    def __add__(self, other: "QuadScalar") -> "QuadScalar":
        return QuadScalar(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "QuadScalar") -> "QuadScalar":
        return QuadScalar(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "QuadScalar":
        return QuadScalar(-self.a, -self.b)

    def __mul__(self, other: "QuadScalar") -> "QuadScalar":
        return QuadScalar(*_times(self.a, self.b, other.a, other.b))

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        if self.a:
            parts.append(str(self.a))
        if self.b:
            coeff = "" if self.b == 1 else "-" if self.b == -1 else str(self.b)
            if parts and self.b > 0:
                parts.append("+")
            parts.append(coeff + _SQRT2)
        return "".join(parts)


def _times(a1, b1, a2, b2, mul=operator.mul):
    """The numerators of (a1 + b1*sqrt2)(a2 + b2*sqrt2), with `mul` as the product."""
    return mul(a1, a2) + 2 * mul(b1, b2), mul(a1, b2) + mul(b1, a2)


def _as_int64(values) -> np.ndarray:
    if isinstance(values, np.ndarray) and values.dtype == np.int64 and not values.flags.writeable:
        return values
    arr = np.asarray(values, dtype=np.int64)
    arr.setflags(write=False)
    return arr


class _Numerators:
    """Exact values (num_a + num_b*sqrt2) / den: two int64 arrays over one positive den.

    Shared by cylinder functions and level operators.  `_freeze` stores the
    reduced, read-only form; `_guard` keeps numerators below 2^_BITS, far
    from the int64 edge, before a product or sum forms.
    """

    _BITS = 30
    _KIND = "cylinder"

    def _freeze(self):
        a, b, den = self.num_a, self.num_b, self.den
        # No gcd divides a denominator of 1, so its numerators are already reduced.
        if den != 1:
            if den <= 0:
                raise ValueError("denominator must be positive")
            g = math.gcd(int(np.gcd.reduce(np.abs(a), axis=None, initial=0)), den)
            g = math.gcd(int(np.gcd.reduce(np.abs(b), axis=None, initial=0)), g)
            if g > 1:
                a, b, den = a // g, b // g, den // g
        object.__setattr__(self, "num_a", _as_int64(a))
        object.__setattr__(self, "num_b", _as_int64(b))
        object.__setattr__(self, "den", den)

    def _guard(self, *arrays):
        for arr in (self.num_a, self.num_b, *arrays):
            if arr.size and int(np.max(np.abs(arr))) >= 1 << self._BITS:
                raise NumeratorOverflow("%s numerators grew unexpectedly large" % self._KIND)

    def _sum(self, other) -> tuple:
        """The numerators and denominator of self + other, over den * other.den."""
        self._guard(other.num_a, other.num_b)
        return (
            self.num_a * other.den + other.num_a * self.den,
            self.num_b * other.den + other.num_b * self.den,
            self.den * other.den,
        )

    def _product(self, a, b, den: int, mul=operator.mul) -> tuple:
        """The numerators and denominator of self times (a + b*sqrt2) / den."""
        self._guard(a, b)
        return (*_times(self.num_a, self.num_b, a, b, mul), self.den * den)

    @property
    def is_zero(self) -> bool:
        return not self.num_a.any() and not self.num_b.any()

    def _same(self, other) -> bool:
        return (
            self.den == other.den
            and np.array_equal(self.num_a, other.num_a)
            and np.array_equal(self.num_b, other.num_b)
        )


@dataclass(frozen=True, eq=False)
class CylinderFunction(_Numerators):
    """A level-k cylinder function with exact a + b*sqrt2 values."""

    level: int
    num_a: np.ndarray
    num_b: np.ndarray
    den: int

    def __post_init__(self):
        if self.level < 0:
            raise ValueError("negative level")
        size = 1 << self.level
        if self.num_a.shape != (size,) or self.num_b.shape != (size,):
            raise ValueError("value arrays must have length 2^level")
        self._freeze()

    @classmethod
    def from_values(cls, level: int, values) -> "CylinderFunction":
        values = [v if isinstance(v, QuadScalar) else QuadScalar.of(v) for v in values]
        den = math.lcm(*(1,), *(v.a.denominator for v in values), *(v.b.denominator for v in values))
        a = [int(v.a * den) for v in values]
        b = [int(v.b * den) for v in values]
        return cls(level, _as_int64(a), _as_int64(b), den)

    @classmethod
    def constant(cls, level: int, value) -> "CylinderFunction":
        return cls.from_values(level, [value] * (1 << level))

    @classmethod
    def one(cls, level: int = 0) -> "CylinderFunction":
        return cls.constant(level, 1)

    @classmethod
    def zero(cls, level: int = 0) -> "CylinderFunction":
        return cls.constant(level, 0)

    @classmethod
    def indicator(cls, w: Word) -> "CylinderFunction":
        a = np.zeros(1 << w.length, dtype=np.int64)
        a[w.bits] = 1
        return cls(w.length, _as_int64(a), _as_int64(np.zeros_like(a)), 1)

    def value_at(self, w: Word) -> QuadScalar:
        if w.length < self.level:
            raise ValueError("word shorter than the function level")
        v = w.prefix(self.level).bits
        return QuadScalar.over(self.num_a[v], self.num_b[v], self.den)

    @property
    def values(self) -> tuple:
        return tuple(QuadScalar.over(a, b, self.den) for a, b in zip(self.num_a, self.num_b))

    def embed(self, level: int) -> "CylinderFunction":
        """The same function seen at a finer level."""
        if level < self.level:
            raise ValueError("cannot embed into a coarser level")
        if level == self.level:
            return self
        idx = np.arange(1 << level, dtype=np.int64) >> (level - self.level)
        return CylinderFunction(level, self.num_a[idx], self.num_b[idx], self.den)

    def _aligned(self, other: "CylinderFunction"):
        level = max(self.level, other.level)
        return self.embed(level), other.embed(level)

    def __add__(self, other: "CylinderFunction") -> "CylinderFunction":
        f, g = self._aligned(other)
        return CylinderFunction(f.level, *f._sum(g))

    def __sub__(self, other: "CylinderFunction") -> "CylinderFunction":
        return self + (-other)

    def __neg__(self) -> "CylinderFunction":
        return CylinderFunction(self.level, -self.num_a, -self.num_b, self.den)

    def __mul__(self, other: "CylinderFunction") -> "CylinderFunction":
        f, g = self._aligned(other)
        return CylinderFunction(f.level, *f._product(g.num_a, g.num_b, g.den))

    def scale(self, s: QuadScalar) -> "CylinderFunction":
        return self * CylinderFunction.from_values(0, [s])

    def __eq__(self, other) -> bool:
        if not isinstance(other, CylinderFunction):
            return NotImplemented
        f, g = self._aligned(other)
        return f._same(g)

    def serialize(self) -> dict:
        return {"level": self.level, "values": [str(v) for v in self.values]}

    @classmethod
    def deserialize(cls, data: dict) -> "CylinderFunction":
        return cls.from_values(
            data["level"], [QuadScalar.parse(v) for v in data["values"]]
        )


def basis(level: int) -> list:
    """All indicator functions of level-k cylinders, ascending."""
    return [CylinderFunction.indicator(Word(level, v)) for v in range(1 << level)]


def alpha(m: WindowMap, f: CylinderFunction) -> CylinderFunction:
    """Composition with the map: (alpha f)(x) = f(m(x))."""
    level = f.level + m.window - 1
    idx = m.image_table(level)
    return CylinderFunction(level, f.num_a[idx], f.num_b[idx], f.den)


def _preimage_walk(m: WindowMap, out_level: int) -> np.ndarray:
    """`_preimage_table` by the rule: column p starts in state p, and all
    columns advance together, one target bit at a time.  A table of words
    of out + n - 1 bits has 2^(out + n - 1) entries, so int32 holds any
    table that fits.
    """
    mask = (1 << (m.window - 1)) - 1
    flip = np.frombuffer(_zero_completions(m), np.uint8)
    targets = np.arange(1 << out_level, dtype=np.int32)[:, None]
    y = np.tile(np.arange(mask + 1, dtype=np.int32), (targets.size, 1))
    for j in range(out_level - 1, -1, -1):
        bit = flip[y & mask] ^ (targets >> j) & 1
        y <<= 1
        y |= bit
    return y.astype(np.int64)


def _steer(flip: list, mask: int, y: int, targets) -> int:
    """Extend word y, one rule completion per target bit, so its image reads `targets`."""
    for bit in targets:
        y = (y << 1) | (flip[y & mask] ^ bit)
    return y


def _preimage_table(m: WindowMap, out_level: int) -> np.ndarray:
    """Encodings of the fiber of each level word, shape (2^out, fibers).

    Column p is the preimage that starts in state p, so each row ascends.
    A linear map's fiber of x is the coset y0(x) xor K: K lists the 2^d
    kernel words, one per start state, and y0(x), the preimage that starts
    in state 0, is the xor of one truncated impulse response per set bit
    of x.  Both tables take out + d array doublings in all, and their
    generators are single rule walks: they read the rule's completions,
    not the image table, so a tampered image table still shows.  Nonlinear
    maps take `_preimage_walk`.
    """
    if m.linear_poly is None:
        return _preimage_walk(m, out_level)
    d = m.window - 1
    mask = (1 << d) - 1
    flip = _zero_completions(m)
    impulse = _steer(flip, mask, 0, [1] + [0] * (out_level - 1))
    y0 = np.zeros(1 << out_level, dtype=np.int64)
    for j in range(out_level):
        y0[1 << j : 2 << j] = y0[: 1 << j] ^ (impulse >> (out_level - 1 - j))
    kernel = np.zeros(1 << d, dtype=np.int64)
    for i in range(d):
        kernel[1 << i : 2 << i] = kernel[: 1 << i] ^ _steer(flip, mask, 1 << i, [0] * out_level)
    return y0[:, None] ^ kernel


def transfer(m: WindowMap, f: CylinderFunction) -> CylinderFunction:
    """Fiber average: (L f)(x) = mean of f over the m-preimages of x."""
    if not m.is_progressive:
        raise NotProgressive("transfer needs a progressive rule")
    k = f.level
    out_level = max(k - m.window + 1, 0)
    depth = out_level + m.window - 1
    table = _preimage_table(m, out_level) >> (depth - k)
    f._guard()
    a = f.num_a[table].sum(axis=1)
    b = f.num_b[table].sum(axis=1)
    return CylinderFunction(out_level, a, b, f.den * m.fiber_count)


def expectation(m: WindowMap, f: CylinderFunction) -> CylinderFunction:
    """The conditional expectation alpha after transfer."""
    return alpha(m, transfer(m, f))


def inner_product(m: WindowMap, f: CylinderFunction, g: CylinderFunction) -> CylinderFunction:
    """The module inner product <f, g> = L(f g); conjugation is trivial here."""
    return transfer(m, f * g)


# One entry per degree 0-10: every generator degree `budget.admit_frame` admits, and its square.
@functools.lru_cache(maxsize=11)
def _standard_members(d: int) -> tuple:
    """The degree-d standard frame members, built once.

    Member w is sqrt(2^d) times the indicator of w.  Its numerators are
    row w of one (2, 2^d, 2^d) block that lives in an immutable bytes
    buffer, so neither a member's arrays nor the block can be made writeable.
    Their Gram, two read-only (2^d, 2^d) int64 numerator arrays, and their
    2^d shared-support flags are built once too, in `_standard_record`.
    """
    root = QuadScalar.root2_power(d)
    num = np.multiply.outer([int(root.a), int(root.b)], np.eye(1 << d, dtype=np.int64))
    block = np.frombuffer(num.tobytes(), dtype=np.int64).reshape(num.shape)
    return tuple(CylinderFunction(d, a, b, 1) for a, b in zip(block[0], block[1]))


def standard_frame(m: WindowMap) -> list:
    """The frame sqrt(fibers) * indicator(w) over words of length n-1.

    A fresh list of the immutable members every map of the same degree
    shares; `_frame_record` reads their Gram from the degree's record.
    """
    if not m.is_progressive:
        raise NotProgressive("frames exist for progressive rules")
    return list(_standard_members(m.window - 1))


def _fibers(m: WindowMap, level: int) -> np.ndarray:
    """The level words by image: row x lists the words that m sends to x, ascending.

    Read off the image table, so every image word must have exactly
    m.fiber_count preimages, as it does for every progressive map.
    """
    return np.argsort(m.image_table(level), kind="stable").reshape(-1, m.fiber_count)


def _pairs(left: np.ndarray, right: np.ndarray):
    """Every (left[x, a], right[x, b]) over the rows x, grouped by row."""
    return np.repeat(left, right.shape[1], axis=1).ravel(), np.tile(right, left.shape[1]).ravel()


def _frame_stack(frame, level: int, den: int) -> np.ndarray:
    """The members' numerators over `den` at `level`, shape (2, members, 2^level).

    Row nu of the first plane holds the rational numerators of member nu,
    of the second its sqrt2 numerators, as float64 (exact while they stay
    below 2^53).  The frame is stacked once at its members' common level
    and then lifted to `level` by one column gather.
    """
    common = max(nu.level for nu in frame)
    if level < common:
        raise ValueError("cannot embed into a coarser level")
    if any(nu.level != common for nu in frame):
        frame = [nu.embed(common) for nu in frame]
    num = np.array([[nu.num_a for nu in frame], [nu.num_b for nu in frame]], dtype=np.float64)
    dens = [nu.den for nu in frame]
    if any(e != den for e in dens):
        num *= np.array([den // e for e in dens], dtype=np.float64)[:, None]
    if level > common:
        num = num[:, :, np.arange(1 << level, dtype=np.int64) >> (level - common)]
    return num


def _stack_gram(num: np.ndarray):
    """The Gram numerators of a `_frame_stack`: sum over its rows nu of nu(p) nu(p')."""
    a, b = num
    top = int(max(num.max(initial=0), -num.min(initial=0)))
    if 3 * a.shape[0] * top * top >= 1 << 53:
        raise NumeratorOverflow("frame numerators grew unexpectedly large")
    # Standard frames have all-integer or all-sqrt2 members: one plane is zero, one product will do.
    if not (a.any() and b.any()):
        square = a.T @ a if a.any() else 2 * (b.T @ b)
        return square.astype(np.int64), np.zeros(square.shape, dtype=np.int64)
    ab = a.T @ b
    return (a.T @ a + 2 * (b.T @ b)).astype(np.int64), (ab + ab.T).astype(np.int64)


def _frame_gram(frame, level: int, den: int):
    """The Gram sum_nu nu(p) nu(p') over level words p, p', exactly.

    `den` is a common multiple of the member denominators; the result is
    the (2^level x 2^level) numerators a, b of (a + b*sqrt2) / den^2.  The
    products run in float64 BLAS.  Every entry of the result, and every
    partial sum on the way, is an integer of size at most 3 * members * top^2
    for the largest numerator top, so the guard below 2^53 keeps them exact.
    """
    return _stack_gram(_frame_stack(frame, level, den))


def _stack_record(num: np.ndarray):
    """A `_frame_stack`'s Gram and, per member, whether another member shares a support word."""
    support = (num[0] != 0) | (num[1] != 0)
    return _stack_gram(num), (support & (support.sum(axis=0) > 1)).any(axis=1)


# One entry per degree `_standard_members` keeps.
@functools.lru_cache(maxsize=11)
def _standard_record(d: int) -> tuple:
    """`_stack_record` of the degree-d standard members at level d over 1, built once, read-only."""
    (ga, gb), shared = _stack_record(_frame_stack(_standard_members(d), d, 1))
    for arr in (ga, gb, shared):
        arr.setflags(write=False)
    return (ga, gb), shared


def _frame_record(frame, d: int, level: int, den: int) -> tuple:
    """The Gram (a, b) of `frame` at `level` over `den`, and its shared-support flags.

    The degree-d standard members, read at their own level and denominator,
    give the degree's record; any other frame is stacked on every call.
    """
    if (level, den, len(frame)) == (d, 1, 1 << d) and all(
        map(operator.is_, frame, _standard_members(d))
    ):
        return _standard_record(d)
    return _stack_record(_frame_stack(frame, level, den))


def _refined_gram(gram1, m1: WindowMap, gram2, prefix: int):
    """The Gram of `refine_frame`'s product frame at `prefix`, from the factor Grams.

    Summed over nu1, nu2, (nu1 alpha(m1, nu2))(y) (nu1 alpha(m1, nu2))(y')
    is G1(y, y') G2(m1 y, m1 y').  The Grams are numerator pairs (a, b) over
    den1^2 and den2^2, as `_frame_gram` gives them; the result is over (den1 den2)^2.
    """
    top = [int(max(np.abs(a).max(), np.abs(b).max())) for a, b in (gram1, gram2)]
    if 3 * top[0] * top[1] >= 1 << 62:
        raise NumeratorOverflow("frame numerators grew unexpectedly large")
    words = np.arange(1 << prefix, dtype=np.int64)
    lifted = words >> (prefix - gram1[0].shape[0].bit_length() + 1)
    level2 = gram2[0].shape[0].bit_length() - 1 + m1.window - 1
    pulled = m1.image_table(level2)[words >> (prefix - level2)]
    a1, b1 = (g[lifted[:, None], lifted] for g in gram1)
    a2, b2 = (g[pulled[:, None], pulled] for g in gram2)
    # The gathered blocks are copies: reuse them, so fewer full-size products are alive at once.
    ra = b1 * b2
    ra *= 2
    ra += a1 * a2
    a1 *= b2
    b1 *= a2
    a1 += b1
    return ra, a1


def _fiber_gram(fibers: np.ndarray, prefix: int, ga: np.ndarray, gb: np.ndarray):
    """A prefix Gram read on the same-fiber pairs of a fiber table.

    `fibers` is `_fibers(m, level)`.  Returns the pairs (rows, cols) of
    level words y, y' with m(y) = m(y'), 2^level * fibers of them for a
    progressive map, and the entries of the Gram (ga, gb over words of
    length `prefix`) at their prefixes.  With the Gram of a frame this is
    the entry pattern of sum_nu M_nu S S* M_nu, so it decides Parseval
    reconstruction, relation (IV) and frame independence.
    """
    rows, cols = _pairs(fibers, fibers)
    shift = fibers.size.bit_length() - 1 - prefix
    return rows, cols, ga[rows >> shift, cols >> shift], gb[rows >> shift, cols >> shift]


def verify_frame(frame, m: WindowMap) -> None:
    """Raise NotAFrame unless the family is a Parseval frame for m.

    Checks that the normalized squares form a partition of unity, that the
    map is injective on each support (no two support words with distinct
    length-(n-1) prefixes share an image word), and that reconstruction
    holds on the full cylinder basis one window beyond the frame level.
    Both the squares and reconstruction are read off the frame Gram
    sum_nu nu(y) nu(y'): the squares are its diagonal, and reconstruction
    of the indicator of u is sum_nu nu E(nu chi_u), whose value at y is the
    Gram entry at (y, u) over the fiber count when y and u share an image,
    so it holds exactly when that scaled Gram is the identity on the
    same-fiber pairs.
    """
    if not frame:
        raise NotAFrame("empty family")
    n = m.window
    prefix = max(nu.level for nu in frame)
    den = math.lcm(*(nu.den for nu in frame))
    ga, gb = _frame_gram(frame, prefix, den)
    scale = m.fiber_count * den * den
    if (np.diagonal(ga) != scale).any() or np.diagonal(gb).any():
        raise NotAFrame("normalized squares do not sum to one")
    for nu in frame:
        lifted = nu.embed(max(nu.level, n - 1))
        support = np.flatnonzero(lifted.num_a | lifted.num_b)
        images = m.image_table(lifted.level)[support]
        if np.unique(images).size != support.size:
            raise NotAFrame("map is not injective on a frame support")
    if not m.is_progressive:
        raise NotProgressive("transfer needs a progressive rule")
    check_level = prefix + n - 1
    rows, cols, ga, gb = _fiber_gram(_fibers(m, check_level), prefix, ga, gb)
    if (ga != scale * (rows == cols)).any() or gb.any():
        raise NotAFrame("reconstruction fails on the level-%d basis" % check_level)


def refine_frame(frame1, m1: WindowMap, frame2, m2: WindowMap) -> list:
    """Frame for m1 after m2 built from frames of the two factors."""
    verify_frame(frame1, m1)
    verify_frame(frame2, m2)
    return [nu1 * alpha(m1, nu2) for nu1 in frame1 for nu2 in frame2]
