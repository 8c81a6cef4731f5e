"""Polynomial arithmetic over GF(2) and kernels of linear recurrences.

A polynomial is an integer bitmask with the coefficient of t^i stored at
bit i.  Every nonzero polynomial over GF(2) is monic, so gcds need no
normalization.  The kernel of a polynomial a is the set of one-sided
binary sequences annihilated by a applied in the left shift, that is,
solutions of the linear recurrence with coefficient mask a; the kernel of
a degree-d polynomial has exactly 2^d elements, all eventually periodic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .budget import admit_exponent, admit_kernel
from .words import PeriodicSeq


class ZeroPolynomial(ValueError):
    """Raised where a nonzero polynomial is required."""


def _mul(a: int, b: int) -> int:
    result = 0
    while b:
        if b & 1:
            result ^= a
        a <<= 1
        b >>= 1
    return result


def _divmod(a: int, b: int) -> tuple:
    if b == 0:
        raise ZeroPolynomial("division by the zero polynomial")
    db = b.bit_length() - 1
    q = 0
    while a.bit_length() - 1 >= db and a:
        shift = a.bit_length() - 1 - db
        q ^= 1 << shift
        a ^= b << shift
    return q, a


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _divmod(a, b)[1]
    return a


@dataclass(frozen=True, order=True)
class Gf2Poly:
    """A polynomial over GF(2), held as a coefficient bitmask."""

    bits: int

    def __post_init__(self):
        if self.bits < 0:
            raise ValueError("negative coefficient mask")

    @classmethod
    def zero(cls) -> "Gf2Poly":
        return cls(0)

    @classmethod
    def one(cls) -> "Gf2Poly":
        return cls(1)

    @classmethod
    def t(cls) -> "Gf2Poly":
        return cls(2)

    @classmethod
    def parse(cls, text: str) -> "Gf2Poly":
        """Parse forms like "0", "1", "t", "1+t+t^2"."""
        bits = 0
        for term in text.replace(" ", "").split("+"):
            if term == "0":
                continue
            elif term == "1":
                bits ^= 1
            elif term == "t":
                bits ^= 2
            elif term.startswith("t^") and term[2:].isascii() and term[2:].isdigit():
                digits = term[2:].lstrip("0") or "0"
                admit_exponent(digits)
                bits ^= 1 << int(digits)
            else:
                raise ValueError("cannot parse polynomial term %r" % term)
        return cls(bits)

    @property
    def is_zero(self) -> bool:
        return self.bits == 0

    @property
    def degree(self) -> int:
        if self.bits == 0:
            raise ZeroPolynomial("the zero polynomial has no degree")
        return self.bits.bit_length() - 1

    def coeff(self, i: int) -> int:
        return (self.bits >> i) & 1

    def __add__(self, other: "Gf2Poly") -> "Gf2Poly":
        return Gf2Poly(self.bits ^ other.bits)

    def __mul__(self, other: "Gf2Poly") -> "Gf2Poly":
        return Gf2Poly(_mul(self.bits, other.bits))

    def __divmod__(self, other: "Gf2Poly") -> tuple:
        q, r = _divmod(self.bits, other.bits)
        return Gf2Poly(q), Gf2Poly(r)

    def __mod__(self, other: "Gf2Poly") -> "Gf2Poly":
        return divmod(self, other)[1]

    def __floordiv__(self, other: "Gf2Poly") -> "Gf2Poly":
        return divmod(self, other)[0]

    def __pow__(self, e: int) -> "Gf2Poly":
        if e < 0:
            raise ValueError("negative power")
        result = Gf2Poly.one()
        for _ in range(e):
            result = result * self
        return result

    def divides(self, other: "Gf2Poly") -> bool:
        return _divmod(other.bits, self.bits)[1] == 0

    def __str__(self):
        if self.bits == 0:
            return "0"
        terms = []
        for i in range(self.bits.bit_length()):
            if (self.bits >> i) & 1:
                terms.append("1" if i == 0 else "t" if i == 1 else "t^%d" % i)
        return "+".join(terms)


@dataclass(frozen=True)
class Factorization:
    """Irreducible factors of a nonzero polynomial with multiplicities."""

    factors: tuple

    def product(self) -> Gf2Poly:
        result = Gf2Poly.one()
        for p, e in self.factors:
            result = result * p**e
        return result


def poly_gcd(a: Gf2Poly, b: Gf2Poly) -> Gf2Poly:
    """Greatest common divisor; gcd(a, 0) = a and gcd(0, 0) = 0."""
    return Gf2Poly(_gcd(a.bits, b.bits))


def poly_factor(a: Gf2Poly) -> Factorization:
    """Factor a nonzero polynomial into irreducibles, ascending by bitmask."""
    if a.is_zero:
        raise ZeroPolynomial("cannot factor the zero polynomial")
    factors = []
    rest = a.bits
    cand = 2
    while rest.bit_length() - 1 >= 1:
        if cand.bit_length() - 1 > (rest.bit_length() - 1) // 2:
            factors.append((Gf2Poly(rest), 1))
            break
        e = 0
        while _divmod(rest, cand)[1] == 0:
            rest = _divmod(rest, cand)[0]
            e += 1
        if e:
            factors.append((Gf2Poly(cand), e))
        cand += 1
    return Factorization(tuple(factors))


def _kernel_walk(width: int, next_bit) -> list:
    """The sequences of a progressive rule on `width`-bit states, as sorted "pre:per" texts.

    A state holds the last `width` symbols, oldest at the top bit, and
    `next_bit[state]` is the symbol that follows.  The sequence from a
    state is its top bit followed by the sequence from its successor, so
    one pass over the functional graph gives every element: a cycle's
    period is the string of its states' top bits, rotated to each state,
    and a tail state puts its top bit in front of its successor's text.
    States on a cycle are distinct, so the cycle length is the primitive
    period and the distance to the cycle is the minimal preperiod: every
    element is already in normal form.  `PeriodicSeq.sort_key` orders by
    (pre_len, per_len) first; within one such group the texts have equal
    length and the ":" at one place, so string order is the order of
    (pre, per) as integers.
    """
    size = 1 << width
    top = width - 1
    succ = [((state << 1) & (size - 1)) | bit for state, bit in enumerate(next_bit)]
    texts = [None] * size
    walked = [-1] * size  # the last seed whose walk passed a state
    groups = {}  # (pre_len, per_len) -> texts
    for seed in range(size):
        path = []
        state = seed
        while texts[state] is None and walked[state] != seed:
            walked[state] = seed
            path.append(state)
            state = succ[state]
        if texts[state] is None:
            start = path.index(state)
            cycle = path[start:]
            del path[start:]
            ring = "".join(["01"[s >> top] for s in cycle])
            period = len(ring)
            ring += ring
            group = groups.setdefault((0, period), [])
            for i, s in enumerate(cycle):
                texts[s] = text = ":" + ring[i : i + period]
                group.append(text)
        if path:
            after = texts[state]
            colon = after.index(":")
            pre_len, per_len = colon + len(path), len(after) - colon - 1
            tail = "".join(["01"[s >> top] for s in path])
            for i, s in enumerate(path):
                texts[s] = text = tail[i:] + after
                groups.setdefault((pre_len - i, per_len), []).append(text)
    return [text for key in sorted(groups) for text in sorted(groups[key])]


def _sequences(texts) -> list:
    """The walk's texts as `PeriodicSeq`s; the constructor checks that each is in normal form."""
    pairs = (text.split(":") for text in texts)
    return [PeriodicSeq(len(pre), int(pre or "0", 2), len(per), int(per, 2)) for pre, per in pairs]


def recurrence_kernel_texts(a: Gf2Poly) -> list:
    """`recurrence_kernel` as its sorted "pre:per" texts, with no sequence objects.

    The kernel of a degree-d polynomial is parametrized by the first d
    symbols, and x_{k+d} is the parity of the d symbols before it under
    the low coefficients of a, so the kernel is one walk over the 2^d
    states of that rule.
    """
    if a.is_zero:
        raise ZeroPolynomial("the zero polynomial has full kernel")
    d = a.degree
    if d == 0:
        return [":0"]
    admit_kernel(d)
    # State bit d-1-j holds x_{k+j}, so the taps are the low bits reversed.
    taps = int(format(a.bits & ((1 << d) - 1), "0%db" % d)[::-1], 2)
    return _kernel_walk(d, [(state & taps).bit_count() & 1 for state in range(1 << d)])


def recurrence_kernel(a: Gf2Poly) -> list:
    """All sequences annihilated by a(shift), sorted deterministically."""
    return _sequences(recurrence_kernel_texts(a))
