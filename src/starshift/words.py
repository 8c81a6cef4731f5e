"""Finite binary words and eventually periodic one-sided binary sequences.

Words are encoded as (length, bits) with position 1 leftmost and stored at
the most significant bit, so lexicographic order on words of equal length
coincides with numeric order on the encodings.  Eventually periodic
sequences are kept in a normal form (primitive period, minimal preperiod)
so that structural equality coincides with equality as sequences.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass


def _check_bits(text: str) -> None:
    if text.count("0") + text.count("1") != len(text):
        raise ValueError("word must consist of 0s and 1s: %r" % text)


def _bit_text(length: int, bits: int) -> str:
    return format(bits, "0%db" % length) if length else ""


@dataclass(frozen=True, order=True)
class Word:
    """A binary word; length 0 is the empty word."""

    length: int
    bits: int

    def __post_init__(self):
        if self.length < 0:
            raise ValueError("negative word length")
        if self.bits < 0 or self.bits >> self.length:
            raise ValueError("bits out of range for length %d" % self.length)

    @classmethod
    def from_str(cls, text: str) -> "Word":
        """Parse a word from a string of 0s and 1s such as "1101"."""
        _check_bits(text)
        return cls(len(text), int(text, 2) if text else 0)

    @classmethod
    def from_bits(cls, bits) -> "Word":
        value = 0
        n = 0
        for b in bits:
            value = (value << 1) | (b & 1)
            n += 1
        return cls(n, value)

    def bit(self, i: int) -> int:
        """Symbol at position i, 1-based from the left."""
        if not 1 <= i <= self.length:
            raise IndexError("position %d out of range" % i)
        return (self.bits >> (self.length - i)) & 1

    def to_bits(self) -> tuple:
        return tuple(self.bit(i) for i in range(1, self.length + 1))

    def prefix(self, k: int) -> "Word":
        if not 0 <= k <= self.length:
            raise ValueError("prefix length out of range")
        return Word(k, self.bits >> (self.length - k))

    def suffix(self, k: int) -> "Word":
        if not 0 <= k <= self.length:
            raise ValueError("suffix length out of range")
        return Word(k, self.bits & ((1 << k) - 1))

    def concat(self, other: "Word") -> "Word":
        return Word(self.length + other.length, (self.bits << other.length) | other.bits)

    def __xor__(self, other: "Word") -> "Word":
        if self.length != other.length:
            raise ValueError("xor of words of different lengths")
        return Word(self.length, self.bits ^ other.bits)

    def __str__(self):
        return _bit_text(self.length, self.bits)


def _tile(bits: int, width: int, total: int) -> int:
    """First `total` bits of the periodic stream repeating `bits` (width bits)."""
    if width <= 0:
        raise ValueError("period width must be positive")
    reps = -(-total // width)
    # The repunit (2^(reps*width) - 1) / (2^width - 1) has a 1 every width bits.
    value = bits * (((1 << (reps * width)) - 1) // ((1 << width) - 1))
    return value >> (reps * width - total)


@functools.cache
def _prime_factors(n: int) -> tuple:
    """The distinct primes dividing n, ascending, by trial division."""
    primes, q = [], 2
    while q * q <= n:
        if n % q == 0:
            primes.append(q)
            while n % q == 0:
                n //= q
        q += 1
    return tuple(primes + [n] * (n > 1))


def _normalize(pre_len, pre_bits, per_len, per_bits):
    # Reduce the period to its primitive root.  The rotations fixing the
    # period are the multiples of the least one, the root's length, so
    # dividing out each prime of per_len while the rotation fixes it ends there.
    ring, root = (1 << per_len) - 1, per_len
    for q in _prime_factors(per_len):
        while root % q == 0:
            r = root // q
            if ((per_bits << r) | (per_bits >> (per_len - r))) & ring != per_bits:
                break
            root = r
    per_len, per_bits = root, per_bits >> (per_len - root)
    # Absorb preperiod symbols that already agree with the periodic tail.
    while pre_len > 0 and (pre_bits & 1) == (per_bits & 1):
        per_bits = ((per_bits & 1) << (per_len - 1)) | (per_bits >> 1)
        pre_bits >>= 1
        pre_len -= 1
    return pre_len, pre_bits, per_len, per_bits


@dataclass(frozen=True)
class PeriodicSeq:
    """An eventually periodic sequence x_1 x_2 ... in normal form."""

    pre_len: int
    pre_bits: int
    per_len: int
    per_bits: int

    def __post_init__(self):
        if self.per_len < 1:
            raise ValueError("period must be nonempty")
        if min(self.pre_len, self.pre_bits, self.per_bits) < 0 or (
            self.pre_bits >> self.pre_len or self.per_bits >> self.per_len
        ):
            raise ValueError("sequence bits out of range")
        parts = (self.pre_len, self.pre_bits, self.per_len, self.per_bits)
        if _normalize(*parts) != parts:
            raise ValueError("sequence not in normal form; use from_parts")

    @classmethod
    def from_parts(cls, preperiod: Word, period: Word) -> "PeriodicSeq":
        if period.length < 1:
            raise ValueError("period must be nonempty")
        # _normalize of in-range parts is a normal form, so __post_init__'s
        # second _normalize would only repeat it; set the fields directly.
        seq = object.__new__(cls)
        parts = _normalize(preperiod.length, preperiod.bits, period.length, period.bits)
        for name, value in zip(("pre_len", "pre_bits", "per_len", "per_bits"), parts):
            object.__setattr__(seq, name, value)
        return seq

    @classmethod
    def parse(cls, text: str) -> "PeriodicSeq":
        """Parse the "preperiod:period" form, e.g. "1:0" or ":01"."""
        if text.count(":") != 1:
            raise ValueError("sequence text must contain exactly one ':'")
        pre, per = text.split(":")
        return cls.from_parts(Word.from_str(pre), Word.from_str(per))

    @classmethod
    def zero(cls) -> "PeriodicSeq":
        return cls(0, 0, 1, 0)

    @property
    def preperiod(self) -> Word:
        return Word(self.pre_len, self.pre_bits)

    @property
    def period(self) -> Word:
        return Word(self.per_len, self.per_bits)

    @property
    def is_zero(self) -> bool:
        return self.pre_len == 0 and self.per_len == 1 and self.per_bits == 0

    def coord(self, i: int) -> int:
        """Symbol x_i, 1-based."""
        if i < 1:
            raise IndexError("coordinates start at 1")
        if i <= self.pre_len:
            return (self.pre_bits >> (self.pre_len - i)) & 1
        j = (i - self.pre_len - 1) % self.per_len
        return (self.per_bits >> (self.per_len - 1 - j)) & 1

    def prefix(self, k: int) -> Word:
        """The word x_1 ... x_k."""
        if k <= self.pre_len:
            return self.preperiod.prefix(k)
        tail = _tile(self.per_bits, self.per_len, k - self.pre_len)
        return Word(k, (self.pre_bits << (k - self.pre_len)) | tail)

    def __add__(self, other: "PeriodicSeq") -> "PeriodicSeq":
        from math import lcm

        m = max(self.pre_len, other.pre_len)
        l = lcm(self.per_len, other.per_len)
        a = self.prefix(m + l).bits ^ other.prefix(m + l).bits
        return PeriodicSeq.from_parts(Word(m, a >> l), Word(l, a & ((1 << l) - 1)))

    def sort_key(self):
        return (self.pre_len, self.per_len, self.pre_bits, self.per_bits)

    def __str__(self):
        return "%s:%s" % (_bit_text(self.pre_len, self.pre_bits), _bit_text(self.per_len, self.per_bits))
