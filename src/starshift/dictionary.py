"""Sliding-window dictionaries and the block maps they induce.

A dictionary D of window n is a set of length-n words; the induced map
sends a one-sided sequence x to the sequence whose k-th symbol is the
indicator of x_k ... x_{k+n-1} belonging to D.  A dictionary is
progressive when every length-(n-1) word has exactly one completion in D,
and admissible when additionally x + y = z in D forces x in D or y in D;
admissible dictionaries are exactly complements of index-2 subgroups, so
their indicator is linear and is described by a polynomial over GF(2).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .gf2poly import Gf2Poly, _kernel_walk
from .words import PeriodicSeq, Word


class WordTooShort(ValueError):
    """Input word shorter than the window requires."""


class NotProgressive(ValueError):
    """Operation requires a progressive dictionary or rule."""


class WindowTooLarge(ValueError):
    """Enumeration requested beyond the configured window limit."""


DEFAULT_WINDOW_LIMIT = 5


@dataclass(frozen=True)
class Dictionary:
    """A set of binary words of one fixed window length."""

    window: int
    members: int

    def __post_init__(self):
        if self.window < 2:
            raise ValueError("dictionary window must be at least 2")
        if self.members < 0 or self.members >> (1 << self.window):
            raise ValueError("member mask out of range")

    @classmethod
    def from_words(cls, words) -> "Dictionary":
        words = list(words)
        if not words:
            raise ValueError("dictionary needs at least one word")
        n = words[0].length
        if any(w.length != n for w in words):
            raise ValueError("dictionary words must share one length")
        mask = 0
        for w in words:
            mask |= 1 << w.bits
        return cls(n, mask)

    @classmethod
    def from_text(cls, text: str) -> "Dictionary":
        """Parse the comma-separated form, e.g. "001,100,011,110"."""
        return cls.from_words(Word.from_str(part) for part in text.split(","))

    def __contains__(self, w: Word) -> bool:
        return w.length == self.window and bool((self.members >> w.bits) & 1)

    def words(self) -> list:
        return [Word(self.window, v) for v in range(1 << self.window) if (self.members >> v) & 1]

    def to_window_map(self) -> "WindowMap":
        return WindowMap(self.window, self.members, _linear_poly(self.window, self.members))

    def __str__(self):
        return ",".join(str(w) for w in self.words())


def _linear_poly(window: int, rule: int) -> Gf2Poly | None:
    """The polynomial of a linear rule, or None if the rule is not linear."""
    if rule & 1:
        return None
    coeffs = 0
    for i in range(window):
        if (rule >> (1 << (window - 1 - i))) & 1:
            coeffs |= 1 << i
    for v in range(1 << window):
        parity = 0
        for i in range(window):
            if (coeffs >> i) & 1:
                parity ^= (v >> (window - 1 - i)) & 1
        if parity != (rule >> v) & 1:
            return None
    return Gf2Poly(coeffs)


@dataclass(frozen=True)
class WindowMap:
    """A sliding-window map given by its window and local rule truth table."""

    window: int
    rule: int
    linear_poly: Gf2Poly | None = None

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("window must be at least 1")
        if self.rule < 0 or self.rule >> (1 << self.window):
            raise ValueError("rule table out of range")
        if self.linear_poly is not None:
            p = _linear_poly(self.window, self.rule)
            if p != self.linear_poly:
                raise ValueError("declared polynomial does not match the rule")

    @classmethod
    def shift(cls) -> "WindowMap":
        return cls.from_poly(Gf2Poly.t())

    @classmethod
    def from_poly(cls, poly: Gf2Poly, window: int | None = None) -> "WindowMap":
        """The linear map x -> poly(shift) x with minimal window by default."""
        n = window if window is not None else (1 if poly.is_zero else poly.degree + 1)
        if not poly.is_zero and poly.degree > n - 1:
            raise ValueError("window too small for the polynomial")
        rule = 0
        for v in range(1 << n):
            parity = 0
            for i in range(n):
                if poly.coeff(i):
                    parity ^= (v >> (n - 1 - i)) & 1
            rule |= parity << v
        return cls(n, rule, poly)

    @classmethod
    def from_dictionary(cls, d: Dictionary) -> "WindowMap":
        return d.to_window_map()

    def rule_bit(self, value: int) -> int:
        return (self.rule >> value) & 1

    @property
    def is_progressive(self) -> bool:
        """Every (n-1)-prefix has exactly one completion with rule value 1."""
        for a in range(1 << (self.window - 1)):
            if self.rule_bit(a << 1) == self.rule_bit((a << 1) | 1):
                return False
        return True

    @property
    def fiber_count(self) -> int:
        return 1 << (self.window - 1)

    def completion(self, prefix: int, target: int) -> int:
        """The unique last bit steering a progressive rule to `target`."""
        b = self.rule_bit((prefix << 1) | 1) == (target & 1)
        return int(b)

    def apply(self, w: Word) -> Word:
        return apply_window_map(self, w)

    def apply_seq(self, s: PeriodicSeq) -> PeriodicSeq:
        """Image of an eventually periodic sequence; exact via periodicity."""
        m, l, n = s.pre_len, s.per_len, self.window
        src = s.prefix(m + l + n - 1)
        out = apply_window_map(self, src)
        return PeriodicSeq.from_parts(out.prefix(m), Word(l, out.bits & ((1 << l) - 1)))

    def compose(self, other: "WindowMap") -> "WindowMap":
        """The map self after other, with the combined window."""
        n = self.window + other.window - 1
        inner = _image_table(other, n)
        rule = 0
        for v in range(1 << n):
            rule |= self.rule_bit(int(inner[v])) << v
        poly = None
        if self.linear_poly is not None and other.linear_poly is not None:
            poly = self.linear_poly * other.linear_poly
        return WindowMap(n, rule, poly)

    def image_table(self, length: int) -> np.ndarray:
        """Integer encodings of images of all words of the given length."""
        return _image_table(self, length)


def apply_window_map(m, w: Word) -> Word:
    """Slide the rule of m (a WindowMap or Dictionary) along w."""
    if isinstance(m, Dictionary):
        m = m.to_window_map()
    n = m.window
    if w.length < n:
        raise WordTooShort("word of length %d under window %d" % (w.length, n))
    out = 0
    mask = (1 << n) - 1
    for j in range(w.length - n + 1):
        out = (out << 1) | m.rule_bit((w.bits >> (w.length - n - j)) & mask)
    return Word(w.length - n + 1, out)


# Bounded, so the tables of one run are reused without keeping every
# table of the process alive.
@functools.lru_cache(maxsize=128)
def _image_table(m: WindowMap, length: int) -> np.ndarray:
    n = m.window
    if length < n - 1:
        raise WordTooShort("length %d under window %d" % (length, n))
    width = length - n + 1
    values = np.arange(1 << length, dtype=np.int64)
    rule = np.array([(m.rule >> v) & 1 for v in range(1 << n)], dtype=np.int64)
    out = np.zeros(1 << length, dtype=np.int64)
    mask = (1 << n) - 1
    for j in range(width):
        out |= rule[(values >> (length - n - j)) & mask] << (width - 1 - j)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ClassificationRecord:
    """Structural classification of one dictionary."""

    window: int
    members: str
    progressive: bool
    admissible: bool
    linear: bool
    polynomial: Gf2Poly | None
    fiber_count: int | None

    def to_json_dict(self) -> dict:
        return {
            "window": self.window,
            "members": self.members,
            "progressive": self.progressive,
            "admissible": self.admissible,
            "linear": self.linear,
            "polynomial": None if self.polynomial is None else str(self.polynomial),
            "fiber_count": self.fiber_count,
        }


def classify_dictionary(d: Dictionary) -> ClassificationRecord:
    """Decide progressiveness, admissibility and linearity of a dictionary."""
    n = d.window
    m = WindowMap(n, d.members)
    progressive = m.is_progressive
    complement = [v for v in range(1 << n) if not (d.members >> v) & 1]
    closed = all(not (d.members >> (x ^ y)) & 1 for x in complement for y in complement)
    admissible = progressive and closed
    poly = _linear_poly(n, d.members)
    return ClassificationRecord(
        window=n,
        members=str(d),
        progressive=progressive,
        admissible=admissible,
        linear=poly is not None,
        polynomial=poly,
        fiber_count=m.fiber_count if progressive else None,
    )


FILTERS = ("progressive", "admissible", "admissible_and_star_commutes_with_shift")


def progressive_mask(n: int, choice: int) -> int:
    """The progressive dictionary picking completion bits from `choice`."""
    mask = 0
    for a in range(1 << (n - 1)):
        mask |= 1 << ((a << 1) | ((choice >> a) & 1))
    return mask


def enumerate_dictionaries(n: int, filter: str, max_n: int = DEFAULT_WINDOW_LIMIT):
    """Yield dictionaries of window n passing the filter, ascending by mask.

    All filters imply progressive, so candidates are generated from the
    2^(2^(n-1)) completion choices rather than all 2^(2^n) subsets.
    """
    if filter not in FILTERS:
        raise ValueError("unknown filter %r" % filter)
    if n < 2 or n > max_n:
        raise WindowTooLarge("window %d outside 2..%d" % (n, max_n))
    masks = sorted(progressive_mask(n, c) for c in range(1 << (1 << (n - 1))))
    for mask in masks:
        d = Dictionary(n, mask)
        if filter == "progressive":
            yield d
            continue
        record = classify_dictionary(d)
        if not record.admissible:
            continue
        if filter == "admissible":
            yield d
            continue
        from .starcomm import star_commutes_on_kernel

        if star_commutes_on_kernel(Gf2Poly.t(), record.polynomial):
            yield d


def kernel_elements(d: Dictionary) -> list:
    """All sequences mapped to zero by a progressive dictionary's map.

    Each kernel element is determined by its first n-1 symbols, and the
    rule's completion to 0 gives the next symbol, so the kernel is one
    walk over the 2^(n-1) states of that completion.
    """
    m = d.to_window_map()
    if not m.is_progressive:
        raise NotProgressive(str(d))
    width = d.window - 1
    return _kernel_walk(width, [m.completion(state, 0) for state in range(1 << width)])
