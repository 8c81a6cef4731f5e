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
import re
from dataclasses import dataclass

from ._lazy import np
from .budget import admit_dictionaries, admit_kernel, admit_window
from .gf2poly import Gf2Poly, _kernel_walk, _sequences
from .words import PeriodicSeq, Word, _check_bits


class WordTooShort(ValueError):
    """Input word shorter than the window requires."""


class NotProgressive(ValueError):
    """Operation requires a progressive dictionary or rule."""


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
        return cls._from_values(n, [w.bits for w in words])

    @classmethod
    def from_text(cls, text: str) -> "Dictionary":
        """Parse the comma-separated form, e.g. "001,100,011,110"."""
        parts = text.split(",")
        # One count over the whole text; only a failure looks for the first bad part.
        if text.count("0") + text.count("1") + len(parts) - 1 != len(text):
            for part in parts:
                _check_bits(part)
        if len(set(map(len, parts))) > 1:
            raise ValueError("dictionary words must share one length")
        return cls._from_values(len(parts[0]), [int("0" + part, 2) for part in parts])

    @classmethod
    def _from_values(cls, window: int, values) -> "Dictionary":
        """The dictionary of these member values, its mask set in one pass.

        The window is admitted first, as the rule of a window-n map is a
        table of 2^n entries.
        """
        admit_window(window)
        mask = bytearray(((1 << window) + 7) // 8)
        for v in values:
            mask[v >> 3] |= 1 << (v & 7)
        return cls(window, int.from_bytes(mask, "little"))

    def __contains__(self, w: Word) -> bool:
        return w.length == self.window and bool((self.members >> w.bits) & 1)

    def _values(self) -> list:
        """The member values, ascending: the positions of the 1s in the mask's binary text."""
        return [m.start() for m in re.finditer("1", bin(self.members)[:1:-1])]

    def words(self) -> list:
        return [Word(self.window, v) for v in self._values()]

    def to_window_map(self) -> "WindowMap":
        return WindowMap(self.window, self.members, _linear_poly(self.window, self.members))

    def __str__(self):
        spec = "0%db" % self.window
        return ",".join([format(v, spec) for v in self._values()])


def _linear_table(window: int, coeffs: int) -> int:
    """The truth table of v -> parity of the window symbols under `coeffs`.

    Symbol i of a window, the coefficient of t^i, is bit window-1-i of v.
    The table over the low j+1 bits is the table over the low j bits
    followed by itself, complemented when bit j is read, so the 2^window
    entries take `window` big-integer doublings.
    """
    table = 0
    for j in range(window):
        size = 1 << j
        high = table ^ ((1 << size) - 1) if (coeffs >> (window - 1 - j)) & 1 else table
        table |= high << size
    return table


def _linear_poly(window: int, rule: int) -> Gf2Poly | None:
    """The polynomial of a linear rule, or None if the rule is not linear.

    A linear rule is fixed by its values on the unit vectors, so the
    candidate coefficients are those bits of the rule, and the rule is
    linear exactly when the candidate's table is the rule.
    """
    coeffs = 0
    for i in range(window):
        coeffs |= ((rule >> (1 << (window - 1 - i))) & 1) << i
    return Gf2Poly(coeffs) if _linear_table(window, coeffs) == rule else None


def _rule_bits(m: "WindowMap") -> np.ndarray:
    """The rule of m as an array of 2^window bits, entry v the value at v, for the array routes."""
    size = 1 << m.window
    raw = np.frombuffer(m.rule.to_bytes((size + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=size, bitorder="little")


_FLIPPED = bytes.maketrans(b"01", b"\1\0")


def _zero_completions(m: "WindowMap") -> bytes:
    """Byte s is the last bit steering a progressive m to 0 after prefix s: 1 - rule(2s + 1).

    Bit v is character 2^n - 1 - v of the rule's binary text, so the odd
    bits are every other character back from the next to last, flipped.
    """
    return format(m.rule, "0%db" % (1 << m.window)).encode()[-2::-2].translate(_FLIPPED)


class WindowMap:
    """A sliding-window map given by its window and local rule truth table.

    A linear map is held as its polynomial, and its 2^window-bit table is
    built only when `rule` is read.  Maps compare and hash by window,
    polynomial and, for a map declared without a polynomial, rule: the
    table of a map with a polynomial is fixed by the two others.
    """

    __slots__ = ("window", "linear_poly", "_rule")

    def __init__(self, window: int, rule: int | None = None, linear_poly: Gf2Poly | None = None):
        if window < 1:
            raise ValueError("window must be at least 1")
        if rule is None:
            if linear_poly is None:
                raise ValueError("a window map needs a rule or a polynomial")
            if linear_poly.bits >> window:
                raise ValueError("window too small for the polynomial")
        else:
            if rule < 0 or rule >> (1 << window):
                raise ValueError("rule table out of range")
            if linear_poly is not None and (
                linear_poly.bits >> window or _linear_table(window, linear_poly.bits) != rule
            ):
                raise ValueError("declared polynomial does not match the rule")
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "linear_poly", linear_poly)
        object.__setattr__(self, "_rule", rule)

    def __setattr__(self, name, value):
        raise AttributeError("WindowMap is immutable")

    def _key(self) -> tuple:
        return (self.window, self.linear_poly, self._rule if self.linear_poly is None else None)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        if self.linear_poly is None:
            return "WindowMap(window=%d, rule=%d)" % (self.window, self._rule)
        return "WindowMap(window=%d, linear_poly=%r)" % (self.window, self.linear_poly)

    @property
    def rule(self) -> int:
        if self._rule is None:
            admit_window(self.window)
            object.__setattr__(self, "_rule", _linear_table(self.window, self.linear_poly.bits))
        return self._rule

    @classmethod
    def shift(cls) -> "WindowMap":
        return cls.from_poly(Gf2Poly.t())

    @classmethod
    def from_poly(cls, poly: Gf2Poly, window: int | None = None) -> "WindowMap":
        """The linear map x -> poly(shift) x with minimal window by default."""
        n = window if window is not None else (1 if poly.is_zero else poly.degree + 1)
        return cls(n, None, poly)

    def rule_bit(self, value: int) -> int:
        return (self.rule >> value) & 1

    def _permutive(self, stride: int) -> bool:
        """Whether table bits v and v + stride differ wherever bit `stride` of v is 0 (admits the window)."""
        admit_window(self.window)
        mask = ((1 << (1 << self.window)) - 1) // ((1 << 2 * stride) - 1) * ((1 << stride) - 1)
        return ((self.rule ^ (self.rule >> stride)) & mask) == mask

    @property
    def is_progressive(self) -> bool:
        """Every (n-1)-prefix has exactly one completion with rule value 1.

        The completions of prefix a are the table bits 2a and 2a+1, so the
        rule is progressive when it is permutive in its last symbol.
        """
        return self._permutive(1)

    @property
    def star_commutes_with_shift(self) -> bool:
        """Whether the shift and this map *-commute: the rule is permutive in its first symbol.

        shift(x1) = map(x2) is completed by the a·x2 with rule(a·w) = x1's first symbol, w the
        first n-1 symbols of x2 (Hedlund's left permutivity; gcd(t, a) = 1 for a linear rule a).
        """
        return self._permutive(1 << (self.window - 1))

    @property
    def fiber_count(self) -> int:
        return 1 << (self.window - 1)

    def apply(self, w: Word) -> Word:
        return apply_window_map(self, w)

    def apply_seq(self, s: PeriodicSeq) -> PeriodicSeq:
        """Image of an eventually periodic sequence; exact via periodicity."""
        m, l, n = s.pre_len, s.per_len, self.window
        src = s.prefix(m + l + n - 1)
        out = apply_window_map(self, src)
        return PeriodicSeq.from_parts(out.prefix(m), Word(l, out.bits & ((1 << l) - 1)))

    def compose(self, other: "WindowMap") -> "WindowMap":
        """The map self after other, with the combined window.

        Linear maps compose by multiplying their polynomials; otherwise
        the outer rule is read at every inner image of a window.
        """
        n = self.window + other.window - 1
        if self.linear_poly is not None and other.linear_poly is not None:
            return WindowMap(n, None, self.linear_poly * other.linear_poly)
        admit_window(n)
        bits = _rule_bits(self)[_image_table(other, n)]
        return WindowMap(n, int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little"))

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
    """Images of all words of the given length.

    Output bit width-1-j reads the window at position j.  For a linear map
    the coefficient of t^i adds symbol j+i, which sits n-1-i bits above
    that output bit, so the table is one shifted copy of the words per
    nonzero coefficient; other rules are looked up once per position.
    """
    n = m.window
    if length < n - 1:
        raise WordTooShort("length %d under window %d" % (length, n))
    width = length - n + 1
    values = np.arange(1 << length, dtype=np.int64)
    out = np.zeros(1 << length, dtype=np.int64)
    if m.linear_poly is not None:
        for i in range(n):
            if m.linear_poly.coeff(i):
                out ^= values >> (n - 1 - i)
        out &= (1 << width) - 1
    else:
        rule = _rule_bits(m).astype(np.int64)
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
    """Decide progressiveness, admissibility and linearity of a dictionary.

    A progressive dictionary leaves 2^(n-1) words out, so its complement
    is closed under sums exactly when it is an index-2 subgroup, the
    kernel of a nonzero linear functional: admissible is progressive and
    linear.
    """
    m = d.to_window_map()
    progressive = m.is_progressive
    poly = m.linear_poly
    return ClassificationRecord(
        window=d.window,
        members=str(d),
        progressive=progressive,
        admissible=progressive and poly is not None,
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


def enumerate_dictionaries(n: int, filter: str):
    """Yield dictionaries of window n passing the filter, ascending by mask.

    Progressive dictionaries are generated from the 2^(2^(n-1)) completion
    choices rather than all 2^(2^n) subsets.  The admissible ones are the
    linear rules of the 2^(n-1) polynomials of degree n-1, and such a rule
    *-commutes with the shift exactly when its constant term is 1.  A
    listing over KERNEL_BUDGET symbols is refused before any is built.
    """
    if filter not in FILTERS:
        raise ValueError("unknown filter %r" % filter)
    admit_dictionaries(n, None if filter == "progressive" else n - 1 if filter == "admissible" else n - 2)
    top = 1 << (n - 1)
    if filter == "progressive":
        masks = sorted(progressive_mask(n, c) for c in range(1 << top))
    else:
        lows = range(top) if filter == "admissible" else range(1, top, 2)
        masks = sorted(WindowMap.from_poly(Gf2Poly(top | low)).rule for low in lows)
    for mask in masks:
        yield Dictionary(n, mask)


def kernel_texts(d: Dictionary) -> list:
    """`kernel_elements` as its sorted "pre:per" texts, with no sequence objects.

    Each kernel element is determined by its first n-1 symbols, and the
    rule's completion to 0 gives the next symbol, so the kernel is one
    walk over the 2^(n-1) states of that completion.  The completions are
    read off the rule integer as bytes, so no array is built.
    """
    width = d.window - 1
    admit_kernel(width)
    m = d.to_window_map()
    if not m.is_progressive:
        raise NotProgressive(str(d))
    return _kernel_walk(width, _zero_completions(m))


def kernel_elements(d: Dictionary) -> list:
    """All sequences mapped to zero by a progressive dictionary's map, sorted."""
    return _sequences(kernel_texts(d))
