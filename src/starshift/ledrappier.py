"""Triangular patches of the three-dot shift and its base-row encoding.

A configuration of the two-dimensional shift with the rule that every
upward triangle of cells sums to zero is determined by its base row: each
higher row is the pairwise sum of the row below, which is also the image
of the row below under the two-word dictionary {01, 10}.  A triangular
patch records finitely many rows of such a configuration, widest first.
"""

from __future__ import annotations

from dataclasses import dataclass

from .budget import admit_rows
from .dictionary import Dictionary, NotProgressive, WordTooShort, apply_window_map
from .words import Word

LEDRAPPIER = Dictionary.from_text("01,10")

BASIC_BLOCKS = (
    (Word.from_str("0"), Word.from_str("00")),
    (Word.from_str("1"), Word.from_str("01")),
    (Word.from_str("1"), Word.from_str("10")),
    (Word.from_str("0"), Word.from_str("11")),
)


def _sums(bits: int, width: int) -> int:
    """The low `width` cells of the row above `bits`: each cell is the sum of the two cells below it."""
    return (bits ^ bits >> 1) & ((1 << width) - 1)


def _pair_sums(w: Word) -> Word:
    """The row above w."""
    return Word(w.length - 1, _sums(w.bits, w.length - 1))


@dataclass(frozen=True)
class TrianglePatch:
    """Rows of decreasing length, each the pairwise sum of the one below."""

    rows: tuple

    def __post_init__(self):
        if not self.rows:
            raise ValueError("a patch needs at least one row")
        for above, below in zip(self.rows[1:], self.rows):
            if above.length != below.length - 1 or above.bits != _sums(below.bits, above.length):
                raise ValueError("rows do not satisfy the triangle rule")

    @property
    def base(self) -> Word:
        return self.rows[0]

    def sub_blocks(self):
        """All (top cell, two base cells) blocks across adjacent rows."""
        for above, below in zip(self.rows[1:], self.rows):
            for i in range(1, below.length):
                yield (
                    Word(1, above.bit(i)),
                    Word.from_bits((below.bit(i), below.bit(i + 1))),
                )

    def serialize(self) -> str:
        return "\n".join(str(row) for row in self.rows)


def triangle_rows(base: Word) -> list:
    """The bits of the full triangle's rows over a base row, widest first; row i has base.length - i bits."""
    if base.length < 1:
        raise WordTooShort("base row must be nonempty")
    return stack_rows(base, base.length - 1)


def complete_patch(base: Word) -> TrianglePatch:
    """The full triangle over a base row, down to a single cell."""
    return TrianglePatch(tuple(Word(base.length - i, bits) for i, bits in enumerate(triangle_rows(base))))


def conjugate_vertical(base: Word) -> Word:
    """One vertical step: the row above the base.

    It is the pairwise-sum row, which is also the image of the base under
    the dictionary {01, 10} and the sum of the base with its shift.
    """
    if base.length < 2:
        raise WordTooShort("vertical step needs length at least 2")
    return _pair_sums(base)


def _admit_stack(d: Dictionary, base: Word, steps: int) -> None:
    """Refuse rows 0..steps of the orbit of `base` under d before any row is built."""
    if not d.to_window_map().is_progressive:
        raise NotProgressive(str(d))
    if steps < 0:
        raise ValueError("steps must be nonnegative, got %d" % steps)
    if base.length < steps * (d.window - 1) + 1:
        raise WordTooShort("base too short for %d steps" % steps)
    admit_rows(base.length, steps, d.window)


def stack_rows(base: Word, steps: int) -> list:
    """The bits of `stack_orbit(LEDRAPPIER, base, steps)`: the triangle's first steps + 1 rows."""
    _admit_stack(LEDRAPPIER, base, steps)
    rows = [base.bits]
    for width in range(base.length - 1, base.length - 1 - steps, -1):
        rows.append(_sums(rows[-1], width))
    return rows


def stack_orbit(d: Dictionary, base: Word, steps: int) -> tuple:
    """Rows 0..steps of the orbit of a base row under a progressive map."""
    _admit_stack(d, base, steps)
    rows = [base]
    for _ in range(steps):
        rows.append(apply_window_map(d, rows[-1]))
    return tuple(rows)
