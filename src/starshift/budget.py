"""Admission: each command asks here once, before any work, whether its largest table or
listing fits, predicted from its size formula; a refusal is an `OverBudget` (exit 2).
"""

from __future__ import annotations

import math

# The most entries one check may build: rule tables, image tables, frames.
TABLE_BUDGET = 1 << 24

# The most symbols any listing may hold: kernels, classifications, enumerated
# dictionaries and patch rows.  2^12 (12 + 2^12) fits, so every kernel degree up to 12 lists.
KERNEL_BUDGET = 1 << 25

# The largest exponent `Gf2Poly.parse` reads, far above every degree a budget admits.
MAX_EXPONENT = 1 << 16
_EXPONENT_DIGITS = len(str(MAX_EXPONENT))


class OverBudget(ValueError):
    """An input whose predicted tables or listing exceed their budget."""


class WindowTooLarge(OverBudget):
    """A window whose rule table or listing is over its budget."""


class WindowTooSmall(ValueError):
    """A window under 2, which has no dictionaries to list: a bad input, not a budget refusal."""


class LevelTooLarge(OverBudget):
    """The requested level needs image tables beyond the entry budget."""

    def __init__(self, level: int, power: int):
        self.level = level
        self.power = power
        # The count in decimal only while it stays within Python's default
        # 4300-digit limit for int to str conversion.
        count = "2^%d" % power
        if power * math.log10(2) < 4300:
            count += " = %d" % self.entries
        super().__init__(_over("level %d needs an image table of %s entries" % (level, count)))

    @property
    def entries(self) -> int:
        return 1 << self.power


class FrameTooLarge(OverBudget):
    """The generators' degrees need a composite frame beyond the entry budget."""


class KernelTooLarge(OverBudget):
    """A kernel listing would exceed KERNEL_BUDGET symbols."""


class PatchTooLarge(OverBudget):
    """A row listing would exceed KERNEL_BUDGET symbols."""


def _over(head: str, budget: int = TABLE_BUDGET, unit: str = "") -> str:
    """A refusal message: `head`, then the budget as a power of two and its unit."""
    return "%s, over the budget of 2^%d%s" % (head, budget.bit_length() - 1, unit)


def admit_window(window: int) -> None:
    """Refuse a window whose rule table, 2^window entries, is over TABLE_BUDGET."""
    if window > TABLE_BUDGET.bit_length() - 1:
        raise WindowTooLarge(_over("window %d needs a rule table of 2^%d entries" % (window, window)))


def admit_level(level: int, power: int) -> None:
    """Refuse a check at `level` whose largest table has 2^power entries, over TABLE_BUDGET."""
    if power > TABLE_BUDGET.bit_length() - 1:
        raise LevelTooLarge(level, power)


def admit_frame(degree: int) -> None:
    """Refuse a top degree d whose square's standard frame stack, (2, 4^d, 4^d), is over TABLE_BUDGET."""
    power = 4 * degree + 1
    if power > TABLE_BUDGET.bit_length() - 1:
        raise FrameTooLarge(_over("degree %d needs a composite frame of 2^%d entries" % (degree, power)))


def _admit_listing(symbols: int, error: type, head: str) -> None:
    """Refuse a listing of `symbols` symbols over KERNEL_BUDGET with `error`, its message led by `head`."""
    if symbols > KERNEL_BUDGET:
        raise error(_over(head, KERNEL_BUDGET, " symbols"))


def admit_kernel(width: int) -> None:
    """Refuse a kernel on `width`-bit states whose listing may exceed KERNEL_BUDGET.

    It has 2^width elements, each a preperiod of at most width symbols and a
    period of at most 2^width, so 2^width (width + 2^width) symbols bound it.
    """
    head = "a degree-%d kernel lists 2^%d elements of up to %d + 2^%d symbols" % ((width,) * 4)
    _admit_listing((1 << width) * (width + (1 << width)), KernelTooLarge, head)


def admit_dictionaries(n: int, c: int | None = None) -> None:
    """Refuse a window under 2, or a listing of 2^c window-n dictionaries over KERNEL_BUDGET.

    Each dictionary lists 2^(n-1) words of n symbols, so the listing holds
    n 2^(c+n-1) symbols; c defaults to 2^(n-1), every progressive
    dictionary.  An exponent past the budget's bit length refuses whatever
    it is, so it is capped there and a huge window forms no huge number.
    """
    if n < 2:
        raise WindowTooSmall("window %d under 2" % n)
    bits = KERNEL_BUDGET.bit_length()
    count = "2^(2^%d)" % (n - 1) if c is None else "2^%d" % c
    if c is None:
        c = 1 << min(n - 1, bits)
    head = "window %d lists %s dictionaries of 2^%d words of %d symbols" % (n, count, n - 1, n)
    _admit_listing(n << min(c + n - 1, bits), WindowTooLarge, head)


def row_symbols(length: int, steps: int, window: int = 2) -> int:
    """The symbols in rows 0..steps over a base of `length`, each row window - 1 shorter."""
    return (steps + 1) * length - (window - 1) * steps * (steps + 1) // 2


def admit_rows(length: int, steps: int, window: int = 2) -> None:
    """Refuse rows 0..steps over a base of `length` if they list more than KERNEL_BUDGET symbols."""
    symbols = row_symbols(length, steps, window)
    head = "a base of %d symbols lists %d rows, %d symbols in all" % (length, steps + 1, symbols)
    _admit_listing(symbols, PatchTooLarge, head)


def admit_exponent(digits: str) -> None:
    """Refuse an exponent's ASCII digits over MAX_EXPONENT, by their count first: `int` refuses over 4300."""
    if len(digits) > _EXPONENT_DIGITS or int(digits) > MAX_EXPONENT:
        raise OverBudget("exponent %s over the limit of 2^%d" % (digits, MAX_EXPONENT.bit_length() - 1))
