"""Expected answers computed apart from starshift, on plain Python ints.

Nothing here imports starshift.  Conventions follow the CLI's text forms:
a polynomial is a bitmask with the coefficient of t^i at bit i and prints
as "1+t+t^3"; a word of length L is an int whose most significant of L
bits is the first symbol; a sequence prints as "prefix:period".
"""

from __future__ import annotations

from collections import Counter, defaultdict
from fractions import Fraction


def gf2_mul(a: int, b: int) -> int:
    """Carry-less product of two GF(2) polynomials."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def gf2_mod(a: int, b: int) -> int:
    """Remainder of a divided by the nonzero polynomial b."""
    db = b.bit_length()
    while a.bit_length() >= db:
        a ^= b << (a.bit_length() - db)
    return a


def gf2_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, gf2_mod(a, b)
    return a


def poly_text(p: int) -> str:
    if p == 0:
        return "0"
    terms = ("1" if i == 0 else "t" if i == 1 else "t^%d" % i for i in range(p.bit_length()) if p >> i & 1)
    return "+".join(terms)


def _pow_t_mod(e: int, p: int) -> int:
    """t^e reduced modulo p, by square and multiply."""
    result, base = 1, gf2_mod(2, p)
    while e:
        if e & 1:
            result = gf2_mod(gf2_mul(result, base), p)
        base = gf2_mod(gf2_mul(base, base), p)
        e >>= 1
    return result


def _prime_factors(n: int) -> list:
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def is_primitive(p: int) -> bool:
    """Whether t has multiplicative order 2^d - 1 modulo p (d = deg p >= 2)."""
    d = p.bit_length() - 1
    order = (1 << d) - 1
    if d < 2 or not p & 1 or _pow_t_mod(order, p) != 1:
        return False
    return all(_pow_t_mod(order // r, p) != 1 for r in _prime_factors(order))


def primitive_polys(d: int) -> list:
    """All primitive polynomials of degree d, ascending by bitmask."""
    return [p for p in range(1 << d, 1 << (d + 1)) if is_primitive(p)]


def window_image(p: int, y: int, length: int) -> int:
    """Image of the length-`length` word y under the linear window map of p.

    Output symbol k is the sum over j of p_j * y_{k+j}; the word of the
    symbols y_{1+j} ... y_{w+j} is y shifted right by deg p - j.
    """
    d = p.bit_length() - 1
    width = length - d
    mask = (1 << width) - 1
    out = 0
    for j in range(d + 1):
        if p >> j & 1:
            out ^= (y >> (d - j)) & mask
    return out


def word_text(bits: int, length: int) -> str:
    return format(bits, "0%db" % length) if length else ""


def linear_members(p: int) -> str:
    """Members of the window-(deg p + 1) dictionary whose map is x -> p(shift) x."""
    n = p.bit_length()
    return ",".join(word_text(v, n) for v in range(1 << n) if window_image(p, v, n))


def census(n: int) -> dict:
    """The classification of window n in closed form.

    Admissible dictionaries are the complements of index-2 subgroups that
    leave one completion per prefix: exactly the linear dictionaries of the
    2^(n-1) polynomials of degree n-1.  They *-commute with the shift
    exactly when the constant term is 1.
    """
    polys = range(1 << (n - 1), 1 << n)
    rows = sorted(
        (
            {"members": linear_members(p), "polynomial": poly_text(p), "star_commutes_with_shift": bool(p & 1)}
            for p in polys
        ),
        key=lambda r: (r["members"], r["polynomial"]),
    )
    return {
        "counts": {
            "total": 1 << (1 << n),
            "progressive": 1 << (1 << (n - 1)),
            "admissible": 1 << (n - 1),
            "star_commuting_with_shift": 1 << (n - 2),
        },
        "admissible": rows,
    }


def seq_prefix(pre: str, per: str, length: int) -> int:
    """The first `length` symbols of pre followed by per repeated, as an int."""
    s = pre + per * (-(-max(length - len(pre), 0) // len(per)))
    return int(s[:length], 2) if length else 0


def in_kernel(p: int, pre: str, per: str) -> bool:
    """Whether p(shift) sends the sequence pre:per to zero.

    After the preperiod the image repeats with the period, so checking the
    first len(pre) + len(per) image symbols decides it.
    """
    d = p.bit_length() - 1
    length = len(pre) + len(per) + d
    return window_image(p, seq_prefix(pre, per, length), length) == 0


def is_normal(pre: str, per: str) -> bool:
    """Primitive period and minimal preperiod, so text equality is sequence equality."""
    if not per:
        return False
    n = len(per)
    if any(n % k == 0 and per[:k] * (n // k) == per for k in range(1, n)):
        return False
    return not pre or pre[-1] != per[-1]


def xor_row(row: str) -> str:
    """The row above in the triangle rule: XOR of adjacent cells."""
    return "".join("1" if a != b else "0" for a, b in zip(row, row[1:]))


def quad_text(m: int, e: int) -> str:
    """The exact value m * 2^(-e/2), printed as starshift prints a + b*sqrt2."""
    if m == 0:
        return "0"
    if e % 2 == 0:
        return str(Fraction(m, 1 << (e // 2)))
    b = Fraction(m, 1 << ((e + 1) // 2))
    coeff = "" if b == 1 else "-" if b == -1 else str(b)
    return coeff + "√2"


def star_witness(pi: int, pj: int, k: int):
    """First row-major nonzero entry of S_i* S_j - S_j S_i* at level k, or None.

    With d = deg and c = 2^(-d/2) the scale of each isometry, entry (x, x')
    of S_i* S_j is c_i c_j #{y : img_i(y) = x, img_j(y) = x'} and of
    S_j S_i* it is c_i c_j [img_j(x) = img_i(x')]; rows have length
    k + dj - di and columns length k.  Returns (row, col, value) as text.
    """
    di, dj = pi.bit_length() - 1, pj.bit_length() - 1
    top = k + dj
    rows = k + dj - di
    counts = defaultdict(Counter)
    for y in range(1 << top):
        counts[window_image(pi, y, top)][window_image(pj, y, top)] += 1
    fibers = defaultdict(set)
    for col in range(1 << k):
        fibers[window_image(pi, col, k)].add(col)
    for x in range(1 << rows):
        row = counts.get(x, {})
        joined = fibers.get(window_image(pj, x, rows), set())
        for col in sorted(set(row) | joined):
            value = row.get(col, 0) - (col in joined)
            if value:
                return word_text(x, rows), word_text(col, k), quad_text(value, di + dj)
    return None
