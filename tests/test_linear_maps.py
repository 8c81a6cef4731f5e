"""Linear window maps held as polynomials, against the truth-table routes.

Each oracle here is a route that reads the 2^window-bit truth table
window by window: the table filled with one parity per window, the
linearity check over every window, admissibility as closure of the
complement under sums, composition by one outer-rule lookup per window,
and image tables by one lookup pass per window position.  The program
reads all of these off the polynomial instead.
"""

import itertools

import numpy as np
import pytest

from starshift import (
    Dictionary,
    DynamicalSystem,
    Gf2Poly,
    WindowMap,
    certify_system,
    classify_dictionary,
    enumerate_dictionaries,
    star_commutes_on_kernel,
)
from starshift import dictionary
from starshift.dictionary import ClassificationRecord, progressive_mask


def table_by_windows(window: int, poly: Gf2Poly) -> int:
    """The rule of poly(shift): the parity of each window under the coefficients.

    The loop over coefficients is explicit and the loop over the 2^window
    windows runs in numpy, one parity bit per window.
    """
    values = np.arange(1 << window, dtype=np.int64)
    parity = np.zeros(1 << window, dtype=np.uint8)
    for i in range(window):
        if poly.coeff(i):
            parity ^= ((values >> (window - 1 - i)) & 1).astype(np.uint8)
    return int.from_bytes(np.packbits(parity, bitorder="little").tobytes(), "little")


def linear_poly_by_windows(window: int, rule: int):
    """The polynomial read off the unit vectors, then checked on every window."""
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


def progressive_by_prefixes(window: int, rule: int) -> bool:
    return all(
        (rule >> (a << 1)) & 1 != (rule >> ((a << 1) | 1)) & 1 for a in range(1 << (window - 1))
    )


def complement_closed(window: int, members: int) -> bool:
    """x + y stays outside the dictionary for all x, y outside it."""
    complement = [v for v in range(1 << window) if not (members >> v) & 1]
    return all(not (members >> (x ^ y)) & 1 for x in complement for y in complement)


def record_by_windows(d: Dictionary) -> ClassificationRecord:
    n = d.window
    progressive = progressive_by_prefixes(n, d.members)
    poly = linear_poly_by_windows(n, d.members)
    return ClassificationRecord(
        window=n,
        members=str(d),
        progressive=progressive,
        admissible=progressive and complement_closed(n, d.members),
        linear=poly is not None,
        polynomial=poly,
        fiber_count=1 << (n - 1) if progressive else None,
    )


def image_table_by_position(m: WindowMap, length: int) -> np.ndarray:
    """One rule lookup per window position over all words at once."""
    n = m.window
    width = length - n + 1
    values = np.arange(1 << length, dtype=np.int64)
    rule = np.array([(m.rule >> v) & 1 for v in range(1 << n)], dtype=np.int64)
    out = np.zeros(1 << length, dtype=np.int64)
    mask = (1 << n) - 1
    for j in range(width):
        out |= rule[(values >> (length - n - j)) & mask] << (width - 1 - j)
    return out


def compose_by_windows(outer: WindowMap, inner: WindowMap) -> WindowMap:
    """outer after inner: the outer rule read at the inner image of each window."""
    n = outer.window + inner.window - 1
    images = image_table_by_position(inner, n)
    rule = 0
    for v in range(1 << n):
        rule |= outer.rule_bit(int(images[v])) << v
    poly = None
    if outer.linear_poly is not None and inner.linear_poly is not None:
        poly = outer.linear_poly * inner.linear_poly
    return WindowMap(n, rule, poly)


def enumerate_by_closure(n: int) -> dict:
    """The admissible filters by classifying every progressive dictionary."""
    found = {"admissible": [], "admissible_and_star_commutes_with_shift": []}
    for mask in sorted(progressive_mask(n, c) for c in range(1 << (1 << (n - 1)))):
        if not complement_closed(n, mask):
            continue
        found["admissible"].append(mask)
        if star_commutes_on_kernel(Gf2Poly.t(), linear_poly_by_windows(n, mask)):
            found["admissible_and_star_commutes_with_shift"].append(mask)
    return found


def polys_up_to(degree: int):
    return [Gf2Poly(bits) for bits in range(1, 1 << (degree + 1))]


def small_progressive_maps() -> list:
    """Progressive maps of windows 1-3, with and without a declared polynomial."""
    maps = [WindowMap(1, 0b10), WindowMap(1, 0b01), WindowMap.from_poly(Gf2Poly.one())]
    for n in (2, 3):
        for d in enumerate_dictionaries(n, "progressive"):
            maps.append(d.to_window_map())
            if maps[-1].linear_poly is not None:
                maps.append(WindowMap(n, d.members))
    return maps


def test_classification_matches_on_every_small_dictionary():
    for n in (2, 3, 4):
        for members in range(1 << (1 << n)):
            d = Dictionary(n, members)
            assert classify_dictionary(d) == record_by_windows(d)


@pytest.mark.parametrize("degree", range(-1, 11))
def test_from_poly_tables(degree):
    polys = [Gf2Poly.zero()] if degree < 0 else [Gf2Poly(b) for b in range(1 << degree, 1 << (degree + 1))]
    low = max(degree + 1, 1)
    for p in polys:
        for n in range(low, low + 3):
            m = WindowMap.from_poly(p, n)
            rule = table_by_windows(n, p)
            # Compared before its table is built, then after.
            assert m == WindowMap(n, rule, p)
            assert hash(m) == hash(WindowMap(n, rule, p))
            assert m != WindowMap(n, rule)
            assert m.rule == rule
            assert m == WindowMap(n, rule, p)
            assert dictionary._linear_poly(n, rule) == p
            if degree <= 6:
                assert m.is_progressive == progressive_by_prefixes(n, rule)
                assert dictionary._linear_poly(n, rule) == linear_poly_by_windows(n, rule)


def test_declared_polynomial_is_checked():
    with pytest.raises(ValueError, match="does not match"):
        WindowMap(3, table_by_windows(3, Gf2Poly.parse("1+t")), Gf2Poly.parse("1+t^2"))
    with pytest.raises(ValueError, match="does not match"):
        WindowMap(2, table_by_windows(2, Gf2Poly.parse("1+t")), Gf2Poly.parse("1+t^2"))
    with pytest.raises(ValueError, match="window too small"):
        WindowMap.from_poly(Gf2Poly.parse("1+t^2"), 2)


def test_compose_linear_pairs():
    polys = polys_up_to(5)
    for p, q in itertools.product(polys, polys):
        mp, mq = WindowMap.from_poly(p), WindowMap.from_poly(q)
        composed = mp.compose(mq)
        expected = compose_by_windows(mp, mq)
        assert composed == expected
        assert composed.rule == expected.rule


def test_compose_progressive_pairs():
    maps = small_progressive_maps()
    assert sum(m.linear_poly is None for m in maps) > len(maps) // 2
    for outer, inner in itertools.product(maps, maps):
        composed = outer.compose(inner)
        expected = compose_by_windows(outer, inner)
        assert composed == expected
        assert composed.rule == expected.rule
        assert (composed.linear_poly is None) == (expected.linear_poly is None)


def test_image_tables_of_linear_maps():
    for n in range(1, 8):
        for bits in range(1 << n):
            m = WindowMap.from_poly(Gf2Poly(bits), n)
            for length in range(n - 1, 13):
                assert np.array_equal(m.image_table(length), image_table_by_position(m, length))


def test_image_tables_of_progressive_maps():
    for m in small_progressive_maps():
        for length in range(m.window - 1, 11):
            assert np.array_equal(m.image_table(length), image_table_by_position(m, length))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_admissible_enumeration_matches_closure_route(n):
    expected = enumerate_by_closure(n)
    for name, masks in expected.items():
        assert [d.members for d in enumerate_dictionaries(n, name)] == masks


def test_admissible_enumeration_skips_progressive_masks(monkeypatch):
    def refuse(*args):
        raise AssertionError("walked the progressive masks")

    monkeypatch.setattr(dictionary, "progressive_mask", refuse)
    found = list(enumerate_dictionaries(6, "admissible"))
    assert len(found) == 32
    assert [d.members for d in found] == sorted(
        table_by_windows(6, Gf2Poly(32 | low)) for low in range(32)
    )
    assert all(classify_dictionary(d).admissible for d in found)


def test_certify_builds_no_truth_table(monkeypatch):
    def refuse(*args):
        raise AssertionError("built a truth table")

    monkeypatch.setattr(dictionary, "_linear_table", refuse)
    system = DynamicalSystem.from_polys([Gf2Poly.t(), Gf2Poly.parse("1+t^3+t^31")])
    cert = certify_system(system)
    assert cert.valid and cert.minimal and cert.topologically_free
    assert cert.rank_witness == {
        "rank": 2,
        "generators": ["t", "1+t^3+t^31"],
        "irreducibles": ["t", "1+t^3+t^31"],
        "exponent_matrix": [[1, 0], [0, 1]],
    }
