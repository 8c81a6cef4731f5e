"""Tests for dictionaries, window maps and their classification."""

import itertools
import re
import time
import tracemalloc

import numpy as np
import pytest

import starshift.dictionary as dictionary
from starshift.budget import OverBudget, admit_dictionaries
from starshift import (
    Dictionary,
    Gf2Poly,
    NotProgressive,
    WindowMap,
    WindowTooLarge,
    WindowTooSmall,
    Word,
    WordTooShort,
    apply_window_map,
    classify_dictionary,
    enumerate_dictionaries,
    kernel_elements,
    recurrence_kernel,
)


def brute_force_all_dictionaries(n):
    """Oracle: every subset of {0,1}^n with its progressive/admissible status.

    Progressive: each length-(n-1) word has exactly one member completion.
    Admissible: progressive and the non-member set is closed under xor.
    """
    out = []
    words = list(itertools.product((0, 1), repeat=n))
    for subset in itertools.product((0, 1), repeat=len(words)):
        members = {w for w, keep in zip(words, subset) if keep}
        progressive = all(
            sum((prefix + (last,)) in members for last in (0, 1)) == 1
            for prefix in itertools.product((0, 1), repeat=n - 1)
        )
        complement = [w for w in words if w not in members]
        closed = all(
            tuple(x ^ y for x, y in zip(u, v)) in complement
            for u in complement
            for v in complement
        )
        out.append((members, progressive, progressive and closed))
    return out


def dictionary_from_tuples(n, members):
    return Dictionary.from_words([Word.from_bits(w) for w in sorted(members)])


def apply_oracle(members, word_bits):
    """Oracle: slide the window, output membership indicators."""
    n = len(next(iter(members)))
    return tuple(
        1 if tuple(word_bits[i : i + n]) in members else 0
        for i in range(len(word_bits) - n + 1)
    )


class TestDictionary:
    def test_from_text_round_trip(self):
        d = Dictionary.from_text("01,10")
        assert str(d) == "01,10"
        assert d.window == 2
        assert Word.from_str("01") in d
        assert Word.from_str("11") not in d
        assert [str(w) for w in d.words()] == ["01", "10"]

    @pytest.mark.parametrize("window", [15, 16, 17])
    def test_large_window_round_trip(self, window):
        d = Dictionary(window, WindowMap.from_poly(Gf2Poly((1 << (window - 1)) | 1)).rule)
        text = str(d)
        assert Dictionary.from_text(text) == d
        assert Dictionary.from_words(d.words()) == d
        assert [str(w) for w in d.words()] == text.split(",")
        assert len(d.words()) == 1 << (window - 1)

    def test_members_take_memory_linear_in_the_mask(self):
        """Window 16: building one 2^16-bit integer per member would take over 100 MB."""
        text = str(Dictionary(16, WindowMap.from_poly(Gf2Poly((1 << 15) | 1)).rule))
        tracemalloc.start()
        try:
            d = Dictionary.from_text(text)
            str(d)
            d.words()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20

    @pytest.mark.parametrize("window", [25, 30])
    def test_window_over_the_table_budget_is_refused(self, window):
        message = re.escape(
            "window %d needs a rule table of 2^%d entries, over the budget of 2^24" % (window, window)
        )
        with pytest.raises(WindowTooLarge, match=message):
            Dictionary.from_text("1" * window)
        with pytest.raises(WindowTooLarge, match=message):
            Dictionary.from_words([Word(window, 0)])

    def test_window_at_the_table_budget_is_read(self):
        assert Dictionary.from_text("1" * 24).words() == [Word(24, (1 << 24) - 1)]

    def test_member_length_mismatch(self):
        with pytest.raises(ValueError):
            Dictionary.from_text("01,100")

    def test_window_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            Dictionary.from_text("0,1")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Dictionary.from_text("")


class TestApply:
    def test_examples(self):
        led = Dictionary.from_text("01,10")
        assert str(apply_window_map(led, Word.from_str("1101"))) == "011"
        third_bit = Dictionary.from_text("001,011,101,111")
        assert str(apply_window_map(third_bit, Word.from_str("10110"))) == "110"

    def test_against_sliding_oracle(self):
        for n in (2, 3):
            for members, progressive, _ in brute_force_all_dictionaries(n):
                if not members:
                    continue
                d = dictionary_from_tuples(n, members)
                for length in (n, n + 3):
                    for bits in itertools.product((0, 1), repeat=length):
                        image = apply_window_map(d, Word.from_bits(bits))
                        assert image.to_bits() == apply_oracle(members, bits)

    def test_word_too_short(self):
        with pytest.raises(WordTooShort):
            apply_window_map(Dictionary.from_text("011,101"), Word.from_str("01"))

    def test_apply_seq_consistent_with_apply(self):
        led = Dictionary.from_text("01,10").to_window_map()
        for text in ("1:0", ":011", "10:1", ":0"):
            from starshift import PeriodicSeq

            s = PeriodicSeq.parse(text)
            image = led.apply_seq(s)
            k = 12
            assert image.prefix(k) == led.apply(s.prefix(k + 1))

    def test_compose_applies_inner_first(self):
        aff = Dictionary.from_text("00,11").to_window_map()
        maj = WindowMap(3, (1 << 3) | (1 << 5) | (1 << 6) | (1 << 7))
        for bits in itertools.product((0, 1), repeat=7):
            w = Word.from_bits(bits)
            assert aff.compose(maj).apply(w) == aff.apply(maj.apply(w))
            assert maj.compose(aff).apply(w) == maj.apply(aff.apply(w))

    def test_compose_multiplies_polynomials(self):
        for a in ("t", "1+t", "1+t+t^2", "t^2"):
            for b in ("t", "1+t", "1+t^2"):
                ma = WindowMap.from_poly(Gf2Poly.parse(a))
                mb = WindowMap.from_poly(Gf2Poly.parse(b))
                assert ma.compose(mb).linear_poly == Gf2Poly.parse(a) * Gf2Poly.parse(b)


class TestClassification:
    def test_against_brute_force_oracle(self):
        """The classifier agrees with first-principles enumeration on n=2,3."""
        for n in (2, 3):
            oracle = brute_force_all_dictionaries(n)
            for members, progressive, admissible in oracle:
                if not members:
                    continue
                record = classify_dictionary(dictionary_from_tuples(n, members))
                assert record.progressive == progressive
                assert record.admissible == admissible
            assert sum(1 for _, p, _ in oracle if p) == (4, 16)[n - 2]
            assert sum(1 for _, _, a in oracle if a) == (2, 4)[n - 2]

    def test_examples(self):
        rec = classify_dictionary(Dictionary.from_text("01,10"))
        assert rec.progressive and rec.admissible and rec.linear
        assert rec.polynomial == Gf2Poly.parse("1+t")
        assert rec.fiber_count == 2

        rec = classify_dictionary(Dictionary.from_text("001,011,100,110"))
        assert rec.admissible
        assert rec.polynomial == Gf2Poly.parse("1+t^2")
        assert rec.fiber_count == 4

        # progressive, but the rule is affine: not admissible, not linear
        rec = classify_dictionary(Dictionary.from_text("000,011,101,110"))
        assert rec.progressive and not rec.admissible and not rec.linear
        assert rec.polynomial is None

        # not progressive at all
        rec = classify_dictionary(Dictionary.from_text("01,10,11"))
        assert not rec.progressive and not rec.admissible
        assert rec.fiber_count is None

    def test_admissible_polynomial_is_monic_of_degree_window_minus_one(self):
        for n in (2, 3, 4):
            for d in enumerate_dictionaries(n, "admissible"):
                poly = classify_dictionary(d).polynomial
                assert poly.degree == n - 1
                assert poly.coeff(n - 1) == 1

    def test_to_json_dict(self):
        rec = classify_dictionary(Dictionary.from_text("01,10"))
        assert rec.to_json_dict() == {
            "window": 2,
            "members": "01,10",
            "progressive": True,
            "admissible": True,
            "linear": True,
            "polynomial": "1+t",
            "fiber_count": 2,
        }


class TestEnumeration:
    def test_window_3_admissible(self):
        found = {str(d) for d in enumerate_dictionaries(3, "admissible")}
        assert found == {
            "001,011,100,110",
            "001,010,100,111",
            "001,010,101,110",
            "001,011,101,111",
        }
        polys = {
            str(classify_dictionary(d).polynomial)
            for d in enumerate_dictionaries(3, "admissible")
        }
        assert polys == {"1+t^2", "1+t+t^2", "t+t^2", "t^2"}

    def test_window_2(self):
        assert {str(d) for d in enumerate_dictionaries(2, "admissible")} == {"01,10", "01,11"}
        assert [str(d) for d in enumerate_dictionaries(2, "admissible_and_star_commutes_with_shift")] == [
            "01,10"
        ]

    def test_progressive_enumeration_matches_oracle(self):
        for n in (2, 3):
            enumerated = {str(d) for d in enumerate_dictionaries(n, "progressive")}
            oracle = {
                str(dictionary_from_tuples(n, members))
                for members, progressive, _ in brute_force_all_dictionaries(n)
                if progressive
            }
            assert enumerated == oracle
            assert len(enumerated) == 1 << (1 << (n - 1))

    def test_filters_are_nested(self):
        for n in (2, 3, 4):
            progressive = {str(d) for d in enumerate_dictionaries(n, "progressive")}
            admissible = {str(d) for d in enumerate_dictionaries(n, "admissible")}
            star = {
                str(d)
                for d in enumerate_dictionaries(n, "admissible_and_star_commutes_with_shift")
            }
            assert star <= admissible <= progressive
            assert len(admissible) == 1 << (n - 1)
            assert len(star) == 1 << (n - 2)

    def test_star_filter_keeps_constant_term_one(self):
        for n in (2, 3, 4):
            for d in enumerate_dictionaries(n, "admissible_and_star_commutes_with_shift"):
                assert classify_dictionary(d).polynomial.coeff(0) == 1

    def test_window_limit_and_bad_filter(self):
        with pytest.raises(WindowTooLarge):
            list(enumerate_dictionaries(6, "progressive"))
        with pytest.raises(WindowTooSmall):
            list(enumerate_dictionaries(1, "progressive"))
        with pytest.raises(ValueError):
            list(enumerate_dictionaries(3, "everything"))
        assert len(list(enumerate_dictionaries(2, "progressive"))) == 4


class TestListingBudget:
    """enumerate_dictionaries admits a window by the size of its listing alone."""

    @pytest.mark.parametrize(
        "n, filter, count",
        [(5, "progressive", 65536), (11, "admissible", 1024), (12, "admissible_and_star_commutes_with_shift", 1024)],
    )
    def test_largest_admitted_windows(self, n, filter, count):
        found = list(enumerate_dictionaries(n, filter))
        assert len(found) == count
        assert count * n << (n - 1) <= 1 << 25

    @pytest.mark.parametrize(
        "n, filter, count",
        [
            (6, "progressive", "2^(2^5)"),
            (12, "admissible", "2^11"),
            (13, "admissible_and_star_commutes_with_shift", "2^11"),
        ],
    )
    def test_first_refused_windows(self, monkeypatch, n, filter, count):
        def refuse(*args):
            raise AssertionError("a dictionary was built")

        monkeypatch.setattr(dictionary, "progressive_mask", refuse)
        monkeypatch.setattr(dictionary, "_linear_table", refuse)
        start = time.perf_counter()
        with pytest.raises(WindowTooLarge) as info:
            next(enumerate_dictionaries(n, filter))
        assert time.perf_counter() - start < 1
        assert str(info.value) == (
            "window %d lists %s dictionaries of 2^%d words of %d symbols, "
            "over the budget of 2^25 symbols" % (n, count, n - 1, n)
        )

    @pytest.mark.parametrize("filter, count", zip(dictionary.FILTERS, ("2^(2^999999999)", "2^999999999", "2^999999998")))
    def test_huge_and_small_windows_are_refused_at_once(self, filter, count):
        n = 10**9
        start = time.perf_counter()
        with pytest.raises(WindowTooLarge) as info:
            next(enumerate_dictionaries(n, filter))
        assert time.perf_counter() - start < 1
        assert str(info.value) == (
            "window %d lists %s dictionaries of 2^%d words of %d symbols, "
            "over the budget of 2^25 symbols" % (n, count, n - 1, n)
        )
        for n in (1, 0, -3):
            with pytest.raises(WindowTooSmall, match="^window %d under 2$" % n):
                next(enumerate_dictionaries(n, filter))

    def test_a_small_window_is_not_a_budget_refusal(self):
        """A caller that reads OverBudget as "too large to compute" does not catch a window under 2."""
        assert not issubclass(WindowTooSmall, OverBudget)
        with pytest.raises(WindowTooSmall, match="^window 1 under 2$"):
            try:
                admit_dictionaries(1)
            except OverBudget:
                pytest.fail("a window under 2 was caught as a budget refusal")


class TestKernelElements:
    def test_matches_recurrence_kernel_for_all_admissible(self):
        for n in (2, 3, 4, 5):
            for d in enumerate_dictionaries(n, "admissible"):
                poly = classify_dictionary(d).polynomial
                from_dict = {str(s) for s in kernel_elements(d)}
                from_poly = {str(s) for s in recurrence_kernel(poly)}
                assert from_dict == from_poly

    def test_nonlinear_progressive_kernel(self):
        # members map to one, so the kernel avoids 00 and 11 windows
        d = Dictionary.from_text("00,11")
        assert {str(s) for s in kernel_elements(d)} == {":01", ":10"}

    def test_kernel_elements_map_to_zero(self):
        for n in (2, 3):
            for d in enumerate_dictionaries(n, "progressive"):
                m = d.to_window_map()
                for s in kernel_elements(d):
                    assert m.apply_seq(s).is_zero

    def test_kernel_count_is_fiber_count(self):
        for n in (2, 3, 4):
            for d in enumerate_dictionaries(n, "progressive"):
                assert len(kernel_elements(d)) == 1 << (n - 1)

    def test_not_progressive_raises(self):
        with pytest.raises(NotProgressive, match="^01,10,11$"):
            kernel_elements(Dictionary.from_text("01,10,11"))


class TestWindowMapRegularity:
    def test_every_image_word_has_equal_fiber(self):
        for n in (2, 3, 4):
            for d in enumerate_dictionaries(n, "progressive"):
                m = d.to_window_map()
                for k in (1, 4, 8):
                    images = m.image_table(k + n - 1)
                    counts = np.bincount(images, minlength=1 << k)
                    assert (counts == 1 << (n - 1)).all()

    def test_image_table_cache_is_bounded(self):
        from starshift.dictionary import _image_table

        maxsize = _image_table.cache_info().maxsize
        assert maxsize == 128
        maps = [d.to_window_map() for d in enumerate_dictionaries(3, "progressive")]
        for m in maps:
            for length in range(2, 12):
                m.image_table(length)
        assert len(maps) * 10 > maxsize
        assert _image_table.cache_info().currsize <= maxsize

    def test_image_table_matches_apply(self):
        m = Dictionary.from_text("001,010,100,111").to_window_map()
        length = 9
        images = m.image_table(length)
        for value in (0, 1, 137, 511):
            w = Word(length, value)
            assert m.apply(w).bits == int(images[value])

    def test_from_poly_window_padding(self):
        p = Gf2Poly.parse("1+t")
        assert WindowMap.from_poly(p).window == 2
        wide = WindowMap.from_poly(p, window=4)
        assert wide.window == 4
        narrow = WindowMap.from_poly(p)
        for bits in itertools.product((0, 1), repeat=6):
            w = Word.from_bits(bits)
            assert wide.apply(w) == narrow.apply(w).prefix(3)

    def test_shift(self):
        sigma = WindowMap.shift()
        assert sigma.linear_poly == Gf2Poly.t()
        assert str(sigma.apply(Word.from_str("10110"))) == "0110"
