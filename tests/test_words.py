"""Tests for binary words and eventually periodic sequences."""

import itertools
from math import lcm

import pytest

from starshift import Gf2Poly, PeriodicSeq, Word, recurrence_kernel


def all_words(length):
    return [Word(length, v) for v in range(1 << length)]


def stream_prefix(pre, per, k):
    """Oracle: first k symbols of pre followed by per repeated, as a tuple."""
    out = list(pre)
    i = 0
    while len(out) < k:
        out.append(per[i % len(per)])
        i += 1
    return tuple(out[:k])


class TestWord:
    def test_str_round_trip_exhaustive(self):
        for length in range(7):
            for w in all_words(length):
                assert Word.from_str(str(w)) == w
                assert len(str(w)) == length

    def test_bits_round_trip(self):
        for length in range(6):
            for bits in itertools.product((0, 1), repeat=length):
                w = Word.from_bits(bits)
                assert w.to_bits() == bits
                assert [w.bit(i) for i in range(1, length + 1)] == list(bits)

    def test_lexicographic_order_matches_numeric(self):
        for length in range(1, 6):
            words = all_words(length)
            as_strings = sorted(words, key=str)
            assert sorted(words) == as_strings
            assert [w.bits for w in sorted(words)] == list(range(1 << length))

    def test_prefix_suffix_concat(self):
        for w in all_words(5):
            s = str(w)
            for k in range(6):
                assert str(w.prefix(k)) == s[:k]
                assert str(w.suffix(k)) == s[5 - k :]
                assert w.prefix(k).concat(w.suffix(5 - k)) == w

    def test_xor_is_bitwise(self):
        for a in all_words(4):
            for b in all_words(4):
                c = a ^ b
                assert c.to_bits() == tuple(x ^ y for x, y in zip(a.to_bits(), b.to_bits()))
                assert c ^ b == a

    def test_empty_word(self):
        empty = Word.from_str("")
        assert empty.length == 0
        assert str(empty) == ""
        assert empty.concat(Word.from_str("01")) == Word.from_str("01")

    def test_errors(self):
        with pytest.raises(ValueError):
            Word.from_str("102")
        with pytest.raises(ValueError):
            Word(-1, 0)
        with pytest.raises(ValueError):
            Word(2, 9)
        with pytest.raises(IndexError):
            Word.from_str("101").bit(0)
        with pytest.raises(IndexError):
            Word.from_str("101").bit(4)
        with pytest.raises(ValueError):
            Word.from_str("101").prefix(4)
        with pytest.raises(ValueError):
            Word.from_str("101") ^ Word.from_str("10")


class TestPeriodicSeq:
    def test_parse_examples(self):
        assert str(PeriodicSeq.parse("1:0")) == "1:0"
        assert str(PeriodicSeq.parse(":01")) == ":01"
        # period is primitivized
        assert str(PeriodicSeq.parse(":0101")) == ":01"
        # preperiod tail matching the rotated period is absorbed
        assert str(PeriodicSeq.parse("00:10")) == "0:01"
        assert str(PeriodicSeq.parse("0:10")) == ":01"
        assert str(PeriodicSeq.parse("1:011")) == ":101"
        # but a genuinely different start is kept
        assert str(PeriodicSeq.parse("01:10")) == "01:10"
        assert PeriodicSeq.parse(":0").is_zero
        assert not PeriodicSeq.parse("1:0").is_zero

    def test_coord_and_prefix(self):
        s = PeriodicSeq.parse("1:011")
        symbols = [1, 0, 1, 1, 0, 1, 1, 0, 1, 1]
        assert [s.coord(i) for i in range(1, 11)] == symbols
        for k in range(11):
            assert s.prefix(k).to_bits() == tuple(symbols[:k])

    def test_normal_form_is_canonical(self):
        """Two descriptions of the same stream give the same object."""
        seen = {}
        for pre_len in range(3):
            for per_len in range(1, 4):
                for pre in itertools.product((0, 1), repeat=pre_len):
                    for per in itertools.product((0, 1), repeat=per_len):
                        s = PeriodicSeq.from_parts(Word.from_bits(pre), Word.from_bits(per))
                        key = stream_prefix(pre, per, 12)
                        assert stream_prefix(pre, per, 12) == s.prefix(12).to_bits()
                        if key in seen:
                            assert seen[key] == s
                        else:
                            seen[key] = s
        # each normal form also satisfies the structural constraints
        for s in seen.values():
            assert s.per_len >= 1
            # period not a repetition of a shorter word
            per = str(s.period)
            for d in range(1, s.per_len):
                if s.per_len % d == 0:
                    assert per != per[:d] * (s.per_len // d)
            # last preperiod symbol differs from last period symbol
            if s.pre_len:
                assert s.preperiod.bit(s.pre_len) != s.period.bit(s.per_len)

    def test_addition_matches_streams(self):
        pool = [
            PeriodicSeq.from_parts(Word.from_bits(pre), Word.from_bits(per))
            for pre_len in range(3)
            for per_len in range(1, 4)
            for pre in itertools.product((0, 1), repeat=pre_len)
            for per in itertools.product((0, 1), repeat=per_len)
        ]
        pool = sorted(set(pool), key=PeriodicSeq.sort_key)
        horizon = max(s.pre_len for s in pool) + 2 * lcm(*{s.per_len for s in pool}) + 2
        for a in pool:
            assert (a + a).is_zero
            assert a + PeriodicSeq.zero() == a
            for b in pool:
                total = a + b
                expected = tuple(
                    a.coord(i) ^ b.coord(i) for i in range(1, horizon + 1)
                )
                assert total.prefix(horizon).to_bits() == expected
                assert total == b + a

    def test_zero(self):
        z = PeriodicSeq.zero()
        assert z.is_zero
        assert str(z) == ":0"
        assert z.prefix(8) == Word(8, 0)

    def test_errors(self):
        with pytest.raises(ValueError):
            PeriodicSeq(0, 0, 2, 3)  # period "11" is not primitive
        with pytest.raises(ValueError):
            PeriodicSeq(1, 0, 1, 0)  # preperiod "0" absorbable into ":0"
        with pytest.raises(ValueError):
            PeriodicSeq.parse("10")
        with pytest.raises(ValueError):
            PeriodicSeq.parse("1:")
        with pytest.raises(IndexError):
            PeriodicSeq.zero().coord(0)

    def test_constructor_refuses_non_normal_forms(self):
        for parts in ((0, 0, 2, 3), (1, 0, 1, 0), (0, 0, 2, 0), (2, 1, 2, 1)):
            with pytest.raises(ValueError, match="not in normal form; use from_parts"):
                PeriodicSeq(*parts)

    def test_from_parts_results_pass_the_constructor_check(self):
        for pre_len in range(4):
            for per_len in range(1, 5):
                for pre in itertools.product((0, 1), repeat=pre_len):
                    for per in itertools.product((0, 1), repeat=per_len):
                        s = PeriodicSeq.from_parts(Word.from_bits(pre), Word.from_bits(per))
                        assert PeriodicSeq(s.pre_len, s.pre_bits, s.per_len, s.per_bits) == s

    def test_parse_round_trips_every_kernel_element_up_to_degree_8(self):
        for mask in range(1, 1 << 9):
            for s in recurrence_kernel(Gf2Poly(mask)):
                assert PeriodicSeq.parse(str(s)) == s

    def test_sort_key_orders_deterministically(self):
        pool = {PeriodicSeq.parse(t) for t in (":0", ":1", "1:0", "0:1", ":01", ":10")}
        ordered = sorted(pool, key=PeriodicSeq.sort_key)
        assert [str(s) for s in ordered] == [":0", ":1", ":01", ":10", "0:1", "1:0"]
