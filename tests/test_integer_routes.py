"""Differential tests: integer normal forms and texts against the string routes.

`words._normalize` finds a period's primitive root by rotating its bits,
`PeriodicSeq` and `Dictionary` write their text straight from their
integers, and `Dictionary.from_text` parses each member with `int(part, 2)`
after one explicit 0/1 check.  The references here are the string routes
they replaced: the root as the first recurrence of the period's text in
the doubled text, sequence text assembled from two `Word`s, and dictionary
text written and parsed one `Word` per member.
"""

import random

import pytest

from starshift import (
    Dictionary,
    Gf2Poly,
    PeriodicSeq,
    Word,
    enumerate_dictionaries,
    kernel_elements,
    recurrence_kernel,
)
from starshift.dictionary import progressive_mask
from starshift.words import _normalize


def text_normalize(pre_len, pre_bits, per_len, per_bits):
    """The normal form, with the root found by searching the doubled period text."""
    text = format(per_bits, "0%db" % per_len)
    root = (text + text).find(text, 1)
    per_len, per_bits = root, per_bits >> (per_len - root)
    while pre_len > 0 and (pre_bits & 1) == (per_bits & 1):
        per_bits = ((per_bits & 1) << (per_len - 1)) | (per_bits >> 1)
        pre_bits >>= 1
        pre_len -= 1
    return pre_len, pre_bits, per_len, per_bits


def word_text(s):
    """The "preperiod:period" text of a sequence, from its two words."""
    return "%s:%s" % (s.preperiod, s.period)


def word_dictionary_text(d):
    return ",".join(str(w) for w in d.words())


def word_from_text(text):
    """Dictionary text parsed one `Word` per member."""
    return Dictionary.from_words(Word.from_str(part) for part in text.split(","))


def outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return type(exc), str(exc)


def assert_listing_matches(elements):
    """Every element is in the string route's normal form and prints alike."""
    for s in elements:
        parts = (s.pre_len, s.pre_bits, s.per_len, s.per_bits)
        assert text_normalize(*parts) == parts
    assert [str(s) for s in elements] == [word_text(s) for s in elements]


def test_every_short_period_and_preperiod():
    """Periods of length up to 12, each under every preperiod up to length 3.

    The constructor still refuses every form that is not normal.
    """
    for per_len in range(1, 13):
        for per_bits in range(1 << per_len):
            for pre_len in range(4):
                for pre_bits in range(1 << pre_len):
                    parts = (pre_len, pre_bits, per_len, per_bits)
                    normal = _normalize(*parts)
                    assert normal == text_normalize(*parts), parts
                    s = PeriodicSeq(*normal)
                    assert str(s) == word_text(s)
                    if normal != parts:
                        with pytest.raises(ValueError, match="not in normal form"):
                            PeriodicSeq(*parts)


def test_long_periods_match_the_text_route():
    """Prime, prime-power and highly composite lengths, random and repeated."""
    rng = random.Random(20261018)
    for per_len in (127, 128, 255, 360, 511, 720, 1024, 4095, 8191):
        for root in (1, 2, 3, 5, 8, 15, per_len):
            if per_len % root:
                continue
            word = rng.getrandbits(root)
            per_bits = int(format(word, "0%db" % root) * (per_len // root), 2)
            for pre_len, pre_bits in ((0, 0), (3, 0b101), (5, rng.getrandbits(5))):
                parts = (pre_len, pre_bits, per_len, per_bits)
                assert _normalize(*parts) == text_normalize(*parts), (per_len, root)


def test_every_recurrence_kernel_up_to_degree_10():
    for degree in range(11):
        for low in range(1 << degree):
            assert_listing_matches(recurrence_kernel(Gf2Poly((1 << degree) | low)))


def test_every_progressive_dictionary_kernel_up_to_window_5():
    for n in (2, 3, 4, 5):
        for d in enumerate_dictionaries(n, "progressive"):
            assert_listing_matches(kernel_elements(d))


def test_sampled_window_6_dictionary_kernels():
    """Window 6 has 2^32 progressive dictionaries; this is a seeded sample."""
    rng = random.Random(20261018)
    for _ in range(4096):
        d = Dictionary(6, progressive_mask(6, rng.getrandbits(32)))
        assert_listing_matches(kernel_elements(d))


@pytest.mark.parametrize(
    "parts", [(0, 0, 1, 2), (0, 0, 1, -1), (0, 0, 3, 8), (1, 2, 1, 0), (1, 3, 1, 0), (-1, 0, 1, 0)]
)
def test_out_of_range_bits_are_refused(parts):
    with pytest.raises(ValueError, match="sequence bits out of range"):
        PeriodicSeq(*parts)


def test_every_window_4_dictionary_text_round_trips():
    for members in range(1 << 16):
        d = Dictionary(4, members)
        text = str(d)
        assert text == word_dictionary_text(d)
        assert outcome(Dictionary.from_text, text) == outcome(word_from_text, text)
        if members:
            assert Dictionary.from_text(text) == d


MALFORMED = [
    "0_1,10", " 01,10", "01 ,10", "+01,10", "-1,10", "0b1,10", "0x1,10", "\u0661\u0660,01",
    "01,1", "01,,10", "", ",", "0,1", "01,10,2", "01,1,x", "01,01,10", "110,001,1_0",
]  # fmt: skip


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_text_fails_alike(text):
    assert outcome(Dictionary.from_text, text) == outcome(word_from_text, text)
